//! Derives that accept `#[serde(..)]` attributes and emit nothing.
use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
