//! Offline stand-in for `serde`: the derives compile to nothing. The
//! repository serializes through `ntadoc_pmem::json`, never through serde.
pub use serde_derive::{Deserialize, Serialize};
