//! Word extraction from raw text.
//!
//! TADOC's preprocessing performs a "dictionary conversion of the original
//! data input" — i.e. the unit of compression and of analytics is the word.
//! This tokenizer matches the behaviour of the reference TADOC pipeline:
//! split on whitespace, strip surrounding punctuation, optionally lowercase.

/// Tokenizer options.
#[derive(Debug, Clone)]
pub struct TokenizerConfig {
    /// Fold tokens to lowercase (the PUMA-style benchmarks are
    /// case-insensitive).
    pub lowercase: bool,
    /// Strip leading/trailing non-alphanumeric characters from each token.
    pub strip_punct: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig { lowercase: true, strip_punct: true }
    }
}

/// The tokens of one text, handed out one at a time as `&str`: no
/// allocation per token.
///
/// A token that is already what the configuration asks for — after
/// trimming, every token of lower-case ASCII text — is a slice of the text
/// itself. One that lower-casing changes is folded into a buffer the
/// tokenizer owns and reuses, which is why [`next_token`](Self::next_token)
/// lends its result only until the next call (and why this is not an
/// [`Iterator`]). Trimming is `char::is_alphanumeric` and folding is
/// `str::to_lowercase`, exactly as in [`tokenize`], which collects these
/// tokens.
pub struct Tokens<'t> {
    words: std::str::SplitWhitespace<'t>,
    cfg: TokenizerConfig,
    /// The current token when lower-casing changed it.
    folded: String,
}

impl<'t> Tokens<'t> {
    /// Tokenize `text` according to `cfg`.
    pub fn new(text: &'t str, cfg: &TokenizerConfig) -> Self {
        Tokens { words: text.split_whitespace(), cfg: cfg.clone(), folded: String::new() }
    }

    /// The next token as it stands in the text: trimmed, not yet folded.
    /// Empty tokens (e.g. a bare punctuation mark) are dropped.
    fn next_raw(&mut self) -> Option<&'t str> {
        loop {
            let raw = self.words.next()?;
            let token = if self.cfg.strip_punct {
                raw.trim_matches(|c: char| !c.is_alphanumeric())
            } else {
                raw
            };
            if !token.is_empty() {
                return Some(token);
            }
        }
    }

    /// The next token, valid until the next call.
    pub fn next_token(&mut self) -> Option<&str> {
        let token = self.next_raw()?;
        if !self.cfg.lowercase || token.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
            return Some(token);
        }
        if token.is_ascii() {
            self.folded.clear();
            self.folded.push_str(token);
            self.folded.make_ascii_lowercase();
        } else {
            // Not character by character: a capital sigma folds by context.
            self.folded = token.to_lowercase();
        }
        Some(&self.folded)
    }

    /// How many tokens are left.
    pub fn count(mut self) -> usize {
        let mut n = 0;
        while self.next_raw().is_some() {
            n += 1;
        }
        n
    }
}

/// Split `text` into word tokens according to `cfg`, each an owned
/// `String`. Ingest reads [`Tokens`] directly; this collects the same
/// tokens for callers that want a vector (an owned token is folded as it is
/// copied, in one pass).
pub fn tokenize(text: &str, cfg: &TokenizerConfig) -> Vec<String> {
    let mut tokens = Tokens::new(text, cfg);
    let mut out = Vec::new();
    while let Some(token) = tokens.next_raw() {
        out.push(if cfg.lowercase { token.to_lowercase() } else { token.to_string() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace() {
        let toks = tokenize("the quick\nbrown\tfox", &TokenizerConfig::default());
        assert_eq!(toks, vec!["the", "quick", "brown", "fox"]);
    }

    #[test]
    fn strips_punctuation() {
        let toks = tokenize("Hello, world! (really)", &TokenizerConfig::default());
        assert_eq!(toks, vec!["hello", "world", "really"]);
    }

    #[test]
    fn keeps_interior_punctuation() {
        let toks = tokenize("state-of-the-art", &TokenizerConfig::default());
        assert_eq!(toks, vec!["state-of-the-art"]);
    }

    #[test]
    fn lowercase_can_be_disabled() {
        let cfg = TokenizerConfig { lowercase: false, strip_punct: true };
        assert_eq!(tokenize("Hello", &cfg), vec!["Hello"]);
    }

    #[test]
    fn pure_punctuation_tokens_vanish() {
        let toks = tokenize("a -- b", &TokenizerConfig::default());
        assert_eq!(toks, vec!["a", "b"]);
    }

    #[test]
    fn borrowed_tokens_fold_exactly_like_to_lowercase() {
        // ASCII capitals, multi-character expansions, a final sigma, a
        // title-case digraph, and tokens that need no folding at all.
        let text = "Hello WORLD, plain İstanbul ΟΔΟΣ ΣΊΣΥΦΟΣ (ǅemal) Straße café x1 -- Ünïcode!";
        for cfg in [
            TokenizerConfig::default(),
            TokenizerConfig { lowercase: false, strip_punct: true },
            TokenizerConfig { lowercase: true, strip_punct: false },
        ] {
            let want: Vec<String> = text
                .split_whitespace()
                .map(|raw| {
                    if cfg.strip_punct {
                        raw.trim_matches(|c: char| !c.is_alphanumeric())
                    } else {
                        raw
                    }
                })
                .filter(|t| !t.is_empty())
                .map(|t| if cfg.lowercase { t.to_lowercase() } else { t.to_string() })
                .collect();
            assert_eq!(tokenize(text, &cfg), want, "{cfg:?}");
            let mut tokens = Tokens::new(text, &cfg);
            let mut lent = Vec::new();
            while let Some(token) = tokens.next_token() {
                lent.push(token.to_string());
            }
            assert_eq!(lent, want, "{cfg:?}");
            assert_eq!(Tokens::new(text, &cfg).count(), want.len(), "{cfg:?}");
        }
    }

    #[test]
    fn unchanged_tokens_are_slices_of_the_text() {
        let text = "lower Upper lower2";
        let mut tokens = Tokens::new(text, &TokenizerConfig::default());
        let span = text.as_bytes().as_ptr_range();
        let mut borrowed = Vec::new();
        while let Some(token) = tokens.next_token() {
            borrowed.push(span.contains(&token.as_ptr()));
        }
        assert_eq!(borrowed, [true, false, true]);
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(tokenize("", &TokenizerConfig::default()).is_empty());
        assert!(tokenize("   \n\t ", &TokenizerConfig::default()).is_empty());
    }
}
