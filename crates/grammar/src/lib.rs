//! TADOC compression substrate.
//!
//! TADOC (Text Analytics Directly On Compression) represents a corpus as a
//! context-free grammar: the input is dictionary-encoded word by word, the
//! resulting symbol stream is fed through the Sequitur algorithm, and the
//! inferred rules form a DAG whose root rule `R0` spells out every file
//! (separated by per-file delimiter symbols). Analytics tasks then run as
//! DAG traversals — the data is never decompressed.
//!
//! This crate provides everything up to and including the compressed
//! representation:
//!
//! * [`Tokens`] / [`tokenize`]: word extraction from raw text (borrowed, or
//!   collected into `String`s),
//! * [`Dictionary`]: word ⇄ id mapping,
//! * [`Symbol`]: the packed symbol encoding (word / rule / file separator),
//! * [`sequitur`]: linear-time grammar inference with digram uniqueness and
//!   rule utility,
//! * [`Grammar`]: the CFG/DAG with per-rule metadata,
//! * [`serialize`]: the persistent byte format engines load from a device,
//! * [`Grammar::expand_symbols`]: decompression — used only by tests (round-trip
//!   oracle) and by the uncompressed baseline generator, never by the
//!   analytics engines.
//!
//! # Example
//!
//! ```
//! use ntadoc_grammar::{compress_corpus, TokenizerConfig};
//!
//! let files = vec![
//!     ("a.txt".to_string(), "the quick brown fox the quick brown dog".to_string()),
//! ];
//! let comp = compress_corpus(&files, &TokenizerConfig::default());
//! assert_eq!(comp.grammar.expand_tokens().len(), 8);
//! ```

pub mod cfg;
pub mod dict;
mod digram;
pub mod merge;
pub mod sequitur;
pub mod serialize;
pub mod symbol;
pub mod tokenizer;

pub use cfg::{Grammar, GrammarStats, Rule};
// (CorpusBuilder is defined below in this module.)
pub use dict::Dictionary;
pub use digram::{mix, KeyHasher, KeyMap};
pub use merge::{
    append_chunk, build_chunk, build_chunk_at, build_chunk_of_files, merge_chunks, plan_chunks,
    AppendOutcome, ChunkGrammar, MergeOptions, Piece,
};
pub use sequitur::Sequitur;
pub use serialize::{deserialize_compressed, serialize_compressed, serialized_len};
pub use symbol::Symbol;
pub use tokenizer::{tokenize, TokenizerConfig, Tokens};

/// A compressed corpus: the grammar plus the dictionary it refers to.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The CFG; rule 0 spells the whole corpus.
    pub grammar: Grammar,
    /// Word id ⇄ string mapping.
    pub dict: Dictionary,
    /// File names, indexed by the file id carried in separator symbols.
    pub file_names: Vec<String>,
}

/// Incremental corpus compressor: files are fed one at a time (Sequitur
/// is an online algorithm, so streaming ingestion costs nothing extra)
/// and the compressed representation is extracted at the end.
///
/// ```
/// use ntadoc_grammar::{CorpusBuilder, TokenizerConfig};
///
/// let mut b = CorpusBuilder::new(TokenizerConfig::default());
/// b.add_file("a.txt", "hello world hello world");
/// b.add_file("b.txt", "hello again world");
/// let comp = b.finish();
/// assert_eq!(comp.file_count(), 2);
/// ```
pub struct CorpusBuilder {
    dict: Dictionary,
    seq: Sequitur,
    file_names: Vec<String>,
    cfg: TokenizerConfig,
}

impl CorpusBuilder {
    /// Start an empty corpus.
    pub fn new(cfg: TokenizerConfig) -> Self {
        CorpusBuilder { dict: Dictionary::new(), seq: Sequitur::new(), file_names: Vec::new(), cfg }
    }

    /// Append one file's text to the corpus.
    pub fn add_file(&mut self, name: impl Into<String>, text: &str) {
        if !self.file_names.is_empty() {
            // A unique separator symbol per boundary keeps separators in
            // R0: their digrams never repeat, so Sequitur cannot fold them
            // into shared rules, preserving file-boundary information.
            self.seq.push(Symbol::file_sep(self.file_names.len() as u32 - 1));
        }
        self.file_names.push(name.into());
        let mut tokens = Tokens::new(text, &self.cfg);
        while let Some(tok) = tokens.next_token() {
            self.seq.push(Symbol::word(self.dict.intern(tok)));
        }
    }

    /// Number of files ingested so far.
    pub fn file_count(&self) -> usize {
        self.file_names.len()
    }

    /// Words ingested so far.
    pub fn words_ingested(&self) -> u64 {
        self.seq.input_len() - self.file_names.len().saturating_sub(1) as u64
    }

    /// Finish and extract the compressed corpus.
    pub fn finish(self) -> Compressed {
        Compressed {
            grammar: self.seq.into_grammar(),
            dict: self.dict,
            file_names: self.file_names,
        }
    }
}

/// Compress a corpus of `(file name, contents)` pairs end to end:
/// tokenize, dictionary-encode, insert per-file separators, run Sequitur.
pub fn compress_corpus(files: &[(String, String)], cfg: &TokenizerConfig) -> Compressed {
    let mut b = CorpusBuilder::new(cfg.clone());
    for (name, text) in files {
        b.add_file(name.clone(), text);
    }
    b.finish()
}

impl Compressed {
    /// Number of files in the corpus.
    pub fn file_count(&self) -> usize {
        self.file_names.len()
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn incremental_equals_batch() {
        let files = vec![
            ("a".to_string(), "x y z x y z q".to_string()),
            ("b".to_string(), "x y z w w".to_string()),
            ("c".to_string(), "".to_string()),
        ];
        let batch = compress_corpus(&files, &TokenizerConfig::default());
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for (n, t) in &files {
            b.add_file(n.clone(), t);
        }
        let inc = b.finish();
        assert_eq!(inc.grammar, batch.grammar);
        assert_eq!(inc.file_names, batch.file_names);
    }

    #[test]
    fn builder_tracks_progress() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        assert_eq!(b.file_count(), 0);
        b.add_file("a", "one two three");
        assert_eq!(b.file_count(), 1);
        assert_eq!(b.words_ingested(), 3);
        b.add_file("b", "four");
        assert_eq!(b.file_count(), 2);
        assert_eq!(b.words_ingested(), 4);
    }

    #[test]
    fn empty_builder_finishes() {
        let comp = CorpusBuilder::new(TokenizerConfig::default()).finish();
        assert_eq!(comp.file_count(), 0);
        assert_eq!(comp.grammar.rule_count(), 1);
    }
}
