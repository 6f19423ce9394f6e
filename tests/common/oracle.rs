//! The decompress-and-count oracle: what each task's reply must read,
//! worked out from the raw files alone.
//!
//! TADOC defines every task as what counting the decompressed text gives,
//! so this module counts the text. It takes the library's tokenizer
//! (`Tokens` is what a word is) and its JSON writer (the wire shape), and
//! nothing that builds, shapes or encodes a result: words get ids in
//! first-occurrence order, which is the order the term vector and ranked
//! index break count ties in, and files keep corpus order.

use std::collections::BTreeMap;

use ntadoc_grammar::Tokens;
use ntadoc_repro::{Json, Task, TokenizerConfig};

use super::Files;

/// Words a term-vector row keeps per file, on every engine.
const TERM_VECTOR_WORDS: usize = 10;

/// A served query's shaping: keep the top `top` rows, and of a
/// file-oriented result only the files whose name holds `file`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shape {
    pub top: Option<usize>,
    pub file: Option<String>,
}

/// A corpus as token ids, per file.
pub struct Oracle {
    /// Every distinct word, in first-occurrence order: word `i` has id `i`.
    pub words: Vec<String>,
    names: Vec<String>,
    /// Each file's words, as ids.
    pub files: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn new(files: &Files) -> Oracle {
        let mut ids: BTreeMap<String, u32> = BTreeMap::new();
        let mut words = Vec::new();
        let mut tokens = Vec::new();
        for (_, text) in files {
            let mut file = Vec::new();
            let mut it = Tokens::new(text, &TokenizerConfig::default());
            while let Some(word) = it.next_token() {
                let id = *ids.entry(word.to_string()).or_insert_with(|| {
                    words.push(word.to_string());
                    words.len() as u32 - 1
                });
                file.push(id);
            }
            tokens.push(file);
        }
        Oracle { words, names: files.iter().map(|(n, _)| n.clone()).collect(), files: tokens }
    }

    /// The reply `task` must give, as compact JSON: `ngram` is the
    /// engine's, `shape` the query's.
    pub fn reply(&self, task: Task, ngram: usize, shape: &Shape) -> String {
        let word = |id: &u32| self.words[*id as usize].clone();
        let gram = |g: &[u32]| g.iter().map(word).collect::<Vec<_>>().join(" ");
        let pairs = |rows: Vec<(String, u64)>| {
            Json::Arr(rows.into_iter().map(|(w, c)| Json::from(vec![w.into(), c.into()])).collect())
        };
        let keep = |file: usize| shape.file.as_ref().is_none_or(|f| self.names[file].contains(f));
        let top = shape.top.unwrap_or(usize::MAX);
        match task {
            Task::WordCount | Task::Sort => {
                let mut counts: BTreeMap<String, u64> = BTreeMap::new();
                for id in self.files.iter().flatten() {
                    *counts.entry(word(id)).or_default() += 1;
                }
                let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
                if task == Task::Sort {
                    rows.truncate(top);
                    return pairs(rows).compact();
                }
                rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                rows.truncate(top);
                Json::object(rows).compact()
            }
            Task::TermVector => {
                let files = self.files.iter().enumerate().filter(|&(f, _)| keep(f));
                let rows = files.map(|(f, ids)| {
                    let mut terms: Vec<(u32, u64)> = tally(ids.iter().map(|&id| (id, 1)));
                    terms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    terms.truncate(TERM_VECTOR_WORDS.min(top));
                    let terms = terms.into_iter().map(|(id, c)| (word(&id), c)).collect();
                    Json::object([
                        ("file", Json::from(self.names[f].as_str())),
                        ("terms", pairs(terms)),
                    ])
                });
                Json::Arr(rows.collect()).compact()
            }
            Task::InvertedIndex => {
                let mut index: BTreeMap<String, Vec<Json>> = BTreeMap::new();
                for (f, ids) in self.files.iter().enumerate().filter(|&(f, _)| keep(f)) {
                    for (id, _) in tally(ids.iter().map(|&id| (id, 1))) {
                        index.entry(word(&id)).or_default().push(self.names[f].as_str().into());
                    }
                }
                let rows = index.into_iter().map(|(w, mut fs)| {
                    fs.truncate(top);
                    (w, Json::Arr(fs))
                });
                Json::object(rows).compact()
            }
            Task::SequenceCount => {
                let grams = self.files.iter().flat_map(|ids| ids.windows(ngram));
                let counts = tally(grams.map(|g| (g.to_vec(), 1)));
                Json::object(counts.into_iter().map(|(g, c)| (gram(&g), Json::from(c)))).compact()
            }
            Task::RankedInvertedIndex => {
                let mut postings: BTreeMap<Vec<u32>, Vec<(usize, u64)>> = BTreeMap::new();
                for (f, ids) in self.files.iter().enumerate() {
                    for (g, c) in tally(ids.windows(ngram).map(|g| (g.to_vec(), 1))) {
                        postings.entry(g).or_default().push((f, c));
                    }
                }
                let rows = postings.into_iter().map(|(g, mut fs)| {
                    fs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    (
                        gram(&g),
                        pairs(fs.into_iter().map(|(f, c)| (self.names[f].clone(), c)).collect()),
                    )
                });
                Json::object(rows).compact()
            }
        }
    }
}

/// `(key, count)` pairs summed per key, in key order.
fn tally<K: Ord>(items: impl Iterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut counts: BTreeMap<K, u64> = BTreeMap::new();
    for (key, n) in items {
        *counts.entry(key).or_default() += n;
    }
    counts.into_iter().collect()
}
