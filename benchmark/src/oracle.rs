//! Independent oracle: decompress-and-count answers computed from the raw
//! generated files with a whitespace split and `HashMap`s — nothing here
//! goes through the tokenizer, the grammar or the engine. The answers are
//! phrased as the library's [`TaskOutput`] only so they can be compared
//! with `==` and rendered through the same JSON encoder as the replies.

use std::collections::{BTreeMap, HashMap};

use ntadoc::{Task, TaskOutput};

/// Words per term-vector row and n-gram length: `EngineConfig::ntadoc()`'s
/// `top_k` and `ngram`, which is what the CLI and the daemon run with.
const TERM_VECTOR_K: usize = 10;
const NGRAM: usize = 3;

pub struct Oracle {
    names: Vec<String>,
    /// Word strings by id; ids are handed out in first-occurrence order,
    /// the order the program's dictionary interns in (term-vector ties
    /// break on it).
    words: Vec<String>,
    /// Each file as word ids.
    files: Vec<Vec<u32>>,
}

impl Oracle {
    /// `files` are `(name as the program sees it, raw text)`, in ingest order.
    pub fn new(files: &[(String, String)]) -> Self {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut words = Vec::new();
        let toks = files
            .iter()
            .map(|(_, text)| {
                text.split_whitespace()
                    .map(|w| {
                        *ids.entry(w).or_insert_with(|| {
                            words.push(w.to_string());
                            words.len() as u32 - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Oracle { names: files.iter().map(|(n, _)| n.clone()).collect(), words, files: toks }
    }

    pub fn total_words(&self) -> usize {
        self.files.iter().map(Vec::len).sum()
    }

    /// The raw token stream of file `i`, for the decompress round trip.
    pub fn file_words(&self, i: usize) -> impl Iterator<Item = &str> + '_ {
        self.files[i].iter().map(|&w| self.words[w as usize].as_str())
    }

    fn word(&self, id: u32) -> String {
        self.words[id as usize].clone()
    }

    fn per_file_counts(&self) -> Vec<HashMap<u32, u64>> {
        self.files
            .iter()
            .map(|toks| {
                let mut m = HashMap::new();
                for &w in toks {
                    *m.entry(w).or_insert(0) += 1;
                }
                m
            })
            .collect()
    }

    /// 3-gram → per-file counts; windows never cross a file boundary.
    fn gram_counts(&self) -> HashMap<[u32; NGRAM], HashMap<usize, u64>> {
        let mut m: HashMap<[u32; NGRAM], HashMap<usize, u64>> = HashMap::new();
        for (fid, toks) in self.files.iter().enumerate() {
            for w in toks.windows(NGRAM) {
                let gram: [u32; NGRAM] = w.try_into().expect("window of NGRAM");
                *m.entry(gram).or_default().entry(fid).or_insert(0) += 1;
            }
        }
        m
    }

    fn gram_words(&self, gram: &[u32; NGRAM]) -> Vec<String> {
        gram.iter().map(|&w| self.word(w)).collect()
    }

    /// The full, unshaped answer to `task`.
    pub fn output(&self, task: Task) -> TaskOutput {
        match task {
            Task::WordCount | Task::Sort => {
                let mut counts: BTreeMap<String, u64> = BTreeMap::new();
                for m in self.per_file_counts() {
                    for (w, c) in m {
                        *counts.entry(self.word(w)).or_insert(0) += c;
                    }
                }
                if task == Task::WordCount {
                    TaskOutput::WordCount(counts)
                } else {
                    TaskOutput::Sort(counts.into_iter().collect())
                }
            }
            Task::TermVector => TaskOutput::TermVector(
                self.per_file_counts()
                    .into_iter()
                    .zip(&self.names)
                    .map(|(m, name)| {
                        let mut rows: Vec<(u32, u64)> = m.into_iter().collect();
                        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        rows.truncate(TERM_VECTOR_K);
                        (name.clone(), rows.into_iter().map(|(w, c)| (self.word(w), c)).collect())
                    })
                    .collect(),
            ),
            Task::InvertedIndex => {
                let mut index: BTreeMap<String, Vec<String>> = BTreeMap::new();
                for (m, name) in self.per_file_counts().into_iter().zip(&self.names) {
                    for w in m.into_keys() {
                        index.entry(self.word(w)).or_default().push(name.clone());
                    }
                }
                TaskOutput::InvertedIndex(index)
            }
            Task::SequenceCount => TaskOutput::SequenceCount(
                self.gram_counts()
                    .iter()
                    .map(|(g, per_file)| (self.gram_words(g), per_file.values().sum()))
                    .collect(),
            ),
            Task::RankedInvertedIndex => TaskOutput::RankedInvertedIndex(
                self.gram_counts()
                    .iter()
                    .map(|(g, per_file)| {
                        let mut rows: Vec<(usize, u64)> =
                            per_file.iter().map(|(&f, &c)| (f, c)).collect();
                        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        let ranked =
                            rows.into_iter().map(|(f, c)| (self.names[f].clone(), c)).collect();
                        (self.gram_words(g), ranked)
                    })
                    .collect(),
            ),
        }
    }
}

/// What `ntadoc run <task> … --top <top>` prints on stdout for `out`.
pub fn cli_stdout(out: &TaskOutput, top: usize) -> String {
    fn by_count<K: Ord>(m: &BTreeMap<K, u64>, top: usize) -> Vec<(&K, &u64)> {
        let mut rows: Vec<_> = m.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        rows.truncate(top);
        rows
    }
    let mut s = String::new();
    match out {
        TaskOutput::WordCount(m) => {
            for (w, c) in by_count(m, top) {
                s.push_str(&format!("{c:>10}  {w}\n"));
            }
        }
        TaskOutput::Sort(rows) => {
            for (w, c) in rows.iter().take(top) {
                s.push_str(&format!("{w}  {c}\n"));
            }
        }
        TaskOutput::TermVector(files) => {
            for (f, words) in files.iter().take(top) {
                let sig: Vec<String> =
                    words.iter().take(5).map(|(w, c)| format!("{w}:{c}")).collect();
                s.push_str(&format!("{f}: {}\n", sig.join(" ")));
            }
        }
        TaskOutput::InvertedIndex(m) => {
            for (w, files) in m.iter().take(top) {
                s.push_str(&format!("{w}: {} file(s)\n", files.len()));
            }
        }
        TaskOutput::SequenceCount(m) => {
            for (g, c) in by_count(m, top) {
                s.push_str(&format!("{c:>10}  {}\n", g.join(" ")));
            }
        }
        TaskOutput::RankedInvertedIndex(m) => {
            for (g, files) in m.iter().take(top) {
                let ranked: Vec<String> =
                    files.iter().take(3).map(|(f, c)| format!("{f}({c})")).collect();
                s.push_str(&format!("{}: {}\n", g.join(" "), ranked.join(" ")));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        Oracle::new(&[
            ("a".to_string(), "x y z x y z q".to_string()),
            ("b".to_string(), "y x y z".to_string()),
        ])
    }

    #[test]
    fn counts_words_and_files() {
        let o = oracle();
        assert_eq!(o.total_words(), 11);
        let wc = o.output(Task::WordCount);
        let wc = wc.as_word_counts().unwrap();
        assert_eq!((wc["x"], wc["y"], wc["z"], wc["q"]), (3, 4, 3, 1));
        let ii = o.output(Task::InvertedIndex);
        assert_eq!(ii.as_inverted_index().unwrap()["q"], vec!["a".to_string()]);
        assert_eq!(ii.as_inverted_index().unwrap()["x"].len(), 2);
    }

    #[test]
    fn term_vector_ties_break_on_first_occurrence() {
        let tv = oracle().output(Task::TermVector);
        let rows = tv.as_term_vectors().unwrap();
        // In file a: x, y, z all occur twice; first-occurrence order decides.
        let a: Vec<&str> = rows[0].1.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(a, ["x", "y", "z", "q"]);
    }

    #[test]
    fn grams_do_not_cross_files_and_rank_by_count() {
        let o = oracle();
        let sc = o.output(Task::SequenceCount);
        let sc = sc.as_sequence_counts().unwrap();
        let g = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(sc[&g("x y z")], 3);
        assert!(!sc.contains_key(&g("z q y")), "window crossed the file boundary");
        let ri = o.output(Task::RankedInvertedIndex);
        let ri = ri.as_ranked_inverted_index().unwrap();
        assert_eq!(ri[&g("x y z")], vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn cli_text_keeps_the_top_rows() {
        let out = oracle().output(Task::WordCount);
        assert_eq!(cli_stdout(&out, 2), "         4  y\n         3  x\n");
    }
}
