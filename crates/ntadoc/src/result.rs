//! Task definitions and typed outputs.
//!
//! The six benchmarks are the PUMA-derived tasks of the paper's §VI-A.
//! Outputs use ordered maps keyed by strings so results from different
//! engines (N-TADOC, naive, DRAM TADOC, uncompressed baseline) compare with
//! `==` in tests.

use std::collections::BTreeMap;

/// The six text-analytics benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Task {
    /// Total occurrences of each word across the corpus.
    WordCount,
    /// Words with counts, in alphabetical order.
    Sort,
    /// Per file, the top-k most frequent words.
    TermVector,
    /// Word → documents containing it.
    InvertedIndex,
    /// Occurrences of each word n-gram across the corpus.
    SequenceCount,
    /// N-gram → documents ranked by occurrence count.
    RankedInvertedIndex,
}

impl Task {
    /// All six, in the paper's order.
    pub const ALL: [Task; 6] = [
        Task::WordCount,
        Task::Sort,
        Task::TermVector,
        Task::InvertedIndex,
        Task::SequenceCount,
        Task::RankedInvertedIndex,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Task::WordCount => "word count",
            Task::Sort => "sort",
            Task::TermVector => "term vector",
            Task::InvertedIndex => "inverted index",
            Task::SequenceCount => "sequence count",
            Task::RankedInvertedIndex => "ranked inverted index",
        }
    }

    /// Inverse of [`name`](Self::name) (report deserialization).
    pub fn from_name(name: &str) -> Option<Task> {
        Task::ALL.into_iter().find(|t| t.name() == name)
    }

    /// Whether results are reported per file (these tasks are the ones
    /// whose traversal strategy matters most, §VI-E).
    pub fn is_file_oriented(self) -> bool {
        matches!(self, Task::TermVector | Task::InvertedIndex | Task::RankedInvertedIndex)
    }

    /// Whether the task consumes word order (needs head/tail support).
    pub fn is_sequence(self) -> bool {
        matches!(self, Task::SequenceCount | Task::RankedInvertedIndex)
    }
}

/// A spelling that names none of the six tasks, as normalized for the
/// lookup ([`Task`]'s `FromStr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTask(pub String);

impl std::fmt::Display for UnknownTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown task `{}`", self.0)
    }
}

impl std::error::Error for UnknownTask {}

/// The spellings the command line and the serve protocol accept: the
/// task's name in any case with `-` and `_` ignored, or its initials.
impl std::str::FromStr for Task {
    type Err = UnknownTask;

    fn from_str(name: &str) -> Result<Task, UnknownTask> {
        let name = name.to_lowercase().replace(['-', '_'], "");
        match name.as_str() {
            "wordcount" | "wc" => Ok(Task::WordCount),
            "sort" => Ok(Task::Sort),
            "termvector" | "tv" => Ok(Task::TermVector),
            "invertedindex" | "ii" => Ok(Task::InvertedIndex),
            "sequencecount" | "sc" => Ok(Task::SequenceCount),
            "rankedindex" | "rankedinvertedindex" | "rii" => Ok(Task::RankedInvertedIndex),
            _ => Err(UnknownTask(name)),
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `(file, top-k (word, count))` rows of a term-vector result.
pub type FileTermVectors = [(String, Vec<(String, u64)>)];

/// Owned `(file, top-k (word, count))` rows of a term-vector result.
pub type FileTermVectorsVec = Vec<(String, Vec<(String, u64)>)>;

/// Error returned by [`TaskOutput`]'s typed accessors when the output
/// belongs to a different task than the accessor asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputMismatch {
    /// The task whose output the accessor expected.
    pub expected: Task,
    /// The task that actually produced this output.
    pub got: Task,
}

impl std::fmt::Display for OutputMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected a '{}' output but this run produced '{}'", self.expected, self.got)
    }
}

impl std::error::Error for OutputMismatch {}

/// `n-gram → ranked (file, count)` postings of a ranked inverted index.
pub type RankedPostings = BTreeMap<Vec<String>, Vec<(String, u64)>>;

/// Typed result of a task run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutput {
    /// `word → count`.
    WordCount(BTreeMap<String, u64>),
    /// `(word, count)` in alphabetical word order.
    Sort(Vec<(String, u64)>),
    /// Per file (corpus order): `(file, top-k (word, count) by count desc,
    /// word asc to break ties)`.
    TermVector(Vec<(String, Vec<(String, u64)>)>),
    /// `word → files` (corpus order).
    InvertedIndex(BTreeMap<String, Vec<String>>),
    /// `n-gram → count`.
    SequenceCount(BTreeMap<Vec<String>, u64>),
    /// `n-gram → (file, count) by count desc, file asc to break ties`.
    RankedInvertedIndex(BTreeMap<Vec<String>, Vec<(String, u64)>>),
}

impl TaskOutput {
    /// Which task produced this output.
    pub fn task(&self) -> Task {
        match self {
            TaskOutput::WordCount(_) => Task::WordCount,
            TaskOutput::Sort(_) => Task::Sort,
            TaskOutput::TermVector(_) => Task::TermVector,
            TaskOutput::InvertedIndex(_) => Task::InvertedIndex,
            TaskOutput::SequenceCount(_) => Task::SequenceCount,
            TaskOutput::RankedInvertedIndex(_) => Task::RankedInvertedIndex,
        }
    }

    fn mismatch(&self, expected: Task) -> OutputMismatch {
        OutputMismatch { expected, got: self.task() }
    }

    // ---- by-ref accessors (`as_*`) --------------------------------------

    /// Borrow as word counts; a descriptive [`OutputMismatch`] otherwise.
    pub fn as_word_counts(&self) -> Result<&BTreeMap<String, u64>, OutputMismatch> {
        match self {
            TaskOutput::WordCount(m) => Ok(m),
            other => Err(other.mismatch(Task::WordCount)),
        }
    }

    /// Borrow as sorted counts.
    pub fn as_sorted(&self) -> Result<&[(String, u64)], OutputMismatch> {
        match self {
            TaskOutput::Sort(v) => Ok(v),
            other => Err(other.mismatch(Task::Sort)),
        }
    }

    /// Borrow as term vectors.
    pub fn as_term_vectors(&self) -> Result<&FileTermVectors, OutputMismatch> {
        match self {
            TaskOutput::TermVector(v) => Ok(v),
            other => Err(other.mismatch(Task::TermVector)),
        }
    }

    /// Borrow as an inverted index.
    pub fn as_inverted_index(&self) -> Result<&BTreeMap<String, Vec<String>>, OutputMismatch> {
        match self {
            TaskOutput::InvertedIndex(m) => Ok(m),
            other => Err(other.mismatch(Task::InvertedIndex)),
        }
    }

    /// Borrow as sequence counts.
    pub fn as_sequence_counts(&self) -> Result<&BTreeMap<Vec<String>, u64>, OutputMismatch> {
        match self {
            TaskOutput::SequenceCount(m) => Ok(m),
            other => Err(other.mismatch(Task::SequenceCount)),
        }
    }

    /// Borrow as a ranked inverted index.
    pub fn as_ranked_inverted_index(&self) -> Result<&RankedPostings, OutputMismatch> {
        match self {
            TaskOutput::RankedInvertedIndex(m) => Ok(m),
            other => Err(other.mismatch(Task::RankedInvertedIndex)),
        }
    }

    // ---- by-value accessors (`into_*`) ----------------------------------

    /// Take the word counts by value.
    pub fn into_word_counts(self) -> Result<BTreeMap<String, u64>, OutputMismatch> {
        match self {
            TaskOutput::WordCount(m) => Ok(m),
            other => Err(other.mismatch(Task::WordCount)),
        }
    }

    /// Take the sorted counts by value.
    pub fn into_sorted(self) -> Result<Vec<(String, u64)>, OutputMismatch> {
        match self {
            TaskOutput::Sort(v) => Ok(v),
            other => Err(other.mismatch(Task::Sort)),
        }
    }

    /// Take the term vectors by value.
    pub fn into_term_vectors(self) -> Result<FileTermVectorsVec, OutputMismatch> {
        match self {
            TaskOutput::TermVector(v) => Ok(v),
            other => Err(other.mismatch(Task::TermVector)),
        }
    }

    /// Take the inverted index by value.
    pub fn into_inverted_index(self) -> Result<BTreeMap<String, Vec<String>>, OutputMismatch> {
        match self {
            TaskOutput::InvertedIndex(m) => Ok(m),
            other => Err(other.mismatch(Task::InvertedIndex)),
        }
    }

    /// Take the sequence counts by value.
    pub fn into_sequence_counts(self) -> Result<BTreeMap<Vec<String>, u64>, OutputMismatch> {
        match self {
            TaskOutput::SequenceCount(m) => Ok(m),
            other => Err(other.mismatch(Task::SequenceCount)),
        }
    }

    /// Take the ranked inverted index by value.
    pub fn into_ranked_inverted_index(self) -> Result<RankedPostings, OutputMismatch> {
        match self {
            TaskOutput::RankedInvertedIndex(m) => Ok(m),
            other => Err(other.mismatch(Task::RankedInvertedIndex)),
        }
    }

    /// The output as a deterministic [`ntadoc_pmem::Json`] tree, in the
    /// serve protocol's wire shape: map-like results become objects keyed
    /// by word (n-grams joined by spaces), list-like results become arrays.
    /// The daemon writes replies with [`write_json`](Self::write_json);
    /// this is the form a comparison reads (the benchmark's oracle, the
    /// tests), and what `write_json` falls back on.
    pub fn to_json(&self) -> ntadoc_pmem::Json {
        use ntadoc_pmem::Json;
        fn pairs(ws: &[(String, u64)]) -> Json {
            Json::Arr(
                ws.iter()
                    .map(|(w, c)| Json::Arr(vec![Json::Str(w.clone()), Json::U64(*c)]))
                    .collect(),
            )
        }
        match self {
            TaskOutput::WordCount(m) => {
                Json::object(m.iter().map(|(w, c)| (w.clone(), Json::U64(*c))))
            }
            TaskOutput::Sort(v) => pairs(v),
            TaskOutput::TermVector(v) => Json::Arr(
                v.iter()
                    .map(|(f, ws)| {
                        Json::object([
                            ("file".to_string(), Json::Str(f.clone())),
                            ("terms".to_string(), pairs(ws)),
                        ])
                    })
                    .collect(),
            ),
            TaskOutput::InvertedIndex(m) => Json::object(m.iter().map(|(w, fs)| {
                (w.clone(), Json::Arr(fs.iter().map(|f| Json::Str(f.clone())).collect()))
            })),
            TaskOutput::SequenceCount(m) => {
                Json::object(m.iter().map(|(g, c)| (g.join(" "), Json::U64(*c))))
            }
            TaskOutput::RankedInvertedIndex(m) => {
                Json::object(m.iter().map(|(g, fs)| (g.join(" "), pairs(fs))))
            }
        }
    }

    /// Append the output's wire encoding to `out`: exactly the bytes of
    /// `self.to_json().compact()`, written in one pass over the result with
    /// no [`ntadoc_pmem::Json`] tree in between. What a serve reply carries;
    /// [`to_json`](Self::to_json) is the reference it is tested against.
    pub fn write_json(&self, out: &mut String) {
        use ntadoc_pmem::json::{write_str, write_u64};
        /// `open`, the items separated by commas, `close`.
        fn seq<T>(
            out: &mut String,
            (open, close): (char, char),
            items: impl IntoIterator<Item = T>,
            mut item: impl FnMut(&mut String, T),
        ) {
            out.push(open);
            for (i, it) in items.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                item(out, it);
            }
            out.push(close);
        }
        fn member(out: &mut String, key: &str) {
            write_str(out, key);
            out.push(':');
        }
        fn pairs(out: &mut String, ws: &[(String, u64)]) {
            seq(out, ('[', ']'), ws, |out, (w, c)| {
                out.push('[');
                write_str(out, w);
                out.push(',');
                write_u64(out, *c);
                out.push(']');
            });
        }
        /// An object keyed by the grams joined with spaces. The map is in
        /// gram order and an object in key order; the two differ only when
        /// a word holds a space or a control character (a forged image can
        /// make one), and then two grams can also join to one key, of which
        /// the tree keeps the last. `false` as soon as a key fails to sort
        /// after the one before it; `out` is then to be discarded.
        fn grams<V>(
            out: &mut String,
            m: &BTreeMap<Vec<String>, V>,
            mut value: impl FnMut(&mut String, &V),
        ) -> bool {
            let (mut key, mut prev) = (String::new(), String::new());
            out.push('{');
            for (i, (gram, v)) in m.iter().enumerate() {
                key.clear();
                for (j, w) in gram.iter().enumerate() {
                    if j > 0 {
                        key.push(' ');
                    }
                    key.push_str(w);
                }
                if i > 0 {
                    if key <= prev {
                        return false;
                    }
                    out.push(',');
                }
                member(out, &key);
                value(out, v);
                std::mem::swap(&mut key, &mut prev);
            }
            out.push('}');
            true
        }
        let start = out.len();
        let tree_instead = |out: &mut String| {
            out.truncate(start);
            out.push_str(&self.to_json().compact());
        };
        match self {
            TaskOutput::WordCount(m) => seq(out, ('{', '}'), m, |out, (w, c)| {
                member(out, w);
                write_u64(out, *c);
            }),
            TaskOutput::Sort(v) => pairs(out, v),
            TaskOutput::TermVector(v) => seq(out, ('[', ']'), v, |out, (f, ws)| {
                out.push_str("{\"file\":");
                write_str(out, f);
                out.push_str(",\"terms\":");
                pairs(out, ws);
                out.push('}');
            }),
            TaskOutput::InvertedIndex(m) => seq(out, ('{', '}'), m, |out, (w, fs)| {
                member(out, w);
                seq(out, ('[', ']'), fs, |out, f| write_str(out, f));
            }),
            TaskOutput::SequenceCount(m) => {
                if !grams(out, m, |out, c| write_u64(out, *c)) {
                    tree_instead(out);
                }
            }
            TaskOutput::RankedInvertedIndex(m) => {
                if !grams(out, m, |out, fs| pairs(out, fs)) {
                    tree_instead(out);
                }
            }
        }
    }

    /// Approximate size of the result in bytes when written back to disk
    /// (used to charge result-output I/O).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            TaskOutput::WordCount(m) => m.keys().map(|w| w.len() as u64 + 8).sum(),
            TaskOutput::Sort(v) => v.iter().map(|(w, _)| w.len() as u64 + 8).sum(),
            TaskOutput::TermVector(v) => v
                .iter()
                .map(|(f, ws)| {
                    f.len() as u64 + ws.iter().map(|(w, _)| w.len() as u64 + 8).sum::<u64>()
                })
                .sum(),
            TaskOutput::InvertedIndex(m) => m
                .iter()
                .map(|(w, fs)| w.len() as u64 + fs.iter().map(|f| f.len() as u64).sum::<u64>())
                .sum(),
            TaskOutput::SequenceCount(m) => {
                m.keys().map(|g| g.iter().map(|w| w.len() as u64 + 1).sum::<u64>() + 8).sum()
            }
            TaskOutput::RankedInvertedIndex(m) => m
                .iter()
                .map(|(g, fs)| {
                    g.iter().map(|w| w.len() as u64 + 1).sum::<u64>()
                        + fs.iter().map(|(f, _)| f.len() as u64 + 8).sum::<u64>()
                })
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_pmem::Prng;

    #[test]
    fn all_lists_six_tasks() {
        assert_eq!(Task::ALL.len(), 6);
        let names: std::collections::HashSet<_> = Task::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn classification_flags() {
        assert!(!Task::WordCount.is_file_oriented());
        assert!(Task::TermVector.is_file_oriented());
        assert!(Task::RankedInvertedIndex.is_file_oriented());
        assert!(Task::SequenceCount.is_sequence());
        assert!(Task::RankedInvertedIndex.is_sequence());
        assert!(!Task::Sort.is_sequence());
    }

    #[test]
    fn output_task_round_trips() {
        let out = TaskOutput::WordCount(BTreeMap::new());
        assert_eq!(out.task(), Task::WordCount);
        assert!(out.as_word_counts().is_ok());
        let err = out.as_sorted().unwrap_err();
        assert_eq!(err, OutputMismatch { expected: Task::Sort, got: Task::WordCount });
        assert_eq!(err.to_string(), "expected a 'sort' output but this run produced 'word count'");
    }

    #[test]
    fn by_ref_and_by_value_accessors_agree() {
        let mut m = BTreeMap::new();
        m.insert("w".to_string(), 3u64);
        let out = TaskOutput::WordCount(m.clone());
        assert_eq!(out.as_word_counts().unwrap(), &m);
        assert_eq!(out.clone().into_word_counts().unwrap(), m);
        let err = out.into_sorted().unwrap_err();
        assert_eq!(err, OutputMismatch { expected: Task::Sort, got: Task::WordCount });
    }

    #[test]
    fn output_json_is_deterministic() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        let j = TaskOutput::WordCount(m).to_json().pretty();
        // BTreeMap order: "a" before "b".
        assert!(j.find("\"a\"").unwrap() < j.find("\"b\"").unwrap());
        let sort = TaskOutput::Sort(vec![("x".into(), 9)]).to_json().pretty();
        assert!(sort.contains('9'));
    }

    /// Words that stress the encoder: every escape, controls that sort
    /// below the space a gram is joined with, non-ASCII, the empty word,
    /// and words holding the joiner itself.
    const HOSTILE: [&str; 16] = [
        "", " ", "a", "b", "a b", "a\tb", "\"", "\\", "\n", "\r", "\u{1}", "\u{1f}", "\u{7f}", "é",
        "日本", "z\"\\z",
    ];

    /// Outputs that are generated but the same every run; `tidy` draws
    /// words a tokenizer could have produced, whose grams the one-pass
    /// writer takes in stride.
    struct Draw(Prng, bool);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0.next_below(n as u64) as usize
        }
        fn word(&mut self) -> String {
            let pool = if self.1 { &["a", "ab", "b", "c!", "é"][..] } else { &HOSTILE[..] };
            pool[self.below(pool.len())].to_string()
        }
        fn count(&mut self) -> u64 {
            [0, 1, 7, 1 << 40, u64::MAX][self.below(5)]
        }
        fn words(&mut self, max: usize) -> Vec<String> {
            (0..self.below(max + 1)).map(|_| self.word()).collect()
        }
        fn pairs(&mut self, max: usize) -> Vec<(String, u64)> {
            (0..self.below(max + 1)).map(|_| (self.word(), self.count())).collect()
        }
    }

    /// One generated output of each shape; `rows` 0 gives the empty ones.
    fn generated(d: &mut Draw, rows: usize) -> [TaskOutput; 6] {
        [
            TaskOutput::WordCount((0..rows).map(|_| (d.word(), d.count())).collect()),
            TaskOutput::Sort(d.pairs(rows)),
            TaskOutput::TermVector((0..rows).map(|_| (d.word(), d.pairs(3))).collect()),
            TaskOutput::InvertedIndex((0..rows).map(|_| (d.word(), d.words(3))).collect()),
            TaskOutput::SequenceCount((0..rows).map(|_| (d.words(3), d.count())).collect()),
            TaskOutput::RankedInvertedIndex((0..rows).map(|_| (d.words(3), d.pairs(3))).collect()),
        ]
    }

    fn assert_writes_the_tree_bytes(out: &TaskOutput) {
        let mut got = String::from("output:");
        out.write_json(&mut got);
        assert_eq!(got, format!("output:{}", out.to_json().compact()), "{out:?}");
    }

    #[test]
    fn write_json_is_the_compact_tree_byte_for_byte() {
        for tidy in [false, true] {
            let mut d = Draw(Prng::new(21), tidy);
            for rows in [0, 1, 2, 5, 12, 40] {
                for _ in 0..20 {
                    generated(&mut d, rows).iter().for_each(assert_writes_the_tree_bytes);
                }
            }
        }
    }

    #[test]
    fn gram_keys_that_collide_or_reorder_come_out_as_the_tree_has_them() {
        let gram = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        // ["a","b"] sorts before ["a b"] and both join to "a b": the tree
        // keeps the later one. ["a","z"] sorts before ["a\t"], but "a\t"
        // sorts before "a z". An empty gram joins to the empty key.
        let keys =
            [gram(&["a", "b"]), gram(&["a b"]), gram(&["a", "z"]), gram(&["a\t"]), gram(&[])];
        let counts: BTreeMap<_, _> = keys.iter().cloned().zip(1u64..).collect();
        let out = TaskOutput::SequenceCount(counts);
        assert_eq!(out.to_json().compact(), r#"{"":5,"a\t":4,"a b":2,"a z":3}"#);
        assert_writes_the_tree_bytes(&out);
        let postings = keys.iter().cloned().zip(1u64..).map(|(g, c)| (g, vec![("f".into(), c)]));
        assert_writes_the_tree_bytes(&TaskOutput::RankedInvertedIndex(postings.collect()));
        // In order and distinct: the one-pass writer's own bytes.
        let tidy = [gram(&["a", "b"]), gram(&["a", "c"]), gram(&["b"])];
        let out = TaskOutput::SequenceCount(tidy.iter().cloned().zip(1u64..).collect());
        let mut got = String::new();
        out.write_json(&mut got);
        assert_eq!(got, r#"{"a b":1,"a c":2,"b":3}"#);
    }

    #[test]
    fn task_spellings_parse_and_a_wrong_one_is_named() {
        assert_eq!("wordcount".parse(), Ok(Task::WordCount));
        assert_eq!("ranked-index".parse(), Ok(Task::RankedInvertedIndex));
        assert_eq!("SEQUENCE_COUNT".parse(), Ok(Task::SequenceCount));
        let err = "Word-Cloud".parse::<Task>().unwrap_err();
        assert_eq!(err.to_string(), "unknown task `wordcloud`");
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let mut m = BTreeMap::new();
        m.insert("abc".to_string(), 5u64);
        assert_eq!(TaskOutput::WordCount(m).approx_bytes(), 11);
    }
}
