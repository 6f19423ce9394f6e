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

    /// Serialize the output as deterministic [`ntadoc_pmem::Json`] (the CLI serve
    /// protocol's wire shape). Map-like results become objects keyed by
    /// word (n-grams joined by spaces); list-like results become arrays.
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

    #[test]
    fn approx_bytes_counts_strings() {
        let mut m = BTreeMap::new();
        m.insert("abc".to_string(), 5u64);
        assert_eq!(TaskOutput::WordCount(m).approx_bytes(), 11);
    }
}
