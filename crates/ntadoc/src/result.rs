//! Task definitions and typed outputs.
//!
//! The six benchmarks are the PUMA-derived tasks of the paper's §VI-A. A
//! result has two forms. [`TaskRows`] is what the engines, the result cache
//! and the reply writer pass around: dictionary and file ids in flat
//! arenas, turned into text only where bytes leave the process.
//! [`TaskOutput`] owns its strings in ordered maps, so results from
//! different engines (N-TADOC, naive, DRAM TADOC, uncompressed baseline)
//! compare with `==` in tests; [`TaskRows::into_strings`] is the one place
//! it is built.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use ntadoc_grammar::Compressed;
use ntadoc_pmem::json::{write_str, write_u64, JsonOut};

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

    /// Borrow as word counts; `None` for another task's output.
    pub fn as_word_counts(&self) -> Option<&BTreeMap<String, u64>> {
        match self {
            TaskOutput::WordCount(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as term vectors.
    pub fn as_term_vectors(&self) -> Option<&FileTermVectors> {
        match self {
            TaskOutput::TermVector(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as an inverted index.
    pub fn as_inverted_index(&self) -> Option<&BTreeMap<String, Vec<String>>> {
        match self {
            TaskOutput::InvertedIndex(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as sequence counts.
    pub fn as_sequence_counts(&self) -> Option<&BTreeMap<Vec<String>, u64>> {
        match self {
            TaskOutput::SequenceCount(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as a ranked inverted index.
    pub fn as_ranked_inverted_index(&self) -> Option<&RankedPostings> {
        match self {
            TaskOutput::RankedInvertedIndex(m) => Some(m),
            _ => None,
        }
    }

    /// The output as a deterministic [`ntadoc_pmem::Json`] tree, in the
    /// serve protocol's wire shape: map-like results become objects keyed
    /// by word (n-grams joined by spaces), list-like results become arrays.
    /// The daemon writes replies with [`TaskRows::write_json`]; this is
    /// the form a comparison reads (the benchmark's oracle, the tests), and
    /// what that writer falls back on.
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
}

// ---- the wire encoding's pieces --------------------------------------------

/// `open`, the items separated by commas, `close`.
fn seq<O: JsonOut, T>(
    out: &mut O,
    (open, close): (&str, &str),
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut O, T),
) {
    out.push_str(open);
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        item(out, it);
    }
    out.push_str(close);
}

fn member(out: &mut impl JsonOut, key: &str) {
    write_str(out, key);
    out.push_str(":");
}

/// `[[name,count],…]`.
fn pairs<'a>(out: &mut impl JsonOut, ws: impl IntoIterator<Item = (&'a str, u64)>) {
    seq(out, ("[", "]"), ws, |out, (w, c)| {
        out.push_str("[");
        write_str(out, w);
        out.push_str(",");
        write_u64(out, c);
        out.push_str("]");
    });
}

/// One term-vector row: `{"file":…,"terms":[[word,count],…]}`.
fn file_terms<'a>(
    out: &mut impl JsonOut,
    file: &str,
    terms: impl IntoIterator<Item = (&'a str, u64)>,
) {
    out.push_str("{\"file\":");
    write_str(out, file);
    out.push_str(",\"terms\":");
    pairs(out, terms);
    out.push_str("}");
}

/// Append `words` to `key`, a space between two.
fn join_words<'a>(key: &mut String, words: impl Iterator<Item = &'a str>) {
    for (i, w) in words.enumerate() {
        if i > 0 {
            key.push(' ');
        }
        key.push_str(w);
    }
}

/// An object keyed by the rows' grams joined with spaces (`join` appends a
/// row's key). The rows are in gram order and an object in key order; the
/// two differ only when a word holds a space or a control character (a
/// forged image can make one), and then two grams can also join to one
/// key, of which the tree keeps the last. `false` as soon as a key fails to
/// sort after the one before it; what was written is then to be discarded.
fn grams<R>(
    out: &mut String,
    rows: impl IntoIterator<Item = R>,
    mut join: impl FnMut(&mut String, &R),
    mut value: impl FnMut(&mut String, &R),
) -> bool {
    let (mut key, mut prev) = (String::new(), String::new());
    out.push('{');
    for (i, row) in rows.into_iter().enumerate() {
        key.clear();
        join(&mut key, &row);
        if i > 0 {
            if key <= prev {
                return false;
            }
            out.push(',');
        }
        member(out, &key);
        value(out, &row);
        std::mem::swap(&mut key, &mut prev);
    }
    out.push('}');
    true
}

// ---- the id form -----------------------------------------------------------

/// A task's result in the id domain: what a traversal hands back, a result
/// cache holds and a reply is written from.
///
/// Four flat arenas and a handle on the corpus the ids belong to:
///
/// | task | a row's key (`keys`) | its list (`items`, closed by `ends`) | `counts` |
/// |---|---|---|---|
/// | word count, sort | one word | — | one per row |
/// | term vector | one file | words, most frequent first | one per item |
/// | inverted index | one word | files, in corpus order | — |
/// | sequence count | the n words of an n-gram | — | one per row |
/// | ranked inverted index | the n words of an n-gram | files, by count | one per item |
///
/// Rows are in the order [`TaskOutput`] iterates them — by key string, a
/// term vector's by file — and, where that form is a map, no two rows have
/// equal keys. Strings exist only while something is being written:
/// [`write_json`](Self::write_json), the [`Row`] accessors,
/// [`into_strings`](Self::into_strings).
#[derive(Clone)]
pub struct TaskRows {
    task: Task,
    /// The dictionary and file names the ids are looked up in.
    comp: Arc<Compressed>,
    /// Ids per key: the n of an n-gram task, otherwise one.
    width: usize,
    keys: Vec<u32>,
    /// Where each row's list ends in `items`; empty for tasks without lists.
    ends: Vec<u32>,
    items: Vec<u32>,
    counts: Vec<u64>,
}

/// One row of a [`TaskRows`], its ids read as text.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    rows: &'a TaskRows,
    at: usize,
}

impl TaskRows {
    /// Rows from their arenas, laid out as the type's table says.
    pub(crate) fn new(
        task: Task,
        comp: Arc<Compressed>,
        width: usize,
        keys: Vec<u32>,
        ends: Vec<u32>,
        items: Vec<u32>,
        counts: Vec<u64>,
    ) -> Self {
        let mut rows = TaskRows { task, comp, width, keys, ends, items, counts };
        rows.shrink_to_fit();
        debug_assert!(width > 0 && rows.keys.len().is_multiple_of(width));
        debug_assert_eq!(rows.ends.len(), if task.is_file_oriented() { rows.len() } else { 0 });
        debug_assert_eq!(rows.ends.last().map_or(0, |&e| e as usize), rows.items.len());
        debug_assert_eq!(
            rows.counts.len(),
            match task {
                Task::InvertedIndex => 0,
                _ if task.is_file_oriented() => rows.items.len(),
                _ => rows.len(),
            }
        );
        rows
    }

    /// Which task produced these rows.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len() / self.width
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Row `at`.
    ///
    /// # Panics
    /// Panics if there is no such row.
    pub fn row(&self, at: usize) -> Row<'_> {
        assert!(at < self.len(), "row {at} of {}", self.len());
        Row { rows: self, at }
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len()).map(|at| Row { rows: self, at })
    }

    /// The numbers of the `k` rows with the largest counts, largest first,
    /// equal counts in row order — which is key order, so the selection is
    /// the first `k` of a full sort by `(count desc, key asc)`, made without
    /// ordering the rest.
    pub fn top_by_count(&self, k: usize) -> Vec<u32> {
        let by_count = |a: &u32, b: &u32| {
            self.row_count(*b as usize).cmp(&self.row_count(*a as usize)).then(a.cmp(b))
        };
        let mut rows: Vec<u32> = (0..self.len() as u32).collect();
        if k == 0 {
            rows.clear();
        } else if k < rows.len() {
            rows.select_nth_unstable_by(k - 1, by_count);
            rows.truncate(k);
        }
        rows.sort_unstable_by(by_count);
        rows
    }

    /// Heap bytes the arenas hold — what a cached entry costs, the corpus it
    /// shares with its session left out.
    pub fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.ends.capacity() + self.items.capacity()) * 4
            + self.counts.capacity() * 8
    }

    /// Approximate size of the result in bytes when written back to disk
    /// (used to charge result-output I/O): the lengths of the strings it
    /// reads as, plus a separator per n-gram word and eight bytes per count.
    pub fn approx_bytes(&self) -> u64 {
        fn text<'a>(names: impl Iterator<Item = &'a str>, beside_each: u64) -> u64 {
            names.map(|name| name.len() as u64 + beside_each).sum()
        }
        let (beside_word, beside_key, beside_item) = match self.task {
            Task::WordCount | Task::Sort => (0, 8, 0),
            Task::TermVector => (0, 0, 8),
            Task::InvertedIndex => (0, 0, 0),
            Task::SequenceCount => (1, 8, 0),
            Task::RankedInvertedIndex => (1, 0, 8),
        };
        self.rows()
            .map(|row| text(row.key(), beside_word) + beside_key + text(row.names(), beside_item))
            .sum()
    }

    /// Append the wire encoding to `out`: exactly the bytes of
    /// `self.clone().into_strings().to_json().compact()`, written in one
    /// pass over the rows with no [`ntadoc_pmem::Json`] tree in between,
    /// words and file names looked up as they are written.
    ///
    /// Word count, sort, term vector and inverted index reach `out` in
    /// pieces no longer than one name, so a writer that passes them on
    /// holds none of the rest. An n-gram task's object is made whole first:
    /// its keys may have to be rewritten from a tree.
    pub fn write_json(&self, out: &mut impl JsonOut) {
        fn key_of<'a>(row: Row<'a>) -> &'a str {
            row.key().next().expect("a key has an id")
        }
        fn join(key: &mut String, row: &Row<'_>) {
            join_words(key, row.key());
        }
        match self.task {
            Task::WordCount => seq(out, ("{", "}"), self.rows(), |out, row| {
                member(out, key_of(row));
                write_u64(out, row.count());
            }),
            Task::Sort => pairs(out, self.rows().map(|row| (key_of(row), row.count()))),
            Task::TermVector => seq(out, ("[", "]"), self.rows(), |out, row| {
                file_terms(out, key_of(row), row.pairs())
            }),
            Task::InvertedIndex => seq(out, ("{", "}"), self.rows(), |out, row| {
                member(out, key_of(row));
                seq(out, ("[", "]"), row.names(), |out, name| write_str(out, name));
            }),
            Task::SequenceCount | Task::RankedInvertedIndex => {
                let mut text = String::new();
                let written = if self.task == Task::SequenceCount {
                    grams(&mut text, self.rows(), join, |out, row| write_u64(out, row.count()))
                } else {
                    grams(&mut text, self.rows(), join, |out, row| pairs(out, row.pairs()))
                };
                if !written {
                    text = self.clone().into_strings().to_json().compact();
                }
                out.push_str(&text);
            }
        }
    }

    /// The string-owning form. The one function that builds a
    /// [`TaskOutput`]: behind [`Engine::run`](crate::Engine::run),
    /// [`Session::traverse`](crate::Session::traverse) and
    /// [`QueryResponse::output`](crate::QueryResponse::output), for callers
    /// that compare whole results; nothing on the serve path calls it.
    pub fn into_strings(self) -> TaskOutput {
        fn key_of(row: Row<'_>) -> String {
            row.key().next().expect("a key has an id").to_owned()
        }
        fn gram_of(row: Row<'_>) -> Vec<String> {
            row.key().map(str::to_owned).collect()
        }
        fn pairs_of(row: Row<'_>) -> Vec<(String, u64)> {
            row.pairs().map(|(name, c)| (name.to_owned(), c)).collect()
        }
        let rows = self.rows();
        match self.task {
            Task::WordCount => {
                TaskOutput::WordCount(rows.map(|r| (key_of(r), r.count())).collect())
            }
            Task::Sort => TaskOutput::Sort(rows.map(|r| (key_of(r), r.count())).collect()),
            Task::TermVector => {
                TaskOutput::TermVector(rows.map(|r| (key_of(r), pairs_of(r))).collect())
            }
            Task::InvertedIndex => TaskOutput::InvertedIndex(
                rows.map(|r| (key_of(r), r.names().map(str::to_owned).collect())).collect(),
            ),
            Task::SequenceCount => {
                TaskOutput::SequenceCount(rows.map(|r| (gram_of(r), r.count())).collect())
            }
            Task::RankedInvertedIndex => {
                TaskOutput::RankedInvertedIndex(rows.map(|r| (gram_of(r), pairs_of(r))).collect())
            }
        }
    }

    // ---- shaping, in place ([`QueryKey::shape`](crate::QueryKey::shape)) ----

    /// Restrict a file-oriented result to files whose name contains
    /// `needle`: term-vector rows of other files go, an index keeps the
    /// matching files of each list and drops the rows left with none.
    pub(crate) fn keep_files(&mut self, needle: &str) {
        let matches: Vec<bool> = self.comp.file_names.iter().map(|f| f.contains(needle)).collect();
        match self.task {
            Task::TermVector => self.compact(|_, file| matches[file as usize], |_, _| true, false),
            Task::InvertedIndex | Task::RankedInvertedIndex => {
                self.compact(|_, _| true, |_, file| matches[file as usize], true)
            }
            Task::WordCount | Task::Sort | Task::SequenceCount => {}
        }
    }

    /// Keep the top `k`: of word and sequence counts the `k` largest
    /// ([`top_by_count`](Self::top_by_count)), still in key order; of a sort
    /// its first `k` rows; of every list its first `k` items.
    pub(crate) fn keep_top(&mut self, k: usize) {
        match self.task {
            Task::WordCount | Task::SequenceCount => {
                let mut kept = vec![false; self.len()];
                for row in self.top_by_count(k) {
                    kept[row as usize] = true;
                }
                self.compact(|row, _| kept[row], |_, _| true, false);
            }
            Task::Sort => self.compact(|row, _| row < k, |_, _| true, false),
            Task::TermVector | Task::InvertedIndex | Task::RankedInvertedIndex => {
                self.compact(|_, _| true, |at, _| at < k, false)
            }
        }
    }

    /// Close the arenas up over the rows `keep_row(row, first id of its
    /// key)` passes and, of their lists, the items `keep_item(position in
    /// the list, id)` passes; with `drop_empty`, a row whose list comes out
    /// empty goes too.
    fn compact(
        &mut self,
        keep_row: impl Fn(usize, u32) -> bool,
        keep_item: impl Fn(usize, u32) -> bool,
        drop_empty: bool,
    ) {
        let (width, listed) = (self.width, self.task.is_file_oriented());
        let per_item = listed && self.task != Task::InvertedIndex;
        let (mut rows, mut items, mut start) = (0, 0, 0);
        for row in 0..self.len() {
            // Not `self.list(row)`: the end before this row's may be rewritten.
            let list = start..if listed { self.ends[row] as usize } else { 0 };
            start = list.end;
            if !keep_row(row, self.keys[row * width]) {
                continue;
            }
            let first = items;
            for (at, from) in list.enumerate() {
                if keep_item(at, self.items[from]) {
                    self.items[items] = self.items[from];
                    if per_item {
                        self.counts[items] = self.counts[from];
                    }
                    items += 1;
                }
            }
            if drop_empty && items == first {
                continue;
            }
            // Row `rows` is at or before row `row`, whose own list has been
            // read: nothing still to be read is overwritten.
            self.keys.copy_within(row * width..(row + 1) * width, rows * width);
            if listed {
                self.ends[rows] = items as u32;
            } else {
                self.counts[rows] = self.counts[row];
            }
            rows += 1;
        }
        self.keys.truncate(rows * width);
        self.ends.truncate(if listed { rows } else { 0 });
        self.items.truncate(items);
        self.counts.truncate(match (listed, per_item) {
            (false, _) => rows,
            (true, true) => items,
            (true, false) => 0,
        });
        self.shrink_to_fit();
    }

    /// Give back what the arenas hold beyond their rows: a result may sit in
    /// a cache for a long time, and what is left of one after shaping may be
    /// twenty rows of eight thousand.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.items.shrink_to_fit();
        self.counts.shrink_to_fit();
    }

    // ---- ids as text -----------------------------------------------------

    /// Whether keys name files (a term vector's) or words.
    fn keyed_by_file(&self) -> bool {
        self.task == Task::TermVector
    }

    fn name(&self, file: bool, id: u32) -> &str {
        if file {
            &self.comp.file_names[id as usize]
        } else {
            self.comp.dict.word(id)
        }
    }

    fn key_ids(&self, row: usize) -> &[u32] {
        &self.keys[row * self.width..][..self.width]
    }

    /// Where row `row`'s list is in `items`.
    fn list(&self, row: usize) -> Range<usize> {
        if !self.task.is_file_oriented() {
            return 0..0;
        }
        let start = if row == 0 { 0 } else { self.ends[row - 1] as usize };
        start..self.ends[row] as usize
    }

    /// The row's own count; zero where counts belong to items.
    fn row_count(&self, row: usize) -> u64 {
        if self.task.is_file_oriented() {
            0
        } else {
            self.counts[row]
        }
    }
}

impl<'a> Row<'a> {
    /// The key as text: one word, the words of an n-gram, or — a term
    /// vector's — one file name.
    pub fn key(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let rows = self.rows;
        rows.key_ids(self.at).iter().map(move |&id| rows.name(rows.keyed_by_file(), id))
    }

    /// The row's count (word count, sort, sequence count); zero for the
    /// tasks whose counts are on list items.
    pub fn count(&self) -> u64 {
        self.rows.row_count(self.at)
    }

    /// The names in the row's list: a term vector's words, an index's files.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let rows = self.rows;
        rows.items[rows.list(self.at)].iter().map(move |&id| rows.name(!rows.keyed_by_file(), id))
    }

    /// The counts beside [`names`](Self::names); empty for an inverted
    /// index, whose lists are files alone.
    pub fn counts(&self) -> &'a [u64] {
        match self.rows.task {
            Task::TermVector | Task::RankedInvertedIndex => {
                &self.rows.counts[self.rows.list(self.at)]
            }
            _ => &[],
        }
    }

    /// `(name, count)` down the row's list, where its items have counts.
    pub fn pairs(&self) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.names().zip(self.counts().iter().copied())
    }
}

/// Rows are equal when their string forms would be: the same task, the same
/// shape, and ids that read as the same text — the same ids, when both sides
/// look them up in one corpus. Equal rows have equal wire encodings, which
/// is what lets a result cache keep one copy of an answer for several keys.
///
/// The task and the four arena lengths are compared first, so rows of a
/// different shape are told apart without reading an arena.
impl PartialEq for TaskRows {
    fn eq(&self, other: &Self) -> bool {
        let same_corpus = Arc::ptr_eq(&self.comp, &other.comp);
        let same_names = |file: bool, a: &[u32], b: &[u32]| {
            (same_corpus && a == b)
                || a.iter().zip(b).all(|(&x, &y)| {
                    (same_corpus && x == y) || self.name(file, x) == other.name(file, y)
                })
        };
        let lengths = |r: &TaskRows| (r.keys.len(), r.ends.len(), r.items.len(), r.counts.len());
        self.task == other.task
            && self.width == other.width
            && lengths(self) == lengths(other)
            && self.ends == other.ends
            && self.counts == other.counts
            && same_names(self.keyed_by_file(), &self.keys, &other.keys)
            && same_names(!self.keyed_by_file(), &self.items, &other.items)
    }
}

impl Eq for TaskRows {}

/// The rows as their string form shows them: a failed assertion should say
/// what the result was, not how many ids it held.
impl std::fmt::Debug for TaskRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TaskRows").field(&self.clone().into_strings()).finish()
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
        assert!(out.as_word_counts().is_some());
        assert!(out.as_inverted_index().is_none());
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
    fn top_by_count_is_the_prefix_of_a_full_sort() {
        // 500 rows, many count ties broken by row order; ids are never
        // looked up, so any corpus will do.
        let comp = ntadoc_grammar::compress_corpus(&[], &Default::default());
        let counts: Vec<u64> = (0..500u64).map(|row| (row * 31) % 17).collect();
        let keys = (0..500).collect();
        let rows =
            TaskRows::new(Task::WordCount, Arc::new(comp), 1, keys, vec![], vec![], counts.clone());
        let mut full: Vec<u32> = (0..500).collect();
        full.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        for top in [0, 1, 20, 499, 500, 501, usize::MAX] {
            assert_eq!(rows.top_by_count(top), full[..top.min(full.len())], "top = {top}");
        }
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
        let files = [("f".to_string(), "abc".to_string())];
        let comp = Arc::new(ntadoc_grammar::compress_corpus(&files, &Default::default()));
        let rows = TaskRows::new(Task::WordCount, comp, 1, vec![0], vec![], vec![], vec![5]);
        assert_eq!(rows.approx_bytes(), 11);
    }
}
