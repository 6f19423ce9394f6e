//! Typed queries for the serve path.
//!
//! A [`Query`] is what a tenant sends to a serve front-end: a servable
//! [`Task`] plus optional result shaping (restrict file-oriented results
//! to matching files, truncate to the top `k` rows). The [`QueryKey`] is
//! the canonical identity of the *answer* — everything that determines
//! the bytes of the output except the grammar snapshot — so a result
//! cache keyed by `(snapshot version, QueryKey)` is sound: same snapshot,
//! same key ⇒ byte-identical [`TaskRows`].
//!
//! The snapshot version itself is [`snapshot_fingerprint`]: a
//! deterministic FNV-1a over the compressed corpus (dictionary text, rule
//! symbols, file names), computed once at engine build. Two engines over
//! the same corpus agree on it; any corpus change moves it.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use ntadoc_grammar::Compressed;

use crate::result::{Task, TaskOutput, TaskRows};

/// First-class handle to one published grammar snapshot: the corpus
/// fingerprint.
///
/// A `Snapshot` is minted when a session opens over a pool
/// ([`crate::Engine::serve`]) or when an append publishes a grown corpus
/// ([`crate::Engine::append_files`]); responses reference it so a caller
/// can always tell *which* corpus state produced an answer, and caches can
/// key on [`Snapshot::fingerprint`]. Two handles over the same corpus
/// compare equal whatever pools serve them (e.g. the Sim and File
/// backends of one corpus).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Snapshot {
    fingerprint: u64,
}

impl Snapshot {
    /// Mint the handle of the corpus whose fingerprint the caller already
    /// holds (an engine computes it once per corpus, not per session).
    pub(crate) fn stamped(fingerprint: u64) -> Self {
        Snapshot { fingerprint }
    }

    /// The deterministic corpus fingerprint ([`snapshot_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish()
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.fingerprint)
    }
}

/// Identifies the tenant a query belongs to. Purely a routing/quota
/// label: it never influences the answer (and is therefore absent from
/// [`QueryKey`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One typed request against a grammar snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Tenant the request belongs to (quota accounting, per-tenant spans).
    pub tenant: TenantId,
    /// The analytics task to run.
    pub task: Task,
    /// Restrict file-oriented results to files whose name contains this
    /// substring. Only meaningful for file-oriented tasks; validation
    /// rejects it elsewhere (a filter that silently did nothing would be
    /// indistinguishable from a filter that matched everything).
    pub file_filter: Option<String>,
    /// Truncate the result to the top `k` rows (per-task semantics — see
    /// [`QueryKey::shape`]).
    pub top_k: Option<usize>,
}

impl Query {
    /// A plain query: run `task` for `tenant`, full result.
    pub fn new(tenant: TenantId, task: Task) -> Self {
        Query { tenant, task, file_filter: None, top_k: None }
    }

    /// Keep only the top `k` rows of the result.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Restrict file-oriented results to files whose name contains
    /// `needle`.
    pub fn file_filter(mut self, needle: impl Into<String>) -> Self {
        self.file_filter = Some(needle.into());
        self
    }

    /// The canonical cache/dedup identity of this query's answer.
    pub fn key(&self) -> QueryKey {
        QueryKey { task: self.task, file_filter: self.file_filter.clone(), top_k: self.top_k }
    }

    /// Reject parameter combinations that cannot shape this task's
    /// output. Typed and loud: a `file_filter` on a corpus-global task
    /// (word count, sort, sequence count) has nothing to filter.
    pub fn validate(&self) -> crate::Result<()> {
        if self.file_filter.is_some() && !self.task.is_file_oriented() {
            return Err(ntadoc_pmem::PmemError::Unsupported(format!(
                "file_filter applies to file-oriented tasks only, not '{}'",
                self.task
            )));
        }
        Ok(())
    }
}

/// Everything that determines a query's output bytes except the grammar
/// snapshot: the cache key, and the dedup key inside a batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// The task.
    pub task: Task,
    /// File-name substring restriction, if any.
    pub file_filter: Option<String>,
    /// Top-k truncation, if any.
    pub top_k: Option<usize>,
}

impl QueryKey {
    /// Shape a task's full result according to this key's parameters, in
    /// the id domain: no string is built or compared except the file names
    /// a filter is matched against, once each.
    ///
    /// Per-task semantics:
    /// * `file_filter` (file-oriented tasks only): term-vector rows whose
    ///   file name does not contain the needle are dropped; inverted-index
    ///   postings are restricted to matching files, and words/grams whose
    ///   postings become empty are dropped.
    /// * `top_k`: word count and sequence count keep the `k` largest
    ///   counts (count desc, key asc to break ties); sort keeps its first
    ///   `k` rows (it is defined as alphabetical order); term vectors and
    ///   both inverted indexes truncate each row's inner list to `k`.
    ///
    /// A key with no parameters returns the rows untouched.
    pub fn shape(&self, mut rows: TaskRows) -> TaskRows {
        if let Some(needle) = &self.file_filter {
            rows.keep_files(needle);
        }
        if let Some(k) = self.top_k {
            rows.keep_top(k);
        }
        rows
    }

    /// [`shape`](Self::shape) over the string form, with the same
    /// semantics. Nothing in the engine or the daemon calls it: it is the
    /// reference `shape` is tested against (`tests/rows_equivalence.rs`) and
    /// what the benchmark's oracle shapes its expected outputs with, as
    /// [`TaskOutput::to_json`] is the reference of the reply writer.
    pub fn apply(&self, mut out: TaskOutput) -> TaskOutput {
        if let Some(needle) = self.file_filter.as_deref() {
            match &mut out {
                TaskOutput::TermVector(rows) => rows.retain(|(f, _)| f.contains(needle)),
                TaskOutput::InvertedIndex(m) => m.retain(|_, fs| {
                    fs.retain(|f| f.contains(needle));
                    !fs.is_empty()
                }),
                TaskOutput::RankedInvertedIndex(m) => m.retain(|_, fs| {
                    fs.retain(|(f, _)| f.contains(needle));
                    !fs.is_empty()
                }),
                TaskOutput::WordCount(_) | TaskOutput::Sort(_) | TaskOutput::SequenceCount(_) => {}
            }
        }
        if let Some(k) = self.top_k {
            match &mut out {
                TaskOutput::WordCount(m) => *m = top_by_count(std::mem::take(m), k),
                TaskOutput::Sort(rows) => rows.truncate(k),
                TaskOutput::TermVector(rows) => rows.iter_mut().for_each(|(_, ws)| ws.truncate(k)),
                TaskOutput::InvertedIndex(m) => m.values_mut().for_each(|fs| fs.truncate(k)),
                TaskOutput::SequenceCount(m) => *m = top_by_count(std::mem::take(m), k),
                TaskOutput::RankedInvertedIndex(m) => m.values_mut().for_each(|fs| fs.truncate(k)),
            }
        }
        out
    }
}

/// Keep the `k` entries with the largest counts (count desc, key asc for
/// ties — fully deterministic).
fn top_by_count<K: Ord + Clone>(m: BTreeMap<K, u64>, k: usize) -> BTreeMap<K, u64> {
    let mut rows: Vec<(K, u64)> = m.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(k);
    rows.into_iter().collect()
}

/// What a result cache keeps for one answer: the rows and, once a hit on
/// them has been sent, their wire encoding.
///
/// The encoding is made the first time it is asked for and never when the
/// entry is made: most entries of a cache under churn are evicted without
/// ever being hit, and an encoding is several times the size of the rows it
/// is made from. A hit is then a lookup and a copy of these bytes.
#[derive(Debug)]
pub struct CachedOutput {
    rows: Arc<TaskRows>,
    encoded: OnceLock<String>,
}

impl CachedOutput {
    /// An entry for `rows`, not encoded yet.
    pub fn new(rows: Arc<TaskRows>) -> Self {
        CachedOutput { rows, encoded: OnceLock::new() }
    }

    /// The rows.
    pub fn rows(&self) -> &Arc<TaskRows> {
        &self.rows
    }

    /// [`TaskRows::write_json`] of the rows, encoded by the first call and
    /// shared by every later one.
    pub fn encoded(&self) -> &str {
        self.encoded.get_or_init(|| {
            let mut text = String::new();
            self.rows.write_json(&mut text);
            text.shrink_to_fit();
            text
        })
    }

    /// Bytes of the encoding if it has been made.
    pub fn encoded_len(&self) -> Option<usize> {
        self.encoded.get().map(String::len)
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The tenant the query belonged to.
    pub tenant: TenantId,
    /// The task that produced the output.
    pub task: Task,
    /// Whether this answer came from a result cache (zero device-line
    /// reads) rather than a DAG traversal.
    pub cache_hit: bool,
    /// The snapshot the answer is valid for. Shared: every response of a
    /// batch references the same handle.
    pub snapshot: Arc<Snapshot>,
    /// The (possibly shaped) result. Shared: a cache hit hands every
    /// tenant the same `Arc` without re-materializing it.
    rows: Arc<TaskRows>,
    /// The string form of `rows`, built by the first [`output`](Self::output)
    /// and by nothing else, so it cannot say anything `rows` does not.
    strings: OnceLock<TaskOutput>,
    /// The cache entry a hit came from, for its encoding. Private so that
    /// it can only ever belong to `rows`.
    cached: Option<Arc<CachedOutput>>,
}

/// Two responses are equal when they say the same thing; whether either
/// carries a cache entry or has built its strings takes no part.
impl PartialEq for QueryResponse {
    fn eq(&self, other: &Self) -> bool {
        self.tenant == other.tenant
            && self.task == other.task
            && self.rows == other.rows
            && self.cache_hit == other.cache_hit
            && self.snapshot == other.snapshot
    }
}

impl Eq for QueryResponse {}

impl QueryResponse {
    /// The answer a traversal just produced.
    pub fn computed(
        tenant: TenantId,
        task: Task,
        rows: Arc<TaskRows>,
        snapshot: Arc<Snapshot>,
    ) -> Self {
        let strings = OnceLock::new();
        QueryResponse { tenant, task, cache_hit: false, snapshot, rows, strings, cached: None }
    }

    /// The answer a result cache held.
    pub fn from_cache(
        tenant: TenantId,
        task: Task,
        cached: Arc<CachedOutput>,
        snapshot: Arc<Snapshot>,
    ) -> Self {
        let (rows, strings) = (cached.rows.clone(), OnceLock::new());
        let cached = Some(cached);
        QueryResponse { tenant, task, cache_hit: true, snapshot, rows, strings, cached }
    }

    /// The result, in the id domain: what replies are written from.
    pub fn rows(&self) -> &Arc<TaskRows> {
        &self.rows
    }

    /// Take the result, still in the id domain.
    pub fn into_rows(self) -> Arc<TaskRows> {
        self.rows
    }

    /// Borrow the result's string form, which the first call builds
    /// ([`TaskRows::into_strings`]). For callers that compare results; a
    /// reply never needs it.
    pub fn output(&self) -> &TaskOutput {
        self.strings.get_or_init(|| TaskRows::clone(&self.rows).into_strings())
    }

    /// Take the result's string form by value.
    pub fn into_output(self) -> TaskOutput {
        let rows = self.rows;
        self.strings.into_inner().unwrap_or_else(|| Arc::unwrap_or_clone(rows).into_strings())
    }

    /// The result's wire encoding as its cache entry keeps it
    /// ([`CachedOutput::encoded`]); `None` for an answer no cache holds,
    /// which its sender encodes for itself and keeps nothing of.
    pub fn encoded_output(&self) -> Option<&str> {
        self.cached.as_deref().map(CachedOutput::encoded)
    }
}

/// Deterministic identity of a compressed corpus: FNV-1a over the
/// dictionary text, every rule's packed symbols, and the file names.
/// O(corpus) once at engine build; equal corpora hash equal on every
/// platform, and any append/rebuild that changes a single byte moves it.
pub fn snapshot_fingerprint(comp: &Compressed) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fold(h: u64, byte: u8) -> u64 {
        (h ^ byte as u64).wrapping_mul(PRIME)
    }
    fn fold_u32(mut h: u64, v: u32) -> u64 {
        for b in v.to_le_bytes() {
            h = fold(h, b);
        }
        h
    }
    let mut h = OFFSET;
    for (id, word) in comp.dict.iter() {
        h = fold_u32(h, id);
        for &b in word.as_bytes() {
            h = fold(h, b);
        }
        h = fold(h, 0xff);
    }
    for rule in &comp.grammar.rules {
        h = fold_u32(h, rule.symbols.len() as u32);
        for s in &rule.symbols {
            h = fold_u32(h, s.0);
        }
    }
    for name in &comp.file_names {
        for &b in name.as_bytes() {
            h = fold(h, b);
        }
        h = fold(h, 0xff);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(pairs: &[(&str, u64)]) -> TaskOutput {
        TaskOutput::WordCount(pairs.iter().map(|&(w, c)| (w.to_string(), c)).collect())
    }

    #[test]
    fn key_ignores_tenant() {
        let a = Query::new(TenantId(1), Task::Sort).top_k(3);
        let b = Query::new(TenantId(2), Task::Sort).top_k(3);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), Query::new(TenantId(1), Task::Sort).key());
    }

    #[test]
    fn validate_rejects_filter_on_global_tasks() {
        assert!(Query::new(TenantId(0), Task::WordCount).file_filter("a").validate().is_err());
        assert!(Query::new(TenantId(0), Task::TermVector).file_filter("a").validate().is_ok());
        assert!(Query::new(TenantId(0), Task::WordCount).top_k(5).validate().is_ok());
    }

    #[test]
    fn top_k_keeps_largest_counts_deterministically() {
        let out = wc(&[("a", 2), ("b", 5), ("c", 2), ("d", 9)]);
        let key = Query::new(TenantId(0), Task::WordCount).top_k(3).key();
        let shaped = key.apply(out);
        let m = shaped.as_word_counts().unwrap();
        // 9, 5, then the tie at 2 breaks alphabetically: "a" wins over "c".
        assert_eq!(m.len(), 3);
        assert_eq!(m.get("d"), Some(&9));
        assert_eq!(m.get("b"), Some(&5));
        assert_eq!(m.get("a"), Some(&2));
    }

    #[test]
    fn file_filter_restricts_and_drops_empty_postings() {
        let mut m = BTreeMap::new();
        m.insert("w".to_string(), vec!["a.txt".to_string(), "b.txt".to_string()]);
        m.insert("x".to_string(), vec!["b.txt".to_string()]);
        let key = Query::new(TenantId(0), Task::InvertedIndex).file_filter("a.").key();
        let shaped = key.apply(TaskOutput::InvertedIndex(m));
        let idx = shaped.as_inverted_index().unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx["w"], vec!["a.txt".to_string()]);
    }

    #[test]
    fn bare_key_is_identity() {
        let out = wc(&[("a", 1)]);
        let key = Query::new(TenantId(0), Task::WordCount).key();
        assert_eq!(key.apply(out.clone()), out);
    }

    #[test]
    fn fingerprint_distinguishes_corpora() {
        use ntadoc_grammar::{compress_corpus, TokenizerConfig};
        let a = compress_corpus(
            &[("a.txt".into(), "to be or not to be".into())],
            &TokenizerConfig::default(),
        );
        let a2 = compress_corpus(
            &[("a.txt".into(), "to be or not to be".into())],
            &TokenizerConfig::default(),
        );
        let b = compress_corpus(
            &[("a.txt".into(), "to be or not to code".into())],
            &TokenizerConfig::default(),
        );
        assert_eq!(snapshot_fingerprint(&a), snapshot_fingerprint(&a2));
        assert_ne!(snapshot_fingerprint(&a), snapshot_fingerprint(&b));
    }
}
