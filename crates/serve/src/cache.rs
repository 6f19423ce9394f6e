//! Task-output cache.
//!
//! Entries are keyed by [`QueryKey`] alone, so two tenants asking the same
//! shaped question share one entry. A daemon serves one snapshot for its
//! whole life, so every entry answers for that snapshot.
//!
//! Keys whose answers are equal share one stored answer: an inverted index
//! asked for a `top` at or above its longest posting list is the whole
//! index, whatever the `top`. Sharing happens only when an answer is
//! inserted, after the miss that computed it, and never in a lookup, so it
//! cannot turn a miss into a hit: which keys hit, the counters and the
//! eviction order are those of a cache that stored every answer apart.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ntadoc::{CachedOutput, QueryKey, TaskRows};

/// FIFO-evicting map from a query key to a shared result, held as id rows,
/// and, once the result has been hit and sent, its encoding
/// ([`CachedOutput`]). Keys with equal results hold one `Arc` of it.
///
/// FIFO rather than LRU keeps eviction order a pure function of the insert
/// sequence — one less source of replay divergence, and the hot-entry reuse
/// the daemon cares about (identical queries in one burst) is insensitive to
/// the difference.
///
/// A lookup borrows the caller's [`QueryKey`]: the daemon hot path takes
/// zero heap allocations on a hit, although a `QueryKey` holds heap-owning
/// fields.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<QueryKey, Arc<CachedOutput>>,
    order: VecDeque<QueryKey>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// Cache holding at most `capacity` outputs; `0` disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache { capacity, ..ResultCache::default() }
    }

    /// Look up a query, counting the hit or miss. Borrows the key — no
    /// allocation on either outcome.
    pub fn get(&mut self, key: &QueryKey) -> Option<Arc<CachedOutput>> {
        let found = self.entries.get(key).cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Insert a result, evicting the oldest entry when at capacity. A
    /// resident answer equal to `rows` is shared, with its encoding if it
    /// has one; otherwise the result is stored, not encoded. Finding it is a
    /// scan of at most `capacity` entries, each told apart by its task and
    /// arena lengths before its arenas are read.
    pub fn insert(&mut self, key: QueryKey, rows: Arc<TaskRows>) {
        if self.capacity == 0 {
            return;
        }
        let resident = self.entries.values().find(|e| **e.rows() == *rows).cloned();
        let answer = resident.unwrap_or_else(|| Arc::new(CachedOutput::new(rows)));
        if self.entries.insert(key.clone(), answer).is_some() {
            return; // refreshed in place; insertion order unchanged
        }
        self.order.push_back(key);
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else { break };
            self.entries.remove(&oldest);
        }
    }

    /// Entries (keys) currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The distinct answers the resident entries hold, each once.
    fn answers(&self) -> impl Iterator<Item = &CachedOutput> {
        let mut seen: Vec<*const CachedOutput> = Vec::with_capacity(self.entries.len());
        self.entries.values().filter_map(move |e| {
            let at = Arc::as_ptr(e);
            (!seen.contains(&at)).then(|| {
                seen.push(at);
                &**e
            })
        })
    }

    /// Distinct answers resident: [`len`](Self::len) less the entries that
    /// share another key's answer.
    pub fn answer_count(&self) -> usize {
        self.answers().count()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes of the resident answers' rows ([`TaskRows::heap_bytes`]),
    /// each answer counted once however many keys share it; their
    /// encodings are counted by [`memoized`](Self::memoized).
    pub fn bytes(&self) -> usize {
        self.answers().map(|e| e.rows().heap_bytes()).sum()
    }

    /// `(answers, bytes)` of the encodings resident answers hold: one per
    /// answer that was hit and sent, under whichever key, none for an
    /// answer that never was.
    pub fn memoized(&self) -> (usize, usize) {
        let lens = self.answers().filter_map(|e| e.encoded_len());
        lens.fold((0, 0), |(n, bytes), len| (n + 1, bytes + len))
    }

    /// Lifetime (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Fraction of lookups served from cache; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc::{Engine, Query, Task, TenantId};
    use ntadoc_grammar::{compress_corpus, TokenizerConfig};

    fn key(task: Task, k: Option<usize>) -> QueryKey {
        let q = Query::new(TenantId(0), task);
        match k {
            Some(k) => q.top_k(k).key(),
            None => q.key(),
        }
    }

    /// The word count `{word: n}`, as an engine's rows.
    fn out(word: &str, n: usize) -> Arc<TaskRows> {
        let files = [("f".to_string(), vec![word; n].join(" "))];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let mut engine = Engine::builder(comp).build().unwrap();
        Arc::new(engine.run_rows(Task::WordCount).unwrap())
    }

    #[test]
    fn fifo_eviction_and_counters() {
        let mut c = ResultCache::new(2);
        c.insert(key(Task::WordCount, None), out("a", 1));
        c.insert(key(Task::WordCount, Some(3)), out("b", 2));
        c.insert(key(Task::Sort, None), out("c", 3)); // evicts the first
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(Task::WordCount, None)).is_none());
        assert!(c.get(&key(Task::WordCount, Some(3))).is_some());
        assert!(c.get(&key(Task::Sort, None)).is_some());
        assert_eq!(c.counters(), (2, 1));
        c.insert(key(Task::Sort, None), out("d", 4)); // refreshed, not re-queued
        assert_eq!(c.len(), 2);
        c.insert(key(Task::WordCount, None), out("e", 5)); // evicts `top` 3
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(Task::WordCount, Some(3))).is_none());
        assert!(c.get(&key(Task::Sort, None)).is_some());
        assert!((c.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn an_encoding_is_made_by_the_first_ask_and_leaves_with_its_entry() {
        let mut c = ResultCache::new(1);
        c.insert(key(Task::WordCount, None), out("a", 1));
        assert_eq!(c.memoized(), (0, 0), "an insert encodes nothing");
        assert_eq!(c.bytes(), 4 + 8, "one key and one count");
        let hit = c.get(&key(Task::WordCount, None)).unwrap();
        assert_eq!(c.memoized(), (0, 0), "nor does a lookup");
        assert_eq!(hit.encoded(), r#"{"a":1}"#);
        assert_eq!(c.memoized(), (1, 7));
        let again = c.get(&key(Task::WordCount, None)).unwrap();
        assert!(std::ptr::eq(hit.encoded(), again.encoded()), "one encoding per entry");
        assert_eq!(c.bytes(), 4 + 8, "the encoding is not the rows'");
        c.insert(key(Task::Sort, None), out("b", 2)); // evicts it
        assert_eq!(c.memoized(), (0, 0));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        c.insert(key(Task::WordCount, None), out("a", 1));
        assert!(c.is_empty());
        assert!(c.get(&key(Task::WordCount, None)).is_none());
    }
}
