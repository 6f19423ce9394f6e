//! Snapshot-keyed task-output cache.
//!
//! Entries are keyed by `(grammar snapshot fingerprint, QueryKey)`, so two
//! tenants asking the same shaped question share one entry, and a newly
//! installed snapshot can never serve stale bytes — its fingerprint differs,
//! so old entries simply never match (and are swept on install).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ntadoc::{CachedOutput, QueryKey, TaskRows};

/// FIFO-evicting map from `(snapshot, query key)` to a shared result, held
/// as id rows, and, once the entry has been hit and sent, that result's
/// encoding ([`CachedOutput`]).
///
/// FIFO rather than LRU keeps eviction order a pure function of the insert
/// sequence — one less source of replay divergence, and the hot-entry reuse
/// the daemon cares about (identical queries in one burst) is insensitive to
/// the difference.
///
/// Entries nest by snapshot (`snapshot → key → output`) so a lookup borrows
/// the caller's [`QueryKey`]: the daemon hot path takes zero heap
/// allocations on a hit — a `QueryKey` holds heap-owning fields, and the
/// old flat `(u64, QueryKey)` key forced a clone per lookup just to probe.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<u64, HashMap<QueryKey, Arc<CachedOutput>>>,
    order: VecDeque<(u64, QueryKey)>,
    resident: usize,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// Cache holding at most `capacity` outputs; `0` disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache { capacity, ..ResultCache::default() }
    }

    /// Look up a query under a snapshot, counting the hit or miss. Borrows
    /// the key — no allocation on either outcome.
    pub fn get(&mut self, snapshot: u64, key: &QueryKey) -> Option<Arc<CachedOutput>> {
        let found = self.entries.get(&snapshot).and_then(|m| m.get(key)).cloned();
        match found {
            Some(out) => {
                self.hits += 1;
                Some(out)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a result, not encoded, evicting the oldest entry when at
    /// capacity.
    pub fn insert(&mut self, snapshot: u64, key: QueryKey, rows: Arc<TaskRows>) {
        if self.capacity == 0 {
            return;
        }
        let lane = self.entries.entry(snapshot).or_default();
        if lane.insert(key.clone(), Arc::new(CachedOutput::new(rows))).is_some() {
            return; // refreshed in place; insertion order unchanged
        }
        self.resident += 1;
        self.order.push_back((snapshot, key));
        while self.resident > self.capacity {
            let Some((s, k)) = self.order.pop_front() else { break };
            if let Some(lane) = self.entries.get_mut(&s) {
                if lane.remove(&k).is_some() {
                    self.resident -= 1;
                }
                if lane.is_empty() {
                    self.entries.remove(&s);
                }
            }
        }
    }

    /// Drop every entry not belonging to `snapshot` — called when a new
    /// grammar snapshot is installed, since old entries can never hit again.
    pub fn retain_snapshot(&mut self, snapshot: u64) {
        self.retain_snapshots(&[snapshot]);
    }

    /// Drop every entry whose snapshot is not in `snapshots`. The daemon
    /// keeps {draining, current} alive while an old lane drains, then
    /// narrows to {current} the moment the drain lane empties — so exactly
    /// the superseded entries are invalidated, no sooner and no later.
    pub fn retain_snapshots(&mut self, snapshots: &[u64]) {
        self.entries.retain(|s, _| snapshots.contains(s));
        self.order.retain(|(s, _)| snapshots.contains(s));
        self.resident = self.entries.values().map(HashMap::len).sum();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Heap bytes of the resident entries' rows ([`TaskRows::heap_bytes`]);
    /// their encodings are counted by [`memoized`](Self::memoized).
    pub fn bytes(&self) -> usize {
        self.entries.values().flat_map(HashMap::values).map(|e| e.rows().heap_bytes()).sum()
    }

    /// `(entries, bytes)` of the encodings resident entries hold: one per
    /// entry that was hit and sent, none for an entry that never was.
    pub fn memoized(&self) -> (usize, usize) {
        let lens = self.entries.values().flat_map(HashMap::values).filter_map(|e| e.encoded_len());
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
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        c.insert(1, key(Task::WordCount, Some(3)), out("b", 2));
        c.insert(1, key(Task::Sort, None), out("c", 3)); // evicts the first
        assert_eq!(c.len(), 2);
        assert!(c.get(1, &key(Task::WordCount, None)).is_none());
        assert!(c.get(1, &key(Task::Sort, None)).is_some());
        assert_eq!(c.counters(), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_isolates_entries() {
        let mut c = ResultCache::new(8);
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        assert!(c.get(2, &key(Task::WordCount, None)).is_none());
        c.retain_snapshot(2);
        assert!(c.is_empty());
    }

    #[test]
    fn retain_snapshots_keeps_exactly_the_named_generations() {
        let mut c = ResultCache::new(8);
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        c.insert(2, key(Task::WordCount, None), out("b", 2));
        c.insert(3, key(Task::WordCount, None), out("c", 3));
        c.retain_snapshots(&[2, 3]);
        assert!(c.get(1, &key(Task::WordCount, None)).is_none());
        assert!(c.get(2, &key(Task::WordCount, None)).is_some());
        assert!(c.get(3, &key(Task::WordCount, None)).is_some());
    }

    #[test]
    fn eviction_spans_snapshot_lanes_and_len_tracks_residency() {
        let mut c = ResultCache::new(2);
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        c.insert(2, key(Task::WordCount, None), out("b", 2));
        c.insert(3, key(Task::WordCount, None), out("c", 3)); // evicts snapshot 1's
        assert_eq!(c.len(), 2);
        assert!(c.get(1, &key(Task::WordCount, None)).is_none());
        assert!(c.get(2, &key(Task::WordCount, None)).is_some());
        assert!(c.get(3, &key(Task::WordCount, None)).is_some());
        c.retain_snapshots(&[3]);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn an_encoding_is_made_by_the_first_ask_and_leaves_with_its_entry() {
        let mut c = ResultCache::new(1);
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        assert_eq!(c.memoized(), (0, 0), "an insert encodes nothing");
        assert_eq!(c.bytes(), 4 + 8, "one key and one count");
        let hit = c.get(1, &key(Task::WordCount, None)).unwrap();
        assert_eq!(c.memoized(), (0, 0), "nor does a lookup");
        assert_eq!(hit.encoded(), r#"{"a":1}"#);
        assert_eq!(c.memoized(), (1, 7));
        let again = c.get(1, &key(Task::WordCount, None)).unwrap();
        assert!(std::ptr::eq(hit.encoded(), again.encoded()), "one encoding per entry");
        assert_eq!(c.bytes(), 4 + 8, "the encoding is not the rows'");
        c.insert(1, key(Task::Sort, None), out("b", 2)); // evicts it
        assert_eq!(c.memoized(), (0, 0));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        c.insert(1, key(Task::WordCount, None), out("a", 1));
        assert!(c.is_empty());
        assert!(c.get(1, &key(Task::WordCount, None)).is_none());
    }
}
