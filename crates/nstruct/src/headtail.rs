//! Per-rule head/tail word buffers for sequence analytics (§IV-D).
//!
//! Counting a word sequence of length `n` inside compressed data needs the
//! words that straddle rule boundaries. Expanding whole rules to find them
//! is the "coarse-grained expansion" the paper criticises; instead, every
//! rule stores its first and last `n − 1` words. A sequence task then scans
//! each rule body once, consulting only the head/tail buffers of the
//! subrules it references.
//!
//! The store is laid out as two dense `u32` matrices (`rules × width`) plus
//! per-rule lengths, all bump-allocated adjacently so a rule's head and
//! tail live in the same few media lines.

use std::sync::Arc;

use ntadoc_pmem::{Addr, PmemPool, Result};

/// A caller-owned buffer [`HeadTailStore::head`] and
/// [`tail`](HeadTailStore::tail) decode into — the bytes as read and the
/// words decoded from them — so a scan over many rules allocates neither
/// per read.
#[derive(Debug, Default)]
pub struct WordBuf {
    bytes: Vec<u8>,
    words: Vec<u32>,
}

/// Fixed-width head/tail word store for every rule of a grammar.
pub struct HeadTailStore {
    pool: Arc<PmemPool>,
    /// Words kept at each end of each rule (= n − 1 for n-gram tasks).
    width: usize,
    rules: usize,
    heads: Addr,
    tails: Addr,
    head_lens: Addr,
    tail_lens: Addr,
}

impl HeadTailStore {
    /// Allocate buffers for `rules` rules with `width` words per end.
    pub fn new(pool: Arc<PmemPool>, rules: usize, width: usize) -> Result<Self> {
        let width = width.max(1);
        let heads = pool.alloc(rules * width * 4, 4)?;
        let tails = pool.alloc(rules * width * 4, 4)?;
        let head_lens = pool.alloc_array(rules, 4)?;
        let tail_lens = pool.alloc_array(rules, 4)?;
        Ok(HeadTailStore { pool, width, rules, heads, tails, head_lens, tail_lens })
    }

    /// Words kept per end.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row stride in `u32`s: rows are dense, so this is
    /// [`HeadTailStore::width`].
    pub fn stride(&self) -> usize {
        self.width
    }

    /// Number of rules the store covers.
    pub fn rules(&self) -> usize {
        self.rules
    }

    /// Record rule `r`'s head (its first `≤ width` words).
    pub fn set_head(&self, r: usize, words: &[u32]) {
        assert!(r < self.rules && words.len() <= self.width);
        let dev = self.pool.dev();
        dev.write_u32_slice(self.heads + (r * self.width * 4) as u64, words);
        dev.write_u32(self.head_lens + (r * 4) as u64, words.len() as u32);
    }

    /// Record rule `r`'s tail (its last `≤ width` words).
    pub fn set_tail(&self, r: usize, words: &[u32]) {
        assert!(r < self.rules && words.len() <= self.width);
        let dev = self.pool.dev();
        dev.write_u32_slice(self.tails + (r * self.width * 4) as u64, words);
        dev.write_u32(self.tail_lens + (r * 4) as u64, words.len() as u32);
    }

    /// Bulk assembly: write both matrices and both length arrays with one
    /// device store each. The flats are row-major `rules × width` (slots
    /// past a row's length are don't-care but must be present); lengths are
    /// per-rule word counts `≤ width`.
    pub fn fill_rows(
        &self,
        heads_flat: &[u32],
        head_lens: &[u32],
        tails_flat: &[u32],
        tail_lens: &[u32],
    ) {
        assert_eq!(heads_flat.len(), self.rules * self.width);
        assert_eq!(tails_flat.len(), self.rules * self.width);
        assert_eq!(head_lens.len(), self.rules);
        assert_eq!(tail_lens.len(), self.rules);
        debug_assert!(head_lens.iter().chain(tail_lens).all(|&l| l as usize <= self.width));
        let dev = self.pool.dev();
        dev.write_u32_slice(self.heads, heads_flat);
        dev.write_u32_slice(self.tails, tails_flat);
        dev.write_u32_slice(self.head_lens, head_lens);
        dev.write_u32_slice(self.tail_lens, tail_lens);
    }

    /// Rule `r`'s head words, decoded into `buf`.
    pub fn head<'b>(&self, r: usize, buf: &'b mut WordBuf) -> &'b [u32] {
        self.row(self.head_lens, self.heads, r, buf)
    }

    /// Rule `r`'s tail words, decoded into `buf`.
    pub fn tail<'b>(&self, r: usize, buf: &'b mut WordBuf) -> &'b [u32] {
        self.row(self.tail_lens, self.tails, r, buf)
    }

    /// Row `r` of one matrix: its length, then its words in one read, both
    /// under one device lock.
    fn row<'b>(&self, lens: Addr, rows: Addr, r: usize, buf: &'b mut WordBuf) -> &'b [u32] {
        assert!(r < self.rules);
        let row = rows + (r * self.width * 4) as u64;
        let read = self.pool.dev().with_reads(|reads| {
            let len = reads.read_u32(lens + (r * 4) as u64)? as usize;
            buf.bytes.resize(len * 4, 0);
            reads.read_bytes(row, &mut buf.bytes)
        });
        if let Err(e) = read {
            panic!("{e}");
        }
        buf.words.clear();
        buf.words.extend(
            buf.bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        &buf.words
    }

    /// Record this store's footprint into `metrics` under `label`
    /// (`{label}.capacity_bytes` peak gauge — both matrices plus the two
    /// length arrays). Idempotent: safe to call at every snapshot point.
    pub fn observe(&self, metrics: &ntadoc_pmem::MetricRegistry, label: &str) {
        let bytes = 2 * self.rules * self.width * 4 + 2 * self.rules * 4;
        metrics.gauge_max(&format!("{label}.capacity_bytes"), bytes as f64);
    }

    /// Flush + fence the whole store (phase-level persistence).
    pub fn persist(&self) {
        let dev = self.pool.dev();
        dev.flush(self.heads, self.rules * self.width * 4);
        dev.flush(self.tails, self.rules * self.width * 4);
        dev.flush(self.head_lens, self.rules * 4);
        dev.flush(self.tail_lens, self.rules * 4);
        dev.fence();
    }
}

impl std::fmt::Debug for HeadTailStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeadTailStore")
            .field("rules", &self.rules)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_pmem::{DeviceProfile, SimDevice};

    impl HeadTailStore {
        fn head_vec(&self, r: usize) -> Vec<u32> {
            self.head(r, &mut WordBuf::default()).to_vec()
        }

        fn tail_vec(&self, r: usize) -> Vec<u32> {
            self.tail(r, &mut WordBuf::default()).to_vec()
        }
    }

    fn store(rules: usize, width: usize) -> HeadTailStore {
        let pool = Arc::new(PmemPool::over_whole(Arc::new(SimDevice::new(
            DeviceProfile::nvm_optane(),
            1 << 20,
        ))));
        HeadTailStore::new(pool, rules, width).unwrap()
    }

    #[test]
    fn head_and_tail_round_trip() {
        let s = store(4, 3);
        s.set_head(2, &[10, 11, 12]);
        s.set_tail(2, &[20, 21]);
        // One buffer for both: a shorter read leaves nothing of the longer.
        let mut buf = WordBuf::default();
        assert_eq!(s.head(2, &mut buf), [10, 11, 12]);
        assert_eq!(s.tail(2, &mut buf), [20, 21]);
    }

    #[test]
    fn unset_rules_read_empty() {
        let s = store(4, 3);
        assert!(s.head_vec(1).is_empty());
        assert!(s.tail_vec(3).is_empty());
    }

    #[test]
    fn short_rules_store_fewer_words() {
        let s = store(2, 4);
        s.set_head(0, &[5]);
        assert_eq!(s.head_vec(0), vec![5]);
    }

    #[test]
    fn rules_do_not_interfere() {
        let s = store(3, 2);
        s.set_head(0, &[1, 2]);
        s.set_head(1, &[3, 4]);
        s.set_head(2, &[5, 6]);
        assert_eq!(s.head_vec(0), vec![1, 2]);
        assert_eq!(s.head_vec(1), vec![3, 4]);
        assert_eq!(s.head_vec(2), vec![5, 6]);
    }

    #[test]
    #[should_panic]
    fn oversized_head_panics() {
        let s = store(2, 2);
        s.set_head(0, &[1, 2, 3]);
    }

    #[test]
    fn persist_survives_crash() {
        let pool = Arc::new(PmemPool::over_whole(Arc::new(SimDevice::new(
            DeviceProfile::nvm_optane(),
            1 << 20,
        ))));
        let s = HeadTailStore::new(pool.clone(), 2, 2).unwrap();
        s.set_head(0, &[7, 8]);
        s.persist();
        pool.dev().crash();
        assert_eq!(s.head_vec(0), vec![7, 8]);
    }

    #[test]
    fn bulk_fill_matches_per_rule_writes() {
        let per_rule = store(3, 2);
        per_rule.set_head(0, &[1, 2]);
        per_rule.set_head(1, &[3]);
        per_rule.set_head(2, &[]);
        per_rule.set_tail(0, &[9]);
        per_rule.set_tail(1, &[8, 7]);
        per_rule.set_tail(2, &[6]);

        let bulk = store(3, 2);
        bulk.fill_rows(&[1, 2, 3, 0, 0, 0], &[2, 1, 0], &[9, 0, 8, 7, 6, 0], &[1, 2, 1]);
        for r in 0..3 {
            assert_eq!(bulk.head_vec(r), per_rule.head_vec(r), "head {r}");
            assert_eq!(bulk.tail_vec(r), per_rule.tail_vec(r), "tail {r}");
        }
    }
}
