//! Set-associative write-back LRU cache in front of the simulated media.
//!
//! For byte-addressable devices this stands in for the CPU cache hierarchy;
//! for block devices it stands in for the OS page cache (whose size the
//! paper caps at 20% of the uncompressed dataset). The cache only tracks
//! *which* lines are resident and dirty — data always lives in the device's
//! backing store — so it is purely a cost/persistence model.

/// Outcome of a cache access, used by the device to charge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was fetched; if an eviction displaced a dirty line, the
    /// line index that must be written back is carried here.
    Miss {
        /// Dirty line evicted to make room, if any.
        evicted_dirty: Option<u64>,
    },
}

/// Tag of an empty slot.
const EMPTY: u64 = u64::MAX;

/// Set-associative LRU over line indices (not bytes).
///
/// Structure of arrays: a set's tags sit side by side, so the hit scan —
/// the only thing most accesses do — reads `ways` consecutive words.
#[derive(Debug)]
pub struct LineCache {
    /// Line index per slot, or `EMPTY`; set `s` owns `s * ways..(s + 1) * ways`.
    tags: Vec<u64>,
    /// `last_used << 1 | dirty` per slot; zero while the slot is empty, so
    /// an empty slot is always the least recently used of its set.
    meta: Vec<u64>,
    ways: usize,
    sets: usize,
    tick: u64,
}

impl LineCache {
    /// Build a cache holding up to `capacity_bytes / line_size` lines with
    /// the given associativity. The set count is rounded down to a power of
    /// two (minimum one set).
    pub fn new(capacity_bytes: usize, line_size: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        let total_lines = (capacity_bytes / line_size).max(ways);
        let sets = (total_lines / ways).next_power_of_two() / 2;
        let sets = sets.max(1);
        LineCache {
            tags: vec![EMPTY; sets * ways],
            meta: vec![0; sets * ways],
            ways,
            sets,
            tick: 0,
        }
    }

    /// The slots of `line`'s set.
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        // Multiplicative hash spreads adjacent lines across sets while
        // keeping determinism.
        let set = ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// The slot holding `line`, if it is resident.
    #[inline]
    fn slot_of(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        self.tags[set.clone()].iter().position(|&t| t == line).map(|way| set.start + way)
    }

    /// Touch `line`, optionally marking it dirty, and report hit/miss.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        let stamp = self.tick << 1;

        if let Some(slot) = self.slot_of(line) {
            self.meta[slot] = stamp | (self.meta[slot] & 1) | write as u64;
            return AccessOutcome::Hit;
        }

        // Miss: the first empty slot, else the least recently used one.
        // Stamps are unique and sit above the dirty bit, so the smallest
        // `meta` is the oldest stamp; only empty slots (zero) tie, and the
        // first of them wins.
        let set = self.set_of(line);
        let oldest = self.meta[set.clone()].iter().enumerate().min_by_key(|&(_, &m)| m);
        let victim = set.start + oldest.expect("ways >= 1").0;
        let evicted_dirty = (self.meta[victim] & 1 != 0).then_some(self.tags[victim]);
        self.tags[victim] = line;
        self.meta[victim] = stamp | write as u64;
        AccessOutcome::Miss { evicted_dirty }
    }

    /// Clear the dirty bit of `line` if resident; returns whether a
    /// write-back was needed.
    pub fn flush_line(&mut self, line: u64) -> bool {
        match self.slot_of(line) {
            Some(slot) => {
                let was = self.meta[slot] & 1 != 0;
                self.meta[slot] &= !1;
                was
            }
            None => false,
        }
    }

    /// Clear every dirty bit, returning how many lines were written back.
    pub fn flush_all(&mut self) -> u64 {
        let mut n = 0;
        for m in &mut self.meta {
            n += *m & 1;
            *m &= !1;
        }
        n
    }

    /// Number of resident lines (for tests and introspection).
    pub fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::Prng;

    /// The array-of-structs cache this one replaced, kept as the model the
    /// structure-of-arrays form is held to.
    struct ReferenceCache {
        entries: Vec<(u64, bool, u64)>, // (line, dirty, last_used)
        ways: usize,
        sets: usize,
        tick: u64,
    }

    impl ReferenceCache {
        fn new(capacity_bytes: usize, line_size: usize, ways: usize) -> Self {
            let ways = ways.max(1);
            let total_lines = (capacity_bytes / line_size).max(ways);
            let sets = ((total_lines / ways).next_power_of_two() / 2).max(1);
            ReferenceCache { entries: vec![(EMPTY, false, 0); sets * ways], ways, sets, tick: 0 }
        }

        fn set(&mut self, line: u64) -> &mut [(u64, bool, u64)] {
            let set = ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1);
            &mut self.entries[set * self.ways..(set + 1) * self.ways]
        }

        fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
            self.tick += 1;
            let tick = self.tick;
            let slots = self.set(line);
            if let Some(e) = slots.iter_mut().find(|e| e.0 == line) {
                e.2 = tick;
                e.1 |= write;
                return AccessOutcome::Hit;
            }
            let victim = slots
                .iter_mut()
                .min_by_key(|e| if e.0 == EMPTY { 0 } else { e.2 })
                .expect("ways >= 1");
            let evicted_dirty = (victim.0 != EMPTY && victim.1).then_some(victim.0);
            *victim = (line, write, tick);
            AccessOutcome::Miss { evicted_dirty }
        }

        fn flush_line(&mut self, line: u64) -> bool {
            self.set(line)
                .iter_mut()
                .find(|e| e.0 == line)
                .is_some_and(|e| std::mem::replace(&mut e.1, false))
        }

        fn flush_all(&mut self) -> u64 {
            let dirty = self.entries.iter_mut().filter(|e| e.0 != EMPTY && e.1);
            dirty.map(|e| e.1 = false).count() as u64
        }
    }

    /// Seeded `access` / `flush_line` / `flush_all` streams give the same
    /// outcome sequence — hits, misses and the dirty victim of every
    /// eviction — from both caches, across geometries.
    #[test]
    fn matches_the_reference_model_call_for_call() {
        let calls: u64 = if cfg!(miri) { 4_000 } else { 400_000 };
        // (capacity, line size, ways, distinct lines drawn from)
        for (g, &(cap, line, ways, span)) in [
            (1 << 16, 256, 4, 700),
            (2 << 20, 256, 16, 20_000),
            (256, 256, 1, 5),
            (4096, 64, 3, 90),
        ]
        .iter()
        .enumerate()
        {
            let mut new = LineCache::new(cap, line, ways);
            let mut old = ReferenceCache::new(cap, line, ways);
            assert_eq!(new.capacity_lines(), old.sets * old.ways);
            let mut rng = Prng::new(0xCAC4E + g as u64);
            for call in 0..calls {
                // Mostly a hot tenth of the lines, so hits and misses mix.
                let hot = rng.next_below(4) != 0;
                let l = rng.next_below(if hot { span / 10 + 1 } else { span });
                match rng.next_below(64) {
                    0 => assert_eq!(new.flush_all(), old.flush_all(), "geometry {g} call {call}"),
                    1..=8 => {
                        assert_eq!(new.flush_line(l), old.flush_line(l), "geometry {g} call {call}")
                    }
                    op => assert_eq!(
                        new.access(l, op & 1 == 0),
                        old.access(l, op & 1 == 0),
                        "geometry {g} call {call}"
                    ),
                }
            }
            let resident = old.entries.iter().filter(|e| e.0 != EMPTY).count();
            assert_eq!(new.resident(), resident);
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = LineCache::new(1 << 16, 256, 4);
        assert!(matches!(c.access(7, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.access(7, false), AccessOutcome::Hit);
    }

    #[test]
    fn write_marks_dirty_and_flush_clears() {
        let mut c = LineCache::new(1 << 16, 256, 4);
        c.access(3, true);
        assert!(c.flush_line(3));
        assert!(!c.flush_line(3)); // already clean
    }

    #[test]
    fn eviction_reports_dirty_victim() {
        // One set, one way: every distinct line evicts the previous one.
        let mut c = LineCache::new(256, 256, 1);
        assert_eq!(c.capacity_lines(), 1);
        c.access(1, true);
        match c.access(2, false) {
            AccessOutcome::Miss { evicted_dirty } => assert_eq!(evicted_dirty, Some(1)),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_reports_no_write_back() {
        let mut c = LineCache::new(256, 256, 1);
        c.access(1, false);
        match c.access(2, false) {
            AccessOutcome::Miss { evicted_dirty } => assert_eq!(evicted_dirty, None),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single set with 2 ways; touch 1 then 2 then re-touch 1; inserting
        // 3 must evict 2.
        let mut c = LineCache::new(512, 256, 2);
        assert_eq!(c.sets, 1);
        c.access(1, true);
        c.access(2, true);
        c.access(1, false);
        match c.access(3, false) {
            AccessOutcome::Miss { evicted_dirty } => assert_eq!(evicted_dirty, Some(2)),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.access(1, false), AccessOutcome::Hit);
    }

    #[test]
    fn flush_all_counts_dirty_lines() {
        let mut c = LineCache::new(1 << 16, 256, 4);
        c.access(1, true);
        c.access(2, true);
        c.access(3, false);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.flush_all(), 0);
    }

    #[test]
    fn resident_counts_lines() {
        let mut c = LineCache::new(1 << 16, 256, 4);
        assert_eq!(c.resident(), 0);
        c.access(10, false);
        c.access(11, false);
        assert_eq!(c.resident(), 2);
    }
}
