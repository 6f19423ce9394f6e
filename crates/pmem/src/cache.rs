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

/// Most ways a set can have: a set's recency order is one nibble per way.
pub const MAX_WAYS: usize = 16;

/// The recency order of a fresh set: way `i` in nibble `i`.
const FRESH_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// Every nibble's low bit (for the zero-nibble search).
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;

/// One set, in one 64-byte-aligned row: its tags, which ways hold a line,
/// which of those are dirty, and the ways from most to least recently used.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Set {
    /// Line index per way; meaningful where `valid` has the way's bit.
    tags: [u32; MAX_WAYS],
    /// Way numbers as nibbles, the most recently used in the low nibble.
    /// Nibbles `0..ways` are a permutation of the set's ways; the ones
    /// above hold the unused way numbers and never move.
    order: u64,
    valid: u16,
    dirty: u16,
}

impl Set {
    const FRESH: Set = Set { tags: [0; MAX_WAYS], order: FRESH_ORDER, valid: 0, dirty: 0 };

    /// The way holding `tag`, if any. Compares all sixteen lanes without
    /// a branch and masks off the ways that hold nothing.
    #[inline]
    fn way_of(&self, tag: u32) -> Option<usize> {
        let mut hits = 0u16;
        for (way, &t) in self.tags.iter().enumerate() {
            hits |= ((t == tag) as u16) << way;
        }
        hits &= self.valid;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Move `way` to the front of the recency order.
    #[inline]
    fn promote(&mut self, way: usize) {
        // The lowest nibble equal to `way` is the lowest zero nibble of
        // `x`; the classic zero-byte test, by nibbles, flags it exactly
        // (its false positives only sit above a true zero).
        let x = self.order ^ (way as u64 * NIBBLE_LOW);
        let zero = x.wrapping_sub(NIBBLE_LOW) & !x & (NIBBLE_LOW << 3);
        let at = zero.trailing_zeros() & !3; // bit offset of that nibble
        let below = self.order & ((1u64 << at) - 1);
        let above = self.order & (u64::MAX << at << 4);
        self.order = above | below << 4 | way as u64;
    }
}

/// Set-associative LRU over line indices (not bytes).
///
/// One `Set` row per set: a hit compares the row's sixteen tags and
/// rewrites its recency order, all in the same 128 bytes. The model is the one the array-of-structs form had: the
/// victim of a miss is the set's first empty way, else its least recently
/// used one.
#[derive(Debug)]
pub struct LineCache {
    rows: Vec<Set>,
    ways: usize,
    sets: usize,
}

impl LineCache {
    /// Build a cache holding up to `capacity_bytes / line_size` lines with
    /// the given associativity. The set count is rounded down to a power of
    /// two (minimum one set).
    ///
    /// # Panics
    /// Panics above [`MAX_WAYS`] ways (every built-in profile has 16).
    pub fn new(capacity_bytes: usize, line_size: usize, ways: usize) -> Self {
        assert!(ways <= MAX_WAYS, "a line cache has at most {MAX_WAYS} ways, not {ways}");
        let ways = ways.max(1);
        let total_lines = (capacity_bytes / line_size).max(ways);
        let sets = (total_lines / ways).next_power_of_two() / 2;
        let sets = sets.max(1);
        LineCache { rows: vec![Set::FRESH; sets], ways, sets }
    }

    /// The row of `line`'s set.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        // Multiplicative hash spreads adjacent lines across sets while
        // keeping determinism.
        ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1)
    }

    /// `line` as a tag. Line indices fit in a `u32`: a device refuses
    /// more than `2^32 - 1` lines.
    #[inline]
    fn tag(line: u64) -> u32 {
        debug_assert!(line <= u32::MAX as u64, "line {line} does not fit a cache tag");
        line as u32
    }

    /// Touch `line`, optionally marking it dirty, and report hit/miss.
    /// Line indices are tagged as `u32`s, so `line` must be below `2^32`
    /// (a [`SimDevice`](crate::SimDevice) has fewer lines).
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
        let (tag, ways) = (Self::tag(line), self.ways);
        let set = self.set_of(line);
        let row = &mut self.rows[set];
        if let Some(way) = row.way_of(tag) {
            row.dirty |= (write as u16) << way;
            row.promote(way);
            return AccessOutcome::Hit;
        }
        // Miss: the first empty way, else the least recently used one.
        let empty = !row.valid & ((1u32 << ways) - 1) as u16;
        let victim = if empty != 0 {
            empty.trailing_zeros() as usize
        } else {
            (row.order >> (4 * (ways - 1)) & 0xF) as usize
        };
        let bit = 1u16 << victim;
        let evicted_dirty = (row.valid & row.dirty & bit != 0).then_some(row.tags[victim] as u64);
        row.tags[victim] = tag;
        row.valid |= bit;
        row.dirty = (row.dirty & !bit) | (write as u16) << victim;
        row.promote(victim);
        AccessOutcome::Miss { evicted_dirty }
    }

    /// Clear the dirty bit of `line` if resident; returns whether a
    /// write-back was needed.
    pub fn flush_line(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let row = &mut self.rows[set];
        match row.way_of(Self::tag(line)) {
            Some(way) => {
                let was = row.dirty & 1 << way != 0;
                row.dirty &= !(1 << way);
                was
            }
            None => false,
        }
    }

    /// Clear every dirty bit, returning how many lines were written back.
    pub fn flush_all(&mut self) -> u64 {
        let mut n = 0;
        for row in &mut self.rows {
            n += row.dirty.count_ones() as u64;
            row.dirty = 0;
        }
        n
    }

    /// Number of resident lines (for tests and introspection).
    pub fn resident(&self) -> usize {
        self.rows.iter().map(|row| row.valid.count_ones() as usize).sum()
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

    /// Tag of an empty slot in the reference model.
    const EMPTY: u64 = u64::MAX;

    /// The array-of-structs cache this one replaced, kept as the model the
    /// row-per-set form is held to.
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
    #[should_panic(expected = "at most 16 ways, not 17")]
    fn more_than_sixteen_ways_are_refused() {
        LineCache::new(1 << 16, 64, 17);
    }

    /// Tags are `u32`s: line indices up to `u32::MAX` stay apart, and a
    /// dirty victim is reported as the index it came in as.
    #[test]
    fn sixteen_ways_take_line_indices_near_u32_max() {
        let (mut new, mut old) =
            (LineCache::new(1 << 12, 64, 16), ReferenceCache::new(1 << 12, 64, 16));
        let mut rng = Prng::new(0xFFFF_FFFF);
        let mut evicted = 0;
        for call in 0..if cfg!(miri) { 2_000 } else { 20_000 } {
            let line = u32::MAX as u64 - rng.next_below(80);
            let write = rng.next_below(2) == 0;
            let outcome = new.access(line, write);
            assert_eq!(outcome, old.access(line, write), "call {call}");
            evicted += matches!(outcome, AccessOutcome::Miss { evicted_dirty: Some(_) }) as u32;
        }
        assert!(evicted > 100);
        assert!(new.flush_line(u32::MAX as u64) == old.flush_line(u32::MAX as u64));
        assert_eq!(new.flush_all(), old.flush_all());
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
