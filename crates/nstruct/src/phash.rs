//! The open-addressing hash table of Figure 4.
//!
//! Layout on the pool (three adjacent buffers, exactly as the paper draws
//! it):
//!
//! ```text
//! status buffer   cap × u8    (0 = empty, 1 = occupied)
//! key buffer      cap × u64
//! value buffer    cap × u64
//! ```
//!
//! Capacity is "adjusted upward to the power of 2 for alignment to improve
//! the hit rate of the cache"; collisions are resolved by "pseudo-random
//! detection and hashing" — we use the perturbation probe sequence
//! (`i = 5·i + 1 + perturb; perturb >>= 5`), which visits every slot of a
//! power-of-two table and scatters clustered keys.
//!
//! When constructed from a bottom-up-summation upper bound the table never
//! rehashes; otherwise exceeding the load factor triggers a full, fully
//! charged reconstruction.
//!
//! # Failure modes
//!
//! The §IV-C invariant — "the bound never under-estimates, so containers
//! never reconstruct" — is load-bearing, and this table fails loudly when
//! it is violated rather than corrupting silently:
//!
//! * **Probe exhaustion.** The probe sequence is bounded; if it visits
//!   every slot without finding the key or an empty slot (possible only
//!   for an over-full or corrupted table — the load factor guarantees
//!   empty slots otherwise), the table panics with len/cap/fixed
//!   diagnostics instead of livelocking.
//! * **Counter overflow.** `add`/`add_tx` use checked arithmetic; a count
//!   crossing `u64::MAX` is a logic error and panics in release builds
//!   too, never wrapping.
//! * **Grow inside a transaction.** `add_tx` refuses to reconstruct while
//!   the caller's undo log is open
//!   ([`GrowDuringTransaction`](ntadoc_pmem::PmemError::GrowDuringTransaction)):
//!   reconstruction writes are not undo-logged, so a crash between grow
//!   and commit would be unrecoverable by rollback. Callers commit, call
//!   [`PHashTable::reserve_for_insert`], and retry.
//! * **Abandoned buffers.** Reconstruction leaks the old status/key/value
//!   buffers (the pool is a bump allocator); the table tracks the leak in
//!   [`PHashTable::leaked_bytes`] and reports it as a
//!   `{label}.leaked_bytes` gauge so footprint metrics stay honest.

use std::cell::Cell;
use std::sync::Arc;

use ntadoc_pmem::{Addr, PmemPool, Result};

const LOAD_NUM: usize = 7; // rehash above 7/8 load
const LOAD_DEN: usize = 8;

/// Open-addressing `u64 → u64` hash table on a [`PmemPool`].
///
/// ```
/// use std::sync::Arc;
/// use ntadoc_pmem::{DeviceProfile, PmemPool, SimDevice};
/// use ntadoc_nstruct::PHashTable;
///
/// let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20));
/// let pool = Arc::new(PmemPool::over_whole(dev));
/// let table = PHashTable::with_expected(pool, 100, true).unwrap();
/// table.add(42, 7).unwrap();
/// table.add(42, 3).unwrap();
/// assert_eq!(table.get(42), Some(10));
/// ```
pub struct PHashTable {
    pool: Arc<PmemPool>,
    status_base: Cell<Addr>,
    key_base: Cell<Addr>,
    value_base: Cell<Addr>,
    cap: Cell<usize>,
    len: Cell<usize>,
    reconstructions: Cell<u32>,
    /// Bytes abandoned in the pool by reconstructions (old buffers are
    /// never reclaimed — the pool is a bump allocator).
    leaked_bytes: Cell<u64>,
    fixed: bool,
}

#[inline]
fn hash64(mut x: u64) -> u64 {
    // splitmix64 finalizer — strong enough to decorrelate dense word ids.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PHashTable {
    /// Create a table able to hold `expected` entries without rehashing.
    /// `fixed = true` marks the capacity as a trusted upper bound (the
    /// summation path): exceeding it is a logic error and panics rather
    /// than silently rehashing.
    pub fn with_expected(pool: Arc<PmemPool>, expected: usize, fixed: bool) -> Result<Self> {
        // Size so `expected` stays under the load factor, then round up to
        // a power of two.
        let min_cap = (expected.max(1) * LOAD_DEN).div_ceil(LOAD_NUM);
        let cap = min_cap.next_power_of_two();
        let (status, keys, values) = Self::alloc_buffers(&pool, cap)?;
        Ok(PHashTable {
            pool,
            status_base: Cell::new(status),
            key_base: Cell::new(keys),
            value_base: Cell::new(values),
            cap: Cell::new(cap),
            len: Cell::new(0),
            reconstructions: Cell::new(0),
            leaked_bytes: Cell::new(0),
            fixed,
        })
    }

    fn alloc_buffers(pool: &Arc<PmemPool>, cap: usize) -> Result<(Addr, Addr, Addr)> {
        let status = pool.alloc_array(cap, 1)?;
        let keys = pool.alloc_array(cap, 8)?;
        let values = pool.alloc_array(cap, 8)?;
        // Status must start all-empty; zero it with bulk writes.
        let zeros = vec![0u8; cap];
        pool.dev().write_bytes(status, &zeros);
        Ok((status, keys, values))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len.get()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len.get() == 0
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.cap.get()
    }

    /// Number of full rehashes performed.
    pub fn reconstructions(&self) -> u32 {
        self.reconstructions.get()
    }

    /// Pool bytes abandoned by reconstructions. Zero for tables that never
    /// rehashed — in particular, always zero on the fixed-capacity
    /// (summation-bound) path.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaked_bytes.get()
    }

    /// Record this table's footprint and rehash count into `metrics`
    /// under `label` (`{label}.capacity_bytes` peak gauge — status + key +
    /// value buffers — `{label}.reconstructions` monotonic counter, and
    /// `{label}.leaked_bytes` gauge for buffers abandoned by rehashes).
    /// Idempotent: safe to call at every snapshot point.
    pub fn observe(&self, metrics: &ntadoc_pmem::MetricRegistry, label: &str) {
        let bytes = self.cap.get() * (1 + 8 + 8);
        metrics.gauge_max(&format!("{label}.capacity_bytes"), bytes as f64);
        metrics.counter_max(&format!("{label}.reconstructions"), self.reconstructions.get() as u64);
        metrics.gauge_max(&format!("{label}.leaked_bytes"), self.leaked_bytes.get() as f64);
    }

    /// Find the slot holding `key`, or the empty slot where it would go.
    /// Returns `(slot, occupied)`.
    fn probe(&self, key: u64) -> (usize, bool) {
        let cap = self.cap.get();
        let mask = (cap - 1) as u64;
        let h = hash64(key);
        let mut i = h & mask;
        let mut perturb = h;
        let dev = self.pool.dev();
        // Once `perturb` drains (after ⌈64/5⌉ = 13 steps) the recurrence
        // degenerates to the full-period LCG `i = 5i + 1 mod cap`, which
        // visits every slot of a power-of-two table within `cap` steps —
        // so `cap + 16` probes provably cover the whole table. Running out
        // means there is no empty slot and no matching key: the table is
        // over-full or its status buffer is corrupt, and continuing would
        // livelock. Fail loudly instead.
        for _ in 0..cap + 16 {
            let status: u8 = dev.read_pod(self.status_base.get() + i);
            if status == 0 {
                return (i as usize, false);
            }
            let k: u64 = dev.read_pod(self.key_base.get() + i * 8);
            if k == key {
                return (i as usize, true);
            }
            perturb >>= 5;
            i = (i.wrapping_mul(5).wrapping_add(1).wrapping_add(perturb)) & mask;
        }
        panic!(
            "PHashTable::probe exhausted all {cap} slots without a hit or an empty \
             (len={}, cap={cap}, fixed={}): the table is over-full or its status \
             buffer is corrupt — a violated summation bound fails loudly here \
             instead of livelocking",
            self.len.get(),
            self.fixed,
        );
    }

    /// Insert `key → value`, overwriting any previous value.
    pub fn insert(&self, key: u64, value: u64) -> Result<()> {
        let (slot, occupied) = self.probe(key);
        if !occupied && self.needs_grow() {
            self.grow()?;
            return self.insert(key, value);
        }
        let dev = self.pool.dev();
        if !occupied {
            dev.write_pod(self.status_base.get() + slot as u64, 1u8);
            dev.write_pod(self.key_base.get() + (slot * 8) as u64, key);
            self.len.set(self.len.get() + 1);
        }
        dev.write_pod(self.value_base.get() + (slot * 8) as u64, value);
        Ok(())
    }

    /// Add `delta` to the value at `key` (inserting 0 first if absent) —
    /// the counter operation every analytics task leans on.
    pub fn add(&self, key: u64, delta: u64) -> Result<()> {
        let (slot, occupied) = self.probe(key);
        if !occupied && self.needs_grow() {
            self.grow()?;
            return self.add(key, delta);
        }
        let dev = self.pool.dev();
        let value_at = self.value_base.get() + (slot * 8) as u64;
        if occupied {
            let cur: u64 = dev.read_pod(value_at);
            dev.write_pod(value_at, Self::checked_count(cur, delta, key));
        } else {
            dev.write_pod(self.status_base.get() + slot as u64, 1u8);
            dev.write_pod(self.key_base.get() + (slot * 8) as u64, key);
            dev.write_pod(value_at, delta);
            self.len.set(self.len.get() + 1);
        }
        Ok(())
    }

    /// `cur + delta` with overflow as a loud failure: counts are u64, so a
    /// wrap can only come from a logic error upstream — silently wrapping
    /// in release builds would corrupt every downstream aggregate.
    #[inline]
    fn checked_count(cur: u64, delta: u64, key: u64) -> u64 {
        cur.checked_add(delta).unwrap_or_else(|| {
            panic!(
                "PHashTable counter overflow for key {key:#x}: {cur} + {delta} \
                 exceeds u64::MAX — counts cannot legitimately wrap"
            )
        })
    }

    /// Operation-level-persistence variant of [`add`](Self::add): the
    /// pre-images of the three touched slots are recorded in `tx`'s undo
    /// log before the write, exactly as a PMDK transaction would. The
    /// caller owns transaction begin/commit batching.
    ///
    /// If the insert would trigger a grow while `tx` is active, the call
    /// fails with [`ntadoc_pmem::PmemError::GrowDuringTransaction`] instead of
    /// reconstructing: none of the rebuild's bulk writes would be in the
    /// undo log, so a crash between grow and commit could not be rolled
    /// back. Commit, call [`reserve_for_insert`](Self::reserve_for_insert),
    /// and retry.
    pub fn add_tx(&self, key: u64, delta: u64, tx: &mut ntadoc_pmem::TxLog) -> Result<()> {
        let (slot, occupied) = self.probe(key);
        if !occupied && self.needs_grow() {
            if tx.is_active() {
                return Err(ntadoc_pmem::PmemError::GrowDuringTransaction {
                    len: self.len.get(),
                    cap: self.cap.get(),
                });
            }
            self.grow()?;
            return self.add_tx(key, delta, tx);
        }
        let dev = self.pool.dev();
        let status_at = self.status_base.get() + slot as u64;
        let key_at = self.key_base.get() + (slot * 8) as u64;
        let value_at = self.value_base.get() + (slot * 8) as u64;
        tx.log_range(status_at, 1)?;
        tx.log_range(key_at, 8)?;
        tx.log_range(value_at, 8)?;
        if occupied {
            let cur: u64 = dev.read_pod(value_at);
            dev.write_pod(value_at, Self::checked_count(cur, delta, key));
        } else {
            dev.write_pod(status_at, 1u8);
            dev.write_pod(key_at, key);
            dev.write_pod(value_at, delta);
            self.len.set(self.len.get() + 1);
        }
        Ok(())
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        let (slot, occupied) = self.probe(key);
        if !occupied {
            return None;
        }
        Some(self.pool.dev().read_pod(self.value_base.get() + (slot * 8) as u64))
    }

    /// Scan out all `(key, value)` pairs (bulk reads, order unspecified).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let cap = self.cap.get();
        let dev = self.pool.dev();
        let mut status = vec![0u8; cap];
        dev.read_bytes(self.status_base.get(), &mut status);
        let mut keys = vec![0u8; cap * 8];
        dev.read_bytes(self.key_base.get(), &mut keys);
        let mut values = vec![0u8; cap * 8];
        dev.read_bytes(self.value_base.get(), &mut values);
        let mut out = Vec::with_capacity(self.len.get());
        for i in 0..cap {
            if status[i] == 1 {
                let k = u64::from_le_bytes(keys[i * 8..i * 8 + 8].try_into().unwrap());
                let v = u64::from_le_bytes(values[i * 8..i * 8 + 8].try_into().unwrap());
                out.push((k, v));
            }
        }
        out
    }

    /// Flush + fence all three buffers (phase-level persistence).
    pub fn persist(&self) {
        let cap = self.cap.get();
        let dev = self.pool.dev();
        dev.flush(self.status_base.get(), cap);
        dev.flush(self.key_base.get(), cap * 8);
        dev.flush(self.value_base.get(), cap * 8);
        dev.fence();
    }

    /// Whether inserting one more key would exceed the load factor.
    fn needs_grow(&self) -> bool {
        (self.len.get() + 1) * LOAD_DEN > self.cap.get() * LOAD_NUM
    }

    /// Grow now, outside any transaction, if the next insert would exceed
    /// the load factor. This is the recovery half of the
    /// [`PmemError::GrowDuringTransaction`](ntadoc_pmem::PmemError::GrowDuringTransaction)
    /// protocol: commit the open transaction, reserve, begin a fresh
    /// transaction, retry the `add_tx`.
    pub fn reserve_for_insert(&self) -> Result<()> {
        if self.needs_grow() {
            self.grow()?;
        }
        Ok(())
    }

    fn grow(&self) -> Result<()> {
        assert!(
            !self.fixed,
            "PHashTable sized from an upper bound overflowed: the bound was wrong"
        );
        self.reconstruct(self.cap.get() * 2)
    }

    /// Full rehash into doubled buffers — the expensive NVM reconstruction
    /// the paper's summation technique exists to avoid.
    fn reconstruct(&self, new_cap: usize) -> Result<()> {
        let old = self.entries();
        let abandoned = (self.cap.get() * (1 + 8 + 8)) as u64;
        let (status, keys, values) = Self::alloc_buffers(&self.pool, new_cap)?;
        self.leaked_bytes.set(self.leaked_bytes.get() + abandoned);
        self.status_base.set(status);
        self.key_base.set(keys);
        self.value_base.set(values);
        self.cap.set(new_cap);
        self.len.set(0);
        for (k, v) in old {
            let (slot, _) = self.probe(k);
            let dev = self.pool.dev();
            dev.write_pod(self.status_base.get() + slot as u64, 1u8);
            dev.write_pod(self.key_base.get() + (slot * 8) as u64, k);
            dev.write_pod(self.value_base.get() + (slot * 8) as u64, v);
            self.len.set(self.len.get() + 1);
        }
        self.reconstructions.set(self.reconstructions.get() + 1);
        Ok(())
    }
}

impl std::fmt::Debug for PHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PHashTable")
            .field("len", &self.len.get())
            .field("cap", &self.cap.get())
            .field("fixed", &self.fixed)
            .field("reconstructions", &self.reconstructions.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_pmem::{DeviceProfile, SimDevice};

    /// Keys a table test inserts; Miri runs a tenth of them.
    const KEYS: u64 = if cfg!(miri) { 50 } else { 500 };
    /// Keys of the two growth-cost tests, over a pool of `GROWTH_POOL`
    /// bytes.
    const GROWTH_KEYS: u64 = if cfg!(miri) { 200 } else { 2000 };
    const GROWTH_POOL: usize = if cfg!(miri) { 1 << 20 } else { 1 << 24 };

    fn pool(bytes: usize) -> Arc<PmemPool> {
        Arc::new(PmemPool::over_whole(Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), bytes))))
    }

    #[test]
    fn insert_get_round_trip() {
        let t = PHashTable::with_expected(pool(1 << 20), 16, false).unwrap();
        t.insert(42, 7).unwrap();
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.get(43), None);
    }

    #[test]
    fn insert_overwrites() {
        let t = PHashTable::with_expected(pool(1 << 20), 16, false).unwrap();
        t.insert(1, 10).unwrap();
        t.insert(1, 20).unwrap();
        assert_eq!(t.get(1), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_accumulates() {
        let t = PHashTable::with_expected(pool(1 << 20), 16, false).unwrap();
        t.add(5, 3).unwrap();
        t.add(5, 4).unwrap();
        assert_eq!(t.get(5), Some(7));
    }

    #[test]
    fn capacity_is_power_of_two() {
        for expected in [1, 3, 100, 1000] {
            let t = PHashTable::with_expected(pool(1 << 22), expected, false).unwrap();
            assert!(t.capacity().is_power_of_two());
            assert!(t.capacity() * LOAD_NUM / LOAD_DEN >= expected);
        }
    }

    #[test]
    fn growth_rehashes_and_preserves() {
        let t = PHashTable::with_expected(pool(1 << 22), 2, false).unwrap();
        for k in 0..KEYS {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.reconstructions() > 0);
        for k in 0..KEYS {
            assert_eq!(t.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.len(), KEYS as usize);
    }

    #[test]
    fn presized_table_never_rehashes() {
        let t = PHashTable::with_expected(pool(1 << 22), KEYS as usize, true).unwrap();
        for k in 0..KEYS {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.reconstructions(), 0);
    }

    #[test]
    #[should_panic(expected = "upper bound overflowed")]
    fn fixed_table_overflow_panics() {
        let t = PHashTable::with_expected(pool(1 << 22), 4, true).unwrap();
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
    }

    #[test]
    fn entries_returns_all_pairs() {
        let t = PHashTable::with_expected(pool(1 << 20), 32, false).unwrap();
        for k in 0..20u64 {
            t.add(k, k + 100).unwrap();
        }
        let mut e = t.entries();
        e.sort_unstable();
        assert_eq!(e.len(), 20);
        assert_eq!(e[0], (0, 100));
        assert_eq!(e[19], (19, 119));
    }

    #[test]
    fn presizing_is_cheaper_than_growing() {
        let p1 = pool(GROWTH_POOL);
        let grown = PHashTable::with_expected(p1.clone(), 2, false).unwrap();
        for k in 0..GROWTH_KEYS {
            grown.insert(k, k).unwrap();
        }
        let grown_ns = p1.dev().stats().virtual_ns;

        let p2 = pool(GROWTH_POOL);
        let sized = PHashTable::with_expected(p2.clone(), GROWTH_KEYS as usize, true).unwrap();
        for k in 0..GROWTH_KEYS {
            sized.insert(k, k).unwrap();
        }
        let sized_ns = p2.dev().stats().virtual_ns;
        assert!(
            grown_ns > sized_ns,
            "rehash storms ({grown_ns}) must beat pre-sizing ({sized_ns})"
        );
    }

    #[test]
    fn colliding_keys_all_found() {
        // Keys chosen to collide in a tiny table exercise the probe chain.
        let t = PHashTable::with_expected(pool(1 << 20), 64, false).unwrap();
        let keys: Vec<u64> = (0..40).map(|i| i * 64).collect();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
    }

    #[test]
    fn add_tx_rolls_back_on_crash() {
        use ntadoc_pmem::TxLog;
        let p = pool(1 << 20);
        let t = PHashTable::with_expected(p.clone(), 16, true).unwrap();
        t.insert(1, 5).unwrap();
        t.persist();
        let mut tx = TxLog::new(p.dev().clone(), (1 << 20) - 8192, 8192);
        tx.begin().unwrap();
        t.add_tx(1, 10, &mut tx).unwrap();
        // Crash before commit: recovery must restore the old value.
        p.dev().crash();
        let mut tx2 = TxLog::new(p.dev().clone(), (1 << 20) - 8192, 8192);
        assert!(tx2.recover().unwrap());
        assert_eq!(t.get(1), Some(5));
    }

    #[test]
    fn add_tx_committed_survives_crash() {
        use ntadoc_pmem::TxLog;
        let p = pool(1 << 20);
        let t = PHashTable::with_expected(p.clone(), 16, true).unwrap();
        t.persist();
        let mut tx = TxLog::new(p.dev().clone(), (1 << 20) - 8192, 8192);
        tx.begin().unwrap();
        t.add_tx(7, 3, &mut tx).unwrap();
        tx.commit().unwrap();
        p.dev().crash();
        let mut tx2 = TxLog::new(p.dev().clone(), (1 << 20) - 8192, 8192);
        assert!(!tx2.recover().unwrap());
        assert_eq!(t.get(7), Some(3));
    }

    #[test]
    #[should_panic(expected = "over-full or its status buffer is corrupt")]
    fn probe_on_corrupt_full_table_panics_instead_of_livelocking() {
        // Blast the pool with nonzero bytes: every status slot claims
        // occupancy and every key mismatches, the exact shape that used to
        // spin probe() forever. The bounded probe must panic with
        // diagnostics instead.
        let p = pool(1 << 20);
        let t = PHashTable::with_expected(p.clone(), 8, true).unwrap();
        p.dev().write_bytes(0, &vec![0x5au8; 4096]);
        let _ = t.get(0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn add_overflow_panics_instead_of_wrapping() {
        let t = PHashTable::with_expected(pool(1 << 20), 16, true).unwrap();
        t.add(1, u64::MAX).unwrap();
        t.add(1, 1).unwrap();
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn add_tx_overflow_panics_instead_of_wrapping() {
        use ntadoc_pmem::TxLog;
        let p = pool(1 << 20);
        let t = PHashTable::with_expected(p.clone(), 16, true).unwrap();
        let mut tx = TxLog::new(p.dev().clone(), (1 << 20) - 8192, 8192);
        tx.begin().unwrap();
        t.add_tx(1, u64::MAX, &mut tx).unwrap();
        t.add_tx(1, 1, &mut tx).unwrap();
    }

    #[test]
    fn add_tx_refuses_to_grow_mid_transaction() {
        use ntadoc_pmem::{PmemError, TxLog};
        let p = pool(1 << 22);
        let t = PHashTable::with_expected(p.clone(), 2, false).unwrap();
        let mut tx = TxLog::new(p.dev().clone(), (1 << 22) - 65536, 65536);
        tx.begin().unwrap();
        let mut refused = None;
        for k in 0..100u64 {
            match t.add_tx(k, 1, &mut tx) {
                Ok(()) => {}
                Err(PmemError::GrowDuringTransaction { len, cap }) => {
                    refused = Some((k, len, cap));
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let (k, len, cap) = refused.expect("a tiny growable table must hit the grow refusal");
        assert!((len + 1) * 8 > cap * 7, "refusal must coincide with the load-factor trip");
        // The documented protocol makes the insert succeed: commit, grow
        // outside the transaction, begin fresh, retry.
        tx.commit().unwrap();
        t.reserve_for_insert().unwrap();
        tx.begin().unwrap();
        t.add_tx(k, 1, &mut tx).unwrap();
        tx.commit().unwrap();
        assert_eq!(t.get(k), Some(1));
        assert!(t.reconstructions() > 0);
    }

    #[test]
    fn fixed_tables_never_leak_bytes() {
        let reg = ntadoc_pmem::MetricRegistry::new();
        let t = PHashTable::with_expected(pool(1 << 22), KEYS as usize, true).unwrap();
        for k in 0..KEYS {
            t.add(k, 1).unwrap();
        }
        assert_eq!(t.leaked_bytes(), 0, "the fixed-capacity path must never abandon buffers");
        t.observe(&reg, "fixed");
        let snap = reg.snapshot();
        assert_eq!(snap.get("fixed.leaked_bytes").and_then(|m| m.as_gauge()), Some(0.0));
    }

    #[test]
    fn reconstruction_leak_is_accounted() {
        let reg = ntadoc_pmem::MetricRegistry::new();
        let t = PHashTable::with_expected(pool(GROWTH_POOL), 2, false).unwrap();
        let cap0 = t.capacity();
        for k in 0..GROWTH_KEYS {
            t.insert(k, k).unwrap();
        }
        assert!(t.reconstructions() > 0);
        // Doubling from cap0 to the final capacity abandons every
        // intermediate buffer: sum of cap·17 for cap0..final/2.
        let mut expect = 0u64;
        let mut cap = cap0;
        while cap < t.capacity() {
            expect += (cap * (1 + 8 + 8)) as u64;
            cap *= 2;
        }
        assert_eq!(t.leaked_bytes(), expect);
        t.observe(&reg, "grown");
        let snap = reg.snapshot();
        assert_eq!(snap.get("grown.leaked_bytes").and_then(|m| m.as_gauge()), Some(expect as f64));
    }

    #[test]
    fn persist_survives_crash() {
        let p = pool(1 << 20);
        let t = PHashTable::with_expected(p.clone(), 16, false).unwrap();
        t.insert(9, 81).unwrap();
        t.persist();
        p.dev().crash();
        assert_eq!(t.get(9), Some(81));
    }
}
