//! Bump allocation of device regions ("NVM pools").
//!
//! The paper's pruning design (§IV-B) writes rule representations
//! *adjacently* into a DAG pool so traversal enjoys the 256 B media
//! granularity; the bottom-up summation (§IV-C) exists precisely so that
//! containers can be bump-allocated once with a known upper bound instead
//! of growing. A bump allocator is therefore not a simplification — it is
//! the allocation discipline the system is designed around.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::device::{Addr, SimDevice};
use crate::error::PmemError;
use crate::ledger::AllocLedger;
use crate::profile::DeviceKind;
use crate::Result;

/// A contiguous region of a device handed out in bump-allocated chunks.
///
/// The bump pointer is atomic, so a pool shared through an `Arc` can be
/// allocated from by concurrent workers (the compare-and-swap loop keeps
/// chunks disjoint).
pub struct PmemPool {
    dev: Arc<SimDevice>,
    base: Addr,
    end: Addr,
    top: AtomicU64,
    ledger: Option<Arc<AllocLedger>>,
}

impl PmemPool {
    /// Create a pool over `[base, base+len)` of `dev`.
    ///
    /// # Panics
    /// Panics if the region exceeds the device capacity.
    pub fn new(dev: Arc<SimDevice>, base: Addr, len: u64) -> Self {
        assert!(
            base + len <= dev.capacity(),
            "pool [{base:#x}, {:#x}) exceeds device capacity {:#x}",
            base + len,
            dev.capacity()
        );
        PmemPool { dev, base, end: base + len, top: AtomicU64::new(base), ledger: None }
    }

    /// Create a pool spanning an entire freshly created device.
    pub fn over_whole(dev: Arc<SimDevice>) -> Self {
        let cap = dev.capacity();
        Self::new(dev, 0, cap)
    }

    /// Attach an allocation ledger; every subsequent `alloc` is recorded
    /// under the device's kind.
    pub fn with_ledger(mut self, ledger: Arc<AllocLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// The device backing this pool.
    pub fn dev(&self) -> &Arc<SimDevice> {
        &self.dev
    }

    /// Device kind, for ledger attribution.
    pub fn kind(&self) -> DeviceKind {
        self.dev.profile().kind
    }

    /// Allocate `size` bytes aligned to `align` (a power of two).
    pub fn alloc(&self, size: usize, align: u64) -> Result<Addr> {
        debug_assert!(align.is_power_of_two());
        let mut top = self.top.load(Ordering::Relaxed);
        loop {
            let aligned = (top + align - 1) & !(align - 1);
            let new_top = aligned + size as u64;
            if new_top > self.end {
                return Err(PmemError::PoolExhausted {
                    requested: size,
                    available: self.end.saturating_sub(top),
                });
            }
            match self.top.compare_exchange_weak(top, new_top, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    if let Some(ledger) = &self.ledger {
                        ledger.on_alloc(self.kind(), size as u64);
                    }
                    return Ok(aligned);
                }
                Err(actual) => top = actual,
            }
        }
    }

    /// Allocate room for `n` values of `ITEM_SIZE` bytes, aligned to the
    /// item size (up to 8).
    pub fn alloc_array(&self, n: usize, item_size: usize) -> Result<Addr> {
        self.alloc(n * item_size, (item_size.min(8) as u64).next_power_of_two())
    }

    /// First byte of the pool.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Current bump pointer.
    pub fn top(&self) -> Addr {
        self.top.load(Ordering::Relaxed)
    }

    /// Bytes handed out so far (including alignment padding).
    pub fn used(&self) -> u64 {
        self.top() - self.base
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.top()
    }

    /// Release everything (the pool forgets its allocations; contents stay).
    pub fn reset(&self) {
        if let Some(ledger) = &self.ledger {
            ledger.on_free(self.kind(), self.used());
        }
        self.top.store(self.base, Ordering::Relaxed);
    }

    /// Flush + fence the entire used region (phase-level persistence of a
    /// whole pool).
    pub fn persist_used(&self) {
        if self.used() > 0 {
            self.dev.persist(self.base, self.used() as usize);
        }
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("base", &self.base)
            .field("end", &self.end)
            .field("top", &self.top())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn pool(cap: usize) -> PmemPool {
        PmemPool::over_whole(Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), cap)))
    }

    #[test]
    fn sequential_allocations_do_not_overlap() {
        let p = pool(1024);
        let a = p.alloc(100, 1).unwrap();
        let b = p.alloc(100, 1).unwrap();
        assert!(b >= a + 100);
    }

    #[test]
    fn alignment_is_respected() {
        let p = pool(1024);
        p.alloc(3, 1).unwrap();
        let a = p.alloc(8, 8).unwrap();
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn exhaustion_returns_error() {
        let p = pool(64);
        p.alloc(60, 1).unwrap();
        let err = p.alloc(10, 1).unwrap_err();
        assert!(matches!(err, PmemError::PoolExhausted { .. }));
    }

    #[test]
    fn reset_reclaims_space() {
        let p = pool(64);
        p.alloc(60, 1).unwrap();
        p.reset();
        assert!(p.alloc(60, 1).is_ok());
    }

    #[test]
    fn used_and_remaining_account() {
        let p = pool(128);
        assert_eq!(p.used(), 0);
        p.alloc(40, 1).unwrap();
        assert_eq!(p.used(), 40);
        assert_eq!(p.remaining(), 88);
    }

    #[test]
    fn ledger_records_peak() {
        let ledger = Arc::new(AllocLedger::new());
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1024));
        let p = PmemPool::over_whole(dev).with_ledger(ledger.clone());
        p.alloc(100, 1).unwrap();
        p.alloc(100, 1).unwrap();
        assert_eq!(ledger.current(DeviceKind::Nvm), 200);
        p.reset();
        assert_eq!(ledger.current(DeviceKind::Nvm), 0);
        assert_eq!(ledger.peak(DeviceKind::Nvm), 200);
    }

    #[test]
    fn alloc_array_sizes_correctly() {
        let p = pool(1024);
        let a = p.alloc_array(10, 4).unwrap();
        let b = p.alloc(1, 1).unwrap();
        assert_eq!(b - a, 40);
    }
}
