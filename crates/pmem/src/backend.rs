//! The storage-backend trait behind every pool.
//!
//! [`PmemBackend`] is the lean interface the persistence machinery
//! ([`crate::TxLog`], the engine's pool init and recovery path) needs from
//! a device: line-granular byte access, flush/fence ordering and the
//! virtual-clock cost hooks. Crashes and fault trips are not part of it:
//! sweeps and tests arm them on the [`crate::SimDevice`] they hold (a pool
//! file's twin).
//!
//! Two implementations exist:
//!
//! * [`crate::SimDevice`] — the in-memory simulator: full cost model,
//!   torn-write crash states, fault injection. Every run uses one.
//! * [`crate::PoolFile`] — a real file on disk, wrapped *around* a
//!   `SimDevice` twin. All operations forward to the twin (so costs,
//!   stats, and crash decisions are byte-for-byte identical to a pure
//!   sim run); a [`crate::DeviceMirror`] hook inside the twin writes
//!   the durable image through to the file at each fence, and tears the
//!   *on-disk* bytes when a crash is injected.
//!
//! The trait is deliberately narrow: the high-bandwidth consumers
//! (`PmemPool`, the DAG structures, the serve path) keep talking to the
//! concrete `SimDevice` they were built on — the mirror keeps the file
//! coherent underneath them without a virtual call per access.

use crate::device::{Addr, SimDevice};
use crate::stats::AccessStats;
use crate::Result;

/// Line-granular persistent storage with explicit flush/fence ordering.
/// See the module docs for the contract and the two implementations.
///
/// Provided helpers (`persist`, `read_u64`, …) are built on the required
/// byte methods; the panicking variants panic with the error's `Display`
/// form, matching [`SimDevice`]'s behaviour, so swapping a concrete
/// device for a `dyn PmemBackend` does not change failure modes.
pub trait PmemBackend: Send + Sync {
    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Fallible read of `buf.len()` bytes starting at `addr`.
    fn try_read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<()>;

    /// Fallible write of `buf` starting at `addr`. May panic with
    /// [`crate::CRASH_PANIC`] when an armed write trip expires.
    fn try_write_bytes(&self, addr: Addr, buf: &[u8]) -> Result<()>;

    /// Stage the lines covering `[addr, addr + len)` toward durability
    /// (CLWB analogue). Not durable until the next [`fence`](Self::fence).
    fn flush(&self, addr: Addr, len: usize);

    /// Ordering point: everything flushed (and every store to those lines
    /// issued before the fence) becomes durable.
    fn fence(&self);

    /// A *seal* fence: like [`fence`](Self::fence), but the fenced bytes
    /// are recovery-critical (a TxLog commit record, a header seal) and
    /// the caller acknowledges the operation the moment this returns.
    /// Backends that stage durable writes in a volatile tier (an OS page
    /// cache, an un-msync'd mapping) must reach stable storage before
    /// returning, regardless of any per-fence sync policy — a *host*
    /// crash after a seal may not lose the sealed state or anything
    /// ordered before it. Pure in-memory backends need no distinction.
    fn fence_seal(&self) {
        self.fence();
    }

    /// Charge `ns` to the device's virtual clock without touching data.
    fn charge_ns(&self, ns: u64);

    /// Cumulative access statistics (reads, writes, persist points,
    /// virtual nanoseconds).
    fn stats(&self) -> AccessStats;

    /// Account undo-log bytes for the write-amplification ledger.
    /// Backends without a ledger may ignore this.
    fn note_log_bytes(&self, _n: u64) {}

    /// Seal which corpus snapshot this pool now serves: record the
    /// fingerprint durably (the pool header for file-backed devices) so a
    /// reopen can tell a current pool from one superseded by an append.
    /// Zero means "never published".
    fn publish_snapshot(&self, fingerprint: u64) -> Result<()>;

    /// The last fingerprint sealed by
    /// [`publish_snapshot`](Self::publish_snapshot), or zero if none was.
    fn published_snapshot(&self) -> u64;

    /// Flush + fence over one range: the minimal durability unit.
    fn persist(&self, addr: Addr, len: usize) {
        self.flush(addr, len);
        self.fence();
    }

    /// Flush + [`fence_seal`](Self::fence_seal) over one range: persist a
    /// recovery-critical range with an unconditional stable-storage
    /// barrier.
    fn persist_seal(&self, addr: Addr, len: usize) {
        self.flush(addr, len);
        self.fence_seal();
    }

    /// Fallible `u64` load (little-endian).
    fn try_read_u64(&self, addr: Addr) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.try_read_bytes(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Fallible `u64` store (little-endian).
    fn try_write_u64(&self, addr: Addr, v: u64) -> Result<()> {
        self.try_write_bytes(addr, &v.to_le_bytes())
    }

    /// `u64` load; panics on out-of-bounds or media errors.
    fn read_u64(&self, addr: Addr) -> u64 {
        match self.try_read_u64(addr) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// `u64` store; panics on out-of-bounds or media errors (and with
    /// [`crate::CRASH_PANIC`] on an armed write trip).
    fn write_u64(&self, addr: Addr, v: u64) {
        if let Err(e) = self.try_write_u64(addr, v) {
            panic!("{e}");
        }
    }
}

/// The simulator is the reference backend: everything forwards to the
/// inherent methods, including the cache/cost model and stat counters.
impl PmemBackend for SimDevice {
    fn capacity(&self) -> u64 {
        SimDevice::capacity(self)
    }

    fn try_read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        SimDevice::try_read_bytes(self, addr, buf)
    }

    fn try_write_bytes(&self, addr: Addr, buf: &[u8]) -> Result<()> {
        SimDevice::try_write_bytes(self, addr, buf)
    }

    fn flush(&self, addr: Addr, len: usize) {
        SimDevice::flush(self, addr, len)
    }

    fn fence(&self) {
        SimDevice::fence(self)
    }

    fn fence_seal(&self) {
        SimDevice::fence_seal(self)
    }

    fn charge_ns(&self, ns: u64) {
        SimDevice::charge_ns(self, ns)
    }

    fn stats(&self) -> AccessStats {
        SimDevice::stats(self)
    }

    fn note_log_bytes(&self, n: u64) {
        SimDevice::note_log_bytes(self, n)
    }

    fn publish_snapshot(&self, fingerprint: u64) -> Result<()> {
        SimDevice::publish_snapshot(self, fingerprint);
        Ok(())
    }

    fn published_snapshot(&self) -> u64 {
        SimDevice::published_snapshot(self)
    }

    // The native read_u64/write_u64 go through the typed fast path and
    // charge identically, but route the trait's defaults through the
    // byte methods anyway so every backend shares one code path (the
    // sim's u64 helpers are themselves byte-method wrappers).
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::profile::DeviceProfile;

    fn dev() -> Arc<SimDevice> {
        Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20))
    }

    #[test]
    fn trait_object_roundtrips_bytes_and_u64() {
        let b: Arc<dyn PmemBackend> = dev();
        b.try_write_bytes(64, b"hello backend").unwrap();
        let mut buf = [0u8; 13];
        b.try_read_bytes(64, &mut buf).unwrap();
        assert_eq!(&buf, b"hello backend");
        b.write_u64(256, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(b.read_u64(256), 0xDEAD_BEEF_CAFE_F00D);
        b.persist(64, 13);
        assert!(b.stats().persist_points() > 0);
    }

    #[test]
    fn out_of_bounds_surfaces_through_the_trait() {
        let b: Arc<dyn PmemBackend> = dev();
        let cap = b.capacity();
        assert!(b.try_write_u64(cap, 1).is_err());
        assert!(b.try_read_u64(cap).is_err());
    }
}
