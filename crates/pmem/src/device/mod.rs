//! The simulated device: backing store + front cache + cost accounting +
//! durability model.
//!
//! Data always lives in the device's own store so reads return real bytes;
//! the [`LineCache`](crate::cache::LineCache) decides what each access
//! *costs* and which lines are dirty. Durability is conservative: a store
//! becomes crash-safe only once the covering line has been explicitly
//! flushed and a fence has been issued, mirroring how persistent-memory
//! programming actually works (`clwb`/`sfence`).
//!
//! # Module map
//!
//! [`SimDevice`] is one type whose methods are grouped by what they touch:
//!
//! * `plane` — the bytes: `AtomicU64` words behind a per-shard seqlock,
//!   outside the state lock;
//! * `meter` — the cost of an access: per-line charges, the line cache,
//!   the stream detectors and the counters, locked and lock-free;
//! * `durability` — pre-images of undurable lines, `flush`/`fence`, crash
//!   resolution and the [`DeviceMirror`] hooks;
//! * `faults` — scheduled crashes, media faults, wear counting;
//! * this file — the device itself and the access path that drives the
//!   other four in order, one access at a time or, through a [`Reads`]
//!   handle ([`SimDevice::with_reads`]), several under one lock.
//!
//! # Crash models
//!
//! The device supports two failure semantics:
//!
//! * [`SimDevice::crash`] rewinds: every line whose latest flush has not
//!   yet been fenced reverts to its last durable contents — deterministic
//!   and pessimistic.
//! * [`SimDevice::crash_torn`] tears (the recovery tests' model): lines
//!   that were flushed but not yet fenced *independently* survive or
//!   revert under a seeded RNG, and the store that was in flight when the
//!   crash fired is torn at 8-byte granularity — an arbitrary subset of
//!   its 8-byte words reaches media. This is the adversarial regime real
//!   NVM provides: at most 8-byte atomicity, no ordering between unfenced
//!   lines (ALICE / PMDK assumptions).
//!
//! # Media faults
//!
//! Individual lines can be marked faulty: uncorrectable on read (until
//! rewritten, as re-programming the cell repairs it) or transiently failing
//! on write. Writes retry transient faults up to a bounded budget, charging
//! the virtual clock per attempt; exhaustion and uncorrectable reads
//! surface as [`PmemError::MediaError`] through the `try_*` entry points.

mod durability;
mod faults;
mod meter;
mod plane;
mod reads;
#[cfg(test)]
mod tests;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::PmemError;
use crate::pod::Pod;
use crate::profile::DeviceProfile;
use crate::stats::AccessStats;
use crate::Result;

pub use durability::DeviceMirror;
pub use faults::CRASH_PANIC;
pub use meter::{with_deferred_charges, DeferredCharges, DeferredReads};
pub use reads::Reads;

use durability::Durability;
use faults::Faults;
pub(crate) use meter::with_sink;
use meter::{LineCosts, Meter, SharedCounters};
use plane::DataPlane;
use reads::Via;

/// Byte offset on a device.
pub type Addr = u64;

/// Everything behind the state lock.
struct Inner {
    meter: Meter,
    durable: Durability,
    faults: Faults,
}

/// A simulated storage device. See the module docs for the model.
///
/// All methods take `&self`; the mutable state sits behind an `RwLock`
/// (taken exclusively by everything that moves the cost model, shared by
/// snapshots) and the bytes outside it, so the device is `Send + Sync` and
/// can be shared between pools, engines, persistence helpers, and worker
/// threads. Injected crash panics release the lock before unwinding, and
/// the lock recovers from poisoning (a panicking test thread must not wedge
/// the device for the harness that catches the unwind).
pub struct SimDevice {
    profile: DeviceProfile,
    /// The profile's per-line charges and line geometry.
    costs: LineCosts,
    inner: RwLock<Inner>,
    /// The byte store + per-shard seqlock versions; deferred readers copy
    /// from here without touching the state lock.
    plane: DataPlane,
    /// Counters updated without the state lock and summed into
    /// [`AccessStats`] on every [`stats`](Self::stats) snapshot.
    shared: SharedCounters,
    /// Number of lines with an injected media fault; lets the lock-free
    /// read path skip the fault table when it is empty (the common case).
    fault_lines: AtomicU64,
    /// Times a poisoned state lock was healed (cache residency reset).
    poison_heals: AtomicU64,
    /// Last corpus-snapshot fingerprint published to this device
    /// ([`SimDevice::publish_snapshot`]); zero until one is. Metadata for
    /// the serve layer, outside the cost model.
    published: AtomicU64,
    /// Durable-image observer (the file-backed backend). Set at most once,
    /// only for persistent profiles; hooks other than `on_publish` fire
    /// under the state lock.
    mirror: OnceLock<Arc<dyn DeviceMirror>>,
}

impl SimDevice {
    /// Create a device of `capacity` bytes, zero-initialised (and durable
    /// as zeroes).
    ///
    /// # Panics
    /// Panics when the profile's line size is not a power of two, and when
    /// the device would hold `2^32` lines or more (the line cache tags
    /// lines with a `u32`; the largest pool, 2^35 bytes in 64-byte lines,
    /// has 2^29).
    pub fn new(profile: DeviceProfile, capacity: usize) -> Self {
        let costs = LineCosts::of(&profile);
        assert!(
            (capacity as u64) >> costs.line_shift <= u32::MAX as u64,
            "{}: {capacity} bytes is 2^32 lines or more",
            profile.name
        );
        SimDevice {
            plane: DataPlane::new(capacity, costs.line_shift),
            shared: SharedCounters::default(),
            fault_lines: AtomicU64::new(0),
            poison_heals: AtomicU64::new(0),
            published: AtomicU64::new(0),
            mirror: OnceLock::new(),
            inner: RwLock::new(Inner {
                meter: Meter::new(&profile, costs),
                durable: Durability::new(capacity, profile.line_size),
                faults: Faults::new(),
            }),
            costs,
            profile,
        }
    }

    /// Acquire the state lock exclusively, healing poisoning: an injected
    /// crash panic that unwound through a caller must leave the device
    /// usable for the recovery path that catches the unwind. A panicking
    /// thread may have died mid-update of the line cache, so the cache's
    /// residency cannot be trusted after poisoning — it is discarded and
    /// rebuilt cold (dirty lines are charged as write-backs first, so no
    /// writeback accounting is lost), rather than resurrecting a
    /// half-written entry.
    fn lock(&self) -> RwLockWriteGuard<'_, Inner> {
        self.assert_not_holding();
        match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut inner = poisoned.into_inner();
                self.inner.clear_poison();
                inner.meter.heal(&self.profile);
                self.poison_heals.fetch_add(1, Ordering::Relaxed);
                inner
            }
        }
    }

    /// Acquire the state lock shared, healing poisoning first (healing
    /// needs the exclusive guard). Used by fault-path deferred reads,
    /// which never mutate device state.
    fn read_lock(&self) -> RwLockReadGuard<'_, Inner> {
        self.assert_not_holding();
        loop {
            let acquired = self.inner.read();
            match acquired {
                Ok(g) => return g,
                Err(poisoned) => {
                    // The error wraps a live *shared* guard; release it
                    // before taking the exclusive lock to heal, or this
                    // thread deadlocks against itself.
                    drop(poisoned);
                    drop(self.lock());
                }
            }
        }
    }

    /// The cost profile this device was built with.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.plane.len() as u64
    }

    /// Attach a durable-image mirror (see [`DeviceMirror`]). At most one
    /// mirror can ever be attached, and only to a persistent profile — a
    /// volatile device has no durable image to observe.
    ///
    /// # Panics
    /// Panics on a volatile profile or when a mirror is already attached.
    pub fn attach_mirror(&self, mirror: Arc<dyn DeviceMirror>) {
        assert!(
            self.profile.kind.is_persistent(),
            "cannot mirror a volatile device: {} has no durable image",
            self.profile.name
        );
        assert!(self.mirror.set(mirror).is_ok(), "a device mirror is already attached");
    }

    /// Record which corpus-snapshot fingerprint this device now serves.
    /// Pure metadata: no bytes move and no virtual time is charged. An
    /// attached mirror is told first ([`DeviceMirror::on_publish`]): a
    /// pool file seals the fingerprint into its header.
    pub fn publish_snapshot(&self, fingerprint: u64) {
        if let Some(mirror) = self.mirror.get() {
            mirror.on_publish(fingerprint);
        }
        self.published.store(fingerprint, Ordering::Release);
    }

    /// The last fingerprint recorded by
    /// [`publish_snapshot`](Self::publish_snapshot); zero if none was.
    pub fn published_snapshot(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Snapshot of the accumulated counters: the locked-path stats plus
    /// the lock-free ones (deferred read totals, charged model time,
    /// undo-log bytes). Those are summed in (never drained), so any
    /// snapshot taken after an [`absorb_deferred`](Self::absorb_deferred)
    /// barrier — e.g. at span close — already attributes those reads to
    /// the issuing span.
    pub fn stats(&self) -> AccessStats {
        let mut stats = self.read_lock().meter.stats;
        self.shared.add_to(&mut stats);
        stats
    }

    /// Reset the counters (not the contents).
    pub fn reset_stats(&self) {
        let mut inner = self.lock();
        inner.meter.stats = AccessStats::default();
        self.shared.reset();
    }

    /// Merge per-item deferred read counters into the device's totals.
    /// Parallel runners call this once per batch, at the virtual-clock
    /// join — the single point where the deferred read path touches shared
    /// state — so a [`stats`](Self::stats) snapshot taken at a batch or
    /// span boundary sees every read the batch issued.
    pub fn absorb_deferred(&self, charges: &[DeferredCharges]) {
        for c in charges {
            self.shared.absorb(c);
        }
    }

    /// Totals for reads served by the deferred path, absorbed so far —
    /// optimistic-read retries (a writer was mid-mutation while a
    /// lock-free reader copied) included.
    pub fn deferred_reads(&self) -> DeferredReads {
        self.shared.deferred_reads()
    }

    /// Times the state lock was healed after poisoning.
    pub fn poison_heals(&self) -> u64 {
        self.poison_heals.load(Ordering::Relaxed)
    }

    /// Charge extra model time, e.g. CPU work modeled by higher layers.
    /// Inside a [`with_deferred_charges`] region the time lands in the
    /// thread's sink instead of the global clock. Never takes the state
    /// lock.
    pub fn charge_ns(&self, ns: u64) {
        with_sink(|sink| match sink {
            Some(sink) => sink.charge(ns),
            None => self.shared.charge_ns(ns),
        });
    }

    /// Account undo-log traffic (used by [`crate::TxLog`]).
    pub(crate) fn note_log_bytes(&self, n: u64) {
        self.shared.note_log_bytes(n);
    }

    /// First and last line covered by `[addr, addr+len)`, `len > 0`.
    #[inline]
    fn lines_of(&self, addr: Addr, len: usize) -> (u64, u64) {
        let shift = self.costs.line_shift;
        (addr >> shift, (addr + len as u64 - 1) >> shift)
    }

    /// Validate that `[addr, addr+len)` lies inside the device.
    #[inline]
    fn check_bounds(&self, addr: Addr, len: usize) -> Result<()> {
        let capacity = self.plane.len() as u64;
        match addr.checked_add(len as u64) {
            Some(end) if end <= capacity => Ok(()),
            _ => Err(PmemError::OutOfBounds { addr, len, capacity }),
        }
    }

    /// Fallible read of `buf.len()` bytes starting at `addr`. Returns
    /// [`PmemError::OutOfBounds`] past the end of the device and
    /// [`PmemError::MediaError`] when an uncorrectable line is covered.
    pub fn try_read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        // Checked before the lock is taken: a failed read never waits.
        self.check_bounds(addr, buf.len())?;
        with_sink(|sink| match sink {
            Some(sink) => self.read_checked(Via::Sink(sink), addr, buf.len(), Some(buf)),
            None => self.read_checked(Via::Lock(&mut self.lock()), addr, buf.len(), Some(buf)),
        })
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-bounds accesses and uncorrectable media errors;
    /// use [`try_read_bytes`](Self::try_read_bytes) to handle those.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        if let Err(e) = self.try_read_bytes(addr, buf) {
            panic!("{e}");
        }
    }

    /// Fallible write of `buf` starting at `addr`. Transient write faults
    /// are retried up to the bounded budget (each attempt charged to the
    /// virtual clock); exhaustion returns [`PmemError::MediaError`].
    ///
    /// # Panics
    /// Panics with [`CRASH_PANIC`] when an armed
    /// [`trip_after_writes`](Self::trip_after_writes) counter expires —
    /// injected crashes model power failures, which do not return.
    pub fn try_write_bytes(&self, addr: Addr, buf: &[u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut guard = self.lock();
        self.check_bounds(addr, buf.len())?;
        if guard.faults.write_trips() {
            // Remember the interrupted store so a torn crash can
            // partially apply it at 8-byte granularity.
            guard.durable.inflight_write = Some((addr, buf.to_vec()));
            drop(guard);
            panic!("{}", CRASH_PANIC);
        }
        let inner = &mut *guard;
        let (first, last) = self.lines_of(addr, buf.len());
        self.check_write_faults(inner, first, last)?;
        inner.faults.note_wear(first, last);
        // Pre-images of newly dirtied durable lines, then the cost.
        inner.durable.pre.capture(&self.plane, first, last);
        with_sink(|sink| match sink {
            Some(sink) => inner.meter.touch_streaming(sink, last - first + 1, true),
            None => inner.meter.touch(first, last, true),
        });
        inner.meter.stats.writes += 1;
        inner.meter.stats.bytes_written += buf.len() as u64;
        self.plane.write(addr as usize, buf);
        if self.fault_lines.load(Ordering::Relaxed) != 0 {
            self.heal_written_lines(&mut inner.faults, first, last);
        }
        Ok(())
    }

    /// Write `buf` starting at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-bounds accesses and media errors that survive the
    /// retry budget (use [`try_write_bytes`](Self::try_write_bytes) to
    /// handle those), and with [`CRASH_PANIC`] when an armed
    /// [`trip_after_writes`](Self::trip_after_writes) counter expires.
    pub fn write_bytes(&self, addr: Addr, buf: &[u8]) {
        if let Err(e) = self.try_write_bytes(addr, buf) {
            panic!("{e}");
        }
    }

    /// Typed load.
    #[inline]
    pub fn read_pod<T: Pod>(&self, addr: Addr) -> T {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.read_bytes(addr, buf);
        T::load(buf)
    }

    /// Fallible typed load (see [`try_read_bytes`](Self::try_read_bytes)).
    #[inline]
    pub fn try_read_pod<T: Pod>(&self, addr: Addr) -> Result<T> {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.try_read_bytes(addr, buf)?;
        Ok(T::load(buf))
    }

    /// Typed store.
    #[inline]
    pub fn write_pod<T: Pod>(&self, addr: Addr, value: T) {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        value.store(buf);
        self.write_bytes(addr, buf);
    }

    /// Fallible typed store (see [`try_write_bytes`](Self::try_write_bytes)).
    #[inline]
    pub fn try_write_pod<T: Pod>(&self, addr: Addr, value: T) -> Result<()> {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        value.store(buf);
        self.try_write_bytes(addr, buf)
    }

    /// Load a `u32` (the workhorse of the DAG pool).
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        self.read_pod(addr)
    }

    /// Store a `u32`.
    #[inline]
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write_pod(addr, v)
    }

    /// Load a `u64`.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.read_pod(addr)
    }

    /// Store a `u64`.
    #[inline]
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.write_pod(addr, v)
    }

    /// Fallible `u64` load.
    #[inline]
    pub fn try_read_u64(&self, addr: Addr) -> Result<u64> {
        self.try_read_pod(addr)
    }

    /// Fallible `u64` store.
    #[inline]
    pub fn try_write_u64(&self, addr: Addr, v: u64) -> Result<()> {
        self.try_write_pod(addr, v)
    }

    /// Bulk load of `out.len()` `u32`s; charges one access spanning the
    /// whole range, so sequential layouts are rewarded exactly as on real
    /// hardware.
    pub fn read_u32_slice(&self, addr: Addr, out: &mut [u32]) {
        if out.is_empty() {
            return;
        }
        let mut bytes = vec![0u8; out.len() * 4];
        self.read_bytes(addr, &mut bytes);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            out[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
    }

    /// Bulk store of `vals`.
    pub fn write_u32_slice(&self, addr: Addr, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        let mut bytes = Vec::with_capacity(vals.len() * 4);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(addr, &bytes);
    }

    /// Test/debug read that bypasses the cost model entirely.
    ///
    /// # Panics
    /// Panics on an out-of-bounds range — under the state lock, as any
    /// failed access would, so the next acquisition heals the poisoning.
    pub fn peek(&self, addr: Addr, len: usize) -> Vec<u8> {
        let _inner = self.lock();
        if let Err(e) = self.check_bounds(addr, len) {
            panic!("{e}");
        }
        self.plane.snapshot(addr as usize, len)
    }

    /// Test/debug write that bypasses the cost model and durability
    /// tracking (the written data is considered durable).
    ///
    /// # Panics
    /// Panics on an out-of-bounds range.
    pub fn poke(&self, addr: Addr, bytes: &[u8]) {
        let _inner = self.lock();
        if let Err(e) = self.check_bounds(addr, bytes.len()) {
            panic!("{e}");
        }
        self.plane.write(addr as usize, bytes);
        if let Some(mirror) = self.mirror.get() {
            mirror.on_poke(addr, bytes);
        }
    }
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("profile", &self.profile.name)
            .field("capacity", &self.plane.len())
            .field("stats", &self.stats())
            .finish()
    }
}
