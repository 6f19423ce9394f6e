//! The meter: what each access *costs*.
//!
//! Three parts, none of which touches a byte of data:
//!
//! * [`LineCosts`] — the profile's per-line charges and `log2(line size)`,
//!   worked out once when the device is built;
//! * [`Meter`] — the state behind the device's lock: the [`LineCache`]
//!   deciding hit or miss, the sequential-stream detectors and the
//!   [`AccessStats`] they charge;
//! * the lock-free side — [`DeferredCharges`] sinks for parallel regions
//!   ([`with_deferred_charges`]) and the device-wide [`SharedCounters`]
//!   they are merged into, which also take
//!   [`charge_ns`](super::SimDevice::charge_ns) without the lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cache::{AccessOutcome, LineCache};
use crate::profile::DeviceProfile;
use crate::stats::AccessStats;

/// A profile's charges per line, in virtual nanoseconds, and its line
/// geometry. Computed once per device: the profile's own accessors divide.
#[derive(Debug, Clone, Copy)]
pub(super) struct LineCosts {
    /// `log2(line size)`.
    pub line_shift: u32,
    pub hit: u64,
    pub read_miss: u64,
    pub read_seq: u64,
    pub write_back: u64,
    pub write_seq: u64,
    pub fence: u64,
}

impl LineCosts {
    /// # Panics
    /// Panics unless the profile's line size is a power of two (every
    /// preset's is, and pool headers are rejected otherwise).
    pub fn of(profile: &DeviceProfile) -> Self {
        assert!(
            profile.line_size.is_power_of_two(),
            "{}: line size {} is not a power of two",
            profile.name,
            profile.line_size
        );
        LineCosts {
            line_shift: profile.line_size.trailing_zeros(),
            hit: profile.hit_ns,
            read_miss: profile.read_miss_ns(),
            read_seq: profile.read_seq_ns(),
            write_back: profile.write_back_ns(),
            write_seq: profile.write_seq_ns(),
            fence: profile.fence_ns,
        }
    }

    /// Streaming (non-temporal) cost of reading `nlines` consecutive lines:
    /// the first at full latency, the rest at bandwidth.
    pub fn stream_read(&self, nlines: u64) -> u64 {
        self.read_miss + (nlines - 1) * self.read_seq
    }

    /// Streaming cost of writing `nlines` consecutive lines.
    pub fn stream_write(&self, nlines: u64) -> u64 {
        self.write_back + (nlines - 1) * self.write_seq
    }
}

/// Marks "no line yet" in the stream detectors: never one below a line.
const NO_LINE: u64 = u64::MAX - 1;

/// The locked half of the cost model. See the module docs.
pub(super) struct Meter {
    costs: LineCosts,
    pub cache: LineCache,
    pub stats: AccessStats,
    /// Last line fetched from media (sequential-access detection: the next
    /// line streams at bandwidth instead of paying full access latency —
    /// prefetchers, NVM read-ahead buffers, and HDD head position all
    /// behave this way).
    last_miss_line: u64,
    /// Last line written back (same detection for the write path).
    last_wb_line: u64,
}

impl Meter {
    pub fn new(profile: &DeviceProfile, costs: LineCosts) -> Self {
        Meter {
            costs,
            cache: LineCache::new(profile.cache_bytes, profile.line_size, profile.cache_ways),
            stats: AccessStats::default(),
            last_miss_line: NO_LINE,
            last_wb_line: NO_LINE,
        }
    }

    /// Start again from a cold cache (after a crash).
    pub fn reset_cache(&mut self, profile: &DeviceProfile) {
        self.cache = LineCache::new(profile.cache_bytes, profile.line_size, profile.cache_ways);
    }

    /// Reset cache residency after lock poisoning: flush every dirty line
    /// (charging the write-backs that eviction would have produced) and
    /// start from a cold cache whose entries are all known-good.
    pub fn heal(&mut self, profile: &DeviceProfile) {
        self.stats.write_backs += self.cache.flush_all();
        self.reset_cache(profile);
        self.last_miss_line = NO_LINE;
        self.last_wb_line = NO_LINE;
    }

    /// Charge one write-back of `line`, at bandwidth when it continues the
    /// write stream.
    #[inline]
    fn write_back(&mut self, line: u64) {
        self.stats.write_backs += 1;
        self.stats.virtual_ns += if line == self.last_wb_line.wrapping_add(1) {
            self.costs.write_seq
        } else {
            self.costs.write_back
        };
        self.last_wb_line = line;
    }

    /// Walk lines `first..=last` through the cache, charging each a hit or
    /// a miss (and the write-back of a dirty victim).
    #[inline]
    pub fn touch(&mut self, first: u64, last: u64, write: bool) {
        for line in first..=last {
            match self.cache.access(line, write) {
                AccessOutcome::Hit => {
                    self.stats.line_hits += 1;
                    self.stats.virtual_ns += self.costs.hit;
                }
                AccessOutcome::Miss { evicted_dirty } => {
                    self.stats.line_misses += 1;
                    // Sequential streaming pays bandwidth, not latency.
                    self.stats.virtual_ns += if line == self.last_miss_line.wrapping_add(1) {
                        self.costs.read_seq
                    } else {
                        self.costs.read_miss
                    };
                    self.last_miss_line = line;
                    if let Some(victim) = evicted_dirty {
                        // Write-back of the evicted victim costs media time
                        // but does NOT make the victim durable (no ordering
                        // guarantee without an explicit flush + fence).
                        self.write_back(victim);
                    }
                }
            }
        }
    }

    /// A parallel-region access of `nlines` lines under the streaming
    /// (non-temporal) cost model: the first line pays full latency, the
    /// rest of the access streams at bandwidth, and the line cache is
    /// bypassed entirely. Cost and cache state therefore do not depend on
    /// how worker threads interleave. The time goes to the thread's `sink`.
    pub fn touch_streaming(&mut self, sink: &DeferredCharges, nlines: u64, write: bool) {
        if write {
            self.stats.write_backs += nlines;
            sink.charge(self.costs.stream_write(nlines));
        } else {
            self.stats.line_misses += nlines;
            sink.charge(self.costs.stream_read(nlines));
        }
    }

    /// Flush lines `first..=last`: write back the dirty ones.
    pub fn flush(&mut self, first: u64, last: u64) {
        self.stats.flushes += 1;
        for line in first..=last {
            if self.cache.flush_line(line) {
                self.write_back(line);
            }
        }
    }

    /// Charge one persistence fence.
    pub fn fence(&mut self) {
        self.stats.fences += 1;
        self.stats.virtual_ns += self.costs.fence;
    }
}

thread_local! {
    /// When set, virtual-time charges and read counters from this thread
    /// are routed to the pointed-at sink instead of the device's global
    /// state (see [`with_deferred_charges`]).
    static DEFERRED_SINK: Cell<*const DeferredCharges> = const { Cell::new(std::ptr::null()) };
}

/// Per-item accounting sink for a deferred (parallel) region: the item's
/// virtual-time cost plus its read counters.
///
/// A parallel runner allocates one sink per work item (see
/// [`crate::par::par_map_timed`]). Because each sink is private to its
/// item, the read hot path performs no shared-memory writes at all — the
/// counters reach the device's totals only when the runner merges them at
/// the batch barrier via
/// [`SimDevice::absorb_deferred`](super::SimDevice::absorb_deferred),
/// which is exactly the virtual-clock join point. Stats snapshots taken at
/// span boundaries therefore see every read the span issued.
///
/// A sink has one writer at a time: only the thread that installed it
/// ([`with_deferred_charges`]) charges it, so its counters are bumped with
/// a plain load and store, not a locked read-modify-write. Installing one
/// sink on two threads at once would lose counts, and panics instead;
/// installing it again once the first installation has returned — on any
/// thread, as a cache builder's second pass after its barrier does — is
/// how a sink is meant to be resumed.
///
/// Sinks sit side by side in a runner's vector and are bumped on every
/// read, so each is padded to a cache-line pair of its own: two workers
/// on neighbouring items would otherwise share a line and bounce it
/// between cores.
#[repr(align(128))]
#[derive(Default)]
pub struct DeferredCharges {
    /// Set while some thread has the sink installed.
    installed: AtomicBool,
    ns: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    line_misses: AtomicU64,
    retries: AtomicU64,
}

impl DeferredCharges {
    /// A zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured virtual-time cost of this item.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Reads captured.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Line fetches captured.
    pub fn line_misses(&self) -> u64 {
        self.line_misses.load(Ordering::Relaxed)
    }

    /// The read counters captured.
    fn read_totals(&self) -> DeferredReads {
        DeferredReads {
            reads: self.reads(),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            line_misses: self.line_misses(),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// Add everything `item` captured — its cost and its read, byte,
    /// line-fetch and retry counters — to this sink, as if this sink's
    /// thread had issued those accesses itself. Call it from the thread
    /// that has this sink installed (or while no thread has), once `item`
    /// is no longer installed anywhere: the runner that made `item` reads
    /// it on the caller after joining the worker that wrote it.
    pub fn absorb(&self, item: &DeferredCharges) {
        bump(&self.ns, item.ns());
        let r = item.read_totals();
        bump(&self.reads, r.reads);
        bump(&self.bytes_read, r.bytes_read);
        bump(&self.line_misses, r.line_misses);
        bump(&self.retries, r.retries);
    }

    /// Add `ns` to the item's cost.
    pub(super) fn charge(&self, ns: u64) {
        bump(&self.ns, ns);
    }

    /// Record one read of `len` bytes covering `nlines` lines that took
    /// `retries` optimistic retries.
    pub(super) fn note_read(&self, nlines: u64, len: u64, retries: u64) {
        bump(&self.reads, 1);
        bump(&self.bytes_read, len);
        bump(&self.line_misses, nlines);
        bump(&self.retries, retries);
    }
}

/// Add `n` to a counter of a [`DeferredCharges`] sink, whose one writer is
/// the thread that has it installed.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Run `f` with every virtual-time charge issued by *this thread* routed
/// into `sink` instead of the global device clock.
///
/// This is the device half of the deterministic parallel-time model: a
/// parallel runner executes each work item inside `with_deferred_charges`
/// so the item's cost is captured independently of scheduling, then joins
/// the per-item costs into one clock advance at the barrier (the makespan
/// over a fixed number of virtual lanes — see [`crate::par`]). While a
/// sink is installed, accesses are charged under a *streaming* cost model
/// (first line at full latency, subsequent lines of the same access at
/// sequential bandwidth) and bypass the line cache, like non-temporal
/// loads/stores; this keeps both the cost and the cache state independent
/// of thread interleaving, so the reported virtual time is identical for
/// any worker count.
///
/// # Panics
/// Panics if `sink` is installed already, on this thread or another: a
/// sink has one writer at a time (see [`DeferredCharges`]).
pub fn with_deferred_charges<R>(sink: &DeferredCharges, f: impl FnOnce() -> R) -> R {
    struct Restore<'a> {
        prev: *const DeferredCharges,
        sink: &'a DeferredCharges,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            DEFERRED_SINK.with(|c| c.set(self.prev));
            self.sink.installed.store(false, Ordering::Release);
        }
    }
    assert!(
        !sink.installed.swap(true, Ordering::Acquire),
        "a deferred-charge sink is installed twice at once"
    );
    let prev = DEFERRED_SINK.with(|c| c.replace(sink as *const DeferredCharges));
    let _restore = Restore { prev, sink };
    f()
}

/// Run `f` on this thread's deferred sink, if it is inside a
/// [`with_deferred_charges`] region.
#[inline]
pub(crate) fn with_sink<R>(f: impl FnOnce(Option<&DeferredCharges>) -> R) -> R {
    DEFERRED_SINK.with(|c| {
        let p = c.get();
        // SAFETY: a non-null pointer was installed by
        // `with_deferred_charges`, whose sink reference outlives the
        // closure it runs (and therefore this call); its guard restores
        // the previous value on exit and on unwind.
        f(unsafe { p.as_ref() })
    })
}

/// Totals of the reads served by the deferred path
/// ([`SimDevice::deferred_reads`](super::SimDevice::deferred_reads)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeferredReads {
    /// Read operations.
    pub reads: u64,
    /// Bytes read by those operations.
    pub bytes_read: u64,
    /// Line fetches: every line an operation covers.
    pub line_misses: u64,
    /// Optimistic-read retries caused by a concurrent writer.
    pub retries: u64,
}

/// The device-wide counters that are updated without the state lock and
/// summed into every [`AccessStats`] snapshot: totals for reads served by
/// the deferred path (merged in from per-item [`DeferredCharges`] sinks at
/// batch barriers), model time charged by higher layers, and undo-log
/// traffic.
#[derive(Default)]
pub(super) struct SharedCounters {
    reads: AtomicU64,
    bytes_read: AtomicU64,
    line_misses: AtomicU64,
    retries: AtomicU64,
    charged_ns: AtomicU64,
    log_bytes: AtomicU64,
}

impl SharedCounters {
    /// Charge model time that no access accounts for.
    pub fn charge_ns(&self, ns: u64) {
        self.charged_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Account undo-log traffic.
    pub fn note_log_bytes(&self, n: u64) {
        self.log_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Add these counters into a snapshot of the locked stats (they are
    /// summed in, never drained).
    pub fn add_to(&self, stats: &mut AccessStats) {
        let r = self.deferred_reads();
        stats.reads += r.reads;
        stats.bytes_read += r.bytes_read;
        stats.line_misses += r.line_misses;
        stats.virtual_ns += self.charged_ns.load(Ordering::Relaxed);
        stats.log_bytes += self.log_bytes.load(Ordering::Relaxed);
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for c in [
            &self.reads,
            &self.bytes_read,
            &self.line_misses,
            &self.retries,
            &self.charged_ns,
            &self.log_bytes,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Merge one item's deferred read counters into the totals.
    pub fn absorb(&self, c: &DeferredCharges) {
        let r = c.read_totals();
        self.reads.fetch_add(r.reads, Ordering::Relaxed);
        self.bytes_read.fetch_add(r.bytes_read, Ordering::Relaxed);
        self.line_misses.fetch_add(r.line_misses, Ordering::Relaxed);
        self.retries.fetch_add(r.retries, Ordering::Relaxed);
    }

    /// Totals for reads served by the deferred path.
    pub fn deferred_reads(&self) -> DeferredReads {
        DeferredReads {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            line_misses: self.line_misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;

    /// Every counter of a sink.
    fn counters(c: &DeferredCharges) -> (u64, DeferredReads) {
        (c.ns(), c.read_totals())
    }

    /// Three reads of `64 × n` bytes at spread addresses, and some model
    /// time.
    fn work(dev: &SimDevice, from: u64, n: usize) {
        let mut buf = vec![0u8; 64 * n];
        for k in from..from + 3 {
            dev.read_bytes(k * 4160, &mut buf);
            dev.charge_ns(k);
        }
    }

    /// Absorbing two items' sinks, each filled on a thread of its own,
    /// gives the counts of one sink that saw both items' accesses.
    #[test]
    fn absorbing_item_sinks_adds_every_counter() {
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
        let both = DeferredCharges::new();
        with_deferred_charges(&both, || {
            work(&dev, 0, 3);
            work(&dev, 7, 18);
        });
        let items = [DeferredCharges::new(), DeferredCharges::new()];
        std::thread::scope(|s| {
            s.spawn(|| with_deferred_charges(&items[0], || work(&dev, 0, 3)));
            s.spawn(|| with_deferred_charges(&items[1], || work(&dev, 7, 18)));
        });
        let caller = DeferredCharges::new();
        with_deferred_charges(&caller, || items.iter().for_each(|c| caller.absorb(c)));
        assert_eq!(counters(&caller), counters(&both));
        assert!(caller.ns() > 0 && caller.reads() == 6 && caller.line_misses() > 6);
        // The items are left as they were.
        assert_eq!(items[0].reads(), 3);
    }
}
