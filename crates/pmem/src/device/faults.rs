//! Fault injection: scheduled crashes, media faults and wear counting.
//!
//! None of this is on the path of a healthy run — an unarmed device pays
//! one `Option` test per store or persist point and one emptiness test of
//! the media-fault table per access.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use super::meter::with_sink;
use super::{Addr, Inner, SimDevice};
use crate::error::PmemError;
use crate::Result;

/// Panic message used for injected crash faults; harnesses match on it to
/// distinguish scheduled crashes from real bugs.
pub const CRASH_PANIC: &str = "injected device fault";

/// Retries a write spends on transient media faults (attempts beyond the
/// first) before giving up with [`PmemError::MediaError`].
const WRITE_RETRY_LIMIT: u32 = 3;

/// A media fault injected on a specific line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MediaFault {
    /// Reads covering the line fail until the line is successfully
    /// rewritten (re-programming repairs the cell).
    UncorrectableRead,
    /// The next `remaining` write attempts covering the line fail, then
    /// the line heals. Absorbed by the bounded retry budget when
    /// `remaining` is small enough.
    TransientWrite { remaining: u32 },
}

/// Count one operation against an armed trip; `true` (and disarmed) when
/// it is the one that fires.
fn trips(counter: &mut Option<u64>) -> bool {
    match counter {
        Some(0) => {
            *counter = None;
            true
        }
        Some(left) => {
            *left -= 1;
            false
        }
        None => false,
    }
}

/// The fault-injection half of the device's locked state.
pub(super) struct Faults {
    /// Panic once this many more write operations have been issued
    /// (`None` = disarmed). Tests catch the unwind, call
    /// [`SimDevice::crash`] and exercise recovery from an arbitrary
    /// mid-run point.
    trip_writes: Option<u64>,
    /// Panic when this many more flush/fence operations have been issued
    /// (`None` = disarmed).
    trip_persists: Option<u64>,
    /// Injected per-line media faults.
    media: HashMap<u64, MediaFault>,
    /// Per-line write counts (endurance analysis); `None` = not tracked.
    wear: Option<HashMap<u64, u64>>,
}

impl Faults {
    pub fn new() -> Self {
        Faults { trip_writes: None, trip_persists: None, media: HashMap::new(), wear: None }
    }

    /// Whether this store is the one an armed write trip fires on.
    #[inline]
    pub fn write_trips(&mut self) -> bool {
        trips(&mut self.trip_writes)
    }

    /// Whether this flush or fence is the one an armed persist trip fires
    /// on.
    #[inline]
    pub fn persist_trips(&mut self) -> bool {
        trips(&mut self.trip_persists)
    }

    /// Whether any media fault is injected.
    #[inline]
    pub fn any_media(&self) -> bool {
        !self.media.is_empty()
    }

    /// Count a store to lines `first..=last`, when wear is tracked.
    #[inline]
    pub fn note_wear(&mut self, first: u64, last: u64) {
        if let Some(wear) = self.wear.as_mut() {
            for line in first..=last {
                *wear.entry(line).or_insert(0) += 1;
            }
        }
    }
}

impl SimDevice {
    /// Keep the lock-free fault flag in sync with the fault table.
    fn sync_fault_flag(&self, faults: &Faults) {
        self.fault_lines.store(faults.media.len() as u64, Ordering::Relaxed);
    }

    /// Fail a read covering an uncorrectable line.
    pub(super) fn check_read_faults(&self, faults: &Faults, first: u64, last: u64) -> Result<()> {
        if !faults.any_media() {
            return Ok(());
        }
        for line in first..=last {
            if let Some(MediaFault::UncorrectableRead) = faults.media.get(&line) {
                return Err(PmemError::MediaError { addr: line << self.costs.line_shift });
            }
        }
        Ok(())
    }

    /// Retry transient write faults up to the bounded budget, charging each
    /// failed attempt to the virtual clock; exhaustion is a media error.
    pub(super) fn check_write_faults(
        &self,
        inner: &mut Inner,
        first: u64,
        last: u64,
    ) -> Result<()> {
        if !inner.faults.any_media() {
            return Ok(());
        }
        let mut attempts = 0u32;
        for line in first..=last {
            let mut retries_here = 0u64;
            let mut exhausted = false;
            let mut healed = false;
            if let Some(MediaFault::TransientWrite { remaining }) =
                inner.faults.media.get_mut(&line)
            {
                while *remaining > 0 && attempts < WRITE_RETRY_LIMIT {
                    *remaining -= 1;
                    attempts += 1;
                    retries_here += 1;
                }
                if *remaining > 0 {
                    exhausted = true;
                } else {
                    healed = true;
                }
            }
            if retries_here > 0 {
                inner.meter.stats.media_retries += retries_here;
                let ns = self.costs.write_back * retries_here;
                with_sink(|sink| match sink {
                    Some(sink) => sink.charge(ns),
                    None => inner.meter.stats.virtual_ns += ns,
                });
            }
            if exhausted {
                return Err(PmemError::MediaError { addr: line << self.costs.line_shift });
            }
            if healed {
                inner.faults.media.remove(&line);
            }
        }
        Ok(())
    }

    /// A successful overwrite of lines `first..=last` re-programmed the
    /// cells, healing any uncorrectable-read fault on them; transient
    /// faults may have healed in [`check_write_faults`]. Keeps the
    /// lock-free flag honest either way.
    ///
    /// [`check_write_faults`]: Self::check_write_faults
    pub(super) fn heal_written_lines(&self, faults: &mut Faults, first: u64, last: u64) {
        for line in first..=last {
            if let Some(MediaFault::UncorrectableRead) = faults.media.get(&line) {
                faults.media.remove(&line);
            }
        }
        self.sync_fault_flag(faults);
    }

    /// Arm fault injection: the device panics on the `n`-th write
    /// operation from now (test harnesses catch the unwind and exercise
    /// crash recovery from arbitrary mid-run points).
    pub fn trip_after_writes(&self, n: u64) {
        self.lock().faults.trip_writes = Some(n);
    }

    /// Arm fault injection on persistence points: the device panics on the
    /// `n`-th flush-or-fence operation from now. Sweeping `n` over every
    /// persist point a workload issues enumerates all its crash states
    /// (ALICE-style).
    pub fn trip_after_persists(&self, n: u64) {
        self.lock().faults.trip_persists = Some(n);
    }

    /// Disarm all armed crash trips and forget any interrupted store.
    pub fn clear_trip(&self) {
        let mut inner = self.lock();
        inner.faults.trip_writes = None;
        inner.faults.trip_persists = None;
        inner.durable.inflight_write = None;
    }

    /// Mark the line containing `addr` uncorrectable: reads covering it
    /// fail with [`PmemError::MediaError`] until it is successfully
    /// rewritten.
    pub fn inject_read_fault(&self, addr: Addr) {
        self.inject(addr, MediaFault::UncorrectableRead);
    }

    /// Make the next `failures` write attempts covering the line at `addr`
    /// fail before the line heals. Failures within the bounded retry
    /// budget are absorbed transparently (costing virtual time and
    /// [`AccessStats::media_retries`](crate::AccessStats::media_retries)).
    pub fn inject_transient_write_fault(&self, addr: Addr, failures: u32) {
        self.inject(addr, MediaFault::TransientWrite { remaining: failures });
    }

    fn inject(&self, addr: Addr, fault: MediaFault) {
        let mut inner = self.lock();
        inner.faults.media.insert(addr >> self.costs.line_shift, fault);
        self.sync_fault_flag(&inner.faults);
    }

    /// Remove every injected media fault.
    pub fn clear_faults(&self) {
        let mut inner = self.lock();
        inner.faults.media.clear();
        self.sync_fault_flag(&inner.faults);
    }

    /// Start counting per-line write operations (endurance analysis).
    pub fn enable_wear_tracking(&self) {
        self.lock().faults.wear.get_or_insert_with(HashMap::new);
    }

    /// `(hottest line write count, distinct lines written)` since wear
    /// tracking was enabled. Zeroes when tracking is off.
    pub fn wear_stats(&self) -> (u64, usize) {
        match &self.lock().faults.wear {
            Some(w) => (w.values().copied().max().unwrap_or(0), w.len()),
            None => (0, 0),
        }
    }

    /// The `n` hottest lines as `(line index, write count)`, hottest first
    /// (ties broken by line index for determinism). Empty when wear
    /// tracking is off.
    pub fn wear_top(&self, n: usize) -> Vec<(u64, u64)> {
        let inner = self.lock();
        match &inner.faults.wear {
            Some(w) => {
                let mut entries: Vec<(u64, u64)> = w.iter().map(|(&l, &c)| (l, c)).collect();
                entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                entries.truncate(n);
                entries
            }
            None => Vec::new(),
        }
    }
}
