//! Durability state: which bytes would survive a power failure.
//!
//! A store becomes crash-safe only once the covering line has been flushed
//! and a fence has been issued. Until then the device keeps the line's
//! *pre-image* — its contents at the last durable point — in
//! [`PreImages`], a dense `line → slot` table over one byte arena that
//! holds only the pre-images with a non-zero byte, and a crash puts the
//! pre-images back (all of them on [`SimDevice::crash`], a
//! seeded subset on [`SimDevice::crash_torn`]). A
//! [`DeviceMirror`] is told at each of the events that change the durable
//! image.

use std::collections::HashSet;

use super::plane::DataPlane;
use super::{Addr, SimDevice};
use crate::faultsim::{torn_line_survives, torn_word_survives, Prng};

/// Crash semantics: [`SimDevice::crash`] rewinds, [`SimDevice::crash_torn`]
/// tears. See the module docs of [`crate::device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashMode {
    /// Deterministic: every unfenced line reverts to its durable image.
    Rewind,
    /// Adversarial: flushed-but-unfenced lines independently survive or
    /// revert (seeded), and the in-flight store is torn at 8-byte
    /// granularity.
    Torn {
        /// RNG seed deciding which lines/words survive.
        seed: u64,
    },
}

/// Observer of the device's *durable image*: the bytes that would survive
/// a power failure right now. A mirror attached via
/// [`SimDevice::attach_mirror`] is invoked at exactly the three events
/// where the durable image changes, with the post-event contents of every
/// affected line, and when a snapshot is published:
///
/// * [`on_fence`](DeviceMirror::on_fence) — a persistence fence landed;
///   the flushed-pending lines' *current* contents became durable,
/// * [`on_crash`](DeviceMirror::on_crash) — a (simulated) power failure
///   resolved every undurable line to its crash outcome, including torn
///   8-byte words of an interrupted store,
/// * [`on_poke`](DeviceMirror::on_poke) — a debug store made `bytes`
///   durable directly,
/// * [`on_publish`](DeviceMirror::on_publish) — a snapshot fingerprint
///   was published ([`SimDevice::publish_snapshot`]); no line changes.
///
/// Flushes need no hook: a flush without a fence changes nothing durable
/// (its effect surfaces either at the fence or in the crash outcome).
/// Hooks (all but `on_publish`) run while the device's state lock is
/// held, so implementations must not call back into the device; the
/// file-backed backend only writes the reported lines through to its pool
/// file, which is what keeps the on-disk bytes equal to the durable image
/// at every instant — including after a crash genuinely tore them.
pub trait DeviceMirror: Send + Sync {
    /// `lines` just became durable with the given contents (one entry per
    /// distinct media line, ascending line index).
    fn on_fence(&self, lines: &[(u64, Vec<u8>)]);
    /// A *seal* fence landed ([`SimDevice::fence_seal`]): recovery-critical
    /// bytes (a TxLog commit record, a header seal) just became durable,
    /// and the caller acknowledges the operation the moment this returns.
    /// Mirrors that buffer writes in a volatile tier (an OS page cache, an
    /// un-msync'd mapping) must push **everything written so far** to
    /// stable storage before returning — a host crash after this hook may
    /// not lose any of it. Called even when `lines` is empty: the sync
    /// barrier applies to previously fenced-but-unsynced writes too.
    /// Default: indistinguishable from a plain fence.
    fn on_seal(&self, lines: &[(u64, Vec<u8>)]) {
        self.on_fence(lines);
    }
    /// A crash resolved; `lines` hold the post-crash durable contents of
    /// every line the crash touched (ascending line index).
    fn on_crash(&self, lines: &[(u64, Vec<u8>)]);
    /// A debug poke made `bytes` durable at `addr`.
    fn on_poke(&self, addr: Addr, bytes: &[u8]);
    /// `fingerprint` was published. Mirrors that keep it on stable
    /// storage (a pool file's header) seal and sync it before returning.
    /// Default: nothing to keep.
    fn on_publish(&self, _fingerprint: u64) {}
}

/// Pre-images of the lines modified since they were last made durable.
///
/// `slot_of[line]` is the line's slot plus one, or zero while the line is
/// durable. `owner[s]` holds the slot's line in its low 32 bits
/// ([`FREE`] once the slot is freed) and, in its high 32 bits, the slot's
/// line of `arena` plus one, or zero while the slot has none. A slot gets
/// an arena line the first time it captures a line holding a non-zero
/// byte and keeps it while it is free and reused; an all-zero pre-image
/// needs none, so a slot without one restores [`ZERO_LINE`]. A slot with an
/// arena line copies every pre-image it captures, zero or not. Freed slots
/// are reused, and the arena empties (and gives back all but a small
/// reserve) when the last pre-image is dropped. The table is allocated
/// zeroed and only written for lines that are stored to, so an untouched
/// device pays no resident memory for it.
pub(super) struct PreImages {
    line_size: usize,
    slot_of: Vec<u32>,
    owner: Vec<u64>,
    arena: Vec<u8>,
    free: Vec<u32>,
}

/// The line half of a freed slot's `owner` entry; no device has this many
/// lines.
const FREE: u64 = u32::MAX as u64;

/// The line of each live slot of `owner`, in slot order.
fn live(owner: &[u64]) -> impl Iterator<Item = u64> + '_ {
    owner.iter().map(|&owner| owner & FREE).filter(|&line| line != FREE)
}

/// What an all-zero pre-image restores, a chunk at a time for lines
/// longer than this.
static ZERO_LINE: [u8; 4096] = [0; 4096];

impl PreImages {
    /// An empty table for a device of `capacity` bytes.
    ///
    /// # Panics
    /// Panics when the device has 2³² lines or more.
    pub fn new(capacity: usize, line_size: usize) -> Self {
        let lines = capacity.div_ceil(line_size);
        assert!(u32::try_from(lines).is_ok(), "{lines} lines exceed the pre-image table");
        PreImages {
            line_size,
            slot_of: vec![0; lines],
            owner: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Whether `line` has been modified since it was last durable (a line
    /// past the end of the device never has).
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.slot_of.get(line as usize).is_some_and(|&slot| slot != 0)
    }

    /// Keep the current contents of every line in `first..=last` that is
    /// still durable: they are about to be overwritten.
    #[inline]
    pub fn capture(&mut self, plane: &DataPlane, first: u64, last: u64) {
        for line in first..=last {
            if self.slot_of[line as usize] == 0 {
                self.insert(plane, line);
            }
        }
    }

    fn insert(&mut self, plane: &DataPlane, line: u64) {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.owner.push(FREE);
                self.owner.len() - 1
            }
        };
        let span = plane.line_span(line);
        let mut image = self.owner[slot] >> 32;
        if image == 0 && !plane.is_zero(span.clone()) {
            self.arena.resize(self.arena.len() + self.line_size, 0);
            image = (self.arena.len() / self.line_size) as u64;
        }
        if image != 0 {
            let at = (image as usize - 1) * self.line_size;
            plane.read_locked(span.start, &mut self.arena[at..at + span.len()]);
        }
        self.owner[slot] = image << 32 | line;
        self.slot_of[line as usize] = slot as u32 + 1;
    }

    /// Drop `line`'s pre-image, if it has one: the line is durable again.
    pub fn remove(&mut self, line: u64) {
        let entry = std::mem::take(&mut self.slot_of[line as usize]);
        if entry == 0 {
            return;
        }
        self.owner[entry as usize - 1] |= FREE;
        self.free.push(entry - 1);
        if self.free.len() == self.owner.len() {
            self.release_slots();
        }
    }

    /// The lines holding a pre-image, ascending.
    pub fn lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = live(&self.owner).collect();
        lines.sort_unstable();
        lines
    }

    /// Put `line`'s pre-image back (the last line of the device may be
    /// short).
    fn restore(&self, plane: &DataPlane, line: u64) {
        let span = plane.line_span(line);
        match self.owner[self.slot_of[line as usize] as usize - 1] >> 32 {
            0 => {
                for at in span.clone().step_by(ZERO_LINE.len()) {
                    plane.write(at, &ZERO_LINE[..(span.end - at).min(ZERO_LINE.len())]);
                }
            }
            image => {
                let at = (image as usize - 1) * self.line_size;
                plane.write(span.start, &self.arena[at..at + span.len()]);
            }
        }
    }

    /// Forget every pre-image.
    pub fn clear(&mut self) {
        for line in live(&self.owner) {
            self.slot_of[line as usize] = 0;
        }
        self.release_slots();
    }

    /// Empty the arena once no slot is live. A small arena keeps its
    /// memory for the next transaction; the megabytes a whole-pool persist
    /// leaves behind go back to the allocator.
    fn release_slots(&mut self) {
        const RETAIN_SLOTS: usize = 256;
        self.owner.clear();
        self.owner.shrink_to(RETAIN_SLOTS);
        self.arena.clear();
        self.arena.shrink_to(RETAIN_SLOTS * self.line_size);
        self.free.clear();
        self.free.shrink_to(RETAIN_SLOTS);
    }

    /// Bytes the arena has allocated.
    #[cfg(test)]
    pub(crate) fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }
}

/// The durability half of the device's locked state.
pub(super) struct Durability {
    /// Pre-images of lines modified since they were last made durable.
    /// Restored on [`SimDevice::crash`].
    pub pre: PreImages,
    /// Lines flushed since the last fence; they become durable (pre-image
    /// dropped) only when the fence lands.
    pub flushed_pending_fence: Vec<u64>,
    /// The store that was interrupted by a tripped fault (torn at 8-byte
    /// granularity when a torn crash lands).
    pub inflight_write: Option<(Addr, Vec<u8>)>,
}

impl Durability {
    pub fn new(capacity: usize, line_size: usize) -> Self {
        Durability {
            pre: PreImages::new(capacity, line_size),
            flushed_pending_fence: Vec::new(),
            inflight_write: None,
        }
    }

    /// Resolve a power failure on a persistent device: put back the
    /// pre-images `mode` says are lost, apply what survives of an
    /// interrupted store, and forget all undurable state.
    fn crash(&mut self, plane: &DataPlane, mode: CrashMode) {
        // Ascending, so under `Torn` the seed alone decides the outcome.
        let lines = self.pre.lines();
        match mode {
            CrashMode::Rewind => {
                for line in lines {
                    self.pre.restore(plane, line);
                }
            }
            CrashMode::Torn { seed } => {
                let mut rng = Prng::new(seed);
                let pending: HashSet<u64> = self.flushed_pending_fence.iter().copied().collect();
                for line in lines {
                    // A flushed-but-unfenced line independently survives
                    // or reverts; an unflushed line always reverts. The
                    // decision (and its RNG consumption order) is shared
                    // with every backend via `faultsim`.
                    if !torn_line_survives(&mut rng, pending.contains(&line)) {
                        self.pre.restore(plane, line);
                    }
                }
                // The store interrupted by the crash reaches media as an
                // arbitrary subset of its 8-byte words (PMDK's atomicity
                // floor) on top of whatever the lines reverted to.
                if let Some((addr, buf)) = self.inflight_write.take() {
                    if addr as usize + buf.len() <= plane.len() {
                        for (i, chunk) in buf.chunks(8).enumerate() {
                            if torn_word_survives(&mut rng) {
                                plane.write(addr as usize + i * 8, chunk);
                            }
                        }
                    }
                }
            }
        }
        self.forget();
    }

    /// Drop every trace of undurable state: whatever the bytes are now is
    /// the durable image.
    fn forget(&mut self) {
        self.pre.clear();
        self.flushed_pending_fence.clear();
        self.inflight_write = None;
    }
}

impl SimDevice {
    /// Full contents of `lines` (ascending, deduplicated by the caller)
    /// for a mirror hook. Caller holds the state lock.
    fn mirror_line_snapshots(&self, lines: &[u64]) -> Vec<(u64, Vec<u8>)> {
        lines
            .iter()
            .map(|&line| {
                let span = self.plane.line_span(line);
                (line, self.plane.snapshot(span.start, span.len()))
            })
            .collect()
    }

    /// Flush the lines covering `[addr, addr+len)`: write back dirty data
    /// and stage the lines for durability at the next [`fence`].
    ///
    /// [`fence`]: SimDevice::fence
    pub fn flush(&self, addr: Addr, len: usize) {
        if len == 0 {
            return;
        }
        let mut guard = self.lock();
        if guard.faults.persist_trips() {
            drop(guard);
            panic!("{}", super::CRASH_PANIC);
        }
        let inner = &mut *guard;
        let (first, last) = self.lines_of(addr, len);
        inner.meter.flush(first, last);
        for line in first..=last {
            if inner.durable.pre.contains(line) {
                inner.durable.flushed_pending_fence.push(line);
            }
        }
    }

    /// Persistence fence: everything flushed before this point becomes
    /// durable (its pre-image is dropped).
    pub fn fence(&self) {
        self.fence_with(false);
    }

    /// A *seal* fence: like [`fence`](Self::fence), but the mirror is told
    /// the fenced lines carry recovery-critical bytes via
    /// [`DeviceMirror::on_seal`] — backends that buffer durable writes in a
    /// volatile tier (page cache, un-msync'd mappings) must reach stable
    /// storage before returning. Costs exactly what a plain fence costs in
    /// the virtual model, so sim and file/mmap backends stay `virtual_ns`-
    /// identical; the wall-clock fsync is the real price of the seal.
    pub fn fence_seal(&self) {
        self.fence_with(true);
    }

    fn fence_with(&self, seal: bool) {
        let mut guard = self.lock();
        if guard.faults.persist_trips() {
            drop(guard);
            panic!("{}", super::CRASH_PANIC);
        }
        let inner = &mut *guard;
        inner.meter.fence();
        let durable = &mut inner.durable;
        for &line in &durable.flushed_pending_fence {
            durable.pre.remove(line);
        }
        // Durability point: the pending lines' *current* contents are what
        // became durable (stores issued after the flush ride along, because
        // the pre-image is dropped wholesale) — mirror exactly that. A seal
        // fence fires its hook even with no pending lines: the stable-
        // storage barrier also covers earlier fenced-but-unsynced writes.
        if let Some(mirror) = self.mirror.get() {
            let lines = &mut durable.flushed_pending_fence;
            lines.sort_unstable();
            lines.dedup();
            if seal {
                mirror.on_seal(&self.mirror_line_snapshots(lines));
            } else if !lines.is_empty() {
                mirror.on_fence(&self.mirror_line_snapshots(lines));
            }
        }
        durable.flushed_pending_fence.clear();
    }

    /// `flush` + `fence` in one call (PMDK's `pmem_persist`).
    pub fn persist(&self, addr: Addr, len: usize) {
        self.flush(addr, len);
        self.fence();
    }

    /// `flush` + [`fence_seal`](Self::fence_seal): persist a recovery-
    /// critical range with an unconditional stable-storage barrier.
    pub fn persist_seal(&self, addr: Addr, len: usize) {
        self.flush(addr, len);
        self.fence_seal();
    }

    /// Simulate a power failure, then empty the cache: every line whose
    /// latest flush has not been fenced reverts to its durable contents,
    /// and an interrupted store is lost whole. Volatile devices lose
    /// everything (the whole store zeroes).
    pub fn crash(&self) {
        self.crash_with(CrashMode::Rewind);
    }

    /// Simulate a torn-write power failure: flushed-but-unfenced lines
    /// survive or revert as `seed` decides, and an interrupted store is
    /// torn at 8-byte granularity.
    pub fn crash_torn(&self, seed: u64) {
        self.crash_with(CrashMode::Torn { seed });
    }

    fn crash_with(&self, mode: CrashMode) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let persistent = self.profile.kind.is_persistent();
        // Every line the crash can touch (undurable pre-images plus the
        // lines covered by an interrupted store), collected before the
        // pre-images are consumed: after the crash resolves, these are
        // exactly the lines whose durable contents changed, and what a
        // mirror must be told about.
        let mut touched: Vec<u64> = Vec::new();
        if self.mirror.get().is_some() && persistent {
            touched = inner.durable.pre.lines();
            if let Some((addr, buf)) = &inner.durable.inflight_write {
                let (first, last) = self.lines_of(*addr, buf.len());
                touched.extend(first..=last);
            }
            touched.sort_unstable();
            touched.dedup();
        }
        if persistent {
            inner.durable.crash(&self.plane, mode);
        } else {
            self.plane.fill_zero();
            inner.durable.forget();
        }
        inner.meter.reset_cache(&self.profile);
        // The crash made everything durable at its post-crash contents;
        // push the resolved bytes of every touched line out to the mirror
        // so the on-disk image genuinely tears the same way.
        if let Some(mirror) = self.mirror.get() {
            if !touched.is_empty() {
                mirror.on_crash(&self.mirror_line_snapshots(&touched));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::profile::DeviceProfile;

    const LINE: usize = 256;
    /// Not a multiple of the line size: the last line is short.
    const CAP: usize = 24 * LINE + 100;

    /// What a mirror was told, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Fence(Vec<(u64, Vec<u8>)>),
        Seal(Vec<(u64, Vec<u8>)>),
        Crash(Vec<(u64, Vec<u8>)>),
    }

    #[derive(Default)]
    struct Recorder(Mutex<Vec<Event>>);

    impl DeviceMirror for Recorder {
        fn on_fence(&self, lines: &[(u64, Vec<u8>)]) {
            self.0.lock().unwrap().push(Event::Fence(lines.to_vec()));
        }
        fn on_seal(&self, lines: &[(u64, Vec<u8>)]) {
            self.0.lock().unwrap().push(Event::Seal(lines.to_vec()));
        }
        fn on_crash(&self, lines: &[(u64, Vec<u8>)]) {
            self.0.lock().unwrap().push(Event::Crash(lines.to_vec()));
        }
        fn on_poke(&self, _: Addr, _: &[u8]) {}
    }

    /// The durability model as the device kept it before the dense table:
    /// a hash map of boxed pre-images, resolved in ascending line order.
    struct Reference {
        bytes: Vec<u8>,
        undurable: HashMap<u64, Box<[u8]>>,
        pending: Vec<u64>,
        inflight: Option<(usize, Vec<u8>)>,
        events: Vec<Event>,
        /// Stores to a captured line, by whether its pre-image and its
        /// bytes after the store are zero: `[neither, now, before, both]`.
        cases: [u32; 4],
    }

    impl Reference {
        fn line_bytes(&self, line: u64) -> Vec<u8> {
            let start = line as usize * LINE;
            self.bytes[start..(start + LINE).min(CAP)].to_vec()
        }

        fn snapshots(&self, lines: &[u64]) -> Vec<(u64, Vec<u8>)> {
            lines.iter().map(|&l| (l, self.line_bytes(l))).collect()
        }

        fn write(&mut self, addr: usize, src: &[u8]) {
            let lines = (addr / LINE) as u64..=((addr + src.len() - 1) / LINE) as u64;
            for line in lines.clone() {
                if !self.undurable.contains_key(&line) {
                    let pre = self.line_bytes(line).into_boxed_slice();
                    self.undurable.insert(line, pre);
                }
            }
            self.bytes[addr..addr + src.len()].copy_from_slice(src);
            // Which of the four cases each captured line is in now: zero or
            // not before its first store, and zero or not after this one.
            for line in lines {
                let was_zero = self.undurable[&line].iter().all(|&b| b == 0);
                let is_zero = self.line_bytes(line).iter().all(|&b| b == 0);
                self.cases[usize::from(was_zero) * 2 + usize::from(is_zero)] += 1;
            }
        }

        fn flush(&mut self, addr: usize, len: usize) {
            for line in (addr / LINE) as u64..=((addr + len - 1) / LINE) as u64 {
                if self.undurable.contains_key(&line) {
                    self.pending.push(line);
                }
            }
        }

        fn fence(&mut self, seal: bool) {
            let mut lines = std::mem::take(&mut self.pending);
            for line in &lines {
                self.undurable.remove(line);
            }
            lines.sort_unstable();
            lines.dedup();
            if seal {
                self.events.push(Event::Seal(self.snapshots(&lines)));
            } else if !lines.is_empty() {
                self.events.push(Event::Fence(self.snapshots(&lines)));
            }
        }

        fn crash(&mut self, mode: CrashMode) {
            let mut touched: Vec<u64> = self.undurable.keys().copied().collect();
            if let Some((addr, buf)) = &self.inflight {
                touched.extend((addr / LINE) as u64..=((addr + buf.len() - 1) / LINE) as u64);
            }
            touched.sort_unstable();
            touched.dedup();
            let mut lines: Vec<(u64, Box<[u8]>)> = self.undurable.drain().collect();
            lines.sort_by_key(|(line, _)| *line);
            let mut rng = match mode {
                CrashMode::Rewind => None,
                CrashMode::Torn { seed } => Some(Prng::new(seed)),
            };
            for (line, pre) in lines {
                let reverts = match rng.as_mut() {
                    None => true,
                    Some(rng) => !torn_line_survives(rng, self.pending.contains(&line)),
                };
                if reverts {
                    let start = line as usize * LINE;
                    self.bytes[start..start + pre.len()].copy_from_slice(&pre);
                }
            }
            if let (Some(rng), Some((addr, buf))) = (rng.as_mut(), self.inflight.take()) {
                for (i, chunk) in buf.chunks(8).enumerate() {
                    if torn_word_survives(rng) {
                        self.bytes[addr + i * 8..addr + i * 8 + chunk.len()].copy_from_slice(chunk);
                    }
                }
            }
            self.pending.clear();
            self.inflight = None;
            if !touched.is_empty() {
                self.events.push(Event::Crash(self.snapshots(&touched)));
            }
        }
    }

    /// Random write / flush / fence / seal sequences ending in a crash —
    /// `Rewind` or seeded `Torn`, half of them with a store in flight —
    /// leave the same bytes and tell the mirror the same things as the
    /// reference, round after round on one device. A third of the stores
    /// write zeros, so lines with zero and non-zero pre-images are written
    /// both zero and non-zero, and the arena holds only the non-zero ones.
    #[test]
    fn crash_outcomes_match_the_hash_map_reference() {
        let rounds: u64 = if cfg!(miri) { 6 } else { 300 };
        let dev = SimDevice::new(DeviceProfile::nvm_optane(), CAP);
        let recorder = Arc::new(Recorder::default());
        dev.attach_mirror(recorder.clone());
        let mut model = Reference {
            bytes: vec![0; CAP],
            undurable: HashMap::new(),
            pending: Vec::new(),
            inflight: None,
            events: Vec::new(),
            cases: [0; 4],
        };
        let mut rng = Prng::new(0xD07AB1E);
        let range = |rng: &mut Prng| {
            let len = 1 + rng.next_below(3 * LINE as u64) as usize;
            (rng.next_below((CAP - len + 1) as u64) as usize, len)
        };
        let bytes = |rng: &mut Prng, len: usize| -> Vec<u8> {
            match rng.next_below(3) {
                0 => vec![0; len],
                _ => (0..len).map(|_| rng.next_u64() as u8).collect(),
            }
        };
        for round in 0..rounds {
            for _ in 0..rng.next_below(40) {
                let (addr, len) = range(&mut rng);
                match rng.next_below(10) {
                    0..=5 => {
                        let src = bytes(&mut rng, len);
                        dev.write_bytes(addr as u64, &src);
                        model.write(addr, &src);
                    }
                    6..=7 => {
                        dev.flush(addr as u64, len);
                        model.flush(addr, len);
                    }
                    8 => {
                        dev.fence();
                        model.fence(false);
                    }
                    _ => {
                        dev.fence_seal();
                        model.fence(true);
                    }
                }
            }
            if rng.next_u64() & 1 == 0 {
                let (addr, len) = range(&mut rng);
                let src = bytes(&mut rng, len);
                dev.trip_after_writes(0);
                let unwound = catch_unwind(AssertUnwindSafe(|| dev.write_bytes(addr as u64, &src)));
                assert!(unwound.is_err(), "the armed store must not return");
                model.inflight = Some((addr, src));
            }
            {
                let inner = dev.lock();
                let pre = &inner.durable.pre;
                let images = model.undurable.values().filter(|pre| pre.iter().any(|&b| b != 0));
                assert!(pre.arena.len() >= images.count() * LINE, "round {round}");
                assert!(pre.arena.len() <= pre.owner.len() * LINE, "round {round}");
            }
            let mode = match rng.next_below(3) {
                0 => CrashMode::Rewind,
                _ => CrashMode::Torn { seed: rng.next_u64() },
            };
            match mode {
                CrashMode::Rewind => dev.crash(),
                CrashMode::Torn { seed } => dev.crash_torn(seed),
            }
            model.crash(mode);
            assert_eq!(dev.peek(0, CAP), model.bytes, "round {round} under {mode:?}");
            assert_eq!(*recorder.0.lock().unwrap(), model.events, "round {round} under {mode:?}");
            let inner = dev.lock();
            assert!(inner.durable.pre.lines().is_empty() && inner.durable.pre.arena.is_empty());
        }
        assert!(model.cases.iter().all(|&n| n > 0), "stores by case: {:?}", model.cases);
    }

    /// Overwrite every line of `plane`, put the pre-images of `lines` back,
    /// and return those lines' bytes.
    fn restored(plane: &DataPlane, pre: &PreImages, lines: &[u64]) -> Vec<Vec<u8>> {
        plane.write(0, &[0xEE; CAP]);
        lines
            .iter()
            .map(|&line| {
                pre.restore(plane, line);
                let span = plane.line_span(line);
                plane.snapshot(span.start, span.len())
            })
            .collect()
    }

    #[test]
    fn slots_are_reused_and_the_arena_empties_with_the_last_pre_image() {
        let plane = DataPlane::new(CAP, LINE.trailing_zeros());
        let mut pre = PreImages::new(CAP, LINE);
        plane.write(0, &[7; 3 * LINE]);
        pre.capture(&plane, 0, 2);
        pre.capture(&plane, 1, 1); // already held
        assert_eq!(pre.lines(), [0, 1, 2]);
        pre.remove(1);
        pre.remove(1); // idempotent
        assert!(!pre.contains(1) && !pre.contains(u64::MAX));
        // The short last line takes the freed slot, and with it the slot's
        // arena line, zero as the line is.
        pre.capture(&plane, 24, 24);
        assert_eq!(pre.arena.len(), 3 * LINE);
        assert_eq!(pre.lines(), [0, 2, 24]);
        let bytes = restored(&plane, &pre, &[24, 2]);
        assert_eq!(bytes, [vec![0u8; 100], vec![7u8; LINE]]);
        for line in [0, 2, 24] {
            pre.remove(line);
        }
        assert!(pre.arena.is_empty() && pre.owner.is_empty() && pre.free.is_empty());
    }

    /// Zero pre-images take slots but no arena bytes, restore zeros, and
    /// leave the arena to the non-zero ones, which still empty it when
    /// the last of them goes.
    #[test]
    fn zero_pre_images_allocate_no_arena_bytes() {
        let plane = DataPlane::new(CAP, LINE.trailing_zeros());
        let mut pre = PreImages::new(CAP, LINE);
        pre.capture(&plane, 0, 24);
        assert_eq!(pre.lines(), (0..=24).collect::<Vec<u64>>());
        assert_eq!(pre.arena_capacity(), 0, "zero lines allocated arena bytes");
        let bytes = restored(&plane, &pre, &[3, 24]);
        assert_eq!(bytes, [vec![0u8; LINE], vec![0u8; 100]]);
        for line in 0..=24 {
            pre.remove(line);
        }
        assert_eq!(pre.arena_capacity(), 0);
        assert!(pre.owner.is_empty() && pre.free.is_empty());

        // One non-zero line among zero ones costs one arena line.
        plane.write(0, &[0; CAP]);
        plane.write(5 * LINE + 9, &[1]);
        pre.capture(&plane, 4, 6);
        assert_eq!(pre.arena.len(), LINE);
        let bytes = restored(&plane, &pre, &[4, 5, 6]);
        let mut five = vec![0u8; LINE];
        five[9] = 1;
        assert_eq!(bytes, [vec![0u8; LINE], five, vec![0u8; LINE]]);
        pre.remove(4);
        pre.remove(6);
        assert_eq!(pre.arena.len(), LINE, "the non-zero pre-image is still live");
        pre.remove(5);
        assert!(pre.arena.is_empty() && pre.owner.is_empty());
    }
}
