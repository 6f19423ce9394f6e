//! The data plane: the device's bytes, and nothing else.
//!
//! Bytes live in `AtomicU64` words, kept *outside* the state lock so
//! deferred readers never take it. Device byte `i` is byte `i % 8` of word
//! `i / 8` in little-endian order, so a copy moves a word per step with the
//! unaligned head and tail patched in, and an access that sits inside one
//! word is a single load or a single load + store.
//!
//! Words are atomic so optimistic readers may race a writer without
//! undefined behaviour; a seqlock version per line shard lets a reader
//! detect the race and retry with a consistent copy (the optimistic,
//! copy-free read of Lersch et al.).
//!
//! # One writer, plain version stores
//!
//! All mutation happens under the device's exclusive state lock, so there
//! is one writer at a time and the versions need no read-modify-write. A
//! write marks each covered shard odd with a relaxed load and a plain
//! store, issues a `Release` fence, copies, and publishes each shard even
//! with a `Release` store. The lock orders one writer's stores before the
//! next writer's loads, so a writer always reads the version it last
//! published.
//!
//! A reader loads the versions (`SeqCst`), copies with relaxed loads,
//! issues an `Acquire` fence and loads the versions again. Fence to fence:
//! if the copy read any byte stored after the writer's release fence, that
//! fence synchronises with the reader's acquire fence, so the re-validation
//! sees the odd mark stored before it (or a later version) and retries. A
//! copy whose first load saw an even version published by a release store
//! also sees every byte stored before that store. A validated copy is
//! therefore never torn.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of line shards of the seqlock (a power of two). The data plane's
/// versions are striped over this many shards by line index, so a writer
/// forces a retry only on readers whose lines share a shard with the lines
/// it writes.
const READ_SHARDS: usize = 16;

/// Every shard.
const ALL_SHARDS: u32 = (1 << READ_SHARDS) - 1;

/// The shard a line index maps to.
#[inline]
fn shard_of(line: u64) -> usize {
    (line as usize) & (READ_SHARDS - 1)
}

/// The shards set in `mask`, ascending.
#[inline]
fn shards(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let shard = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            shard
        })
    })
}

/// Cache-line padded seqlock version counter for one line shard of the
/// data plane (even = stable, odd = a writer is mid-mutation).
#[repr(align(128))]
#[derive(Default)]
struct ShardVersion {
    version: AtomicU64,
}

/// The byte store and its per-shard seqlock versions. See the module docs.
pub(super) struct DataPlane {
    words: Box<[AtomicU64]>,
    /// Capacity in bytes; the last word may be partly beyond it.
    len: usize,
    /// `log2(line size)`.
    line_shift: u32,
    versions: [ShardVersion; READ_SHARDS],
}

/// `n` zeroed words straight from the allocator. `vec![0u64; n]` is one
/// `calloc`, so a large, mostly untouched device costs neither a memset nor
/// resident pages; building the atomics element by element would write
/// (and so commit) every page up front.
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    const _: () = assert!(
        std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
            && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
    );
    let words: Box<[u64]> = vec![0u64; n].into_boxed_slice();
    // SAFETY: `AtomicU64` is documented to have the same size and bit
    // validity as `u64`, and the assertion above rejects targets where its
    // alignment differs, so the slice's layout (which `Box` hands back to
    // the allocator on drop) is unchanged. The box is owned and unaliased
    // here, so no non-atomic access to the words outlives the cast.
    unsafe { Box::from_raw(Box::into_raw(words) as *mut [AtomicU64]) }
}

impl DataPlane {
    /// A zeroed plane of `capacity` bytes in lines of `1 << line_shift`.
    pub fn new(capacity: usize, line_shift: u32) -> Self {
        DataPlane {
            words: zeroed_words(capacity.div_ceil(8)),
            len: capacity,
            line_shift,
            versions: Default::default(),
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bitmask of the line shards covered by `[addr, addr+len)`, `len > 0`.
    /// Consecutive lines map to consecutive shards, so the mask is a run of
    /// ones rotated to the first line's shard.
    fn shard_mask(&self, addr: usize, len: usize) -> u32 {
        let first = (addr >> self.line_shift) as u64;
        let last = ((addr + len - 1) >> self.line_shift) as u64;
        let lines = last - first + 1;
        if lines >= READ_SHARDS as u64 {
            return ALL_SHARDS;
        }
        let run = ((1u32 << lines) - 1) << shard_of(first);
        (run | (run >> READ_SHARDS)) & ALL_SHARDS
    }

    /// The versions of the shards in `mask`, or `None` while any of them is
    /// odd (a writer is mid-mutation).
    fn stable_versions(&self, mask: u32) -> Option<[u64; READ_SHARDS]> {
        let mut snap = [0u64; READ_SHARDS];
        for s in shards(mask) {
            snap[s] = self.versions[s].version.load(Ordering::SeqCst);
            if snap[s] & 1 != 0 {
                return None;
            }
        }
        Some(snap)
    }

    /// Whether the shards in `mask` still read the versions in `snap`.
    fn versions_unchanged(&self, mask: u32, snap: &[u64; READ_SHARDS]) -> bool {
        shards(mask).all(|s| self.versions[s].version.load(Ordering::SeqCst) == snap[s])
    }

    /// Mark every shard in `mask` odd (a mutation starts), then fence so
    /// that no store of the mutation is ordered before the marks. Single
    /// writer: the caller holds the exclusive state lock.
    fn begin_write(&self, mask: u32) {
        for s in shards(mask) {
            let v = &self.versions[s].version;
            v.store(v.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        fence(Ordering::Release);
    }

    /// Publish every shard in `mask` even again: the mutation is complete.
    fn end_write(&self, mask: u32) {
        for s in shards(mask) {
            let v = &self.versions[s].version;
            v.store(v.load(Ordering::Relaxed) + 1, Ordering::Release);
        }
    }

    /// Byte range of `line`; the last line of the device may be short.
    pub fn line_span(&self, line: u64) -> std::ops::Range<usize> {
        let start = (line as usize) << self.line_shift;
        start..(start + (1 << self.line_shift)).min(self.len)
    }

    /// Word-wide copy out of `[addr, addr + dst.len())` with no protocol:
    /// for callers that hold the state lock (shared or exclusive), when no
    /// writer can be mid-mutation, and the copy step of the optimistic read.
    #[inline]
    pub fn read_locked(&self, addr: usize, dst: &mut [u8]) {
        debug_assert!(addr + dst.len() <= self.len, "plane read out of range");
        let (mut word, off) = (addr >> 3, addr & 7);
        if off + dst.len() <= 8 {
            if !dst.is_empty() {
                let v = self.words[word].load(Ordering::Relaxed) >> (off * 8);
                dst.copy_from_slice(&v.to_le_bytes()[..dst.len()]);
            }
            return;
        }
        let mut dst = dst;
        if off != 0 {
            let (head, rest) = dst.split_at_mut(8 - off);
            head.copy_from_slice(&self.words[word].load(Ordering::Relaxed).to_le_bytes()[off..]);
            dst = rest;
            word += 1;
        }
        let full = dst.len() / 8;
        let mut chunks = dst.chunks_exact_mut(8);
        for (chunk, w) in (&mut chunks).zip(&self.words[word..word + full]) {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let v = self.words[word + full].load(Ordering::Relaxed);
            tail.copy_from_slice(&v.to_le_bytes()[..tail.len()]);
        }
    }

    /// Whether every byte of `range` is zero; no protocol, as
    /// [`read_locked`](Self::read_locked).
    pub fn is_zero(&self, range: std::ops::Range<usize>) -> bool {
        debug_assert!(range.end <= self.len, "plane read out of range");
        if range.is_empty() {
            return true;
        }
        let (first, last) = (range.start >> 3, (range.end - 1) >> 3);
        let head = !0u64 << ((range.start & 7) * 8);
        let tail = !0u64 >> ((7 - ((range.end - 1) & 7)) * 8);
        let word = |i: usize| self.words[i].load(Ordering::Relaxed);
        if first == last {
            return word(first) & head & tail == 0;
        }
        word(first) & head == 0 && (first + 1..last).all(|i| word(i) == 0) && word(last) & tail == 0
    }

    /// Replace bytes `[off, off + src.len())` of one word. Not an atomic
    /// read-modify-write: writers are serialised by the state lock.
    #[inline]
    fn patch(&self, word: usize, off: usize, src: &[u8]) {
        let w = &self.words[word];
        let mut bytes = w.load(Ordering::Relaxed).to_le_bytes();
        bytes[off..off + src.len()].copy_from_slice(src);
        w.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
    }

    /// Word-wide copy into `[addr, addr + src.len())`, no protocol.
    #[inline]
    fn copy_in(&self, addr: usize, src: &[u8]) {
        debug_assert!(addr + src.len() <= self.len, "plane write out of range");
        let (mut word, off) = (addr >> 3, addr & 7);
        if off + src.len() <= 8 {
            if src.len() == 8 {
                let v = u64::from_le_bytes(src.try_into().expect("8 bytes"));
                self.words[word].store(v, Ordering::Relaxed);
            } else if !src.is_empty() {
                self.patch(word, off, src);
            }
            return;
        }
        let mut src = src;
        if off != 0 {
            let (head, rest) = src.split_at(8 - off);
            self.patch(word, off, head);
            src = rest;
            word += 1;
        }
        let full = src.len() / 8;
        let chunks = src.chunks_exact(8);
        let tail = chunks.remainder();
        for (chunk, w) in chunks.zip(&self.words[word..word + full]) {
            w.store(u64::from_le_bytes(chunk.try_into().expect("8 bytes")), Ordering::Relaxed);
        }
        if !tail.is_empty() {
            self.patch(word + full, 0, tail);
        }
    }

    /// Locked copy into a fresh buffer.
    pub fn snapshot(&self, addr: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_locked(addr, &mut out);
        out
    }

    /// Optimistic lock-free copy: snapshot the covered shard versions,
    /// copy, re-validate; retry until no writer interleaved. Returns the
    /// number of retries taken (0 on the contention-free path).
    ///
    /// The data loads are relaxed; what orders them is the fence pair —
    /// the writer's release fence after its odd marks, and the acquire
    /// fence here before re-validation (see the module docs). A copy that
    /// saw any byte of an in-progress (or later) mutation therefore also
    /// sees that mutation's odd (or later) version and is retried, and a
    /// copy that started on an even version sees everything stored before
    /// that version was published.
    pub fn read_optimistic(&self, addr: usize, dst: &mut [u8]) -> u64 {
        if dst.is_empty() {
            return 0;
        }
        let mask = self.shard_mask(addr, dst.len());
        let mut retries = 0u64;
        loop {
            if let Some(before) = self.stable_versions(mask) {
                self.read_locked(addr, dst);
                fence(Ordering::Acquire);
                if self.versions_unchanged(mask, &before) {
                    return retries;
                }
            }
            retries += 1;
            std::hint::spin_loop();
        }
    }

    /// Mutate `[addr, addr+src.len())`. Caller must hold the exclusive
    /// state lock; the covered shards are marked odd around the stores so
    /// optimistic readers retry instead of observing a torn copy.
    #[inline]
    pub fn write(&self, addr: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        let mask = self.shard_mask(addr, src.len());
        self.begin_write(mask);
        self.copy_in(addr, src);
        self.end_write(mask);
    }

    /// Zero the whole store (volatile-device crash). Caller must hold the
    /// exclusive state lock.
    pub fn fill_zero(&self) {
        self.begin_write(ALL_SHARDS);
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.end_write(ALL_SHARDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::Prng;

    /// Under Miri the same properties are checked on fewer cases.
    const ROUNDS: usize = if cfg!(miri) { 200 } else { 20_000 };

    /// Random unaligned reads and writes, 1 byte to 3 lines long, against a
    /// `Vec<u8>` model, on a capacity that is a multiple of neither the
    /// word nor the line size.
    #[test]
    fn plane_matches_a_byte_vector_model() {
        const LINE: usize = 64;
        const CAP: usize = 40 * LINE + 13;
        let plane = DataPlane::new(CAP, LINE.trailing_zeros());
        assert_eq!(plane.len(), CAP);
        let mut model = vec![0u8; CAP];
        let mut rng = Prng::new(0x91A4E);
        for round in 0..ROUNDS {
            let len = 1 + rng.next_below(3 * LINE as u64) as usize;
            let addr = rng.next_below((CAP - len + 1) as u64) as usize;
            if rng.next_u64() & 1 == 0 {
                // Every other write stores zeros, so some reads see zero runs.
                let zeros = rng.next_u64() & 1 == 0;
                let src: Vec<u8> =
                    (0..len).map(|_| if zeros { 0 } else { rng.next_u64() as u8 }).collect();
                plane.write(addr, &src);
                model[addr..addr + len].copy_from_slice(&src);
            } else {
                let zero = model[addr..addr + len].iter().all(|&b| b == 0);
                assert_eq!(plane.is_zero(addr..addr + len), zero, "round {round}: {addr}+{len}");
                let mut locked = vec![0xAAu8; len];
                plane.read_locked(addr, &mut locked);
                assert_eq!(locked, model[addr..addr + len], "round {round}: {addr}+{len}");
                let mut optimistic = vec![0x55u8; len];
                assert_eq!(plane.read_optimistic(addr, &mut optimistic), 0);
                assert_eq!(optimistic, locked);
            }
        }
        assert_eq!(plane.snapshot(0, CAP), model);
        // The bytes at the very end, through the partly used last word.
        plane.write(CAP - 3, &[1, 2, 3]);
        assert_eq!(plane.snapshot(CAP - 5, 5)[2..], [1, 2, 3]);
        plane.fill_zero();
        assert!(plane.snapshot(0, CAP).iter().all(|&b| b == 0));
    }

    #[test]
    fn every_offset_and_short_length_round_trips() {
        let plane = DataPlane::new(96, 6);
        for off in 0..24usize {
            for len in 0..=40usize {
                let src: Vec<u8> = (0..len).map(|i| (off * 41 + len * 7 + i) as u8 | 1).collect();
                let before = plane.snapshot(0, 96);
                plane.write(off, &src);
                let after = plane.snapshot(0, 96);
                assert_eq!(after[off..off + len], src[..]);
                assert_eq!(after[..off], before[..off], "write at {off}+{len} leaked left");
                assert_eq!(after[off + len..], before[off + len..], "{off}+{len} leaked right");
            }
        }
    }

    /// A lone non-zero byte anywhere in three words is seen by every range
    /// that covers it and by no other.
    #[test]
    fn is_zero_sees_exactly_its_range() {
        let plane = DataPlane::new(24, 3);
        for byte in 0..24 {
            plane.write(byte, &[0x80]);
            for start in 0..=24 {
                for end in start..=24 {
                    let covered = (start..end).contains(&byte);
                    assert_eq!(
                        plane.is_zero(start..end),
                        !covered,
                        "byte {byte} in {start}..{end}"
                    );
                }
            }
            plane.write(byte, &[0]);
        }
    }

    #[test]
    fn shard_mask_is_the_set_of_covered_shards() {
        let plane = DataPlane::new(1 << 16, 6);
        for first in 0..40usize {
            for lines in 1..=20usize {
                let (addr, len) = (first * 64 + 5, (lines - 1) * 64 + 1);
                let want = (first..first + lines).fold(0u32, |m, l| m | 1 << shard_of(l as u64));
                assert_eq!(plane.shard_mask(addr, len), want, "{lines} lines from {first}");
            }
        }
    }

    /// A writer keeps rewriting 64-byte records with one repeated byte
    /// while readers copy them optimistically: a validated copy is never a
    /// mix of two records.
    #[test]
    fn validated_optimistic_reads_are_never_torn() {
        use std::sync::atomic::AtomicBool;
        const RECORDS: usize = 8;
        let writes: u64 = if cfg!(miri) { 300 } else { 200_000 };
        // Records straddle a line boundary (and so two shards) half the time.
        let plane = DataPlane::new(RECORDS * 96 + 64, 6);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (plane, done) = (&plane, &done);
                s.spawn(move || {
                    let mut buf = [0u8; 64];
                    let mut r = t;
                    while !done.load(Ordering::Acquire) {
                        plane.read_optimistic((r % RECORDS) * 96 + 20, &mut buf);
                        assert!(buf.iter().all(|&b| b == buf[0]), "torn record: {buf:?}");
                        r += 1;
                    }
                });
            }
            for i in 0..writes {
                plane.write((i as usize % RECORDS) * 96 + 20, &[i as u8; 64]);
            }
            done.store(true, Ordering::Release);
        });
    }
}
