//! The on-device DAG pool (paper §IV-B, Algorithm 1).
//!
//! During initialization the compressed grammar is restructured into an
//! NVM pool:
//!
//! * **metadata arrays** (structure-of-arrays): per-rule offsets, counts,
//!   weights, expansion lengths and word-list bounds, each a dense array so
//!   traversal metadata shares media lines;
//! * **pruned views**: per rule, the deduplicated `(subrule, freq)` pairs
//!   followed by deduplicated `(word, freq)` pairs — Algorithm 1's output,
//!   written adjacently in traversal order for locality;
//! * **ordered bodies**: the raw symbol sequences, needed by sequence
//!   analytics and by the naive baseline;
//! * **the dictionary**: word strings + offsets, so tasks that materialise
//!   strings (sort) pay real device reads;
//! * **head/tail buffers** for sequence support (§IV-D).
//!
//! With `adjacent_layout = false` the rule views are instead written in a
//! pseudo-random order with line-sized gaps, reproducing what a
//! general-purpose persistent allocator does to locality (§III-B).

use std::sync::Arc;

use ntadoc_grammar::{Compressed, KeyMap, Symbol};
use ntadoc_nstruct::HeadTailStore;
use ntadoc_pmem::{Addr, PmemError, PmemPool, Reads, SimDevice};

use crate::layout::{
    decode_pairs, decode_wordlist, encode_pairs, encode_wordlist, PoolLayoutConfig,
};
use crate::summation::HeadTailInfo;
use crate::Result;

/// Checked `usize → u32` narrowing for the per-rule length tables. The
/// pool stores counts and byte lengths in fixed `u32` fields; a silent
/// `as u32` wrap on a huge corpus would corrupt every rule after the
/// wrap, so the write sites go through this instead.
fn len_u32(what: &'static str, n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| PmemError::TooLarge { what, len: n as u64, max: u32::MAX as u64 })
}

/// `(id, frequency)` pairs of one pruned bucket (subrules or words).
pub type FreqPairs = Vec<(u32, u32)>;

/// Bodies at least this long are deduplicated through an id index; shorter
/// ones — nearly every rule but `R0` — by scanning the few pairs seen so
/// far, which is faster than hashing at that size.
const PRUNE_INDEX_FROM: usize = 48;

/// Per-rule deduplicated view (Algorithm 1): `(id, freq)` pairs of the
/// subrules and of the words, each in order of first occurrence. One pass,
/// linear in the body.
pub fn prune_rule(symbols: &[Symbol]) -> (FreqPairs, FreqPairs) {
    // Buckets, as in Algorithm 1: count subrules and words separately.
    let mut subs: FreqPairs = Vec::new();
    let mut words: FreqPairs = Vec::new();
    // Raw symbol (kind + id) → its slot in the bucket of its kind.
    let mut slot_of: KeyMap<u32> = KeyMap::default();
    let indexed = symbols.len() >= PRUNE_INDEX_FROM;
    if indexed {
        slot_of.reserve(symbols.len());
    }
    for s in symbols {
        let list = if s.is_rule() {
            &mut subs
        } else if s.is_word() {
            &mut words
        } else {
            continue; // separators carry no frequency payload
        };
        let id = s.payload();
        let slot = if indexed {
            // A body holds fewer than 2^32 symbols (`len_u32` on write).
            let next = list.len() as u32;
            let slot = *slot_of.entry(s.raw() as u64).or_insert(next);
            (slot != next).then_some(slot as usize)
        } else {
            list.iter().position(|&(i, _)| i == id)
        };
        match slot {
            Some(at) => list[at].1 += 1,
            None => list.push((id, 1)),
        }
    }
    (subs, words)
}

/// Caller-owned buffers the pool's list reads decode into: the bytes as
/// they sit on the device and the values decoded from them. A loop over
/// rules reuses one instead of allocating two vectors per read.
#[derive(Debug, Default)]
pub struct PoolBuf {
    bytes: Vec<u8>,
    pub(crate) pairs: FreqPairs,
    pub(crate) counts: Vec<(u32, u64)>,
    pub(crate) syms: Vec<Symbol>,
}

impl PoolBuf {
    /// One read of `len` bytes at `addr`, through `reads`, into the byte
    /// buffer.
    fn fill(&mut self, reads: &mut Reads, addr: Addr, len: usize) -> ntadoc_pmem::Result<()> {
        self.bytes.resize(len, 0);
        reads.read_bytes(addr, &mut self.bytes)
    }
}

/// Raise a media error read under [`SimDevice::with_reads`], now that the
/// lock is released: the single reads it replaces panicked on one.
fn raise<T>(read: ntadoc_pmem::Result<T>) -> T {
    read.unwrap_or_else(|e| panic!("{e}"))
}

/// The charged dictionary reader: an offsets array and the word text on
/// `dev`, each word handed out as a `&str` over the reader's own buffer.
pub struct WordReader<'a> {
    dev: &'a SimDevice,
    offsets: Addr,
    text: Addr,
    /// One word's bytes, or the whole text after a bulk read.
    buf: Vec<u8>,
    /// Every offset, after a bulk read; empty when words are read singly.
    bulk: Vec<u64>,
}

impl<'a> WordReader<'a> {
    /// A reader that issues two offset loads and one text read per word.
    pub fn per_word(dev: &'a SimDevice, offsets: Addr, text: Addr) -> Self {
        WordReader { dev, offsets, text, buf: Vec::new(), bulk: Vec::new() }
    }

    /// Word `id`'s string.
    pub fn get(&mut self, id: u32) -> &str {
        let word = self.fetch(id);
        std::str::from_utf8(&self.buf[word]).expect("dictionary strings are UTF-8")
    }

    /// The device reads of [`get`](Self::get) without the string: what a
    /// result that keeps ids owes the model for each word it names.
    pub fn touch(&mut self, id: u32) {
        self.touch_all([id]);
    }

    /// [`touch`](Self::touch) each of `ids` in turn, under one device lock.
    /// The iterator runs while the lock is held: it must not call the
    /// device or panic.
    pub fn touch_all(&mut self, ids: impl IntoIterator<Item = u32>) {
        if !self.bulk.is_empty() {
            return;
        }
        let (offsets, text) = (self.offsets, self.text);
        raise(self.dev.with_reads(|reads| {
            ids.into_iter().try_for_each(|id| {
                let (start, len) = Self::span(reads, offsets, id)?;
                reads.touch(text.wrapping_add(start), len)
            })
        }));
    }

    /// Where word `id`'s text starts and how long it is: two offset loads.
    /// Wrapping arithmetic, so that offsets a forged pool holds fail the
    /// text read's bounds check instead of overflowing under the lock.
    fn span(reads: &mut Reads, offsets: Addr, id: u32) -> ntadoc_pmem::Result<(u64, usize)> {
        let at = offsets + id as u64 * 8;
        let start = reads.read_u64(at)?;
        let end = reads.read_u64(at + 8)?;
        Ok((start, end.wrapping_sub(start) as usize))
    }

    /// Read word `id` unless a bulk read already has; where it is in `buf`.
    fn fetch(&mut self, id: u32) -> std::ops::Range<usize> {
        let at = id as usize;
        if !self.bulk.is_empty() {
            return self.bulk[at] as usize..self.bulk[at + 1] as usize;
        }
        let (start, len) = raise(self.dev.with_reads(|reads| Self::span(reads, self.offsets, id)));
        // Sized outside the lock: a forged length fails here, not under it.
        self.buf.resize(len, 0);
        self.dev.read_bytes(self.text.wrapping_add(start), &mut self.buf);
        0..self.buf.len()
    }
}

/// Addresses of the metadata arrays (SoA).
#[derive(Debug, Clone, Copy)]
struct MetaBases {
    indeg: Addr,
    pruned_off: Addr,
    body_off: Addr,
    nsub: Addr,
    nwords: Addr,
    body_len: Addr,
    weight: Addr,
    exp_len: Addr,
    wl_bound: Addr,
    wl_off: Addr,
    wl_len: Addr,
}

/// The compressed corpus restructured onto a device pool.
pub struct DagPool {
    dev: Arc<SimDevice>,
    pool: Arc<PmemPool>,
    nrules: usize,
    nfiles: usize,
    meta: MetaBases,
    dict_offsets: Addr,
    dict_bytes: Addr,
    dict_len: usize,
    /// Element layout/encoding the pool was built with; the accessors
    /// dispatch their decoders on it.
    layout: PoolLayoutConfig,
    /// Head/tail store; `None` unless built for a sequence task.
    pub headtail: Option<HeadTailStore>,
    /// Whether pruned views were written.
    pub has_pruned: bool,
}

/// Options controlling how the pool is built.
#[derive(Debug, Clone)]
pub struct DagBuildOptions {
    /// Write pruned `(id, freq)` views (Algorithm 1).
    pub pruned: bool,
    /// Lay rules out adjacently in traversal order (vs scattered).
    pub adjacent: bool,
    /// Store per-rule word-list upper bounds (from the summation).
    pub bounds: Option<Vec<u64>>,
    /// Build head/tail buffers of this width (sequence tasks).
    pub head_tail: Option<usize>,
    /// Per-object allocator cost charged for every rule allocation when
    /// the layout is scattered: the naive baseline goes through a
    /// PMDK-style persistent allocator (§III-B), which costs ~1-2 µs per
    /// `pmemobj_alloc`; N-TADOC's pool management replaces this with bump
    /// allocation.
    pub alloc_overhead_ns: u64,
    /// Id encoding of the pruned views and word-list caches.
    /// [`PoolLayoutConfig::Fixed`] reproduces the pre-layout pool
    /// byte-for-byte.
    pub layout: PoolLayoutConfig,
}

impl Default for DagBuildOptions {
    fn default() -> Self {
        DagBuildOptions {
            pruned: true,
            adjacent: true,
            bounds: None,
            head_tail: None,
            alloc_overhead_ns: 0,
            layout: PoolLayoutConfig::Fixed,
        }
    }
}

impl DagPool {
    /// Build the pool from a compressed corpus. All writes are charged to
    /// `pool`'s device.
    pub fn build(
        pool: Arc<PmemPool>,
        comp: &Compressed,
        info: Option<&HeadTailInfo>,
        opts: &DagBuildOptions,
    ) -> Result<DagPool> {
        let dev = pool.dev().clone();
        let nrules = comp.grammar.rule_count();
        let nfiles = comp.file_count();

        let meta = MetaBases {
            indeg: pool.alloc_array(nrules, 4)?,
            pruned_off: pool.alloc_array(nrules, 8)?,
            body_off: pool.alloc_array(nrules, 8)?,
            nsub: pool.alloc_array(nrules, 4)?,
            nwords: pool.alloc_array(nrules, 4)?,
            body_len: pool.alloc_array(nrules, 4)?,
            weight: pool.alloc_array(nrules, 8)?,
            exp_len: pool.alloc_array(nrules, 8)?,
            wl_bound: pool.alloc_array(nrules, 8)?,
            wl_off: pool.alloc_array(nrules, 8)?,
            wl_len: pool.alloc_array(nrules, 4)?,
        };

        // Rule write order: adjacent = as-is (rule ids are already close to
        // traversal order for Sequitur output); scattered = deterministic
        // pseudo-random permutation with line-sized gaps.
        let order: Vec<u32> = if opts.adjacent {
            (0..nrules as u32).collect()
        } else {
            let mut v: Vec<u32> = (0..nrules as u32).collect();
            let mut state = 0x9E37_79B9u64 ^ nrules as u64;
            for i in (1..v.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                v.swap(i, j);
            }
            v
        };

        let line = dev.profile().line_size;
        let lay = opts.layout;
        for &r in &order {
            let rule = &comp.grammar.rules[r as usize];
            if !opts.adjacent {
                // Allocator slop: skip to the next line boundary plus a
                // pseudo-random gap, destroying adjacency; plus the
                // per-object cost of the general-purpose persistent
                // allocator this layout implies.
                let gap = line + (r as usize * 37) % (2 * line);
                let _ = pool.alloc(gap, 1)?;
                dev.charge_ns(2 * opts.alloc_overhead_ns);
            }
            // Ordered body (always present; sequence tasks and the R0 file
            // walk need symbol order; fixed-width always — tasks index it).
            let body_addr = pool.alloc(rule.symbols.len().max(1) * 4, 8)?;
            let raw: Vec<u32> = rule.symbols.iter().map(|s| s.raw()).collect();
            dev.write_u32_slice(body_addr, &raw);
            dev.write_u64(meta.body_off + r as u64 * 8, body_addr);
            dev.write_u32(
                meta.body_len + r as u64 * 4,
                len_u32("rule body length", rule.symbols.len())?,
            );
            // Weight starts at zero; bounds and expansion metadata below.
            dev.write_u64(meta.weight + r as u64 * 8, 0);

            // Pruned view (Algorithm 1): subrule half first (weight
            // propagation reads just that prefix), then the word half,
            // each encoded per the pool layout. The length table carries
            // element counts for the fixed layout (byte lengths are
            // derivable) and encoded byte lengths for varint (counts are
            // derivable from the decode).
            if opts.pruned {
                let (subs, words) = prune_rule(&rule.symbols);
                let mut sub_bytes = Vec::new();
                encode_pairs(lay, &subs, &mut sub_bytes)?;
                let word_at = sub_bytes.len();
                let mut bytes = sub_bytes;
                encode_pairs(lay, &words, &mut bytes)?;
                let addr = pool.alloc(bytes.len().max(1), 8)?;
                dev.write_bytes(addr, &bytes);
                dev.write_u64(meta.pruned_off + r as u64 * 8, addr);
                let (a, b) = match lay {
                    PoolLayoutConfig::Fixed => (
                        len_u32("pruned subrule count", subs.len())?,
                        len_u32("pruned word count", words.len())?,
                    ),
                    PoolLayoutConfig::Varint => (
                        len_u32("pruned subrule bytes", word_at)?,
                        len_u32("pruned word bytes", bytes.len() - word_at)?,
                    ),
                };
                dev.write_u32(meta.nsub + r as u64 * 4, a);
                dev.write_u32(meta.nwords + r as u64 * 4, b);
            }
        }

        // In-degrees (occurrence-counted), part of the pool metadata the
        // paper lists ("the out/in degree … for the rule in the compressed
        // file's DAG representation").
        let indegs = comp.grammar.in_degrees();
        dev.write_u32_slice(meta.indeg, &indegs);

        if let Some(bounds) = &opts.bounds {
            for (r, &b) in bounds.iter().enumerate() {
                dev.write_u64(meta.wl_bound + r as u64 * 8, b);
            }
        }
        if let Some(info) = info {
            for (r, &l) in info.exp_len.iter().enumerate() {
                dev.write_u64(meta.exp_len + r as u64 * 8, l);
            }
        }

        // Dictionary: offsets then bytes.
        let dict_len = comp.dict.len();
        let dict_offsets = pool.alloc_array(dict_len + 1, 8)?;
        let total_text = comp.dict.text_bytes();
        let dict_bytes = pool.alloc(total_text.max(1), 1)?;
        let mut at = 0u64;
        let mut offsets = Vec::with_capacity(dict_len + 1);
        let mut text = Vec::with_capacity(total_text);
        for (_, w) in comp.dict.iter() {
            offsets.push(at);
            text.extend_from_slice(w.as_bytes());
            at += w.len() as u64;
        }
        offsets.push(at);
        for (i, off) in offsets.iter().enumerate() {
            dev.write_u64(dict_offsets + i as u64 * 8, *off);
        }
        dev.write_bytes(dict_bytes, &text);

        // Head/tail buffers.
        let headtail = match (opts.head_tail, info) {
            (Some(width), Some(info)) => {
                let store = HeadTailStore::new(pool.clone(), nrules, width)?;
                for r in 0..nrules {
                    store.set_head(r, &info.heads[r]);
                    store.set_tail(r, &info.tails[r]);
                }
                Some(store)
            }
            _ => None,
        };

        Ok(DagPool {
            dev,
            pool,
            nrules,
            nfiles,
            meta,
            dict_offsets,
            dict_bytes,
            dict_len,
            layout: opts.layout,
            headtail,
            has_pruned: opts.pruned,
        })
    }

    /// The element layout this pool was built with.
    pub fn layout(&self) -> PoolLayoutConfig {
        self.layout
    }

    /// Charge the modeled host-CPU decode cost for a group of `entries`
    /// values spanning `bytes` encoded bytes (per value when fixed-width,
    /// a serial continuation-bit chain under VBE — see
    /// [`PoolLayoutConfig::decode_ns`]).
    fn charge_decode(&self, entries: usize, bytes: usize) {
        let ns = self.layout.decode_ns(entries as u64, bytes as u64);
        if ns > 0 {
            self.dev.charge_ns(ns);
        }
    }

    /// Backing device.
    pub fn dev(&self) -> &Arc<SimDevice> {
        &self.dev
    }

    /// Backing pool (word-list caches bump-allocate from it).
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Rule count.
    pub fn nrules(&self) -> usize {
        self.nrules
    }

    /// File count.
    pub fn nfiles(&self) -> usize {
        self.nfiles
    }

    // ---- metadata accessors (each is a charged device access) ----------

    /// Current weight of rule `r`.
    pub fn weight(&self, r: u32) -> u64 {
        self.dev.read_u64(self.meta.weight + r as u64 * 8)
    }

    /// Overwrite rule `r`'s weight.
    pub fn set_weight(&self, r: u32, w: u64) {
        self.dev.write_u64(self.meta.weight + r as u64 * 8, w);
    }

    /// Add to rule `r`'s weight (read-modify-write).
    pub fn add_weight(&self, r: u32, dw: u64) {
        let w = self.weight(r);
        self.set_weight(r, w + dw);
    }

    /// Zero all weights with one bulk write.
    pub fn reset_weights(&self) {
        let zeros = vec![0u8; self.nrules * 8];
        self.dev.write_bytes(self.meta.weight, &zeros);
    }

    /// Bulk-read the in-degree array (occurrence-counted).
    pub fn read_indegs(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.nrules];
        self.dev.read_u32_slice(self.meta.indeg, &mut out);
        out
    }

    /// Expansion length (words) of rule `r`.
    pub fn exp_len(&self, r: u32) -> u64 {
        self.dev.read_u64(self.meta.exp_len + r as u64 * 8)
    }

    /// Word-list upper bound of rule `r` (0 when summation was skipped).
    pub fn wl_bound(&self, r: u32) -> u64 {
        self.dev.read_u64(self.meta.wl_bound + r as u64 * 8)
    }

    /// One half of rule `r`'s pruned view, decoded into `buf`: the
    /// `(subrule, freq)` pairs — first in the layout, because weight
    /// propagation reads just that prefix — or with `words` the
    /// `(word, freq)` pairs behind them.
    ///
    /// # Panics
    /// Panics if the pool was built without pruned views.
    pub fn pruned_half<'b>(&self, r: u32, words: bool, buf: &'b mut PoolBuf) -> &'b [(u32, u32)] {
        assert!(self.has_pruned, "pool built without pruned views");
        // The length table counts pairs under the fixed encoding, bytes
        // under varint.
        let unit = match self.layout {
            PoolLayoutConfig::Fixed => 8,
            PoolLayoutConfig::Varint => 1,
        };
        let meta = &self.meta;
        let len = raise(self.dev.with_reads(|reads| {
            let off = reads.read_u64(meta.pruned_off + r as u64 * 8)?;
            let a = reads.read_u32(meta.nsub + r as u64 * 4)? as usize;
            let (skip, len) = match words {
                true => (a, reads.read_u32(meta.nwords + r as u64 * 4)? as usize),
                false => (0, a),
            };
            // Wrapping: a forged offset fails the read's bounds check
            // rather than overflowing while the lock is held.
            buf.fill(reads, off.wrapping_add((skip * unit) as u64), len * unit)?;
            Ok(len)
        }));
        decode_pairs(self.layout, &buf.bytes, &mut buf.pairs).expect("pool-resident pruned view");
        self.charge_decode(buf.pairs.len(), len * unit);
        &buf.pairs
    }

    /// Ordered body symbols of rule `r`, decoded into `buf`.
    pub fn body<'b>(&self, r: u32, buf: &'b mut PoolBuf) -> &'b [Symbol] {
        let meta = &self.meta;
        raise(self.dev.with_reads(|reads| {
            let off = reads.read_u64(meta.body_off + r as u64 * 8)?;
            let len = reads.read_u32(meta.body_len + r as u64 * 4)? as usize;
            buf.fill(reads, off, len * 4)
        }));
        buf.syms.clear();
        buf.syms.extend(
            buf.bytes
                .chunks_exact(4)
                .map(|c| Symbol::from_raw(u32::from_le_bytes(c.try_into().expect("4 bytes")))),
        );
        &buf.syms
    }

    /// Length of rule `r`'s ordered body.
    pub fn body_len(&self, r: u32) -> usize {
        self.dev.read_u32(self.meta.body_len + r as u64 * 4) as usize
    }

    // ---- cached word lists (bottom-up traversal) ------------------------

    /// Store rule `r`'s word list as `(word, count)` pairs encoded per
    /// the pool layout, bump-allocated from the pool. Counts are `u64`.
    /// Returns the region written so callers can wire persistence to it.
    /// The `wl_len` table records the entry count under the fixed
    /// encoding (12 B packed entries, the legacy form) and the encoded
    /// byte length under varint.
    pub fn store_wordlist(&self, r: u32, entries: &[(u32, u64)]) -> Result<(Addr, usize)> {
        let lay = self.layout;
        let mut bytes = Vec::with_capacity(entries.len() * 12);
        encode_wordlist(lay, entries, &mut bytes)?;
        let size = bytes.len().max(12);
        let addr = self.pool.alloc(size, 4)?;
        self.dev.write_bytes(addr, &bytes);
        self.dev.write_u64(self.meta.wl_off + r as u64 * 8, addr);
        let recorded = match lay {
            PoolLayoutConfig::Fixed => len_u32("word-list entry count", entries.len())?,
            PoolLayoutConfig::Varint => len_u32("word-list byte length", bytes.len())?,
        };
        self.dev.write_u32(self.meta.wl_len + r as u64 * 4, recorded);
        Ok((addr, bytes.len()))
    }

    /// Where rule `r`'s cached word list lives: its address and encoded
    /// length in bytes.
    pub fn wordlist_region(&self, r: u32) -> (Addr, usize) {
        raise(self.dev.with_reads(|reads| self.region_of(reads, r)))
    }

    /// [`wordlist_region`](Self::wordlist_region), through `reads`.
    fn region_of(&self, reads: &mut Reads, r: u32) -> ntadoc_pmem::Result<(Addr, usize)> {
        let addr = reads.read_u64(self.meta.wl_off + r as u64 * 8)?;
        let len = reads.read_u32(self.meta.wl_len + r as u64 * 4)? as usize;
        let nbytes = match self.layout {
            PoolLayoutConfig::Fixed => len * 12,
            PoolLayoutConfig::Varint => len,
        };
        Ok((addr, nbytes))
    }

    /// Read back rule `r`'s cached word list, decoded into `buf`. A media
    /// error on the list's lines is returned, not raised: a served query
    /// that meets one fails, and the daemon answers the next.
    pub fn wordlist<'b>(&self, r: u32, buf: &'b mut PoolBuf) -> Result<&'b [(u32, u64)]> {
        buf.counts.clear();
        let read = self.dev.with_reads(|reads| {
            let (addr, nbytes) = self.region_of(reads, r)?;
            Ok((nbytes, buf.fill(reads, addr, nbytes)))
        });
        // A fault on the region's own loads is raised, as it always was;
        // one on the list is the caller's error.
        let (nbytes, list) = raise(read);
        list?;
        if nbytes > 0 {
            decode_wordlist(self.layout, &buf.bytes, &mut buf.counts)
                .expect("pool-resident word list");
            self.charge_decode(buf.counts.len() * 2, nbytes);
        }
        Ok(&buf.counts)
    }

    // ---- dictionary ------------------------------------------------------

    /// Number of dictionary words.
    pub fn dict_len(&self) -> usize {
        self.dict_len
    }

    /// The dictionary reader. With `bulk` (a serve session) the dictionary
    /// is fetched up front in two sequential reads, offsets then text, and
    /// words are slices of that; otherwise each word is read as it is asked
    /// for — thousands of tiny reads under the shared device lock.
    pub fn words(&self, bulk: bool) -> WordReader<'_> {
        let mut reader = WordReader::per_word(&self.dev, self.dict_offsets, self.dict_bytes);
        if bulk && self.dict_len > 0 {
            let mut offsets = vec![0u8; (self.dict_len + 1) * 8];
            self.dev.read_bytes(self.dict_offsets, &mut offsets);
            reader.bulk = offsets
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            reader.buf.resize((reader.bulk[self.dict_len] as usize).max(1), 0);
            self.dev.read_bytes(self.dict_bytes, &mut reader.buf);
        }
        reader
    }

    /// Persist everything allocated so far (end of the init phase under
    /// phase-level persistence).
    pub fn persist_all(&self) {
        self.pool.persist_used();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summation::{head_tail_info, upper_bounds};
    use ntadoc_grammar::{compress_corpus, TokenizerConfig};
    use ntadoc_pmem::DeviceProfile;

    fn sample() -> Compressed {
        let files = vec![
            ("a".into(), "x y z x y z x y w q x y".into()),
            ("b".into(), "x y z w w q x y z".into()),
        ];
        compress_corpus(&files, &TokenizerConfig::default())
    }

    /// Both halves of rule `r`'s pruned view, as owned lists.
    fn pruned_view(dag: &DagPool, r: u32) -> (FreqPairs, FreqPairs) {
        let mut buf = PoolBuf::default();
        let subs = dag.pruned_half(r, false, &mut buf).to_vec();
        (subs, dag.pruned_half(r, true, &mut buf).to_vec())
    }

    fn body(dag: &DagPool, r: u32) -> Vec<Symbol> {
        dag.body(r, &mut PoolBuf::default()).to_vec()
    }

    fn wordlist(dag: &DagPool, r: u32) -> Vec<(u32, u64)> {
        dag.wordlist(r, &mut PoolBuf::default()).unwrap().to_vec()
    }

    fn build(comp: &Compressed, pruned: bool, adjacent: bool) -> DagPool {
        build_with_layout(comp, pruned, adjacent, PoolLayoutConfig::Fixed)
    }

    fn build_with_layout(
        comp: &Compressed,
        pruned: bool,
        adjacent: bool,
        layout: PoolLayoutConfig,
    ) -> DagPool {
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 24));
        let pool = Arc::new(PmemPool::over_whole(dev));
        let info = head_tail_info(&comp.grammar, 2);
        let bounds = upper_bounds(&comp.grammar).bounds;
        DagPool::build(
            pool,
            comp,
            Some(&info),
            &DagBuildOptions {
                pruned,
                adjacent,
                bounds: Some(bounds),
                head_tail: Some(2),
                alloc_overhead_ns: 3_000,
                layout,
            },
        )
        .unwrap()
    }

    #[test]
    fn prune_rule_matches_paper_example() {
        // "R1 → R2 w3 R4 w4 R3 R2 R4 w4" prunes to
        // "R2×2 R4×2 R3 | w3 w4×2" (order of first occurrence).
        let body = vec![
            Symbol::rule(2),
            Symbol::word(3),
            Symbol::rule(4),
            Symbol::word(4),
            Symbol::rule(3),
            Symbol::rule(2),
            Symbol::rule(4),
            Symbol::word(4),
        ];
        let (subs, words) = prune_rule(&body);
        assert_eq!(subs, vec![(2, 2), (4, 2), (3, 1)]);
        assert_eq!(words, vec![(3, 1), (4, 2)]);
    }

    #[test]
    fn prune_rule_skips_separators() {
        let body = vec![Symbol::word(1), Symbol::file_sep(0), Symbol::word(1)];
        let (subs, words) = prune_rule(&body);
        assert!(subs.is_empty());
        assert_eq!(words, vec![(1, 2)]);
    }

    #[test]
    fn bodies_round_trip() {
        let comp = sample();
        let dag = build(&comp, true, true);
        for r in 0..comp.grammar.rule_count() as u32 {
            assert_eq!(body(&dag, r), comp.grammar.rules[r as usize].symbols, "rule {r}");
        }
    }

    #[test]
    fn pruned_views_round_trip() {
        let comp = sample();
        let dag = build(&comp, true, true);
        for r in 0..comp.grammar.rule_count() as u32 {
            let expect = prune_rule(&comp.grammar.rules[r as usize].symbols);
            assert_eq!(pruned_view(&dag, r), expect, "rule {r}");
        }
    }

    #[test]
    fn weights_update_and_reset() {
        let comp = sample();
        let dag = build(&comp, true, true);
        dag.set_weight(0, 1);
        dag.add_weight(0, 4);
        assert_eq!(dag.weight(0), 5);
        dag.reset_weights();
        assert_eq!(dag.weight(0), 0);
    }

    #[test]
    fn dictionary_reads_back_strings() {
        let comp = sample();
        let dag = build(&comp, true, true);
        // Word by word and from one bulk read, each through one reader.
        for bulk in [false, true] {
            let mut words = dag.words(bulk);
            for (id, w) in comp.dict.iter().chain(comp.dict.iter().take(2)) {
                assert_eq!(words.get(id), w, "bulk {bulk}");
            }
        }
    }

    #[test]
    fn wordlists_round_trip() {
        let comp = sample();
        let dag = build(&comp, true, true);
        let entries = vec![(3u32, 7u64), (9, 1_000_000_000_000)];
        dag.store_wordlist(1, &entries).unwrap();
        assert_eq!(wordlist(&dag, 1), entries);
        assert!(wordlist(&dag, 0).is_empty());
    }

    #[test]
    fn head_tail_store_is_populated() {
        let comp = sample();
        let dag = build(&comp, true, true);
        let info = head_tail_info(&comp.grammar, 2);
        let ht = dag.headtail.as_ref().unwrap();
        let mut buf = ntadoc_nstruct::WordBuf::default();
        for r in 0..comp.grammar.rule_count() {
            assert_eq!(ht.head(r, &mut buf), info.heads[r], "head {r}");
            assert_eq!(ht.tail(r, &mut buf), info.tails[r], "tail {r}");
        }
    }

    #[test]
    fn scattered_layout_costs_more_to_traverse() {
        let comp = sample();
        let adj = build(&comp, true, true);
        let scat = build(&comp, true, false);
        // Cold the caches (persist keeps contents, crash empties the
        // cache) so the traversal below pays real media-line fetches.
        for d in [&adj, &scat] {
            d.persist_all();
            d.dev().crash();
            d.dev().reset_stats();
        }
        for r in 0..comp.grammar.rule_count() as u32 {
            let _ = pruned_view(&adj, r);
            let _ = pruned_view(&scat, r);
        }
        let a = adj.dev().stats().virtual_ns;
        let s = scat.dev().stats().virtual_ns;
        assert!(s > a, "scattered {s} should cost more than adjacent {a}");
    }

    #[test]
    fn every_layout_decodes_identical_views_and_wordlists() {
        let comp = sample();
        let baseline = build(&comp, true, true);
        for lay in [PoolLayoutConfig::Fixed, PoolLayoutConfig::Varint] {
            let name = lay.name();
            let dag = build_with_layout(&comp, true, true, lay);
            for r in 0..comp.grammar.rule_count() as u32 {
                assert_eq!(pruned_view(&dag, r), pruned_view(&baseline, r), "{name} rule {r}");
                assert_eq!(body(&dag, r), body(&baseline, r), "{name} rule {r}");
            }
            let entries = vec![(3u32, 7u64), (9, 1_000_000_000_000), (u32::MAX, u64::MAX)];
            dag.store_wordlist(1, &entries).unwrap();
            assert_eq!(wordlist(&dag, 1), entries, "{name}");
            assert!(wordlist(&dag, 0).is_empty(), "{name}");
        }
    }

    #[test]
    fn varint_layout_touches_fewer_lines() {
        // The sample corpus is too small to span lines; synthesize one
        // with enough repeated phrases that pruned views carry real
        // weight against the 256 B line granularity.
        let mut text = String::new();
        for i in 0..400usize {
            for j in 0..8usize {
                text.push_str(&format!("tok{} ", (i * 7 + j * 13) % 120));
            }
            text.push_str("alpha beta gamma delta ");
        }
        let comp = compress_corpus(&[("big".into(), text)], &TokenizerConfig::default());
        // Cold pruned-view sweep under each layout.
        let lines = |lay: PoolLayoutConfig| {
            let d = build_with_layout(&comp, true, true, lay);
            d.persist_all();
            d.dev().crash();
            d.dev().reset_stats();
            for r in 0..comp.grammar.rule_count() as u32 {
                let _ = pruned_view(&d, r);
            }
            d.dev().stats().line_misses
        };
        let (f, v) = (lines(PoolLayoutConfig::Fixed), lines(PoolLayoutConfig::Varint));
        assert!(v < f, "varint should touch fewer lines: varint {v} vs fixed {f}");
    }

    #[test]
    fn unpruned_pool_panics_on_pruned_access() {
        let comp = sample();
        let dag = build(&comp, false, true);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pruned_view(&dag, 0)));
        assert!(result.is_err());
    }

    #[test]
    fn persisted_pool_survives_crash() {
        let comp = sample();
        let dag = build(&comp, true, true);
        let before = body(&dag, 0);
        dag.persist_all();
        dag.dev().crash();
        assert_eq!(body(&dag, 0), before);
    }
}
