//! The pool-file device: a real on-disk image under the simulator.
//!
//! [`PoolFile`] persists the pool to an ordinary file while keeping a
//! full [`SimDevice`] *twin* in memory. Every operation forwards to the
//! twin — so the cost model, access statistics, crash decisions, and
//! fault injection are byte-for-byte identical to a pure-sim run — and a
//! [`DeviceMirror`] hook installed in the twin writes the durable image
//! through to the file at exactly the moments the durable image changes:
//!
//! * **fence** — the lines whose flushes the fence retired are written to
//!   the file at their current (now durable) contents, preserving the
//!   write-through journal order the persistence protocols rely on;
//! * **crash** — an injected crash resolves the torn-write coin flips in
//!   the twin, then the post-crash bytes of every affected line are
//!   pushed to the file, so the *on-disk* image genuinely tears: unfenced
//!   lines revert, flushed-but-unfenced lines survive or revert per the
//!   seeded coin, and the interrupted store lands as an arbitrary subset
//!   of its 8-byte words;
//! * **poke** — debug writes pass straight through;
//! * **publish** — a published snapshot fingerprint is sealed into the
//!   header, and the file synced.
//!
//! Unfenced stores therefore never reach the file at all — they live only
//! in the twin, exactly as dirty cache lines live only in the CPU cache
//! on real hardware. Reopening a file after a crash sees precisely what a
//! real machine would find on its DIMMs after power loss.
//!
//! How bytes reach the file is the device's one parameter, the
//! [`StableStore`]: [`FileDevice`] is `PoolFile<PwriteStore>` (`pwrite`,
//! `fdatasync` barriers), [`MmapDevice`] is `PoolFile<MmapStore>` (stores
//! into a shared mapping, `msync` barriers). Both write the same format,
//! so `fsck` and either device open a pool the other wrote.
//!
//! The file is **not** synced on a plain fence: the crash model injects
//! failures *above* the OS (the process keeps running and rereads the
//! file it just wrote), so page-cache durability is not what the harness
//! tests. Seal fences and
//! [`publish_snapshot`](PmemBackend::publish_snapshot) always sync.
//!
//! # File layout
//!
//! ```text
//! [0..64)   header: magic "NTDCPOOL", version, line size, capacity,
//!           main/scratch/log region lengths, published snapshot
//!           fingerprint, CRC-64 seal
//! [64..)    pool bytes (sparse; holes read as zero)
//! ```

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::PmemBackend;
use crate::device::{Addr, DeviceMirror, SimDevice};
use crate::error::PmemError;
use crate::faultsim::Prng;
use crate::persist::{crc64, TxLog, TxLogInspection};
use crate::profile::DeviceProfile;
use crate::stats::AccessStats;
use crate::store::{data_extents, read_or_zero, MmapStore, PwriteStore, StableStore};
use crate::Result;

/// Magic bytes opening every pool file.
pub const POOL_MAGIC: [u8; 8] = *b"NTDCPOOL";

/// Current pool-file format version.
pub const POOL_VERSION: u32 = 1;

/// Byte offset where pool data begins (header size).
pub const POOL_DATA_AT: u64 = 64;

/// Largest pool capacity a header may declare. The engine's pool sizing
/// stops doubling here, so no pool it creates is larger; a header that
/// claims more is corrupt, and is refused before anything allocates a
/// twin of that size.
pub const MAX_POOL_CAPACITY: u64 = 1 << 35;

/// Region lengths of a pool, recorded in the file header so a reopen can
/// reconstruct the engine layout without re-deriving it from the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLayout {
    /// Total pool capacity in bytes.
    pub capacity: u64,
    /// Bytes of the main (DAG + results) region, starting at 0.
    pub main_len: u64,
    /// Bytes of the scratch region, at `main_len`.
    pub scratch_len: u64,
    /// Bytes of the undo-log region, at `main_len + scratch_len`.
    pub log_len: u64,
}

impl PoolLayout {
    /// Base address of the scratch region.
    pub fn scratch_base(&self) -> u64 {
        self.main_len
    }

    /// Base address of the undo-log region.
    pub fn log_base(&self) -> u64 {
        self.main_len + self.scratch_len
    }

    /// Why no pool can have this layout, if none can: the regions must
    /// tile the capacity exactly (no wrap-around), a log region is absent
    /// or large enough for [`TxLog`] to accept, and the capacity is one a
    /// pool can have. The caller picks the error: a header read from disk
    /// is corrupt, a create request is unsupported.
    fn validate(&self) -> std::result::Result<(), String> {
        let sum =
            self.main_len.checked_add(self.scratch_len).and_then(|s| s.checked_add(self.log_len));
        if sum != Some(self.capacity) {
            return Err(format!(
                "pool regions {} + {} + {} do not sum to capacity {}",
                self.main_len, self.scratch_len, self.log_len, self.capacity
            ));
        }
        if self.log_len != 0 && self.log_len < TxLog::MIN_CAPACITY as u64 {
            return Err(format!(
                "pool log region of {} bytes is too small to hold a log",
                self.log_len
            ));
        }
        if self.capacity > MAX_POOL_CAPACITY {
            return Err(format!(
                "pool capacity {} exceeds the {MAX_POOL_CAPACITY}-byte maximum",
                self.capacity
            ));
        }
        Ok(())
    }
}

/// The fixed 64-byte header at the front of every pool file:
/// magic (8) ‖ version (4) ‖ line_size (4) ‖ capacity (8) ‖ main_len (8)
/// ‖ scratch_len (8) ‖ log_len (8) ‖ snapshot (8) ‖ crc64 of the first 56
/// bytes (8).
///
/// The version word carries the format version in its low 16 bits and the
/// DAG-layout id (`dag_layout`) in its high 16 bits: the id rides inside
/// the CRC seal without growing the header, pools written before layouts
/// existed read back as id 0 (the legacy fixed-width encoding), and a
/// pre-layout binary handed a non-zero id refuses the pool loudly (it sees
/// an unsupported version) instead of misdecoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolHeader {
    /// Format version ([`POOL_VERSION`]).
    pub version: u32,
    /// Media line size the pool was created with.
    pub line_size: u32,
    /// Region layout.
    pub layout: PoolLayout,
    /// DAG-pool layout/encoding id sealed at create (0 = legacy
    /// fixed-width). The engine maps it to a decoder on reopen; the ids
    /// themselves are defined by the engine crate, the header only
    /// persists them.
    pub dag_layout: u16,
    /// Corpus-snapshot fingerprint published into this pool
    /// ([`crate::PmemBackend::publish_snapshot`]); zero until the first
    /// publish (and in pre-append pool files, which used these bytes as
    /// reserved zero flags — the format version is unchanged).
    pub snapshot: u64,
}

impl PoolHeader {
    /// Header for a fresh pool.
    pub fn new(line_size: usize, layout: PoolLayout) -> Self {
        PoolHeader {
            version: POOL_VERSION,
            line_size: line_size as u32,
            layout,
            dag_layout: 0,
            snapshot: 0,
        }
    }

    /// Header for a fresh pool whose DAG region uses layout `id`.
    pub fn with_dag_layout(mut self, id: u16) -> Self {
        self.dag_layout = id;
        self
    }

    /// Serialize to the on-disk form, sealing with CRC-64.
    pub fn to_bytes(&self) -> [u8; POOL_DATA_AT as usize] {
        let mut buf = [0u8; POOL_DATA_AT as usize];
        buf[..8].copy_from_slice(&POOL_MAGIC);
        let vword = (self.version & 0xFFFF) | ((self.dag_layout as u32) << 16);
        buf[8..12].copy_from_slice(&vword.to_le_bytes());
        buf[12..16].copy_from_slice(&self.line_size.to_le_bytes());
        buf[16..24].copy_from_slice(&self.layout.capacity.to_le_bytes());
        buf[24..32].copy_from_slice(&self.layout.main_len.to_le_bytes());
        buf[32..40].copy_from_slice(&self.layout.scratch_len.to_le_bytes());
        buf[40..48].copy_from_slice(&self.layout.log_len.to_le_bytes());
        buf[48..56].copy_from_slice(&self.snapshot.to_le_bytes());
        let seal = crc64(&buf[..56]);
        buf[56..64].copy_from_slice(&seal.to_le_bytes());
        buf
    }

    /// Parse and validate an on-disk header: magic, CRC seal, version,
    /// and internal layout consistency.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < POOL_DATA_AT as usize {
            return Err(PmemError::CorruptImage(format!(
                "pool file too short for a header: {} bytes",
                buf.len()
            )));
        }
        if buf[..8] != POOL_MAGIC {
            return Err(PmemError::CorruptImage("bad pool magic".into()));
        }
        let seal = u64::from_le_bytes(buf[56..64].try_into().expect("8 bytes"));
        if seal != crc64(&buf[..56]) {
            return Err(PmemError::CorruptImage("pool header CRC mismatch".into()));
        }
        let vword = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let version = vword & 0xFFFF;
        let dag_layout = (vword >> 16) as u16;
        if version != POOL_VERSION {
            return Err(PmemError::CorruptImage(format!(
                "pool version {version} (supported: {POOL_VERSION})"
            )));
        }
        let line_size = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
        let layout = PoolLayout {
            capacity: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
            main_len: u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes")),
            scratch_len: u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes")),
            log_len: u64::from_le_bytes(buf[40..48].try_into().expect("8 bytes")),
        };
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(PmemError::CorruptImage(format!("pool line size {line_size} invalid")));
        }
        layout.validate().map_err(PmemError::CorruptImage)?;
        let snapshot = u64::from_le_bytes(buf[48..56].try_into().expect("8 bytes"));
        Ok(PoolHeader { version, line_size, layout, dag_layout, snapshot })
    }

    /// Read and validate the header of an open pool file. A file shorter
    /// than a header is zero-extended, which the magic check then rejects.
    pub fn read(file: &File) -> Result<Self> {
        let mut head = [0u8; POOL_DATA_AT as usize];
        read_or_zero(file, 0, &mut head)?;
        Self::from_bytes(&head)
    }
}

/// What a simulated host crash did to the backing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCrashReport {
    /// Unsynced ranges whose new bytes survived (page made it to disk).
    pub kept: usize,
    /// Unsynced ranges reverted to their pre-write durable bytes.
    pub lost: usize,
}

/// The store plus the host-crash bookkeeping, shared by the write-through
/// mirror and the device handle.
///
/// Every write that has not yet been covered by a sync is tracked with
/// the *previous durable bytes* of its range: on a simulated host crash
/// (power loss above the page cache) each such range independently keeps
/// the new bytes or reverts to the pre-image, exactly as the OS may or
/// may not have written the dirty page out. Any sync — a seal fence or
/// `publish_snapshot` — empties the tracking: synced writes can no longer
/// be lost.
///
/// Mirror hooks run under the twin's state lock and cannot return errors;
/// an I/O failure here means the backing file is gone mid-run, which is
/// unrecoverable write-through loss — every method panics with the
/// underlying OS error rather than silently diverging from the twin.
struct Durable<S> {
    store: S,
    /// file offset → durable bytes the range held before its first
    /// unsynced overwrite. `BTreeMap` so host-crash coin flips consume
    /// the seeded RNG in a deterministic (offset) order.
    unsynced: BTreeMap<u64, Vec<u8>>,
    /// The header as created or opened; a publish rewrites its snapshot.
    header: PoolHeader,
}

/// Lock order everywhere: the twin's state lock (if held) first, this one
/// second — never reach into the twin while holding it.
fn lock<S>(durable: &Mutex<Durable<S>>) -> MutexGuard<'_, Durable<S>> {
    // Poisoned only by a failed write-through below, after which the
    // file no longer tracks the twin and nothing may trust it.
    durable.lock().expect("pool file lock poisoned by a failed write-through")
}

impl<S: StableStore> Durable<S> {
    fn sync(&mut self) {
        if let Err(e) = self.store.sync() {
            panic!("pool file sync failed: {e}");
        }
        self.unsynced.clear();
    }

    /// Write `bytes` at `offset`, recording the range's prior durable
    /// content first so a host crash can revert it.
    fn write_tracked(&mut self, offset: u64, bytes: &[u8]) {
        // First unsynced write of this range (or a longer rewrite):
        // capture what is durable on disk right now.
        if self.unsynced.get(&offset).is_none_or(|pre| pre.len() < bytes.len()) {
            let mut pre = vec![0u8; bytes.len()];
            if let Err(e) = self.store.read_at(offset, &mut pre) {
                panic!("pool file pre-image read failed at {offset:#x}: {e}");
            }
            self.unsynced.insert(offset, pre);
        }
        if let Err(e) = self.store.write_at(offset, bytes) {
            panic!("pool file write-through failed at {offset:#x}: {e}");
        }
    }

    /// Write lines through; a seal then syncs.
    fn write_lines(&mut self, lines: &[(u64, Vec<u8>)], seal: bool) {
        for (line, bytes) in lines {
            self.write_tracked(POOL_DATA_AT + line * u64::from(self.header.line_size), bytes);
        }
        if seal {
            self.sync();
        }
    }

    /// The host crash described above. Coins are drawn in offset order,
    /// so a seed is reproducible and identical across stores; `lose_all`
    /// reverts every range — the adversarial schedule. The file is then
    /// synced and tracking cleared: the survivors *are* the durable state.
    fn host_crash(&mut self, seed: u64, lose_all: bool) -> HostCrashReport {
        let mut rng = Prng::new(seed ^ 0x4855_4F53_5443_5253); // "HUOSTCRS"
        let mut report = HostCrashReport::default();
        for (offset, pre) in std::mem::take(&mut self.unsynced) {
            if lose_all || rng.next_u64() & 1 == 0 {
                if let Err(e) = self.store.write_at(offset, &pre) {
                    panic!("pool file host-crash revert failed at {offset:#x}: {e}");
                }
                report.lost += 1;
            } else {
                report.kept += 1;
            }
        }
        self.sync();
        report
    }
}

impl<S: StableStore> DeviceMirror for Mutex<Durable<S>> {
    fn on_fence(&self, lines: &[(u64, Vec<u8>)]) {
        lock(self).write_lines(lines, false);
    }

    fn on_seal(&self, lines: &[(u64, Vec<u8>)]) {
        // Seal fences carry recovery-critical state (header seals, TxLog
        // commit records): sync unconditionally, even with no lines of
        // their own — the barrier must also cover earlier
        // fenced-but-unsynced writes.
        lock(self).write_lines(lines, true);
    }

    fn on_crash(&self, lines: &[(u64, Vec<u8>)]) {
        // The crash already resolved what survived; push the torn image
        // out so the on-disk state is exactly the post-crash state.
        lock(self).write_lines(lines, false);
    }

    fn on_poke(&self, addr: Addr, bytes: &[u8]) {
        lock(self).write_tracked(POOL_DATA_AT + addr, bytes);
    }

    /// Seal the fingerprint into the on-disk header (a single 64-byte
    /// rewrite below the data region, so the twin address space is
    /// untouched) and sync. The sync also hardens every earlier
    /// fenced-but-unsynced data write: a published pool is host-crash
    /// consistent as a whole, not just its header.
    fn on_publish(&self, fingerprint: u64) {
        let mut durable = lock(self);
        durable.header.snapshot = fingerprint;
        let bytes = durable.header.to_bytes();
        durable.write_tracked(0, &bytes);
        durable.sync();
    }
}

/// Read `range` of `file` (file offsets) in chunks of `buf`'s length,
/// handing each `(pool address, bytes)` to `visit`; bytes past EOF read as
/// zeros.
fn for_each_chunk(
    file: &File,
    range: Range<u64>,
    buf: &mut [u8],
    mut visit: impl FnMut(u64, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut at = range.start;
    while at < range.end {
        let n = ((range.end - at) as usize).min(buf.len());
        let chunk = &mut buf[..n];
        read_or_zero(file, at, chunk)?;
        visit(at - POOL_DATA_AT, chunk)?;
        at += chunk.len() as u64;
    }
    Ok(())
}

/// A buffer for [`for_each_chunk`] over a pool of `capacity` bytes.
fn chunk_buffer(capacity: u64) -> Vec<u8> {
    vec![0u8; (1 << 20).min(capacity as usize)]
}

/// A fresh twin for `header`, loaded with the image `file` holds.
///
/// Only the file's data extents are read, through the descriptor: holes
/// read as zeros, which the fresh twin already holds. A shared mapping of
/// the file is never touched, so a reopen does not fault it in.
///
/// The header's line size must be the profile's
/// ([`PmemError::LineSizeMismatch`] otherwise): the on-disk image was torn
/// at *its* line granularity, and a profile that took the header's instead
/// would charge the run another device's costs.
fn load_twin(file: &File, header: &PoolHeader, profile: DeviceProfile) -> Result<Arc<SimDevice>> {
    if header.line_size as usize != profile.line_size {
        return Err(PmemError::LineSizeMismatch {
            pool: header.line_size.into(),
            profile: profile.line_size as u64,
        });
    }
    let capacity = header.layout.capacity;
    let twin = Arc::new(SimDevice::new(profile, capacity as usize));
    let mut buf = chunk_buffer(capacity);
    for extent in data_extents(file, POOL_DATA_AT..POOL_DATA_AT + capacity) {
        for_each_chunk(file, extent, &mut buf, |at, chunk| {
            // An extent may still hold zero pages: poke only the runs of
            // 4 KiB pages that hold a non-zero byte.
            const PAGE: usize = 4096;
            let mut run = None;
            for (i, page) in chunk.chunks(PAGE).enumerate() {
                let nonzero = page.iter().fold(0u8, |acc, &b| acc | b) != 0;
                match (nonzero, run) {
                    (true, None) => run = Some(i * PAGE),
                    (false, Some(start)) => {
                        twin.poke(at + start as u64, &chunk[start..i * PAGE]);
                        run = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run {
                twin.poke(at + start as u64, &chunk[start..]);
            }
            Ok(())
        })?;
    }
    Ok(twin)
}

/// Pool files back a durable image; a volatile profile has none.
pub fn require_persistent(profile: &DeviceProfile) -> Result<()> {
    if profile.kind.is_persistent() {
        return Ok(());
    }
    Err(PmemError::Unsupported(format!(
        "file-backed pools require a persistent profile; {} is volatile",
        profile.name
    )))
}

/// A pool persisted to a real file through store `S`, with a
/// [`SimDevice`] twin carrying the cost model. See the module docs for
/// the write-through contract.
pub struct PoolFile<S: StableStore> {
    twin: Arc<SimDevice>,
    path: PathBuf,
    header: PoolHeader,
    durable: Arc<Mutex<Durable<S>>>,
}

/// The pool file kept current with `pwrite`, synced with `fdatasync`.
pub type FileDevice = PoolFile<PwriteStore>;

/// The pool file kept current through a shared memory mapping, synced
/// with `msync` — the closest stand-in for DAX-mapped persistent memory
/// this environment can express.
pub type MmapDevice = PoolFile<MmapStore>;

impl<S: StableStore> PoolFile<S> {
    /// Create a fresh pool file at `path` (truncating any existing file)
    /// and return the device over it. The twin starts zeroed, matching
    /// the sparse data region.
    pub fn create(path: &Path, profile: DeviceProfile, layout: PoolLayout) -> Result<Arc<Self>> {
        Self::create_with_dag_layout(path, profile, layout, 0)
    }

    /// [`create`](Self::create) with a DAG-layout id sealed into the
    /// header (see [`PoolHeader::dag_layout`]).
    pub fn create_with_dag_layout(
        path: &Path,
        profile: DeviceProfile,
        layout: PoolLayout,
        dag_layout: u16,
    ) -> Result<Arc<Self>> {
        require_persistent(&profile)?;
        // Never write a header `open` would refuse to read back.
        layout.validate().map_err(PmemError::Unsupported)?;
        let header = PoolHeader::new(profile.line_size, layout).with_dag_layout(dag_layout);
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all_at(&header.to_bytes(), 0)?;
        // Sparse data region: holes read back as zeros, so a fresh pool
        // needs no eager zero-fill even at multi-GiB capacities.
        file.set_len(POOL_DATA_AT + layout.capacity)?;
        file.sync_all()?;
        let store = S::attach(file, POOL_DATA_AT + layout.capacity)?;
        let twin = Arc::new(SimDevice::new(profile, layout.capacity as usize));
        Ok(Self::assemble(path, header, twin, store))
    }

    /// Open an existing pool file (whichever store wrote it): validate
    /// the header, load the on-disk image into a fresh twin, and attach
    /// the write-through mirror. A file shorter than the header claims
    /// (e.g. truncated by a failure mid-grow) is tolerated: the missing
    /// tail reads as zeros, exactly like a sparse hole.
    pub fn open(path: &Path, profile: DeviceProfile) -> Result<Arc<Self>> {
        require_persistent(&profile)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let header = PoolHeader::read(&file)?;
        let twin = load_twin(&file, &header, profile)?;
        let store = S::attach(file, POOL_DATA_AT + header.layout.capacity)?;
        // A reopened pool resumes at the snapshot its header sealed.
        twin.publish_snapshot(header.snapshot);
        Ok(Self::assemble(path, header, twin, store))
    }

    /// Attach the mirror — only now, so that loading the image into the
    /// twin was not echoed back into the file.
    fn assemble(path: &Path, header: PoolHeader, twin: Arc<SimDevice>, store: S) -> Arc<Self> {
        let durable = Arc::new(Mutex::new(Durable { store, unsynced: BTreeMap::new(), header }));
        twin.attach_mirror(durable.clone());
        Arc::new(PoolFile { twin, path: path.to_path_buf(), header, durable })
    }
}

impl PoolFile<MmapStore> {
    /// See [`MmapStore::is_mapped`].
    pub fn is_mapped(&self) -> bool {
        lock(&self.durable).store.is_mapped()
    }
}

/// Everything forwards to the twin: costs and stats are identical to a
/// pure-sim run by construction, which is what makes the sim/file/mmap
/// cross-check meaningful. Crashes are armed on [`PoolDevice::twin`].
impl<S: StableStore> PmemBackend for PoolFile<S> {
    fn capacity(&self) -> u64 {
        self.twin.capacity()
    }

    fn try_read_bytes(&self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        self.twin.try_read_bytes(addr, buf)
    }

    fn try_write_bytes(&self, addr: Addr, buf: &[u8]) -> Result<()> {
        self.twin.try_write_bytes(addr, buf)
    }

    fn flush(&self, addr: Addr, len: usize) {
        self.twin.flush(addr, len)
    }

    fn fence(&self) {
        self.twin.fence()
    }

    fn fence_seal(&self) {
        self.twin.fence_seal()
    }

    fn charge_ns(&self, ns: u64) {
        self.twin.charge_ns(ns)
    }

    fn stats(&self) -> AccessStats {
        self.twin.stats()
    }

    fn note_log_bytes(&self, n: u64) {
        // pub(crate) on the twin; forwarded so log amplification ledgers
        // stay identical across backends.
        SimDevice::note_log_bytes(&self.twin, n)
    }

    /// The twin's mirror seals the fingerprint into the pool header
    /// ([`DeviceMirror::on_publish`]).
    fn publish_snapshot(&self, fingerprint: u64) -> Result<()> {
        self.twin.publish_snapshot(fingerprint);
        Ok(())
    }

    fn published_snapshot(&self) -> u64 {
        self.twin.published_snapshot()
    }
}

/// A [`PoolFile`] with its store erased: what the engine, the crash
/// sweeps, and `fsck` hold (`Arc<dyn PoolDevice>`) so that which store
/// keeps the file current is decided once, where the pool is opened.
pub trait PoolDevice: PmemBackend {
    /// The in-memory cost-model twin. High-bandwidth consumers (pools,
    /// DAG structures) talk to this directly; the mirror keeps the file
    /// coherent underneath them.
    fn twin(&self) -> &Arc<SimDevice>;

    /// The validated pool header as of open/create. The `snapshot` field
    /// reflects that moment; [`PmemBackend::published_snapshot`] tracks
    /// publishes made since.
    fn header(&self) -> &PoolHeader;

    /// Region layout recorded in the header.
    fn layout(&self) -> PoolLayout {
        self.header().layout
    }

    /// Path of the backing file.
    fn path(&self) -> &Path;

    /// Cross-backend ground truth: re-read the *file's* data region
    /// through a fresh read-only descriptor and compare it byte-for-byte
    /// against the twin's durable image. Returns the first divergence as
    /// [`PmemError::CorruptImage`].
    ///
    /// Unfenced twin state is, by design, not in the file — call this
    /// only at durability points (after a fence, a crash, or a reopen),
    /// where twin and file must agree exactly.
    fn verify_file_matches_device(&self) -> Result<()>;

    /// Number of written-but-unsynced file ranges a host crash could
    /// still lose. Zero right after any seal fence or
    /// [`publish_snapshot`](PmemBackend::publish_snapshot).
    fn unsynced_ranges(&self) -> usize;

    /// Simulate a **host** crash (power loss above the OS): every write
    /// since the last sync independently survives or reverts to its
    /// pre-write durable bytes, decided by a seeded coin per range — the
    /// same coins for the same seed and write history on either store.
    ///
    /// This is strictly harsher than the process-crash model the twin
    /// simulates — fenced lines the mirror wrote but never synced are
    /// fair game. After this call the twin no longer matches the file;
    /// drop the device and [`open`](PoolFile::open) the path again,
    /// exactly as a real restart would.
    fn host_crash(&self, seed: u64) -> HostCrashReport;

    /// [`host_crash`](Self::host_crash) under the adversarial schedule:
    /// *every* unsynced range is lost.
    fn host_crash_lose_all(&self) -> HostCrashReport;
}

impl<S: StableStore> PoolDevice for PoolFile<S> {
    fn twin(&self) -> &Arc<SimDevice> {
        &self.twin
    }

    fn header(&self) -> &PoolHeader {
        &self.header
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn verify_file_matches_device(&self) -> Result<()> {
        // A second, read-only descriptor: the file is checked by a path
        // the write-through never used (a shared mapping and `read` see
        // the same page cache), and no store lock is held across `peek`.
        let file = File::open(&self.path)?;
        let capacity = self.header.layout.capacity;
        let mut buf = chunk_buffer(capacity);
        for_each_chunk(&file, POOL_DATA_AT..POOL_DATA_AT + capacity, &mut buf, |at, disk| {
            let mem = self.twin.peek(at, disk.len());
            if disk == mem.as_slice() {
                return Ok(());
            }
            match disk.iter().zip(&mem).position(|(a, b)| a != b) {
                None => Ok(()),
                Some(off) => Err(PmemError::CorruptImage(format!(
                    "file and device diverge at {:#x}: file {:#04x} vs device {:#04x}",
                    at + off as u64,
                    disk[off],
                    mem[off]
                ))),
            }
        })
    }

    fn unsynced_ranges(&self) -> usize {
        lock(&self.durable).unsynced.len()
    }

    fn host_crash(&self, seed: u64) -> HostCrashReport {
        lock(&self.durable).host_crash(seed, false)
    }

    fn host_crash_lose_all(&self) -> HostCrashReport {
        lock(&self.durable).host_crash(0, true)
    }
}

/// What `fsck` found in a pool file; see [`fsck_pool`].
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// The validated header.
    pub header: PoolHeader,
    /// Actual length of the file on disk.
    pub file_len: u64,
    /// Whether the file is shorter than the header claims (tolerated:
    /// the tail reads as zeros).
    pub truncated: bool,
    /// Undo-log state as left on media.
    pub log: TxLogInspection,
    /// The first persistent preset whose line size is the pool's: what a
    /// deep check opens it with. `None` when no preset has that line
    /// size, so no run can open the pool (and `unrecoverable` says so).
    pub profile: Option<DeviceProfile>,
    /// `None` when the pool is recoverable; otherwise why it is not.
    pub unrecoverable: Option<String>,
}

impl FsckReport {
    /// Whether a reopen would recover this pool.
    pub fn recoverable(&self) -> bool {
        self.unrecoverable.is_none()
    }
}

/// Offline pool-file check: validate the header seal, load the image
/// read-only, and walk the undo log the way recovery would — without
/// modifying the file. Header corruption is an error ([`PmemError`]);
/// a *valid* file whose log is beyond repair yields `Ok` with
/// [`FsckReport::unrecoverable`] set, so callers can report both facts.
pub fn fsck_pool(path: &Path) -> Result<FsckReport> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let header = PoolHeader::read(&file)?;
    let layout = header.layout;
    let truncated = file_len < POOL_DATA_AT + layout.capacity;
    let presets = [
        DeviceProfile::nvm_optane(),
        DeviceProfile::reram(),
        DeviceProfile::pcm(),
        DeviceProfile::ssd_optane(0),
        DeviceProfile::hdd_sas(0),
    ];
    let line_size = header.line_size as usize;
    let profile = presets.iter().find(|p| p.line_size == line_size).cloned();
    let mut unrecoverable = profile.is_none().then(|| {
        let mut sizes: Vec<String> = presets.iter().map(|p| p.line_size.to_string()).collect();
        sizes.dedup();
        format!(
            "pool file was written at {line_size}-byte lines and no device profile has them \
             (their lines are {} bytes), so every open refuses it",
            sizes.join(", ")
        )
    });
    // A plain twin (no mirror: fsck never writes), read from the file as
    // it is: a short file is not extended. The log walk reads bytes, not
    // costs, so a pool no preset opens is still inspected.
    let inspect = || DeviceProfile { line_size, ..DeviceProfile::nvm_optane() };
    let twin = load_twin(&file, &header, profile.clone().unwrap_or_else(inspect))?;
    let mut log = TxLogInspection { active_tx: 0, last_tx_id: 0, valid_entries: 0, undo_bytes: 0 };
    if layout.log_len != 0 {
        match TxLog::new(twin, layout.log_base(), layout.log_len as usize).inspect() {
            Ok(found) => log = found,
            Err(e) => unrecoverable = unrecoverable.or(Some(e.to_string())),
        }
    }
    Ok(FsckReport { header, file_len, truncated, log, profile, unrecoverable })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pool path in a directory of its own, both removed when it drops.
    struct Tmp(PathBuf);

    impl std::ops::Deref for Tmp {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for Tmp {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Tmp {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// A fresh path per call: every test body runs once per store, and
    /// tests run in parallel.
    fn tmp(name: &str) -> Tmp {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let at = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("ntadoc-poolfile-{}-{name}-{at}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Tmp(dir.join(format!("{name}.pool")))
    }

    fn small_layout() -> PoolLayout {
        PoolLayout {
            capacity: 1 << 20,
            main_len: (1 << 20) - (1 << 16) - 4096,
            scratch_len: 4096,
            log_len: 1 << 16,
        }
    }

    fn nvm() -> DeviceProfile {
        DeviceProfile::nvm_optane()
    }

    fn create<S: StableStore>(name: &str) -> (Tmp, Arc<PoolFile<S>>) {
        let path = tmp(name);
        let dev = PoolFile::<S>::create(&path, nvm(), small_layout()).unwrap();
        (path, dev)
    }

    /// Run each generic body once per store.
    macro_rules! for_both_stores {
        ($($body:ident),* $(,)?) => {
            mod pwrite {
                $(#[test]
                fn $body() {
                    super::$body::<super::PwriteStore>()
                })*
            }
            mod mmap {
                $(#[test]
                fn $body() {
                    super::$body::<super::MmapStore>()
                })*
            }
        };
    }

    for_both_stores!(
        unfenced_stores_stay_out_of_the_file,
        reopen_after_clean_shutdown_restores_the_image,
        injected_crash_tears_the_on_disk_bytes,
        fsck_reports_clean_and_interrupted_pools,
        publish_snapshot_seals_the_header_and_hardens_prior_writes,
        refused_creates_leave_no_file,
        host_crash_loses_plain_fences_but_never_sealed_ones,
        host_crash_coin_flips_are_seed_deterministic,
        sparse_pools_reopen_to_their_file_bytes,
        a_header_cannot_change_the_line_size_of_the_run,
    );

    /// A 4 MiB pool whose data region is written straight into the file
    /// (`writes` at pool addresses) after it was created, then reopened
    /// through `S`: the twin must equal the file's data region.
    fn reopen_written<S: StableStore>(name: &str, writes: &[(u64, Vec<u8>)]) {
        const MIB: u64 = 1 << 20;
        let layout = PoolLayout {
            capacity: 4 * MIB,
            main_len: 4 * MIB - (1 << 16) - 4096,
            scratch_len: 4096,
            log_len: 1 << 16,
        };
        let path = tmp(name);
        drop(PoolFile::<S>::create(&path, nvm(), layout).unwrap());
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        for (addr, bytes) in writes {
            file.write_all_at(bytes, POOL_DATA_AT + addr).unwrap();
        }
        drop(file);
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        let mut disk = vec![0u8; layout.capacity as usize];
        read_or_zero(&File::open(&path).unwrap(), POOL_DATA_AT, &mut disk).unwrap();
        let twin = dev.twin().peek(0, disk.len());
        let diverged = twin.iter().zip(&disk).position(|(a, b)| a != b);
        assert_eq!(diverged, None, "{name}: twin and file differ at this pool address");
        dev.verify_file_matches_device().unwrap();
    }

    /// A reopen reads only the file's data extents: whatever holes the
    /// file system keeps, every byte written reaches the twin.
    fn sparse_pools_reopen_to_their_file_bytes<S: StableStore>() {
        const MIB: u64 = 1 << 20;
        // The first and last byte of every 1 MiB chunk, counted from the
        // data region and from the file's start alike.
        let edges: Vec<(u64, Vec<u8>)> = (0..4 * MIB)
            .step_by(MIB as usize)
            .flat_map(|chunk| [chunk, chunk + MIB - 1, chunk + MIB - POOL_DATA_AT - 1])
            .map(|addr| (addr, vec![addr as u8 | 1]))
            .chain([(4 * MIB - POOL_DATA_AT, vec![0xFF])])
            .collect();
        reopen_written::<S>("chunk-edges", &edges);
        // A non-zero page right after a hole: the file's bytes below 2 MiB
        // hold only the header.
        reopen_written::<S>("after-hole", &[(2 * MIB - POOL_DATA_AT, vec![0x5A; 4096])]);
        // Explicit zeros: a data region with no hole at all.
        reopen_written::<S>(
            "no-holes",
            &[(0, vec![0; 4 * MIB as usize]), (3 * MIB + 17, vec![9; 100]), (4 * MIB - 1, vec![1])],
        );
    }

    fn unfenced_stores_stay_out_of_the_file<S: StableStore>() {
        let (path, dev) = create::<S>("unfenced");
        dev.twin().write_u64(0, 0xAA);
        // Not flushed, not fenced: the file must still read zero.
        let file = File::open(&path).unwrap();
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, POOL_DATA_AT).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0);
        // Fence it through and the file catches up.
        dev.twin().persist(0, 8);
        file.read_exact_at(&mut buf, POOL_DATA_AT).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0xAA);
        dev.verify_file_matches_device().unwrap();
    }

    fn reopen_after_clean_shutdown_restores_the_image<S: StableStore>() {
        let (path, dev) = create::<S>("reopen");
        dev.twin().write_u64(4096, 123);
        dev.twin().write_u64(4104, 456);
        dev.twin().persist(4096, 16);
        drop(dev); // = process exit; only fenced state is in the file
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        assert_eq!(dev.twin().read_u64(4096), 123);
        assert_eq!(dev.twin().read_u64(4104), 456);
        dev.verify_file_matches_device().unwrap();
    }

    fn injected_crash_tears_the_on_disk_bytes<S: StableStore>() {
        let (path, dev) = create::<S>("torn");
        let d = dev.twin();
        d.write_u64(0, 7);
        d.persist(0, 8);
        d.write_u64(0, 99); // unfenced overwrite
        d.crash_torn(42);
        // Twin reverted to 7; the file must agree without a reopen.
        assert_eq!(d.read_u64(0), 7);
        dev.verify_file_matches_device().unwrap();
        // And a reopen from the real bytes sees the same state.
        drop(dev);
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        assert_eq!(dev.twin().read_u64(0), 7);
    }

    fn fsck_reports_clean_and_interrupted_pools<S: StableStore>() {
        let (path, dev) = create::<S>("fsck");
        let layout = small_layout();
        let mut tx = TxLog::new(dev.clone(), layout.log_base(), layout.log_len as usize);
        // Clean pool first.
        let report = fsck_pool(&path).unwrap();
        assert!(report.recoverable());
        assert!(!report.log.needs_rollback());
        // Open a transaction, log a range, crash mid-flight.
        dev.twin().write_u64(0, 1);
        dev.twin().persist(0, 8);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        dev.twin().write_u64(0, 2);
        dev.twin().persist(0, 8);
        dev.twin().crash_torn(7);
        let report = fsck_pool(&path).unwrap();
        assert!(report.recoverable());
        assert!(report.log.needs_rollback(), "active tx must be visible in the file");
        assert_eq!(report.log.valid_entries, 1);
    }

    fn a_header_cannot_change_the_line_size_of_the_run<S: StableStore>() {
        let (path, dev) = create::<S>("lines");
        let header = *dev.header();
        drop(dev);
        let reseal = |line_size| {
            let bytes = PoolHeader { line_size, ..header }.to_bytes();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.write_all_at(&bytes, 0).unwrap();
        };
        // Sealed with a valid CRC at 1-byte lines: a header that would
        // charge every byte as a media line if the run took its word.
        reseal(1);
        let refused = PoolFile::<S>::open(&path, nvm()).map(drop);
        assert_eq!(refused, Err(PmemError::LineSizeMismatch { pool: 1, profile: 256 }));
        let message = refused.unwrap_err().to_string();
        assert!(message.contains("1-byte") && message.contains("256-byte"), "{message}");
        let report = fsck_pool(&path).unwrap();
        assert!(report.profile.is_none());
        let why = report.unrecoverable.expect("no profile opens 1-byte lines");
        assert!(why.contains("1-byte lines") && why.contains("256"), "{why}");

        // A line size some profile has opens with that profile only.
        let ssd = DeviceProfile::ssd_optane(0);
        reseal(ssd.line_size as u32);
        let report = fsck_pool(&path).unwrap();
        assert!(report.recoverable());
        assert_eq!(report.profile.map(|p| p.line_size), Some(4096));
        assert!(PoolFile::<S>::open(&path, ssd).is_ok());
        let refused = PoolFile::<S>::open(&path, nvm()).map(drop);
        assert_eq!(refused, Err(PmemError::LineSizeMismatch { pool: 4096, profile: 256 }));
    }

    fn publish_snapshot_seals_the_header_and_hardens_prior_writes<S: StableStore>() {
        const FP: u64 = 0xABCD_EF01_2345_6789;
        let (path, dev) = create::<S>("publish");
        assert_eq!(dev.published_snapshot(), 0, "fresh pools are unpublished");
        dev.twin().write_u64(1024, 77);
        dev.twin().persist(1024, 8); // plain fence: exposed until the publish syncs
        dev.publish_snapshot(FP).unwrap();
        assert_eq!(dev.published_snapshot(), FP);
        // The seal is durable: fsck and a reopen both see it, and the
        // resealed header still validates.
        let report = fsck_pool(&path).unwrap();
        assert!(report.recoverable());
        assert_eq!(report.header.snapshot, FP);
        assert_eq!(dev.host_crash_lose_all().lost, 0, "publish synced the shared store");
        drop(dev);
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        assert_eq!(dev.twin().read_u64(1024), 77);
        assert_eq!(dev.published_snapshot(), FP);
        assert_eq!(dev.header().snapshot, FP);
    }

    fn refused_creates_leave_no_file<S: StableStore>() {
        let path = tmp("volatile");
        let err = PoolFile::<S>::create(&path, DeviceProfile::dram(), small_layout());
        assert!(matches!(err, Err(PmemError::Unsupported(_))));
        // Too large for a header to declare: a refused request (no image yet).
        let huge = MAX_POOL_CAPACITY * 2;
        let layout = PoolLayout { capacity: huge, main_len: huge, scratch_len: 0, log_len: 0 };
        let err = PoolFile::<S>::create(&path, nvm(), layout);
        assert!(matches!(err, Err(PmemError::Unsupported(_))));
        assert!(!path.exists(), "a rejected create must not leave a file behind");
    }

    #[test]
    fn hostile_headers_are_rejected() {
        let good = PoolHeader::new(256, small_layout()).to_bytes();
        // CRC-valid headers around a layout no pool can have.
        let sealed = |capacity, main_len, scratch_len, log_len| {
            PoolHeader::new(256, PoolLayout { capacity, main_len, scratch_len, log_len }).to_bytes()
        };
        let mut smashed = good;
        smashed[16..24].fill(0xFF); // capacity field; the seal must catch it
        let mut bad_magic = good;
        bad_magic[0] = b'X';
        let cap = small_layout().capacity;
        let cases = [
            ("CRC mismatch", smashed),
            ("bad pool magic", bad_magic),
            // Wraps to exactly `capacity` under unchecked addition.
            ("do not sum", sealed(cap, u64::MAX, 1, cap)),
            // Consistent, but nothing could ever allocate its twin.
            ("exceeds", sealed(1 << 60, (1 << 60) - 8192, 4096, 4096)),
            // `TxLog::new` asserts on a log region this small.
            ("too small", sealed(cap, cap - 4096 - 8, 4096, 8)),
        ];
        for (why, head) in cases {
            let rejected = |r: Result<()>| match r {
                Err(PmemError::CorruptImage(msg)) => assert!(msg.contains(why), "{why}: {msg}"),
                other => panic!("{why}: expected CorruptImage, got {other:?}"),
            };
            rejected(PoolHeader::from_bytes(&head).map(drop));
            let path = tmp("hostile");
            std::fs::write(&path, head).unwrap();
            rejected(fsck_pool(&path).map(drop));
            rejected(FileDevice::open(&path, nvm()).map(drop));
            rejected(MmapDevice::open(&path, nvm()).map(drop));
            assert_eq!(std::fs::read(&path).unwrap(), head, "a refused open changed the file");
        }
    }

    fn host_crash_loses_plain_fences_but_never_sealed_ones<S: StableStore>() {
        let (path, dev) = create::<S>("hostcrash");
        let d = dev.twin().clone();
        d.write_u64(0, 11);
        d.persist(0, 8); // plain fence: written to the file, not synced
        d.write_u64(256, 22);
        d.persist_seal(256, 8); // seal: unconditional sync, covers BOTH writes
        assert_eq!(dev.unsynced_ranges(), 0, "a seal leaves nothing to lose");
        d.write_u64(512, 33);
        d.persist(512, 8); // plain again: exposed until the next sync
        assert_eq!(dev.unsynced_ranges(), 1);
        let report = dev.host_crash_lose_all();
        assert_eq!(report, HostCrashReport { kept: 0, lost: 1 });
        drop(dev);
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        assert_eq!(dev.twin().read_u64(0), 11, "the seal barrier hardened the earlier fence");
        assert_eq!(dev.twin().read_u64(256), 22, "sealed write survives the host crash");
        assert_eq!(dev.twin().read_u64(512), 0, "unsynced fenced write is lost");
    }

    fn host_crash_coin_flips_are_seed_deterministic<S: StableStore>() {
        let images: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let (path, dev) = create::<S>("hostcrash-det");
                for i in 0..8u64 {
                    dev.twin().write_u64(i * 256, 0x1000 + i);
                    dev.twin().persist(i * 256, 8);
                }
                let report = dev.host_crash(1337);
                assert_eq!(report.kept + report.lost, 8);
                drop(dev);
                std::fs::read(&path).unwrap()
            })
            .collect();
        assert_eq!(images[0], images[1], "same seed must resolve the same survivors");
    }

    /// Write both ends of a pool, chop the file mid-image (e.g. a failure
    /// while growing the pool), reopen through `S`, and return the file
    /// length the open left behind.
    fn reopen_truncated<S: StableStore>() -> u64 {
        let (path, dev) = create::<S>("trunc");
        let layout = small_layout();
        dev.twin().write_u64(0, 5);
        dev.twin().write_u64(layout.capacity - 8, 9);
        dev.twin().persist(0, 8);
        dev.twin().persist(layout.capacity - 8, 8);
        drop(dev);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(POOL_DATA_AT + layout.capacity / 2).unwrap();
        drop(file);
        assert!(fsck_pool(&path).unwrap().truncated);
        let dev = PoolFile::<S>::open(&path, nvm()).unwrap();
        assert_eq!(dev.twin().read_u64(0), 5, "pre-truncation data survives");
        assert_eq!(dev.twin().read_u64(layout.capacity - 8), 0, "chopped tail reads as zeros");
        dev.verify_file_matches_device().unwrap();
        std::fs::metadata(&path).unwrap().len()
    }

    #[test]
    fn pwrite_store_leaves_a_truncated_file_short() {
        assert_eq!(reopen_truncated::<PwriteStore>(), POOL_DATA_AT + small_layout().capacity / 2);
    }

    #[test]
    fn mmap_store_extends_a_truncated_file_to_its_capacity() {
        assert_eq!(reopen_truncated::<MmapStore>(), POOL_DATA_AT + small_layout().capacity);
    }

    #[test]
    fn maps_for_real_on_linux() {
        let (_path, dev) = create::<MmapStore>("mapped");
        if cfg!(target_os = "linux") {
            assert!(dev.is_mapped(), "mmap must succeed on Linux");
        }
    }

    #[test]
    fn header_roundtrips() {
        let h = PoolHeader::new(256, small_layout()).with_dag_layout(3);
        assert_eq!(PoolHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn pools_written_by_one_store_open_under_the_other() {
        // One format, two access paths, and fsck reads both.
        let path = tmp("interop");
        {
            let md = MmapDevice::create(&path, nvm(), small_layout()).unwrap();
            md.twin().write_u64(4096, 777);
            md.twin().persist(4096, 8);
            md.publish_snapshot(0xBEEF).unwrap();
        }
        let report = fsck_pool(&path).unwrap();
        assert!(report.recoverable());
        assert_eq!(report.header.snapshot, 0xBEEF);
        {
            let fd = FileDevice::open(&path, nvm()).unwrap();
            assert_eq!(fd.twin().read_u64(4096), 777);
            fd.twin().write_u64(8192, 888);
            fd.twin().persist(8192, 8);
            fd.publish_snapshot(0xBEE0).unwrap();
        }
        let md = MmapDevice::open(&path, nvm()).unwrap();
        assert_eq!(md.twin().read_u64(4096), 777);
        assert_eq!(md.twin().read_u64(8192), 888);
        assert_eq!(md.published_snapshot(), 0xBEE0);
        md.verify_file_matches_device().unwrap();
    }

    #[test]
    fn torn_crash_resolves_identically_on_sim_file_and_mmap() {
        // The same seed must resolve the same survivors in a pure sim run
        // and under either store — and each file must hold exactly the
        // torn image.
        let layout = small_layout();
        for seed in [1u64, 7, 42, 1337] {
            let sim = Arc::new(SimDevice::new(nvm(), layout.capacity as usize));
            let (_fpath, fd) = create::<PwriteStore>("xchk-file");
            let (_mpath, md) = create::<MmapStore>("xchk-mmap");
            for dev in [&sim, fd.twin(), md.twin()] {
                for i in 0..16u64 {
                    dev.write_u64(i * 256, i + 1); // one store per line
                }
                for i in 0..8u64 {
                    dev.flush(i * 256, 8); // flush half, fence none
                }
                dev.crash_torn(seed);
            }
            // One read per line on every device: reads advance virtual time.
            let lines = |d: &SimDevice| (0..16).map(|i| d.read_u64(i * 256)).collect::<Vec<u64>>();
            let want = lines(&sim);
            for (name, twin) in [("file", fd.twin()), ("mmap", md.twin())] {
                assert_eq!(want, lines(twin), "seed {seed}: survivors differ ({name})");
                assert_eq!(
                    sim.stats().virtual_ns,
                    twin.stats().virtual_ns,
                    "seed {seed}: virtual time must not depend on the backend"
                );
            }
            fd.verify_file_matches_device().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            md.verify_file_matches_device().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn host_crash_flips_the_same_coins_on_both_stores() {
        // Same writes, same seed → the same ranges survive, so the
        // recovered pool files are byte-identical.
        let (fpath, fd) = create::<PwriteStore>("hc-file");
        let (mpath, md) = create::<MmapStore>("hc-mmap");
        for dev in [fd.twin(), md.twin()] {
            for i in 0..8u64 {
                dev.write_u64(i * 256, 0xC0 + i);
                dev.persist(i * 256, 8);
            }
        }
        assert_eq!(fd.host_crash(99), md.host_crash(99), "identical histories, identical coins");
        drop(fd);
        drop(md);
        let fbytes = std::fs::read(&fpath).unwrap();
        let mbytes = std::fs::read(&mpath).unwrap();
        assert_eq!(fbytes, mbytes, "host-crashed pools must be byte-identical");
    }
}
