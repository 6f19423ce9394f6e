//! The two persistence strategies of §IV-E.
//!
//! * **Operation-level** ([`TxLog`]) mirrors PMDK `libpmemobj`-style undo
//!   logging: before a range is modified inside a transaction its pre-image
//!   is copied into a persistent log and persisted; commit persists the
//!   modified data and retires the log. Crash during a transaction →
//!   [`TxLog::recover`] rolls the data back from the log. The extra log
//!   traffic is real device traffic, so write amplification shows up in the
//!   virtual clock exactly as the paper reports (Figure 5(b) vs 5(a)).
//! * **Phase-level** mirrors `libpmem` and needs no type here: data is
//!   written with plain stores and the engine flushes the pool wholesale
//!   and fences once at the end of each N-TADOC phase
//!   ([`PmemBackend::persist`]). Cheap during normal execution; on a crash
//!   the current phase's output is discarded and the phase re-runs from
//!   the previous checkpoint.
//!
//! # Corruption safety
//!
//! Under the torn-write crash model ([`crate::SimDevice::crash_torn`]) a log
//! entry that was being persisted when power failed may reach media
//! partially, at 8-byte granularity. The log therefore seals every entry
//! with a CRC bound to the owning transaction's id; recovery walks the
//! entries in order and **truncates at the first unsealed or corrupt
//! entry**. That truncation is safe by construction: an entry is made
//! durable (written, flushed, fenced) *before* the caller is allowed to
//! modify the data it covers, so a torn entry implies its data range is
//! still untouched and needs no undo. Recovery never trusts on-media
//! lengths or addresses blindly — a sealed entry whose target range falls
//! outside the device is reported as [`PmemError::CorruptImage`], never
//! applied, and arbitrary garbage in the log region can at worst roll
//! back zero entries.

use std::collections::HashSet;
use std::sync::Arc;

use crate::backend::PmemBackend;
use crate::device::Addr;
use crate::error::PmemError;
use crate::Result;

/// Byte layout of the undo log region:
/// ```text
/// [0]   u64 active tx id (0 = idle, N > 0 = transaction N open)
/// [8]   u64 last allocated tx id (bumped durably before activation)
/// [16..] entries: { u64 addr, u64 len, len bytes of pre-image, u64 seal }
/// ```
/// The seal is `SEAL_MAGIC ^ crc64(tx_id ‖ addr ‖ len ‖ pre-image)`.
/// Binding the seal to the tx id means entries left over from an earlier
/// retired transaction can never validate against the current one. The
/// activation word at `[0]` is a single 8-byte store, which the crash
/// model (like real NVM) treats as atomic.
const LOG_HEADER: u64 = 16;

/// Fixed bytes per entry beyond the pre-image: addr + len + seal.
const ENTRY_OVERHEAD: usize = 24;

/// XOR-ed over the entry CRC so an all-zero (or untouched) seal word never
/// validates even for an entry whose CRC happens to be zero.
const SEAL_MAGIC: u64 = 0x5EA1_ED10_0DE1_7A6Fu64;

/// CRC-64/XZ (ECMA-182, reflected). Self-contained so the substrate stays
/// dependency-free.
pub fn crc64(bytes: &[u8]) -> u64 {
    !crc64_update(!0, bytes)
}

/// The CRC-64/XZ polynomial (ECMA-182), reflected.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 tables: `CRC64_TABLES[0]` is the byte-at-a-time table;
/// `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Feed `bytes` into a running (pre-inverted) CRC, eight bytes per step.
fn crc64_update(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][(x >> 8 & 0xFF) as usize]
            ^ t[5][(x >> 16 & 0xFF) as usize]
            ^ t[4][(x >> 24 & 0xFF) as usize]
            ^ t[3][(x >> 32 & 0xFF) as usize]
            ^ t[2][(x >> 40 & 0xFF) as usize]
            ^ t[1][(x >> 48 & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC binding an entry to its transaction.
fn entry_crc(tx_id: u64, addr: u64, len: u64, pre: &[u8]) -> u64 {
    let mut head = [0u8; 24];
    head[..8].copy_from_slice(&tx_id.to_le_bytes());
    head[8..16].copy_from_slice(&addr.to_le_bytes());
    head[16..24].copy_from_slice(&len.to_le_bytes());
    !crc64_update(crc64_update(!0, &head), pre)
}

/// Undo-log transactions for operation-level persistence.
///
/// Generic over the storage backend: the same protocol runs against the
/// in-memory simulator and the file-backed device (see [`PmemBackend`]).
pub struct TxLog {
    dev: Arc<dyn PmemBackend>,
    log_base: Addr,
    log_capacity: usize,
    /// Write offset within the log region (valid while active).
    cursor: u64,
    /// Id of the open transaction (valid while active).
    tx_id: u64,
    active: bool,
    /// `(entry offset, target addr, target len)` for each entry of the
    /// open transaction, in log order.
    entry_index: Vec<(u64, Addr, usize)>,
    /// Ranges modified in the open transaction, persisted on commit.
    dirty_ranges: Vec<(Addr, usize)>,
    /// Ranges already logged in the open transaction (PMDK's
    /// `tx_add_range` is idempotent per transaction — re-logging the same
    /// range is skipped).
    logged: HashSet<(Addr, usize)>,
}

impl TxLog {
    /// Smallest log region [`TxLog::new`] accepts: the log header plus one
    /// empty entry.
    pub const MIN_CAPACITY: usize = LOG_HEADER as usize + ENTRY_OVERHEAD;

    /// Create a transaction log over `[log_base, log_base+log_capacity)`.
    /// The region must not overlap application data.
    pub fn new(dev: Arc<dyn PmemBackend>, log_base: Addr, log_capacity: usize) -> Self {
        assert!(log_capacity >= Self::MIN_CAPACITY, "log region too small");
        TxLog {
            dev,
            log_base,
            log_capacity,
            cursor: LOG_HEADER,
            tx_id: 0,
            active: false,
            entry_index: Vec::new(),
            dirty_ranges: Vec::new(),
            logged: HashSet::new(),
        }
    }

    /// Whether a transaction is currently open.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> Result<()> {
        if self.active {
            return Err(PmemError::TransactionAlreadyActive);
        }
        self.cursor = LOG_HEADER;
        self.entry_index.clear();
        self.dirty_ranges.clear();
        self.logged.clear();
        // Allocate the id durably *before* activating. A crash between the
        // two persists leaves the log idle (word [0] still zero), so the
        // id bump is harmlessly wasted; a crash after leaves word [0] and
        // word [8] consistent. Activation itself is one 8-byte store,
        // which the crash model treats as atomic.
        let new_id = self.dev.read_u64(self.log_base + 8).wrapping_add(1).max(1);
        self.dev.write_u64(self.log_base + 8, new_id);
        self.dev.persist(self.log_base + 8, 8);
        self.dev.write_u64(self.log_base, new_id);
        self.dev.persist(self.log_base, 8);
        self.tx_id = new_id;
        self.active = true;
        Ok(())
    }

    /// Log the pre-image of `[addr, addr+len)` before the caller modifies
    /// it. Idempotence is the caller's concern; logging a range twice is
    /// safe (recovery applies entries in reverse) but wastes log space.
    pub fn log_range(&mut self, addr: Addr, len: usize) -> Result<()> {
        if !self.active {
            return Err(PmemError::NoActiveTransaction);
        }
        if !self.logged.insert((addr, len)) {
            return Ok(()); // already undo-logged in this transaction
        }
        let needed = ENTRY_OVERHEAD + len;
        if self.cursor as usize + needed > self.log_capacity {
            return Err(PmemError::LogExhausted {
                needed: self.cursor as usize + needed,
                capacity: self.log_capacity,
            });
        }
        // Copy the pre-image through the device so the traffic is charged.
        let mut pre = vec![0u8; len];
        self.dev.try_read_bytes(addr, &mut pre)?;
        let entry_at = self.log_base + self.cursor;
        self.dev.try_write_u64(entry_at, addr)?;
        self.dev.try_write_u64(entry_at + 8, len as u64)?;
        self.dev.try_write_bytes(entry_at + 16, &pre)?;
        let seal = SEAL_MAGIC ^ entry_crc(self.tx_id, addr, len as u64, &pre);
        self.dev.try_write_u64(entry_at + 16 + len as u64, seal)?;
        // One persist makes the whole sealed entry durable before the data
        // may change; if this tears, the seal fails to validate and
        // recovery truncates here — safe, because the data is untouched.
        // It is a *seal* persist: the caller's data write may reach the
        // backing file (via any later fence) and survive a host crash, so
        // the undo entry — and, transitively, the activation marker
        // written before it — must be on stable storage first, or
        // recovery could find surviving data with no entry to undo it.
        self.dev.persist_seal(entry_at, needed);
        self.dev.note_log_bytes(needed as u64);
        self.entry_index.push((self.cursor, addr, len));
        self.cursor += needed as u64;
        self.dirty_ranges.push((addr, len));
        Ok(())
    }

    /// Commit: persist every modified range, then retire the log.
    ///
    /// The log-retire write is the commit record — the caller treats the
    /// operation as durable the moment this returns — so it goes out
    /// through a *seal* fence: backends staging durable writes in a
    /// volatile tier (the page cache) must sync before acknowledging,
    /// regardless of their per-fence policy. The seal barrier also
    /// hardens the data fence just before it.
    pub fn commit(&mut self) -> Result<()> {
        if !self.active {
            return Err(PmemError::NoActiveTransaction);
        }
        for &(addr, len) in &self.dirty_ranges {
            self.dev.flush(addr, len);
        }
        self.dev.fence();
        self.dev.write_u64(self.log_base, 0);
        self.dev.persist_seal(self.log_base, 8);
        self.active = false;
        Ok(())
    }

    /// Abort: roll the logged ranges back to their pre-images, then retire
    /// the log.
    pub fn abort(&mut self) -> Result<()> {
        if !self.active {
            return Err(PmemError::NoActiveTransaction);
        }
        let entries = std::mem::take(&mut self.entry_index);
        self.apply_undo(&entries)?;
        self.dev.write_u64(self.log_base, 0);
        // Like commit, the retire record is acknowledged state: seal it.
        self.dev.persist_seal(self.log_base, 8);
        self.active = false;
        Ok(())
    }

    /// Post-crash recovery: if the log was active at the crash, undo the
    /// partially-applied transaction. Returns `true` if a rollback ran.
    ///
    /// Walks the entries in log order, validating each seal against the
    /// recorded tx id, and truncates at the first unsealed or corrupt
    /// entry (see the module docs for why that is safe). A *sealed* entry
    /// whose target range falls outside the device means the protocol
    /// itself was violated and is reported as
    /// [`PmemError::CorruptImage`]; arbitrary garbage in the log region is
    /// handled without panicking.
    pub fn recover(&mut self) -> Result<bool> {
        self.active = false;
        self.entry_index.clear();
        self.dirty_ranges.clear();
        self.logged.clear();
        let state = self.dev.try_read_u64(self.log_base)?;
        if state == 0 {
            return Ok(false);
        }
        let tx_id = state;
        let valid = self.scan_valid_entries(tx_id)?;
        self.cursor =
            valid.last().map_or(LOG_HEADER, |&(off, _, len)| off + (ENTRY_OVERHEAD + len) as u64);
        self.apply_undo(&valid)?;
        self.dev.try_write_u64(self.log_base, 0)?;
        // Recovery's rollback must itself survive a host crash, or a
        // second restart would replay stale undo over post-recovery
        // writes: seal the retire record.
        self.dev.persist_seal(self.log_base, 8);
        Ok(true)
    }

    /// Read-only examination of the log region as left on media: what
    /// [`recover`](Self::recover) *would* do, without applying anything.
    /// This is what `fsck` reports. Returns [`PmemError::CorruptImage`]
    /// when a sealed entry targets an impossible range — the one state
    /// recovery cannot repair.
    pub fn inspect(&self) -> Result<TxLogInspection> {
        let active_tx = self.dev.try_read_u64(self.log_base)?;
        let last_tx_id = self.dev.try_read_u64(self.log_base + 8)?;
        let (valid_entries, undo_bytes) = if active_tx == 0 {
            (0, 0)
        } else {
            let valid = self.scan_valid_entries(active_tx)?;
            let bytes = valid.iter().map(|&(_, _, len)| len as u64).sum();
            (valid.len(), bytes)
        };
        Ok(TxLogInspection { active_tx, last_tx_id, valid_entries, undo_bytes })
    }

    /// Forward-walk the log, returning `(offset, addr, len)` for every
    /// entry whose seal validates against `tx_id`, stopping at the first
    /// that does not.
    fn scan_valid_entries(&self, tx_id: u64) -> Result<Vec<(u64, Addr, usize)>> {
        let log_capacity = self.log_capacity as u64;
        let device_capacity = self.dev.capacity();
        let mut valid = Vec::new();
        let mut cursor = LOG_HEADER;
        loop {
            if cursor + ENTRY_OVERHEAD as u64 > log_capacity {
                break; // no room for even an empty entry
            }
            let addr = self.dev.try_read_u64(self.log_base + cursor)?;
            let len = self.dev.try_read_u64(self.log_base + cursor + 8)?;
            // The recorded length is untrusted: reject before allocating
            // or reading anything based on it.
            let end_in_log =
                cursor.checked_add(ENTRY_OVERHEAD as u64).and_then(|e| e.checked_add(len));
            let end_in_log = match end_in_log {
                Some(e) if e <= log_capacity => e,
                _ => break, // truncate: length field is garbage
            };
            let mut pre = vec![0u8; len as usize];
            self.dev.try_read_bytes(self.log_base + cursor + 16, &mut pre)?;
            let seal = self.dev.try_read_u64(self.log_base + cursor + 16 + len)?;
            if seal != SEAL_MAGIC ^ entry_crc(tx_id, addr, len, &pre) {
                break; // truncate: torn, stale, or corrupt entry
            }
            // A sealed entry targeting an impossible range is corruption,
            // not mere truncation.
            match addr.checked_add(len) {
                Some(end) if end <= device_capacity => {}
                _ => {
                    return Err(PmemError::CorruptImage(format!(
                        "sealed undo entry targets [{addr:#x}, +{len}) outside device"
                    )))
                }
            }
            valid.push((cursor, addr, len as usize));
            cursor = end_in_log;
        }
        Ok(valid)
    }

    /// Apply `entries` newest-first, restoring pre-images. Every target
    /// range has been bounds-validated by the caller.
    fn apply_undo(&mut self, entries: &[(u64, Addr, usize)]) -> Result<()> {
        for &(off, addr, len) in entries.iter().rev() {
            let mut pre = vec![0u8; len];
            self.dev.try_read_bytes(self.log_base + off + 16, &mut pre)?;
            self.dev.try_write_bytes(addr, &pre)?;
            self.dev.persist(addr, len);
        }
        Ok(())
    }
}

/// What a read-only walk of the undo-log region found; see
/// [`TxLog::inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxLogInspection {
    /// Id of the transaction open at the crash (0 = log is clean).
    pub active_tx: u64,
    /// Last durably allocated transaction id.
    pub last_tx_id: u64,
    /// Sealed entries that validate and would roll back on recovery.
    pub valid_entries: usize,
    /// Total pre-image bytes those entries would restore.
    pub undo_bytes: u64,
}

impl TxLogInspection {
    /// Whether recovery has work to do (an interrupted transaction).
    pub fn needs_rollback(&self) -> bool {
        self.active_tx != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::profile::DeviceProfile;

    fn dev() -> Arc<SimDevice> {
        Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20))
    }

    const LOG_AT: Addr = 1 << 19;

    #[test]
    fn committed_tx_survives_crash() {
        let d = dev();
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 42);
        d.flush(0, 8); // data flush inside tx is allowed
        tx.commit().unwrap();
        d.crash();
        let mut tx2 = TxLog::new(d.clone(), LOG_AT, 4096);
        assert!(!tx2.recover().unwrap());
        assert_eq!(d.read_u64(0), 42);
    }

    #[test]
    fn uncommitted_tx_rolls_back_on_recovery() {
        let d = dev();
        d.write_u64(0, 7);
        d.persist(0, 8);
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 99);
        d.persist(0, 8); // even persisted data must roll back
        d.crash();
        let mut tx2 = TxLog::new(d.clone(), LOG_AT, 4096);
        assert!(tx2.recover().unwrap());
        assert_eq!(d.read_u64(0), 7);
    }

    #[test]
    fn abort_restores_pre_images_in_reverse() {
        let d = dev();
        d.write_u64(0, 1);
        d.persist(0, 8);
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 2);
        tx.log_range(0, 8).unwrap(); // second pre-image is 2
        d.write_u64(0, 3);
        tx.abort().unwrap();
        assert_eq!(d.read_u64(0), 1, "reverse application must restore the oldest image");
    }

    #[test]
    fn nested_begin_rejected() {
        let d = dev();
        let mut tx = TxLog::new(d, LOG_AT, 4096);
        tx.begin().unwrap();
        assert!(matches!(tx.begin(), Err(PmemError::TransactionAlreadyActive)));
    }

    #[test]
    fn log_outside_tx_rejected() {
        let d = dev();
        let mut tx = TxLog::new(d, LOG_AT, 4096);
        assert!(matches!(tx.log_range(0, 8), Err(PmemError::NoActiveTransaction)));
    }

    #[test]
    fn log_exhaustion_detected() {
        let d = dev();
        let mut tx = TxLog::new(d, LOG_AT, 64);
        tx.begin().unwrap();
        assert!(matches!(tx.log_range(0, 256), Err(PmemError::LogExhausted { .. })));
    }

    #[test]
    fn tx_logging_amplifies_writes() {
        // Writing N bytes under operation-level persistence must move more
        // device bytes than plain phase-level writes — that is the paper's
        // Figure 5(a)/(b) gap.
        let d_tx = dev();
        let mut tx = TxLog::new(d_tx.clone(), LOG_AT, 1 << 16);
        for i in 0..100u64 {
            tx.begin().unwrap();
            tx.log_range(i * 8, 8).unwrap();
            d_tx.write_u64(i * 8, i);
            tx.commit().unwrap();
        }
        let tx_ns = d_tx.stats().virtual_ns;

        let d_ph = dev();
        for i in 0..100u64 {
            d_ph.write_u64(i * 8, i);
        }
        d_ph.persist(0, 800);
        let ph_ns = d_ph.stats().virtual_ns;
        assert!(tx_ns > ph_ns * 2, "tx {tx_ns} should cost >2x phase {ph_ns}");
    }

    #[test]
    fn relogging_a_range_in_one_tx_is_free() {
        // PMDK's tx_add_range is idempotent per transaction: the second
        // log of the same range must not consume log space or device time
        // beyond the dedup check itself.
        let d = dev();
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        let after_first = d.stats().log_bytes;
        tx.log_range(0, 8).unwrap();
        assert_eq!(d.stats().log_bytes, after_first);
        tx.commit().unwrap();
        // A new transaction logs the range again.
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        assert!(d.stats().log_bytes > after_first);
        tx.commit().unwrap();
    }

    #[test]
    fn dedup_still_restores_the_tx_start_image() {
        let d = dev();
        d.write_u64(0, 1);
        d.persist(0, 8);
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 2);
        tx.log_range(0, 8).unwrap(); // deduped — pre-image stays 1
        d.write_u64(0, 3);
        tx.abort().unwrap();
        assert_eq!(d.read_u64(0), 1);
    }

    #[test]
    fn recover_on_clean_log_is_noop() {
        let d = dev();
        let mut tx = TxLog::new(d, LOG_AT, 4096);
        assert!(!tx.recover().unwrap());
    }

    #[test]
    fn recovery_truncates_at_torn_entry() {
        // Seal two entries, then corrupt the second one's payload on media
        // (as a torn persist would): recovery must apply only the first.
        let d = dev();
        d.write_u64(0, 1);
        d.write_u64(8, 2);
        d.persist(0, 16);
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 11);
        tx.log_range(8, 8).unwrap();
        d.write_u64(8, 22);
        d.persist(0, 16);
        // Entry 1 sits at LOG_HEADER + 24 + 8; smash one payload byte.
        let entry1_payload = LOG_AT + 16 + 32 + 16;
        d.poke(entry1_payload, &[0xFF]);
        let mut tx2 = TxLog::new(d.clone(), LOG_AT, 4096);
        assert!(tx2.recover().unwrap());
        assert_eq!(d.read_u64(0), 1, "entry 0 must roll back");
        assert_eq!(d.read_u64(8), 22, "the torn entry must be truncated, not applied");
    }

    #[test]
    fn stale_entries_from_a_previous_tx_never_validate() {
        // tx1 commits; tx2 begins and crashes before logging anything.
        // tx1's entries are still physically in the log region, but their
        // seals are bound to tx1's id — recovery must not roll them back.
        let d = dev();
        d.write_u64(0, 7);
        d.persist(0, 8);
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        tx.begin().unwrap();
        tx.log_range(0, 8).unwrap();
        d.write_u64(0, 8);
        d.persist(0, 8);
        tx.commit().unwrap();
        tx.begin().unwrap(); // activation is durable; no entries yet
        d.crash();
        let mut tx2 = TxLog::new(d.clone(), LOG_AT, 4096);
        assert!(tx2.recover().unwrap());
        assert_eq!(d.read_u64(0), 8, "committed data must survive: stale entries are dead");
    }

    #[test]
    fn sealed_entry_with_out_of_range_target_is_corrupt_not_panic() {
        // Hand-forge a correctly-sealed entry whose target lies outside
        // the device: recovery must return CorruptImage, never apply it.
        let d = dev();
        let bad_addr = d.capacity(); // one past the end
        let pre = [0u8; 8];
        let tx_id = 3u64;
        let mut entry = Vec::new();
        entry.extend_from_slice(&bad_addr.to_le_bytes());
        entry.extend_from_slice(&8u64.to_le_bytes());
        entry.extend_from_slice(&pre);
        entry.extend_from_slice(
            &(super::SEAL_MAGIC ^ super::entry_crc(tx_id, bad_addr, 8, &pre)).to_le_bytes(),
        );
        d.poke(LOG_AT, &tx_id.to_le_bytes()); // active tx id
        d.poke(LOG_AT + 8, &tx_id.to_le_bytes());
        d.poke(LOG_AT + 16, &entry);
        let mut tx = TxLog::new(d, LOG_AT, 4096);
        assert!(matches!(tx.recover(), Err(PmemError::CorruptImage(_))));
    }

    #[test]
    fn garbage_log_region_recovers_to_clean_without_rollback() {
        let d = dev();
        d.write_u64(0, 5);
        d.persist(0, 8);
        // Fill the log region with pseudo-random garbage and claim a
        // transaction was open.
        let mut rng = crate::faultsim::Prng::new(0xBAD);
        let garbage: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        d.poke(LOG_AT, &garbage);
        d.poke(LOG_AT, &1u64.to_le_bytes());
        let mut tx = TxLog::new(d.clone(), LOG_AT, 4096);
        // No sealed entry can validate against tx id 1 by chance, so this
        // must truncate at entry 0 and leave the data alone.
        assert!(tx.recover().unwrap());
        assert_eq!(d.read_u64(0), 5);
        // The log is retired afterwards.
        let mut tx2 = TxLog::new(d, LOG_AT, 4096);
        assert!(!tx2.recover().unwrap());
    }

    /// The definition, one bit at a time.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc64_tables_compute_crc64_xz() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA, "the CRC-64/XZ check value");
        // Every length around the eight-byte step, at every alignment.
        let data: Vec<u8> = (0..97u32).map(|i| (i * 151 + 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc64(&data[start..end]), crc64_bitwise(&data[start..end]));
            }
        }
    }

    #[test]
    fn crc64_is_stable_and_discriminating() {
        assert_ne!(crc64(b"hello"), crc64(b"hellp"));
        assert_eq!(crc64(b"hello"), crc64(b"hello"));
    }

    #[test]
    fn entry_crc_chains_like_one_buffer() {
        let pre = [7u8; 13];
        let mut whole = Vec::new();
        for v in [3u64, 4096, 13] {
            whole.extend_from_slice(&v.to_le_bytes());
        }
        whole.extend_from_slice(&pre);
        assert_eq!(entry_crc(3, 4096, 13, &pre), crc64(&whole));
    }
}
