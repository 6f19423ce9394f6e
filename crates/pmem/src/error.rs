//! Error type shared across the pmem substrate.

use std::fmt;

/// Errors raised by the simulated persistent-memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// An access touched bytes beyond the end of the device.
    OutOfBounds {
        /// First byte of the offending access.
        addr: u64,
        /// Length of the offending access in bytes.
        len: usize,
        /// Total capacity of the device in bytes.
        capacity: u64,
    },
    /// A pool allocation did not fit in the remaining pool space.
    PoolExhausted {
        /// Bytes requested from the pool.
        requested: usize,
        /// Bytes still available in the pool.
        available: u64,
    },
    /// A transaction operation was issued outside an active transaction.
    NoActiveTransaction,
    /// A nested `tx_begin` was issued; the undo log is single-level.
    TransactionAlreadyActive,
    /// The undo-log region is too small for the ranges logged so far.
    LogExhausted {
        /// Bytes the log would need to hold.
        needed: usize,
        /// Capacity of the log region.
        capacity: usize,
    },
    /// Recovery found a corrupt or truncated persistent image.
    CorruptImage(String),
    /// The media raised an uncorrectable error (or exhausted the bounded
    /// retry budget for a transient fault) on the line containing `addr`.
    MediaError {
        /// First byte of the faulted media line.
        addr: u64,
    },
    /// A structure needed to grow (bulk reconstruction into fresh buffers)
    /// while an undo-log transaction was open. Reconstruction writes are
    /// not undo-logged, so growing mid-transaction would make a crash
    /// before commit unrecoverable by rollback; the caller must commit,
    /// grow outside any transaction, and retry.
    GrowDuringTransaction {
        /// Live entries at the refused grow.
        len: usize,
        /// Slot capacity at the refused grow.
        cap: usize,
    },
    /// A host-side length or count did not fit the fixed-width field the
    /// on-pool format stores it in (`u32` length tables, etc.). Raised by
    /// checked conversions at the write sites instead of letting an
    /// `as u32` cast wrap silently on huge corpora.
    TooLarge {
        /// Which field overflowed (e.g. `"rule body length"`).
        what: &'static str,
        /// The value that did not fit.
        len: u64,
        /// The largest value the field can hold.
        max: u64,
    },
    /// The requested operation is not available in the current mode or
    /// configuration (the message says what was asked and why it cannot
    /// be served).
    Unsupported(String),
    /// A pool file was written at one media line size and opened with a
    /// device profile of another. Torn writes and every cost are charged
    /// per line, so the file's image and the run's cost model would
    /// disagree; the pool is refused rather than either being rewritten.
    LineSizeMismatch {
        /// Line size the pool file's header records.
        pool: u64,
        /// Line size of the profile the run opened it with.
        profile: u64,
    },
    /// A file-backed operation failed at the OS level (open, read, write,
    /// sync). Carries the stringified `std::io::Error` so the error type
    /// stays `Clone + Eq` across the substrate.
    Io(String),
}

impl From<std::io::Error> for PmemError {
    fn from(e: std::io::Error) -> Self {
        PmemError::Io(e.to_string())
    }
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::OutOfBounds { addr, len, capacity } => write!(
                f,
                "access of {len} bytes at {addr:#x} exceeds device capacity {capacity:#x}"
            ),
            PmemError::PoolExhausted { requested, available } => write!(
                f,
                "pool allocation of {requested} bytes exceeds remaining {available} bytes"
            ),
            PmemError::NoActiveTransaction => {
                write!(f, "operation requires an active transaction")
            }
            PmemError::TransactionAlreadyActive => {
                write!(f, "a transaction is already active; the undo log is single-level")
            }
            PmemError::LogExhausted { needed, capacity } => {
                write!(f, "undo log needs {needed} bytes but its region holds only {capacity}")
            }
            PmemError::CorruptImage(msg) => write!(f, "corrupt persistent image: {msg}"),
            PmemError::MediaError { addr } => {
                write!(f, "uncorrectable media error at {addr:#x}")
            }
            PmemError::GrowDuringTransaction { len, cap } => write!(
                f,
                "table must grow ({len} entries at capacity {cap}) but an undo-log \
                 transaction is open; commit, grow, then retry"
            ),
            PmemError::TooLarge { what, len, max } => {
                write!(f, "{what} {len} does not fit its on-pool field (max {max})")
            }
            PmemError::LineSizeMismatch { pool, profile } => write!(
                f,
                "pool file was written at {pool}-byte lines but the device profile has \
                 {profile}-byte lines"
            ),
            PmemError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            PmemError::Io(msg) => write!(f, "pool file I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for PmemError {}
