//! Simulated byte-addressable persistent-memory substrate for N-TADOC.
//!
//! The paper evaluates N-TADOC on Intel Optane persistent memory in
//! direct-access mode, plus SSD/HDD block devices for comparison. None of
//! that hardware is available in this environment, so this crate provides a
//! deterministic *simulated* device with a virtual-time cost model that
//! reproduces the properties the paper's design exploits:
//!
//! * **byte addressability** behind typed load/store helpers,
//! * **asymmetric read/write latency** (NVM writes are several times more
//!   expensive than reads),
//! * **media access granularity** — Optane's physical 3D-XPoint media works
//!   in 256 B lines; touching `n` distinct lines costs `n` line transfers, so
//!   poor locality shows up as access amplification exactly as described in
//!   the paper's §III-A,
//! * **a cache in front of the media** — a set-associative write-back LRU
//!   that models the CPU cache hierarchy for byte-addressable devices and
//!   the (budgeted) page cache for block devices,
//! * **explicit persistence** — `flush`/`fence` primitives, undo-log
//!   transactions, and crash simulation that discards lines which were dirty
//!   and unflushed at the point of failure.
//!
//! Time is *virtual*: every access charges nanoseconds to the device clock
//! instead of sleeping, which keeps full experiment sweeps deterministic and
//! fast while preserving relative orderings (who wins, by what factor).
//!
//! # Example
//!
//! ```
//! use ntadoc_pmem::{SimDevice, DeviceProfile};
//!
//! let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20);
//! let addr = 4096;
//! dev.write_u64(addr, 0xdead_beef);
//! assert_eq!(dev.read_u64(addr), 0xdead_beef);
//! dev.flush(addr, 8);
//! dev.fence();
//! assert!(dev.stats().virtual_ns > 0);
//! ```

pub mod alloc;
pub mod backend;
pub mod cache;
pub mod device;
pub mod error;
pub mod faultsim;
pub mod json;
pub mod ledger;
pub mod obs;
pub mod par;
pub mod persist;
pub mod pod;
pub mod poolfile;
pub mod profile;
pub mod stats;
pub mod store;

pub use alloc::PmemPool;
pub use backend::PmemBackend;
pub use device::{
    with_deferred_charges, Addr, DeferredCharges, DeferredReads, DeviceMirror, Reads, SimDevice,
    CRASH_PANIC,
};
pub use error::PmemError;
pub use faultsim::{
    for_each_case, panic_is_injected_crash, run_with_crash_at, sweep_ctx, torn_line_survives,
    torn_word_survives, CrashPoint, CrashRun, Prng,
};
pub use json::{Json, JsonError};
pub use ledger::AllocLedger;
pub use obs::{MetricRegistry, MetricValue, MetricsSnapshot, Obs, SpanNode};
pub use persist::{crc64, TxLog, TxLogInspection};
pub use pod::Pod;
pub use poolfile::{
    fsck_pool, FileDevice, FsckReport, HostCrashReport, MmapDevice, PoolDevice, PoolFile,
    PoolHeader, PoolLayout, MAX_POOL_CAPACITY, POOL_DATA_AT, POOL_MAGIC, POOL_VERSION,
};
pub use profile::{DeviceKind, DeviceProfile};
pub use stats::AccessStats;
pub use store::{MmapStore, PwriteStore, StableStore};

/// Convenient result alias for fallible pmem operations.
pub type Result<T> = std::result::Result<T, PmemError>;
