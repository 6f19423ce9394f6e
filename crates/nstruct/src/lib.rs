//! NVM-pool-adapted data structures (paper §IV-D).
//!
//! Standard-library containers allocate from the process heap and resize by
//! reallocate-and-copy, which on NVM turns into storms of read-modify-write
//! traffic (§III-A, challenge 2). The containers here are the paper's
//! answer:
//!
//! * [`PVec`] — a vector whose storage is bump-allocated from a
//!   [`PmemPool`](ntadoc_pmem::PmemPool); ideally pre-sized from the bottom-up summation's upper
//!   bound so it never reconstructs, but able to reconstruct (at realistic,
//!   fully charged cost) when it must,
//! * [`PHashTable`] — the open-addressing hash table of Figure 4: separate
//!   status / key / value buffers, power-of-two capacity for cache-friendly
//!   masking, pseudo-random probing on collisions,
//! * [`HeadTailStore`] — fixed-width per-rule head/tail word buffers that
//!   make sequence analytics possible without expanding whole rules,
//! * [`PQueue`] — the pool-resident traversal queue of Figure 3.
//!
//! All device traffic flows through `ntadoc-pmem`, so every structure's
//! cost (including reconstruction storms) lands on the virtual clock.
//!
//! # Failure modes
//!
//! The structures fail loudly when the paper's sizing invariants are
//! violated rather than corrupting state. [`PHashTable`] in particular
//! (see its module docs for the full contract):
//!
//! * a probe over a 100%-full or status-corrupted table panics with
//!   len/cap/fixed diagnostics instead of livelocking;
//! * counter updates use checked arithmetic — a `u64` overflow panics in
//!   release builds too, never wrapping silently;
//! * a grow required while an undo-log transaction is open is refused
//!   with [`PmemError::GrowDuringTransaction`](ntadoc_pmem::PmemError)
//!   (reconstruction writes are not undo-logged, so a crash before commit
//!   could not roll back); callers commit, grow, and retry;
//! * buffers abandoned by reconstructions are tracked
//!   ([`PHashTable::leaked_bytes`]) and surfaced as a
//!   `{label}.leaked_bytes` gauge, so footprint metrics cannot
//!   under-report NVM consumption after rehashes.

pub mod headtail;
pub mod phash;
pub mod pqueue;
pub mod pvec;

pub use headtail::{HeadTailStore, WordBuf};
pub use phash::PHashTable;
pub use pqueue::PQueue;
pub use pvec::PVec;
