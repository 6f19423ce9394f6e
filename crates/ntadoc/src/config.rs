//! Engine configuration: the design knobs of §IV, plus the calibrated
//! cost constants for CPU-side and disk work.

/// DAG traversal strategy (§VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Pick per task: bottom-up for file-oriented tasks on many-file
    /// corpora, top-down otherwise.
    Auto,
    /// Propagate rule weights from `R0` downward; file-oriented tasks
    /// re-propagate per file (pathological when files are many).
    TopDown,
    /// Build per-rule word lists bottom-up, then scan `R0` once per file.
    BottomUp,
}

/// Persistence strategy (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// No persistence (volatile DRAM runs — original TADOC).
    None,
    /// `libpmem` style: flush + fence at each phase boundary.
    PhaseLevel,
    /// PMDK `libpmemobj` style: undo-log transaction around every
    /// operation batch (high write amplification).
    OperationLevel,
}

// Modeled CPU and disk costs in nanoseconds, charged onto the engine's
// device clock so total virtual time includes compute, not just memory
// traffic. Values approximate a ~3 GHz core doing hash-and-add work per
// item.

/// Per token / symbol visited by an analytics loop.
pub(crate) const PER_ITEM_NS: u64 = 3;
/// Per comparison during host-side sorting of results.
pub(crate) const PER_COMPARE_NS: u64 = 12;
/// Fixed cost of opening/mapping a persistent pool at init (namespace
/// lookup, mmap, header validation). Paid once per run on persistent
/// devices; this is why small datasets benefit least from NVM (paper
/// §VI-B, §VI-F limitations).
pub(crate) const POOL_OPEN_NS: u64 = 2_000_000;
/// Per-object cost of a PMDK-style persistent allocator (paid by the
/// scattered/naive layout on persistent devices; §III-B).
pub(crate) const PMDK_ALLOC_NS: u64 = 3_000;
/// Per-object cost of `malloc` (paid by the scattered layout on DRAM).
pub(crate) const MALLOC_NS: u64 = 80;
/// Disk the corpus image is loaded from at init: latency per file.
const DISK_LATENCY_NS: u64 = 50_000;
/// Disk streaming bandwidth in bytes per microsecond (~2 GB/s NVMe).
const DISK_BW_BYTES_PER_US: u64 = 2_000;

/// Cost of streaming `bytes` from the source disk.
pub(crate) fn disk_read_ns(bytes: u64) -> u64 {
    DISK_LATENCY_NS + bytes * 1000 / (DISK_BW_BYTES_PER_US * 1000)
}

/// Full engine configuration. The three boolean knobs are exactly the
/// paper's design points, so switching them off individually gives the
/// ablation study, and switching them all off gives the naive
/// "TADOC-with-an-NVM-allocator" baseline of §III-B.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// §IV-B pruning: store deduplicated `(id, freq)` subrule/word views
    /// and traverse those instead of raw ordered bodies.
    pub pruned: bool,
    /// §IV-B pool management: lay rules out adjacently in traversal order;
    /// `false` scatters rule bodies across the pool as a general-purpose
    /// allocator would.
    pub adjacent_layout: bool,
    /// §IV-C summation: pre-size word-list containers from bottom-up upper
    /// bounds; `false` starts containers small and lets them reconstruct.
    pub presize: bool,
    /// Traversal strategy.
    pub traversal: Traversal,
    /// Persistence strategy.
    pub persistence: Persistence,
    /// `n` for sequence count / ranked inverted index (n-grams).
    pub ngram: usize,
}

impl EngineConfig {
    /// The paper's full system.
    pub fn ntadoc() -> Self {
        EngineConfig {
            pruned: true,
            adjacent_layout: true,
            presize: true,
            traversal: Traversal::Auto,
            persistence: Persistence::PhaseLevel,
            ngram: 3,
        }
    }

    /// N-TADOC with operation-level persistence (Figure 5 (b)).
    pub fn ntadoc_oplevel() -> Self {
        EngineConfig { persistence: Persistence::OperationLevel, ..Self::ntadoc() }
    }

    /// The §III-B baseline: previous TADOC methods with the allocator
    /// pointed at NVM and "methods unchanged" — raw ordered bodies,
    /// scattered allocation, growable containers.
    pub fn naive() -> Self {
        EngineConfig {
            pruned: false,
            adjacent_layout: false,
            presize: false,
            traversal: Traversal::Auto,
            persistence: Persistence::PhaseLevel,
            ngram: 3,
        }
    }

    /// Original TADOC on DRAM: the mature system of \[1\]-\[4\] — rules store
    /// deduplicated `(element, weight)` views and traversal is the TADOC
    /// algorithm, but containers are STL-style growable maps (no NVM
    /// summation) and nothing is persisted. This is the Figure 6
    /// theoretical upper bound.
    pub fn tadoc_dram() -> Self {
        EngineConfig { presize: false, persistence: Persistence::None, ..Self::ntadoc() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_right_knobs() {
        let nt = EngineConfig::ntadoc();
        assert!(nt.pruned && nt.adjacent_layout && nt.presize);
        assert_eq!(nt.persistence, Persistence::PhaseLevel);

        let nv = EngineConfig::naive();
        assert!(!nv.pruned && !nv.adjacent_layout && !nv.presize);

        let td = EngineConfig::tadoc_dram();
        assert_eq!(td.persistence, Persistence::None);
        assert!(td.pruned && !td.presize);

        let op = EngineConfig::ntadoc_oplevel();
        assert_eq!(op.persistence, Persistence::OperationLevel);
        assert!(op.pruned);
    }

    #[test]
    fn disk_read_cost_scales_with_bytes() {
        assert!(disk_read_ns(1 << 20) > disk_read_ns(1 << 10));
        assert_eq!(disk_read_ns(0), DISK_LATENCY_NS);
    }
}
