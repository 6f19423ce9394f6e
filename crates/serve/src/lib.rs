//! Multi-tenant query service over a resident [`ntadoc::ServeSession`].
//!
//! The engine crate answers one batch of typed [`ntadoc::Query`]s at a time;
//! this crate turns that into a *daemon*: queries from N tenants arrive over
//! (virtual) time, are admission-controlled per tenant, coalesced into
//! batches so one DAG traversal amortizes across tenants, and answered from
//! a result cache when an identical query already ran — a cache hit touches
//! **zero** device lines. A daemon serves the one snapshot its session was
//! opened on; serving another corpus means building another daemon.
//!
//! Four layers:
//!
//! * [`ResultCache`] — `QueryKey → Arc<TaskRows>` (dictionary ids, never
//!   strings) with FIFO eviction, plus the result's encoding once a hit on
//!   the entry has been sent.
//! * [`QueryDaemon`] — the event loop. [`QueryDaemon::run_trace`] replays an
//!   arrival trace deterministically in virtual time (identical trace ⇒
//!   bit-identical responses and latencies for any worker count);
//!   [`QueryDaemon::execute`] serves one query interactively (the CLI path).
//! * [`TraceSpec`] — seeded open-loop workload generator for benches/tests.
//! * [`WireServer`] — the daemon behind `ntadoc serve`'s line protocol:
//!   request lines decoded and checked, reply lines written without a JSON
//!   tree, over any stream that reads and writes.
//!
//! The event loop is hand-rolled and synchronous: "async" here means
//! *arrivals interleave in virtual time*, which a discrete-event loop models
//! exactly while keeping the determinism guarantees an OS scheduler (or a
//! work-stealing runtime) would destroy.
//!
//! ```
//! use ntadoc::{Engine, EngineConfig, Query, Task, TenantId};
//! use ntadoc_grammar::{compress_corpus, TokenizerConfig};
//! use ntadoc_serve::{DaemonConfig, QueryDaemon};
//!
//! let files = vec![("a.txt".into(), "to be or not to be".into())];
//! let comp = compress_corpus(&files, &TokenizerConfig::default());
//! let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
//! let mut daemon = QueryDaemon::new(engine.serve().unwrap(), DaemonConfig::default());
//!
//! let q = Query::new(TenantId(7), Task::WordCount).top_k(2);
//! let cold = daemon.execute(q.clone()).unwrap();
//! let warm = daemon.execute(q).unwrap();
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.output(), warm.output());
//! ```

mod cache;
mod daemon;
mod trace;
mod wire;

pub use cache::ResultCache;
pub use daemon::{
    Completion, QueryDaemon, Rejection, TraceOutcome, METRIC_ADMISSION_REJECTED, METRIC_BATCHES,
    METRIC_CACHE_HITS, METRIC_CACHE_HIT_RATE, METRIC_CACHE_MISSES, METRIC_QUEUE_DEPTH_PEAK,
};
pub use trace::{percentile_ns, TraceEvent, TraceSpec};
pub use wire::{WireServer, MAX_REQUEST_BYTES};

use ntadoc::{RunReport, TenantId, METRIC_DEFERRED_READS};
use ntadoc_pmem::PmemError;

/// Tuning knobs for a [`QueryDaemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Dispatch a batch as soon as this many queries are pending.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest waiter has aged this long.
    pub batch_window_ns: u64,
    /// Per-tenant cap on admitted-but-unfinished queries; the cheapest
    /// admission-control policy that still isolates tenants from each other.
    pub tenant_quota: usize,
    /// Global cap on the pending queue; arrivals beyond it bounce with
    /// [`ServeError::QueueFull`] (backpressure, not silent drops).
    pub queue_limit: usize,
    /// Result-cache entries to retain (FIFO eviction); `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            max_batch: 16,
            batch_window_ns: 2_000_000,
            tenant_quota: 8,
            queue_limit: 1024,
            cache_capacity: 256,
        }
    }
}

impl DaemonConfig {
    /// Comparator configuration: every query dispatches alone and nothing is
    /// cached. Used by `serve_load` to measure what batching saves.
    pub fn unbatched() -> Self {
        DaemonConfig { max_batch: 1, cache_capacity: 0, ..DaemonConfig::default() }
    }
}

/// Typed admission/service failures. Rejections carry enough context for a
/// tenant to tell *why* it was bounced and what limit it hit.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant already has `in_flight` admitted-but-unfinished queries.
    QuotaExceeded { tenant: TenantId, in_flight: usize, quota: usize },
    /// The shared pending queue is at capacity; retry after completions.
    QueueFull { depth: usize, limit: usize },
    /// The underlying engine failed while serving a batch.
    Engine(PmemError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QuotaExceeded { tenant, in_flight, quota } => {
                write!(f, "tenant {tenant} quota exceeded: {in_flight} in flight, quota {quota}")
            }
            ServeError::QueueFull { depth, limit } => {
                write!(f, "pending queue full: depth {depth}, limit {limit}")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PmemError> for ServeError {
    fn from(e: PmemError) -> Self {
        ServeError::Engine(e)
    }
}

/// Device reads served by the deferred path, as a [`RunReport`]'s
/// `deferred.reads` counter records them. The serve-path figure of merit:
/// batched serving must touch fewer lines than serving the same trace
/// query-by-query, and a cache hit must add zero.
pub fn shard_reads_total(report: &RunReport) -> u64 {
    report.metric_u64(METRIC_DEFERRED_READS).unwrap_or(0)
}
