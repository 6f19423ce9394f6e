//! N-TADOC: NVM-based text analytics directly on compressed data.
//!
//! Reproduction of *"Enabling Efficient NVM-Based Text Analytics without
//! Decompression"* (Fang et al., ICDE 2024). The library runs the six
//! classic text-analytics tasks — word count, sort, term vector, inverted
//! index, sequence count, ranked inverted index — directly over a
//! Sequitur-compressed corpus resident on a simulated storage device,
//! without ever decompressing it.
//!
//! The paper's three contributions map to:
//!
//! * pruning with NVM pool management (§IV-B) → [`dag`] — deduplicated
//!   `(id, freq)` rule views laid out adjacently in a DAG pool,
//! * bottom-up summation (§IV-C) → [`summation`] — word-list upper bounds
//!   that let containers be allocated once,
//! * NVM-adapted structures (§IV-D) → the `ntadoc-nstruct` crate,
//! * persistence strategies (§IV-E) → [`config::Persistence`] wired through
//!   the engine (phase-level `libpmem`-style vs operation-level
//!   PMDK-transaction-style).
//!
//! Baselines from the evaluation are first-class citizens:
//!
//! * [`Engine`] with [`EngineConfig::ntadoc`] — the paper's system,
//! * [`Engine`] with [`EngineConfig::naive`] — "overload the allocator and
//!   keep the methods unchanged" TADOC port (§III-B),
//! * [`Engine`] on a DRAM profile — original TADOC, the upper bound,
//! * [`baseline::UncompressedEngine`] — dictionary-encoded uncompressed
//!   scan on the same device (the Figure 5 comparator).
//!
//! # Quickstart
//!
//! ```
//! use ntadoc::{Engine, EngineConfig, Task};
//! use ntadoc_grammar::{compress_corpus, TokenizerConfig};
//!
//! let files = vec![
//!     ("a.txt".into(), "to be or not to be that is the question".into()),
//!     ("b.txt".into(), "to be or not to be whether tis nobler".into()),
//! ];
//! let comp = compress_corpus(&files, &TokenizerConfig::default());
//! let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
//! let out = engine.run(Task::WordCount).unwrap();
//! assert_eq!(out.as_word_counts().unwrap().get("be"), Some(&4));
//! ```
//!
//! For repeated analytics over one corpus, build once and serve many:
//! [`Engine::serve`] keeps the initialized DAG pool resident and
//! [`engine::ServeSession::run_queries`] executes batches of read-only
//! typed [`Query`]s concurrently (wall-clock parallel, virtual time
//! deterministic). The multi-tenant front-end — batch formation across
//! tenants, per-tenant admission control, and a result cache — is the
//! `ntadoc-serve` crate, layered on top of this one.

pub mod access;
pub mod baseline;
pub mod config;
pub mod dag;
pub mod engine;
pub mod ingest;
pub mod layout;
pub mod query;
pub mod report;
pub mod result;
pub mod summation;
pub mod sweep;

pub use access::Accessor;
pub use baseline::{UncompressedEngine, UncompressedEngineBuilder};
pub use config::{EngineConfig, Persistence, Traversal};
pub use engine::{
    AppendReport, Engine, EngineBuilder, PoolBackend, RetryPolicy, ServeSession, Session,
};
pub use ingest::{ingest_append, ingest_corpus, AppendIngest, IngestOptions, IngestReport};
pub use layout::PoolLayoutConfig;
pub use query::{
    snapshot_fingerprint, CachedOutput, Query, QueryKey, QueryResponse, Snapshot, TenantId,
};
pub use report::{
    RunReport, METRIC_DEFERRED_READS, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK, METRIC_HIT_RATE,
    METRIC_MEDIA_RETRIES, METRIC_SERVE_RATE, METRIC_SERVE_TASKS, REPORT_VERSION,
};
pub use result::{Row, Task, TaskOutput, TaskRows, UnknownTask};
pub use summation::{
    head_tail_incremental, head_tail_info, upper_bounds, upper_bounds_incremental, SummationResult,
};

/// Crate-level result alias; all fallible paths surface `ntadoc-pmem`
/// errors (pool exhaustion, transaction misuse).
pub type Result<T> = std::result::Result<T, ntadoc_pmem::PmemError>;
