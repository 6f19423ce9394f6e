//! Workspace façade crate: re-exports the N-TADOC reproduction's public
//! surface so the repository-level examples and integration tests have a
//! single import root. Library users should depend on the individual
//! crates (`ntadoc`, `ntadoc-grammar`, `ntadoc-pmem`, …) directly.

pub use ntadoc::{
    ingest_append, ingest_corpus, snapshot_fingerprint, Engine, EngineBuilder, EngineConfig,
    IngestOptions, Persistence, PoolBackend, PoolLayoutConfig, Query, QueryKey, RetryPolicy,
    RunReport, ServeSession, Session, Task, TaskOutput, TaskRows, TenantId, Traversal,
    UncompressedEngine, METRIC_DEFERRED_READS, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK,
    METRIC_HIT_RATE, REPORT_VERSION,
};
pub use ntadoc_datagen::{generate, generate_compressed, DatasetSpec};
pub use ntadoc_grammar::{
    compress_corpus, deserialize_compressed, merge_chunks, plan_chunks, serialize_compressed,
    Compressed, Dictionary, Grammar, MergeOptions, Symbol, TokenizerConfig,
};
pub use ntadoc_pmem::{
    crc64, for_each_case, fsck_pool, sweep_ctx, CrashPoint, DeviceProfile, FileDevice, FsckReport,
    Json, PmemBackend, PmemError, PmemPool, PoolDevice, PoolHeader, PoolLayout, Prng, SimDevice,
    SpanNode, TxLog, POOL_DATA_AT,
};
pub use ntadoc_serve::{
    shard_reads_total, DaemonConfig, QueryDaemon, ResultCache, ServeError, TraceSpec, WireServer,
};
