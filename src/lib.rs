//! Workspace façade crate: re-exports the N-TADOC reproduction's public
//! surface so the repository-level examples and integration tests have a
//! single import root. Library users should depend on the individual
//! crates (`ntadoc`, `ntadoc-grammar`, `ntadoc-pmem`, …) directly.

pub use ntadoc::sweep;
pub use ntadoc::{
    ingest_append, ingest_corpus, snapshot_fingerprint, AppendIngest, AppendReport, Engine,
    EngineBuilder, EngineConfig, IngestOptions, IngestReport, Persistence, PoolBackend,
    PoolLayoutConfig, Query, QueryKey, QueryResponse, RetryPolicy, Row, RunReport, ServeSession,
    Session, Snapshot, Task, TaskOutput, TaskRows, TenantId, Traversal, UncompressedEngine,
    UncompressedEngineBuilder, METRIC_DEFERRED_READS, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK,
    METRIC_HIT_RATE, METRIC_MEDIA_RETRIES, METRIC_SERVE_RATE, METRIC_SERVE_TASKS, REPORT_VERSION,
};
pub use ntadoc_datagen::{generate, generate_compressed, DatasetSpec};
pub use ntadoc_grammar::{
    append_chunk, build_chunk_at, compress_corpus, deserialize_compressed, merge_chunks,
    plan_chunks, serialize_compressed, serialized_len, AppendOutcome, ChunkGrammar, Compressed,
    Dictionary, Grammar, MergeOptions, Symbol, TokenizerConfig,
};
pub use ntadoc_pmem::{
    crc64, for_each_case, fsck_pool, sweep_ctx, torn_line_survives, torn_word_survives,
    AllocLedger, CrashPoint, DeviceKind, DeviceMirror, DeviceProfile, FileDevice, FsckReport,
    HostCrashReport, Json, JsonError, MetricRegistry, MetricValue, MetricsSnapshot, MmapDevice,
    Obs, PmemBackend, PmemError, PmemPool, PoolDevice, PoolHeader, PoolLayout, Prng, SimDevice,
    SpanNode, TxLog, TxLogInspection, CRASH_PANIC, POOL_DATA_AT, POOL_MAGIC, POOL_VERSION,
};
pub use ntadoc_serve::{
    percentile_ns, shard_reads_total, Completion, DaemonConfig, QueryDaemon, Rejection,
    ResultCache, ServeError, TraceEvent, TraceOutcome, TraceSpec, WireServer,
};
