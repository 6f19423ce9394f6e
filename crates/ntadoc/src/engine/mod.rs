//! The N-TADOC engine: per-task sessions over a simulated device.
//!
//! An [`Engine`] is configured once through [`Engine::builder`] (corpus +
//! [`EngineConfig`] + device profile); each [`Engine::run`] executes one
//! benchmark end to end the way the paper measures it — "from the
//! initialization phase of loading the dataset to writing the analytics
//! results back to disk" — on a fresh device, and records a [`RunReport`]
//! with per-phase virtual times and peak per-device allocation.
//!
//! The two phases:
//!
//! * **initialization** — stream the compressed image from disk, build the
//!   DAG pool (§IV-B), run the bottom-up summation (§IV-C), build head/tail
//!   buffers and, for bottom-up file tasks, the per-rule word/sequence list
//!   caches; then persist the pool (phase boundary);
//! * **graph traversal** — run the task over the device-resident DAG and
//!   persist/write back the results.
//!
//! Crash recovery follows §IV-E: under phase-level persistence a crash
//! during traversal loses only the traversal phase — `Session::traverse`
//! can simply be re-run against the persisted pool (see the recovery tests
//! in `tests/`). [`RetryPolicy`] wires that recovery into the normal run
//! path for unabsorbed media errors.
//!
//! Beyond one-shot runs, [`Engine::serve`] initializes once and keeps the
//! DAG pool resident; [`ServeSession::run_queries`] then executes batches
//! of read-only typed queries concurrently against it, joining their
//! device time deterministically (see `ntadoc_pmem::par`). The
//! multi-tenant front-end (batch formation, admission control, result
//! caching) lives above this in the `ntadoc-serve` crate.

mod tasks;

use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ntadoc_grammar::{deserialize_compressed, serialized_len, Compressed, TokenizerConfig};
use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::obs::MetricValue;
use ntadoc_pmem::par::{join_deferred, par_map_timed};
use ntadoc_pmem::{
    AccessStats, AllocLedger, DeviceKind, DeviceProfile, FileDevice, MmapDevice, Obs, PmemBackend,
    PmemError, PmemPool, PoolDevice, PoolHeader, PoolLayout, SimDevice, SpanNode, TxLog,
    MAX_POOL_CAPACITY,
};

use crate::config::{EngineConfig, Persistence, Traversal};
use crate::dag::{DagBuildOptions, DagPool};
use crate::ingest::{ingest_append, ingest_corpus, AppendIngest, IngestOptions, IngestReport};
use crate::layout::PoolLayoutConfig;
use crate::query::{snapshot_fingerprint, Query, QueryResponse, Snapshot, TenantId};
use crate::report::{
    RunReport, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK, METRIC_HIT_RATE, METRIC_MEDIA_RETRIES,
    METRIC_SERVE_RATE, METRIC_SERVE_TASKS, REPORT_VERSION,
};
use crate::result::{Task, TaskOutput};
use crate::summation::{
    bounds_over, head_tail_incremental, head_tail_over, upper_bounds_incremental, GrammarFacts,
    HeadTailInfo, SummationResult,
};
use crate::Result;

/// How many counter updates share one undo-log transaction under
/// operation-level persistence. The paper wraps each rule-interpretation
/// operation; 256 updates approximates one such operation batch (ranges
/// are deduplicated per transaction, as PMDK's `tx_add_range` does).
const TX_BATCH: usize = 256;

/// Undo-log region size for operation-level persistence.
const LOG_BYTES: usize = 4 << 20;

/// Lock a mutex, riding through poisoning: engine state is guarded by the
/// torn-write crash model, not by unwinding writers, so a poisoned lock
/// carries no extra information here.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Largest exponent the media-retry backoff ever applies: beyond
/// 2^16 × write-back latency (a few milliseconds of virtual settle time)
/// more waiting buys nothing, and an uncapped `<<` would quietly shift
/// the charge past 64 bits.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Virtual settle time charged before media-retry `attempt` (1-based):
/// exponential in the attempt number, capped at [`MAX_BACKOFF_SHIFT`]
/// doublings, and saturating so no profile/attempt combination can wrap
/// the virtual clock silently.
fn backoff_ns(write_back_ns: u64, attempt: u32) -> u64 {
    write_back_ns.saturating_mul(1u64 << attempt.min(MAX_BACKOFF_SHIFT))
}

/// What [`Engine::run`] does when a traversal fails with an unabsorbed
/// [`PmemError::MediaError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Surface the error to the caller (default).
    #[default]
    Fail,
    /// §IV-E recovery: roll back any open operation-level transaction and
    /// re-run the traversal phase from the last checkpoint, up to this
    /// many times. Every retry's device traffic is charged to the virtual
    /// clock like any other access.
    MediaRetries(u32),
}

/// Fluent constructor for [`Engine`]. Obtain one with [`Engine::builder`].
///
/// ```
/// use ntadoc::{Engine, EngineConfig};
/// use ntadoc_grammar::{compress_corpus, TokenizerConfig};
///
/// let files = vec![("a.txt".into(), "hello persistent world".into())];
/// let comp = compress_corpus(&files, &TokenizerConfig::default());
/// let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
/// assert_eq!(engine.label(), "N-TADOC");
/// ```
pub struct EngineBuilder {
    source: BuildSource,
    cfg: EngineConfig,
    profile: Option<DeviceProfile>,
    label: Option<String>,
    retry: RetryPolicy,
    trace: bool,
    ingest: IngestOptions,
    /// Deferred SSD/HDD budget request (`Some(hdd)`), resolved at `build`
    /// once the corpus exists (raw files are only compressed there).
    block: Option<bool>,
    /// Optional streaming plan for a raw-file source: group sizes whose
    /// first entry is ingested as the base corpus and every later entry
    /// is folded through [`Engine::append_files`].
    append_plan: Option<Vec<usize>>,
    /// Durable backend used by [`Engine::open_pool`].
    pool_backend: PoolBackend,
    /// Id encoding of the DAG pool ([`PoolLayoutConfig`]).
    pool_layout: PoolLayoutConfig,
}

/// Whether a pool that proved too small may be retried at twice
/// `capacity`: doubling stops where [`MAX_POOL_CAPACITY`] would be passed,
/// which is also the largest capacity a pool header may declare.
fn may_double(capacity: usize) -> bool {
    (capacity as u64) < MAX_POOL_CAPACITY / 2
}

/// What the builder starts from: an existing compressed corpus, or raw
/// files to be ingested (serially or chunk-parallel) at `build`.
enum BuildSource {
    Corpus(Arc<Compressed>),
    Files(Vec<(String, String)>),
}

/// Which [`StableStore`](ntadoc_pmem::StableStore) keeps the pool file
/// current when [`Engine::open_pool`] attaches one behind the simulated
/// device. Both write the same pool-file format (magic, CRC-sealed
/// header, data region) and are interchangeable on reopen and under
/// `ntadoc fsck`; they differ only in that I/O path
/// (`pwrite`+`fdatasync` vs. a shared memory mapping +`msync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolBackend {
    /// Write-through file I/O ([`FileDevice`]). The default.
    #[default]
    File,
    /// Memory-mapped pool file ([`MmapDevice`]): stores land in the
    /// mapping, fences `msync` — the closest stand-in for DAX-mapped
    /// persistent memory this environment can express.
    Mmap,
}

impl PoolBackend {
    /// Parse a CLI/env spelling (`"file"` or `"mmap"`).
    pub fn parse(s: &str) -> Option<PoolBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "file" => Some(PoolBackend::File),
            "mmap" => Some(PoolBackend::Mmap),
            _ => None,
        }
    }

    /// The CLI spelling (`"file"` / `"mmap"`).
    pub fn name(&self) -> &'static str {
        match self {
            PoolBackend::File => "file",
            PoolBackend::Mmap => "mmap",
        }
    }

    /// Create a fresh pool file at `path` through this backend's store,
    /// sealing `dag_layout` into its header.
    pub fn create(
        self,
        path: &Path,
        profile: DeviceProfile,
        layout: PoolLayout,
        dag_layout: u16,
    ) -> Result<Arc<dyn PoolDevice>> {
        Ok(match self {
            PoolBackend::File => {
                FileDevice::create_with_dag_layout(path, profile, layout, dag_layout)?
            }
            PoolBackend::Mmap => {
                MmapDevice::create_with_dag_layout(path, profile, layout, dag_layout)?
            }
        })
    }

    /// Open an existing pool file (written by either backend) through
    /// this backend's store.
    pub fn open(self, path: &Path, profile: DeviceProfile) -> Result<Arc<dyn PoolDevice>> {
        Ok(match self {
            PoolBackend::File => FileDevice::open(path, profile)?,
            PoolBackend::Mmap => MmapDevice::open(path, profile)?,
        })
    }
}

impl EngineBuilder {
    /// Start building an engine from raw `(file name, contents)` pairs:
    /// `build` runs the ingest pipeline (tokenize → chunk → Sequitur →
    /// merge) first, honouring [`EngineBuilder::ingest_chunks`], and the
    /// resulting engine exposes the build measurements via
    /// [`Engine::ingest_report`].
    ///
    /// ```
    /// use ntadoc::{EngineBuilder, Task};
    ///
    /// let files = vec![
    ///     ("a.txt".to_string(), "to be or not to be".to_string()),
    ///     ("b.txt".to_string(), "to be sure to be".to_string()),
    /// ];
    /// let mut engine = EngineBuilder::from_files(files).ingest_chunks(4).build().unwrap();
    /// let out = engine.run(Task::WordCount).unwrap();
    /// assert_eq!(out.as_word_counts().unwrap().get("to"), Some(&4));
    /// assert!(engine.ingest_report().unwrap().virtual_ns > 0);
    /// ```
    pub fn from_files(files: Vec<(String, String)>) -> EngineBuilder {
        Engine::builder_from_source(BuildSource::Files(files))
    }

    /// Device profile to simulate. Defaults to Optane NVM.
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = Some(profile);
        self.block = None;
        self
    }

    /// Durable backend [`Engine::open_pool`] attaches: write-through file
    /// I/O (default) or a memory-mapped pool file. Pool files written by
    /// either reopen under the other.
    pub fn pool_backend(mut self, backend: PoolBackend) -> Self {
        self.pool_backend = backend;
        self
    }

    /// DAG-pool layout: fixed-width or varint ids. Defaults to
    /// [`PoolLayoutConfig::Fixed`]. Both layouts produce byte-identical
    /// task outputs; they differ only in pool bytes and distinct media
    /// lines touched.
    /// The choice is sealed into durable pool headers, so a reopened pool
    /// is decoded with the layout it was written with, whatever the
    /// reopening engine was configured for.
    pub fn pool_layout(mut self, layout: PoolLayoutConfig) -> Self {
        self.pool_layout = layout;
        self
    }

    /// Number of parallel ingest chunks when building from raw files
    /// ([`EngineBuilder::from_files`]). Default 1: a serial build,
    /// byte-identical to [`ntadoc_grammar::compress_corpus`]. With `n > 1`
    /// the token stream is split into `n` deterministic spans compressed
    /// concurrently and merged (`ntadoc_grammar::merge`); outputs and
    /// virtual time are identical for any worker count. No effect when the
    /// builder starts from an already-compressed corpus.
    pub fn ingest_chunks(mut self, n: usize) -> Self {
        self.ingest.chunks = n.max(1);
        self
    }

    /// Whether chunk-parallel ingest folds digrams repeated across chunk
    /// seams into fresh rules (default `true`; ignored for serial builds).
    pub fn seam_dedup(mut self, on: bool) -> Self {
        self.ingest.seam_dedup = on;
        self
    }

    /// Streaming-corpus plan for a raw-file source: the files are split
    /// into groups of the given sizes; the first group is ingested as the
    /// base corpus and each later group is folded through the exact
    /// [`Engine::append_files`] code path. The resulting engine is
    /// byte-equivalent (grammar, dictionary, pool image, virtual time) to
    /// building the base and issuing the same appends live — this is the
    /// reference fold the append determinism tests compare against.
    ///
    /// Sizes must be non-zero and sum to the number of files; `build`
    /// fails otherwise, and when the source is an already-compressed
    /// corpus.
    pub fn append_plan(mut self, groups: Vec<usize>) -> Self {
        self.append_plan = Some(groups);
        self
    }

    /// Tokenizer used when building from raw files. Defaults to
    /// [`TokenizerConfig::default`].
    pub fn tokenizer(mut self, cfg: TokenizerConfig) -> Self {
        self.ingest.tokenizer = cfg;
        self
    }

    /// Whether sessions record observability spans and metrics (default
    /// `true`). When off, span closures run directly and reports carry a
    /// synthesized two-phase span tree instead of the recorded one.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Engine configuration. Defaults to [`EngineConfig::ntadoc`].
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Display label for reports. Defaults per device kind and config
    /// ("N-TADOC", "naive-NVM", "TADOC-DRAM", "N-TADOC-SSD", "N-TADOC-HDD").
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Media-error retry policy honoured by [`Engine::run`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// SSD profile with the paper's memory budget (page cache capped at
    /// 20% of the uncompressed dataset size).
    pub fn ssd(self) -> Self {
        self.block_device(false)
    }

    /// HDD profile with the paper's memory budget.
    pub fn hdd(self) -> Self {
        self.block_device(true)
    }

    fn block_device(mut self, hdd: bool) -> Self {
        // The budget depends on the corpus, which for a raw-file source
        // only exists after ingest — resolved in `build`.
        self.block = Some(hdd);
        self.profile = None;
        self
    }

    /// Finish construction. Runs the ingest pipeline first when the
    /// builder started from raw files ([`EngineBuilder::from_files`]),
    /// then folds any [`EngineBuilder::append_plan`] groups through
    /// [`Engine::append_files`]. Fails on an empty corpus.
    pub fn build(self) -> Result<Engine> {
        let EngineBuilder {
            source,
            cfg,
            profile,
            label,
            retry,
            trace,
            ingest,
            block,
            append_plan,
            pool_backend,
            pool_layout,
        } = self;
        let (comp, ingest_report, deferred) = match source {
            BuildSource::Corpus(comp) => {
                if append_plan.is_some() {
                    return Err(PmemError::Unsupported(
                        "append_plan needs a raw-file source; the corpus is already built".into(),
                    ));
                }
                (comp, None, Vec::new())
            }
            BuildSource::Files(mut files) => {
                // With an append plan, only the first group is the base
                // build; later groups are replayed through the live
                // append path below, after the engine exists.
                let mut deferred: Vec<Vec<(String, String)>> = Vec::new();
                if let Some(plan) = append_plan {
                    if plan.is_empty()
                        || plan.contains(&0)
                        || plan.iter().sum::<usize>() != files.len()
                    {
                        return Err(PmemError::Unsupported(format!(
                            "append_plan groups must be non-empty and sum to the file count \
                             ({} files, plan {:?})",
                            files.len(),
                            plan
                        )));
                    }
                    let mut rest = files.split_off(plan[0]);
                    for &n in &plan[1..] {
                        let tail = rest.split_off(n);
                        deferred.push(rest);
                        rest = tail;
                    }
                }
                let (comp, report) = ingest_corpus(&files, &ingest);
                (Arc::new(comp), Some(report), deferred)
            }
        };
        if comp.file_names.is_empty() {
            return Err(PmemError::Unsupported(
                "engines need a corpus with at least one file".into(),
            ));
        }
        let profile = match block {
            Some(hdd) => {
                let budget = (Engine::uncompressed_bytes(&comp) / 5).max(1 << 20) as usize;
                if hdd {
                    DeviceProfile::hdd_sas(budget)
                } else {
                    DeviceProfile::ssd_optane(budget)
                }
            }
            None => profile.unwrap_or_else(DeviceProfile::nvm_optane),
        };
        let label = label.unwrap_or_else(|| {
            match profile.kind {
                DeviceKind::Dram => "TADOC-DRAM",
                DeviceKind::Nvm => {
                    if cfg.pruned {
                        "N-TADOC"
                    } else {
                        "naive-NVM"
                    }
                }
                DeviceKind::Ssd => "N-TADOC-SSD",
                DeviceKind::Hdd => "N-TADOC-HDD",
            }
            .to_string()
        });
        let facts = Arc::new(GrammarFacts::derive(&comp.grammar));
        let bounds = bounds_over(&comp.grammar, &facts.topo).bounds;
        let info = head_tail_over(&comp.grammar, &facts.topo, 1);
        let plan = CapacityPlan::from_facts(&comp, &bounds, &info);
        // Accounted without materializing the image (it is streamed from
        // disk at init; the engine only needs its size).
        let image_bytes = serialized_len(&comp) as u64;
        let snapshot = snapshot_fingerprint(&comp);
        let mut engine = Engine {
            comp,
            cfg,
            profile,
            label,
            retry,
            trace,
            image_bytes,
            plan,
            facts,
            bounds,
            info,
            snapshot,
            ingest,
            ingest_report,
            append_log: Vec::new(),
            pool_backend,
            pool_layout,
            last_report: None,
        };
        for group in deferred {
            engine.append_files(group)?;
        }
        Ok(engine)
    }
}

/// Reusable engine: one corpus, one configuration, one device profile.
pub struct Engine {
    comp: Arc<Compressed>,
    cfg: EngineConfig,
    profile: DeviceProfile,
    label: String,
    retry: RetryPolicy,
    trace: bool,
    /// Serialized image size (charged as the init disk read).
    image_bytes: u64,
    /// Host-side grammar statistics used for capacity planning only.
    plan: CapacityPlan,
    /// Topological order and level split of `comp`'s grammar, derived once
    /// per snapshot and shared with every session.
    facts: Arc<GrammarFacts>,
    /// Per-rule expansion upper bounds, kept unclamped so appends can
    /// re-derive only the dirty rules ([`upper_bounds_incremental`]);
    /// always equal to a full recompute, so sessions take theirs from here.
    bounds: Vec<u64>,
    /// Width-1 head/tail facts, maintained incrementally across appends
    /// for the same reason.
    info: HeadTailInfo,
    /// Deterministic corpus fingerprint ([`snapshot_fingerprint`]) — the
    /// grammar snapshot version that keys serve-layer result caches.
    snapshot: u64,
    /// Ingest options retained for [`Engine::append_files`] (tokenizer
    /// and seam-dedup policy must match the base build).
    ingest: IngestOptions,
    /// Measurement record of the ingest pipeline, when this engine was
    /// built from raw files.
    ingest_report: Option<IngestReport>,
    /// One record per completed [`Engine::append_files`] call, oldest
    /// first.
    append_log: Vec<AppendReport>,
    /// Durable backend [`Engine::open_pool`] attaches.
    pool_backend: PoolBackend,
    /// DAG-pool layout new pools are built with. Reopened pools override
    /// this with the layout sealed in their header.
    pool_layout: PoolLayoutConfig,
    /// Report of the most recent `run`.
    pub last_report: Option<RunReport>,
}

/// Outcome of one [`Engine::append_files`] call: what grew, what was
/// dirtied, what the delta cost, and the snapshot transition it caused.
#[derive(Debug, Clone)]
pub struct AppendReport {
    /// Files added by this append.
    pub files_appended: usize,
    /// Tokens in the appended files.
    pub appended_tokens: u64,
    /// Raw bytes in the appended files.
    pub appended_bytes: u64,
    /// Dictionary entries interned for the first time.
    pub new_words: usize,
    /// Grammar rules created by the splice + seam dedup.
    pub new_rules: usize,
    /// Rules whose summation facts had to be recomputed (root + new).
    pub dirty_rules: usize,
    /// Deterministic virtual cost of the append pipeline.
    pub virtual_ns: u64,
    /// Span tree of the append pipeline stages.
    pub spans: SpanNode,
    /// Fingerprint the engine served before this append.
    pub old_fingerprint: u64,
    /// Snapshot handle for the corpus after this append. Carries no pool
    /// view: sessions opened later attach their own.
    pub snapshot: Snapshot,
}

/// Host-side sizing facts (capacity planning, not part of the measured
/// algorithm).
#[derive(Debug, Clone)]
struct CapacityPlan {
    nrules: usize,
    total_symbols: usize,
    vocab: usize,
    expanded_words: u64,
    dict_text: usize,
    sum_bounds: u64,
    max_exp_nonroot: u64,
}

impl CapacityPlan {
    /// Derive the plan from the corpus plus the maintained summation
    /// facts (unclamped bounds, width-1 head/tail info). Shared between
    /// the base build and the incremental append path so both produce
    /// identical plans for identical corpora.
    fn from_facts(comp: &Compressed, bounds: &[u64], info: &HeadTailInfo) -> CapacityPlan {
        let vocab = comp.dict.len();
        CapacityPlan {
            nrules: comp.grammar.rule_count(),
            total_symbols: comp.grammar.total_symbols(),
            vocab,
            expanded_words: info.exp_len[0],
            dict_text: comp.dict.text_bytes(),
            sum_bounds: bounds.iter().map(|&b| b.min(vocab as u64)).sum(),
            max_exp_nonroot: info.exp_len.iter().skip(1).copied().max().unwrap_or(0),
        }
    }
}

impl Engine {
    /// Start building an engine for `comp` (an owned corpus or a shared
    /// `Arc<Compressed>` — engines never clone the corpus).
    pub fn builder(comp: impl Into<Arc<Compressed>>) -> EngineBuilder {
        Self::builder_from_source(BuildSource::Corpus(comp.into()))
    }

    fn builder_from_source(source: BuildSource) -> EngineBuilder {
        EngineBuilder {
            source,
            cfg: EngineConfig::ntadoc(),
            profile: None,
            label: None,
            retry: RetryPolicy::Fail,
            trace: true,
            ingest: IngestOptions::default(),
            block: None,
            append_plan: None,
            pool_backend: PoolBackend::default(),
            pool_layout: PoolLayoutConfig::default(),
        }
    }

    /// Start building an engine straight from a serialized corpus image,
    /// as a restart after a crash would do. A torn, truncated or
    /// bit-flipped image is rejected with [`PmemError::CorruptImage`] —
    /// the engine never comes up over garbage.
    pub fn builder_from_image(image: &[u8]) -> Result<EngineBuilder> {
        let comp =
            deserialize_compressed(image).map_err(|e| PmemError::CorruptImage(e.to_string()))?;
        Ok(Self::builder(comp))
    }

    /// Size of the corpus as uncompressed dictionary-encoded text.
    pub fn uncompressed_bytes(comp: &Compressed) -> u64 {
        let mut word_len = vec![0u64; comp.dict.len()];
        for (id, w) in comp.dict.iter() {
            word_len[id as usize] = w.len() as u64 + 1;
        }
        comp.grammar.expand_tokens().iter().map(|&t| word_len[t as usize]).sum()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The compressed corpus this engine serves (moves on
    /// [`Engine::append_files`]).
    pub fn compressed(&self) -> &Arc<Compressed> {
        &self.comp
    }

    /// The engine's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The engine's media-error retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The grammar snapshot version: a deterministic fingerprint of the
    /// compressed corpus ([`snapshot_fingerprint`]). Result caches key on
    /// `(snapshot version, query)`; two engines over the same corpus
    /// agree on it, and any corpus change moves it.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot
    }

    /// Measurement record of the ingest pipeline ([`IngestReport`]), when
    /// this engine was built from raw files via
    /// [`EngineBuilder::from_files`]; `None` for engines built from an
    /// already-compressed corpus.
    pub fn ingest_report(&self) -> Option<&IngestReport> {
        self.ingest_report.as_ref()
    }

    /// One [`AppendReport`] per completed [`Engine::append_files`] call,
    /// oldest first.
    pub fn append_log(&self) -> &[AppendReport] {
        &self.append_log
    }

    /// Total deterministic ingest cost of this engine's corpus: the base
    /// build (when raw files were ingested) plus every append delta.
    pub fn ingest_total_ns(&self) -> u64 {
        self.ingest_report.as_ref().map_or(0, |r| r.virtual_ns)
            + self.append_log.iter().map(|r| r.virtual_ns).sum::<u64>()
    }

    /// Append `files` to the corpus without rebuilding it: the delta is
    /// compressed as one chunk, re-interned into the shared dictionary,
    /// spliced at the root, seam-deduplicated, and only the dirtied rules
    /// (root + new) have their summation facts recomputed. The engine's
    /// snapshot fingerprint moves; sessions and pools opened before the
    /// append keep serving the old snapshot until re-opened.
    ///
    /// Appending files one group at a time is byte-equivalent — grammar,
    /// dictionary, pool image, virtual time — to a single
    /// [`EngineBuilder::append_plan`] build with the same grouping.
    pub fn append_files(&mut self, files: Vec<(String, String)>) -> Result<AppendReport> {
        if files.is_empty() {
            return Err(PmemError::Unsupported("append_files needs at least one file".into()));
        }
        let step = ingest_append(&self.comp, &files, &self.ingest);
        let AppendIngest {
            comp,
            outcome,
            appended_tokens,
            appended_bytes,
            dirty_symbols: _,
            virtual_ns,
            spans,
        } = step;
        let old_fingerprint = self.snapshot;
        // Host-side capacity facts are maintained incrementally: only the
        // dirty rules (root + new) are re-derived, mirroring the charged
        // `append.resum` span in the ingest cost model.
        let prev = SummationResult { bounds: std::mem::take(&mut self.bounds) };
        self.bounds = upper_bounds_incremental(&comp.grammar, &prev, &outcome.dirty_rules).bounds;
        self.info = head_tail_incremental(&comp.grammar, &self.info, 1, &outcome.dirty_rules);
        self.facts = Arc::new(GrammarFacts::derive(&comp.grammar));
        self.plan = CapacityPlan::from_facts(&comp, &self.bounds, &self.info);
        self.image_bytes = serialized_len(&comp) as u64;
        self.snapshot = snapshot_fingerprint(&comp);
        self.comp = Arc::new(comp);
        let report = AppendReport {
            files_appended: files.len(),
            appended_tokens,
            appended_bytes,
            new_words: outcome.new_words,
            new_rules: outcome.new_rules.len(),
            dirty_rules: outcome.dirty_rules.len(),
            virtual_ns,
            spans,
            old_fingerprint,
            snapshot: Snapshot::stamped(self.snapshot, &self.comp),
        };
        self.append_log.push(report.clone());
        Ok(report)
    }

    /// Run one benchmark end to end under the engine's [`RetryPolicy`];
    /// retries with a doubled device if the initial capacity estimate was
    /// too small.
    pub fn run(&mut self, task: Task) -> Result<TaskOutput> {
        let mut capacity = self.estimate_capacity(task);
        loop {
            match self.try_run(task, capacity) {
                Err(PmemError::PoolExhausted { .. }) if may_double(capacity) => {
                    capacity *= 2;
                }
                other => return other,
            }
        }
    }

    fn try_run(&mut self, task: Task, capacity: usize) -> Result<TaskOutput> {
        let mut session = self.session_with_capacity(task, capacity, false)?;
        let out = session.run_query(&Query::new(TenantId::default(), task))?;
        self.last_report = Some(session.report());
        Ok(out.into_output())
    }

    /// Run only the initialization phase, returning the live [`Session`].
    /// [`Session::run_query`] then runs the traversal phase under the
    /// engine's retry policy (crash tests drive [`Session::traverse`] and
    /// [`Session::recover`] directly instead).
    pub fn session(&self, task: Task) -> Result<Session> {
        self.session_with_capacity(task, self.estimate_capacity(task), false)
    }

    /// Build-once/serve-many mode: run the initialization phase once,
    /// keeping the DAG pool and its per-rule word-list caches resident,
    /// and return a handle that executes batches of read-only queries
    /// concurrently against them ([`ServeSession::run_queries`]).
    ///
    /// Serving requires the pruned configuration: the read-only task paths
    /// are merges over the §IV-B per-rule word-list caches. Sequence tasks
    /// are not servable — their caches share storage with the word lists
    /// and are rebuilt per run — so a serve session answers word count,
    /// sort, term vector and inverted index.
    pub fn serve(&self) -> Result<ServeSession> {
        if !self.cfg.pruned {
            return Err(PmemError::Unsupported(
                "serve mode requires the pruned configuration (per-rule word-list caches)".into(),
            ));
        }
        // Plan for the widest servable task so the word-list caches and
        // file-oriented structures all fit.
        let task = Task::InvertedIndex;
        let mut capacity = self.estimate_capacity(task);
        loop {
            match self.session_with_capacity(task, capacity, true) {
                Err(PmemError::PoolExhausted { .. }) if may_double(capacity) => {
                    capacity *= 2;
                }
                Ok(session) => return Ok(ServeSession { session }),
                Err(e) => return Err(e),
            }
        }
    }

    /// Scratch region sizing: the largest transient hash table, times the
    /// reallocation-generation factor for growable tables.
    fn scratch_bytes(&self, task: Task) -> u64 {
        let per_entry = 17u64; // status 1 + key 8 + value 8
        let mut need = self.plan.vocab as u64 + 16;
        if task.is_sequence() {
            // Per-rule sequence lists / per-file n-gram tables can reach
            // the expansion length of the largest non-root rule or file.
            need = need
                .max(self.plan.max_exp_nonroot * self.cfg.ngram as u64)
                .max(self.plan.expanded_words / self.comp.file_count().max(1) as u64 * 2);
        }
        let slots = (need * 8 / 7 + 16).next_power_of_two();
        per_entry * slots * 6 + (1 << 16)
    }

    fn estimate_capacity(&self, task: Task) -> usize {
        let p = &self.plan;
        let line = self.profile.line_size as u64;
        let mut bytes = 0u64;
        bytes += p.total_symbols as u64 * 12 + p.nrules as u64 * 24; // bodies + pruned views
        bytes += p.nrules as u64 * 80 + 256; // metadata SoA
        bytes += p.dict_text as u64 + (p.vocab as u64 + 2) * 8;
        bytes += p.nrules as u64 * (2 * self.cfg.ngram as u64 * 4 + 16); // head/tail
        if !self.cfg.adjacent_layout {
            bytes += p.nrules as u64 * 3 * line; // scatter gaps
        }
        if task.is_file_oriented() {
            bytes += p.sum_bounds * 12 + p.nrules as u64 * 12; // word-list caches
        }
        if task.is_sequence() {
            // Junction/sequence caches + the global n-gram counter.
            bytes += p.expanded_words * 24 + (1 << 20);
        }
        bytes += p.vocab as u64 * 40 + (1 << 20); // result structures
        bytes += self.scratch_bytes(task);
        bytes += LOG_BYTES as u64;
        let total = (bytes * 3 / 2).next_power_of_two().max(1 << 22);
        total as usize
    }

    /// Region layout for a pool of `capacity` bytes serving `task`. Shared
    /// by in-memory sessions and file-backed pools so a reopened pool file
    /// reconstructs the exact same addresses.
    fn plan_layout(&self, task: Task, capacity: usize) -> PoolLayout {
        // Scratch scales with the device so capacity-doubling retries also
        // relieve scratch exhaustion.
        let scratch_len = self.scratch_bytes(task).max(capacity as u64 / 4);
        let main_len = capacity as u64 - scratch_len - LOG_BYTES as u64;
        PoolLayout { capacity: capacity as u64, main_len, scratch_len, log_len: LOG_BYTES as u64 }
    }

    /// Open (or create) a file-backed pool at `path` and run the
    /// initialization phase over it.
    ///
    /// * No file at `path` → a fresh pool file is created (sized by the
    ///   capacity estimate, recreated at double capacity on exhaustion)
    ///   and initialized.
    /// * An existing file → its header is validated, the durable image is
    ///   loaded, any operation-level transaction that was open at the
    ///   crash is rolled back from the undo log **before** anything else
    ///   touches the pool (the rollback writes flow through to the file),
    ///   and the session then re-runs the deterministic init phase —
    ///   §IV-E recovery against real on-disk bytes.
    ///
    /// Requires a persistent device profile; volatile profiles have no
    /// durable image to back with a file.
    pub fn open_pool(&self, path: &Path, task: Task) -> Result<Session> {
        self.open_pool_inner(path, task, false)
    }

    /// [`Engine::serve`] over a durable pool: open (or create) the pool
    /// file at `path` with the configured [`PoolBackend`] and return a
    /// serve handle whose DAG and word-list caches live in it — queries
    /// are answered in place from the pool, the paper's NVM serving
    /// story. Same pruned-configuration requirement as `serve`.
    pub fn serve_pool(&self, path: &Path) -> Result<ServeSession> {
        if !self.cfg.pruned {
            return Err(PmemError::Unsupported(
                "serve mode requires the pruned configuration (per-rule word-list caches)".into(),
            ));
        }
        let session = self.open_pool_inner(path, Task::InvertedIndex, true)?;
        Ok(ServeSession { session })
    }

    fn open_pool_inner(&self, path: &Path, task: Task, serve_mode: bool) -> Result<Session> {
        // Checked before the stale-pool branch below may delete anything.
        ntadoc_pmem::poolfile::require_persistent(&self.profile)?;
        if path.exists() {
            // A pool published for a different corpus (e.g. sealed before
            // an append moved the fingerprint) is stale: recover nothing
            // from it and rebuild. Zero means "never published" (crash
            // before the first persist) and takes the recovery path, as
            // does a header that does not read back.
            let published = std::fs::File::open(path)
                .map_err(PmemError::from)
                .and_then(|file| PoolHeader::read(&file))
                .map_or(0, |header| header.snapshot);
            if published != 0 && published != self.snapshot {
                let _ = std::fs::remove_file(path);
                return self.create_pool(path, task, serve_mode);
            }
            self.reopen_pool(path, task, serve_mode)
        } else {
            self.create_pool(path, task, serve_mode)
        }
    }

    fn create_pool(&self, path: &Path, task: Task, serve_mode: bool) -> Result<Session> {
        let mut capacity = self.estimate_capacity(task);
        loop {
            let layout = self.plan_layout(task, capacity);
            let file = self.pool_backend.create(
                path,
                self.profile.clone(),
                layout,
                self.pool_layout.id(),
            )?;
            match self.session_on_device(
                task,
                file.twin().clone(),
                layout,
                self.pool_layout,
                serve_mode,
                Some(file),
            ) {
                Err(PmemError::PoolExhausted { .. }) if may_double(capacity) => {
                    // The undersized pool file is abandoned; recreate it
                    // at double capacity (create truncates, but remove
                    // eagerly so a failure between iterations never
                    // leaves a stale-capacity file behind).
                    let _ = std::fs::remove_file(path);
                    capacity *= 2;
                }
                other => return other,
            }
        }
    }

    fn reopen_pool(&self, path: &Path, task: Task, serve_mode: bool) -> Result<Session> {
        let file = self.pool_backend.open(path, self.profile.clone())?;
        let layout = file.layout();
        // Adopt the layout sealed in the header: the pool is decoded (and,
        // since init deterministically rebuilds it, rewritten) with the
        // layout it was created under, not whatever this engine is
        // configured for. Unknown layout bits are refused here, before
        // anything interprets pool bytes.
        let pool_layout = PoolLayoutConfig::from_id(file.header().dag_layout)?;
        // Roll back any transaction that was open at the crash *before*
        // init touches the pool: recovery must see the bytes exactly as
        // they survived on disk. The rollback's writes fence through the
        // mirror, so the file stays in sync with what recovery decided.
        if self.cfg.persistence == Persistence::OperationLevel {
            let backend: Arc<dyn PmemBackend> = file.clone();
            let mut tx = TxLog::new(backend, layout.log_base(), layout.log_len as usize);
            tx.recover()?;
        }
        self.session_on_device(
            task,
            file.twin().clone(),
            layout,
            pool_layout,
            serve_mode,
            Some(file),
        )
    }

    fn session_with_capacity(
        &self,
        task: Task,
        capacity: usize,
        serve_mode: bool,
    ) -> Result<Session> {
        let layout = self.plan_layout(task, capacity);
        let dev = Arc::new(SimDevice::new(self.profile.clone(), capacity));
        self.session_on_device(task, dev, layout, self.pool_layout, serve_mode, None)
    }

    /// Build a session over an existing device (in-memory, or the twin of
    /// a file-backed pool) with a fixed region layout, and run init.
    fn session_on_device(
        &self,
        task: Task,
        dev: Arc<SimDevice>,
        layout: PoolLayout,
        pool_layout: PoolLayoutConfig,
        serve_mode: bool,
        backend: Option<Arc<dyn PoolDevice>>,
    ) -> Result<Session> {
        let ledger = Arc::new(AllocLedger::new());
        let pool =
            Arc::new(PmemPool::new(dev.clone(), 0, layout.main_len).with_ledger(ledger.clone()));
        let scratch_base = layout.scratch_base();
        let scratch_len = layout.scratch_len;

        let txlog = match self.cfg.persistence {
            Persistence::OperationLevel => {
                // The log talks to the backend trait: the file device when
                // one is attached (exercising the same code path recovery
                // uses), the simulator otherwise. Both charge identically.
                let log_dev: Arc<dyn PmemBackend> = match &backend {
                    Some(file) => file.clone(),
                    None => dev.clone(),
                };
                Some(Arc::new(Mutex::new(TxLog::new(
                    log_dev,
                    layout.log_base(),
                    layout.log_len as usize,
                ))))
            }
            _ => None,
        };

        let backend_dyn: Arc<dyn PmemBackend> = match &backend {
            Some(file) => file.clone(),
            None => dev.clone(),
        };
        // The session's snapshot handle pins the corpus identity *and* the
        // pool it is served from; responses hand it out so callers can
        // tell exactly which published state answered them.
        let snapshot =
            Arc::new(Snapshot::stamped(self.snapshot, &self.comp).with_pool(backend_dyn.clone()));
        debug_assert_eq!(self.snapshot, snapshot_fingerprint(&self.comp));
        let mut session = Session {
            comp: self.comp.clone(),
            facts: self.facts.clone(),
            cfg: self.cfg.clone(),
            task,
            dev,
            backend,
            backend_dyn,
            snapshot,
            ledger,
            pool,
            scratch_base,
            scratch_len,
            txlog,
            dag: None,
            host_dram: AtomicU64::new(0),
            init_ns: 0,
            trav_ns: AtomicU64::new(0),
            engine_label: self.label.clone(),
            interner: Interner::default(),
            image_bytes: self.image_bytes,
            retry: self.retry,
            obs: Arc::new(if self.trace { Obs::new() } else { Obs::disabled() }),
            serve_mode,
            pool_layout,
        };
        session.init(&self.bounds)?;
        Ok(session)
    }
}

/// Number of id spaces in the [`Interner`] (a power of two). Ids carry
/// the index of their space in their low bits.
pub(crate) const INTERN_SHARDS: usize = 16;

/// One id space of the interner: its own map and id list.
#[derive(Default)]
struct InternShard {
    map: HashMap<Vec<u32>, u32>,
    list: Vec<Vec<u32>>,
}

/// Host-side n-gram interner (CPU-side sequence dictionary; its DRAM
/// footprint is ledger-tracked, which is why sequence tasks show the
/// smallest DRAM savings in §VI-C).
///
/// Ids are part of the cost model, not just names: sequence lists are
/// stored id-sorted, and ranked inverted index materialises its result in
/// id order through the stateful line cache, so the order ids are assigned
/// in decides which dictionary lines hit. Every n-gram is therefore
/// interned on the session's controlling thread, in item order (parallel
/// cache builders hand their raw n-grams back to the level barrier), which
/// makes ids — and with them pool bytes and virtual time — independent of
/// scheduling. An n-gram hashes (deterministically) to one of
/// [`INTERN_SHARDS`] id spaces and takes the next index there; ids encode
/// the space in their low bits.
#[derive(Default)]
pub(crate) struct Interner {
    shards: Mutex<[InternShard; INTERN_SHARDS]>,
}

impl Interner {
    /// Deterministic id space for a gram (FNV-1a over its words).
    fn shard_of(gram: &[u32]) -> usize {
        let h = gram.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (h as usize) & (INTERN_SHARDS - 1)
    }

    /// Intern an n-gram, returning its id and whether it was new.
    pub fn intern(&self, gram: &[u32]) -> (u32, bool) {
        let s = Self::shard_of(gram);
        let sh = &mut lock(&self.shards)[s];
        if let Some(&id) = sh.map.get(gram) {
            return (id, false);
        }
        let id = ((sh.list.len() as u32) << INTERN_SHARDS.trailing_zeros()) | s as u32;
        sh.list.push(gram.to_vec());
        sh.map.insert(gram.to_vec(), id);
        (id, true)
    }

    /// The n-gram behind `id`.
    pub fn gram(&self, id: u32) -> Vec<u32> {
        let s = (id as usize) & (INTERN_SHARDS - 1);
        let idx = (id >> INTERN_SHARDS.trailing_zeros()) as usize;
        lock(&self.shards)[s].list[idx].clone()
    }
}

/// A single task run: the device, pools and DAG built by the init phase.
pub struct Session {
    pub(crate) comp: Arc<Compressed>,
    /// The engine's grammar facts for `comp`: the topological order the
    /// traversals walk (its host copy is DRAM-ledgered by init) and the
    /// dependency levels of the cache builders.
    pub(crate) facts: Arc<GrammarFacts>,
    pub(crate) cfg: EngineConfig,
    pub(crate) task: Task,
    pub(crate) dev: Arc<SimDevice>,
    /// The durable pool device (file- or mmap-backed, per
    /// [`PoolBackend`]) when this session came from [`Engine::open_pool`];
    /// `None` for purely in-memory sessions. `dev` is always its twin, so
    /// consumers need no indirection.
    backend: Option<Arc<dyn PoolDevice>>,
    /// The session's storage backend behind the object-safe trait: the
    /// file device when one is attached, the simulator otherwise (what
    /// [`Session::backend`] hands out).
    backend_dyn: Arc<dyn PmemBackend>,
    /// Snapshot handle for the corpus this session serves: fingerprint
    /// plus a view of the backing pool. Shared into every response.
    snapshot: Arc<Snapshot>,
    pub(crate) ledger: Arc<AllocLedger>,
    pub(crate) pool: Arc<PmemPool>,
    scratch_base: u64,
    scratch_len: u64,
    pub(crate) txlog: Option<Arc<Mutex<TxLog>>>,
    pub(crate) dag: Option<DagPool>,
    /// Running total of host-side DRAM bytes (ledgered).
    host_dram: AtomicU64,
    init_ns: u64,
    trav_ns: AtomicU64,
    engine_label: String,
    pub(crate) interner: Interner,
    image_bytes: u64,
    retry: RetryPolicy,
    /// Span recorder + metric registry for this run. Spans are opened on
    /// the session's controlling thread only (see `ntadoc_pmem::obs`).
    pub(crate) obs: Arc<Obs>,
    /// Serve sessions build word-list caches unconditionally and restrict
    /// traversal to the read-only cache-backed paths.
    pub(crate) serve_mode: bool,
    /// DAG-pool layout this session builds (and decodes) the pool with:
    /// the engine's configured layout for fresh pools, the header-sealed
    /// layout for reopened pool files.
    pool_layout: PoolLayoutConfig,
}

impl Session {
    /// The DAG pool. Built by init; asking before then (or after a failed
    /// init) is reported as a typed error, not a panic, so backend I/O
    /// failures during init surface through the normal error path.
    pub(crate) fn dag(&self) -> Result<&DagPool> {
        self.dag.as_ref().ok_or_else(|| {
            PmemError::Unsupported("session is not initialized: no DAG pool is resident".into())
        })
    }

    /// Charge modeled CPU work for `n` items.
    pub(crate) fn charge_items(&self, n: u64) {
        self.dev.charge_ns(n * self.cfg.cost.per_item_ns);
    }

    /// Charge modeled CPU work for sorting `n` elements.
    pub(crate) fn charge_sort(&self, n: u64) {
        if n > 1 {
            let log = 64 - n.leading_zeros() as u64;
            self.dev.charge_ns(n * log * self.cfg.cost.per_compare_ns);
        }
    }

    /// Record host-side DRAM allocation (RSS proxy bookkeeping).
    pub(crate) fn note_dram(&self, bytes: u64) {
        self.ledger.on_alloc(DeviceKind::Dram, bytes);
        self.host_dram.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record host-side DRAM release.
    pub(crate) fn drop_dram(&self, bytes: u64) {
        self.ledger.on_free(DeviceKind::Dram, bytes);
        let _ = self
            .host_dram
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
    }

    /// A fresh scratch pool over the dedicated scratch region (transient
    /// hash tables; reset wholesale on each call).
    pub(crate) fn fresh_scratch(&self) -> Arc<PmemPool> {
        Arc::new(PmemPool::new(self.dev.clone(), self.scratch_base, self.scratch_len))
    }

    /// Effective traversal strategy for this task (§VI-E's Auto policy:
    /// bottom-up for file-oriented tasks over many files). Serve sessions
    /// are always bottom-up: the read-only paths are cache merges.
    pub(crate) fn strategy(&self) -> Traversal {
        if self.serve_mode {
            return Traversal::BottomUp;
        }
        match self.cfg.traversal {
            Traversal::Auto => {
                if self.task.is_file_oriented()
                    && self.dag.as_ref().is_some_and(|d| d.nfiles() >= 64)
                {
                    Traversal::BottomUp
                } else {
                    Traversal::TopDown
                }
            }
            t => t,
        }
    }

    /// Whether word-list (or sequence-list) caches are built during init.
    fn needs_caches(&self) -> bool {
        if self.serve_mode {
            return true;
        }
        match self.task {
            Task::TermVector | Task::InvertedIndex => {
                matches!(self.strategy_for_planning(), Traversal::BottomUp)
            }
            Task::RankedInvertedIndex => true,
            _ => false,
        }
    }

    /// `strategy()` without requiring the DAG (used during init planning).
    fn strategy_for_planning(&self) -> Traversal {
        if self.serve_mode {
            return Traversal::BottomUp;
        }
        match self.cfg.traversal {
            Traversal::Auto => {
                if self.task.is_file_oriented() && self.comp.file_count() >= 64 {
                    Traversal::BottomUp
                } else {
                    Traversal::TopDown
                }
            }
            t => t,
        }
    }

    /// The initialization phase, recorded as the `"init"` span with one
    /// child span per numbered step.
    fn init(&mut self, engine_bounds: &[u64]) -> Result<()> {
        let obs = self.obs.clone();
        let dev = self.dev.clone();
        obs.span("init", &dev, || self.init_steps(&obs, &dev, engine_bounds))?;
        self.init_ns = self.dev.stats().virtual_ns;
        Ok(())
    }

    /// Every grammar-derived input comes from the engine (`facts`,
    /// `engine_bounds`): the steps charge the modeled cost of deriving it
    /// but walk the grammar only to write it to the device.
    fn init_steps(&mut self, obs: &Obs, dev: &SimDevice, engine_bounds: &[u64]) -> Result<()> {
        let cost = self.cfg.cost;
        // 0. Open/map the persistent pool (fixed cost; volatile DRAM runs
        // skip it — this is part of why the smallest dataset shows the
        // largest gap to DRAM TADOC in Figure 6).
        if self.dev.profile().kind.is_persistent() {
            obs.span("pool-open", dev, || self.dev.charge_ns(cost.pool_open_ns));
        }
        // 1. Stream the compressed image from disk. The staging buffer the
        // image is parsed out of is DRAM-resident for the duration of the
        // init phase — it is the bulk of N-TADOC's remaining DRAM
        // footprint (§VI-C).
        let staging = self.image_bytes * 3 / 2; // raw image + parse cursor state
        obs.span("image-stream", dev, || {
            self.dev.charge_ns(cost.disk_read_ns(self.image_bytes));
            self.note_dram(staging);
        });
        // 2. Parse (host CPU).
        let facts = self.facts.clone();
        let total_syms = self.comp.grammar.total_symbols();
        obs.span("parse", dev, || self.charge_items(total_syms as u64));

        // 3. Bottom-up summation for container pre-sizing (§IV-C): the
        // engine's bounds, clamped to the vocabulary.
        let bounds = if self.cfg.presize {
            obs.span("summation", dev, || {
                let vocab = self.comp.dict.len() as u64;
                self.charge_items(total_syms as u64);
                Some(engine_bounds.iter().map(|&x| x.min(vocab)).collect::<Vec<u64>>())
            })
        } else {
            None
        };

        // 4. Head/tail preprocessing for sequence tasks (§IV-D).
        let info = if self.task.is_sequence() {
            obs.span("head-tail", dev, || {
                let width = self.cfg.ngram.saturating_sub(1).max(1);
                let i = head_tail_over(&self.comp.grammar, &facts.topo, width);
                self.charge_items(total_syms as u64);
                Some(i)
            })
        } else {
            None
        };

        // 5. Build the DAG pool (§IV-B).
        obs.span("dag-build", dev, || -> Result<()> {
            let opts = DagBuildOptions {
                pruned: self.cfg.pruned,
                adjacent: self.cfg.adjacent_layout,
                bounds,
                head_tail: if self.task.is_sequence() {
                    Some(self.cfg.ngram.saturating_sub(1).max(1))
                } else {
                    None
                },
                alloc_overhead_ns: if self.dev.profile().kind.is_persistent() {
                    self.cfg.cost.pmdk_alloc_ns
                } else {
                    self.cfg.cost.malloc_ns
                },
                layout: self.pool_layout,
            };
            let dag = DagPool::build(self.pool.clone(), &self.comp, info.as_ref(), &opts)?;
            self.dag = Some(dag);
            Ok(())
        })?;

        // 6. Host-side topological order. Ledgered at 8 B per rule — the
        // order and its inverse, as the model has always sized it — though
        // only the order is kept (nothing ever read the inverse).
        obs.span("topo-order", dev, || {
            let nrules = facts.topo.len();
            self.note_dram(nrules as u64 * 8);
            self.charge_items(nrules as u64);
        });

        // 7. Per-rule caches for bottom-up traversal (span recorded inside,
        // one child per dependency level in the pruned configuration).
        if self.needs_caches() {
            match self.task {
                Task::RankedInvertedIndex => {
                    obs.span("seqlist-cache", dev, || self.build_seqlist_caches())?
                }
                _ => obs.span("wordlist-cache", dev, || self.build_wordlist_caches())?,
            }
        }

        // 8. Phase boundary: persist the pool and publish the snapshot
        // fingerprint into the backend (the pool header for file-backed
        // pools), sealing which corpus this pool now serves; the staging
        // buffer is released at the end of the phase.
        obs.span("persist", dev, || -> Result<()> {
            if self.cfg.persistence != Persistence::None {
                self.dag()?.persist_all();
            }
            self.backend_dyn.publish_snapshot(self.snapshot.fingerprint())?;
            self.drop_dram(staging);
            Ok(())
        })?;
        Ok(())
    }

    /// Run one typed [`Query`] through the graph-traversal phase under
    /// the engine's [`RetryPolicy`]: the unified entry point for an
    /// initialized session. The query's task must be the task this
    /// session was initialized for; result shaping (`top_k`,
    /// `file_filter`) is applied host-side after the traversal.
    pub fn run_query(&mut self, query: &Query) -> Result<QueryResponse> {
        query.validate()?;
        if query.task != self.task {
            return Err(PmemError::Unsupported(format!(
                "session was initialized for '{}', not '{}' — open a session per task \
                 or use a ServeSession",
                self.task, query.task
            )));
        }
        let max = match self.retry {
            RetryPolicy::Fail => 0,
            RetryPolicy::MediaRetries(n) => n,
        };
        let mut attempts = 0u32;
        let out = loop {
            match self.traverse() {
                Err(PmemError::MediaError { .. }) if attempts < max => {
                    // Phase re-run: a successful rewrite re-programs the
                    // faulted cells, so result regions heal; a fault
                    // pinned on read-only data keeps failing and exhausts
                    // the attempts.
                    attempts += 1;
                    // Bounded exponential backoff, charged to the virtual
                    // clock: transient media faults get geometrically more
                    // settle time per retry, deterministically.
                    self.dev.charge_ns(backoff_ns(self.dev.profile().write_back_ns(), attempts));
                    self.obs.metrics.counter_add(METRIC_MEDIA_RETRIES, 1);
                    self.recover()?;
                }
                other => break other?,
            }
        };
        Ok(QueryResponse {
            tenant: query.tenant,
            task: query.task,
            output: Arc::new(query.key().apply(out)),
            cache_hit: false,
            snapshot: self.snapshot.clone(),
        })
    }

    /// The graph-traversal phase, one attempt, recorded as a
    /// `"traversal"` span (each retry records its own). Re-runnable: under
    /// phase-level persistence, a crash during traversal recovers by
    /// calling this again on the persisted pool.
    pub fn traverse(&mut self) -> Result<TaskOutput> {
        let obs = self.obs.clone();
        let dev = self.dev.clone();
        let out = obs.span("traversal", &dev, || -> Result<TaskOutput> {
            let out = match self.task {
                Task::WordCount => self.task_word_count()?,
                Task::Sort => self.task_sort()?,
                Task::TermVector => self.task_term_vector()?,
                Task::InvertedIndex => self.task_inverted_index()?,
                Task::SequenceCount => self.task_sequence_count()?,
                Task::RankedInvertedIndex => self.task_ranked_inverted_index()?,
            };
            obs.span("writeback", &dev, || -> Result<()> {
                // Close any open operation-level transaction.
                if let Some(tx) = &self.txlog {
                    let mut tx = lock(tx);
                    if tx.is_active() {
                        tx.commit()?;
                    }
                }
                // Phase boundary: persist results, write them back to disk.
                if self.cfg.persistence != Persistence::None {
                    self.pool.persist_used();
                }
                self.dev.charge_ns(self.cfg.cost.disk_read_ns(out.approx_bytes()));
                Ok(())
            })?;
            Ok(out)
        })?;
        self.trav_ns.store(self.dev.stats().virtual_ns - self.init_ns, Ordering::Relaxed);
        Ok(out)
    }

    /// Measurement report for this session (after `execute`/`traverse`).
    /// Report-time scalars (allocation peaks, cache hit rate) are folded
    /// into the metric snapshot whether or not tracing is enabled; with
    /// tracing off the span tree is synthesized from the phase totals.
    pub fn report(&self) -> RunReport {
        let stats = self.dev.stats();
        let kind = self.dev.profile().kind;
        let mut metrics = self.obs.metrics.snapshot();
        metrics.insert(
            METRIC_DRAM_PEAK.to_string(),
            MetricValue::Gauge(self.ledger.peak(DeviceKind::Dram) as f64),
        );
        metrics.insert(
            METRIC_DEVICE_PEAK.to_string(),
            MetricValue::Gauge(if kind == DeviceKind::Dram {
                self.ledger.peak(DeviceKind::Dram)
            } else {
                self.ledger.peak(kind)
            } as f64),
        );
        metrics.insert(METRIC_HIT_RATE.to_string(), MetricValue::Gauge(stats.hit_rate()));
        // Per-shard contention counters from the sharded read path. Each
        // shard total is a sum of per-item deferred counters, attributed
        // by line index — schedule-independent like the rest of the
        // report. (Optimistic-read retries are deliberately excluded:
        // they depend on writer interleaving.)
        for (i, s) in self.dev.read_shard_stats().iter().enumerate() {
            metrics.insert(format!("contention.shard{i:02}.reads"), MetricValue::Counter(s.reads));
            metrics.insert(
                format!("contention.shard{i:02}.line_misses"),
                MetricValue::Counter(s.line_misses),
            );
        }
        let mut spans = if self.obs.enabled() {
            self.obs.tree("run")
        } else {
            SpanNode {
                name: "run".to_string(),
                virtual_ns: 0,
                stats: AccessStats::default(),
                children: vec![
                    SpanNode::leaf(
                        "init",
                        AccessStats { virtual_ns: self.init_ns, ..Default::default() },
                    ),
                    SpanNode::leaf(
                        "traversal",
                        AccessStats {
                            virtual_ns: self.trav_ns.load(Ordering::Relaxed),
                            ..Default::default()
                        },
                    ),
                ],
            }
        };
        // The root always describes the whole run, including any traffic
        // that fell outside recorded spans.
        spans.stats = stats;
        spans.virtual_ns = stats.virtual_ns;
        RunReport {
            version: REPORT_VERSION,
            task: self.task,
            engine: self.engine_label.clone(),
            device: self.dev.profile().name.to_string(),
            spans,
            metrics,
            stats,
            wear_top: self.dev.wear_top(8),
        }
    }

    /// The session's storage backend behind the object-safe
    /// [`PmemBackend`] trait: the file device when this session came from
    /// [`Engine::open_pool`], the simulator otherwise. The one accessor
    /// that suffices for everything on the trait (stats, crash/trip
    /// injection, capacity, raw reads).
    pub fn backend(&self) -> &Arc<dyn PmemBackend> {
        &self.backend_dyn
    }

    /// The simulator twin (always present — for file-backed sessions it
    /// is the pool file's cost-model twin: same stats, same crash
    /// behavior). This is deliberately *not* on the [`PmemBackend`]
    /// trait: it carries the simulator-only instrumentation surface
    /// (shard stats, fault injection, wear tracking, crash modes).
    pub fn sim_device(&self) -> &Arc<SimDevice> {
        &self.dev
    }

    /// The durable pool device (file- or mmap-backed), when this session
    /// came from [`Engine::open_pool`] (byte-identity checks, host-crash
    /// injection, fsck after crash).
    pub fn pool_file(&self) -> Option<&Arc<dyn PoolDevice>> {
        self.backend.as_ref()
    }

    /// The snapshot handle this session serves: corpus fingerprint plus
    /// the backing pool view. Every response of this session references
    /// the same handle.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The grammar snapshot version this session serves
    /// ([`Engine::snapshot_version`]); shorthand for
    /// `session.snapshot().fingerprint()`.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot.fingerprint()
    }

    /// Simulate a power failure on the session's device (under the
    /// device's configured crash mode).
    pub fn crash(&self) {
        self.dev.crash();
    }

    /// Simulate a seeded torn-write power failure on the session's device:
    /// flushed-but-unfenced lines independently survive or revert, and any
    /// interrupted store lands as an arbitrary subset of its 8-byte words.
    pub fn crash_torn(&self, seed: u64) {
        self.dev.crash_torn(seed);
    }

    /// Post-crash recovery: roll back any in-flight operation-level
    /// transaction. Under phase-level persistence this is a no-op; the
    /// caller then re-runs `traverse` (restart from the phase checkpoint).
    pub fn recover(&mut self) -> Result<()> {
        if let Some(tx) = &self.txlog {
            lock(tx).recover()?;
        }
        Ok(())
    }

    // ---- counters with persistence wiring --------------------------------

    /// A result counter table on the main pool, pre-sized when the
    /// summation is on, wired to the session's persistence strategy.
    pub(crate) fn result_counter(&self, expected: usize) -> Result<TxCounter> {
        let table = PHashTable::with_expected(
            self.pool.clone(),
            if self.cfg.presize { expected.max(1) } else { 8 },
            self.cfg.presize,
        )?;
        Ok(TxCounter::new(table, self.txlog.clone(), TX_BATCH))
    }

    /// Operation-level persistence guard for a freshly written region:
    /// under [`Persistence::OperationLevel`] the region is undo-logged and
    /// the transaction committed immediately (one transaction per
    /// operation, as PMDK `libpmemobj` would); otherwise a no-op — the
    /// phase boundary will flush it wholesale.
    pub(crate) fn op_guard(&self, addr: u64, len: usize) -> Result<()> {
        if let Some(tx) = &self.txlog {
            let mut tx = lock(tx);
            if !tx.is_active() {
                tx.begin()?;
            }
            // Log in log-region-sized chunks; commit per operation.
            let chunk = 64 << 10;
            let mut at = addr;
            let mut left = len;
            while left > 0 {
                let n = left.min(chunk);
                if tx.log_range(at, n).is_err() {
                    // Log full: commit and continue in a fresh transaction.
                    tx.commit()?;
                    tx.begin()?;
                    tx.log_range(at, n)?;
                }
                at += n as u64;
                left -= n;
            }
            tx.commit()?;
        }
        Ok(())
    }

    /// Result counter for n-gram spaces: pre-sized generously but always
    /// growable — the summation's upper bounds cover word lists, not
    /// n-gram spaces, so a fixed capacity would be unsound.
    pub(crate) fn ngram_counter(&self, expected: usize) -> Result<TxCounter> {
        let table = PHashTable::with_expected(
            self.pool.clone(),
            if self.cfg.presize { expected.max(1) } else { 8 },
            false,
        )?;
        Ok(TxCounter::new(table, self.txlog.clone(), TX_BATCH))
    }

    /// A transient scratch counter table (per-rule / per-file merges).
    /// Scratch tables are never transactional: they are recomputed on
    /// recovery, not persisted.
    pub(crate) fn scratch_counter(&self, expected: usize) -> Result<PHashTable> {
        PHashTable::with_expected(
            self.fresh_scratch(),
            if self.cfg.presize { expected.max(1) } else { 8 },
            self.cfg.presize,
        )
    }

    /// Scratch counter for n-gram spaces: pre-sized from a loose bound but
    /// always growable (a fixed capacity would be unsound for n-grams).
    pub(crate) fn scratch_counter_soft(&self, expected: usize) -> Result<PHashTable> {
        PHashTable::with_expected(
            self.fresh_scratch(),
            if self.cfg.presize { expected.max(1) } else { 8 },
            false,
        )
    }
}

/// A build-once/serve-many session: the init phase has run, the DAG pool
/// and word-list caches are resident, and batches of read-only tasks run
/// concurrently against them. Created by [`Engine::serve`].
///
/// Each task in a batch executes on its own worker with deferred device
/// accounting; the batch's virtual time advances by the deterministic
/// virtual-lane makespan, so reported time is identical for any
/// `RAYON_NUM_THREADS` (see `ntadoc_pmem::par`).
pub struct ServeSession {
    session: Session,
}

impl ServeSession {
    /// Execute a batch of typed queries concurrently, returning one
    /// [`QueryResponse`] per query, in query order. Servable tasks: word
    /// count, sort, term vector, inverted index; anything else fails with
    /// [`PmemError::Unsupported`], as does a `file_filter` on a
    /// corpus-global task.
    ///
    /// Each query runs the full DAG traversal for its key — batching
    /// *across* identical queries (dedup, caching) is the serve daemon's
    /// job (`ntadoc-serve`), which sits above this and calls in with the
    /// already-deduplicated miss set. After the parallel barrier each
    /// query's deferred device cost is recorded as a per-tenant leaf span
    /// (`tenant:<id>`) under the batch span.
    pub fn run_queries(&self, queries: &[Query]) -> Result<Vec<QueryResponse>> {
        for q in queries {
            q.validate()?;
        }
        let s = &self.session;
        let obs = s.obs.clone();
        let out: Result<Vec<TaskOutput>> = obs.span("serve-batch", &s.dev, || {
            let (results, charges) =
                par_map_timed(queries, |_, q| s.serve_task(q.task).map(|o| q.key().apply(o)));
            // Barrier: merge each task's deferred read counters and join
            // the clock before the span closes, so the span's stats delta
            // covers every read this batch issued.
            join_deferred(&s.dev, &charges);
            // Attribute each query's deferred device cost to its tenant
            // (controlling thread, inside the still-open batch span).
            for (q, c) in queries.iter().zip(&charges) {
                obs.record_leaf_labeled(
                    "tenant",
                    q.tenant,
                    AccessStats {
                        virtual_ns: c.ns(),
                        reads: c.reads(),
                        line_misses: c.line_misses(),
                        ..Default::default()
                    },
                );
            }
            results.into_iter().collect()
        });
        let out = out?;
        s.trav_ns.store(s.dev.stats().virtual_ns - s.init_ns, Ordering::Relaxed);
        // Serve throughput: tasks served so far per post-init virtual
        // second (deterministic — both terms derive from the virtual
        // clock, not the wall clock).
        obs.metrics.counter_add(METRIC_SERVE_TASKS, queries.len() as u64);
        let served_ns = s.trav_ns.load(Ordering::Relaxed);
        if obs.enabled() && served_ns > 0 {
            let total = obs
                .metrics
                .snapshot()
                .get(METRIC_SERVE_TASKS)
                .and_then(MetricValue::as_counter)
                .unwrap_or(0);
            obs.metrics.gauge_set(METRIC_SERVE_RATE, total as f64 / (served_ns as f64 / 1e9));
        }
        Ok(out
            .into_iter()
            .zip(queries)
            .map(|(o, q)| QueryResponse {
                tenant: q.tenant,
                task: q.task,
                output: Arc::new(o),
                cache_hit: false,
                snapshot: s.snapshot.clone(),
            })
            .collect())
    }

    /// Measurement report (init time plus all batches served so far).
    pub fn report(&self) -> RunReport {
        self.session.report()
    }

    /// The snapshot handle this serve session answers for: corpus
    /// fingerprint plus the backing pool view — see [`Session::snapshot`].
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        self.session.snapshot()
    }

    /// The grammar snapshot version this serve session answers for
    /// ([`Engine::snapshot_version`]) — the cache-key half a serve daemon
    /// pairs with each [`Query::key`].
    pub fn snapshot_version(&self) -> u64 {
        self.session.snapshot_version()
    }

    /// The storage backend behind the object-safe [`PmemBackend`] trait.
    pub fn backend(&self) -> &Arc<dyn PmemBackend> {
        self.session.backend()
    }

    /// The simulator twin (stats inspection, fault injection in tests and
    /// benches) — see [`Session::sim_device`].
    pub fn sim_device(&self) -> &Arc<SimDevice> {
        self.session.sim_device()
    }

    /// The session's observability handle: the serve daemon records its
    /// queue/cache/admission metrics and per-tenant spans here so they
    /// fold into [`ServeSession::report`] alongside the engine's own.
    pub fn obs(&self) -> &Obs {
        &self.session.obs
    }
}

/// Counter table wired to the persistence strategy: under operation-level
/// persistence every update is undo-logged and transactions commit every
/// [`TX_BATCH`] updates.
pub(crate) struct TxCounter {
    pub table: PHashTable,
    tx: Option<Arc<Mutex<TxLog>>>,
    pending: Cell<usize>,
    batch: usize,
}

impl TxCounter {
    /// Wrap a table with an optional transaction log (operation-level
    /// persistence) committing every `batch` updates. The batch is the
    /// "operation": one rule interpretation for the compressed engines,
    /// one I/O block for the scan baseline.
    pub(crate) fn new(table: PHashTable, tx: Option<Arc<Mutex<TxLog>>>, batch: usize) -> Self {
        TxCounter { table, tx, pending: Cell::new(0), batch }
    }

    /// Add `delta` at `key` under the session's persistence regime.
    pub fn add(&self, key: u64, delta: u64) -> Result<()> {
        match &self.tx {
            None => self.table.add(key, delta),
            Some(tx) => {
                let mut tx = lock(tx);
                if !tx.is_active() {
                    tx.begin()?;
                }
                match self.table.add_tx(key, delta, &mut tx) {
                    Err(PmemError::LogExhausted { .. }) => {
                        // Log full mid-batch: commit what we have and
                        // retry in a fresh transaction (a fixed-size log
                        // region flushes on pressure).
                        tx.commit()?;
                        tx.begin()?;
                        self.table.add_tx(key, delta, &mut tx)?;
                        self.pending.set(1);
                        return Ok(());
                    }
                    Err(PmemError::GrowDuringTransaction { .. }) => {
                        // Growable tables (summation off, or n-gram
                        // spaces) may hit the load factor mid-batch. The
                        // reconstruction's bulk writes are not undo-logged,
                        // so it must happen between transactions: commit
                        // the batch, grow, retry in a fresh transaction. A
                        // crash in the gap re-runs the traversal from the
                        // last checkpoint, so no rollback is needed there.
                        tx.commit()?;
                        self.table.reserve_for_insert()?;
                        tx.begin()?;
                        self.table.add_tx(key, delta, &mut tx)?;
                        self.pending.set(1);
                        return Ok(());
                    }
                    other => other?,
                }
                let p = self.pending.get() + 1;
                if p >= self.batch {
                    tx.commit()?;
                    self.pending.set(0);
                } else {
                    self.pending.set(p);
                }
                Ok(())
            }
        }
    }

    /// Commit any open transaction (end of a traversal loop).
    pub fn finish(&self) -> Result<()> {
        if let Some(tx) = &self.tx {
            let mut tx = lock(tx);
            if tx.is_active() {
                tx.commit()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summation::upper_bounds;

    fn files(range: std::ops::Range<usize>) -> Vec<(String, String)> {
        range
            .map(|f| {
                let text: String = (0..90)
                    .map(|w| format!("p{}w{} ", (f * 5 + w / 4) % 13, w % 4 + (f + w) % 3))
                    .collect();
                (format!("f{f}"), text)
            })
            .collect()
    }

    /// Sessions take their bounds from the engine, so the engine's must be
    /// what `upper_bounds` computes (`tests/init_one_pass.rs` compares the
    /// pools they write).
    #[test]
    fn engine_held_bounds_equal_a_full_recompute() {
        let mut engine = EngineBuilder::from_files(files(0..5)).build().unwrap();
        assert_eq!(engine.bounds, upper_bounds(&engine.comp.grammar).bounds, "fresh");
        engine.append_files(files(5..8)).unwrap();
        engine.append_files(files(8..9)).unwrap();
        assert_eq!(engine.bounds, upper_bounds(&engine.comp.grammar).bounds, "after two appends");
    }

    #[test]
    fn backoff_caps_the_exponent_and_saturates() {
        // Exponential while under the cap…
        assert_eq!(backoff_ns(100, 1), 200);
        assert_eq!(backoff_ns(100, 4), 1600);
        // …flat once past it: a huge attempt count (e.g. a long
        // MediaRetries budget against a pinned fault) charges the same
        // bounded settle time as attempt 16, instead of shifting the
        // base out of the word.
        assert_eq!(backoff_ns(100, MAX_BACKOFF_SHIFT), backoff_ns(100, 64));
        assert_eq!(backoff_ns(100, u32::MAX), backoff_ns(100, MAX_BACKOFF_SHIFT));
        // Pathological profile latencies saturate instead of wrapping the
        // virtual clock. Pre-fix, `base << 16` silently dropped the top
        // bits: u64::MAX << 16 wraps to ..FFFF0000, and larger bases
        // could wrap to *small* charges.
        assert_eq!(backoff_ns(u64::MAX, 20), u64::MAX);
        assert_eq!(backoff_ns(u64::MAX / 2, 2), u64::MAX);
        assert_eq!(backoff_ns(0, 63), 0);
    }
}
