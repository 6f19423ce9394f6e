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
//!
//! One file per type: `builder` (the builder and its enums), `session`,
//! `serve`, `interner`, `txcounter`; `scaffold` is what every run stands
//! on and `shape` turns id-level results into [`TaskRows`] — both shared
//! with [`crate::baseline`]; `tasks` and `sequence` are the compressed
//! engines' id-level halves of the six tasks.

mod builder;
mod interner;
mod scaffold;
mod sequence;
mod serve;
mod session;
pub(crate) mod shape;
mod tasks;
mod txcounter;

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use ntadoc_grammar::{serialized_len, Compressed};
use ntadoc_pmem::{DeviceProfile, PmemError, PoolHeader, PoolLayout, SpanNode, TxLog};

pub use builder::{EngineBuilder, PoolBackend, RetryPolicy};
pub use serve::ServeSession;
pub use session::Session;

pub(crate) use interner::Interner;
pub(crate) use scaffold::{with_doubling_capacity, RunScaffold, LOG_BYTES};
pub(crate) use txcounter::TxCounter;

use crate::config::{EngineConfig, Persistence};
use crate::ingest::{ingest_append, AppendIngest};
use crate::layout::PoolLayoutConfig;
use crate::query::{snapshot_fingerprint, Query, Snapshot, TenantId};
use crate::report::RunReport;
use crate::result::{Task, TaskOutput, TaskRows};
use crate::summation::{bounds_over, head_tail_over, GrammarFacts};
use crate::Result;

/// Lock a mutex, riding through poisoning: engine state is guarded by the
/// torn-write crash model, not by unwinding writers, so a poisoned lock
/// carries no extra information here.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reusable engine: one corpus, one configuration, one device profile.
pub struct Engine {
    comp: Arc<Compressed>,
    cfg: EngineConfig,
    profile: DeviceProfile,
    label: String,
    retry: RetryPolicy,
    /// What the engine derived from `comp`.
    derived: Derived,
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
    /// Rules the append dirtied: the root, the rules it reused and the
    /// rules it created (what the modeled re-summation walks).
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
    /// Derive the plan from the corpus plus its summation facts:
    /// unclamped bounds and per-rule expansion lengths.
    fn from_facts(comp: &Compressed, bounds: &[u64], exp_len: &[u64]) -> CapacityPlan {
        let vocab = comp.dict.len();
        CapacityPlan {
            nrules: comp.grammar.rule_count(),
            total_symbols: comp.grammar.total_symbols(),
            vocab,
            expanded_words: exp_len[0],
            dict_text: comp.dict.text_bytes(),
            sum_bounds: bounds.iter().map(|&b| b.min(vocab as u64)).sum(),
            max_exp_nonroot: exp_len.iter().skip(1).copied().max().unwrap_or(0),
        }
    }
}

/// What an engine derives from its corpus, once per snapshot: at
/// [`EngineBuilder::build`] and again after every
/// [`Engine::append_files`].
struct Derived {
    /// Topological order and level split of the grammar, shared with every
    /// session.
    facts: Arc<GrammarFacts>,
    /// Per-rule expansion upper bounds, unclamped; sessions take theirs
    /// from here.
    bounds: Vec<u64>,
    /// Host-side grammar statistics used for capacity planning only.
    plan: CapacityPlan,
    /// Serialized image size (charged as the init disk read).
    image_bytes: u64,
    /// Deterministic corpus fingerprint ([`snapshot_fingerprint`]) — the
    /// grammar snapshot version that keys serve-layer result caches.
    snapshot: u64,
}

impl Derived {
    fn of(comp: &Compressed) -> Derived {
        let facts = Arc::new(GrammarFacts::derive(&comp.grammar));
        let bounds = bounds_over(&comp.grammar, &facts.topo).bounds;
        let exp_len = head_tail_over(&comp.grammar, &facts.topo, 0).exp_len;
        let plan = CapacityPlan::from_facts(comp, &bounds, &exp_len);
        // Accounted without materializing the image (it is streamed from
        // disk at init; the engine only needs its size).
        let image_bytes = serialized_len(comp) as u64;
        Derived { facts, bounds, plan, image_bytes, snapshot: snapshot_fingerprint(comp) }
    }
}

impl Engine {
    /// Start building an engine for `comp` (an owned corpus or a shared
    /// `Arc<Compressed>` — engines never clone the corpus).
    pub fn builder(comp: impl Into<Arc<Compressed>>) -> EngineBuilder {
        EngineBuilder::new(comp.into())
    }

    /// Size of the corpus as uncompressed dictionary-encoded text.
    pub fn uncompressed_bytes(comp: &Compressed) -> u64 {
        let mut word_len = vec![0u64; comp.dict.len()];
        for (id, w) in comp.dict.iter() {
            word_len[id as usize] = w.len() as u64 + 1;
        }
        comp.grammar.expand_tokens().iter().map(|&t| word_len[t as usize]).sum()
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

    /// The grammar snapshot version: a deterministic fingerprint of the
    /// compressed corpus ([`snapshot_fingerprint`]). Result caches key on
    /// `(snapshot version, query)`; two engines over the same corpus
    /// agree on it, and any corpus change moves it.
    pub fn snapshot_version(&self) -> u64 {
        self.derived.snapshot
    }

    /// One [`AppendReport`] per completed [`Engine::append_files`] call,
    /// oldest first.
    pub fn append_log(&self) -> &[AppendReport] {
        &self.append_log
    }

    /// Append `files` to the corpus without recompressing it: the delta is
    /// compressed as one chunk, re-interned into the shared dictionary,
    /// spliced at the root and seam-deduplicated ([`ingest_append`]). The
    /// engine then derives its facts from the grown corpus as a build
    /// does, so its snapshot fingerprint moves; sessions and pools opened
    /// before the append keep serving the old snapshot until re-opened.
    pub fn append_files(&mut self, files: Vec<(String, String)>) -> Result<AppendReport> {
        let AppendIngest { comp, outcome, appended_tokens, appended_bytes, virtual_ns, spans } =
            ingest_append(&self.comp, &files)?;
        let old_fingerprint = self.derived.snapshot;
        self.derived = Derived::of(&comp);
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
            snapshot: Snapshot::stamped(self.derived.snapshot),
        };
        self.append_log.push(report.clone());
        Ok(report)
    }

    /// Run one benchmark end to end under the engine's [`RetryPolicy`];
    /// retries with a doubled device if the initial capacity estimate was
    /// too small. The string form of [`run_rows`](Self::run_rows).
    pub fn run(&mut self, task: Task) -> Result<TaskOutput> {
        self.run_rows(task).map(TaskRows::into_strings)
    }

    /// [`run`](Self::run), the result left in the id domain: what a caller
    /// that prints or encodes it wants.
    pub fn run_rows(&mut self, task: Task) -> Result<TaskRows> {
        let (out, report) = with_doubling_capacity(self.estimate_capacity(task), |capacity| {
            let mut session = self.sim_session(task, capacity, false)?;
            let out = session.run_query(&Query::new(TenantId::default(), task))?;
            Ok((Arc::unwrap_or_clone(out.into_rows()), session.report()))
        })?;
        self.last_report = Some(report);
        Ok(out)
    }

    /// Run only the initialization phase, returning the live [`Session`].
    /// [`Session::run_query`] then runs the traversal phase under the
    /// engine's retry policy (crash tests drive [`Session::crash_at`] and
    /// [`Session::recover`] directly instead).
    pub fn session(&self, task: Task) -> Result<Session> {
        self.sim_session(task, self.estimate_capacity(task), false)
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
        self.serve_over(|task| {
            with_doubling_capacity(self.estimate_capacity(task), |capacity| {
                self.sim_session(task, capacity, true)
            })
        })
    }

    /// A serve handle over the session `open` initializes, planned for
    /// the widest servable task so the word-list caches and file-oriented
    /// structures all fit.
    fn serve_over(&self, open: impl FnOnce(Task) -> Result<Session>) -> Result<ServeSession> {
        if !self.cfg.pruned {
            return Err(PmemError::Unsupported(
                "serve mode requires the pruned configuration (per-rule word-list caches)".into(),
            ));
        }
        Ok(ServeSession { session: open(Task::InvertedIndex)? })
    }

    /// Scratch region sizing: the largest transient hash table, times the
    /// reallocation-generation factor for growable tables.
    fn scratch_bytes(&self, task: Task) -> u64 {
        let per_entry = 17u64; // status 1 + key 8 + value 8
        let plan = &self.derived.plan;
        let mut need = plan.vocab as u64 + 16;
        if task.is_sequence() {
            // Per-rule sequence lists / per-file n-gram tables can reach
            // the expansion length of the largest non-root rule or file.
            need = need
                .max(plan.max_exp_nonroot * self.cfg.ngram as u64)
                .max(plan.expanded_words / self.comp.file_count().max(1) as u64 * 2);
        }
        let slots = (need * 8 / 7 + 16).next_power_of_two();
        per_entry * slots * 6 + (1 << 16)
    }

    fn estimate_capacity(&self, task: Task) -> usize {
        let p = &self.derived.plan;
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
        bytes += LOG_BYTES;
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
        let main_len = capacity as u64 - scratch_len - LOG_BYTES;
        PoolLayout { capacity: capacity as u64, main_len, scratch_len, log_len: LOG_BYTES }
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
        self.serve_over(|task| self.open_pool_inner(path, task, true))
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
            if published != 0 && published != self.derived.snapshot {
                let _ = std::fs::remove_file(path);
                return self.create_pool(path, task, serve_mode);
            }
            self.reopen_pool(path, task, serve_mode)
        } else {
            self.create_pool(path, task, serve_mode)
        }
    }

    fn create_pool(&self, path: &Path, task: Task, serve_mode: bool) -> Result<Session> {
        with_doubling_capacity(self.estimate_capacity(task), |capacity| {
            let layout = self.plan_layout(task, capacity);
            let file = self.pool_backend.create(
                path,
                self.profile.clone(),
                layout,
                self.pool_layout.id(),
            )?;
            let opened =
                Session::open(self, task, layout, self.pool_layout, serve_mode, Some(file));
            if matches!(opened, Err(PmemError::PoolExhausted { .. })) {
                // An undersized pool file is abandoned, to be recreated at
                // double capacity (create truncates, but remove eagerly so a
                // failure between attempts never leaves a stale-capacity
                // file behind).
                let _ = std::fs::remove_file(path);
            }
            opened
        })
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
            let mut tx =
                TxLog::new(file.twin().clone(), layout.log_base(), layout.log_len as usize);
            tx.recover()?;
        }
        Session::open(self, task, layout, pool_layout, serve_mode, Some(file))
    }

    /// An initialized in-memory session over a device of `capacity` bytes.
    fn sim_session(&self, task: Task, capacity: usize, serve_mode: bool) -> Result<Session> {
        let layout = self.plan_layout(task, capacity);
        Session::open(self, task, layout, self.pool_layout, serve_mode, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{ingest_corpus, IngestOptions};
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
        let (comp, _) = ingest_corpus(&files(0..5), &IngestOptions::default());
        let mut engine = Engine::builder(comp).build().unwrap();
        assert_eq!(engine.derived.bounds, upper_bounds(&engine.comp.grammar).bounds, "fresh");
        engine.append_files(files(5..8)).unwrap();
        engine.append_files(files(8..9)).unwrap();
        assert_eq!(
            engine.derived.bounds,
            upper_bounds(&engine.comp.grammar).bounds,
            "after two appends"
        );
    }
}
