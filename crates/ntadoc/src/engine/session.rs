//! [`Session`]: one task's initialized DAG pool and the traversal over it.

use std::sync::Arc;

use ntadoc_grammar::Compressed;
use ntadoc_pmem::{
    run_with_crash_at, CrashPoint, CrashRun, Obs, PmemError, PoolDevice, PoolLayout, SimDevice,
};

use super::{lock, Engine, RetryPolicy, RunScaffold};
use crate::config::{disk_read_ns, Traversal, MALLOC_NS, PMDK_ALLOC_NS, POOL_OPEN_NS};
use crate::dag::{DagBuildOptions, DagPool};
use crate::layout::PoolLayoutConfig;
use crate::query::{snapshot_fingerprint, Query, QueryResponse, Snapshot};
use crate::report::{RunReport, METRIC_MEDIA_RETRIES};
use crate::result::{Task, TaskOutput, TaskRows};
use crate::summation::{head_tail_over, GrammarFacts};
use crate::Result;

/// How many counter updates share one undo-log transaction under
/// operation-level persistence. The paper wraps each rule-interpretation
/// operation; 256 updates approximates one such operation batch (ranges
/// are deduplicated per transaction, as PMDK's `tx_add_range` does).
const TX_BATCH: usize = 256;

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

/// A single task run: the device, pools and DAG built by the init phase.
pub struct Session {
    /// Device, pools, undo log, ledger, span recorder and n-gram
    /// dictionary of this run.
    pub(crate) sc: RunScaffold,
    pub(crate) comp: Arc<Compressed>,
    /// The engine's grammar facts for `comp`: the topological order the
    /// traversals walk (its host copy is DRAM-ledgered by init) and the
    /// dependency levels of the cache builders.
    pub(crate) facts: Arc<GrammarFacts>,
    /// The durable pool device (file- or mmap-backed, per
    /// [`PoolBackend`](super::PoolBackend)) when this session came from
    /// [`Engine::open_pool`]; `None` for purely in-memory sessions. The
    /// scaffold's device is always its twin, so consumers need no
    /// indirection.
    pool_file: Option<Arc<dyn PoolDevice>>,
    /// Snapshot handle for the corpus this session serves: its
    /// fingerprint. Shared into every response.
    snapshot: Arc<Snapshot>,
    pub(crate) dag: Option<DagPool>,
    /// The corpus's n-gram windows, from the engine's host-side plan: what
    /// the ranked index's postings are sized from (§IV-C).
    pub(crate) ngram_windows: u64,
    /// The virtual clock when init finished.
    pub(super) init_ns: u64,
    image_bytes: u64,
    retry: RetryPolicy,
    /// Serve sessions build word-list caches unconditionally and restrict
    /// traversal to the read-only cache-backed paths.
    pub(crate) serve_mode: bool,
    /// DAG-pool layout this session builds (and decodes) the pool with:
    /// the engine's configured layout for fresh pools, the header-sealed
    /// layout for reopened pool files.
    pool_layout: PoolLayoutConfig,
}

impl Session {
    /// Build a session for `engine`'s corpus over a fixed region layout —
    /// in memory, or on the twin of `file` — and run init.
    pub(super) fn open(
        engine: &Engine,
        task: Task,
        layout: PoolLayout,
        pool_layout: PoolLayoutConfig,
        serve_mode: bool,
        file: Option<Arc<dyn PoolDevice>>,
    ) -> Result<Session> {
        let sc = RunScaffold::new(
            engine.cfg.clone(),
            task,
            engine.label.clone(),
            &engine.profile,
            layout,
            file.as_ref(),
            TX_BATCH,
        )?;
        // The session's snapshot handle pins the corpus identity; responses
        // hand it out so callers can tell exactly which published state
        // answered them.
        let snapshot = Snapshot::stamped(engine.derived.snapshot);
        debug_assert_eq!(engine.derived.snapshot, snapshot_fingerprint(&engine.comp));
        let mut session = Session {
            sc,
            comp: engine.comp.clone(),
            facts: engine.derived.facts.clone(),
            pool_file: file,
            snapshot: Arc::new(snapshot),
            dag: None,
            ngram_windows: engine.derived.plan.ngram_windows(engine.cfg.ngram),
            init_ns: 0,
            image_bytes: engine.derived.image_bytes,
            retry: engine.retry,
            serve_mode,
            pool_layout,
        };
        // The initialization phase, recorded as the `"init"` span with one
        // child span per numbered step.
        let (obs, dev) = (session.sc.obs.clone(), session.sc.dev.clone());
        obs.span("init", &dev, || session.init_steps(&obs, &dev, &engine.derived.bounds))?;
        session.init_ns = dev.stats().virtual_ns;
        Ok(session)
    }

    /// The DAG pool. Built by init; asking before then (or after a failed
    /// init) is reported as a typed error, not a panic, so backend I/O
    /// failures during init surface through the normal error path.
    pub(crate) fn dag(&self) -> Result<&DagPool> {
        self.dag.as_ref().ok_or_else(|| {
            PmemError::Unsupported("session is not initialized: no DAG pool is resident".into())
        })
    }

    /// Effective traversal strategy for this task (§VI-E's Auto policy:
    /// bottom-up for file-oriented tasks over many files). Serve sessions
    /// are always bottom-up: the read-only paths are cache merges.
    pub(crate) fn strategy(&self) -> Traversal {
        if self.serve_mode {
            return Traversal::BottomUp;
        }
        match self.sc.cfg.traversal {
            Traversal::Auto => {
                if self.sc.task.is_file_oriented() && self.comp.file_count() >= 64 {
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
        match self.sc.task {
            _ if self.serve_mode => true,
            Task::TermVector | Task::InvertedIndex => self.strategy() == Traversal::BottomUp,
            Task::RankedInvertedIndex => true,
            _ => false,
        }
    }

    /// Every grammar-derived input comes from the engine (`facts`,
    /// `engine_bounds`): the steps charge the modeled cost of deriving it
    /// but walk the grammar only to write it to the device.
    fn init_steps(&mut self, obs: &Obs, dev: &SimDevice, engine_bounds: &[u64]) -> Result<()> {
        let cfg = self.sc.cfg.clone();
        let task = self.sc.task;
        let persistent = dev.profile().kind.is_persistent();
        // 0. Open/map the persistent pool (fixed cost; volatile DRAM runs
        // skip it — this is part of why the smallest dataset shows the
        // largest gap to DRAM TADOC in Figure 6).
        if persistent {
            obs.span("pool-open", dev, || dev.charge_ns(POOL_OPEN_NS));
        }
        // 1. Stream the compressed image from disk. The staging buffer the
        // image is parsed out of is DRAM-resident for the duration of the
        // init phase — it is the bulk of N-TADOC's remaining DRAM
        // footprint (§VI-C).
        let staging = self.image_bytes * 3 / 2; // raw image + parse cursor state
        obs.span("image-stream", dev, || {
            dev.charge_ns(disk_read_ns(self.image_bytes));
            self.sc.note_dram(staging);
        });
        // 2. Parse (host CPU).
        let facts = self.facts.clone();
        let total_syms = self.comp.grammar.total_symbols() as u64;
        obs.span("parse", dev, || self.sc.charge_items(total_syms));

        // 3. Bottom-up summation for container pre-sizing (§IV-C): the
        // engine's bounds, clamped to the vocabulary.
        let bounds = cfg.presize.then(|| {
            obs.span("summation", dev, || {
                let vocab = self.comp.dict.len() as u64;
                self.sc.charge_items(total_syms);
                engine_bounds.iter().map(|&x| x.min(vocab)).collect::<Vec<u64>>()
            })
        });

        // 4. Head/tail preprocessing for sequence tasks (§IV-D).
        let head_tail = task.is_sequence().then(|| cfg.ngram - 1);
        let info = head_tail.map(|width| {
            obs.span("head-tail", dev, || {
                let i = head_tail_over(&self.comp.grammar, &facts.topo, width);
                self.sc.charge_items(total_syms);
                i
            })
        });

        // 5. Build the DAG pool (§IV-B).
        obs.span("dag-build", dev, || -> Result<()> {
            let opts = DagBuildOptions {
                pruned: cfg.pruned,
                adjacent: cfg.adjacent_layout,
                bounds,
                head_tail,
                alloc_overhead_ns: if persistent { PMDK_ALLOC_NS } else { MALLOC_NS },
                layout: self.pool_layout,
            };
            self.dag =
                Some(DagPool::build(self.sc.pool.clone(), &self.comp, info.as_ref(), &opts)?);
            Ok(())
        })?;

        // 6. Host-side topological order. Ledgered at 8 B per rule — the
        // order and its inverse, as the model has always sized it — though
        // only the order is kept (nothing ever read the inverse).
        obs.span("topo-order", dev, || {
            let nrules = facts.topo.len() as u64;
            self.sc.note_dram(nrules * 8);
            self.sc.charge_items(nrules);
        });

        // 7. Per-rule caches for bottom-up traversal (span recorded inside,
        // one child per dependency level in the pruned configuration).
        if self.needs_caches() {
            match task {
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
            if self.sc.persists() {
                self.dag()?.persist_all();
            }
            dev.publish_snapshot(self.snapshot.fingerprint());
            self.sc.drop_dram(staging);
            Ok(())
        })
    }

    /// Run one typed [`Query`] through the graph-traversal phase under
    /// the engine's [`RetryPolicy`]: the unified entry point for an
    /// initialized session. The query's task must be the task this
    /// session was initialized for; result shaping (`top_k`,
    /// `file_filter`) is applied host-side after the traversal, on ids.
    pub fn run_query(&mut self, query: &Query) -> Result<QueryResponse> {
        query.validate()?;
        if query.task != self.sc.task {
            return Err(PmemError::Unsupported(format!(
                "session was initialized for '{}', not '{}' — open a session per task \
                 or use a ServeSession",
                self.sc.task, query.task
            )));
        }
        let max = match self.retry {
            RetryPolicy::Fail => 0,
            RetryPolicy::MediaRetries(n) => n,
        };
        let mut attempts = 0u32;
        let out = loop {
            match self.traverse_rows() {
                Err(PmemError::MediaError { .. }) if attempts < max => {
                    // Phase re-run: a successful rewrite re-programs the
                    // faulted cells, so result regions heal; a fault
                    // pinned on read-only data keeps failing and exhausts
                    // the attempts.
                    attempts += 1;
                    // Bounded exponential backoff, charged to the virtual
                    // clock: transient media faults get geometrically more
                    // settle time per retry, deterministically.
                    let dev = &self.sc.dev;
                    dev.charge_ns(backoff_ns(dev.profile().write_back_ns(), attempts));
                    self.sc.obs.metrics.counter_add(METRIC_MEDIA_RETRIES, 1);
                    self.recover()?;
                }
                other => break other?,
            }
        };
        Ok(self.respond(query, query.key().shape(out)))
    }

    /// `query`'s response from this session: its shaped rows, stamped with
    /// the snapshot that answered it.
    pub(super) fn respond(&self, query: &Query, rows: TaskRows) -> QueryResponse {
        QueryResponse::computed(query.tenant, query.task, Arc::new(rows), self.snapshot.clone())
    }

    /// The graph-traversal phase, one attempt, recorded as a
    /// `"traversal"` span (each retry records its own). Re-runnable: under
    /// phase-level persistence, a crash during traversal recovers by
    /// calling this again on the persisted pool.
    pub fn traverse_rows(&mut self) -> Result<TaskRows> {
        self.sc.traversal(|| self.run_task(self.sc.task))
    }

    /// [`traverse_rows`](Self::traverse_rows), the result as strings.
    pub fn traverse(&mut self) -> Result<TaskOutput> {
        self.traverse_rows().map(TaskRows::into_strings)
    }

    /// Measurement report for this session (after `run_query`/`traverse`).
    pub fn report(&self) -> RunReport {
        self.sc.report()
    }

    /// The task this session was initialized for.
    pub fn task(&self) -> Task {
        self.sc.task
    }

    /// The session's one device handle: the simulator, or for sessions
    /// from [`Engine::open_pool`] the pool file's twin (same stats, same
    /// crash behavior; its mirror keeps the file current and seals
    /// published snapshots into the header). Besides the
    /// [`PmemBackend`](ntadoc_pmem::PmemBackend) surface it carries the
    /// simulator-only instrumentation (shard stats, fault injection, wear
    /// tracking, crash modes).
    pub fn sim_device(&self) -> &Arc<SimDevice> {
        &self.sc.dev
    }

    /// The durable pool device (file- or mmap-backed), when this session
    /// came from [`Engine::open_pool`] (byte-identity checks, host-crash
    /// injection, fsck after crash).
    pub fn pool_file(&self) -> Option<&Arc<dyn PoolDevice>> {
        self.pool_file.as_ref()
    }

    /// The snapshot handle this session serves: the corpus fingerprint.
    /// Every response of this session references the same handle.
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
        self.sc.dev.crash();
    }

    /// Simulate a seeded torn-write power failure on the session's device:
    /// flushed-but-unfenced lines independently survive or revert, and any
    /// interrupted store lands as an arbitrary subset of its 8-byte words.
    pub fn crash_torn(&self, seed: u64) {
        self.sc.dev.crash_torn(seed);
    }

    /// The one crash step of every crash test and sweep: run
    /// [`traverse_rows`](Self::traverse_rows) under [`run_with_crash_at`]
    /// with `point` armed on the device. `Ok(Some(rows))`: the run finished
    /// first. `Ok(None)`: the crash fired, the device is torn with
    /// `tear_seed`, and a pool file's torn bytes matched the twin (else an
    /// error); [`recover`](Self::recover) and re-run, or reopen the pool.
    /// An engine error is returned as it is; a foreign panic propagates.
    pub fn crash_at(&mut self, point: CrashPoint, tear_seed: u64) -> Result<Option<TaskRows>> {
        let dev = self.sc.dev.clone();
        let mut finished = None;
        let run = run_with_crash_at(
            point,
            |point| match point {
                CrashPoint::Persist(n) => dev.trip_after_persists(n),
                CrashPoint::Write(n) => dev.trip_after_writes(n),
            },
            || dev.clear_trip(),
            || finished = Some(self.traverse_rows()),
        );
        if run == CrashRun::Completed {
            return finished.expect("a completed run returned").map(Some);
        }
        self.crash_torn(tear_seed);
        if let Some(file) = &self.pool_file {
            file.verify_file_matches_device()?;
        }
        Ok(None)
    }

    /// Post-crash recovery: roll back any in-flight operation-level
    /// transaction. Under phase-level persistence this is a no-op; the
    /// caller then re-runs `traverse` (restart from the phase checkpoint).
    pub fn recover(&mut self) -> Result<()> {
        if let Some(tx) = &self.sc.txlog {
            lock(tx).recover()?;
        }
        Ok(())
    }

    /// Size of a counter table expected to hold `expected` entries: the
    /// estimate when the summation is on, a small growable start otherwise.
    pub(crate) fn sized(&self, expected: usize) -> usize {
        if self.sc.cfg.presize {
            expected.max(1)
        } else {
            8
        }
    }

    /// Operation-level persistence guard for a freshly written region:
    /// under [`Persistence::OperationLevel`](crate::Persistence) the
    /// region is undo-logged and the transaction committed immediately
    /// (one transaction per operation, as PMDK `libpmemobj` would);
    /// otherwise a no-op — the phase boundary will flush it wholesale.
    pub(crate) fn op_guard(&self, addr: u64, len: usize) -> Result<()> {
        if let Some(tx) = &self.sc.txlog {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_grammar::{compress_corpus, TokenizerConfig};
    use ntadoc_pmem::DeviceMirror;

    use crate::EngineConfig;

    /// A WordCount session on a small corpus, retries off.
    fn session(cfg: EngineConfig) -> Session {
        let files = vec![
            ("a".to_string(), "one two three one two four".repeat(20)),
            ("b".to_string(), "two five six two".repeat(20)),
        ];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let engine = Engine::builder(comp).config(cfg).retry(RetryPolicy::Fail).build().unwrap();
        engine.session(Task::WordCount).unwrap()
    }

    /// Armed past the end of any traversal here: it never fires.
    const FAR: CrashPoint = CrashPoint::Persist(1 << 40);

    #[test]
    fn crash_at_returns_an_engine_error_rather_than_counting_it_a_crash() {
        // Operation-level counters undo-log each result slot before
        // writing it, reading its pre-image through the fallible path:
        // make the lines past what init allocated unreadable.
        let mut session = session(EngineConfig::ntadoc_oplevel());
        let (dev, pool) = (session.sim_device().clone(), session.sc.pool.clone());
        let line = dev.profile().line_size;
        let free = pool.base() + pool.used();
        for addr in (free..free + (64 << 10)).step_by(line) {
            dev.inject_read_fault(addr);
        }
        let got = session.crash_at(FAR, 7);
        assert!(matches!(got, Err(PmemError::MediaError { .. })), "{got:?}");
    }

    #[test]
    #[should_panic(expected = "a genuine bug")]
    fn crash_at_propagates_a_panic_that_is_not_the_injected_crash() {
        /// A mirror that fails the first fence it sees.
        struct Buggy;
        impl DeviceMirror for Buggy {
            fn on_fence(&self, _: &[(u64, Vec<u8>)]) {
                panic!("a genuine bug");
            }
            fn on_crash(&self, _: &[(u64, Vec<u8>)]) {}
            fn on_poke(&self, _: u64, _: &[u8]) {}
        }
        let mut session = session(EngineConfig::ntadoc());
        session.sim_device().attach_mirror(Arc::new(Buggy));
        let _ = session.crash_at(FAR, 7);
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
