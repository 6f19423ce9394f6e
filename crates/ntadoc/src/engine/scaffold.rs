//! The run scaffold: everything one measured run stands on, whichever
//! engine runs it.
//!
//! [`RunScaffold::new`] alone builds the device, the main pool with its
//! allocation ledger, the scratch window, the undo log and the span
//! recorder; the compressed [`Session`](super::Session) and the
//! uncompressed scan ([`crate::baseline`]) both sit on one, so "like with
//! like" (Figures 5/6) is one piece of code rather than two kept in step:
//! the same modeled CPU charges, the same transactional counters, the
//! same `"traversal"` → `"writeback"` phase boundary, the same
//! [`RunReport`] assembly. [`with_doubling_capacity`] is the one retry
//! loop for a capacity estimate that proved too small.

use std::sync::{Arc, Mutex, OnceLock};

use ntadoc_grammar::Dictionary;
use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::obs::MetricValue;
use ntadoc_pmem::{
    AllocLedger, DeviceKind, DeviceProfile, Obs, PmemError, PmemPool, PoolDevice, PoolLayout,
    SimDevice, TxLog, MAX_POOL_CAPACITY,
};

use super::txcounter::commit_open;
use super::{shape, Interner, TxCounter};
use crate::config::{disk_read_ns, EngineConfig, Persistence, PER_COMPARE_NS, PER_ITEM_NS};
use crate::report::{
    RunReport, METRIC_DEFERRED_READS, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK, METRIC_HIT_RATE,
    REPORT_VERSION,
};
use crate::result::{Task, TaskRows};
use crate::Result;

/// Undo-log region size for operation-level persistence.
pub(crate) const LOG_BYTES: u64 = 4 << 20;

/// Ledgered DRAM footprint of one interned n-gram of `n` words.
pub(crate) fn gram_dram(n: usize) -> u64 {
    n as u64 * 8 + 64
}

/// Run `attempt` at `capacity`, again at twice that each time it reports
/// the pool exhausted. Doubling stops where [`MAX_POOL_CAPACITY`] would be
/// passed, which is also the largest capacity a pool header may declare;
/// the exhaustion error is then the caller's.
pub(crate) fn with_doubling_capacity<T>(
    mut capacity: usize,
    mut attempt: impl FnMut(usize) -> Result<T>,
) -> Result<T> {
    loop {
        match attempt(capacity) {
            Err(PmemError::PoolExhausted { .. }) if (capacity as u64) < MAX_POOL_CAPACITY / 2 => {
                capacity *= 2;
            }
            other => return other,
        }
    }
}

/// One run's device, pools, log, ledger and recorder.
pub(crate) struct RunScaffold {
    pub cfg: EngineConfig,
    pub task: Task,
    /// Engine label stamped into the report.
    label: String,
    /// The device: a pool file's twin when one is attached (its mirror
    /// writes the durable image through), a fresh simulator otherwise.
    pub dev: Arc<SimDevice>,
    pub ledger: Arc<AllocLedger>,
    pub pool: Arc<PmemPool>,
    scratch_base: u64,
    scratch_len: u64,
    pub txlog: Option<Arc<Mutex<TxLog>>>,
    /// Updates per undo-log transaction of a [`TxCounter`]: the engine's
    /// "operation".
    tx_batch: usize,
    /// Span recorder + metric registry for this run. Spans are opened on
    /// the run's controlling thread only (see `ntadoc_pmem::obs`).
    pub obs: Arc<Obs>,
    pub interner: Interner,
    /// Each dictionary id's alphabetical rank, worked out by the first
    /// shaper that orders rows by word and shared by every later one.
    ranks: OnceLock<Vec<u32>>,
}

impl RunScaffold {
    /// Set a run up over `layout`: on the twin of `file` when a durable
    /// pool is attached, on a fresh simulated device of `layout.capacity`
    /// bytes otherwise. Rejects what no amount of init could make
    /// runnable — a sequence task with `ngram < 2` — before anything is
    /// allocated.
    pub(crate) fn new(
        cfg: EngineConfig,
        task: Task,
        label: String,
        profile: &DeviceProfile,
        layout: PoolLayout,
        file: Option<&Arc<dyn PoolDevice>>,
        tx_batch: usize,
    ) -> Result<RunScaffold> {
        if task.is_sequence() && cfg.ngram < 2 {
            return Err(PmemError::Unsupported(format!(
                "{task} counts n-grams of n >= 2 words, not {}",
                cfg.ngram
            )));
        }
        let dev = match file {
            Some(file) => file.twin().clone(),
            None => Arc::new(SimDevice::new(profile.clone(), layout.capacity as usize)),
        };
        let ledger = Arc::new(AllocLedger::new());
        let pool =
            Arc::new(PmemPool::new(dev.clone(), 0, layout.main_len).with_ledger(ledger.clone()));
        let txlog = (cfg.persistence == Persistence::OperationLevel).then(|| {
            Arc::new(Mutex::new(TxLog::new(
                dev.clone(),
                layout.log_base(),
                layout.log_len as usize,
            )))
        });
        Ok(RunScaffold {
            cfg,
            task,
            label,
            dev,
            ledger,
            pool,
            scratch_base: layout.scratch_base(),
            scratch_len: layout.scratch_len,
            txlog,
            tx_batch,
            obs: Arc::new(Obs::new()),
            interner: Interner::default(),
            ranks: OnceLock::new(),
        })
    }

    /// Charge modeled CPU work for `n` items.
    pub(crate) fn charge_items(&self, n: u64) {
        self.dev.charge_ns(n * PER_ITEM_NS);
    }

    /// Charge modeled CPU work for sorting `n` elements.
    pub(crate) fn charge_sort(&self, n: u64) {
        if n > 1 {
            let log = 64 - n.leading_zeros() as u64;
            self.dev.charge_ns(n * log * PER_COMPARE_NS);
        }
    }

    /// Record host-side DRAM allocation (RSS proxy bookkeeping).
    pub(crate) fn note_dram(&self, bytes: u64) {
        self.ledger.on_alloc(DeviceKind::Dram, bytes);
    }

    /// Record a host-side DRAM buffer that comes and goes within one step
    /// (a merge's cursors): it can raise the peak, and buffers of steps
    /// running side by side do not stack ([`AllocLedger::on_transient`]).
    pub(crate) fn note_transient_dram(&self, bytes: u64) {
        self.ledger.on_transient(DeviceKind::Dram, bytes);
    }

    /// Record host-side DRAM release.
    pub(crate) fn drop_dram(&self, bytes: u64) {
        self.ledger.on_free(DeviceKind::Dram, bytes);
    }

    /// Whether the configured strategy persists anything at all.
    pub(crate) fn persists(&self) -> bool {
        self.cfg.persistence != Persistence::None
    }

    /// A fresh scratch pool over the dedicated scratch region (transient
    /// hash tables; reset wholesale on each call).
    pub(crate) fn fresh_scratch(&self) -> Arc<PmemPool> {
        Arc::new(PmemPool::new(self.dev.clone(), self.scratch_base, self.scratch_len))
    }

    /// A result counter table on the main pool, wired to the run's
    /// persistence strategy. `fixed` tables never grow (sound only when
    /// `expected` is an upper bound).
    pub(crate) fn result_counter(&self, expected: usize, fixed: bool) -> Result<TxCounter> {
        let table = PHashTable::with_expected(self.pool.clone(), expected, fixed)?;
        Ok(TxCounter::new(table, self.txlog.clone(), self.tx_batch))
    }

    /// A transient counter table in the scratch region (per-rule /
    /// per-file merges). Scratch tables are never transactional: they are
    /// recomputed on recovery, not persisted.
    pub(crate) fn scratch_table(&self, expected: usize, fixed: bool) -> Result<PHashTable> {
        PHashTable::with_expected(self.fresh_scratch(), expected, fixed)
    }

    /// Intern an n-gram, ledgering the dictionary bytes a new one adds.
    /// Controlling thread only: ids follow interning order (see
    /// [`Interner`]). Fails once the n-gram's id space is exhausted.
    pub(crate) fn intern(&self, words: &[u32]) -> Result<u32> {
        let (id, fresh) = self.interner.intern(words)?;
        if fresh {
            self.note_dram(gram_dram(words.len()));
        }
        Ok(id)
    }

    /// Intern the n-grams laid back to back in `flat`, replacing them with
    /// their ids ([`Interner::intern_flat`]), and ledger the bytes the new
    /// ones add in one booking. Controlling thread only, as
    /// [`intern`](Self::intern).
    pub(crate) fn intern_flat(&self, flat: &mut Vec<u32>) -> Result<()> {
        let (n, mut fresh) = (self.cfg.ngram, 0);
        let interned = self.interner.intern_flat(flat, n, &mut fresh);
        if fresh > 0 {
            self.note_dram(fresh * gram_dram(n));
        }
        interned
    }

    /// The alphabetical rank of each id of `dict`, the run's dictionary
    /// ([`shape::ranks`]).
    pub(crate) fn ranks(&self, dict: &Dictionary) -> &[u32] {
        self.ranks.get_or_init(|| shape::ranks(dict))
    }

    /// One attempt at the second phase, recorded as a `"traversal"` span:
    /// `task` computes the output, then the `"writeback"` span closes any
    /// open operation-level transaction, persists the results at the phase
    /// boundary and writes them back to disk.
    pub(crate) fn traversal(&self, task: impl FnOnce() -> Result<TaskRows>) -> Result<TaskRows> {
        self.obs.span("traversal", &self.dev, || {
            let out = task()?;
            self.obs.span("writeback", &self.dev, || -> Result<()> {
                commit_open(&self.txlog)?;
                if self.persists() {
                    self.pool.persist_used();
                }
                self.dev.charge_ns(disk_read_ns(out.approx_bytes()));
                Ok(())
            })?;
            Ok(out)
        })
    }

    /// Measurement report for the run so far: the recorded span tree under
    /// a `"run"` root carrying the whole-run totals (so traffic outside any
    /// span still shows), and the metric registry plus the report-time
    /// scalars — allocation peaks, cache hit rate, reads served by the
    /// deferred path. That count is a sum of per-item deferred counters,
    /// schedule-independent like the rest; optimistic-read retries depend
    /// on writer interleaving and are deliberately left out.
    pub(crate) fn report(&self) -> RunReport {
        let stats = self.dev.stats();
        let profile = self.dev.profile();
        let mut metrics = self.obs.metrics.snapshot();
        let mut gauge = |name: &str, v: f64| metrics.insert(name.into(), MetricValue::Gauge(v));
        gauge(METRIC_DRAM_PEAK, self.ledger.peak(DeviceKind::Dram) as f64);
        gauge(METRIC_DEVICE_PEAK, self.ledger.peak(profile.kind) as f64);
        gauge(METRIC_HIT_RATE, stats.hit_rate());
        metrics.insert(
            METRIC_DEFERRED_READS.into(),
            MetricValue::Counter(self.dev.deferred_reads().reads),
        );
        let mut spans = self.obs.tree("run");
        spans.stats = stats;
        spans.virtual_ns = stats.virtual_ns;
        RunReport {
            version: REPORT_VERSION,
            task: self.task,
            engine: self.label.clone(),
            device: profile.name.to_string(),
            spans,
            metrics,
            stats,
            wear_top: self.dev.wear_top(8),
        }
    }
}
