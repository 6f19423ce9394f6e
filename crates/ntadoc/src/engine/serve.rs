//! [`ServeSession`]: build once, answer batches of read-only queries.

use std::sync::Arc;

use ntadoc_pmem::obs::labeled;
use ntadoc_pmem::par::{join_deferred, par_map_timed};
use ntadoc_pmem::{AccessStats, Obs, SimDevice};

use super::Session;
use crate::query::{Query, QueryResponse, Snapshot};
use crate::report::{RunReport, METRIC_SERVE_RATE, METRIC_SERVE_TASKS};
use crate::result::TaskRows;
use crate::Result;

/// A build-once/serve-many session: the init phase has run, the DAG pool
/// and word-list caches are resident, and batches of read-only tasks run
/// concurrently against them. Created by [`Engine::serve`](super::Engine::serve).
///
/// Each task in a batch executes on its own worker with deferred device
/// accounting; the batch's virtual time advances by the deterministic
/// virtual-lane makespan, so reported time is identical for any
/// `RAYON_NUM_THREADS` (see `ntadoc_pmem::par`).
pub struct ServeSession {
    pub(super) session: Session,
}

impl ServeSession {
    /// Execute a batch of typed queries concurrently, returning one
    /// [`QueryResponse`] per query, in query order. Servable tasks: word
    /// count, sort, term vector, inverted index; anything else fails with
    /// [`Unsupported`](ntadoc_pmem::PmemError::Unsupported), as does a
    /// `file_filter` on a corpus-global task.
    ///
    /// Each query runs the full DAG traversal for its key — batching
    /// *across* identical queries (dedup, caching) is the serve daemon's
    /// job (`ntadoc-serve`), which sits above this and calls in with the
    /// already-deduplicated miss set. After the parallel barrier each
    /// query's deferred device cost is recorded as a per-tenant leaf span
    /// (`tenant:<id>`) under the batch span. Consecutive batches fold into
    /// one `serve-batch` root with one leaf per tenant
    /// ([`Obs::folded_span`]), so a long-lived session's span tree stays
    /// the size of its tenant set.
    pub fn run_queries(&self, queries: &[Query]) -> Result<Vec<QueryResponse>> {
        for q in queries {
            q.validate()?;
        }
        let s = &self.session;
        let (obs, dev) = (&s.sc.obs, &s.sc.dev);
        let out = obs.folded_span("serve-batch", dev, || -> Result<Vec<TaskRows>> {
            let (results, charges) =
                par_map_timed(queries, |_, q| s.run_task(q.task).map(|o| q.key().shape(o)));
            // Barrier: merge each task's deferred read counters and join
            // the clock before the span closes, so the span's stats delta
            // covers every read this batch issued.
            join_deferred(dev, &charges);
            // Attribute each query's deferred device cost to its tenant
            // (controlling thread, inside the still-open batch span).
            for (q, c) in queries.iter().zip(&charges) {
                obs.record_leaf(
                    &labeled("tenant", q.tenant),
                    AccessStats {
                        virtual_ns: c.ns(),
                        reads: c.reads(),
                        line_misses: c.line_misses(),
                        ..Default::default()
                    },
                );
            }
            results.into_iter().collect()
        })?;
        // Serve throughput: tasks served so far per post-init virtual
        // second (deterministic — both terms derive from the virtual
        // clock, not the wall clock).
        let total = obs.metrics.counter_add(METRIC_SERVE_TASKS, queries.len() as u64);
        let served_ns = dev.stats().virtual_ns - s.init_ns;
        if served_ns > 0 {
            obs.metrics.gauge_set(METRIC_SERVE_RATE, total as f64 / (served_ns as f64 / 1e9));
        }
        Ok(queries.iter().zip(out).map(|(q, o)| s.respond(q, o)).collect())
    }

    /// Measurement report (init time plus all batches served so far).
    pub fn report(&self) -> RunReport {
        self.session.report()
    }

    /// The snapshot handle this serve session answers for: the corpus
    /// fingerprint every response is stamped with.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        self.session.snapshot()
    }

    /// The grammar snapshot version this serve session answers for
    /// ([`Engine::snapshot_version`](super::Engine::snapshot_version)) — the cache-key half a serve daemon
    /// pairs with each [`Query::key`].
    pub fn snapshot_version(&self) -> u64 {
        self.session.snapshot_version()
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
        &self.session.sc.obs
    }
}
