//! Deterministic multi-tenant serve daemon.
//!
//! The daemon is a discrete-event loop over *virtual* time, the same clock
//! the simulated device charges. Arrivals are admitted (or bounced with a
//! typed [`ServeError`]), queue up, and dispatch in batches; each batch's
//! service time is the device's virtual-ns delta around one
//! [`ServeSession::run_queries`] call on the batch's deduplicated cache-miss
//! set. Because admission, batching, dedup, and cache lookups are all pure
//! functions of the arrival trace, an identical trace replays to
//! bit-identical completions regardless of worker-thread count.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use ntadoc::engine::ServeSession;
use ntadoc::{Query, QueryResponse, RunReport, Snapshot, TenantId};
use ntadoc_pmem::obs::labeled;

use crate::{DaemonConfig, ResultCache, ServeError, TraceEvent};

/// Metric name for the peak pending-queue depth gauge of a serve daemon.
pub const METRIC_QUEUE_DEPTH_PEAK: &str = "serve.queue_depth_peak";
/// Metric name for the result-cache hit counter of a serve daemon.
pub const METRIC_CACHE_HITS: &str = "serve.cache.hits";
/// Metric name for the result-cache miss counter of a serve daemon.
pub const METRIC_CACHE_MISSES: &str = "serve.cache.misses";
/// Metric name for the result-cache hit-rate gauge of a serve daemon.
pub const METRIC_CACHE_HIT_RATE: &str = "serve.cache.hit_rate";
/// Metric name for the admission-control rejection counter.
pub const METRIC_ADMISSION_REJECTED: &str = "serve.admission.rejected";
/// Metric name for the batches-dispatched counter of a serve daemon.
pub const METRIC_BATCHES: &str = "serve.batches";

/// One admitted-but-not-yet-dispatched query.
#[derive(Debug)]
struct Pending {
    arrival_ns: u64,
    query: Query,
}

/// A query that ran to completion, with its virtual-time accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The query as submitted.
    pub query: Query,
    /// Virtual time the query arrived at the daemon.
    pub arrival_ns: u64,
    /// Virtual time its batch began service.
    pub start_ns: u64,
    /// Virtual time its batch finished (shared by the whole batch).
    pub done_ns: u64,
    /// The typed response (output, cache-hit flag, snapshot version).
    pub response: QueryResponse,
}

impl Completion {
    /// Queueing + service latency in virtual nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.arrival_ns
    }
}

/// A query bounced at admission. Rejections are returned to the caller,
/// never silently dropped.
#[derive(Debug)]
pub struct Rejection {
    /// Virtual time of the rejected arrival.
    pub at_ns: u64,
    /// Tenant whose query was bounced.
    pub tenant: TenantId,
    /// Why ([`ServeError::QuotaExceeded`] or [`ServeError::QueueFull`]).
    pub error: ServeError,
}

/// Everything that happened while replaying a trace.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Completions in dispatch order (batch by batch, arrival order inside).
    pub completions: Vec<Completion>,
    /// Admission rejections in arrival order.
    pub rejections: Vec<Rejection>,
}

/// Multi-tenant query daemon over one resident [`ServeSession`].
///
/// See the [crate docs](crate) for the role split between this type, the
/// [`ResultCache`], and the engine's `run_queries`. A daemon answers for
/// one snapshot for its whole life; serving another corpus means building
/// another daemon.
pub struct QueryDaemon {
    serve: ServeSession,
    /// The snapshot every response answers for.
    snapshot: Arc<Snapshot>,
    /// Admitted queries that have not dispatched yet, in arrival order.
    pending: VecDeque<Pending>,
    /// Virtual time the device frees up after the last batch.
    busy_until: u64,
    cfg: DaemonConfig,
    cache: ResultCache,
    /// Min-heap of `(done_ns, tenant)` quota releases not yet applied.
    releases: BinaryHeap<Reverse<(u64, u32)>>,
    /// Admitted-but-unfinished queries per tenant.
    tenant_load: HashMap<u32, usize>,
    /// Latest arrival timestamp seen (the daemon's notion of "now").
    clock_ns: u64,
    batches: u64,
    queue_peak: usize,
    rejected: u64,
}

impl QueryDaemon {
    /// Wrap a resident serve session with the given tuning knobs.
    pub fn new(serve: ServeSession, cfg: DaemonConfig) -> Self {
        let snapshot = serve.snapshot().clone();
        let cache = ResultCache::new(cfg.cache_capacity);
        QueryDaemon {
            serve,
            snapshot,
            pending: VecDeque::new(),
            busy_until: 0,
            cfg,
            cache,
            releases: BinaryHeap::new(),
            tenant_load: HashMap::new(),
            clock_ns: 0,
            batches: 0,
            queue_peak: 0,
            rejected: 0,
        }
    }

    /// Grammar snapshot version every response carries.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot.fingerprint()
    }

    /// Snapshot handle every response answers for.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The serve session (device stats, obs, report plumbing).
    pub fn serve_session(&self) -> &ServeSession {
        &self.serve
    }

    /// Queries admitted but not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime `(hits, misses)` of the result cache.
    pub fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }

    /// The result cache, for its counters (entries resident, encodings
    /// held).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Fraction of lookups answered from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Batches dispatched so far.
    pub fn batches_dispatched(&self) -> u64 {
        self.batches
    }

    /// Serve one query right now (the interactive/CLI path): admit at the
    /// current virtual time, dispatch immediately as a batch of one —
    /// still consulting and filling the shared result cache.
    pub fn execute(&mut self, query: Query) -> Result<QueryResponse, ServeError> {
        // Interactive callers observe completions in order, so "now" is at
        // least the point where the previous batch finished.
        let at = self.clock_ns.max(self.busy_until);
        self.submit(at, query)?;
        let mut done = Vec::new();
        self.flush(&mut done)?;
        Ok(done.pop().expect("flush after a successful submit yields a completion").response)
    }

    /// Replay an arrival trace through the full admission → batch → cache
    /// pipeline, then flush what is still queued. Deterministic: identical
    /// traces produce bit-identical outcomes for any `RAYON_NUM_THREADS` /
    /// worker count.
    pub fn run_trace(&mut self, trace: &[TraceEvent]) -> Result<TraceOutcome, ServeError> {
        let mut events: Vec<&TraceEvent> = trace.iter().collect();
        events.sort_by_key(|e| e.at_ns); // stable: ties keep trace order
        let mut completions = Vec::new();
        let mut rejections = Vec::new();
        for ev in events {
            // Any batch whose window deadline elapsed before this arrival
            // has already launched in virtual time.
            while let Some(deadline) = self.due_deadline() {
                if deadline > ev.at_ns {
                    break;
                }
                self.dispatch(deadline, &mut completions)?;
            }
            if let Err(error) = self.submit(ev.at_ns, ev.query.clone()) {
                rejections.push(Rejection { at_ns: ev.at_ns, tenant: ev.query.tenant, error });
                continue;
            }
            if self.pending.len() >= self.cfg.max_batch {
                self.dispatch(ev.at_ns, &mut completions)?;
            }
        }
        self.flush(&mut completions)?;
        Ok(TraceOutcome { completions, rejections })
    }

    /// Admit a query arriving at `at_ns`, or bounce it with a typed error.
    /// Arrival times are clamped monotone to the daemon clock.
    pub fn submit(&mut self, at_ns: u64, query: Query) -> Result<(), ServeError> {
        self.clock_ns = self.clock_ns.max(at_ns);
        self.release_until(self.clock_ns);
        let depth = self.queue_depth();
        let obs = self.serve.obs();
        if depth >= self.cfg.queue_limit {
            self.rejected += 1;
            obs.metrics.counter_add(METRIC_ADMISSION_REJECTED, 1);
            return Err(ServeError::QueueFull { depth, limit: self.cfg.queue_limit });
        }
        let in_flight = *self.tenant_load.get(&query.tenant.0).unwrap_or(&0);
        if in_flight >= self.cfg.tenant_quota {
            self.rejected += 1;
            obs.metrics.counter_add(METRIC_ADMISSION_REJECTED, 1);
            obs.metrics.counter_add(&rejected_metric(query.tenant), 1);
            return Err(ServeError::QuotaExceeded {
                tenant: query.tenant,
                in_flight,
                quota: self.cfg.tenant_quota,
            });
        }
        *self.tenant_load.entry(query.tenant.0).or_insert(0) += 1;
        self.pending.push_back(Pending { arrival_ns: self.clock_ns, query });
        self.queue_peak = self.queue_peak.max(self.queue_depth());
        Ok(())
    }

    /// Dispatch everything still pending (in `max_batch`-sized batches) and
    /// append the completions. Flushing means input has ended: a batch whose
    /// window already expired launches at its deadline, anything else
    /// launches now (the daemon clock) instead of waiting out its window.
    pub fn flush(&mut self, completions: &mut Vec<Completion>) -> Result<(), ServeError> {
        while let Some(deadline) = self.due_deadline() {
            self.dispatch(deadline.min(self.clock_ns), completions)?;
        }
        Ok(())
    }

    /// Fold daemon metrics (cache, queue, admission) into the serve
    /// session's observability and produce the combined run report.
    /// Idempotent: daemon totals fold via max/set, not repeated adds.
    pub fn report(&self) -> RunReport {
        let metrics = &self.serve.obs().metrics;
        let (hits, misses) = self.cache.counters();
        metrics.counter_max(METRIC_CACHE_HITS, hits);
        metrics.counter_max(METRIC_CACHE_MISSES, misses);
        metrics.gauge_set(METRIC_CACHE_HIT_RATE, self.cache.hit_rate());
        metrics.counter_max(METRIC_BATCHES, self.batches);
        metrics.counter_max(METRIC_ADMISSION_REJECTED, self.rejected);
        metrics.gauge_max(METRIC_QUEUE_DEPTH_PEAK, self.queue_peak as f64);
        self.serve.report()
    }

    /// Virtual time the oldest pending query's batch window expires.
    fn due_deadline(&self) -> Option<u64> {
        self.pending.front().map(|p| p.arrival_ns.saturating_add(self.cfg.batch_window_ns))
    }

    /// Apply quota releases for batches done at or before `now_ns`.
    fn release_until(&mut self, now_ns: u64) {
        while let Some(Reverse((done, tenant))) = self.releases.peek().copied() {
            if done > now_ns {
                break;
            }
            self.releases.pop();
            if let Some(load) = self.tenant_load.get_mut(&tenant) {
                *load = load.saturating_sub(1);
                if *load == 0 {
                    self.tenant_load.remove(&tenant);
                }
            }
        }
    }

    /// Launch one batch at virtual time `at_ns` (or when the device frees
    /// up, whichever is later): consult the cache, run the deduplicated
    /// miss set as one `run_queries` call, and charge every query in the
    /// batch the same completion time.
    fn dispatch(
        &mut self,
        at_ns: u64,
        completions: &mut Vec<Completion>,
    ) -> Result<(), ServeError> {
        let n = self.cfg.max_batch.max(1).min(self.pending.len());
        if n == 0 {
            return Ok(());
        }
        let start_ns = at_ns.max(self.busy_until);
        let taken: Vec<Pending> = self.pending.drain(..n).collect();

        // Cache phase: zero device lines touched for hits. Misses group by
        // QueryKey (BTreeMap ⇒ deterministic group order) so identical
        // queries from different tenants share one traversal.
        let mut responses: Vec<Option<QueryResponse>> = (0..n).map(|_| None).collect();
        let mut miss_groups: BTreeMap<ntadoc::QueryKey, Vec<usize>> = BTreeMap::new();
        for (i, p) in taken.iter().enumerate() {
            let key = p.query.key();
            if let Some(cached) = self.cache.get(&key) {
                responses[i] = Some(QueryResponse::from_cache(
                    p.query.tenant,
                    p.query.task,
                    cached,
                    self.snapshot.clone(),
                ));
            } else {
                miss_groups.entry(key).or_default().push(i);
            }
        }

        let ns_before = self.serve.sim_device().stats().virtual_ns;
        if !miss_groups.is_empty() {
            let uniq: Vec<Query> =
                miss_groups.values().map(|idxs| taken[idxs[0]].query.clone()).collect();
            let served = match self.serve.run_queries(&uniq) {
                Ok(served) => served,
                Err(e) => {
                    // The batch ends here without completions, and so do
                    // its admissions: a refused query must not hold its
                    // tenant's quota for ever.
                    let ended = taken.iter().map(|p| Reverse((start_ns, p.query.tenant.0)));
                    self.releases.extend(ended);
                    return Err(e.into());
                }
            };
            for ((key, idxs), resp) in miss_groups.into_iter().zip(served) {
                self.cache.insert(key, resp.rows().clone());
                for i in idxs {
                    responses[i] = Some(QueryResponse::computed(
                        taken[i].query.tenant,
                        resp.task,
                        resp.rows().clone(),
                        self.snapshot.clone(),
                    ));
                }
            }
        }
        let service_ns = self.serve.sim_device().stats().virtual_ns - ns_before;
        let done_ns = start_ns + service_ns;
        self.busy_until = done_ns;
        self.batches += 1;

        for (p, response) in taken.into_iter().zip(responses) {
            let response = response.expect("every batched query got a response");
            self.serve.obs().metrics.counter_add(&served_metric(p.query.tenant), 1);
            self.releases.push(Reverse((done_ns, p.query.tenant.0)));
            completions.push(Completion {
                arrival_ns: p.arrival_ns,
                start_ns,
                done_ns,
                query: p.query,
                response,
            });
        }
        Ok(())
    }
}

/// Per-tenant served-queries counter name, e.g. `serve.tenant:3.served`.
fn served_metric(tenant: TenantId) -> String {
    labeled("serve.tenant", format_args!("{tenant}.served"))
}

/// Per-tenant rejected-queries counter name, e.g. `serve.tenant:3.rejected`.
fn rejected_metric(tenant: TenantId) -> String {
    labeled("serve.tenant", format_args!("{tenant}.rejected"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DaemonConfig, ServeError, TraceSpec};
    use ntadoc::{Engine, EngineConfig, Task};
    use ntadoc_grammar::{compress_corpus, TokenizerConfig};

    fn daemon(cfg: DaemonConfig) -> QueryDaemon {
        let files = vec![
            ("a.txt".to_string(), "to be or not to be that is the question".to_string()),
            ("b.txt".to_string(), "the rest is silence to be sure of it".to_string()),
        ];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
        QueryDaemon::new(engine.serve().unwrap(), cfg)
    }

    #[test]
    fn execute_serves_second_ask_from_cache_without_device_reads() {
        let mut d = daemon(DaemonConfig::default());
        let q = Query::new(TenantId(3), Task::WordCount).top_k(4);
        let cold = d.execute(q.clone()).unwrap();
        assert!(!cold.cache_hit);
        let before = d.serve_session().sim_device().stats();
        let warm = d.execute(q).unwrap();
        let delta = d.serve_session().sim_device().stats().checked_since(&before).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.output(), warm.output(), "hit must be byte-identical");
        assert_eq!(delta.reads, 0, "cache hit touched device lines");
        assert_eq!(delta.line_misses, 0);
        assert_eq!(d.cache_counters(), (1, 1));
    }

    #[test]
    fn quota_rejection_is_typed_and_releases_after_completion() {
        let cfg = DaemonConfig {
            tenant_quota: 2,
            max_batch: 16,
            batch_window_ns: u64::MAX / 4, // nothing dispatches on its own
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg);
        let t = TenantId(1);
        d.submit(10, Query::new(t, Task::WordCount)).unwrap();
        d.submit(20, Query::new(t, Task::Sort)).unwrap();
        let err = d.submit(30, Query::new(t, Task::InvertedIndex)).unwrap_err();
        match err {
            ServeError::QuotaExceeded { tenant, in_flight, quota } => {
                assert_eq!(tenant, t);
                assert_eq!((in_flight, quota), (2, 2));
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Another tenant is not affected by tenant 1's quota.
        d.submit(30, Query::new(TenantId(2), Task::WordCount)).unwrap();
        // Once the batch completes, the quota slot frees up.
        let mut done = Vec::new();
        d.flush(&mut done).unwrap();
        assert_eq!(done.len(), 3);
        let after = done.iter().map(|c| c.done_ns).max().unwrap();
        d.submit(after + 1, Query::new(t, Task::InvertedIndex)).unwrap();
    }

    #[test]
    fn a_query_the_engine_refuses_gives_its_quota_slot_back() {
        let mut d = daemon(DaemonConfig { tenant_quota: 2, ..DaemonConfig::default() });
        let t = TenantId(1);
        // A file filter on a corpus-global task: admitted, then refused.
        for _ in 0..5 {
            let refused = d.execute(Query::new(t, Task::Sort).file_filter("a"));
            assert!(matches!(refused, Err(ServeError::Engine(_))), "{refused:?}");
        }
        d.execute(Query::new(t, Task::Sort)).expect("the tenant's quota is free again");
    }

    #[test]
    fn queue_full_is_typed() {
        let cfg = DaemonConfig {
            queue_limit: 1,
            tenant_quota: 64,
            batch_window_ns: u64::MAX / 4,
            max_batch: 64,
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg);
        d.submit(0, Query::new(TenantId(0), Task::WordCount)).unwrap();
        let err = d.submit(1, Query::new(TenantId(1), Task::Sort)).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { depth: 1, limit: 1 }));
    }

    #[test]
    fn batch_dedups_identical_queries_across_tenants() {
        let cfg = DaemonConfig {
            max_batch: 4,
            cache_capacity: 0, // isolate dedup from caching
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg);
        for t in 0..4u32 {
            d.submit(t as u64, Query::new(TenantId(t), Task::WordCount).top_k(3)).unwrap();
        }
        let mut done = Vec::new();
        d.flush(&mut done).unwrap();
        assert_eq!(done.len(), 4);
        // One traversal served all four tenants: every response shares the
        // same Arc'd rows.
        let first = done[0].response.rows();
        assert!(done.iter().all(|c| std::sync::Arc::ptr_eq(c.response.rows(), first)));
        assert_eq!(d.batches_dispatched(), 1);
    }

    #[test]
    fn trace_replay_is_deterministic() {
        let trace = TraceSpec { queries: 40, ..TraceSpec::default() }.generate();
        let mut a = daemon(DaemonConfig::default());
        let mut b = daemon(DaemonConfig::default());
        let oa = a.run_trace(&trace).unwrap();
        let ob = b.run_trace(&trace).unwrap();
        assert_eq!(oa.completions.len(), ob.completions.len());
        assert_eq!(oa.rejections.len(), ob.rejections.len());
        for (x, y) in oa.completions.iter().zip(&ob.completions) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.start_ns, y.start_ns);
            assert_eq!(x.done_ns, y.done_ns);
            assert_eq!(x.response, y.response);
        }
    }

    #[test]
    fn report_folds_daemon_metrics_idempotently() {
        let mut d = daemon(DaemonConfig::default());
        let q = Query::new(TenantId(5), Task::WordCount);
        d.execute(q.clone()).unwrap();
        d.execute(q).unwrap();
        let r1 = d.report();
        let r2 = d.report();
        assert_eq!(r1.metric_u64(METRIC_CACHE_HITS), Some(1));
        assert_eq!(r2.metric_u64(METRIC_CACHE_HITS), Some(1), "re-reporting must not double-count");
        assert_eq!(r1.metric_u64(METRIC_BATCHES), Some(2));
        assert!(r1.metric_f64(METRIC_CACHE_HIT_RATE).unwrap() > 0.0);
    }
}
