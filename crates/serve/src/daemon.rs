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
use ntadoc_pmem::obs::{
    labeled, METRIC_ADMISSION_REJECTED, METRIC_BATCHES, METRIC_CACHE_HITS, METRIC_CACHE_HIT_RATE,
    METRIC_CACHE_MISSES, METRIC_QUEUE_DEPTH_PEAK,
};

use crate::{DaemonConfig, ResultCache, ServeError, TraceEvent};

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

/// One snapshot generation inside the daemon: its resident session, the
/// snapshot handle it answers for, the queries admitted under it that
/// have not dispatched yet, and its own device-occupancy horizon (each
/// lane has its own simulated device, so an old lane draining never
/// serializes against new-snapshot batches).
struct Lane {
    serve: ServeSession,
    snapshot: Arc<Snapshot>,
    pending: VecDeque<Pending>,
    /// Virtual time this lane's device frees up after its last batch.
    busy_until: u64,
}

impl Lane {
    fn new(serve: ServeSession) -> Self {
        let snapshot = serve.snapshot().clone();
        Lane { serve, snapshot, pending: VecDeque::new(), busy_until: 0 }
    }

    fn fingerprint(&self) -> u64 {
        self.snapshot.fingerprint()
    }

    /// Virtual time the oldest pending query's batch window expires.
    fn deadline(&self, window_ns: u64) -> Option<u64> {
        self.pending.front().map(|p| p.arrival_ns.saturating_add(window_ns))
    }
}

/// Which lane a dispatch targets. The draining lane always wins deadline
/// ties: its work was admitted first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LaneSel {
    Draining,
    Current,
}

/// Multi-tenant query daemon over one resident [`ServeSession`].
///
/// See the [crate docs](crate) for the role split between this type, the
/// [`ResultCache`], and the engine's `run_queries`.
///
/// [`QueryDaemon::install`] rotates in a new snapshot without stalling:
/// queries admitted under the old snapshot move to a *drain lane* that
/// keeps dispatching against the old session (and old pool) on its own
/// deadlines, interleaved with new-snapshot admissions. The cache keeps
/// both generations' entries until the drain lane empties, then sweeps
/// exactly the superseded ones.
pub struct QueryDaemon {
    current: Lane,
    /// The previous snapshot generation, while its admitted work drains.
    /// At most one: a second `install` flushes this lane first.
    draining: Option<Lane>,
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
        let cache = ResultCache::new(cfg.cache_capacity);
        QueryDaemon {
            current: Lane::new(serve),
            draining: None,
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

    /// Grammar snapshot version new admissions are keyed under.
    pub fn snapshot_version(&self) -> u64 {
        self.current.fingerprint()
    }

    /// Snapshot handle new admissions answer for.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.current.snapshot
    }

    /// The current serve session (device stats, obs, report plumbing).
    pub fn serve_session(&self) -> &ServeSession {
        &self.current.serve
    }

    /// The superseded serve session while its admitted work drains.
    pub fn draining_session(&self) -> Option<&ServeSession> {
        self.draining.as_ref().map(|l| &l.serve)
    }

    /// Queries admitted but not yet dispatched, across both lanes.
    pub fn queue_depth(&self) -> usize {
        self.current.pending.len() + self.draining.as_ref().map_or(0, |l| l.pending.len())
    }

    /// Old-snapshot queries still waiting to dispatch.
    pub fn draining_depth(&self) -> usize {
        self.draining.as_ref().map_or(0, |l| l.pending.len())
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

    /// Swap in a session over a new (e.g. appended or re-compressed)
    /// corpus snapshot, without stalling in-flight work.
    ///
    /// Queries already admitted stay pinned to the old snapshot: the old
    /// lane moves to *draining* and keeps dispatching against its own
    /// session and device on its own batch deadlines, concurrently with
    /// new-snapshot admissions. The cache retains both generations until
    /// the drain lane empties, at which point exactly the superseded
    /// entries are swept.
    ///
    /// At most one drain generation runs at a time: if a previous drain
    /// lane still holds work, it is flushed to completion first and those
    /// completions are returned.
    pub fn install(&mut self, serve: ServeSession) -> Result<Vec<Completion>, ServeError> {
        let mut flushed = Vec::new();
        while self.draining.is_some() {
            let (deadline, sel) = self.due_deadline().expect("draining lane has a deadline");
            debug_assert!(sel == LaneSel::Draining, "drain deadlines precede current ones");
            self.dispatch(sel, deadline.min(self.clock_ns), &mut flushed)?;
        }
        let old = std::mem::replace(&mut self.current, Lane::new(serve));
        if old.pending.is_empty() {
            // Nothing pinned to the old snapshot: sweep it immediately.
            self.cache.retain_snapshots(&[self.current.fingerprint()]);
        } else {
            self.cache.retain_snapshots(&[old.fingerprint(), self.current.fingerprint()]);
            self.draining = Some(old);
        }
        Ok(flushed)
    }

    /// Serve one query right now (the interactive/CLI path): admit at the
    /// current virtual time, dispatch immediately as a batch of one —
    /// still consulting and filling the shared result cache.
    pub fn execute(&mut self, query: Query) -> Result<QueryResponse, ServeError> {
        // Interactive callers observe completions in order, so "now" is at
        // least the point where the previous batch finished.
        let at = self.clock_ns.max(self.current.busy_until);
        self.submit(at, query)?;
        let mut done = Vec::new();
        self.flush(&mut done)?;
        Ok(done.pop().expect("flush after a successful submit yields a completion").response)
    }

    /// Replay an arrival trace through the full admission → batch → cache
    /// pipeline. Deterministic: identical traces produce bit-identical
    /// outcomes for any `RAYON_NUM_THREADS` / worker count.
    pub fn run_trace(&mut self, trace: &[TraceEvent]) -> Result<TraceOutcome, ServeError> {
        let mut outcome = self.feed(trace)?;
        self.flush(&mut outcome.completions)?;
        Ok(outcome)
    }

    /// [`run_trace`](Self::run_trace) without the final flush: arrivals
    /// are admitted and due batches dispatch, but whatever is still inside
    /// its batch window stays queued. Lets a caller interleave traces with
    /// [`install`](Self::install) mid-stream and keep the event loop
    /// deterministic.
    pub fn feed(&mut self, trace: &[TraceEvent]) -> Result<TraceOutcome, ServeError> {
        let mut events: Vec<&TraceEvent> = trace.iter().collect();
        events.sort_by_key(|e| e.at_ns); // stable: ties keep trace order
        let mut completions = Vec::new();
        let mut rejections = Vec::new();
        for ev in events {
            // Any batch whose window deadline elapsed before this arrival
            // has already launched in virtual time — in either lane, in
            // deadline order (the drain lane wins ties: admitted first).
            while let Some((deadline, sel)) = self.due_deadline() {
                if deadline <= ev.at_ns {
                    self.dispatch(sel, deadline, &mut completions)?;
                } else {
                    break;
                }
            }
            if let Err(error) = self.submit(ev.at_ns, ev.query.clone()) {
                rejections.push(Rejection { at_ns: ev.at_ns, tenant: ev.query.tenant, error });
                continue;
            }
            if self.current.pending.len() >= self.cfg.max_batch {
                self.dispatch(LaneSel::Current, ev.at_ns, &mut completions)?;
            }
        }
        Ok(TraceOutcome { completions, rejections })
    }

    /// Admit a query arriving at `at_ns`, or bounce it with a typed error.
    /// Arrival times are clamped monotone to the daemon clock. Admissions
    /// always land in the *current* lane — the drain lane accepts no new
    /// work.
    pub fn submit(&mut self, at_ns: u64, query: Query) -> Result<(), ServeError> {
        self.clock_ns = self.clock_ns.max(at_ns);
        self.release_until(self.clock_ns);
        let depth = self.queue_depth();
        let obs = self.current.serve.obs();
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
        self.current.pending.push_back(Pending { arrival_ns: self.clock_ns, query });
        self.queue_peak = self.queue_peak.max(self.queue_depth());
        Ok(())
    }

    /// Dispatch everything still pending (in `max_batch`-sized batches) and
    /// append the completions. Draining means input has ended: a batch whose
    /// window already expired launches at its deadline, anything else
    /// launches now (the daemon clock) instead of waiting out its window.
    pub fn flush(&mut self, completions: &mut Vec<Completion>) -> Result<(), ServeError> {
        while let Some((deadline, sel)) = self.due_deadline() {
            self.dispatch(sel, deadline.min(self.clock_ns), completions)?;
        }
        Ok(())
    }

    /// Fold daemon metrics (cache, queue, admission) into the current
    /// serve session's observability and produce the combined run report.
    /// Idempotent: daemon totals fold via max/set, not repeated adds.
    pub fn report(&self) -> RunReport {
        let metrics = &self.current.serve.obs().metrics;
        let (hits, misses) = self.cache.counters();
        metrics.counter_max(METRIC_CACHE_HITS, hits);
        metrics.counter_max(METRIC_CACHE_MISSES, misses);
        metrics.gauge_set(METRIC_CACHE_HIT_RATE, self.cache.hit_rate());
        metrics.counter_max(METRIC_BATCHES, self.batches);
        metrics.counter_max(METRIC_ADMISSION_REJECTED, self.rejected);
        metrics.gauge_max(METRIC_QUEUE_DEPTH_PEAK, self.queue_peak as f64);
        self.current.serve.report()
    }

    /// Earliest batch-window expiry across the lanes, with the lane it
    /// belongs to. The drain lane wins ties — its work was admitted first,
    /// which keeps cross-lane dispatch order a pure function of the trace.
    fn due_deadline(&self) -> Option<(u64, LaneSel)> {
        let window = self.cfg.batch_window_ns;
        let drain = self.draining.as_ref().and_then(|l| l.deadline(window));
        let cur = self.current.deadline(window);
        match (drain, cur) {
            (Some(d), Some(c)) if c < d => Some((c, LaneSel::Current)),
            (Some(d), _) => Some((d, LaneSel::Draining)),
            (None, Some(c)) => Some((c, LaneSel::Current)),
            (None, None) => None,
        }
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

    /// Launch one batch from the selected lane at virtual time `at_ns` (or
    /// when that lane's device frees up, whichever is later): consult the
    /// cache under the lane's snapshot, run the deduplicated miss set as
    /// one `run_queries` call on the lane's session, and charge every query
    /// in the batch the same completion time. When the drain lane runs dry
    /// it is retired and the cache narrows to the current snapshot only.
    fn dispatch(
        &mut self,
        sel: LaneSel,
        at_ns: u64,
        completions: &mut Vec<Completion>,
    ) -> Result<(), ServeError> {
        let lane = match sel {
            LaneSel::Draining => self.draining.as_mut().expect("drain dispatch needs a lane"),
            LaneSel::Current => &mut self.current,
        };
        let n = self.cfg.max_batch.max(1).min(lane.pending.len());
        if n == 0 {
            return Ok(());
        }
        let snapshot = lane.snapshot.clone();
        let fp = snapshot.fingerprint();
        let start_ns = at_ns.max(lane.busy_until);
        let taken: Vec<Pending> = lane.pending.drain(..n).collect();

        // Cache phase: zero device lines touched for hits. Misses group by
        // QueryKey (BTreeMap ⇒ deterministic group order) so identical
        // queries from different tenants share one traversal.
        let mut responses: Vec<Option<QueryResponse>> = (0..n).map(|_| None).collect();
        let mut miss_groups: BTreeMap<ntadoc::QueryKey, Vec<usize>> = BTreeMap::new();
        for (i, p) in taken.iter().enumerate() {
            let key = p.query.key();
            if let Some(cached) = self.cache.get(fp, &key) {
                responses[i] = Some(QueryResponse::from_cache(
                    p.query.tenant,
                    p.query.task,
                    cached,
                    snapshot.clone(),
                ));
            } else {
                miss_groups.entry(key).or_default().push(i);
            }
        }

        let ns_before = lane.serve.sim_device().stats().virtual_ns;
        if !miss_groups.is_empty() {
            let uniq: Vec<Query> =
                miss_groups.values().map(|idxs| taken[idxs[0]].query.clone()).collect();
            let served = match lane.serve.run_queries(&uniq) {
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
                self.cache.insert(fp, key, resp.rows().clone());
                for i in idxs {
                    responses[i] = Some(QueryResponse::computed(
                        taken[i].query.tenant,
                        resp.task,
                        resp.rows().clone(),
                        snapshot.clone(),
                    ));
                }
            }
        }
        let service_ns = lane.serve.sim_device().stats().virtual_ns - ns_before;
        let done_ns = start_ns + service_ns;
        lane.busy_until = done_ns;
        self.batches += 1;

        for (p, response) in taken.into_iter().zip(responses) {
            let response = response.expect("every batched query got a response");
            lane.serve.obs().metrics.counter_add(&served_metric(p.query.tenant), 1);
            self.releases.push(Reverse((done_ns, p.query.tenant.0)));
            completions.push(Completion {
                arrival_ns: p.arrival_ns,
                start_ns,
                done_ns,
                query: p.query,
                response,
            });
        }

        // The old generation's last pinned batch just left: retire the lane
        // and invalidate exactly the superseded cache entries.
        if sel == LaneSel::Draining && self.draining.as_ref().is_some_and(|l| l.pending.is_empty())
        {
            self.draining = None;
            self.cache.retain_snapshots(&[self.current.fingerprint()]);
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
    fn install_swaps_snapshot_and_invalidates_cache() {
        let mut d = daemon(DaemonConfig::default());
        let q = Query::new(TenantId(0), Task::WordCount);
        let old = d.execute(q.clone()).unwrap();
        assert!(d.execute(q.clone()).unwrap().cache_hit);

        // Re-compress a *different* corpus and install it.
        let files =
            vec![("c.txt".to_string(), "entirely different words live here now".to_string())];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
        let new_snapshot = engine.snapshot_version();
        assert_ne!(old.snapshot.fingerprint(), new_snapshot);
        d.install(engine.serve().unwrap()).unwrap();
        assert_eq!(d.snapshot_version(), new_snapshot);

        let fresh = d.execute(q).unwrap();
        assert!(!fresh.cache_hit, "new snapshot must not serve stale bytes");
        assert_eq!(fresh.snapshot.fingerprint(), new_snapshot);
        assert_ne!(old.output(), fresh.output());
    }

    #[test]
    fn install_with_pending_work_drains_against_old_snapshot() {
        let cfg = DaemonConfig {
            batch_window_ns: u64::MAX / 4, // nothing dispatches on its own
            max_batch: 16,
            ..DaemonConfig::default()
        };
        let mut d = daemon(cfg);
        let old_fp = d.snapshot_version();
        d.submit(10, Query::new(TenantId(0), Task::WordCount)).unwrap();
        d.submit(20, Query::new(TenantId(1), Task::Sort)).unwrap();

        let files =
            vec![("c.txt".to_string(), "entirely different words live here now".to_string())];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
        let flushed = d.install(engine.serve().unwrap()).unwrap();
        assert!(flushed.is_empty(), "install must not flush in-window work");
        assert_eq!(d.draining_depth(), 2, "old-snapshot work stays queued in the drain lane");

        // New admissions land under the new snapshot while the old drains.
        d.submit(30, Query::new(TenantId(2), Task::WordCount)).unwrap();
        let mut done = Vec::new();
        d.flush(&mut done).unwrap();
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].response.snapshot.fingerprint(), old_fp);
        assert_eq!(done[1].response.snapshot.fingerprint(), old_fp);
        assert_eq!(done[2].response.snapshot.fingerprint(), d.snapshot_version());
        assert!(d.draining_session().is_none(), "drain lane retires once empty");
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
        assert_eq!(r1.metric_u64(ntadoc_pmem::obs::METRIC_CACHE_HITS), Some(1));
        assert_eq!(
            r2.metric_u64(ntadoc_pmem::obs::METRIC_CACHE_HITS),
            Some(1),
            "re-reporting must not double-count"
        );
        assert_eq!(r1.metric_u64(ntadoc_pmem::obs::METRIC_BATCHES), Some(2));
        assert!(r1.metric_f64(ntadoc_pmem::obs::METRIC_CACHE_HIT_RATE).unwrap() > 0.0);
    }
}
