//! Multi-tenant serve-daemon load test: replay a seeded open-loop arrival
//! trace through the `ntadoc-serve` daemon and report virtual-time tail
//! latency, throughput, cache effectiveness, and what batching + caching
//! save in device lines touched versus serving every query alone.
//!
//! All headline numbers are *virtual time* — deterministic for any worker
//! count: the same trace always produces the same p50/p99/throughput. The
//! experiment asserts that a warm cache hit touches zero device lines and
//! that the replay is bit-identical at 1 and 4 workers.
//!
//! **Why it stays** (ROADMAP item 4, which deletes it). Only this bench reads `GATES`'s
//! `serve_load` rows for the virtual p50 and p99 latency, the virtual
//! throughput and `cache_hit_rate >= 0.3` of a multi-tenant trace.
//! `benchmark/` replays a 48-query trace of its own batched and unbatched
//! on both clocks (`serve.trace_replay_qps` on the wall clock, the exact
//! `serve.batch_lines_ratio`, which is this bench's `lines_touched_ratio`
//! inverted), so that row alone would not keep this bench; the latency,
//! throughput and hit-rate rows do.

use crate::{Emitter, Harness};
use ntadoc::{Engine, EngineConfig, Query, Task, TenantId};
use ntadoc_pmem::{par, Json};
use ntadoc_serve::{
    percentile_ns, shard_reads_total, DaemonConfig, QueryDaemon, TraceOutcome, TraceSpec,
};

fn build_daemon(
    comp: &std::sync::Arc<ntadoc_grammar::Compressed>,
    cfg: DaemonConfig,
) -> QueryDaemon {
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    QueryDaemon::new(engine.serve().unwrap(), cfg)
}

/// Latency percentiles + virtual throughput for one replay.
fn digest(outcome: &TraceOutcome) -> (u64, u64, f64) {
    let lat: Vec<u64> = outcome.completions.iter().map(|c| c.latency_ns()).collect();
    let p50 = percentile_ns(&lat, 50.0);
    let p99 = percentile_ns(&lat, 99.0);
    let span_ns = outcome.completions.iter().map(|c| c.done_ns).max().unwrap_or(1).max(1);
    let qps = outcome.completions.len() as f64 / (span_ns as f64 / 1e9);
    (p50, p99, qps)
}

pub fn run(h: &Harness, em: &mut Emitter) {
    let comp = h.dataset(&h.spec("C"));

    let trace_spec =
        TraceSpec { tenants: 6, queries: 160, mean_gap_ns: 200_000, hot_percent: 75, seed: 0x10ad };
    let trace = trace_spec.generate();
    em.meta("trace_queries", Json::U64(trace.len() as u64));
    em.meta("trace_tenants", Json::U64(trace_spec.tenants as u64));
    em.meta("trace_hot_percent", Json::U64(trace_spec.hot_percent as u64));

    // Quotas are lifted for the A/B comparison so both modes admit every
    // query — otherwise the slower unbatched mode would reject more under
    // quota pressure and serve fewer queries, skewing the lines-touched
    // ratio. Admission control itself is exercised by the daemon tests.
    let ab = DaemonConfig {
        tenant_quota: trace.len(),
        queue_limit: 4 * trace.len(),
        ..DaemonConfig::default()
    };
    let ab_unbatched = DaemonConfig { max_batch: 1, cache_capacity: 0, ..ab.clone() };
    // Per mode: the latency digest, the hit rate, lines touched, rejections.
    let mut modes = Vec::new();
    for (mode, cfg) in [("batched", ab.clone()), ("unbatched", ab_unbatched)] {
        let mut daemon = build_daemon(&comp, cfg);
        let outcome = daemon.run_trace(&trace).unwrap();
        let (p50, p99, qps) = digest(&outcome);
        let report = daemon.report();
        let lines = shard_reads_total(&report);
        let hit_rate = daemon.cache_hit_rate();
        em.row([
            ("mode", Json::from(mode)),
            ("p50_virtual_ns", Json::U64(p50)),
            ("p99_virtual_ns", Json::U64(p99)),
            ("throughput_qps_virtual", Json::F64(qps)),
            ("cache_hit_rate", Json::F64(hit_rate)),
            ("shard_reads_total", Json::U64(lines)),
            ("batches", Json::U64(daemon.batches_dispatched())),
            ("completions", Json::U64(outcome.completions.len() as u64)),
            ("rejections", Json::U64(outcome.rejections.len() as u64)),
        ]);
        em.attach_report(mode, &report);
        modes.push(((p50, p99, qps), hit_rate, lines, outcome.rejections.len()));
    }
    let [(batched_digest, batched_hit_rate, batched, rejected), (.., unbatched, _)] = modes[..]
    else {
        unreachable!("two modes replayed")
    };

    // A warm cache hit must touch zero device lines.
    {
        let mut daemon = build_daemon(&comp, DaemonConfig::default());
        let q = Query::new(TenantId(0), Task::WordCount).top_k(8);
        daemon.execute(q.clone()).unwrap();
        let before = daemon.serve_session().sim_device().stats();
        let warm = daemon.execute(q).unwrap();
        let delta = daemon.serve_session().sim_device().stats().checked_since(&before).unwrap();
        assert!(warm.cache_hit, "second identical query must hit");
        assert_eq!(delta.reads, 0, "cache hit issued device reads");
        assert_eq!(delta.line_misses, 0, "cache hit fetched media lines");
    }

    // Determinism: the identical trace replays bit-identically at any
    // worker count (completion times *and* response bytes).
    {
        let replay = |threads: usize| {
            let mut daemon = build_daemon(&comp, ab.clone());
            par::with_threads(threads, || daemon.run_trace(&trace).unwrap())
        };
        let base = replay(1);
        let other = replay(4);
        assert_eq!(base.completions.len(), other.completions.len());
        for (a, b) in base.completions.iter().zip(&other.completions) {
            assert_eq!(a.done_ns, b.done_ns, "virtual completion time diverged across threads");
            assert_eq!(a.response, b.response, "response bytes diverged across threads");
        }
    }

    let (p50, p99, qps) = batched_digest;
    em.headline_u64("p50_virtual_latency_ns", p50);
    em.headline_u64("p99_virtual_latency_ns", p99);
    em.headline("throughput_qps_virtual", qps);
    em.headline("cache_hit_rate", batched_hit_rate);
    em.headline("lines_touched_ratio", unbatched as f64 / batched.max(1) as f64);
    em.headline_u64("admission_rejections", rejected as u64);
}
