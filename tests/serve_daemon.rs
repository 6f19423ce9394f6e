//! Cross-crate integration tests for the multi-tenant serve daemon:
//! cache correctness (byte-identical hits, zero device-line reads, one
//! entry per query shape), the flat cost of a hit in allocations — inside
//! the daemon and out through the reply writer — what a cached result costs
//! in bytes, admission control (typed rejections, quota
//! release), batching amortization (fewer total lines touched than
//! unbatched serving), and trace determinism across worker counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, shard_reads_total, Compressed, DaemonConfig, Engine, EngineConfig, Json,
    Query, QueryDaemon, ServeError, Task, TaskRows, TenantId, TokenizerConfig, TraceSpec,
    WireServer, METRIC_DRAM_PEAK,
};

// ---------------------------------------------------------------------------
// Per-thread allocation counting, so the cache-hit hot path can be held to a
// hard allocation budget. Thread-local (not a global AtomicU64) so the other
// tests in this binary, running concurrently, can't pollute the count.

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (as asked for; what
    /// the allocator rounds up to is not counted).
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live(delta: i64) {
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() + delta));
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update cannot
// allocate (const-initialized thread-local holding a Cell<u64> with no Drop).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn corpus() -> Compressed {
    let files = vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog the end".repeat(25)),
        ("b".to_string(), "pack my box with five dozen liquor jugs the fox".repeat(25)),
        ("c".to_string(), "sphinx of black quartz judge my vow the quick judge".repeat(25)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

fn daemon_over(comp: &Compressed, cfg: DaemonConfig) -> QueryDaemon {
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    QueryDaemon::new(engine.serve().unwrap(), cfg)
}

#[test]
fn cache_hit_is_byte_identical_and_touches_zero_lines() {
    let comp = corpus();
    let mut d = daemon_over(&comp, DaemonConfig::default());
    for task in [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex] {
        let q = Query::new(TenantId(1), task).top_k(7);
        let cold = d.execute(q.clone()).unwrap();
        assert!(!cold.cache_hit, "{task}: first ask must miss");
        let before = d.serve_session().sim_device().stats();
        let warm = d.execute(q).unwrap();
        let delta = d.serve_session().sim_device().stats().checked_since(&before).unwrap();
        assert!(warm.cache_hit, "{task}: second ask must hit");
        assert_eq!(cold.output(), warm.output(), "{task}: hit must be byte-identical");
        assert_eq!(delta.reads, 0, "{task}: cache hit issued device reads");
        assert_eq!(delta.line_misses, 0, "{task}: cache hit fetched media lines");
    }
}

#[test]
fn cache_hits_stay_on_a_flat_allocation_budget() {
    // The daemon hot path — admit, probe the result cache, build the
    // response — must not heap-allocate per hit beyond a small constant:
    // `ResultCache::get` borrows the caller's key (the old flat-keyed map
    // forced a `QueryKey` clone per probe), and the output rides an `Arc`.
    // A filtered query makes the key heap-owning, so any reintroduced
    // per-probe clone shows up as allocation growth here.
    let comp = corpus();
    let mut d = daemon_over(&comp, DaemonConfig::default());
    let q = Query::new(TenantId(1), Task::TermVector).file_filter("a").top_k(5);
    assert!(!d.execute(q.clone()).unwrap().cache_hit, "first ask must miss");

    let batch = |d: &mut QueryDaemon| {
        let before = thread_allocs();
        for _ in 0..64 {
            assert!(d.execute(q.clone()).unwrap().cache_hit, "warm ask must hit");
        }
        thread_allocs() - before
    };
    // Warm every lazily-grown structure (queues, completion buffers).
    batch(&mut d);
    let first = batch(&mut d);
    let second = batch(&mut d);
    assert_eq!(second, first, "per-hit allocations must not grow between batches");
    let per_hit = first as f64 / 64.0;
    assert!(per_hit <= 16.0, "cache hits allocate too much: {per_hit:.1} allocations per hit");
}

/// One connection over a socketpair. A client thread sends `requests` and
/// then reads every reply; the server's end is served on this thread, so
/// the allocations counted are the serving side's and nothing else's.
/// Returns the parsed replies and that count.
fn wire_exchange(server: &mut WireServer, requests: &[&str]) -> (Vec<Json>, u64) {
    let (ours, mut theirs) = UnixStream::pair().unwrap();
    let sends: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let client = std::thread::spawn(move || {
        theirs.write_all(sends.as_bytes()).unwrap();
        theirs.shutdown(std::net::Shutdown::Write).unwrap();
        let mut replies = String::new();
        theirs.read_to_string(&mut replies).unwrap();
        replies
    });
    let before = thread_allocs();
    let shutdown = server.serve_connection(&ours).unwrap();
    let allocs = thread_allocs() - before;
    assert!(!shutdown);
    drop(ours); // the client's end of stream
    let replies = client.join().unwrap();
    (replies.lines().map(|line| Json::parse(line).unwrap()).collect(), allocs)
}

/// The daemon's own counters, asked for on the wire.
fn wire_stats<const N: usize>(server: &mut WireServer, names: [&str; N]) -> [u64; N] {
    let (replies, _) = wire_exchange(server, &[r#"{"op":"stats"}"#]);
    names.map(|name| replies[0].get(name).and_then(Json::as_u64).expect(name))
}

#[test]
fn a_hit_through_the_reply_writer_costs_the_same_whatever_its_rows() {
    // 2 000 distinct words: the full word count has 2 000 rows (≈ 22 KB
    // encoded, sent from where the cache keeps it), `top` 10 has ten
    // (copied behind the reply's first members). Built as a tree, the full
    // reply cost an allocation per row and more.
    const ROWS: usize = 2000;
    let words: Vec<String> = (0..ROWS).map(|i| format!("w{i:04}")).collect();
    let comp = compress_corpus(&[("wide".into(), words.join(" "))], &TokenizerConfig::default());
    let mut server = WireServer::new(daemon_over(&comp, DaemonConfig::default()));
    let full = r#"{"op":"query","task":"wordcount","tenant":1}"#;
    let top = r#"{"op":"query","task":"wordcount","tenant":1,"top":10}"#;

    // Each key's miss, then the hit that encodes it.
    let (warming, _) = wire_exchange(&mut server, &[full, full, top, top]);
    let rows = |reply: &Json| reply.get("output").and_then(Json::as_obj).unwrap().len();
    assert_eq!((rows(&warming[1]), rows(&warming[3])), (ROWS, 10));
    let hits = |server: &mut WireServer, request: &str| {
        let (replies, allocs) = wire_exchange(server, &[request; 64]);
        assert!(replies.iter().all(|r| r.get("cache_hit").and_then(Json::as_bool) == Some(true)));
        allocs
    };
    // Warm every lazily-grown structure, then hold both keys to a budget.
    hits(&mut server, full);
    let (full_allocs, top_allocs) = (hits(&mut server, full), hits(&mut server, top));
    assert_eq!(hits(&mut server, full), full_allocs, "allocations per hit grew between batches");
    let (per_full, per_top) = (full_allocs as f64 / 64.0, top_allocs as f64 / 64.0);
    assert!(
        (per_full - per_top).abs() <= 2.0,
        "a hit's allocations follow its rows: {per_full:.1} for {ROWS} rows, {per_top:.1} for 10"
    );
    assert!(per_full <= 24.0, "a hit allocates too much: {per_full:.1} calls, request to reply");

    // However many hits followed, each key hit was encoded exactly once.
    let counters = ["cache_hits", "cache_misses", "memoized_entries", "cache_entries"];
    assert_eq!(wire_stats(&mut server, counters), [2 + 4 * 64, 2, 2, 2]);
    let [memoized] = wire_stats(&mut server, ["memoized_bytes"]);
    let encoded = |reply: &Json| reply.get("output").unwrap().compact().len() as u64;
    assert_eq!(memoized, encoded(&warming[1]) + encoded(&warming[3]));
}

#[test]
fn cached_results_are_ids_an_eighth_the_size_of_their_strings() {
    // A full cache of inverted indexes, the largest servable result: 64
    // keys, `top` 1 to 64. Three files, so every `top` from 3 up is the
    // whole index and the 64 keys hold three distinct answers.
    let comp = corpus();
    let mut d = daemon_over(&comp, DaemonConfig { cache_capacity: 64, ..DaemonConfig::default() });
    let rows: Vec<_> = (1..=64)
        .map(|k| d.execute(Query::new(TenantId(0), Task::InvertedIndex).top_k(k)).unwrap())
        .map(|resp| resp.into_rows())
        .collect();
    assert!(rows[2..].iter().all(|r| *r == rows[2]), "`top` 3 and up is the whole index");
    let answers = &rows[..3];
    assert!(answers[0] != answers[1] && answers[1] != answers[2]);
    assert_eq!((d.cache().len(), d.cache().answer_count()), (64, 3));
    let cached = d.cache().bytes();
    let stored: usize = answers.iter().map(|r| r.heap_bytes()).sum();
    assert_eq!(cached, stored, "each distinct answer's rows, once");
    assert_eq!(d.cache().memoized(), (0, 0), "and no encoding: nothing was hit");

    // The same three answers as the strings a cache entry used to be.
    let before = THREAD_LIVE.with(Cell::get);
    let strings: Vec<_> = answers.iter().map(|r| TaskRows::clone(r).into_strings()).collect();
    let as_strings = (THREAD_LIVE.with(Cell::get) - before) as usize;
    assert_eq!(strings.len(), 3);
    assert!(
        cached * 8 < as_strings,
        "3 cached inverted indexes hold {cached} bytes as ids, {as_strings} as strings"
    );

    // A live daemon says so itself.
    let mut server = WireServer::new(d);
    let counters = ["cache_entries", "cache_answers", "cache_bytes"];
    assert_eq!(wire_stats(&mut server, counters), [64, 3, cached as u64]);
}

#[test]
fn keys_with_equal_answers_share_one_stored_answer() {
    // `top` 50 and `top` 60 over three files are both the whole index.
    let comp = corpus();
    let cfg = DaemonConfig { cache_capacity: 3, ..DaemonConfig::default() };
    let index = |k| Query::new(TenantId(0), Task::InvertedIndex).top_k(k);
    let mut d = daemon_over(&comp, cfg.clone());
    let (first, second) = (d.execute(index(50)).unwrap(), d.execute(index(60)).unwrap());
    assert!(!first.cache_hit && !second.cache_hit, "sharing turns no miss into a hit");
    assert_eq!(d.cache_counters(), (0, 2));
    let (hit50, hit60) = (d.execute(index(50)).unwrap(), d.execute(index(60)).unwrap());
    assert!(hit50.cache_hit && hit60.cache_hit);
    assert!(Arc::ptr_eq(hit50.rows(), hit60.rows()), "one stored answer for both keys");
    assert_eq!(hit50.encoded_output(), Some(first.output().to_json().compact().as_str()));
    assert!(std::ptr::eq(hit50.encoded_output().unwrap(), hit60.encoded_output().unwrap()));
    assert_eq!((d.cache().len(), d.cache().answer_count()), (2, 1));
    assert_eq!(d.cache().bytes(), first.rows().heap_bytes(), "counted once");

    // FIFO by key: two more keys evict `top` 50 and leave `top` 60 a hit.
    d.execute(index(1)).unwrap();
    d.execute(index(2)).unwrap();
    assert_eq!((d.cache().len(), d.cache().answer_count()), (3, 3));
    assert!(d.execute(index(60)).unwrap().cache_hit, "the second key outlives the first");
    assert!(!d.execute(index(50)).unwrap().cache_hit, "the first key was evicted");

    // On the wire: both misses are the same line, and `stats` counts one answer.
    let mut server = WireServer::new(daemon_over(&comp, cfg));
    let ask = r#"{"op":"query","task":"invertedindex","top":50}"#;
    let (replies, _) = wire_exchange(&mut server, &[ask, &ask.replace("50", "60")]);
    assert_eq!(replies[0].get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(replies[0].compact(), replies[1].compact(), "byte-identical replies");
    let counters = ["cache_misses", "cache_entries", "cache_answers", "cache_bytes"];
    let stats = wire_stats(&mut server, counters);
    assert_eq!(stats, [2, 2, 1, first.rows().heap_bytes() as u64]);
}

#[test]
fn a_cold_run_of_distinct_misses_memoizes_nothing() {
    let comp = corpus();
    let mut server = WireServer::new(daemon_over(&comp, DaemonConfig::default()));
    let requests: Vec<String> =
        (1..=40).map(|k| format!(r#"{{"op":"query","task":"sort","top":{k}}}"#)).collect();
    let (replies, _) =
        wire_exchange(&mut server, &requests.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(replies.len(), 40);
    assert!(replies.iter().all(|r| r.get("cache_hit").and_then(Json::as_bool) == Some(false)));
    let counters =
        ["cache_misses", "cache_hits", "cache_entries", "memoized_entries", "memoized_bytes"];
    assert_eq!(wire_stats(&mut server, counters), [40, 0, 40, 0, 0]);
}

#[test]
fn different_query_shapes_do_not_share_cache_entries() {
    let comp = corpus();
    let mut d = daemon_over(&comp, DaemonConfig::default());
    let base = Query::new(TenantId(0), Task::WordCount);
    d.execute(base.clone()).unwrap();
    // Same task, different shaping — must all miss (and differ).
    let top = d.execute(base.clone().top_k(2)).unwrap();
    assert!(!top.cache_hit);
    assert_eq!(top.output().as_word_counts().unwrap().len(), 2);
    // Tenant is NOT part of the cache key: another tenant's identical
    // query hits.
    let other = d.execute(Query::new(TenantId(9), Task::WordCount)).unwrap();
    assert!(other.cache_hit, "cache key must ignore the tenant");
    assert_eq!(other.tenant, TenantId(9), "response still carries the asking tenant");
}

#[test]
fn quota_and_queue_rejections_are_typed_not_dropped() {
    let comp = corpus();
    let cfg = DaemonConfig {
        tenant_quota: 1,
        queue_limit: 3,
        batch_window_ns: u64::MAX / 4,
        max_batch: 64,
        ..DaemonConfig::default()
    };
    let mut d = daemon_over(&comp, cfg);
    d.submit(0, Query::new(TenantId(7), Task::WordCount)).unwrap();
    let quota_err = d.submit(1, Query::new(TenantId(7), Task::Sort)).unwrap_err();
    assert!(matches!(
        quota_err,
        ServeError::QuotaExceeded { tenant: TenantId(7), in_flight: 1, quota: 1 }
    ));
    d.submit(2, Query::new(TenantId(8), Task::Sort)).unwrap();
    d.submit(3, Query::new(TenantId(9), Task::TermVector)).unwrap();
    let queue_err = d.submit(4, Query::new(TenantId(10), Task::InvertedIndex)).unwrap_err();
    assert!(matches!(queue_err, ServeError::QueueFull { depth: 3, limit: 3 }));
    // Errors render for operators.
    assert!(quota_err.to_string().contains("quota"));
    assert!(queue_err.to_string().contains("queue full"));
}

#[test]
fn trace_rejections_are_reported_and_counted() {
    let comp = corpus();
    let cfg = DaemonConfig {
        tenant_quota: 1,
        batch_window_ns: u64::MAX / 4, // only max_batch triggers dispatch
        max_batch: 1000,
        ..DaemonConfig::default()
    };
    let mut d = daemon_over(&comp, cfg);
    // One tenant, back-to-back arrivals: everything past the first gets
    // bounced while the first is still queued.
    let trace =
        TraceSpec { tenants: 1, queries: 8, mean_gap_ns: 10, hot_percent: 100, seed: 9 }.generate();
    let outcome = d.run_trace(&trace).unwrap();
    assert_eq!(
        outcome.completions.len() + outcome.rejections.len(),
        trace.len(),
        "every arrival must be accounted for"
    );
    assert!(!outcome.rejections.is_empty(), "quota 1 must reject a burst");
    for r in &outcome.rejections {
        assert!(matches!(r.error, ServeError::QuotaExceeded { .. }));
        assert_eq!(r.tenant, TenantId(0));
    }
    let report = d.report();
    assert_eq!(
        report.metric_u64(ntadoc_serve::METRIC_ADMISSION_REJECTED),
        Some(outcome.rejections.len() as u64),
        "rejections must surface in the metric snapshot"
    );
}

#[test]
fn batched_serving_touches_fewer_lines_than_unbatched() {
    let comp = corpus();
    let trace =
        TraceSpec { tenants: 4, queries: 48, mean_gap_ns: 100_000, hot_percent: 80, seed: 0xbeef }
            .generate();
    let lift = |cfg: DaemonConfig| DaemonConfig {
        tenant_quota: trace.len(),
        queue_limit: 4 * trace.len(),
        ..cfg
    };
    let mut batched = daemon_over(&comp, lift(DaemonConfig::default()));
    let mut unbatched = daemon_over(&comp, lift(DaemonConfig::unbatched()));
    let ob = batched.run_trace(&trace).unwrap();
    let ou = unbatched.run_trace(&trace).unwrap();
    assert_eq!(ob.completions.len(), trace.len(), "batched must admit everything");
    assert_eq!(ou.completions.len(), trace.len(), "unbatched must admit everything");
    let lines_batched = shard_reads_total(&batched.report());
    let lines_unbatched = shard_reads_total(&unbatched.report());
    assert!(
        lines_batched < lines_unbatched,
        "batching + caching must amortize traversals: {lines_batched} vs {lines_unbatched}"
    );
    assert!(batched.cache_hit_rate() > 0.0, "hot trace must produce cache hits");
    assert!(
        batched.batches_dispatched() < unbatched.batches_dispatched(),
        "batch formation must coalesce arrivals"
    );
}

/// `trace_replay_is_bit_identical_across_worker_counts`'s 1-worker replay:
/// completions, batches dispatched, cache (hits, misses), sum of
/// `start_ns`, sum of `done_ns`, device lines read.
const REPLAY_PINNED: (usize, u64, (u64, u64), u64, u64, u64) =
    (48, 11, (31, 17), 635_376_224, 635_866_971, 617);

#[test]
fn trace_replay_is_bit_identical_across_worker_counts() {
    let comp = corpus();
    let trace = TraceSpec { queries: 48, ..TraceSpec::default() }.generate();
    // Engine build, session init and replay all run at `threads` workers.
    // The DRAM high-water mark is compared on its own: it is the one value
    // that follows the schedule (transient merge buffers of concurrent
    // items may overlap; DESIGN.md leaves it out of the guarantee).
    let replay = |threads: usize| {
        par::with_threads(threads, || {
            let mut d = daemon_over(&comp, DaemonConfig::default());
            let outcome = d.run_trace(&trace).unwrap();
            let mut report = d.report();
            let peak = report.metric_f64(METRIC_DRAM_PEAK).expect("DRAM peak is reported");
            report.metrics.remove(METRIC_DRAM_PEAK);
            (outcome, report, peak)
        })
    };
    let (base, base_report, serial_peak) = replay(1);
    // One worker has no schedule: its peak is exact.
    assert_eq!(replay(1).2, serial_peak, "DRAM peak diverged between 1-thread replays");
    // And the 1-worker replay itself is pinned, so a refactor of the event
    // loop or the cache cannot move it unnoticed: completions, batches,
    // cache (hits, misses), the sums of start and done times, lines read.
    let metric = |name: &str| base_report.metric_u64(name).expect(name);
    let pinned = (
        base.completions.len(),
        metric(ntadoc_serve::METRIC_BATCHES),
        (metric(ntadoc_serve::METRIC_CACHE_HITS), metric(ntadoc_serve::METRIC_CACHE_MISSES)),
        base.completions.iter().map(|c| c.start_ns).sum::<u64>(),
        base.completions.iter().map(|c| c.done_ns).sum::<u64>(),
        shard_reads_total(&base_report),
    );
    assert_eq!(pinned, REPLAY_PINNED, "the 1-worker replay moved");
    for threads in [2, 8] {
        let (outcome, report, peak) = replay(threads);
        assert_eq!(outcome.completions.len(), base.completions.len());
        for (a, b) in outcome.completions.iter().zip(&base.completions) {
            assert_eq!(a.query, b.query, "query order diverged at {threads} threads");
            assert_eq!(a.start_ns, b.start_ns, "start diverged at {threads} threads");
            assert_eq!(a.done_ns, b.done_ns, "completion diverged at {threads} threads");
            assert_eq!(a.response, b.response, "response diverged at {threads} threads");
        }
        assert_eq!(
            report.to_json().pretty(),
            base_report.to_json().pretty(),
            "serialized report diverged at {threads} threads"
        );
        // Concurrent items only ever add to what is resident, and at most
        // `threads` of them hold their transients at once.
        assert!(
            serial_peak <= peak && peak <= serial_peak * threads as f64,
            "DRAM peak {peak} at {threads} threads outside [{serial_peak}, {threads} x {serial_peak}]"
        );
    }
}
