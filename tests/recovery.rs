//! Crash/recovery integration tests across the whole stack (§IV-E).
//!
//! Recovery here runs under the *torn-write* crash model by default:
//! flushed-but-unfenced lines independently survive or revert under a
//! seeded RNG, which is strictly more adversarial than the deterministic
//! rewind model (real NVM guarantees only 8-byte atomicity and no
//! ordering between unfenced lines).

use ntadoc::METRIC_MEDIA_RETRIES;
use ntadoc_repro::{
    compress_corpus, Compressed, Engine, EngineConfig, PmemError, Query, RetryPolicy, Task,
    TenantId, TokenizerConfig, Traversal, METRIC_DEVICE_PEAK,
};

fn corpus() -> Compressed {
    let files = vec![
        ("a".to_string(), "alpha beta gamma alpha beta delta epsilon".repeat(50)),
        ("b".to_string(), "alpha beta gamma zeta eta theta".repeat(50)),
        ("c".to_string(), "iota kappa alpha beta gamma lambda".repeat(50)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

#[test]
fn phase_level_crash_during_traversal_recovers_by_rerunning() {
    let comp = corpus();
    for task in Task::ALL {
        let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        let mut session = engine.session(task).unwrap();
        // Torn power failure mid-run: everything not phase-persisted is
        // lost or arbitrarily shredded across unfenced lines.
        session.crash_torn(0xD15EA5E);
        session.recover().unwrap();
        let recovered = session.traverse().unwrap_or_else(|e| panic!("{task}: {e}"));
        let mut clean_engine =
            Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        let clean = clean_engine.run(task).unwrap();
        assert_eq!(recovered, clean, "{task}: post-crash output differs");
    }
}

#[test]
fn traversal_is_rerunnable_even_without_crash() {
    // Re-running the traversal phase must be idempotent (weights are
    // reset per run) — this is what recovery relies on.
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session = engine.session(Task::WordCount).unwrap();
    let first = session.traverse().unwrap();
    let second = session.traverse().unwrap();
    assert_eq!(first, second, "second traversal must not double-count");
}

#[test]
fn operation_level_crash_recovers() {
    let comp = corpus();
    for task in [Task::WordCount, Task::InvertedIndex] {
        let engine =
            Engine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build().unwrap();
        let mut session = engine.session(task).unwrap();
        session.crash_torn(0xF00D);
        session.recover().unwrap(); // rolls back any in-flight transaction
        let recovered = session.traverse().unwrap();
        let mut clean_engine =
            Engine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build().unwrap();
        let clean = clean_engine.run(task).unwrap();
        assert_eq!(recovered, clean, "{task}: op-level post-crash output differs");
    }
}

#[test]
fn multiple_torn_crashes_in_a_row_still_recover() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session = engine.session(Task::Sort).unwrap();
    for seed in 0..3u64 {
        session.crash_torn(seed);
        session.recover().unwrap();
    }
    let out = session.traverse().unwrap();
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    assert_eq!(out, clean_engine.run(Task::Sort).unwrap());
}

#[test]
fn transient_write_faults_are_absorbed_and_charged() {
    // Faults within the device's bounded retry budget are invisible to the
    // engine apart from the virtual-time and retry-counter cost.
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session = engine.session(Task::WordCount).unwrap();
    let cap = session.sim_device().capacity();
    for i in 1..8u64 {
        session.sim_device().inject_transient_write_fault(cap / 8 * i, 2);
    }
    let out = session.traverse().unwrap();
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    assert_eq!(out, clean_engine.run(Task::WordCount).unwrap());
    let stats = session.sim_device().stats();
    assert!(stats.media_retries > 0, "at least one injected fault must have been hit");
}

#[test]
fn retrying_engine_matches_run_when_healthy() {
    // A retry policy must be a pure superset of the default on a healthy
    // device: same output, and a report is produced.
    let comp = corpus();
    let mut a = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut b = Engine::builder(comp.clone())
        .config(EngineConfig::ntadoc())
        .retry(RetryPolicy::MediaRetries(3))
        .build()
        .unwrap();
    let clean = a.run(Task::WordCount).unwrap();
    let resilient = b.run(Task::WordCount).unwrap();
    assert_eq!(clean, resilient);
    assert!(b.last_report.is_some());
}

#[test]
fn a_write_fault_past_the_device_budget_is_retried_by_the_engine() {
    // Under operation-level persistence the traversal writes undo-log
    // entries through the fallible path. The log's first line also holds
    // its header, which opening a transaction writes infallibly, so the
    // fault goes on the line after it, which only entries reach. Five
    // failures are more than the device's per-write budget of three: the
    // first attempt fails with a media error, and the retry's write heals
    // the line.
    let comp = corpus();
    let query = Query::new(TenantId::default(), Task::WordCount);
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc_oplevel()).build().unwrap();
    let clean = clean_engine.run(Task::WordCount).unwrap();
    let engine = Engine::builder(comp)
        .config(EngineConfig::ntadoc_oplevel())
        .retry(RetryPolicy::MediaRetries(3))
        .build()
        .unwrap();
    let pool = std::env::temp_dir().join(format!("ntadoc-retry-{}.ntdp", std::process::id()));
    let _ = std::fs::remove_file(&pool);
    let mut session = engine.open_pool(&pool, Task::WordCount).unwrap();
    let dev = session.sim_device().clone();
    let log_base = session.pool_file().unwrap().layout().log_base();
    dev.inject_transient_write_fault(log_base + dev.profile().line_size as u64, 5);
    let out = session.run_query(&query);
    let _ = std::fs::remove_file(&pool);
    assert_eq!(out.unwrap().output(), &clean);
    let attempts = session.report().metric_u64(METRIC_MEDIA_RETRIES).unwrap_or(0);
    assert!(attempts >= 1, "the first attempt must have failed: {attempts} retries");
}

#[test]
fn a_read_fault_on_a_read_only_line_exhausts_the_retries() {
    // Init lays the word-list caches out last, so the last byte it
    // allocates (the device peak) sits in a word list. A bottom-up term
    // vector reads that list through the fallible path and never writes
    // it: the fault outlives every phase re-run.
    const RETRIES: u32 = 2;
    let cfg = EngineConfig { traversal: Traversal::BottomUp, ..EngineConfig::ntadoc() };
    let engine = Engine::builder(corpus())
        .config(cfg)
        .retry(RetryPolicy::MediaRetries(RETRIES))
        .build()
        .unwrap();
    let mut session = engine.session(Task::TermVector).unwrap();
    let peak = session.report().metric_f64(METRIC_DEVICE_PEAK).unwrap() as u64;
    session.sim_device().inject_read_fault(peak - 1);
    let out = session.run_query(&Query::new(TenantId::default(), Task::TermVector));
    assert!(matches!(out, Err(PmemError::MediaError { .. })), "{out:?}");
    let attempts = session.report().metric_u64(METRIC_MEDIA_RETRIES);
    assert_eq!(attempts, Some(u64::from(RETRIES)), "every retry ran and failed");
}

#[test]
fn uncorrectable_faults_recover_by_phase_rerun_or_fail_cleanly() {
    // An uncorrectable read fault heals when the line is rewritten, so the
    // engine-level fallback (recover + phase re-run) must converge when the
    // fault sits in a region the traversal rewrites.
    let comp = corpus();
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let clean = clean_engine.run(Task::WordCount).unwrap();

    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session = engine.session(Task::WordCount).unwrap();
    // Sprinkle read faults over the upper (result/scratch) half; lines the
    // traversal never rewrites simply keep their fault and are not read.
    let cap = session.sim_device().capacity();
    for i in 0..16u64 {
        session.sim_device().inject_read_fault(cap / 2 + (cap / 32) * i);
    }
    let mut out = session.traverse();
    let mut attempts = 0;
    while out.is_err() && attempts < 8 {
        session.recover().unwrap();
        out = session.traverse();
        attempts += 1;
    }
    session.sim_device().clear_faults();
    match out {
        Ok(out) => assert_eq!(out, clean),
        // A fault may sit on a line the traversal reads but never
        // rewrites (e.g. scratch metadata); then the error must be a
        // clean MediaError, never a panic or a wrong result.
        Err(e) => assert!(matches!(e, PmemError::MediaError { .. }), "{e}"),
    }
}

#[test]
fn dram_engine_does_not_survive_crash() {
    // Sanity check of the volatility model: DRAM loses everything, so the
    // traversal after a crash must fail or produce garbage — here we just
    // assert the device contents were wiped.
    use ntadoc_repro::{DeviceProfile, SimDevice};
    let dev = SimDevice::new(DeviceProfile::dram(), 4096);
    dev.write_u64(0, 42);
    dev.persist(0, 8);
    dev.crash();
    assert_eq!(dev.read_u64(0), 0);
}
