//! Fault-injection recovery: crash the device at arbitrary points *inside*
//! the traversal phase (not just at phase boundaries) and verify that
//! phase-level recovery — re-running the traversal against the persisted
//! init-phase checkpoint — always converges to the crash-free result.

use ntadoc_repro::{compress_corpus, CrashPoint, Engine, EngineConfig, Task, TokenizerConfig};

fn corpus() -> ntadoc_grammar::Compressed {
    let files = vec![
        ("a".to_string(), "red green blue red green yellow red green blue cyan".repeat(30)),
        ("b".to_string(), "red green blue magenta red green".repeat(30)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

#[test]
fn crash_at_many_points_inside_traversal_recovers() {
    let comp = corpus();
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let clean = clean_engine.run_rows(Task::WordCount).unwrap();

    for &trip in &[1u64, 5, 23, 100, 400, 1500] {
        let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        let mut session = engine.session(Task::WordCount).unwrap();
        // The Nth write during traversal crashes the device: a torn power
        // failure at the fault point, where the interrupted store lands as
        // an arbitrary subset of its 8-byte words.
        let crash = CrashPoint::Write(trip);
        match session.crash_at(crash, trip.wrapping_mul(0x9E37_79B9)) {
            Ok(Some(out)) => {
                // Fault landed after traversal finished writing; the
                // completed run must already be correct.
                assert_eq!(out, clean, "trip={trip}: completed run differs");
                continue;
            }
            Ok(None) => {}
            Err(e) => panic!("trip={trip}: unexpected engine error {e}"),
        }
        // §IV-E recovery: the init checkpoint survives, the traversal
        // re-runs.
        session.recover().unwrap();
        let recovered = session.traverse_rows().unwrap();
        assert_eq!(recovered, clean, "trip={trip}: recovered result differs");
    }
}

#[test]
fn crash_inside_file_task_traversal_recovers() {
    let comp = corpus();
    let mut clean_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let clean = clean_engine.run_rows(Task::InvertedIndex).unwrap();

    for &trip in &[3u64, 50, 700] {
        let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        let mut session = engine.session(Task::InvertedIndex).unwrap();
        let crashed = session.crash_at(CrashPoint::Write(trip), trip);
        if let Some(out) = crashed.unwrap_or_else(|e| panic!("trip={trip}: {e}")) {
            assert_eq!(out, clean);
            continue;
        }
        session.recover().unwrap();
        assert_eq!(session.traverse_rows().unwrap(), clean, "trip={trip}");
    }
}

#[test]
fn wear_tracking_reports_hotspots() {
    use ntadoc_repro::{DeviceProfile, SimDevice};
    let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16);
    dev.enable_wear_tracking();
    // Hammer one line, touch a few others once.
    for _ in 0..50 {
        dev.write_u64(0, 7);
    }
    for i in 1..5u64 {
        dev.write_u64(i * 4096, 1);
    }
    let (max_wear, lines) = dev.wear_stats();
    assert_eq!(max_wear, 50);
    assert_eq!(lines, 5);
    // The top-N breakdown names the hammered line first and ranks the rest.
    let top = dev.wear_top(3);
    assert_eq!(top[0], (0, 50));
    assert_eq!(top.len(), 3);
    assert!(top[1].1 <= top[0].1 && top[2].1 <= top[1].1);
}

#[test]
fn wear_top_surfaces_in_run_reports() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session = engine.session(Task::WordCount).unwrap();
    session.sim_device().enable_wear_tracking();
    session.traverse().unwrap();
    let report = session.report();
    assert!(!report.wear_top.is_empty(), "wear breakdown must reach the report");
    assert!(report.wear_top.len() <= 8);
    // Hottest-first ordering.
    for pair in report.wear_top.windows(2) {
        assert!(pair[0].1 >= pair[1].1);
    }
    // Without tracking the breakdown stays empty.
    let engine2 = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut session2 = engine2.session(Task::WordCount).unwrap();
    session2.traverse().unwrap();
    assert!(session2.report().wear_top.is_empty());
}
