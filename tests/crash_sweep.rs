//! Exhaustive crash-point sweep (ALICE-style crash-state enumeration):
//! crash at *every* persist point (flush or fence) a traversal issues, and
//! at random raw-write points that also tear the interrupted store, under
//! the torn-write model; recover; and assert the result converges to the
//! crash-free run, for both §IV-E persistence strategies. The sweeps are
//! `ntadoc::sweep::CrashSweep`; every crash goes through `Session::crash_at`.
//!
//! `NTADOC_SWEEP_SEEDS` (default `1,7,42`) and
//! `NTADOC_SWEEP_BACKEND=sim|file|mmap|all` are read by `SweepKnobs`. A
//! chosen backend is swept at every persist point; left unset, all three
//! are, and the file and mmap passes sample every 8th point.

use std::path::{Path, PathBuf};

use ntadoc_repro::sweep::{CrashSweep, Stride, SweepBackend, SweepKnobs};
use ntadoc_repro::{
    compress_corpus, fsck_pool, ingest_corpus, sweep_ctx, Compressed, CrashPoint, Engine,
    EngineConfig, FsckReport, IngestOptions, Session, Task, TaskRows, TokenizerConfig,
};

/// Fresh per-process pool path; callers remove it when done.
fn tmp_pool(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ntadoc-sweep-{}-{name}.ntdp", std::process::id()))
}

fn corpus() -> Compressed {
    let files = vec![
        ("a".to_string(), "one two three one two four five one".repeat(20)),
        ("b".to_string(), "one two three six seven two".repeat(20)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

/// Each persistence strategy, labelled `{prefix}-phase` or `{prefix}-op`,
/// with the rows and persist points of a crash-free run on the simulator.
fn strategies(comp: &Compressed, prefix: &str) -> [(EngineConfig, String, TaskRows, u64); 2] {
    let levels = [(EngineConfig::ntadoc(), "phase"), (EngineConfig::ntadoc_oplevel(), "op")];
    levels.map(|(cfg, level)| {
        let (_, mut session) = SweepBackend::Sim.open(comp, &cfg, Path::new("")).unwrap();
        let before = session.sim_device().stats();
        let rows = session.traverse_rows().unwrap();
        let total = session.sim_device().stats().since(&before).persist_points();
        (cfg, format!("{prefix}-{level}"), rows, total)
    })
}

/// fsck the pool a crashed session left at `pool`, then reopen it from
/// nothing but those bytes and check the re-run converges to `clean`.
fn reopen_converges(engine: &Engine, pool: &Path, clean: &TaskRows, ctx: &str) -> FsckReport {
    let fsck = fsck_pool(pool).unwrap_or_else(|e| panic!("{ctx}: fsck rejected: {e}"));
    assert!(fsck.recoverable(), "{ctx}: left an unrecoverable pool");
    let mut reopened = engine
        .open_pool(pool, Task::WordCount)
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let rows = reopened.traverse_rows().unwrap_or_else(|e| panic!("{ctx}: re-run failed: {e}"));
    assert_eq!(rows, *clean, "{ctx}: reopened pool diverged");
    fsck
}

/// Run `sweep` and assert that every point converged and that a crash
/// fired under every seed.
fn assert_sweep_converges(sweep: CrashSweep) {
    let report = sweep.run().unwrap_or_else(|e| panic!("{e}"));
    for r in &report.records {
        let (CrashPoint::Persist(n) | CrashPoint::Write(n)) = r.point;
        let ctx = sweep_ctx(&format!("{} {:?}", sweep.label, r.point), r.seed, n);
        assert!(r.converged, "{ctx}: diverged on {:?} (fired: {})", sweep.backend, r.fired);
    }
    for &seed in sweep.seeds {
        let fired = report.records.iter().any(|r| r.seed == seed && r.fired);
        assert!(fired, "{} [{:?}]: seed {seed}: no crash fired", sweep.label, sweep.backend);
    }
}

/// Every persist point under one persistence strategy, on every backend
/// `NTADOC_SWEEP_BACKEND` selects, recovering in place.
fn sweep_strategy_over(comp: &Compressed, cfg: &EngineConfig, label: &str) {
    let knobs = SweepKnobs::from_env().unwrap();
    let pool_dir = tmp_pool(label).with_extension("d");
    std::fs::create_dir_all(&pool_dir).unwrap();
    for backend in knobs.backends {
        // Durable sessions replay the whole trace per point against a real
        // file; with no backend chosen, sample those passes.
        let every = if backend != SweepBackend::Sim && !knobs.backend_chosen { 8 } else { 1 };
        assert_sweep_converges(CrashSweep {
            label,
            comp,
            cfg,
            backend,
            pool_dir: &pool_dir,
            seeds: &knobs.seeds,
            persist: Some(Stride::Every(every)),
            mid_write: 0,
            reopen: false,
        });
    }
    let _ = std::fs::remove_dir_all(&pool_dir);
}

#[test]
fn every_persist_point_converges_phase_level() {
    sweep_strategy_over(&corpus(), &EngineConfig::ntadoc(), "phase-level");
}

#[test]
fn every_persist_point_converges_operation_level() {
    sweep_strategy_over(&corpus(), &EngineConfig::ntadoc_oplevel(), "operation-level");
}

#[test]
fn every_persist_point_converges_operation_level_with_growable_tables() {
    // presize=false starts every counter at capacity 16, and this corpus
    // has 20 distinct words — past the 7/8 load factor — so the result
    // table must grow *while an operation-level undo-log transaction is
    // open*. The grow is refused mid-transaction (GrowDuringTransaction)
    // and retried as commit → grow → begin, and every persist point that
    // ordering introduces must still converge after a torn-write crash.
    let files = vec![
        (
            "a".to_string(),
            "alpha bravo charlie delta echo foxtrot golf hotel india juliett alpha".repeat(12),
        ),
        (
            "b".to_string(),
            "kilo lima mike november oscar papa quebec romeo sierra tango kilo echo".repeat(12),
        ),
    ];
    let comp = compress_corpus(&files, &TokenizerConfig::default());
    let cfg = EngineConfig { presize: false, ..EngineConfig::ntadoc_oplevel() };
    sweep_strategy_over(&comp, &cfg, "operation-level-growable");
}

#[test]
fn every_persist_point_converges_after_an_append() {
    // An appended grammar carries structure the from-scratch compressor
    // never produces — a spliced root, seam-deduplicated rules, late-
    // interned dictionary entries — and its pools publish the moved
    // snapshot fingerprint. Crash states over such a pool must converge
    // at every persist point, on whichever backend the matrix selects,
    // under both persistence strategies.
    let base = vec![
        ("a".to_string(), "one two three one two four five one".repeat(12)),
        ("b".to_string(), "one two three six seven two".repeat(12)),
    ];
    let (comp, _) = ingest_corpus(&base, &IngestOptions::default());
    let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    engine
        .append_files(vec![("c".to_string(), "eight nine one seven two eight".repeat(12))])
        .unwrap();
    let comp = (**engine.compressed()).clone();
    sweep_strategy_over(&comp, &EngineConfig::ntadoc(), "append-phase-level");
    sweep_strategy_over(&comp, &EngineConfig::ntadoc_oplevel(), "append-operation-level");
}

#[test]
fn random_mid_write_crash_points_converge_with_torn_stores() {
    // Persist points never interrupt a store; raw write points do, and the
    // torn model then applies an arbitrary subset of the store's 8-byte
    // words. Sample write points across the whole traversal.
    let (comp, seeds) = (corpus(), SweepKnobs::from_env().unwrap().seeds);
    for (cfg, label, _, _) in strategies(&comp, "mid-write") {
        assert_sweep_converges(CrashSweep {
            label: &label,
            comp: &comp,
            cfg: &cfg,
            backend: SweepBackend::Sim,
            pool_dir: &std::env::temp_dir(),
            seeds: &seeds,
            persist: None,
            mid_write: 40,
            reopen: false,
        });
    }
}

#[test]
fn repeated_crashes_at_the_same_point_still_converge() {
    // Recovery must itself be crash-safe: crash at point k, recover,
    // crash at point k again during the re-run (different torn seed),
    // recover again, and still converge. This catches recovery paths
    // that only work from a "clean crash" state.
    let comp = corpus();
    for (cfg, _, clean, total) in strategies(&comp, "repeated") {
        // A handful of points spread across the stream is enough here; the
        // exhaustive single-crash sweep above covers every point.
        for point in [0, total / 4, total / 2, total - 1] {
            let (_, mut session) = SweepBackend::Sim.open(&comp, &cfg, Path::new("")).unwrap();
            let mut crashes = 0u32;
            for round in 0..2u64 {
                let torn_seed = 0xBAD5EED ^ point ^ (round << 32);
                let ctx = sweep_ctx("repeated-crash", torn_seed, point);
                match session.crash_at(CrashPoint::Persist(point), torn_seed) {
                    Ok(Some(_)) => break, // finished before the point this round
                    Ok(None) => crashes += 1,
                    Err(e) => panic!("{ctx} round {round}: {e}"),
                }
                session.recover().unwrap_or_else(|e| panic!("{ctx} round {round}: {e}"));
            }
            assert!(crashes > 0, "point {point}: no crash fired");
            assert_eq!(
                session.traverse_rows().unwrap(),
                clean,
                "point {point}: diverged after {crashes} crash(es)"
            );
        }
    }
}

/// Whether all three backends saw the same.
fn same<T: PartialEq>(xs: &[T; 3]) -> bool {
    xs[0] == xs[1] && xs[1] == xs[2]
}

/// The cross-backend identity check the durable backends are designed
/// around: the same logical trace on the in-memory simulator, on a
/// file-backed pool, and on a memory-mapped pool must crash identically
/// (same trip firing), tear identically (the durable post-crash pools are
/// byte-identical, and `crash_at` checks the *on-disk* bytes match them),
/// recover to the same output, and charge the same virtual time at every
/// stage. A final reopen from nothing but the torn file must also
/// converge, on both durable backends.
#[test]
fn sim_file_and_mmap_backends_agree_at_every_crash_point() {
    use SweepBackend::{File, Mmap, Sim};
    let comp = corpus();
    let seed = SweepKnobs::from_env().unwrap().seeds[0];
    for (cfg, label, clean, total) in strategies(&comp, "xcheck") {
        assert!(total > 0, "{label}: traversal must issue persist points");
        let (file_pool, mmap_pool) =
            (tmp_pool(&format!("{label}-file")), tmp_pool(&format!("{label}-mmap")));
        let targets = [(Sim, Path::new("")), (File, &file_pool), (Mmap, &mmap_pool)];
        // A handful of points spread across the stream; the exhaustive
        // per-backend sweeps above cover every point.
        for point in [0, total / 3, total / 2, total - 1] {
            let ctx = sweep_ctx(&label, seed, point);
            let crash = CrashPoint::Persist(point);
            let mut sessions =
                targets.map(|(backend, pool)| backend.open(&comp, &cfg, pool).unwrap().1);
            let fired = sessions.each_mut().map(|s| {
                s.crash_at(crash, seed ^ point).unwrap_or_else(|e| panic!("{ctx}: {e}")).is_none()
            });
            assert!(same(&fired), "{ctx}: backends disagree on whether a crash fired ({fired:?})");
            let clock = |s: &Session| s.sim_device().stats().virtual_ns;
            let ns = sessions.each_ref().map(clock);
            assert!(same(&ns), "{ctx}: virtual clocks diverge ({ns:?})");
            if !fired[0] {
                continue;
            }
            // Identical torn decisions → byte-identical durable pools.
            let caps = sessions.each_ref().map(|s| s.sim_device().capacity());
            assert!(same(&caps), "{ctx}: pool capacities differ ({caps:?})");
            for at in (0..caps[0]).step_by(1 << 20) {
                let len = (1 << 20).min(caps[0] - at) as usize;
                let bytes = sessions.each_ref().map(|s| s.sim_device().peek(at, len));
                assert!(same(&bytes), "{ctx}: torn pools differ in the MiB at {at:#x}");
            }

            // Identical recovery outcome and cost.
            for (s, (backend, _)) in sessions.iter_mut().zip(targets) {
                s.recover().unwrap_or_else(|e| panic!("{ctx}: {backend:?} recovery failed: {e}"));
                let rows = s.traverse_rows().unwrap_or_else(|e| panic!("{ctx}: {backend:?}: {e}"));
                assert_eq!(rows, clean, "{ctx}: {backend:?} recovery diverged");
            }
            let ns = sessions.each_ref().map(clock);
            assert!(same(&ns), "{ctx}: recovery clocks diverge ({ns:?})");
            drop(sessions);

            // Recovery from nothing but the torn on-disk bytes: recreate
            // the crash state, drop the session, reopen, and converge —
            // on both durable backends.
            for (backend, pool) in &targets[1..] {
                let ctx = format!("{ctx} [{backend:?}]");
                let (engine, mut doomed) = backend.open(&comp, &cfg, pool).unwrap();
                let refired = doomed.crash_at(crash, seed ^ point);
                assert!(refired.unwrap().is_none(), "{ctx}: crash did not refire");
                drop(doomed);
                let mut reopened = engine.open_pool(pool, Task::WordCount).unwrap();
                assert_eq!(
                    reopened.traverse_rows().unwrap(),
                    clean,
                    "{ctx}: reopened pool diverged"
                );
            }
        }
        let _ = std::fs::remove_file(&file_pool);
        let _ = std::fs::remove_file(&mmap_pool);
    }
}

/// Host-crash mode: on top of a torn process crash, every write that was
/// not fsync'd by a seal point is at risk — a seeded coin flip loses or
/// keeps each one, modelling the page cache dying with the host. Reopen
/// from the surviving bytes alone must still converge, under both
/// persistence strategies, on both durable backends. This is the sweep
/// that fails pre-fix when seal points ride on unsynced plain fences.
#[test]
fn host_crash_at_sampled_points_converges_on_both_durable_backends() {
    let comp = corpus();
    let seed = SweepKnobs::from_env().unwrap().seeds[0];
    for (cfg, label, clean, total) in strategies(&comp, "host-crash") {
        for backend in [SweepBackend::File, SweepBackend::Mmap] {
            let pool = tmp_pool(&format!("{label}-{backend:?}"));
            let mut fired = 0u32;
            for point in [0, total / 3, total / 2, total - 1] {
                let ctx = format!("{} [{backend:?}]", sweep_ctx(&label, seed, point));
                let (engine, mut session) = backend.open(&comp, &cfg, &pool).unwrap();
                match session.crash_at(CrashPoint::Persist(point), seed ^ point) {
                    Ok(Some(_)) => continue,
                    Ok(None) => fired += 1,
                    Err(e) => panic!("{ctx}: {e}"),
                }
                // The host dies too: unsynced file ranges revert to their
                // last-synced bytes (seeded coin flip per range).
                let report = session.pool_file().expect("durable session").host_crash(seed ^ point);
                drop(session);
                let ctx = format!("{ctx}: host crash kept {}, lost {}", report.kept, report.lost);
                reopen_converges(&engine, &pool, &clean, &ctx);
                let _ = std::fs::remove_file(&pool);
            }
            assert!(fired > 0, "{label} [{backend:?}]: no crash fired");
        }
    }
}

/// The acknowledged-durability contract: once a run completes (its
/// `publish_snapshot` seal is the acknowledgment), even a host crash that
/// loses *every* non-fsync'd write must preserve the published snapshot
/// and converge on reopen — zero acknowledged-but-lost seal points.
#[test]
fn acknowledged_runs_survive_a_total_host_crash() {
    let comp = corpus();
    for (cfg, label, clean, _) in strategies(&comp, "ack") {
        for backend in [SweepBackend::File, SweepBackend::Mmap] {
            let ctx = format!("{label} [{backend:?}]");
            let pool = tmp_pool(&format!("{label}-{backend:?}"));
            let (engine, mut session) = backend.open(&comp, &cfg, &pool).unwrap();
            assert_eq!(session.traverse_rows().unwrap(), clean);
            let published = session.sim_device().published_snapshot();
            assert_ne!(published, 0, "{ctx}: a completed run must publish its snapshot");
            // Worst-case host crash: every unsynced write is lost.
            session.pool_file().expect("durable session").host_crash_lose_all();
            drop(session);
            let fsck = reopen_converges(&engine, &pool, &clean, &ctx);
            assert_eq!(fsck.header.snapshot, published, "{ctx}: the acknowledged publish was lost");
            let _ = std::fs::remove_file(&pool);
        }
    }
}
