//! File-backed pool lifecycle: create, clean shutdown, reopen, torn-commit
//! recovery, header validation, truncation robustness, and `fsck`.
//!
//! Everything here goes through `Engine::open_pool`, so the pool files on
//! disk are the real product of the engine's init/traversal path — the
//! tests then corrupt, truncate, or tear those files and assert the
//! reopen path behaves exactly as §IV-E recovery promises.

use std::path::PathBuf;

use ntadoc_repro::{
    compress_corpus, fsck_pool, Compressed, CrashPoint, DeviceProfile, Engine, EngineConfig,
    PmemError, PoolBackend, PoolHeader, PoolLayout, Task, TokenizerConfig, POOL_DATA_AT,
};

fn corpus() -> Compressed {
    let files = vec![
        ("a".to_string(), "one two three one two four five one".repeat(15)),
        ("b".to_string(), "one two three six seven two".repeat(15)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

fn tmp_pool(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ntadoc-poolfile-{}-{name}.ntdp", std::process::id()))
}

fn engine(cfg: EngineConfig) -> Engine {
    Engine::builder(corpus()).config(cfg).build().unwrap()
}

fn engine_on(cfg: EngineConfig, backend: PoolBackend) -> Engine {
    Engine::builder(corpus()).config(cfg).pool_backend(backend).build().unwrap()
}

#[test]
fn create_run_and_reopen_after_clean_shutdown_agree() {
    let pool = tmp_pool("clean");
    let _ = std::fs::remove_file(&pool);
    let eng = engine(EngineConfig::ntadoc());

    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    assert!(session.pool_file().is_some(), "open_pool must attach a file backend");
    let first = session.traverse().unwrap();
    let first_ns = session.sim_device().stats().virtual_ns;
    drop(session);
    assert!(pool.exists(), "the pool file must persist past the session");

    // Reopen: header is validated, the durable image loads, init re-runs
    // deterministically — same output, same virtual cost as a fresh run.
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    let second = session.traverse().unwrap();
    assert_eq!(first, second, "reopened pool diverged from the original run");
    assert_eq!(
        first_ns,
        session.sim_device().stats().virtual_ns,
        "reopen changed the virtual cost of an identical run"
    );
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn in_memory_sessions_have_no_file_backend() {
    let eng = engine(EngineConfig::ntadoc());
    let session = eng.session(Task::WordCount).unwrap();
    assert!(session.pool_file().is_none());
}

#[test]
fn open_pool_rejects_volatile_profiles() {
    let pool = tmp_pool("volatile");
    let _ = std::fs::remove_file(&pool);
    let eng = Engine::builder(corpus())
        .config(EngineConfig::ntadoc())
        .profile(DeviceProfile::dram())
        .build()
        .unwrap();
    match eng.open_pool(&pool, Task::WordCount) {
        Err(PmemError::Unsupported(_)) => {}
        Err(e) => panic!("expected Unsupported for a volatile profile, got {e}"),
        Ok(_) => panic!("a volatile profile must not open a file-backed pool"),
    }
    assert!(!pool.exists(), "a rejected open must not leave a file behind");
}

#[test]
fn reopen_after_torn_commit_rolls_back_and_converges() {
    let pool = tmp_pool("torn");
    let _ = std::fs::remove_file(&pool);
    let eng = engine(EngineConfig::ntadoc_oplevel());
    let mut clean_engine = engine(EngineConfig::ntadoc_oplevel());
    let clean = clean_engine.run_rows(Task::WordCount).unwrap();

    // Crash mid-traversal with an open undo-log transaction, tear the
    // on-disk bytes (checked against the twin), and abandon the session
    // entirely.
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    let crashed = session.crash_at(CrashPoint::Persist(40), 0xDEADD0C).unwrap();
    assert!(crashed.is_none(), "the armed crash must fire");
    drop(session);
    drop(eng);

    // fsck sees the open transaction before recovery touches the file.
    let report = fsck_pool(&pool).unwrap();
    assert!(report.recoverable(), "a torn pool must still be recoverable");

    // A brand-new engine reopens from nothing but the torn file: the
    // undo log rolls the open transaction back, init re-runs, and the
    // output converges to the crash-free result.
    let eng = engine(EngineConfig::ntadoc_oplevel());
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    assert_eq!(session.traverse_rows().unwrap(), clean, "torn-commit recovery diverged");

    // After the clean re-run the log is quiescent again.
    drop(session);
    let report = fsck_pool(&pool).unwrap();
    assert!(!report.log.needs_rollback(), "recovered pool still reports an open transaction");
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn corrupt_headers_are_rejected_not_misread() {
    let pool = tmp_pool("header");
    let _ = std::fs::remove_file(&pool);
    drop(engine(EngineConfig::ntadoc()).open_pool(&pool, Task::WordCount).unwrap());
    let clean = std::fs::read(&pool).unwrap();
    let header = fsck_pool(&pool).unwrap().header;
    let good = header.layout;

    // One flipped byte inside the sealed region, then two headers whose
    // CRC is *valid*: regions that wrap around to "consistent", and a
    // capacity no allocator could back.
    let mut flipped = header.to_bytes();
    flipped[12] ^= 0xFF;
    let sealed = |layout| PoolHeader { layout, ..header }.to_bytes();
    let cases = [
        ("flipped byte", flipped),
        (
            "wrapping regions",
            sealed(PoolLayout {
                main_len: u64::MAX,
                scratch_len: 1,
                log_len: good.capacity,
                ..good
            }),
        ),
        (
            "absurd capacity",
            sealed(PoolLayout {
                capacity: 1 << 60,
                main_len: (1 << 60) - good.scratch_len - good.log_len,
                ..good
            }),
        ),
    ];
    for (what, head) in cases {
        let mut bytes = clean.clone();
        bytes[..head.len()].copy_from_slice(&head);
        std::fs::write(&pool, &bytes).unwrap();
        assert!(
            matches!(fsck_pool(&pool), Err(PmemError::CorruptImage(_))),
            "{what}: fsck must reject the header"
        );
        for backend in [PoolBackend::File, PoolBackend::Mmap] {
            let opened =
                engine_on(EngineConfig::ntadoc(), backend).open_pool(&pool, Task::WordCount);
            assert!(
                matches!(opened, Err(PmemError::CorruptImage(_))),
                "{what}: the {} backend must not open the pool",
                backend.name()
            );
        }
        assert_eq!(std::fs::read(&pool).unwrap(), bytes, "{what}: a refused open wrote the file");
    }
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn truncated_pools_zero_extend_and_fsck_reports_it() {
    let pool = tmp_pool("trunc");
    let _ = std::fs::remove_file(&pool);
    let eng = engine(EngineConfig::ntadoc());
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    let out = session.traverse().unwrap();
    drop(session);

    // Chop the file mid-data (simulating an interrupted copy or a hole
    // at the tail); the header stays intact.
    let full = std::fs::metadata(&pool).unwrap().len();
    let cut = POOL_DATA_AT + (full - POOL_DATA_AT) / 3;
    let f = std::fs::OpenOptions::new().write(true).open(&pool).unwrap();
    f.set_len(cut).unwrap();
    drop(f);

    let report = fsck_pool(&pool).unwrap();
    assert!(report.truncated, "fsck must flag the short file");
    assert_eq!(report.file_len, cut);

    // Reopen zero-extends the missing tail and the deterministic init
    // rebuilds everything the truncation destroyed.
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    assert_eq!(session.traverse().unwrap(), out, "truncated pool diverged after reopen");
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn mmap_backend_pool_lifecycle_matches_file_backend() {
    // The memory-mapped backend must be observationally identical to the
    // write()-based one: same output, same virtual cost, same on-disk
    // verification, across create → run → reopen.
    let pool_f = tmp_pool("mmap-vs-file-f");
    let pool_m = tmp_pool("mmap-vs-file-m");
    for p in [&pool_f, &pool_m] {
        let _ = std::fs::remove_file(p);
    }
    let eng_f = engine_on(EngineConfig::ntadoc(), PoolBackend::File);
    let eng_m = engine_on(EngineConfig::ntadoc(), PoolBackend::Mmap);

    let mut sf = eng_f.open_pool(&pool_f, Task::WordCount).unwrap();
    let mut sm = eng_m.open_pool(&pool_m, Task::WordCount).unwrap();
    let out_f = sf.traverse().unwrap();
    let out_m = sm.traverse().unwrap();
    assert_eq!(out_f, out_m, "mmap backend diverged from file backend");
    assert_eq!(
        sf.sim_device().stats().virtual_ns,
        sm.sim_device().stats().virtual_ns,
        "mmap backend must charge the same virtual time"
    );
    // (No byte-verify here: mid-session, lines written but never
    // persisted are still volatile on the twin, so file-vs-twin
    // comparison is only meaningful at crash/recovery points — the
    // crash sweeps assert it there. What must hold at any point is that
    // the two backends mirror identically, checked below.)
    drop(sm);
    drop(sf);

    // The two pool files are byte-identical and both fsck clean.
    assert_eq!(
        std::fs::read(&pool_f).unwrap(),
        std::fs::read(&pool_m).unwrap(),
        "the two backends must write byte-identical pool files"
    );
    assert!(fsck_pool(&pool_m).unwrap().recoverable());

    // Reopen on the mmap backend converges like the file backend does.
    let mut sm = eng_m.open_pool(&pool_m, Task::WordCount).unwrap();
    assert_eq!(sm.traverse().unwrap(), out_f, "mmap reopen diverged");
    for p in [&pool_f, &pool_m] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn pool_files_are_interchangeable_between_backends() {
    // A pool written by one backend is just a file: the other backend
    // must open it and produce the same answers.
    let pool = tmp_pool("interop");
    for (create, reopen) in
        [(PoolBackend::File, PoolBackend::Mmap), (PoolBackend::Mmap, PoolBackend::File)]
    {
        let _ = std::fs::remove_file(&pool);
        let eng = engine_on(EngineConfig::ntadoc(), create);
        let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
        let out = session.traverse().unwrap();
        drop(session);
        drop(eng);

        let eng = engine_on(EngineConfig::ntadoc(), reopen);
        let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
        assert_eq!(
            session.traverse().unwrap(),
            out,
            "pool created on {create:?} diverged when reopened on {reopen:?}"
        );
    }
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn verifying_while_another_thread_fences_does_not_deadlock() {
    // The mirror hooks take the twin's state lock, then the file's; a
    // verify that held the file's lock while reading the twin would wait
    // on a fencing thread forever. (What a mid-fence verify *returns* is
    // not pinned: it is only meaningful at durability points.)
    for backend in [PoolBackend::File, PoolBackend::Mmap] {
        let pool = tmp_pool(&format!("lockorder-{}", backend.name()));
        let layout =
            PoolLayout { capacity: 1 << 16, main_len: 1 << 16, scratch_len: 0, log_len: 0 };
        let dev = backend.create(&pool, DeviceProfile::nvm_optane(), layout, 0).unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let verifier = dev.clone();
        std::thread::spawn(move || {
            let fencer = verifier.clone();
            let fencing = std::thread::spawn(move || {
                for i in 0..4000u64 {
                    fencer.twin().write_u64((i % 64) * 256, i);
                    fencer.twin().persist((i % 64) * 256, 8);
                }
            });
            while !fencing.is_finished() {
                let _ = verifier.verify_file_matches_device();
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{backend:?}: verify and fence deadlocked"));
        dev.verify_file_matches_device().unwrap();
        let _ = std::fs::remove_file(&pool);
    }
}

#[test]
fn host_crash_after_acknowledged_run_preserves_the_published_snapshot() {
    // The durability contract behind satellite 1: the engine acknowledges
    // a run by sealing `publish_snapshot`, so even if the host dies right
    // after — losing every write the page cache still held — the
    // published snapshot must be on disk and the reopen must converge.
    for backend in [PoolBackend::File, PoolBackend::Mmap] {
        for (cfg, label) in
            [(EngineConfig::ntadoc(), "phase"), (EngineConfig::ntadoc_oplevel(), "op")]
        {
            let pool = tmp_pool(&format!("hostcrash-ack-{label}-{backend:?}"));
            let _ = std::fs::remove_file(&pool);
            let eng = engine_on(cfg.clone(), backend);
            let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
            let out = session.traverse().unwrap();
            let published = session.sim_device().published_snapshot();
            assert_ne!(published, 0, "{label} [{backend:?}]: run must publish a snapshot");

            // Worst case: *every* unsynced write dies with the host.
            let report = session.pool_file().unwrap().host_crash_lose_all();
            drop(session);

            let fsck = fsck_pool(&pool)
                .unwrap_or_else(|e| panic!("{label} [{backend:?}]: fsck after host crash: {e}"));
            assert_eq!(
                fsck.header.snapshot, published,
                "{label} [{backend:?}]: acknowledged publish lost (crash lost {} ranges)",
                report.lost
            );
            assert!(fsck.recoverable());

            let eng = engine_on(cfg.clone(), backend);
            let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
            assert_eq!(
                session.traverse().unwrap(),
                out,
                "{label} [{backend:?}]: acknowledged run diverged after host crash"
            );
            let _ = std::fs::remove_file(&pool);
        }
    }
}

#[test]
fn host_crash_mid_run_with_partial_loss_still_recovers() {
    // Process crash + torn lines + a seeded partial loss of unsynced file
    // ranges: the sealed undo log survives by construction, so the reopen
    // path must roll back and converge on both durable backends.
    let seed: u64 = 0x5EA1;
    for backend in [PoolBackend::File, PoolBackend::Mmap] {
        let pool = tmp_pool(&format!("hostcrash-mid-{backend:?}"));
        let _ = std::fs::remove_file(&pool);
        let mut clean_engine = engine(EngineConfig::ntadoc_oplevel());
        let clean = clean_engine.run_rows(Task::WordCount).unwrap();

        let eng = engine_on(EngineConfig::ntadoc_oplevel(), backend);
        let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
        let crashed = session.crash_at(CrashPoint::Persist(40), seed).unwrap();
        assert!(crashed.is_none(), "the armed crash must fire");
        let report = session.pool_file().unwrap().host_crash(seed);
        drop(session);
        drop(eng);

        let fsck = fsck_pool(&pool)
            .unwrap_or_else(|e| panic!("[{backend:?}] fsck after mid-run host crash: {e}"));
        assert!(
            fsck.recoverable(),
            "[{backend:?}] host crash (kept {}, lost {}) left an unrecoverable pool",
            report.kept,
            report.lost
        );

        let eng = engine_on(EngineConfig::ntadoc_oplevel(), backend);
        let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
        assert_eq!(
            session.traverse_rows().unwrap(),
            clean,
            "[{backend:?}] mid-run host crash recovery diverged (kept {}, lost {})",
            report.kept,
            report.lost
        );
        let _ = std::fs::remove_file(&pool);
    }
}

#[test]
fn capacity_doubling_recreates_the_pool_file() {
    // An engine whose first capacity estimate is too small must retry
    // with a bigger file, and the final file's header must carry the
    // capacity that actually fit (not the failed first guess).
    let pool = tmp_pool("doubling");
    let _ = std::fs::remove_file(&pool);
    let eng = engine(EngineConfig::ntadoc());
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    session.traverse().unwrap();
    let file = session.pool_file().unwrap();
    assert_eq!(
        file.header().layout.capacity,
        file.twin().capacity(),
        "header capacity must match the device the session actually ran on"
    );
    assert_eq!(
        std::fs::metadata(&pool).unwrap().len(),
        POOL_DATA_AT + file.header().layout.capacity,
        "file length must cover header + full data region"
    );
    let _ = std::fs::remove_file(&pool);
}
