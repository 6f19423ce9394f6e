//! The streaming-corpus contract: sessions opened before an append keep
//! serving the old snapshot, file pools published under a superseded
//! fingerprint are recreated on open, and misuse is a typed error. That
//! appending gives the same bytes for any worker count and answers like a
//! full rebuild is a matrix route (`tests/common/matrix.rs`; the pinned
//! images are in `ingest_golden.rs`).

mod common;

use common::matrix::Path::Serve;
use common::matrix::{cell, counts_turned, run_cells, Cell, Route};

use ntadoc_repro::{fsck_pool, EngineBuilder, EngineConfig, PmemError, Query, Task, TenantId};

#[test]
fn append_pipeline_is_identical_for_any_worker_count() {
    let plans = [1, 2, 3].map(|seed| Cell { route: Route::Appends(seed), ..cell("24 files") });
    run_cells("append plans", counts_turned(plans));
}

#[test]
fn appended_engines_answer_like_full_rebuilds() {
    let appended = Cell { route: Route::Appends(9), ..cell("awkward words") };
    let asked = [appended.clone(), Cell { path: Serve, ..appended }];
    run_cells("appended", asked.into_iter().flat_map(Cell::every_task));
}

#[test]
fn sessions_opened_before_an_append_keep_serving_the_old_snapshot() {
    let files = vec![
        ("a".to_string(), "alpha beta gamma alpha beta".repeat(10)),
        ("b".to_string(), "gamma delta alpha beta gamma".repeat(10)),
    ];
    let mut engine =
        EngineBuilder::from_files(files).config(EngineConfig::ntadoc()).build().unwrap();
    let old_fp = engine.snapshot_version();
    let old_serve = engine.serve().unwrap();
    let q = vec![Query::new(TenantId(0), Task::WordCount)];
    let before_append = old_serve.run_queries(&q).unwrap();

    let report = engine
        .append_files(vec![("c".to_string(), "epsilon zeta alpha epsilon".repeat(10))])
        .unwrap();
    assert_eq!(report.old_fingerprint, old_fp);
    assert_eq!(report.snapshot.fingerprint(), engine.snapshot_version());
    assert_ne!(engine.snapshot_version(), old_fp, "appending must move the fingerprint");

    // The pre-append session is pinned: same snapshot, byte-identical
    // answers, and its reads hit its own (old) pool device.
    assert_eq!(old_serve.snapshot_version(), old_fp);
    let stats_before = old_serve.sim_device().stats();
    let after_append = old_serve.run_queries(&q).unwrap();
    let delta = old_serve.sim_device().stats().checked_since(&stats_before).unwrap();
    assert_eq!(
        before_append[0].output(),
        after_append[0].output(),
        "old session must not see the append"
    );
    assert!(delta.reads > 0, "the pinned session reads its own old pool");

    // A fresh session serves the appended corpus under the new snapshot.
    let new_serve = engine.serve().unwrap();
    assert_eq!(new_serve.snapshot_version(), engine.snapshot_version());
    let fresh = new_serve.run_queries(&q).unwrap();
    assert_ne!(before_append[0].output(), fresh[0].output(), "the new words must be visible");
    assert!(fresh[0].output().as_word_counts().unwrap().contains_key("epsilon"));
}

#[test]
fn stale_published_pools_are_recreated_on_open() {
    let pool =
        std::env::temp_dir().join(format!("ntadoc-append-stale-{}.ntdp", std::process::id()));
    let _ = std::fs::remove_file(&pool);
    let files = vec![
        ("a".to_string(), "one two three one two".repeat(10)),
        ("b".to_string(), "three four one five".repeat(10)),
    ];
    let mut engine =
        EngineBuilder::from_files(files).config(EngineConfig::ntadoc()).build().unwrap();
    let old_fp = engine.snapshot_version();
    {
        let mut s = engine.open_pool(&pool, Task::WordCount).unwrap();
        s.traverse().unwrap();
    }
    assert_eq!(
        fsck_pool(&pool).unwrap().header.snapshot,
        old_fp,
        "a sealed pool publishes its snapshot fingerprint in the header"
    );

    engine.append_files(vec![("c".to_string(), "six seven one six".repeat(10))]).unwrap();
    let new_fp = engine.snapshot_version();
    assert_ne!(new_fp, old_fp);

    // Reopening under the moved fingerprint must not serve stale bytes:
    // the pool is recreated for the appended corpus.
    let mut s = engine.open_pool(&pool, Task::WordCount).unwrap();
    let out = s.traverse().unwrap();
    assert!(out.as_word_counts().unwrap().contains_key("seven"));
    drop(s);
    assert_eq!(fsck_pool(&pool).unwrap().header.snapshot, new_fp);
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn append_misuse_is_rejected_with_typed_errors() {
    let files = vec![("a".to_string(), "one two three".to_string())];
    let mut engine =
        EngineBuilder::from_files(files).config(EngineConfig::ntadoc()).build().unwrap();
    assert!(matches!(engine.append_files(Vec::new()), Err(PmemError::Unsupported(_))));
}
