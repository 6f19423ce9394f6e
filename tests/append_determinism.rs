//! The streaming-corpus contract: appending files one group at a time
//! through `Engine::append_files` gives the same bytes — snapshot
//! fingerprint, pool image, virtual time — for any worker count (and, in
//! `ingest_golden.rs`, the pinned images), loses nothing a full rebuild
//! would keep, and answers like one; sessions opened before an append keep
//! serving the old snapshot; and file pools published under a superseded
//! fingerprint are recreated on open.

mod common;

use common::{build_by_appends, check_corpora, CorpusShape};
use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, fsck_pool, Engine, EngineBuilder, EngineConfig, PmemError, Query, Task,
    TenantId, TokenizerConfig,
};

/// Arbitrary corpora: 2–6 files of small-alphabet words (some empty), so
/// appends splice empty files, seam repeats, and fresh vocabulary.
const CORPORA: CorpusShape = CorpusShape { files: 2..6, alphabet: 18, words: 0..120 };

/// Deterministically partition `n` files into non-empty groups from a seed.
fn plan_from_seed(n: usize, mut seed: u64) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = 1 + (seed as usize) % left;
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        plan.push(take);
        left -= take;
    }
    plan
}

#[test]
fn append_pipeline_is_identical_for_any_worker_count() {
    let files = vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog the end".repeat(30)),
        ("b".to_string(), "pack my box with five dozen liquor jugs the fox".repeat(30)),
        ("c".to_string(), "sphinx of black quartz judge my vow the quick judge".repeat(30)),
        ("d".to_string(), "new words arrive late and must intern cleanly here".repeat(30)),
    ];
    let build = |threads: usize| {
        par::with_threads(threads, || {
            let e = build_by_appends(&files, &[1, 1, 1, 1]);
            let serve = e.serve().unwrap();
            let dev = serve.sim_device();
            (
                e.snapshot_version(),
                e.ingest_total_ns(),
                dev.peek(0, dev.capacity() as usize),
                dev.stats().virtual_ns,
            )
        })
    };
    let (base_fp, base_ns, base_pool, base_init) = build(1);
    for threads in [4, 8] {
        let (fp, ns, pool, init) = build(threads);
        assert_eq!(fp, base_fp, "fingerprint diverged at {threads} threads");
        assert_eq!(ns, base_ns, "append virtual time diverged at {threads} threads");
        assert_eq!(pool, base_pool, "pool bytes diverged at {threads} threads");
        assert_eq!(init, base_init, "init virtual time diverged at {threads} threads");
    }
}

#[test]
fn appended_engines_answer_like_full_rebuilds() {
    let files = vec![
        ("a".to_string(), "one two three one two four five one".repeat(12)),
        ("b".to_string(), "one two three six seven two".repeat(12)),
        ("c".to_string(), "eight nine one seven ten ten".repeat(12)),
    ];
    let mut appended = build_by_appends(&files, &[1, 1, 1]);
    let mut rebuilt = Engine::builder(compress_corpus(&files, &TokenizerConfig::default()))
        .config(EngineConfig::ntadoc())
        .build()
        .unwrap();
    for task in Task::ALL {
        assert_eq!(
            appended.run(task).unwrap(),
            rebuilt.run(task).unwrap(),
            "{task} diverged between append path and full rebuild"
        );
    }

    // Over arbitrary corpora and plans the appended corpus expands to
    // exactly the input files: the incremental path loses nothing a full
    // rebuild would keep.
    check_corpora(
        "appended_engines_answer_like_full_rebuilds",
        0xA99E_0D01,
        16,
        CORPORA,
        |rng| rng.next_below(10_000),
        |files, &seed| {
            let plan = plan_from_seed(files.len(), seed);
            let live = build_by_appends(files, &plan);
            let full = compress_corpus(files, &TokenizerConfig::default());
            assert_eq!(live.append_log().len(), plan.len() - 1, "plan {plan:?}");
            assert_eq!(
                live.compressed().grammar.expand_files(),
                full.grammar.expand_files(),
                "plan {plan:?}"
            );
        },
    );
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
