//! Parallelism must never change results: task outputs, the virtual
//! clock, and the full observability output (span tree + metric
//! snapshot) are bit-identical for any worker count, both for classic
//! engine runs and for concurrent serve-mode batches.

use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, ingest_corpus, Compressed, Engine, EngineBuilder, EngineConfig, IngestOptions,
    PmemError, Query, RunReport, Task, TaskOutput, TenantId, TokenizerConfig, METRIC_DRAM_PEAK,
};

/// Wrap bare tasks as single-tenant typed queries.
fn queries(tasks: &[Task]) -> Vec<Query> {
    tasks.iter().map(|&t| Query::new(TenantId::default(), t)).collect()
}

fn raw_files() -> Vec<(String, String)> {
    vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog the end".repeat(40)),
        ("b".to_string(), "pack my box with five dozen liquor jugs the fox".repeat(40)),
        ("c".to_string(), "sphinx of black quartz judge my vow the quick judge".repeat(40)),
    ]
}

fn corpus() -> Compressed {
    compress_corpus(&raw_files(), &TokenizerConfig::default())
}

/// Run `task` under `threads` workers, returning output and total virtual
/// time.
fn run_with(comp: &Compressed, cfg: EngineConfig, task: Task, threads: usize) -> (TaskOutput, u64) {
    par::with_threads(threads, || {
        let mut e = Engine::builder(comp.clone()).config(cfg).build().unwrap();
        let out = e.run(task).unwrap();
        (out, e.last_report.as_ref().unwrap().total_ns())
    })
}

#[test]
fn engine_runs_are_identical_for_any_worker_count() {
    let comp = corpus();
    for cfg in [EngineConfig::ntadoc(), EngineConfig::naive()] {
        for task in Task::ALL {
            let (base_out, base_ns) = run_with(&comp, cfg.clone(), task, 1);
            for threads in [2, 8] {
                let (out, ns) = run_with(&comp, cfg.clone(), task, threads);
                assert_eq!(out, base_out, "{task} output diverged at {threads} threads");
                assert_eq!(ns, base_ns, "{task} virtual time diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn serve_outputs_match_classic_runs() {
    let comp = corpus();
    let mut engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let servable = [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];
    let classic: Vec<TaskOutput> = servable.iter().map(|&t| engine.run(t).unwrap()).collect();
    let serve = engine.serve().unwrap();
    let outs: Vec<TaskOutput> = serve
        .run_queries(&queries(&servable))
        .unwrap()
        .into_iter()
        .map(|r| r.into_output())
        .collect();
    assert_eq!(outs, classic);
}

#[test]
fn serve_batches_are_deterministic_across_worker_counts() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let serve = engine.serve().unwrap();
    let batch: Vec<Task> = (0..24)
        .map(|i| [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex][i % 4])
        .collect();
    let mut reference: Option<(Vec<TaskOutput>, u64)> = None;
    for threads in [1, 2, 8, 1] {
        let v0 = serve.sim_device().stats().virtual_ns;
        let outs: Vec<TaskOutput> =
            par::with_threads(threads, || serve.run_queries(&queries(&batch)).unwrap())
                .into_iter()
                .map(|r| r.into_output())
                .collect();
        let delta = serve.sim_device().stats().virtual_ns - v0;
        match &reference {
            None => reference = Some((outs, delta)),
            Some((ref_outs, ref_delta)) => {
                assert_eq!(&outs, ref_outs, "batch outputs diverged at {threads} threads");
                assert_eq!(delta, *ref_delta, "batch virtual time diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn serve_rejects_sequence_tasks() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let serve = engine.serve().unwrap();
    let err = match serve.run_queries(&queries(&[Task::WordCount, Task::SequenceCount])) {
        Err(e) => e,
        Ok(_) => panic!("sequence task must not be servable"),
    };
    assert!(matches!(err, PmemError::Unsupported(_)), "got {err:?}");
}

#[test]
fn serve_requires_pruned_config() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone()).config(EngineConfig::naive()).build().unwrap();
    let err = match engine.serve() {
        Err(e) => e,
        Ok(_) => panic!("serve must require the pruned configuration"),
    };
    assert!(matches!(err, PmemError::Unsupported(_)), "got {err:?}");
}

#[test]
fn empty_corpus_is_a_clean_builder_error() {
    let comp = compress_corpus(&[], &TokenizerConfig::default());
    let err = match Engine::builder(comp).config(EngineConfig::ntadoc()).build() {
        Err(e) => e,
        Ok(_) => panic!("empty corpus must be rejected"),
    };
    assert!(matches!(err, PmemError::Unsupported(_)), "got {err:?}");
}

/// Run `task` under `threads` workers and return the full report.
fn report_with(comp: &Compressed, cfg: EngineConfig, task: Task, threads: usize) -> RunReport {
    par::with_threads(threads, || {
        let mut e = Engine::builder(comp.clone()).config(cfg).build().unwrap();
        e.run(task).unwrap();
        e.last_report.take().unwrap()
    })
}

#[test]
fn span_trees_and_metrics_are_identical_for_any_worker_count() {
    // The determinism rule of the obs layer: spans open and close on the
    // controlling thread, parallel work joins the virtual clock as a
    // lane-folded makespan, so the *entire serialized report* — span
    // tree, metric snapshot, access stats — must be byte-identical no
    // matter how many workers ran the traversal.
    let comp = corpus();
    for task in [Task::WordCount, Task::TermVector, Task::SequenceCount] {
        let base = report_with(&comp, EngineConfig::ntadoc(), task, 1);
        assert!(base.spans.span_count() > 3, "{task}: expected a nested span tree");
        for threads in [4, 8] {
            let rep = report_with(&comp, EngineConfig::ntadoc(), task, threads);
            assert_eq!(rep.spans, base.spans, "{task} span tree diverged at {threads} threads");
            assert_eq!(rep.metrics, base.metrics, "{task} metrics diverged at {threads} threads");
            assert_eq!(
                rep.to_json().pretty(),
                base.to_json().pretty(),
                "{task} serialized report diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn ingest_is_identical_for_any_worker_count() {
    // The chunk-parallel build obeys the same contract as traversal: the
    // produced grammar, dictionary, per-chunk costs, span tree, and total
    // virtual time are bit-identical for any RAYON_NUM_THREADS.
    let files = raw_files();
    for chunks in [1usize, 4, 8] {
        let opts = IngestOptions { chunks, ..IngestOptions::default() };
        let build = |threads: usize| {
            par::with_threads(threads, || {
                let (comp, report) = ingest_corpus(&files, &opts);
                (
                    comp.grammar,
                    comp.dict.iter().map(|(_, w)| w.to_string()).collect::<Vec<_>>(),
                    report,
                )
            })
        };
        let (base_g, base_d, base_r) = build(1);
        for threads in [4, 8] {
            let (g, d, r) = build(threads);
            assert_eq!(g, base_g, "grammar diverged at {threads} threads (chunks={chunks})");
            assert_eq!(d, base_d, "dictionary diverged at {threads} threads (chunks={chunks})");
            assert_eq!(
                r.virtual_ns, base_r.virtual_ns,
                "ingest virtual time diverged at {threads} threads (chunks={chunks})"
            );
            assert_eq!(r.chunk_ns, base_r.chunk_ns, "chunk costs diverged (chunks={chunks})");
            assert_eq!(r.spans, base_r.spans, "ingest span tree diverged (chunks={chunks})");
        }
    }
}

#[test]
fn chunked_engines_agree_with_serial_engines_for_any_worker_count() {
    // End to end: an engine built from raw files with chunk-parallel
    // ingest must produce the same task outputs as one built over the
    // serial compression, for every worker count.
    let files = raw_files();
    let serial = {
        let mut e = Engine::builder(corpus()).config(EngineConfig::ntadoc()).build().unwrap();
        e.run(Task::WordCount).unwrap()
    };
    let mut reference_ns: Option<u64> = None;
    for threads in [1usize, 4, 8] {
        let (out, ingest_ns) = par::with_threads(threads, || {
            let mut e = EngineBuilder::from_files(files.clone())
                .ingest_chunks(8)
                .config(EngineConfig::ntadoc())
                .build()
                .unwrap();
            let ns = e.ingest_report().unwrap().virtual_ns;
            (e.run(Task::WordCount).unwrap(), ns)
        });
        assert_eq!(out, serial, "chunked-engine output diverged at {threads} threads");
        match reference_ns {
            None => reference_ns = Some(ingest_ns),
            Some(r) => {
                assert_eq!(ingest_ns, r, "ingest virtual time diverged at {threads} threads")
            }
        }
    }
}

#[test]
fn serve_session_reports_are_identical_for_any_worker_count() {
    let comp = corpus();
    let batch: Vec<Task> = (0..16)
        .map(|i| [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex][i % 4])
        .collect();
    // Engine build, session init and the batch all run at `threads`
    // workers. The DRAM high-water mark is part of the report: a merge's
    // transient buffer raises the peak without holding bytes, so merges
    // run side by side — a cache level's rules, a batch's queries, a
    // query's files — reach the peak one after another would.
    let serve_report = |threads: usize| {
        par::with_threads(threads, || {
            let engine =
                Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
            let serve = engine.serve().unwrap();
            serve.run_queries(&queries(&batch)).unwrap();
            serve.report()
        })
    };
    let base = serve_report(1);
    assert!(base.metric_f64(METRIC_DRAM_PEAK).is_some(), "DRAM peak is reported");
    for threads in [4, 8] {
        let rep = serve_report(threads);
        assert_eq!(rep.spans, base.spans, "serve span tree diverged at {threads} threads");
        assert_eq!(rep.metrics, base.metrics, "serve metrics diverged at {threads} threads");
        assert_eq!(
            rep.to_json().pretty(),
            base.to_json().pretty(),
            "serve serialized report diverged at {threads} threads"
        );
    }
    // A batch of one: a term vector or inverted index merges its files
    // on every worker.
    for task in [Task::TermVector, Task::InvertedIndex] {
        let one = |threads: usize| {
            par::with_threads(threads, || {
                let engine =
                    Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
                let serve = engine.serve().unwrap();
                serve.run_queries(&queries(&[task])).unwrap();
                serve.report()
            })
        };
        let base = one(1);
        for threads in [2, 4] {
            let rep = one(threads);
            assert_eq!(rep.spans, base.spans, "{task}: span tree diverged at {threads} threads");
            assert_eq!(rep.metrics, base.metrics, "{task}: metrics diverged at {threads} threads");
            assert_eq!(
                rep.to_json().pretty(),
                base.to_json().pretty(),
                "{task}: serialized report diverged at {threads} threads"
            );
        }
    }
}

/// 24 files named `doc-00` … `doc-23`, each a different mix of the
/// three texts of [`raw_files`].
fn many_files() -> Vec<(String, String)> {
    let texts = raw_files();
    (0..24)
        .map(|i| {
            let text =
                (0..3 + i % 5).map(|k| texts[(i + k) % 3].1.as_str()).collect::<Vec<_>>().join(" ");
            (format!("doc-{i:02}"), text)
        })
        .collect()
}

/// A served term vector or inverted index merges its files on every
/// worker. What it answers, what its tenant is charged and the span tree
/// do not depend on how many.
#[test]
fn served_per_file_queries_are_identical_for_any_worker_count() {
    let comp = compress_corpus(&many_files(), &TokenizerConfig::default());
    for task in [Task::TermVector, Task::InvertedIndex] {
        let query = Query::new(TenantId(7), task).top_k(5).file_filter("doc-1");
        let served = |threads: usize| {
            par::with_threads(threads, || {
                let engine =
                    Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
                let serve = engine.serve().unwrap();
                let reply = serve.run_queries(std::slice::from_ref(&query)).unwrap();
                let mut json = String::new();
                reply[0].rows().write_json(&mut json);
                let spans = serve.report().spans;
                let leaf = spans.find("tenant:7").expect("the tenant's leaf").stats;
                (json, (leaf.virtual_ns, leaf.reads, leaf.line_misses), spans)
            })
        };
        let base = served(1);
        assert!(base.0.contains("doc-1") && !base.0.contains("doc-2"), "{task}: {}", base.0);
        assert!(base.1 .1 > 24, "{task}: every file's lists are read: {:?}", base.1);
        for threads in [2, 4] {
            let (json, leaf, spans) = served(threads);
            assert_eq!(json, base.0, "{task}: reply diverged at {threads} threads");
            assert_eq!(leaf, base.1, "{task}: tenant charge diverged at {threads} threads");
            assert_eq!(spans, base.2, "{task}: span tree diverged at {threads} threads");
        }
    }
}
