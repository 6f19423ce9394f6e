//! Streaming append vs full rebuild: growing an already-compressed
//! corpus through `Engine::append_files` must cost a fraction of
//! re-ingesting the whole corpus from scratch.
//!
//! For growth deltas of 10/25/50% of the corpus (by file count) the
//! bench builds the base, appends the delta as one group, and compares
//! the append's deterministic virtual cost against a full rebuild's.
//! Every appended engine is cross-checked against the rebuild oracle:
//! the grammar spells the same corpus and word counts agree. The
//! headline is the rebuild-to-append virtual-ns ratio at 10% growth.
//!
//! **Why it stays** (ROADMAP 1(d)). Only this bench reads `GATES`'s
//! `append_bench.append_speedup_at_10pct > 1.5`, a virtual-time ratio.
//! `benchmark/`'s `ingest` workload runs `ntadoc append` (and times
//! `cli.append`) on the wall clock only, against no rebuild.

use std::time::Instant;

use crate::{Emitter, Harness};
use ntadoc::{ingest_corpus, Engine, EngineConfig, IngestOptions, Task};
use ntadoc_pmem::Json;

const GROWTH_PCTS: [usize; 3] = [10, 25, 50];

pub fn run(h: &Harness, em: &mut Emitter) {
    // Dataset B: many small formulaic files with a steadily growing
    // vocabulary, so a file-count delta is a realistic stream of new
    // documents (fresh words to intern, seams to deduplicate) and the
    // per-token Sequitur cost dominates the rebuild baseline.
    let files = h.files(&h.spec("B"));
    em.meta("files", Json::U64(files.len() as u64));

    // The oracle and the baseline: one full from-scratch ingest of the
    // grown corpus, its virtual cost being what an appender avoids.
    let (full_comp, full_report) = ingest_corpus(&files, &IngestOptions::default());
    let full_words = {
        let mut e =
            Engine::builder(full_comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        e.run(Task::WordCount).unwrap()
    };
    let mut ratio_at_10 = 0.0f64;
    for &pct in &GROWTH_PCTS {
        let delta_n = (files.len() * pct / 100).max(1);
        let base_n = files.len() - delta_n;
        let (base, delta) = files.split_at(base_n);

        let (base_comp, _) = ingest_corpus(base, &IngestOptions::default());
        let mut engine = Engine::builder(base_comp).config(EngineConfig::ntadoc()).build().unwrap();
        let t = Instant::now();
        let report = engine.append_files(delta.to_vec()).unwrap();
        let append_wall = t.elapsed();

        // Correctness: the appended grammar spells exactly the grown
        // corpus and answers analytics like the rebuild.
        assert_eq!(
            engine.compressed().grammar.expand_files(),
            full_comp.grammar.expand_files(),
            "append at {pct}% growth spells a different corpus than the rebuild"
        );
        assert_eq!(
            engine.run(Task::WordCount).unwrap(),
            full_words,
            "append at {pct}% growth diverged from the rebuild's word counts"
        );

        let ratio = full_report.virtual_ns as f64 / report.virtual_ns as f64;
        if pct == 10 {
            ratio_at_10 = ratio;
        }
        em.row([
            ("growth_pct", Json::U64(pct as u64)),
            ("delta_files", Json::U64(delta_n as u64)),
            ("append_virtual_ns", Json::U64(report.virtual_ns)),
            ("rebuild_virtual_ns", Json::U64(full_report.virtual_ns)),
            ("new_words", Json::U64(report.new_words as u64)),
            ("new_rules", Json::U64(report.new_rules as u64)),
            ("dirty_rules", Json::U64(report.dirty_rules as u64)),
            ("ratio", Json::F64(ratio)),
            ("append_wall_ms", Json::F64(append_wall.as_secs_f64() * 1e3)),
        ]);
    }

    em.headline("append_speedup_at_10pct", ratio_at_10);
    em.headline_u64("rebuild_virtual_ns", full_report.virtual_ns);
}
