//! Chunk-parallel build throughput: grammar construction split into W
//! deterministic chunks, built concurrently, and merged through the
//! shared dictionary.
//!
//! Prints build wall time and speedup over the serial (single-chunk)
//! ingest for 1/2/4/8 worker threads at W=8 chunks, cross-checks that
//! every chunked grammar spells the same corpus and drives an engine to
//! the same word counts as the serial build, and asserts the virtual
//! build time is bit-identical for every thread count. The headlines are
//! the wall-clock and the modeled (virtual-lane) speedup at 8 workers.
//!
//! **Why it stays** (ROADMAP 1(d)). Only this bench reads `GATES`'s
//! `build_bench.build_virtual_speedup >= 2.0`, the modeled speedup of an
//! eight-chunk build over its virtual lanes, and the wall-clock
//! `build_speedup >= 2.0` at eight workers (skipped on smaller hosts).
//! `benchmark/`'s `ingest` workload times `compress --ingest-chunks 2` on
//! the wall clock only and reports no virtual build time.

use std::time::Instant;

use crate::{Emitter, Harness};
use ntadoc::{ingest_corpus, Engine, EngineConfig, IngestOptions, Task};
use ntadoc_pmem::{par, Json};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CHUNKS: usize = 8;

pub fn run(h: &Harness, em: &mut Emitter) {
    em.meta("chunks", Json::U64(CHUNKS as u64));
    let files = h.files(&h.spec("C"));

    // Serial reference: single-chunk ingest is byte-identical to the
    // classic compressor, so it is both the wall-clock baseline and the
    // correctness oracle.
    let t0 = Instant::now();
    let (serial_comp, serial_report) =
        par::with_threads(1, || ingest_corpus(&files, &IngestOptions::default()));
    let serial_wall = t0.elapsed();
    eprintln!(
        "[serial] built {} rules in {:.1} ms",
        serial_comp.grammar.rules.len(),
        serial_wall.as_secs_f64() * 1e3
    );
    let serial_words = {
        let mut e =
            Engine::builder(serial_comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        e.run(Task::WordCount).unwrap()
    };
    em.row([
        ("threads", Json::U64(1)),
        ("chunks", Json::U64(1)),
        ("wall_ms", Json::F64(serial_wall.as_secs_f64() * 1e3)),
        ("speedup", Json::F64(1.0)),
        ("virtual_ns", Json::U64(serial_report.virtual_ns)),
    ]);

    println!("\n== chunk-parallel build: W={CHUNKS} chunks ==");
    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>10}",
        "threads", "wall ms", "speedup", "virtual_ns", "virtual"
    );
    let opts = IngestOptions { chunks: CHUNKS, ..IngestOptions::default() };
    let mut base_virtual = 0u64;
    let mut speedup_at_8 = 0.0f64;
    let mut virtual_speedup = 0.0f64;
    for &threads in &THREAD_COUNTS {
        let t = Instant::now();
        let (comp, report) = par::with_threads(threads, || ingest_corpus(&files, &opts));
        let wall = t.elapsed();

        // Correctness: same corpus, same dictionary, same analytics.
        assert_eq!(
            comp.grammar.expand_text(&comp.dict),
            serial_comp.grammar.expand_text(&serial_comp.dict),
            "chunked grammar spells a different corpus at {threads} threads"
        );
        let words = {
            let mut e = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
            e.run(Task::WordCount).unwrap()
        };
        assert_eq!(words, serial_words, "chunked word counts diverged at {threads} threads");

        // Determinism: the virtual build time must not depend on the
        // worker count, only on the chunk plan.
        if threads == 1 {
            base_virtual = report.virtual_ns;
        } else {
            assert_eq!(
                report.virtual_ns, base_virtual,
                "virtual build time must not depend on the worker count"
            );
        }

        let speedup = serial_wall.as_secs_f64() / wall.as_secs_f64();
        let vspeed = report.virtual_speedup();
        if threads == 8 {
            speedup_at_8 = speedup;
            virtual_speedup = vspeed;
        }
        println!(
            "{threads:>8} {:>10.1} {:>9.2}x {:>14} {:>9.2}x",
            wall.as_secs_f64() * 1e3,
            speedup,
            report.virtual_ns,
            vspeed
        );
        em.row([
            ("threads", Json::U64(threads as u64)),
            ("chunks", Json::U64(CHUNKS as u64)),
            ("wall_ms", Json::F64(wall.as_secs_f64() * 1e3)),
            ("speedup", Json::F64(speedup)),
            ("virtual_ns", Json::U64(report.virtual_ns)),
            ("virtual_speedup", Json::F64(vspeed)),
        ]);
    }

    println!("\nall chunked builds matched the serial grammar and word counts");
    em.headline("build_speedup", speedup_at_8);
    em.headline("build_virtual_speedup", virtual_speedup);
}
