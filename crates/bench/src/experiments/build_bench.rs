//! Chunk-parallel build: grammar construction split into W deterministic
//! chunks, built concurrently, and merged through the shared dictionary.
//!
//! Builds at 1/2/4/8 worker threads with W=8 chunks, cross-checks that
//! every chunked grammar spells the same corpus and drives an engine to
//! the same word counts as the serial build, and asserts the virtual build
//! time is bit-identical for every thread count.
//! The headline is the modeled (virtual-lane) speedup at 8 workers, which
//! `GATES`'s `build_bench.build_virtual_speedup >= 2.0` reads. The rows'
//! `wall_ms` is host time: `report` never renders it.

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
    let serial_words = {
        let mut e =
            Engine::builder(serial_comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        e.run(Task::WordCount).unwrap()
    };
    em.row([
        ("threads", Json::U64(1)),
        ("chunks", Json::U64(1)),
        ("wall_ms", Json::F64(serial_wall.as_secs_f64() * 1e3)),
        ("virtual_ns", Json::U64(serial_report.virtual_ns)),
    ]);

    let opts = IngestOptions { chunks: CHUNKS };
    let mut base_virtual = None;
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
        let base = *base_virtual.get_or_insert(report.virtual_ns);
        assert_eq!(
            report.virtual_ns, base,
            "virtual build time must not depend on the worker count"
        );

        let vspeed = report.virtual_speedup();
        if threads == 8 {
            virtual_speedup = vspeed;
        }
        em.row([
            ("threads", Json::U64(threads as u64)),
            ("chunks", Json::U64(CHUNKS as u64)),
            ("wall_ms", Json::F64(wall.as_secs_f64() * 1e3)),
            ("virtual_ns", Json::U64(report.virtual_ns)),
            ("virtual_speedup", Json::F64(vspeed)),
        ]);
    }

    em.headline("build_virtual_speedup", virtual_speedup);
}
