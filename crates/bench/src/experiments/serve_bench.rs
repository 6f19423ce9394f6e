//! Build-once/serve-many throughput: one initialized engine holds the
//! resident DAG pool while worker threads execute read-only analytics
//! tasks concurrently against it.
//!
//! Prints tasks/sec and wall-clock speedup for 1/2/4/8 worker threads on
//! a word-count batch (plus a mixed batch of all four servable tasks),
//! and cross-checks every concurrent output against the classic
//! single-run result. Virtual time is deterministic across thread
//! counts; only the wall clock changes. The headline is the word-count
//! throughput speedup at 8 workers.
//!
//! **Why it stays** (ROADMAP 1(d)). Only this bench reads `GATES`'s
//! `serve_bench.word_count_speedup_at_8 >= 2.0`: a batch of served queries
//! on eight workers against one. `benchmark/` does not measure that on
//! either clock: its `serve_hot` and `serve_cold` send one request at a
//! time to the live daemon, and `ntadoc.run_queries_ms.*` times one batch
//! at the host's worker count. The row is a wall-clock row and is skipped
//! on hosts with fewer than eight cores.

use std::time::Instant;

use crate::{Emitter, Harness};
use ntadoc::{Engine, EngineConfig, Query, Task, TaskOutput, TenantId};
use ntadoc_pmem::{par, Json};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH: usize = 64;

pub fn run(h: &Harness, em: &mut Emitter) {
    let comp = h.dataset(&h.spec("C"));

    let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    let mut reference: Vec<TaskOutput> = Vec::new();
    for t in [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex] {
        reference.push(engine.run(t).unwrap());
    }

    let t0 = Instant::now();
    let serve = engine.serve().unwrap();
    eprintln!("[init] serve session built in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    let wc_batch = vec![Task::WordCount; BATCH];
    let mixed_batch: Vec<Task> = (0..BATCH)
        .map(|i| [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex][i % 4])
        .collect();

    let mut wc_speedup_at_8 = 0.0f64;
    for (label, batch) in [("word-count", &wc_batch), ("mixed", &mixed_batch)] {
        println!("\n== serve throughput: {label} ×{BATCH} ==");
        println!("{:>8} {:>12} {:>10} {:>14}", "threads", "tasks/sec", "speedup", "virtual_ns");
        let mut base_tps = 0.0;
        let mut base_virtual = 0;
        for &threads in &THREAD_COUNTS {
            let queries: Vec<Query> =
                batch.iter().map(|&t| Query::new(TenantId::default(), t)).collect();
            let v0 = serve.sim_device().stats().virtual_ns;
            let (outs, wall) = par::with_threads(threads, || {
                let t = Instant::now();
                let outs: Vec<TaskOutput> = serve
                    .run_queries(&queries)
                    .unwrap()
                    .into_iter()
                    .map(|r| r.into_output())
                    .collect();
                (outs, t.elapsed())
            });
            for (out, &task) in outs.iter().zip(batch.iter()) {
                let want = &reference[match task {
                    Task::WordCount => 0,
                    Task::Sort => 1,
                    Task::TermVector => 2,
                    _ => 3,
                }];
                assert_eq!(out, want, "serve output diverged from classic run ({task})");
            }
            // The session's virtual clock is cumulative across batches;
            // the per-batch delta is what must be schedule-independent.
            let virtual_ns = serve.sim_device().stats().virtual_ns - v0;
            let tps = batch.len() as f64 / wall.as_secs_f64();
            if threads == 1 {
                base_tps = tps;
                base_virtual = virtual_ns;
            } else {
                assert_eq!(
                    virtual_ns, base_virtual,
                    "virtual time must not depend on the worker count"
                );
            }
            if label == "word-count" && threads == 8 {
                wc_speedup_at_8 = tps / base_tps;
            }
            println!("{threads:>8} {tps:>12.1} {:>9.2}x {virtual_ns:>14}", tps / base_tps);
            em.row([
                ("batch", Json::from(label)),
                ("threads", Json::U64(threads as u64)),
                ("tasks_per_sec", Json::F64(tps)),
                ("speedup", Json::F64(tps / base_tps)),
                ("virtual_ns", Json::U64(virtual_ns)),
            ]);
        }
    }
    println!(
        "\nall {} concurrent outputs matched the classic runs",
        2 * BATCH * THREAD_COUNTS.len()
    );
    em.headline("word_count_speedup_at_8", wc_speedup_at_8);
}
