//! Smoke run — all six tasks on dataset C across the four engines
//! (N-TADOC, uncompressed baseline, TADOC-on-DRAM, naive port), printing
//! virtual and wall-clock times, and attaching every N-TADOC report —
//! span tree included — to the emitted document.

use crate::{Emitter, Harness};
use ntadoc::{Engine, EngineConfig, Task, UncompressedEngine, METRIC_DRAM_PEAK};
use ntadoc_pmem::{DeviceProfile, Json};
use std::time::Instant;

pub fn run(h: &Harness, em: &mut Emitter) {
    let t0 = Instant::now();
    let comp = h.dataset(&h.spec("C"));
    let stats = comp.grammar.stats();
    println!(
        "gen+compress: {:?}  rules={} vocab={} words={} files={}",
        t0.elapsed(),
        stats.rule_count,
        stats.vocabulary,
        stats.expanded_words,
        stats.files
    );

    let mut speedups = Vec::new();
    for task in Task::ALL {
        let t = Instant::now();
        let mut nt = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
        nt.run(task).unwrap();
        let nt_rep = nt.last_report.clone().unwrap();
        let nt_wall = t.elapsed();

        let t = Instant::now();
        let mut base =
            UncompressedEngine::builder(comp.clone()).config(EngineConfig::ntadoc()).build();
        base.run(task).unwrap();
        let base_rep = base.last_report.clone().unwrap();
        let base_wall = t.elapsed();

        let t = Instant::now();
        let mut dram = Engine::builder(comp.clone())
            .config(EngineConfig::tadoc_dram())
            .profile(DeviceProfile::dram())
            .build()
            .unwrap();
        dram.run(task).unwrap();
        let dram_rep = dram.last_report.clone().unwrap();
        let dram_wall = t.elapsed();

        let t = Instant::now();
        let mut naive =
            Engine::builder(comp.clone()).config(EngineConfig::naive()).build().unwrap();
        naive.run(task).unwrap();
        let naive_rep = naive.last_report.clone().unwrap();
        let naive_wall = t.elapsed();

        println!("{:22} NT={:8.3}s base={:8.3}s dram={:8.3}s naive={:8.3}s | speedup-vs-base={:.2} slowdown-vs-dram={:.2} naive/NT={:.2} | wall NT={:?} base={:?} dram={:?} naive={:?}",
            task.name(),
            nt_rep.total_secs(), base_rep.total_secs(), dram_rep.total_secs(), naive_rep.total_secs(),
            base_rep.total_secs()/nt_rep.total_secs(),
            nt_rep.total_secs()/dram_rep.total_secs(),
            naive_rep.total_secs()/nt_rep.total_secs(),
            nt_wall, base_wall, dram_wall, naive_wall);
        let peak_kb =
            |rep: &ntadoc::RunReport| rep.metric_f64(METRIC_DRAM_PEAK).unwrap_or(0.0) as u64 / 1024;
        println!(
            "   dram_peak NT={}KB dram-eng={}KB   init/trav NT={:.3}/{:.3}",
            peak_kb(&nt_rep),
            peak_kb(&dram_rep),
            nt_rep.init_secs(),
            nt_rep.traversal_secs()
        );
        em.row([
            ("task", Json::from(task.name())),
            ("ntadoc_secs", Json::F64(nt_rep.total_secs())),
            ("baseline_secs", Json::F64(base_rep.total_secs())),
            ("tadoc_dram_secs", Json::F64(dram_rep.total_secs())),
            ("naive_secs", Json::F64(naive_rep.total_secs())),
            ("speedup_vs_baseline", Json::F64(base_rep.total_secs() / nt_rep.total_secs())),
        ]);
        speedups.push(base_rep.total_secs() / nt_rep.total_secs());
        em.attach_report(&format!("ntadoc/{}", task.name()), &nt_rep);
    }
    em.headline("speedup_vs_baseline_geomean", crate::geomean(&speedups));
}
