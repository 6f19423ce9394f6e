//! §VI-C — DRAM space savings: peak DRAM residency of N-TADOC vs TADOC
//! (the RSS measurement in the paper, stood in for by the allocation
//! ledger's per-device peak gauges in each report's metric snapshot).
//!
//! Paper: average saving 70.7% (A 65.6%, B 70.7%, C 72.2%, D 74.3%);
//! word count saves the most (79.8%), sequence count the least (60.7%).

use crate::{mean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, RunReport, Task, METRIC_DRAM_PEAK};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let specs = h.specs();
    println!("== §VI-C — DRAM space savings of N-TADOC vs TADOC ==");
    println!(
        "{:24} {:>6} {:>14} {:>14} {:>10}",
        "Benchmark", "DS", "TADOC KB", "N-TADOC KB", "saving"
    );
    let dram_peak = |rep: &RunReport| rep.metric_f64(METRIC_DRAM_PEAK).expect("dram peak gauge");
    let mut per_dataset: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); Task::ALL.len()];
    for (ti, task) in Task::ALL.into_iter().enumerate() {
        for (di, spec) in specs.iter().enumerate() {
            let comp = h.dataset(spec);
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let dram = h.run_engine(&comp, EngineConfig::tadoc_dram(), Device::Dram, task);
            let saving = 1.0 - dram_peak(&nt) / dram_peak(&dram);
            println!(
                "{:24} {:>6} {:>14} {:>14} {:>9.1}%",
                task.name(),
                spec.name,
                dram_peak(&dram) as u64 / 1024,
                dram_peak(&nt) as u64 / 1024,
                saving * 100.0
            );
            em.row([
                ("dataset", Json::from(spec.name)),
                ("task", Json::from(task.name())),
                ("tadoc_dram_peak", Json::F64(dram_peak(&dram))),
                ("ntadoc_dram_peak", Json::F64(dram_peak(&nt))),
                ("saving", Json::F64(saving)),
            ]);
            per_dataset[di].push(saving);
            per_task[ti].push(saving);
        }
    }
    println!("\nper-dataset average savings (paper: A 65.6%, B 70.7%, C 72.2%, D 74.3%):");
    for (di, spec) in specs.iter().enumerate() {
        println!("  {}: {:.1}%", spec.name, mean(&per_dataset[di]) * 100.0);
    }
    println!(
        "\nper-task average savings (paper: word count best 79.8%, sequence count worst 60.7%):"
    );
    for (ti, task) in Task::ALL.into_iter().enumerate() {
        println!("  {}: {:.1}%", task.name(), mean(&per_task[ti]) * 100.0);
    }
    let all: Vec<f64> = per_dataset.iter().flatten().copied().collect();
    println!("\noverall average saving: {:.1}%  (paper: 70.7%)", mean(&all) * 100.0);
    em.headline("saving_mean", mean(&all));
}
