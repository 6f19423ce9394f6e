//! §VI-C — DRAM space savings: peak DRAM residency of N-TADOC vs TADOC
//! (the RSS measurement in the paper, stood in for by the allocation
//! ledger's per-device peak gauges in each report's metric snapshot).

use crate::{mean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, RunReport, Task, METRIC_DRAM_PEAK};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let dram_peak = |rep: &RunReport| rep.metric_f64(METRIC_DRAM_PEAK).expect("dram peak gauge");
    let specs = h.specs();
    // Summed dataset by dataset, as the record's `all` row folds them.
    let mut per_dataset: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    for task in Task::ALL {
        for (di, spec) in specs.iter().enumerate() {
            let comp = h.dataset(spec);
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let dram = h.run_engine(&comp, EngineConfig::tadoc_dram(), Device::Dram, task);
            let saving = 1.0 - dram_peak(&nt) / dram_peak(&dram);
            em.row([
                ("dataset", Json::from(spec.name)),
                ("task", Json::from(task.name())),
                ("tadoc_dram_peak", Json::F64(dram_peak(&dram))),
                ("ntadoc_dram_peak", Json::F64(dram_peak(&nt))),
                ("saving", Json::F64(saving)),
            ]);
            per_dataset[di].push(saving);
        }
    }
    em.headline("saving_mean", mean(&per_dataset.concat()));
}
