//! Figure 7 — N-TADOC on NVM vs the same system with the compressed data
//! on SSD and on HDD (page cache capped at 20% of the uncompressed
//! dataset, as in the paper's memory-budget methodology).

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    for (dev, dev_name, key) in
        [(Device::Ssd, "SSD", "ssd_speedup_geomean"), (Device::Hdd, "HDD", "hdd_speedup_geomean")]
    {
        h.run_and_emit(em, "speedup", key, &Task::ALL, |spec, task| {
            let comp = h.dataset(spec);
            let nvm = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let block = h.run_engine(&comp, EngineConfig::ntadoc(), dev, task);
            Cell {
                value: block.total_secs() / nvm.total_secs(),
                fields: vec![
                    ("device", Json::from(dev_name)),
                    ("nvm_secs", Json::F64(nvm.total_secs())),
                    ("block_secs", Json::F64(block.total_secs())),
                ],
            }
        });
    }
}
