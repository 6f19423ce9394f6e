//! Figure 6 — discrepancy between N-TADOC (NVM, phase-level persistence)
//! and the theoretical upper bound, TADOC on pure DRAM. The worst task,
//! the dataset with the largest gap and how the gap moves with dataset
//! size are read off the rendered matrix.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    h.run_and_emit(em, "slowdown", "slowdown_geomean", &Task::ALL, |spec, task| {
        let comp = h.dataset(spec);
        let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
        let dram = h.run_engine(&comp, EngineConfig::tadoc_dram(), Device::Dram, task);
        Cell {
            value: nt.total_secs() / dram.total_secs(),
            fields: vec![
                ("ntadoc_secs", Json::F64(nt.total_secs())),
                ("tadoc_dram_secs", Json::F64(dram.total_secs())),
            ],
        }
    });
}
