//! §III-B — "directly applying Optane PM to TADOC incurs 13.37×
//! performance overhead compared to the original version": prior TADOC
//! with its allocator pointed at NVM and methods unchanged (raw ordered
//! bodies, scattered PMDK-style allocation, growable containers) vs
//! original TADOC on DRAM.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let avg = h.run_and_emit(
        em,
        "§III-B — naive TADOC-on-NVM overhead vs TADOC on DRAM",
        "overhead",
        "overhead_geomean",
        &Task::ALL,
        |spec, task| {
            let comp = h.dataset(spec);
            let naive = h.run_engine(&comp, EngineConfig::naive(), Device::Nvm, task);
            let dram = h.run_engine(&comp, EngineConfig::tadoc_dram(), Device::Dram, task);
            Cell {
                value: naive.total_secs() / dram.total_secs(),
                fields: vec![
                    ("naive_nvm_secs", Json::F64(naive.total_secs())),
                    ("tadoc_dram_secs", Json::F64(dram.total_secs())),
                ],
            }
        },
    );
    println!(
        "\nmeasured average overhead: {avg:.2}x   (paper: 13.37x; the residual gap is\n\
         PMDK-internal bookkeeping our allocator-cost model does not fully include)"
    );
}
