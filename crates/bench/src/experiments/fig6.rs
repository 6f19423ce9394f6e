//! Figure 6 — discrepancy between N-TADOC (NVM, phase-level persistence)
//! and the theoretical upper bound, TADOC on pure DRAM.
//!
//! Paper: N-TADOC is 1.59× slower on average; word count is the worst
//! task (2.26×), the smallest dataset A shows the largest gap (1.55×
//! average), and the gap narrows as datasets grow — read it off the
//! matrix's per-dataset geomean row.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let avg = h.run_and_emit(
        em,
        "Figure 6 — N-TADOC slowdown vs TADOC on DRAM",
        "slowdown",
        "slowdown_geomean",
        &Task::ALL,
        |spec, task| {
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
        },
    );
    println!("\nmeasured average: {avg:.2}x   (paper: avg 1.59x; word count worst at 2.26x)");
}
