//! §VI-F cross-evaluation — N-TADOC vs TADOC in the *same* NVM
//! environment: "N-TADOC on NVM achieves a 5× speedup over TADOC on NVM."

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let avg = h.run_and_emit(
        em,
        "§VI-F — N-TADOC speedup over TADOC on NVM",
        "speedup",
        "speedup_geomean",
        &Task::ALL,
        |spec, task| {
            let comp = h.dataset(spec);
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let naive = h.run_engine(&comp, EngineConfig::naive(), Device::Nvm, task);
            Cell {
                value: naive.total_secs() / nt.total_secs(),
                fields: vec![
                    ("ntadoc_secs", Json::F64(nt.total_secs())),
                    ("tadoc_on_nvm_secs", Json::F64(naive.total_secs())),
                ],
            }
        },
    );
    println!("\nmeasured average: {avg:.2}x   (paper: ~5x)");
}
