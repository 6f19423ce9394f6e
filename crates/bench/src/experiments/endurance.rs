//! §I / §VII — write endurance: "TADOC can … decrease update frequencies
//! during analytics, thereby minimizing NVM write operations and enhancing
//! its durability" and "N-TADOC reduces the write operations on NVM during
//! text analytics tasks to improve write endurance".
//!
//! This harness quantifies the claim: media write-backs and bytes written
//! to NVM per task, N-TADOC vs the uncompressed baseline (both phase-level
//! persistence).

use crate::{geomean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let specs = h.specs();
    let (mut wb, mut bytes) = (Vec::new(), Vec::new());
    for task in Task::ALL {
        for spec in &specs {
            let comp = h.dataset(spec);
            let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
            let base = h.run_baseline(&comp, EngineConfig::ntadoc(), task);
            wb.push(base.stats.write_backs as f64 / nt.stats.write_backs.max(1) as f64);
            bytes.push(base.stats.bytes_written as f64 / nt.stats.bytes_written.max(1) as f64);
            em.row([
                ("dataset", Json::from(spec.name)),
                ("task", Json::from(task.name())),
                ("ntadoc_write_backs", Json::U64(nt.stats.write_backs)),
                ("baseline_write_backs", Json::U64(base.stats.write_backs)),
                ("ntadoc_bytes_written", Json::U64(nt.stats.bytes_written)),
                ("baseline_bytes_written", Json::U64(base.stats.bytes_written)),
            ]);
        }
    }
    em.headline("write_back_reduction_geomean", geomean(&wb));
    em.headline("bytes_written_reduction_geomean", geomean(&bytes));
}
