//! §I / §VII — write endurance: "TADOC can … decrease update frequencies
//! during analytics, thereby minimizing NVM write operations and enhancing
//! its durability" and "N-TADOC reduces the write operations on NVM during
//! text analytics tasks to improve write endurance".
//!
//! This harness quantifies the claim: media write-backs and bytes written
//! to NVM per task, N-TADOC vs the uncompressed baseline (both phase-level
//! persistence).

use crate::{geomean, print_matrix, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let specs = h.specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let mut rows_wb = Vec::new();
    let mut rows_bytes = Vec::new();
    for task in Task::ALL {
        let mut wb = Vec::new();
        let mut bytes = Vec::new();
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
        rows_wb.push((task.name(), wb));
        rows_bytes.push((task.name(), bytes));
    }
    print_matrix(
        "Endurance — baseline NVM line write-backs ÷ N-TADOC's (higher = N-TADOC writes less)",
        &names,
        &rows_wb,
    );
    print_matrix("Endurance — baseline bytes written ÷ N-TADOC's", &names, &rows_bytes);
    let all: Vec<f64> = rows_wb.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    println!(
        "\nN-TADOC performs {:.1}x fewer NVM line write-backs on average — the\n\
         §I durability argument quantified.",
        geomean(&all)
    );
    em.headline("write_back_reduction_geomean", geomean(&all));
    let all_bytes: Vec<f64> = rows_bytes.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    em.headline("bytes_written_reduction_geomean", geomean(&all_bytes));
}
