//! Ablation — the three design points of §IV, switched off one at a time
//! on dataset C:
//!
//! * no pruning (raw ordered bodies, per-occurrence traversal, hash-based
//!   accumulation),
//! * no adjacent layout (scattered rule placement + per-object allocator),
//! * no pre-sizing (growable containers; reconstruction storms).
//!
//! This experiment is not in the paper as a figure; it quantifies the
//! DESIGN.md design-choice claims individually.

use crate::{geomean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let comp = h.dataset(&h.spec("C"));

    let variants: Vec<(&str, EngineConfig)> = vec![
        ("full N-TADOC", EngineConfig::ntadoc()),
        ("no pruning", EngineConfig { pruned: false, ..EngineConfig::ntadoc() }),
        ("no adjacent layout", EngineConfig { adjacent_layout: false, ..EngineConfig::ntadoc() }),
        ("no pre-sizing", EngineConfig { presize: false, ..EngineConfig::ntadoc() }),
        ("none (naive)", EngineConfig::naive()),
    ];

    let tasks = [Task::WordCount, Task::TermVector, Task::SequenceCount, Task::RankedInvertedIndex];
    let full: Vec<f64> = tasks
        .iter()
        .map(|&t| h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, t).total_secs())
        .collect();

    for (name, cfg) in &variants {
        let mut vals = Vec::new();
        for (i, &task) in tasks.iter().enumerate() {
            let rep = h.run_engine(&comp, cfg.clone(), Device::Nvm, task);
            let slowdown = rep.total_secs() / full[i];
            em.row([
                ("variant", Json::from(*name)),
                ("task", Json::from(task.name())),
                ("secs", Json::F64(rep.total_secs())),
                ("slowdown_vs_full", Json::F64(slowdown)),
            ]);
            vals.push(slowdown);
        }
        em.headline(&format!("{}_slowdown_geomean", name.replace(' ', "_")), geomean(&vals));
    }
}
