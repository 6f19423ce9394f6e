//! Figure 5 — N-TADOC speedup over uncompressed text analytics on NVM,
//! with (a) phase-level and (b) operation-level persistence. Both sides of
//! each ratio use the *same* persistence strategy, as in the paper.
//!
//! `op_over_phase_speedup` is panel (b)'s geomean over panel (a)'s: how
//! the speedup moves when both engines persist per operation.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, RunReport, Task};
use ntadoc_pmem::Json;

/// One dataset's word-count cell: N-TADOC's report and the baseline's seconds.
struct WordCount {
    dataset: &'static str,
    ntadoc: RunReport,
    baseline_secs: f64,
}

/// One panel's matrix; returns its speedup geomean and its word-count
/// cells, dataset by dataset.
fn panel(
    h: &Harness,
    em: &mut Emitter,
    cfg_nt: EngineConfig,
    label: &'static str,
    headline_key: &str,
) -> (f64, Vec<WordCount>) {
    let mut word_counts = Vec::new();
    let speedup = h.run_and_emit(em, "speedup", headline_key, &Task::ALL, |spec, task| {
        let comp = h.dataset(spec);
        let nt = h.run_engine(&comp, cfg_nt.clone(), Device::Nvm, task);
        let base = h.run_baseline(&comp, cfg_nt.clone(), task);
        let cell = Cell {
            value: base.total_secs() / nt.total_secs(),
            fields: vec![
                ("panel", Json::from(label)),
                ("ntadoc_secs", Json::F64(nt.total_secs())),
                ("baseline_secs", Json::F64(base.total_secs())),
            ],
        };
        if task == Task::WordCount {
            let baseline_secs = base.total_secs();
            word_counts.push(WordCount { dataset: spec.name, ntadoc: nt, baseline_secs });
        }
        cell
    });
    (speedup, word_counts)
}

pub fn run(h: &Harness, em: &mut Emitter) {
    let (phase_speedup, phase) =
        panel(h, em, EngineConfig::ntadoc(), "a: phase-level", "speedup_geomean_phase");
    let (op_speedup, op) =
        panel(h, em, EngineConfig::ntadoc_oplevel(), "b: operation-level", "speedup_geomean_op");
    em.headline("op_over_phase_speedup", op_speedup / phase_speedup);

    // Within-engine §IV-E trade-off: operation-level must cost more than
    // phase-level for BOTH systems on every dataset, read off the two
    // panels' word-count cells. Attach panel (a)'s N-TADOC report so the
    // span tree behind the headline is in the document.
    for (p, o) in phase.iter().zip(&op) {
        let ntadoc = o.ntadoc.total_secs() / p.ntadoc.total_secs();
        let baseline = o.baseline_secs / p.baseline_secs;
        em.headline(&format!("word_count_op_over_phase_ntadoc_{}", p.dataset), ntadoc);
        em.headline(&format!("word_count_op_over_phase_baseline_{}", p.dataset), baseline);
        em.attach_report(&format!("ntadoc/phase-level/{}/word count", p.dataset), &p.ntadoc);
    }
}
