//! Figure 5 — N-TADOC speedup over uncompressed text analytics on NVM,
//! with (a) phase-level and (b) operation-level persistence. Both sides of
//! each ratio use the *same* persistence strategy, as in the paper.
//!
//! Paper: (a) average 2.04×, (b) average 1.40×; B's file-oriented tasks
//! (term vector, inverted index) are the moderate cases.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, RunReport, Task};
use ntadoc_pmem::Json;

/// One dataset's word-count cell of a panel: N-TADOC's report and the
/// baseline's seconds.
struct WordCount {
    dataset: &'static str,
    ntadoc: RunReport,
    baseline_secs: f64,
}

/// One panel's matrix; returns its word-count cells, dataset by dataset.
fn panel(
    h: &Harness,
    em: &mut Emitter,
    cfg_nt: EngineConfig,
    label: &'static str,
    headline_key: &str,
) -> Vec<WordCount> {
    let mut word_counts = Vec::new();
    h.run_and_emit(
        em,
        &format!("Figure 5({label}) — N-TADOC speedup over uncompressed on NVM"),
        "speedup",
        headline_key,
        &Task::ALL,
        |spec, task| {
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
        },
    );
    word_counts
}

pub fn run(h: &Harness, em: &mut Emitter) {
    let phase = panel(h, em, EngineConfig::ntadoc(), "a: phase-level", "speedup_geomean_phase");
    let op =
        panel(h, em, EngineConfig::ntadoc_oplevel(), "b: operation-level", "speedup_geomean_op");
    println!("\npaper: (a) avg 2.04x, (b) avg 1.40x");

    // Within-engine §IV-E trade-off: operation-level must cost more than
    // phase-level for BOTH systems on every dataset, read off the two
    // panels' word-count cells. Attach panel (a)'s N-TADOC report so the
    // span tree behind the headline is in the document.
    println!("\n== §IV-E — operation-level overhead vs phase-level (same engine) ==");
    println!("{:>8} {:>18} {:>18}", "dataset", "N-TADOC op/phase", "baseline op/phase");
    for (p, o) in phase.iter().zip(&op) {
        let ntadoc = o.ntadoc.total_secs() / p.ntadoc.total_secs();
        let baseline = o.baseline_secs / p.baseline_secs;
        println!("{:>8} {ntadoc:>17.2}x {baseline:>17.2}x", p.dataset);
        em.headline(&format!("word_count_op_over_phase_ntadoc_{}", p.dataset), ntadoc);
        em.headline(&format!("word_count_op_over_phase_baseline_{}", p.dataset), baseline);
        em.attach_report(&format!("ntadoc/phase-level/{}/word count", p.dataset), &p.ntadoc);
    }
}
