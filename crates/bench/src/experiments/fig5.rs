//! Figure 5 — N-TADOC speedup over uncompressed text analytics on NVM,
//! with (a) phase-level and (b) operation-level persistence. Both sides of
//! each ratio use the *same* persistence strategy, as in the paper.
//!
//! Paper: (a) average 2.04×, (b) average 1.40×; B's file-oriented tasks
//! (term vector, inverted index) are the moderate cases.

use crate::{Cell, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task};
use ntadoc_pmem::Json;

fn panel(
    h: &Harness,
    em: &mut Emitter,
    cfg_nt: EngineConfig,
    label: &'static str,
    headline_key: &str,
) -> f64 {
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
            Cell {
                value: base.total_secs() / nt.total_secs(),
                fields: vec![
                    ("panel", Json::from(label)),
                    ("ntadoc_secs", Json::F64(nt.total_secs())),
                    ("baseline_secs", Json::F64(base.total_secs())),
                ],
            }
        },
    )
}

pub fn run(h: &Harness, em: &mut Emitter) {
    panel(h, em, EngineConfig::ntadoc(), "a: phase-level", "speedup_geomean_phase");
    panel(h, em, EngineConfig::ntadoc_oplevel(), "b: operation-level", "speedup_geomean_op");
    println!("\npaper: (a) avg 2.04x, (b) avg 1.40x");

    // Within-engine §IV-E trade-off: operation-level must cost more than
    // phase-level for BOTH systems on every dataset. Attach the N-TADOC
    // phase-level report so the span tree behind the headline is in the
    // document.
    println!("\n== §IV-E — operation-level overhead vs phase-level (same engine) ==");
    println!("{:>8} {:>18} {:>18}", "dataset", "N-TADOC op/phase", "baseline op/phase");
    for spec in h.specs() {
        let comp = h.dataset(&spec);
        let task = Task::WordCount;
        let nt_p = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, task);
        let nt_o = h.run_engine(&comp, EngineConfig::ntadoc_oplevel(), Device::Nvm, task);
        let b_p = h.run_baseline(&comp, EngineConfig::ntadoc(), task);
        let b_o = h.run_baseline(&comp, EngineConfig::ntadoc_oplevel(), task);
        println!(
            "{:>8} {:>17.2}x {:>17.2}x",
            spec.name,
            nt_o.total_secs() / nt_p.total_secs(),
            b_o.total_secs() / b_p.total_secs()
        );
        em.attach_report(&format!("ntadoc/phase-level/{}/word count", spec.name), &nt_p);
    }
}
