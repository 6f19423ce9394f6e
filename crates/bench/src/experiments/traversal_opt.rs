//! §VI-E — traversal optimization under different workloads: top-down vs
//! bottom-up graph traversal for file-oriented tasks on dataset B (many
//! small files).
//!
//! Top-down re-walks the DAG for every file instead of caching per-rule
//! word lists on NVM, so its cost over bottom-up grows with the file
//! count. The harness sweeps B's file count and fits the ratio as a power
//! of it: `ratio_exponent` is the least-squares slope of ln ratio on ln
//! files (over the geomean ratio at each file count), and
//! `ratio_at_paper_files` is that fit read at the paper's B, far beyond
//! the sweep — an extrapolation, not a measurement.

use crate::report::PAPER_B_FILES;
use crate::{geomean, mean, Device, Emitter, Harness};
use ntadoc::{EngineConfig, Task, Traversal};
use ntadoc_datagen::DatasetSpec;
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let mut ratios = Vec::new();
    let mut points = Vec::new();
    for frac in [0.5, 1.0, 2.0, 4.0] {
        let spec = DatasetSpec::b().scaled(h.scale() * frac);
        let comp = h.dataset(&spec);
        let mut at_count = Vec::new();
        for task in [Task::TermVector, Task::InvertedIndex] {
            let mut td_cfg = EngineConfig::ntadoc();
            td_cfg.traversal = Traversal::TopDown;
            let mut bu_cfg = EngineConfig::ntadoc();
            bu_cfg.traversal = Traversal::BottomUp;
            let td = h.run_engine(&comp, td_cfg, Device::Nvm, task);
            let bu = h.run_engine(&comp, bu_cfg, Device::Nvm, task);
            let ratio = td.traversal_secs() / bu.traversal_secs();
            em.row([
                ("files", Json::U64(comp.file_count() as u64)),
                ("task", Json::from(task.name())),
                ("topdown_traversal_secs", Json::F64(td.traversal_secs())),
                ("bottomup_traversal_secs", Json::F64(bu.traversal_secs())),
                ("ratio", Json::F64(ratio)),
            ]);
            at_count.push(ratio);
        }
        points.push(((comp.file_count() as f64).ln(), geomean(&at_count).ln()));
        ratios.extend(at_count);
    }
    em.headline("ratio_geomean", geomean(&ratios));
    let (slope, at_paper) = fit_line(&points, PAPER_B_FILES.ln());
    em.headline("ratio_exponent", slope);
    em.headline("ratio_at_paper_files", at_paper.exp());
}

/// The least-squares line through `points`: its slope, and its value at `x`.
fn fit_line(points: &[(f64, f64)], x: f64) -> (f64, f64) {
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let (mx, my) = (mean(&xs), mean(&ys));
    let sxy: f64 = points.iter().map(|(px, py)| (px - mx) * (py - my)).sum();
    let sxx: f64 = xs.iter().map(|px| (px - mx).powi(2)).sum();
    let slope = sxy / sxx;
    (slope, my + slope * (x - mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fit_recovers_a_power_law_and_reads_it_off_the_sweep() {
        let points: Vec<(f64, f64)> = [1e3, 2e3, 4e3, 8e3]
            .iter()
            .map(|&f: &f64| (f.ln(), (3.0 * f.powf(0.6)).ln()))
            .collect();
        let (slope, at) = fit_line(&points, 1e5f64.ln());
        assert!((slope - 0.6).abs() < 1e-9, "{slope}");
        assert!((at.exp() - 3.0 * 1e5f64.powf(0.6)).abs() < 1e-6, "{}", at.exp());
    }
}
