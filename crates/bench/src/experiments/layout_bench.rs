//! Layout/id-encoding ablation: the two [`PoolLayoutConfig`] layouts
//! (`fixed`, `varint`) across the four paper corpora and the servable task
//! set. The axes that lost the 12-point version of this ablation are
//! written up in EXPERIMENTS.md.
//!
//! The figure of merit is *lines touched per task* — the traversal-phase
//! `line_misses` counter from the run's span tree, i.e. how many distinct
//! 256 B media-line fetches the task's working set cost. Densifying the id
//! streams shrinks that count; the layout must never change what a task
//! computes, so the bench asserts byte-identical outputs across both
//! layouts before publishing anything.
//!
//! Headlines (all deterministic device counters):
//! * `<layout>_lines_ratio` — geomean over (dataset, task) cells of that
//!   layout's traversal line misses relative to the `fixed` baseline,
//! * `best_lines_ratio` — the winning layout's ratio,
//! * `outputs_identical` — 1.0 once every cell matched the baseline
//!   output byte for byte.

use crate::{geomean, print_matrix, Emitter, Harness};
use ntadoc::{Engine, EngineConfig, PoolLayoutConfig, RunReport, Task, TaskOutput};
use ntadoc_grammar::Compressed;
use ntadoc_pmem::Json;

/// Traversal-phase line misses: the per-task working-set cost, excluding
/// the one-time init streaming that every layout pays.
fn traversal_lines(rep: &RunReport) -> u64 {
    rep.spans
        .find("traversal")
        .map(|s| s.stats.line_misses)
        .expect("run report must contain a traversal span")
}

fn run_layout(comp: &Compressed, layout: PoolLayoutConfig, task: Task) -> (TaskOutput, RunReport) {
    let mut engine = Engine::builder(comp.clone())
        .config(EngineConfig::ntadoc())
        .pool_layout(layout)
        .build()
        .expect("engine construction");
    let out = engine.run(task).expect("task run");
    (out, engine.last_report.expect("report recorded"))
}

pub fn run(h: &Harness, em: &mut Emitter) {
    let layouts = [PoolLayoutConfig::Fixed, PoolLayoutConfig::Varint];
    let tasks = [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];
    let specs = h.specs();

    // Baseline pass: the `fixed` (legacy) layout's outputs and per-cell
    // traversal line counts.
    let baseline = layouts[0];
    let mut base_out: Vec<TaskOutput> = Vec::new();
    let mut base_lines: Vec<u64> = Vec::new();
    for spec in &specs {
        let comp = h.dataset(spec);
        for &task in &tasks {
            let (out, rep) = run_layout(&comp, baseline, task);
            base_lines.push(traversal_lines(&rep));
            base_out.push(out);
        }
    }

    let mut matrix = Vec::new();
    let mut best: Option<(&'static str, f64)> = None;
    for &layout in &layouts {
        let mut ratios = Vec::new();
        for (si, spec) in specs.iter().enumerate() {
            let comp = h.dataset(spec);
            for (ti, &task) in tasks.iter().enumerate() {
                let cell = si * tasks.len() + ti;
                let (out, rep) = if layout == baseline {
                    // Reuse the baseline pass rather than re-running.
                    (base_out[cell].clone(), None)
                } else {
                    let (out, rep) = run_layout(&comp, layout, task);
                    (out, Some(rep))
                };
                assert_eq!(
                    out,
                    base_out[cell],
                    "layout {} changed the {} output on dataset {} — layouts must be \
                     observationally identical",
                    layout.name(),
                    task.name(),
                    spec.name
                );
                let lines = rep.as_ref().map(traversal_lines).unwrap_or(base_lines[cell]);
                // A fully cache-resident cell (zero misses either way) is
                // a 1.00 ratio, not a 0.00 that would poison the geomean.
                let ratio = lines.max(1) as f64 / base_lines[cell].max(1) as f64;
                em.row([
                    ("dataset", Json::from(spec.name)),
                    ("task", Json::from(task.name())),
                    ("layout", Json::from(layout.name())),
                    ("lines_touched", Json::U64(lines)),
                    ("lines_ratio", Json::F64(ratio)),
                ]);
                ratios.push(ratio);
            }
        }
        let g = geomean(&ratios);
        em.headline(&format!("{}_lines_ratio", layout.name()), g);
        matrix.push((layout.name(), ratios));
        if layout != baseline && best.is_none_or(|(_, b)| g < b) {
            best = Some((layout.name(), g));
        }
    }

    let names: Vec<String> = specs
        .iter()
        .flat_map(|s| tasks.iter().map(|t| format!("{}/{}", s.name, t.name())))
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    print_matrix(
        "Layout ablation — traversal lines touched, relative to fixed (1.00 = fixed)",
        &name_refs,
        &matrix,
    );

    let (best_name, best_ratio) = best.expect("at least one non-baseline layout");
    em.meta("best_layout", Json::from(best_name));
    em.headline("best_lines_ratio", best_ratio);
    em.headline("outputs_identical", 1.0);
    println!(
        "\nbest layout: {best_name} touches {:.1}% fewer lines per task than fixed",
        (1.0 - best_ratio) * 100.0
    );
}
