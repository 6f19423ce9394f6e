//! `ntadoc-bench report [--gate [name…]]`: the one writer of the
//! evaluation's record. Every `*.json` under `target/experiments/` must
//! satisfy the version-1 experiment schema, name a registered experiment
//! (no other document may name it too), and share one `meta.scale` with
//! the rest; any violation fails the run, naming the files. The documents
//! are rendered into `target/experiments/REPORT.md`, whose scale-1 form is
//! committed as `RESULTS.md`, under a verdict table that holds each of the
//! paper's numbers (`PAPER`, the only place they are written) against its
//! headline; with `--gate` they are then checked against [`GATES`]. Run the
//! experiments first, then this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::iter::once;
use std::path::Path;

use ntadoc_pmem::Json;

use crate::experiments::REGISTRY;
use crate::gates::{evaluate, GATES};
use crate::{geomean, mean, validate_document, EXPERIMENTS_DIR, SCHEMA_VERSION};

/// Row fields ending in this are host wall-clock time. They differ
/// between any two runs, so the record never renders them.
const WALL_SUFFIX: &str = "wall_ms";

/// What a number is: how a summary folds it, how it prints, and where a
/// measurement of no effect lies.
#[derive(Clone, Copy)]
enum Unit {
    /// A ratio (speedup, slowdown, overhead): geomean, `2.20×`, no effect 1.
    Times,
    /// A fraction (a saving): arithmetic mean, `57.2 %`, no effect 0.
    Percent,
}

impl Unit {
    fn fold(self, xs: &[f64]) -> f64 {
        match self {
            Unit::Times => geomean(xs),
            Unit::Percent => mean(xs),
        }
    }

    fn show(self, x: f64) -> String {
        match self {
            Unit::Times => format!("{x:.2}×"),
            Unit::Percent => format!("{:.1} %", x * 100.0),
        }
    }

    fn no_effect(self) -> f64 {
        match self {
            Unit::Times => 1.0,
            Unit::Percent => 0.0,
        }
    }
}

/// The summary matrices: `(experiment, value field, group field, unit)`;
/// see [`summary`].
const SUMMARIES: &[(&str, &str, Option<&str>, Unit)] = &[
    ("fig5", "speedup", Some("panel"), Unit::Times),
    ("fig6", "slowdown", None, Unit::Times),
    ("fig7", "speedup", Some("device"), Unit::Times),
    ("table2", "init_speedup", None, Unit::Times),
    ("table2", "traversal_speedup", None, Unit::Times),
    ("dram_savings", "saving", None, Unit::Percent),
    ("naive_overhead", "overhead", None, Unit::Times),
    ("cross_eval", "speedup", None, Unit::Times),
];

/// The paper's dataset B file count (Table I), where `traversal_opt` reads
/// its fit of the top-down/bottom-up ratio.
pub const PAPER_B_FILES: f64 = 134_631.0;

/// What the paper reports, for the experiments where it gives a figure:
/// the figure in words, and each number the verdict table compares with a
/// headline of the experiment's document.
const PAPER: &[Paper] = &[
    Paper {
        experiment: "table1",
        says: "files / rules / vocabulary: A 1 / 36,882 / 240,552; B 134,631 / 2,771,880 / \
        1,864,902; C 4 / 2,095,573 / 6,370,437; D 109 / 57,394,616 / 99,239,057",
        numbers: &[],
    },
    Paper {
        experiment: "fig5",
        says: "(a) phase-level 2.04× average, (b) operation-level 1.40× average",
        numbers: &[
            times("Fig. 5(a)", "speedup_geomean_phase", 2.04),
            times("Fig. 5(b)", "speedup_geomean_op", 1.40),
            times("Fig. 5(b) over 5(a)", "op_over_phase_speedup", 1.40 / 2.04),
        ],
    },
    Paper {
        experiment: "fig6",
        says: "1.59× slower on average; word count worst at 2.26×; A the largest gap at 1.55×; \
        the gap narrows as datasets grow",
        numbers: &[times("Fig. 6", "slowdown_geomean", 1.59)],
    },
    Paper {
        experiment: "fig7",
        says: "1.87× average over SSD, 2.92× over HDD",
        numbers: &[
            times("Fig. 7, SSD", "ssd_speedup_geomean", 1.87),
            times("Fig. 7, HDD", "hdd_speedup_geomean", 2.92),
        ],
    },
    Paper {
        experiment: "table2",
        says: "phase speedups (init / traversal): C 1.96× / 2.53×, D 1.23× / 2.87×",
        numbers: &[
            times("Table II C, init", "init_speedup_C", 1.96),
            times("Table II C, traversal", "traversal_speedup_C", 2.53),
            times("Table II D, init", "init_speedup_D", 1.23),
            times("Table II D, traversal", "traversal_speedup_D", 2.87),
        ],
    },
    Paper {
        experiment: "dram_savings",
        says: "70.7 % average (A 65.6 %, B 70.7 %, C 72.2 %, D 74.3 %); word count \
        saves the most (79.8 %), sequence count the least (60.7 %)",
        numbers: &[percent("§VI-C", "saving_mean", 0.707)],
    },
    Paper {
        experiment: "traversal_opt",
        says: "top-down ~1000× slower at 134,631 files",
        numbers: &[times("§VI-E, extrapolated to 134,631 files", "ratio_at_paper_files", 1000.0)],
    },
    Paper {
        experiment: "naive_overhead",
        says: "13.37×",
        numbers: &[times("§III-B", "overhead_geomean", 13.37)],
    },
    Paper {
        experiment: "cross_eval",
        says: "~5×",
        numbers: &[times("§VI-F", "speedup_geomean", 5.0)],
    },
];

/// What the paper reports for one experiment.
struct Paper {
    experiment: &'static str,
    /// The figure in words, rendered under the experiment's heading.
    says: &'static str,
    /// The numbers the verdict table compares with headlines.
    numbers: &'static [Number],
}

/// One of the paper's numbers and the headline it is compared with.
struct Number {
    /// Where the paper gives it: the verdict table's first column.
    claim: &'static str,
    /// Member of the experiment document's `headline` object.
    headline: &'static str,
    paper: f64,
    unit: Unit,
}

const fn times(claim: &'static str, headline: &'static str, paper: f64) -> Number {
    Number { claim, headline, paper, unit: Unit::Times }
}

const fn percent(claim: &'static str, headline: &'static str, paper: f64) -> Number {
    Number { claim, headline, paper, unit: Unit::Percent }
}

/// The verdict rule's one constant: a measurement within this factor of
/// the paper's number agrees with it.
const BAND: f64 = 1.5;

/// The verdict on `measured` against the paper's `paper`, r being their
/// quotient: ✅ when r is within a factor of [`BAND`] of 1; ↗ (↘) when r
/// is above (below) that but within a factor of `BAND²`, and `measured`
/// lies on the paper's side of `no_effect`; ⚠️ otherwise.
fn verdict(paper: f64, measured: f64, no_effect: f64) -> &'static str {
    let r = measured / paper;
    let same_side = (measured - no_effect) * (paper - no_effect) > 0.0;
    if (1.0 / BAND..=BAND).contains(&r) {
        "✅"
    } else if same_side && r > BAND && r <= BAND * BAND {
        "↗"
    } else if same_side && (1.0 / (BAND * BAND)..1.0 / BAND).contains(&r) {
        "↘"
    } else {
        "⚠️"
    }
}

/// Every emitted document under `dir`, parsed and schema-checked, then
/// checked as one record (see [`record`]). No directory means no
/// documents.
fn load(dir: &Path) -> Result<BTreeMap<String, Json>, String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(BTreeMap::new()) };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut found = Vec::new();
    let mut violations = Vec::new();
    for path in paths {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("not JSON: {e}")))
            .and_then(|doc| {
                validate_document(&doc).map_err(|e| format!("schema violation: {e}"))?;
                Ok(doc)
            });
        match parsed {
            Ok(doc) => found.push((path.display().to_string(), doc)),
            Err(e) => violations.push(format!("{}: {e}", path.display())),
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "[report] schema validation FAILED:\n  - {}",
            violations.join("\n  - ")
        ));
    }
    record(found)
}

/// Fold `(file, document)` pairs into one record, keyed by experiment
/// name. Fails, naming the files, when a document names an experiment
/// that is not registered (a leftover of a deleted one), when two
/// documents name the same experiment, or when the documents disagree on
/// `meta.scale` (a partial re-run at another scale).
fn record(found: Vec<(String, Json)>) -> Result<BTreeMap<String, Json>, String> {
    let mut problems = Vec::new();
    let mut docs: BTreeMap<String, (String, Json)> = BTreeMap::new();
    for (file, doc) in found {
        let name = doc.get("experiment").and_then(Json::as_str).unwrap_or_default().to_string();
        if !REGISTRY.iter().any(|e| e.name == name) {
            problems.push(format!("{file}: experiment `{name}` is not registered"));
        } else if let Some((other, _)) = docs.get(&name) {
            problems.push(format!("{other} and {file} both hold experiment `{name}`"));
        } else {
            docs.insert(name, (file, doc));
        }
    }
    let mut by_scale: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for (file, doc) in docs.values() {
        by_scale.entry(scale_of(doc)).or_default().push(file);
    }
    if by_scale.len() > 1 {
        let groups: Vec<String> = by_scale
            .iter()
            .map(|(scale, files)| format!("scale {scale} in {}", files.join(", ")))
            .collect();
        problems.push(format!("documents disagree on meta.scale: {}", groups.join("; ")));
    }
    if !problems.is_empty() {
        return Err(format!(
            "[report] the documents do not form one record:\n  - {}",
            problems.join("\n  - ")
        ));
    }
    Ok(docs.into_iter().map(|(name, (_, doc))| (name, doc)).collect())
}

fn scale_of(doc: &Json) -> String {
    doc.get("meta").and_then(|m| m.get("scale")).map_or("(none)".to_string(), Json::compact)
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).unwrap_or_default()
}

/// The whole `report` subcommand; `Err` carries what to print before
/// exiting nonzero.
pub fn run(args: &[String]) -> Result<(), String> {
    let gate_names = match args.split_first() {
        None => None,
        Some((flag, names)) if flag == "--gate" => Some(names),
        Some((other, _)) => return Err(format!("report: unknown argument `{other}`")),
    };
    let docs = load(Path::new(EXPERIMENTS_DIR))?;
    println!(
        "[report] {} document(s) under {EXPERIMENTS_DIR} validate against schema v{SCHEMA_VERSION}",
        docs.len()
    );

    let md = render_markdown(&docs)?;
    std::fs::create_dir_all(EXPERIMENTS_DIR).expect("experiments dir");
    std::fs::write(format!("{EXPERIMENTS_DIR}/REPORT.md"), md).expect("write report");
    println!("[report] wrote {EXPERIMENTS_DIR}/REPORT.md");

    let Some(gate_names) = gate_names else { return Ok(()) };
    let verdicts = evaluate(GATES, &docs, gate_names);
    for v in &verdicts {
        println!("[gate] {v}");
    }
    match verdicts.iter().filter(|v| v.is_fail()).count() {
        0 => Ok(()),
        n => Err(format!("[gate] {n} of {} check(s) FAILED", verdicts.len())),
    }
}

/// Render the record: the verdict table (see [`verdicts`]), then for
/// every registered experiment that has a document, in registry order,
/// its `about` line, the paper's figure, every headline, its task ×
/// dataset summary if it has one, and every row without its wall-clock
/// fields. The bytes depend only on the documents' contents.
fn render_markdown(docs: &BTreeMap<String, Json>) -> Result<String, String> {
    let mut md = String::new();
    let scale = docs.values().next().map_or("(none)".to_string(), scale_of);
    let _ = writeln!(md, "# Results — the paper's evaluation, regenerated\n");
    let _ = writeln!(
        md,
        "Generated by `ntadoc-bench report` from the experiment documents of one run at \
         `NTADOC_SCALE={scale}`; do not edit by hand. Every number is virtual time or a \
         device counter, so the file reads the same at any worker count. EXPERIMENTS.md \
         says how to regenerate it and what the numbers mean.\n"
    );
    verdicts(&mut md, docs)?;
    for e in REGISTRY {
        let Some(doc) = docs.get(e.name) else { continue };
        let _ = writeln!(md, "## `{}` — {}\n", e.name, e.about);
        if let Some(paper) = PAPER.iter().find(|p| p.experiment == e.name) {
            let _ = writeln!(md, "Paper: {}.\n", paper.says);
        }
        let headline = doc.get("headline").and_then(Json::as_obj).cloned().unwrap_or_default();
        if !headline.is_empty() {
            let _ = writeln!(md, "| headline | value |\n|---|---:|");
            for (key, value) in &headline {
                line(&mut md, [format!("`{}.{key}`", e.name), cell(value)]);
            }
            md.push('\n');
        }
        for &(_, field, group, unit) in SUMMARIES.iter().filter(|s| s.0 == e.name) {
            summary(&mut md, rows(doc), field, group, unit);
        }
        row_table(&mut md, rows(doc));
    }
    Ok(md)
}

/// The verdict table: each of [`PAPER`]'s numbers whose experiment has a
/// document, in `PAPER` order, against its headline. A number whose
/// document lacks the headline fails the report, as a missing gated
/// headline fails the gate.
fn verdicts(md: &mut String, docs: &BTreeMap<String, Json>) -> Result<(), String> {
    let mut table = String::new();
    for p in PAPER {
        let Some(doc) = docs.get(p.experiment) else { continue };
        for n in p.numbers {
            let measured = doc
                .get("headline")
                .and_then(|h| h.get(n.headline))
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    format!("[report] headline `{}.{}` is missing", p.experiment, n.headline)
                })?;
            line(
                &mut table,
                [
                    n.claim.to_string(),
                    format!("`{}` · `{}`", p.experiment, n.headline),
                    n.unit.show(n.paper),
                    n.unit.show(measured),
                    cell(&Json::F64(measured / n.paper)),
                    verdict(n.paper, measured, n.unit.no_effect()).to_string(),
                ],
            );
        }
    }
    if table.is_empty() {
        return Ok(());
    }
    let _ = writeln!(
        md,
        "## Verdicts\n\nEach of the paper's numbers against the headline it is compared with, \
         r = measured / paper: ✅ when r is within a factor of {BAND} of 1; ↗ (↘) when r is above \
         (below) that but within a factor of {}, and the measured value is on the paper's side of \
         no effect (1× for a ratio, 0 for a saving); ⚠️ otherwise.\n",
        BAND * BAND
    );
    let _ = writeln!(
        md,
        "| claim | headline | paper | measured | r | verdict |\n|---|---|---:|---:|---:|---|"
    );
    md.push_str(&table);
    md.push('\n');
    Ok(())
}

/// One task × dataset matrix of `field` per value of the `group` field
/// (one matrix when there is none): each cell folds the rows it holds, the
/// `all` column folds a task over the datasets and the `all` row a dataset
/// over the tasks. Groups, tasks and datasets keep the order of their
/// first row.
fn summary(md: &mut String, rows: &[Json], field: &str, group: Option<&str>, unit: Unit) {
    let label = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let (mut groups, mut tasks, mut datasets) = (Vec::new(), Vec::new(), Vec::new());
    let mut cells = Vec::new();
    for r in rows {
        let Some(v) = r.get(field).and_then(Json::as_f64) else { continue };
        let at =
            (group.map_or(String::new(), |g| label(r, g)), label(r, "task"), label(r, "dataset"));
        for (seen, name) in [(&mut groups, &at.0), (&mut tasks, &at.1), (&mut datasets, &at.2)] {
            if !seen.contains(name) {
                seen.push(name.clone());
            }
        }
        cells.push((at, v));
    }
    let folded = |g: &str, task: Option<&str>, dataset: Option<&str>| {
        let vs: Vec<f64> = cells
            .iter()
            .filter(|((cg, ct, cd), _)| {
                cg == g && task.is_none_or(|t| ct == t) && dataset.is_none_or(|d| cd == d)
            })
            .map(|(_, v)| *v)
            .collect();
        if vs.is_empty() {
            String::new()
        } else {
            unit.show(unit.fold(&vs))
        }
    };
    for g in &groups {
        let title = if g.is_empty() { format!("`{field}`") } else { format!("`{field}`, {g}") };
        line(md, once(title).chain(datasets.iter().cloned()).chain(once("all".to_string())));
        let _ = writeln!(md, "|---|{}", "---:|".repeat(datasets.len() + 1));
        for t in &tasks {
            let by_dataset = datasets.iter().map(|d| folded(g, Some(t), Some(d)));
            line(md, once(t.clone()).chain(by_dataset).chain(once(folded(g, Some(t), None))));
        }
        let by_dataset = datasets.iter().map(|d| folded(g, None, Some(d)));
        let all = format!("**{}**", folded(g, None, None));
        line(md, once("**all**".to_string()).chain(by_dataset).chain(once(all)));
        md.push('\n');
    }
}

/// Every row as one Markdown table: label columns (those holding a
/// string) first, then numbers, each group in name order; wall-clock
/// fields are left out.
fn row_table(md: &mut String, rows: &[Json]) {
    let mut labels = Vec::new();
    let mut numbers = Vec::new();
    for r in rows {
        for (k, v) in r.as_obj().into_iter().flatten() {
            if k.ends_with(WALL_SUFFIX) || labels.contains(k) || numbers.contains(k) {
                continue;
            }
            if matches!(v, Json::Str(_)) { &mut labels } else { &mut numbers }.push(k.clone());
        }
    }
    if rows.is_empty() {
        return;
    }
    labels.sort();
    numbers.sort();
    let columns: Vec<&String> = labels.iter().chain(&numbers).collect();
    line(md, columns.iter().map(|c| c.to_string()));
    let _ = writeln!(md, "|{}{}", "---|".repeat(labels.len()), "---:|".repeat(numbers.len()));
    for r in rows {
        line(md, columns.iter().map(|c| r.get(c).map_or(String::new(), cell)));
    }
    md.push('\n');
}

/// One Markdown table line.
fn line(md: &mut String, cells: impl IntoIterator<Item = String>) {
    md.push('|');
    for c in cells {
        let _ = write!(md, " {c} |");
    }
    md.push('\n');
}

/// A value as the record prints it: integers exactly, other numbers to
/// four significant digits, strings as they are.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::F64(x) if *x != 0.0 && x.is_finite() => {
            let magnitude = x.abs().log10().floor() as i32;
            let decimals = (3 - magnitude).max(0) as usize;
            format!("{x:.decimals$}")
        }
        other => other.compact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(experiment: &str, scale: f64, headline: &[(&str, f64)], rows: Vec<Json>) -> Json {
        Json::object([
            ("schema_version", Json::U64(SCHEMA_VERSION as u64)),
            ("experiment", Json::from(experiment)),
            ("meta", Json::object([("scale", Json::F64(scale))])),
            ("rows", Json::Arr(rows)),
            ("headline", Json::object(headline.iter().map(|&(k, v)| (k, Json::F64(v))))),
            ("reports", Json::Arr(Vec::new())),
        ])
    }

    fn row(fields: &[(&str, Json)]) -> Json {
        Json::object(fields.iter().cloned())
    }

    /// Four documents of one scale-1 run, one of them with a wall-clock
    /// field.
    fn run_of_four() -> Vec<(String, Json)> {
        let fig5_rows = ["a: phase-level", "b: operation-level"]
            .iter()
            .flat_map(|panel| {
                ["A", "B"].iter().map(move |ds| {
                    row(&[
                        ("dataset", Json::from(*ds)),
                        ("task", Json::from("word count")),
                        ("panel", Json::from(*panel)),
                        ("speedup", Json::F64(2.0)),
                    ])
                })
            })
            .collect();
        let append_rows = vec![row(&[
            ("growth_pct", Json::U64(10)),
            ("ratio", Json::F64(3.25)),
            ("append_wall_ms", Json::F64(12.5)),
        ])];
        [
            (
                "fig5",
                doc(
                    "fig5",
                    1.0,
                    &[
                        ("speedup_geomean_phase", 2.0),
                        ("speedup_geomean_op", 2.5),
                        ("op_over_phase_speedup", 1.25),
                    ],
                    fig5_rows,
                ),
            ),
            ("table1", doc("table1", 1.0, &[("compression_ratio_geomean", 7.125)], Vec::new())),
            (
                "append_bench",
                doc("append_bench", 1.0, &[("append_speedup_at_10pct", 3.25)], append_rows),
            ),
            ("layout_bench", doc("layout_bench", 1.0, &[("best_lines_ratio", 0.75)], Vec::new())),
        ]
        .into_iter()
        .map(|(name, d)| (format!("target/experiments/{name}.json"), d))
        .collect()
    }

    #[test]
    fn every_headline_renders_once_and_the_bytes_ignore_directory_order() {
        let found = run_of_four();
        let md = render_markdown(&record(found.clone()).unwrap()).unwrap();
        for (_, d) in &found {
            let name = d.get("experiment").and_then(Json::as_str).unwrap();
            for (key, value) in d.get("headline").and_then(Json::as_obj).unwrap() {
                let label = format!("`{name}.{key}`");
                assert_eq!(md.matches(&label).count(), 1, "{label} in:\n{md}");
                let line = md.lines().find(|l| l.contains(&label)).unwrap();
                assert!(line.ends_with(&format!("| {} |", cell(value))), "{line}");
            }
        }
        assert!(!md.contains("wall_ms") && !md.contains("12.50"), "a wall field leaked:\n{md}");
        for panel in ["a: phase-level", "b: operation-level"] {
            let header = format!("| `speedup`, {panel} | A | B | all |");
            assert_eq!(md.matches(&header).count(), 1, "{header} in:\n{md}");
        }

        let mut reversed = found;
        reversed.reverse();
        assert_eq!(render_markdown(&record(reversed).unwrap()).unwrap(), md);
    }

    #[test]
    fn the_verdict_table_renders_once_at_the_top() {
        let md = render_markdown(&record(run_of_four()).unwrap()).unwrap();
        assert_eq!(md.matches("## Verdicts").count(), 1, "{md}");
        assert!(md.find("## Verdicts") < md.find("## `"), "{md}");
        for (claim, v) in [("Fig. 5(a)", "✅"), ("Fig. 5(b)", "↗"), ("Fig. 5(b) over 5(a)", "⚠️")]
        {
            let row = md.lines().find(|l| l.starts_with(&format!("| {claim} |"))).unwrap();
            assert!(row.ends_with(&format!("| {v} |")), "{row}");
        }
    }

    #[test]
    fn a_paper_number_without_its_headline_fails_the_report() {
        let mut found = run_of_four();
        found[0].1 = doc("fig5", 1.0, &[("speedup_geomean_phase", 2.0)], Vec::new());
        let err = render_markdown(&record(found).unwrap()).unwrap_err();
        assert!(err.contains("`fig5.speedup_geomean_op` is missing"), "{err}");
    }

    #[test]
    fn the_band_edges_belong_to_the_inner_verdict() {
        assert_eq!(verdict(2.0, 3.0, 1.0), "✅"); // r = 3/2
        assert_eq!(verdict(3.0, 2.0, 1.0), "✅"); // r = 2/3
        assert_eq!(verdict(4.0, 9.0, 1.0), "↗"); // r = 9/4
        assert_eq!(verdict(9.0, 4.0, 1.0), "↘"); // r = 4/9
        assert_eq!(verdict(2.0, 3.001, 1.0), "↗");
        assert_eq!(verdict(3.0, 1.999, 1.0), "↘");
        assert_eq!(verdict(4.0, 9.001, 1.0), "⚠️");
        assert_eq!(verdict(9.0, 3.999, 1.0), "⚠️");
    }

    #[test]
    fn a_measurement_past_no_effect_is_a_warning_even_inside_the_outer_band() {
        // A paper slowdown measured as a speedup (r 1.78), a paper speedup
        // measured as a slowdown (r 0.58), a paper saving measured as a loss.
        assert_eq!(verdict(0.9, 1.6, 1.0), "⚠️");
        assert_eq!(verdict(1.2, 0.7, 1.0), "⚠️");
        assert_eq!(verdict(0.5, -0.4, 0.0), "⚠️");
        // The same quotients on the paper's side lean instead.
        assert_eq!(verdict(1.8, 3.2, 1.0), "↗");
        assert_eq!(verdict(0.5, 0.3, 0.0), "↘");
    }

    #[test]
    fn paper_figures_and_summaries_name_registered_experiments() {
        let names = PAPER.iter().map(|p| p.experiment).chain(SUMMARIES.iter().map(|s| s.0));
        for name in names {
            assert!(REGISTRY.iter().any(|e| e.name == name), "`{name}` is not registered");
        }
    }

    /// Mirrors `gates::every_gate_names_a_registered_experiment`, and reads
    /// the committed record for the headlines each experiment emits.
    #[test]
    fn every_paper_number_names_a_headline_its_experiment_emits() {
        const RECORD: &str = include_str!("../../../RESULTS.md");
        for p in PAPER {
            for n in p.numbers {
                let label = format!("| `{}.{}` |", p.experiment, n.headline);
                assert!(RECORD.contains(&label), "RESULTS.md has no headline {label}");
            }
        }
    }

    #[test]
    fn documents_at_two_scales_fail_naming_the_files() {
        let mut found = run_of_four();
        found[1].1 = doc("table1", 0.05, &[("compression_ratio_geomean", 6.0)], Vec::new());
        let err = record(found).unwrap_err();
        for part in ["meta.scale", "scale 0.05 in target/experiments/table1.json", "fig5.json"] {
            assert!(err.contains(part), "`{err}` does not name `{part}`");
        }
    }

    #[test]
    fn a_leftover_document_fails_naming_its_file() {
        let mut found = run_of_four();
        found.push((
            "target/experiments/serve_bench.json".to_string(),
            doc("serve_bench", 1.0, &[("word_count_speedup_at_8", 1.0)], Vec::new()),
        ));
        found.push(("target/experiments/fig5 copy.json".to_string(), found[0].1.clone()));
        let err = record(found).unwrap_err();
        for part in [
            "target/experiments/serve_bench.json: experiment `serve_bench` is not registered",
            "target/experiments/fig5.json and target/experiments/fig5 copy.json both hold",
        ] {
            assert!(err.contains(part), "`{err}` does not say `{part}`");
        }
    }

    #[test]
    fn numbers_print_integers_exactly_and_floats_to_four_digits() {
        assert_eq!(cell(&Json::U64(1_234_567)), "1234567");
        assert_eq!(cell(&Json::F64(2.203_456)), "2.203");
        assert_eq!(cell(&Json::F64(0.000_123_4)), "0.0001234");
        assert_eq!(cell(&Json::F64(98_765.4)), "98765");
        assert_eq!(cell(&Json::F64(0.0)), "0.0");
    }
}
