//! `ntadoc-bench report [--gate [name…]]`: the one writer of the
//! evaluation's record. Every `*.json` under `target/experiments/` must
//! satisfy the version-1 experiment schema, name a registered experiment
//! (no other document may name it too), and share one `meta.scale` with
//! the rest; any violation fails the run, naming the files. The documents
//! are rendered into `target/experiments/REPORT.md`, whose scale-1 form is
//! committed as `RESULTS.md`; with `--gate` they are then checked against
//! [`GATES`]. Run the experiments first, then this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::iter::once;
use std::path::Path;

use ntadoc_pmem::Json;

use crate::experiments::REGISTRY;
use crate::gates::{evaluate, GATES};
use crate::{geomean, mean, validate_document, EXPERIMENTS_DIR, SCHEMA_VERSION};

/// The one experiment left out of the rendered record: its outcome
/// (every fired crash recovered) is a gate, not a table.
const UNRENDERED: &str = "crash_sweep";

/// Row fields ending in this are host wall-clock time. They differ
/// between any two runs, so the record never renders them.
const WALL_SUFFIX: &str = "wall_ms";

/// How a summary matrix folds the rows of one cell.
#[derive(Clone, Copy)]
enum Fold {
    /// Geometric mean of ratios, printed as `2.20×`.
    Geomean,
    /// Arithmetic mean of fractions, printed as `57.2 %`.
    MeanPercent,
}

/// The summary matrices: `(experiment, value field, group field, fold)`;
/// see [`summary`].
const SUMMARIES: &[(&str, &str, Option<&str>, Fold)] = &[
    ("fig5", "speedup", Some("panel"), Fold::Geomean),
    ("fig6", "slowdown", None, Fold::Geomean),
    ("fig7", "speedup", Some("device"), Fold::Geomean),
    ("table2", "init_speedup", None, Fold::Geomean),
    ("table2", "traversal_speedup", None, Fold::Geomean),
    ("dram_savings", "saving", None, Fold::MeanPercent),
    ("naive_overhead", "overhead", None, Fold::Geomean),
    ("cross_eval", "speedup", None, Fold::Geomean),
];

/// What the paper reports, for the experiments where it gives a figure.
const PAPER: &[(&str, &str)] = &[
    (
        "table1",
        "files / rules / vocabulary: A 1 / 36,882 / 240,552; B 134,631 / 2,771,880 / \
        1,864,902; C 4 / 2,095,573 / 6,370,437; D 109 / 57,394,616 / 99,239,057",
    ),
    ("fig5", "(a) phase-level 2.04× average, (b) operation-level 1.40× average"),
    (
        "fig6",
        "1.59× slower on average; word count worst at 2.26×; A the largest gap at 1.55×; \
        the gap narrows as datasets grow",
    ),
    ("fig7", "1.87× average over SSD, 2.92× over HDD"),
    ("table2", "phase speedups (init / traversal): C 1.96× / 2.53×, D 1.23× / 2.87×"),
    (
        "dram_savings",
        "70.7 % average (A 65.6 %, B 70.7 %, C 72.2 %, D 74.3 %); word count \
        saves the most (79.8 %), sequence count the least (60.7 %)",
    ),
    ("traversal_opt", "top-down ~1000× slower at 134,631 files"),
    ("naive_overhead", "13.37×"),
    ("cross_eval", "~5×"),
];

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

    std::fs::create_dir_all(EXPERIMENTS_DIR).expect("experiments dir");
    std::fs::write(format!("{EXPERIMENTS_DIR}/REPORT.md"), render_markdown(&docs))
        .expect("write report");
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

/// Render the record: for every registered experiment but
/// [`UNRENDERED`] that has a document, in registry order, its `about`
/// line, the paper's figure, every headline, its task × dataset summary
/// if it has one, and every row without its wall-clock fields. The bytes depend
/// only on the documents' contents.
fn render_markdown(docs: &BTreeMap<String, Json>) -> String {
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
    for e in REGISTRY.iter().filter(|e| e.name != UNRENDERED) {
        let Some(doc) = docs.get(e.name) else { continue };
        let _ = writeln!(md, "## `{}` — {}\n", e.name, e.about);
        if let Some((_, paper)) = PAPER.iter().find(|p| p.0 == e.name) {
            let _ = writeln!(md, "Paper: {paper}.\n");
        }
        let headline = doc.get("headline").and_then(Json::as_obj).cloned().unwrap_or_default();
        if !headline.is_empty() {
            let _ = writeln!(md, "| headline | value |\n|---|---:|");
            for (key, value) in &headline {
                line(&mut md, [format!("`{}.{key}`", e.name), cell(value)]);
            }
            md.push('\n');
        }
        for &(_, field, group, fold) in SUMMARIES.iter().filter(|s| s.0 == e.name) {
            summary(&mut md, rows(doc), field, group, fold);
        }
        row_table(&mut md, rows(doc));
    }
    md
}

/// One task × dataset matrix of `field` per value of the `group` field
/// (one matrix when there is none): each cell folds the rows it holds, the
/// `all` column folds a task over the datasets and the `all` row a dataset
/// over the tasks. Groups, tasks and datasets keep the order of their
/// first row.
fn summary(md: &mut String, rows: &[Json], field: &str, group: Option<&str>, fold: Fold) {
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
        match fold {
            _ if vs.is_empty() => String::new(),
            Fold::Geomean => format!("{:.2}×", geomean(&vs)),
            Fold::MeanPercent => format!("{:.1} %", mean(&vs) * 100.0),
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
    /// field and one the renderer leaves out.
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
                    &[("speedup_geomean_phase", 2.0), ("speedup_geomean_op", 2.5)],
                    fig5_rows,
                ),
            ),
            ("table1", doc("table1", 1.0, &[("compression_ratio_geomean", 7.125)], Vec::new())),
            (
                "append_bench",
                doc("append_bench", 1.0, &[("append_speedup_at_10pct", 3.25)], append_rows),
            ),
            ("crash_sweep", doc("crash_sweep", 1.0, &[("recovery_rate", 1.0)], Vec::new())),
        ]
        .into_iter()
        .map(|(name, d)| (format!("target/experiments/{name}.json"), d))
        .collect()
    }

    #[test]
    fn every_headline_renders_once_and_the_bytes_ignore_directory_order() {
        let found = run_of_four();
        let md = render_markdown(&record(found.clone()).unwrap());
        for (_, d) in
            found.iter().filter(|(_, d)| d.get("experiment") != Some(&Json::from(UNRENDERED)))
        {
            let name = d.get("experiment").and_then(Json::as_str).unwrap();
            for (key, value) in d.get("headline").and_then(Json::as_obj).unwrap() {
                let label = format!("`{name}.{key}`");
                assert_eq!(md.matches(&label).count(), 1, "{label} in:\n{md}");
                let line = md.lines().find(|l| l.contains(&label)).unwrap();
                assert!(line.ends_with(&format!("| {} |", cell(value))), "{line}");
            }
        }
        assert!(!md.contains(UNRENDERED), "{UNRENDERED} is rendered:\n{md}");
        assert!(!md.contains("wall_ms") && !md.contains("12.50"), "a wall field leaked:\n{md}");
        for panel in ["a: phase-level", "b: operation-level"] {
            let header = format!("| `speedup`, {panel} | A | B | all |");
            assert_eq!(md.matches(&header).count(), 1, "{header} in:\n{md}");
        }

        let mut reversed = found;
        reversed.reverse();
        assert_eq!(render_markdown(&record(reversed).unwrap()), md);
    }

    #[test]
    fn paper_figures_and_summaries_name_registered_experiments() {
        let names = PAPER.iter().map(|p| p.0).chain(SUMMARIES.iter().map(|s| s.0));
        for name in names {
            assert!(REGISTRY.iter().any(|e| e.name == name), "`{name}` is not registered");
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
