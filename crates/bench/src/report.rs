//! `ntadoc-bench report [--gate [name…]]`: validate and aggregate the
//! documents under `target/experiments/`. Every `*.json` there must
//! satisfy the version-1 experiment schema (any violation fails the
//! run — CI's schema gate); the rows are folded into one Markdown summary
//! (`target/experiments/REPORT.md`); the headline numbers of the
//! registered experiments are written to `BENCH_summary.json` at the
//! repository root — this is that file's only writer; and with `--gate`
//! the documents are checked against [`GATES`]. Run the experiments
//! first, then this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ntadoc_pmem::Json;

use crate::experiments::REGISTRY;
use crate::gates::{evaluate, GATES};
use crate::{geomean, validate_document, EXPERIMENTS_DIR, SCHEMA_VERSION};

/// Repo-root file holding every registered experiment's latest headline.
pub const SUMMARY_PATH: &str = "BENCH_summary.json";

/// Load, parse, and schema-validate every emitted document.
///
/// Returns `experiment name → document`, or the list of violations.
fn load_all() -> Result<BTreeMap<String, Json>, Vec<String>> {
    let mut docs = BTreeMap::new();
    let mut violations = Vec::new();
    let entries = match std::fs::read_dir(EXPERIMENTS_DIR) {
        Ok(e) => e,
        Err(_) => return Ok(docs), // nothing emitted yet
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                violations.push(format!("{}: unreadable: {e}", path.display()));
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                violations.push(format!("{}: not JSON: {e}", path.display()));
                continue;
            }
        };
        if let Err(e) = validate_document(&doc) {
            violations.push(format!("{}: schema violation: {e}", path.display()));
            continue;
        }
        let name = doc.get("experiment").and_then(Json::as_str).unwrap_or_default().to_string();
        docs.insert(name, doc);
    }
    if violations.is_empty() {
        Ok(docs)
    } else {
        Err(violations)
    }
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).unwrap_or_default()
}

/// Pull a named ratio column out of a row list and geomean it per task.
fn per_task_geomean(rows: &[Json], field: &str) -> BTreeMap<String, f64> {
    let mut by_task: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in rows {
        if let (Some(task), Some(v)) =
            (r.get("task").and_then(Json::as_str), r.get(field).and_then(Json::as_f64))
        {
            by_task.entry(task.to_string()).or_default().push(v);
        }
    }
    by_task.into_iter().map(|(t, v)| (t, geomean(&v))).collect()
}

fn all_ratios(rows: &[Json], field: &str) -> Vec<f64> {
    rows.iter().filter_map(|r| r.get(field).and_then(Json::as_f64)).collect()
}

/// The whole `report` subcommand; `Err` carries what to print before
/// exiting nonzero.
pub fn run(args: &[String]) -> Result<(), String> {
    let gate_names = match args.split_first() {
        None => None,
        Some((flag, names)) if flag == "--gate" => Some(names),
        Some((other, _)) => return Err(format!("report: unknown argument `{other}`")),
    };
    let docs = load_all().map_err(|violations| {
        format!("[report] schema validation FAILED:\n  - {}", violations.join("\n  - "))
    })?;
    println!(
        "[report] {} document(s) under {EXPERIMENTS_DIR} validate against schema v{SCHEMA_VERSION}",
        docs.len()
    );

    let md = render_markdown(&docs);
    std::fs::create_dir_all(EXPERIMENTS_DIR).expect("experiments dir");
    std::fs::write(format!("{EXPERIMENTS_DIR}/REPORT.md"), &md).expect("write report");
    println!("{md}");
    eprintln!("[report] wrote {EXPERIMENTS_DIR}/REPORT.md");

    let registered: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    write_summary(Path::new(SUMMARY_PATH), &docs, &registered);
    eprintln!("[report] wrote {SUMMARY_PATH}");

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

/// Fold the documents' rows into the Markdown summary.
fn render_markdown(docs: &BTreeMap<String, Json>) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Experiment report (auto-generated)\n");
    let _ = writeln!(md, "Regenerate with `ntadoc-bench all`, then `ntadoc-bench report`.\n");

    if let Some(doc) = docs.get("table1") {
        let _ = writeln!(md, "## Table I — datasets\n");
        let _ = writeln!(md, "| dataset | files | rules | vocabulary | words | ratio |");
        let _ = writeln!(md, "|---|---|---|---|---|---|");
        for r in rows(doc) {
            let cell = |k: &str| r.get(k).map(|v| v.compact()).unwrap_or_else(|| "?".to_string());
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {:.2}x |",
                r.get("dataset").and_then(Json::as_str).unwrap_or("?"),
                cell("files"),
                cell("rules"),
                cell("vocabulary"),
                cell("words"),
                r.get("compression_ratio").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
        let _ = writeln!(md);
    }

    for (name, field, title, paper) in [
        ("fig5", "speedup", "Figure 5 — speedup over uncompressed on NVM", "2.04x (a) / 1.40x (b)"),
        ("fig6", "slowdown", "Figure 6 — slowdown vs TADOC on DRAM", "1.59x"),
        ("fig7", "speedup", "Figure 7 — NVM speedup over SSD/HDD", "1.87x / 2.92x"),
        ("naive_overhead", "overhead", "§III-B — naive port overhead", "13.37x"),
        ("cross_eval", "speedup", "§VI-F — N-TADOC over TADOC on NVM", "~5x"),
    ] {
        if let Some(doc) = docs.get(name) {
            let rows = rows(doc);
            let _ = writeln!(md, "## {title}\n");
            let _ = writeln!(md, "Paper: {paper}. Measured per task (geomean over datasets):\n");
            let _ = writeln!(md, "| task | measured |");
            let _ = writeln!(md, "|---|---|");
            for (task, v) in per_task_geomean(rows, field) {
                let _ = writeln!(md, "| {task} | {v:.2}x |");
            }
            let _ =
                writeln!(md, "| **overall** | **{:.2}x** |\n", geomean(&all_ratios(rows, field)));
        }
    }

    if let Some(doc) = docs.get("dram_savings") {
        let _ = writeln!(md, "## §VI-C — DRAM savings (paper: 70.7% avg)\n");
        let _ = writeln!(md, "| task | measured saving |");
        let _ = writeln!(md, "|---|---|");
        let mut by_task: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in rows(doc) {
            if let (Some(t), Some(s)) =
                (r.get("task").and_then(Json::as_str), r.get("saving").and_then(Json::as_f64))
            {
                by_task.entry(t.to_string()).or_default().push(s);
            }
        }
        let mut all = Vec::new();
        for (t, v) in by_task {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            all.extend(v);
            let _ = writeln!(md, "| {t} | {:.1}% |", m * 100.0);
        }
        let _ = writeln!(
            md,
            "| **overall** | **{:.1}%** |\n",
            all.iter().sum::<f64>() / all.len().max(1) as f64 * 100.0
        );
    }

    if let Some(doc) = docs.get("traversal_opt") {
        let _ =
            writeln!(md, "## §VI-E — top-down vs bottom-up on B (paper: ~1000x at 134k files)\n");
        let _ = writeln!(md, "| files | task | ratio |");
        let _ = writeln!(md, "|---|---|---|");
        for r in rows(doc) {
            let _ = writeln!(
                md,
                "| {} | {} | {:.1}x |",
                r.get("files").and_then(Json::as_u64).unwrap_or(0),
                r.get("task").and_then(Json::as_str).unwrap_or("?"),
                r.get("ratio").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
        let _ = writeln!(md);
    }

    md
}

/// The summary entry a validated experiment document contributes: its
/// headline members plus the run scale.
fn summary_entry(doc: &Json) -> Json {
    let mut entry = doc.get("headline").and_then(Json::as_obj).cloned().unwrap_or_default();
    if let Some(scale) = doc.get("meta").and_then(|m| m.get("scale")) {
        entry.insert("scale".to_string(), scale.clone());
    }
    Json::Obj(entry)
}

/// Write the summary file at `path` — `{ "schema_version": 1,
/// "experiments": { <name>: { "scale": …, <headline…> } } }` — and return
/// the written document.
///
/// Entries of experiments in `docs` are replaced; entries the file already
/// holds for other experiments are kept, so a partial re-run (one
/// experiment, then `report`) does not erase the headlines of experiments
/// whose documents were cleaned away. Either way only names in
/// `registered` survive: an entry — or a stale document — left behind by
/// a deleted experiment is dropped. A missing or unreadable existing file
/// starts fresh rather than failing the run.
fn write_summary(path: &Path, docs: &BTreeMap<String, Json>, registered: &[&str]) -> Json {
    let mut summary = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|j| j.as_obj().cloned())
        .unwrap_or_default();
    summary.insert("schema_version".to_string(), Json::U64(SCHEMA_VERSION as u64));
    let mut experiments =
        summary.get("experiments").and_then(Json::as_obj).cloned().unwrap_or_default();
    for (name, doc) in docs {
        experiments.insert(name.clone(), summary_entry(doc));
    }
    experiments.retain(|name, _| registered.contains(&name.as_str()));
    summary.insert("experiments".to_string(), Json::Obj(experiments));
    let doc = Json::Obj(summary);
    std::fs::write(path, doc.pretty()).expect("write bench summary");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(headline: &[(&str, f64)], scale: f64) -> Json {
        Json::object([
            ("headline", Json::object(headline.iter().map(|&(k, v)| (k, Json::F64(v))))),
            ("meta", Json::object([("scale", Json::F64(scale))])),
        ])
    }

    fn docs(entries: &[(&str, Json)]) -> BTreeMap<String, Json> {
        entries.iter().map(|(n, d)| (n.to_string(), d.clone())).collect()
    }

    /// Two behaviours at once: a partial re-run (one experiment, then
    /// `report`) keeps the other registered experiments' headlines, and
    /// an entry for a name that is no longer registered is dropped,
    /// whether it comes from the old file or from a stale document.
    #[test]
    fn summary_keeps_registered_entries_and_drops_unregistered_ones() {
        let dir = std::env::temp_dir().join(format!("ntadoc-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_summary.json");
        let registered = ["fig5", "fig6", "layout_bench"];

        // A summary left over from before `bufmgr_bench` was deleted...
        let stale = r#"{"schema_version":1,"experiments":{"bufmgr_bench":{"dram_hit_rate":0.86}}}"#;
        std::fs::write(&path, stale).unwrap();

        // ...gains two experiments' headlines.
        write_summary(
            &path,
            &docs(&[
                ("fig5", doc(&[("speedup_geomean", 2.0)], 1.0)),
                ("fig6", doc(&[("slowdown_geomean", 1.5)], 1.0)),
            ]),
            &registered,
        );

        // A later partial run re-records only fig5 (new value) plus a
        // brand-new experiment and a stale document of a deleted one;
        // fig6's document was not regenerated.
        let merged = write_summary(
            &path,
            &docs(&[
                ("fig5", doc(&[("speedup_geomean", 2.2)], 0.5)),
                ("layout_bench", doc(&[("lines_saved", 0.2)], 0.5)),
                ("file_crash_sweep", doc(&[("recovery_rate", 1.0)], 0.5)),
            ]),
            &registered,
        );

        let exps = merged.get("experiments").and_then(Json::as_obj).unwrap();
        assert_eq!(exps.len(), 3, "fig6 must survive the partial regeneration");
        assert!(!exps.contains_key("bufmgr_bench"), "an unregistered entry must not survive");
        assert!(!exps.contains_key("file_crash_sweep"), "a stale document must not resurrect");
        assert_eq!(
            exps["fig5"].get("speedup_geomean").and_then(Json::as_f64),
            Some(2.2),
            "re-run experiments take the fresh value"
        );
        assert_eq!(exps["fig5"].get("scale").and_then(Json::as_f64), Some(0.5));
        assert_eq!(exps["fig6"].get("slowdown_geomean").and_then(Json::as_f64), Some(1.5));
        assert!(exps.contains_key("layout_bench"));
        assert_eq!(merged.get("schema_version").and_then(Json::as_u64), Some(1));

        // The on-disk file matches what was returned.
        let reread = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(reread, merged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
