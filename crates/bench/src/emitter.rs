//! The single machine-readable emission path for every experiment binary.
//!
//! Each binary builds one [`Emitter`], records rows / headline numbers /
//! full [`RunReport`]s against it, and calls [`Emitter::finish`], which
//! writes `target/experiments/<name>.json` in the versioned document
//! schema below and folds the headline into `BENCH_summary.json` at the
//! repository root. The `report` binary re-reads every emitted document,
//! validates it against the same schema, and fails on any violation.
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "experiment": "fig5",
//!   "meta":     { "scale": 1.0, "threads": 4, "report_version": 2 },
//!   "rows":     [ { "dataset": "A", "task": "word count", "speedup": 2.1 } ],
//!   "headline": { "speedup_geomean": 2.04 },
//!   "reports":  [ { "label": "ntadoc/word count", "report": { … } } ]
//! }
//! ```
//!
//! `rows` are free-form objects (each experiment's natural table shape);
//! `headline` values must be numbers (they feed the summary file);
//! `reports` entries embed complete [`RunReport`] v2 documents — span
//! tree, metric snapshot, and device [`AccessStats`] — and are deep-
//! validated through [`RunReport::from_json`].
//!
//! Schema policy: adding members never bumps `schema_version`; renaming,
//! removing, or retyping one does.
//!
//! [`AccessStats`]: ntadoc_pmem::AccessStats

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ntadoc::{RunReport, REPORT_VERSION};
use ntadoc_pmem::Json;

/// Version of the experiment document written by [`Emitter::finish`].
pub const SCHEMA_VERSION: u32 = 1;

/// Directory the per-experiment documents land in.
pub const EXPERIMENTS_DIR: &str = "target/experiments";

/// Repo-root summary file every [`Emitter::finish`] folds its headline
/// into.
pub const SUMMARY_PATH: &str = "BENCH_summary.json";

/// Accumulates one experiment's machine-readable output.
pub struct Emitter {
    name: String,
    meta: BTreeMap<String, Json>,
    rows: Vec<Json>,
    headline: BTreeMap<String, Json>,
    reports: Vec<Json>,
}

impl Emitter {
    /// Start a document for the experiment `name` (the file stem under
    /// [`EXPERIMENTS_DIR`]). Captures run metadata: the `NTADOC_SCALE`
    /// corpus scale, the worker-thread count, and the report version.
    pub fn new(name: &str) -> Emitter {
        let scale: f64 =
            std::env::var("NTADOC_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
        let mut meta = BTreeMap::new();
        meta.insert("scale".to_string(), Json::F64(scale));
        meta.insert("threads".to_string(), Json::U64(ntadoc_pmem::par::thread_count() as u64));
        meta.insert("report_version".to_string(), Json::U64(REPORT_VERSION as u64));
        Emitter {
            name: name.to_string(),
            meta,
            rows: Vec::new(),
            headline: BTreeMap::new(),
            reports: Vec::new(),
        }
    }

    /// Experiment name this emitter writes under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add or override a metadata member.
    pub fn meta(&mut self, key: &str, value: impl Into<Json>) {
        self.meta.insert(key.to_string(), value.into());
    }

    /// Append one result row (an object built from `fields`).
    pub fn row<K: Into<String>, V: Into<Json>>(
        &mut self,
        fields: impl IntoIterator<Item = (K, V)>,
    ) {
        self.rows.push(Json::object(fields));
    }

    /// Set a headline number; these feed `BENCH_summary.json`.
    pub fn headline(&mut self, key: &str, value: f64) {
        self.headline.insert(key.to_string(), Json::F64(value));
    }

    /// Set an integer headline number (kept exact, not rounded through
    /// `f64`).
    pub fn headline_u64(&mut self, key: &str, value: u64) {
        self.headline.insert(key.to_string(), Json::U64(value));
    }

    /// Embed a full run report — span tree, metric snapshot, and device
    /// access stats — under `label`.
    pub fn attach_report(&mut self, label: &str, rep: &RunReport) {
        self.reports.push(Json::object([("label", Json::from(label)), ("report", rep.to_json())]));
    }

    /// The complete document in the version-1 schema.
    pub fn document(&self) -> Json {
        Json::object([
            ("schema_version", Json::U64(SCHEMA_VERSION as u64)),
            ("experiment", Json::from(self.name.as_str())),
            ("meta", Json::Obj(self.meta.clone())),
            ("rows", Json::Arr(self.rows.clone())),
            ("headline", Json::Obj(self.headline.clone())),
            ("reports", Json::Arr(self.reports.clone())),
        ])
    }

    /// Validate, write `target/experiments/<name>.json`, fold the
    /// headline into `BENCH_summary.json`, and return the document path.
    ///
    /// Panics if the document does not satisfy its own schema — a binary
    /// must never publish JSON the `report` validator would reject.
    pub fn finish(self) -> PathBuf {
        let doc = self.document();
        if let Err(e) = validate_document(&doc) {
            panic!("emitter for '{}' produced an invalid document: {e}", self.name);
        }
        let dir = Path::new(EXPERIMENTS_DIR);
        std::fs::create_dir_all(dir).expect("create experiments dir");
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, doc.pretty()).expect("write experiment json");
        eprintln!("[json] wrote {}", path.display());
        merge_summary(&self.name, &self.meta, &self.headline);
        path
    }
}

/// Check a document against the version-1 experiment schema.
///
/// Returns a description of the first violation, or `Ok(())`.
pub fn validate_document(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("document is not an object")?;
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION as u64 => {}
        Some(v) => return Err(format!("unsupported schema_version {v} (want {SCHEMA_VERSION})")),
        None => return Err("missing or non-integer `schema_version`".to_string()),
    }
    match doc.get("experiment").and_then(Json::as_str) {
        Some(name) if !name.is_empty() => {}
        _ => return Err("missing or empty `experiment` name".to_string()),
    }
    doc.get("meta").and_then(Json::as_obj).ok_or("`meta` must be an object")?;
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("`rows` must be an array")?;
    for (i, row) in rows.iter().enumerate() {
        if row.as_obj().is_none() {
            return Err(format!("rows[{i}] is not an object"));
        }
    }
    let headline =
        doc.get("headline").and_then(Json::as_obj).ok_or("`headline` must be an object")?;
    for (k, v) in headline {
        if v.as_f64().is_none() {
            return Err(format!("headline `{k}` is not a number"));
        }
    }
    let reports = doc.get("reports").and_then(Json::as_arr).ok_or("`reports` must be an array")?;
    for (i, entry) in reports.iter().enumerate() {
        if entry.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("reports[{i}] has no string `label`"));
        }
        let rep = entry.get("report").ok_or_else(|| format!("reports[{i}] has no `report`"))?;
        RunReport::from_json(rep).map_err(|e| format!("reports[{i}].report: {e}"))?;
    }
    // Unknown extra members are allowed: the schema policy says additions
    // never bump the version.
    Ok(())
}

/// Fold one experiment's headline into the repo-root summary file.
///
/// The summary is `{ "schema_version": 1, "experiments": { <name>:
/// { "scale": …, <headline…> } } }`; a missing or unreadable existing
/// file starts fresh rather than failing the run.
fn merge_summary(name: &str, meta: &BTreeMap<String, Json>, headline: &BTreeMap<String, Json>) {
    let mut entry = headline.clone();
    if let Some(scale) = meta.get("scale") {
        entry.insert("scale".to_string(), scale.clone());
    }
    merge_summary_entries(Path::new(SUMMARY_PATH), [(name.to_string(), Json::Obj(entry))]);
    eprintln!("[json] updated {SUMMARY_PATH}");
}

/// The summary entry a validated experiment document contributes: its
/// headline members plus the run scale. This is the same shape each
/// binary's [`Emitter::finish`] folds in incrementally, so regenerating
/// an entry from the document on disk is idempotent.
pub fn summary_entry(doc: &Json) -> Json {
    let mut entry = doc.get("headline").and_then(Json::as_obj).cloned().unwrap_or_default();
    if let Some(scale) = doc.get("meta").and_then(|m| m.get("scale")) {
        entry.insert("scale".to_string(), scale.clone());
    }
    Json::Obj(entry)
}

/// Experiments whose binaries were deleted. A summary (or a stale
/// document under `target/experiments/`) written before the deletion
/// still names them, and the preserving merge below would otherwise carry
/// their headlines forward forever.
const RETIRED_EXPERIMENTS: [&str; 1] = ["bufmgr_bench"];

/// Merge experiment entries into the summary file at `path` and return
/// the written document.
///
/// Entries for experiments named in `entries` are replaced; entries
/// already recorded in the file for experiments *not* named are kept.
/// That preservation is load-bearing for the `report` binary: it only
/// sees the documents currently under `target/experiments/`, so a
/// partial re-run (one bench binary, then `report`) must not erase the
/// headlines of experiments whose documents were cleaned away — except
/// those of `RETIRED_EXPERIMENTS`, which are dropped whichever side
/// they come from. A missing or unreadable existing file starts fresh
/// rather than failing the run.
pub fn merge_summary_entries(
    path: &Path,
    entries: impl IntoIterator<Item = (String, Json)>,
) -> Json {
    let mut summary = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|j| j.as_obj().cloned())
        .unwrap_or_default();
    summary.insert("schema_version".to_string(), Json::U64(SCHEMA_VERSION as u64));
    let mut experiments =
        summary.get("experiments").and_then(Json::as_obj).cloned().unwrap_or_default();
    for (name, entry) in entries {
        experiments.insert(name, entry);
    }
    experiments.retain(|name, _| !RETIRED_EXPERIMENTS.contains(&name.as_str()));
    summary.insert("experiments".to_string(), Json::Obj(experiments));
    let doc = Json::Obj(summary);
    std::fs::write(path, doc.pretty()).expect("write bench summary");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Emitter {
        let mut em = Emitter::new("unit");
        em.row([("dataset", Json::from("A")), ("speedup", Json::F64(2.0))]);
        em.headline("speedup_geomean", 2.0);
        em.headline_u64("cells", 1);
        em
    }

    #[test]
    fn document_validates_against_own_schema() {
        assert_eq!(validate_document(&doc().document()), Ok(()));
    }

    #[test]
    fn version_and_shape_violations_are_caught() {
        let em = doc();
        let mut d = em.document();
        if let Json::Obj(m) = &mut d {
            m.insert("schema_version".to_string(), Json::U64(99));
        }
        assert!(validate_document(&d).unwrap_err().contains("schema_version"));

        let mut d = em.document();
        if let Json::Obj(m) = &mut d {
            m.insert("rows".to_string(), Json::Arr(vec![Json::U64(1)]));
        }
        assert!(validate_document(&d).unwrap_err().contains("rows[0]"));

        let mut d = em.document();
        if let Json::Obj(m) = &mut d {
            m.insert("headline".to_string(), Json::object([("x", Json::from("not a number"))]));
        }
        assert!(validate_document(&d).unwrap_err().contains("headline"));
    }

    #[test]
    fn attached_reports_are_deep_validated() {
        let mut em = doc();
        // A hand-built reports entry whose report is not a valid v2
        // document must be rejected.
        em.reports.push(Json::object([
            ("label", Json::from("bogus")),
            ("report", Json::object([("version", Json::U64(1))])),
        ]));
        let err = validate_document(&em.document()).unwrap_err();
        assert!(err.contains("reports[0]"), "{err}");
    }

    #[test]
    fn document_round_trips_through_text() {
        let d = doc().document();
        let parsed = Json::parse(&d.pretty()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(validate_document(&parsed), Ok(()));
    }

    /// Regression: regenerating the summary from a subset of documents
    /// (e.g. `report` run after only one bench binary) must keep the
    /// previously recorded experiments, not rebuild from scratch.
    #[test]
    fn partial_regeneration_preserves_existing_experiments() {
        let dir = std::env::temp_dir().join(format!("ntadoc-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_summary.json");

        // A summary left over from before `bufmgr_bench` was deleted...
        let stale = r#"{"schema_version":1,"experiments":{"bufmgr_bench":{"dram_hit_rate":0.86}}}"#;
        std::fs::write(&path, stale).unwrap();

        // ...gains two experiments' headlines.
        merge_summary_entries(
            &path,
            [
                ("fig5".to_string(), Json::object([("speedup_geomean", Json::F64(2.0))])),
                ("fig6".to_string(), Json::object([("slowdown_geomean", Json::F64(1.5))])),
            ],
        );

        // A later partial run re-records only fig5 (new value) plus a
        // brand-new experiment; fig6's document was not regenerated.
        let merged = merge_summary_entries(
            &path,
            [
                ("fig5".to_string(), Json::object([("speedup_geomean", Json::F64(2.2))])),
                ("layout_bench".to_string(), Json::object([("lines_saved", Json::F64(0.2))])),
            ],
        );

        let exps = merged.get("experiments").and_then(Json::as_obj).unwrap();
        assert_eq!(exps.len(), 3, "fig6 must survive the partial regeneration");
        assert!(!exps.contains_key("bufmgr_bench"), "a retired experiment must not resurrect");
        assert_eq!(
            exps["fig5"].get("speedup_geomean").and_then(Json::as_f64),
            Some(2.2),
            "re-run experiments take the fresh value"
        );
        assert_eq!(exps["fig6"].get("slowdown_geomean").and_then(Json::as_f64), Some(1.5));
        assert!(exps.contains_key("layout_bench"));
        assert_eq!(merged.get("schema_version").and_then(Json::as_u64), Some(1));

        // The on-disk file matches what was returned.
        let reread = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(reread, merged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_entry_extracts_headline_and_scale() {
        let mut em = doc();
        em.meta("scale", Json::F64(0.5));
        let entry = summary_entry(&em.document());
        assert_eq!(entry.get("speedup_geomean").and_then(Json::as_f64), Some(2.0));
        assert_eq!(entry.get("scale").and_then(Json::as_f64), Some(0.5));
    }
}
