//! The single machine-readable emission path for every experiment.
//!
//! The driver builds one [`Emitter`] per experiment; the experiment
//! records rows / headline numbers / full [`RunReport`]s against it, and
//! the driver calls [`Emitter::finish`], which writes
//! `target/experiments/<name>.json` in the versioned document schema
//! below. `ntadoc-bench report` re-reads every emitted document,
//! validates it against the same schema, fails on any violation, and
//! renders the documents into one Markdown record.
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "experiment": "fig5",
//!   "meta":     { "scale": 1.0, "cores": 8, "threads": 4, "report_version": 2 },
//!   "rows":     [ { "dataset": "A", "task": "word count", "speedup": 2.1 } ],
//!   "headline": { "speedup_geomean": 2.04 },
//!   "reports":  [ { "label": "ntadoc/word count", "report": { … } } ]
//! }
//! ```
//!
//! `rows` are free-form objects (each experiment's natural table shape);
//! a row field whose name ends in `wall_ms` is host wall-clock time, which
//! the rendered record leaves out. `headline` values must be numbers
//! (`report` renders them and `--gate` reads them);
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

use crate::Harness;

/// Version of the experiment document written by [`Emitter::finish`].
pub const SCHEMA_VERSION: u32 = 1;

/// Directory the per-experiment documents land in.
pub const EXPERIMENTS_DIR: &str = "target/experiments";

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
    /// [`EXPERIMENTS_DIR`]). Captures run metadata: the harness's corpus
    /// scale and host core count, the worker-thread count, and the report
    /// version.
    pub fn new(name: &str, harness: &Harness) -> Emitter {
        let mut meta = BTreeMap::new();
        meta.insert("scale".to_string(), Json::F64(harness.scale()));
        meta.insert("cores".to_string(), Json::U64(harness.cores() as u64));
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

    /// Set a headline number; `report` renders it and its gates read it.
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

    /// Validate, write `target/experiments/<name>.json`, and return the
    /// document path.
    ///
    /// Panics if the document does not satisfy its own schema — an
    /// experiment must never publish JSON the `report` validator would
    /// reject.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Emitter {
        let mut em = Emitter::new("unit", &Harness::at_scale(1.0));
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
}
