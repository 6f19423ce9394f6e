//! The paper's evaluation as one binary: `ntadoc-bench <experiment>… |
//! all | list | report [--gate [name…]]`.
//!
//! Every table and figure is an [`experiments::Experiment`] — a name, a
//! one-line description and a `fn(&Harness, &mut Emitter)` — in the static
//! [`experiments::REGISTRY`]. The driver (`main.rs`) builds one [`Harness`]
//! per invocation, so the experiments named together share its dataset
//! cache, and one [`Emitter`] per experiment, which it finishes into a
//! versioned JSON document under `target/experiments/`. [`report`]
//! checks that those documents form one record, renders it as `REPORT.md`
//! (committed at scale 1 as `RESULTS.md`), and with `--gate` checks them
//! against the one threshold table, [`gates::GATES`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use ntadoc::{Engine, EngineConfig, RunReport, Task, UncompressedEngine};
use ntadoc_datagen::{generate, generate_compressed, DatasetSpec};
use ntadoc_grammar::Compressed;
use ntadoc_pmem::{DeviceProfile, Json};

mod emitter;
pub mod experiments;
pub mod gates;
pub mod report;

pub use emitter::{validate_document, Emitter, EXPERIMENTS_DIR, SCHEMA_VERSION};

/// Corpus scale, host core count and the dataset cache shared by every
/// experiment of one invocation.
pub struct Harness {
    scale: f64,
    cores: usize,
    cache: RefCell<HashMap<String, Arc<Compressed>>>,
}

impl Harness {
    /// The invocation's harness: the corpus scale comes from the
    /// `NTADOC_SCALE` environment variable (unset means 1.0; anything that
    /// is not a positive finite number is an error, never a silent 1.0).
    pub fn from_env() -> Result<Harness, String> {
        let scale = match std::env::var("NTADOC_SCALE") {
            Err(std::env::VarError::NotPresent) => 1.0,
            Err(e) => return Err(format!("NTADOC_SCALE: {e}")),
            Ok(text) => match text.trim().parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => v,
                _ => return Err(format!("NTADOC_SCALE must be a positive number, got `{text}`")),
            },
        };
        Ok(Harness::at_scale(scale))
    }

    /// Harness at an explicit scale (tests).
    pub fn at_scale(scale: f64) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Harness { scale, cores, cache: RefCell::new(HashMap::new()) }
    }

    /// The configured scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Hardware threads of the host; stamped into every document as
    /// `meta.cores` for the reader.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The four dataset specs at the configured scale.
    pub fn specs(&self) -> Vec<DatasetSpec> {
        DatasetSpec::all().into_iter().map(|s| s.scaled(self.scale)).collect()
    }

    /// One of the paper's corpora (`"A"`..`"D"`) at the configured scale.
    pub fn spec(&self, name: &str) -> DatasetSpec {
        self.specs().into_iter().find(|s| s.name == name).expect("corpus is one of A, B, C, D")
    }

    /// Generate the raw files of `spec` (for experiments that measure the
    /// build itself; everything else wants [`Harness::dataset`]).
    pub fn files(&self, spec: &DatasetSpec) -> Vec<(String, String)> {
        announce(spec);
        generate(spec)
    }

    /// Generate (or fetch cached) compressed corpus for `spec`.
    pub fn dataset(&self, spec: &DatasetSpec) -> Arc<Compressed> {
        let key = format!("{}-{}-{}", spec.name, spec.files, spec.tokens_per_file);
        if let Some(c) = self.cache.borrow().get(&key) {
            return c.clone();
        }
        announce(spec);
        let c = Arc::new(generate_compressed(spec));
        self.cache.borrow_mut().insert(key, c.clone());
        c
    }

    /// Run `task` on an N-TADOC-family engine and return the report.
    pub fn run_engine(
        &self,
        comp: &Compressed,
        cfg: EngineConfig,
        device: Device,
        task: Task,
    ) -> RunReport {
        let mut engine = match device {
            Device::Nvm => Engine::builder(comp.clone()).config(cfg).build(),
            Device::Dram => {
                Engine::builder(comp.clone()).config(cfg).profile(DeviceProfile::dram()).build()
            }
            Device::Ssd => Engine::builder(comp.clone()).config(cfg).ssd().build(),
            Device::Hdd => Engine::builder(comp.clone()).config(cfg).hdd().build(),
        }
        .expect("engine construction");
        engine.run(task).expect("task run");
        engine.last_report.expect("report recorded")
    }

    /// Run `task` on the uncompressed baseline (NVM) and return the report.
    pub fn run_baseline(&self, comp: &Compressed, cfg: EngineConfig, task: Task) -> RunReport {
        let mut engine = UncompressedEngine::builder(comp.clone()).config(cfg).build();
        engine.run(task).expect("baseline run");
        engine.last_report.expect("report recorded")
    }

    /// The shared tasks × datasets experiment shape: compute one
    /// [`Cell`] per `(dataset, task)` pair, record one [`Emitter`] row per
    /// cell, set the headline geomean under `headline_key`, and return it.
    ///
    /// `value_name` is the cell ratio's field name in the emitted rows
    /// (`"speedup"`, `"slowdown"`, …).
    pub fn run_and_emit(
        &self,
        em: &mut Emitter,
        value_name: &str,
        headline_key: &str,
        tasks: &[Task],
        mut cell: impl FnMut(&DatasetSpec, Task) -> Cell,
    ) -> f64 {
        let specs = self.specs();
        let mut all = Vec::new();
        for &task in tasks {
            for spec in &specs {
                let c = cell(spec, task);
                let mut fields: Vec<(String, Json)> = vec![
                    ("dataset".to_string(), Json::from(spec.name)),
                    ("task".to_string(), Json::from(task.name())),
                    (value_name.to_string(), Json::F64(c.value)),
                ];
                fields.extend(c.fields.into_iter().map(|(k, v)| (k.to_string(), v)));
                em.row(fields);
                all.push(c.value);
            }
        }
        let g = geomean(&all);
        em.headline(headline_key, g);
        g
    }
}

fn announce(spec: &DatasetSpec) {
    eprintln!(
        "[gen] dataset {} ({} files × ~{} words)…",
        spec.name, spec.files, spec.tokens_per_file
    );
}

/// One matrix cell produced by a [`Harness::run_and_emit`] closure: the
/// ratio the headline geomean folds plus any extra row fields.
pub struct Cell {
    /// The aggregated ratio.
    pub value: f64,
    /// Additional fields for the emitted row (raw timings, labels, …).
    pub fields: Vec<(&'static str, Json)>,
}

/// Target device for [`Harness::run_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Simulated Optane NVM.
    Nvm,
    /// Pure DRAM.
    Dram,
    /// Optane-class SSD with budgeted page cache.
    Ssd,
    /// SAS HDD with budgeted page cache.
    Hdd,
}

/// Geometric mean (the right average for speedup ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harness_caches_datasets() {
        let h = Harness::at_scale(0.02);
        let spec = h.specs()[0].clone();
        let a = h.dataset(&spec);
        let b = h.dataset(&spec);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn end_to_end_tiny_run() {
        let h = Harness::at_scale(0.01);
        let spec = h.specs()[0].clone();
        let comp = h.dataset(&spec);
        let nt = h.run_engine(&comp, EngineConfig::ntadoc(), Device::Nvm, Task::WordCount);
        let base = h.run_baseline(&comp, EngineConfig::ntadoc(), Task::WordCount);
        assert!(nt.total_ns() > 0 && base.total_ns() > 0);
    }
}
