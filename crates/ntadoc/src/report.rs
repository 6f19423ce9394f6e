//! Per-run measurement report, version 2.
//!
//! Version 1 carried a handful of flat ad-hoc fields (`init_ns`,
//! `traversal_ns`, two peak-byte numbers). Version 2 is built from the
//! observability layer instead: a hierarchical [`SpanNode`] tree records
//! where virtual time and device traffic went (init → summation →
//! dag-build → …; traversal; serve batches), and a [`MetricsSnapshot`]
//! carries every scalar the run produced (allocation peaks, cache hit
//! rate, structure footprints, retry counts, serve throughput). The old
//! phase totals are exposed as accessor methods derived from the span
//! tree, so v1 call sites migrate by adding `()`.
//!
//! Reports serialize through [`ntadoc_pmem::Json`]; [`REPORT_VERSION`]
//! stamps the schema. Policy: additions (new spans, new metric names, new
//! object members) do not bump the version — consumers must ignore
//! unknown members; renaming or removing a member, or changing a member's
//! type, bumps it.

use ntadoc_pmem::obs::{metrics_from_json, metrics_to_json, MetricValue, MetricsSnapshot};
use ntadoc_pmem::{AccessStats, Json, SpanNode};

use crate::result::Task;

/// Schema version written into every serialized report.
pub const REPORT_VERSION: u32 = 2;

/// Metric name for the peak host-DRAM footprint (RSS proxy) gauge.
pub const METRIC_DRAM_PEAK: &str = "mem.dram_peak_bytes";
/// Metric name for the peak persistent-device footprint gauge.
pub const METRIC_DEVICE_PEAK: &str = "mem.device_peak_bytes";
/// Metric name for the front-cache hit-rate gauge.
pub const METRIC_HIT_RATE: &str = "cache.hit_rate";
/// Metric name for the counter of reads served by the deferred
/// (parallel-region) path.
pub const METRIC_DEFERRED_READS: &str = "deferred.reads";
/// Metric name for the media-retry counter ([`crate::RetryPolicy`]).
pub const METRIC_MEDIA_RETRIES: &str = "retry.media_attempts";
/// Metric name for the tasks-served counter (serve mode).
pub const METRIC_SERVE_TASKS: &str = "serve.tasks";
/// Metric name for the serve throughput gauge (tasks per virtual second).
pub const METRIC_SERVE_RATE: &str = "serve.tasks_per_vsec";

/// Everything an experiment needs to know about one task run: the span
/// tree (Table II's phase breakdown and finer), the metric registry
/// snapshot (§VI-C space metrics and more), and whole-run device
/// counters.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Task that ran.
    pub task: Task,
    /// Engine label ("N-TADOC", "TADOC", "naive-NVM", "uncompressed", …).
    pub engine: String,
    /// Device the run targeted ("NVM", "DRAM", "SSD", "HDD").
    pub device: String,
    /// Span tree rooted at `"run"`; children are the phases ("init" with
    /// its sub-steps, one "traversal" per attempt, and one "serve-batch"
    /// that consecutive serve batches fold into, with a leaf per tenant).
    pub spans: SpanNode,
    /// Metric registry snapshot at report time.
    pub metrics: MetricsSnapshot,
    /// Raw device counters for the whole run.
    pub stats: AccessStats,
    /// Hottest media lines as `(line index, write count)`, hottest first —
    /// the endurance breakdown behind `wear_stats`. Empty unless wear
    /// tracking was enabled on the device.
    pub wear_top: Vec<(u64, u64)>,
}

impl RunReport {
    /// Virtual nanoseconds spent in the initialization phase (the `"init"`
    /// children of the span tree).
    pub fn init_ns(&self) -> u64 {
        self.spans.child_ns("init")
    }

    /// Virtual nanoseconds spent after initialization: traversal attempts,
    /// result write-back, and any serve batches.
    pub fn traversal_ns(&self) -> u64 {
        self.total_ns().saturating_sub(self.init_ns())
    }

    /// Total virtual time.
    pub fn total_ns(&self) -> u64 {
        self.stats.virtual_ns
    }

    /// Total virtual time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns() as f64 / 1e9
    }

    /// Initialization phase in seconds.
    pub fn init_secs(&self) -> f64 {
        self.init_ns() as f64 / 1e9
    }

    /// Traversal phase in seconds.
    pub fn traversal_secs(&self) -> f64 {
        self.traversal_ns() as f64 / 1e9
    }

    /// The one-line summary `ntadoc run` prints on stderr: both phases on
    /// the virtual clock and the allocation peaks. Everything in it is
    /// modeled, so it repeats exactly for a corpus and a configuration —
    /// `tests/init_one_pass.rs` pins it for all six tasks.
    pub fn summary_line(&self) -> String {
        format!(
            "[{}] init {:.3} ms + traversal {:.3} ms = {:.3} ms (virtual); \
             DRAM peak {} KB, {} peak {} KB",
            self.device,
            self.init_secs() * 1e3,
            self.traversal_secs() * 1e3,
            self.total_secs() * 1e3,
            self.metric_f64(METRIC_DRAM_PEAK).unwrap_or(0.0) as u64 / 1024,
            self.device,
            self.metric_f64(METRIC_DEVICE_PEAK).unwrap_or(0.0) as u64 / 1024,
        )
    }

    /// Look up a metric as a float (gauges directly, counters widened).
    pub fn metric_f64(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name)? {
            MetricValue::Gauge(g) => Some(*g),
            MetricValue::Counter(c) => Some(*c as f64),
        }
    }

    /// Look up a counter metric.
    pub fn metric_u64(&self, name: &str) -> Option<u64> {
        self.metrics.get(name)?.as_counter()
    }

    /// Depth-first search of the span tree.
    pub fn span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.find(name)
    }

    /// Serialize into the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("version", Json::U64(self.version as u64)),
            ("task", Json::from(self.task.name())),
            ("engine", Json::from(self.engine.clone())),
            ("device", Json::from(self.device.clone())),
            ("spans", self.spans.to_json()),
            ("metrics", metrics_to_json(&self.metrics)),
            ("stats", self.stats.to_json()),
            (
                "wear_top",
                Json::Arr(
                    self.wear_top
                        .iter()
                        .map(|&(line, writes)| Json::Arr(vec![Json::U64(line), Json::U64(writes)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize a report produced by [`Self::to_json`]. Rejects
    /// documents whose `version` is not [`REPORT_VERSION`].
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let version =
            v.get("version").and_then(Json::as_u64).ok_or("RunReport: missing u64 `version`")?;
        if version != REPORT_VERSION as u64 {
            return Err(format!(
                "RunReport: unsupported schema version {version} (expected {REPORT_VERSION})"
            ));
        }
        let task_name =
            v.get("task").and_then(Json::as_str).ok_or("RunReport: missing string `task`")?;
        let task = Task::from_name(task_name)
            .ok_or_else(|| format!("RunReport: unknown task {task_name:?}"))?;
        let engine = v
            .get("engine")
            .and_then(Json::as_str)
            .ok_or("RunReport: missing string `engine`")?
            .to_string();
        let device = v
            .get("device")
            .and_then(Json::as_str)
            .ok_or("RunReport: missing string `device`")?
            .to_string();
        let spans = SpanNode::from_json(v.get("spans").ok_or("RunReport: missing `spans`")?)?;
        let metrics = metrics_from_json(v.get("metrics").ok_or("RunReport: missing `metrics`")?)?;
        let stats = AccessStats::from_json(v.get("stats").ok_or("RunReport: missing `stats`")?)?;
        let wear_top = v
            .get("wear_top")
            .and_then(Json::as_arr)
            .ok_or("RunReport: missing array `wear_top`")?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2);
                match p {
                    Some([l, w]) => match (l.as_u64(), w.as_u64()) {
                        (Some(l), Some(w)) => Ok((l, w)),
                        _ => Err("RunReport: wear_top entries must be u64 pairs".to_string()),
                    },
                    _ => Err("RunReport: wear_top entries must be 2-element arrays".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunReport {
            version: REPORT_VERSION,
            task,
            engine,
            device,
            spans,
            metrics,
            stats,
            wear_top,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let init = SpanNode {
            name: "init".into(),
            virtual_ns: 1_000_000_000,
            stats: AccessStats { reads: 5, virtual_ns: 1_000_000_000, ..Default::default() },
            children: vec![SpanNode::leaf(
                "dag-build",
                AccessStats { writes: 3, virtual_ns: 400, ..Default::default() },
            )],
        };
        let trav = SpanNode::leaf(
            "traversal",
            AccessStats { reads: 9, virtual_ns: 500_000_000, ..Default::default() },
        );
        let mut root_stats = AccessStats::default();
        root_stats.accumulate(&init.stats);
        root_stats.accumulate(&trav.stats);
        let spans = SpanNode {
            name: "run".into(),
            virtual_ns: root_stats.virtual_ns,
            stats: root_stats,
            children: vec![init, trav],
        };
        let mut metrics = MetricsSnapshot::new();
        metrics.insert(METRIC_DRAM_PEAK.into(), MetricValue::Gauge(10.0));
        metrics.insert(METRIC_DEVICE_PEAK.into(), MetricValue::Gauge(20.0));
        metrics.insert(METRIC_MEDIA_RETRIES.into(), MetricValue::Counter(2));
        RunReport {
            version: REPORT_VERSION,
            task: Task::WordCount,
            engine: "test".into(),
            device: "NVM".into(),
            spans,
            metrics,
            stats: AccessStats { virtual_ns: 1_500_000_000, ..Default::default() },
            wear_top: vec![(7, 100), (3, 40)],
        }
    }

    #[test]
    fn totals_derive_from_spans() {
        let r = sample();
        assert_eq!(r.init_ns(), 1_000_000_000);
        assert_eq!(r.traversal_ns(), 500_000_000);
        assert_eq!(r.total_ns(), 1_500_000_000);
        assert!((r.total_secs() - 1.5).abs() < 1e-12);
        assert!((r.init_secs() - 1.0).abs() < 1e-12);
        assert!((r.traversal_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metric_and_span_lookups() {
        let r = sample();
        assert_eq!(r.metric_f64(METRIC_DRAM_PEAK), Some(10.0));
        assert_eq!(r.metric_u64(METRIC_MEDIA_RETRIES), Some(2));
        assert_eq!(r.metric_u64(METRIC_DRAM_PEAK), None); // gauge, not counter
        assert_eq!(r.metric_f64("nope"), None);
        assert_eq!(r.span("dag-build").unwrap().stats.writes, 3);
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let text = r.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.task, r.task);
        assert_eq!(back.engine, r.engine);
        assert_eq!(back.device, r.device);
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.wear_top, r.wear_top);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut j = sample().to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("version".into(), Json::U64(1));
        }
        let err = RunReport::from_json(&j).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn unknown_members_are_ignored() {
        // Schema policy: additive members must not break older readers.
        let mut j = sample().to_json();
        if let Json::Obj(m) = &mut j {
            m.insert("future_member".into(), Json::from("whatever"));
        }
        assert!(RunReport::from_json(&j).is_ok());
    }
}
