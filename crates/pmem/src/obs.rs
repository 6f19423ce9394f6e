//! Observability layer: hierarchical span tracing and a metric registry.
//!
//! Every experiment in the paper's evaluation (§VI, Tables I–II,
//! Figs. 5–7) is a question about *where virtual time goes* — init vs.
//! traversal, line misses vs. write-backs, phase-level vs.
//! operation-level persistence. This module gives every layer one way to
//! answer it:
//!
//! * [`Obs::span`] records a named, nested span with the span's
//!   virtual-time and [`AccessStats`] delta (snapshots of
//!   [`SimDevice::stats`] at entry and exit);
//! * [`MetricRegistry`] holds named counters and gauges (allocation
//!   peaks, cache hit ratio, rehash counts, serve throughput) snapshotted
//!   into reports;
//! * [`SpanNode`] / [`MetricValue`] are the schema-stable JSON shapes both end
//!   up in (`RunReport` v2, the bench `Emitter` schema).
//!
//! # Determinism rule
//!
//! Spans must be opened and closed on the session's *controlling* thread
//! only. Parallel work inside a span goes through `crate::par`, which
//! defers per-item device charges into per-item sinks and folds them into
//! the global clock as a fixed-virtual-lane makespan at the barrier —
//! before the span closes. The entry/exit snapshots therefore sit at
//! schedule-independent points, and every `AccessStats` counter is a sum
//! of commutative updates, so the recorded span tree and all metric
//! values are bit-identical for any `RAYON_NUM_THREADS`.
//!
//! # Overhead
//!
//! A span costs two stats snapshots (one short lock each) — negligible
//! next to the work a span brackets — so recording is always on.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::device::SimDevice;
use crate::json::Json;
use crate::stats::AccessStats;

/// Compose a labeled span or metric name as `kind:label` — the naming
/// convention for dynamically keyed series (per-tenant serve spans,
/// per-tenant counters). Keeping the separator in one place lets report
/// consumers filter a whole family with a `starts_with("tenant:")`.
pub fn labeled(kind: &str, label: impl std::fmt::Display) -> String {
    format!("{kind}:{label}")
}

/// One recorded span: a named region of a run with its virtual-time and
/// device-counter deltas, plus the spans that nested inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name ("init", "traversal", "dag-build", …).
    pub name: String,
    /// Virtual nanoseconds elapsed inside the span (inclusive of
    /// children).
    pub virtual_ns: u64,
    /// Device-counter delta over the span (inclusive of children).
    pub stats: AccessStats,
    /// Spans opened while this one was open, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A childless span from a name and a counter delta.
    pub fn leaf(name: impl Into<String>, stats: AccessStats) -> Self {
        SpanNode { name: name.into(), virtual_ns: stats.virtual_ns, stats, children: Vec::new() }
    }

    /// Fold `other` into this span: its totals are added to this span's,
    /// and each of its children is folded into this span's child of the
    /// same name, or appended when there is none.
    fn absorb(&mut self, other: SpanNode) {
        self.virtual_ns += other.virtual_ns;
        self.stats.accumulate(&other.stats);
        for child in other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(same) => same.absorb(child),
                None => self.children.push(child),
            }
        }
    }

    /// Depth-first search for the first span named `name` (including
    /// `self`).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sum of `virtual_ns` over all direct children named `name`.
    pub fn child_ns(&self, name: &str) -> u64 {
        self.children.iter().filter(|c| c.name == name).map(|c| c.virtual_ns).sum()
    }

    /// Total number of spans in this tree (including `self`).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Serialize the tree into a [`Json`] object (`children` omitted when
    /// empty).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("virtual_ns".to_string(), Json::U64(self.virtual_ns)),
            ("stats".to_string(), self.stats.to_json()),
        ];
        if !self.children.is_empty() {
            obj.push((
                "children".to_string(),
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ));
        }
        Json::object(obj)
    }

    /// Deserialize a tree produced by [`Self::to_json`].
    pub fn from_json(v: &Json) -> Result<SpanNode, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("SpanNode: missing string `name`")?
            .to_string();
        let virtual_ns = v
            .get("virtual_ns")
            .and_then(Json::as_u64)
            .ok_or("SpanNode: missing u64 `virtual_ns`")?;
        let stats = AccessStats::from_json(v.get("stats").ok_or("SpanNode: missing `stats`")?)?;
        let children = match v.get("children") {
            None => Vec::new(),
            Some(c) => c
                .as_arr()
                .ok_or("SpanNode: `children` is not an array")?
                .iter()
                .map(SpanNode::from_json)
                .collect::<Result<_, _>>()?,
        };
        Ok(SpanNode { name, virtual_ns, stats, children })
    }

    /// Render the tree as indented `name  virtual_ns` lines (CLI
    /// `--trace-out` companion output, debugging).
    pub fn render(&self) -> String {
        fn go(node: &SpanNode, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{:indent$}{:<24} {:>14} ns  ({} reads, {} writes, {} line misses)\n",
                "",
                node.name,
                node.virtual_ns,
                node.stats.reads,
                node.stats.writes,
                node.stats.line_misses,
                indent = depth * 2
            ));
            for c in &node.children {
                go(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

/// A point-in-time metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonic count of events.
    Counter(u64),
    /// Last-written (or max-folded) measurement.
    Gauge(f64),
}

impl MetricValue {
    /// Serialize as `{"type": "counter"|"gauge", "value": …}`.
    pub fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(c) => {
                Json::object([("type", Json::from("counter")), ("value", Json::U64(*c))])
            }
            MetricValue::Gauge(g) => {
                Json::object([("type", Json::from("gauge")), ("value", Json::F64(*g))])
            }
        }
    }

    /// Deserialize a value produced by [`Self::to_json`].
    pub fn from_json(v: &Json) -> Result<MetricValue, String> {
        let value = v.get("value").ok_or("MetricValue: missing `value`")?;
        match v.get("type").and_then(Json::as_str) {
            Some("counter") => {
                Ok(MetricValue::Counter(value.as_u64().ok_or("counter value is not a u64")?))
            }
            Some("gauge") => {
                Ok(MetricValue::Gauge(value.as_f64().ok_or("gauge value is not a number")?))
            }
            other => Err(format!("MetricValue: unknown type {other:?}")),
        }
    }

    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(c) => Some(*c),
            MetricValue::Gauge(_) => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(g) => Some(*g),
            MetricValue::Counter(_) => None,
        }
    }
}

/// Snapshot form of a registry: name → value, deterministically ordered.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Serialize a snapshot as an object of [`MetricValue::to_json`] members.
pub fn metrics_to_json(snap: &MetricsSnapshot) -> Json {
    Json::object(snap.iter().map(|(k, v)| (k.clone(), v.to_json())))
}

/// Deserialize a snapshot produced by [`metrics_to_json`].
pub fn metrics_from_json(v: &Json) -> Result<MetricsSnapshot, String> {
    v.as_obj()
        .ok_or("metrics: expected an object")?
        .iter()
        .map(|(k, m)| {
            MetricValue::from_json(m).map(|mv| (k.clone(), mv)).map_err(|e| format!("{k}: {e}"))
        })
        .collect()
}

/// Thread-safe registry of named counters and gauges.
///
/// All mutators are commutative (add, max), so concurrent updates from
/// parallel workers produce the same snapshot regardless of schedule.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    values: Mutex<MetricsSnapshot>,
}

impl MetricRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.values.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the counter `name` (created at zero); returns the
    /// counter's new value.
    pub fn counter_add(&self, name: &str, delta: u64) -> u64 {
        let mut v = self.lock();
        match v.get_mut(name) {
            Some(MetricValue::Counter(c)) => {
                *c += delta;
                *c
            }
            _ => {
                v.insert(name.to_string(), MetricValue::Counter(delta));
                delta
            }
        }
    }

    /// Raise the counter `name` to at least `value` (idempotent
    /// observation of an externally tracked monotonic count — safe to
    /// re-observe at every snapshot point without double counting).
    pub fn counter_max(&self, name: &str, value: u64) {
        let mut v = self.lock();
        match v.get_mut(name) {
            Some(MetricValue::Counter(c)) if *c >= value => {}
            _ => {
                v.insert(name.to_string(), MetricValue::Counter(value));
            }
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Fold `value` into the gauge `name`, keeping the maximum (peaks).
    pub fn gauge_max(&self, name: &str, value: f64) {
        let mut v = self.lock();
        match v.get_mut(name) {
            Some(MetricValue::Gauge(g)) if *g >= value => {}
            _ => {
                v.insert(name.to_string(), MetricValue::Gauge(value));
            }
        }
    }

    /// Snapshot every metric, deterministically ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }
}

/// An open (not yet closed) span on the stack.
#[derive(Debug)]
struct OpenSpan {
    name: String,
    /// Opened by [`Obs::folded_span`].
    fold: bool,
    start: AccessStats,
    children: Vec<SpanNode>,
}

/// Per-session observability handle: a span recorder plus a metric
/// registry. Create one per run with [`Obs::new`].
#[derive(Debug, Default)]
pub struct Obs {
    /// Open spans (innermost last) and the completed roots.
    spans: Mutex<(Vec<OpenSpan>, Vec<SpanNode>)>,
    /// Companion metric registry.
    pub metrics: MetricRegistry,
}

impl Obs {
    /// A fresh handle: no spans, no metrics.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (Vec<OpenSpan>, Vec<SpanNode>)> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` inside a span named `name`, measured against `dev`.
    ///
    /// Must be called on the session's controlling thread (see the module
    /// docs for the determinism rule). The span closes even if `f`
    /// unwinds — crash-injection harnesses catch panics mid-traversal and
    /// re-enter, so an unbalanced stack would corrupt later spans.
    pub fn span<R>(&self, name: &str, dev: &SimDevice, f: impl FnOnce() -> R) -> R {
        self.open(name, false, dev, f)
    }

    /// [`span`](Self::span) for a region a long-lived session repeats
    /// without bound (a serve batch): closed as a root right after a root
    /// of the same name, it is folded into that root instead of kept: the
    /// totals add up, and so do its children's, matched by name. The tree
    /// then grows with the distinct names recorded, not with the batches
    /// served, and every total and [`SpanNode::child_ns`] reads as it would
    /// over the unfolded roots.
    pub fn folded_span<R>(&self, name: &str, dev: &SimDevice, f: impl FnOnce() -> R) -> R {
        self.open(name, true, dev, f)
    }

    fn open<R>(&self, name: &str, fold: bool, dev: &SimDevice, f: impl FnOnce() -> R) -> R {
        {
            let mut s = self.lock();
            let start = dev.stats();
            s.0.push(OpenSpan { name: name.to_string(), fold, start, children: Vec::new() });
        }
        // Close-on-drop so injected-crash unwinds keep the stack balanced.
        struct Closer<'a> {
            obs: &'a Obs,
            dev: &'a SimDevice,
        }
        impl Drop for Closer<'_> {
            fn drop(&mut self) {
                self.obs.close_top(self.dev.stats());
            }
        }
        let _closer = Closer { obs: self, dev };
        f()
    }

    /// Record an already-measured childless span at the current nesting
    /// level (for costs computed outside a closure — how a serve batch
    /// attributes each query's deferred device cost to its tenant after
    /// the parallel barrier).
    pub fn record_leaf(&self, name: &str, delta: AccessStats) {
        let node = SpanNode::leaf(name, delta);
        let mut s = self.lock();
        match s.0.last_mut() {
            Some(open) => open.children.push(node),
            None => s.1.push(node),
        }
    }

    /// Pop the innermost open span, finalize its delta against `now`, and
    /// attach it to its parent (or the completed roots).
    fn close_top(&self, now: AccessStats) {
        let mut s = self.lock();
        let Some(open) = s.0.pop() else { return };
        let delta = now.saturating_since(&open.start);
        let node = SpanNode {
            name: open.name,
            virtual_ns: delta.virtual_ns,
            stats: delta,
            children: open.children,
        };
        let (stack, roots) = &mut *s;
        match (stack.last_mut(), roots.last_mut()) {
            (Some(parent), _) => parent.children.push(node),
            (None, Some(last)) if open.fold && last.name == node.name => last.absorb(node),
            (None, _) => roots.push(node),
        }
    }

    /// Assemble the completed root spans under a synthetic root named
    /// `root_name` whose totals are the element-wise sum of its children.
    /// Does not consume the recorded spans (reports can be taken after
    /// every serve batch).
    pub fn tree(&self, root_name: &str) -> SpanNode {
        let s = self.lock();
        let children: Vec<SpanNode> = s.1.clone();
        let mut stats = AccessStats::default();
        for c in &children {
            stats.accumulate(&c.stats);
        }
        SpanNode { name: root_name.to_string(), virtual_ns: stats.virtual_ns, stats, children }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn dev() -> SimDevice {
        SimDevice::new(DeviceProfile::nvm_optane(), 1 << 20)
    }

    #[test]
    fn spans_nest_and_record_deltas() {
        let dev = dev();
        let obs = Obs::new();
        obs.span("outer", &dev, || {
            dev.charge_ns(10);
            obs.span("inner", &dev, || {
                dev.write_u64(4096, 7);
                dev.charge_ns(5);
            });
            dev.charge_ns(1);
        });
        let tree = obs.tree("run");
        assert_eq!(tree.children.len(), 1);
        let outer = &tree.children[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.stats.writes, 1);
        assert!(inner.virtual_ns >= 5);
        assert!(outer.virtual_ns >= inner.virtual_ns + 11);
        assert_eq!(tree.virtual_ns, outer.virtual_ns);
    }

    #[test]
    fn span_closes_on_unwind() {
        let dev = dev();
        let obs = Obs::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.span("doomed", &dev, || {
                dev.charge_ns(4);
                panic!("boom");
            })
        }));
        assert!(r.is_err());
        // The unwound span is closed and recorded; the stack is balanced
        // for the next span.
        obs.span("next", &dev, || dev.charge_ns(1));
        let tree = obs.tree("run");
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["doomed", "next"]);
    }

    #[test]
    fn metrics_counters_and_gauges() {
        let m = MetricRegistry::new();
        m.counter_add("hits", 2);
        m.counter_add("hits", 3);
        m.gauge_set("ratio", 0.5);
        m.gauge_max("peak", 10.0);
        m.gauge_max("peak", 4.0);
        m.counter_max("seen", 4);
        m.counter_max("seen", 4);
        m.counter_max("seen", 2);
        assert_eq!(m.snapshot()["seen"], MetricValue::Counter(4));
        let snap = m.snapshot();
        assert_eq!(snap["hits"], MetricValue::Counter(5));
        assert_eq!(snap["ratio"], MetricValue::Gauge(0.5));
        assert_eq!(snap["peak"], MetricValue::Gauge(10.0));
        assert_eq!(snap["hits"].as_counter(), Some(5));
        assert_eq!(snap["peak"].as_gauge(), Some(10.0));
    }

    #[test]
    fn labeled_spans_compose_kind_and_label() {
        assert_eq!(labeled("tenant", 7), "tenant:7");
        let dev = dev();
        let obs = Obs::new();
        obs.span(&labeled("tenant", 3), &dev, || {
            dev.charge_ns(2);
            obs.record_leaf(
                &labeled("query", "wc"),
                AccessStats { virtual_ns: 1, ..Default::default() },
            );
        });
        let tree = obs.tree("run");
        assert_eq!(tree.children[0].name, "tenant:3");
        assert_eq!(tree.children[0].children[0].name, "query:wc");
    }

    #[test]
    fn record_leaf_attaches_to_open_span() {
        let dev = dev();
        let obs = Obs::new();
        obs.span("outer", &dev, || {
            obs.record_leaf("pre-measured", AccessStats { virtual_ns: 9, ..Default::default() });
        });
        let tree = obs.tree("run");
        assert_eq!(tree.children[0].children[0].name, "pre-measured");
        assert_eq!(tree.children[0].children[0].virtual_ns, 9);
    }

    #[test]
    fn folded_spans_sum_into_one_root_per_run_of_batches() {
        let dev = dev();
        let obs = Obs::new();
        let batch = |tenants: &[(u32, u64)]| {
            obs.folded_span("batch", &dev, || {
                for &(t, ns) in tenants {
                    dev.charge_ns(ns);
                    let leaf = AccessStats { virtual_ns: ns, reads: 1, ..Default::default() };
                    obs.record_leaf(&labeled("tenant", t), leaf);
                }
            })
        };
        obs.span("init", &dev, || dev.charge_ns(5));
        batch(&[(1, 10), (2, 20)]);
        batch(&[(2, 3), (3, 4)]);
        batch(&[(1, 100)]);
        let tree = obs.tree("run");
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["init", "batch"]);
        let folded = &tree.children[1];
        assert_eq!((folded.virtual_ns, folded.stats.virtual_ns), (137, 137));
        let leaves: Vec<(&str, u64, u64)> = folded
            .children
            .iter()
            .map(|c| (c.name.as_str(), c.virtual_ns, c.stats.reads))
            .collect();
        assert_eq!(leaves, [("tenant:1", 110, 2), ("tenant:2", 23, 2), ("tenant:3", 4, 1)]);
        assert_eq!(tree.virtual_ns, 142);
        // A root of another name in between starts a new run; a plain span
        // of the folded name is never folded.
        obs.span("other", &dev, || ());
        batch(&[(1, 1)]);
        obs.span("batch", &dev, || ());
        let names: Vec<String> = obs.tree("run").children.into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["init", "batch", "other", "batch", "batch"]);
    }

    #[test]
    fn span_node_find_and_render() {
        let dev = dev();
        let obs = Obs::new();
        obs.span("init", &dev, || {
            obs.span("dag-build", &dev, || dev.charge_ns(2));
        });
        let tree = obs.tree("run");
        assert!(tree.find("dag-build").is_some());
        assert!(tree.find("nope").is_none());
        assert_eq!(tree.span_count(), 3);
        assert_eq!(tree.child_ns("init"), tree.children[0].virtual_ns);
        let text = tree.render();
        assert!(text.contains("dag-build"));
    }

    #[test]
    fn span_json_round_trips() {
        let node = SpanNode {
            name: "run".into(),
            virtual_ns: 10,
            stats: AccessStats { reads: 1, virtual_ns: 10, ..Default::default() },
            children: vec![SpanNode::leaf("init", AccessStats::default())],
        };
        let text = node.to_json().pretty();
        let back = SpanNode::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, node);
        // Childless nodes omit the `children` member entirely.
        assert!(!SpanNode::leaf("x", AccessStats::default())
            .to_json()
            .pretty()
            .contains("children"));
    }

    #[test]
    fn metrics_json_round_trips() {
        let mut snap = MetricsSnapshot::new();
        snap.insert("hits".into(), MetricValue::Counter(7));
        snap.insert("ratio".into(), MetricValue::Gauge(0.75));
        let back = metrics_from_json(&Json::parse(&metrics_to_json(&snap).pretty()).unwrap());
        assert_eq!(back.unwrap(), snap);
        let bad = Json::object([("x", Json::object([("type", "nope"), ("value", "1")]))]);
        assert!(metrics_from_json(&bad).is_err());
    }
}
