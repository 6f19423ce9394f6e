//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call into a layer's public functions in a span:
//! name, start, end, the span that caused it, and the id of the operation
//! it belongs to. Spans stay in memory and are written out once, when the
//! pass ends. A span's *self time* is its duration minus the part its
//! child spans cover. The layer of a span is the first dot-separated
//! segment of its name (`grammar.serialize` → `grammar`).
//!
//! All of this sits outside the program: a span covers everything the
//! callee does, including the layers it calls into that the benchmark
//! cannot see. Spans inside the program are a later change.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use ntadoc_pmem::Json;

/// The layers a replay enters directly. `nstruct` and the `pmem` devices
/// are only ever entered from inside the engine, so seen from outside
/// their time is part of `ntadoc`'s; `pmem` is here for its JSON codec.
pub const LAYERS: [&str; 5] = ["cli", "grammar", "ntadoc", "pmem", "serve"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Which part of the pass opened the span: `stages`, `probes`, or the
    /// workload being replayed.
    pub phase: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    phase: Cell<&'static str>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            phase: Cell::new("stages"),
            op: Cell::new(0),
        }
    }

    pub fn set_phase(&self, phase: &'static str) {
        self.phase.set(phase);
    }

    /// Start a new operation; spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                phase: self.phase.get(),
                op: self.op.get(),
                parent: self.stack.borrow().last().copied(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record a span that just ended and took `took`, for a call whose span
    /// name depends on what it returned.
    pub fn span_done(&self, name: &str, took: std::time::Duration) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            phase: self.phase.get(),
            op: self.op.get(),
            parent: self.stack.borrow().last().copied(),
            start_ns: end_ns.saturating_sub(took.as_nanos() as u64),
            end_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Mean duration in ms of the spans called `name`; `NaN` if there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let durs: Vec<u64> = spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect();
        durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
    }

    /// Summed duration in ms of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }
}

/// Self time of each span: duration minus its direct children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time in ms summed per layer of [`LAYERS`], over the spans of `phase`.
pub fn layer_self_ms(spans: &[Span], phase: &str) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (s, ns) in spans.iter().zip(own) {
        if let (true, Some(ms)) = (s.phase == phase, by_layer.get_mut(s.layer())) {
            *ms += ns as f64 / 1e6;
        }
    }
    by_layer
}

/// The trace file: every span with its self time.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::object([
                    ("id", Json::from(id)),
                    ("name", Json::from(s.name.clone())),
                    ("phase", Json::from(s.phase)),
                    ("op", Json::U64(s.op)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), phase: "w", op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("cli.load_corpus", None, 0, 100),
            span("grammar.deserialize", Some(0), 10, 70),
            span("pmem.json.parse", Some(1), 20, 30),
            span("ntadoc.engine_build", None, 100, 150),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 50, 10, 50]);
        let by_layer = layer_self_ms(&spans, "w");
        assert_eq!(by_layer["cli"], 40e-6);
        assert_eq!(by_layer["grammar"], 50e-6);
        assert_eq!(by_layer["pmem"], 10e-6);
        assert_eq!(by_layer["ntadoc"], 50e-6);
        assert_eq!(by_layer["serve"], 0.0);
        assert!(layer_self_ms(&spans, "other").values().all(|&v| v == 0.0));
    }

    #[test]
    fn recorder_nests_and_tags_spans() {
        let t = Tracer::new();
        t.set_phase("w");
        t.next_op();
        let v = t.span("cli.outer", || t.span("grammar.inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[0].phase), (1, "w"));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].layer(), "cli");
    }
}
