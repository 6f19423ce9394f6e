//! The one threshold table and the one function that evaluates it.
//!
//! Every performance bound the repository enforces is a row of [`GATES`];
//! `ntadoc-bench report --gate` is the only code that checks them, reading
//! the headline numbers back from the emitted documents. Experiments keep
//! their correctness asserts (equal outputs, schedule-independent virtual
//! time) and publish their headlines unjudged.

use std::collections::BTreeMap;
use std::fmt;

use ntadoc_pmem::Json;

/// How a headline value is compared with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value >= bound`
    Ge,
    /// `value > bound`
    Gt,
    /// `value <= bound`
    Le,
    /// `value == bound`
    Eq,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Ge => value >= bound,
            Cmp::Gt => value > bound,
            Cmp::Le => value <= bound,
            Cmp::Eq => value == bound,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
        })
    }
}

/// One enforced bound on one headline number.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Registered experiment whose document carries the headline.
    pub experiment: &'static str,
    /// Member of the document's `headline` object.
    pub key: &'static str,
    /// Comparison the value must satisfy against `bound`.
    pub cmp: Cmp,
    /// The threshold.
    pub bound: f64,
}

const fn gate(experiment: &'static str, key: &'static str, cmp: Cmp, bound: f64) -> Gate {
    Gate { experiment, key, cmp, bound }
}

/// Every bound the repository enforces. Each row reads a virtual-time
/// number or a device counter, so each is decided the same on any host.
pub const GATES: &[Gate] = &[
    // The modeled (virtual-lane) build speedup at W=8 chunks.
    gate("build_bench", "build_virtual_speedup", Cmp::Ge, 2.0),
    // A 10 % delta must append for less than two thirds of a rebuild.
    gate("append_bench", "append_speedup_at_10pct", Cmp::Gt, 1.5),
    // The daemon replay produced latencies at all, the hot trace keeps
    // hitting the result cache, and batching pays in device lines.
    gate("serve_load", "p50_virtual_latency_ns", Cmp::Gt, 0.0),
    gate("serve_load", "p99_virtual_latency_ns", Cmp::Gt, 0.0),
    gate("serve_load", "throughput_qps_virtual", Cmp::Gt, 0.0),
    gate("serve_load", "cache_hit_rate", Cmp::Ge, 0.3),
    gate("serve_load", "lines_touched_ratio", Cmp::Gt, 1.0),
    // Layouts are observationally identical, the `fixed` baseline anchors
    // the ratio column at exactly 1, and the winner touches at least 15 %
    // fewer lines per task.
    gate("layout_bench", "outputs_identical", Cmp::Eq, 1.0),
    gate("layout_bench", "fixed_lines_ratio", Cmp::Eq, 1.0),
    gate("layout_bench", "best_lines_ratio", Cmp::Le, 0.85),
    // Every injected crash that fired recovered to the crash-free output,
    // and the trip wiring fired at least one.
    gate("crash_sweep", "recovery_rate", Cmp::Eq, 1.0),
    gate("crash_sweep", "crashes_fired", Cmp::Gt, 0.0),
];

/// What evaluating one gate row (or looking for one named document) found.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The bound holds.
    Ok(String),
    /// The bound is violated, or the document or headline it reads is
    /// missing.
    Fail(String),
}

impl Verdict {
    /// Whether this verdict fails the gate run.
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok(m) => write!(f, "ok: {m}"),
            Verdict::Fail(m) => write!(f, "FAIL: {m}"),
        }
    }
}

/// Evaluate `gates` over the validated documents `docs` (experiment name →
/// document).
///
/// With `named` non-empty, exactly those experiments are gated, and one
/// whose document is absent — or that has no row in `gates` — fails. With
/// `named` empty, every experiment whose document is present is gated,
/// and finding no gated document at all fails: a gate run that checked
/// nothing must not pass.
pub fn evaluate(gates: &[Gate], docs: &BTreeMap<String, Json>, named: &[String]) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for name in named {
        if !gates.iter().any(|g| g.experiment == name) {
            verdicts.push(Verdict::Fail(format!("{name}: no gate is declared for it")));
        } else if !docs.contains_key(name) {
            verdicts.push(Verdict::Fail(format!("{name}: no document — run the experiment first")));
        }
    }
    let selected = |g: &&Gate| {
        docs.contains_key(g.experiment)
            && (named.is_empty() || named.iter().any(|n| n == g.experiment))
    };
    for g in gates.iter().filter(selected) {
        verdicts.push(check(g, &docs[g.experiment]));
    }
    if verdicts.is_empty() {
        verdicts.push(Verdict::Fail("no gated experiment has a document; nothing checked".into()));
    }
    verdicts
}

fn check(g: &Gate, doc: &Json) -> Verdict {
    let Gate { experiment, key, cmp, bound } = *g;
    let Some(value) = doc.get("headline").and_then(|h| h.get(key)).and_then(Json::as_f64) else {
        return Verdict::Fail(format!("{experiment}: headline `{key}` is missing"));
    };
    let claim = format!("{experiment} {key} = {value} (bound: {cmp} {bound})");
    if cmp.holds(value, bound) {
        Verdict::Ok(claim)
    } else {
        Verdict::Fail(claim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::REGISTRY;

    const TABLE: [Gate; 1] = [gate("virt", "ratio", Cmp::Gt, 1.5)];

    fn doc(headline: &[(&str, f64)]) -> Json {
        Json::object([("headline", Json::object(headline.iter().map(|&(k, v)| (k, Json::F64(v)))))])
    }

    fn docs(entries: &[(&str, Json)]) -> BTreeMap<String, Json> {
        entries.iter().map(|(n, d)| (n.to_string(), d.clone())).collect()
    }

    #[test]
    fn a_violated_bound_fails_naming_experiment_key_value_and_bound() {
        let v = evaluate(&TABLE, &docs(&[("virt", doc(&[("ratio", 1.25)]))]), &[]);
        assert_eq!(v.len(), 1);
        let Verdict::Fail(msg) = &v[0] else { panic!("expected a failure, got {:?}", v[0]) };
        for part in ["virt", "ratio", "1.25", "> 1.5"] {
            assert!(msg.contains(part), "`{msg}` does not name `{part}`");
        }
        let ok = evaluate(&TABLE, &docs(&[("virt", doc(&[("ratio", 1.75)]))]), &[]);
        assert!(matches!(ok[..], [Verdict::Ok(_)]), "{ok:?}");
    }

    #[test]
    fn a_named_experiment_without_document_or_headline_fails() {
        let named = ["virt".to_string()];
        let absent = evaluate(&TABLE, &BTreeMap::new(), &named);
        assert!(absent.iter().any(|v| v.is_fail() && v.to_string().contains("no document")));
        let keyless = evaluate(&TABLE, &docs(&[("virt", doc(&[]))]), &named);
        assert!(keyless.iter().any(|v| v.is_fail() && v.to_string().contains("`ratio`")));
        let ungated = evaluate(&TABLE, &BTreeMap::new(), &["table1".to_string()]);
        assert!(ungated.iter().any(|v| v.is_fail() && v.to_string().contains("no gate")));
        // Nothing named and nothing on disk: the run checked nothing.
        assert!(evaluate(&TABLE, &BTreeMap::new(), &[]).iter().any(Verdict::is_fail));
    }

    #[test]
    fn every_gate_names_a_registered_experiment() {
        for g in GATES {
            assert!(
                REGISTRY.iter().any(|e| e.name == g.experiment),
                "gate on `{}` names no registered experiment",
                g.experiment
            );
        }
    }
}
