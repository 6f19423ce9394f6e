//! `benchmark selfcheck`: is the benchmark steady enough to judge a change?
//!
//! Every workload runs twice on the same build and seed. A wall metric may
//! differ between the two runs by no more than the bound `BENCHMARK.json`
//! gives it; an exact metric must read the same to the bit; no operation
//! may fail. The traced pass runs twice as well (its work does not depend
//! on the workload, so once is enough) and every exact per-layer number
//! must repeat. The metric names the program prints are checked against
//! `BENCHMARK.json` on the way.

use std::collections::BTreeMap;

use ntadoc_pmem::Json;

use crate::workloads::{self, Ctx, Workload};
use crate::{end_to_end_values, layers, Clock, END_TO_END};

/// `name → bound` of the `end_to_end` list and the names of `per_layer`.
fn declared() -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    // The working directory is the benchmark's own; the manifest sits above.
    let text =
        std::fs::read_to_string("../BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, &Json)>, String> {
        let list = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))?;
        list.iter()
            .map(|m| {
                Ok((
                    m.get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric without a name")?
                        .to_string(),
                    m,
                ))
            })
            .collect()
    };
    let bounds = names("end_to_end")?
        .into_iter()
        .map(|(name, m)| {
            Ok((name, m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?))
        })
        .collect::<Result<_, String>>()?;
    Ok((bounds, names("per_layer")?.into_iter().map(|(name, _)| name).collect()))
}

/// Do two sorted name lists hold the same names?
fn same_names<'a>(mut a: Vec<&'a str>, mut b: Vec<&'a str>) -> bool {
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

pub fn selfcheck(ctx: &Ctx) -> Result<bool, String> {
    let (bounds, per_layer) = declared()?;
    let mut ok = true;
    let mut complain = |what: String| {
        println!("   FAIL {what}");
        ok = false;
    };

    if !same_names(
        END_TO_END.iter().map(|m| m.0).collect(),
        bounds.keys().map(String::as_str).collect(),
    ) {
        complain("end_to_end names differ from BENCHMARK.json".to_string());
    }

    for w in Workload::ALL {
        println!("== selfcheck · {} ==", w.name());
        let mut runs = Vec::new();
        for _ in 0..2 {
            let e = workloads::end_to_end(w, ctx).map_err(|e| format!("{}: {e}", w.name()))?;
            if e.tally.failed > 0 || !e.shape_ok {
                complain(format!("{} of {} operations failed", e.tally.failed, e.tally.attempted));
            }
            runs.push(end_to_end_values(&e));
        }
        for (i, (name, unit, clock)) in END_TO_END.iter().enumerate() {
            let (a, b) = (runs[0][i], runs[1][i]);
            let diff = (a - b).abs() / a.abs().min(b.abs());
            let allowed = match clock {
                Clock::Wall => bounds.get(*name).copied().unwrap_or(0.0),
                Clock::Exact => 0.0,
            };
            println!(
                "   {name:<28} {a:>14.4} {b:>14.4} {unit:<6} differ by {:.2} % (allowed {:.0} %)",
                diff * 1e2,
                allowed * 1e2
            );
            if diff > allowed {
                complain(format!("{name} differs by more than its bound"));
            }
        }
    }

    println!("== selfcheck · traced pass, exact metrics ==");
    let w = Workload::ALL[0];
    let first = layers::traced_pass(w, ctx).map_err(|e| e.to_string())?;
    let second = layers::traced_pass(w, ctx).map_err(|e| e.to_string())?;
    let emitted = first.metrics.iter().map(|m| m.name.as_str()).collect();
    if !same_names(emitted, per_layer.iter().map(String::as_str).collect()) {
        complain("per_layer names differ from BENCHMARK.json".to_string());
    }
    if first.failed + second.failed > 0 {
        complain(format!("{} traced operations failed", first.failed + second.failed));
    }
    for (a, b) in first.metrics.iter().zip(&second.metrics) {
        if a.clock == Clock::Exact {
            let same = a.value.to_bits() == b.value.to_bits();
            println!(
                "   {:<44} {:>16.4} {}",
                a.name,
                a.value,
                if same { "repeats" } else { "DIFFERS" }
            );
            if !same {
                complain(format!("{} is exact but read {} then {}", a.name, a.value, b.value));
            }
        }
    }
    println!("selfcheck: {}", if ok { "steady" } else { "NOT steady" });
    Ok(ok)
}
