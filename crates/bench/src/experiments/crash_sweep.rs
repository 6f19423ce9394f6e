//! Crash-point sweep: how many recovery scenarios the §IV-E protocols
//! survive, on every storage backend, and what a crash costs.
//!
//! Runs `ntadoc::sweep::CrashSweep` (knobs: `SweepKnobs`) on a small
//! generated corpus for both persistence strategies. On `sim` a crashed
//! session recovers in place; on a durable backend the torn pool file is
//! reopened, and the pool each (backend, strategy, seed) leaves behind
//! stays under [`POOL_DIR`] so CI can `ntadoc fsck` it. The headlines —
//! crashes fired, converged and their ratio — are published unjudged;
//! `report --gate crash_sweep` requires every fired crash to converge.

use std::path::Path;

use ntadoc::sweep::{CrashRecord, CrashSweep, Stride, SweepBackend, SweepKnobs};
use ntadoc::EngineConfig;
use ntadoc_pmem::{CrashPoint, Json};

use crate::{mean, Emitter, Harness};

const POOL_DIR: &str = "target/experiments/sweep_pools";
/// Random mid-write crash points sampled per seed.
const MID_WRITE_SAMPLES: u64 = 25;

/// `[fired, converged, completed early]` over `records`; only a crash that fired converges.
fn tally(records: &[&CrashRecord]) -> [u64; 3] {
    let n = |what: fn(&CrashRecord) -> bool| records.iter().filter(|r| what(r)).count() as u64;
    [n(|r| r.fired), n(|r| r.fired && r.converged), n(|r| !r.fired)]
}

/// Emit the row of one (backend, strategy) sweep and return `(fired,
/// converged)` over its persist-point and mid-write crashes.
fn emit(sweep: &CrashSweep, em: &mut Emitter) -> (u64, u64) {
    let report = sweep.run().unwrap_or_else(|e| panic!("{e}"));
    let (backend, label) = (sweep.backend.name(), sweep.label);
    for r in report.records.iter().filter(|r| !r.converged) {
        eprintln!("{backend} {label} {r:?}: recovered run DIVERGED from the crash-free result");
    }
    let (persist, mid_write): (Vec<&CrashRecord>, Vec<&CrashRecord>) =
        report.records.iter().partition(|r| matches!(r.point, CrashPoint::Persist(_)));
    let [fired, converged, completed_early] = tally(&persist);
    let [mid_write_fired, mid_write_converged, _] = tally(&mid_write);
    let persist_fired: Vec<&CrashRecord> = persist.iter().copied().filter(|r| r.fired).collect();
    let recovery_ns: Vec<f64> = persist_fired.iter().map(|r| r.recovery_ns as f64).collect();
    let reopens = persist_fired.iter().filter_map(|r| r.reopen_ns);
    let (reopen_virtual_ns, reopen_wall_ns): (Vec<f64>, Vec<f64>) =
        reopens.map(|(v, w)| (v as f64, w as f64)).unzip();
    let stride = report.stride.expect("the bench sweeps persist points");
    let clean_ns = report.clean_ns;

    println!(
        "{backend:5} {label:16} {:>5} persist points (stride {stride}) × {} seeds: \
         {fired} fired, {converged} converged, {completed_early} completed early",
        report.persist_points,
        sweep.seeds.len(),
    );
    println!(
        "{:22} mid-write sample: {mid_write_fired} crashes fired, {mid_write_converged} converged",
        ""
    );
    println!(
        "{:22} clean run {:.3} ms | mean crash+recover+rerun {:.3} ms ({:.2}x)",
        "",
        clean_ns as f64 / 1e6,
        mean(&recovery_ns) / 1e6,
        mean(&recovery_ns) / clean_ns as f64,
    );
    let mut fields = vec![
        ("backend", Json::from(backend)),
        ("strategy", Json::from(label)),
        ("persist_points", Json::U64(report.persist_points)),
        ("stride", Json::U64(stride)),
        ("seeds", Json::Arr(sweep.seeds.iter().copied().map(Json::U64).collect())),
        ("fired", Json::U64(fired)),
        ("converged", Json::U64(converged)),
        ("completed_early", Json::U64(completed_early)),
        ("mid_write_fired", Json::U64(mid_write_fired)),
        ("mid_write_converged", Json::U64(mid_write_converged)),
        ("clean_ns", Json::U64(clean_ns)),
        ("mean_recovery_ns", Json::F64(mean(&recovery_ns))),
    ];
    if sweep.reopen {
        println!(
            "{:22} mean reopen {:.3} ms virtual / {:.3} ms wall",
            "",
            mean(&reopen_virtual_ns) / 1e6,
            mean(&reopen_wall_ns) / 1e6,
        );
        fields.push(("mean_reopen_virtual_ns", Json::F64(mean(&reopen_virtual_ns))));
        fields.push(("mean_reopen_wall_ns", Json::F64(mean(&reopen_wall_ns))));
        let pools = report.pools.iter().map(|p| Json::from(p.display().to_string())).collect();
        fields.push(("survivor_pools", Json::Arr(pools)));
    }
    println!();
    em.row(fields);
    (fired + mid_write_fired, converged + mid_write_converged)
}

pub fn run(h: &Harness, em: &mut Emitter) {
    let knobs = SweepKnobs::from_env().unwrap_or_else(|e| panic!("{e}"));
    // The sweep re-runs the workload once per (seed × point); keep the
    // corpus small, whatever the harness scale, so the enumeration stays
    // fast.
    let spec = h.spec("A").scaled(0.05 / h.scale().max(0.01));
    let comp = h.dataset(&spec);
    std::fs::create_dir_all(POOL_DIR).expect("create sweep pool dir");

    println!("== Crash-point sweep: sampled persist points, torn-write model ==");
    println!("corpus: {} | seeds: {:?} | durable pools: {POOL_DIR}\n", spec.name, knobs.seeds);
    let (mut fired, mut converged) = (0u64, 0u64);
    for backend in knobs.backends {
        // Operation-level persistence emits one persist per transaction,
        // and re-running the workload at every one of thousands of points
        // is O(points²): sweep about 128 per seed. A durable pool re-runs
        // init on every reopen, so it sweeps about 64 and recovers by
        // reopening its file.
        let durable = backend != SweepBackend::Sim;
        for (cfg, label) in [
            (EngineConfig::ntadoc(), "phase-level"),
            (EngineConfig::ntadoc_oplevel(), "operation-level"),
        ] {
            let sweep = CrashSweep {
                label,
                comp: &comp,
                cfg: &cfg,
                backend,
                pool_dir: Path::new(POOL_DIR),
                seeds: &knobs.seeds,
                persist: Some(Stride::About(if durable { 64 } else { 128 })),
                mid_write: MID_WRITE_SAMPLES,
                reopen: durable,
            };
            let (f, c) = emit(&sweep, em);
            fired += f;
            converged += c;
        }
    }
    println!("{converged} of {fired} fired crashes recovered to the crash-free result");
    em.headline_u64("crashes_fired", fired);
    em.headline_u64("crashes_converged", converged);
    em.headline("recovery_rate", if fired == 0 { 0.0 } else { converged as f64 / fired as f64 });
}
