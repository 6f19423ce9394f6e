//! Crash-point sweep: how many recovery scenarios the §IV-E protocols
//! survive, on every storage backend, and what a crash costs.
//!
//! Enumerates the persist points (flush/fence) a WordCount traversal
//! issues on a small generated corpus, crashes at each under the
//! torn-write model, recovers, and compares the re-run with the crash-free
//! result — for both persistence strategies, across several torn seeds.
//! It also samples random mid-write crash points, which tear the
//! interrupted store at 8-byte granularity.
//!
//! On `sim` the crashed session recovers in place. On `file` and `mmap`
//! the crash tears the bytes of a real pool file (checked against the
//! simulator twin), the session is dropped, and recovery sees nothing but
//! the file: header validation, undo-log rollback, deterministic re-init.
//! The pool each (backend, strategy, seed) leaves behind stays under
//! [`POOL_DIR`] so CI can `ntadoc fsck` it as an independent gate.
//!
//! The headlines — crashes fired, crashes converged and their ratio — are
//! published unjudged; `report --gate crash_sweep` requires every fired
//! crash to have converged.
//!
//! Env knobs: `NTADOC_SWEEP_BACKEND` (`sim`, `file` or `mmap`; anything
//! else, or unset, sweeps all three), `NTADOC_SWEEP_SEEDS`
//! (comma-separated torn seeds, default `1,7,42`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use ntadoc::{Engine, EngineConfig, PoolBackend, Session, Task, TaskOutput};
use ntadoc_grammar::Compressed;
use ntadoc_pmem::{run_with_crash_at, sweep_ctx, CrashPoint, CrashRun, Json, Prng};

use crate::{mean, Emitter, Harness};

const POOL_DIR: &str = "target/experiments/sweep_pools";
const TASK: Task = Task::WordCount;
/// Random mid-write crash points sampled per seed.
const MID_WRITE_SAMPLES: u64 = 25;

/// The sweepable backends by `NTADOC_SWEEP_BACKEND` name; `None` is the
/// in-memory simulator, which has no pool file.
type Backend = (&'static str, Option<PoolBackend>);
const BACKENDS: [Backend; 3] =
    [("sim", None), ("file", Some(PoolBackend::File)), ("mmap", Some(PoolBackend::Mmap))];

fn selected_backends() -> Vec<Backend> {
    let want = std::env::var("NTADOC_SWEEP_BACKEND").unwrap_or_default();
    let named: Vec<Backend> = BACKENDS.iter().copied().filter(|(name, _)| *name == want).collect();
    if named.is_empty() {
        BACKENDS.to_vec()
    } else {
        named
    }
}

fn seeds() -> Vec<u64> {
    let parsed: Vec<u64> = std::env::var("NTADOC_SWEEP_SEEDS")
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    // An unset or unparseable override must not silently sweep nothing.
    if parsed.is_empty() {
        vec![1, 7, 42]
    } else {
        parsed
    }
}

/// One (backend, strategy) under sweep.
struct Target<'a> {
    comp: &'a Compressed,
    cfg: &'a EngineConfig,
    /// Backend name, for messages, rows and pool-file names.
    backend: &'static str,
    store: Option<PoolBackend>,
    label: &'static str,
}

impl Target<'_> {
    /// A session on the target's backend; `pool` is opened as it stands on
    /// disk (`sim` has no pool and always starts fresh).
    fn open(&self, pool: &Path) -> Session {
        let builder = Engine::builder(self.comp.clone()).config(self.cfg.clone());
        match self.store {
            None => builder.build().unwrap().session(TASK),
            Some(store) => builder.pool_backend(store).build().unwrap().open_pool(pool, TASK),
        }
        .unwrap_or_else(|e| panic!("{} {}: open {}: {e}", self.backend, self.label, pool.display()))
    }

    fn open_fresh(&self, pool: &Path) -> Session {
        let _ = std::fs::remove_file(pool);
        self.open(pool)
    }

    fn pool(&self, stem: &str) -> PathBuf {
        Path::new(POOL_DIR).join(format!("{}-{}-{stem}.ntdp", self.backend, self.label))
    }
}

/// What one fired crash cost, and whether recovery converged.
struct Recovery {
    converged: bool,
    /// Virtual time from the crash to the end of the re-run.
    virtual_ns: u64,
    /// Durable backends: virtual and wall-clock time of the reopen alone.
    reopen: Option<(u64, f64)>,
}

/// Crash a fresh run at `point`, tear it with `tear_seed`, recover and
/// re-run. `None` when the run finished before reaching the point.
fn crash_and_recover(
    t: &Target,
    pool: &Path,
    point: CrashPoint,
    tear_seed: u64,
    clean: &TaskOutput,
    ctx: &str,
) -> Option<Recovery> {
    let mut session = t.open_fresh(pool);
    let dev = session.sim_device().clone();
    let run = run_with_crash_at(
        point,
        |p| match p {
            CrashPoint::Persist(n) => dev.trip_after_persists(n),
            CrashPoint::Write(n) => dev.trip_after_writes(n),
        },
        || dev.clear_trip(),
        || {
            session.traverse().unwrap_or_else(|e| panic!("{ctx}: unexpected engine error {e}"));
        },
    );
    if run == CrashRun::Completed {
        return None;
    }
    let crashed_at_ns = dev.stats().virtual_ns;
    session.crash_torn(tear_seed);
    let (mut session, since_ns, reopen) = match session.pool_file() {
        None => {
            session.recover().unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            (session, crashed_at_ns, None)
        }
        Some(file) => {
            // The torn bytes are on disk; prove the durable image matches
            // the simulator twin's post-crash plane, then recover from the
            // file alone.
            file.verify_file_matches_device()
                .unwrap_or_else(|e| panic!("{ctx}: torn file diverged from twin: {e}"));
            drop(session);
            let wall = Instant::now();
            let reopened = t.open(pool);
            let wall_ns = wall.elapsed().as_nanos() as f64;
            let reopen_ns = reopened.sim_device().stats().virtual_ns;
            (reopened, 0, Some((reopen_ns, wall_ns)))
        }
    };
    let out = session.traverse().unwrap_or_else(|e| panic!("{ctx}: post-recovery re-run: {e}"));
    let converged = &out == clean;
    if !converged {
        eprintln!("{ctx}: recovered run DIVERGED from the crash-free result");
    }
    Some(Recovery {
        converged,
        virtual_ns: session.sim_device().stats().virtual_ns - since_ns,
        reopen,
    })
}

/// Fired/converged tally of one family of crash points.
#[derive(Default)]
struct Tally {
    fired: u64,
    converged: u64,
    completed_early: u64,
}

impl Tally {
    fn record(&mut self, r: &Option<Recovery>) {
        match r {
            None => self.completed_early += 1,
            Some(r) => {
                self.fired += 1;
                self.converged += u64::from(r.converged);
            }
        }
    }
}

/// Sweep one (backend, strategy), emit its row, and return
/// `(fired, converged)` over persist-point and mid-write crashes.
fn sweep(t: &Target, em: &mut Emitter) -> (u64, u64) {
    // One clean run gives the reference output, its virtual time, and the
    // number of persist points and raw writes a traversal issues.
    let clean_pool = t.pool("clean");
    let mut session = t.open_fresh(&clean_pool);
    let before = session.sim_device().stats();
    let clean = session.traverse().unwrap();
    let clean_ns = session.sim_device().stats().virtual_ns;
    let traversal = session.sim_device().stats().since(&before);
    drop(session);
    let _ = std::fs::remove_file(&clean_pool);

    let total = traversal.persist_points();
    // Cap the persist points swept per seed: operation-level persistence
    // emits one persist per transaction, and re-running the workload at
    // every one of thousands of points is O(points²). A durable pool
    // re-runs init on every reopen, so it is capped tighter.
    let max_points_per_seed = if t.store.is_none() { 128 } else { 64 };
    let stride = (total / max_points_per_seed).max(1);
    if stride > 1 {
        eprintln!("[{} {}] {total} persist points; sweeping every {stride}th", t.backend, t.label);
    }

    let mut at_persist = Tally::default();
    let mut mid_write = Tally::default();
    let mut recovery_ns = Vec::new();
    let mut reopen_virtual_ns = Vec::new();
    let mut reopen_wall_ns = Vec::new();
    let mut survivors = Vec::new();
    for seed in seeds() {
        let pool = t.pool(&format!("seed{seed}"));
        let mut rng = Prng::new(seed);
        let persist_points = (0..total)
            .step_by(stride as usize)
            .map(|point| (CrashPoint::Persist(point), seed ^ point));
        let write_points: Vec<_> = (0..MID_WRITE_SAMPLES)
            .map(|_| rng.next_below(traversal.writes))
            .map(|trip| (CrashPoint::Write(trip), seed.wrapping_add(trip)))
            .collect();
        for (point, tear_seed) in persist_points.chain(write_points) {
            let (tally, n) = match point {
                CrashPoint::Persist(n) => (&mut at_persist, n),
                CrashPoint::Write(n) => (&mut mid_write, n),
            };
            let ctx = sweep_ctx(&format!("{} {} {point:?}", t.backend, t.label), seed, n);
            let recovery = crash_and_recover(t, &pool, point, tear_seed, &clean, &ctx);
            tally.record(&recovery);
            if let (CrashPoint::Persist(_), Some(r)) = (point, &recovery) {
                recovery_ns.push(r.virtual_ns as f64);
                if let Some((virtual_ns, wall_ns)) = r.reopen {
                    reopen_virtual_ns.push(virtual_ns as f64);
                    reopen_wall_ns.push(wall_ns);
                }
            }
        }
        if pool.exists() {
            survivors.push(pool);
        }
    }

    println!(
        "{:5} {:16} {:>5} persist points (stride {stride}) × {} seeds: {} fired, {} converged, {} completed early",
        t.backend,
        t.label,
        total,
        seeds().len(),
        at_persist.fired,
        at_persist.converged,
        at_persist.completed_early,
    );
    println!(
        "{:22} mid-write sample: {} crashes fired, {} converged",
        "", mid_write.fired, mid_write.converged
    );
    println!(
        "{:22} clean run {:.3} ms | mean crash+recover+rerun {:.3} ms ({:.2}x)",
        "",
        clean_ns as f64 / 1e6,
        mean(&recovery_ns) / 1e6,
        mean(&recovery_ns) / clean_ns as f64,
    );
    let mut fields = vec![
        ("backend", Json::from(t.backend)),
        ("strategy", Json::from(t.label)),
        ("persist_points", Json::U64(total)),
        ("stride", Json::U64(stride)),
        ("seeds", Json::Arr(seeds().into_iter().map(Json::U64).collect())),
        ("fired", Json::U64(at_persist.fired)),
        ("converged", Json::U64(at_persist.converged)),
        ("completed_early", Json::U64(at_persist.completed_early)),
        ("mid_write_fired", Json::U64(mid_write.fired)),
        ("mid_write_converged", Json::U64(mid_write.converged)),
        ("clean_ns", Json::U64(clean_ns)),
        ("mean_recovery_ns", Json::F64(mean(&recovery_ns))),
    ];
    if t.store.is_some() {
        println!(
            "{:22} mean reopen {:.3} ms virtual / {:.3} ms wall",
            "",
            mean(&reopen_virtual_ns) / 1e6,
            mean(&reopen_wall_ns) / 1e6,
        );
        fields.push(("mean_reopen_virtual_ns", Json::F64(mean(&reopen_virtual_ns))));
        fields.push(("mean_reopen_wall_ns", Json::F64(mean(&reopen_wall_ns))));
        let pools = survivors.iter().map(|p| Json::from(p.display().to_string())).collect();
        fields.push(("survivor_pools", Json::Arr(pools)));
    }
    println!();
    em.row(fields);
    (at_persist.fired + mid_write.fired, at_persist.converged + mid_write.converged)
}

pub fn run(h: &Harness, em: &mut Emitter) {
    // The sweep re-runs the workload once per (seed × point); keep the
    // corpus small, whatever the harness scale, so the enumeration stays
    // fast.
    let spec = h.spec("A").scaled(0.05 / h.scale().max(0.01));
    let comp = h.dataset(&spec);
    std::fs::create_dir_all(POOL_DIR).expect("create sweep pool dir");

    println!("== Crash-point sweep: sampled persist points, torn-write model ==");
    println!("corpus: {} | seeds: {:?} | durable pools: {POOL_DIR}\n", spec.name, seeds());
    let (mut fired, mut converged) = (0u64, 0u64);
    for (backend, store) in selected_backends() {
        for (cfg, label) in [
            (EngineConfig::ntadoc(), "phase-level"),
            (EngineConfig::ntadoc_oplevel(), "operation-level"),
        ] {
            let (f, c) = sweep(&Target { comp: &comp, cfg: &cfg, backend, store, label }, em);
            fired += f;
            converged += c;
        }
    }
    println!("{converged} of {fired} fired crashes recovered to the crash-free result");
    em.headline_u64("crashes_fired", fired);
    em.headline_u64("crashes_converged", converged);
    em.headline("recovery_rate", if fired == 0 { 0.0 } else { converged as f64 / fired as f64 });
}
