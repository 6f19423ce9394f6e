//! The crash-point sweep (ALICE-style crash-state enumeration): crash a
//! WordCount traversal at many points through [`Session::crash_at`],
//! recover, re-run, and compare the rows with the crash-free run's.
//! `tests/crash_sweep.rs` asserts on [`CrashSweep::run`]'s records and the
//! bench's `crash_sweep` experiment reports them; both read their
//! environment knobs through [`SweepKnobs`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use ntadoc_grammar::Compressed;
use ntadoc_pmem::{sweep_ctx, CrashPoint, Prng};
use CrashPoint::{Persist, Write};

use crate::{Engine, EngineConfig, PoolBackend, Session, Task, TaskRows};

/// The task every sweep crashes.
const TASK: Task = Task::WordCount;

/// Where a sweep enumerates crash states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBackend {
    /// The in-memory simulator.
    Sim,
    /// A pool file kept by `pwrite`: the injected crash tears bytes on disk.
    File,
    /// A memory-mapped pool file: stores land in the mapping, fences msync.
    Mmap,
}

impl SweepBackend {
    /// Every backend, in the order `all` sweeps them.
    const ALL: [SweepBackend; 3] = [SweepBackend::Sim, SweepBackend::File, SweepBackend::Mmap];

    /// The `NTADOC_SWEEP_BACKEND` spelling.
    pub fn name(self) -> &'static str {
        match self {
            SweepBackend::Sim => "sim",
            SweepBackend::File => "file",
            SweepBackend::Mmap => "mmap",
        }
    }

    /// A fresh WordCount session on this backend — in memory on the
    /// simulator, otherwise on a pool file newly created at `pool` — and
    /// the engine that opened it, whose [`Engine::open_pool`] reopens it.
    pub fn open(
        self,
        comp: &Compressed,
        cfg: &EngineConfig,
        pool: &Path,
    ) -> crate::Result<(Engine, Session)> {
        let builder = Engine::builder(comp.clone()).config(cfg.clone());
        let engine = match self {
            SweepBackend::Sim => builder,
            SweepBackend::File => builder.pool_backend(PoolBackend::File),
            SweepBackend::Mmap => builder.pool_backend(PoolBackend::Mmap),
        }
        .build()?;
        let session = if self == SweepBackend::Sim {
            engine.session(TASK)?
        } else {
            let _ = std::fs::remove_file(pool);
            engine.open_pool(pool, TASK)?
        };
        Ok((engine, session))
    }
}

/// The sweep's two environment knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepKnobs {
    /// `NTADOC_SWEEP_SEEDS`: the comma-separated torn seeds that parse, or
    /// `1, 7, 42` when none does or it is unset — an override never sweeps
    /// nothing.
    pub seeds: Vec<u64>,
    /// `NTADOC_SWEEP_BACKEND`: `sim`, `file` or `mmap` alone, or `all` —
    /// also when unset. Any other value is an error.
    pub backends: Vec<SweepBackend>,
    /// Whether `NTADOC_SWEEP_BACKEND` was set at all.
    pub backend_chosen: bool,
}

impl SweepKnobs {
    /// Read both knobs from the environment.
    pub fn from_env() -> Result<SweepKnobs, String> {
        let var = |name| std::env::var(name).ok();
        SweepKnobs::parse(
            var("NTADOC_SWEEP_SEEDS").as_deref(),
            var("NTADOC_SWEEP_BACKEND").as_deref(),
        )
    }

    /// The knobs the two variables' values (`None` when unset) select.
    fn parse(seeds: Option<&str>, backend: Option<&str>) -> Result<SweepKnobs, String> {
        let seeds: Vec<u64> =
            seeds.unwrap_or("").split(',').filter_map(|t| t.trim().parse().ok()).collect();
        let picked =
            |b: &SweepBackend| backend.is_none_or(|name| [b.name(), "all"].contains(&name));
        let backends: Vec<SweepBackend> = SweepBackend::ALL.into_iter().filter(picked).collect();
        if backends.is_empty() {
            let name = backend.unwrap_or_default();
            return Err(format!("NTADOC_SWEEP_BACKEND=`{name}`: expected sim, file, mmap or all"));
        }
        Ok(SweepKnobs {
            seeds: if seeds.is_empty() { vec![1, 7, 42] } else { seeds },
            backends,
            backend_chosen: backend.is_some(),
        })
    }
}

/// Which persist points a sweep crashes at, per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stride {
    /// Every `n`-th point from the first.
    Every(u64),
    /// Every `max(points / n, 1)`-th point: about `n` of them (fewer than
    /// `2n`), however many the traversal issues.
    About(u64),
}

/// One sweep: a strategy's WordCount traversal on one backend, crashed at
/// the persist points `persist` picks and at `mid_write` seeded raw-write
/// points, under each torn seed.
#[derive(Debug)]
pub struct CrashSweep<'a> {
    /// Names the sweep in messages and pool files.
    pub label: &'a str,
    pub comp: &'a Compressed,
    pub cfg: &'a EngineConfig,
    pub backend: SweepBackend,
    /// Where the per-seed pool files of a durable backend are made.
    pub pool_dir: &'a Path,
    pub seeds: &'a [u64],
    /// Persist points crashed at per seed; `None` for none.
    pub persist: Option<Stride>,
    /// Raw write points drawn per seed (after the persist points); a
    /// crash there also tears the interrupted store at 8-byte granularity.
    pub mid_write: u64,
    /// Recover a fired crash by dropping the session and reopening its
    /// pool file, so recovery sees nothing but the torn bytes on disk
    /// (durable backends only); otherwise by [`Session::recover`].
    pub reopen: bool,
}

/// What one crash point did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecord {
    pub seed: u64,
    pub point: CrashPoint,
    /// The armed crash fired; otherwise the run finished before the point.
    pub fired: bool,
    /// The rows after recovery and re-run, or of the run that finished
    /// first, equal the crash-free run's.
    pub converged: bool,
    /// Virtual ns from the crash to the end of the re-run; on the reopen
    /// route, the reopened session's whole clock. Zero when nothing fired.
    pub recovery_ns: u64,
    /// Reopen route: virtual and wall-clock ns of the reopen alone.
    pub reopen_ns: Option<(u64, u64)>,
}

/// A finished sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Persist points (flushes and fences) of the crash-free traversal.
    pub persist_points: u64,
    /// The step between swept persist points; `None` when none are swept.
    pub stride: Option<u64>,
    /// Virtual ns of the crash-free run, init included.
    pub clean_ns: u64,
    /// One per crash point, seed by seed, persist points first.
    pub records: Vec<CrashRecord>,
    /// The pool file each seed left on disk (durable backends).
    pub pools: Vec<PathBuf>,
}

impl CrashSweep<'_> {
    /// Run the sweep: one crash-free run on the simulator gives the rows,
    /// the persist points and the writes; then each point gets a fresh
    /// session, [`Session::crash_at`], recovery and a re-run. Differing
    /// rows are a record with `converged` false; an engine error, a torn
    /// file unlike its twin or a failed reopen is an error naming the point.
    pub fn run(&self) -> Result<SweepReport, String> {
        let name = format!("{}-{}", self.backend.name(), self.label);
        if self.reopen && self.backend == SweepBackend::Sim {
            return Err(format!("{name}: the simulator has no pool file to reopen"));
        }
        let fail = |e| format!("{name}: crash-free run: {e}");
        let (_, mut session) =
            SweepBackend::Sim.open(self.comp, self.cfg, Path::new("")).map_err(fail)?;
        let before = session.sim_device().stats();
        let clean = session.traverse_rows().map_err(fail)?;
        let (clean_ns, traversal) =
            (session.sim_device().stats().virtual_ns, session.sim_device().stats().since(&before));
        let persist_points = traversal.persist_points();
        let stride = self.persist.map(|stride| match stride {
            Stride::Every(n) => n.max(1),
            Stride::About(n) => (persist_points / n.max(1)).max(1),
        });

        let (mut records, mut pools) = (Vec::new(), Vec::new());
        for &seed in self.seeds {
            let pool = self.pool_dir.join(format!("{name}-seed{seed}.ntdp"));
            let persist = stride.into_iter().flat_map(|step| {
                (0..persist_points).step_by(step as usize).map(move |n| (Persist(n), seed ^ n))
            });
            let mut rng = Prng::new(seed);
            let mid_write: Vec<_> = (0..self.mid_write)
                .map(|_| rng.next_below(traversal.writes))
                .map(|n| (Write(n), seed.wrapping_add(n)))
                .collect();
            for (point, tear_seed) in persist.chain(mid_write) {
                let record = self.crash(&pool, &clean, seed, point, tear_seed).map_err(|e| {
                    let (Persist(n) | Write(n)) = point;
                    format!("{}: {e}", sweep_ctx(&format!("{name} {point:?}"), seed, n))
                })?;
                records.push(record);
            }
            if pool.exists() {
                pools.push(pool);
            }
        }
        Ok(SweepReport { persist_points, stride, clean_ns, records, pools })
    }

    /// Crash a fresh session at `point`, recover, re-run and compare with
    /// `clean`.
    fn crash(
        &self,
        pool: &Path,
        clean: &TaskRows,
        seed: u64,
        point: CrashPoint,
        tear_seed: u64,
    ) -> crate::Result<CrashRecord> {
        let (engine, mut session) = self.backend.open(self.comp, self.cfg, pool)?;
        let completed = session.crash_at(point, tear_seed)?;
        let fired = completed.is_none();
        let (mut since_ns, mut reopen_ns) = (session.sim_device().stats().virtual_ns, None);
        let rows = match completed {
            Some(rows) => rows,
            None if !self.reopen => {
                session.recover()?;
                session.traverse_rows()?
            }
            None => {
                drop(session);
                let wall = Instant::now();
                session = engine.open_pool(pool, TASK)?;
                since_ns = 0;
                let reopen_virtual_ns = session.sim_device().stats().virtual_ns;
                reopen_ns = Some((reopen_virtual_ns, wall.elapsed().as_nanos() as u64));
                session.traverse_rows()?
            }
        };
        let recovery_ns =
            if fired { session.sim_device().stats().virtual_ns - since_ns } else { 0 };
        Ok(CrashRecord { seed, point, fired, converged: &rows == clean, recovery_ns, reopen_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_default_when_unset_or_unparseable() {
        let seeds = |value| SweepKnobs::parse(value, None).unwrap().seeds;
        assert_eq!(seeds(None), [1, 7, 42]);
        assert_eq!(seeds(Some("")), [1, 7, 42]);
        assert_eq!(seeds(Some("x, ,-3")), [1, 7, 42]);
        assert_eq!(seeds(Some("3, 5,x,8")), [3, 5, 8]);
    }

    #[test]
    fn backends_select_as_documented_and_reject_anything_else() {
        use SweepBackend::*;
        let backends =
            |value| SweepKnobs::parse(None, value).map(|k| (k.backends, k.backend_chosen));
        assert_eq!(backends(None), Ok((vec![Sim, File, Mmap], false)));
        assert_eq!(backends(Some("all")), Ok((vec![Sim, File, Mmap], true)));
        assert_eq!(backends(Some("sim")), Ok((vec![Sim], true)));
        assert_eq!(backends(Some("file")), Ok((vec![File], true)));
        assert_eq!(backends(Some("mmap")), Ok((vec![Mmap], true)));
        let err = backends(Some("flie")).unwrap_err();
        for accepted in ["`flie`", "sim", "file", "mmap", "all"] {
            assert!(err.contains(accepted), "{err}");
        }
    }
}
