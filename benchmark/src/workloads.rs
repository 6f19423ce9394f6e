//! The four workloads, end to end: generate the inputs, drive the real
//! `ntadoc` binary (child processes for `compress`/`append`/`run`, the Unix
//! socket for `serve`), time it from outside, and check every output
//! against the oracle.
//!
//! Why these four — each layer does most of the work on one and little on
//! another, and each mechanism has a workload that uses it and a twin that
//! bypasses it:
//!
//! * `ingest`: `grammar` does nearly all the work, `pmem`/`nstruct` almost
//!   none. `append` beside the bulk build is the same layer used
//!   differently.
//! * `analytics`: the engine, `nstruct` and the `pmem` simulator do the
//!   work; `grammar` only deserializes. Operation-level persistence and the
//!   mmap-backed pool ride beside the read-mostly phase-level runs.
//! * `serve_hot`: the socket/JSON front-end and the result cache do the
//!   work; the hot key set fits the cache, so the engine only traverses
//!   while the cache warms up.
//! * `serve_cold`: the key space dwarfs the cache, so every request
//!   traverses the DAG and the front-end is noise. It is the cache-bypass
//!   twin of `serve_hot` and the live-socket twin of `analytics`.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ntadoc::{Task, TaskOutput};

use crate::gen::{self, CorpusSpec, Request, Rng};
use crate::oracle::{cli_stdout, Oracle};
use crate::proc::{self, CliRun, Daemon, WorkDir};
use crate::stats;
use crate::wire;
use crate::yard::Yard;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Analytics,
    ServeHot,
    ServeCold,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Ingest, Workload::Analytics, Workload::ServeHot, Workload::ServeCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Analytics => "analytics",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Set-ups per run; `setup_s` is their [`TYPICAL`] time.
const SETUP_REPS: usize = 5;
/// `ntadoc serve --cache`: the hot set's 16 keys fit, and the cold
/// workload fills it within the first fifth of a window, so the daemon's
/// peak RSS does not depend on how many requests the window had room for
/// (with the default 256 entries it could: a cold window is ≈ 500 requests).
pub const SERVE_CACHE: usize = 64;
/// `--top` of every `ntadoc run`.
pub const RUN_TOP: usize = 20;
/// How many of the corpus's files `ingest` appends rather than bulk-builds.
pub const APPEND_FILES: usize = 15;

/// What one untraced run of a workload measured.
pub struct EndToEnd {
    pub tally: Tally,
    /// False when the workload did not behave as designed (hit rate off).
    pub shape_ok: bool,
    pub setup_s: f64,
    /// The operations a job is made of, with every time measured.
    pub kinds: Vec<Kind>,
    /// Wall time of every reference loop timed between them, ms.
    pub loops_ms: Vec<f64>,
    /// Length of the measured window, s.
    pub window_s: f64,
    pub stored_bytes_per_user_byte: f64,
    /// Human-readable lines for the report above the JSON.
    pub notes: Vec<String>,
}

/// One kind of operation of a workload's job — a CLI command, or a class of
/// socket requests — and the wall time of every one measured in the window.
pub struct Kind {
    pub name: String,
    /// How many of these one job holds.
    pub per_job: f64,
    pub ms: Vec<f64>,
}

/// The quantile of a window's times that stands for the typical time: of
/// each kind of operation, of the reference loop and of the set-ups alike.
///
/// The host's noise is one-sided and comes in waves. Short ones, seconds
/// long, leave the lower quartile on the undisturbed level as long as a
/// quarter of the window was quiet, where the median follows however much
/// of the window they covered; a real slow-down moves the lower quartile as
/// it moves any other quantile. Long ones, minutes long, cover whole
/// windows, and only the reference loop takes those out (see `yard.rs`).
pub const TYPICAL: f64 = 25.0;

impl EndToEnd {
    /// The typical wall time of one job, ms: the sum over its kinds of the
    /// typical time of each. Taken per kind and not per job, because a job
    /// is seconds long on the CLI workloads and an operation a tenth of
    /// that: whole jobs that no wave touched are rare, single operations
    /// are not. Printed, not a metric: it follows the host's speed.
    pub fn job_ms(&self) -> f64 {
        self.kinds.iter().map(|k| k.per_job * stats::percentile(&k.ms, TYPICAL)).sum()
    }

    /// The typical wall time of the reference loops timed between the
    /// window's operations, ms.
    pub fn loop_ms(&self) -> f64 {
        stats::percentile(&self.loops_ms, TYPICAL)
    }

    /// `job_ref_loops`: how many reference loops one job is worth.
    pub fn job_ref_loops(&self) -> f64 {
        self.job_ms() / self.loop_ms()
    }

    /// Operations timed in the window.
    pub fn samples(&self) -> usize {
        self.kinds.iter().map(|k| k.ms.len()).sum()
    }
}

/// Operations attempted and failed, and the largest measured child seen.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_kb: u64,
}

impl Tally {
    /// Count one measured CLI invocation (its output is judged separately).
    fn measured(&mut self, run: &CliRun) {
        self.peak_rss_kb = self.peak_rss_kb.max(run.maxrss_kb);
        self.judge(run.ok);
    }

    /// Count one operation that succeeded or failed.
    fn judge(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Image bytes per byte of raw corpus.
fn stored_ratio(inputs: &Inputs, image: &str) -> io::Result<f64> {
    Ok(fs::metadata(inputs.work.join(image))?.len() as f64 / inputs.raw_bytes as f64)
}

pub fn end_to_end(w: Workload, ctx: &Ctx) -> io::Result<EndToEnd> {
    match w {
        Workload::Ingest => ingest(ctx),
        Workload::Analytics => analytics(ctx),
        Workload::ServeHot | Workload::ServeCold => serve(w, ctx),
    }
}

/// Run `setup` [`SETUP_REPS`] times, each from scratch; keep the last state
/// and report the typical wall time.
fn timed_setups<S>(mut setup: impl FnMut() -> io::Result<S>) -> io::Result<(S, f64)> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUP_REPS > 0"), stats::percentile(&times, TYPICAL)))
}

/// A generated corpus written under a work directory.
pub struct Inputs {
    pub work: WorkDir,
    /// `(path relative to the work directory, text)`, in ingest order.
    pub files: Vec<(String, String)>,
    pub raw_bytes: u64,
}

/// Generate the seeded corpus and write it under `out/<dir>`: the last
/// `tail` files into `delta/`, the rest into `head_dir/`.
pub fn write_inputs(dir: &str, seed: u64, head_dir: &str, tail: usize) -> io::Result<Inputs> {
    let work = WorkDir::create(dir)?;
    let generated = gen::corpus(&CorpusSpec::wiki(), seed);
    let split = generated.len() - tail;
    fs::create_dir_all(work.join(head_dir))?;
    fs::create_dir_all(work.join("delta"))?;
    let mut files = Vec::with_capacity(generated.len());
    for (i, (name, text)) in generated.into_iter().enumerate() {
        let rel = format!("{}/{name}", if i < split { head_dir } else { "delta" });
        fs::write(work.join(&rel), &text)?;
        files.push((rel, text));
    }
    let raw_bytes = files.iter().map(|(_, t)| t.len() as u64).sum();
    Ok(Inputs { work, files, raw_bytes })
}

/// A CLI step of set-up: it has to succeed for the run to mean anything.
pub fn must(run: CliRun, what: &str) -> io::Result<CliRun> {
    if run.ok {
        Ok(run)
    } else {
        Err(io::Error::other(format!("set-up step `{what}` failed")))
    }
}

/// What a measured window recorded.
struct Timed {
    /// Wall time of every timed operation, ms, by kind.
    kind_ms: Vec<Vec<f64>>,
    /// Times a reference loop between operations whenever one is due.
    yard: Yard,
    started: Instant,
    window_s: f64,
}

impl Timed {
    fn new(kinds: usize) -> Timed {
        Timed {
            kind_ms: vec![Vec::new(); kinds],
            yard: Yard::new(),
            started: Instant::now(),
            window_s: 0.0,
        }
    }

    /// Warm-up is over: the window starts now.
    fn start(&mut self) {
        self.yard.restart();
        self.started = Instant::now();
    }

    fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn stop(&mut self) {
        self.window_s = self.elapsed_s();
    }

    /// The kinds under their names and counts a job, and the loops' times.
    fn into_kinds<'a>(
        self,
        shape: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> (Vec<Kind>, Vec<f64>) {
        let kinds = shape
            .into_iter()
            .zip(self.kind_ms)
            .map(|((name, per_job), ms)| Kind { name: name.to_string(), per_job, ms })
            .collect();
        (kinds, self.yard.loops_ms)
    }
}

/// Run rounds of `kinds` — one `ntadoc` invocation each, one round a job —
/// until `ctx.seconds` have passed, a reference loop before each. The first
/// round fills the page cache and is not timed. `each(kind, run)` sees
/// every run.
fn cli_window(
    ctx: &Ctx,
    cwd: &Path,
    kinds: &[Vec<&str>],
    tally: &mut Tally,
    mut each: impl FnMut(&mut Tally, usize, CliRun),
) -> io::Result<Timed> {
    let mut timed = Timed::new(kinds.len());
    for round in 0.. {
        if round == 1 {
            timed.start();
        } else if round > 1 && timed.elapsed_s() >= ctx.seconds {
            break;
        }
        for (k, args) in kinds.iter().enumerate() {
            timed.yard.tick();
            let run = proc::run_cli(&ctx.bin, cwd, args)?;
            if round > 0 {
                timed.kind_ms[k].push(run.wall.as_secs_f64() * 1e3);
            }
            tally.measured(&run);
            each(tally, k, run);
        }
    }
    timed.stop();
    Ok(timed)
}

// ---- ingest -----------------------------------------------------------------

fn ingest(ctx: &Ctx) -> io::Result<EndToEnd> {
    let (inputs, setup_s) = timed_setups(|| {
        let inputs = write_inputs("ingest", ctx.seed, "base", APPEND_FILES)?;
        let base =
            proc::run_cli(&ctx.bin, inputs.work.path(), &["compress", "base", "-o", "base.ntdc"])?;
        must(base, "compress base")?;
        Ok(inputs)
    })?;
    let cwd = inputs.work.path();
    // One job = the image built three ways. `base delta` sorts into
    // generation order, so all three hold the same corpus.
    let images = ["full.ntdc", "chunked.ntdc", "appended.ntdc"];
    let kinds = [
        vec!["compress", "base", "delta", "-o", images[0]],
        vec!["compress", "base", "delta", "-o", images[1], "--ingest-chunks", "2"],
        vec!["append", "base.ntdc", "delta", "-o", images[2]],
    ];
    let mut tally = Tally::default();
    let mut first_images: Vec<Option<Vec<u8>>> = vec![None; kinds.len()];
    let timed = cli_window(ctx, cwd, &kinds, &mut tally, |tally, k, _| {
        // The build is deterministic: every round writes the same bytes.
        let bytes = fs::read(cwd.join(images[k])).unwrap_or_default();
        let first = first_images[k].get_or_insert_with(|| bytes.clone());
        tally.judge(!bytes.is_empty() && bytes == *first);
    })?;

    // Round trip: each image decompresses to the token streams that went in.
    let oracle = Oracle::new(&inputs.files);
    for image in images {
        let outdir = format!("{image}.d");
        let run = proc::run_cli(&ctx.bin, cwd, &["decompress", image, "-d", &outdir])?;
        tally.judge(
            run.ok
                && inputs.files.iter().enumerate().all(|(i, (rel, _))| {
                    let restored =
                        fs::read_to_string(cwd.join(&outdir).join(rel.replace('/', "_")));
                    restored.is_ok_and(|t| t.split_whitespace().eq(oracle.file_words(i)))
                }),
        );
    }

    let mb = inputs.raw_bytes as f64 / 1e6;
    let [full_ms, chunked_ms] = [0, 1].map(|k| stats::percentile(&timed.kind_ms[k], TYPICAL));
    let notes = vec![
        format!("corpus: {} files, {} words, {mb:.2} MB raw", inputs.files.len(), oracle.total_words()),
        format!(
            "ingest rate at the typical time: compress {:.1} MB/s, compress --ingest-chunks 2 {:.1} MB/s; \
             append adds {APPEND_FILES} files",
            mb / full_ms * 1e3,
            mb / chunked_ms * 1e3,
        ),
    ];
    let stored_bytes_per_user_byte = stored_ratio(&inputs, images[0])?;
    let window_s = timed.window_s;
    let (kinds, loops_ms) = timed
        .into_kinds(["compress", "compress --ingest-chunks 2", "append"].map(|name| (name, 1.0)));
    Ok(EndToEnd {
        tally,
        shape_ok: true,
        setup_s,
        kinds,
        loops_ms,
        window_s,
        stored_bytes_per_user_byte,
        notes,
    })
}

// ---- analytics --------------------------------------------------------------

/// Corpus in `corpus/`, compressed to `c.ntdc` by the real binary.
pub fn compressed_inputs(dir: &str, ctx: &Ctx) -> io::Result<Inputs> {
    let inputs = write_inputs(dir, ctx.seed, "corpus", 0)?;
    let run = proc::run_cli(&ctx.bin, inputs.work.path(), &["compress", "corpus", "-o", "c.ntdc"])?;
    must(run, "compress corpus")?;
    Ok(inputs)
}

fn analytics(ctx: &Ctx) -> io::Result<EndToEnd> {
    let (inputs, setup_s) = timed_setups(|| compressed_inputs("analytics", ctx))?;
    let cwd = inputs.work.path();
    let top = RUN_TOP.to_string();

    // One job = nine runs: the six tasks under phase-level persistence,
    // word count under operation-level persistence (transactional writes),
    // and word count over an mmap-backed pool, created then reopened
    // (durable write-through and fsync'd seals, then read + recover).
    let pool = ["--pool", "p.ntdp", "--backend", "mmap"];
    let mut kinds: Vec<(String, Task, &[&str])> =
        Task::ALL.iter().map(|&t| (wire::cli_name(t).to_string(), t, &[][..])).collect();
    kinds.push(("wordcount op".into(), Task::WordCount, &["--persistence", "op"]));
    kinds.push(("pool create".into(), Task::WordCount, &pool));
    kinds.push(("pool reopen".into(), Task::WordCount, &pool));
    let args: Vec<Vec<&str>> = kinds
        .iter()
        .map(|(_, task, extra)| {
            [&["run", wire::cli_name(*task), "c.ntdc", "--top", &top], *extra].concat()
        })
        .collect();

    let mut tally = Tally::default();
    let mut printed: Vec<(Task, Vec<u8>)> = Vec::new();
    let timed = cli_window(ctx, cwd, &args, &mut tally, |_, k, run| {
        printed.push((kinds[k].1, run.stdout));
        if k + 1 == kinds.len() {
            // The next job creates the pool afresh.
            let _ = fs::remove_file(cwd.join("p.ntdp"));
        }
    })?;

    // Judged after the window: the oracle is big, and the children are
    // measured while this process is still small.
    let oracle = Oracle::new(&inputs.files);
    let expected: HashMap<Task, String> =
        Task::ALL.iter().map(|&t| (t, cli_stdout(&oracle.output(t), RUN_TOP))).collect();
    for (task, stdout) in printed {
        tally.judge(stdout == expected[&task].as_bytes());
    }

    let stored_bytes_per_user_byte = stored_ratio(&inputs, "c.ntdc")?;
    let window_s = timed.window_s;
    let (kinds, loops_ms) = timed.into_kinds(kinds.iter().map(|(name, _, _)| (name.as_str(), 1.0)));
    Ok(EndToEnd {
        tally,
        shape_ok: true,
        setup_s,
        kinds,
        loops_ms,
        window_s,
        stored_bytes_per_user_byte,
        notes: Vec::new(),
    })
}

// ---- serve_hot / serve_cold -------------------------------------------------

/// What a reply says, member by member.
#[derive(Debug, PartialEq)]
enum Reply<'a> {
    /// `ok: true` with these `output` bytes and this `cache_hit`.
    Served {
        hit: bool,
        output: &'a [u8],
    },
    Bad,
}

fn read_reply(reply: &[u8]) -> Reply<'_> {
    let Some(members) = wire::members(reply) else { return Reply::Bad };
    let hit = match wire::member(&members, "cache_hit") {
        Some(b"true") => true,
        Some(b"false") => false,
        _ => return Reply::Bad,
    };
    match (wire::member(&members, "ok"), wire::member(&members, "output")) {
        (Some(b"true"), Some(output)) => Reply::Served { hit, output },
        _ => Reply::Bad,
    }
}

/// What the closed-loop client saw.
struct ClientLog {
    /// Latency of every timed request, by kind.
    timed: Timed,
    requests: u64,
    hits: u64,
    failed: u64,
    /// Replies whose expected bytes were not known yet: checked after the
    /// window so the client never stalls on the oracle.
    unchecked: Vec<(Request, Vec<u8>)>,
}

/// Send seeded requests one after another, a connection each: `warm_up`
/// that are checked but not timed, then timed ones until `seconds` have
/// passed, a reference loop between requests whenever one is due. A
/// request's kind is its reply-size class on the hot workload and its task
/// on the cold one.
fn client_loop(
    socket: &Path,
    hot: bool,
    seed: u64,
    seconds: f64,
    warm_up: usize,
    known: &HashMap<Request, Vec<u8>>,
) -> ClientLog {
    let mut log = ClientLog {
        timed: Timed::new(gen::SERVABLE.len()),
        requests: 0,
        hits: 0,
        failed: 0,
        unchecked: Vec::new(),
    };
    let mut rng = Rng::new(seed ^ 0xC11E_0000);
    let mut reply = Vec::new();
    for i in 0.. {
        if i == warm_up {
            log.timed.start();
        }
        // The cold workload only stops on a whole round of its four tasks.
        let round_done = hot || i % gen::SERVABLE.len() == 0;
        if i > warm_up && round_done && log.timed.elapsed_s() >= seconds {
            break;
        }
        log.timed.yard.tick();
        let (kind, req) = if hot {
            gen::hot_request(&mut rng)
        } else {
            (i % gen::SERVABLE.len(), gen::cold_request(&mut rng, i))
        };
        let line = wire::request_line(req, 0);
        let start = Instant::now();
        let sent = proc::request(socket, &line, &mut reply);
        if i >= warm_up {
            log.timed.kind_ms[kind].push(start.elapsed().as_secs_f64() * 1e3);
        }
        log.requests += 1;
        match sent.map(|()| read_reply(&reply)) {
            Ok(Reply::Served { hit, output }) => {
                log.hits += hit as u64;
                match known.get(&req) {
                    Some(expected) => log.failed += (expected != output) as u64,
                    None => log.unchecked.push((req, output.to_vec())),
                }
            }
            _ => log.failed += 1,
        }
    }
    log.timed.stop();
    log
}

fn serve(w: Workload, ctx: &Ctx) -> io::Result<EndToEnd> {
    let hot = w == Workload::ServeHot;
    let warm = if hot { gen::hot_keys() } else { Vec::new() };
    // Set-up ends with the daemon up and, for the hot workload, its cache
    // filled: the engine's sixteen traversals are set-up cost, not latency.
    let ((inputs, daemon, warm_replies), setup_s) = timed_setups(|| {
        let inputs = compressed_inputs(w.name(), ctx)?;
        let daemon = Daemon::spawn(&ctx.bin, inputs.work.path(), "c.ntdc", SERVE_CACHE)?;
        let mut replies = Vec::new();
        for &req in &warm {
            let mut reply = Vec::new();
            proc::request(daemon.socket(), &wire::request_line(req, 0), &mut reply)?;
            replies.push((req, reply));
        }
        Ok((inputs, daemon, replies))
    })?;
    let ready_ms = daemon.ready.as_secs_f64() * 1e3;

    let oracle = Oracle::new(&inputs.files);
    let full: HashMap<Task, TaskOutput> =
        gen::SERVABLE.iter().map(|&t| (t, oracle.output(t))).collect();
    let mut known: HashMap<Request, Vec<u8>> =
        warm.iter().map(|&r| (r, wire::expected_output(r, &full[&r.task]))).collect();
    let mut tally = Tally::default();
    for (req, reply) in &warm_replies {
        tally.judge(matches!(read_reply(reply), Reply::Served { hit: false, output } if output == &known[req][..]));
    }

    // A job is a hundred requests in the hot workload's mix, and one
    // round of the four tasks on the cold workload.
    let classes = gen::hot_classes();
    let shape: Vec<(&str, f64)> = if hot {
        classes.iter().map(|&(name, share, _)| (name, share as f64)).collect()
    } else {
        gen::SERVABLE.iter().map(|&t| (wire::cli_name(t), 1.0)).collect()
    };
    let warm_up = if hot { 200 } else { gen::SERVABLE.len() };
    let log = client_loop(daemon.socket(), hot, ctx.seed, ctx.seconds, warm_up, &known);
    tally.peak_rss_kb = daemon.shutdown()?;

    tally.attempted += log.requests;
    tally.failed += log.failed;
    for (req, output) in log.unchecked {
        let expected =
            known.entry(req).or_insert_with(|| wire::expected_output(req, &full[&req.task]));
        tally.failed += (*expected != output) as u64;
    }
    let hit_rate = log.hits as f64 / log.requests as f64;
    let shape_ok = if hot { hit_rate >= 0.99 } else { hit_rate <= 0.02 };

    let all_ms: Vec<f64> = log.timed.kind_ms.iter().flatten().copied().collect();
    let tail = stats::supported_tail(all_ms.len());
    let notes = vec![
        format!("daemon ready {ready_ms:.1} ms after spawn; one closed-loop client, one connection per request"),
        format!(
            "{} requests, observed cache hit rate {hit_rate:.4} ({}); request latency over the whole window, \
             ms: p50 {:.3}, p{tail} {:.3} (the highest percentile with ten samples beyond it), {:.1} requests/s",
            log.requests,
            if shape_ok { "as designed" } else { "NOT as designed" },
            stats::median(&all_ms),
            stats::percentile(&all_ms, tail),
            all_ms.len() as f64 / log.timed.window_s,
        ),
    ];
    let window_s = log.timed.window_s;
    let (kinds, loops_ms) = log.timed.into_kinds(shape);
    let stored_bytes_per_user_byte = stored_ratio(&inputs, "c.ntdc")?;
    Ok(EndToEnd {
        tally,
        shape_ok,
        setup_s,
        kinds,
        loops_ms,
        window_s,
        stored_bytes_per_user_byte,
        notes,
    })
}
