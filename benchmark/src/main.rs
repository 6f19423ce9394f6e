//! Two-clock end-to-end benchmark for N-TADOC-rs.
//!
//! ```text
//! benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! `run` drives the real `ntadoc` binary with tracing off for the
//! end-to-end numbers and checks every output against an independent
//! oracle; the traced pass then wraps calls into each layer's public
//! functions in spans for the per-layer numbers. `--trace 0` / `--trace 1`
//! run only the one pass, which is how the benchmark driver calls it;
//! without `--trace` both run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Every number carries its clock: **wall** is host time and has run-to-run
//! noise; **exact** is the simulator's modelled (virtual) time, a count of
//! lines touched or a size, and repeats exactly for a given seed.

mod gen;
mod layers;
mod oracle;
mod proc;
mod selfcheck;
mod stats;
mod trace;
mod wire;
mod workloads;
mod yard;

use std::path::PathBuf;
use std::process::ExitCode;

use ntadoc_pmem::Json;

use workloads::{Ctx, EndToEnd, Workload};

/// The clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time (or host memory): has run-to-run noise.
    Wall,
    /// The simulator's modelled time, or a count: repeats exactly for a seed.
    Exact,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Exact => "exact",
        }
    }
}

/// `(name, unit, clock)` of every end-to-end metric, as `BENCHMARK.json`
/// lists them. A job is one round of the workload's commands for the CLI
/// workloads, a hundred requests in `serve_hot`'s mix, and one round of the
/// four servable tasks on `serve_cold`; its wall time is stated in
/// reference loops timed in the same window (see `yard.rs`).
pub const END_TO_END: [(&str, &str, Clock); 4] = [
    ("setup_s", "s", Clock::Wall),
    ("job_ref_loops", "loops", Clock::Wall),
    ("peak_rss_mb", "MB", Clock::Wall),
    ("stored_bytes_per_user_byte", "ratio", Clock::Exact),
];

const USAGE: &str = "usage:
  benchmark run --workload <ingest|analytics|serve_hot|serve_cold|all> [--seed N] [--seconds S] [--trace 0|1]
  benchmark selfcheck [--seed N] [--seconds S]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes.
    trace: Option<bool>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("`{s}`: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workloads: Vec::new(), seed: 0xD00D, seconds: 10.0, trace: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => out
                .workloads
                .push(Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?),
            "--seed" => out.seed = parse_u64(value)?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds `{value}`: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => out.trace = Some(parse_u64(value)? != 0),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(out)
}

/// The end-to-end metric values of one run, in [`END_TO_END`] order.
pub fn end_to_end_values(e: &EndToEnd) -> [f64; 4] {
    [
        e.setup_s,
        e.job_ref_loops(),
        e.tally.peak_rss_kb as f64 / 1024.0,
        e.stored_bytes_per_user_byte,
    ]
}

fn metrics_json<'a>(rows: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::object(rows.into_iter().map(|(name, unit, value)| {
        assert!(value.is_finite(), "metric {name} is not a number");
        (name, Json::object([("value", Json::F64(value)), ("unit", Json::from(unit))]))
    }))
}

/// Run the requested passes of one workload, print the report, and return
/// the result line plus whether everything checked out.
fn run_workload(w: Workload, ctx: &Ctx, trace: Option<bool>) -> std::io::Result<(Json, bool)> {
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Json::object::<&str, Json>([]);
    if trace != Some(true) {
        let e = workloads::end_to_end(w, ctx)?;
        println!("== {} · end to end, tracing off (wall clock) ==", w.name());
        for note in &e.notes {
            println!("   {note}");
        }
        println!(
            "   {} operations timed in {:.2} s; wall ms by kind (p{} is the typical time):",
            e.samples(),
            e.window_s,
            workloads::TYPICAL
        );
        for k in &e.kinds {
            let tail = stats::supported_tail(k.ms.len());
            println!(
                "   {:>5.0} a job × {:<28} n {:>6}  p{} {:>10.3}  p50 {:>10.3}  p{tail} {:>10.3}",
                k.per_job,
                k.name,
                k.ms.len(),
                workloads::TYPICAL,
                stats::percentile(&k.ms, workloads::TYPICAL),
                stats::median(&k.ms),
                stats::percentile(&k.ms, tail),
            );
        }
        println!(
            "   one job: {:.3} ms at the typical times; reference loop: n {}, p{} {:.3} ms, p50 {:.3} ms",
            e.job_ms(),
            e.loops_ms.len(),
            workloads::TYPICAL,
            e.loop_ms(),
            stats::median(&e.loops_ms),
        );
        let values = end_to_end_values(&e);
        for ((name, unit, clock), value) in END_TO_END.iter().zip(values) {
            println!("   {name:<28} {value:>14.4} {unit:<6} {}", clock.label());
        }
        println!(
            "   failed_ops_ratio             {:>14.4} ({} of {} operations)",
            e.tally.failed as f64 / e.tally.attempted as f64,
            e.tally.failed,
            e.tally.attempted
        );
        attempted += e.tally.attempted;
        failed += e.tally.failed;
        correct &= e.shape_ok;
        metrics = metrics_json(END_TO_END.iter().zip(values).map(|(&(n, u, _), v)| (n, u, v)));
    }
    if trace != Some(false) {
        let t = layers::traced_pass(w, ctx)?;
        println!("== {} · per layer, traced in-process pass ==", w.name());
        for m in &t.metrics {
            println!("   {:<44} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.clock.label());
        }
        println!("   trace written to {}", t.trace_file.display());
        attempted += t.attempted;
        failed += t.failed;
        if trace == Some(true) {
            metrics = metrics_json(t.metrics.iter().map(|m| (m.name.as_str(), m.unit, m.value)));
        }
    }
    correct &= failed == 0;
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics),
    ]);
    Ok((line, correct))
}

fn run(args: &Args, bin: PathBuf) -> Result<bool, String> {
    if args.workloads.is_empty() {
        return Err("run needs --workload".into());
    }
    let ctx = Ctx { bin, seed: args.seed, seconds: args.seconds };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for &w in &args.workloads {
        let (line, correct) =
            run_workload(w, &ctx, args.trace).map_err(|e| format!("{}: {e}", w.name()))?;
        all_correct &= correct;
        lines.push(line.compact());
    }
    // Result lines last, one per workload.
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// Build the program under test, then move into the benchmark's own
/// directory: work files and the daemon's socket live under its `out/`,
/// and short relative paths keep the socket path under the kernel's
/// 108-byte limit wherever the checkout is.
fn prepare() -> Result<PathBuf, String> {
    let bin = proc::build_ntadoc().map_err(|e| e.to_string())?;
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| format!("{}: {e}", env!("CARGO_MANIFEST_DIR")))?;
    // In-process passes use the same worker count as the children.
    std::env::set_var("RAYON_NUM_THREADS", proc::CHILD_THREADS);
    Ok(bin)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "reap") {
        // Internal: the helper `proc::run_cli` runs every CLI child under.
        return match proc::reap_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("reap: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match (args.first().map(String::as_str), parse_args(args.get(1..).unwrap_or(&[])))
    {
        (Some("run"), Ok(parsed)) => prepare().and_then(|bin| run(&parsed, bin)),
        (Some("selfcheck"), Ok(parsed)) => prepare().and_then(|bin| {
            selfcheck::selfcheck(&Ctx { bin, seed: parsed.seed, seconds: parsed.seconds })
        }),
        (Some("run" | "selfcheck"), Err(msg)) => Err(msg),
        _ => Err("expected `run` or `selfcheck`".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the run did not check out (see above)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
