//! `ntadoc-bench <experiment>… | all | list | report [--gate [name…]]`
//!
//! The driver owns everything that is the same for every experiment: the
//! corpus scale (read once, an unparseable value is an error), core
//! detection, and each document's [`Emitter`] from creation to `finish`,
//! after which it prints the document's path and headlines: the one line
//! an experiment prints.
//! Experiments named in one invocation share one [`Harness`] and so one
//! dataset cache.

use std::process::ExitCode;

use ntadoc_bench::experiments::{resolve, REGISTRY};
use ntadoc_bench::{report, Emitter, Harness};

const USAGE: &str = "usage: ntadoc-bench <experiment>… | all | list | report [--gate [name…]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None => Err(format!("{USAGE}\n(`ntadoc-bench list` names the experiments)")),
        Some("list") => {
            for e in REGISTRY {
                println!("{:16} {}", e.name, e.about);
            }
            Ok(())
        }
        Some("report") => report::run(&args[1..]),
        Some(_) => run_experiments(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn run_experiments(names: &[String]) -> Result<(), String> {
    let experiments = resolve(names)?;
    let harness = Harness::from_env()?;
    eprintln!("[env] scale {}, {} hardware thread(s)", harness.scale(), harness.cores());
    for e in experiments {
        eprintln!("\n[run] {} — {}", e.name, e.about);
        let mut em = Emitter::new(e.name, &harness);
        (e.run)(&harness, &mut em);
        let headlines: Vec<String> =
            em.headlines().iter().map(|(k, v)| format!("{k}={}", v.compact())).collect();
        println!("{}: {}", em.finish().display(), headlines.join(" "));
    }
    Ok(())
}
