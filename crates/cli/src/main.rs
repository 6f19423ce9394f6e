//! `ntadoc` — compress text files and analyze them without decompression.
//!
//! ```text
//! ntadoc compress <file|dir>... -o corpus.ntdc    build a compressed corpus
//! ntadoc stats <corpus.ntdc>                      Table-I style statistics
//! ntadoc run <task> <corpus.ntdc> [options]       run an analytics task
//! ntadoc extract <corpus.ntdc> <file#> <off> <len>  random access
//! ntadoc decompress <corpus.ntdc> [-d outdir]     expand back to files
//! ```
//!
//! `run` options: `--device nvm|dram|ssd|hdd|reram|pcm`,
//! `--persistence phase|op|none`, `--naive`, `--top N`, `--ngram N`,
//! `--trace-out <report.json>` (write the versioned run report — span
//! tree, metric snapshot, access stats — as JSON).

mod cmd;
mod pipeline;
mod serve;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cmd::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, cmd::CliError::Usage(_)) {
                eprintln!();
                eprintln!("{}", cmd::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
