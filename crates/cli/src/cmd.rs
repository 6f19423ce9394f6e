//! Subcommand implementations for the `ntadoc` CLI.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ntadoc::{
    ingest_append, ingest_corpus, snapshot_fingerprint, Accessor, Engine, EngineConfig,
    IngestOptions, Persistence, PoolBackend, PoolLayoutConfig, RunReport, Task, TaskRows,
};
use ntadoc_grammar::{deserialize_compressed, serialize_compressed, Compressed, COARSEN_MIN_EXP};
use ntadoc_pmem::DeviceProfile;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  ntadoc compress <file|dir>... -o <corpus.ntdc> [--ingest-chunks W]
  ntadoc append <corpus.ntdc> <file|dir>... [-o <out.ntdc>]
  ntadoc stats <corpus.ntdc>
  ntadoc run <task> <corpus.ntdc> [--device nvm|dram|ssd|hdd|reram|pcm]
             [--persistence phase|op|none] [--naive] [--top N] [--ngram N]
             [--trace-out <report.json>] [--pool <pool.ntdp>] [--backend file|mmap]
             [--layout fixed|varint]
  ntadoc search <corpus.ntdc> <word>...
  ntadoc extract <corpus.ntdc> <file#> <offset> <len>
  ntadoc decompress <corpus.ntdc> [-d <outdir>]
  ntadoc fsck <pool.ntdp>... [--backend file|mmap]
  ntadoc serve <corpus.ntdc> --socket <path> [--cache N] [--pool <pool.ntdp>]
               [--backend file|mmap]
  ntadoc query --socket <path> <task> [--tenant N] [--top K] [--file F]
  ntadoc query --socket <path> --shutdown

tasks: wordcount | sort | termvector | invertedindex | sequencecount | rankedindex";

/// Why a command failed. Both kinds exit 1; only [`CliError::Usage`] is
/// followed by the usage text, so a typed run-time message (a missing pool
/// directory, a checksum failure) is not buried under twenty lines of it.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// The arguments were wrong: unknown command or flag, missing operand,
    /// unparsable value.
    Usage(String),
    /// The arguments were fine and the work failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Usage(msg) | CliError::Failed(msg)) = self;
        f.write_str(msg)
    }
}

/// An argument error.
pub(crate) fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A run-time failure, from anything printable.
pub(crate) fn fail(err: impl std::fmt::Display) -> CliError {
    CliError::Failed(err.to_string())
}

pub(crate) type CmdResult = Result<(), CliError>;

/// The operand of the flag at `args[i]`: "`<flag>` needs `<what>`" if the
/// arguments end there.
pub(crate) fn operand<'a>(
    args: &'a [String],
    i: usize,
    what: &str,
) -> Result<&'a String, CliError> {
    args.get(i + 1).ok_or_else(|| usage(format!("{} needs {what}", args[i])))
}

/// The numeric operand of the flag at `args[i]`.
pub(crate) fn number<T: std::str::FromStr>(args: &[String], i: usize) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    operand(args, i, "a number")?.parse().map_err(|e| usage(format!("{}: {e}", args[i])))
}

/// Largest `--ngram` and `--ingest-chunks`: both size what a run allocates
/// (head and tail words per rule, a grammar per chunk), so a mistyped one is
/// an argument error and not a failed allocation.
const MAX_SIZING_OPERAND: usize = 4096;

/// The operand of the flag at `args[i]`, a number up to
/// [`MAX_SIZING_OPERAND`].
fn sizing_number(args: &[String], i: usize) -> Result<usize, CliError> {
    let n = number(args, i)?;
    if n > MAX_SIZING_OPERAND {
        return Err(usage(format!("{} must be at most {MAX_SIZING_OPERAND}", args[i])));
    }
    Ok(n)
}

/// The operand of a `--backend` flag at `args[i]`.
pub(crate) fn backend_operand(args: &[String], i: usize) -> Result<PoolBackend, CliError> {
    let name = operand(args, i, "file|mmap")?;
    PoolBackend::parse(name).ok_or_else(|| usage(format!("bad --backend `{name}`")))
}

/// Route a raw argument vector to its subcommand.
pub fn dispatch(args: &[String]) -> CmdResult {
    match args.first().map(String::as_str) {
        Some("compress") => compress(&args[1..]),
        Some("append") => append(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("search") => search(&args[1..]),
        Some("extract") => extract(&args[1..]),
        Some("decompress") => decompress(&args[1..]),
        Some("fsck") => fsck(&args[1..]),
        Some("serve") => crate::serve::serve(&args[1..]),
        Some("query") => crate::serve::query(&args[1..]),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
        None => Err(usage("no command given")),
    }
}

/// Parse a task name (several aliases accepted).
pub fn parse_task(name: &str) -> Result<Task, CliError> {
    name.parse().map_err(|e: ntadoc::UnknownTask| usage(e.to_string()))
}

/// Parse a device name to its profile.
pub fn parse_device(name: &str) -> Result<DeviceProfile, CliError> {
    match name.to_lowercase().as_str() {
        "nvm" | "optane" => Ok(DeviceProfile::nvm_optane()),
        "dram" => Ok(DeviceProfile::dram()),
        "reram" => Ok(DeviceProfile::reram()),
        "pcm" => Ok(DeviceProfile::pcm()),
        "ssd" => Ok(DeviceProfile::ssd_optane(64 << 20)),
        "hdd" => Ok(DeviceProfile::hdd_sas(64 << 20)),
        other => Err(usage(format!("unknown device `{other}`"))),
    }
}

/// Collect input files: plain files directly, directories recursively.
fn collect_inputs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, CliError> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_file() {
            files.push(p.clone());
        } else if p.is_dir() {
            let mut stack = vec![p.clone()];
            while let Some(dir) = stack.pop() {
                let entries =
                    fs::read_dir(&dir).map_err(|e| fail(format!("{}: {e}", dir.display())))?;
                for entry in entries {
                    let path = entry.map_err(fail)?.path();
                    if path.is_dir() {
                        stack.push(path);
                    } else {
                        files.push(path);
                    }
                }
            }
        } else {
            return Err(fail(format!("{}: no such file or directory", p.display())));
        }
    }
    files.sort();
    Ok(files)
}

/// An input file as `(name, text)`: its path as given, and its contents,
/// which must be UTF-8.
fn read_input(path: &Path) -> Result<(String, String), CliError> {
    let text = fs::read_to_string(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    Ok((path.display().to_string(), text))
}

pub(crate) fn load_corpus(path: &str) -> Result<Compressed, CliError> {
    let bytes = fs::read(path).map_err(|e| fail(format!("{path}: {e}")))?;
    deserialize_compressed(&bytes).map_err(|e| fail(format!("{path}: {e}")))
}

// ---- compress -----------------------------------------------------------

fn compress(args: &[String]) -> CmdResult {
    let mut inputs = Vec::new();
    let mut out = None;
    let mut chunks = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                out = Some(operand(args, i, "a path")?.clone());
                i += 2;
            }
            "--ingest-chunks" => {
                chunks = sizing_number(args, i)?;
                if chunks == 0 {
                    return Err(usage("--ingest-chunks must be ≥ 1"));
                }
                i += 2;
            }
            p => {
                inputs.push(PathBuf::from(p));
                i += 1;
            }
        }
    }
    let out = out.ok_or_else(|| usage("missing -o <corpus.ntdc>"))?;
    if inputs.is_empty() {
        return Err(usage("no input files"));
    }
    let files = collect_inputs(&inputs)?;
    let mut comp;
    let mut raw_bytes = 0u64;
    if chunks > 1 {
        // Chunk-parallel ingest: same grammar contract as the serial
        // builder (identical corpus, identical dictionary order), built
        // concurrently and merged through the shared dictionary.
        let texts = files.iter().map(|f| read_input(f)).collect::<Result<Vec<_>, _>>()?;
        raw_bytes = texts.iter().map(|(_, text)| text.len() as u64).sum();
        let (c, report) = ingest_corpus(&texts, &IngestOptions { chunks });
        println!(
            "ingested in {} chunks (modeled {:.1}x parallel speedup)",
            report.chunks,
            report.virtual_speedup()
        );
        comp = c;
    } else {
        // The serial build, Sequitur on a helper thread from two workers
        // on; files are read one at a time as the build takes them.
        let texts =
            files.iter().map(|f| read_input(f).inspect(|(_, text)| raw_bytes += text.len() as u64));
        comp = crate::pipeline::build_corpus(texts)?;
    }
    comp.grammar = comp.grammar.coarsened(COARSEN_MIN_EXP);
    let image = serialize_compressed(&comp).map_err(fail)?;
    fs::write(&out, &image).map_err(|e| fail(format!("{out}: {e}")))?;
    let stats = comp.grammar.stats();
    println!(
        "compressed {} files / {} words ({} raw bytes) → {} ({} bytes, {:.1}x in symbols)",
        comp.file_count(),
        stats.expanded_words,
        raw_bytes,
        out,
        image.len(),
        stats.compression_ratio()
    );
    Ok(())
}

// ---- append ---------------------------------------------------------------

/// Extend an existing corpus image through the streaming append path: the
/// new files are compressed as one chunk, re-interned into the shared
/// dictionary, spliced at the root, and only the dirtied rules are
/// resummed — no full rebuild. Writes back in place unless `-o` names a
/// different output, and moves the image's snapshot fingerprint.
fn append(args: &[String]) -> CmdResult {
    for line in append_image(args)? {
        println!("{line}");
    }
    Ok(())
}

/// The work of `ntadoc append`: the grown image written, and the lines the
/// command prints returned. Only the image is built — no engine, whose
/// facts and plan nothing here would read.
fn append_image(args: &[String]) -> Result<[String; 3], CliError> {
    let corpus_path = args.first().ok_or_else(|| usage("append needs a corpus path"))?.clone();
    let mut inputs = Vec::new();
    let mut out = corpus_path.clone();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                out = operand(args, i, "a path")?.clone();
                i += 2;
            }
            p => {
                inputs.push(PathBuf::from(p));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        return Err(usage("append needs at least one input file"));
    }
    let files = collect_inputs(&inputs)?;
    let texts = files.iter().map(|f| read_input(f)).collect::<Result<Vec<_>, _>>()?;
    let base = load_corpus(&corpus_path)?;
    let step = ingest_append(&base, &texts).map_err(fail)?;
    let image = serialize_compressed(&step.comp).map_err(fail)?;
    fs::write(&out, &image).map_err(|e| fail(format!("{out}: {e}")))?;
    Ok([
        format!(
            "appended {} files / {} tokens ({} raw bytes) → {out} ({} bytes)",
            texts.len(),
            step.appended_tokens,
            step.appended_bytes,
            image.len(),
        ),
        format!(
            "  {} new words, {} new rules, {} dirty rules resummed in {:.3} ms (virtual)",
            step.outcome.new_words,
            step.outcome.new_rules.len(),
            step.outcome.dirty_rules.len(),
            step.virtual_ns as f64 / 1e6,
        ),
        format!(
            "  snapshot {:016x} → {:016x}",
            snapshot_fingerprint(&base),
            snapshot_fingerprint(&step.comp)
        ),
    ])
}

// ---- stats ---------------------------------------------------------------

fn stats(args: &[String]) -> CmdResult {
    let path = args.first().ok_or_else(|| usage("stats needs a corpus path"))?;
    let comp = load_corpus(path)?;
    let s = comp.grammar.stats();
    println!("corpus          {path}");
    println!("files           {}", comp.file_count());
    println!("rules           {}", s.rule_count);
    println!("vocabulary      {}", s.vocabulary);
    println!("words           {}", s.expanded_words);
    println!("symbols         {}", s.total_symbols);
    println!("compression     {:.2}x (words per grammar symbol)", s.compression_ratio());
    Ok(())
}

// ---- run -----------------------------------------------------------------

fn run(args: &[String]) -> CmdResult {
    let task = parse_task(args.first().ok_or_else(|| usage("run needs a task"))?)?;
    let path = args.get(1).ok_or_else(|| usage("run needs a corpus path"))?;
    let mut profile = DeviceProfile::nvm_optane();
    let mut cfg = EngineConfig::ntadoc();
    let mut top = 20usize;
    let mut trace_out: Option<PathBuf> = None;
    let mut pool: Option<PathBuf> = None;
    let mut backend = PoolBackend::File;
    let mut layout = PoolLayoutConfig::Fixed;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--pool" => {
                pool = Some(PathBuf::from(operand(args, i, "a path")?));
                i += 2;
            }
            "--backend" => {
                backend = backend_operand(args, i)?;
                i += 2;
            }
            "--layout" => {
                let name = operand(args, i, "fixed|varint")?;
                layout = PoolLayoutConfig::parse(name)
                    .ok_or_else(|| usage(format!("bad --layout `{name}` (want fixed|varint)")))?;
                i += 2;
            }
            "--device" => {
                profile = parse_device(operand(args, i, "a name")?)?;
                i += 2;
            }
            "--persistence" => {
                cfg.persistence = match operand(args, i, "phase|op|none")?.as_str() {
                    "phase" => Persistence::PhaseLevel,
                    "op" | "operation" => Persistence::OperationLevel,
                    "none" => Persistence::None,
                    other => return Err(usage(format!("bad --persistence `{other}`"))),
                };
                i += 2;
            }
            "--naive" => {
                // Wherever it stands: options given before it survive.
                let EngineConfig { persistence, ngram, .. } = cfg;
                cfg = EngineConfig { persistence, ngram, ..EngineConfig::naive() };
                i += 1;
            }
            "--top" => {
                top = number(args, i)?;
                i += 2;
            }
            "--ngram" => {
                cfg.ngram = sizing_number(args, i)?;
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(operand(args, i, "a path")?));
                i += 2;
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let comp = load_corpus(path)?;
    let mut engine = Engine::builder(comp)
        .config(cfg)
        .profile(profile.clone())
        .pool_backend(backend)
        .pool_layout(layout)
        .label("cli")
        .build()
        .map_err(fail)?;
    if let Some(pool) = pool {
        // Durable-pool mode: the session's DAG lives in (and persists to)
        // the pool file, through the chosen backend.
        let mut session = engine.open_pool(&pool, task).map_err(fail)?;
        let out = session.traverse_rows().map_err(fail)?;
        print_rows(&out, top)?;
        let stats = session.sim_device().stats();
        eprintln!(
            "\n[{}] {:.3} ms (virtual) over pool {} ({} backend)",
            profile.name,
            stats.virtual_ns as f64 / 1e6,
            pool.display(),
            backend.name(),
        );
        return write_trace(trace_out, &session.report());
    }
    let out = engine.run_rows(task).map_err(fail)?;
    print_rows(&out, top)?;
    let rep = engine.last_report.as_ref().expect("report");
    eprintln!("\n{}", rep.summary_line());
    write_trace(trace_out, rep)
}

/// `--trace-out`: the run's report as JSON at `path`, its span tree on
/// stderr. Without the flag, nothing.
fn write_trace(path: Option<PathBuf>, rep: &RunReport) -> CmdResult {
    let Some(path) = path else { return Ok(()) };
    fs::write(&path, rep.to_json().pretty())
        .map_err(|e| fail(format!("--trace-out {}: {e}", path.display())))?;
    eprintln!("span tree:\n{}", rep.spans.render());
    eprintln!("[trace] wrote report v{} to {}", rep.version, path.display());
    Ok(())
}

/// Print the first `top` rows of a run's result to stdout.
fn print_rows(rows: &TaskRows, top: usize) -> CmdResult {
    let mut out = io::stdout().lock();
    write_rows(&mut out, rows, top).and_then(|()| out.flush()).map_err(fail)
}

/// A run's result as `ntadoc run` shows it: `top` rows, counts by count
/// descending (then key), everything else in the result's own order; a term
/// vector's five and a ranked index's three first items per row. Words and
/// file names are looked up as they are written.
fn write_rows(out: &mut impl Write, rows: &TaskRows, top: usize) -> io::Result<()> {
    /// The row's list as `name<open>count<close>`, a space between two.
    fn listed(
        out: &mut impl Write,
        row: ntadoc::Row<'_>,
        first: usize,
        (open, close): (&str, &str),
    ) -> io::Result<()> {
        for (i, (name, count)) in row.pairs().take(first).enumerate() {
            let space = if i > 0 { " " } else { "" };
            write!(out, "{space}{name}{open}{count}{close}")?;
        }
        writeln!(out)
    }
    /// The key's words, a space between two.
    fn key(out: &mut impl Write, row: ntadoc::Row<'_>) -> io::Result<()> {
        for (i, word) in row.key().enumerate() {
            write!(out, "{}{word}", if i > 0 { " " } else { "" })?;
        }
        Ok(())
    }
    match rows.task() {
        Task::WordCount | Task::SequenceCount => {
            for at in rows.top_by_count(top) {
                let row = rows.row(at as usize);
                write!(out, "{:>10}  ", row.count())?;
                key(out, row)?;
                writeln!(out)?;
            }
        }
        Task::Sort => {
            for row in rows.rows().take(top) {
                key(out, row)?;
                writeln!(out, "  {}", row.count())?;
            }
        }
        Task::TermVector => {
            for row in rows.rows().take(top) {
                key(out, row)?;
                out.write_all(b": ")?;
                listed(out, row, 5, (":", ""))?;
            }
        }
        Task::InvertedIndex => {
            for row in rows.rows().take(top) {
                key(out, row)?;
                writeln!(out, ": {} file(s)", row.names().len())?;
            }
        }
        Task::RankedInvertedIndex => {
            for row in rows.rows().take(top) {
                key(out, row)?;
                out.write_all(b": ")?;
                listed(out, row, 3, ("(", ")"))?;
            }
        }
    }
    Ok(())
}

// ---- search ----------------------------------------------------------------

fn search(args: &[String]) -> CmdResult {
    let path = args.first().ok_or_else(|| usage("search needs a corpus path"))?;
    let words = &args[1..];
    if words.is_empty() {
        return Err(usage("search needs at least one word"));
    }
    let comp = load_corpus(path)?;
    let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().map_err(fail)?;
    let index = engine.run_rows(Task::InvertedIndex).map_err(fail)?;
    let mut hits = String::new();
    write_hits(&mut hits, &index, words).map_err(fail)?;
    print!("{hits}");
    let rep = engine.last_report.as_ref().expect("report");
    eprintln!(
        "[NVM] index built directly on compressed data in {:.3} ms (virtual)",
        rep.total_secs() * 1e3
    );
    Ok(())
}

/// What `ntadoc search` prints for `words`, each lower-cased and looked up
/// in the inverted index `index`: its file count and first ten files, or
/// `not found`.
fn write_hits(
    out: &mut impl std::fmt::Write,
    index: &TaskRows,
    words: &[String],
) -> std::fmt::Result {
    for w in words {
        let q = w.to_lowercase();
        let Some(row) = find_word(index, &q) else {
            writeln!(out, "{q}: not found")?;
            continue;
        };
        let files = row.names();
        let more = files.len().saturating_sub(10);
        writeln!(out, "{q}: {} file(s)", files.len())?;
        for f in files.take(10) {
            writeln!(out, "  {f}")?;
        }
        if more > 0 {
            writeln!(out, "  … and {more} more")?;
        }
    }
    Ok(())
}

/// The row of a word-keyed result whose key is `word`: a binary search, the
/// rows being in key order with no key twice.
fn find_word<'a>(rows: &'a TaskRows, word: &str) -> Option<ntadoc::Row<'a>> {
    let key = |at: usize| rows.row(at).key().next().expect("a key has an id");
    let (mut lo, mut hi) = (0, rows.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match key(mid).cmp(word) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(rows.row(mid)),
        }
    }
    None
}

// ---- extract ---------------------------------------------------------------

fn extract(args: &[String]) -> CmdResult {
    /// Positional operand `at`, parsed as a number.
    fn positional<T: std::str::FromStr>(
        args: &[String],
        at: usize,
        what: &str,
    ) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let arg = args.get(at).ok_or_else(|| usage(format!("extract needs {what}")))?;
        arg.parse().map_err(|e| usage(format!("{what}: {e}")))
    }
    let path = args.first().ok_or_else(|| usage("extract needs a corpus path"))?;
    let fid: usize = positional(args, 1, "a file#")?;
    let offset: u64 = positional(args, 2, "an offset")?;
    let len: usize = positional(args, 3, "a length")?;
    let comp = load_corpus(path)?;
    if fid >= comp.file_count() {
        return Err(fail(format!("file# {fid} out of range ({} files)", comp.file_count())));
    }
    let accessor = Accessor::new(&comp, DeviceProfile::nvm_optane()).map_err(fail)?;
    let words = accessor.extract(fid, offset, len);
    println!("{}", words.join(" "));
    eprintln!(
        "[{}] words {}..{} of {} total",
        comp.file_names[fid],
        offset,
        offset + words.len() as u64,
        accessor.file_len(fid)
    );
    Ok(())
}

// ---- decompress -------------------------------------------------------------

fn decompress(args: &[String]) -> CmdResult {
    let path = args.first().ok_or_else(|| usage("decompress needs a corpus path"))?;
    let mut outdir = PathBuf::from(".");
    if let Some(pos) = args.iter().position(|a| a == "-d") {
        outdir = PathBuf::from(operand(args, pos, "a directory")?);
    }
    let comp = load_corpus(path)?;
    let flat = flat_names(&comp.file_names)?;
    fs::create_dir_all(&outdir).map_err(|e| fail(format!("{}: {e}", outdir.display())))?;
    let texts = comp.grammar.expand_text(&comp.dict);
    for (flat, text) in flat.iter().zip(texts) {
        let target = outdir.join(flat);
        fs::write(&target, text).map_err(|e| fail(format!("{}: {e}", target.display())))?;
    }
    println!("wrote {} files to {}", comp.file_count(), outdir.display());
    Ok(())
}

/// Each corpus file's original path flattened into a single file name. Two
/// files that flatten to one name would overwrite each other: that is an
/// error naming both, raised before anything is written.
fn flat_names(names: &[String]) -> Result<Vec<String>, CliError> {
    let flat: Vec<String> = names.iter().map(|name| name.replace(['/', '\\'], "_")).collect();
    let mut seen = std::collections::HashMap::with_capacity(flat.len());
    for (at, target) in flat.iter().enumerate() {
        if let Some(first) = seen.insert(target.as_str(), at) {
            return Err(fail(format!(
                "`{}` and `{}` would both be written to `{target}`",
                names[first], names[at]
            )));
        }
    }
    Ok(flat)
}

// ---- fsck -------------------------------------------------------------------

/// Validate one or more on-disk pool files: header integrity, truncation,
/// and the state of the embedded transaction log. With `--backend
/// file|mmap` the pool is additionally opened through that device (the
/// mmap path maps it) and the on-disk bytes are verified against the
/// reconstructed device image. Exits with an error (and a per-file
/// verdict on stdout) if any pool is unrecoverable.
fn fsck(args: &[String]) -> CmdResult {
    let mut backend = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                backend = Some(backend_operand(args, i)?);
                i += 2;
            }
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        return Err(usage("fsck needs at least one pool path"));
    }
    let mut bad = 0usize;
    for path in paths {
        match ntadoc_pmem::fsck_pool(std::path::Path::new(path)) {
            Ok(rep) => {
                let h = &rep.header;
                println!(
                    "{path}: v{} line {} B, capacity {} B (main {} / scratch {} / log {})",
                    h.version,
                    h.line_size,
                    h.layout.capacity,
                    h.layout.main_len,
                    h.layout.scratch_len,
                    h.layout.log_len,
                );
                if rep.truncated {
                    println!(
                        "  file is short ({} B on disk); missing lines read as zero",
                        rep.file_len
                    );
                }
                if rep.log.needs_rollback() {
                    println!(
                        "  txlog: OPEN tx #{} with {} undo entries ({} B) — reopen will roll back",
                        rep.log.active_tx, rep.log.valid_entries, rep.log.undo_bytes,
                    );
                } else {
                    println!("  txlog: clean (last committed tx #{})", rep.log.last_tx_id);
                }
                match &rep.unrecoverable {
                    None => println!("  verdict: recoverable"),
                    Some(why) => {
                        println!("  verdict: UNRECOVERABLE ({why})");
                        bad += 1;
                    }
                }
                if let (Some(kind), None, Some(profile)) =
                    (backend, &rep.unrecoverable, rep.profile.clone())
                {
                    // Deep check: open through the requested device, with
                    // a profile of the pool's line size, and compare the
                    // file byte-for-byte against the image the device
                    // reconstructed from it.
                    let opened = kind.open(std::path::Path::new(path), profile);
                    match opened.and_then(|d| d.verify_file_matches_device().map(|()| d)) {
                        Ok(_) => println!("  {}: open + byte-verify OK", kind.name()),
                        Err(e) => {
                            println!("  {}: open/verify FAILED ({e})", kind.name());
                            bad += 1;
                        }
                    }
                }
            }
            Err(e) => {
                println!("{path}: UNRECOVERABLE ({e})");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        return Err(fail(format!("{bad} pool(s) failed fsck")));
    }
    Ok(())
}

// ---- helpers for tests ------------------------------------------------------

/// Compress the given named texts into an image (test helper and library
/// entry for embedding the CLI).
#[cfg(test)]
pub fn compress_texts(files: &[(String, String)], coarsen: u64) -> Vec<u8> {
    use ntadoc_grammar::{CorpusBuilder, TokenizerConfig};
    let mut b = CorpusBuilder::new(TokenizerConfig::default());
    for (n, t) in files {
        b.add_file(n.clone(), t);
    }
    let mut comp = b.finish();
    comp.grammar = comp.grammar.coarsened(coarsen);
    serialize_compressed(&comp).expect("test corpus fits u32 image fields")
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ntadoc::TaskOutput;

    use super::*;

    #[test]
    fn task_aliases_parse() {
        assert_eq!(parse_task("wordcount").unwrap(), Task::WordCount);
        assert_eq!(parse_task("wc").unwrap(), Task::WordCount);
        assert_eq!(parse_task("ranked-index").unwrap(), Task::RankedInvertedIndex);
        assert_eq!(parse_task("SEQUENCE_COUNT").unwrap(), Task::SequenceCount);
        assert!(parse_task("bogus").is_err());
    }

    #[test]
    fn devices_parse() {
        assert_eq!(parse_device("nvm").unwrap().name, "NVM");
        assert_eq!(parse_device("PCM").unwrap().name, "PCM");
        assert!(parse_device("floppy").is_err());
    }

    /// The printer as it was while results were strings: the reference
    /// [`write_rows`] is held to.
    fn print_output(out: &TaskOutput, top: usize) -> String {
        use std::fmt::Write;
        fn by_count<K: Ord>(m: &BTreeMap<K, u64>, top: usize) -> Vec<(&K, &u64)> {
            let mut rows: Vec<_> = m.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            rows.truncate(top);
            rows
        }
        let mut text = String::new();
        match out {
            TaskOutput::WordCount(m) => {
                for (w, c) in by_count(m, top) {
                    writeln!(text, "{c:>10}  {w}").unwrap();
                }
            }
            TaskOutput::Sort(rows) => {
                for (w, c) in rows.iter().take(top) {
                    writeln!(text, "{w}  {c}").unwrap();
                }
            }
            TaskOutput::TermVector(files) => {
                for (f, words) in files.iter().take(top) {
                    let sig: Vec<String> =
                        words.iter().take(5).map(|(w, c)| format!("{w}:{c}")).collect();
                    writeln!(text, "{f}: {}", sig.join(" ")).unwrap();
                }
            }
            TaskOutput::InvertedIndex(m) => {
                for (w, files) in m.iter().take(top) {
                    writeln!(text, "{w}: {} file(s)", files.len()).unwrap();
                }
            }
            TaskOutput::SequenceCount(m) => {
                for (g, c) in by_count(m, top) {
                    writeln!(text, "{c:>10}  {}", g.join(" ")).unwrap();
                }
            }
            TaskOutput::RankedInvertedIndex(m) => {
                for (g, files) in m.iter().take(top) {
                    let ranked: Vec<String> =
                        files.iter().take(3).map(|(f, c)| format!("{f}({c})")).collect();
                    writeln!(text, "{}: {}", g.join(" "), ranked.join(" ")).unwrap();
                }
            }
        }
        text
    }

    #[test]
    fn rows_print_the_bytes_their_strings_printed() {
        // Eight files of overlapping phrases (one empty, so counts tie and
        // lists differ in length); then the same with a dictionary only a
        // forged image holds: "a" twice, and words with spaces and a tab.
        let files: Vec<(String, String)> = (0..8usize)
            .map(|f| {
                let words = (0..f * 7).map(|w| format!("w{}", (w * (f + 1) + w / 3) % 11));
                (format!("file{f}"), words.collect::<Vec<_>>().join(" "))
            })
            .collect();
        let tidy = deserialize_compressed(&compress_texts(&files, 4)).unwrap();
        let mut forged = tidy.clone();
        let hostile = ["a b", "a", "b", "a\tb", "a", "é x"];
        let word = |id: usize| hostile.get(id).map_or(format!("w{id}"), |w| w.to_string());
        forged.dict =
            ntadoc_grammar::Dictionary::from_words((0..tidy.dict.len()).map(word).collect());

        for comp in [tidy, forged] {
            let comp = std::sync::Arc::new(comp);
            let runs = [EngineConfig::ntadoc(), EngineConfig::naive()].map(|cfg| {
                let cfg = EngineConfig { ngram: 2, ..cfg };
                let mut engine = Engine::builder(comp.clone()).config(cfg).build().unwrap();
                Task::ALL.map(|task| engine.run_rows(task).unwrap())
            });
            let mut baseline = ntadoc::UncompressedEngine::builder(comp.clone()).build();
            let scans = Task::ALL.map(|task| baseline.run_rows(task).unwrap());
            for rows in runs.iter().flatten().chain(&scans) {
                let strings = rows.clone().into_strings();
                for top in [0, 1, 3, 20, usize::MAX] {
                    let mut printed = Vec::new();
                    write_rows(&mut printed, rows, top).unwrap();
                    let printed = String::from_utf8(printed).unwrap();
                    assert_eq!(printed, print_output(&strings, top), "{}, top {top}", rows.task());
                }
            }
        }
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&["frobnicate".into()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// `main` prints the usage text after an argument error and only the
    /// typed message after a run-time failure; both exit 1.
    #[test]
    fn argument_errors_and_run_time_failures_are_told_apart() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-errors-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let text = dir.join("text.txt");
        fs::write(&text, "alpha beta gamma alpha beta gamma").unwrap();
        let image = dir.join("corpus.ntdc").display().to_string();
        dispatch(&["compress".into(), text.display().to_string(), "-o".into(), image.clone()])
            .unwrap();
        let run = |args: &[&str]| {
            dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };

        // Unknown command or flag, missing operand, unparsable value.
        for args in [
            &["frobnicate"][..],
            &[],
            &["run"],
            &["run", "wordcount"],
            &["run", "bogus-task", &image],
            &["run", "wordcount", &image, "--frobnicate"],
            &["run", "wordcount", &image, "--pool"],
            &["run", "wordcount", &image, "--top", "many"],
            &["run", "wordcount", &image, "--device", "floppy"],
            &["run", "wordcount", &image, "--backend", "tape"],
            &["run", "wordcount", &image, "--persistence", "sometimes"],
            &["run", "wordcount", &image, "--persistence"],
            &["serve", &image, "--socket", "unbound.sock", "--cache", "many"],
            &["serve", &image, "--socket", "unbound.sock", "--max-batch", "1"],
            &["compress", &image],
            &["compress", "-o", &image, "--ingest-chunks", "0"],
            &["compress", "-o", &image, "--ingest-chunks", "4294967296"],
            &["run", "sequencecount", &image, "--ngram", "18446744073709551615"],
            &["extract", &image, "zero", "0", "1"],
            &["fsck"],
            &["serve", &image],
            &["query", "wordcount"],
        ] {
            assert!(matches!(run(args), CliError::Usage(_)), "{args:?} is an argument error");
        }
        assert_eq!(run(&["run", "wordcount", &image, "--pool"]).to_string(), "--pool needs a path");
        assert_eq!(run(&["compress", "-o"]).to_string(), "-o needs a path");
        assert_eq!(
            run(&["run", "wordcount", &image, "--persistence"]).to_string(),
            "--persistence needs phase|op|none"
        );

        // Well-formed arguments, failing work: the message stands alone.
        let corrupt = dir.join("corrupt.ntdc").display().to_string();
        let mut bytes = fs::read(&image).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&corrupt, bytes).unwrap();
        let missing = dir.join("missing.ntdc").display().to_string();
        for args in [
            &["run", "wordcount", &image, "--pool", "/nonexistent/p.ntdp"][..],
            &["run", "wordcount", &corrupt],
            &["stats", &missing],
            &["compress", &missing, "-o", &image],
            &["extract", &image, "9", "0", "1"],
            &["fsck", &missing],
        ] {
            assert!(matches!(run(args), CliError::Failed(_)), "{args:?} is a run-time failure");
        }
        assert!(run(&["run", "wordcount", &corrupt]).to_string().contains("checksum"));
        fs::remove_dir_all(&dir).ok();
    }

    /// `--trace-out` writes the report whether the run was in memory or
    /// over a pool file (created, then reopened), and `none` is a
    /// persistence the usage text owns up to.
    #[test]
    fn trace_out_is_written_with_and_without_a_pool() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-trace-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let text = dir.join("text.txt");
        fs::write(&text, "alpha beta gamma alpha beta gamma delta").unwrap();
        let path = |name: &str| dir.join(name).display().to_string();
        let (image, pool) = (path("corpus.ntdc"), path("pool.ntdp"));
        let run = |args: &[&str]| dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        run(&["compress", &text.display().to_string(), "-o", &image]).unwrap();

        for (name, extra) in [
            ("memory.json", &[][..]),
            ("created.json", &["--pool", &pool]),
            ("reopened.json", &["--pool", &pool, "--backend", "mmap"]),
            ("unpersisted.json", &["--persistence", "none"]),
        ] {
            let report = path(name);
            let mut args = vec!["run", "wordcount", &image, "--trace-out", &report];
            args.extend_from_slice(extra);
            run(&args).unwrap();
            let written = fs::read_to_string(&report).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rep = RunReport::from_json(&ntadoc_pmem::Json::parse(&written).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(rep.task, Task::WordCount, "{name}");
            assert!(rep.total_ns() > 0, "{name}");
        }
        let unwritable = path("no-such-dir/report.json");
        let err = run(&["run", "wordcount", &image, "--pool", &pool, "--trace-out", &unwritable]);
        assert!(matches!(err, Err(CliError::Failed(m)) if m.starts_with("--trace-out ")));
        assert!(USAGE.contains("--persistence phase|op|none"));
        fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary argument vectors — subcommands and flags out of [`USAGE`],
    /// numbers that overflow, names of nothing, and paths to a real image, a
    /// torn one, text, garbage and nothing at all — come back from
    /// [`dispatch`] as `Ok` or a typed error; a panic fails the case. Where
    /// the usage text calls a flag's operand a path it is one inside the
    /// case's own directory, so a command that succeeds writes there.
    #[test]
    fn hostile_argument_vectors_are_typed_errors_not_panics() {
        use ntadoc_pmem::Prng;
        const TASKS: [&str; 7] =
            ["wordcount", "sort", "tv", "invertedindex", "sequencecount", "rii", "wordcloud"];
        const NUMBERS: [&str; 9] =
            ["0", "1", "2", "7", "-3", "many", "4294967296", "18446744073709551615", "1e400"];
        const WORDS: [&str; 14] = [
            "phase", "op", "none", "nvm", "floppy", "file", "mmap", "fixed", "varint", "", "é",
            "-", "--", "a\0b",
        ];
        // Each usage entry's subcommand and `(flag, the word after it)`: a
        // `<path>`, a one-letter number, or something else.
        let usage: Vec<(&str, Vec<(&str, &str)>)> = USAGE
            .split("\n  ntadoc ")
            .skip(1)
            .map(|entry| {
                let words: Vec<&str> =
                    entry.split_whitespace().map(|w| w.trim_matches(['[', ']'])).collect();
                let flags = words.windows(2).filter(|pair| pair[0].starts_with('-'));
                (words[0], flags.map(|pair| (pair[0], pair[1])).collect())
            })
            .collect();
        let all_flags: Vec<(&str, &str)> = usage.iter().flat_map(|(_, f)| f.clone()).collect();
        assert!(usage.contains(&("decompress", vec![("-d", "<outdir>")])));
        assert!(all_flags.contains(&("--cache", "N")));

        fn pick<T: Clone>(rng: &mut Prng, pool: &[T]) -> T {
            pool[rng.next_below(pool.len() as u64) as usize].clone()
        }
        let root = std::env::temp_dir().join(format!("ntadoc-cli-hostile-{}", std::process::id()));
        let image = compress_texts(
            &[("d/a".into(), "x y x y z".into()), ("b".into(), "x y z z".into())],
            4,
        );
        let names = [&TASKS[..], &WORDS[..]].concat();
        let mut case = 0;
        let generate = |rng: &mut Prng| {
            case += 1;
            let dir = root.join(format!("case{case}"));
            let path = |name: &str| dir.join(name).display().to_string();
            let (sub, own_flags) = match rng.chance(0.9) {
                true => pick(rng, &usage),
                false => (pick(rng, &["", "frobnicate", "RUN", "--top"]), Vec::new()),
            };
            // Never a corpus `serve` could load: it would bind its socket
            // and wait for a shutdown request nobody sends.
            let corpus = if sub == "serve" { "torn.ntdc" } else { "real.ntdc" };
            let files = [corpus, "torn.ntdc", "text.txt", "junk.ntdp", "none/p", "new", "."];
            let mut args = vec![sub.to_string()];
            if rng.chance(0.6) {
                // The operands the subcommand wants, before the noise.
                match sub {
                    "run" => args.extend([pick(rng, &TASKS).to_string(), path(corpus)]),
                    "compress" => args.push(path("text.txt")),
                    "fsck" => args.push(path("junk.ntdp")),
                    "query" => {}
                    "extract" => {
                        args.push(path(corpus));
                        args.extend([(); 3].map(|()| pick(rng, &NUMBERS).to_string()));
                    }
                    _ => args.push(path(corpus)),
                }
            }
            for _ in 0..rng.next_below(4) {
                let own = !own_flags.is_empty() && rng.chance(0.7);
                let (flag, takes) = pick(rng, if own { &own_flags } else { &all_flags });
                let mut kind = rng.next_below(3);
                if rng.chance(0.75) {
                    args.push(flag.to_string());
                    if takes.starts_with('<') {
                        args.push(path(pick(rng, &files)));
                        continue;
                    }
                    if takes.len() == 1 && rng.chance(0.7) {
                        kind = 1;
                    }
                }
                if rng.chance(0.75) {
                    args.push(match kind {
                        0 => path(pick(rng, &files)),
                        1 => pick(rng, &NUMBERS).to_string(),
                        _ => pick(rng, &names).to_string(),
                    });
                }
            }
            if sub == "decompress" {
                // It writes to the working directory unless told otherwise.
                args.extend(["-d".to_string(), path("out")]);
            }
            (dir, args)
        };
        ntadoc_pmem::for_each_case(
            "hostile_argument_vectors_are_typed_errors_not_panics",
            0x24_0001,
            512,
            generate,
            |(dir, args)| {
                fs::create_dir_all(dir).unwrap();
                fs::write(dir.join("real.ntdc"), &image).unwrap();
                fs::write(dir.join("torn.ntdc"), &image[..image.len() / 2]).unwrap();
                fs::write(dir.join("text.txt"), "alpha beta alpha\n").unwrap();
                fs::write(dir.join("junk.ntdp"), b"definitely not a pool header").unwrap();
                if let Err(CliError::Usage(msg) | CliError::Failed(msg)) = dispatch(args) {
                    assert!(!msg.is_empty(), "{args:?}");
                }
                fs::remove_dir_all(dir).unwrap();
            },
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn decompress_refuses_names_that_flatten_to_one_target() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-flatten-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let names = ["x/a_b.txt", "x/a/b.txt", "y.txt"];
        let files: Vec<(String, String)> =
            names.iter().map(|name| (name.to_string(), format!("text of {name}"))).collect();
        let path = |name: &str| dir.join(name).display().to_string();
        let out = dir.join("out");

        fs::write(path("collide.ntdc"), compress_texts(&files, 4)).unwrap();
        let args = ["decompress".into(), path("collide.ntdc"), "-d".into(), path("out")];
        let err = dispatch(&args).unwrap_err();
        let CliError::Failed(msg) = &err else { panic!("{err:?}") };
        assert!(msg.contains("`x/a_b.txt`") && msg.contains("`x/a/b.txt`"), "{msg}");
        assert!(msg.contains("`x_a_b.txt`"), "{msg}");
        assert!(!out.exists(), "a refused decompress writes nothing");

        // Apart, the same names land where they always have.
        fs::write(path("apart.ntdc"), compress_texts(&files[1..], 4)).unwrap();
        dispatch(&["decompress".into(), path("apart.ntdc"), "-d".into(), path("out")]).unwrap();
        assert_eq!(fs::read_to_string(out.join("x_a_b.txt")).unwrap(), "text of x/a/b.txt");
        assert_eq!(fs::read_dir(&out).unwrap().count(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// `search` finds its words in the id rows, as the string-keyed index
    /// of the whole vocabulary used to: present, absent, mixed case, a word
    /// in more than ten files, the first and the last key.
    #[test]
    fn search_hits_are_what_the_string_index_printed() {
        let mut files: Vec<(String, String)> =
            (0..12).map(|f| (format!("f{f}"), format!("common only{f} zz"))).collect();
        files.push(("last".into(), "aa Rare zz".into()));
        let comp = deserialize_compressed(&compress_texts(&files, 4)).unwrap();
        let mut engine = Engine::builder(comp).build().unwrap();
        let rows = engine.run_rows(Task::InvertedIndex).unwrap();
        let strings = rows.clone().into_strings();
        let index = strings.as_inverted_index().unwrap();

        let words = ["common", "COMMON", "rare", "Rare", "aa", "zz", "only7", "", "a", "zzz", "é"];
        let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let mut expect = String::new();
        for w in &words {
            let q = w.to_lowercase();
            match index.get(&q) {
                Some(files) => {
                    expect += &format!("{q}: {} file(s)\n", files.len());
                    files.iter().take(10).for_each(|f| expect += &format!("  {f}\n"));
                    if files.len() > 10 {
                        expect += &format!("  … and {} more\n", files.len() - 10);
                    }
                }
                None => expect += &format!("{q}: not found\n"),
            }
        }
        let mut hits = String::new();
        write_hits(&mut hits, &rows, &words).unwrap();
        assert_eq!(hits, expect);
        assert!(expect.contains("common: 12 file(s)") && expect.contains("… and 2 more"));
        assert!(expect.contains("rare: 1 file(s)\n  last\n") && expect.contains("zzz: not found"));
    }

    #[test]
    fn compress_texts_round_trips() {
        let image =
            compress_texts(&[("a".into(), "x y x y".into()), ("b".into(), "x y z".into())], 4);
        let comp = deserialize_compressed(&image).unwrap();
        assert_eq!(comp.file_count(), 2);
        assert_eq!(comp.grammar.expand_tokens().len(), 7);
    }

    #[test]
    fn end_to_end_compress_stats_run_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let f1 = dir.join("one.txt");
        fs::write(&f1, "alpha beta gamma alpha beta gamma delta").unwrap();
        let f2 = dir.join("two.txt");
        fs::write(&f2, "alpha beta gamma epsilon").unwrap();
        let out = dir.join("corpus.ntdc");

        dispatch(&[
            "compress".into(),
            f1.display().to_string(),
            f2.display().to_string(),
            "-o".into(),
            out.display().to_string(),
        ])
        .unwrap();
        assert!(out.exists());

        dispatch(&["stats".into(), out.display().to_string()]).unwrap();
        dispatch(&[
            "search".into(),
            out.display().to_string(),
            "alpha".into(),
            "nosuchword".into(),
        ])
        .unwrap();
        dispatch(&[
            "run".into(),
            "wordcount".into(),
            out.display().to_string(),
            "--device".into(),
            "nvm".into(),
        ])
        .unwrap();
        dispatch(&[
            "extract".into(),
            out.display().to_string(),
            "0".into(),
            "1".into(),
            "3".into(),
        ])
        .unwrap();
        let decomp = dir.join("out");
        dispatch(&[
            "decompress".into(),
            out.display().to_string(),
            "-d".into(),
            decomp.display().to_string(),
        ])
        .unwrap();
        let restored = fs::read_dir(&decomp).unwrap().count();
        assert_eq!(restored, 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// `--ngram 0|1` on a sequence task is a typed error (`main` prints it
    /// and exits 1) raised before init: `--ngram 0` used to panic building
    /// the sequence-list caches (exit 101), `--ngram 1` to pay a full init
    /// first. Other tasks never look at `ngram`.
    #[test]
    fn sequence_tasks_reject_an_ngram_below_two() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-ngram-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let text = dir.join("text.txt");
        // Repeats, so the grammar has non-root rules to build caches for.
        fs::write(&text, "alpha beta gamma delta ".repeat(12)).unwrap();
        let image = dir.join("corpus.ntdc").display().to_string();
        dispatch(&["compress".into(), text.display().to_string(), "-o".into(), image.clone()])
            .unwrap();
        assert!(load_corpus(&image).unwrap().grammar.rule_count() > 1);
        let run = |task: &str, ngram: &str, extra: &[&str]| {
            let mut args: Vec<String> =
                ["run", task, &image, "--ngram", ngram].map(String::from).to_vec();
            args.extend(extra.iter().map(|s| s.to_string()));
            dispatch(&args)
        };
        let pool = dir.join("pool.ntdp").display().to_string();
        for task in ["sequencecount", "rankedindex"] {
            for ngram in ["0", "1"] {
                for extra in [&[][..], &["--naive"], &["--persistence", "op"], &["--pool", &pool]] {
                    let err = run(task, ngram, extra).unwrap_err();
                    assert!(
                        matches!(&err, CliError::Failed(msg) if msg.contains("n >= 2")),
                        "{task} --ngram {ngram} {extra:?}: {err:?}"
                    );
                }
            }
            run(task, "2", &[]).unwrap();
        }
        run("wordcount", "0", &[]).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_extends_a_corpus_image_end_to_end() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-append-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let f1 = dir.join("one.txt");
        fs::write(&f1, "alpha beta gamma alpha beta gamma").unwrap();
        let out = dir.join("corpus.ntdc");
        dispatch(&[
            "compress".into(),
            f1.display().to_string(),
            "-o".into(),
            out.display().to_string(),
        ])
        .unwrap();
        let before = load_corpus(&out.display().to_string()).unwrap();

        // In-place append: the image gains the file and stays queryable,
        // and the printed fingerprints are those of the base and of the
        // image written.
        let f2 = dir.join("two.txt");
        fs::write(&f2, "gamma delta epsilon delta").unwrap();
        let said = append_image(&[out.display().to_string(), f2.display().to_string()]).unwrap();
        let after = load_corpus(&out.display().to_string()).unwrap();
        assert_eq!(after.file_count(), before.file_count() + 1);
        let moved = format!(
            "  snapshot {:016x} → {:016x}",
            snapshot_fingerprint(&before),
            snapshot_fingerprint(&after)
        );
        assert_eq!(said[2], moved);
        assert!(said[0].starts_with("appended 1 files / 4 tokens (25 raw bytes) → "), "{said:?}");
        dispatch(&["search".into(), out.display().to_string(), "epsilon".into()]).unwrap();
        dispatch(&["run".into(), "wordcount".into(), out.display().to_string()]).unwrap();

        // `-o` writes elsewhere and leaves the original image untouched.
        let f3 = dir.join("three.txt");
        fs::write(&f3, "zeta eta theta").unwrap();
        let out2 = dir.join("corpus2.ntdc");
        dispatch(&[
            "append".into(),
            out.display().to_string(),
            f3.display().to_string(),
            "-o".into(),
            out2.display().to_string(),
        ])
        .unwrap();
        assert_eq!(load_corpus(&out.display().to_string()).unwrap().file_count(), 2);
        assert_eq!(load_corpus(&out2.display().to_string()).unwrap().file_count(), 3);

        // Refused: no input files, an input directory with no files in
        // it, and a base image that holds no file.
        let refused = |args: &[&Path]| {
            let args: Vec<String> = args.iter().map(|p| p.display().to_string()).collect();
            dispatch(&[&["append".to_string()][..], &args].concat()).unwrap_err()
        };
        assert!(matches!(refused(&[&out]), CliError::Usage(_)));
        let none = dir.join("none");
        fs::create_dir_all(&none).unwrap();
        assert_eq!(
            refused(&[&out, &none]).to_string(),
            "unsupported operation: append_files needs at least one file"
        );
        let empty = dir.join("empty.ntdc");
        fs::write(&empty, compress_texts(&[], 4)).unwrap();
        assert_eq!(
            refused(&[&empty, &f3]).to_string(),
            "unsupported operation: engines need a corpus with at least one file"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// The serial `compress` writes, at one worker and at two, the image
    /// the corpus builder writes; a file that is not UTF-8 after several
    /// batches' worth of words is today's error, at either count.
    #[test]
    fn compress_writes_the_builders_image_at_any_worker_count() {
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-pipe-{}", std::process::id()));
        let corpus = dir.join("corpus");
        fs::create_dir_all(corpus.join("sub")).unwrap();
        let texts = [
            ("a.txt", "Alpha beta GAMMA alpha beta gamma ".repeat(3000)),
            ("b.txt", String::new()),
            ("sub/c.txt", "Über über straße ΣΊΣΥΦΟΣ alpha".repeat(50)),
        ];
        for (name, text) in &texts {
            fs::write(corpus.join(name), text).unwrap();
        }
        let named: Vec<(String, String)> = texts
            .iter()
            .map(|(name, text)| (corpus.join(name).display().to_string(), text.clone()))
            .collect();
        let want = compress_texts(&named, COARSEN_MIN_EXP);
        let image = dir.join("corpus.ntdc");
        let compress = |inputs: &[&Path], workers: usize| {
            let mut args = vec!["compress".to_string(), "-o".into(), image.display().to_string()];
            args.extend(inputs.iter().map(|p| p.display().to_string()));
            ntadoc_pmem::par::with_threads(workers, || dispatch(&args))
        };
        let bad = dir.join("bad.txt");
        fs::write(&bad, b"valid words then \xff\xfe not UTF-8").unwrap();
        let err = fs::read_to_string(&bad).unwrap_err();
        for workers in [1, 2] {
            compress(&[&corpus], workers).unwrap();
            assert_eq!(fs::read(&image).unwrap(), want, "{workers} worker(s)");
            let got = compress(&[&corpus.join("a.txt"), &bad, &corpus.join("b.txt")], workers);
            assert_eq!(got, Err(fail(format!("{}: {err}", bad.display()))), "{workers}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_passes_a_healthy_pool_and_rejects_garbage() {
        use ntadoc_pmem::{FileDevice, PmemBackend, PoolLayout};
        let dir = std::env::temp_dir().join(format!("ntadoc-cli-fsck-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();

        let pool = dir.join("pool.ntdp");
        let layout = PoolLayout {
            capacity: 1 << 20,
            main_len: (1 << 20) - 2 * (1 << 16),
            scratch_len: 1 << 16,
            log_len: 1 << 16,
        };
        let file = FileDevice::create(&pool, DeviceProfile::nvm_optane(), layout).unwrap();
        file.write_u64(128, 0xFEED);
        file.persist(128, 8);
        drop(file);
        dispatch(&["fsck".into(), pool.display().to_string()]).unwrap();
        let deep = |backend: &str| {
            let args = [&["fsck", "--backend", backend][..], &[pool.to_str().unwrap()]].concat();
            dispatch(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        deep("mmap").unwrap();

        // Resealed at 4 KiB lines: the SSD profile's, which the deep check
        // then opens it with; at 1-byte lines no profile opens it.
        let mut header = ntadoc_pmem::fsck_pool(&pool).unwrap().header;
        for (lines, verdict) in [(4096, true), (1, false)] {
            header.line_size = lines;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&pool)
                .and_then(|f| std::os::unix::fs::FileExt::write_all_at(&f, &header.to_bytes(), 0))
                .unwrap();
            assert_eq!(deep("file").is_ok(), verdict, "{lines}-byte lines");
        }

        let junk = dir.join("junk.ntdp");
        fs::write(&junk, b"definitely not a pool header").unwrap();
        assert!(dispatch(&["fsck".into(), junk.display().to_string()]).is_err());

        fs::remove_dir_all(&dir).ok();
    }
}
