//! Subcommand implementations for the `ntadoc` CLI.

use std::cmp::Ordering;
use std::fs;
use std::path::PathBuf;

use ntadoc::{
    ingest_corpus, Accessor, Engine, EngineConfig, IngestOptions, Persistence, PoolBackend,
    PoolLayoutConfig, Task, TaskOutput,
};
use ntadoc_grammar::{
    deserialize_compressed, serialize_compressed, Compressed, CorpusBuilder, TokenizerConfig,
};
use ntadoc_pmem::DeviceProfile;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  ntadoc compress <file|dir>... -o <corpus.ntdc> [--coarsen N] [--ingest-chunks W]
  ntadoc append <corpus.ntdc> <file|dir>... [-o <out.ntdc>]
  ntadoc stats <corpus.ntdc>
  ntadoc run <task> <corpus.ntdc> [--device nvm|dram|ssd|hdd|reram|pcm]
             [--persistence phase|op] [--naive] [--top N] [--ngram N]
             [--trace-out <report.json>] [--pool <pool.ntdp>] [--backend file|mmap]
             [--layout fixed|varint]
  ntadoc search <corpus.ntdc> <word>...
  ntadoc extract <corpus.ntdc> <file#> <offset> <len>
  ntadoc decompress <corpus.ntdc> [-d <outdir>]
  ntadoc fsck <pool.ntdp>... [--backend file|mmap]
  ntadoc serve <corpus.ntdc> --socket <path> [--quota N] [--cache N] [--max-batch N]
               [--pool <pool.ntdp>] [--backend file|mmap]
  ntadoc query --socket <path> <task> [--tenant N] [--top K] [--file F]
  ntadoc query --socket <path> --shutdown

tasks: wordcount | sort | termvector | invertedindex | sequencecount | rankedindex";

type CmdResult = Result<(), String>;

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
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".into()),
    }
}

/// Parse a task name (several aliases accepted).
pub fn parse_task(name: &str) -> Result<Task, String> {
    match name.to_lowercase().replace(['-', '_'], "").as_str() {
        "wordcount" | "wc" => Ok(Task::WordCount),
        "sort" => Ok(Task::Sort),
        "termvector" | "tv" => Ok(Task::TermVector),
        "invertedindex" | "ii" => Ok(Task::InvertedIndex),
        "sequencecount" | "sc" => Ok(Task::SequenceCount),
        "rankedindex" | "rankedinvertedindex" | "rii" => Ok(Task::RankedInvertedIndex),
        other => Err(format!("unknown task `{other}`")),
    }
}

/// Parse a device name to its profile.
pub fn parse_device(name: &str) -> Result<DeviceProfile, String> {
    match name.to_lowercase().as_str() {
        "nvm" | "optane" => Ok(DeviceProfile::nvm_optane()),
        "dram" => Ok(DeviceProfile::dram()),
        "reram" => Ok(DeviceProfile::reram()),
        "pcm" => Ok(DeviceProfile::pcm()),
        "ssd" => Ok(DeviceProfile::ssd_optane(64 << 20)),
        "hdd" => Ok(DeviceProfile::hdd_sas(64 << 20)),
        other => Err(format!("unknown device `{other}`")),
    }
}

/// Collect input files: plain files directly, directories recursively.
fn collect_inputs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_file() {
            files.push(p.clone());
        } else if p.is_dir() {
            let mut stack = vec![p.clone()];
            while let Some(dir) = stack.pop() {
                let entries = fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                for entry in entries {
                    let path = entry.map_err(|e| e.to_string())?.path();
                    if path.is_dir() {
                        stack.push(path);
                    } else {
                        files.push(path);
                    }
                }
            }
        } else {
            return Err(format!("{}: no such file or directory", p.display()));
        }
    }
    files.sort();
    Ok(files)
}

pub(crate) fn load_corpus(path: &str) -> Result<Compressed, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    deserialize_compressed(&bytes).map_err(|e| format!("{path}: {e}"))
}

// ---- compress -----------------------------------------------------------

fn compress(args: &[String]) -> CmdResult {
    let mut inputs = Vec::new();
    let mut out = None;
    let mut coarsen = 12u64;
    let mut chunks = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                out = Some(args.get(i + 1).ok_or("-o needs a path")?.clone());
                i += 2;
            }
            "--coarsen" => {
                coarsen = args
                    .get(i + 1)
                    .ok_or("--coarsen needs a number")?
                    .parse()
                    .map_err(|e| format!("--coarsen: {e}"))?;
                i += 2;
            }
            "--ingest-chunks" => {
                chunks = args
                    .get(i + 1)
                    .ok_or("--ingest-chunks needs a number")?
                    .parse()
                    .map_err(|e| format!("--ingest-chunks: {e}"))?;
                if chunks == 0 {
                    return Err("--ingest-chunks must be ≥ 1".into());
                }
                i += 2;
            }
            p => {
                inputs.push(PathBuf::from(p));
                i += 1;
            }
        }
    }
    let out = out.ok_or("missing -o <corpus.ntdc>")?;
    if inputs.is_empty() {
        return Err("no input files".into());
    }
    let files = collect_inputs(&inputs)?;
    let mut comp;
    let mut raw_bytes = 0u64;
    if chunks > 1 {
        // Chunk-parallel ingest: same grammar contract as the serial
        // builder (identical corpus, identical dictionary order), built
        // concurrently and merged through the shared dictionary.
        let mut texts = Vec::with_capacity(files.len());
        for f in &files {
            let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            raw_bytes += text.len() as u64;
            texts.push((f.display().to_string(), text));
        }
        let (c, report) = ingest_corpus(&texts, &IngestOptions { chunks, ..Default::default() });
        println!(
            "ingested in {} chunks (modeled {:.1}x parallel speedup)",
            report.chunks,
            report.virtual_speedup()
        );
        comp = c;
    } else {
        let mut builder = CorpusBuilder::new(TokenizerConfig::default());
        for f in &files {
            let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            raw_bytes += text.len() as u64;
            builder.add_file(f.display().to_string(), &text);
        }
        comp = builder.finish();
    }
    comp.grammar = comp.grammar.coarsened(coarsen);
    let image = serialize_compressed(&comp).map_err(|e| e.to_string())?;
    fs::write(&out, &image).map_err(|e| format!("{out}: {e}"))?;
    let stats = comp.grammar.stats();
    println!(
        "compressed {} files / {} words ({} raw bytes) → {} ({} bytes, {:.1}x in symbols)",
        comp.file_count(),
        stats.expanded_words,
        raw_bytes,
        out,
        image.len(),
        comp.grammar.compression_ratio()
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
    let corpus_path = args.first().ok_or("append needs a corpus path")?.clone();
    let mut inputs = Vec::new();
    let mut out = corpus_path.clone();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                out = args.get(i + 1).ok_or("-o needs a path")?.clone();
                i += 2;
            }
            p => {
                inputs.push(PathBuf::from(p));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        return Err("append needs at least one input file".into());
    }
    let files = collect_inputs(&inputs)?;
    let mut texts = Vec::with_capacity(files.len());
    for f in &files {
        let text = fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        texts.push((f.display().to_string(), text));
    }
    let comp = load_corpus(&corpus_path)?;
    let mut engine = Engine::builder(comp)
        .config(EngineConfig::ntadoc())
        .label("cli-append")
        .build()
        .map_err(|e| e.to_string())?;
    let report = engine.append_files(texts).map_err(|e| e.to_string())?;
    let image = serialize_compressed(engine.compressed()).map_err(|e| e.to_string())?;
    fs::write(&out, &image).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "appended {} files / {} tokens ({} raw bytes) → {} ({} bytes)",
        report.files_appended,
        report.appended_tokens,
        report.appended_bytes,
        out,
        image.len(),
    );
    println!(
        "  {} new words, {} new rules, {} dirty rules resummed in {:.3} ms (virtual)",
        report.new_words,
        report.new_rules,
        report.dirty_rules,
        report.virtual_ns as f64 / 1e6,
    );
    println!("  snapshot {:016x} → {:016x}", report.old_fingerprint, report.snapshot.fingerprint());
    Ok(())
}

// ---- stats ---------------------------------------------------------------

fn stats(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("stats needs a corpus path")?;
    let comp = load_corpus(path)?;
    let s = comp.grammar.stats();
    println!("corpus          {path}");
    println!("files           {}", comp.file_count());
    println!("rules           {}", s.rule_count);
    println!("vocabulary      {}", s.vocabulary);
    println!("words           {}", s.expanded_words);
    println!("symbols         {}", s.total_symbols);
    println!("compression     {:.2}x (words per grammar symbol)", comp.grammar.compression_ratio());
    Ok(())
}

// ---- run -----------------------------------------------------------------

fn run(args: &[String]) -> CmdResult {
    let task = parse_task(args.first().ok_or("run needs a task")?)?;
    let path = args.get(1).ok_or("run needs a corpus path")?;
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
                pool = Some(PathBuf::from(args.get(i + 1).ok_or("--pool needs a path")?));
                i += 2;
            }
            "--backend" => {
                let name = args.get(i + 1).ok_or("--backend needs file|mmap")?;
                backend = PoolBackend::parse(name).ok_or(format!("bad --backend `{name}`"))?;
                i += 2;
            }
            "--layout" => {
                let name = args.get(i + 1).ok_or("--layout needs fixed|varint")?;
                layout = PoolLayoutConfig::parse(name)
                    .ok_or(format!("bad --layout `{name}` (want fixed|varint)"))?;
                i += 2;
            }
            "--device" => {
                profile = parse_device(args.get(i + 1).ok_or("--device needs a name")?)?;
                i += 2;
            }
            "--persistence" => {
                cfg.persistence = match args.get(i + 1).map(String::as_str) {
                    Some("phase") => Persistence::PhaseLevel,
                    Some("op") | Some("operation") => Persistence::OperationLevel,
                    Some("none") => Persistence::None,
                    other => return Err(format!("bad --persistence {other:?}")),
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
                top = args
                    .get(i + 1)
                    .ok_or("--top needs a number")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
                i += 2;
            }
            "--ngram" => {
                cfg.ngram = args
                    .get(i + 1)
                    .ok_or("--ngram needs a number")?
                    .parse()
                    .map_err(|e| format!("--ngram: {e}"))?;
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.get(i + 1).ok_or("--trace-out needs a path")?));
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`")),
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
        .map_err(|e| e.to_string())?;
    if let Some(pool) = pool {
        // Durable-pool mode: the session's DAG lives in (and persists to)
        // the pool file, through the chosen backend.
        let mut session = engine.open_pool(&pool, task).map_err(|e| e.to_string())?;
        let out = session.traverse().map_err(|e| e.to_string())?;
        print_output(&out, top);
        let stats = session.sim_device().stats();
        eprintln!(
            "\n[{}] {:.3} ms (virtual) over pool {} ({} backend)",
            profile.name,
            stats.virtual_ns as f64 / 1e6,
            pool.display(),
            backend.name(),
        );
        return Ok(());
    }
    let out = engine.run(task).map_err(|e| e.to_string())?;
    print_output(&out, top);
    let rep = engine.last_report.as_ref().expect("report");
    eprintln!("\n{}", rep.summary_line());
    if let Some(path) = trace_out {
        fs::write(&path, rep.to_json().pretty())
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        eprintln!("span tree:\n{}", rep.spans.render());
        eprintln!("[trace] wrote report v{} to {}", rep.version, path.display());
    }
    Ok(())
}

/// The `top` first rows under `cmp`, in order. Selects before it sorts, so
/// printing twenty rows of a 49 k-row result does not order all of it.
/// `cmp` must be total over `rows` (no two rows equal) for the result to be
/// the prefix a full sort would give.
fn top_rows<T>(mut rows: Vec<T>, top: usize, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if top == 0 {
        return Vec::new();
    }
    if top < rows.len() {
        rows.select_nth_unstable_by(top - 1, &cmp);
        rows.truncate(top);
    }
    rows.sort_unstable_by(&cmp);
    rows
}

fn print_output(out: &TaskOutput, top: usize) {
    match out {
        TaskOutput::WordCount(m) => {
            // Count descending, then the (unique) key: a total order.
            let rows = top_rows(m.iter().collect(), top, |a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (w, c) in rows {
                println!("{c:>10}  {w}");
            }
        }
        TaskOutput::Sort(rows) => {
            for (w, c) in rows.iter().take(top) {
                println!("{w}  {c}");
            }
        }
        TaskOutput::TermVector(files) => {
            for (f, words) in files.iter().take(top) {
                let sig: Vec<String> =
                    words.iter().take(5).map(|(w, c)| format!("{w}:{c}")).collect();
                println!("{f}: {}", sig.join(" "));
            }
        }
        TaskOutput::InvertedIndex(m) => {
            for (w, files) in m.iter().take(top) {
                println!("{w}: {} file(s)", files.len());
            }
        }
        TaskOutput::SequenceCount(m) => {
            let rows = top_rows(m.iter().collect(), top, |a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (g, c) in rows {
                println!("{c:>10}  {}", g.join(" "));
            }
        }
        TaskOutput::RankedInvertedIndex(m) => {
            for (g, files) in m.iter().take(top) {
                let ranked: Vec<String> =
                    files.iter().take(3).map(|(f, c)| format!("{f}({c})")).collect();
                println!("{}: {}", g.join(" "), ranked.join(" "));
            }
        }
    }
}

// ---- search ----------------------------------------------------------------

fn search(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("search needs a corpus path")?;
    let words = &args[1..];
    if words.is_empty() {
        return Err("search needs at least one word".into());
    }
    let comp = load_corpus(path)?;
    let mut engine =
        Engine::builder(comp).config(EngineConfig::ntadoc()).build().map_err(|e| e.to_string())?;
    let out = engine.run(Task::InvertedIndex).map_err(|e| e.to_string())?;
    let index = out.as_inverted_index().expect("inverted index output");
    for w in words {
        let q = w.to_lowercase();
        match index.get(&q) {
            Some(files) => {
                println!("{q}: {} file(s)", files.len());
                for f in files.iter().take(10) {
                    println!("  {f}");
                }
                if files.len() > 10 {
                    println!("  … and {} more", files.len() - 10);
                }
            }
            None => println!("{q}: not found"),
        }
    }
    let rep = engine.last_report.as_ref().expect("report");
    eprintln!(
        "[NVM] index built directly on compressed data in {:.3} ms (virtual)",
        rep.total_secs() * 1e3
    );
    Ok(())
}

// ---- extract ---------------------------------------------------------------

fn extract(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("extract needs a corpus path")?;
    let fid: usize =
        args.get(1).ok_or("extract needs a file#")?.parse().map_err(|e| format!("file#: {e}"))?;
    let offset: u64 = args
        .get(2)
        .ok_or("extract needs an offset")?
        .parse()
        .map_err(|e| format!("offset: {e}"))?;
    let len: usize =
        args.get(3).ok_or("extract needs a length")?.parse().map_err(|e| format!("len: {e}"))?;
    let comp = load_corpus(path)?;
    if fid >= comp.file_count() {
        return Err(format!("file# {fid} out of range ({} files)", comp.file_count()));
    }
    let accessor = Accessor::new(&comp, DeviceProfile::nvm_optane()).map_err(|e| e.to_string())?;
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
    let path = args.first().ok_or("decompress needs a corpus path")?;
    let mut outdir = PathBuf::from(".");
    if let Some(pos) = args.iter().position(|a| a == "-d") {
        outdir = PathBuf::from(args.get(pos + 1).ok_or("-d needs a directory")?);
    }
    let comp = load_corpus(path)?;
    fs::create_dir_all(&outdir).map_err(|e| format!("{}: {e}", outdir.display()))?;
    let texts = comp.grammar.expand_text(&comp.dict);
    for (name, text) in comp.file_names.iter().zip(texts) {
        // Flatten the original path into a single file name.
        let flat = name.replace(['/', '\\'], "_");
        let target = outdir.join(flat);
        fs::write(&target, text).map_err(|e| format!("{}: {e}", target.display()))?;
    }
    println!("wrote {} files to {}", comp.file_count(), outdir.display());
    Ok(())
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
                let name = args.get(i + 1).ok_or("--backend needs file|mmap")?;
                backend = Some(PoolBackend::parse(name).ok_or(format!("bad --backend `{name}`"))?);
                i += 2;
            }
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        return Err("fsck needs at least one pool path".into());
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
                if let (Some(kind), None) = (backend, &rep.unrecoverable) {
                    // Deep check: open through the requested device and
                    // compare the file byte-for-byte against the image
                    // the device reconstructed from it.
                    let opened = kind.open(std::path::Path::new(path), DeviceProfile::nvm_optane());
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
        return Err(format!("{bad} pool(s) failed fsck"));
    }
    Ok(())
}

// ---- helpers for tests ------------------------------------------------------

/// Compress the given named texts into an image (test helper and library
/// entry for embedding the CLI).
#[cfg(test)]
pub fn compress_texts(files: &[(String, String)], coarsen: u64) -> Vec<u8> {
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

    #[test]
    fn top_rows_is_the_prefix_of_a_full_sort() {
        // 500 distinct rows, many count ties broken by the unique key.
        let rows: Vec<(String, u64)> =
            (0..500u64).map(|i| (format!("w{:03}", (i * 7919) % 500), (i * 31) % 17)).collect();
        let cmp = |a: &&(String, u64), b: &&(String, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        let mut full: Vec<&(String, u64)> = rows.iter().collect();
        full.sort_by(cmp);
        for top in [0, 1, 20, 499, 500, 501, usize::MAX] {
            let got = top_rows(rows.iter().collect(), top, cmp);
            assert_eq!(got, full[..top.min(full.len())], "top = {top}");
        }
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&["frobnicate".into()]).is_err());
        assert!(dispatch(&[]).is_err());
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
                    assert!(err.contains("n >= 2"), "{task} --ngram {ngram} {extra:?}: {err}");
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

        // In-place append: the image gains the file and stays queryable.
        let f2 = dir.join("two.txt");
        fs::write(&f2, "gamma delta epsilon delta").unwrap();
        dispatch(&["append".into(), out.display().to_string(), f2.display().to_string()]).unwrap();
        let after = load_corpus(&out.display().to_string()).unwrap();
        assert_eq!(after.file_count(), before.file_count() + 1);
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

        assert!(dispatch(&["append".into(), out.display().to_string()]).is_err());
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

        let junk = dir.join("junk.ntdp");
        fs::write(&junk, b"definitely not a pool header").unwrap();
        assert!(dispatch(&["fsck".into(), junk.display().to_string()]).is_err());

        fs::remove_dir_all(&dir).ok();
    }
}
