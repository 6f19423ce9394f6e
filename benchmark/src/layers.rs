//! The traced pass: per-layer numbers, measured from outside the program.
//!
//! Every run of the pass does the same work, whatever the workload:
//!
//! 1. **stages** — fixed-count loops over each layer's public functions
//!    (`pmem` devices, `nstruct` containers, the `grammar` stages, engine
//!    pieces the CLI never calls alone);
//! 2. **replays** — each of the four workloads' operations once more, in
//!    process, calling the same public functions the CLI calls, every call
//!    wrapped in a span;
//! 3. **probes** — the real binary and a live daemon, timed against the
//!    in-process spans to price the process and the socket.
//!
//! The named metrics are read off the spans. What differs per workload is
//! which replay feeds `self_ms.<layer>`, `serve.cache_hit_rate` and
//! `trace.overhead_ratio`. Counts are fixed, so the **virtual** and count metrics repeat
//! exactly for a seed; the micro loops use a fixed address stream and
//! repeat for every seed.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ntadoc::{
    head_tail_info, ingest_corpus, upper_bounds, Engine, EngineConfig, IngestOptions, Persistence,
    PoolBackend, Query, RunReport, Task, TaskOutput, TenantId, UncompressedEngine,
    METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK,
};
use ntadoc_grammar::merge::{self, MergeOptions};
use ntadoc_grammar::sequitur::Sequitur;
use ntadoc_grammar::{
    deserialize_compressed, serialize_compressed, tokenize, Compressed, CorpusBuilder, Dictionary,
    Symbol, TokenizerConfig,
};
use ntadoc_nstruct::{HeadTailStore, PHashTable, PVec};
use ntadoc_pmem::{
    DeviceProfile, FileDevice, Json, MmapDevice, PmemBackend, PmemPool, PoolLayout, SimDevice,
    TxLog,
};
use ntadoc_serve::{shard_reads_total, DaemonConfig, QueryDaemon, TraceEvent};

use crate::gen::{self, Request, Rng};
use crate::oracle::{cli_stdout, Oracle};
use crate::proc::{self, Daemon};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::wire;
use crate::workloads::{
    compressed_inputs, must, Ctx, Workload, APPEND_FILES, RUN_TOP, SERVE_CACHE,
};
use crate::Clock;

/// Rule-granularity threshold `ntadoc compress` coarsens with by default.
const COARSEN: u64 = 12;
/// Operations per micro loop.
const MICRO_OPS: usize = 200_000;
/// Seed of the micro loops' address and key streams: fixed, so their exact
/// metrics are the same for every `--seed`.
const MICRO_SEED: u64 = 0x51A6E5;
/// Requests replayed in process per serve workload.
const HOT_REPLAY: usize = 3_000;
const COLD_REPLAY: usize = 40;
/// Cache hits timed by the `serve.execute_hit_ns` loop.
const EXECUTE_HITS: usize = 10_000;

/// One per-layer metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub trace_file: PathBuf,
}

/// Shared state of one pass.
struct Pass<'a> {
    t: &'a Tracer,
    work: &'a Path,
    /// `(name the program sees, text)` of every corpus file.
    files: &'a [(String, String)],
    oracle: &'a Oracle,
    /// The oracle's full answer to each task.
    expected: &'a HashMap<Task, TaskOutput>,
    /// The engine's own report of each phase-level run of the analytics replay.
    reports: HashMap<Task, RunReport>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Pass<'_> {
    /// Record a host-time metric.
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, clock: Clock::Wall, value });
    }

    /// Record a modelled time or a count: it repeats exactly for a seed.
    fn put_exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, clock: Clock::Exact, value });
    }

    /// Count one checked operation.
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced pass: {what}: output does not match the oracle");
        }
    }

    fn image(&self) -> PathBuf {
        self.work.join("c.ntdc")
    }

    /// Image of all but the last [`APPEND_FILES`] files, for the append leg.
    fn base_image(&self) -> PathBuf {
        self.work.join("replay-base.ntdc")
    }
}

fn other<E: Into<Box<dyn std::error::Error + Send + Sync>>>(e: E) -> io::Error {
    io::Error::other(e)
}

/// The recorder's own cost per span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    let scratch = Tracer::new();
    let spans = 100_000;
    let start = Instant::now();
    for _ in 0..spans {
        scratch.span("trace.empty", || black_box(()));
    }
    start.elapsed().as_nanos() as f64 / spans as f64
}

/// ns per operation of the one span called `name` that covered `ops` of them.
fn ns_per_op(t: &Tracer, name: &str, ops: usize) -> f64 {
    t.total_ms(name) * 1e6 / ops as f64
}

/// MB/s of `bytes` per mean span called `name`.
fn mb_per_s(t: &Tracer, name: &str, bytes: usize) -> f64 {
    bytes as f64 / 1e6 / (t.mean_ms(name) / 1e3)
}

pub fn traced_pass(w: Workload, ctx: &Ctx) -> io::Result<Traced> {
    let inputs = compressed_inputs(&format!("trace-{}", w.name()), ctx)?;
    let oracle = Oracle::new(&inputs.files);
    let expected: HashMap<Task, TaskOutput> =
        Task::ALL.iter().map(|&t| (t, oracle.output(t))).collect();
    let t = Tracer::new();
    let mut p = Pass {
        t: &t,
        work: inputs.work.path(),
        files: &inputs.files,
        oracle: &oracle,
        expected: &expected,
        reports: HashMap::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    t.set_phase("stages");
    let sim_cost = pmem_stages(&mut p)?;
    nstruct_stages(&mut p)?;
    grammar_stages(&mut p)?;
    ntadoc_stages(&mut p)?;
    serve_stages(&mut p)?;

    // The append leg's prerequisite image is set-up, not an operation.
    let split = inputs.files.len() - APPEND_FILES;
    let mut base =
        ntadoc_grammar::compress_corpus(&inputs.files[..split], &TokenizerConfig::default());
    base.grammar = base.grammar.coarsened(COARSEN);
    fs::write(p.base_image(), serialize_compressed(&base).map_err(other)?)?;

    let mut replay_ms = 0.0;
    for replayed in Workload::ALL {
        t.set_phase(replayed.name());
        let start = Instant::now();
        replay(&mut p, replayed)?;
        if replayed == w {
            replay_ms = start.elapsed().as_secs_f64() * 1e3;
        }
    }
    replay_metrics(&mut p, sim_cost)?;
    t.set_phase("probes");
    probes(&mut p, ctx)?;
    let (mut metrics, attempted, failed) = (p.metrics, p.attempted, p.failed);
    let mut push =
        |name: String, unit, clock, value| metrics.push(Metric { name, unit, clock, value });

    // What tracing costs the workload's replay: the recorder's own time
    // per span, times the spans the replay opened, against its wall time.
    let spans = t.spans();
    let recorder_ms =
        span_cost_ns() * spans.iter().filter(|s| s.phase == w.name()).count() as f64 / 1e6;
    push(
        "trace.overhead_ratio".into(),
        "ratio",
        Clock::Wall,
        replay_ms / (replay_ms - recorder_ms),
    );
    for (layer, ms) in trace::layer_self_ms(&spans, w.name()) {
        push(format!("self_ms.{layer}"), "ms", Clock::Wall, ms);
    }
    let served: Vec<_> = spans
        .iter()
        .filter(|s| s.phase == w.name() && s.name.starts_with("serve.execute"))
        .collect();
    let hits = served.iter().filter(|s| s.name == "serve.execute_hit").count();
    let hit_rate = if served.is_empty() { 0.0 } else { hits as f64 / served.len() as f64 };
    push("serve.cache_hit_rate".into(), "ratio", Clock::Exact, hit_rate);

    let trace_file = Path::new("out").join(format!("trace-{}.json", w.name()));
    fs::write(&trace_file, trace::to_json(&spans).compact())?;
    Ok(Traced { metrics, attempted, failed, trace_file })
}

// ---- stages: pmem -----------------------------------------------------------

/// Seeded 8-byte-aligned addresses below `span`.
fn addresses(n: usize, span: u64) -> Vec<u64> {
    let mut rng = Rng::new(MICRO_SEED);
    (0..n).map(|_| rng.range(0, span / 8 - 1) * 8).collect()
}

/// Host cost of one simulated 8-byte read, by whether its line is cached.
#[derive(Clone, Copy)]
struct SimCost {
    miss_ns: f64,
    hit_ns: f64,
}

fn pmem_stages(p: &mut Pass) -> io::Result<SimCost> {
    let t = p.t;
    // Random 8-byte accesses over 32 MiB, far beyond the modelled 2 MiB LLC.
    let dev = SimDevice::new(DeviceProfile::nvm_optane(), 64 << 20);
    let addrs = addresses(MICRO_OPS, 32 << 20);
    t.span("pmem.sim.write64", || addrs.iter().for_each(|&a| dev.write_u64(a, a)));
    let before = dev.stats();
    t.span("pmem.sim.read64", || {
        black_box(addrs.iter().fold(0, |acc, &a| acc ^ dev.read_u64(a)));
    });
    let delta = dev.stats().since(&before);
    // The same count of reads inside 64 KiB: every line stays cached.
    t.span("pmem.sim.read64_hit", || {
        black_box(addrs.iter().fold(0, |acc, &a| acc ^ dev.read_u64(a % (64 << 10))));
    });
    let cost = SimCost {
        miss_ns: ns_per_op(t, "pmem.sim.read64", MICRO_OPS),
        hit_ns: ns_per_op(t, "pmem.sim.read64_hit", MICRO_OPS),
    };
    p.put("pmem.sim.read64_ns", "ns", cost.miss_ns);
    p.put("pmem.sim.read64_hit_ns", "ns", cost.hit_ns);
    p.put("pmem.sim.write64_ns", "ns", ns_per_op(t, "pmem.sim.write64", MICRO_OPS));
    p.put_exact("pmem.sim.read64_virtual_ns", "ns", delta.virtual_ns as f64 / MICRO_OPS as f64);
    p.put_exact(
        "pmem.sim.line_miss_ratio",
        "ratio",
        delta.line_misses as f64 / (delta.line_misses + delta.line_hits) as f64,
    );
    let mut buf = vec![0u8; 4096];
    t.span("pmem.sim.seq_read", || {
        for off in (0..32u64 << 20).step_by(4096) {
            dev.read_bytes(off, &mut buf);
        }
        black_box(&buf);
    });
    p.put("pmem.sim.seq_read_mb_s", "MB/s", mb_per_s(t, "pmem.sim.seq_read", 32 << 20));

    // The two pool-file devices, through the backend trait the engine uses.
    let layout = PoolLayout {
        capacity: 4 << 20,
        main_len: (4 << 20) - (2 << 16),
        scratch_len: 1 << 16,
        log_len: 1 << 16,
    };
    let profile = DeviceProfile::nvm_optane;
    let devices: [(&str, Arc<dyn PmemBackend>); 2] = [
        (
            "file",
            FileDevice::create(&p.work.join("micro-file.ntdp"), profile(), layout)
                .map_err(other)?,
        ),
        (
            "mmap",
            MmapDevice::create(&p.work.join("micro-mmap.ntdp"), profile(), layout)
                .map_err(other)?,
        ),
    ];
    let addrs = addresses(MICRO_OPS / 4, layout.main_len);
    for (kind, dev) in devices {
        let name = |op: &str| format!("pmem.{kind}.{op}");
        t.span(&name("write64"), || addrs.iter().for_each(|&a| dev.write_u64(a, a)));
        t.span(&name("read64"), || {
            black_box(addrs.iter().fold(0, |acc, &a| acc ^ dev.read_u64(a)));
        });
        let (fences, seals) = (200, 30);
        t.span(&name("fence"), || {
            for &a in &addrs[..fences] {
                dev.write_u64(a, 1);
                dev.persist(a, 8);
            }
        });
        t.span(&name("seal"), || {
            for &a in &addrs[..seals] {
                dev.write_u64(a, 2);
                dev.persist_seal(a, 8);
            }
        });
        p.put(name("read64_ns"), "ns", ns_per_op(t, &name("read64"), addrs.len()));
        p.put(name("write64_ns"), "ns", ns_per_op(t, &name("write64"), addrs.len()));
        p.put(name("fence_us"), "us", ns_per_op(t, &name("fence"), fences) / 1e3);
        p.put(name("seal_us"), "us", ns_per_op(t, &name("seal"), seals) / 1e3);
    }

    // Undo-log transactions on the simulator: begin, log three ranges (the
    // slots a hash-table add touches), write, commit.
    let dev: Arc<dyn PmemBackend> = Arc::new(SimDevice::new(profile(), 4 << 20));
    let mut tx = TxLog::new(dev.clone(), layout.log_base(), layout.log_len as usize);
    let commits = 2_000;
    t.span("pmem.txlog.commit", || -> io::Result<()> {
        for &a in &addrs[..commits] {
            tx.begin().map_err(other)?;
            for (off, len) in [(0, 1), (8, 8), (16, 8)] {
                tx.log_range(a % (1 << 20) + off, len).map_err(other)?;
            }
            dev.write_u64(a % (1 << 20) + 16, a);
            tx.commit().map_err(other)?;
        }
        Ok(())
    })?;
    p.put("pmem.txlog.commit_us", "us", ns_per_op(t, "pmem.txlog.commit", commits) / 1e3);
    Ok(cost)
}

// ---- stages: nstruct --------------------------------------------------------

fn nstruct_stages(p: &mut Pass) -> io::Result<()> {
    let t = p.t;
    let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 64 << 20));
    let pool = Arc::new(PmemPool::new(dev.clone(), 0, 32 << 20));
    // A vocabulary-sized counter table under a skew-free key stream.
    let keys: Vec<u64> = {
        let mut rng = Rng::new(MICRO_SEED);
        (0..MICRO_OPS).map(|_| rng.range(0, 49_999)).collect()
    };
    let table = PHashTable::with_expected(pool.clone(), 50_000, true).map_err(other)?;
    let before = dev.stats();
    t.span("nstruct.phash.add", || keys.iter().try_for_each(|&k| table.add(k, 1)))
        .map_err(other)?;
    let delta = dev.stats().since(&before);
    t.span("nstruct.phash.get", || {
        black_box(keys.iter().fold(0, |acc, &k| acc ^ table.get(k).unwrap_or(0)));
    });
    p.put("nstruct.phash.add_ns", "ns", ns_per_op(t, "nstruct.phash.add", MICRO_OPS));
    p.put("nstruct.phash.get_ns", "ns", ns_per_op(t, "nstruct.phash.get", MICRO_OPS));
    p.put_exact(
        "nstruct.phash.lines_per_add",
        "count",
        delta.line_misses as f64 / MICRO_OPS as f64,
    );

    // Transactional adds, committed in batches of 64 as the engine does.
    let tx_ops = MICRO_OPS / 10;
    let log_base = (48u64) << 20;
    let backend: Arc<dyn PmemBackend> = dev.clone();
    let mut tx = TxLog::new(backend, log_base, 8 << 20);
    let tx_table = PHashTable::with_expected(
        Arc::new(PmemPool::new(dev.clone(), 32 << 20, 16 << 20)),
        50_000,
        true,
    )
    .map_err(other)?;
    t.span("nstruct.phash.add_tx", || -> ntadoc_pmem::Result<()> {
        for batch in keys[..tx_ops].chunks(64) {
            tx.begin()?;
            for &k in batch {
                tx_table.add_tx(k, 1, &mut tx)?;
            }
            tx.commit()?;
        }
        Ok(())
    })
    .map_err(other)?;
    p.put("nstruct.phash.add_tx_ns", "ns", ns_per_op(t, "nstruct.phash.add_tx", tx_ops));

    let vec: PVec<u64> = PVec::with_capacity(pool.clone(), MICRO_OPS).map_err(other)?;
    t.span("nstruct.pvec.push", || keys.iter().try_for_each(|&k| vec.push(k))).map_err(other)?;
    let idx: Vec<usize> = {
        let mut rng = Rng::new(MICRO_SEED + 1);
        (0..MICRO_OPS).map(|_| rng.range(0, MICRO_OPS as u64 - 1) as usize).collect()
    };
    t.span("nstruct.pvec.get", || {
        black_box(idx.iter().fold(0, |acc, &i| acc ^ vec.get(i)));
    });
    p.put("nstruct.pvec.push_ns", "ns", ns_per_op(t, "nstruct.pvec.push", MICRO_OPS));
    p.put("nstruct.pvec.get_ns", "ns", ns_per_op(t, "nstruct.pvec.get", MICRO_OPS));

    // Head/tail rows for a 20 k-rule grammar at the 3-gram width.
    let (rules, width) = (20_000, 2);
    let store = HeadTailStore::new(pool, rules, width).map_err(other)?;
    let flat: Vec<u32> = (0..(rules * store.stride()) as u32).collect();
    let lens = vec![width as u32; rules];
    let fills = 20;
    t.span("nstruct.headtail.fill_rows", || {
        for _ in 0..fills {
            store.fill_rows(&flat, &lens, &flat, &lens);
        }
    });
    p.put(
        "nstruct.headtail.fill_row_ns",
        "ns",
        ns_per_op(t, "nstruct.headtail.fill_rows", fills * rules),
    );
    Ok(())
}

// ---- stages: grammar --------------------------------------------------------

/// Compress `files` the way `ntadoc compress` does, one stage per span.
fn staged_compress(t: &Tracer, files: &[(String, String)]) -> Compressed {
    let cfg = TokenizerConfig::default();
    let toks: Vec<Vec<String>> =
        t.span("grammar.tokenize", || files.iter().map(|(_, text)| tokenize(text, &cfg)).collect());
    let mut dict = Dictionary::new();
    let grammar = t.span("grammar.sequitur", || {
        let mut seq = Sequitur::new();
        for (fid, file) in toks.iter().enumerate() {
            if fid > 0 {
                seq.push(Symbol::file_sep(fid as u32 - 1));
            }
            for tok in file {
                seq.push(Symbol::word(dict.intern(tok.clone())));
            }
        }
        seq.into_grammar()
    });
    let grammar = t.span("grammar.coarsen", || grammar.coarsened(COARSEN));
    Compressed { grammar, dict, file_names: files.iter().map(|(n, _)| n.clone()).collect() }
}

fn grammar_stages(p: &mut Pass) -> io::Result<()> {
    let t = p.t;
    let raw_bytes: usize = p.files.iter().map(|(_, text)| text.len()).sum();
    let words = p.oracle.total_words();
    let comp = staged_compress(t, p.files);
    let image = t.span("grammar.serialize", || serialize_compressed(&comp)).map_err(other)?;
    // The staged build is the build: the real binary wrote the same bytes.
    p.check(image == fs::read(p.image())?, "staged compress vs `ntadoc compress` image");
    t.span("grammar.deserialize", || deserialize_compressed(&image)).map_err(other)?;

    p.put("grammar.tokenize_mb_s", "MB/s", mb_per_s(t, "grammar.tokenize", raw_bytes));
    p.put(
        "grammar.sequitur_mtok_s",
        "Mtok/s",
        words as f64 / 1e6 / (t.mean_ms("grammar.sequitur") / 1e3),
    );
    p.put("grammar.coarsen_ms", "ms", t.mean_ms("grammar.coarsen"));
    p.put("grammar.serialize_mb_s", "MB/s", mb_per_s(t, "grammar.serialize", image.len()));
    p.put_exact("grammar.rules", "count", comp.grammar.rule_count() as f64);
    p.put_exact("grammar.compression_ratio", "ratio", comp.grammar.compression_ratio());

    // The chunked build's stages, serially: two chunks, then the merge.
    let cfg = TokenizerConfig::default();
    let toks: Vec<Vec<String>> = p.files.iter().map(|(_, text)| tokenize(text, &cfg)).collect();
    let counts: Vec<usize> = toks.iter().map(Vec::len).collect();
    let plan = merge::plan_chunks(&counts, 2);
    let chunks: Vec<merge::ChunkGrammar> = t.span("grammar.chunk_build", || {
        plan.iter().map(|pieces| merge::build_chunk(&toks, pieces)).collect()
    });
    t.span("grammar.merge", || merge::merge_chunks(&chunks, &MergeOptions { seam_dedup: true }));
    p.put("grammar.chunk_build_ms", "ms", t.mean_ms("grammar.chunk_build"));
    p.put("grammar.merge_ms", "ms", t.mean_ms("grammar.merge"));

    // Absorbing the last files into a grammar of the rest.
    let split = p.files.len() - APPEND_FILES;
    let mut base = ntadoc_grammar::compress_corpus(&p.files[..split], &cfg);
    let pieces = merge::plan_chunks(&counts[split..], 1);
    let delta = merge::build_chunk_at(&toks[split..], &pieces[0], split);
    t.span("grammar.append_chunk", || {
        merge::append_chunk(
            &mut base.grammar,
            &mut base.dict,
            &delta,
            &MergeOptions { seam_dedup: true },
        )
    });
    p.put("grammar.append_chunk_ms", "ms", t.mean_ms("grammar.append_chunk"));
    Ok(())
}

// ---- stages: ntadoc ---------------------------------------------------------

fn ntadoc_stages(p: &mut Pass) -> io::Result<()> {
    let t = p.t;
    let comp = Arc::new(deserialize_compressed(&fs::read(p.image())?).map_err(other)?);
    t.span("ntadoc.summation", || upper_bounds(&comp.grammar));
    t.span("ntadoc.head_tail", || head_tail_info(&comp.grammar, 1));
    p.put("ntadoc.summation_ms", "ms", t.mean_ms("ntadoc.summation"));
    p.put("ntadoc.head_tail_ms", "ms", t.mean_ms("ntadoc.head_tail"));

    t.span("ntadoc.ingest", || ingest_corpus(p.files, &IngestOptions::default()));
    p.put("ntadoc.ingest_ms", "ms", t.mean_ms("ntadoc.ingest"));

    // The file-backed pool, created then reopened (the analytics replay
    // does the same over mmap, as the workload does).
    let engine =
        Engine::builder(comp.clone()).pool_backend(PoolBackend::File).build().map_err(other)?;
    let pool = p.work.join("stage-file.ntdp");
    for span in ["ntadoc.pool_open.file", "ntadoc.pool_reopen.file"] {
        let mut session =
            t.span(span, || engine.open_pool(&pool, Task::WordCount)).map_err(other)?;
        let out = session.traverse().map_err(other)?;
        p.check(out == p.expected[&Task::WordCount], span);
    }
    p.put("ntadoc.pool_open_ms.file", "ms", t.mean_ms("ntadoc.pool_open.file"));
    p.put("ntadoc.pool_reopen_ms.file", "ms", t.mean_ms("ntadoc.pool_reopen.file"));

    // Modelled speed-up over scanning the uncompressed corpus on the same
    // device: geometric mean over the six tasks of virtual time ratios.
    let mut engine = Engine::builder(comp.clone()).build().map_err(other)?;
    let mut baseline = UncompressedEngine::builder(comp).build();
    let mut log_ratio = 0.0;
    for task in Task::ALL {
        engine.run(task).map_err(other)?;
        let out = t.span("ntadoc.uncompressed_run", || baseline.run(task)).map_err(other)?;
        p.check(out == p.expected[&task], "uncompressed baseline");
        let ours = engine.last_report.as_ref().expect("report").total_ns();
        let theirs = baseline.last_report.as_ref().expect("report").total_ns();
        log_ratio += (theirs as f64 / ours as f64).ln();
    }
    p.put_exact("ntadoc.virtual_speedup_vs_uncompressed", "ratio", (log_ratio / 6.0).exp());
    Ok(())
}

// ---- stages: serve ----------------------------------------------------------

fn serve_stages(p: &mut Pass) -> io::Result<()> {
    let t = p.t;
    let comp = Arc::new(deserialize_compressed(&fs::read(p.image())?).map_err(other)?);
    let engine = Engine::builder(comp).build().map_err(other)?;
    let mut daemon = QueryDaemon::new(engine.serve().map_err(other)?, DaemonConfig::default());

    // One full query per servable task: four misses, then the same four
    // from the cache, over and over.
    let queries: Vec<Query> =
        gen::SERVABLE.iter().map(|&task| Query::new(TenantId(0), task)).collect();
    for q in &queries {
        let resp = t.span("serve.execute_miss", || daemon.execute(q.clone())).map_err(other)?;
        p.check(!resp.cache_hit && *resp.output() == p.expected[&q.task], "daemon miss");
    }
    t.span("serve.execute_hits", || -> Result<(), ntadoc_serve::ServeError> {
        for i in 0..EXECUTE_HITS {
            black_box(daemon.execute(queries[i % queries.len()].clone())?);
        }
        Ok(())
    })
    .map_err(other)?;
    p.put("serve.execute_miss_ms", "ms", t.mean_ms("serve.execute_miss"));
    p.put("serve.execute_hit_ns", "ns", ns_per_op(t, "serve.execute_hits", EXECUTE_HITS));

    // The traversal under a miss: one full query per task straight at a
    // fresh `ServeSession`.
    let session = engine.serve().map_err(other)?;
    for q in &queries {
        let span = format!("ntadoc.run_queries.{}", wire::cli_name(q.task));
        t.span(&span, || session.run_queries(std::slice::from_ref(q))).map_err(other)?;
        p.put(format!("ntadoc.run_queries_ms.{}", wire::cli_name(q.task)), "ms", t.mean_ms(&span));
    }

    // A seeded open-loop arrival trace in virtual time, batched against
    // unbatched: how fast the event loop replays it on the host, and how
    // many device lines batching and the cache save (exact).
    let events: Vec<TraceEvent> = {
        let mut rng = Rng::new(MICRO_SEED);
        let mut at_ns = 0;
        (0..48)
            .map(|i| {
                at_ns += rng.range(0, 400_000);
                let req = if rng.range(0, 99) < 70 {
                    gen::hot_request(&mut rng).1
                } else {
                    gen::cold_request(&mut rng, i as usize)
                };
                TraceEvent { at_ns, query: wire::query(req, i % 4) }
            })
            .collect()
    };
    let mut lines = Vec::new();
    for (span, cfg) in [
        ("serve.trace_replay", DaemonConfig::default()),
        ("serve.trace_replay_unbatched", DaemonConfig::unbatched()),
    ] {
        let mut daemon = QueryDaemon::new(engine.serve().map_err(other)?, cfg);
        let outcome = t.span(span, || daemon.run_trace(&events)).map_err(other)?;
        // Every arrival is answered or bounced with a typed rejection.
        p.check(outcome.completions.len() + outcome.rejections.len() == events.len(), span);
        lines.push(shard_reads_total(&daemon.report()) as f64);
    }
    p.put(
        "serve.trace_replay_qps",
        "1/s",
        events.len() as f64 / (t.mean_ms("serve.trace_replay") / 1e3),
    );
    p.put_exact("serve.batch_lines_ratio", "ratio", lines[0] / lines[1]);
    Ok(())
}

// ---- replays ----------------------------------------------------------------

fn replay(p: &mut Pass, w: Workload) -> io::Result<()> {
    match w {
        Workload::Ingest => replay_ingest(p),
        Workload::Analytics => replay_analytics(p),
        Workload::ServeHot => replay_serve(p, true),
        Workload::ServeCold => replay_serve(p, false),
    }
}

/// `cmd::load_corpus`.
fn load_corpus(t: &Tracer, path: &Path) -> io::Result<Compressed> {
    t.span("cli.load_corpus", || {
        let bytes = fs::read(path)?;
        t.span("grammar.deserialize", || deserialize_compressed(&bytes)).map_err(other)
    })
}

fn read_inputs(
    t: &Tracer,
    work: &Path,
    files: &[(String, String)],
) -> io::Result<Vec<(String, String)>> {
    t.span("cli.read_inputs", || {
        files
            .iter()
            .map(|(rel, _)| Ok((rel.clone(), fs::read_to_string(work.join(rel))?)))
            .collect()
    })
}

fn coarsen_and_write(t: &Tracer, mut comp: Compressed, to: &Path) -> io::Result<Vec<u8>> {
    comp.grammar = t.span("grammar.coarsen", || comp.grammar.coarsened(COARSEN));
    let image = t.span("grammar.serialize", || serialize_compressed(&comp)).map_err(other)?;
    t.span("cli.write_image", || fs::write(to, &image))?;
    Ok(image)
}

/// Does `comp` expand to exactly the token streams that went in?
fn round_trips(comp: &Compressed, oracle: &Oracle) -> bool {
    let texts = comp.grammar.expand_text(&comp.dict);
    texts.iter().enumerate().all(|(i, text)| text.split_whitespace().eq(oracle.file_words(i)))
}

/// `ntadoc compress`, `compress --ingest-chunks 2` and `append`, in process.
fn replay_ingest(p: &mut Pass) -> io::Result<()> {
    let t = p.t;
    let split = p.files.len() - APPEND_FILES;
    let base_path = p.base_image();

    t.next_op();
    let image = t.span("cli.compress", || {
        let texts = read_inputs(t, p.work, p.files)?;
        let comp = t.span("grammar.build", || {
            let mut builder = CorpusBuilder::new(TokenizerConfig::default());
            for (name, text) in &texts {
                builder.add_file(name.clone(), text);
            }
            builder.finish()
        });
        coarsen_and_write(t, comp, &p.work.join("replay-full.ntdc"))
    })?;
    p.check(image == fs::read(p.image())?, "replayed compress vs `ntadoc compress` image");

    t.next_op();
    let image = t.span("cli.compress_chunked", || {
        let texts = read_inputs(t, p.work, p.files)?;
        let opts = IngestOptions { chunks: 2, ..Default::default() };
        let (comp, _) = t.span("ntadoc.ingest_chunked", || ingest_corpus(&texts, &opts));
        coarsen_and_write(t, comp, &p.work.join("replay-chunked.ntdc"))
    })?;
    let chunked = deserialize_compressed(&image).map_err(other)?;
    p.check(round_trips(&chunked, p.oracle), "chunked image round trip");

    t.next_op();
    let appended = t.span("cli.append", || -> io::Result<Arc<Compressed>> {
        let texts = read_inputs(t, p.work, &p.files[split..])?;
        let comp = load_corpus(t, &base_path)?;
        let mut engine = t
            .span("ntadoc.engine_build", || Engine::builder(comp).label("cli-append").build())
            .map_err(other)?;
        t.span("ntadoc.append_files", || engine.append_files(texts)).map_err(other)?;
        let image = t
            .span("grammar.serialize", || serialize_compressed(engine.compressed()))
            .map_err(other)?;
        t.span("cli.write_image", || fs::write(p.work.join("replay-appended.ntdc"), &image))?;
        Ok(engine.compressed().clone())
    })?;
    p.check(round_trips(&appended, p.oracle), "appended image round trip");
    Ok(())
}

/// One `ntadoc run <task> c.ntdc --top 20 …`, in process. `init` and
/// `traverse` name the two engine spans; `pool` selects the durable-pool
/// path. Returns the session's own report.
fn replay_run(
    p: &mut Pass,
    task: Task,
    persistence: Persistence,
    pool: Option<&Path>,
    init: &str,
    traverse: &str,
) -> io::Result<RunReport> {
    let t = p.t;
    t.next_op();
    let (out, text, report) =
        t.span("cli.run", || -> io::Result<(TaskOutput, String, RunReport)> {
            let comp = load_corpus(t, &p.image())?;
            let cfg = EngineConfig { persistence, ..EngineConfig::ntadoc() };
            let engine = t
                .span("ntadoc.engine_build", || {
                    Engine::builder(comp)
                        .config(cfg)
                        .pool_backend(PoolBackend::Mmap)
                        .label("cli")
                        .build()
                })
                .map_err(other)?;
            let mut session = t
                .span(init, || match pool {
                    Some(path) => engine.open_pool(path, task),
                    None => engine.session(task),
                })
                .map_err(other)?;
            let out: TaskOutput = t
                .span(traverse, || match pool {
                    Some(_) => session.traverse(),
                    None => session
                        .run_query(&Query::new(TenantId::default(), task))
                        .map(|r| r.into_output()),
                })
                .map_err(other)?;
            let text = t.span("cli.print_output", || cli_stdout(&out, RUN_TOP));
            Ok((out, text, session.report()))
        })?;
    p.check(out == p.expected[&task] && text == cli_stdout(&p.expected[&task], RUN_TOP), init);
    Ok(report)
}

/// The nine runs of one `analytics` job.
fn replay_analytics(p: &mut Pass) -> io::Result<()> {
    for task in Task::ALL {
        let name = wire::cli_name(task);
        let report = replay_run(
            p,
            task,
            Persistence::PhaseLevel,
            None,
            &format!("ntadoc.init.{name}"),
            &format!("ntadoc.traverse.{name}"),
        )?;
        p.reports.insert(task, report);
    }
    replay_run(
        p,
        Task::WordCount,
        Persistence::OperationLevel,
        None,
        "ntadoc.init_op.wordcount",
        "ntadoc.traverse_op.wordcount",
    )?;
    let pool = p.work.join("replay.ntdp");
    let _ = fs::remove_file(&pool);
    for init in ["ntadoc.pool_open.mmap", "ntadoc.pool_reopen.mmap"] {
        replay_run(
            p,
            Task::WordCount,
            Persistence::PhaseLevel,
            Some(&pool),
            init,
            "ntadoc.pool_traverse.mmap",
        )?;
    }
    Ok(())
}

/// `ntadoc serve` answering a seeded request stream, in process: what
/// `serve::handle_request` does per line, minus the socket.
fn replay_serve(p: &mut Pass, hot: bool) -> io::Result<()> {
    let t = p.t;
    let mut daemon = t.span("cli.serve_start", || -> io::Result<QueryDaemon> {
        let comp = load_corpus(t, &p.image())?;
        let engine = t
            .span("ntadoc.engine_build", || Engine::builder(comp).label("serve").build())
            .map_err(other)?;
        let session = t.span("ntadoc.serve_open", || engine.serve()).map_err(other)?;
        let cfg = DaemonConfig { cache_capacity: SERVE_CACHE, ..DaemonConfig::default() };
        Ok(QueryDaemon::new(session, cfg))
    })?;
    let mut rng = Rng::new(MICRO_SEED ^ hot as u64);
    let mut expected: HashMap<Request, Vec<u8>> = HashMap::new();
    let mut mismatches = 0;
    for i in 0..if hot { HOT_REPLAY } else { COLD_REPLAY } {
        let req = if hot { gen::hot_request(&mut rng).1 } else { gen::cold_request(&mut rng, i) };
        let line = wire::request_line(req, 0);
        t.next_op();
        let reply = t.span("cli.handle_request", || -> io::Result<String> {
            let parsed = t.span("pmem.json.parse", || Json::parse(&line)).map_err(other)?;
            let top = parsed.get("top").and_then(Json::as_u64).map(|k| k as usize);
            let query = wire::query(Request { task: req.task, top }, 0);
            // Which span the execute lands in is only known afterwards.
            let start = Instant::now();
            let resp = daemon.execute(query).map_err(other)?;
            let took = start.elapsed();
            t.span_done(
                if resp.cache_hit { "serve.execute_hit" } else { "serve.execute_miss" },
                took,
            );
            let output = t.span("ntadoc.to_json", || resp.output().to_json());
            let reply = Json::object([
                ("ok", Json::Bool(true)),
                ("cache_hit", Json::Bool(resp.cache_hit)),
                ("snapshot", Json::U64(resp.snapshot.fingerprint())),
                ("tenant", Json::U64(resp.tenant.0 as u64)),
                ("task", Json::from(resp.task.to_string())),
                ("output", output),
            ]);
            Ok(t.span("pmem.json.encode", || reply.compact()))
        })?;
        let members = wire::members(reply.as_bytes());
        let output = members.as_ref().and_then(|m| wire::member(m, "output"));
        let expected = expected
            .entry(req)
            .or_insert_with(|| wire::expected_output(req, &p.expected[&req.task]));
        mismatches += (output != Some(&expected[..])) as u64;
    }
    p.check(mismatches == 0, if hot { "serve_hot replay" } else { "serve_cold replay" });
    Ok(())
}

/// The named metrics that come from the replays' spans.
fn replay_metrics(p: &mut Pass, sim: SimCost) -> io::Result<()> {
    let t = p.t;
    let image_len = fs::metadata(p.image())?.len() as usize;
    p.put("cli.load_corpus_ms", "ms", t.mean_ms("cli.load_corpus"));
    p.put("grammar.deserialize_mb_s", "MB/s", mb_per_s(t, "grammar.deserialize", image_len));
    p.put("ntadoc.engine_build_ms", "ms", t.mean_ms("ntadoc.engine_build"));
    p.put("ntadoc.ingest_chunked_ms", "ms", t.mean_ms("ntadoc.ingest_chunked"));
    p.put("ntadoc.append_ms", "ms", t.mean_ms("ntadoc.append_files"));
    p.put("ntadoc.serve_open_ms", "ms", t.mean_ms("ntadoc.serve_open"));
    p.put("ntadoc.pool_open_ms.mmap", "ms", t.mean_ms("ntadoc.pool_open.mmap"));
    p.put("ntadoc.pool_reopen_ms.mmap", "ms", t.mean_ms("ntadoc.pool_reopen.mmap"));
    p.put("ntadoc.init_op_ms.wordcount", "ms", t.mean_ms("ntadoc.init_op.wordcount"));
    p.put("ntadoc.traverse_op_ms.wordcount", "ms", t.mean_ms("ntadoc.traverse_op.wordcount"));
    for task in Task::ALL {
        let name = wire::cli_name(task);
        let traverse_ms = t.mean_ms(&format!("ntadoc.traverse.{name}"));
        p.put(format!("ntadoc.init_ms.{name}"), "ms", t.mean_ms(&format!("ntadoc.init.{name}")));
        p.put(format!("ntadoc.traverse_ms.{name}"), "ms", traverse_ms);
        // Virtual clock and counts, from the program's own report.
        let report = &p.reports[&task];
        let (init_ns, traversal_ns, misses) =
            (report.init_ns(), report.traversal_ns(), report.stats.line_misses);
        let traversal = report.span("traversal").map(|s| s.stats).unwrap_or_default();
        p.put_exact(format!("ntadoc.virtual_init_ms.{name}"), "ms", init_ns as f64 / 1e6);
        p.put_exact(format!("ntadoc.virtual_traverse_ms.{name}"), "ms", traversal_ns as f64 / 1e6);
        p.put_exact(format!("ntadoc.line_misses.{name}"), "count", misses as f64);
        // The simulator tax: the lines the traversal touched, priced at the
        // simulator's host cost per cached and per uncached access, as a
        // share of the traversal's wall time.
        let priced =
            traversal.line_hits as f64 * sim.hit_ns + traversal.line_misses as f64 * sim.miss_ns;
        p.put(format!("ntadoc.pmem_wall_share_est.{name}"), "ratio", priced / (traverse_ms * 1e6));
    }
    // Footprints of the largest run.
    let report = &p.reports[&Task::RankedInvertedIndex];
    let kb = |metric| report.metric_f64(metric).unwrap_or(0.0) / 1024.0;
    let (dram_kb, device_kb) = (kb(METRIC_DRAM_PEAK), kb(METRIC_DEVICE_PEAK));
    p.put_exact("ntadoc.dram_peak_kb", "KB", dram_kb);
    p.put_exact("ntadoc.device_peak_kb", "KB", device_kb);
    Ok(())
}

// ---- probes: the real binary and a live daemon -------------------------------

fn probes(p: &mut Pass, ctx: &Ctx) -> io::Result<()> {
    let t = p.t;
    // What the process costs: `ntadoc run wordcount` from outside, less the
    // same run in process; medians of five each.
    let top = RUN_TOP.to_string();
    let mut outside_ms = Vec::new();
    for _ in 0..5 {
        let run = proc::run_cli(&ctx.bin, p.work, &["run", "wordcount", "c.ntdc", "--top", &top])?;
        outside_ms.push(must(run, "run wordcount")?.wall.as_secs_f64() * 1e3);
        replay_run(
            p,
            Task::WordCount,
            Persistence::PhaseLevel,
            None,
            "ntadoc.init.probe",
            "ntadoc.traverse.probe",
        )?;
    }
    let inside_ms: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "cli.run" && s.phase == "probes")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    p.put("cli.process_overhead_ms", "ms", stats::median(&outside_ms) - stats::median(&inside_ms));

    // What the socket costs: round trips to a live daemon, all cache hits,
    // against the in-process hit. A small reply on a connection per
    // request and on one kept open; then the largest reply for bandwidth.
    let daemon = Daemon::spawn(&ctx.bin, p.work, "c.ntdc", SERVE_CACHE)?;
    let small = wire::request_line(Request { task: Task::WordCount, top: Some(10) }, 0);
    let large = wire::request_line(Request { task: Task::InvertedIndex, top: Some(10) }, 0);
    let mut reply = Vec::new();
    for line in [&small, &large] {
        proc::request(daemon.socket(), line, &mut reply)?;
    }
    let trips = 500;
    t.span("cli.connect_roundtrips", || -> io::Result<()> {
        for _ in 0..trips {
            proc::request(daemon.socket(), &small, &mut reply)?;
        }
        Ok(())
    })?;
    t.span("cli.persistent_roundtrips", || -> io::Result<()> {
        // Closed (dropped) before anything else talks to the daemon: it
        // serves one connection at a time, to the end.
        let mut conn = proc::connect(daemon.socket())?;
        for _ in 0..trips {
            proc::exchange(&mut conn, &small, &mut reply)?;
        }
        Ok(())
    })?;
    let large_trips = 20;
    t.span("cli.large_roundtrips", || -> io::Result<()> {
        for _ in 0..large_trips {
            proc::request(daemon.socket(), &large, &mut reply)?;
        }
        Ok(())
    })?;
    let large_len = reply.len();
    daemon.shutdown()?;
    let hit_ns = ns_per_op(t, "serve.execute_hits", EXECUTE_HITS);
    p.put(
        "cli.connect_roundtrip_hit_us",
        "us",
        ns_per_op(t, "cli.connect_roundtrips", trips) / 1e3,
    );
    p.put(
        "cli.persistent_roundtrip_hit_us",
        "us",
        ns_per_op(t, "cli.persistent_roundtrips", trips) / 1e3,
    );
    let per_large_s = (ns_per_op(t, "cli.large_roundtrips", large_trips) - hit_ns) / 1e9;
    p.put("cli.reply_mb_s", "MB/s", large_len as f64 / 1e6 / per_large_s);

    // The JSON codec on that reply, and the engine-side encoding of the
    // largest word-level output.
    let text = String::from_utf8(reply).map_err(other)?;
    let parsed = t.span("pmem.json.parse_large", || Json::parse(&text)).map_err(other)?;
    t.span("pmem.json.encode_large", || black_box(parsed.compact()));
    p.put("pmem.json.parse_mb_s", "MB/s", mb_per_s(t, "pmem.json.parse_large", large_len));
    p.put("pmem.json.encode_mb_s", "MB/s", mb_per_s(t, "pmem.json.encode_large", large_len));
    let index = p.oracle.output(Task::InvertedIndex);
    let encoded = t.span("ntadoc.to_json_large", || index.to_json()).compact().len();
    p.put("ntadoc.to_json_mb_s", "MB/s", mb_per_s(t, "ntadoc.to_json_large", encoded));
    Ok(())
}
