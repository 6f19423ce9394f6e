//! The differential matrix: every route a corpus can take into an engine,
//! every engine, layout, backend and path a task can be asked through, at
//! one worker and at several, checked against the decompress-and-count
//! [`Oracle`].
//!
//! A [`Cell`] is one point of the matrix, and [`run`] checks one:
//! - the reply bytes equal the oracle's, on every ask (a run repeated on
//!   one engine, a wire miss and its hit, a served batch run again on its
//!   warm session, a pool created and reopened);
//! - at one worker and at the cell's `workers`, the replies, the whole
//!   report JSON, the pool-file bytes and the ingest measurements (virtual
//!   ns, per-chunk ns, span tree) are identical, and a served batch run at
//!   each on one session costs the same virtual time;
//! - a run's or a session's span tree is nested, and a served term vector
//!   or inverted index reads more lists than the corpus has files;
//! - a chunked or appended grammar validates, every route's dictionary
//!   numbers words as the oracle does, and its image round-trips;
//! - a cell the library documents as refused fails with `Unsupported`.
//!
//! [`sweep_pairs`] and [`sweep_edges`] hold the fixed cells that reach
//! every task × path and every engine × task pair, every n-gram width and
//! every refusal, [`each_drawn`] the seeded walk;
//! `tests/matrix.rs` runs both and proves what they reach. The suites the
//! matrix replaced keep their test names, each running the cells of its
//! subject through [`run_cells`] or [`run_drawn`].

use std::io::{self, Cursor, Read, Write};
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ntadoc_pmem::par;
use ntadoc_repro::{
    deserialize_compressed, for_each_case, generate, ingest_corpus, serialize_compressed,
    Compressed, DaemonConfig, DatasetSpec, DeviceProfile, Engine, EngineBuilder, EngineConfig,
    IngestOptions, Json, Persistence, PmemError, PoolBackend, PoolLayoutConfig, Prng, Query,
    QueryDaemon, RunReport, SpanNode, Task, TaskRows, TenantId, Traversal, UncompressedEngine,
    WireServer,
};

use super::oracle::{Oracle, Shape};
use super::{build_by_appends, corpus, named, plan_from_seed, CorpusShape, Files, SAVED_INPUTS};

/// How the corpus becomes a grammar: `ingest_corpus` in `n` chunks (one is
/// the serial build), or a base and appended groups drawn from a seed. The
/// order is the serial build, more chunks, then appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Chunks(usize),
    Appends(u64),
}

/// The engine: N-TADOC at each persistence level, the naive port, TADOC on
/// DRAM, N-TADOC on SSD and HDD, N-TADOC with a forced traversal, or the
/// uncompressed scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    PhaseLevel,
    OperationLevel,
    Unpersisted,
    Naive,
    TadocDram,
    Ssd,
    Hdd,
    TopDown,
    BottomUp,
    Scan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    File,
    Mmap,
}

/// How a task is asked: `run_rows` twice on one engine, a session's
/// `traverse_rows`, `serve()` / `serve_pool()` twice on one session, or a
/// `WireServer` request as a miss and then as a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    RunRows,
    Session,
    Serve,
    ServePool,
    Wire,
}

use Backend::*;
use EngineKind::*;
use Path::*;

pub const ENGINES: [EngineKind; 10] =
    [PhaseLevel, OperationLevel, Unpersisted, Naive, TadocDram, Ssd, Hdd, TopDown, BottomUp, Scan];
pub const ROUTES: [Route; 5] =
    [Route::Chunks(1), Route::Chunks(2), Route::Chunks(4), Route::Chunks(8), Route::Appends(0)];
pub const LAYOUTS: [PoolLayoutConfig; 2] = [PoolLayoutConfig::Fixed, PoolLayoutConfig::Varint];
pub const BACKENDS: [Backend; 3] = [Memory, File, Mmap];
pub const PATHS: [Path; 5] = [RunRows, Session, Serve, ServePool, Wire];
pub const WORKERS: [usize; 3] = [2, 4, 8];
pub const NGRAMS: [usize; 5] = [2, 3, 4, 5, 7];
const SERVABLE: [Task; 4] = [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];

/// A corpus's files, printed in full only when they are short.
#[derive(Clone)]
pub struct Texts(pub Arc<Files>);

impl std::fmt::Debug for Texts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.iter().map(|(_, t)| t.len()).sum::<usize>() {
            0..2048 => write!(f, "{:?}", self.0),
            bytes => write!(f, "{} files, {bytes} bytes", self.0.len()),
        }
    }
}

/// One point of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    pub corpus: &'static str,
    pub files: Texts,
    pub route: Route,
    pub engine: EngineKind,
    pub layout: PoolLayoutConfig,
    pub backend: Backend,
    pub path: Path,
    /// The worker count compared with one.
    pub workers: usize,
    pub task: Task,
    pub ngram: usize,
    /// The query's shaping, on the serving paths.
    pub shape: Shape,
}

impl Cell {
    pub fn serves(&self) -> bool {
        matches!(self.path, Serve | ServePool | Wire)
    }

    /// Why the library must refuse this cell with `Unsupported`, if it must.
    pub fn refusal(&self) -> Option<&'static str> {
        Some(if self.files.0.is_empty() {
            "an empty corpus"
        } else if self.task.is_sequence() && self.ngram < 2 {
            "an n-gram below two"
        } else if self.serves() && self.engine == Naive {
            "serving a naive engine"
        } else if self.serves() && self.task.is_sequence() {
            "serving a sequence task"
        } else if self.backend != Memory && self.engine == TadocDram {
            "a pool on a volatile profile"
        } else {
            return None;
        })
    }

    fn config(&self) -> EngineConfig {
        let nt = EngineConfig::ntadoc();
        let cfg = match self.engine {
            OperationLevel => EngineConfig::ntadoc_oplevel(),
            Unpersisted => EngineConfig { persistence: Persistence::None, ..nt },
            Naive => EngineConfig::naive(),
            TadocDram => EngineConfig::tadoc_dram(),
            TopDown => EngineConfig { traversal: Traversal::TopDown, ..nt },
            BottomUp => EngineConfig { traversal: Traversal::BottomUp, ..nt },
            _ => nt,
        };
        EngineConfig { ngram: self.ngram, ..cfg }
    }

    /// `builder` set up as the cell says, but for the pool `layout`.
    fn configure(&self, builder: EngineBuilder, layout: PoolLayoutConfig) -> EngineBuilder {
        let backend = if self.backend == Mmap { PoolBackend::Mmap } else { PoolBackend::File };
        let builder = builder.config(self.config()).pool_layout(layout).pool_backend(backend);
        match self.engine {
            TadocDram => builder.profile(DeviceProfile::dram()),
            Ssd => builder.ssd(),
            Hdd => builder.hdd(),
            _ => builder,
        }
    }
}

// ---- the corpora ------------------------------------------------------------

/// The fixed corpora, by name: those of the suites the matrix replaced,
/// the two inputs proptest saved, and the four generated datasets.
pub fn catalog() -> &'static [(&'static str, Arc<Files>)] {
    static CATALOG: OnceLock<Vec<(&'static str, Arc<Files>)>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let pangrams = [
            "the quick brown fox jumps over the lazy dog the end",
            "pack my box with five dozen liquor jugs the fox",
            "sphinx of black quartz judge my vow the quick judge",
        ]
        .map(|t| t.repeat(2));
        let twenty_four = (0..24).map(|i| {
            let text: Vec<&str> = (0..3 + i % 5).map(|k| pangrams[(i + k) % 3].as_str()).collect();
            (format!("doc-{i:02}"), text.join(" "))
        });
        let long = "x".repeat(10_000);
        let d = DatasetSpec::d();
        let unicode =
            ["数据 压缩 分析 数据 压缩 分析 非易失 内存", "naïve café naïve データ 数据 Straße"];
        let mut corpora: Vec<(&'static str, Files)> = vec![
            ("awkward words", awkward_words()),
            ("unicode", named(unicode)),
            ("one repeated word", named(["echo ".repeat(5000)])),
            ("no repetition", named([(0..500).map(|i| format!("unique{i} ")).collect::<String>()])),
            ("tiny files", named(["one two", "one", "", "one two three one two three"])),
            ("empty files", named((0..20).map(|i| ["data point data", ""][(i % 3 != 0) as usize]))),
            ("long words", named([format!("{long} short {long} short y{long}")])),
            ("24 files", twenty_four.collect()),
            // 10 000, 6 000, 20 000 and 10 000 tokens: D keeps its shape
            // (64 files at its smallest, a large vocabulary), not its
            // 20 000 tokens a file.
            ("dataset A", generate(&DatasetSpec::a().scaled(0.05))),
            ("dataset B", generate(&DatasetSpec::b().scaled(0.05))),
            ("dataset C", generate(&DatasetSpec::c().scaled(0.02))),
            ("dataset D", generate(&DatasetSpec { tokens_per_file: 160, ..d.scaled(0.02) })),
        ];
        corpora.extend(SAVED_INPUTS.map(|(name, texts)| (name, named(texts.iter().copied()))));
        corpora.into_iter().map(|(name, files)| (name, Arc::new(files))).collect()
    })
}

/// Words that are prefixes of one another (`a` < `ab` < `abc`; `[a, bc]`
/// < `[ab, c]` though both spell `abc`), words after `z` and multi-byte
/// ones, n-grams sharing all but their last word, words first seen in
/// reverse alphabetical order (ids and alphabetical ranks disagree), an
/// empty file, a file shorter than any n-gram, and a rule hierarchy.
fn awkward_words() -> Files {
    let phrases = [
        "zz z ñandú éa é 日本語 日本 日 abcd abc ab a",
        "x y a x y ab x y abc x y abcd x y é x y éa",
        "a bc ab c abc a b c ab cd",
        "日本 語 日 本語 日本語 é a éa ñandú ñ andú",
    ];
    let mut files: Files = (0..7)
        .map(|f| {
            let text: Vec<&str> = (0..9).map(|i| phrases[(f * 3 + i * i) % 4]).collect();
            (format!("f{f}"), text.join(" "))
        })
        .collect();
    files.insert(2, ("empty".into(), String::new()));
    files.insert(5, ("short".into(), "ab".into()));
    files
}

// ---- the plan ---------------------------------------------------------------

/// A cell of the catalogued corpus `name` with every other axis at its
/// plainest: the serial build, phase-level N-TADOC, the fixed layout in
/// memory, `run_rows` at one worker and at two, word count, trigrams.
pub fn cell(name: &str) -> Cell {
    let (corpus, files) = catalog().iter().find(|(n, _)| *n == name).expect("a catalogued corpus");
    Cell {
        corpus,
        files: Texts(files.clone()),
        route: Route::Chunks(1),
        engine: PhaseLevel,
        layout: PoolLayoutConfig::Fixed,
        backend: Memory,
        path: RunRows,
        workers: 2,
        task: Task::WordCount,
        ngram: 3,
        shape: Shape::default(),
    }
}

impl Cell {
    /// This cell once for each of `tasks`.
    pub fn tasks(self, tasks: &[Task]) -> Vec<Cell> {
        tasks.iter().map(|&task| Cell { task, ..self.clone() }).collect()
    }

    /// This cell once for each task its path can ask.
    pub fn every_task(self) -> Vec<Cell> {
        let tasks = tasks_for(self.path);
        self.tasks(tasks)
    }
}

/// `cells` with the worker count compared with one turned through 2, 4
/// and 8.
pub fn counts_turned(cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    cells.into_iter().enumerate().map(|(i, c)| Cell { workers: WORKERS[i % 3], ..c }).collect()
}

/// The engines `path` can ask without a refusal.
fn engines_for(path: Path) -> Vec<EngineKind> {
    let refused: &[EngineKind] = match path {
        RunRows => &[],
        Session => &[Scan],
        Serve | Wire => &[Scan, Naive],
        ServePool => &[Scan, Naive, TadocDram],
    };
    ENGINES.into_iter().filter(|e| !refused.contains(e)).collect()
}

fn backends_for(path: Path, engine: EngineKind) -> &'static [Backend] {
    match (path, engine) {
        (RunRows | Serve, _) | (_, TadocDram) => &[Memory],
        (ServePool, _) => &[File, Mmap],
        _ => &BACKENDS,
    }
}

pub fn tasks_for(path: Path) -> &'static [Task] {
    if matches!(path, RunRows | Session) {
        &Task::ALL
    } else {
        &SERVABLE
    }
}

fn pick<T: Copy>(rng: &mut Prng, from: &[T]) -> T {
    from[rng.next_below(from.len() as u64) as usize]
}

/// The catalogue without the generated datasets, which cost ten times a
/// small corpus a cell: the sweep runs each once, and tests of their own
/// run them further.
fn small_corpora() -> Vec<&'static (&'static str, Arc<Files>)> {
    catalog().iter().filter(|(name, _)| !name.starts_with("dataset")).collect()
}

/// One cell of the walk: half its corpora drawn, half small catalogued
/// ones.
fn draw(rng: &mut Prng) -> Cell {
    let (corpus, files) = if rng.chance(0.5) {
        ("generated", Arc::new(corpus(rng, &GENERATED)))
    } else {
        let small = small_corpora();
        let (name, files) = small[rng.next_below(small.len() as u64) as usize];
        (*name, files.clone())
    };
    // A pool costs five times what memory does: `serve_pool` comes half as
    // often as the other paths, a pool under a session or the wire one
    // time in four.
    let path = match rng.next_below(9) {
        8 => ServePool,
        n => [RunRows, Session, Serve, Wire][n as usize % 4],
    };
    let engine = pick(rng, &engines_for(path));
    let task = pick(rng, tasks_for(path));
    let mut shape = Shape::default();
    if path != RunRows && path != Session {
        shape.top = pick(rng, &[None, Some(0), Some(1), Some(2), Some(3), Some(1 << 40)]);
        // A whole file name, or its last character (`f3` keeps `f13` too).
        let (name, _) = &files[rng.next_below(files.len() as u64) as usize];
        shape.file = match rng.next_below(4) {
            _ if !task.is_file_oriented() => None,
            0 | 1 => None,
            2 => Some(name.clone()),
            _ => Some(name[name.len() - 1..].to_string()),
        };
    }
    Cell {
        corpus,
        files: Texts(files),
        route: match pick(rng, &ROUTES) {
            Route::Appends(_) => Route::Appends(rng.next_u64()),
            chunks => chunks,
        },
        engine,
        layout: pick(rng, &LAYOUTS),
        backend: match backends_for(path, engine) {
            [Memory, ..] if rng.next_below(4) != 0 => Memory,
            backends => pick(rng, backends),
        },
        path,
        workers: pick(rng, &WORKERS),
        task,
        ngram: pick(rng, &NGRAMS),
        shape,
    }
}

/// Arbitrary corpora for the walk: up to five files of small-alphabet
/// words, some empty.
const GENERATED: CorpusShape = CorpusShape { files: 1..6, alphabet: 15, words: 0..120 };

/// The sweep's pairs: each task × path pair and each engine × task pair
/// once, the other axes turned through their values as it goes, over the
/// catalogue's small corpora; then each generated dataset once.
pub fn sweep_pairs() -> Vec<Cell> {
    let small = small_corpora();
    let pairs = PATHS.iter().flat_map(|&p| tasks_for(p).iter().map(move |&t| (p, t, None)));
    let engines = ENGINES.iter().flat_map(|&e| Task::ALL.map(|t| (RunRows, t, Some(e))));
    let mut cells: Vec<Cell> = pairs
        .chain(engines)
        .enumerate()
        .map(|(k, (path, task, engine))| {
            let (corpus, files) = small[k % small.len()];
            let engine = engine.unwrap_or_else(|| {
                let engines = engines_for(path);
                engines[k * 3 % engines.len()]
            });
            let file = &files[k % files.len()].0;
            let serves = !matches!(path, RunRows | Session);
            Cell {
                corpus,
                files: Texts(files.clone()),
                route: ROUTES[k % 5],
                engine,
                layout: LAYOUTS[k / 2 % 2],
                backend: backends_for(path, engine)[if path == ServePool { k % 2 } else { 0 }],
                path,
                workers: WORKERS[k % 3],
                task,
                ngram: NGRAMS[k / 3 % NGRAMS.len()],
                shape: Shape {
                    top: [None, Some(2)][k % 2].filter(|_| serves),
                    file: Some(file.clone()).filter(|_| serves && task.is_file_oriented()),
                },
            }
        })
        .collect();
    let datasets = ["dataset A", "dataset B", "dataset C", "dataset D"];
    for (k, name) in datasets.into_iter().enumerate() {
        let (task, route) = (Task::ALL[k + 2], ROUTES[k + 1]);
        cells.push(Cell {
            task,
            route,
            engine: ENGINES[k * 3],
            workers: WORKERS[k % 3],
            ..cell(name)
        });
    }
    cells
}

/// The sweep's edges: the awkward words at every n-gram width on the
/// engines that count sequences each their own way, then each documented
/// refusal.
pub fn sweep_edges() -> Vec<Cell> {
    let mut cells = Vec::new();
    let sequence_tasks = [Task::SequenceCount, Task::RankedInvertedIndex];
    for engine in [PhaseLevel, Naive, Scan] {
        for ngram in NGRAMS {
            for task in sequence_tasks {
                let workers = WORKERS[cells.len() % 3];
                cells.push(Cell { engine, task, ngram, workers, ..cell("awkward words") });
            }
        }
    }
    let base = cell("tiny files");
    cells.push(Cell { corpus: "empty corpus", files: Texts(Arc::default()), ..base.clone() });
    for ngram in [0, 1] {
        let asked = [PhaseLevel, OperationLevel, Naive, Scan].map(|e| (e, RunRows));
        for (engine, path) in asked.into_iter().chain([(PhaseLevel, Session)]) {
            // The other tasks never look at `ngram`.
            cells.push(Cell { engine, path, ngram, ..base.clone() });
            for task in sequence_tasks {
                cells.push(Cell { engine, path, task, ngram, ..base.clone() });
            }
        }
    }
    for task in sequence_tasks {
        for path in [Serve, ServePool, Wire] {
            let backend = if path == ServePool { File } else { Memory };
            cells.push(Cell { path, task, backend, ..base.clone() });
            cells.push(Cell { engine: Naive, path, task, backend, ..base.clone() });
        }
    }
    for path in [Session, ServePool, Wire] {
        for backend in [File, Mmap] {
            cells.push(Cell { engine: TadocDram, path, backend, ..base.clone() });
        }
    }
    cells
}

/// Check each of `cells`; a failure names `what` and the cell.
pub fn run_cells(what: &str, cells: impl IntoIterator<Item = Cell>) {
    let cells: Vec<Cell> = cells.into_iter().collect();
    let mut each = cells.iter().cloned();
    for_each_case(what, 0, cells.len() as u64, |_| each.next().unwrap(), run);
}

/// Hand `f` `cases` cells drawn as the walk draws them, each the first
/// draw from its case's seed that `keep` keeps.
pub fn each_drawn(
    what: &str,
    seed: u64,
    cases: u64,
    keep: impl Fn(&Cell) -> bool,
    f: impl FnMut(&Cell),
) {
    let drawn = |rng: &mut Prng| loop {
        let cell = draw(rng);
        if keep(&cell) {
            return cell;
        }
    };
    for_each_case(what, seed, cases, drawn, f);
}

/// Check `cases` drawn cells that `keep` keeps (see [`each_drawn`]).
pub fn run_drawn(what: &str, seed: u64, cases: u64, keep: impl Fn(&Cell) -> bool) {
    each_drawn(what, seed, cases, keep, run);
}

// ---- one cell ---------------------------------------------------------------

/// What one pass over a cell gave: everything that must not depend on the
/// worker count, and the dictionary's words in id order.
#[derive(Default)]
struct Outcome {
    /// What was asked (the task and the query's shaping) and the reply.
    replies: Vec<(Task, Shape, String)>,
    reports: Vec<String>,
    pools: Vec<Vec<u8>>,
    ingest: Vec<(u64, Vec<u64>, SpanNode)>,
    image: Vec<u8>,
    words: Vec<String>,
    /// Each file's word ids, as the grammar spells them.
    spelled: Vec<Vec<u32>>,
}

impl Outcome {
    fn rows(&mut self, rows: &TaskRows, shape: &Shape) {
        let mut json = String::new();
        rows.write_json(&mut json);
        self.replies.push((rows.task(), shape.clone(), json));
    }

    /// A report's JSON, which reads back as the report it came from.
    fn report(&mut self, report: &RunReport) {
        let json = report.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json().pretty(), json, "the report reads back");
        self.reports.push(json);
    }
}

/// Check `cell`: refused as documented, or answering as the oracle does,
/// the same at one worker and at `cell.workers`.
pub fn run(cell: &Cell) {
    if let Some(why) = cell.refusal() {
        match par::with_threads(1, || attempt(cell)) {
            Err(PmemError::Unsupported(msg)) => {
                let said = why != "an n-gram below two" || msg.contains("n >= 2");
                assert!(said, "{why} must be refused saying n >= 2, not with {msg}");
                return;
            }
            Err(e) => panic!("{why} must be refused as unsupported, not with {e}"),
            Ok(_) => panic!("{why} must be refused"),
        }
    }
    let oracle = Oracle::new(&cell.files.0);
    let one = par::with_threads(1, || attempt(cell)).unwrap();
    for (i, (task, shape, reply)) in one.replies.iter().enumerate() {
        let want = oracle.reply(*task, cell.ngram, shape);
        assert_eq!(reply, &want, "reply {i}, {task} shaped {shape:?}, against the oracle");
    }
    assert_eq!(one.words, oracle.words, "the dictionary numbers words as they first occur");
    assert!(one.spelled == oracle.files, "the grammar spells the corpus");
    let (at, many) = (cell.workers, par::with_threads(cell.workers, || attempt(cell)).unwrap());
    assert_eq!(many.replies, one.replies, "replies at {at} workers");
    assert_eq!(many.ingest, one.ingest, "ingest measurements at {at} workers");
    assert!(many.image == one.image, "the image differs at {at} workers");
    for (i, (a, b)) in many.reports.iter().zip(&one.reports).enumerate() {
        assert!(a == b, "report {i} at {at} workers:\n{a}\nat one worker:\n{b}");
    }
    for (i, (a, b)) in many.pools.iter().zip(&one.pools).enumerate() {
        assert!(a == b, "pool file {i} differs at {at} workers");
    }
}

/// The image of `comp`, which decodes to `comp`.
pub fn round_trip(comp: &Compressed) -> (Vec<u8>, Compressed) {
    let image = serialize_compressed(comp).unwrap();
    let back = deserialize_compressed(&image).unwrap();
    assert_eq!(back.grammar, comp.grammar, "the image's grammar");
    assert!(back.dict.iter().eq(comp.dict.iter()), "the image's dictionary");
    assert_eq!(back.file_names, comp.file_names, "the image's file names");
    (image, back)
}

/// One pass over `cell` at the current worker count.
fn attempt(cell: &Cell) -> Result<Outcome, PmemError> {
    let mut out = Outcome::default();
    let files = &cell.files.0;
    let (comp, appended) = match cell.route {
        Route::Chunks(chunks) => {
            let (comp, report) = ingest_corpus(files, &IngestOptions { chunks });
            out.ingest.push((report.virtual_ns, report.chunk_ns, report.spans));
            (comp, None)
        }
        Route::Appends(seed) => {
            let plan = plan_from_seed(files.len(), seed);
            let (engine, base) =
                build_by_appends(files, &plan, |b| cell.configure(b, cell.layout))?;
            assert_eq!(engine.append_log().len(), plan.len() - 1, "an append per group");
            out.ingest.push((base.virtual_ns, base.chunk_ns, base.spans));
            for step in engine.append_log() {
                out.ingest.push((step.virtual_ns, Vec::new(), step.spans.clone()));
            }
            ((**engine.compressed()).clone(), Some(engine))
        }
    };
    comp.grammar.validate().unwrap();
    let (image, comp) = round_trip(&comp);
    out.words = comp.dict.iter().map(|(_, w)| w.to_string()).collect();
    out.spelled = comp.grammar.expand_files();
    out.image = image;
    if cell.engine == Scan {
        let mut scan = UncompressedEngine::builder(comp).config(cell.config()).build();
        for _ in 0..2 {
            out.rows(&scan.run_rows(cell.task)?, &cell.shape);
            out.report(scan.last_report.as_ref().unwrap());
        }
        assert_eq!(out.reports[0], out.reports[1], "a second run on one engine");
        return Ok(out);
    }
    let mut engine = match appended {
        Some(engine) => engine,
        None => cell.configure(Engine::builder(comp), cell.layout).build()?,
    };
    if cell.backend == Memory {
        ask(cell, &mut engine, None, &mut out)?;
        return Ok(out);
    }
    // Created under the cell's layout, then reopened by an engine
    // configured for the other one: the layout sealed into the pool is
    // what reopening re-runs init in, so it writes what creating it wrote
    // (an undo log's header aside, which recovery moves on).
    let pool = TempPool::new();
    ask(cell, &mut engine, Some(&pool.0), &mut out)?;
    let other = LAYOUTS.into_iter().find(|&l| l != cell.layout).unwrap();
    let reopener = cell.configure(Engine::builder(engine.compressed().clone()), other);
    ask(cell, &mut reopener.build()?, Some(&pool.0), &mut out)?;
    if cell.engine != OperationLevel {
        assert!(out.pools[0] == out.pools[1], "a reopen rewrites the pool it was created as");
    }
    Ok(out)
}

/// Under the summation a ranked index's result is allocated once (§IV-C):
/// the corpus's n-gram windows it is sized from bound its postings, so it
/// never reconstructs.
fn check_sized_once(cell: &Cell, report: &RunReport) {
    if cell.task == Task::RankedInvertedIndex && cell.config().presize {
        let rebuilt = report.metric_u64("ranked-triples.reconstructions");
        assert_eq!(rebuilt, Some(0), "a pre-sized ranked result reconstructed");
    }
}

/// Ask `engine` the cell's question through the cell's path, over the pool
/// file at `pool` if there is one.
fn ask(
    cell: &Cell,
    engine: &mut Engine,
    pool: Option<&FsPath>,
    out: &mut Outcome,
) -> Result<(), PmemError> {
    let query = Query {
        tenant: TenantId(0),
        task: cell.task,
        file_filter: cell.shape.file.clone(),
        top_k: cell.shape.top,
    };
    match cell.path {
        RunRows => {
            for _ in 0..2 {
                out.rows(&engine.run_rows(cell.task)?, &cell.shape);
                let report = engine.last_report.as_ref().unwrap();
                assert!(report.init_ns() > 0 && report.traversal_ns() > 0, "both phases timed");
                assert!(report.spans.span_count() > 3, "a nested span tree");
                check_sized_once(cell, report);
                out.report(report);
            }
            assert_eq!(out.reports[0], out.reports[1], "a second run on one engine");
        }
        Session => {
            let mut session = match pool {
                Some(path) => engine.open_pool(path, cell.task)?,
                None => engine.session(cell.task)?,
            };
            out.rows(&session.traverse_rows()?, &cell.shape);
            let report = session.report();
            assert!(report.spans.span_count() > 3, "a nested span tree");
            check_sized_once(cell, &report);
            out.report(&report);
        }
        Serve | ServePool | Wire => {
            let serve = match pool {
                Some(path) => engine.serve_pool(path)?,
                None => engine.serve()?,
            };
            if cell.path != Wire {
                // Alone, then in a batch with a plain query of every
                // servable task from another tenant, at one worker and
                // again at the cell's count on the now warm session: both
                // batches must cost the same virtual time.
                let plain = SERVABLE.map(|task| Query::new(TenantId(1), task));
                let batch: Vec<Query> = [query.clone()].into_iter().chain(plain).collect();
                let mut asked = |queries: &[Query], threads: usize| {
                    let before = serve.sim_device().stats().virtual_ns;
                    let replies = par::with_threads(threads, || serve.run_queries(queries))?;
                    for (q, resp) in queries.iter().zip(replies) {
                        out.rows(resp.rows(), &Shape { top: q.top_k, file: q.file_filter.clone() });
                    }
                    Ok::<_, PmemError>(serve.sim_device().stats().virtual_ns - before)
                };
                asked(std::slice::from_ref(&query), par::thread_count())?;
                if cell.task.is_file_oriented() {
                    let spans = serve.report().spans;
                    let leaf = spans.find("tenant:0").expect("the tenant's leaf").stats;
                    let files = cell.files.0.len() as u64;
                    assert!(leaf.reads > files, "every file's lists are read: {leaf:?}");
                }
                let warm = [asked(&batch, 1)?, asked(&batch, cell.workers)?];
                assert_eq!(
                    warm[0], warm[1],
                    "a warm batch's virtual ns at {} workers",
                    cell.workers
                );
                out.report(&serve.report());
            } else {
                let mut server = WireServer::new(QueryDaemon::new(serve, DaemonConfig::default()));
                let mut request = vec![("op", Json::from("query"))];
                request.push(("task", Json::from(format!("{:?}", cell.task))));
                request.extend(query.top_k.map(|top| ("top", Json::from(top))));
                request.extend(query.file_filter.map(|file| ("file", Json::from(file))));
                let line = Json::object(request).compact() + "\n";
                let mut pipe = Pipe(Cursor::new(line.repeat(2).into_bytes()), Vec::new());
                server.serve_connection(&mut pipe).unwrap();
                let replies = String::from_utf8(pipe.1).unwrap();
                assert_eq!(replies.lines().count(), 2, "a reply per request");
                for (hit, reply) in [false, true].into_iter().zip(replies.lines()) {
                    let head = format!(r#"{{"cache_hit":{hit},"ok":true,"output":"#);
                    let Some(output) = reply.strip_prefix(&head) else {
                        // A refused query comes back typed as a refusal.
                        let kind = Json::parse(reply).ok().and_then(|r| r.get("kind").cloned());
                        assert_eq!(kind, Some(Json::from("unsupported")), "{reply}");
                        return Err(PmemError::Unsupported(reply.to_string()));
                    };
                    let end = output.rfind(r#","snapshot":"#).expect("the members after output");
                    out.replies.push((cell.task, cell.shape.clone(), output[..end].to_string()));
                }
                out.report(&server.daemon().report());
            }
        }
    }
    if let Some(path) = pool {
        out.pools.push(std::fs::read(path).unwrap());
    }
    Ok(())
}

/// Request lines to read and the reply lines written back.
struct Pipe(Cursor<Vec<u8>>, Vec<u8>);

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.1.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A pool path of its own, removed when dropped.
struct TempPool(PathBuf);

impl TempPool {
    fn new() -> TempPool {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("ntadoc-matrix-{}-{n}.ntdp", std::process::id());
        TempPool(std::env::temp_dir().join(name))
    }
}

impl Drop for TempPool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
