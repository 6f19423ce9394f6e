//! Allocation budget: how many heap allocations one `Engine::run` makes,
//! per task, and one ingest of the same corpus, on a seeded corpus at one
//! worker.
//!
//! The id-level steps of the engine reuse caller-owned buffers for pool
//! reads, merge into a per-thread scratch array and lay the result out as
//! ids in four flat arenas (`TaskRows`); what is left to allocate is the
//! corpus load and the DAG build. This test pins that, so a `Vec` per pool
//! read or a `String` per posting cannot come back unnoticed. Counts are
//! taken on the calling thread only (one worker runs everything there) and
//! repeat exactly for one corpus — and the corpus is one sequence of bytes
//! on every host (`generated_corpora_and_the_default_trace_are_pinned`
//! below), so the budgets are the counts. CHANGES.md's PR 18 entry has the
//! counts before and after the change that introduced the budgets, and
//! its PR 23 entry those of the change that took the strings out of the
//! result.
//!
//! A serving daemon is held to its heap rather than its calls: after
//! set-up, what it keeps live must not grow with the requests it answers.
//!
//! Ingest reads its tokens borrowed from the text and interns them by
//! `&str`, so it allocates for words, rules and files and for nothing per
//! token; its budget is stated in those units (CHANGES.md's PR 19 entry has
//! the counts). These are deterministic
//! guards that run on a one-core host, where every wall-clock gate is
//! skipped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ntadoc_repro::{
    compress_corpus, crc64, generate, generate_compressed, ingest_corpus, Compressed, DaemonConfig,
    DatasetSpec, Engine, EngineConfig, IngestOptions, Query, QueryDaemon, SpanNode, Task, TenantId,
    TokenizerConfig, TraceSpec,
};

thread_local! {
    /// Allocation calls made by this thread (const-initialised, so reading
    /// it from inside the allocator never allocates).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and live bytes per thread.
struct Counting;

/// One allocation call that changed this thread's live bytes by `bytes`.
fn count(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    live(bytes);
}

fn live(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls this thread makes while `f` runs.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// A 40-file corpus with spec D's phrase structure, small enough for a
/// debug-mode test.
fn corpus_spec() -> DatasetSpec {
    DatasetSpec {
        files: 40,
        tokens_per_file: 1_500,
        core_vocab: 3_000,
        phrases: 400,
        ..DatasetSpec::d()
    }
}

/// Allocation calls of one `Engine::run_rows(task)`, engine construction
/// and the drop of the result left out.
fn run_calls(task: Task) -> u64 {
    let comp = generate_compressed(&corpus_spec());
    let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    let (out, calls) = calls_during(|| engine.run_rows(task).unwrap());
    drop(out);
    calls
}

#[test]
fn a_run_stays_inside_its_allocation_budget() {
    ntadoc_pmem::par::with_threads(1, || {
        for (task, as_strings, pinned) in BUDGETS {
            let calls = run_calls(task);
            assert_eq!(calls, run_calls(task), "{task}: the count must repeat exactly");
            assert_eq!(
                calls, pinned,
                "{task}: allocation calls per run moved ({as_strings} as strings → {pinned} \
                 pinned → {calls} now)"
            );
            // What keeping results as ids had to buy: the three tasks whose
            // results were the largest trees at most half of what they
            // were, the rest no more.
            let halves = matches!(
                task,
                Task::InvertedIndex | Task::SequenceCount | Task::RankedInvertedIndex
            );
            assert!(pinned <= if halves { as_strings / 2 } else { as_strings }, "{task}");
        }
    });
}

/// Per task: the count when a run built its result as strings (PR 18's pin,
/// `Engine::run` then), and the pin — the count itself, now that a run's
/// result stays ids (`Engine::run_rows`). One that falls is good news and a
/// new pin; one that rises has to say what it bought.
const BUDGETS: [(Task, u64, u64); 6] = [
    (Task::WordCount, 7_079, 6_033),
    (Task::Sort, 6_993, 6_033),
    (Task::TermVector, 7_069, 6_559),
    (Task::InvertedIndex, 19_994, 6_558),
    (Task::SequenceCount, 38_975, 11_274),
    (Task::RankedInvertedIndex, 74_988, 14_251),
];

/// Four tenants, each asking for one of the servable tasks.
const TENANTS: u32 = 4;

/// A daemon answers misses for as long as it runs, so what it keeps per
/// request must be nothing: the bytes live on this thread after 2 048
/// misses are those after 256, give or take one serve-batch span with a
/// leaf per tenant. Until consecutive batch spans were folded into one,
/// every batch kept its span and a leaf for the life of the process.
#[test]
fn a_serving_daemon_keeps_nothing_per_request() {
    ntadoc_pmem::par::with_threads(1, || {
        let spec = DatasetSpec { files: 8, tokens_per_file: 200, ..corpus_spec() };
        let engine = Engine::builder(generate_compressed(&spec)).build().unwrap();
        let cfg = DaemonConfig { cache_capacity: 0, ..DaemonConfig::default() };
        let mut daemon = QueryDaemon::new(engine.serve().unwrap(), cfg);
        let tasks = [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];
        let mut served = 0u32;
        let mut serve_until = |n: u32| {
            for i in served..n {
                let t = i % TENANTS;
                let query = Query::new(TenantId(t), tasks[t as usize]).top_k(1 + i as usize % 7);
                assert!(!daemon.execute(query).unwrap().cache_hit);
            }
            served = n;
            LIVE.with(Cell::get)
        };
        let early = serve_until(256);
        let late = serve_until(2_048);
        let node = std::mem::size_of::<SpanNode>() as i64;
        let one_folded_node = node * (1 + TENANTS as i64) + 64;
        assert!(
            late - early <= one_folded_node,
            "{early} live bytes after 256 misses, {late} after 2 048 (one folded span: \
             {one_folded_node})"
        );
    });
}

/// What an ingest may allocate for: a dictionary entry per distinct word, a
/// body per rule, a name per file — never something per token.
fn ingest_units(comp: &Compressed) -> u64 {
    (comp.dict.len() + comp.grammar.rule_count() + comp.file_names.len()) as u64
}

#[test]
fn ingest_allocates_per_word_rule_and_file_not_per_token() {
    ntadoc_pmem::par::with_threads(1, || {
        let files = generate(&corpus_spec());
        let cfg = TokenizerConfig::default();
        let tokens: u64 = files.iter().map(|(_, t)| t.split_whitespace().count() as u64).sum();

        let (serial, serial_calls) = calls_during(|| compress_corpus(&files, &cfg));
        let chunked_opts = IngestOptions { chunks: 2, ..IngestOptions::default() };
        let ((chunked, _), chunked_calls) = calls_during(|| ingest_corpus(&files, &chunked_opts));
        let rows = [
            ("compress_corpus", ingest_units(&serial), serial_calls, 3),
            ("2-chunk ingest_corpus", ingest_units(&chunked), chunked_calls, 6),
        ];
        for (what, units, calls, _) in rows {
            println!("{what}: {calls} allocation calls for {tokens} tokens, {units} units");
        }
        for (what, units, calls, per_unit) in rows {
            assert!(
                calls <= per_unit * units,
                "{what}: {calls} allocation calls, budget {per_unit} x {units} \
                 (words + rules + files)"
            );
            assert!(calls < tokens / 2, "{what}: {calls} allocation calls for {tokens} tokens");
        }
    });
}

/// CRC-64 of a corpus as one byte stream: each file's name and text, each
/// followed by a NUL (which no generated name or word holds).
fn corpus_crc(files: &[(String, String)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, text) in files {
        for part in [name, text] {
            bytes.extend_from_slice(part.as_bytes());
            bytes.push(0);
        }
    }
    crc64(&bytes)
}

/// Every table in RESULTS.md is a function of `ntadoc-datagen`'s
/// corpora and `serve_load`'s of the default trace; both draw from
/// `ntadoc_pmem::Prng` and from nothing else, so they are the same bytes on
/// every host. A change to the generator, to one of its draws or to a preset
/// moves a pin here instead of silently moving every table.
#[test]
fn generated_corpora_and_the_default_trace_are_pinned() {
    const PINNED: [(&str, u64); 5] = [
        ("A", 0xa4b9_936d_927c_d2f2),
        ("B", 0x6e58_445a_4a9e_5300),
        ("C", 0x1181_b363_7f5b_f948),
        ("D", 0xf3da_7559_ff20_8c1b),
        ("default trace", 0x7c7a_1cb4_a514_9967),
    ];
    let mut measured: Vec<(&str, u64)> = DatasetSpec::all()
        .into_iter()
        .map(|spec| (spec.name, corpus_crc(&generate(&spec.scaled(0.05)))))
        .collect();
    let trace: String = TraceSpec::default()
        .generate()
        .iter()
        .map(|e| {
            let q = &e.query;
            format!("{} {} {} {:?} {:?}\n", e.at_ns, q.tenant, q.task, q.top_k, q.file_filter)
        })
        .collect();
    measured.push(("default trace", crc64(trace.as_bytes())));
    assert_eq!(measured, PINNED, "as hex: {measured:#x?}");
}
