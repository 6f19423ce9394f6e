//! Run set-up is one linear pass over the grammar, and it leaves the model
//! alone: the id-indexed `prune_rule` equals the quadratic Algorithm 1 it
//! replaced (pairs *and* order), `Grammar::stats` counts the corpus without
//! expanding it, sessions built from the engine's maintained bounds write
//! the pool a full recompute writes, n-gram ids no longer follow the thread
//! schedule, and the model's numbers — every engine, task and persistence
//! strategy, batch and serve — are pinned as exact integers.

mod common;

use common::{check_corpora, ingest_engine, vec_of, CorpusShape};
use ntadoc::dag::{prune_rule, FreqPairs};
use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, for_each_case, Compressed, DeviceProfile, Engine, EngineConfig, Grammar,
    Query, RunReport, Symbol, Task, TenantId, TokenizerConfig, UncompressedEngine,
    METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK,
};

/// Algorithm 1 as the engine ran it before the id index: a linear `find`
/// per symbol, quadratic in the distinct ids. The reference the one-pass
/// version has to equal.
fn prune_rule_reference(symbols: &[Symbol]) -> (FreqPairs, FreqPairs) {
    let mut subs: FreqPairs = Vec::new();
    let mut words: FreqPairs = Vec::new();
    for s in symbols {
        let list = if s.is_rule() {
            &mut subs
        } else if s.is_word() {
            &mut words
        } else {
            continue;
        };
        let id = s.payload();
        match list.iter_mut().find(|(i, _)| *i == id) {
            Some((_, f)) => *f += 1,
            None => list.push((id, 1)),
        }
    }
    (subs, words)
}

/// `(kind, id)` → symbol: rules, words and file separators.
fn symbol(kind: u8, id: u32) -> Symbol {
    match kind % 3 {
        0 => Symbol::rule(id),
        1 => Symbol::word(id),
        _ => Symbol::file_sep(id),
    }
}

#[test]
fn prune_rule_equals_the_reference_on_fixed_bodies() {
    // The paper's "R1 → R2 w3 R4 w4 R3 R2 R4 w4".
    let paper = vec![
        Symbol::rule(2),
        Symbol::word(3),
        Symbol::rule(4),
        Symbol::word(4),
        Symbol::rule(3),
        Symbol::rule(2),
        Symbol::rule(4),
        Symbol::word(4),
    ];
    assert_eq!(prune_rule(&paper), (vec![(2, 2), (4, 2), (3, 1)], vec![(3, 1), (4, 2)]));
    assert_eq!(prune_rule(&paper), prune_rule_reference(&paper));

    let empty: Vec<Symbol> = Vec::new();
    assert_eq!(prune_rule(&empty), (vec![], vec![]));
    // Separators only, short and long enough to take the indexed path.
    for n in [1u32, 7, 500] {
        let seps: Vec<Symbol> = (0..n).map(Symbol::file_sep).collect();
        assert_eq!(prune_rule(&seps), (vec![], vec![]), "{n} separators");
    }
    // A rule and a word sharing an id stay in separate buckets.
    let shared: Vec<Symbol> =
        (0..200u32).flat_map(|i| [Symbol::rule(i % 9), Symbol::word(i % 9)]).collect();
    assert_eq!(prune_rule(&shared), prune_rule_reference(&shared));
}

#[test]
fn prune_rule_equals_the_reference_on_a_root_sized_body() {
    // 60 k symbols over 6 k distinct ids per kind, Zipf-ish so most ids
    // repeat: the shape of a real R0.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let body: Vec<Symbol> = (0..60_000u32)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            let id = (r % 6_000).min(r % 7_919 % 6_000);
            symbol((r >> 20) as u8, id)
        })
        .collect();
    let (subs, words) = prune_rule(&body);
    assert!(subs.len() + words.len() >= 5_000, "{} + {} distinct ids", subs.len(), words.len());
    assert_eq!((subs, words), prune_rule_reference(&body));
}

/// Arbitrary corpora of small-alphabet words, some files empty.
const CORPORA: CorpusShape = CorpusShape { files: 1..4, alphabet: 15, words: 0..120 };

const CASES: u64 = 64;

/// Random symbol streams on both sides of the length at which
/// `prune_rule` starts indexing.
#[test]
fn prune_rule_equals_the_reference() {
    for_each_case(
        "prune_rule_equals_the_reference",
        0x1417_0001,
        CASES,
        |rng| vec_of(rng, 0..300, |rng| (rng.next_below(3) as u8, rng.next_below(40) as u32)),
        |stream| {
            let body: Vec<Symbol> = stream.iter().map(|&(k, id)| symbol(k, id)).collect();
            assert_eq!(prune_rule(&body), prune_rule_reference(&body));
        },
    );
}

/// The expansion length `stats` sums bottom-up is the length of the
/// expansion, raw and coarsened.
#[test]
fn stats_count_the_expansion_without_expanding() {
    check_corpora(
        "stats_count_the_expansion_without_expanding",
        0x1417_0002,
        CASES,
        CORPORA,
        |rng| rng.next_below(20),
        |files, &min_exp| {
            let comp = compress_corpus(files, &TokenizerConfig::default());
            for g in [comp.grammar.clone(), comp.grammar.coarsened(min_exp)] {
                let stats = g.stats();
                assert_eq!(stats.expanded_words, g.expand_tokens().len() as u64);
                assert_eq!(stats.total_symbols, g.total_symbols());
                let distinct: std::collections::HashSet<u32> =
                    g.expand_tokens().into_iter().collect();
                assert_eq!(stats.vocabulary, distinct.len());
                assert_eq!(stats.files, files.len());
            }
        },
    );
}

/// A fixed corpus: `files` files of `words`
/// words drawn from a small phrase library by arithmetic, so phrases recur
/// within and across files and Sequitur finds a layered grammar.
fn fixed_corpus(files: usize, words: usize) -> Vec<(String, String)> {
    (0..files)
        .map(|f| {
            let mut text = String::new();
            let mut w = 0;
            while w < words {
                let phrase = (f * 7 + w * 3) % 67;
                for k in 0..3 + phrase % 4 {
                    text.push_str(&format!("p{}w{} ", phrase, k));
                }
                text.push_str(&format!("u{} ", (f * 31 + w) % 151));
                w += 4 + phrase % 4;
            }
            (format!("doc-{f:03}"), text)
        })
        .collect()
}

fn fixed_compressed(files: usize, words: usize) -> Compressed {
    compress_corpus(&fixed_corpus(files, words), &TokenizerConfig::default())
}

#[test]
fn stats_count_the_expansion_on_fixed_grammars() {
    // Figure 1: R0 → R1 |0 R1 w6, R1 → R2 w3 w4 R2, R2 → w1 w2.
    let fig1 = Grammar::new(vec![
        ntadoc_grammar::Rule {
            symbols: vec![Symbol::rule(1), Symbol::file_sep(0), Symbol::rule(1), Symbol::word(6)],
        },
        ntadoc_grammar::Rule {
            symbols: vec![Symbol::rule(2), Symbol::word(3), Symbol::word(4), Symbol::rule(2)],
        },
        ntadoc_grammar::Rule { symbols: vec![Symbol::word(1), Symbol::word(2)] },
    ]);
    let big = fixed_compressed(100, 250).grammar;
    for g in [fig1, big.coarsened(12), big] {
        assert_eq!(g.stats().expanded_words, g.expand_tokens().len() as u64);
    }
}

/// Init virtual time and every pool byte of a fresh session for `task`.
fn init_image(engine: &Engine, task: Task) -> (u64, Vec<u8>) {
    let session = engine.session(task).unwrap();
    let dev = session.sim_device();
    (dev.stats().virtual_ns, dev.peek(0, dev.capacity() as usize))
}

/// Sessions take their §IV-C bounds from the engine, which derives them
/// again after every append. An engine built from scratch over the same
/// corpus derives them at build; both must write the same pool (the
/// bounds are a metadata array in it) at the same virtual cost.
#[test]
fn sessions_from_maintained_bounds_write_the_pool_a_recompute_writes() {
    let files = fixed_corpus(12, 80);
    let cfg = EngineConfig::ntadoc;
    let (fresh, _) = ingest_engine(&files[..6], |b| b.config(cfg())).unwrap();
    let (mut appended, _) = ingest_engine(&files[..6], |b| b.config(cfg())).unwrap();
    let check = |engine: &Engine, what: &str| {
        let rebuilt = Engine::builder(engine.compressed().clone()).config(cfg()).build().unwrap();
        for task in [Task::WordCount, Task::InvertedIndex, Task::RankedInvertedIndex] {
            assert_eq!(init_image(engine, task), init_image(&rebuilt, task), "{what}: {task}");
        }
    };
    check(&fresh, "fresh");
    appended.append_files(files[6..9].to_vec()).unwrap();
    appended.append_files(files[9..].to_vec()).unwrap();
    check(&appended, "after two appends");
}

/// N-gram ids are assigned at the level barrier in item order, so the
/// id-sorted sequence lists in the pool and the id-ordered traversal — and
/// with it the virtual clock — do not depend on which worker ran what.
#[test]
fn ranked_index_is_one_run_for_any_schedule() {
    let comp = std::sync::Arc::new(fixed_compressed(100, 250));
    let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    let run = |threads: usize| {
        par::with_threads(threads, || {
            let mut session = engine.session(Task::RankedInvertedIndex).unwrap();
            let out = session.traverse().unwrap();
            let dev = session.sim_device();
            (dev.stats().virtual_ns, dev.peek(0, dev.capacity() as usize), out)
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        for round in 0..30 {
            let (ns, pool, out) = run(threads);
            assert_eq!(ns, base.0, "virtual time moved at {threads} workers, round {round}");
            assert!(pool == base.1, "pool bytes moved at {threads} workers, round {round}");
            assert_eq!(out, base.2);
        }
    }
}

/// One pinned run: `init_ns()`, `stats.{virtual_ns, reads, writes,
/// line_misses, write_backs, log_bytes}`, `stats.persist_points()`, DRAM
/// peak, device peak — what the model produces for a run, as exact
/// integers.
type Pin = [u64; 10];

fn pin_of(report: &RunReport) -> Pin {
    let s = &report.stats;
    let peak = |name: &str| report.metric_f64(name).unwrap() as u64;
    [
        report.init_ns(),
        s.virtual_ns,
        s.reads,
        s.writes,
        s.line_misses,
        s.write_backs,
        s.log_bytes,
        s.persist_points(),
        peak(METRIC_DRAM_PEAK),
        peak(METRIC_DEVICE_PEAK),
    ]
}

/// The model, pinned: all six tasks under the four compressed design
/// points (`ntadoc`, `ntadoc_oplevel` and `naive` on NVM, `tadoc_dram` on
/// DRAM) and the uncompressed baseline under both persistence strategies,
/// plus the four servable tasks through `ServeSession::run_queries` (a
/// fresh serve session per task, then all four as one batch), on a fixed
/// corpus at one worker.
#[rustfmt::skip]
const PINNED: &[(&str, &str, Pin)] = &[
    ("ntadoc", "word count", [2123281, 2245247, 10258, 7383, 290, 291, 0, 4, 34862, 76163]),
    ("ntadoc", "sort", [2123281, 2293955, 10258, 7383, 290, 291, 0, 4, 34862, 76163]),
    ("ntadoc", "term vector", [2371555, 3385105, 8308, 3139, 5079, 615, 0, 4, 36142, 158679]),
    ("ntadoc", "inverted index", [2371555, 3494886, 34588, 12899, 5384, 921, 0, 6, 36142, 236759]),
    ("ntadoc", "sequence count", [2146314, 2495835, 61281, 6632, 744, 746, 0, 6, 469656, 188115]),
    ("ntadoc", "ranked inverted index", [2768407, 4438652, 61584, 4366, 16188, 3752, 0, 6, 455576, 1054903]),
    ("ntadoc-op", "word count", [2123281, 5849803, 13664, 21000, 375, 4349, 100837, 10250, 34862, 76163]),
    ("ntadoc-op", "sort", [2123281, 5898511, 13664, 21000, 375, 4349, 100837, 10250, 34862, 76163]),
    ("ntadoc-op", "term vector", [3466815, 4480365, 8754, 4700, 5084, 2052, 105276, 2234, 36142, 158679]),
    ("ntadoc-op", "inverted index", [3466815, 4590146, 35034, 14460, 5389, 2358, 105276, 2236, 36142, 236759]),
    ("ntadoc-op", "sequence count", [2146314, 3615381, 61731, 8207, 986, 2301, 129384, 2256, 469656, 188115]),
    ("ntadoc-op", "ranked inverted index", [3892087, 6080268, 62230, 6627, 16203, 7176, 498812, 3236, 455576, 1054903]),
    ("naive", "word count", [3652372, 3841584, 19064, 11121, 464, 465, 0, 4, 34862, 185731]),
    ("naive", "sort", [3652372, 3890292, 19064, 11121, 464, 465, 0, 4, 34862, 185731]),
    ("naive", "term vector", [4049990, 5268796, 158045, 116730, 740, 724, 0, 4, 34862, 251111]),
    ("naive", "inverted index", [4049990, 5378709, 184325, 126490, 1045, 1030, 0, 6, 34862, 329191]),
    ("naive", "sequence count", [3676503, 4540257, 101011, 43865, 1686, 1687, 0, 6, 455256, 496655]),
    ("naive", "ranked inverted index", [4322914, 6460605, 315852, 221934, 3962, 3860, 0, 6, 455256, 1147335]),
    ("tadoc-dram", "word count", [85896, 236660, 15908, 9811, 1395, 0, 0, 0, 95091, 95091]),
    ("tadoc-dram", "sort", [85896, 285368, 15908, 9811, 1395, 0, 0, 0, 95091, 95091]),
    ("tadoc-dram", "term vector", [165179, 1182115, 8308, 2915, 8129, 0, 0, 0, 193541, 193541]),
    ("tadoc-dram", "inverted index", [165179, 1262252, 34588, 12675, 9349, 0, 0, 0, 238551, 238551]),
    ("tadoc-dram", "sequence count", [107123, 411224, 61281, 6408, 2946, 0, 0, 0, 643371, 643371]),
    ("tadoc-dram", "ranked inverted index", [288462, 1544181, 61584, 4142, 28961, 0, 0, 0, 1510479, 1510479]),
    ("uncompressed", "word count", [2178742, 2603392, 93466, 29168, 552, 553, 0, 4, 151548, 141143]),
    ("uncompressed", "sort", [2178742, 2652100, 93466, 29168, 552, 553, 0, 4, 151548, 141143]),
    ("uncompressed", "term vector", [2178742, 3545026, 131760, 74933, 433, 417, 0, 4, 151548, 106599]),
    ("uncompressed", "inverted index", [2178742, 3655319, 158040, 84693, 738, 723, 0, 6, 151548, 184679]),
    ("uncompressed", "sequence count", [2178742, 3162761, 157742, 57191, 1504, 1505, 0, 4, 453464, 384855]),
    ("uncompressed", "ranked inverted index", [2178742, 5245108, 202835, 128649, 3822, 3712, 0, 4, 453464, 949799]),
    ("uncompressed-op", "word count", [2178742, 8919248, 99694, 54068, 646, 7671, 184408, 18736, 151548, 141143]),
    ("uncompressed-op", "sort", [2178742, 8967956, 99694, 54068, 646, 7671, 184408, 18736, 151548, 141143]),
    ("uncompressed-op", "term vector", [2178742, 3545026, 131760, 74933, 433, 417, 0, 4, 151548, 106599]),
    ("uncompressed-op", "inverted index", [2178742, 3655319, 158040, 84693, 738, 723, 0, 6, 151548, 184679]),
    ("uncompressed-op", "sequence count", [2178742, 58232815, 212161, 274853, 2534, 63708, 1614015, 163317, 453464, 384855]),
    ("uncompressed-op", "ranked inverted index", [2178742, 5245108, 202835, 128649, 3822, 3712, 0, 4, 453464, 949799]),
    ("serve", "word count", [2371555, 2696546, 4741, 3139, 6178, 615, 0, 2, 36142, 158679]),
    ("serve", "sort", [2371555, 2745254, 4741, 3139, 6178, 615, 0, 2, 36142, 158679]),
    ("serve", "term vector", [2371555, 3742833, 5310, 3139, 6899, 615, 0, 2, 36142, 158679]),
    ("serve", "inverted index", [2371555, 3742833, 5310, 3139, 6899, 615, 0, 2, 36142, 158679]),
    ("serve", "batch", [2371555, 3742833, 7913, 3139, 10917, 615, 0, 2, 36142, 158679]),
];

/// The `serve` rows of [`PINNED`]: each servable task through a fresh
/// serve session of its own, then all four as one batch.
fn serve_rows(comp: &std::sync::Arc<Compressed>) -> Vec<(&'static str, &'static str, Pin)> {
    let engine = Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    let servable = [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];
    let mut rows = Vec::new();
    for task in servable {
        let serve = engine.serve().unwrap();
        serve.run_queries(&[Query::new(TenantId(1), task)]).unwrap();
        rows.push(("serve", task.name(), pin_of(&serve.report())));
    }
    let serve = engine.serve().unwrap();
    let batch: Vec<Query> =
        servable.iter().zip(1..).map(|(&task, t)| Query::new(TenantId(t), task)).collect();
    serve.run_queries(&batch).unwrap();
    rows.push(("serve", "batch", pin_of(&serve.report())));
    rows
}

/// What `ntadoc run <task>` prints on stderr for the paper's system: the
/// `ntadoc` rows of [`PINNED`] as [`RunReport::summary_line`] words them.
const SUMMARIES: [&str; 6] = [
    "[NVM] init 2.123 ms + traversal 0.122 ms = 2.245 ms (virtual); DRAM peak 34 KB, NVM peak 74 KB",
    "[NVM] init 2.123 ms + traversal 0.171 ms = 2.294 ms (virtual); DRAM peak 34 KB, NVM peak 74 KB",
    "[NVM] init 2.372 ms + traversal 1.014 ms = 3.385 ms (virtual); DRAM peak 35 KB, NVM peak 154 KB",
    "[NVM] init 2.372 ms + traversal 1.123 ms = 3.495 ms (virtual); DRAM peak 35 KB, NVM peak 231 KB",
    "[NVM] init 2.146 ms + traversal 0.350 ms = 2.496 ms (virtual); DRAM peak 458 KB, NVM peak 183 KB",
    "[NVM] init 2.768 ms + traversal 1.670 ms = 4.439 ms (virtual); DRAM peak 444 KB, NVM peak 1030 KB",
];

/// A change that is meant to move only the wall clock or the shape of the
/// code must leave every row of [`PINNED`] as it is; one that moves the
/// model has to say so there. On a mismatch the test prints the whole
/// table as this run produced it.
#[test]
fn run_summaries_are_pinned() {
    let comp = std::sync::Arc::new(fixed_compressed(100, 250));
    let mut rows: Vec<(&str, &str, Pin)> = Vec::new();
    let mut summaries = Vec::new();
    par::with_threads(1, || {
        let compressed = [
            ("ntadoc", EngineConfig::ntadoc(), DeviceProfile::nvm_optane()),
            ("ntadoc-op", EngineConfig::ntadoc_oplevel(), DeviceProfile::nvm_optane()),
            ("naive", EngineConfig::naive(), DeviceProfile::nvm_optane()),
            ("tadoc-dram", EngineConfig::tadoc_dram(), DeviceProfile::dram()),
        ];
        for (name, cfg, profile) in compressed {
            for task in Task::ALL {
                let mut engine = Engine::builder(comp.clone())
                    .config(cfg.clone())
                    .profile(profile.clone())
                    .build()
                    .unwrap();
                engine.run(task).unwrap();
                let report = engine.last_report.as_ref().unwrap();
                rows.push((name, task.name(), pin_of(report)));
                if name == "ntadoc" {
                    summaries.push(report.summary_line());
                }
            }
        }
        let baselines = [
            ("uncompressed", EngineConfig::ntadoc()),
            ("uncompressed-op", EngineConfig::ntadoc_oplevel()),
        ];
        for (name, cfg) in baselines {
            for task in Task::ALL {
                let mut engine =
                    UncompressedEngine::builder(comp.clone()).config(cfg.clone()).build();
                engine.run(task).unwrap();
                rows.push((name, task.name(), pin_of(engine.last_report.as_ref().unwrap())));
            }
        }
        rows.extend(serve_rows(&comp));
    });
    if rows != PINNED {
        let table: String =
            rows.iter().map(|(e, t, p)| format!("    ({e:?}, {t:?}, {p:?}),\n")).collect();
        panic!("the model moved; this run's table:\n{table}");
    }
    assert_eq!(summaries, SUMMARIES);
}

/// A served query merges its files on every worker and is charged the
/// serial sum: [`PINNED`]'s `serve` rows hold at four workers too.
#[test]
fn served_rows_are_pinned_at_four_workers() {
    let comp = std::sync::Arc::new(fixed_compressed(100, 250));
    let rows = par::with_threads(4, || serve_rows(&comp));
    let pinned: Vec<_> = PINNED.iter().filter(|row| row.0 == "serve").copied().collect();
    assert_eq!(rows, pinned);
}
