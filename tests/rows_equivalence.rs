//! The id form of a result against its string form.
//!
//! An engine hands back [`TaskRows`]; [`TaskOutput`] is made from them in
//! one place (`TaskRows::into_strings`). What the rows do for themselves
//! — shaping by a query key, the wire encoding — has an older counterpart
//! over strings, kept as the reference: `QueryKey::apply` and
//! `TaskOutput::to_json().compact()`, the two the benchmark's oracle uses.
//! This suite holds the two together for all six tasks on N-TADOC, the
//! naive configuration, the uncompressed baseline and a serve session, over
//! the shared corpus generator, the two saved inputs, and dictionaries no
//! tokenizer produces: two ids for one word, words holding the space
//! n-grams are joined with, controls, quotes. Served corpus-wide counts are
//! built from the root rule's own view, so corpora shaped at the root get
//! their own check against the decompress-and-count baseline.

mod common;

use std::sync::Arc;

use common::{check_corpora, CorpusShape, Files};
use ntadoc_pmem::{par, PmemError};
use ntadoc_repro::{
    compress_corpus, Compressed, Dictionary, Engine, EngineConfig, Query, QueryKey, Symbol, Task,
    TaskOutput, TaskRows, TenantId, TokenizerConfig, UncompressedEngine,
};

/// 1–4 files (`f0`…) of up to 59 words, some empty.
const CORPORA: CorpusShape = CorpusShape { files: 1..5, alphabet: 15, words: 0..60 };

/// Words a forged image could hold: "a" and "b" beside "a b" make two
/// n-grams that join to one key, "a\tb" sorts before "a b" as a key and
/// after it as a gram, and the rest need escaping.
const HOSTILE: [&str; 8] = ["a b", "a", "b", "a\tb", "\u{1}", "é x", "b c", "\"q\\"];

/// `comp` with its first words replaced by [`HOSTILE`] and the next by a
/// second "a" — a duplicate only a forged image can hold.
fn forged(mut comp: Compressed) -> Compressed {
    let word = |id: usize| match id {
        id if id < HOSTILE.len() => HOSTILE[id].to_string(),
        id if id == HOSTILE.len() => "a".to_string(),
        id => format!("w{id}"),
    };
    comp.dict = Dictionary::from_words((0..comp.dict.len()).map(word).collect());
    comp
}

/// Every key worth asking: no shaping, `top` of nothing, one, a few and
/// more than there are rows, alone and under filters that match every
/// file, some (`f1`, `f10`, …) and none.
fn keys(task: Task) -> Vec<QueryKey> {
    let tops = [None, Some(0), Some(1), Some(3), Some(1 << 40)];
    let filters = [None, Some("f"), Some("1"), Some("no such file")];
    let mut keys = Vec::new();
    for top_k in tops {
        for file_filter in filters {
            keys.push(QueryKey { task, file_filter: file_filter.map(String::from), top_k });
        }
    }
    keys
}

/// What the rows say of themselves is what their string form says.
fn assert_same(rows: &TaskRows, strings: &TaskOutput, what: &str) {
    assert_eq!(rows.clone().into_strings(), *strings, "{what}: strings");
    assert_eq!(rows.task(), strings.task(), "{what}: task");
    // Appended to what the buffer already holds, as a reply's output is.
    let mut written = String::from("output:");
    rows.write_json(&mut written);
    assert_eq!(written, format!("output:{}", strings.to_json().compact()), "{what}: write_json");
}

/// One result under every key: shaped as ids, it reads as the strings
/// shaped as strings.
fn check_result(rows: TaskRows, what: &str) {
    let strings = rows.clone().into_strings();
    assert_same(&rows, &strings, what);
    for key in keys(rows.task()) {
        let what = format!("{what}, top {:?}, file {:?}", key.top_k, key.file_filter);
        assert_same(&key.shape(rows.clone()), &key.apply(strings.clone()), &what);
    }
}

/// All six tasks on the three engines, and the servable four through a
/// serve session under every key. With `tidy` (no two ids read alike) a
/// served result is also the batch run's; otherwise which of two equal
/// words a map keeps depends on the order the engine counted them in.
fn check_corpus(comp: Compressed, ngram: usize, tidy: bool) {
    let comp = Arc::new(comp);
    for (label, cfg) in [("ntadoc", EngineConfig::ntadoc()), ("naive", EngineConfig::naive())] {
        let cfg = EngineConfig { ngram, ..cfg };
        let mut engine = Engine::builder(comp.clone()).config(cfg).build().unwrap();
        for task in Task::ALL {
            check_result(engine.run_rows(task).unwrap(), &format!("{label} {task}"));
        }
    }
    let cfg = EngineConfig { ngram, ..EngineConfig::ntadoc() };
    let mut baseline = UncompressedEngine::builder(comp.clone()).config(cfg).build();
    let mut engine = Engine::builder(comp.clone()).build().unwrap();
    for task in Task::ALL {
        let rows = baseline.run_rows(task).unwrap();
        if tidy && !task.is_sequence() {
            // Ids read in one corpus compare as ids.
            assert_eq!(rows, engine.run_rows(task).unwrap(), "baseline against ntadoc, {task}");
        }
        check_result(rows, &format!("uncompressed {task}"));
    }

    let serve = engine.serve().unwrap();
    for task in [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex] {
        let queries: Vec<Query> = keys(task)
            .into_iter()
            .filter(|key| key.file_filter.is_none() || task.is_file_oriented())
            .map(|QueryKey { task, file_filter, top_k }| Query {
                tenant: TenantId(0),
                task,
                file_filter,
                top_k,
            })
            .collect();
        let served = serve.run_queries(&queries).unwrap();
        let full = served[0].output().clone();
        assert!(!tidy || full == engine.run(task).unwrap(), "served {task} against a run");
        for (query, resp) in queries.iter().zip(served) {
            let what =
                format!("served {task}, top {:?}, file {:?}", query.top_k, query.file_filter);
            assert_same(resp.rows(), &query.key().apply(full.clone()), &what);
            assert_eq!(*resp.output(), resp.clone().into_output(), "{what}: output()");
        }
    }
}

#[test]
fn rows_and_strings_agree_on_generated_corpora() {
    check_corpora(
        "rows_and_strings_agree_on_generated_corpora",
        0x23_0001,
        12,
        CORPORA,
        |rng| 2 + rng.next_below(2) as usize,
        |files: &Files, &ngram| {
            check_corpus(compress_corpus(files, &TokenizerConfig::default()), ngram, true)
        },
    );
}

#[test]
fn rows_and_strings_agree_on_forged_dictionaries() {
    check_corpora(
        "rows_and_strings_agree_on_forged_dictionaries",
        0x23_0002,
        12,
        CORPORA,
        |rng| 2 + rng.next_below(2) as usize,
        |files: &Files, &ngram| {
            check_corpus(forged(compress_corpus(files, &TokenizerConfig::default())), ngram, false)
        },
    );
}

/// The forged words do what they are there for: the one-pass writer meets
/// n-gram keys out of order and falls back on the tree, and two ids that
/// read alike leave one row where the string form is a map and two where it
/// is a list.
#[test]
fn forged_words_reach_the_cases_they_are_for() {
    // Every word twice over: ids 0..=8 are the eight hostile words and the
    // second "a".
    let text = (0..9).flat_map(|w| [format!("w{w}"), format!("w{w}")]).collect::<Vec<_>>();
    let files = vec![("f0".to_string(), text.join(" ")), ("f1".to_string(), String::new())];
    let comp = forged(compress_corpus(&files, &TokenizerConfig::default()));
    assert_eq!(comp.dict.word(1), comp.dict.word(8));
    let cfg = EngineConfig { ngram: 2, ..EngineConfig::ntadoc() };
    let mut engine = Engine::builder(comp).config(cfg).build().unwrap();

    let counts = engine.run_rows(Task::WordCount).unwrap();
    let sorted = engine.run_rows(Task::Sort).unwrap();
    assert_eq!((counts.len(), sorted.len()), (8, 9), "a map keeps one \"a\", a list both");
    check_result(counts, "word count");
    check_result(sorted, "sort");

    // ["a","b"] and ["a b", …] both occur: grams in order, joined keys not.
    let grams = engine.run_rows(Task::SequenceCount).unwrap();
    let strings = grams.clone().into_strings();
    let keys: Vec<String> =
        strings.as_sequence_counts().unwrap().keys().map(|gram| gram.join(" ")).collect();
    assert!(!keys.is_sorted(), "{keys:?}");
    check_result(grams, "sequence count");
}

/// Files `f0`, `f1`, … holding `texts`, compressed.
fn corpus<S: AsRef<str>>(texts: &[S]) -> Compressed {
    let files: Files =
        texts.iter().enumerate().map(|(i, t)| (format!("f{i}"), t.as_ref().to_string())).collect();
    compress_corpus(&files, &TokenizerConfig::default())
}

/// The root's body cut into file segments.
fn segments(comp: &Compressed) -> Vec<Vec<Symbol>> {
    comp.grammar.rules[0].symbols.split(|s| s.is_sep()).map(<[_]>::to_vec).collect()
}

/// Served word count, sort, term vector and inverted index equal the
/// decompress-and-count baseline under every `top` key, and the two
/// file-oriented tasks under every `file` key too; the two corpus-wide
/// tasks refuse a `file` key.
fn check_served_against_baseline(comp: Compressed, what: &str) {
    let comp = Arc::new(comp);
    for threads in [1, 4] {
        par::with_threads(threads, || {
            let mut baseline = UncompressedEngine::builder(comp.clone()).build();
            let serve = Engine::builder(comp.clone()).build().unwrap().serve().unwrap();
            for task in [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex] {
                let expect = baseline.run_rows(task).unwrap();
                let (queries, refused): (Vec<Query>, Vec<Query>) = keys(task)
                    .into_iter()
                    .map(|QueryKey { task, file_filter, top_k }| Query {
                        tenant: TenantId(0),
                        task,
                        file_filter,
                        top_k,
                    })
                    .partition(|q| q.file_filter.is_none() || task.is_file_oriented());
                assert_eq!(refused.is_empty(), task.is_file_oriented(), "{what}: {task}");
                for q in refused {
                    let err = serve.run_queries(std::slice::from_ref(&q)).unwrap_err();
                    assert!(matches!(err, PmemError::Unsupported(_)), "{what}: {task}: {err}");
                }
                let served = serve.run_queries(&queries).unwrap();
                for (q, resp) in queries.iter().zip(served) {
                    let at = format!(
                        "{what}, {threads} workers, served {task}, top {:?}, file {:?}",
                        q.top_k, q.file_filter
                    );
                    let want = q.key().shape(expect.clone());
                    assert_eq!(**resp.rows(), want, "{at}");
                }
            }
        });
    }
}

#[test]
fn served_counts_equal_the_baseline_on_corpora_shaped_at_the_root() {
    let phrase = "the quick brown fox jumps over";
    // Every file holds the phrase, so one rule is referenced from every
    // file segment of the root.
    let shared = corpus(&(0..6).map(|i| format!("{phrase} u{i} {phrase}")).collect::<Vec<_>>());
    let segs = segments(&shared);
    assert_eq!(segs.len(), 6);
    let in_every = (1..shared.grammar.rule_count() as u32)
        .any(|r| segs.iter().all(|seg| seg.contains(&Symbol::rule(r))));
    assert!(in_every, "no rule is referenced from every file");

    // Two files of repeated phrases; two whose words occur once in the
    // corpus, so their segments hold words and no rule.
    let mixed = corpus(&["a b c d a b c d", "x0 x1 x2 x3", "a b c d e", "y0 y1"]);
    let segs = segments(&mixed);
    assert!(segs[1].iter().all(|s| s.is_word()) && segs[3].iter().all(|s| s.is_word()));
    assert!(segs[0].iter().any(|s| s.is_rule()));

    // Eight words, a phrase in every file: forged, they are the eight
    // hostile words and no duplicate, which would leave it to the engine
    // which of two ids that read alike a shaped map keeps.
    let eight = corpus(
        &(0..6).map(|i| format!("w0 w1 w2 w3 w{} w0 w1 w2 w3", 4 + i % 4)).collect::<Vec<_>>(),
    );
    assert_eq!(eight.dict.len(), HOSTILE.len());

    let cases = [
        ("a rule in every file", shared),
        ("files without rules", mixed),
        ("one file", corpus(&["a b a b c a b c d a b"])),
        ("empty files", corpus(&["", "p q r p q r", "", "", "p q r s", ""])),
        ("only empty files", corpus(&["", ""])),
        ("a forged dictionary", forged(eight)),
    ];
    for (what, comp) in cases {
        check_served_against_baseline(comp, what);
    }
}
