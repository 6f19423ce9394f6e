//! Property-based coverage of the chunk-parallel ingest pipeline: for any
//! corpus and any chunk width, the merged grammar expands to the same
//! corpus as the serial build, engines over it produce identical task
//! outputs, virtual time is worker-count-independent, and the summation's
//! upper bounds stay sound over the merged rule shapes.

mod common;

use std::collections::HashSet;

use common::{check_corpora, CorpusShape};

use ntadoc::{ingest_corpus, upper_bounds, IngestOptions};
use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, compress_corpus_chunked, Engine, EngineBuilder, EngineConfig, Grammar,
    MergeOptions, Task, TokenizerConfig,
};

/// Arbitrary corpora: 1–5 files of small-alphabet words (some empty), so
/// chunk boundaries land mid-file, on file edges, and past tiny files.
const CORPORA: CorpusShape = CorpusShape { files: 1..5, alphabet: 18, words: 0..160 };

const CASES: u64 = 24;

/// Distinct word ids in each rule's expansion (the true word-list
/// lengths the summation bounds must dominate).
fn actual_word_lists(g: &Grammar) -> Vec<u64> {
    let order = g.topo_order();
    let mut sets: Vec<HashSet<u32>> = vec![HashSet::new(); g.rules.len()];
    for &r in order.iter().rev() {
        let mut set = HashSet::new();
        for s in &g.rules[r as usize].symbols {
            if s.is_word() {
                set.insert(s.payload());
            } else if s.is_rule() {
                set.extend(sets[s.payload() as usize].iter().copied());
            }
        }
        sets[r as usize] = set;
    }
    sets.into_iter().map(|s| s.len() as u64).collect()
}

#[test]
fn chunked_grammars_preserve_the_corpus() {
    check_corpora(
        "chunked_grammars_preserve_the_corpus",
        0x1291_0001,
        CASES,
        CORPORA,
        |_| (),
        |files, ()| {
            let cfg = TokenizerConfig::default();
            let serial = compress_corpus(files, &cfg);
            for w in [1usize, 2, 4, 8] {
                let chunked = compress_corpus_chunked(files, &cfg, w, &MergeOptions::default());
                chunked.grammar.validate().unwrap();
                assert_eq!(
                    chunked.grammar.expand_text(&chunked.dict),
                    serial.grammar.expand_text(&serial.dict),
                    "w={}",
                    w
                );
                assert_eq!(
                    chunked.dict.iter().collect::<Vec<_>>(),
                    serial.dict.iter().collect::<Vec<_>>(),
                    "w={}",
                    w
                );
            }
        },
    );
}

#[test]
fn chunked_task_outputs_match_serial() {
    check_corpora(
        "chunked_task_outputs_match_serial",
        0x1291_0002,
        CASES,
        CORPORA,
        |_| (),
        |files, ()| {
            // Engines only make sense over non-empty corpora.
            if files.iter().all(|(_, t)| t.is_empty()) {
                return;
            }
            let serial = {
                let comp = compress_corpus(files, &TokenizerConfig::default());
                let mut e = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
                (e.run(Task::WordCount).unwrap(), e.run(Task::TermVector).unwrap())
            };
            for w in [1usize, 2, 4, 8] {
                let mut e = EngineBuilder::from_files(files.clone())
                    .ingest_chunks(w)
                    .config(EngineConfig::ntadoc())
                    .build()
                    .unwrap();
                assert_eq!(e.run(Task::WordCount).unwrap(), serial.0.clone(), "w={}", w);
                assert_eq!(e.run(Task::TermVector).unwrap(), serial.1.clone(), "w={}", w);
            }
        },
    );
}

#[test]
fn ingest_virtual_time_is_worker_count_independent() {
    check_corpora(
        "ingest_virtual_time_is_worker_count_independent",
        0x1291_0003,
        CASES,
        CORPORA,
        |_| (),
        |files, ()| {
            for w in [2usize, 8] {
                let opts = IngestOptions { chunks: w, ..IngestOptions::default() };
                let run = |threads: usize| {
                    par::with_threads(threads, || {
                        let (comp, r) = ingest_corpus(files, &opts);
                        (comp.grammar, r.virtual_ns, r.chunk_ns)
                    })
                };
                let base = run(1);
                assert_eq!(run(4), base.clone(), "w={} at 4 threads", w);
                assert_eq!(run(8), base, "w={} at 8 threads", w);
            }
        },
    );
}

#[test]
fn summation_bounds_stay_sound_over_merged_grammars() {
    check_corpora(
        "summation_bounds_stay_sound_over_merged_grammars",
        0x1291_0004,
        CASES,
        CORPORA,
        |_| (),
        |files, ()| {
            let cfg = TokenizerConfig::default();
            let serial = compress_corpus(files, &cfg);
            let serial_actual = actual_word_lists(&serial.grammar);
            for w in [1usize, 2, 4, 8] {
                let chunked = compress_corpus_chunked(files, &cfg, w, &MergeOptions::default());
                let bounds = upper_bounds(&chunked.grammar).bounds;
                let actual = actual_word_lists(&chunked.grammar);
                for (r, (&b, &a)) in bounds.iter().zip(actual.iter()).enumerate() {
                    assert!(b >= a, "w={} rule {}: bound {} under-estimates {}", w, r, b, a);
                }
                // The root's word list is the corpus vocabulary — the same
                // list the serial build's root carries — so the merged bound
                // still upper-bounds the serial build's word-list length.
                assert!(
                    bounds[0] >= serial_actual[0],
                    "w={}: root bound {} under-estimates serial root list {}",
                    w,
                    bounds[0],
                    serial_actual[0]
                );
            }
        },
    );
}
