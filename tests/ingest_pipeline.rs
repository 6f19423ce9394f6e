//! The chunk-parallel ingest pipeline: for any corpus and any chunk width,
//! the summation's upper bounds stay sound over the merged rule shapes.
//! That the merged grammar validates, numbers words as the serial build
//! does and answers as the oracle does at any worker count is a matrix
//! route (`tests/common/matrix.rs`).

mod common;

use std::collections::HashSet;

use common::matrix::{cell, counts_turned, run_cells, run_drawn, Cell, Route};
use common::{check_corpora, CorpusShape};

use ntadoc::upper_bounds;
use ntadoc_repro::{compress_corpus, ingest_corpus, Grammar, IngestOptions, TokenizerConfig};

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
    let chunked = |c: &Cell| c.corpus == "generated" && c.route > Route::Chunks(1);
    run_drawn("arbitrary corpora in chunks", 0x1291_0005, 16, chunked);
}

#[test]
fn chunked_task_outputs_match_serial() {
    let chunked = [2, 4, 8].map(|n| Cell { route: Route::Chunks(n), ..cell("awkward words") });
    run_cells("chunked", chunked.into_iter().flat_map(Cell::every_task));
}

#[test]
fn ingest_virtual_time_is_worker_count_independent() {
    let chunked = [2, 4, 8].map(|n| Cell { route: Route::Chunks(n), ..cell("dataset D") });
    run_cells("chunked ingest", counts_turned(chunked));
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
                let (chunked, _) = ingest_corpus(files, &IngestOptions { chunks: w });
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
