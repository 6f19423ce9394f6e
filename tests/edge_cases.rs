//! Degenerate corpora and parameter sweeps, each test the cells of its
//! subject in the differential matrix (`tests/common/matrix.rs`), checked
//! against the decompress-and-count oracle.

mod common;

use common::matrix::Path::*;
use common::matrix::{cell, run_cells, Backend, Cell, EngineKind, Route, ENGINES};
use common::oracle::Shape;
use ntadoc_repro::Task;

/// `name` through every task on one engine, a word count and an inverted
/// index over the wire, and a term vector in a session built by appends.
fn whole_pipeline(name: &str) -> Vec<Cell> {
    let mut cells = cell(name).every_task();
    cells.extend(Cell { path: Wire, ..cell(name) }.tasks(&[Task::WordCount, Task::InvertedIndex]));
    let appended = Cell { route: Route::Appends(7), path: Session, ..cell(name) };
    cells.push(Cell { task: Task::TermVector, ..appended });
    cells
}

#[test]
fn many_empty_files_between_content() {
    let filtered = Cell {
        path: Wire,
        task: Task::InvertedIndex,
        shape: Shape { top: None, file: Some("f1".into()) },
        ..cell("empty files")
    };
    run_cells("empty files", whole_pipeline("empty files").into_iter().chain([filtered]));
}

#[test]
fn ngram_width_sweep_matches_oracle() {
    // The sweep runs 2, 3, 4, 5 and 7; here, the widths between and past.
    let sequences = [Task::SequenceCount, Task::RankedInvertedIndex];
    let widths = [6, 8, 12].map(|ngram| Cell { ngram, ..cell("24 files") });
    let engines =
        widths.into_iter().flat_map(|c| [c.clone(), Cell { engine: EngineKind::Scan, ..c }]);
    run_cells("n-gram widths", engines.flat_map(|c| c.tasks(&sequences)));
}

#[test]
fn persistence_none_on_nvm_still_correct() {
    let unpersisted = Cell { engine: EngineKind::Unpersisted, ..cell("24 files") };
    let pooled = Cell { path: ServePool, backend: Backend::File, ..unpersisted.clone() };
    run_cells("no persistence", unpersisted.every_task().into_iter().chain([pooled]));
}

#[test]
fn repeated_runs_on_one_engine_are_deterministic() {
    // `run_rows` runs twice on one engine and compares the reports.
    let engines = ENGINES.map(|engine| Cell { engine, task: Task::Sort, ..cell("24 files") });
    run_cells("repeated runs", engines);
}

#[test]
fn run_report_serializes_to_json() {
    // Every cell reads each report back from its JSON; here, one per path.
    let paths = [RunRows, Session, Serve, Wire].map(|path| Cell { path, ..cell("tiny files") });
    let pooled = Cell { path: ServePool, backend: Backend::Mmap, ..cell("tiny files") };
    run_cells("reports", paths.into_iter().chain([pooled]));
}

#[test]
fn single_word_repeated_corpus_works() {
    run_cells("one repeated word", whole_pipeline("one repeated word"));
}

#[test]
fn top_k_sweep_truncates_consistently() {
    let vectors = Cell { task: Task::TermVector, ..cell("24 files") };
    let tops = [Some(0), Some(1), Some(3), Some(1 << 40)];
    let served =
        tops.map(|top| Cell { path: Serve, shape: Shape { top, file: None }, ..vectors.clone() });
    let indexed = served.clone().map(|c| Cell { task: Task::InvertedIndex, ..c });
    run_cells("top k", [vectors].into_iter().chain(served).chain(indexed));
}

#[test]
fn unicode_words_survive_the_whole_pipeline() {
    let pooled = Cell { path: Session, backend: Backend::File, ..cell("unicode") };
    run_cells("unicode", whole_pipeline("unicode").into_iter().chain([pooled]));
}

#[test]
fn very_long_words_round_trip() {
    run_cells("long words", whole_pipeline("long words"));
}

#[test]
fn zero_repetition_corpus_works() {
    run_cells("no repetition", whole_pipeline("no repetition"));
}
