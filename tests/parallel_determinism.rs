//! Parallelism never changes results, each test the cells of its subject
//! in the differential matrix (`tests/common/matrix.rs`): every cell runs
//! at one worker and at the cell's two, four or eight, and its replies,
//! whole report JSON, pool-file bytes, ingest measurements and a served
//! batch's virtual time must be identical.

mod common;

use std::sync::Arc;

use common::matrix::Path::*;
use common::matrix::{cell, counts_turned, run_cells, Backend, Cell, EngineKind, Route, Texts};
use common::oracle::Shape;
use ntadoc_repro::Task;

#[test]
fn chunked_engines_agree_with_serial_engines_for_any_worker_count() {
    let chunked = [2, 4, 8].map(|n| Cell { route: Route::Chunks(n), ..cell("24 files") });
    run_cells("chunked engines", counts_turned(chunked));
}

#[test]
fn empty_corpus_is_a_clean_builder_error() {
    let empty = Cell { corpus: "empty corpus", files: Texts(Arc::default()), ..cell("tiny files") };
    let engines = [EngineKind::PhaseLevel, EngineKind::Naive, EngineKind::OperationLevel];
    let built = engines.map(|engine| Cell { engine, ..empty.clone() });
    let asked = [Session, Serve, Wire].map(|path| Cell { path, ..empty.clone() });
    run_cells("empty corpus", built.into_iter().chain(asked));
}

#[test]
fn engine_runs_are_identical_for_any_worker_count() {
    let engines = [EngineKind::PhaseLevel, EngineKind::Naive];
    let runs =
        engines.into_iter().flat_map(|engine| Cell { engine, ..cell("24 files") }.every_task());
    run_cells("engine runs", counts_turned(runs));
}

#[test]
fn ingest_is_identical_for_any_worker_count() {
    let routes = [Route::Chunks(1), Route::Chunks(4), Route::Chunks(8), Route::Appends(3)];
    run_cells("ingest", counts_turned(routes.map(|route| Cell { route, ..cell("dataset A") })));
}

#[test]
fn serve_batches_are_deterministic_across_worker_counts() {
    let served = Cell { path: Serve, ..cell("24 files") };
    run_cells("served batches", counts_turned(served.every_task()));
}

#[test]
fn serve_outputs_match_classic_runs() {
    let paths = [cell("awkward words"), Cell { path: Serve, ..cell("awkward words") }];
    let pooled = Cell {
        path: ServePool,
        backend: Backend::File,
        task: Task::InvertedIndex,
        ..paths[1].clone()
    };
    run_cells("served and run", paths.into_iter().flat_map(Cell::every_task).chain([pooled]));
}

#[test]
fn serve_rejects_sequence_tasks() {
    let sequences = [Task::SequenceCount, Task::RankedInvertedIndex];
    let asked = [Serve, Wire].map(|path| Cell { path, ..cell("24 files") });
    let pooled = Cell { path: ServePool, backend: Backend::Mmap, ..cell("24 files") };
    let refused = asked.into_iter().chain([pooled]).flat_map(|c| c.tasks(&sequences));
    run_cells("sequence tasks served", refused);
}

#[test]
fn serve_requires_pruned_config() {
    let naive = Cell { engine: EngineKind::Naive, ..cell("24 files") };
    let pooled = Cell { path: ServePool, backend: Backend::File, ..naive.clone() };
    let asked = [Serve, Wire].map(|path| Cell { path, ..naive.clone() });
    run_cells("naive served", asked.into_iter().chain([pooled]));
}

#[test]
fn serve_session_reports_are_identical_for_any_worker_count() {
    let served = Cell { path: Serve, ..cell("awkward words") }.every_task();
    let pooled = Cell { path: ServePool, backend: Backend::Mmap, ..cell("awkward words") };
    run_cells("session reports", counts_turned(served.into_iter().chain([pooled])));
}

#[test]
fn served_per_file_queries_are_identical_for_any_worker_count() {
    let shape = Shape { top: Some(5), file: Some("doc-1".into()) };
    let served = Cell { path: Serve, shape, ..cell("24 files") };
    let per_file = served.tasks(&[Task::TermVector, Task::InvertedIndex]);
    let wired = per_file.iter().map(|c| Cell { path: Wire, ..c.clone() });
    run_cells("per-file queries", counts_turned(per_file.clone().into_iter().chain(wired)));
}

#[test]
fn span_trees_and_metrics_are_identical_for_any_worker_count() {
    let tasks = [Task::WordCount, Task::TermVector, Task::SequenceCount];
    let spans = [RunRows, Session].map(|path| Cell { path, ..cell("24 files") });
    run_cells("span trees", counts_turned(spans.into_iter().flat_map(|c| c.tasks(&tasks))));
}
