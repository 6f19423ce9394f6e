//! The differential matrix (`tests/common/matrix.rs`): its fixed sweep, in
//! two halves, and its seeded walk against the decompress-and-count oracle, and the proof
//! that together they reach every value of every axis, every task × path
//! and engine × task pair and every documented refusal.

mod common;

use std::collections::BTreeSet;

use common::matrix::{catalog, Cell};
use common::matrix::{
    each_drawn, run_cells, run_drawn, sweep_edges, sweep_pairs, tasks_for, Backend, Route,
    BACKENDS, ENGINES, LAYOUTS, NGRAMS, PATHS, ROUTES, WORKERS,
};
use ntadoc_repro::Task;

const WALK_CASES: u64 = 48;
const WALK_SEED: u64 = 0x3A7_0001;

#[test]
fn the_sweep_pairs_answer_as_the_oracle_does() {
    run_cells("matrix pairs", sweep_pairs());
}

#[test]
fn the_sweep_edges_answer_as_the_oracle_does() {
    run_cells("matrix edges", sweep_edges());
}

#[test]
fn the_walk_answers_as_the_oracle_does() {
    run_drawn("matrix walk", WALK_SEED, WALK_CASES, |_| true);
}

#[test]
fn the_matrix_reaches_every_axis_value_and_every_task_path_pair() {
    let mut seen = BTreeSet::new();
    let mut reach = |cell: &Cell| {
        if let Some(why) = cell.refusal() {
            seen.insert(format!("refusal: {why}"));
            return;
        }
        let route = match cell.route {
            Route::Appends(_) => Route::Appends(0),
            chunks => chunks,
        };
        for value in [
            format!("corpus: {}", cell.corpus),
            format!("route: {route:?}"),
            format!("engine: {:?}", cell.engine),
            format!("layout: {}", cell.layout.name()),
            format!("backend: {:?}", cell.backend),
            format!("workers: {}", cell.workers),
            format!("task: {}", cell.task),
            format!("ngram: {}", cell.ngram),
            format!("pair: {} × {:?}", cell.task, cell.path),
            format!("pair: {} × {:?}", cell.task, cell.engine),
        ] {
            seen.insert(value);
        }
    };
    sweep_pairs().iter().chain(&sweep_edges()).for_each(&mut reach);
    each_drawn("matrix walk", WALK_SEED, WALK_CASES, |_| true, reach);
    let mut want: BTreeSet<String> =
        catalog().iter().map(|(name, _)| format!("corpus: {name}")).collect();
    want.insert("corpus: generated".into());
    want.extend(ROUTES.iter().map(|r| format!("route: {r:?}")));
    want.extend(ENGINES.iter().map(|e| format!("engine: {e:?}")));
    want.extend(LAYOUTS.iter().map(|l| format!("layout: {}", l.name())));
    want.extend(BACKENDS.iter().map(|b: &Backend| format!("backend: {b:?}")));
    want.extend(WORKERS.iter().map(|w| format!("workers: {w}")));
    want.extend(Task::ALL.iter().map(|t| format!("task: {t}")));
    want.extend(NGRAMS.iter().map(|n| format!("ngram: {n}")));
    for path in PATHS {
        want.extend(tasks_for(path).iter().map(|t| format!("pair: {t} × {path:?}")));
    }
    for engine in ENGINES {
        want.extend(Task::ALL.iter().map(|t| format!("pair: {t} × {engine:?}")));
    }
    for why in [
        "an empty corpus",
        "an n-gram below two",
        "serving a naive engine",
        "serving a sequence task",
        "a pool on a volatile profile",
    ] {
        want.insert(format!("refusal: {why}"));
    }
    let missing: Vec<_> = want.difference(&seen).collect();
    assert!(missing.is_empty(), "the matrix never runs {missing:?}");
}
