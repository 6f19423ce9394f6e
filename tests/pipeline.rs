//! Generated datasets through every build route, engine and device, each
//! test the cells of its subject in the differential matrix
//! (`tests/common/matrix.rs`). The paper-direction checks that lived here
//! are in `tests/claims.rs`.

mod common;

use common::matrix::{cell, counts_turned, round_trip, run_cells, Cell, EngineKind, ENGINES};
use ntadoc_repro::{generate_compressed, DatasetSpec, Task};

#[test]
fn all_engines_agree_on_dataset_a() {
    // Each engine on one task, the tasks turned as the engines go.
    let engines = ENGINES.iter().enumerate();
    let cells =
        engines.map(|(i, &engine)| Cell { engine, task: Task::ALL[i % 6], ..cell("dataset A") });
    run_cells("dataset A", counts_turned(cells));
}

#[test]
fn generated_corpora_survive_serialization() {
    // Every cell round-trips its image; here, each preset at scale 0.02,
    // D's full 1.28 M tokens among them.
    for spec in DatasetSpec::all() {
        round_trip(&generate_compressed(&spec.scaled(0.02)));
    }
}

#[test]
fn many_files_dataset_b_agrees_across_strategies() {
    let strategies = [EngineKind::TopDown, EngineKind::BottomUp];
    let tasks = [Task::TermVector, Task::InvertedIndex, Task::RankedInvertedIndex];
    let cells = strategies.map(|engine| Cell { engine, ..cell("dataset B") });
    run_cells("dataset B", counts_turned(cells.into_iter().flat_map(|c| c.tasks(&tasks))));
}
