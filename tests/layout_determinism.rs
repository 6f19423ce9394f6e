//! The pool-layout contract: the id encoding changes *where bytes live
//! and what they cost* — never what a task computes. That both layouts
//! answer alike at any worker count is a matrix axis
//! (`tests/common/matrix.rs`); what stays here is the lifecycle. Persisted
//! pools carry their layout in the sealed header: reopening adopts the
//! on-media layout regardless of the engine's configured one, and an
//! unknown or retired layout id refuses to open instead of misdecoding.

mod common;

use common::matrix::Path::Session;
use common::matrix::{cell, run_cells, run_drawn, Backend, Cell, LAYOUTS};

use std::path::PathBuf;

use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, crc64, Compressed, DeviceProfile, Engine, FileDevice, PoolLayout,
    PoolLayoutConfig, Task, TokenizerConfig,
};

#[test]
fn every_layout_is_deterministic_and_output_identical() {
    // Every task in memory under each layout; a session over a pool
    // created under each layout and reopened under the other.
    let laid = LAYOUTS.map(|layout| Cell { layout, ..cell("awkward words") });
    let pooled = laid.clone().map(|c| Cell { path: Session, backend: Backend::File, ..c });
    run_cells("layouts", laid.into_iter().flat_map(Cell::every_task).chain(pooled));
}

#[test]
fn arbitrary_corpora_are_layout_invariant() {
    let varint = |c: &Cell| {
        c.corpus == "generated"
            && c.layout == PoolLayoutConfig::Varint
            && c.backend == Backend::Memory
    };
    run_drawn("arbitrary corpora, varint", 0x1A70_0001, 12, varint);
}

fn corpus() -> Compressed {
    let files = vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog the end".repeat(30)),
        ("b".to_string(), "pack my box with five dozen liquor jugs the fox".repeat(30)),
        ("c".to_string(), "sphinx of black quartz judge my vow the quick judge".repeat(30)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

fn engine_with(comp: &Compressed, layout: PoolLayoutConfig) -> Engine {
    Engine::builder(comp.clone())
        .config(ntadoc_repro::EngineConfig::ntadoc())
        .pool_layout(layout)
        .build()
        .unwrap()
}

fn tmp_pool(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ntadoc-layoutdet-{}-{name}.ntdp", std::process::id()))
}

#[test]
fn reopen_adopts_the_header_sealed_layout() {
    let comp = corpus();
    let varint = PoolLayoutConfig::Varint;
    let legacy = PoolLayoutConfig::Fixed;

    // Create a pool under the varint layout and record its answers.
    let pool = tmp_pool("adopt");
    let _ = std::fs::remove_file(&pool);
    let eng = engine_with(&comp, varint);
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    let out = session.traverse().unwrap();
    let varint_ns = session.sim_device().stats().virtual_ns;
    assert_eq!(session.pool_file().unwrap().header().dag_layout, varint.id());
    drop(session);
    drop(eng);

    // An engine *configured* for the legacy layout reopens the file: the
    // sealed header wins, so the run replays the varint layout exactly —
    // same output, same virtual cost, same header id.
    let eng = engine_with(&comp, legacy);
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    assert_eq!(session.traverse().unwrap(), out, "adopted layout diverged");
    assert_eq!(
        session.sim_device().stats().virtual_ns,
        varint_ns,
        "reopen under a different configured layout must replay the sealed layout's cost"
    );
    assert_eq!(
        session.pool_file().unwrap().header().dag_layout,
        varint.id(),
        "reopen must not reseal the pool with the engine's configured layout"
    );
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn legacy_pools_reopen_as_fixed_layout() {
    // Pools written before the layout header existed carry dag_layout 0,
    // which must decode as the legacy fixed-u32 layout.
    assert_eq!(PoolLayoutConfig::from_id(0).unwrap(), PoolLayoutConfig::Fixed);

    let comp = corpus();
    let pool = tmp_pool("legacy");
    let _ = std::fs::remove_file(&pool);
    let eng = engine_with(&comp, PoolLayoutConfig::Fixed);
    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    let out = session.traverse().unwrap();
    assert_eq!(session.pool_file().unwrap().header().dag_layout, 0);
    drop(session);

    let mut session = eng.open_pool(&pool, Task::WordCount).unwrap();
    assert_eq!(session.traverse().unwrap(), out);
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn unknown_layout_ids_refuse_to_open() {
    // A pool sealed by some future binary with a layout this build does
    // not know must refuse loudly — decoding id streams with the wrong
    // decoder would silently produce a different DAG. So must a pool
    // sealed under a retired layout: 0b1110 was `packed` (split encoding
    // + 16-byte padding + placement).
    let eng = engine_with(&corpus(), PoolLayoutConfig::Fixed);
    for (name, id, wants) in [
        ("unknown", 0xFFFF, &["layout bits 0xffff"][..]),
        ("retired", 0b1110, &["retired layout", "0xe", "rebuild the pool"][..]),
    ] {
        let pool = tmp_pool(name);
        let _ = std::fs::remove_file(&pool);
        let cap: u64 = 1 << 20;
        let layout = PoolLayout {
            capacity: cap,
            main_len: cap - 2 * (64 << 10),
            scratch_len: 64 << 10,
            log_len: 64 << 10,
        };
        let dev =
            FileDevice::create_with_dag_layout(&pool, DeviceProfile::nvm_optane(), layout, id)
                .unwrap();
        drop(dev);

        match eng.open_pool(&pool, Task::WordCount) {
            Err(e) => {
                let msg = e.to_string();
                for want in wants {
                    assert!(msg.contains(want), "refusal of id {id:#x} must say `{want}`: {msg}");
                }
            }
            Ok(_) => panic!("a pool with layout id {id:#x} must not open"),
        }
        let _ = std::fs::remove_file(&pool);
    }
}

/// What each surviving layout cost and wrote at the commit before the
/// split encoding, 16-byte padding and the placement pass were retired:
/// `(layout, task,
/// virtual_ns, line_misses, crc64 of the pool file)` for a fresh
/// `open_pool` + traversal on [`corpus`], at any worker count. Retiring
/// the other layouts must not move the survivors (`fixed` is also pinned
/// by `tests/init_one_pass.rs` and `tests/claims.rs`). The sequence-count
/// rows' time fell by 456 ns since, when the shaper began to read each
/// distinct word once; their misses and pool bytes did not move.
const PINNED: [(&str, Task, u64, u64, u64); 4] = [
    ("fixed", Task::WordCount, 2108200, 12, 0x58431877db5a9bf3),
    ("fixed", Task::SequenceCount, 2111991, 16, 0x20432ea480f0400c),
    ("varint", Task::WordCount, 2108245, 11, 0xad3b7e7ae57a7a74),
    ("varint", Task::SequenceCount, 2110995, 13, 0xed91c55918126ee1),
];

#[test]
fn surviving_layouts_cost_and_write_what_they_did_before_the_cull() {
    let comp = corpus();
    for (name, task, ns, misses, crc) in PINNED {
        let layout = PoolLayoutConfig::parse(name).unwrap();
        let pool = tmp_pool(&format!("pin-{name}-{}", task.name().replace(' ', "")));
        for threads in [1, 4, 8] {
            let _ = std::fs::remove_file(&pool);
            let stats = par::with_threads(threads, || {
                let eng = engine_with(&comp, layout);
                let mut session = eng.open_pool(&pool, task).unwrap();
                session.traverse().unwrap();
                assert_eq!(session.pool_file().unwrap().header().dag_layout, layout.id());
                session.sim_device().stats()
            });
            let file = std::fs::read(&pool).unwrap();
            let _ = std::fs::remove_file(&pool);
            assert_eq!(
                (stats.virtual_ns, stats.line_misses, crc64(&file)),
                (ns, misses, crc),
                "{name} {task} moved at {threads} threads"
            );
        }
    }
}
