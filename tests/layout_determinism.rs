//! The pool-layout contract: the id encoding changes *where bytes live
//! and what they cost* — never what a task computes. Both layouts must
//! produce byte-identical task outputs at any worker count, with a virtual
//! clock that is a pure function of (corpus, task, layout). Persisted
//! pools carry their layout in the sealed header: reopening adopts the
//! on-media layout regardless of the engine's configured one, and an
//! unknown or retired layout id refuses to open instead of misdecoding.

mod common;

use std::path::PathBuf;

use common::{check_corpora, CorpusShape};
use ntadoc_pmem::par;
use ntadoc_repro::{
    compress_corpus, crc64, Compressed, DeviceProfile, Engine, FileDevice, PoolLayout,
    PoolLayoutConfig, Task, TaskOutput, TokenizerConfig,
};

/// The layouts that survived the ablation (EXPERIMENTS.md).
const LAYOUT_NAMES: [&str; 2] = ["fixed", "varint"];

fn layouts() -> Vec<PoolLayoutConfig> {
    LAYOUT_NAMES
        .iter()
        .map(|n| PoolLayoutConfig::parse(n).unwrap_or_else(|| panic!("layout name {n}")))
        .collect()
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

/// Run `task` under `layout` with `threads` workers: output + virtual_ns.
fn run_with(
    comp: &Compressed,
    layout: PoolLayoutConfig,
    task: Task,
    threads: usize,
) -> (TaskOutput, u64) {
    par::with_threads(threads, || {
        let mut e = engine_with(comp, layout);
        let out = e.run(task).unwrap();
        (out, e.last_report.as_ref().unwrap().total_ns())
    })
}

#[test]
fn every_layout_is_deterministic_and_output_identical() {
    let comp = corpus();
    for task in Task::ALL {
        let mut reference: Option<TaskOutput> = None;
        for layout in layouts() {
            let (base_out, base_ns) = run_with(&comp, layout, task, 1);
            // Worker count must not change the output or the virtual clock
            // under any layout.
            for threads in [4, 8] {
                let (out, ns) = run_with(&comp, layout, task, threads);
                assert_eq!(
                    out,
                    base_out,
                    "{task} output diverged at {threads} threads under {}",
                    layout.name()
                );
                assert_eq!(
                    ns,
                    base_ns,
                    "{task} virtual time diverged at {threads} threads under {}",
                    layout.name()
                );
            }
            // Layout must not change the output either (only the cost).
            match &reference {
                None => reference = Some(base_out),
                Some(r) => assert_eq!(
                    &base_out,
                    r,
                    "{task} output under layout {} diverged from the fixed layout",
                    layout.name()
                ),
            }
        }
    }
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
/// by `tests/init_one_pass.rs` and `tests/claims.rs`).
const PINNED: [(&str, Task, u64, u64, u64); 4] = [
    ("fixed", Task::WordCount, 2108200, 12, 0x58431877db5a9bf3),
    ("fixed", Task::SequenceCount, 2112447, 16, 0x20432ea480f0400c),
    ("varint", Task::WordCount, 2108245, 11, 0xad3b7e7ae57a7a74),
    ("varint", Task::SequenceCount, 2111451, 13, 0xed91c55918126ee1),
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

/// Arbitrary corpora: 1-2 files of small-alphabet words (the shape that
/// makes grammars share rules and the pruned views non-trivial).
const CORPORA: CorpusShape = CorpusShape { files: 1..3, alphabet: 15, words: 1..120 };

/// Property form of the contract: for arbitrary corpora, the varint
/// layout agrees with the fixed layout on every servable task shape,
/// and parallelism does not perturb either.
#[test]
fn arbitrary_corpora_are_layout_invariant() {
    check_corpora(
        "arbitrary_corpora_are_layout_invariant",
        0x1A70_0707,
        12,
        CORPORA,
        |_| (),
        |files, ()| {
            let comp = compress_corpus(files, &TokenizerConfig::default());
            if comp.grammar.rule_count() == 0 {
                return;
            }
            for task in [Task::WordCount, Task::InvertedIndex, Task::SequenceCount] {
                let (base_out, _) = run_with(&comp, PoolLayoutConfig::Fixed, task, 1);
                for layout in layouts() {
                    let (out, ns1) = run_with(&comp, layout, task, 1);
                    assert_eq!(&out, &base_out, "{} output diverged under {}", task, layout.name());
                    let (out4, ns4) = run_with(&comp, layout, task, 4);
                    assert_eq!(&out4, &base_out);
                    assert_eq!(ns1, ns4, "{} virtual time diverged under {}", task, layout.name());
                }
            }
        },
    );
}
