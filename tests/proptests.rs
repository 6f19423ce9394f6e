//! Property tests over the whole stack, as seeded loops: compression
//! round-trips, coarsening invariance, summation soundness,
//! engine-vs-oracle count equivalence, and the NVM hash table against a
//! model. A failure names its case and prints its input
//! (`ntadoc_pmem::for_each_case`); the corpus-taking properties also run
//! the two inputs saved from the proptest years (`common::SAVED_INPUTS`).

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::matrix::{run_drawn, Cell};
use common::{check_corpora, vec_of, CorpusShape};
use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::{DeviceProfile, PmemPool, SimDevice};
use ntadoc_repro::{
    compress_corpus, for_each_case, CrashPoint, Engine, EngineConfig, Grammar, Prng, Symbol, Task,
    TokenizerConfig,
};

/// Cases per property; the two file-backed ones at the end run [`FILE_CASES`].
const CASES: u64 = 64;

/// Arbitrary small-alphabet token streams compress interestingly.
fn token_stream(rng: &mut Prng) -> Vec<u32> {
    vec_of(rng, 0..400, |rng| rng.next_below(12) as u32)
}

/// Arbitrary corpora: 1-3 files of up to 119 small-alphabet words.
const CORPORA: CorpusShape = CorpusShape { files: 1..4, alphabet: 15, words: 0..120 };

#[test]
fn sequitur_round_trips() {
    for_each_case("sequitur_round_trips", 0x92070101, CASES, token_stream, |words| {
        let mut seq = ntadoc_grammar::Sequitur::new();
        for &w in words {
            seq.push(Symbol::word(w));
        }
        let grammar = seq.into_grammar();
        let expanded: Vec<u32> = grammar.expand_symbols().iter().map(|x| x.payload()).collect();
        assert_eq!(&expanded, words);
        grammar.validate().unwrap();
    });
}

#[test]
fn coarsening_preserves_expansion() {
    for_each_case(
        "coarsening_preserves_expansion",
        0x92070202,
        CASES,
        |rng| (token_stream(rng), rng.next_below(40)),
        |&(ref words, min_exp)| {
            let mut seq = ntadoc_grammar::Sequitur::new();
            for &w in words {
                seq.push(Symbol::word(w));
            }
            let g = seq.into_grammar();
            let c = g.coarsened(min_exp);
            assert_eq!(c.expand_symbols(), g.expand_symbols());
            c.validate().unwrap();
        },
    );
}

/// `Grammar::validate` rejects rules unreachable from `R0` (a dead
/// rule's references would stall the top-down Kahn walk), so no
/// in-tree producer may emit one: serial Sequitur, coarsening, the
/// chunk merge with and without seam dedup, and the append splice.
#[test]
fn in_tree_producers_emit_only_reachable_rules() {
    check_corpora(
        "in_tree_producers_emit_only_reachable_rules",
        0x92070303,
        CASES,
        CORPORA,
        |rng| (rng.next_below(40), rng.next_below(4) as usize),
        |files, &(min_exp, split)| {
            let cfg = TokenizerConfig::default();
            let serial = compress_corpus(files, &cfg);
            serial.grammar.validate().unwrap();
            serial.grammar.coarsened(min_exp).validate().unwrap();
            let counts: Vec<usize> = files
                .iter()
                .map(|(_, text)| ntadoc_grammar::Tokens::new(text, &cfg).count())
                .collect();
            for chunks in [2usize, 3, 8] {
                let built: Vec<_> = ntadoc_repro::plan_chunks(&counts, chunks)
                    .iter()
                    .map(|pieces| ntadoc_grammar::build_chunk_of_files(files, &cfg, pieces, 0))
                    .collect();
                for seam_dedup in [true, false] {
                    let opts = ntadoc_repro::MergeOptions { seam_dedup };
                    let (merged, _) = ntadoc_repro::merge_chunks(&built, &opts);
                    merged.validate().unwrap();
                    merged.coarsened(min_exp).validate().unwrap();
                }
            }
            let at = 1 + split % files.len();
            if at < files.len() {
                for chunks in [1usize, 3] {
                    let opts = ntadoc_repro::IngestOptions { chunks };
                    let (base, _) = ntadoc_repro::ingest_corpus(&files[..at], &opts);
                    let step = ntadoc_repro::ingest_append(&base, &files[at..]).unwrap();
                    step.comp.grammar.validate().unwrap();
                }
            }
        },
    );
}

#[test]
fn summation_bounds_are_sound() {
    for_each_case("summation_bounds_are_sound", 0x92070404, CASES, token_stream, |words| {
        let mut seq = ntadoc_grammar::Sequitur::new();
        for &w in words {
            seq.push(Symbol::word(w));
        }
        let g = seq.into_grammar().coarsened(4);
        let bounds = ntadoc::summation::upper_bounds(&g).bounds;
        // Actual distinct words per rule expansion must never exceed the
        // bound.
        fn expand(g: &Grammar, r: u32, out: &mut Vec<u32>) {
            for s in &g.rules[r as usize].symbols {
                if s.is_word() {
                    out.push(s.payload());
                } else if s.is_rule() {
                    expand(g, s.payload(), out);
                }
            }
        }
        for r in 0..g.rule_count() as u32 {
            let mut toks = Vec::new();
            expand(&g, r, &mut toks);
            toks.sort_unstable();
            toks.dedup();
            assert!(
                bounds[r as usize] >= toks.len() as u64,
                "rule {} bound {} < {}",
                r,
                bounds[r as usize],
                toks.len()
            );
        }
    });
}

#[test]
fn word_count_matches_oracle_on_arbitrary_corpora() {
    let word_count = |c: &Cell| c.corpus == "generated" && c.task == Task::WordCount;
    run_drawn("word count on arbitrary corpora", 0xC0_0001, 16, word_count);
}

#[test]
fn sequence_count_matches_oracle() {
    let sequences = |c: &Cell| c.corpus == "generated" && c.task.is_sequence();
    run_drawn("sequences on arbitrary corpora", 0xC0_0002, 16, sequences);
}

#[test]
fn random_access_matches_expansion() {
    check_corpora(
        "random_access_matches_expansion",
        0x92070707,
        CASES,
        CORPORA,
        |rng| {
            vec_of(rng, 1..12, |rng| {
                (rng.next_below(4) as usize, rng.next_below(200), rng.next_below(60) as usize)
            })
        },
        |files, queries| {
            let comp = compress_corpus(files, &TokenizerConfig::default());
            let expanded = comp.grammar.expand_files();
            let accessor =
                ntadoc::Accessor::new(&comp, ntadoc_repro::DeviceProfile::nvm_optane()).unwrap();
            for &(fid, offset, len) in queries {
                let fid = fid % expanded.len();
                let got = accessor.extract_ids(fid, offset, len);
                let f = &expanded[fid];
                let from = (offset as usize).min(f.len());
                let to = (from + len).min(f.len());
                assert_eq!(&got, &f[from..to], "file {} @ {}+{}", fid, offset, len);
            }
        },
    );
}

#[test]
fn pvec_behaves_like_a_vec() {
    for_each_case(
        "pvec_behaves_like_a_vec",
        0x92070808,
        CASES,
        |rng| vec_of(rng, 0..200, |rng| (rng.next_below(3) as u8, rng.next_below(1000))),
        |ops| {
            use ntadoc_nstruct::PVec;
            let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 22));
            let pool = Arc::new(PmemPool::over_whole(dev));
            let v: PVec<u64> = PVec::with_capacity(pool, 2).unwrap();
            let mut model: Vec<u64> = Vec::new();
            for &(op, x) in ops {
                match op {
                    0 => {
                        v.push(x).unwrap();
                        model.push(x);
                    }
                    1 if !model.is_empty() => {
                        let i = (x as usize) % model.len();
                        v.set(i, x + 1);
                        model[i] = x + 1;
                    }
                    _ if !model.is_empty() => {
                        let i = (x as usize) % model.len();
                        assert_eq!(v.get(i), model[i]);
                    }
                    _ => {}
                }
            }
            assert_eq!(v.to_vec(), model);
        },
    );
}

#[test]
fn phash_behaves_like_a_map() {
    for_each_case(
        "phash_behaves_like_a_map",
        0x92070909,
        CASES,
        |rng| vec_of(rng, 0..300, |rng| (rng.next_below(64), rng.range(1, 99))),
        |ops| {
            let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 22));
            let pool = Arc::new(PmemPool::over_whole(dev));
            let table = PHashTable::with_expected(pool, 4, false).unwrap();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for &(k, v) in ops {
                table.add(k, v).unwrap();
                *model.entry(k).or_insert(0) += v;
            }
            for (k, v) in &model {
                assert_eq!(table.get(*k), Some(*v));
            }
            assert_eq!(table.len(), model.len());
            let mut entries = table.entries();
            entries.sort_unstable();
            let mut expect: Vec<(u64, u64)> = model.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(entries, expect);
        },
    );
}

#[test]
fn device_survives_arbitrary_write_patterns() {
    for_each_case(
        "device_survives_arbitrary_write_patterns",
        0x92070A0A,
        CASES,
        |rng| vec_of(rng, 0..200, |rng| (rng.next_below(4000), rng.next_below(255) as u8)),
        |writes| {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 4096);
            let mut model = vec![0u8; 4096];
            for &(addr, byte) in writes {
                dev.write_bytes(addr, &[byte]);
                model[addr as usize] = byte;
            }
            let mut out = vec![0u8; 4096];
            dev.read_bytes(0, &mut out);
            assert_eq!(out, model);
        },
    );
}

#[test]
fn arbitrary_log_region_bytes_never_panic_recovery() {
    for_each_case(
        "arbitrary_log_region_bytes_never_panic_recovery",
        0x92070B0B,
        CASES,
        |rng| (vec_of(rng, 0..512, |rng| rng.next_below(255) as u8), rng.next_below(3500)),
        |&(ref garbage, at)| {
            use ntadoc_pmem::TxLog;
            let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
            let log_at = 4096u64;
            dev.write_bytes(log_at + at, garbage);
            let mut log = TxLog::new(dev.clone(), log_at, 4096);
            // Any verdict is fine; panicking or corrupting unrelated memory
            // is not. A post-recovery transaction must also work.
            let _ = log.recover();
            log.begin().unwrap();
            log.log_range(0, 32).unwrap();
            log.commit().unwrap();
        },
    );
}

#[test]
fn arbitrary_image_bytes_never_panic_deserialization() {
    for_each_case(
        "arbitrary_image_bytes_never_panic_deserialization",
        0x92070C0C,
        CASES,
        |rng| vec_of(rng, 0..600, |rng| rng.next_below(255) as u8),
        |garbage| {
            let _ = ntadoc_repro::deserialize_compressed(garbage);
        },
    );
}

#[test]
fn mutated_real_images_are_rejected_or_identical() {
    check_corpora(
        "mutated_real_images_are_rejected_or_identical",
        0x92070D0D,
        CASES,
        CORPORA,
        |rng| (rng.next_below(10000) as usize, rng.next_below(8) as u8),
        |files, &(flip_at, flip_bit)| {
            let comp = compress_corpus(files, &TokenizerConfig::default());
            let mut image = ntadoc_repro::serialize_compressed(&comp).unwrap();
            let at = flip_at % image.len();
            image[at] ^= 1 << flip_bit;
            // Every single-bit flip lands inside the checksummed envelope, so
            // deserialization must reject it — never panic, never return a
            // silently different grammar.
            assert!(
                ntadoc_repro::deserialize_compressed(&image).is_err(),
                "bit {} of byte {} flipped undetected",
                flip_bit,
                at
            );
        },
    );
}

#[test]
fn torn_crash_always_preserves_fenced_data() {
    for_each_case(
        "torn_crash_always_preserves_fenced_data",
        0x92070E0E,
        CASES,
        |rng| (vec_of(rng, 1..40, |rng| rng.range(1, 999)), rng.next_below(10000)),
        |&(ref vals, seed)| {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16);
            for (i, v) in vals.iter().enumerate() {
                dev.write_u64(i as u64 * 8, *v);
            }
            dev.persist(0, vals.len() * 8);
            // More unfenced writes after the persist…
            for i in 0..vals.len() {
                dev.write_u64((100 + i as u64) * 8, 7);
                dev.flush((100 + i as u64) * 8, 8);
                // …flushed but NOT fenced: each independently survives or not.
            }
            dev.crash_torn(seed);
            // Whatever the seed did to the unfenced lines, fenced data is intact.
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(dev.read_u64(i as u64 * 8), *v, "fenced index {}", i);
            }
            for i in 0..vals.len() {
                let got = dev.read_u64((100 + i as u64) * 8);
                assert!(got == 7 || got == 0, "torn line must be old or new, got {}", got);
            }
        },
    );
}

#[test]
fn crash_preserves_exactly_the_persisted_prefix() {
    for_each_case(
        "crash_preserves_exactly_the_persisted_prefix",
        0x92070F0F,
        CASES,
        |rng| (vec_of(rng, 1..50, |rng| rng.next_below(1000)), rng.next_below(50) as usize),
        |&(ref vals, persist_upto)| {
            let dev = SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16);
            let cut = persist_upto.min(vals.len());
            for (i, v) in vals.iter().enumerate() {
                dev.write_u64(i as u64 * 8, *v);
                if i + 1 == cut {
                    dev.persist(0, cut * 8);
                }
            }
            dev.crash();
            for (i, v) in vals.iter().enumerate() {
                let read = dev.read_u64(i as u64 * 8);
                if i < cut {
                    // Persisted prefix must survive...
                    assert_eq!(read, *v, "persisted index {}", i);
                } else {
                    // ...anything after the persist point may or may not have
                    // survived only if it shares a media line with persisted
                    // data; standalone lines must be zero.
                    let line = (i * 8) / 256;
                    if cut == 0 || line > (cut * 8 - 1) / 256 {
                        assert_eq!(read, 0, "unpersisted index {}", i);
                    }
                }
            }
        },
    );
}

/// File-backed pools are more expensive per case (each creates, tears, and
/// reopens a real file), so the last two properties run fewer cases.
const FILE_CASES: u64 = 12;
#[test]
fn txlog_recovery_round_trips_identically_on_both_backends() {
    for_each_case(
        "txlog_recovery_round_trips_identically_on_both_backends",
        0x92071010,
        FILE_CASES,
        |rng| {
            (
                vec_of(rng, 1..24, |rng| (rng.next_below(64), rng.range(1, 999))),
                rng.next_below(24) as usize,
                rng.next_below(10000),
            )
        },
        |&(ref writes, crash_after, seed)| {
            use ntadoc_repro::{FileDevice, PmemBackend, PoolDevice, PoolLayout, TxLog};
            let layout = PoolLayout {
                capacity: 1 << 16,
                main_len: (1 << 16) - 8192,
                scratch_len: 4096,
                log_len: 4096,
            };
            let path =
                std::env::temp_dir().join(format!("ntadoc-prop-txlog-{}.ntdp", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let sim_dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
            let sim: Arc<dyn PmemBackend> = sim_dev.clone();
            let file_dev = FileDevice::create(&path, DeviceProfile::nvm_optane(), layout).unwrap();
            let file: Arc<dyn PmemBackend> = file_dev.clone();
            let mut sim_log = TxLog::new(sim.clone(), layout.log_base(), layout.log_len as usize);
            let mut file_log = TxLog::new(file.clone(), layout.log_base(), layout.log_len as usize);

            // Identical transactional trace on both backends; the tx at
            // `crash_at` is torn open instead of committed.
            let crash_at = crash_after % writes.len();
            for (i, (slot, val)) in writes.iter().enumerate() {
                let addr = (slot % 64) * 8;
                for (log, dev) in [(&mut sim_log, &sim), (&mut file_log, &file)] {
                    log.begin().unwrap();
                    log.log_range(addr, 8).unwrap();
                    dev.write_u64(addr, *val);
                    if i != crash_at {
                        log.commit().unwrap();
                    }
                }
                if i == crash_at {
                    break;
                }
            }
            sim_dev.crash_torn(seed);
            file_dev.twin().crash_torn(seed);
            // The torn on-disk bytes must match the file's twin exactly…
            file_dev.verify_file_matches_device().unwrap();
            // …and both backends must have torn identically.
            assert_eq!(
                sim_dev.peek(0, 1 << 16),
                file_dev.twin().peek(0, 1 << 16),
                "post-crash pools diverge (torn seed {})",
                seed
            );

            // Recovery rolls the open transaction back the same way on both.
            sim_log.recover().unwrap();
            file_log.recover().unwrap();
            assert_eq!(
                sim_dev.peek(0, 1 << 16),
                file_dev.twin().peek(0, 1 << 16),
                "post-recovery pools diverge (torn seed {})",
                seed
            );
            assert_eq!(sim.stats().virtual_ns, file.stats().virtual_ns);

            // Reopening from nothing but the file reaches the same state, and
            // a second recovery pass is a no-op (recovery is idempotent).
            drop(file_log);
            drop(file);
            drop(file_dev);
            let reopened = FileDevice::open(&path, DeviceProfile::nvm_optane()).unwrap();
            let backend: Arc<dyn PmemBackend> = reopened.clone();
            let mut log = TxLog::new(backend, layout.log_base(), layout.log_len as usize);
            log.recover().unwrap();
            assert_eq!(
                sim_dev.peek(0, 1 << 16),
                reopened.twin().peek(0, 1 << 16),
                "reopened pool diverges from the sim (torn seed {})",
                seed
            );
            let _ = std::fs::remove_file(&path);
        },
    );
}

#[test]
fn file_pools_round_trip_and_recover_on_arbitrary_corpora() {
    check_corpora(
        "file_pools_round_trip_and_recover_on_arbitrary_corpora",
        0x92071111,
        FILE_CASES,
        CORPORA,
        |rng| (rng.next_below(200), rng.next_below(10000)),
        |files, &(point, seed)| {
            let comp = compress_corpus(files, &TokenizerConfig::default());
            if comp.grammar.stats().expanded_words == 0 {
                return;
            }
            let path =
                std::env::temp_dir().join(format!("ntadoc-prop-pool-{}.ntdp", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let cfg = EngineConfig::ntadoc_oplevel();
            let mut clean_engine =
                Engine::builder(comp.clone()).config(cfg.clone()).build().unwrap();
            let clean = clean_engine.run_rows(Task::WordCount).unwrap();
            let engine = Engine::builder(comp.clone()).config(cfg.clone()).build().unwrap();

            // Create + run + clean shutdown.
            let mut session = engine.open_pool(&path, Task::WordCount).unwrap();
            assert_eq!(session.traverse_rows().unwrap(), clean);
            drop(session);

            // Reopen after clean shutdown: the checksummed header validates
            // and the deterministic re-init converges.
            let mut session = engine.open_pool(&path, Task::WordCount).unwrap();
            assert_eq!(session.traverse_rows().unwrap(), clean);

            // Tear an arbitrary persist point (if the workload reaches it)
            // and recover from nothing but the on-disk bytes.
            let crashed = session.crash_at(CrashPoint::Persist(point), seed);
            match crashed.unwrap_or_else(|e| panic!("torn seed {seed}: {e}")) {
                Some(rows) => assert_eq!(rows, clean, "torn seed {seed}: completed run differs"),
                None => {
                    drop(session);
                    let mut session = engine.open_pool(&path, Task::WordCount).unwrap();
                    assert_eq!(session.traverse_rows().unwrap(), clean);
                }
            }
            let _ = std::fs::remove_file(&path);
        },
    );
}
