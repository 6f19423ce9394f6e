//! Corruption fuzzing: arbitrary bytes thrown at every recovery entry
//! point must produce a clean error (or a clean no-op), never a panic and
//! never an out-of-bounds rollback.
//!
//! These are seeded-PRNG fuzz loops rather than proptest cases so that
//! failures replay exactly; `tests/proptests.rs` carries the
//! shrinking-enabled variants of the same properties.

use std::sync::Arc;

use ntadoc_repro::{
    compress_corpus, deserialize_compressed, serialize_compressed, DeviceProfile, Engine,
    EngineConfig, PmemError, Prng, SimDevice, Task, TokenizerConfig, TxLog,
};

const LOG_AT: u64 = 4096;
const LOG_CAP: usize = 4096;

fn small_corpus() -> ntadoc_grammar::Compressed {
    let files = vec![
        ("a".to_string(), "lorem ipsum dolor sit amet lorem ipsum".repeat(10)),
        ("b".to_string(), "dolor sit amet consectetur".repeat(10)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

/// Fill `[LOG_AT, LOG_AT + LOG_CAP)` with seeded garbage.
fn scribble_log(dev: &SimDevice, rng: &mut Prng) {
    let mut garbage = vec![0u8; LOG_CAP];
    for chunk in garbage.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&word[..n]);
    }
    dev.write_bytes(LOG_AT, &garbage);
}

#[test]
fn garbage_in_the_log_region_never_panics_recovery() {
    for seed in 0..64u64 {
        let mut rng = Prng::new(seed);
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
        scribble_log(&dev, &mut rng);
        let mut log = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        // Recovery over garbage must be a clean verdict: either "nothing
        // to do" / rolled-back, or a typed corruption error.
        match log.recover() {
            Ok(_) => {}
            Err(PmemError::CorruptImage(_)) | Err(PmemError::MediaError { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected error class {e}"),
        }
        // After recovery (whatever the verdict) the log must be usable.
        log.begin().unwrap();
        log.log_range(0, 64).unwrap();
        log.commit().unwrap();
    }
}

#[test]
fn garbage_after_a_real_entry_truncates_not_corrupts() {
    // A valid sealed entry followed by garbage models a crash mid-append:
    // recovery must roll back the valid prefix and stop at the garbage.
    for seed in 0..32u64 {
        let mut rng = Prng::new(seed.wrapping_mul(0x9E37_79B9));
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
        dev.write_u64(128, 0xAAAA_BBBB_CCCC_DDDD);
        dev.persist(128, 8);

        let mut log = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        log.begin().unwrap();
        log.log_range(128, 8).unwrap();
        // Mutate the data the entry covers, then scribble over the tail of
        // the log region (everything past the first entry) and "crash".
        dev.write_u64(128, 0x1111_2222_3333_4444);
        let tail = LOG_AT + 256;
        let mut garbage = vec![0u8; (LOG_AT + LOG_CAP as u64 - tail) as usize];
        for chunk in garbage.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        dev.write_bytes(tail, &garbage);

        let mut log2 = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        let rolled_back = log2.recover().unwrap();
        assert!(rolled_back, "seed {seed}: the valid entry must roll back");
        assert_eq!(dev.read_u64(128), 0xAAAA_BBBB_CCCC_DDDD, "seed {seed}");
    }
}

#[test]
fn mutated_serialized_images_never_panic_deserialization() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();
    assert!(deserialize_compressed(&clean).is_ok());

    for seed in 0..128u64 {
        let mut rng = Prng::new(seed);
        let mut image = clean.clone();
        // Mutate 1..16 random bytes.
        let flips = 1 + rng.next_below(16) as usize;
        for _ in 0..flips {
            let at = rng.next_below(image.len() as u64) as usize;
            image[at] ^= (rng.next_u64() & 0xFF) as u8 | 1;
        }
        // Must return Ok (mutation missed live bytes — impossible here
        // since everything is covered by the checksum, but harmless) or a
        // typed ImageError; the point is: no panic, no abort.
        let _ = deserialize_compressed(&image);
    }
}

#[test]
fn truncated_and_garbage_images_never_panic_deserialization() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();
    for cut in 0..clean.len().min(64) {
        let _ = deserialize_compressed(&clean[..cut]);
    }
    for seed in 0..64u64 {
        let mut rng = Prng::new(!seed);
        let len = rng.next_below(512) as usize;
        let mut garbage = vec![0u8; len];
        for b in garbage.iter_mut() {
            *b = (rng.next_u64() & 0xFF) as u8;
        }
        let _ = deserialize_compressed(&garbage);
    }
}

/// A well-sealed image is not yet a grammar: `R0 → R1 c R1`, `R1 → a b`
/// plus a dead `R2 → R1 d` passes the checksum, and before `validate`
/// rejected unreachable rules every engine counted `{c: 1}` from it — the
/// top-down Kahn walk never drains `R1`, whose in-degree counts the dead
/// reference. The same goes for a sealed cycle or dangling reference.
#[test]
fn sealed_images_of_invalid_grammars_are_rejected_with_a_typed_error() {
    use ntadoc_repro::{Dictionary, Grammar, Symbol};
    let words = || Dictionary::from_words(["a", "b", "c", "d"].map(String::from).to_vec());
    let rule = |symbols: Vec<Symbol>| ntadoc_grammar::Rule { symbols };
    let live = vec![
        rule(vec![Symbol::rule(1), Symbol::word(2), Symbol::rule(1)]),
        rule(vec![Symbol::word(0), Symbol::word(1)]),
    ];
    let seal = |rules: Vec<ntadoc_grammar::Rule>| {
        let comp = ntadoc_grammar::Compressed {
            grammar: Grammar::new(rules),
            dict: words(),
            file_names: vec!["f".to_string()],
        };
        serialize_compressed(&comp).unwrap()
    };
    assert!(deserialize_compressed(&seal(live.clone())).is_ok());

    let mut dead = live.clone();
    dead.push(rule(vec![Symbol::rule(1), Symbol::word(3)]));
    let mut cyclic = live.clone();
    cyclic[1].symbols.push(Symbol::rule(0));
    let mut dangling = live;
    dangling[1].symbols.push(Symbol::rule(9));
    for (what, rules) in [("unreachable", dead), ("cycle", cyclic), ("nonexistent", dangling)] {
        let image = seal(rules);
        let err = deserialize_compressed(&image).unwrap_err();
        assert!(
            matches!(err, ntadoc_grammar::serialize::ImageError::BadGrammar(_))
                && err.to_string().contains(what),
            "{what}: {err}"
        );
        match Engine::builder_from_image(&image) {
            Err(PmemError::CorruptImage(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(e) => panic!("{what}: wrong error class {e}"),
            Ok(_) => panic!("{what}: invalid grammar accepted"),
        }
    }
}

#[test]
fn engine_rejects_corrupt_images_with_a_typed_error() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();

    // The pristine image round-trips into a working engine.
    let mut engine = Engine::builder_from_image(&clean)
        .and_then(|b| b.config(EngineConfig::ntadoc()).build())
        .unwrap();
    let mut ref_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    assert_eq!(engine.run(Task::WordCount).unwrap(), ref_engine.run(Task::WordCount).unwrap());

    // Any payload bit flip must be caught by the checksum before the
    // engine touches the contents.
    let mut rng = Prng::new(2024);
    for _ in 0..32 {
        let mut image = clean.clone();
        let at = 24 + rng.next_below((image.len() - 24) as u64) as usize;
        image[at] ^= 0x40;
        match Engine::builder_from_image(&image)
            .and_then(|b| b.config(EngineConfig::ntadoc()).build())
        {
            Err(PmemError::CorruptImage(_)) => {}
            Err(e) => panic!("flip at {at}: wrong error class {e}"),
            Ok(_) => panic!("flip at {at}: corrupt image accepted"),
        }
    }
}
