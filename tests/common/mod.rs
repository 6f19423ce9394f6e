//! What the suites share: the one generator of small corpora, the two
//! inputs proptest had shrunk and saved while these suites still ran under
//! it, and the build-by-appends route. Every corpus-taking property goes
//! through [`check_corpora`], so each sees both saved inputs before its
//! seeded cases.

// Each suite uses its own part of this module.
#![allow(dead_code)]

use std::fmt::Debug;
use std::ops::Range;

use ntadoc_repro::{for_each_case, Engine, EngineBuilder, EngineConfig, Prng};

/// `(file name, text)` pairs, as `compress_corpus` takes them.
pub type Files = Vec<(String, String)>;

/// `len` items (an exclusive range, as the suites have always written
/// theirs), each drawn by `item`.
pub fn vec_of<T>(
    rng: &mut Prng,
    len: Range<usize>,
    mut item: impl FnMut(&mut Prng) -> T,
) -> Vec<T> {
    let n = rng.range(len.start as u64, len.end as u64 - 1);
    (0..n).map(|_| item(rng)).collect()
}

/// The shape of a suite's corpora: `files` files `f0`, `f1`, … of `words`
/// words each from `w0..w{alphabet}` — few enough distinct words that
/// phrases repeat within and across files and grammars share rules.
#[derive(Debug, Clone)]
pub struct CorpusShape {
    pub files: Range<usize>,
    pub alphabet: u64,
    pub words: Range<usize>,
}

/// One corpus of `shape`.
pub fn corpus(rng: &mut Prng, shape: &CorpusShape) -> Files {
    let texts = vec_of(rng, shape.files.clone(), |rng| {
        let words =
            vec_of(rng, shape.words.clone(), |rng| format!("w{}", rng.next_below(shape.alphabet)));
        words.join(" ")
    });
    named(texts)
}

fn named(texts: impl IntoIterator<Item = impl Into<String>>) -> Files {
    texts.into_iter().enumerate().map(|(i, text)| (format!("f{i}"), text.into())).collect()
}

/// Build by live appends: the first `plan[0]` files as the base corpus,
/// each later group of `plan` through `Engine::append_files`.
pub fn build_by_appends(files: &[(String, String)], plan: &[usize]) -> Engine {
    let (base, mut rest) = files.split_at(plan[0]);
    let mut engine =
        EngineBuilder::from_files(base.to_vec()).config(EngineConfig::ntadoc()).build().unwrap();
    for &n in &plan[1..] {
        let (group, tail) = rest.split_at(n);
        engine.append_files(group.to_vec()).unwrap();
        rest = tail;
    }
    engine
}

/// The inputs `tests/proptests.proptest-regressions` held (which property
/// each had failed was not recorded, so every one runs both): one file
/// whose only repeats are `w5 w10` and a late third `w10`, and two files
/// that share `w6 w1` at their start and `w1 w1 w9` across the seam.
pub const SAVED_INPUTS: [(&str, &[&str]); 2] = [
    ("one_file_repeating_w5_w10", &["w8 w5 w10 w5 w10 w6 w13 w3 w2 w12 w4 w1 w10 w9 w0 w11 w7"]),
    ("two_files_sharing_w1_w1_w9", &["w6 w1 w1 w1 w9 w0", "w6 w1 w2 w1 w1 w9"]),
];

/// A property over a corpus and whatever else `rest` draws after it:
/// `check` runs on each of [`SAVED_INPUTS`] (named in the failure
/// message, `rest` drawn from `seed`), then on `cases` corpora of `shape`.
pub fn check_corpora<R: Debug>(
    property: &str,
    seed: u64,
    cases: u64,
    shape: CorpusShape,
    mut rest: impl FnMut(&mut Prng) -> R,
    mut check: impl FnMut(&Files, &R),
) {
    for (name, texts) in SAVED_INPUTS {
        let saved = format!("{property} [saved input {name}]");
        for_each_case(
            &saved,
            seed,
            1,
            |rng| (named(texts.iter().copied()), rest(rng)),
            |(f, r)| check(f, r),
        );
    }
    for_each_case(
        property,
        seed,
        cases,
        |rng| (corpus(rng, &shape), rest(rng)),
        |(f, r)| check(f, r),
    );
}
