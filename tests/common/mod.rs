//! What the suites share: the one generator of small corpora, the two
//! inputs proptest had shrunk and saved while these suites still ran under
//! it, the build-by-appends route, the decompress-and-count [`oracle`] and
//! the differential [`matrix`] checked against it. Every corpus-taking
//! property outside the matrix goes through [`check_corpora`], so each
//! sees both saved inputs before its seeded cases; the matrix has them in
//! its catalogue.

// Each suite uses its own part of this module.
#![allow(dead_code)]

pub mod matrix;
pub mod oracle;

use std::fmt::Debug;
use std::ops::Range;

use ntadoc_repro::{for_each_case, Engine, EngineBuilder, PmemError, Prng};

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

/// Files `f0`, `f1`, … holding `texts`.
pub fn named(texts: impl IntoIterator<Item = impl Into<String>>) -> Files {
    texts.into_iter().enumerate().map(|(i, text)| (format!("f{i}"), text.into())).collect()
}

/// Build by live appends: the first `plan[0]` files as the base corpus,
/// built by `configure(EngineBuilder::from_files(..))`, each later group of
/// `plan` through `Engine::append_files`.
pub fn build_by_appends(
    files: &[(String, String)],
    plan: &[usize],
    configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
) -> Result<Engine, PmemError> {
    let (base, mut rest) = files.split_at(plan[0]);
    let mut engine = configure(EngineBuilder::from_files(base.to_vec())).build()?;
    for &n in &plan[1..] {
        let (group, tail) = rest.split_at(n);
        engine.append_files(group.to_vec())?;
        rest = tail;
    }
    Ok(engine)
}

/// Deterministically partition `n` files into non-empty groups from a seed.
pub fn plan_from_seed(n: usize, mut seed: u64) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = 1 + (seed as usize) % left;
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        plan.push(take);
        left -= take;
    }
    plan
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
