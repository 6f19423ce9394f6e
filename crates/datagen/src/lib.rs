//! Deterministic synthetic corpora mirroring the paper's evaluation
//! datasets (Table I).
//!
//! The real corpora (Yelp COVID-19, NSF Research Award Abstracts, two
//! Wikipedia dumps) are not redistributable here, so each preset generates
//! a corpus with the *structural* properties that drive the paper's
//! results:
//!
//! | | files | shape | why it matters |
//! |---|---|---|---|
//! | A | 1 | one medium file, heavy phrase reuse | smallest dataset: N-TADOC's worst case (§VI-F limitations) |
//! | B | thousands | tiny formulaic abstracts | file count ≫ rules/file: top-down traversal is pathological (§VI-E) |
//! | C | 4 | few large articles | the paper's mid-size workload (Table II) |
//! | D | ~100 | large corpus | scale: init-phase and cache effects dominate (Table II, §VI-B) |
//!
//! Text is built from a Zipf-distributed phrase library: frequent phrases
//! recur across files (grammar rules emerge), rare/novel words keep the
//! vocabulary growing with corpus size, as in Table I.

use ntadoc_pmem::Prng;

pub mod words;

use words::word_string;

/// Parameters of one synthetic corpus.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset label ("A".."D").
    pub name: &'static str,
    /// Number of files.
    pub files: usize,
    /// Average words per file.
    pub tokens_per_file: usize,
    /// Core vocabulary the phrase library draws from.
    pub core_vocab: usize,
    /// Number of phrases in the library.
    pub phrases: usize,
    /// Probability of injecting a novel (unique-ish) word between phrases.
    pub novel_rate: f64,
    /// RNG seed (corpora are fully deterministic).
    pub seed: u64,
}

impl DatasetSpec {
    /// Dataset A: one Yelp-review-style file.
    pub fn a() -> Self {
        DatasetSpec {
            name: "A",
            files: 1,
            tokens_per_file: 200_000,
            core_vocab: 10_000,
            phrases: 900,
            novel_rate: 0.008,
            seed: 0xA11CE,
        }
    }

    /// Dataset B: thousands of small NSFRAA-style abstracts.
    pub fn b() -> Self {
        DatasetSpec {
            name: "B",
            files: 2_000,
            tokens_per_file: 60,
            core_vocab: 9_000,
            phrases: 1_800,
            novel_rate: 0.02,
            seed: 0xB0B,
        }
    }

    /// Dataset C: four Wikipedia-style documents.
    pub fn c() -> Self {
        DatasetSpec {
            name: "C",
            files: 4,
            tokens_per_file: 250_000,
            core_vocab: 25_000,
            phrases: 3_500,
            novel_rate: 0.012,
            seed: 0xCAFE,
        }
    }

    /// Dataset D: a large Wikipedia-style corpus.
    pub fn d() -> Self {
        DatasetSpec {
            name: "D",
            files: 150,
            tokens_per_file: 20_000,
            core_vocab: 50_000,
            phrases: 8_000,
            novel_rate: 0.012,
            seed: 0xD00D,
        }
    }

    /// All four presets in order.
    pub fn all() -> Vec<DatasetSpec> {
        vec![Self::a(), Self::b(), Self::c(), Self::d()]
    }

    /// Scale the corpus size by `factor`, keeping the structure.
    ///
    /// A preset of 64 files or more scales by file count only, clamped at
    /// 64 files, and never by file length: `d().scaled(0.02)` is 64 files
    /// of 20 000 tokens, not 3 files. A preset of fewer files scales by
    /// file length, clamped at 64 tokens.
    pub fn scaled(mut self, factor: f64) -> Self {
        if self.files >= 64 {
            self.files = ((self.files as f64 * factor) as usize).max(64);
        } else {
            self.tokens_per_file = ((self.tokens_per_file as f64 * factor) as usize).max(64);
        }
        self
    }
}

/// Exact Zipf(s≈1) sampler over `0..n` via a cumulative table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (0 = most frequent).
    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.unit();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Generate the corpus: `(file name, contents)` pairs, deterministic in
/// the spec.
pub fn generate(spec: &DatasetSpec) -> Vec<(String, String)> {
    let mut rng = Prng::new(spec.seed);
    let word_zipf = Zipf::new(spec.core_vocab, 1.05);
    let phrase_zipf = Zipf::new(spec.phrases, 1.25);

    // Phrase library: 3-9 Zipfian core words each.
    let phrases: Vec<Vec<usize>> = (0..spec.phrases)
        .map(|_| {
            let len = rng.range(4, 14);
            (0..len).map(|_| word_zipf.sample(&mut rng)).collect()
        })
        .collect();

    let mut novel_counter = 0usize;
    let mut files = Vec::with_capacity(spec.files);
    for fid in 0..spec.files {
        let mut text = String::with_capacity(spec.tokens_per_file * 7);
        let mut tokens = 0usize;
        // Mild per-file length variation (±25%).
        let target = spec.tokens_per_file * rng.range(75, 125) as usize / 100;
        while tokens < target.max(1) {
            let phrase = &phrases[phrase_zipf.sample(&mut rng)];
            for &w in phrase {
                text.push_str(&word_string(w));
                text.push(' ');
                tokens += 1;
            }
            if rng.chance(spec.novel_rate) {
                // Novel words grow the vocabulary with corpus size.
                text.push_str(&format!("nv{novel_counter}q "));
                novel_counter += 1;
                tokens += 1;
            }
        }
        files.push((format!("{}-{fid:05}.txt", spec.name.to_lowercase()), text));
    }
    files
}

/// Convenience: generate, compress and coarsen in one step.
pub fn generate_compressed(spec: &DatasetSpec) -> ntadoc_grammar::Compressed {
    let files = generate(spec);
    let mut comp =
        ntadoc_grammar::compress_corpus(&files, &ntadoc_grammar::TokenizerConfig::default());
    comp.grammar = comp.grammar.coarsened(ntadoc_grammar::COARSEN_MIN_EXP);
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::a().scaled(0.05);
        let f1 = generate(&spec);
        let f2 = generate(&spec);
        assert_eq!(f1, f2);
    }

    #[test]
    fn file_counts_match_spec() {
        let spec = DatasetSpec::b().scaled(0.05);
        let files = generate(&spec);
        assert_eq!(files.len(), spec.files);
        assert!(files.iter().all(|(_, t)| !t.is_empty()));
    }

    #[test]
    fn file_names_are_unique() {
        let files = generate(&DatasetSpec::b().scaled(0.05));
        let names: std::collections::HashSet<_> = files.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), files.len());
    }

    #[test]
    fn scaled_changes_the_right_dimension() {
        let b = DatasetSpec::b().scaled(0.1);
        assert_eq!(b.tokens_per_file, DatasetSpec::b().tokens_per_file);
        assert!(b.files < DatasetSpec::b().files);
        let a = DatasetSpec::a().scaled(0.1);
        assert_eq!(a.files, 1);
        assert!(a.tokens_per_file < DatasetSpec::a().tokens_per_file);
    }

    #[test]
    fn a_many_file_preset_scales_by_file_count_clamped_at_64() {
        let d = DatasetSpec::d().scaled(0.02);
        assert_eq!((d.files, d.tokens_per_file), (64, 20_000));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.05);
        let mut rng = Prng::new(7);
        let mut low = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // Top-10 ranks should absorb a large share of the mass.
        assert!(low > n / 10, "only {low}/{n} samples in the top 10 ranks");
    }

    #[test]
    fn zipf_covers_the_range() {
        let z = Zipf::new(5, 1.0);
        let mut rng = Prng::new(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn corpora_compress_substantially() {
        // The phrase structure must produce real rule hierarchies.
        let comp = generate_compressed(&DatasetSpec::a().scaled(0.1));
        let stats = comp.grammar.stats();
        assert!(stats.rule_count > 50, "rule count {}", stats.rule_count);
        assert!(
            comp.grammar.compression_ratio() > 1.5,
            "compression ratio {:.2}",
            comp.grammar.compression_ratio()
        );
    }

    #[test]
    fn vocabulary_grows_with_scale() {
        let small = generate_compressed(&DatasetSpec::a().scaled(0.02));
        let large = generate_compressed(&DatasetSpec::a().scaled(0.1));
        assert!(large.dict.len() > small.dict.len());
    }

    #[test]
    fn b_has_many_files_and_short_texts() {
        let spec = DatasetSpec::b().scaled(0.05);
        let comp = generate_compressed(&spec);
        assert!(comp.file_count() >= 64);
        let stats = comp.grammar.stats();
        assert_eq!(stats.files, comp.file_count());
    }
}
