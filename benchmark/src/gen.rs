//! Seeded, dependency-free input generators: the `wiki` corpus (a port of
//! `ntadoc-datagen`'s spec D — Zipf phrase library over a Zipf core
//! vocabulary, with a trickle of novel words) and the serve request mixes.
//!
//! The program under test only ever sees what these write to disk or send
//! on the socket; the same seed always gives the same bytes.

use ntadoc::Task;

/// splitmix64: tiny, seedable, and good enough to shape a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Zipf sampler over `0..n` via a cumulative table (0 = most frequent).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// Shape of one generated corpus.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    pub files: usize,
    pub tokens_per_file: usize,
    pub core_vocab: usize,
    pub phrases: usize,
    pub novel_rate: f64,
}

impl CorpusSpec {
    /// Spec D of `ntadoc-datagen` (150 files, Zipf phrase library, 1.2 %
    /// novel words) with the file length cut from 20 k to 2.4 k words so
    /// that five set-ups and a measured window with enough jobs in it fit
    /// the driver's per-run budget. File count, vocabulary and phrase library keep
    /// their size, so the DAG pool still dwarfs the modelled 2 MiB LLC.
    pub fn wiki() -> Self {
        CorpusSpec {
            files: 150,
            tokens_per_file: 2_400,
            core_vocab: 50_000,
            phrases: 8_000,
            novel_rate: 0.012,
        }
    }
}

/// A pseudo-word for rank `idx`: two syllables and the rank, zero-padded,
/// so words are distinct by construction and all nine bytes long — raw
/// corpus size then follows the word count, whichever words a seed puts in
/// the head phrases. Lower-case alphanumerics only, so the program's
/// tokenizer and a plain whitespace split agree on every word.
fn word_string(idx: usize) -> String {
    const ONSET: &[u8] = b"bcdfgklmnprstv";
    const NUCLEUS: &[u8] = b"aeiou";
    let mut n = idx;
    let mut s = String::with_capacity(9);
    for _ in 0..2 {
        s.push(ONSET[n % ONSET.len()] as char);
        n /= ONSET.len();
        s.push(NUCLEUS[n % NUCLEUS.len()] as char);
        n /= NUCLEUS.len();
    }
    s.push_str(&format!("{idx:05}"));
    s
}

/// Generate `(file name, contents)` pairs, in the sorted-name order the CLI
/// ingests a directory in.
///
/// The seed decides which words make up each phrase, which phrase comes
/// next, where novel words fall and which file gets which length. It does
/// not decide the corpus's shape: phrase `k` always has the same length and
/// the file lengths are always the same ramp from 75 % to 125 % of the
/// mean, shuffled. A handful of head phrases make up most of the text, so
/// drawing their lengths too would let one seed's corpus compress a fifth
/// better than another's, and no two seeds' timings would be comparable.
pub fn corpus(spec: &CorpusSpec, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::new(seed);
    let word_zipf = Zipf::new(spec.core_vocab, 1.05);
    let phrase_zipf = Zipf::new(spec.phrases, 1.25);
    let phrases: Vec<Vec<usize>> = (0..spec.phrases)
        .map(|rank| (0..4 + rank * 7 % 11).map(|_| word_zipf.sample(&mut rng)).collect())
        .collect();
    let words: Vec<String> = (0..spec.core_vocab).map(word_string).collect();
    // Fisher–Yates over the ramp's steps.
    let mut steps: Vec<usize> = (0..spec.files).collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.range(0, i as u64) as usize);
    }

    let mut novel = 0usize;
    steps
        .into_iter()
        .enumerate()
        .map(|(fid, step)| {
            let percent = 75 + 50 * step / (spec.files - 1).max(1);
            let target = (spec.tokens_per_file * percent / 100).max(1);
            let mut text = String::with_capacity(target * 8);
            let mut tokens = 0;
            while tokens < target {
                let phrase = &phrases[phrase_zipf.sample(&mut rng)];
                for &w in phrase {
                    text.push_str(&words[w]);
                    text.push(' ');
                }
                tokens += phrase.len();
                if rng.unit() < spec.novel_rate {
                    text.push_str(&format!("nv{novel}q "));
                    novel += 1;
                    tokens += 1;
                }
            }
            (format!("w-{fid:05}.txt"), text)
        })
        .collect()
}

/// One socket request: a servable task and its `top` (`None` = full reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    pub task: Task,
    pub top: Option<usize>,
}

/// The four tasks `ServeSession` answers.
pub const SERVABLE: [Task; 4] =
    [Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];

/// `serve_hot`'s 16-key hot set, which fits the daemon's cache, as
/// `(name, share of requests in %, keys)` per class of reply size: small
/// replies (word count / sort, `top` 10–200, ≤ 3 KB), term vectors, full
/// word count / sort, and the inverted index (the largest reply).
pub fn hot_classes() -> [(&'static str, u64, Vec<Request>); 4] {
    let keys = |tasks: &[Task], tops: &[Option<usize>]| {
        tasks.iter().flat_map(|&task| tops.iter().map(move |&top| Request { task, top })).collect()
    };
    let counts = [Task::WordCount, Task::Sort];
    [
        ("small reply", 70, keys(&counts, &[Some(10), Some(20), Some(50), Some(100), Some(200)])),
        ("term vector", 10, keys(&[Task::TermVector], &[Some(5), Some(10)])),
        ("full reply", 17, keys(&counts, &[None])),
        ("inverted index", 3, keys(&[Task::InvertedIndex], &[Some(5), Some(10)])),
    ]
}

/// Every key of the hot set, each once.
pub fn hot_keys() -> Vec<Request> {
    hot_classes().into_iter().flat_map(|(_, _, keys)| keys).collect()
}

/// One `serve_hot` request: a class by its share, then a key of the class.
/// Returns the class's index in [`hot_classes`] too.
pub fn hot_request(rng: &mut Rng) -> (usize, Request) {
    let mut roll = rng.range(0, 99);
    for (class, (_, share, keys)) in hot_classes().into_iter().enumerate() {
        if roll < share {
            return (class, keys[rng.range(0, keys.len() as u64 - 1) as usize]);
        }
        roll -= share;
    }
    unreachable!("class shares sum to 100")
}

/// `serve_cold`: 4 tasks × `top` ∈ [1, 4096] ≈ 16 k keys, far beyond the
/// cache, so nearly every request traverses the DAG. The `i`-th request of
/// a stream takes the tasks in turn — they differ fourfold in cost, so the
/// mix is fixed and only `top` is drawn.
pub fn cold_request(rng: &mut Rng, i: usize) -> Request {
    Request { task: SERVABLE[i % SERVABLE.len()], top: Some(rng.range(1, 4096) as usize) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small() -> CorpusSpec {
        CorpusSpec {
            files: 6,
            tokens_per_file: 300,
            core_vocab: 500,
            phrases: 80,
            novel_rate: 0.05,
        }
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(corpus(&small(), 7), corpus(&small(), 7));
        assert_ne!(corpus(&small(), 7), corpus(&small(), 8));
    }

    #[test]
    fn corpus_names_sort_in_generation_order_and_words_are_plain() {
        let files = corpus(&small(), 1);
        assert_eq!(files.len(), 6);
        let names: Vec<&String> = files.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        for (_, text) in &files {
            assert!(text
                .bytes()
                .all(|b| b == b' ' || b.is_ascii_lowercase() || b.is_ascii_digit()));
        }
    }

    #[test]
    fn words_are_distinct() {
        let set: BTreeSet<String> = (0..50_000).map(word_string).collect();
        assert_eq!(set.len(), 50_000);
    }

    #[test]
    fn request_streams_repeat_and_hot_set_fits_the_cache() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5_000).map(|_| hot_request(&mut rng).1).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        let keys: BTreeSet<Request> = draw(3).into_iter().collect();
        assert_eq!(keys, hot_keys().into_iter().collect());
        assert_eq!(keys.len(), 16);
        let mut rng = Rng::new(3);
        let cold: BTreeSet<Request> = (0..300).map(|i| cold_request(&mut rng, i)).collect();
        assert!(cold.len() > 290, "cold keys should almost never repeat");
    }
}
