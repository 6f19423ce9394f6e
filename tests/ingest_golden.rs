//! Golden images of the ingest routes.
//!
//! Three corpora made here by an LCG — a Zipf-ish stream of phrases with
//! mixed-case, punctuated and non-ASCII tokens, a corpus of many tiny
//! files, and one with empty files — are built through every route the
//! program has: the serial [`CorpusBuilder`], [`ingest_corpus`] at 2, 3 and
//! 8 chunks, and two folds of `Engine::append_files`. Each build pins
//! the CRC-64 of its serialized image and its [`snapshot_fingerprint`], at
//! one worker and at four. The values were computed before the host side of
//! ingest (digram index, seam-dedup rounds, tokenizer, dictionary) was
//! rebuilt; that work may make ingest as fast as it likes and may not move
//! one of them. On a mismatch the test prints the table as this run
//! produced it.

mod common;

use common::build_by_appends;
use ntadoc_grammar::CorpusBuilder;
use ntadoc_pmem::par;
use ntadoc_repro::{
    crc64, ingest_corpus, serialize_compressed, snapshot_fingerprint, Compressed, IngestOptions,
    TokenizerConfig,
};

/// The in-test generator: a 64-bit LCG, high bits out.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Skewed draw from `0..n`: the cube of a uniform variate.
    fn zipfish(&mut self, n: u64) -> u64 {
        let u = self.below(1 << 20) as f64 / (1u64 << 20) as f64;
        ((u * u * u) * n as f64) as u64
    }
}

/// Words whose lower-casing is not the ASCII one: multi-character
/// expansions, a final sigma, a title-case digraph, interior punctuation.
const ODD_WORDS: [&str; 10] = [
    "café",
    "ÉCOLE",
    "İstanbul",
    "ΟΔΟΣ",
    "Straße",
    "ǅemal",
    "state-of-the-art",
    "O'Neil",
    "naïve",
    "ΣΊΣΥΦΟΣ",
];

fn vocab_word(id: u64) -> String {
    if id % 97 == 13 {
        return ODD_WORDS[(id / 97) as usize % ODD_WORDS.len()].to_string();
    }
    const SYL: [&str; 16] = [
        "ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "an", "el", "ir", "os", "ud", "by", "ce",
        "7x",
    ];
    let mut w = String::new();
    let mut x = id + 1;
    while x > 0 {
        w.push_str(SYL[(x % 16) as usize]);
        x /= 16;
    }
    w
}

/// Dress a vocabulary word the way running text does: capitals, trailing
/// and surrounding punctuation.
fn decorate(rng: &mut Lcg, word: &str) -> String {
    match rng.below(64) {
        0..=3 => {
            let mut c = word.chars();
            let first = c.next().map(|f| f.to_uppercase().collect::<String>()).unwrap_or_default();
            first + c.as_str()
        }
        4 => word.to_uppercase(),
        5..=7 => format!("{word},"),
        8 | 9 => format!("{word}."),
        10 => format!("({word})"),
        11 => format!("\"{word}!\""),
        12 => format!("{word} --"),
        13 => format!("… {word}"),
        _ => word.to_string(),
    }
}

fn separator(rng: &mut Lcg) -> &'static str {
    match rng.below(16) {
        0 => "\n",
        1 => "\t",
        2 => "  ",
        3 => " \r\n",
        _ => " ",
    }
}

/// `files` files of about `tokens` tokens each, drawn phrase by phrase from
/// a skewed phrase table over a skewed vocabulary.
fn phrase_corpus(seed: u64, files: usize, tokens: usize, vocab: u64) -> Vec<(String, String)> {
    let mut rng = Lcg(seed);
    let phrases: Vec<Vec<String>> = (0..vocab / 12)
        .map(|_| {
            let len = 2 + rng.below(8);
            (0..len).map(|_| vocab_word(rng.zipfish(vocab))).collect()
        })
        .collect();
    (0..files)
        .map(|f| {
            let mut text = String::new();
            let mut n = 0;
            let target = tokens * (75 + rng.below(51) as usize) / 100;
            while n < target {
                if rng.below(10) < 7 {
                    let p = &phrases[rng.zipfish(phrases.len() as u64) as usize];
                    for w in p {
                        text.push_str(&decorate(&mut rng, w));
                        text.push_str(separator(&mut rng));
                    }
                    n += p.len();
                } else {
                    let w = vocab_word(rng.zipfish(vocab));
                    text.push_str(&decorate(&mut rng, &w));
                    text.push_str(separator(&mut rng));
                    n += 1;
                }
            }
            (format!("doc-{f:03}.txt"), text)
        })
        .collect()
}

fn zipf_corpus() -> Vec<(String, String)> {
    phrase_corpus(0x5EED_0019, 20, 1_600, 3_000)
}

/// The paper's pathological shape (§VI-E): hundreds of files of a few
/// words each, some of none.
fn tiny_files_corpus() -> Vec<(String, String)> {
    let mut rng = Lcg(0x7171);
    (0..300)
        .map(|f| {
            let n = rng.below(13);
            let words: Vec<String> = (0..n)
                .map(|_| {
                    let w = vocab_word(rng.zipfish(60));
                    decorate(&mut rng, &w)
                })
                .collect();
            (format!("t{f}"), words.join(" "))
        })
        .collect()
}

/// Empty files first, last and adjacent, and files that tokenize to
/// nothing, between ordinary ones.
fn empties_corpus() -> Vec<(String, String)> {
    let body = phrase_corpus(0xE3E3, 7, 350, 400);
    let mut body = body.into_iter().map(|(_, text)| text);
    let mut text_of = |i: usize| match i {
        0 | 3 | 4 | 11 => String::new(),
        6 => "-- … !!  ( ) \n".to_string(),
        _ => body.next().expect("seven ordinary files"),
    };
    (0..12).map(|i| (format!("e{i}"), text_of(i))).collect()
}

fn serial(files: &[(String, String)]) -> Compressed {
    let mut b = CorpusBuilder::new(TokenizerConfig::default());
    for (name, text) in files {
        b.add_file(name.clone(), text);
    }
    b.finish()
}

fn chunked(files: &[(String, String)], chunks: usize) -> Compressed {
    ingest_corpus(files, &IngestOptions { chunks, ..IngestOptions::default() }).0
}

fn appended(files: &[(String, String)], plan: &[usize]) -> Compressed {
    (**build_by_appends(files, plan, |b| b).unwrap().compressed()).clone()
}

/// Every route over `files`, in the order `GOLDEN` lists them.
fn routes(files: &[(String, String)]) -> Vec<(&'static str, Compressed)> {
    let n = files.len();
    vec![
        ("serial", serial(files)),
        ("chunks2", chunked(files, 2)),
        ("chunks3", chunked(files, 3)),
        ("chunks8", chunked(files, 8)),
        ("append-halves", appended(files, &[n / 2, n - n / 2])),
        ("append-1-third-rest", appended(files, &[1, n / 3, n - n / 3 - 1])),
    ]
}

fn measure(workers: usize) -> Vec<(&'static str, &'static str, u64, u64)> {
    par::with_threads(workers, || {
        let corpora =
            [("zipf", zipf_corpus()), ("tiny", tiny_files_corpus()), ("empties", empties_corpus())];
        let mut rows = Vec::new();
        for (corpus, files) in &corpora {
            for (route, comp) in routes(files) {
                comp.grammar.validate().unwrap();
                let image = serialize_compressed(&comp).unwrap();
                rows.push((*corpus, route, crc64(&image), snapshot_fingerprint(&comp)));
            }
        }
        rows
    })
}

#[test]
fn every_ingest_route_builds_its_golden_image() {
    for workers in [1, 4] {
        let rows = measure(workers);
        if rows != GOLDEN {
            for (corpus, route, crc, fp) in &rows {
                println!("    (\"{corpus}\", \"{route}\", {crc:#018x}, {fp:#018x}),");
            }
            panic!("an ingest route moved off its golden image at {workers} worker(s)");
        }
    }
}

#[test]
fn the_corpora_have_the_shapes_they_are_named_for() {
    let zipf = serial(&zipf_corpus());
    let words: Vec<&str> = zipf.dict.iter().map(|(_, w)| w).collect();
    for w in ["école", "i̇stanbul", "οδος", "σίσυφος", "straße", "ǆemal", "state-of-the-art"]
    {
        assert!(words.contains(&w), "{w} missing from the dictionary");
    }
    assert!(zipf.grammar.rule_count() > 500, "phrases must repeat");
    assert!(tiny_files_corpus().iter().any(|(_, t)| t.is_empty()));
    let empties = serial(&empties_corpus());
    assert_eq!(empties.grammar.expand_files().iter().filter(|f| f.is_empty()).count(), 5);
}

/// `ntadoc-grammar` seals images with its own copy of CRC-64 and
/// `ntadoc-pmem` seals pools and log entries with another; they are one
/// function.
#[test]
fn the_two_crc64_copies_agree() {
    let mut rng = Lcg(0xC4C);
    for len in (0..70).chain([255, 256, 257, 4096, 65_537]) {
        let buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert_eq!(ntadoc_grammar::serialize::crc64(&buf), crc64(&buf), "{len} bytes");
    }
    // And the CRC in an image's header is the pool crate's CRC of its payload.
    let image = serialize_compressed(&serial(&empties_corpus())).unwrap();
    assert_eq!(image[8..16], crc64(&image[24..]).to_le_bytes());
}

/// `(corpus, route, crc64 of the serialized image, snapshot fingerprint)`.
const GOLDEN: [(&str, &str, u64, u64); 18] = [
    ("zipf", "serial", 0x95e3b979c6010b30, 0x6431bda90a5a5a5e),
    ("zipf", "chunks2", 0x278911a00a57c4cd, 0x6da70f734113953b),
    ("zipf", "chunks3", 0x7540f802fc3cae97, 0x7f56a429a90c6a57),
    ("zipf", "chunks8", 0x3508509bb840c44c, 0xbe9c76a40c011fa5),
    ("zipf", "append-halves", 0x46551d530f4aa0f6, 0xf68cd318bdbccfea),
    ("zipf", "append-1-third-rest", 0xfd5ab9d9b84000c7, 0x4e8349f16019cc8d),
    ("tiny", "serial", 0x0ad539690a12ac4e, 0xc80a12d5cb555b36),
    ("tiny", "chunks2", 0xdb300a4774cabd1c, 0x2243c70be146540d),
    ("tiny", "chunks3", 0x9af120638df14fdf, 0x50fd63e4538f9e0f),
    ("tiny", "chunks8", 0xb371a9677c6b4c5b, 0x9d5d12e672499db3),
    ("tiny", "append-halves", 0xa64e6f668521ac88, 0x1516353f6ee9cd4f),
    ("tiny", "append-1-third-rest", 0xf44c512c2e7f4679, 0x8e437e72c1bce59e),
    ("empties", "serial", 0xd97d2df7bb0baec9, 0x9d33c2523ce47411),
    ("empties", "chunks2", 0xcfa3d6596f2af050, 0xb96cbcdd483a6914),
    ("empties", "chunks3", 0xfd98a172d125cb18, 0xbf668c79e466b495),
    ("empties", "chunks8", 0x00d43d373be34830, 0x3f284d2b428eb3cf),
    ("empties", "append-halves", 0xff27baffb6284a8e, 0xd64c7a79baa488d4),
    ("empties", "append-1-third-rest", 0xbd021d93557a0f0d, 0xd1f6dcc2aa3da6de),
];
