//! Cross-engine correctness: every engine configuration must produce
//! byte-identical results to a host-side oracle computed on the expanded
//! corpus, for all six tasks.

use std::collections::BTreeMap;

use ntadoc::{Engine, EngineConfig, Task, TaskOutput, Traversal, UncompressedEngine};
use ntadoc_grammar::{compress_corpus, Compressed, TokenizerConfig};
use ntadoc_pmem::DeviceProfile;

const NGRAM: usize = 3;
const TOP_K: usize = 10;

/// A corpus with enough repetition to build a real rule hierarchy, several
/// files, and some unique words.
fn corpus() -> Compressed {
    let phrases = [
        "the quick brown fox jumps over the lazy dog",
        "a stitch in time saves nine every time",
        "the quick brown fox likes the lazy dog",
        "data analytics directly on compressed data saves time and space",
        "non volatile memory combines speed and persistence",
    ];
    let mut files = Vec::new();
    for f in 0..6 {
        let mut text = String::new();
        for i in 0..12 {
            text.push_str(phrases[(f + i) % phrases.len()]);
            text.push(' ');
            if i % 3 == f % 3 {
                text.push_str(&format!("unique{f}x{i} "));
            }
        }
        files.push((format!("file{f}.txt"), text));
    }
    compress_corpus(&files, &TokenizerConfig::default())
}

// ---- host-side oracle ---------------------------------------------------

struct Oracle {
    files: Vec<Vec<String>>, // words per file
    names: Vec<String>,
    ngram: usize,
}

fn oracle(comp: &Compressed, ngram: usize) -> Oracle {
    let files = comp
        .grammar
        .expand_files()
        .into_iter()
        .map(|f| f.iter().map(|&w| comp.dict.word(w).to_string()).collect())
        .collect();
    Oracle { files, names: comp.file_names.clone(), ngram }
}

impl Oracle {
    fn word_count(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for f in &self.files {
            for w in f {
                *m.entry(w.clone()).or_insert(0) += 1;
            }
        }
        m
    }

    fn sort(&self) -> Vec<(String, u64)> {
        self.word_count().into_iter().collect()
    }

    fn term_vector(&self, comp: &Compressed) -> Vec<(String, Vec<(String, u64)>)> {
        let mut out = Vec::new();
        for (fid, f) in self.files.iter().enumerate() {
            let mut m: BTreeMap<u32, u64> = BTreeMap::new();
            for w in f {
                *m.entry(comp.dict.id_of(w).unwrap()).or_insert(0) += 1;
            }
            let mut rows: Vec<(u32, u64)> = m.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(TOP_K);
            out.push((
                self.names[fid].clone(),
                rows.into_iter().map(|(w, c)| (comp.dict.word(w).to_string(), c)).collect(),
            ));
        }
        out
    }

    fn inverted_index(&self) -> BTreeMap<String, Vec<String>> {
        let mut m: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (fid, f) in self.files.iter().enumerate() {
            let mut seen: Vec<&String> = f.iter().collect();
            seen.sort();
            seen.dedup();
            for w in seen {
                m.entry(w.clone()).or_default().push(self.names[fid].clone());
            }
        }
        m
    }

    fn sequence_count(&self) -> BTreeMap<Vec<String>, u64> {
        let mut m = BTreeMap::new();
        for f in &self.files {
            for win in f.windows(self.ngram) {
                *m.entry(win.to_vec()).or_insert(0) += 1;
            }
        }
        m
    }

    fn ranked_inverted_index(
        &self,
        comp: &Compressed,
    ) -> BTreeMap<Vec<String>, Vec<(String, u64)>> {
        let mut per_file: Vec<BTreeMap<Vec<u32>, u64>> = Vec::new();
        for f in &self.files {
            let ids: Vec<u32> = f.iter().map(|w| comp.dict.id_of(w).unwrap()).collect();
            let mut m = BTreeMap::new();
            for win in ids.windows(self.ngram) {
                *m.entry(win.to_vec()).or_insert(0u64) += 1;
            }
            per_file.push(m);
        }
        let mut acc: BTreeMap<Vec<u32>, Vec<(u32, u64)>> = BTreeMap::new();
        for (fid, m) in per_file.iter().enumerate() {
            for (g, &c) in m {
                acc.entry(g.clone()).or_default().push((fid as u32, c));
            }
        }
        let mut out = BTreeMap::new();
        for (g, mut files) in acc {
            files.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let gram: Vec<String> = g.iter().map(|&w| comp.dict.word(w).to_string()).collect();
            out.insert(
                gram,
                files.into_iter().map(|(fid, c)| (self.names[fid as usize].clone(), c)).collect(),
            );
        }
        out
    }
}

fn check(out: &TaskOutput, comp: &Compressed, task: Task, label: &str) {
    check_ngram(out, comp, task, label, NGRAM)
}

fn check_ngram(out: &TaskOutput, comp: &Compressed, task: Task, label: &str, ngram: usize) {
    let o = oracle(comp, ngram);
    match task {
        Task::WordCount => {
            assert_eq!(out.as_word_counts().unwrap(), &o.word_count(), "{label}: word count")
        }
        Task::Sort => assert_eq!(out.as_sorted().unwrap(), o.sort().as_slice(), "{label}: sort"),
        Task::TermVector => assert_eq!(
            out.as_term_vectors().unwrap(),
            o.term_vector(comp).as_slice(),
            "{label}: term vector"
        ),
        Task::InvertedIndex => assert_eq!(
            out.as_inverted_index().unwrap(),
            &o.inverted_index(),
            "{label}: inverted index"
        ),
        Task::SequenceCount => assert_eq!(
            out.as_sequence_counts().unwrap(),
            &o.sequence_count(),
            "{label}: sequence count"
        ),
        Task::RankedInvertedIndex => assert_eq!(
            out.as_ranked_inverted_index().unwrap(),
            &o.ranked_inverted_index(comp),
            "{label}: ranked inverted index"
        ),
    }
}

fn cfg_with(mut cfg: EngineConfig) -> EngineConfig {
    cfg.ngram = NGRAM;
    cfg.top_k = TOP_K;
    cfg
}

fn run_all_tasks(label: &str, mut engine: Engine, comp: &Compressed) {
    for task in Task::ALL {
        let out = engine.run(task).unwrap_or_else(|e| panic!("{label}/{task}: {e}"));
        check(&out, comp, task, label);
        let rep = engine.last_report.as_ref().unwrap();
        assert!(rep.init_ns() > 0, "{label}/{task}: init time recorded");
        assert!(rep.traversal_ns() > 0, "{label}/{task}: traversal time recorded");
    }
}

#[test]
fn ntadoc_on_nvm_matches_oracle() {
    let comp = corpus();
    let engine =
        Engine::builder(comp.clone()).config(cfg_with(EngineConfig::ntadoc())).build().unwrap();
    run_all_tasks("ntadoc-nvm", engine, &comp);
}

#[test]
fn ntadoc_oplevel_matches_oracle() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone())
        .config(cfg_with(EngineConfig::ntadoc_oplevel()))
        .build()
        .unwrap();
    run_all_tasks("ntadoc-oplevel", engine, &comp);
}

#[test]
fn naive_on_nvm_matches_oracle() {
    let comp = corpus();
    let engine =
        Engine::builder(comp.clone()).config(cfg_with(EngineConfig::naive())).build().unwrap();
    run_all_tasks("naive-nvm", engine, &comp);
}

#[test]
fn tadoc_on_dram_matches_oracle() {
    let comp = corpus();
    let engine = Engine::builder(comp.clone())
        .config(cfg_with(EngineConfig::tadoc_dram()))
        .profile(DeviceProfile::dram())
        .build()
        .unwrap();
    run_all_tasks("tadoc-dram", engine, &comp);
}

#[test]
fn ntadoc_on_ssd_and_hdd_match_oracle() {
    let comp = corpus();
    for hdd in [false, true] {
        let b = Engine::builder(comp.clone()).config(cfg_with(EngineConfig::ntadoc()));
        let engine = if hdd { b.hdd() } else { b.ssd() }.build().unwrap();
        run_all_tasks(if hdd { "ntadoc-hdd" } else { "ntadoc-ssd" }, engine, &comp);
    }
}

#[test]
fn uncompressed_baseline_matches_oracle() {
    let comp = corpus();
    let mut engine =
        UncompressedEngine::builder(comp.clone()).config(cfg_with(EngineConfig::ntadoc())).build();
    for task in Task::ALL {
        let out = engine.run(task).unwrap();
        check(&out, &comp, task, "uncompressed");
    }
}

#[test]
fn forced_topdown_matches_oracle() {
    let comp = corpus();
    let mut cfg = cfg_with(EngineConfig::ntadoc());
    cfg.traversal = Traversal::TopDown;
    let engine = Engine::builder(comp.clone()).config(cfg).build().unwrap();
    run_all_tasks("ntadoc-topdown", engine, &comp);
}

#[test]
fn forced_bottomup_matches_oracle() {
    let comp = corpus();
    let mut cfg = cfg_with(EngineConfig::ntadoc());
    cfg.traversal = Traversal::BottomUp;
    let engine = Engine::builder(comp.clone()).config(cfg).build().unwrap();
    // Bottom-up applies to the file tasks; others use global weights.
    run_all_tasks("ntadoc-bottomup", engine, &comp);
}

#[test]
fn single_file_corpus_works() {
    let comp = compress_corpus(
        &[("only.txt".into(), "alpha beta gamma alpha beta gamma delta".into())],
        &TokenizerConfig::default(),
    );
    let engine =
        Engine::builder(comp.clone()).config(cfg_with(EngineConfig::ntadoc())).build().unwrap();
    run_all_tasks("single-file", engine, &comp);
}

#[test]
fn tiny_files_corpus_works() {
    // Files shorter than the n-gram width must not produce sequences.
    let comp = compress_corpus(
        &[
            ("a".into(), "one two".into()),
            ("b".into(), "one".into()),
            ("c".into(), "".into()),
            ("d".into(), "one two three one two three".into()),
        ],
        &TokenizerConfig::default(),
    );
    let engine =
        Engine::builder(comp.clone()).config(cfg_with(EngineConfig::ntadoc())).build().unwrap();
    run_all_tasks("tiny-files", engine, &comp);
}

/// A corpus of awkward words for the id-domain steps (rank-ordered rows,
/// flat postings, array merges): words that are prefixes of one another
/// (`a` < `ab` < `abc`; `[a, bc]` < `[ab, c]` though both spell `abc`),
/// non-ASCII words (after `z`, multi-byte), n-grams sharing all but their
/// last word, words first seen in reverse alphabetical order (ids and
/// alphabetical ranks disagree), an empty file, a file shorter than any
/// n-gram, and enough repetition for a rule hierarchy. N-TADOC, the naive
/// port and the uncompressed scan must all give the decompress-and-count
/// answer, for every task and n.
#[test]
fn awkward_words_match_the_oracle_on_every_engine_and_ngram() {
    let phrases = [
        "zz z ñandú éa é 日本語 日本 日 abcd abc ab a",
        "x y a x y ab x y abc x y abcd x y é x y éa",
        "a bc ab c abc a b c ab cd",
        "日本 語 日 本語 日本語 é a éa ñandú ñ andú",
    ];
    let mut files: Vec<(String, String)> = (0..7)
        .map(|f| {
            let text: Vec<&str> =
                (0..9).map(|i| phrases[(f * 3 + i * i) % phrases.len()]).collect();
            (format!("f{f}"), text.join(" "))
        })
        .collect();
    files.insert(2, ("empty".into(), String::new()));
    files.insert(5, ("short".into(), "ab".into()));
    let comp = compress_corpus(&files, &TokenizerConfig::default());
    assert!(comp.grammar.rule_count() > 4, "the corpus should compress into rules");
    for ngram in [2, 3, 4] {
        let with = |cfg: EngineConfig| EngineConfig { ngram, top_k: TOP_K, ..cfg };
        let mut ntadoc =
            Engine::builder(comp.clone()).config(with(EngineConfig::ntadoc())).build().unwrap();
        let mut naive =
            Engine::builder(comp.clone()).config(with(EngineConfig::naive())).build().unwrap();
        let mut scan =
            UncompressedEngine::builder(comp.clone()).config(with(EngineConfig::ntadoc())).build();
        for task in Task::ALL {
            for (label, out) in [
                ("ntadoc", ntadoc.run(task).unwrap()),
                ("naive", naive.run(task).unwrap()),
                ("uncompressed", scan.run(task).unwrap()),
            ] {
                check_ngram(&out, &comp, task, &format!("{label}, n = {ngram}"), ngram);
            }
        }
    }
}

/// Sequence tasks count n-grams of at least two words. Both engines turn
/// `ngram < 2` down with the same typed error before init (the compressed
/// engine used to panic building sequence-list caches at `ngram = 0`, the
/// baseline to `assert!`); the other tasks never look at `ngram`.
#[test]
fn sequence_tasks_reject_an_ngram_below_two_on_both_engines() {
    use ntadoc_pmem::PmemError;
    let comp = corpus();
    for ngram in [0, 1] {
        for base in [EngineConfig::ntadoc(), EngineConfig::ntadoc_oplevel(), EngineConfig::naive()]
        {
            let cfg = EngineConfig { ngram, ..base };
            let mut engine = Engine::builder(comp.clone()).config(cfg.clone()).build().unwrap();
            let mut scan = UncompressedEngine::builder(comp.clone()).config(cfg).build();
            for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
                for err in [
                    engine.run(task).unwrap_err(),
                    engine.session(task).err().expect("rejected before init"),
                    scan.run(task).unwrap_err(),
                ] {
                    assert!(
                        matches!(&err, PmemError::Unsupported(m) if m.contains("n >= 2")),
                        "{task}, ngram {ngram}: {err}"
                    );
                }
            }
            check(&engine.run(Task::WordCount).unwrap(), &comp, Task::WordCount, "ngram-free");
            check(&scan.run(Task::WordCount).unwrap(), &comp, Task::WordCount, "ngram-free");
        }
    }
}
