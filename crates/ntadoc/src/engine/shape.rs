//! The one task back-end: id-level results → [`TaskOutput`].
//!
//! Every engine computes a task in two steps. The first is its own —
//! a DAG traversal, a merge over cached word lists, a scan of the token
//! stream — and ends in dictionary ids: `(word, count)` lists, per-file
//! tables, `(n-gram, count)` lists, `(n-gram, file, count)` postings. The
//! second is the same for all of them and lives here, one function per
//! task: order, rank and cut the id-level result, charge the modeled sort,
//! and materialise strings through the caller's [`WordReader`] — copied
//! only where the output keeps them; n-gram rows are ordered by integer
//! rank ([`ranks`]), not by the strings just built. Batch, serve and the
//! uncompressed baseline therefore shape results with the same code in the
//! same device-access order.

use ntadoc_grammar::{Compressed, Dictionary};
use ntadoc_nstruct::{PHashTable, PVec};

use super::RunScaffold;
use crate::dag::WordReader;
use crate::result::TaskOutput;
use crate::Result;

/// An id-level result: `(word or n-gram id, count)` pairs.
pub(crate) type Counts = Vec<(u32, u64)>;

/// The id-level ranked index: `(n-gram id, (file id, count))`, any order.
pub(crate) type Postings = Vec<(u32, (u32, u64))>;

/// A counter table's `(key, count)` entries, keys narrowed back to ids.
pub(crate) fn counts_of(table: &PHashTable) -> Counts {
    table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect()
}

/// Word count: the counts keyed by word string.
pub(crate) fn word_count(counts: Counts, mut words: WordReader) -> TaskOutput {
    TaskOutput::WordCount(counts.into_iter().map(|(w, c)| (words.get(w).to_owned(), c)).collect())
}

/// Sort: materialise the strings, then sort alphabetically.
pub(crate) fn sort(sc: &RunScaffold, counts: Counts, mut words: WordReader) -> TaskOutput {
    let mut rows: Vec<(String, u64)> =
        counts.into_iter().map(|(w, c)| (words.get(w).to_owned(), c)).collect();
    sc.charge_sort(rows.len() as u64);
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    TaskOutput::Sort(rows)
}

/// Term vector: each file's `top_k` words, count descending with the
/// dictionary id as the deterministic tiebreak.
pub(crate) fn term_vector(
    sc: &RunScaffold,
    tables: Vec<Counts>,
    comp: &Compressed,
    mut words: WordReader,
) -> TaskOutput {
    let mut out = Vec::with_capacity(tables.len());
    for (fid, mut entries) in tables.into_iter().enumerate() {
        sc.charge_sort(entries.len() as u64);
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(sc.cfg.top_k);
        let top = entries.into_iter().map(|(w, c)| (words.get(w).to_owned(), c)).collect();
        out.push((comp.file_names[fid].clone(), top));
    }
    TaskOutput::TermVector(out)
}

/// Inverted index: word → the files containing it, in file order. With
/// `persist_pairs` the `(word, file)` pairs are also the persisted result:
/// pushed to a device vector as they are produced and flushed at the end
/// (a run's result); without, nothing is written (a served response).
pub(crate) fn inverted_index(
    sc: &RunScaffold,
    tables: Vec<Counts>,
    comp: &Compressed,
    mut words: WordReader,
    persist_pairs: bool,
) -> Result<TaskOutput> {
    let pairs: Option<PVec<(u32, u32)>> = if persist_pairs {
        let total = tables.iter().map(|t| t.len()).sum::<usize>();
        Some(PVec::with_capacity(sc.pool.clone(), total.max(1))?)
    } else {
        None
    };
    // Postings are gathered per word id — an index, not a descent over
    // string keys per posting — and the map is bulk-built from the distinct
    // words at the end (`collect` sorts once). A dictionary id names one
    // string, so this is the map an insert per posting would have built.
    // Every posting still looks its word up, in emission order: the lookup
    // is a charged dictionary read. Only a word's first copies the name.
    let mut by_word: Vec<Option<(String, Vec<String>)>> = Vec::new();
    for (fid, mut entries) in tables.into_iter().enumerate() {
        // Deterministic order within a file.
        entries.sort_unstable_by_key(|e| e.0);
        sc.charge_sort(entries.len() as u64);
        for (wid, _) in entries {
            if let Some(pairs) = &pairs {
                pairs.push((wid, fid as u32))?;
            }
            let name = words.get(wid);
            if by_word.len() <= wid as usize {
                by_word.resize_with(wid as usize + 1, || None);
            }
            // (A list starts at one element: half the words are in one file.)
            match &mut by_word[wid as usize] {
                Some((_, files)) => files.push(comp.file_names[fid].clone()),
                unseen => *unseen = Some((name.to_owned(), vec![comp.file_names[fid].clone()])),
            }
        }
    }
    match pairs {
        Some(pairs) if sc.persists() => pairs.persist(),
        _ => {}
    }
    Ok(TaskOutput::InvertedIndex(by_word.into_iter().flatten().collect()))
}

/// Each dictionary id's alphabetical rank. Ids order like their strings —
/// distinct ids name distinct strings, and the equal strings only a forged
/// image can hold share a rank — so rows keyed by words sort by rank
/// tuples exactly as they would by the words themselves.
fn ranks(dict: &Dictionary) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..dict.len() as u32).collect();
    ids.sort_unstable_by_key(|&id| dict.word(id));
    let mut rank = vec![0u32; ids.len()];
    for pair in ids.windows(2) {
        let step = (dict.word(pair[0]) != dict.word(pair[1])) as u32;
        rank[pair[1] as usize] = rank[pair[0] as usize] + step;
    }
    rank
}

/// `len` rows keyed by n-gram id → the rows keyed by the n-grams' words,
/// in key order. The dictionary is read row by row in the order given,
/// once per word of each n-gram; the rows are then ordered by rank tuple,
/// so the map a caller collects them into is bulk-built: its sort finds them
/// sorted, and a later row still replaces an earlier one with the same words.
fn keyed_by_gram<V>(
    sc: &RunScaffold,
    len: usize,
    rows: impl Iterator<Item = (u32, V)>,
    dict: &Dictionary,
    mut words: WordReader,
) -> Vec<(Vec<String>, V)> {
    let (n, rank, grams) = (sc.cfg.ngram, ranks(dict), sc.interner.grams());
    let mut keys: Vec<u32> = Vec::with_capacity(len * n);
    let mut keyed: Vec<(Vec<String>, V)> = Vec::with_capacity(len);
    for (id, value) in rows {
        let gram = grams.get(id);
        keys.extend(gram.iter().map(|&w| rank[w as usize]));
        keyed.push((gram.iter().map(|&w| words.get(w).to_owned()).collect(), value));
    }
    let key = |row: u32| &keys[row as usize * n..][..n];
    let mut order: Vec<u32> = (0..keyed.len() as u32).collect();
    order.sort_by(|&a, &b| key(a).cmp(key(b)));
    // Permute in place (the map is then built out of this one vector): slot
    // `at` takes row `order[at]`, found where earlier swaps have left it.
    for at in 0..order.len() {
        let mut from = order[at] as usize;
        while from < at {
            from = order[from] as usize;
        }
        order[at] = from as u32;
        keyed.swap(at, from);
    }
    keyed
}

/// Sequence count: `(n-gram id, count)` keyed by the n-gram's words.
pub(crate) fn sequence_count(
    sc: &RunScaffold,
    counts: Counts,
    comp: &Compressed,
    words: WordReader,
) -> TaskOutput {
    let rows = keyed_by_gram(sc, counts.len(), counts.into_iter(), &comp.dict, words);
    TaskOutput::SequenceCount(rows.into_iter().collect())
}

/// Ranked inverted index: n-gram → `(file, count)`, count descending with
/// the file id as the tiebreak.
pub(crate) fn ranked_index(
    sc: &RunScaffold,
    mut postings: Postings,
    comp: &Compressed,
    words: WordReader,
) -> TaskOutput {
    // One sort, n-gram ids descending: n-grams are taken in id order — the
    // order the dictionary is read in — as groups off the vector's end, and
    // the vector gives its memory back to the growing result as it shrinks.
    postings.sort_unstable_by_key(|&(sid, _)| std::cmp::Reverse(sid));
    let ngrams = postings.chunk_by(|a, b| a.0 == b.0).count();
    let groups = std::iter::from_fn(|| {
        let sid = postings.last()?.0;
        let start = postings.iter().rposition(|p| p.0 != sid).map_or(0, |at| at + 1);
        let files = &mut postings[start..];
        sc.charge_sort(files.len() as u64);
        files.sort_unstable_by(|(_, a), (_, b)| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let name = |fid: u32| comp.file_names[fid as usize].clone();
        let ranked: Vec<(String, u64)> = files.iter().map(|&(_, (f, c))| (name(f), c)).collect();
        postings.truncate(start);
        if postings.len() < postings.capacity() / 2 {
            postings.shrink_to_fit();
        }
        Some((sid, ranked))
    });
    let rows = keyed_by_gram(sc, ngrams, groups, &comp.dict, words);
    TaskOutput::RankedInvertedIndex(rows.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ntadoc_grammar::{compress_corpus, TokenizerConfig};
    use ntadoc_pmem::{DeviceProfile, PoolLayout};

    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::LOG_BYTES;
    use crate::result::Task;

    /// Words that are prefixes of one another and non-ASCII words, first
    /// seen in reverse alphabetical order (ids and ranks disagree).
    const WORDS: [&str; 14] =
        ["zz", "z", "ñandú", "éa", "é", "日本語", "日本", "日", "bc", "b", "abc", "ab", "a", "c"];
    const FILES: u32 = 6;

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A corpus whose dictionary is `WORDS` in that order — plus, with
    /// `forged`, a second id for `ab`, as only a forged image can hold.
    fn corpus(forged: bool) -> Compressed {
        let files: Vec<_> = (0..FILES).map(|f| (format!("file{f}"), WORDS.join(" "))).collect();
        let mut comp = compress_corpus(&files, &TokenizerConfig::default());
        if forged {
            let words = WORDS.iter().chain(&["ab"]).map(|w| w.to_string()).collect();
            comp.dict = Dictionary::from_words(words);
        }
        comp
    }

    /// A scaffold for `n`-grams with `dict` laid out on its device as the
    /// DAG pool and the baseline lay it out, and a reader over it.
    fn scaffold(n: usize) -> RunScaffold {
        let cfg = EngineConfig { ngram: n, ..EngineConfig::ntadoc() };
        let (capacity, scratch_len) = (1 << 23, 1 << 20);
        let main_len = capacity - scratch_len - LOG_BYTES;
        let layout = PoolLayout { capacity, main_len, scratch_len, log_len: LOG_BYTES };
        let profile = DeviceProfile::nvm_optane();
        RunScaffold::new(cfg, Task::SequenceCount, "test".into(), &profile, layout, None, 256)
            .unwrap()
    }

    fn reader<'a>(sc: &'a RunScaffold, dict: &Dictionary) -> WordReader<'a> {
        let offsets = sc.pool.alloc_array(dict.len() + 1, 8).unwrap();
        let text = sc.pool.alloc(dict.text_bytes().max(1), 1).unwrap();
        let mut at = 0u64;
        for (id, word) in dict.iter() {
            sc.dev.write_u64(offsets + id as u64 * 8, at);
            sc.dev.write_bytes(text + at, word.as_bytes());
            at += word.len() as u64;
        }
        sc.dev.write_u64(offsets + dict.len() as u64 * 8, at);
        WordReader::per_word(&sc.dev, offsets, text)
    }

    /// `count` distinct n-gram ids. The first `n - 1` words come from three
    /// choices, so many n-grams share all but their last word.
    fn grams(sc: &RunScaffold, dict: &Dictionary, rng: &mut Rng, count: usize) -> Vec<u32> {
        let mut ids = Vec::new();
        while ids.len() < count {
            let mut gram: Vec<u32> = (1..sc.cfg.ngram).map(|_| 9 + rng.below(3) as u32).collect();
            gram.push(rng.below(dict.len() as u64) as u32);
            let id = sc.intern(&gram).unwrap();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    fn gram_words(sc: &RunScaffold, dict: &Dictionary, id: u32) -> Vec<String> {
        sc.interner.grams().get(id).iter().map(|&w| dict.word(w).to_owned()).collect()
    }

    // ---- reference models: the shapers as they were, an insert per row ----

    fn sequence_count_ref(sc: &RunScaffold, counts: &Counts, comp: &Compressed) -> TaskOutput {
        let mut out = BTreeMap::new();
        for &(id, c) in counts {
            out.insert(gram_words(sc, &comp.dict, id), c);
        }
        TaskOutput::SequenceCount(out)
    }

    fn ranked_index_ref(sc: &RunScaffold, postings: &Postings, comp: &Compressed) -> TaskOutput {
        let mut by_gram: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for &(sid, posting) in postings {
            by_gram.entry(sid).or_default().push(posting);
        }
        let mut out = BTreeMap::new();
        for (sid, mut files) in by_gram {
            files.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let ranked =
                files.into_iter().map(|(fid, c)| (comp.file_names[fid as usize].clone(), c));
            out.insert(gram_words(sc, &comp.dict, sid), ranked.collect());
        }
        TaskOutput::RankedInvertedIndex(out)
    }

    fn inverted_index_ref(tables: &[Counts], comp: &Compressed) -> TaskOutput {
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (fid, table) in tables.iter().enumerate() {
            let mut entries = table.clone();
            entries.sort_unstable_by_key(|e| e.0);
            for (wid, _) in entries {
                let files = out.entry(comp.dict.word(wid).to_owned()).or_default();
                files.push(comp.file_names[fid].clone());
            }
        }
        TaskOutput::InvertedIndex(out)
    }

    #[test]
    fn ranks_order_ids_like_their_strings() {
        for forged in [false, true] {
            let dict = corpus(forged).dict;
            let rank = ranks(&dict);
            for (a, x) in dict.iter() {
                for (b, y) in dict.iter() {
                    assert_eq!(rank[a as usize].cmp(&rank[b as usize]), x.cmp(y), "{x} vs {y}");
                }
            }
        }
        assert!(ranks(&Dictionary::new()).is_empty());
    }

    #[test]
    fn gram_keyed_shapers_equal_an_insert_per_row() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..40 {
            let (n, forged) = (2 + round % 3, round % 4 == 3);
            let (sc, comp) = (scaffold(n), corpus(forged));
            // At most 3 × 14 distinct 2-grams exist.
            let count = 1 + rng.below(40) as usize;
            let ids = grams(&sc, &comp.dict, &mut rng, count);
            // Counts in interning order, which is not id order.
            let counts: Counts = ids.iter().map(|&id| (id, 1 + rng.below(5))).collect();
            let expect = sequence_count_ref(&sc, &counts, &comp);
            // The map is bulk-built only from rows that come in key order.
            let words = reader(&sc, &comp.dict);
            let rows = keyed_by_gram(&sc, 0, counts.iter().copied(), &comp.dict, words);
            assert!(rows.is_sorted_by(|a, b| a.0 <= b.0), "round {round}: {rows:?}");
            let got = sequence_count(&sc, counts, &comp, reader(&sc, &comp.dict));
            assert_eq!(got, expect, "round {round}: n = {n}, forged {forged}");

            // Postings file after file; files 1 and 4 are empty, counts tie.
            let mut postings = Postings::new();
            for fid in [0, 2, 3, 5] {
                for &id in &ids {
                    if rng.below(3) > 0 {
                        postings.push((id, (fid, 1 + rng.below(3))));
                    }
                }
            }
            let expect = ranked_index_ref(&sc, &postings, &comp);
            let got = ranked_index(&sc, postings, &comp, reader(&sc, &comp.dict));
            assert_eq!(got, expect, "round {round}: n = {n}, forged {forged}");
        }
    }

    #[test]
    fn gram_keyed_shapers_take_empty_results() {
        let (sc, comp) = (scaffold(3), corpus(false));
        let words = || reader(&sc, &comp.dict);
        let empty = TaskOutput::SequenceCount(BTreeMap::new());
        assert_eq!(sequence_count(&sc, Counts::new(), &comp, words()), empty);
        let empty = TaskOutput::RankedInvertedIndex(BTreeMap::new());
        assert_eq!(ranked_index(&sc, Postings::new(), &comp, words()), empty);
    }

    #[test]
    fn inverted_index_equals_an_insert_per_posting() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        let (sc, comp) = (scaffold(2), corpus(false));
        for round in 0..20 {
            // Unsorted tables, some empty.
            let mut tables = vec![Counts::new(); FILES as usize];
            for (fid, table) in tables.iter_mut().enumerate() {
                for w in (0..WORDS.len() as u32).rev() {
                    if rng.below(4) > fid as u64 % 3 {
                        table.push((w, 1 + rng.below(9)));
                    }
                }
            }
            let expect = inverted_index_ref(&tables, &comp);
            let got = inverted_index(&sc, tables, &comp, reader(&sc, &comp.dict), round % 2 == 0);
            assert_eq!(got.unwrap(), expect, "round {round}");
        }
    }
}
