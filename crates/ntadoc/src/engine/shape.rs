//! The one task back-end: id-level results → [`TaskRows`].
//!
//! Every engine computes a task in two steps. The first is its own —
//! a DAG traversal, a merge over cached word lists, a scan of the token
//! stream — and ends in dictionary ids: `(word, count)` lists, per-file
//! tables, `(n-gram, count)` lists, per-file `(n-gram, count)` postings.
//! The second is the same for all of them and lives here, one function per
//! task: order, rank and cut the id-level result, charge the modeled sort,
//! read every word the result names through the caller's [`WordReader`] —
//! the model pays for a dictionary read per word written, in the order the
//! words are produced, and for an n-gram keyed result once per distinct
//! word, in id order — and lay the ids out as [`TaskRows`]. Rows keyed by
//! words are ordered by integer rank ([`ranks`], once per run scaffold);
//! no string is built. Batch, serve and the uncompressed baseline therefore
//! shape results with the same code in the same device-access order.

use std::sync::Arc;

use ntadoc_grammar::{Compressed, Dictionary};
use ntadoc_nstruct::{PHashTable, PVec};
use ntadoc_pmem::PmemError;

use super::RunScaffold;
use crate::dag::WordReader;
use crate::result::{Task, TaskRows};
use crate::Result;

/// An id-level result: `(word or n-gram id, count)` pairs.
pub(crate) type Counts = Vec<(u32, u64)>;

/// The id-level ranked index: each file's `(n-gram id, count)` postings,
/// file after file, in one arena.
#[derive(Debug, Default)]
pub(crate) struct Postings {
    /// Each posting's n-gram id.
    ids: Vec<u32>,
    /// Each posting's count, beside its id.
    counts: Vec<u64>,
    /// Where each file's postings end.
    ends: Vec<u32>,
}

impl Postings {
    /// An empty arena with room for `postings` postings.
    pub fn with_capacity(postings: usize) -> Postings {
        let (ids, counts) = (Vec::with_capacity(postings), Vec::with_capacity(postings));
        Postings { ids, counts, ends: Vec::new() }
    }

    /// Append the next file's postings.
    pub fn push_file(&mut self, entries: &[(u32, u64)]) -> Result<()> {
        self.ids.extend(entries.iter().map(|e| e.0));
        self.counts.extend(entries.iter().map(|e| e.1));
        self.ends.push(end_of(self.ids.len())?);
        Ok(())
    }

    /// Each file's id as a `u32` and its postings' ids and counts.
    fn files(&self) -> impl Iterator<Item = (u32, &[u32], &[u64])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.ends.iter().zip(starts).zip(0..).map(|((&end, start), file)| {
            let at = start as usize..end as usize;
            (file, &self.ids[at.clone()], &self.counts[at])
        })
    }
}

/// A counter table's `(key, count)` entries, keys narrowed back to ids.
pub(crate) fn counts_of(table: &PHashTable) -> Counts {
    table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect()
}

/// `len` items as a list end in [`TaskRows`], which counts them in `u32`.
fn end_of(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| PmemError::TooLarge {
        what: "result items",
        len: len as u64,
        max: u32::MAX as u64,
    })
}

/// Of neighbours `same` calls equal, keep the last: what collecting the
/// rows into a map does with equal keys.
fn keep_last<T: Copy>(rows: &mut Vec<T>, same: impl Fn(&T, &T) -> bool) {
    rows.dedup_by(|later, kept| {
        let equal = same(later, kept);
        if equal {
            *kept = *later;
        }
        equal
    });
}

/// Rows keyed by one word, in word order. Word count is a map: of two ids
/// that name one string — a forged image can hold such — it has the later
/// row; sort is a list and has both.
fn by_word(
    sc: &RunScaffold,
    task: Task,
    mut counts: Counts,
    comp: &Arc<Compressed>,
    mut words: WordReader,
) -> TaskRows {
    words.touch_all(counts.iter().map(|&(w, _)| w));
    let rank = sc.ranks(&comp.dict);
    counts.sort_by_key(|&(w, _)| rank[w as usize]);
    if task == Task::WordCount {
        keep_last(&mut counts, |a, b| rank[a.0 as usize] == rank[b.0 as usize]);
    }
    let (keys, counts) = counts.into_iter().unzip();
    TaskRows::new(task, comp.clone(), 1, keys, Vec::new(), Vec::new(), counts)
}

/// Word count: the counts keyed by word.
pub(crate) fn word_count(
    sc: &RunScaffold,
    counts: Counts,
    comp: &Arc<Compressed>,
    words: WordReader,
) -> TaskRows {
    by_word(sc, Task::WordCount, counts, comp, words)
}

/// Sort: every `(word, count)` in alphabetical order.
pub(crate) fn sort(
    sc: &RunScaffold,
    counts: Counts,
    comp: &Arc<Compressed>,
    words: WordReader,
) -> TaskRows {
    let rows = by_word(sc, Task::Sort, counts, comp, words);
    sc.charge_sort(rows.len() as u64);
    rows
}

/// Words a term-vector row keeps per file.
pub(crate) const TOP_K: usize = 10;

/// Term vector: each file's [`TOP_K`] words, count descending with the
/// dictionary id as the deterministic tiebreak.
pub(crate) fn term_vector(
    sc: &RunScaffold,
    tables: Vec<Counts>,
    comp: &Arc<Compressed>,
    mut words: WordReader,
) -> Result<TaskRows> {
    let (mut ends, mut items, mut counts) = (Vec::with_capacity(tables.len()), vec![], vec![]);
    for mut entries in tables {
        sc.charge_sort(entries.len() as u64);
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(TOP_K);
        words.touch_all(entries.iter().map(|&(w, _)| w));
        for (w, c) in entries {
            items.push(w);
            counts.push(c);
        }
        ends.push(end_of(items.len())?);
    }
    let files = (0..ends.len() as u32).collect();
    Ok(TaskRows::new(Task::TermVector, comp.clone(), 1, files, ends, items, counts))
}

/// Inverted index: word → the files containing it, in file order. With
/// `persist_pairs` the `(word, file)` pairs are also the persisted result:
/// pushed to a device vector as they are produced and flushed at the end
/// (a run's result); without, nothing is written (a served response).
pub(crate) fn inverted_index(
    sc: &RunScaffold,
    mut tables: Vec<Counts>,
    comp: &Arc<Compressed>,
    mut words: WordReader,
    persist_pairs: bool,
) -> Result<TaskRows> {
    let pairs: Option<PVec<(u32, u32)>> = if persist_pairs {
        let total = tables.iter().map(|t| t.len()).sum::<usize>();
        Some(PVec::with_capacity(sc.pool.clone(), total.max(1))?)
    } else {
        None
    };
    // Every posting looks its word up, in emission order: the lookup is a
    // charged dictionary read. Meanwhile the postings are counted per word.
    let mut postings = vec![0u32; comp.dict.len()];
    for (fid, entries) in tables.iter_mut().enumerate() {
        // Deterministic order within a file.
        entries.sort_unstable_by_key(|e| e.0);
        sc.charge_sort(entries.len() as u64);
        for &(wid, _) in entries.iter() {
            if let Some(pairs) = &pairs {
                pairs.push((wid, fid as u32))?;
            }
            words.touch(wid);
            postings[wid as usize] += 1;
        }
    }
    match pairs {
        Some(pairs) if sc.persists() => pairs.persist(),
        _ => {}
    }
    // The words that occur, in word order; of two ids naming one string the
    // later, as a map built in id order keeps it.
    let rank = sc.ranks(&comp.dict);
    let mut keys: Vec<u32> =
        (0..postings.len() as u32).filter(|&w| postings[w as usize] > 0).collect();
    keys.sort_by_key(|&w| rank[w as usize]);
    keep_last(&mut keys, |&a, &b| rank[a as usize] == rank[b as usize]);
    // Each kept word's list is filled file after file from where it starts.
    let mut cursor = vec![u32::MAX; postings.len()];
    let mut ends = Vec::with_capacity(keys.len());
    let mut total = 0;
    for &w in &keys {
        cursor[w as usize] = total as u32; // the end before, which fitted
        total += postings[w as usize] as usize;
        ends.push(end_of(total)?);
    }
    let mut items = vec![0u32; total];
    for (fid, entries) in tables.iter().enumerate() {
        for &(wid, _) in entries {
            let at = &mut cursor[wid as usize];
            if *at != u32::MAX {
                items[*at as usize] = fid as u32;
                *at += 1;
            }
        }
    }
    Ok(TaskRows::new(Task::InvertedIndex, comp.clone(), 1, keys, ends, items, Vec::new()))
}

/// Each dictionary id's alphabetical rank. Ids order like their strings —
/// distinct ids name distinct strings, and the equal strings only a forged
/// image can hold share a rank — so rows keyed by words sort by rank
/// tuples exactly as they would by the words themselves.
pub(super) fn ranks(dict: &Dictionary) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..dict.len() as u32).collect();
    ids.sort_unstable_by_key(|&id| dict.word(id));
    let mut rank = vec![0u32; ids.len()];
    for pair in ids.windows(2) {
        let step = (dict.word(pair[0]) != dict.word(pair[1])) as u32;
        rank[pair[1] as usize] = rank[pair[0] as usize] + step;
    }
    rank
}

/// `rows` rows keyed by n-gram id (row `r` by `id_of(r)`) → the order to
/// lay them out in, keyed by the n-grams' words, and those words in that
/// order: the `keys` arena. The dictionary is read once per distinct word
/// the rows name, in id order. The order lists row numbers by rank tuple
/// — the order of a map keyed by the words — and, of rows whose n-grams
/// read the same, holds the last.
fn gram_order(
    sc: &RunScaffold,
    rows: usize,
    id_of: impl Fn(u32) -> u32,
    dict: &Dictionary,
    mut words: WordReader,
) -> (Vec<u32>, Vec<u32>) {
    let (n, rank, grams) = (sc.cfg.ngram, sc.ranks(dict), sc.interner.grams());
    let gram = |row: u32| grams.get(id_of(row));
    // One bit per dictionary word: whether a row names it.
    let mut named = vec![0u64; rank.len().div_ceil(64)];
    let mut ranked: Vec<u32> = Vec::with_capacity(rows * n);
    for &w in (0..rows as u32).flat_map(gram) {
        named[w as usize / 64] |= 1 << (w % 64);
        ranked.push(rank[w as usize]);
    }
    let is_named = |w: &u32| named[*w as usize / 64] >> (w % 64) & 1 == 1;
    words.touch_all((0..rank.len() as u32).filter(is_named));
    let order = rank_order(&ranked, n, rank.len().saturating_sub(1) as u32);
    // The kept rows' words, where their ranks were.
    ranked.clear();
    order.iter().for_each(|&row| ranked.extend_from_slice(gram(row)));
    (order, ranked)
}

/// The rows of `ranked` — `n` ranks each, none above `top` — in the order
/// of their rank tuples, of equal tuples the last row only: a stable sort
/// by tuple and [`keep_last`]. Rows sort by as many leading ranks as fit
/// into one `u64`, then by the rest of the tuple, then by row number.
fn rank_order(ranked: &[u32], n: usize, top: u32) -> Vec<u32> {
    let bits = (u32::BITS - top.leading_zeros()).max(1);
    let packed = n.min((u64::BITS / bits) as usize);
    let row = |at: u32| &ranked[at as usize * n..][..n];
    let mut keyed: Vec<(u64, u32)> = (0..(ranked.len() / n) as u32)
        .map(|at| (row(at)[..packed].iter().fold(0, |k, &r| k << bits | r as u64), at))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        let rest = |at: u32| &row(at)[packed..];
        a.0.cmp(&b.0).then_with(|| rest(a.1).cmp(rest(b.1))).then(a.1.cmp(&b.1))
    });
    let mut order: Vec<u32> = keyed.into_iter().map(|(_, at)| at).collect();
    keep_last(&mut order, |&a, &b| row(a) == row(b));
    order
}

/// Sequence count: `(n-gram id, count)` keyed by the n-gram's words.
pub(crate) fn sequence_count(
    sc: &RunScaffold,
    counts: Counts,
    comp: &Arc<Compressed>,
    words: WordReader,
) -> TaskRows {
    let (order, keys) =
        gram_order(sc, counts.len(), |row| counts[row as usize].0, &comp.dict, words);
    let counts = order.iter().map(|&row| counts[row as usize].1).collect();
    TaskRows::new(Task::SequenceCount, comp.clone(), sc.cfg.ngram, keys, vec![], vec![], counts)
}

/// Ranked inverted index: n-gram → `(file, count)`, count descending with
/// the file id as the tiebreak. The postings are counted per n-gram, the
/// n-grams laid out in `gram_order`, and each file's postings scattered
/// to where its n-gram's run stands; a run then holds its files in file
/// order and is ranked in place.
pub(crate) fn ranked_index(
    sc: &RunScaffold,
    postings: Postings,
    comp: &Arc<Compressed>,
    words: WordReader,
) -> Result<TaskRows> {
    // Postings per n-gram id; every list end below is at most their sum,
    // which `Postings` holds in a `u32`.
    let top = postings.ids.iter().max().map_or(0, |&id| id as usize + 1);
    let mut at = vec![0u32; top];
    postings.ids.iter().for_each(|&id| at[id as usize] += 1);
    // The n-grams with postings, `(id, postings)` in id order.
    let runs: Vec<(u32, u32)> =
        (0..top as u32).map(|id| (id, at[id as usize])).filter(|run| run.1 > 0).collect();
    runs.iter().for_each(|run| sc.charge_sort(run.1 as u64));
    let (order, keys) = gram_order(sc, runs.len(), |row| runs[row as usize].0, &comp.dict, words);
    // `at` turns into each n-gram's cursor: where its next posting goes,
    // none for the rows `gram_order` dropped.
    runs.iter().for_each(|&(id, _)| at[id as usize] = u32::MAX);
    let (mut ends, mut total) = (Vec::with_capacity(order.len()), 0);
    for &row in &order {
        let (id, len) = runs[row as usize];
        at[id as usize] = total;
        total += len;
        ends.push(total);
    }
    let (mut items, mut counts) = (vec![0u32; total as usize], vec![0u64; total as usize]);
    for (file, ids, file_counts) in postings.files() {
        for (&id, &count) in ids.iter().zip(file_counts) {
            let cursor = &mut at[id as usize];
            if *cursor != u32::MAX {
                items[*cursor as usize] = file;
                counts[*cursor as usize] = count;
                *cursor += 1;
            }
        }
    }
    // Each run ranked in place: count descending, then file.
    let (mut run_rows, mut start): (Vec<(u64, u32)>, _) = (Vec::new(), 0);
    for &end in &ends {
        let run = start as usize..end as usize;
        run_rows.clear();
        run_rows
            .extend(counts[run.clone()].iter().copied().zip(items[run.clone()].iter().copied()));
        run_rows.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (i, (count, file)) in run.zip(run_rows.iter().copied()) {
            (counts[i], items[i]) = (count, file);
        }
        start = end;
    }
    let n = sc.cfg.ngram;
    Ok(TaskRows::new(Task::RankedInvertedIndex, comp.clone(), n, keys, ends, items, counts))
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use ntadoc_grammar::{compress_corpus, TokenizerConfig};
    use ntadoc_pmem::{DeviceProfile, PoolLayout};

    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::LOG_BYTES;
    use crate::result::TaskOutput;

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
    fn corpus(forged: bool) -> Arc<Compressed> {
        let files: Vec<_> = (0..FILES).map(|f| (format!("file{f}"), WORDS.join(" "))).collect();
        let mut comp = compress_corpus(&files, &TokenizerConfig::default());
        if forged {
            let words = WORDS.iter().chain(&["ab"]).map(|w| w.to_string()).collect();
            comp.dict = Dictionary::from_words(words);
        }
        Arc::new(comp)
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

    /// Each file's `(n-gram id, count)` postings, as the arena holds them.
    fn ranked_index_ref(sc: &RunScaffold, files: &[Counts], comp: &Compressed) -> TaskOutput {
        let mut by_gram: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for (fid, entries) in files.iter().enumerate() {
            for &(sid, c) in entries {
                by_gram.entry(sid).or_default().push((fid as u32, c));
            }
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

    /// Postings inserted one by one under their word id, the map then built
    /// in id order: of two ids that read alike it keeps the later's files.
    fn inverted_index_ref(tables: &[Counts], comp: &Compressed) -> TaskOutput {
        let mut by_id: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for (fid, table) in tables.iter().enumerate() {
            let mut entries = table.clone();
            entries.sort_unstable_by_key(|e| e.0);
            for (wid, _) in entries {
                by_id.entry(wid).or_default().push(comp.file_names[fid].clone());
            }
        }
        let named = by_id.into_iter().map(|(wid, files)| (comp.dict.word(wid).to_owned(), files));
        TaskOutput::InvertedIndex(named.collect())
    }

    #[test]
    fn ranks_order_ids_like_their_strings() {
        for forged in [false, true] {
            let dict = &corpus(forged).dict;
            let rank = ranks(dict);
            for (a, x) in dict.iter() {
                for (b, y) in dict.iter() {
                    assert_eq!(rank[a as usize].cmp(&rank[b as usize]), x.cmp(y), "{x} vs {y}");
                }
            }
        }
        assert!(ranks(&Dictionary::new()).is_empty());
    }

    /// The packed-prefix order is a stable sort by rank tuple with the
    /// last of equal tuples kept, for every `n` and for tuples longer than
    /// the prefix — many of them equal, as forged duplicate ranks make.
    #[test]
    fn rank_order_is_a_stable_sort_keeping_the_last() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for round in 0..600 {
            let n = 2 + round % 5;
            // From one rank to the full `u32` range: up to 64, 21, 4 and 2
            // ranks fit in the prefix.
            let top = [0, 1, 3, 5, 1 << 20, u32::MAX][round / 5 % 6];
            // A small alphabet of ranks, so tuples often share a prefix or
            // are equal outright.
            let alphabet: Vec<u32> =
                (0..1 + rng.below(4)).map(|_| rng.below(top as u64 + 1) as u32).collect();
            let rows = rng.below(40) as usize;
            let ranked: Vec<u32> = (0..rows * n)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect();
            let key = |at: u32| &ranked[at as usize * n..][..n];
            let mut want: Vec<u32> = (0..rows as u32).collect();
            want.sort_by(|&a, &b| key(a).cmp(key(b)));
            keep_last(&mut want, |&a, &b| key(a) == key(b));
            assert_eq!(rank_order(&ranked, n, top), want, "round {round}: n = {n}, top {top}");
        }
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
            let got = sequence_count(&sc, counts, &comp, reader(&sc, &comp.dict));
            assert_eq!(got.into_strings(), expect, "round {round}: n = {n}, forged {forged}");

            // Postings file after file, in interning order; files 1 and 4
            // are empty, counts tie.
            let mut files = vec![Counts::new(); FILES as usize];
            for (_, entries) in files.iter_mut().enumerate().filter(|(fid, _)| fid % 3 != 1) {
                for &id in &ids {
                    if rng.below(3) > 0 {
                        entries.push((id, 1 + rng.below(3)));
                    }
                }
            }
            let mut postings = Postings::default();
            files.iter().for_each(|entries| postings.push_file(entries).unwrap());
            let expect = ranked_index_ref(&sc, &files, &comp);
            let got = ranked_index(&sc, postings, &comp, reader(&sc, &comp.dict)).unwrap();
            assert_eq!(got.into_strings(), expect, "round {round}: n = {n}, forged {forged}");
        }
    }

    /// Shaping reads the dictionary once per distinct word the result
    /// names, however many n-grams name it: two offset loads and one text
    /// read each.
    #[test]
    fn gram_keyed_shapers_read_each_named_word_once() {
        let mut rng = Rng(0xBF58_476D_1CE4_E5B9);
        for round in 0..20 {
            let (n, forged) = (2 + round % 6, round % 4 == 3);
            let (sc, comp) = (scaffold(n), corpus(forged));
            let count = 1 + rng.below(30) as usize;
            let ids = grams(&sc, &comp.dict, &mut rng, count);
            let named: BTreeSet<u32> =
                ids.iter().flat_map(|&id| sc.interner.grams().get(id).to_vec()).collect();
            let text: usize = named.iter().map(|&w| comp.dict.word(w).len()).sum();
            let want = (3 * named.len() as u64, (16 * named.len() + text) as u64);
            let reads = |shape: &dyn Fn(WordReader)| {
                let words = reader(&sc, &comp.dict);
                let before = sc.dev.stats();
                shape(words);
                let after = sc.dev.stats();
                (after.reads - before.reads, after.bytes_read - before.bytes_read)
            };
            let counts: Counts = ids.iter().map(|&id| (id, 1)).collect();
            let got = reads(&|words| drop(sequence_count(&sc, counts.clone(), &comp, words)));
            assert_eq!(got, want, "round {round}: sequence count, n = {n}");
            let got = reads(&|words| {
                let mut postings = Postings::default();
                postings.push_file(&counts).unwrap();
                postings.push_file(&counts[..counts.len() / 2]).unwrap();
                drop(ranked_index(&sc, postings, &comp, words).unwrap());
            });
            assert_eq!(got, want, "round {round}: ranked index, n = {n}");
        }
    }

    #[test]
    fn gram_keyed_shapers_take_empty_results() {
        let (sc, comp) = (scaffold(3), corpus(false));
        let words = || reader(&sc, &comp.dict);
        let empty = TaskOutput::SequenceCount(BTreeMap::new());
        assert_eq!(sequence_count(&sc, Counts::new(), &comp, words()).into_strings(), empty);
        let empty = TaskOutput::RankedInvertedIndex(BTreeMap::new());
        for files in [0, 3] {
            let mut postings = Postings::default();
            (0..files).for_each(|_| postings.push_file(&[]).unwrap());
            let got = ranked_index(&sc, postings, &comp, words()).unwrap();
            assert_eq!(got.into_strings(), empty);
        }
    }

    #[test]
    fn inverted_index_equals_an_insert_per_posting() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for round in 0..20 {
            let (sc, comp) = (scaffold(2), corpus(round % 4 == 3));
            // Unsorted tables, some empty.
            let mut tables = vec![Counts::new(); FILES as usize];
            for (fid, table) in tables.iter_mut().enumerate() {
                for w in (0..comp.dict.len() as u32).rev() {
                    if rng.below(4) > fid as u64 % 3 {
                        table.push((w, 1 + rng.below(9)));
                    }
                }
            }
            let expect = inverted_index_ref(&tables, &comp);
            let got = inverted_index(&sc, tables, &comp, reader(&sc, &comp.dict), round % 2 == 0);
            assert_eq!(got.unwrap().into_strings(), expect, "round {round}");
        }
    }

    #[test]
    fn word_keyed_shapers_equal_a_collect_of_their_strings() {
        let mut rng = Rng(0x94D0_49BB_1331_11EB);
        for round in 0..20 {
            let (sc, comp) = (scaffold(2), corpus(round % 2 == 1));
            // Every word once, in neither id nor word order.
            let mut counts: Counts =
                (0..comp.dict.len() as u32).map(|w| (w, 1 + rng.below(9))).collect();
            counts.rotate_left(rng.below(14) as usize);
            counts.swap(0, 1 + rng.below(13) as usize);
            let named = || counts.iter().map(|&(w, c)| (comp.dict.word(w).to_owned(), c));
            // A map keeps the later of two rows that read alike; a list
            // keeps both, in the order they came.
            let expect = TaskOutput::WordCount(named().collect());
            let words = || reader(&sc, &comp.dict);
            let got = word_count(&sc, counts.clone(), &comp, words());
            assert_eq!(got.into_strings(), expect, "round {round}");
            let mut rows: Vec<(String, u64)> = named().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            let got = sort(&sc, counts.clone(), &comp, words());
            assert_eq!(got.into_strings(), TaskOutput::Sort(rows), "round {round}");
        }
    }
}
