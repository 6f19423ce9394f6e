//! The one task back-end: id-level results → [`TaskOutput`].
//!
//! Every engine computes a task in two steps. The first is its own —
//! a DAG traversal, a merge over cached word lists, a scan of the token
//! stream — and ends in dictionary ids: `(word, count)` lists, per-file
//! tables, `(n-gram, count)` lists. The second is the same for all of
//! them and lives here, one function per task: order, rank and cut the
//! id-level result, charge the modeled sort, and materialise strings
//! through the caller's `word` lookup (a dictionary read on the device,
//! or an index into strings a serve session fetched once). Batch, serve
//! and the uncompressed baseline therefore shape results with the same
//! code in the same device-access order.

use std::collections::BTreeMap;

use ntadoc_nstruct::{PHashTable, PVec};

use super::RunScaffold;
use crate::result::TaskOutput;
use crate::Result;

/// An id-level result: `(word or n-gram id, count)` pairs.
pub(crate) type Counts = Vec<(u32, u64)>;

/// A counter table's `(key, count)` entries, keys narrowed back to ids.
pub(crate) fn counts_of(table: &PHashTable) -> Counts {
    table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect()
}

/// Word count: the counts keyed by word string.
pub(crate) fn word_count(counts: Counts, word: impl Fn(u32) -> String) -> TaskOutput {
    TaskOutput::WordCount(counts.into_iter().map(|(wid, c)| (word(wid), c)).collect())
}

/// Sort: materialise the strings, then sort alphabetically.
pub(crate) fn sort(sc: &RunScaffold, counts: Counts, word: impl Fn(u32) -> String) -> TaskOutput {
    let mut rows: Vec<(String, u64)> = counts.into_iter().map(|(wid, c)| (word(wid), c)).collect();
    sc.charge_sort(rows.len() as u64);
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    TaskOutput::Sort(rows)
}

/// Term vector: each file's `top_k` words, count descending with the
/// dictionary id as the deterministic tiebreak.
pub(crate) fn term_vector(
    sc: &RunScaffold,
    tables: Vec<Counts>,
    file_names: &[String],
    word: impl Fn(u32) -> String,
) -> TaskOutput {
    let mut out = Vec::with_capacity(tables.len());
    for (fid, mut entries) in tables.into_iter().enumerate() {
        sc.charge_sort(entries.len() as u64);
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(sc.cfg.top_k);
        let top = entries.into_iter().map(|(wid, c)| (word(wid), c)).collect();
        out.push((file_names[fid].clone(), top));
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
    file_names: &[String],
    word: impl Fn(u32) -> String,
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
    // is a charged dictionary read.
    let mut by_word: Vec<Option<(String, Vec<String>)>> = Vec::new();
    for (fid, mut entries) in tables.into_iter().enumerate() {
        // Deterministic order within a file.
        entries.sort_unstable_by_key(|e| e.0);
        sc.charge_sort(entries.len() as u64);
        for (wid, _) in entries {
            if let Some(pairs) = &pairs {
                pairs.push((wid, fid as u32))?;
            }
            let name = word(wid);
            if by_word.len() <= wid as usize {
                by_word.resize_with(wid as usize + 1, || None);
            }
            match &mut by_word[wid as usize] {
                Some((_, files)) => files.push(file_names[fid].clone()),
                unseen => *unseen = Some((name, vec![file_names[fid].clone()])),
            }
        }
    }
    match pairs {
        Some(pairs) if sc.persists() => pairs.persist(),
        _ => {}
    }
    Ok(TaskOutput::InvertedIndex(by_word.into_iter().flatten().collect()))
}

/// The strings of an n-gram's words.
fn gram_words(gram: &[u32], word: &impl Fn(u32) -> String) -> Vec<String> {
    gram.iter().map(|&w| word(w)).collect()
}

/// Sequence count: `(n-gram id, count)` keyed by the n-gram's words.
pub(crate) fn sequence_count(
    sc: &RunScaffold,
    counts: Counts,
    word: impl Fn(u32) -> String,
) -> TaskOutput {
    let grams = sc.interner.grams();
    TaskOutput::SequenceCount(
        counts.into_iter().map(|(id, c)| (gram_words(grams.get(id), &word), c)).collect(),
    )
}

/// Ranked inverted index: n-gram → `(file, count)`, count descending with
/// the file id as the tiebreak. `postings` holds each n-gram's
/// `(file id, count)` in file order.
pub(crate) fn ranked_index(
    sc: &RunScaffold,
    postings: BTreeMap<u32, Vec<(u32, u64)>>,
    file_names: &[String],
    word: impl Fn(u32) -> String,
) -> TaskOutput {
    let grams = sc.interner.grams();
    // Rows in n-gram id order — the order the dictionary is read in — then
    // one sort and a bulk build (`collect` does both) instead of an insert
    // per row comparing `Vec<String>` keys down the tree.
    let mut rows = Vec::with_capacity(postings.len());
    for (sid, mut files) in postings {
        sc.charge_sort(files.len() as u64);
        files.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let gram = gram_words(grams.get(sid), &word);
        let ranked: Vec<(String, u64)> =
            files.into_iter().map(|(fid, c)| (file_names[fid as usize].clone(), c)).collect();
        rows.push((gram, ranked));
    }
    TaskOutput::RankedInvertedIndex(rows.into_iter().collect())
}
