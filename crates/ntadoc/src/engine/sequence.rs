//! The sequence tasks' half of the compressed engines: the junction
//! n-gram scan (§IV-D head/tail buffers), the per-rule sequence-list
//! caches, and the id-level results of sequence count and ranked inverted
//! index.

use std::collections::BTreeMap;

use ntadoc_grammar::Symbol;
use ntadoc_nstruct::PVec;
use ntadoc_pmem::{par, with_deferred_charges, PmemError};

use super::scaffold::gram_dram;
use super::shape::{counts_of, Counts};
use super::Session;
use crate::Result;

/// One element of the stitched "junction stream" a rule is scanned as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    /// An expanded word, tagged with the index of the body symbol
    /// (segment) it came from.
    Word { word: u32, seg: u32 },
    /// The unmaterialised middle of a long subrule: windows containing
    /// this cannot be junction n-grams (they would lie fully inside the
    /// subrule).
    Marker,
    /// A file separator: no n-gram crosses it.
    Sep,
}

impl Session {
    /// Stitch a symbol slice into the junction stream: words stay words;
    /// long subrules contribute head + marker + tail; short subrules are
    /// reconstructed completely from head/tail.
    fn junction_stream(&self, syms: &[Symbol]) -> Result<Vec<Item>> {
        let n = self.sc.cfg.ngram;
        let keep = n - 1;
        let dag = self.dag()?;
        let ht = dag.headtail.as_ref().ok_or_else(|| {
            PmemError::Unsupported(
                "junction scan needs the head/tail buffers a sequence-task init builds".into(),
            )
        })?;
        let mut stream = Vec::with_capacity(syms.len() * 2);
        for (i, s) in syms.iter().enumerate() {
            let seg = i as u32;
            if s.is_word() {
                stream.push(Item::Word { word: s.payload(), seg });
            } else if s.is_sep() {
                stream.push(Item::Sep);
            } else {
                let c = s.payload();
                let len = dag.exp_len(c);
                if len == 0 {
                    continue;
                }
                let head = ht.head(c as usize);
                if len <= 2 * keep as u64 {
                    // Full reconstruction: head plus the non-overlapping
                    // suffix of the tail.
                    for &w in &head {
                        stream.push(Item::Word { word: w, seg });
                    }
                    if len > keep as u64 {
                        let tail = ht.tail(c as usize);
                        let skip = (2 * keep as u64 - len) as usize;
                        for &w in &tail[skip..] {
                            stream.push(Item::Word { word: w, seg });
                        }
                    }
                } else {
                    for &w in &head {
                        stream.push(Item::Word { word: w, seg });
                    }
                    stream.push(Item::Marker);
                    let tail = ht.tail(c as usize);
                    for &w in &tail {
                        stream.push(Item::Word { word: w, seg });
                    }
                }
            }
        }
        self.sc.charge_items(stream.len() as u64);
        Ok(stream)
    }

    /// Slide an `n` window over the stream, yielding the words of every
    /// *junction* n-gram: windows that cross at least two segments and
    /// contain no marker/separator.
    fn junction_windows(
        &self,
        stream: &[Item],
        mut f: impl FnMut(&[u32]) -> Result<()>,
    ) -> Result<()> {
        let n = self.sc.cfg.ngram;
        if stream.len() < n {
            return Ok(());
        }
        let mut words = Vec::with_capacity(n);
        for win in stream.windows(n) {
            self.sc.charge_items(1);
            words.clear();
            let mut first_seg = None;
            let mut crosses = false;
            let mut valid = true;
            for item in win {
                match *item {
                    Item::Word { word, seg } => {
                        words.push(word);
                        match first_seg {
                            None => first_seg = Some(seg),
                            Some(s0) if s0 != seg => crosses = true,
                            _ => {}
                        }
                    }
                    Item::Marker | Item::Sep => {
                        valid = false;
                        break;
                    }
                }
            }
            if valid && crosses {
                f(&words)?;
            }
        }
        Ok(())
    }

    /// [`junction_windows`](Self::junction_windows) yielding interned ids.
    /// Controlling thread only: ids follow interning order (see
    /// [`Interner`](super::Interner)).
    fn scan_junction_windows(
        &self,
        stream: &[Item],
        mut f: impl FnMut(u32) -> Result<()>,
    ) -> Result<()> {
        self.junction_windows(stream, |words| f(self.sc.intern(words)))
    }

    /// The stream's junction n-grams as an id-sorted `(id, count)` map.
    fn junction_tally(&self, stream: &[Item]) -> Result<BTreeMap<u32, u64>> {
        let mut tally = BTreeMap::new();
        self.scan_junction_windows(stream, |id| {
            *tally.entry(id).or_insert(0u64) += 1;
            Ok(())
        })?;
        Ok(tally)
    }

    /// Build per-rule *sequence-list* caches (the bottom-up analogue of
    /// word lists, used by ranked inverted index): each rule's complete
    /// `(n-gram id, count)` table for its expansion.
    ///
    /// The pruned path fans out per dependency level like
    /// [`build_wordlist_caches`], in two parallel passes around one serial
    /// step: workers scan each rule's raw junction n-grams, the level
    /// barrier interns them in item order — nothing else runs there — and
    /// workers then fetch the subrules' lists and merge, each rule resuming
    /// its own deferred sink. Ids therefore never depend on scheduling
    /// (they equal a single worker's), and neither do the id-sorted pool
    /// bytes or the id-ordered traversal that follow.
    pub(crate) fn build_seqlist_caches(&self) -> Result<()> {
        if self.sc.cfg.pruned {
            let n = self.sc.cfg.ngram;
            for level in self.nonroot_levels() {
                let (scanned, charges) = par::par_map_timed(&level, |_, &r| -> Result<_> {
                    let body = self.dag()?.body(r);
                    let stream = self.junction_stream(&body)?;
                    // Junction windows, flat: `n` words each.
                    let mut grams: Vec<u32> = Vec::new();
                    self.junction_windows(&stream, |words| {
                        grams.extend_from_slice(words);
                        Ok(())
                    })?;
                    Ok(grams)
                });
                // Per rule: its junction n-gram ids and the interner bytes
                // they added, ledgered by the rule's merge below so that a
                // single worker's DRAM ledger reads as it always has.
                let mut interned = Vec::with_capacity(level.len());
                for grams in scanned {
                    let mut fresh_bytes = 0u64;
                    let ids: Vec<u32> = grams?
                        .chunks_exact(n)
                        .map(|words| {
                            let (id, fresh) = self.sc.interner.intern(words);
                            fresh_bytes += if fresh { gram_dram(n) } else { 0 };
                            id
                        })
                        .collect();
                    interned.push((ids, fresh_bytes));
                }
                let merged = par::par_map(&level, |i, &r| -> Result<_> {
                    with_deferred_charges(&charges[i], || {
                        let (ids, fresh_bytes) = &interned[i];
                        self.sc.note_dram(*fresh_bytes);
                        // Junction windows into a small working map, children
                        // via sorted-list merge.
                        let mut extra = BTreeMap::new();
                        for &id in ids {
                            *extra.entry(id).or_insert(0u64) += 1;
                        }
                        // (Word-list storage, reused for sequence lists.)
                        Ok(self.merge_counts(self.sub_lists(r)?, extra))
                    })
                });
                par::join_deferred(&self.sc.dev, &charges);
                for (&r, entries) in level.iter().zip(merged) {
                    let (addr, len) = self.dag()?.store_wordlist(r, &entries?)?;
                    self.op_guard(addr, len)?;
                }
            }
            return Ok(());
        }
        // Naive: everything through a growable hash table.
        self.build_caches_naive(|r| {
            let stream = self.junction_stream(&self.dag()?.body(r))?;
            let table = self.sc.scratch_table(8, false)?;
            self.scan_junction_windows(&stream, |id| table.add(id as u64, 1))?;
            Ok(table)
        })
    }

    /// Corpus-wide `(n-gram id, count)`: every rule's junction n-grams
    /// weighted by how often the rule occurs.
    pub(super) fn sequence_counts(&self) -> Result<Counts> {
        // Weight propagation only; the scans below run separately.
        self.traverse_topdown(|_, _| Ok(()))?;
        let dag = self.dag()?;
        // Naive: one growable hash counter takes every update. N-TADOC:
        // per-rule junction lists are written to the pool sequentially,
        // then k-way merged weighted by rule weight — no random NVM probing.
        let counter = if self.sc.cfg.pruned {
            None
        } else {
            // Always growable: the summation's bounds cover word lists,
            // not n-gram spaces, so a fixed capacity would be unsound.
            Some(self.sc.result_counter(self.sized(dag.dict_len() * 2), false)?)
        };
        let mut lists = Vec::new();
        for &r in &self.facts.topo {
            let w = dag.weight(r);
            self.sc.charge_items(1);
            if w == 0 {
                continue;
            }
            let stream = self.junction_stream(&dag.body(r))?;
            match &counter {
                Some(counter) => {
                    self.scan_junction_windows(&stream, |id| counter.add(id as u64, w))?
                }
                None => {
                    let entries: Counts = self.junction_tally(&stream)?.into_iter().collect();
                    let (addr, len) = dag.store_wordlist(r, &entries)?; // junction list
                    self.op_guard(addr, len)?;
                    lists.push((dag.wordlist(r), w));
                }
            }
        }
        let totals = match counter {
            Some(counter) => {
                counter.finish()?;
                counts_of(&counter.table)
            }
            None => self.merge_counts(lists, BTreeMap::new()),
        };
        // Persist the merged result (it is the task output).
        let result: PVec<(u32, u64)> =
            PVec::with_capacity(self.sc.pool.clone(), totals.len().max(1))?;
        result.extend_from_slice(&totals)?;
        self.op_guard(result.base_addr(), totals.len() * 12)?;
        if self.sc.persists() {
            result.persist();
        }
        Ok(totals)
    }

    /// Each n-gram's `(file id, count)` postings in file order: per file,
    /// its junction n-grams plus the cached sequence lists of its subrules.
    pub(super) fn ranked_postings(&self) -> Result<BTreeMap<u32, Vec<(u32, u64)>>> {
        let segs = self.r0_segments()?;
        // Result triples on the device.
        let triples: PVec<(u32, (u32, u64))> =
            PVec::with_capacity(self.sc.pool.clone(), segs.len().max(16))?;
        let mut acc: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for (fid, seg) in segs.iter().enumerate() {
            let stream = self.junction_stream(seg)?;
            let rules = seg.iter().filter(|s| s.is_rule()).map(|s| s.payload());
            let entries: Counts = if self.sc.cfg.pruned {
                let extra = self.junction_tally(&stream)?;
                let lists = rules.map(|r| Ok((self.cached_list(r)?, 1))).collect::<Result<_>>()?;
                self.merge_counts(lists, extra)
            } else {
                let table = self.sc.scratch_table(8, false)?;
                self.scan_junction_windows(&stream, |id| table.add(id as u64, 1))?;
                for r in rules {
                    for (sid, c) in self.cached_list(r)? {
                        table.add(sid as u64, c)?;
                    }
                }
                counts_of(&table)
            };
            let rows: Vec<(u32, (u32, u64))> =
                entries.iter().map(|&(sid, c)| (sid, (fid as u32, c))).collect();
            let before = triples.len();
            triples.extend_from_slice(&rows)?;
            self.op_guard(triples.addr_of(before), rows.len() * 16)?;
            for (sid, c) in entries {
                acc.entry(sid).or_default().push((fid as u32, c));
            }
        }
        if self.sc.persists() {
            triples.persist();
        }
        Ok(acc)
    }
}
