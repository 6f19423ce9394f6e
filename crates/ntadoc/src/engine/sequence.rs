//! The sequence tasks' half of the compressed engines: the junction
//! n-gram scan (§IV-D head/tail buffers), the per-rule sequence-list
//! caches, and the id-level results of sequence count and ranked inverted
//! index.

use ntadoc_grammar::Symbol;
use ntadoc_nstruct::{PVec, WordBuf};
use ntadoc_pmem::{par, with_deferred_charges, PmemError};

use super::scaffold::gram_dram;
use super::shape::{counts_of, Counts, Postings};
use super::tasks::{release_work, tally, with_work, Work};
use super::Session;
use crate::dag::PoolBuf;
use crate::Result;

/// One element of the stitched "junction stream" a rule is scanned as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
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

/// `ws` as the words of segment `seg`.
fn words(ws: &[u32], seg: u32) -> impl Iterator<Item = Item> + '_ {
    ws.iter().map(move |&word| Item::Word { word, seg })
}

impl Session {
    /// Stitch a symbol slice into the junction stream, in `stream`: words
    /// stay words; long subrules contribute head + marker + tail; short
    /// subrules are reconstructed completely from head/tail.
    fn junction_stream(
        &self,
        syms: &[Symbol],
        buf: &mut WordBuf,
        stream: &mut Vec<Item>,
    ) -> Result<()> {
        let n = self.sc.cfg.ngram;
        let keep = n - 1;
        let dag = self.dag()?;
        let ht = dag.headtail.as_ref().ok_or_else(|| {
            PmemError::Unsupported(
                "junction scan needs the head/tail buffers a sequence-task init builds".into(),
            )
        })?;
        stream.clear();
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
                stream.extend(words(ht.head(c as usize, buf), seg));
                if len > 2 * keep as u64 {
                    stream.push(Item::Marker);
                    stream.extend(words(ht.tail(c as usize, buf), seg));
                } else if len > keep as u64 {
                    // Full reconstruction: the head plus the non-overlapping
                    // suffix of the tail.
                    let skip = (2 * keep as u64 - len) as usize;
                    stream.extend(words(&ht.tail(c as usize, buf)[skip..], seg));
                }
            }
        }
        self.sc.charge_items(stream.len() as u64);
        Ok(())
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
        let (mut words, mut windows) = (Vec::with_capacity(n), 0);
        let scanned = stream.windows(n).try_for_each(|win| {
            windows += 1;
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
            Ok(())
        });
        // Every window scanned, the one that failed included.
        self.sc.charge_items(windows);
        scanned
    }

    /// [`junction_windows`](Self::junction_windows) yielding interned ids.
    /// Controlling thread only: ids follow interning order (see
    /// [`Interner`](super::Interner)).
    fn scan_junction_windows(
        &self,
        stream: &[Item],
        mut f: impl FnMut(u32) -> Result<()>,
    ) -> Result<()> {
        self.junction_windows(stream, |words| f(self.sc.intern(words)?))
    }

    /// The ids of the stream's junction n-grams, one per window, in `ids`:
    /// the windows' words gathered, then interned under one lock.
    fn junction_ids(&self, stream: &[Item], ids: &mut Vec<u32>) -> Result<()> {
        ids.clear();
        self.junction_windows(stream, |words| {
            ids.extend_from_slice(words);
            Ok(())
        })?;
        self.sc.intern_flat(ids)
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
                let (scanned, charges) = par::par_map_timed(&level, |_, &r| {
                    with_work(|w| {
                        let body = self.dag()?.body(r, &mut w.view);
                        self.junction_stream(body, &mut w.ht, &mut w.stream)?;
                        // Junction windows, flat: `n` words each.
                        let mut grams: Vec<u32> = Vec::new();
                        self.junction_windows(&w.stream, |words| {
                            grams.extend_from_slice(words);
                            Ok(())
                        })?;
                        Ok(grams)
                    })
                });
                // Per rule: its junction n-gram ids and the interner bytes
                // they added. Those bytes and each merge's cursors are
                // ledgered after the merges, rule by rule, as one worker
                // books them: booked from the workers, a cursor buffer
                // would land on whichever rules' bytes were in by then, and
                // the DRAM peak would follow the schedule.
                let mut interned = Vec::with_capacity(level.len());
                for grams in scanned {
                    let (mut ids, mut fresh) = (grams?, 0);
                    self.sc.interner.intern_flat(&mut ids, n, &mut fresh)?;
                    interned.push((ids, fresh * gram_dram(n)));
                }
                let merged = par::par_map(&level, |i, &r| {
                    with_deferred_charges(&charges[i], || {
                        with_work(|w| {
                            // Junction windows tallied, children via
                            // sorted-list merge.
                            w.ids.clear();
                            w.ids.extend_from_slice(&interned[i].0);
                            w.merge.tally(&mut w.ids);
                            // (Word-list storage, reused for sequence lists.)
                            self.add_sub_lists(r, w)?;
                            Ok(self.merged_unledgered(&mut w.merge))
                        })
                    })
                });
                par::join_deferred(&self.sc.dev, &charges);
                for (merge, (_, fresh_bytes)) in merged.iter().zip(&interned) {
                    self.sc.note_dram(*fresh_bytes);
                    if let Ok((_, cursors)) = merge {
                        self.sc.note_transient_dram(*cursors);
                    }
                }
                for (&r, merge) in level.iter().zip(merged) {
                    let (addr, len) = self.dag()?.store_wordlist(r, &merge?.0)?;
                    self.op_guard(addr, len)?;
                }
            }
            release_work();
            return Ok(());
        }
        // Naive: everything through a growable hash table.
        self.build_caches_naive(|r, w| {
            let body = self.dag()?.body(r, &mut w.view);
            self.junction_stream(body, &mut w.ht, &mut w.stream)?;
            let table = self.sc.scratch_table(8, false)?;
            self.scan_junction_windows(&w.stream, |id| table.add(id as u64, 1))?;
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
        let mut w = Work::default();
        let mut junctions: Counts = Vec::new();
        for &r in &self.facts.topo {
            let weight = dag.weight(r);
            self.sc.charge_items(1);
            if weight == 0 {
                continue;
            }
            self.junction_stream(dag.body(r, &mut w.view), &mut w.ht, &mut w.stream)?;
            match &counter {
                Some(counter) => {
                    self.scan_junction_windows(&w.stream, |id| counter.add(id as u64, weight))?
                }
                None => {
                    self.junction_ids(&w.stream, &mut w.ids)?;
                    junctions.clear();
                    junctions.extend(tally(&mut w.ids));
                    let (addr, len) = dag.store_wordlist(r, &junctions)?; // junction list
                    self.op_guard(addr, len)?;
                    w.merge.list(dag.wordlist(r, &mut w.list)?, weight);
                }
            }
        }
        let totals = match counter {
            Some(counter) => {
                counter.finish()?;
                counter.table.observe(&self.sc.obs.metrics, "result-table");
                counts_of(&counter.table)
            }
            None => self.merged(&mut w.merge),
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

    /// Every file's `(n-gram id, count)` postings, file after file: per
    /// file, its junction n-grams plus the cached sequence lists of its
    /// subrules. The device result holds them as `(n-gram id, (file id,
    /// count))` triples, allocated once from the corpus's n-gram windows
    /// when the summation is on (§IV-C) and grown from one per file when
    /// it is off.
    pub(super) fn ranked_postings(&self) -> Result<Postings> {
        let (mut r0, mut w) = (PoolBuf::default(), Work::default());
        let body = self.r0_body(&mut r0)?;
        let segs = || body.split(|s| s.is_sep());
        let windows = self.ngram_windows as usize;
        let start = if self.sc.cfg.presize { windows } else { segs().count().max(16) };
        // Result triples on the device, one file's at a time on the host.
        let triples: PVec<(u32, (u32, u64))> = PVec::with_capacity(self.sc.pool.clone(), start)?;
        let (mut postings, mut file_triples) = (Postings::with_capacity(windows), Vec::new());
        for (fid, seg) in segs().enumerate() {
            self.junction_stream(seg, &mut w.ht, &mut w.stream)?;
            let rules = seg.iter().filter(|s| s.is_rule()).map(|s| s.payload());
            let entries = if self.sc.cfg.pruned {
                self.junction_ids(&w.stream, &mut w.ids)?;
                w.merge.tally(&mut w.ids);
                for r in rules {
                    w.merge.list(self.cached_list(r, &mut w.list)?, 1);
                }
                self.merged(&mut w.merge)
            } else {
                let table = self.sc.scratch_table(8, false)?;
                self.scan_junction_windows(&w.stream, |id| table.add(id as u64, 1))?;
                for r in rules {
                    for &(sid, c) in self.cached_list(r, &mut w.list)? {
                        table.add(sid as u64, c)?;
                    }
                }
                counts_of(&table)
            };
            postings.push_file(&entries)?;
            file_triples.clear();
            file_triples.extend(entries.iter().map(|&(sid, c)| (sid, (fid as u32, c))));
            let before = triples.len() as u64;
            triples.extend_from_slice(&file_triples)?;
            // Where this file's triples landed (the vector may have moved).
            self.op_guard(triples.base_addr() + before * 16, entries.len() * 16)?;
        }
        if self.sc.persists() {
            triples.persist();
        }
        triples.observe(&self.sc.obs.metrics, "ranked-triples");
        Ok(postings)
    }
}
