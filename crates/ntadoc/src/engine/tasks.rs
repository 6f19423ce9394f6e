//! The compressed engines' half of every task: shared traversal
//! machinery, the word-list caches, and the id-level word and per-file
//! counts. Sequence tasks are in [`super::sequence`]; turning id-level
//! results into [`TaskRows`] is [`super::shape`]'s job.
//!
//! Every loop here reads rule data **from the device** (never from the
//! host-side grammar), so the virtual clock sees exactly the access
//! pattern each design point produces: pruned vs raw bodies, adjacent vs
//! scattered layout, pre-sized vs growing containers.

use std::cell::RefCell;

use ntadoc_grammar::Symbol;
use ntadoc_nstruct::{PHashTable, WordBuf};
use ntadoc_pmem::{par, PmemError};

use super::sequence::Item;
use super::shape::{self, counts_of, Counts};
use super::Session;
use crate::config::Traversal;
use crate::dag::{PoolBuf, WordReader};
use crate::result::{Task, TaskRows};
use crate::Result;

/// One thread's working memory for the id-level steps: the buffers pool
/// reads decode into and the merge accumulator, reused from rule to rule.
/// A serial step makes one and drops it with its result; the parallel
/// cache builders borrow their worker's ([`with_work`]).
#[derive(Default)]
pub(crate) struct Work {
    /// A rule's own view or body, and a subrule's cached list read meanwhile.
    pub view: PoolBuf,
    pub list: PoolBuf,
    /// The junction scan's head/tail words, stream and n-gram ids (`ids`
    /// also gathers a file segment's words).
    pub ht: WordBuf,
    pub stream: Vec<Item>,
    pub ids: Vec<u32>,
    pub merge: Merge,
}

thread_local! {
    /// The cache builders' `Work`: an item runs on whichever worker claims it.
    static WORK: RefCell<Work> = RefCell::default();
}

/// Run `f` with this thread's [`Work`]; a failed `f` forfeits it, half-done merge and all.
pub(super) fn with_work<T>(f: impl FnOnce(&mut Work) -> Result<T>) -> Result<T> {
    let mut work = WORK.take();
    let out = f(&mut work)?;
    WORK.set(work);
    Ok(out)
}

/// Free the calling thread's [`Work`] (a worker's goes with its thread).
pub(super) fn release_work() {
    drop(WORK.take());
}

/// Id-sorted `(id, occurrences)` of `ids`, which are sorted in place.
pub(super) fn tally(ids: &mut [u32]) -> impl Iterator<Item = (u32, u64)> + '_ {
    ids.sort_unstable();
    ids.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64))
}

/// The accumulator of [`Session::merged`]: a count per id in an array
/// indexed by id, plus the ids touched, so a merge sorts its distinct ids
/// and not its input entries. The array grows to the largest id given — a
/// dictionary or interned n-gram id — and is all zero between merges.
#[derive(Default)]
pub(crate) struct Merge {
    slots: Vec<u64>,
    /// Ids added while their slot was zero (twice, if it stayed zero).
    touched: Vec<u32>,
    /// Entries and lists taken in: the modeled k-way merge's charge.
    entries: u64,
    lists: u64,
}

impl Merge {
    /// One input entry.
    pub fn add(&mut self, id: u32, count: u64) {
        let at = id as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, 0);
        }
        if self.slots[at] == 0 {
            self.touched.push(id);
        }
        self.slots[at] += count;
        self.entries += 1;
    }

    /// One id-sorted input list, its counts scaled by `mult`.
    pub fn list(&mut self, list: &[(u32, u64)], mult: u64) {
        self.lists += 1;
        for &(id, count) in list {
            self.add(id, count * mult);
        }
    }

    /// Direct contributions: one entry per distinct id of `ids`.
    pub fn tally(&mut self, ids: &mut [u32]) {
        for (id, count) in tally(ids) {
            self.add(id, count);
        }
    }

    /// The id-sorted sums; the accumulator is clean again afterwards.
    fn drain(&mut self) -> Counts {
        self.touched.sort_unstable();
        self.touched.dedup();
        (self.entries, self.lists) = (0, 0);
        let slots = &mut self.slots;
        self.touched.drain(..).map(|id| (id, std::mem::take(&mut slots[id as usize]))).collect()
    }
}

impl Session {
    /// Compute `task` against the resident DAG pool: this engine's
    /// id-level step, then the shared shaper. A serve session takes the
    /// read-only route — corpus-wide counts are merges over the word-list
    /// caches, word strings come from one bulk dictionary read, and no
    /// device state is mutated (no weight propagation, no result
    /// structures), so any number of served tasks run concurrently.
    pub(crate) fn run_task(&self, task: Task) -> Result<TaskRows> {
        if self.serve_mode && task.is_sequence() {
            return Err(PmemError::Unsupported(format!(
                "task '{task}' is not servable: sequence-list caches share storage with \
                 word lists and are rebuilt per run"
            )));
        }
        let (sc, comp) = (&self.sc, &self.comp);
        // Arguments evaluate left to right: the id-level step runs before
        // the reader is made, so a serve session's bulk dictionary read
        // follows its list merges.
        let words = || -> Result<WordReader<'_>> { Ok(self.dag()?.words(self.serve_mode)) };
        let persist = !self.serve_mode;
        Ok(match task {
            Task::WordCount => shape::word_count(sc, self.word_counts()?, comp, words()?),
            Task::Sort => shape::sort(sc, self.word_counts()?, comp, words()?),
            Task::TermVector => {
                shape::term_vector(sc, self.per_file_word_tables()?, comp, words()?)?
            }
            // The pairs are the persisted result of a run; a served response
            // persists nothing.
            Task::InvertedIndex => {
                shape::inverted_index(sc, self.per_file_word_tables()?, comp, words()?, persist)?
            }
            Task::SequenceCount => {
                shape::sequence_count(sc, self.sequence_counts()?, comp, words()?)
            }
            Task::RankedInvertedIndex => {
                shape::ranked_index(sc, self.ranked_postings()?, comp, words()?)?
            }
        })
    }

    /// One half of rule `r`'s view as `(id, freq)`, read into `buf`: the
    /// pruned half when pruning is on, otherwise one entry per body symbol
    /// of that kind (the naive access pattern).
    fn view_of<'b>(&self, r: u32, words: bool, buf: &'b mut PoolBuf) -> Result<&'b [(u32, u32)]> {
        let dag = self.dag()?;
        if self.sc.cfg.pruned {
            let view = dag.pruned_half(r, words, buf);
            self.sc.charge_items(view.len() as u64);
            return Ok(view);
        }
        self.sc.charge_items(dag.body(r, buf).len() as u64);
        let kind = if words { Symbol::is_word } else { Symbol::is_rule };
        buf.pairs.clear();
        buf.pairs.extend(buf.syms.iter().filter(|&&s| kind(s)).map(|s| (s.payload(), 1)));
        Ok(&buf.pairs)
    }

    /// Rule `r`'s subrules as `(id, freq)`.
    fn subs_of<'b>(&self, r: u32, buf: &'b mut PoolBuf) -> Result<&'b [(u32, u32)]> {
        self.view_of(r, false, buf)
    }

    /// Rule `r`'s words as `(id, freq)`.
    fn words_of<'b>(&self, r: u32, buf: &'b mut PoolBuf) -> Result<&'b [(u32, u32)]> {
        self.view_of(r, true, buf)
    }

    /// Enter the cached lists of rule `r`'s subrules into `w.merge`, each
    /// scaled by its frequency in `r`: the inputs of `r`'s own list merge.
    pub(crate) fn add_sub_lists(&self, r: u32, w: &mut Work) -> Result<()> {
        for &(s, f) in self.subs_of(r, &mut w.view)? {
            w.merge.list(self.cached_list(s, &mut w.list)?, f as u64);
        }
        Ok(())
    }

    /// Rule `r`'s cached word (or sequence) list, read sequentially from
    /// the pool into `buf`.
    pub(crate) fn cached_list<'b>(&self, r: u32, buf: &'b mut PoolBuf) -> Result<&'b [(u32, u64)]> {
        let list = self.dag()?.wordlist(r, buf)?;
        self.sc.charge_items(list.len() as u64);
        Ok(list)
    }

    /// Global top-down weight propagation driven by the pool-resident
    /// traversal queue (Figure 3): `R0` gets weight 1 and enters the
    /// queue; each dequeued rule passes `weight × freq` to its subrules,
    /// which enqueue once their (pool-resident, working-copy) in-degree
    /// drains — a device-side Kahn traversal. `visit` runs for each rule
    /// with its final weight.
    pub(crate) fn traverse_topdown(
        &self,
        mut visit: impl FnMut(u32, u64) -> Result<()>,
    ) -> Result<()> {
        let dag = self.dag()?;
        let dev = dag.dev().clone();
        dag.reset_weights();
        dag.set_weight(0, 1);
        let nr = dag.nrules();
        let scratch = self.sc.fresh_scratch();
        // Working copy of the in-degree metadata (consumed by the drain).
        let indeg_at = scratch.alloc_array(nr, 4)?;
        let indegs = dag.read_indegs();
        dev.write_u32_slice(indeg_at, &indegs);
        let queue = ntadoc_nstruct::PQueue::with_capacity(scratch.clone(), nr)?;
        queue.push(0);
        let mut subs = PoolBuf::default();
        while let Some(r) = queue.pop() {
            let w = dag.weight(r);
            self.sc.charge_items(1);
            visit(r, w)?;
            for &(s, f) in self.subs_of(r, &mut subs)? {
                dag.add_weight(s, w * f as u64);
                let at = indeg_at + s as u64 * 4;
                let d = dev.read_u32(at) - f;
                dev.write_u32(at, d);
                if d == 0 {
                    queue.push(s);
                }
            }
        }
        Ok(())
    }

    /// `R0`'s body, read into `buf`. The per-file symbol segments are its
    /// runs between separators: `split` it on [`Symbol::is_sep`].
    pub(crate) fn r0_body<'b>(&self, buf: &'b mut PoolBuf) -> Result<&'b [Symbol]> {
        let body = self.dag()?.body(0, buf);
        self.sc.charge_items(body.len() as u64);
        Ok(body)
    }

    /// Per-file weight propagation over the sub-DAG reachable from `seg`
    /// (the top-down strategy's inner loop — pathological when files are
    /// many, which is the §VI-E measurement). Returns `(rule, weight)`
    /// with weights local to this file.
    fn local_weights(&self, seg: &[Symbol], subs: &mut PoolBuf) -> Result<Vec<(u32, u64)>> {
        // Faithful to the paper's top-down file processing: "the program is
        // required to traverse the DAG in order to retrieve the weight of
        // rules for each file" — the *whole* DAG is walked per file, using
        // the NVM-resident weight metadata. This is what makes top-down
        // pathological on many-file corpora (§VI-E).
        let dag = self.dag()?;
        dag.reset_weights();
        self.sc.charge_items(seg.len() as u64);
        for s in seg {
            if s.is_rule() {
                dag.add_weight(s.payload(), 1);
            }
        }
        let mut out = Vec::new();
        for &r in &self.facts.topo {
            if r == 0 {
                continue;
            }
            let w = dag.weight(r);
            self.sc.charge_items(1);
            if w == 0 {
                continue;
            }
            out.push((r, w));
            for &(s, f) in self.subs_of(r, subs)? {
                dag.add_weight(s, w * f as u64);
            }
        }
        Ok(out)
    }

    /// Merge what `merge` was given — id-sorted `(id, count)` lists, each
    /// scaled by a multiplier, plus direct contributions — into one
    /// id-sorted list.
    ///
    /// This is the N-TADOC accumulation primitive: cached lists are read
    /// *sequentially* from the pool and the merged output is written
    /// *sequentially* back, instead of spraying random probes across an
    /// NVM-resident hash table — the same locality argument as §IV-B. The
    /// modeled CPU cost and DRAM footprint are a streaming k-way merge's,
    /// one cursor per input list; the host sums each list as it is read
    /// into [`Merge`]'s array and sorts the distinct ids — the same list.
    /// The merge's cursors are a transient DRAM buffer, so merges run side
    /// by side (a cache level, a query's files) reach the peak one merge
    /// after another would.
    pub(crate) fn merged(&self, merge: &mut Merge) -> Counts {
        self.sc.note_transient_dram((merge.lists + 1) * 64);
        self.sc.charge_items(merge.entries * 2);
        merge.drain()
    }

    /// The engine's bottom-up dependency levels without the root, whose
    /// list no cache builder stores (a served word count or sort builds it
    /// per request instead): a rule's subrules always sit in
    /// strictly earlier levels, so the rules of one level can be processed
    /// concurrently once the previous levels are done. Within a level,
    /// rules keep their reverse-topological order.
    pub(super) fn nonroot_levels(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        self.facts.levels.iter().map(|level| level.iter().copied().filter(|&r| r != 0).collect())
    }

    /// Rule `r`'s full `(word, count)` list: its own words plus its
    /// subrules' cached lists, each scaled by its frequency in `r`'s view.
    fn rule_list(&self, r: u32, w: &mut Work) -> Result<Counts> {
        for &(word, f) in self.words_of(r, &mut w.view)? {
            w.merge.add(word, f as u64);
        }
        self.add_sub_lists(r, w)?;
        Ok(self.merged(&mut w.merge))
    }

    /// Build per-rule word-list caches bottom-up (the preprocessing the
    /// paper describes for dataset B): every rule's full `(word, count)`
    /// list, stored id-sorted and packed in the pool.
    ///
    /// The pruned (N-TADOC) configuration accumulates by sorted-list
    /// merging with pool regions pre-sized from the §IV-C bounds, fanning
    /// each dependency level out across workers (levels are barriers;
    /// every rule's merge lands in a private buffer, and the level's
    /// device time joins as the deterministic virtual-lane makespan). The
    /// stores stay sequential in level order, so pool layout and results
    /// are identical for any worker count. The naive configuration
    /// accumulates through growable hash tables ("methods unchanged") in
    /// the shared scratch region, paying reconstruction storms — it stays
    /// sequential by construction.
    pub(crate) fn build_wordlist_caches(&self) -> Result<()> {
        if self.sc.cfg.pruned {
            let obs = self.sc.obs.clone();
            for (depth, level) in self.nonroot_levels().enumerate() {
                // One span per dependency level, opened on the controlling
                // thread; the level's parallel work joins the clock as the
                // deterministic lane makespan before the span closes.
                obs.span(&format!("wordlist-level-{depth}"), &self.sc.dev, || -> Result<()> {
                    let (merged, charges) =
                        par::par_map_timed(&level, |_, &r| with_work(|w| self.rule_list(r, w)));
                    par::join_deferred(&self.sc.dev, &charges);
                    for (&r, entries) in level.iter().zip(merged) {
                        let (addr, len) = self.dag()?.store_wordlist(r, &entries?)?;
                        self.op_guard(addr, len)?;
                    }
                    Ok(())
                })?;
            }
            release_work();
            return Ok(());
        }
        self.build_caches_naive(|r, w| {
            // Fixed-size from the §IV-C bound when the summation is on.
            let presize = self.sc.cfg.presize;
            let expected = if presize { self.dag()?.wl_bound(r) as usize } else { 8 };
            let table = self.sc.scratch_table(self.sized(expected), presize)?;
            for &(word, f) in self.words_of(r, &mut w.view)? {
                table.add(word as u64, f as u64)?;
            }
            Ok(table)
        })
    }

    /// The naive cache builder ("methods unchanged"), bottom-up: `seed`
    /// creates a rule's scratch table and adds the rule's own entries, the
    /// subrules' cached lists are hash-accumulated into it, and the result
    /// is stored id-sorted.
    pub(super) fn build_caches_naive(
        &self,
        seed: impl Fn(u32, &mut Work) -> Result<PHashTable>,
    ) -> Result<()> {
        let metrics = &self.sc.obs.metrics;
        let mut w = Work::default();
        for &r in self.facts.topo.iter().rev() {
            if r == 0 {
                continue;
            }
            let table = seed(r, &mut w)?;
            for &(s, f) in self.subs_of(r, &mut w.view)? {
                for &(id, c) in self.cached_list(s, &mut w.list)? {
                    table.add(id as u64, c * f as u64)?;
                }
            }
            let mut entries = counts_of(&table);
            entries.sort_unstable_by_key(|x| x.0);
            let (addr, len) = self.dag()?.store_wordlist(r, &entries)?;
            self.op_guard(addr, len)?;
            // Each per-rule scratch table is observed exactly once, so the
            // counter totals the naive path's reconstruction storm.
            metrics.counter_add("wordlist-scratch.reconstructions", table.reconstructions() as u64);
            metrics.gauge_max("wordlist-scratch.capacity_bytes", (table.capacity() * 17) as f64);
        }
        Ok(())
    }

    /// Corpus-wide `(word, count)`, the id-level result of word count and
    /// sort. Batch: fused into the queue-driven traversal (one pass over
    /// each pruned view covers both weight propagation and word counting).
    /// Serve: the read-only bottom-up path, which builds `R0`'s list as the
    /// cache builder builds every other rule's — from `R0`'s view, so each
    /// distinct subrule's cached list is read once, however many files
    /// reference it.
    fn word_counts(&self) -> Result<Counts> {
        if self.serve_mode {
            return self.rule_list(0, &mut Work::default());
        }
        let dag = self.dag()?;
        let counter = self.sc.result_counter(self.sized(dag.dict_len()), self.sc.cfg.presize)?;
        let mut words = PoolBuf::default();
        self.traverse_topdown(|r, w| {
            for &(wid, f) in self.words_of(r, &mut words)? {
                counter.add(wid as u64, w * f as u64)?;
            }
            Ok(())
        })?;
        counter.finish()?;
        counter.table.observe(&self.sc.obs.metrics, "result-table");
        Ok(counts_of(&counter.table))
    }

    /// Upper bound on the distinct words of one file segment (sizes the
    /// fixed per-file tables when the summation is on).
    fn file_bound(&self, seg: &[Symbol]) -> Result<usize> {
        let dag = self.dag()?;
        let vocab = dag.dict_len();
        let mut bound = 0u64;
        for s in seg {
            if s.is_word() {
                bound += 1;
            } else if s.is_rule() {
                bound += dag.wl_bound(s.payload());
            }
            if bound >= vocab as u64 {
                return Ok(vocab);
            }
        }
        Ok(bound as usize)
    }

    /// Per-file `(word, count)` tables, computed with the strategy the
    /// session selected (§VI-E).
    fn per_file_word_tables(&self) -> Result<Vec<Counts>> {
        let strategy = self.strategy();
        let mut r0 = PoolBuf::default();
        let body = self.r0_body(&mut r0)?;
        if strategy == Traversal::BottomUp && self.sc.cfg.pruned {
            return self.per_file_merges(body);
        }
        let mut w = Work::default();
        let mut out = Vec::new();
        for seg in body.split(|s| s.is_sep()) {
            let presize = self.sc.cfg.presize;
            let expected = if presize { self.file_bound(seg)? } else { 8 };
            let table = self.sc.scratch_table(self.sized(expected), presize)?;
            match strategy {
                Traversal::BottomUp => {
                    // Naive bottom-up: hash-merge the cached word lists.
                    for s in seg {
                        self.sc.charge_items(1);
                        if s.is_word() {
                            table.add(s.payload() as u64, 1)?;
                        } else if s.is_rule() {
                            for &(wid, c) in self.cached_list(s.payload(), &mut w.list)? {
                                table.add(wid as u64, c)?;
                            }
                        }
                    }
                }
                _ => {
                    // Top-down: propagate weights locally, then harvest
                    // every reachable rule's word view.
                    for s in seg {
                        self.sc.charge_items(1);
                        if s.is_word() {
                            table.add(s.payload() as u64, 1)?;
                        }
                    }
                    for (r, weight) in self.local_weights(seg, &mut w.view)? {
                        for &(wid, f) in self.words_of(r, &mut w.view)? {
                            table.add(wid as u64, weight * f as u64)?;
                        }
                    }
                }
            }
            out.push(counts_of(&table));
        }
        Ok(out)
    }

    /// N-TADOC bottom-up per-file tables: each file's list merges the
    /// cached, id-sorted word lists of its segment's subrules (sequential
    /// pool reads) with the segment's own words.
    ///
    /// The files are independent, so they go through
    /// [`par::par_map_absorbed`]: a served query, which runs under a
    /// deferred sink of its own, merges them on every worker and is
    /// charged the serial sum; a batch run has no sink here and merges
    /// them in order on the line-cache model.
    fn per_file_merges(&self, r0: &[Symbol]) -> Result<Vec<Counts>> {
        let segs: Vec<&[Symbol]> = r0.split(|s| s.is_sep()).collect();
        let merged = par::par_map_absorbed(&segs, |_, &seg| {
            with_work(|w| {
                w.ids.clear();
                self.sc.charge_items(seg.len() as u64);
                for s in seg {
                    if s.is_word() {
                        w.ids.push(s.payload());
                    } else if s.is_rule() {
                        w.merge.list(self.cached_list(s.payload(), &mut w.list)?, 1);
                    }
                }
                w.merge.tally(&mut w.ids);
                Ok(self.merged(&mut w.merge))
            })
        });
        release_work();
        merged
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// The merge as it was: concatenate the direct contributions (a map,
    /// so one entry per distinct id) and every scaled list, sort the lot by
    /// id, and sum runs. Returns the list and the number of entries sorted.
    fn merge_ref(lists: &[(Counts, u64)], direct: &[u32]) -> (Counts, u64) {
        let mut extra: BTreeMap<u32, u64> = BTreeMap::new();
        for &id in direct {
            *extra.entry(id).or_insert(0) += 1;
        }
        let mut all: Counts = extra.into_iter().collect();
        for (list, mult) in lists {
            all.extend(list.iter().map(|&(id, c)| (id, c * mult)));
        }
        let entries = all.len() as u64;
        all.sort_unstable_by_key(|e| e.0);
        let mut out: Counts = Vec::with_capacity(all.len());
        for (id, c) in all {
            match out.last_mut() {
                Some((last, acc)) if *last == id => *acc += c,
                _ => out.push((id, c)),
            }
        }
        (out, entries)
    }

    /// One merge's inputs: id-sorted lists with multipliers (0, 1 and
    /// larger), and direct contributions with repeats.
    type Case = (Vec<(Counts, u64)>, Vec<u32>);

    fn cases(seed: u64, count: usize) -> Vec<Case> {
        let mut x = seed;
        let mut below = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        (0..count)
            .map(|case| {
                // Small id ranges collide often; one case in five reaches far.
                let ids = if case % 5 == 4 { 70_000 } else { 40 };
                let lists = (0..below(6))
                    .map(|_| {
                        let mut list: Counts =
                            (0..below(30)).map(|_| (below(ids) as u32, 0)).collect();
                        list.sort_unstable();
                        list.dedup();
                        list.iter_mut().for_each(|e| e.1 = below(4));
                        (list, below(4))
                    })
                    .collect();
                (lists, (0..below(25)).map(|_| below(ids) as u32).collect())
            })
            .collect()
    }

    /// Feed `case` to `merge` the way the id-level steps do, and drain it.
    fn merge_case(merge: &mut Merge, (lists, direct): &Case) -> (Counts, u64, u64) {
        merge.tally(&mut direct.clone());
        for (list, mult) in lists {
            merge.list(list, *mult);
        }
        let charged = (merge.entries, merge.lists);
        (merge.drain(), charged.0, charged.1)
    }

    #[test]
    fn array_merge_equals_concatenate_and_sort_merge_after_merge() {
        // One accumulator for every case: each must find it clean.
        let mut merge = Merge::default();
        for (i, case) in cases(0x2545_F491_4F6C_DD1D, 300).iter().enumerate() {
            let (expect, entries) = merge_ref(&case.0, &case.1);
            let got = merge_case(&mut merge, case);
            assert_eq!(got, (expect, entries, case.0.len() as u64), "case {i}");
            assert!(merge.touched.is_empty() && merge.slots.iter().all(|&s| s == 0), "case {i}");
        }
        // Sized by the largest id seen, never by the id type.
        assert!((40..=70_000).contains(&merge.slots.len()), "{} slots", merge.slots.len());
    }

    #[test]
    fn workers_merge_in_their_own_scratch() {
        let cases = cases(0x9E37_79B9_7F4A_7C15, 200);
        for threads in [1, 4] {
            let got = par::with_threads(threads, || {
                par::par_map(&cases, |_, case| with_work(|w| Ok(merge_case(&mut w.merge, case).0)))
            });
            for (i, (got, case)) in got.into_iter().zip(&cases).enumerate() {
                assert_eq!(
                    got.unwrap(),
                    merge_ref(&case.0, &case.1).0,
                    "case {i}, {threads} threads"
                );
            }
        }
        release_work();
        assert_eq!(with_work(|w| Ok(w.merge.slots.len())).unwrap(), 0, "released with the rest");
    }

    /// A media error on a cached list that file `k` is the first to read
    /// fails a served term vector with that error; the error and the
    /// device's counts afterwards come out the same at one worker and at
    /// four.
    #[test]
    fn a_faulted_file_list_fails_a_served_query_alike_at_any_worker_count() {
        use crate::query::{Query, TenantId};
        use ntadoc_grammar::{compress_corpus, TokenizerConfig};
        let files: Vec<(String, String)> = (0..16)
            .map(|i| (format!("f{i}"), format!("shared words own{i} phrase{i} again ").repeat(6)))
            .collect();
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let k = 9;
        let served = |threads: usize| {
            par::with_threads(threads, || {
                let engine = crate::Engine::builder(comp.clone())
                    .config(crate::EngineConfig::ntadoc())
                    .build()
                    .unwrap();
                let serve = engine.serve().unwrap();
                let session = &serve.session;
                let mut r0 = PoolBuf::default();
                let segs: Vec<Vec<Symbol>> = session
                    .r0_body(&mut r0)
                    .unwrap()
                    .split(|s| s.is_sep())
                    .map(<[Symbol]>::to_vec)
                    .collect();
                let reads =
                    |seg: &[Symbol], r: u32| seg.iter().any(|s| s.is_rule() && s.payload() == r);
                let r = segs[k]
                    .iter()
                    .filter(|s| s.is_rule())
                    .map(|s| s.payload())
                    .find(|&r| segs[..k].iter().all(|seg| !reads(seg, r)))
                    .expect("file k reads a list no earlier file does");
                let (addr, nbytes) = session.dag().unwrap().wordlist_region(r);
                assert!(nbytes > 0);
                let dev = serve.sim_device();
                dev.inject_read_fault(addr);
                let before = dev.stats();
                let query = Query::new(TenantId(1), Task::TermVector);
                let err = serve.run_queries(&[query]).expect_err("the faulted list fails it");
                let line = addr & !(dev.profile().line_size as u64 - 1);
                assert!(matches!(err, PmemError::MediaError { addr } if addr == line), "{err:?}");
                let after = dev.stats();
                assert!(after.reads > before.reads, "the files before the fault were charged");
                (format!("{err:?}"), before, after)
            })
        };
        assert_eq!(served(4), served(1));
    }

    #[test]
    fn tally_counts_runs_of_sorted_ids() {
        assert_eq!(tally(&mut [7, 3, 7, 7, 1, 3]).collect::<Counts>(), [(1, 1), (3, 2), (7, 3)]);
        assert_eq!(tally(&mut []).count(), 0);
    }
}
