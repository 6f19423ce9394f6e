//! The compressed engines' half of every task: shared traversal
//! machinery, the word-list caches, and the id-level word and per-file
//! counts. Sequence tasks are in [`super::sequence`]; turning id-level
//! results into a [`TaskOutput`] is [`super::shape`]'s job.
//!
//! Every loop here reads rule data **from the device** (never from the
//! host-side grammar), so the virtual clock sees exactly the access
//! pattern each design point produces: pruned vs raw bodies, adjacent vs
//! scattered layout, pre-sized vs growing containers.

use std::collections::BTreeMap;

use ntadoc_grammar::Symbol;
use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::{par, PmemError};

use super::shape::{self, counts_of, Counts};
use super::Session;
use crate::config::Traversal;
use crate::dag::{DagPool, FreqPairs};
use crate::result::{Task, TaskOutput};
use crate::Result;

impl Session {
    /// Compute `task` against the resident DAG pool: this engine's
    /// id-level step, then the shared shaper. A serve session takes the
    /// read-only route — corpus-wide counts are merges over the word-list
    /// caches, word strings come from one bulk dictionary read, and no
    /// device state is mutated (no weight propagation, no result
    /// structures), so any number of served tasks run concurrently.
    pub(crate) fn run_task(&self, task: Task) -> Result<TaskOutput> {
        if self.serve_mode && task.is_sequence() {
            return Err(PmemError::Unsupported(format!(
                "task '{task}' is not servable: sequence-list caches share storage with \
                 word lists and are rebuilt per run"
            )));
        }
        let (sc, files) = (&self.sc, &self.comp.file_names);
        // Arguments evaluate left to right: the id-level step runs before
        // the lookup is made, so a serve session's bulk dictionary read
        // follows its list merges.
        let word = || self.word_lookup();
        Ok(match task {
            Task::WordCount => shape::word_count(self.word_counts()?, word()?),
            Task::Sort => shape::sort(sc, self.word_counts()?, word()?),
            Task::TermVector => {
                shape::term_vector(sc, self.per_file_word_tables()?, files, word()?)
            }
            // The pairs are the persisted result of a run; a served response
            // persists nothing.
            Task::InvertedIndex => shape::inverted_index(
                sc,
                self.per_file_word_tables()?,
                files,
                word()?,
                !self.serve_mode,
            )?,
            Task::SequenceCount => shape::sequence_count(sc, self.sequence_counts()?, word()?),
            Task::RankedInvertedIndex => {
                shape::ranked_index(sc, self.ranked_postings()?, files, word()?)
            }
        })
    }

    /// This session's word lookup: a dictionary read on the device per
    /// word, or — serving — an index into the strings of one bulk read.
    fn word_lookup(&self) -> Result<impl Fn(u32) -> String + '_> {
        let dag = self.dag()?;
        let served = self.serve_mode.then(|| dag.all_word_strs());
        Ok(move |wid: u32| match &served {
            Some(words) => words[wid as usize].clone(),
            None => dag.word_str(wid),
        })
    }

    /// One half of rule `r`'s view as `(id, freq)`: the `pruned` view when
    /// pruning is on, otherwise one entry per body symbol of that `kind`
    /// (the naive access pattern).
    fn view_of(
        &self,
        r: u32,
        pruned: fn(&DagPool, u32) -> FreqPairs,
        kind: fn(Symbol) -> bool,
    ) -> Result<FreqPairs> {
        let dag = self.dag()?;
        if self.sc.cfg.pruned {
            let v = pruned(dag, r);
            self.sc.charge_items(v.len() as u64);
            Ok(v)
        } else {
            let body = dag.body(r);
            self.sc.charge_items(body.len() as u64);
            Ok(body.iter().filter(|&&s| kind(s)).map(|s| (s.payload(), 1)).collect())
        }
    }

    /// Rule `r`'s subrules as `(id, freq)`.
    pub(crate) fn subs_of(&self, r: u32) -> Result<FreqPairs> {
        self.view_of(r, DagPool::pruned_subs, Symbol::is_rule)
    }

    /// Rule `r`'s words as `(id, freq)`.
    pub(crate) fn words_of(&self, r: u32) -> Result<FreqPairs> {
        self.view_of(r, DagPool::pruned_words, Symbol::is_word)
    }

    /// The cached lists of rule `r`'s subrules, each with its frequency in
    /// `r` — the inputs of `r`'s own list merge.
    pub(crate) fn sub_lists(&self, r: u32) -> Result<Vec<(Counts, u64)>> {
        self.subs_of(r)?.into_iter().map(|(s, f)| Ok((self.cached_list(s)?, f as u64))).collect()
    }

    /// Rule `r`'s cached word (or sequence) list, read sequentially from
    /// the pool.
    pub(crate) fn cached_list(&self, r: u32) -> Result<Counts> {
        let list = self.dag()?.wordlist(r);
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
        while let Some(r) = queue.pop() {
            let w = dag.weight(r);
            self.sc.charge_items(1);
            visit(r, w)?;
            for (s, f) in self.subs_of(r)? {
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

    /// `R0` split into per-file symbol segments (separators removed).
    pub(crate) fn r0_segments(&self) -> Result<Vec<Vec<Symbol>>> {
        let body = self.dag()?.body(0);
        self.sc.charge_items(body.len() as u64);
        let mut segs = vec![Vec::new()];
        for s in body {
            if s.is_sep() {
                segs.push(Vec::new());
            } else {
                match segs.last_mut() {
                    Some(seg) => seg.push(s),
                    None => segs.push(vec![s]),
                }
            }
        }
        Ok(segs)
    }

    /// Per-file weight propagation over the sub-DAG reachable from `seg`
    /// (the top-down strategy's inner loop — pathological when files are
    /// many, which is the §VI-E measurement). Returns `(rule, weight)`
    /// with weights local to this file.
    pub(crate) fn local_weights(&self, seg: &[Symbol]) -> Result<Vec<(u32, u64)>> {
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
            for (s, f) in self.subs_of(r)? {
                dag.add_weight(s, w * f as u64);
            }
        }
        Ok(out)
    }

    /// Merge id-sorted `(id, count)` lists (each scaled by a multiplier)
    /// plus a small map of direct contributions into one id-sorted list.
    ///
    /// This is the N-TADOC accumulation primitive: cached lists are read
    /// *sequentially* from the pool and the merged output is written
    /// *sequentially* back, instead of spraying random probes across an
    /// NVM-resident hash table — the same locality argument as §IV-B. The
    /// modeled CPU cost is that of a k-way merge.
    pub(crate) fn merge_counts(
        &self,
        lists: Vec<(Counts, u64)>,
        extra: BTreeMap<u32, u64>,
    ) -> Counts {
        // DRAM accounting: the modeled algorithm is a streaming k-way
        // merge holding one cursor per input list, not the whole
        // concatenation (which this implementation uses for simplicity).
        let transient = (lists.len() as u64 + 1) * 64;
        self.sc.note_dram(transient);
        let mut all: Counts = extra.into_iter().collect();
        for (list, mult) in lists {
            all.extend(list.into_iter().map(|(id, c)| (id, c * mult)));
        }
        self.sc.charge_items(all.len() as u64 * 2);
        all.sort_unstable_by_key(|e| e.0);
        let mut out: Counts = Vec::with_capacity(all.len());
        for (id, c) in all {
            match out.last_mut() {
                Some((last, acc)) if *last == id => *acc += c,
                _ => out.push((id, c)),
            }
        }
        self.sc.drop_dram(transient);
        out
    }

    /// The engine's bottom-up dependency levels without the root, whose
    /// list no cache builder stores: a rule's subrules always sit in
    /// strictly earlier levels, so the rules of one level can be processed
    /// concurrently once the previous levels are done. Within a level,
    /// rules keep their reverse-topological order.
    pub(super) fn nonroot_levels(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        self.facts.levels.iter().map(|level| level.iter().copied().filter(|&r| r != 0).collect())
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
                    let (merged, charges) = par::par_map_timed(&level, |_, &r| -> Result<_> {
                        let extra: BTreeMap<u32, u64> =
                            self.words_of(r)?.into_iter().map(|(w, f)| (w, f as u64)).collect();
                        Ok(self.merge_counts(self.sub_lists(r)?, extra))
                    });
                    par::join_deferred(&self.sc.dev, &charges);
                    for (&r, entries) in level.iter().zip(merged) {
                        let (addr, len) = self.dag()?.store_wordlist(r, &entries?)?;
                        self.op_guard(addr, len)?;
                    }
                    Ok(())
                })?;
            }
            return Ok(());
        }
        self.build_caches_naive(|r| {
            // Fixed-size from the §IV-C bound when the summation is on.
            let presize = self.sc.cfg.presize;
            let expected = if presize { self.dag()?.wl_bound(r) as usize } else { 8 };
            let table = self.sc.scratch_table(self.sized(expected), presize)?;
            for (w, f) in self.words_of(r)? {
                table.add(w as u64, f as u64)?;
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
        seed: impl Fn(u32) -> Result<PHashTable>,
    ) -> Result<()> {
        let metrics = &self.sc.obs.metrics;
        for &r in self.facts.topo.iter().rev() {
            if r == 0 {
                continue;
            }
            let table = seed(r)?;
            for (s, f) in self.subs_of(r)? {
                for (id, c) in self.cached_list(s)? {
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
    /// Serve: the read-only bottom-up path, merging every file segment's
    /// cached word lists.
    fn word_counts(&self) -> Result<Counts> {
        if self.serve_mode {
            let lists = self.per_file_word_tables()?.into_iter().map(|t| (t, 1u64)).collect();
            return Ok(self.merge_counts(lists, BTreeMap::new()));
        }
        let dag = self.dag()?;
        let counter = self.sc.result_counter(self.sized(dag.dict_len()), self.sc.cfg.presize)?;
        self.traverse_topdown(|r, w| {
            for (wid, f) in self.words_of(r)? {
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
        let segs = self.r0_segments()?;
        let mut out = Vec::with_capacity(segs.len());
        for seg in &segs {
            if strategy == Traversal::BottomUp && self.sc.cfg.pruned {
                // N-TADOC bottom-up: merge the cached, id-sorted word
                // lists of the segment's subrules (sequential pool reads).
                let mut extra = BTreeMap::new();
                let mut lists = Vec::new();
                for s in seg {
                    self.sc.charge_items(1);
                    if s.is_word() {
                        *extra.entry(s.payload()).or_insert(0u64) += 1;
                    } else if s.is_rule() {
                        lists.push((self.cached_list(s.payload())?, 1));
                    }
                }
                out.push(self.merge_counts(lists, extra));
                continue;
            }
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
                            for (wid, c) in self.cached_list(s.payload())? {
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
                    for (r, w) in self.local_weights(seg)? {
                        for (wid, f) in self.words_of(r)? {
                            table.add(wid as u64, w * f as u64)?;
                        }
                    }
                }
            }
            out.push(counts_of(&table));
        }
        Ok(out)
    }
}
