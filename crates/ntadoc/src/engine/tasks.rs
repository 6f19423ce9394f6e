//! The six analytics tasks, shared traversal machinery, and the junction
//! n-gram scan.
//!
//! Every loop here reads rule data **from the device** (never from the
//! host-side grammar), so the virtual clock sees exactly the access
//! pattern each design point produces: pruned vs raw bodies, adjacent vs
//! scattered layout, pre-sized vs growing containers.

use ntadoc_grammar::Symbol;
use ntadoc_nstruct::PVec;
use ntadoc_pmem::{par, with_deferred_charges, PmemError};

use crate::config::Traversal;
use crate::result::{Task, TaskOutput};
use crate::Result;

use super::Session;

/// Ledgered DRAM footprint of one interned n-gram of `n` words.
fn gram_dram(n: usize) -> u64 {
    n as u64 * 8 + 64
}

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
    // ====================================================================
    // shared traversal machinery
    // ====================================================================

    /// Rule `r`'s subrules as `(id, freq)`: the pruned view when pruning is
    /// on, otherwise one entry per occurrence (the naive access pattern).
    pub(crate) fn subs_of(&self, r: u32) -> Result<Vec<(u32, u32)>> {
        if self.cfg.pruned {
            let v = self.dag()?.pruned_subs(r);
            self.charge_items(v.len() as u64);
            Ok(v)
        } else {
            let body = self.dag()?.body(r);
            self.charge_items(body.len() as u64);
            Ok(body.iter().filter(|s| s.is_rule()).map(|s| (s.payload(), 1)).collect())
        }
    }

    /// Rule `r`'s words as `(id, freq)` under the same regime.
    pub(crate) fn words_of(&self, r: u32) -> Result<Vec<(u32, u32)>> {
        if self.cfg.pruned {
            let v = self.dag()?.pruned_words(r);
            self.charge_items(v.len() as u64);
            Ok(v)
        } else {
            let body = self.dag()?.body(r);
            self.charge_items(body.len() as u64);
            Ok(body.iter().filter(|s| s.is_word()).map(|s| (s.payload(), 1)).collect())
        }
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
        let scratch = self.fresh_scratch();
        // Working copy of the in-degree metadata (consumed by the drain).
        let indeg_at = scratch.alloc_array(nr, 4)?;
        let indegs = dag.read_indegs();
        dev.write_u32_slice(indeg_at, &indegs);
        let queue = ntadoc_nstruct::PQueue::with_capacity(scratch.clone(), nr)?;
        queue.push(0);
        while let Some(r) = queue.pop() {
            let w = dag.weight(r);
            self.charge_items(1);
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

    /// Weight propagation only (sequence count runs its scans separately).
    pub(crate) fn propagate_weights(&self) -> Result<()> {
        self.traverse_topdown(|_, _| Ok(()))
    }

    /// `R0` split into per-file symbol segments (separators removed).
    pub(crate) fn r0_segments(&self) -> Result<Vec<Vec<Symbol>>> {
        let body = self.dag()?.body(0);
        self.charge_items(body.len() as u64);
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
        self.charge_items(seg.len() as u64);
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
            self.charge_items(1);
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
        lists: Vec<(Vec<(u32, u64)>, u64)>,
        extra: std::collections::BTreeMap<u32, u64>,
    ) -> Vec<(u32, u64)> {
        // DRAM accounting: the modeled algorithm is a streaming k-way
        // merge holding one cursor per input list, not the whole
        // concatenation (which this implementation uses for simplicity).
        let transient = (lists.len() as u64 + 1) * 64;
        self.note_dram(transient);
        let mut all: Vec<(u32, u64)> = extra.into_iter().collect();
        for (list, mult) in lists {
            all.extend(list.into_iter().map(|(id, c)| (id, c * mult)));
        }
        self.charge_items(all.len() as u64 * 2);
        all.sort_unstable_by_key(|e| e.0);
        let mut out: Vec<(u32, u64)> = Vec::with_capacity(all.len());
        for (id, c) in all {
            match out.last_mut() {
                Some((last, acc)) if *last == id => *acc += c,
                _ => out.push((id, c)),
            }
        }
        self.drop_dram(transient);
        out
    }

    /// The engine's bottom-up dependency levels without the root, whose
    /// list no cache builder stores: a rule's subrules always sit in
    /// strictly earlier levels, so the rules of one level can be processed
    /// concurrently once the previous levels are done. Within a level,
    /// rules keep their reverse-topological order.
    fn nonroot_levels(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
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
        if self.cfg.pruned {
            let obs = self.obs.clone();
            for (depth, level) in self.nonroot_levels().enumerate() {
                // One span per dependency level, opened on the controlling
                // thread; the level's parallel work joins the clock as the
                // deterministic lane makespan before the span closes.
                obs.span(&format!("wordlist-level-{depth}"), &self.dev, || -> Result<()> {
                    let (merged, charges) = par::par_map_timed(&level, |_, &r| -> Result<_> {
                        let extra: std::collections::BTreeMap<u32, u64> =
                            self.words_of(r)?.into_iter().map(|(w, f)| (w, f as u64)).collect();
                        let mut lists = Vec::new();
                        for (s, f) in self.subs_of(r)? {
                            let sub_list = self.dag()?.wordlist(s);
                            self.charge_items(sub_list.len() as u64);
                            lists.push((sub_list, f as u64));
                        }
                        Ok(self.merge_counts(lists, extra))
                    });
                    par::join_deferred(&self.dev, &charges);
                    for (&r, entries) in level.iter().zip(merged) {
                        let (addr, len) = self.dag()?.store_wordlist(r, &entries?)?;
                        self.op_guard(addr, len)?;
                    }
                    Ok(())
                })?;
            }
            return Ok(());
        }
        for &r in self.facts.topo.iter().rev() {
            if r == 0 {
                continue;
            }
            let expected = if self.cfg.presize { self.dag()?.wl_bound(r) as usize } else { 8 };
            let table = self.scratch_counter(expected)?;
            for (w, f) in self.words_of(r)? {
                table.add(w as u64, f as u64)?;
            }
            for (s, f) in self.subs_of(r)? {
                let sub_list = self.dag()?.wordlist(s);
                self.charge_items(sub_list.len() as u64);
                for (wid, c) in sub_list {
                    table.add(wid as u64, c * f as u64)?;
                }
            }
            let mut entries: Vec<(u32, u64)> =
                table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect();
            entries.sort_unstable_by_key(|x| x.0);
            let (addr, len) = self.dag()?.store_wordlist(r, &entries)?;
            self.op_guard(addr, len)?;
            // Each per-rule scratch table is observed exactly once, so the
            // counter totals the naive path's reconstruction storm.
            self.obs
                .metrics
                .counter_add("wordlist-scratch.reconstructions", table.reconstructions() as u64);
            self.obs
                .metrics
                .gauge_max("wordlist-scratch.capacity_bytes", (table.capacity() * 17) as f64);
        }
        Ok(())
    }

    // ====================================================================
    // frequency tasks
    // ====================================================================

    /// Shared core of word count and sort: corpus-wide `(word, count)`,
    /// fused into the queue-driven traversal (one pass over each pruned
    /// view covers both weight propagation and word counting).
    fn count_words(&self) -> Result<Vec<(u32, u64)>> {
        let dag = self.dag()?;
        let counter = self.result_counter(dag.dict_len())?;
        self.traverse_topdown(|r, w| {
            for (wid, f) in self.words_of(r)? {
                counter.add(wid as u64, w * f as u64)?;
            }
            Ok(())
        })?;
        counter.finish()?;
        counter.table.observe(&self.obs.metrics, "result-table");
        Ok(counter.table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect())
    }

    pub(crate) fn task_word_count(&self) -> Result<TaskOutput> {
        let counts = self.count_words()?;
        let mut out = std::collections::BTreeMap::new();
        for (wid, c) in counts {
            out.insert(self.dag()?.word_str(wid), c);
        }
        Ok(TaskOutput::WordCount(out))
    }

    pub(crate) fn task_sort(&self) -> Result<TaskOutput> {
        let counts = self.count_words()?;
        // Materialise strings (device reads), then sort alphabetically.
        let dag = self.dag()?;
        let mut rows: Vec<(String, u64)> =
            counts.into_iter().map(|(wid, c)| (dag.word_str(wid), c)).collect();
        self.charge_sort(rows.len() as u64);
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(TaskOutput::Sort(rows))
    }

    // ====================================================================
    // file-oriented tasks
    // ====================================================================

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
    fn per_file_word_tables(&self) -> Result<Vec<Vec<(u32, u64)>>> {
        let strategy = self.strategy();
        let segs = self.r0_segments()?;
        let mut out = Vec::with_capacity(segs.len());
        for seg in &segs {
            if strategy == Traversal::BottomUp && self.cfg.pruned {
                // N-TADOC bottom-up: merge the cached, id-sorted word
                // lists of the segment's subrules (sequential pool reads).
                let mut extra = std::collections::BTreeMap::new();
                let mut lists = Vec::new();
                for s in seg {
                    self.charge_items(1);
                    if s.is_word() {
                        *extra.entry(s.payload()).or_insert(0u64) += 1;
                    } else if s.is_rule() {
                        let list = self.dag()?.wordlist(s.payload());
                        self.charge_items(list.len() as u64);
                        lists.push((list, 1));
                    }
                }
                out.push(self.merge_counts(lists, extra));
                continue;
            }
            let expected = if self.cfg.presize { self.file_bound(seg)? } else { 8 };
            let table = self.scratch_counter(expected)?;
            match strategy {
                Traversal::BottomUp => {
                    // Naive bottom-up: hash-merge the cached word lists.
                    for s in seg {
                        self.charge_items(1);
                        if s.is_word() {
                            table.add(s.payload() as u64, 1)?;
                        } else if s.is_rule() {
                            let list = self.dag()?.wordlist(s.payload());
                            self.charge_items(list.len() as u64);
                            for (wid, c) in list {
                                table.add(wid as u64, c)?;
                            }
                        }
                    }
                }
                _ => {
                    // Top-down: propagate weights locally, then harvest
                    // every reachable rule's word view.
                    for s in seg {
                        self.charge_items(1);
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
            out.push(table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect());
        }
        Ok(out)
    }

    pub(crate) fn task_term_vector(&self) -> Result<TaskOutput> {
        let tables = self.per_file_word_tables()?;
        let k = self.cfg.top_k;
        let dag = self.dag()?;
        let mut out = Vec::with_capacity(tables.len());
        for (fid, mut entries) in tables.into_iter().enumerate() {
            self.charge_sort(entries.len() as u64);
            // Count desc, dictionary id asc as the deterministic tiebreak.
            entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            let top: Vec<(String, u64)> =
                entries.into_iter().map(|(wid, c)| (dag.word_str(wid), c)).collect();
            out.push((self.comp.file_names[fid].clone(), top));
        }
        Ok(TaskOutput::TermVector(out))
    }

    pub(crate) fn task_inverted_index(&self) -> Result<TaskOutput> {
        let tables = self.per_file_word_tables()?;
        // Result pairs live on the device (they are the persisted result).
        let pairs: PVec<(u32, u32)> = PVec::with_capacity(
            self.pool.clone(),
            tables.iter().map(|t| t.len()).sum::<usize>().max(1),
        )?;
        let mut out: std::collections::BTreeMap<String, Vec<String>> =
            std::collections::BTreeMap::new();
        for (fid, mut entries) in tables.into_iter().enumerate() {
            // Deterministic order within a file.
            entries.sort_unstable_by_key(|e| e.0);
            self.charge_sort(entries.len() as u64);
            for (wid, _) in entries {
                pairs.push((wid, fid as u32))?;
                out.entry(self.dag()?.word_str(wid))
                    .or_default()
                    .push(self.comp.file_names[fid].clone());
            }
        }
        if self.cfg.persistence != crate::config::Persistence::None {
            pairs.persist();
        }
        Ok(TaskOutput::InvertedIndex(out))
    }

    // ====================================================================
    // sequence tasks
    // ====================================================================

    /// Stitch a symbol slice into the junction stream: words stay words;
    /// long subrules contribute head + marker + tail; short subrules are
    /// reconstructed completely from head/tail.
    fn junction_stream(&self, syms: &[Symbol]) -> Result<Vec<Item>> {
        let n = self.cfg.ngram;
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
        self.charge_items(stream.len() as u64);
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
        let n = self.cfg.ngram;
        if stream.len() < n {
            return Ok(());
        }
        let mut words = Vec::with_capacity(n);
        for win in stream.windows(n) {
            self.charge_items(1);
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
    /// [`super::Interner`]).
    fn scan_junction_windows(
        &self,
        stream: &[Item],
        mut f: impl FnMut(u32) -> Result<()>,
    ) -> Result<()> {
        self.junction_windows(stream, |words| {
            let (id, fresh) = self.interner.intern(words);
            if fresh {
                self.note_dram(gram_dram(words.len()));
            }
            f(id)
        })
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
        if self.cfg.pruned {
            let n = self.cfg.ngram;
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
                            let (id, fresh) = self.interner.intern(words);
                            fresh_bytes += if fresh { gram_dram(n) } else { 0 };
                            id
                        })
                        .collect();
                    interned.push((ids, fresh_bytes));
                }
                let merged = par::par_map(&level, |i, &r| -> Result<_> {
                    with_deferred_charges(&charges[i], || {
                        let (ids, fresh_bytes) = &interned[i];
                        self.note_dram(*fresh_bytes);
                        // Junction windows into a small working map, children
                        // via sorted-list merge.
                        let mut extra = std::collections::BTreeMap::new();
                        for &id in ids {
                            *extra.entry(id).or_insert(0u64) += 1;
                        }
                        let mut lists = Vec::new();
                        for (s, f) in self.subs_of(r)? {
                            let list = self.dag()?.wordlist(s); // reused as seq list
                            self.charge_items(list.len() as u64);
                            lists.push((list, f as u64));
                        }
                        Ok(self.merge_counts(lists, extra))
                    })
                });
                par::join_deferred(&self.dev, &charges);
                for (&r, entries) in level.iter().zip(merged) {
                    let (addr, len) = self.dag()?.store_wordlist(r, &entries?)?;
                    self.op_guard(addr, len)?;
                }
            }
            return Ok(());
        }
        for &r in self.facts.topo.iter().rev() {
            if r == 0 {
                continue;
            }
            let body = self.dag()?.body(r);
            let stream = self.junction_stream(&body)?;
            let entries: Vec<(u32, u64)> = {
                // Naive: everything through a growable hash table.
                let table = self.scratch_counter_soft(8)?;
                self.scan_junction_windows(&stream, |id| table.add(id as u64, 1))?;
                for (s, f) in self.subs_of(r)? {
                    let list = self.dag()?.wordlist(s);
                    self.charge_items(list.len() as u64);
                    for (sid, c) in list {
                        table.add(sid as u64, c * f as u64)?;
                    }
                }
                let mut e: Vec<(u32, u64)> =
                    table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect();
                e.sort_unstable_by_key(|x| x.0);
                e
            };
            let (addr, len) = self.dag()?.store_wordlist(r, &entries)?;
            self.op_guard(addr, len)?;
        }
        Ok(())
    }

    pub(crate) fn task_sequence_count(&self) -> Result<TaskOutput> {
        if self.cfg.ngram < 2 {
            return Err(PmemError::Unsupported("sequence count needs n >= 2".into()));
        }
        self.propagate_weights()?;
        let dag = self.dag()?;
        let totals: Vec<(u32, u64)> = if self.cfg.pruned {
            // N-TADOC: per-rule junction lists are written to the pool
            // sequentially, then k-way merged weighted by rule weight —
            // no random NVM probing.
            let mut lists = Vec::new();
            for &r in &self.facts.topo {
                let w = dag.weight(r);
                self.charge_items(1);
                if w == 0 {
                    continue;
                }
                let body = dag.body(r);
                let stream = self.junction_stream(&body)?;
                let mut local = std::collections::BTreeMap::new();
                self.scan_junction_windows(&stream, |id| {
                    *local.entry(id).or_insert(0u64) += 1;
                    Ok(())
                })?;
                let entries: Vec<(u32, u64)> = local.into_iter().collect();
                let (addr, len) = dag.store_wordlist(r, &entries)?; // junction list
                self.op_guard(addr, len)?;
                lists.push((dag.wordlist(r), w));
            }
            self.merge_counts(lists, std::collections::BTreeMap::new())
        } else {
            // Naive: one growable hash counter takes every update.
            let counter = self.ngram_counter(dag.dict_len() * 2)?;
            for &r in &self.facts.topo {
                let w = dag.weight(r);
                self.charge_items(1);
                if w == 0 {
                    continue;
                }
                let body = dag.body(r);
                let stream = self.junction_stream(&body)?;
                self.scan_junction_windows(&stream, |id| counter.add(id as u64, w))?;
            }
            counter.finish()?;
            counter.table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect()
        };
        // Persist the merged result (it is the task output).
        let result: PVec<(u32, u64)> = PVec::with_capacity(self.pool.clone(), totals.len().max(1))?;
        result.extend_from_slice(&totals)?;
        self.op_guard(result.base_addr(), totals.len() * 12)?;
        if self.cfg.persistence != crate::config::Persistence::None {
            result.persist();
        }
        let mut out = std::collections::BTreeMap::new();
        for (id, c) in totals {
            let gram: Vec<String> =
                self.interner.gram(id).iter().map(|&w| dag.word_str(w)).collect();
            out.insert(gram, c);
        }
        Ok(TaskOutput::SequenceCount(out))
    }

    pub(crate) fn task_ranked_inverted_index(&self) -> Result<TaskOutput> {
        if self.cfg.ngram < 2 {
            return Err(PmemError::Unsupported("ranked inverted index needs n >= 2".into()));
        }
        let dag = self.dag()?;
        let segs = self.r0_segments()?;
        // Result triples on the device.
        let triples: PVec<(u32, (u32, u64))> =
            PVec::with_capacity(self.pool.clone(), segs.len().max(16))?;
        let mut acc: std::collections::BTreeMap<u32, Vec<(u32, u64)>> =
            std::collections::BTreeMap::new();
        for (fid, seg) in segs.iter().enumerate() {
            let stream = self.junction_stream(seg)?;
            let entries: Vec<(u32, u64)> = if self.cfg.pruned {
                let mut extra = std::collections::BTreeMap::new();
                self.scan_junction_windows(&stream, |id| {
                    *extra.entry(id).or_insert(0u64) += 1;
                    Ok(())
                })?;
                let mut lists = Vec::new();
                for s in seg {
                    if s.is_rule() {
                        let list = dag.wordlist(s.payload());
                        self.charge_items(list.len() as u64);
                        lists.push((list, 1));
                    }
                }
                self.merge_counts(lists, extra)
            } else {
                let table = self.scratch_counter_soft(8)?;
                self.scan_junction_windows(&stream, |id| table.add(id as u64, 1))?;
                for s in seg {
                    if s.is_rule() {
                        let list = dag.wordlist(s.payload());
                        self.charge_items(list.len() as u64);
                        for (sid, c) in list {
                            table.add(sid as u64, c)?;
                        }
                    }
                }
                table.entries().into_iter().map(|(k, v)| (k as u32, v)).collect()
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
        if self.cfg.persistence != crate::config::Persistence::None {
            triples.persist();
        }
        let mut out = std::collections::BTreeMap::new();
        for (sid, mut files) in acc {
            self.charge_sort(files.len() as u64);
            files.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let gram: Vec<String> =
                self.interner.gram(sid).iter().map(|&w| dag.word_str(w)).collect();
            let ranked: Vec<(String, u64)> = files
                .into_iter()
                .map(|(fid, c)| (self.comp.file_names[fid as usize].clone(), c))
                .collect();
            out.insert(gram, ranked);
        }
        Ok(TaskOutput::RankedInvertedIndex(out))
    }

    // ====================================================================
    // serve mode (read-only, cache-backed)
    // ====================================================================

    /// Execute one read-only task against the resident DAG pool and its
    /// word-list caches. No device state is mutated — no weight
    /// propagation, no result-structure allocation — so any number of
    /// serve tasks can run concurrently; outputs go straight back to the
    /// caller (a query-server response, not a persisted result).
    pub(crate) fn serve_task(&self, task: Task) -> Result<TaskOutput> {
        debug_assert!(self.serve_mode, "serve_task is only valid on serve sessions");
        match task {
            Task::WordCount => self.serve_word_count(),
            Task::Sort => self.serve_sort(),
            Task::TermVector => self.serve_term_vector(),
            Task::InvertedIndex => self.serve_inverted_index(),
            t => Err(PmemError::Unsupported(format!(
                "task '{t}' is not servable: sequence-list caches share storage with \
                 word lists and are rebuilt per run"
            ))),
        }
    }

    /// Corpus-wide `(word id, count)` via the read-only bottom-up path:
    /// merge every file segment's cached word lists.
    fn serve_counts(&self) -> Result<Vec<(u32, u64)>> {
        let tables = self.per_file_word_tables()?;
        let lists = tables.into_iter().map(|t| (t, 1u64)).collect();
        Ok(self.merge_counts(lists, std::collections::BTreeMap::new()))
    }

    fn serve_word_count(&self) -> Result<TaskOutput> {
        let counts = self.serve_counts()?;
        let words = self.dag()?.all_word_strs();
        let out = counts.into_iter().map(|(wid, c)| (words[wid as usize].clone(), c)).collect();
        Ok(TaskOutput::WordCount(out))
    }

    fn serve_sort(&self) -> Result<TaskOutput> {
        let counts = self.serve_counts()?;
        let words = self.dag()?.all_word_strs();
        let mut rows: Vec<(String, u64)> =
            counts.into_iter().map(|(wid, c)| (words[wid as usize].clone(), c)).collect();
        self.charge_sort(rows.len() as u64);
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(TaskOutput::Sort(rows))
    }

    fn serve_term_vector(&self) -> Result<TaskOutput> {
        let tables = self.per_file_word_tables()?;
        let words = self.dag()?.all_word_strs();
        let k = self.cfg.top_k;
        let mut out = Vec::with_capacity(tables.len());
        for (fid, mut entries) in tables.into_iter().enumerate() {
            self.charge_sort(entries.len() as u64);
            entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            let top: Vec<(String, u64)> =
                entries.into_iter().map(|(wid, c)| (words[wid as usize].clone(), c)).collect();
            out.push((self.comp.file_names[fid].clone(), top));
        }
        Ok(TaskOutput::TermVector(out))
    }

    fn serve_inverted_index(&self) -> Result<TaskOutput> {
        let tables = self.per_file_word_tables()?;
        let words = self.dag()?.all_word_strs();
        let mut out: std::collections::BTreeMap<String, Vec<String>> =
            std::collections::BTreeMap::new();
        for (fid, mut entries) in tables.into_iter().enumerate() {
            entries.sort_unstable_by_key(|e| e.0);
            self.charge_sort(entries.len() as u64);
            for (wid, _) in entries {
                out.entry(words[wid as usize].clone())
                    .or_default()
                    .push(self.comp.file_names[fid].clone());
            }
        }
        Ok(TaskOutput::InvertedIndex(out))
    }

    /// Expose the task for integration tests.
    pub fn task(&self) -> Task {
        self.task
    }
}
