//! Linear-time Sequitur grammar inference (Nevill-Manning & Witten).
//!
//! TADOC "extends Sequitur as core algorithm to transfer input data to the
//! CFG" (paper §II). This is a faithful index-arena implementation of the
//! classic algorithm with its two invariants:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more than
//!   once in the grammar; a repeat is replaced by a rule reference,
//! * **rule utility** — every rule (other than `R0`) is referenced at least
//!   twice; a rule whose reference count drops to one is inlined.
//!
//! Rule bodies are circular doubly-linked lists threaded through a guard
//! node, stored in a slab (`Vec`) so the whole structure is cache-friendly
//! and free of per-node allocations. Digram uniqueness is enforced through
//! the crate's `DigramIndex`, an open-addressed table of node ids that
//! reads its keys back from the slab.

use crate::cfg::{Grammar, Rule};
use crate::digram::{digram_key, DigramIndex, NodeId, NIL};
use crate::symbol::Symbol;

/// Tag of a guard node's symbol: both kind bits set, which no grammar
/// symbol has. The guard of rule `i` carries `GUARD_TAG | i`, so whether a
/// node is a guard is read off the node itself — no look-up in `rules` —
/// and a guard can never be mistaken for an occurrence of its rule.
const GUARD_TAG: u32 = 0b11 << 30;

#[derive(Debug, Clone, Copy)]
struct Node {
    sym: Symbol,
    prev: NodeId,
    next: NodeId,
}

#[derive(Debug, Clone, Copy)]
struct RuleSlot {
    /// Guard node of the circular body list; `NIL` when the rule was
    /// inlined and retired.
    guard: NodeId,
    /// Number of places the rule symbol occurs (R0's count is unused).
    refs: u32,
}

/// Incremental Sequitur: feed symbols with [`push`](Sequitur::push), then
/// extract the grammar with [`into_grammar`](Sequitur::into_grammar).
pub struct Sequitur {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// Digram → the node starting its one indexed occurrence. An entry is
    /// removed before its node is freed or relinked (the index reads keys
    /// back from `nodes`).
    digrams: DigramIndex,
    rules: Vec<RuleSlot>,
    /// Symbols pushed so far (original length, for stats).
    pushed: u64,
}

/// The key of the digram starting at node `n`, for [`DigramIndex`].
#[inline]
fn key_at(nodes: &[Node], n: NodeId) -> u64 {
    let node = nodes[n as usize];
    digram_key(node.sym, nodes[node.next as usize].sym)
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Empty grammar containing just `R0`.
    pub fn new() -> Self {
        let mut s = Sequitur {
            nodes: Vec::new(),
            free: Vec::new(),
            digrams: DigramIndex::new(),
            rules: Vec::new(),
            pushed: 0,
        };
        s.new_rule_slot();
        s
    }

    // ---- node/rule plumbing -------------------------------------------

    fn alloc_node(&mut self, sym: Symbol) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Node { sym, prev: NIL, next: NIL };
            id
        } else {
            self.nodes.push(Node { sym, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn free_node(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node { sym: Symbol(0), prev: NIL, next: NIL };
        self.free.push(id);
    }

    /// Create a rule slot with a fresh guard node; returns the rule index.
    fn new_rule_slot(&mut self) -> u32 {
        let idx = self.rules.len() as u32;
        let guard = self.alloc_node(Symbol::from_raw(GUARD_TAG | idx));
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        self.rules.push(RuleSlot { guard, refs: 0 });
        idx
    }

    #[inline]
    fn sym(&self, n: NodeId) -> Symbol {
        self.nodes[n as usize].sym
    }
    #[inline]
    fn next(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].next
    }
    #[inline]
    fn prev(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].prev
    }

    #[inline]
    fn is_guard(&self, n: NodeId) -> bool {
        self.sym(n).raw() >= GUARD_TAG
    }

    fn link(&mut self, a: NodeId, b: NodeId) {
        self.nodes[a as usize].next = b;
        self.nodes[b as usize].prev = a;
    }

    /// Remove the index entry for the digram starting at `first`, if the
    /// entry points at `first`. Neither `first` nor its successor may be a
    /// guard.
    fn remove_entry(&mut self, first: NodeId) {
        let nodes = &self.nodes;
        self.digrams.remove_if(key_at(nodes, first), first, |n| key_at(nodes, n));
    }

    fn dec_ref(&mut self, s: Symbol) {
        if s.is_rule() {
            self.rules[s.payload() as usize].refs -= 1;
        }
    }

    fn inc_ref(&mut self, s: Symbol) {
        if s.is_rule() {
            self.rules[s.payload() as usize].refs += 1;
        }
    }

    // ---- the algorithm -------------------------------------------------

    /// Append `sym` to `R0` and restore the invariants.
    pub fn push(&mut self, sym: Symbol) {
        self.pushed += 1;
        let guard = self.rules[0].guard;
        let last = self.prev(guard);
        let n = self.alloc_node(sym);
        self.inc_ref(sym);
        self.link(last, n);
        self.link(n, guard);
        // `R0` holds no guard but its own, so `last` and `n` are a digram.
        if last != guard {
            self.check_digram(last);
        }
    }

    /// Examine the digram starting at `d1` — neither `d1` nor its successor
    /// may be a guard — and substitute if it repeats. Returns `true` if a
    /// substitution removed `d1`.
    fn check_digram(&mut self, d1: NodeId) -> bool {
        let d2 = self.next(d1);
        let nodes = &self.nodes;
        match self.digrams.get_or_insert(key_at(nodes, d1), d1, |n| key_at(nodes, n)) {
            None => false,
            Some(m) if m == d1 => false,
            Some(m) => {
                // Overlapping occurrences (e.g. "aaa") must not match.
                if self.next(m) == d1 || self.next(d2) == m {
                    return false;
                }
                self.match_digrams(d1, m);
                true
            }
        }
    }

    /// `d1` is a new occurrence of the digram already indexed at `m`.
    fn match_digrams(&mut self, d1: NodeId, m: NodeId) {
        let rule_idx;
        if self.is_guard(self.prev(m)) && self.is_guard(self.next(self.next(m))) {
            // The indexed occurrence is a complete rule body: reuse it.
            let guard = self.prev(m);
            rule_idx = self.sym(guard).raw() & !GUARD_TAG;
            self.substitute(d1, rule_idx);
        } else {
            // Create a fresh rule whose body copies the digram.
            rule_idx = self.new_rule_slot();
            let a = self.sym(d1);
            let b = self.sym(self.next(d1));
            let guard = self.rules[rule_idx as usize].guard;
            let n1 = self.alloc_node(a);
            let n2 = self.alloc_node(b);
            self.inc_ref(a);
            self.inc_ref(b);
            self.link(guard, n1);
            self.link(n1, n2);
            self.link(n2, guard);
            // Substituting the old occurrence first cannot cascade: the
            // seam digrams contain the brand-new rule symbol, which occurs
            // nowhere else yet.
            self.remove_entry(m);
            self.substitute(m, rule_idx);
            self.substitute(d1, rule_idx);
            let nodes = &self.nodes;
            self.digrams.insert(digram_key(a, b), n1, |n| key_at(nodes, n));
        }
        // Rule-utility check: a rule inside the (re)used body whose count
        // fell to one now has its sole occurrence in that body — inline it.
        // The cascaded seam checks inside `substitute` may already have
        // retired `rule_idx` itself (its own count can drop to one and a
        // nested utility check inlines it); in that case there is no body
        // left to examine.
        let guard = self.rules[rule_idx as usize].guard;
        if guard == NIL {
            return;
        }
        let first = self.next(guard);
        let fs = self.sym(first);
        if !self.is_guard(first) && fs.is_rule() && self.rules[fs.payload() as usize].refs == 1 {
            self.expand(first);
        }
        let guard = self.rules[rule_idx as usize].guard;
        if guard == NIL {
            return;
        }
        let second = self.prev(guard);
        let ss = self.sym(second);
        if !self.is_guard(second) && ss.is_rule() && self.rules[ss.payload() as usize].refs == 1 {
            self.expand(second);
        }
    }

    /// Replace the digram starting at `first` with a reference to
    /// `rule_idx`. The digram's own index entry is the caller's business:
    /// a new occurrence (`d1`) never had one — the index holds the
    /// occurrence it matched — and `match_digrams` removes the old one's.
    fn substitute(&mut self, first: NodeId, rule_idx: u32) {
        let second = self.next(first);
        let p = self.prev(first);
        let n = self.next(second);
        let (p_is_guard, n_is_guard) = (self.is_guard(p), self.is_guard(n));
        // Drop index entries that mention the vanishing nodes.
        if !p_is_guard {
            self.remove_entry(p);
        }
        if !n_is_guard {
            self.remove_entry(second);
        }
        let a = self.sym(first);
        let b = self.sym(second);
        self.free_node(first);
        self.free_node(second);
        self.dec_ref(a);
        self.dec_ref(b);
        let r = Symbol::rule(rule_idx);
        let m = self.alloc_node(r);
        self.inc_ref(r);
        self.link(p, m);
        self.link(m, n);
        // Restore digram uniqueness at the seams (original Sequitur order:
        // check the left seam; only if it did not substitute, the right).
        let replaced = !p_is_guard && self.check_digram(p);
        if !replaced && !n_is_guard {
            self.check_digram(m);
        }
    }

    /// Inline rule `sym(b)` at its single remaining occurrence `b`.
    fn expand(&mut self, b: NodeId) {
        let rule_idx = self.sym(b).payload() as usize;
        debug_assert_eq!(self.rules[rule_idx].refs, 1);
        let guard = self.rules[rule_idx].guard;
        let first = self.next(guard);
        let last = self.prev(guard);
        debug_assert_ne!(first, guard, "cannot expand an empty rule");
        let left = self.prev(b);
        let right = self.next(b);
        let (left_is_guard, right_is_guard) = (self.is_guard(left), self.is_guard(right));
        if !left_is_guard {
            self.remove_entry(left);
        }
        if !right_is_guard {
            self.remove_entry(b);
        }
        let bsym = self.sym(b);
        self.free_node(b);
        self.dec_ref(bsym);
        // Splice the body in place of b.
        self.link(left, first);
        self.link(last, right);
        // Retire the rule.
        self.free_node(guard);
        self.rules[rule_idx].guard = NIL;
        // Right seam: insert conservatively (no substitution) so the node
        // anchors stay valid; a missed match here only costs a little
        // compression, never correctness (this mirrors the reference
        // implementation).
        if !right_is_guard {
            let nodes = &self.nodes;
            self.digrams.get_or_insert(key_at(nodes, last), last, |n| key_at(nodes, n));
        }
        // Left seam: full check (may cascade, but only to the left of the
        // spliced body).
        if !left_is_guard {
            self.check_digram(left);
        }
    }

    // ---- extraction ------------------------------------------------------

    /// Number of symbols pushed.
    pub fn input_len(&self) -> u64 {
        self.pushed
    }

    /// Number of live rules (including `R0`).
    pub fn live_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.guard != NIL).count()
    }

    /// Finish and extract a compact [`Grammar`]: live rules are renumbered
    /// densely with `R0` first.
    pub fn into_grammar(self) -> Grammar {
        let mut remap = vec![u32::MAX; self.rules.len()];
        let mut next_id = 0u32;
        for (i, r) in self.rules.iter().enumerate() {
            if r.guard != NIL {
                remap[i] = next_id;
                next_id += 1;
            }
        }
        let mut rules = Vec::with_capacity(next_id as usize);
        for (i, r) in self.rules.iter().enumerate() {
            if r.guard == NIL {
                continue;
            }
            let mut body = Vec::new();
            let mut n = self.next(r.guard);
            while n != r.guard {
                let s = self.sym(n);
                body.push(if s.is_rule() {
                    let new = remap[s.payload() as usize];
                    debug_assert_ne!(new, u32::MAX, "body references a retired rule");
                    Symbol::rule(new)
                } else {
                    s
                });
                n = self.next(n);
            }
            rules.push(Rule { symbols: body });
            debug_assert_eq!(remap[i] as usize + 1, rules.len());
        }
        Grammar::new(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(words: &[u32]) -> Grammar {
        let mut s = Sequitur::new();
        for &w in words {
            s.push(Symbol::word(w));
        }
        s.into_grammar()
    }

    fn round_trip(words: &[u32]) {
        let g = compress(words);
        let expanded: Vec<u32> = g.expand_symbols().iter().map(|s| s.payload()).collect();
        assert_eq!(expanded, words, "round-trip mismatch");
        g.validate().unwrap();
    }

    #[test]
    fn empty_input_gives_empty_r0() {
        let g = compress(&[]);
        assert_eq!(g.rule_count(), 1);
        assert!(g.rules[0].symbols.is_empty());
    }

    #[test]
    fn no_repetition_means_single_rule() {
        let g = compress(&[1, 2, 3, 4, 5]);
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.rules[0].symbols.len(), 5);
    }

    #[test]
    fn classic_abcdbc_forms_one_rule() {
        // "a b c d b c" : digram (b,c) repeats → one rule.
        let g = compress(&[1, 2, 3, 4, 2, 3]);
        assert_eq!(g.rule_count(), 2);
        round_trip(&[1, 2, 3, 4, 2, 3]);
    }

    #[test]
    fn nested_repetition_builds_hierarchy() {
        // "abcabcabcabc" compresses to nested rules.
        let words: Vec<u32> = [1, 2, 3].repeat(4);
        let g = compress(&words);
        assert!(g.rule_count() >= 2);
        round_trip(&words);
    }

    #[test]
    fn overlapping_digrams_do_not_match() {
        round_trip(&[7, 7, 7]);
        round_trip(&[7, 7, 7, 7]);
        round_trip(&[7, 7, 7, 7, 7]);
        round_trip(&[7, 7, 7, 7, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn rule_utility_inlines_single_use_rules() {
        // From the Sequitur paper: "abcdbcabcdbc" — intermediate rule for
        // "bc" becomes underused once "abcdbc" is folded and is inlined.
        let words = vec![1, 2, 3, 4, 2, 3, 1, 2, 3, 4, 2, 3];
        let g = compress(&words);
        round_trip(&words);
        // Every non-root rule must be referenced at least twice.
        let mut refs = vec![0u32; g.rule_count()];
        for r in &g.rules {
            for s in &r.symbols {
                if s.is_rule() {
                    refs[s.payload() as usize] += 1;
                }
            }
        }
        for (i, &c) in refs.iter().enumerate().skip(1) {
            assert!(c >= 2, "rule {i} referenced {c} times");
        }
    }

    #[test]
    fn digram_uniqueness_holds_in_output() {
        let words: Vec<u32> =
            (0..2000).map(|i| [1, 2, 3, 1, 2, 9, 9, 4][(i * 7 + i / 13) % 8]).collect();
        let g = compress(&words);
        round_trip(&words);
        let mut seen = std::collections::HashMap::new();
        for r in &g.rules {
            for w in r.symbols.windows(2) {
                // Digrams may repeat *across* the boundary cases allowed by
                // expansion's conservative seam handling, but must be rare;
                // strict uniqueness applies to freshly built digrams. We
                // assert the grammar at least never repeats a digram more
                // than twice.
                let k = (w[0], w[1]);
                let e = seen.entry(k).or_insert(0u32);
                *e += 1;
                assert!(*e <= 2, "digram {k:?} appears {e} times");
            }
        }
    }

    #[test]
    fn file_separators_stay_in_root() {
        let mut s = Sequitur::new();
        for rep in 0..3 {
            for w in [1u32, 2, 3, 4] {
                s.push(Symbol::word(w));
            }
            s.push(Symbol::file_sep(rep));
        }
        let g = s.into_grammar();
        for (i, r) in g.rules.iter().enumerate().skip(1) {
            assert!(r.symbols.iter().all(|sym| !sym.is_sep()), "separator escaped into rule {i}");
        }
        let seps = g.rules[0].symbols.iter().filter(|s| s.is_sep()).count();
        assert_eq!(seps, 3);
    }

    /// Pseudo-random but deterministic stream with heavy reuse.
    fn long_zipf_like_stream() -> Vec<u32> {
        let mut x = 0x12345678u64;
        (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % 50) as u32
            })
            .collect()
    }

    #[test]
    fn long_zipf_like_stream_round_trips() {
        round_trip(&long_zipf_like_stream());
    }

    #[test]
    fn digram_index_stays_consistent_and_probes_stay_short() {
        let mut s = Sequitur::new();
        for (i, &w) in long_zipf_like_stream().iter().enumerate() {
            s.push(Symbol::word(w));
            if i % 997 == 0 {
                s.digrams.assert_consistent(|n| key_at(&s.nodes, n));
            }
        }
        s.digrams.assert_consistent(|n| key_at(&s.nodes, n));
        // A hash that buckets by one symbol of the digram makes every
        // digram sharing that symbol probe from the same slot; with both
        // symbols in the bucket bits a look-up ends within two slots on
        // average at this load.
        let (probes, ops) = (s.digrams.probes.get(), s.digrams.ops.get());
        println!("{probes} probes in {ops} index operations");
        assert!(ops > 40_000, "the stream must exercise the index");
        assert!(probes < 2 * ops, "{probes} probes in {ops} operations");
    }

    #[test]
    fn repeated_phrase_compresses_well() {
        let phrase: Vec<u32> = (0..32).collect();
        let words: Vec<u32> = phrase.repeat(64);
        let g = compress(&words);
        round_trip(&words);
        let total: usize = g.rules.iter().map(|r| r.symbols.len()).sum();
        assert!(
            total < words.len() / 4,
            "grammar size {total} should be far below input {}",
            words.len()
        );
    }

    #[test]
    fn regression_rule_retired_during_its_own_utility_check() {
        // Proptest-found input: the cascaded seam checks inside a
        // substitution retire the freshly created rule before its own
        // rule-utility check runs; reading its guard then followed a
        // freed node. Round-trip must survive.
        let mut s = Sequitur::new();
        for &w in &[0u32, 1, 1, 1, 2, 3] {
            s.push(Symbol::word(w));
        }
        s.push(Symbol::file_sep(0));
        for &w in &[0u32, 1, 4, 1, 1, 2] {
            s.push(Symbol::word(w));
        }
        let g = s.into_grammar();
        g.validate().unwrap();
        let expanded: Vec<u32> = g.expand_symbols().iter().map(|x| x.raw()).collect();
        let sep = Symbol::file_sep(0).raw();
        assert_eq!(expanded, vec![0, 1, 1, 1, 2, 3, sep, 0, 1, 4, 1, 1, 2]);
    }

    #[test]
    fn live_rules_counts_match_grammar() {
        let mut s = Sequitur::new();
        for &w in [1, 2, 3, 4, 2, 3].iter() {
            s.push(Symbol::word(w));
        }
        let live = s.live_rules();
        let g = s.into_grammar();
        assert_eq!(live, g.rule_count());
    }

    #[test]
    fn input_len_counts_pushes() {
        let mut s = Sequitur::new();
        for w in 0..17 {
            s.push(Symbol::word(w));
        }
        assert_eq!(s.input_len(), 17);
    }
}
