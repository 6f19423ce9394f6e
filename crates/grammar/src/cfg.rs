//! The context-free grammar / DAG produced by Sequitur.
//!
//! Rules form a DAG (Figure 1 (e) of the paper): rule → subrule edges are
//! the traversal structure all analytics tasks run over. `R0` (index 0)
//! spells the whole corpus, with file-separator symbols marking file
//! boundaries.

use crate::dict::Dictionary;
use crate::symbol::Symbol;

/// One grammar rule: an ordered sequence of symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Body symbols in order: words, rule references, and (in `R0` only,
    /// for well-formed corpora) file separators.
    pub symbols: Vec<Symbol>,
}

impl Rule {
    /// Iterate the distinct subrule indices referenced by this rule.
    pub fn subrules(&self) -> impl Iterator<Item = u32> + '_ {
        self.symbols.iter().filter(|s| s.is_rule()).map(|s| s.payload())
    }

    /// Number of word symbols (with multiplicity).
    pub fn word_occurrences(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_word()).count()
    }
}

/// Grammar statistics (the columns of the paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrammarStats {
    /// Total number of rules, `R0` included.
    pub rule_count: usize,
    /// Total symbols across all rule bodies (the compressed size in
    /// symbols).
    pub total_symbols: usize,
    /// Distinct word ids that occur in the grammar.
    pub vocabulary: usize,
    /// Number of file separators in `R0` + 1 (i.e. the file count for a
    /// non-empty corpus).
    pub files: usize,
    /// Length of the fully expanded corpus in words.
    pub expanded_words: u64,
}

impl GrammarStats {
    /// Compression ratio: expanded words per grammar symbol, 1 for a
    /// grammar with no symbols.
    pub fn compression_ratio(&self) -> f64 {
        if self.total_symbols == 0 {
            return 1.0;
        }
        self.expanded_words as f64 / self.total_symbols as f64
    }
}

/// Errors found by [`Grammar::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A body references a rule index ≥ `rule_count`.
    DanglingRuleRef { rule: u32, referenced: u32 },
    /// Rule reachability contains a cycle (the grammar must be a DAG).
    Cycle { rule: u32 },
    /// A rule no chain of references from `R0` reaches. Traversals count
    /// in-degrees over every rule but start from `R0` alone, so a dead
    /// rule's references would keep live rules from ever draining.
    UnreachableRule { rule: u32 },
    /// `R0`'s `index`-th file separator carries `payload`. Every build
    /// numbers them 0, 1, 2, … in order; nothing reads the payload, so only
    /// this check can tell a mis-numbered one.
    MisnumberedSeparator { index: u32, payload: u32 },
}

impl std::fmt::Display for GrammarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrammarError::DanglingRuleRef { rule, referenced } => {
                write!(f, "rule {rule} references nonexistent rule {referenced}")
            }
            GrammarError::Cycle { rule } => write!(f, "rule {rule} participates in a cycle"),
            GrammarError::UnreachableRule { rule } => {
                write!(f, "rule {rule} is unreachable from the root")
            }
            GrammarError::MisnumberedSeparator { index, payload } => {
                write!(f, "file separator {index} of the root carries payload {payload}")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// Rule-granularity threshold of [`Grammar::coarsened`] for every image
/// `ntadoc compress` writes and every generated dataset: rules expanding
/// to fewer words are inlined, matching the coarser rule structure TADOC
/// operates on (Table I shows ~1 rule per 25 expanded words, vs raw
/// Sequitur's ~1 per 3).
pub const COARSEN_MIN_EXP: u64 = 12;

/// A Sequitur-produced CFG. Rule 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    /// All rules; index = rule id.
    pub rules: Vec<Rule>,
}

impl Grammar {
    /// Wrap a rule list (rule 0 must be the root).
    pub fn new(rules: Vec<Rule>) -> Self {
        assert!(!rules.is_empty(), "a grammar needs at least R0");
        Grammar { rules }
    }

    /// Number of rules including `R0`.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Check structural invariants: `R0`'s file separators are numbered
    /// in order from 0, all rule references resolve, the rule graph is
    /// acyclic, and every rule is reachable from `R0`.
    pub fn validate(&self) -> Result<(), GrammarError> {
        let separators = self.rules[0].symbols.iter().filter(|s| s.is_sep());
        for (index, s) in (0u32..).zip(separators) {
            if s.payload() != index {
                return Err(GrammarError::MisnumberedSeparator { index, payload: s.payload() });
            }
        }
        let n = self.rules.len() as u32;
        for (i, r) in self.rules.iter().enumerate() {
            for s in r.subrules() {
                if s >= n {
                    return Err(GrammarError::DanglingRuleRef { rule: i as u32, referenced: s });
                }
            }
        }
        // Iterative three-color DFS from the root: a gray child is a cycle,
        // a rule still white at the end is unreachable.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.rules.len()];
        if let Some(root) = color.first_mut() {
            *root = Color::Gray;
            let mut stack = vec![(0u32, 0usize)];
            while let Some((rule, idx)) = stack.pop() {
                let body = &self.rules[rule as usize].symbols;
                let mut i = idx;
                let mut descended = false;
                while i < body.len() {
                    let s = body[i];
                    i += 1;
                    if !s.is_rule() {
                        continue;
                    }
                    let child = s.payload();
                    match color[child as usize] {
                        Color::Gray => return Err(GrammarError::Cycle { rule: child }),
                        Color::White => {
                            color[child as usize] = Color::Gray;
                            stack.push((rule, i));
                            stack.push((child, 0));
                            descended = true;
                            break;
                        }
                        Color::Black => {}
                    }
                }
                if !descended {
                    color[rule as usize] = Color::Black;
                }
            }
        }
        match color.iter().position(|&c| c == Color::White) {
            Some(rule) => Err(GrammarError::UnreachableRule { rule: rule as u32 }),
            None => Ok(()),
        }
    }

    /// Expanded corpus as raw symbols (words and separators, in order).
    /// This *is* decompression — used by tests and baseline generation
    /// only.
    pub fn expand_symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        // Iterative expansion to survive deep grammars.
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some((rule, idx)) = stack.pop() {
            let body = &self.rules[rule as usize].symbols;
            let mut i = idx;
            while i < body.len() {
                let s = body[i];
                i += 1;
                if s.is_rule() {
                    stack.push((rule, i));
                    stack.push((s.payload(), 0));
                    break;
                }
                out.push(s);
            }
        }
        out
    }

    /// Expanded corpus as word ids, separators dropped.
    pub fn expand_tokens(&self) -> Vec<u32> {
        self.expand_symbols().into_iter().filter(|s| s.is_word()).map(|s| s.payload()).collect()
    }

    /// Expanded corpus split into per-file word-id streams.
    pub fn expand_files(&self) -> Vec<Vec<u32>> {
        let mut files = vec![Vec::new()];
        for s in self.expand_symbols() {
            if s.is_sep() {
                files.push(Vec::new());
            } else {
                files.last_mut().expect("non-empty").push(s.payload());
            }
        }
        files
    }

    /// Expanded corpus as text, one string per file.
    pub fn expand_text(&self, dict: &Dictionary) -> Vec<String> {
        self.expand_files()
            .into_iter()
            .map(|f| f.iter().map(|&w| dict.word(w)).collect::<Vec<_>>().join(" "))
            .collect()
    }

    /// In-degree of every rule in the rule DAG (number of referencing
    /// occurrences, multiplicity counted). `R0` has in-degree 0.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.rules.len()];
        for r in &self.rules {
            for s in r.subrules() {
                deg[s as usize] += 1;
            }
        }
        deg
    }

    /// Rules in a topological order with `R0` first (parents before
    /// children).
    pub fn topo_order(&self) -> Vec<u32> {
        let mut deg = self.in_degrees();
        let mut order = Vec::with_capacity(self.rules.len());
        let mut queue: Vec<u32> =
            (0..self.rules.len() as u32).filter(|&r| deg[r as usize] == 0).collect();
        while let Some(r) = queue.pop() {
            order.push(r);
            for s in self.rules[r as usize].subrules() {
                deg[s as usize] -= 1;
                if deg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.rules.len(), "grammar has a cycle");
        order
    }

    /// Total symbols across all rule bodies (the compressed size in
    /// symbols).
    pub fn total_symbols(&self) -> usize {
        self.rules.iter().map(|r| r.symbols.len()).sum()
    }

    /// Grammar statistics (Table I columns). Linear in the grammar: the
    /// expanded word count is `R0`'s bottom-up expansion length, so nothing
    /// is decompressed to be counted.
    pub fn stats(&self) -> GrammarStats {
        // Word ids are dense dictionary indices: a growable bitmap.
        let mut seen: Vec<bool> = Vec::new();
        let mut vocabulary = 0usize;
        for s in self.rules.iter().flat_map(|r| &r.symbols).filter(|s| s.is_word()) {
            let id = s.payload() as usize;
            if id >= seen.len() {
                seen.resize(id + 1, false);
            }
            if !seen[id] {
                seen[id] = true;
                vocabulary += 1;
            }
        }
        let seps = self.rules[0].symbols.iter().filter(|s| s.is_sep()).count();
        GrammarStats {
            rule_count: self.rules.len(),
            total_symbols: self.total_symbols(),
            vocabulary,
            files: seps + 1,
            expanded_words: self.expansion_lengths()[0],
        }
    }

    /// Expansion length (in words, separators excluded) of every rule.
    pub fn expansion_lengths(&self) -> Vec<u64> {
        let order = self.topo_order();
        let mut exp = vec![0u64; self.rules.len()];
        for &r in order.iter().rev() {
            let mut len = 0u64;
            for s in &self.rules[r as usize].symbols {
                if s.is_word() {
                    len += 1;
                } else if s.is_rule() {
                    len += exp[s.payload() as usize];
                }
            }
            exp[r as usize] = len;
        }
        exp
    }

    /// Coarsen the grammar by inlining every rule whose expansion is
    /// shorter than `min_exp` words ([`COARSEN_MIN_EXP`] for every image
    /// and generated dataset).
    ///
    /// Raw Sequitur output consists mostly of length-2 rules (each digram
    /// replacement creates one), which is far finer-grained than the rule
    /// structure TADOC operates on — compare Table I's rule counts (~1 rule
    /// per 25 expanded words) with Sequitur's ~1 per 3. Coarsening trades a
    /// little compression for much shallower DAGs, exactly as the TADOC
    /// pipeline does. Expansion semantics are preserved exactly
    /// (property-tested).
    pub fn coarsened(&self, min_exp: u64) -> Grammar {
        let exp = self.expansion_lengths();
        let deg = self.in_degrees();
        let n = self.rules.len();
        // R0 is always kept; other rules survive if they expand to at
        // least `min_exp` words, or are short but heavily reused (short
        // frequent phrases are exactly what makes TADOC compression pay).
        let keep: Vec<bool> =
            (0..n).map(|r| r == 0 || exp[r] >= min_exp || (deg[r] >= 3 && exp[r] >= 4)).collect();
        // Bottom-up body rewriting: inlined children are spliced in, kept
        // children stay as references. A non-kept rule can only reference
        // other non-kept rules (its expansion bounds theirs), so its
        // flattened body is at most `min_exp` symbols.
        let order = self.topo_order();
        let mut flat: Vec<Vec<Symbol>> = vec![Vec::new(); n];
        for &r in order.iter().rev() {
            let mut body = Vec::new();
            for s in &self.rules[r as usize].symbols {
                if s.is_rule() && !keep[s.payload() as usize] {
                    body.extend_from_slice(&flat[s.payload() as usize]);
                } else {
                    body.push(*s);
                }
            }
            flat[r as usize] = body;
        }
        // Renumber kept rules densely.
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        for r in 0..n {
            if keep[r] {
                remap[r] = next;
                next += 1;
            }
        }
        let mut rules = Vec::with_capacity(next as usize);
        for r in 0..n {
            if !keep[r] {
                continue;
            }
            let symbols = flat[r]
                .iter()
                .map(|s| if s.is_rule() { Symbol::rule(remap[s.payload() as usize]) } else { *s })
                .collect();
            rules.push(Rule { symbols });
        }
        Grammar::new(rules)
    }

    /// Compression ratio: [`GrammarStats::compression_ratio`].
    pub fn compression_ratio(&self) -> f64 {
        self.stats().compression_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's grammar: R0 → R1 |0 R1 w6, R1 → R2 w3 w4 R2, R2 → w1 w2.
    fn fig1() -> Grammar {
        Grammar::new(vec![
            Rule {
                symbols: vec![
                    Symbol::rule(1),
                    Symbol::file_sep(0),
                    Symbol::rule(1),
                    Symbol::word(6),
                ],
            },
            Rule {
                symbols: vec![Symbol::rule(2), Symbol::word(3), Symbol::word(4), Symbol::rule(2)],
            },
            Rule { symbols: vec![Symbol::word(1), Symbol::word(2)] },
        ])
    }

    #[test]
    fn expand_walks_depth_first() {
        let g = fig1();
        let toks = g.expand_tokens();
        assert_eq!(toks, vec![1, 2, 3, 4, 1, 2, 1, 2, 3, 4, 1, 2, 6]);
    }

    #[test]
    fn expand_files_splits_on_separators() {
        let g = fig1();
        let files = g.expand_files();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0], vec![1, 2, 3, 4, 1, 2]);
        assert_eq!(files[1], vec![1, 2, 3, 4, 1, 2, 6]);
    }

    #[test]
    fn in_degrees_count_multiplicity() {
        let g = fig1();
        assert_eq!(g.in_degrees(), vec![0, 2, 2]);
    }

    #[test]
    fn topo_order_puts_parents_first() {
        let g = fig1();
        let order = g.topo_order();
        let pos = |r: u32| order.iter().position(|&x| x == r).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn validate_accepts_dag() {
        fig1().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_ref() {
        let g = Grammar::new(vec![Rule { symbols: vec![Symbol::rule(7)] }]);
        assert!(matches!(g.validate(), Err(GrammarError::DanglingRuleRef { referenced: 7, .. })));
    }

    #[test]
    fn validate_rejects_cycle() {
        let g = Grammar::new(vec![
            Rule { symbols: vec![Symbol::rule(1)] },
            Rule { symbols: vec![Symbol::rule(2)] },
            Rule { symbols: vec![Symbol::rule(1)] },
        ]);
        assert!(matches!(g.validate(), Err(GrammarError::Cycle { .. })));
    }

    /// `R0 → R1 c R1`, `R1 → a b`, dead `R2 → R1 d`: the top-down Kahn walk
    /// would never drain `R1` (its in-degree counts the dead reference).
    #[test]
    fn validate_rejects_a_rule_unreachable_from_the_root() {
        let g = Grammar::new(vec![
            Rule { symbols: vec![Symbol::rule(1), Symbol::word(2), Symbol::rule(1)] },
            Rule { symbols: vec![Symbol::word(0), Symbol::word(1)] },
            Rule { symbols: vec![Symbol::rule(1), Symbol::word(3)] },
        ]);
        assert_eq!(g.validate(), Err(GrammarError::UnreachableRule { rule: 2 }));
        // A dead cycle is dead first.
        let g = Grammar::new(vec![
            Rule { symbols: vec![Symbol::word(0)] },
            Rule { symbols: vec![Symbol::rule(2)] },
            Rule { symbols: vec![Symbol::rule(1)] },
        ]);
        assert_eq!(g.validate(), Err(GrammarError::UnreachableRule { rule: 1 }));
    }

    #[test]
    fn validate_rejects_a_misnumbered_separator() {
        let root = |payloads: &[u32]| {
            let mut symbols = vec![Symbol::word(0)];
            for &p in payloads {
                symbols.extend([Symbol::file_sep(p), Symbol::word(1)]);
            }
            Grammar::new(vec![Rule { symbols }])
        };
        root(&[0, 1, 2]).validate().unwrap();
        let err = root(&[0, 2, 1]).validate();
        assert_eq!(err, Err(GrammarError::MisnumberedSeparator { index: 1, payload: 2 }));
        let err = root(&[1]).validate();
        assert_eq!(err, Err(GrammarError::MisnumberedSeparator { index: 0, payload: 1 }));
    }

    #[test]
    fn validate_rejects_self_cycle() {
        let g = Grammar::new(vec![
            Rule { symbols: vec![Symbol::rule(1)] },
            Rule { symbols: vec![Symbol::rule(1)] },
        ]);
        assert!(matches!(g.validate(), Err(GrammarError::Cycle { .. })));
    }

    #[test]
    fn stats_match_fig1() {
        let g = fig1();
        let s = g.stats();
        assert_eq!(s.rule_count, 3);
        assert_eq!(s.files, 2);
        assert_eq!(s.vocabulary, 5); // words 1,2,3,4,6
        assert_eq!(s.total_symbols, 10);
        assert_eq!(s.expanded_words, 13);
    }

    #[test]
    fn compression_ratio_reflects_reuse() {
        let g = fig1();
        assert!((g.compression_ratio() - 1.3).abs() < 1e-9);
        let empty = Grammar::new(vec![Rule { symbols: Vec::new() }]);
        assert_eq!(empty.compression_ratio(), 1.0);
    }

    #[test]
    fn word_occurrences_ignores_rules_and_seps() {
        let g = fig1();
        assert_eq!(g.rules[0].word_occurrences(), 1);
        assert_eq!(g.rules[1].word_occurrences(), 2);
    }

    #[test]
    fn expansion_lengths_match_expand() {
        let g = fig1();
        let exp = g.expansion_lengths();
        assert_eq!(exp[0], g.expand_tokens().len() as u64);
        assert_eq!(exp[2], 2);
        assert_eq!(exp[1], 6);
    }

    #[test]
    fn coarsening_preserves_expansion() {
        let g = fig1();
        for min_exp in [0, 3, 5, 100] {
            let c = g.coarsened(min_exp);
            assert_eq!(c.expand_symbols(), g.expand_symbols(), "min_exp = {min_exp}");
            c.validate().unwrap();
        }
    }

    #[test]
    fn coarsening_inlines_short_rules() {
        let g = fig1();
        // R2 expands to 2 words; with min_exp 3 it must be inlined.
        let c = g.coarsened(3);
        assert_eq!(c.rule_count(), 2);
        // With a huge threshold only R0 survives.
        let all = g.coarsened(1_000);
        assert_eq!(all.rule_count(), 1);
    }

    #[test]
    fn coarsening_with_zero_threshold_is_identity_shaped() {
        let g = fig1();
        let c = g.coarsened(0);
        assert_eq!(c.rule_count(), g.rule_count());
        assert_eq!(c.expand_symbols(), g.expand_symbols());
    }

    #[test]
    fn subrules_lists_references_in_order() {
        let g = fig1();
        let subs: Vec<u32> = g.rules[1].subrules().collect();
        assert_eq!(subs, vec![2, 2]);
    }
}
