//! Chunk-parallel grammar construction: planning, per-chunk compression,
//! and the deterministic merge.
//!
//! G-TADOC-style parallel ingestion splits the tokenized corpus into `W`
//! contiguous chunks, compresses each chunk independently (Sequitur over
//! the chunk's span, interning into a chunk-local dictionary), and merges
//! the sub-grammars into one grammar over one shared dictionary:
//!
//! 1. chunk-local word ids are re-interned into the shared dictionary in
//!    chunk order — because chunks tile the stream left to right, the
//!    shared dictionary assigns ids in global first-occurrence order,
//!    exactly as a serial build would;
//! 2. chunk-local rule indices are offset into one global rule space;
//! 3. the chunk top-rules (each chunk's `R0` body) are spliced, in chunk
//!    order, into a single global root rule;
//! 4. optionally, digrams repeated across chunk seams are folded into
//!    fresh rules ([`MergeOptions::seam_dedup`]), recovering sharing the
//!    per-chunk passes could not see.
//!
//! Every step is a pure function of the token stream and the chunk count,
//! so the merged grammar is identical for any worker count, and a
//! single-chunk build reproduces the serial [`crate::compress_corpus`]
//! grammar byte for byte.

use crate::cfg::{Grammar, Rule};
use crate::dict::Dictionary;
use crate::digram::{digram_key, KeyMap};
use crate::sequitur::Sequitur;
use crate::symbol::Symbol;
use crate::tokenizer::{TokenizerConfig, Tokens};

/// A contiguous run of tokens from one file, assigned to one chunk.
///
/// `start == 0` means the piece begins the file, so the piece also carries
/// the file's leading separator (for every file but the first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    /// Index into the corpus file list.
    pub file: usize,
    /// First token of the run (inclusive), within the file.
    pub start: usize,
    /// One past the last token of the run, within the file.
    pub end: usize,
}

/// Split a corpus of `file_tokens.len()` files (given per-file token
/// counts) into `chunks` contiguous spans of near-equal token count.
///
/// The plan is a pure function of the token counts and the chunk count:
/// chunk `k` covers global token positions `[k·T/W, (k+1)·T/W)`. Files
/// straddling a boundary are split mid-file; empty files are attached to
/// the chunk covering their position so their separator is not lost. Some
/// chunks may be empty when there are fewer tokens than chunks.
pub fn plan_chunks(file_tokens: &[usize], chunks: usize) -> Vec<Vec<Piece>> {
    let w = chunks.max(1);
    let total: usize = file_tokens.iter().sum();
    let bounds: Vec<usize> = (0..=w).map(|k| k * total / w).collect();
    let mut plan: Vec<Vec<Piece>> = vec![Vec::new(); w];
    let mut off = 0usize;
    for (file, &len) in file_tokens.iter().enumerate() {
        if len == 0 {
            // First chunk whose span ends past this position (or the last).
            let k = (0..w).find(|&k| bounds[k + 1] > off).unwrap_or(w - 1);
            plan[k].push(Piece { file, start: 0, end: 0 });
            continue;
        }
        for (k, pair) in bounds.windows(2).enumerate() {
            let lo = pair[0].max(off);
            let hi = pair[1].min(off + len);
            if lo < hi {
                plan[k].push(Piece { file, start: lo - off, end: hi - off });
            }
        }
        off += len;
    }
    plan
}

/// One chunk's compression result: a grammar whose `R0` spells the chunk's
/// token span, over a chunk-local dictionary.
#[derive(Debug, Clone)]
pub struct ChunkGrammar {
    /// Sequitur output for the chunk's span.
    pub grammar: Grammar,
    /// Chunk-local word interner (ids are chunk first-occurrence order).
    pub dict: Dictionary,
}

/// One chunk under construction: Sequitur over the chunk's span, interning
/// into a fresh chunk-local dictionary.
struct ChunkBuilder {
    dict: Dictionary,
    seq: Sequitur,
}

impl ChunkBuilder {
    fn new() -> Self {
        ChunkBuilder { dict: Dictionary::new(), seq: Sequitur::new() }
    }

    /// Start `piece`, whose file sits at global index `file_base +
    /// piece.file`. A piece that begins a file (other than the corpus's
    /// first) first emits the file's leading separator symbol, so splicing
    /// the chunk top-rules reproduces the serial separator layout.
    fn begin(&mut self, piece: &Piece, file_base: usize) {
        let global = file_base + piece.file;
        if piece.start == 0 && global > 0 {
            self.seq.push(Symbol::file_sep(global as u32 - 1));
        }
    }

    fn word(&mut self, word: &str) {
        self.seq.push(Symbol::word(self.dict.intern(word)));
    }

    fn finish(self) -> ChunkGrammar {
        ChunkGrammar { grammar: self.seq.into_grammar(), dict: self.dict }
    }
}

/// Compress one chunk of already tokenized files: feed its pieces through
/// Sequitur, interning words into a fresh chunk-local dictionary.
pub fn build_chunk<T: AsRef<str>>(file_tokens: &[Vec<T>], pieces: &[Piece]) -> ChunkGrammar {
    build_chunk_at(file_tokens, pieces, 0)
}

/// [`build_chunk`] for a chunk whose files sit at global file indices
/// `file_base + p.file` — the append path, where `file_tokens` holds only
/// the *new* files of a corpus that already has `file_base` files. Every
/// appended file (including the first, which follows an existing file)
/// gets its leading separator.
pub fn build_chunk_at<T: AsRef<str>>(
    file_tokens: &[Vec<T>],
    pieces: &[Piece],
    file_base: usize,
) -> ChunkGrammar {
    let mut chunk = ChunkBuilder::new();
    for p in pieces {
        chunk.begin(p, file_base);
        for tok in &file_tokens[p.file][p.start..p.end] {
            chunk.word(tok.as_ref());
        }
    }
    chunk.finish()
}

/// [`build_chunk_at`] reading the tokens straight from the `(name, text)`
/// files, as [`Tokens`] lends them: no token is stored. `pieces` must come
/// from a plan over these files' token counts under `cfg`.
pub fn build_chunk_of_files(
    files: &[(String, String)],
    cfg: &TokenizerConfig,
    pieces: &[Piece],
    file_base: usize,
) -> ChunkGrammar {
    let mut chunk = ChunkBuilder::new();
    for p in pieces {
        chunk.begin(p, file_base);
        let mut tokens = Tokens::new(&files[p.file].1, cfg);
        for at in 0..p.end {
            let tok = tokens.next_token().expect("the plan counted this file's tokens");
            if at >= p.start {
                chunk.word(tok);
            }
        }
    }
    chunk.finish()
}

/// Knobs for [`merge_chunks`].
#[derive(Debug, Clone)]
pub struct MergeOptions {
    /// Fold digrams repeated in the merged root rule (sharing across chunk
    /// seams the per-chunk passes could not see) into fresh rules. Skipped
    /// for single-chunk merges, which must stay byte-identical to the
    /// serial build.
    pub seam_dedup: bool,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions { seam_dedup: true }
    }
}

/// Merge chunk sub-grammars into one grammar over one shared dictionary.
///
/// Deterministic: the output depends only on the chunk contents and their
/// order. For a single chunk this is the identity transformation (modulo
/// the shared-dictionary re-intern, which preserves ids).
pub fn merge_chunks(chunks: &[ChunkGrammar], opts: &MergeOptions) -> (Grammar, Dictionary) {
    let mut dict = Dictionary::new();
    // Chunk-local id → shared id. Chunks tile the stream in order, so the
    // shared dictionary ends up in global first-occurrence order.
    let word_maps: Vec<Vec<u32>> =
        chunks.iter().map(|c| c.dict.iter().map(|(_, w)| dict.intern(w)).collect()).collect();

    let mut rules: Vec<Rule> = vec![Rule { symbols: Vec::new() }]; // R0, filled below
    let mut root: Vec<Symbol> = Vec::new();
    for (c, chunk) in chunks.iter().enumerate() {
        // Chunk-local rule `i` (i ≥ 1) lands at global `offset + i - 1`.
        let offset = rules.len() as u32;
        let remap = |s: Symbol| {
            if s.is_word() {
                Symbol::word(word_maps[c][s.payload() as usize])
            } else if s.is_rule() {
                Symbol::rule(offset + s.payload() - 1)
            } else {
                s
            }
        };
        for (i, r) in chunk.grammar.rules.iter().enumerate() {
            let body = r.symbols.iter().map(|&s| remap(s));
            if i == 0 {
                root.extend(body);
            } else {
                rules.push(Rule { symbols: body.collect() });
            }
        }
    }

    if opts.seam_dedup && chunks.len() > 1 {
        let (deduped, extra) = dedup_root_digrams(root, rules.len() as u32);
        root = deduped;
        rules.extend(extra);
    }
    rules[0] = Rule { symbols: root };
    (Grammar::new(rules), dict)
}

/// What [`append_chunk`] changed: the information the incremental
/// summation / capacity-planning layers need to re-derive only the facts
/// that could have moved.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// Global ids of every rule added by the splice and the seam-dedup
    /// pass, in id order.
    pub new_rules: Vec<u32>,
    /// Pre-existing rules the reuse pass folded new root occurrences into
    /// (id order). Their bodies are untouched, but their reference counts
    /// grew, so usage-derived facts (pruned views of the root, frequency
    /// tallies) must be re-derived over them.
    pub reused_rules: Vec<u32>,
    /// Words the chunk introduced to the shared dictionary.
    pub new_words: usize,
    /// Symbols spliced onto the root before seam dedup (cost accounting).
    pub spliced_symbols: usize,
    /// Rules to revisit: always `{0}` (the root absorbs the splice and
    /// the dedup rewrites), then [`reused_rules`](Self::reused_rules),
    /// then [`new_rules`](Self::new_rules). Every rule outside this set
    /// has an unchanged body *and* unchanged references into it, so every
    /// fact derived from it is still valid.
    pub dirty_rules: Vec<u32>,
}

/// Absorb one appended chunk into an existing grammar + dictionary, in
/// place: re-intern the chunk's words into the shared dictionary (new
/// words get the next ids, preserving global first-occurrence order),
/// remap the chunk's rules into the global rule space, splice the chunk's
/// top-rule body onto the end of the root, and (optionally) run the
/// batched seam-dedup pass over the grown root so digrams repeated across
/// the old/new seam fold into fresh rules.
///
/// The key invariant for incremental re-summation: **only the root body
/// changes among pre-existing rules.** New rules are appended; old
/// non-root bodies are never rewritten, so per-rule bottom-up facts
/// (summation bounds, expansion lengths, head/tail buffers) stay valid for
/// every rule outside the returned dirty set.
///
/// Deterministic: a pure function of `(grammar, dict, chunk, opts)` — the
/// same fold of appends always yields byte-identical grammars.
pub fn append_chunk(
    grammar: &mut Grammar,
    dict: &mut Dictionary,
    chunk: &ChunkGrammar,
    opts: &MergeOptions,
) -> AppendOutcome {
    let words_before = dict.len();
    let word_map: Vec<u32> = chunk.dict.iter().map(|(_, w)| dict.intern(w)).collect();

    // Chunk-local rule `i` (i ≥ 1) lands at global `offset + i - 1`,
    // exactly as in `merge_chunks`.
    let offset = grammar.rules.len() as u32;
    let remap = |s: Symbol| {
        if s.is_word() {
            Symbol::word(word_map[s.payload() as usize])
        } else if s.is_rule() {
            Symbol::rule(offset + s.payload() - 1)
        } else {
            s
        }
    };
    let mut spliced_symbols = 0usize;
    for (i, r) in chunk.grammar.rules.iter().enumerate() {
        let body = r.symbols.iter().map(|&s| remap(s));
        if i == 0 {
            spliced_symbols = r.symbols.len();
            grammar.rules[0].symbols.extend(body);
        } else {
            grammar.rules.push(Rule { symbols: body.collect() });
        }
    }

    // Reuse pass, then seam dedup. Digrams folded into a rule by the base
    // build or an earlier append are invisible to `dedup_root_digrams` —
    // they live as rule bodies, not as root repeats — so a digram
    // recurring across appends would either sit raw in the root (one
    // occurrence per append, never reaching the ≥ 2 fold threshold) or
    // mint a duplicate `[a, b]` rule shadowing an existing one. Either
    // way the pruning frontier drifts away from what a fresh build over
    // the same corpus would produce. Fold every root occurrence of an
    // existing two-symbol rule body into that rule first (left to right,
    // first-minted rule wins, repeated until no occurrence remains so
    // folds can cascade into enclosing digram rules), *then* hunt for new
    // repeats among what is left.
    let mut reused_rules: Vec<u32> = Vec::new();
    if opts.seam_dedup {
        let mut by_digram: KeyMap<u32> = KeyMap::default();
        for (id, r) in grammar.rules.iter().enumerate().skip(1) {
            if let [a, b] = r.symbols[..] {
                if !a.is_sep() && !b.is_sep() {
                    by_digram.entry(digram_key(a, b)).or_insert(id as u32);
                }
            }
        }
        if !by_digram.is_empty() {
            // Chunk-minted rules (id ≥ offset) are already in the new/dirty
            // sets; only genuinely pre-existing rules are recorded as reused.
            let mut reused = vec![false; offset as usize];
            let mut body = std::mem::take(&mut grammar.rules[0].symbols);
            let mut out = Vec::with_capacity(body.len());
            loop {
                let mut changed = false;
                let mut i = 0;
                while i < body.len() {
                    if i + 1 < body.len() {
                        if let Some(&id) = by_digram.get(&digram_key(body[i], body[i + 1])) {
                            out.push(Symbol::rule(id));
                            if id < offset {
                                reused[id as usize] = true;
                            }
                            changed = true;
                            i += 2;
                            continue;
                        }
                    }
                    out.push(body[i]);
                    i += 1;
                }
                std::mem::swap(&mut body, &mut out);
                out.clear();
                if !changed {
                    break;
                }
            }
            grammar.rules[0].symbols = body;
            reused_rules = (0..offset).filter(|&id| reused[id as usize]).collect();
        }

        // Seam dedup over the whole root: the previous root had its
        // repeats folded already, so any surviving repeat involves the
        // appended span (entirely inside it or straddling the seam).
        // Folding rewrites only the root and mints fresh rules — old
        // bodies stay untouched.
        let root = std::mem::take(&mut grammar.rules[0].symbols);
        let (deduped, extra) = dedup_root_digrams(root, grammar.rules.len() as u32);
        grammar.rules[0].symbols = deduped;
        grammar.rules.extend(extra);
    }

    let new_rules: Vec<u32> = (offset..grammar.rules.len() as u32).collect();
    let mut dirty_rules = Vec::with_capacity(new_rules.len() + reused_rules.len() + 1);
    dirty_rules.push(0);
    dirty_rules.extend_from_slice(&reused_rules);
    dirty_rules.extend_from_slice(&new_rules);
    AppendOutcome {
        new_rules,
        reused_rules,
        new_words: dict.len() - words_before,
        spliced_symbols,
        dirty_rules,
    }
}

/// What one seam-dedup round knows about one digram of the root.
#[derive(Clone, Copy)]
struct Tally {
    /// Non-overlapping, left-to-right occurrences ("aaa" is one occurrence
    /// of "aa", not two).
    count: u32,
    /// One past the last counted occurrence: an occurrence starting before
    /// it overlaps that one and is not counted.
    counted_end: usize,
    /// Occurrences the claim sweep took.
    claims: u32,
    /// The rule replacing the digram this round, once it has won one.
    fresh: Option<Symbol>,
}

/// Marks a position whose digram touches a file separator (or the last
/// position, which starts no digram): never counted, never folded.
const NO_TALLY: u32 = u32::MAX;

/// Fold repeated digrams in the merged root body into fresh rules.
///
/// RePair-style recompression restricted to `R0`, batched so a round
/// costs one pass over the body instead of one pass per digram: every
/// round (1) counts non-overlapping digram occurrences, (2) walks the
/// body left to right claiming occurrences of every digram that repeats,
/// and (3) replaces each digram that still holds ≥ 2 claimed (mutually
/// non-overlapping) occurrences with a fresh rule of body `[a, b]`,
/// numbering the fresh rules by first claimed position.
/// Digrams whose claims collided (a shared middle symbol went to an
/// earlier digram) are left for the next round; if a round replaces
/// nothing while a repeat survives, the round falls back to replacing
/// the single most frequent digram (ties to the earliest first
/// occurrence), which no collision can block — so the loop always
/// terminates with no repeated non-separator digram in the root.
/// Digrams touching a file separator are never folded, preserving the
/// separators-stay-in-R0 invariant. Every choice is a pure left-to-right
/// function of the body, so the pass is schedule-independent.
///
/// Only a few per cent of a root's digrams repeat, so a round is built to
/// be cheap for the rest: one hash probe per position (digram → index into
/// `tallies`, remembered per position in `tally_at`), after which the claim
/// sweep and the rewrite read arrays; the map and every buffer are reused
/// from round to round.
fn dedup_root_digrams(mut body: Vec<Symbol>, first_free: u32) -> (Vec<Symbol>, Vec<Rule>) {
    let mut extra = Vec::new();
    let mut next = first_free;
    let mut index: KeyMap<u32> = KeyMap::default();
    let mut tallies: Vec<Tally> = Vec::new();
    let mut tally_at: Vec<u32> = Vec::new();
    let mut claimed: Vec<(u32, usize)> = Vec::new();
    let mut out: Vec<Symbol> = Vec::with_capacity(body.len());
    loop {
        // (1) Count.
        index.clear();
        tallies.clear();
        tally_at.clear();
        tally_at.resize(body.len(), NO_TALLY);
        let mut repeating = 0usize;
        for (i, pair) in body.windows(2).enumerate() {
            if pair[0].is_sep() || pair[1].is_sep() {
                continue;
            }
            let t = *index.entry(digram_key(pair[0], pair[1])).or_insert_with(|| {
                tallies.push(Tally { count: 0, counted_end: 0, claims: 0, fresh: None });
                tallies.len() as u32 - 1
            });
            tally_at[i] = t;
            let tally = &mut tallies[t as usize];
            if tally.counted_end > i {
                continue;
            }
            tally.counted_end = i + 2;
            tally.count += 1;
            repeating += usize::from(tally.count == 2);
        }
        if repeating == 0 {
            break;
        }

        // (2) Claim sweep: left to right, each occurrence of a repeating
        // digram claims its two positions unless an earlier claim took
        // them.
        claimed.clear();
        let mut i = 0;
        while i + 1 < body.len() {
            let t = tally_at[i];
            if t != NO_TALLY && tallies[t as usize].count >= 2 {
                tallies[t as usize].claims += 1;
                claimed.push((t, i));
                i += 2;
            } else {
                i += 1;
            }
        }

        // (3) Replace every digram that kept ≥ 2 claims. `claimed` is in
        // position order, so a winner's first claim is met first and the
        // fresh rules come out numbered by first claimed position.
        out.clear();
        let minted_before = extra.len();
        let mut copied = 0;
        for &(t, at) in &claimed {
            let tally = &mut tallies[t as usize];
            if tally.claims < 2 {
                continue;
            }
            let fresh = *tally.fresh.get_or_insert_with(|| {
                extra.push(Rule { symbols: vec![body[at], body[at + 1]] });
                next += 1;
                Symbol::rule(next - 1)
            });
            out.extend_from_slice(&body[copied..at]);
            out.push(fresh);
            copied = at + 2;
        }
        if extra.len() == minted_before {
            // Collisions starved every repeat below two claims: fall back
            // to the unblockable single-best replacement for this round —
            // the most frequent digram, the earliest such (the first
            // position whose digram has the top count; distinct digrams
            // cannot share a position, so the choice is unique).
            let top = tallies.iter().map(|t| t.count).max().expect("a repeat survives");
            let first = (0..body.len())
                .find(|&i| tally_at[i] != NO_TALLY && tallies[tally_at[i] as usize].count == top)
                .expect("the top count belongs to a position");
            let dg = (body[first], body[first + 1]);
            let fresh = Symbol::rule(next);
            next += 1;
            extra.push(Rule { symbols: vec![dg.0, dg.1] });
            let mut i = 0;
            while i < body.len() {
                if i + 1 < body.len() && (body[i], body[i + 1]) == dg {
                    out.push(fresh);
                    i += 2;
                } else {
                    out.push(body[i]);
                    i += 1;
                }
            }
        } else {
            out.extend_from_slice(&body[copied..]);
        }
        std::mem::swap(&mut body, &mut out);
    }
    (body, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;
    use crate::{compress_corpus, Compressed, Tokens};

    fn corpus() -> Vec<(String, String)> {
        vec![
            ("a".into(), "the quick brown fox jumps over the lazy dog the quick brown fox".into()),
            ("b".into(), "".into()),
            ("c".into(), "pack my box with five dozen liquor jugs the quick brown fox".into()),
            ("d".into(), "the quick brown fox jumps over the lazy dog again and again".into()),
        ]
    }

    /// The chunk-parallel construction run serially: plan `chunks` spans,
    /// build each, merge.
    fn build_chunked(
        files: &[(String, String)],
        cfg: &TokenizerConfig,
        chunks: usize,
        opts: &MergeOptions,
    ) -> Compressed {
        let counts: Vec<usize> =
            files.iter().map(|(_, text)| Tokens::new(text, cfg).count()).collect();
        let built: Vec<ChunkGrammar> = plan_chunks(&counts, chunks)
            .iter()
            .map(|pieces| build_chunk_of_files(files, cfg, pieces, 0))
            .collect();
        let (grammar, dict) = merge_chunks(&built, opts);
        Compressed { grammar, dict, file_names: files.iter().map(|(n, _)| n.clone()).collect() }
    }

    #[test]
    fn plan_covers_every_token_once_in_order() {
        for (lens, w) in [
            (vec![10usize, 0, 7, 13], 4usize),
            (vec![3, 3, 3], 8),
            (vec![0, 0, 0], 2),
            (vec![100], 3),
            (vec![], 4),
        ] {
            let plan = plan_chunks(&lens, w);
            assert_eq!(plan.len(), w);
            let mut seen: Vec<(usize, usize)> = Vec::new();
            let mut files_seen = Vec::new();
            for chunk in &plan {
                for p in chunk {
                    assert!(p.end <= lens[p.file]);
                    files_seen.push(p.file);
                    seen.extend((p.start..p.end).map(|t| (p.file, t)));
                }
            }
            let want: Vec<(usize, usize)> =
                lens.iter().enumerate().flat_map(|(f, &l)| (0..l).map(move |t| (f, t))).collect();
            assert_eq!(seen, want, "lens={lens:?} w={w}");
            // Every file appears (zero-length files keep their separator).
            let mut fs = files_seen;
            fs.dedup();
            assert_eq!(fs, (0..lens.len()).collect::<Vec<_>>(), "lens={lens:?} w={w}");
        }
    }

    #[test]
    fn single_chunk_matches_serial_byte_for_byte() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let serial = compress_corpus(&files, &cfg);
        let chunked = build_chunked(&files, &cfg, 1, &MergeOptions::default());
        assert_eq!(chunked.grammar, serial.grammar);
        assert_eq!(chunked.dict.iter().collect::<Vec<_>>(), serial.dict.iter().collect::<Vec<_>>());
        assert_eq!(chunked.file_names, serial.file_names);
    }

    #[test]
    fn chunked_expansion_matches_serial_for_all_widths() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let serial = compress_corpus(&files, &cfg);
        for w in [2, 3, 4, 8, 17] {
            let chunked = build_chunked(&files, &cfg, w, &MergeOptions::default());
            chunked.grammar.validate().unwrap();
            assert_eq!(
                chunked.grammar.expand_text(&chunked.dict),
                serial.grammar.expand_text(&serial.dict),
                "w={w}"
            );
            // The shared dictionary is in global first-occurrence order,
            // i.e. identical to the serial dictionary.
            assert_eq!(
                chunked.dict.iter().collect::<Vec<_>>(),
                serial.dict.iter().collect::<Vec<_>>(),
                "w={w}"
            );
        }
    }

    #[test]
    fn seam_dedup_folds_cross_chunk_repeats() {
        // One phrase repeated in every file: per-chunk Sequitur catches
        // repeats within a chunk; the seam pass catches the cross-chunk
        // root-level repeats that are left behind.
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let plain = build_chunked(&files, &cfg, 4, &MergeOptions { seam_dedup: false });
        let deduped = build_chunked(&files, &cfg, 4, &MergeOptions { seam_dedup: true });
        assert_eq!(
            plain.grammar.expand_text(&plain.dict),
            deduped.grammar.expand_text(&deduped.dict)
        );
        deduped.grammar.validate().unwrap();
        let plain_root = plain.grammar.rules[0].symbols.len();
        let dedup_root = deduped.grammar.rules[0].symbols.len();
        assert!(
            dedup_root < plain_root,
            "seam dedup should shrink the root ({dedup_root} vs {plain_root})"
        );
        // No digram may repeat in the deduped root (separators aside).
        let body = &deduped.grammar.rules[0].symbols;
        let mut seen = std::collections::HashSet::new();
        let mut i = 0;
        while i + 1 < body.len() {
            let dg = (body[i], body[i + 1]);
            if !dg.0.is_sep() && !dg.1.is_sep() && !seen.insert(dg) {
                panic!("digram {dg:?} repeats in the deduped root");
            }
            i += 1;
        }
    }

    #[test]
    fn separators_survive_chunking() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        for w in [1, 2, 4, 8] {
            let c = build_chunked(&files, &cfg, w, &MergeOptions::default());
            let seps: Vec<u32> = c.grammar.rules[0]
                .symbols
                .iter()
                .filter(|s| s.is_sep())
                .map(|s| s.payload())
                .collect();
            assert_eq!(seps, vec![0, 1, 2], "w={w}");
            assert_eq!(c.grammar.expand_files().len(), 4, "w={w}");
        }
    }

    #[test]
    fn build_chunk_mid_file_split_keeps_tokens() {
        let toks: Vec<Vec<String>> = vec![tokenize("a b c d e f", &TokenizerConfig::default())];
        let left = build_chunk(&toks, &[Piece { file: 0, start: 0, end: 3 }]);
        let right = build_chunk(&toks, &[Piece { file: 0, start: 3, end: 6 }]);
        let (g, d) = merge_chunks(&[left, right], &MergeOptions::default());
        assert_eq!(g.expand_text(&d), vec!["a b c d e f".to_string()]);
    }

    /// Tokenize each of `files` and build one append chunk covering all of
    /// them, with global file indices starting at `file_base`.
    fn append_chunk_of(files: &[(String, String)], file_base: usize) -> ChunkGrammar {
        let cfg = TokenizerConfig::default();
        let toks: Vec<Vec<String>> = files.iter().map(|(_, t)| tokenize(t, &cfg)).collect();
        let pieces: Vec<Piece> = toks
            .iter()
            .enumerate()
            .map(|(f, t)| Piece { file: f, start: 0, end: t.len() })
            .collect();
        build_chunk_at(&toks, &pieces, file_base)
    }

    #[test]
    fn append_reproduces_full_corpus_text_and_separators() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let serial = compress_corpus(&files, &cfg);
        // Build from file 0, then append files 1..4 one at a time.
        let mut acc = compress_corpus(&files[..1], &cfg);
        for (i, f) in files.iter().enumerate().skip(1) {
            let chunk = append_chunk_of(std::slice::from_ref(f), i);
            append_chunk(&mut acc.grammar, &mut acc.dict, &chunk, &MergeOptions::default());
            acc.file_names.push(f.0.clone());
        }
        acc.grammar.validate().unwrap();
        assert_eq!(acc.grammar.expand_text(&acc.dict), serial.grammar.expand_text(&serial.dict));
        // Shared dictionary stays in global first-occurrence order.
        assert_eq!(acc.dict.iter().collect::<Vec<_>>(), serial.dict.iter().collect::<Vec<_>>());
        let seps: Vec<u32> = acc.grammar.rules[0]
            .symbols
            .iter()
            .filter(|s| s.is_sep())
            .map(|s| s.payload())
            .collect();
        assert_eq!(seps, vec![0, 1, 2]);
    }

    #[test]
    fn append_dirties_only_root_and_new_rules() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let mut acc = compress_corpus(&files[..2], &cfg);
        let before = acc.grammar.rules.clone();
        let chunk = append_chunk_of(&files[2..], 2);
        let out = append_chunk(&mut acc.grammar, &mut acc.dict, &chunk, &MergeOptions::default());
        // Old non-root bodies are byte-identical.
        for (r, old) in before.iter().enumerate().skip(1) {
            assert_eq!(&acc.grammar.rules[r], old, "rule {r} body changed across append");
        }
        // The dirty set is exactly {root} ∪ reused ∪ new rules, and the
        // new-rule ids tile the tail of the rule space.
        let mut expect_dirty = vec![0u32];
        expect_dirty.extend_from_slice(&out.reused_rules);
        expect_dirty.extend_from_slice(&out.new_rules);
        assert_eq!(out.dirty_rules, expect_dirty);
        let expect: Vec<u32> = (before.len() as u32..acc.grammar.rules.len() as u32).collect();
        assert_eq!(out.new_rules, expect);
        assert!(out.new_words > 0, "files c/d introduce fresh vocabulary");
    }

    #[test]
    fn append_reuses_existing_digram_rules_instead_of_minting_duplicates() {
        // "p q" repeats inside the base file (so the base build folds it
        // into a rule), then recurs exactly once per appended file — one
        // occurrence per append can never reach the ≥ 2 fold threshold,
        // so pre-fix the seam pass either left it raw in the root or,
        // once two appends accumulated, minted a duplicate [p, q] rule
        // shadowing the base one. The reuse pass must fold each new
        // occurrence into the existing rule instead.
        let cfg = TokenizerConfig::default();
        let base = vec![("f0".to_string(), "p q x p q".to_string())];
        let serial_text = {
            let c = compress_corpus(&base, &cfg);
            c.grammar.expand_text(&c.dict)
        };
        let mut acc = compress_corpus(&base, &cfg);
        let mut expect_text = serial_text;
        for i in 1..=4usize {
            let f = (format!("f{i}"), format!("u{i} p q v{i}"));
            let chunk = append_chunk_of(std::slice::from_ref(&f), i);
            let out =
                append_chunk(&mut acc.grammar, &mut acc.dict, &chunk, &MergeOptions::default());
            assert!(
                !out.reused_rules.is_empty(),
                "append {i}: the recurring \"p q\" must fold into the existing rule"
            );
            assert_eq!(out.dirty_rules[0], 0);
            assert!(
                out.reused_rules.iter().all(|r| out.dirty_rules.contains(r)),
                "reused rules must be revisited by the incremental layers"
            );
            expect_text.push(f.1.clone());
        }
        acc.grammar.validate().unwrap();
        assert_eq!(acc.grammar.expand_text(&acc.dict), expect_text);
        // The frontier stayed deduplicated: no two rules share a body.
        let mut bodies = std::collections::HashSet::new();
        for (id, r) in acc.grammar.rules.iter().enumerate().skip(1) {
            assert!(
                bodies.insert(r.symbols.clone()),
                "rule {id} duplicates an earlier rule body {:?}",
                r.symbols
            );
        }
        // And no raw "p q" digram survives in the root.
        let pq: Vec<Symbol> = {
            let p = acc.dict.iter().find(|(_, w)| *w == "p").unwrap().0;
            let q = acc.dict.iter().find(|(_, w)| *w == "q").unwrap().0;
            vec![Symbol::word(p), Symbol::word(q)]
        };
        let root = &acc.grammar.rules[0].symbols;
        assert!(
            !root.windows(2).any(|w| *w == pq[..]),
            "raw \"p q\" digram left in the root after append"
        );
    }

    #[test]
    fn append_seam_dedup_leaves_no_repeated_root_digram() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let mut acc = compress_corpus(&files[..1], &cfg);
        for (i, f) in files.iter().enumerate().skip(1) {
            let chunk = append_chunk_of(std::slice::from_ref(f), i);
            append_chunk(&mut acc.grammar, &mut acc.dict, &chunk, &MergeOptions::default());
        }
        let body = &acc.grammar.rules[0].symbols;
        let mut seen = std::collections::HashSet::new();
        let mut i = 0;
        while i + 1 < body.len() {
            let dg = (body[i], body[i + 1]);
            if !dg.0.is_sep() && !dg.1.is_sep() && !seen.insert(dg) {
                panic!("digram {dg:?} repeats in the appended root");
            }
            i += 1;
        }
    }

    #[test]
    fn append_fold_is_deterministic() {
        let files = corpus();
        let cfg = TokenizerConfig::default();
        let run = || {
            let mut acc = compress_corpus(&files[..1], &cfg);
            for (i, f) in files.iter().enumerate().skip(1) {
                let chunk = append_chunk_of(std::slice::from_ref(f), i);
                append_chunk(&mut acc.grammar, &mut acc.dict, &chunk, &MergeOptions::default());
            }
            acc
        };
        let a = run();
        let b = run();
        assert_eq!(a.grammar, b.grammar);
        assert_eq!(a.dict.iter().collect::<Vec<_>>(), b.dict.iter().collect::<Vec<_>>());
    }
}
