//! The serial build of `ntadoc compress` on two threads: the calling thread
//! reads, tokenizes and interns each file; a helper thread runs Sequitur
//! over the symbols it is sent, in batches.
//!
//! The symbol stream is the one `CorpusBuilder::add_file` pushes — a file
//! separator before every file but the first, then the file's word ids —
//! so the grammar, the dictionary and the image are byte-identical to the
//! builder's at any worker count. At one worker nothing is spawned and the
//! symbols go straight into Sequitur. DESIGN.md ("Threading model") says
//! why this stage lives in the CLI and not in `ntadoc_grammar`.

use std::mem;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, Scope, ScopedJoinHandle};

use ntadoc_grammar::{Compressed, Dictionary, Grammar, Sequitur, Symbol, TokenizerConfig, Tokens};
use ntadoc_pmem::par;

use crate::cmd::CliError;

/// Symbols in one batch sent to the Sequitur thread.
const BATCH: usize = 4096;

/// Full batches that may wait for the Sequitur thread before the reader
/// blocks: enough to ride out a slow file read, few enough that the
/// queue's memory stays a rounding error.
const QUEUED: usize = 4;

/// Where the symbol stream goes.
enum Stage<'s> {
    /// Straight into Sequitur on this thread: one worker.
    Inline(Sequitur),
    /// In batches to a helper thread that owns Sequitur. Emptied batches
    /// come back on `empty` and are filled again.
    Helper {
        batch: Vec<Symbol>,
        full: SyncSender<Vec<Symbol>>,
        empty: Receiver<Vec<Symbol>>,
        helper: ScopedJoinHandle<'s, Grammar>,
    },
}

impl<'s> Stage<'s> {
    /// The stage for [`par::thread_count`] workers: a helper on `scope`
    /// from two on, none at one.
    fn start(scope: &'s Scope<'s, '_>) -> Self {
        if par::thread_count() < 2 {
            return Stage::Inline(Sequitur::new());
        }
        let (full, batches) = sync_channel::<Vec<Symbol>>(QUEUED);
        let (emptied, empty) = sync_channel(QUEUED);
        let helper = scope.spawn(move || {
            let mut seq = Sequitur::new();
            for mut batch in batches {
                batch.iter().for_each(|&sym| seq.push(sym));
                batch.clear();
                // Never waits: with the return queue full or the reader
                // gone, the buffer just drops.
                let _ = emptied.try_send(batch);
            }
            seq.into_grammar()
        });
        Stage::Helper { batch: Vec::with_capacity(BATCH), full, empty, helper }
    }

    fn push(&mut self, sym: Symbol) {
        match self {
            Stage::Inline(seq) => seq.push(sym),
            Stage::Helper { batch, full, empty, .. } => {
                batch.push(sym);
                if batch.len() == BATCH {
                    let next = empty.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH));
                    // Fails only if the helper panicked; `finish` re-raises it.
                    let _ = full.send(mem::replace(batch, next));
                }
            }
        }
    }

    /// The grammar of everything pushed. The helper, if any, is joined.
    fn finish(self) -> Grammar {
        match self {
            Stage::Inline(seq) => seq.into_grammar(),
            Stage::Helper { batch, full, helper, .. } => {
                if !batch.is_empty() {
                    let _ = full.send(batch);
                }
                drop(full);
                helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }
        }
    }
}

/// The corpus of `inputs`, `(file name, text)` in corpus order, exactly as
/// `CorpusBuilder` builds it. Each input is taken only when the previous
/// file's symbols are on their way, so reading overlaps Sequitur. The first
/// input that is an error ends the build with that error; the helper has
/// been joined by then, whichever way the build ends.
pub(crate) fn build_corpus(
    inputs: impl IntoIterator<Item = Result<(String, String), CliError>>,
) -> Result<Compressed, CliError> {
    let cfg = TokenizerConfig::default();
    thread::scope(|scope| {
        // Dropped on an early return: the channel closes, the helper
        // drains it and ends, and the scope joins it.
        let mut stage = Stage::start(scope);
        let mut dict = Dictionary::new();
        let mut file_names: Vec<String> = Vec::new();
        for input in inputs {
            let (name, text) = input?;
            if !file_names.is_empty() {
                stage.push(Symbol::file_sep(file_names.len() as u32 - 1));
            }
            file_names.push(name);
            let mut tokens = Tokens::new(&text, &cfg);
            while let Some(tok) = tokens.next_token() {
                stage.push(Symbol::word(dict.intern(tok)));
            }
        }
        Ok(Compressed { grammar: stage.finish(), dict, file_names })
    })
}

#[cfg(test)]
mod tests {
    use ntadoc_grammar::{serialize_compressed, CorpusBuilder};

    use super::*;

    fn built_by_pipeline(files: &[(String, String)], workers: usize) -> Compressed {
        par::with_threads(workers, || build_corpus(files.iter().cloned().map(Ok))).unwrap()
    }

    fn built_by_builder(files: &[(String, String)]) -> Compressed {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for (name, text) in files {
            b.add_file(name.clone(), text);
        }
        b.finish()
    }

    /// `n` words drawn from a small vocabulary, so Sequitur finds rules.
    fn words(n: usize, salt: usize) -> String {
        let word = |i: usize| format!("w{}", (i * 7 + i / 5 + salt) % 23);
        (0..n).map(word).collect::<Vec<_>>().join(" ")
    }

    fn named(texts: &[String]) -> Vec<(String, String)> {
        texts.iter().enumerate().map(|(i, t)| (format!("dir/f{i}.txt"), t.clone())).collect()
    }

    /// Grammar, dictionary, file names and the written image agree with
    /// `CorpusBuilder`'s at one worker (inline) and at two (helper), on
    /// corpora that put batch boundaries everywhere a mistake would show.
    #[test]
    fn pipeline_builds_what_the_corpus_builder_builds() {
        let cases: Vec<(&str, Vec<(String, String)>)> = vec![
            ("no files", Vec::new()),
            ("empty files", named(&["".into(), "".into(), words(5, 0), "".into()])),
            ("one file, one batch exactly", named(&[words(BATCH, 1)])),
            ("a separator closes the first batch", named(&[words(BATCH - 1, 2), words(9, 3)])),
            ("several full batches", named(&[words(3 * BATCH + 17, 4), words(2 * BATCH, 5)])),
            (
                "mixed case and non-ASCII",
                named(&[
                    "Über über ÜBER straße STRASSE Straße — naïve NAÏVE, (Naïve)".into(),
                    "ΣΊΣΥΦΟΣ Σίσυφος σίσυφος 東京 東京 Ünïcödé ünïcödé über".into(),
                    "The THE the \"quoted\" it's IT'S".repeat(40),
                ]),
            ),
        ];
        for (what, files) in &cases {
            let want = built_by_builder(files);
            let want_image = serialize_compressed(&want).unwrap();
            for workers in [1, 2] {
                let got = built_by_pipeline(files, workers);
                assert_eq!(got.grammar, want.grammar, "{what}, {workers} worker(s)");
                assert_eq!(got.file_names, want.file_names, "{what}, {workers} worker(s)");
                assert!(got.dict.iter().eq(want.dict.iter()), "{what}, {workers} worker(s)");
                let image = serialize_compressed(&got).unwrap();
                assert_eq!(image, want_image, "{what}, {workers} worker(s)");
            }
        }
    }

    /// One worker means no helper thread; two mean one.
    #[test]
    fn a_helper_is_spawned_only_from_two_workers() {
        for (workers, helper) in [(1, false), (2, true), (3, true)] {
            par::with_threads(workers, || {
                thread::scope(|scope| {
                    let stage = Stage::start(scope);
                    assert_eq!(matches!(stage, Stage::Helper { .. }), helper, "{workers}");
                    stage.finish();
                })
            });
        }
    }
}
