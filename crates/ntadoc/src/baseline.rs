//! The uncompressed baseline of Figure 5: "the text analysis task was
//! performed on NVM. No specialized compression techniques or methods
//! designed for NVM were employed, except for the dictionary conversion of
//! the original text into numerical representations."
//!
//! The corpus lives on the device as a flat dictionary-encoded token
//! stream (one `u32` per word, a sentinel between files); every task is a
//! full scan. The same persistence strategies as the compressed engines
//! apply, so Figure 5 compares like with like.

use std::sync::Arc;

use ntadoc_grammar::Compressed;
use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::{Addr, DeviceProfile, PoolLayout};

use crate::config::{disk_read_ns, EngineConfig, POOL_OPEN_NS};
use crate::dag::WordReader;
use crate::engine::shape::{self, counts_of, Counts, Postings};
use crate::engine::{with_doubling_capacity, Engine, RunScaffold, LOG_BYTES};
use crate::report::RunReport;
use crate::result::{Task, TaskOutput, TaskRows};
use crate::Result;

/// File separator sentinel in the token stream.
const SEP: u32 = u32::MAX;
/// Operation-level transaction granularity for the scan baseline: one
/// transaction per I/O block (ranges dedup within it, so hot keys log
/// once per block).
const BASE_TX_BATCH: usize = 4096;

/// Uncompressed (dictionary-encoded) scan engine.
pub struct UncompressedEngine {
    comp: Arc<Compressed>,
    cfg: EngineConfig,
    profile: DeviceProfile,
    /// Raw text size, charged as the init disk read (uncompressed input
    /// is read from disk in full).
    raw_bytes: u64,
    /// Token stream including separators (host master copy; written to the
    /// device during init).
    tokens: Vec<u32>,
    /// Report of the most recent run.
    pub last_report: Option<RunReport>,
}

/// Builder for [`UncompressedEngine`], mirroring [`Engine::builder`].
pub struct UncompressedEngineBuilder {
    comp: Arc<Compressed>,
    cfg: EngineConfig,
    profile: DeviceProfile,
}

impl UncompressedEngineBuilder {
    /// Set the engine configuration (default: [`EngineConfig::ntadoc`]).
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the device profile (default: Optane NVM, the Figure 5 setup).
    pub fn profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Build the baseline engine.
    pub fn build(self) -> UncompressedEngine {
        let raw_bytes = Engine::uncompressed_bytes(&self.comp);
        let mut tokens = Vec::new();
        for s in self.comp.grammar.expand_symbols() {
            tokens.push(if s.is_sep() { SEP } else { s.payload() });
        }
        UncompressedEngine {
            comp: self.comp,
            cfg: self.cfg,
            profile: self.profile,
            raw_bytes,
            tokens,
            last_report: None,
        }
    }
}

impl UncompressedEngine {
    /// Start building a baseline for the same corpus a compressed engine
    /// uses. Accepts an owned [`Compressed`] or a shared `Arc<Compressed>`.
    pub fn builder(comp: impl Into<Arc<Compressed>>) -> UncompressedEngineBuilder {
        UncompressedEngineBuilder {
            comp: comp.into(),
            cfg: EngineConfig::ntadoc(),
            profile: DeviceProfile::nvm_optane(),
        }
    }

    /// Run one benchmark end to end (init + scan), with capacity retry.
    /// The string form of [`run_rows`](Self::run_rows).
    pub fn run(&mut self, task: Task) -> Result<TaskOutput> {
        self.run_rows(task).map(TaskRows::into_strings)
    }

    /// [`run`](Self::run), the result left in the id domain.
    pub fn run_rows(&mut self, task: Task) -> Result<TaskRows> {
        let (out, report) = with_doubling_capacity(self.estimate_capacity(), |capacity| {
            self.try_run(task, capacity)
        })?;
        self.last_report = Some(report);
        Ok(out)
    }

    fn estimate_capacity(&self) -> usize {
        let tokens = self.tokens.len() as u64;
        let vocab = self.comp.dict.len() as u64;
        let bytes = tokens * 4
            + self.comp.dict.text_bytes() as u64
            + (vocab + 2) * 8
            + vocab * 48
            + tokens * 24 // n-gram counter head-room
            + (vocab * 136).max(1 << 20) // scratch
            + LOG_BYTES
            + (1 << 20);
        (bytes * 3 / 2).next_power_of_two().max(1 << 22) as usize
    }

    fn try_run(&self, task: Task, capacity: usize) -> Result<(TaskRows, RunReport)> {
        let scratch_len = (capacity as u64 / 4).max(1 << 20);
        let layout = PoolLayout {
            capacity: capacity as u64,
            main_len: capacity as u64 - scratch_len - LOG_BYTES,
            scratch_len,
            log_len: LOG_BYTES,
        };
        let sc = RunScaffold::new(
            self.cfg.clone(),
            task,
            "uncompressed".into(),
            &self.profile,
            layout,
            None,
            BASE_TX_BATCH,
        )?;
        let (obs, dev, pool) = (&sc.obs, &sc.dev, &sc.pool);

        // ---- initialization phase (recorded as the "init" span) -----
        let (stream, dict_offsets, dict_bytes) =
            obs.span("init", dev, || -> Result<(Addr, Addr, Addr)> {
                if self.profile.kind.is_persistent() {
                    obs.span("pool-open", dev, || dev.charge_ns(POOL_OPEN_NS));
                }
                // Dictionary-conversion staging buffer (DRAM for the init
                // phase).
                let staging = self.tokens.len() as u64 * 4 * 3 / 2;
                obs.span("image-stream", dev, || {
                    dev.charge_ns(disk_read_ns(self.raw_bytes));
                    // Dictionary conversion of the raw text.
                    sc.charge_items(self.tokens.len() as u64);
                    sc.note_dram(staging);
                });
                let stream = obs.span("stream-write", dev, || -> Result<Addr> {
                    let stream = pool.alloc_array(self.tokens.len().max(1), 4)?;
                    dev.write_u32_slice(stream, &self.tokens);
                    Ok(stream)
                })?;
                // Dictionary (offsets + bytes) for result materialisation.
                let (dict_offsets, dict_bytes) =
                    obs.span("dict-write", dev, || -> Result<(Addr, Addr)> {
                        let vocab = self.comp.dict.len();
                        let dict_offsets = pool.alloc_array(vocab + 1, 8)?;
                        let dict_bytes = pool.alloc(self.comp.dict.text_bytes().max(1), 1)?;
                        let mut at = 0u64;
                        let mut text = Vec::with_capacity(self.comp.dict.text_bytes());
                        for (i, (_, w)) in self.comp.dict.iter().enumerate() {
                            dev.write_u64(dict_offsets + i as u64 * 8, at);
                            text.extend_from_slice(w.as_bytes());
                            at += w.len() as u64;
                        }
                        dev.write_u64(dict_offsets + vocab as u64 * 8, at);
                        dev.write_bytes(dict_bytes, &text);
                        Ok((dict_offsets, dict_bytes))
                    })?;
                obs.span("persist", dev, || {
                    if sc.persists() {
                        pool.persist_used();
                    }
                    sc.drop_dram(staging);
                });
                Ok((stream, dict_offsets, dict_bytes))
            })?;

        // ---- scan phase ---------------------------------------------
        let scan = Scan { sc: &sc, stream, n_tokens: self.tokens.len() };
        let comp = &self.comp;
        let words = || WordReader::per_word(dev, dict_offsets, dict_bytes);
        let out = sc.traversal(|| {
            Ok(match task {
                Task::WordCount => shape::word_count(&sc, scan.count_all_words()?, comp, words()),
                Task::Sort => shape::sort(&sc, scan.count_all_words()?, comp, words()),
                Task::TermVector => {
                    shape::term_vector(&sc, scan.per_file_tables()?, comp, words())?
                }
                Task::InvertedIndex => {
                    shape::inverted_index(&sc, scan.per_file_tables()?, comp, words(), true)?
                }
                Task::SequenceCount => {
                    shape::sequence_count(&sc, scan.ngram_counts()?, comp, words())
                }
                Task::RankedInvertedIndex => {
                    shape::ranked_index(&sc, scan.ngram_postings()?, comp, words())?
                }
            })
        })?;
        Ok((out, sc.report()))
    }
}

/// One scan run: the token stream on the scaffold's device.
struct Scan<'a> {
    sc: &'a RunScaffold,
    stream: Addr,
    n_tokens: usize,
}

const BLOCK: usize = 4096;

impl Scan<'_> {
    /// Standard-library-style growable counter table (the baseline has no
    /// summation to pre-size from). Per-file intermediates use these bare:
    /// like the compressed engines' scratch tables they are *not*
    /// transactional under operation-level persistence — recomputed on
    /// recovery, not persisted (only result structures are logged).
    fn table(&self, scratch: bool) -> Result<PHashTable> {
        let pool = if scratch { self.sc.fresh_scratch() } else { self.sc.pool.clone() };
        PHashTable::with_expected(pool, 8, false)
    }

    /// Visit each token in stream order (bulk block reads).
    fn for_each_token(&self, mut f: impl FnMut(u32) -> Result<()>) -> Result<()> {
        let mut buf = vec![0u32; BLOCK];
        let mut at = 0usize;
        while at < self.n_tokens {
            let n = BLOCK.min(self.n_tokens - at);
            self.sc.dev.read_u32_slice(self.stream + (at * 4) as u64, &mut buf[..n]);
            self.sc.charge_items(n as u64);
            for &t in &buf[..n] {
                f(t)?;
            }
            at += n;
        }
        Ok(())
    }

    // ---- id-level results (shaped by `engine::shape`) ----------------

    fn count_all_words(&self) -> Result<Counts> {
        let counter = self.sc.result_counter(8, false)?;
        self.for_each_token(|t| if t == SEP { Ok(()) } else { counter.add(t as u64, 1) })?;
        counter.finish()?;
        Ok(counts_of(&counter.table))
    }

    /// Per-file word tables via one scan.
    fn per_file_tables(&self) -> Result<Vec<Counts>> {
        let mut out = Vec::new();
        let mut table = self.table(true)?;
        self.for_each_token(|t| {
            if t == SEP {
                out.push(counts_of(&table));
                table = self.table(true)?;
                Ok(())
            } else {
                table.add(t as u64, 1)
            }
        })?;
        out.push(counts_of(&table));
        Ok(out)
    }

    /// Slide an n-window over the stream calling `f(gram id, file id)` per
    /// window; windows never cross file separators.
    fn for_each_ngram(&self, mut f: impl FnMut(u32, usize) -> Result<()>) -> Result<()> {
        let n = self.sc.cfg.ngram;
        let mut window: Vec<u32> = Vec::with_capacity(n);
        let mut fid = 0usize;
        self.for_each_token(|t| {
            if t == SEP {
                window.clear();
                fid += 1;
                return Ok(());
            }
            window.push(t);
            if window.len() > n {
                window.remove(0);
            }
            if window.len() == n {
                f(self.sc.intern(&window)?, fid)?;
            }
            Ok(())
        })
    }

    fn ngram_counts(&self) -> Result<Counts> {
        let counter = self.sc.result_counter(8, false)?;
        self.for_each_ngram(|id, _| counter.add(id as u64, 1))?;
        counter.finish()?;
        Ok(counts_of(&counter.table))
    }

    /// Every file's `(n-gram id, count)` postings, file after file,
    /// from per-file n-gram tables filled in one scan. The tables must
    /// coexist (one per file), so they live on the main pool rather than
    /// the shared scratch region.
    fn ngram_postings(&self) -> Result<Postings> {
        let mut per_file = vec![self.table(false)?];
        self.for_each_ngram(|id, fid| {
            while per_file.len() <= fid {
                per_file.push(self.table(false)?);
            }
            per_file[fid].add(id as u64, 1)
        })?;
        let mut postings = Postings::with_capacity(per_file.iter().map(|t| t.len()).sum());
        for table in &per_file {
            postings.push_file(&counts_of(table))?;
        }
        Ok(postings)
    }
}
