//! Random access into hierarchically-compressed data — the companion
//! capability of TADOC's reference \[4\] (*"Enabling Efficient Random Access
//! to Hierarchically-Compressed Data"*, ICDE 2020), reimplemented over the
//! N-TADOC pool.
//!
//! An [`Accessor`] builds the DAG pool once (with per-rule expansion
//! lengths in the metadata) and then serves `extract(file, offset, len)`
//! queries in `O(depth + len)` device accesses: binary-search the file's
//! top-level prefix sums, then descend only into the rules that overlap
//! the requested window. The data is never decompressed as a whole.

use std::sync::Arc;

use ntadoc_grammar::{Compressed, Symbol};
use ntadoc_pmem::{AllocLedger, DeviceProfile, PmemPool, SimDevice};

use crate::config::PER_ITEM_NS;
use crate::dag::{DagBuildOptions, DagPool, PoolBuf};
use crate::summation::head_tail_info;
use crate::Result;

/// Random-access reader over a compressed corpus on a simulated device.
///
/// ```
/// use ntadoc::Accessor;
/// use ntadoc_grammar::{compress_corpus, TokenizerConfig};
/// use ntadoc_pmem::DeviceProfile;
///
/// let comp = compress_corpus(
///     &[("f".into(), "alpha beta gamma delta epsilon".into())],
///     &TokenizerConfig::default(),
/// );
/// let acc = Accessor::new(&comp, DeviceProfile::nvm_optane()).unwrap();
/// assert_eq!(acc.extract(0, 1, 2), vec!["beta", "gamma"]);
/// ```
pub struct Accessor {
    dev: Arc<SimDevice>,
    dag: DagPool,
    /// Per file: top-level symbols of its `R0` segment.
    segments: Vec<Vec<Symbol>>,
    /// Per file: prefix word counts over its segment symbols
    /// (`prefix[i]` = words before symbol `i`).
    prefixes: Vec<Vec<u64>>,
}

impl Accessor {
    /// Build the pool on a device with `profile` and prepare the per-file
    /// prefix index. All construction traffic is charged.
    pub fn new(comp: &Compressed, profile: DeviceProfile) -> Result<Accessor> {
        let capacity = (comp.grammar.total_symbols() * 32
            + comp.dict.text_bytes() * 2
            + (comp.grammar.rule_count() + comp.dict.len()) * 128
            + (1 << 20))
            .next_power_of_two();
        let dev = Arc::new(SimDevice::new(profile, capacity));
        let ledger = Arc::new(AllocLedger::new());
        let pool = Arc::new(PmemPool::over_whole(dev.clone()).with_ledger(ledger));
        let info = head_tail_info(&comp.grammar, 1);
        let dag = DagPool::build(
            pool,
            comp,
            Some(&info),
            &DagBuildOptions {
                pruned: false,
                adjacent: true,
                bounds: None,
                head_tail: None,
                alloc_overhead_ns: 0,
                layout: Default::default(),
            },
        )?;
        // Read R0 once (charged) and build per-file prefix sums.
        let mut buf = PoolBuf::default();
        let segments: Vec<Vec<Symbol>> =
            dag.body(0, &mut buf).split(|s| s.is_sep()).map(<[Symbol]>::to_vec).collect();
        let mut prefixes = Vec::with_capacity(segments.len());
        for seg in &segments {
            let mut prefix = Vec::with_capacity(seg.len() + 1);
            let mut acc = 0u64;
            prefix.push(0);
            for s in seg {
                acc += if s.is_rule() { dag.exp_len(s.payload()) } else { 1 };
                prefix.push(acc);
            }
            dev.charge_ns(seg.len() as u64 * PER_ITEM_NS);
            prefixes.push(prefix);
        }
        Ok(Accessor { dev, dag, segments, prefixes })
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.segments.len()
    }

    /// Length of file `fid` in words.
    pub fn file_len(&self, fid: usize) -> u64 {
        *self.prefixes[fid].last().expect("prefix has a last element")
    }

    /// The device the accessor runs on (stats inspection).
    pub fn dev(&self) -> &Arc<SimDevice> {
        &self.dev
    }

    /// Extract `len` word ids of file `fid` starting at word `offset`.
    /// Out-of-range tails are truncated.
    pub fn extract_ids(&self, fid: usize, offset: u64, len: usize) -> Vec<u32> {
        let seg = &self.segments[fid];
        let prefix = &self.prefixes[fid];
        let end = (offset + len as u64).min(self.file_len(fid));
        if offset >= end {
            return Vec::new();
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        // First top-level symbol overlapping the window.
        let mut i = match prefix.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.dev.charge_ns((64 - (seg.len() as u64).leading_zeros() as u64) * PER_ITEM_NS);
        while i < seg.len() && prefix[i] < end {
            let sym_start = prefix[i];
            let s = seg[i];
            if s.is_word() {
                if sym_start >= offset {
                    out.push(s.payload());
                }
            } else {
                let local_from = offset.saturating_sub(sym_start);
                let local_to = (end - sym_start).min(prefix[i + 1] - sym_start);
                self.descend(s.payload(), local_from, local_to, &mut out);
            }
            i += 1;
        }
        out
    }

    /// Extract words of file `fid` as strings (dictionary reads charged).
    pub fn extract(&self, fid: usize, offset: u64, len: usize) -> Vec<String> {
        let mut words = self.dag.words(false);
        self.extract_ids(fid, offset, len).into_iter().map(|w| words.get(w).to_owned()).collect()
    }

    /// Emit the expansion of `rule` restricted to local word range
    /// `[from, to)`, descending only into overlapping children.
    /// Recursion depth equals the DAG depth, which coarsened TADOC
    /// grammars keep small.
    fn descend(&self, rule: u32, from: u64, to: u64, out: &mut Vec<u32>) {
        // A buffer per level: the body is still being walked when a child
        // is entered.
        let mut buf = PoolBuf::default();
        let body = self.dag.body(rule, &mut buf);
        self.dev.charge_ns(body.len() as u64 * PER_ITEM_NS);
        let mut at = 0u64;
        for s in body {
            if at >= to {
                break;
            }
            if s.is_word() {
                if at >= from {
                    out.push(s.payload());
                }
                at += 1;
            } else if s.is_rule() {
                let c = s.payload();
                let clen = self.dag.exp_len(c);
                if at + clen > from && at < to {
                    self.descend(c, from.saturating_sub(at), (to - at).min(clen), out);
                }
                at += clen;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_grammar::{compress_corpus, TokenizerConfig};

    fn setup() -> (Compressed, Accessor, Vec<Vec<u32>>) {
        let files = vec![
            (
                "a".to_string(),
                "the quick brown fox jumps over the lazy dog again and again".repeat(40),
            ),
            (
                "b".to_string(),
                "pack my box with five dozen liquor jugs the quick brown fox".repeat(30),
            ),
            ("c".to_string(), "sphinx of black quartz judge my vow".to_string()),
        ];
        let comp = compress_corpus(&files, &TokenizerConfig::default());
        let accessor = Accessor::new(&comp, DeviceProfile::nvm_optane()).unwrap();
        let expanded = comp.grammar.expand_files();
        (comp, accessor, expanded)
    }

    #[test]
    fn file_lens_match_expansion() {
        let (_, acc, files) = setup();
        assert_eq!(acc.file_count(), files.len());
        for (fid, f) in files.iter().enumerate() {
            assert_eq!(acc.file_len(fid), f.len() as u64, "file {fid}");
        }
    }

    #[test]
    fn extract_matches_expansion_slices() {
        let (_, acc, files) = setup();
        for (fid, f) in files.iter().enumerate() {
            for &(offset, len) in &[(0u64, 5usize), (7, 13), (100, 64), (f.len() as u64 / 2, 31)] {
                let got = acc.extract_ids(fid, offset, len);
                let from = (offset as usize).min(f.len());
                let to = (from + len).min(f.len());
                assert_eq!(got, f[from..to].to_vec(), "file {fid} @ {offset}+{len}");
            }
        }
    }

    #[test]
    fn whole_file_extraction_round_trips() {
        let (_, acc, files) = setup();
        for (fid, f) in files.iter().enumerate() {
            let got = acc.extract_ids(fid, 0, f.len());
            assert_eq!(&got, f, "file {fid}");
        }
    }

    #[test]
    fn out_of_range_is_truncated_or_empty() {
        let (_, acc, files) = setup();
        let len0 = files[0].len() as u64;
        assert!(acc.extract_ids(0, len0, 10).is_empty());
        assert_eq!(acc.extract_ids(0, len0 - 3, 100).len(), 3);
        assert!(acc.extract_ids(2, 10_000, 5).is_empty());
    }

    #[test]
    fn extract_returns_strings() {
        let (comp, acc, files) = setup();
        let words = acc.extract(0, 1, 3);
        let expect: Vec<String> =
            files[0][1..4].iter().map(|&w| comp.dict.word(w).to_string()).collect();
        assert_eq!(words, expect);
    }

    #[test]
    fn small_windows_cost_less_than_full_scans() {
        let (_, acc, files) = setup();
        let before = acc.dev().stats().virtual_ns;
        acc.extract_ids(0, files[0].len() as u64 / 2, 8);
        let small = acc.dev().stats().virtual_ns - before;
        let before = acc.dev().stats().virtual_ns;
        acc.extract_ids(0, 0, files[0].len());
        let full = acc.dev().stats().virtual_ns - before;
        assert!(
            small * 4 < full,
            "8-word window ({small} ns) should be far cheaper than a full scan ({full} ns)"
        );
    }
}
