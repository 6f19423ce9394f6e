//! DAG-pool layouts.
//!
//! The cost model charges per distinct 256 B media line touched, so the
//! representation of the per-rule pruned views and word-list caches is a
//! first-order term in traversal cost. This module defines the two layouts
//! an ablation kept (EXPERIMENTS.md, "Retired and ablated"):
//!
//! * **fixed** ([`PoolLayoutConfig::Fixed`], the default): every
//!   id/frequency is a little-endian `u32`, decode is a copy — wins the
//!   wall clock;
//! * **varint** ([`PoolLayoutConfig::Varint`]): classic VBE/LEB128 — 7
//!   payload bits per byte with an embedded continuation bit — wins lines
//!   touched and pool bytes, pays a serial per-byte decode.
//!
//! Both decode to identical host-side values: the layout is a pure
//! representation change, so task outputs are byte-identical across the
//! two — only the virtual line/time cost moves.

use ntadoc_pmem::{PmemError, Result};

/// The DAG-pool layout an engine builds (and seals into the pool header):
/// how the ids and frequencies of pruned views and word-list caches are
/// encoded on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolLayoutConfig {
    /// Fixed-width little-endian `u32`s. Byte-identical to pools written
    /// before layouts existed.
    #[default]
    Fixed,
    /// VBE/LEB128 varints with embedded continuation bits.
    Varint,
}

impl PoolLayoutConfig {
    /// Parse a CLI/env spelling: `fixed` (alias `legacy`) or `varint`.
    pub fn parse(s: &str) -> Option<PoolLayoutConfig> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fixed" | "legacy" => Some(PoolLayoutConfig::Fixed),
            "varint" => Some(PoolLayoutConfig::Varint),
            _ => None,
        }
    }

    /// The CLI spelling of this layout (inverse of [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            PoolLayoutConfig::Fixed => "fixed",
            PoolLayoutConfig::Varint => "varint",
        }
    }

    /// The id sealed into the pool header (`PoolHeader::dag_layout`). Id 0
    /// is the fixed layout, so pre-layout pool files decode correctly.
    pub fn id(&self) -> u16 {
        match self {
            PoolLayoutConfig::Fixed => 0,
            PoolLayoutConfig::Varint => 1,
        }
    }

    /// Decode a header id. The other ids below 16 name layouts that were
    /// retired (the split encoding, 16-byte padding, the placement pass);
    /// anything above means the pool was written by a newer layout this
    /// build cannot decode. Either way refuse loudly rather than misread
    /// the pool.
    pub fn from_id(id: u16) -> Result<PoolLayoutConfig> {
        match id {
            0 => Ok(PoolLayoutConfig::Fixed),
            1 => Ok(PoolLayoutConfig::Varint),
            2..=15 => Err(PmemError::CorruptImage(format!(
                "pool was sealed under a retired layout (id {id:#x}); \
                 rebuild the pool from its corpus"
            ))),
            _ => Err(PmemError::CorruptImage(format!(
                "pool header declares unsupported layout bits {id:#x}"
            ))),
        }
    }

    /// Modeled host-CPU cost (ns) of decoding `entries` values spanning
    /// `bytes` encoded bytes: fixed-width decodes per value, varint pays
    /// per byte (serial continuation-bit chain).
    pub(crate) fn decode_ns(&self, entries: u64, bytes: u64) -> u64 {
        match self {
            PoolLayoutConfig::Fixed => entries,
            PoolLayoutConfig::Varint => 2 * bytes,
        }
    }
}

// ---- value-stream encoders/decoders ------------------------------------

/// Append `v` as a VBE/LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Read a varint at `at`, advancing it.
fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*at)
            .ok_or_else(|| PmemError::CorruptImage("varint runs past its encoded region".into()))?;
        *at += 1;
        let payload = (b & 0x7F) as u64;
        // The tenth byte holds bit 63 only: a larger payload would have
        // its high bits shifted out and alias a canonical encoding, and an
        // eleventh byte has no bit left at all.
        if shift > 63 || (payload << shift) >> shift != payload {
            return Err(PmemError::CorruptImage("varint exceeds 64 bits".into()));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode a stream of `u64` values under `enc`. The stream is
/// self-delimiting for `Varint` (values end where the bytes end);
/// `Fixed` callers must hold values < 2³² (checked) and recover the
/// count from the byte length.
pub(crate) fn encode_values(
    enc: PoolLayoutConfig,
    values: &[u64],
    out: &mut Vec<u8>,
) -> Result<()> {
    match enc {
        PoolLayoutConfig::Fixed => {
            for &v in values {
                let v = u32::try_from(v).map_err(|_| PmemError::TooLarge {
                    what: "fixed-width encoded value",
                    len: v,
                    max: u32::MAX as u64,
                })?;
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        PoolLayoutConfig::Varint => {
            for &v in values {
                put_varint(out, v);
            }
        }
    }
    Ok(())
}

/// Hand each value of a stream written by [`encode_values`] to `f`, in
/// order. `Fixed` derives the count from the byte length; `Varint` is
/// self-delimiting.
fn for_each_value(
    enc: PoolLayoutConfig,
    bytes: &[u8],
    mut f: impl FnMut(u64) -> Result<()>,
) -> Result<()> {
    match enc {
        PoolLayoutConfig::Fixed => {
            if !bytes.len().is_multiple_of(4) {
                return Err(PmemError::CorruptImage(format!(
                    "fixed-width region of {} bytes is not a whole number of u32s",
                    bytes.len()
                )));
            }
            bytes
                .chunks_exact(4)
                .try_for_each(|c| f(u32::from_le_bytes(c.try_into().expect("4 bytes")) as u64))
        }
        PoolLayoutConfig::Varint => {
            let mut at = 0;
            while at < bytes.len() {
                f(get_varint(bytes, &mut at)?)?;
            }
            Ok(())
        }
    }
}

/// Decode the `(a, b)` pairs of a value stream into `out` (cleared first),
/// narrowing each `a` to `u32` and each `b` through `second`.
fn decode_value_pairs<B>(
    enc: PoolLayoutConfig,
    bytes: &[u8],
    what: &str,
    second: impl Fn(u64) -> Result<B>,
    out: &mut Vec<(u32, B)>,
) -> Result<()> {
    out.clear();
    let mut first = None;
    for_each_value(enc, bytes, |v| {
        match first.take() {
            None => {
                first =
                    Some(u32::try_from(v).map_err(|_| {
                        PmemError::CorruptImage(format!("{what} id {v} exceeds u32"))
                    })?)
            }
            Some(a) => out.push((a, second(v)?)),
        }
        Ok(())
    })?;
    match first {
        None => Ok(()),
        Some(_) => Err(PmemError::CorruptImage(format!(
            "{what} region decoded to an odd number of values ({})",
            out.len() * 2 + 1
        ))),
    }
}

/// Encode `(id, freq)` pairs (a pruned-view half) under `enc`.
pub(crate) fn encode_pairs(
    enc: PoolLayoutConfig,
    pairs: &[(u32, u32)],
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut values = Vec::with_capacity(pairs.len() * 2);
    for &(id, f) in pairs {
        values.push(id as u64);
        values.push(f as u64);
    }
    encode_values(enc, &values, out)
}

/// Decode a pruned-view half written by [`encode_pairs`] into `out`.
pub(crate) fn decode_pairs(
    enc: PoolLayoutConfig,
    bytes: &[u8],
    out: &mut Vec<(u32, u32)>,
) -> Result<()> {
    let freq = |f| {
        u32::try_from(f)
            .map_err(|_| PmemError::CorruptImage(format!("pair frequency {f} exceeds u32")))
    };
    decode_value_pairs(enc, bytes, "pair", freq, out)
}

/// Encode `(word, count)` word-list entries (counts are `u64`) under
/// `enc`. The fixed layout is the legacy 12-byte packed form; varint
/// interleaves word and count varints.
pub(crate) fn encode_wordlist(
    enc: PoolLayoutConfig,
    entries: &[(u32, u64)],
    out: &mut Vec<u8>,
) -> Result<()> {
    match enc {
        PoolLayoutConfig::Fixed => {
            for &(w, c) in entries {
                out.extend_from_slice(&w.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            Ok(())
        }
        PoolLayoutConfig::Varint => {
            let mut values = Vec::with_capacity(entries.len() * 2);
            for &(w, c) in entries {
                values.push(w as u64);
                values.push(c);
            }
            encode_values(enc, &values, out)
        }
    }
}

/// Decode a word list written by [`encode_wordlist`] into `out`.
pub(crate) fn decode_wordlist(
    enc: PoolLayoutConfig,
    bytes: &[u8],
    out: &mut Vec<(u32, u64)>,
) -> Result<()> {
    match enc {
        PoolLayoutConfig::Fixed => {
            if !bytes.len().is_multiple_of(12) {
                return Err(PmemError::CorruptImage(format!(
                    "word-list region of {} bytes is not a whole number of 12 B entries",
                    bytes.len()
                )));
            }
            out.clear();
            out.extend(bytes.chunks_exact(12).map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                    u64::from_le_bytes(c[4..].try_into().expect("8 bytes")),
                )
            }));
            Ok(())
        }
        PoolLayoutConfig::Varint => decode_value_pairs(enc, bytes, "word", Ok, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUTS: [PoolLayoutConfig; 2] = [PoolLayoutConfig::Fixed, PoolLayoutConfig::Varint];

    fn decode_values(enc: PoolLayoutConfig, bytes: &[u8]) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        for_each_value(enc, bytes, |v| {
            out.push(v);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn values_round_trip_across_encodings() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1, 127, 128, 255, 256, 1 << 14, (1 << 21) - 1, u32::MAX as u64 - 1],
            (0..100).map(|i| i * 37 % 1024).collect(),
        ];
        for enc in LAYOUTS {
            for case in &cases {
                let mut bytes = Vec::new();
                encode_values(enc, case, &mut bytes).unwrap();
                assert_eq!(&decode_values(enc, &bytes).unwrap(), case, "{enc:?} {case:?}");
            }
        }
    }

    #[test]
    fn u64_counts_round_trip_in_varint() {
        let case = vec![0u64, u32::MAX as u64, u32::MAX as u64 + 1, 1 << 45, u64::MAX];
        let mut bytes = Vec::new();
        encode_values(PoolLayoutConfig::Varint, &case, &mut bytes).unwrap();
        assert_eq!(decode_values(PoolLayoutConfig::Varint, &bytes).unwrap(), case);
    }

    #[test]
    fn fixed_encoding_rejects_oversized_values() {
        let mut bytes = Vec::new();
        let err = encode_values(PoolLayoutConfig::Fixed, &[u32::MAX as u64 + 1], &mut bytes);
        assert!(matches!(err, Err(PmemError::TooLarge { .. })));
    }

    #[test]
    fn pairs_and_wordlists_round_trip() {
        let pairs = vec![(0u32, 1u32), (300, 2), (u32::MAX, 7), (9, 100_000)];
        let wl = vec![(3u32, 7u64), (9, 1_000_000_000_000), (u32::MAX, u64::MAX)];
        for enc in LAYOUTS {
            // Decoders clear what the buffer held before.
            let mut b = Vec::new();
            encode_pairs(enc, &pairs, &mut b).unwrap();
            let mut got = vec![(7, 7)];
            decode_pairs(enc, &b, &mut got).unwrap();
            assert_eq!(got, pairs, "{enc:?}");
            let mut odd = Vec::new();
            encode_values(enc, &[1, 2, 3], &mut odd).unwrap();
            assert!(decode_pairs(enc, &odd, &mut got).is_err(), "{enc:?}: an unpaired id");
            let mut b = Vec::new();
            encode_wordlist(enc, &wl, &mut b).unwrap();
            let mut got = vec![(7, 7)];
            decode_wordlist(enc, &b, &mut got).unwrap();
            assert_eq!(got, wl, "{enc:?}");
        }
    }

    #[test]
    fn varint_is_denser_on_small_ids() {
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i * 3, 1 + i % 4)).collect();
        let mut fixed = Vec::new();
        encode_pairs(PoolLayoutConfig::Fixed, &pairs, &mut fixed).unwrap();
        let mut dense = Vec::new();
        encode_pairs(PoolLayoutConfig::Varint, &pairs, &mut dense).unwrap();
        assert!(dense.len() * 2 < fixed.len(), "{} vs fixed {}", dense.len(), fixed.len());
    }

    #[test]
    fn header_ids_round_trip_and_refuse_retired_and_unknown_ids() {
        for (name, id, layout) in
            [("fixed", 0, PoolLayoutConfig::Fixed), ("varint", 1, PoolLayoutConfig::Varint)]
        {
            assert_eq!(PoolLayoutConfig::parse(name), Some(layout));
            assert_eq!(layout.id(), id, "{name}");
            assert_eq!(PoolLayoutConfig::from_id(id).unwrap(), layout, "{name}");
            assert_eq!(layout.name(), name);
        }
        assert_eq!(PoolLayoutConfig::parse("legacy"), Some(PoolLayoutConfig::Fixed));
        assert_eq!(PoolLayoutConfig::default(), PoolLayoutConfig::Fixed);
        // Every other id PR 10's split/pad/placement bits could spell is
        // refused as retired, by hex id, with the way out.
        for id in 2..16u16 {
            let msg = PoolLayoutConfig::from_id(id).unwrap_err().to_string();
            assert!(msg.contains("retired layout"), "{id}: {msg}");
            assert!(msg.contains(&format!("{id:#x}")), "{id}: {msg}");
            assert!(msg.contains("rebuild the pool"), "{id}: {msg}");
        }
        for id in [16u16, 1 << 5, u16::MAX] {
            let msg = PoolLayoutConfig::from_id(id).unwrap_err().to_string();
            assert!(msg.contains("unsupported layout bits"), "{id}: {msg}");
        }
        for retired in ["fixed-pad", "split", "packed", "varint-pack", "mystery"] {
            assert!(PoolLayoutConfig::parse(retired).is_none(), "{retired}");
        }
    }

    #[test]
    fn decode_rejects_truncated_streams() {
        // The last value is multi-byte, so dropping one byte truncates
        // mid-value (a varint stream that loses a *whole* trailing value
        // is indistinguishable from a shorter stream).
        let mut bytes = Vec::new();
        encode_values(PoolLayoutConfig::Varint, &[77, 1 << 20], &mut bytes).unwrap();
        bytes.pop();
        assert!(decode_values(PoolLayoutConfig::Varint, &bytes).is_err());
        assert!(decode_values(PoolLayoutConfig::Fixed, &[1, 2, 3]).is_err());
        // A tenth byte may carry bit 63 only: `FF×9 01` is u64::MAX, and
        // `FF×9 7F` must not alias it by having its high bits shifted out.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(decode_values(PoolLayoutConfig::Varint, &max).unwrap(), vec![u64::MAX]);
        *max.last_mut().unwrap() = 0x7F;
        assert!(decode_values(PoolLayoutConfig::Varint, &max).is_err());
        // ...and an eleventh byte is past 64 bits whatever it holds.
        let mut long = vec![0xFF; 9];
        long.extend([0x81, 0x00]);
        assert!(decode_values(PoolLayoutConfig::Varint, &long).is_err());
    }
}
