//! Persistent byte format for a compressed corpus.
//!
//! This is the on-device image the N-TADOC initialization phase reads: a
//! header, the dictionary, the file-name table, and the rule bodies as raw
//! packed symbols. The layout is deliberately flat and little-endian so an
//! engine can stream it from a simulated device charging realistic access
//! costs.
//!
//! ```text
//! magic   8 B   "NTADOC2\0"
//! crc     u64   CRC-64 of the payload (everything after paylen)
//! paylen  u64   payload byte length
//! payload:
//!   words   u32   dictionary size
//!   files   u32   file count
//!   rules   u32   rule count
//!   dict    words × { u32 len, len bytes }
//!   names   files × { u32 len, len bytes }
//!   bodies  rules × { u32 len, len × u32 raw symbols }
//! ```
//!
//! The checksummed header makes the image self-validating: a torn or
//! bit-flipped image read back after a crash fails with
//! [`ImageError::BadChecksum`] instead of being parsed into a silently
//! wrong grammar. Deserialization never trusts on-media counts — every
//! length is bounds-checked against the remaining bytes before anything
//! is allocated, so arbitrary garbage can at worst produce an error.

use crate::cfg::{Grammar, GrammarError, Rule};
use crate::dict::Dictionary;
use crate::symbol::Symbol;
use crate::Compressed;

/// Image magic ("NTADOC2\0"; version 2 added the checksummed header).
pub const MAGIC: [u8; 8] = *b"NTADOC2\0";

/// Bytes before the payload: magic + crc + paylen.
const HEADER_LEN: usize = 24;

/// CRC-64/XZ (ECMA-182, reflected), the same function as
/// `ntadoc_pmem::crc64`. Duplicated here because the grammar crate is
/// device-independent by design; a workspace test holds the two copies to
/// each other.
pub fn crc64(bytes: &[u8]) -> u64 {
    !crc64_update(!0, bytes)
}

/// The CRC-64/XZ polynomial (ECMA-182), reflected.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 tables: `CRC64_TABLES[0]` is the byte-at-a-time table;
/// `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Feed `bytes` into a running (pre-inverted) CRC, eight bytes per step.
fn crc64_update(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][(x >> 8 & 0xFF) as usize]
            ^ t[5][(x >> 16 & 0xFF) as usize]
            ^ t[4][(x >> 24 & 0xFF) as usize]
            ^ t[3][(x >> 32 & 0xFF) as usize]
            ^ t[2][(x >> 40 & 0xFF) as usize]
            ^ t[1][(x >> 48 & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked narrowing for every host-side count written into a `u32` image
/// field. A corpus whose dictionary, file table, rule table, or a single
/// rule body outgrows 2³² entries must fail loudly at serialization time —
/// a silent `as u32` wrap here would produce a checksummed-and-valid image
/// that deserializes into a *different* corpus.
fn len_u32(what: &'static str, len: usize) -> Result<u32, ImageError> {
    u32::try_from(len).map_err(|_| ImageError::TooLarge { what, len: len as u64 })
}

fn put_str(out: &mut Vec<u8>, what: &'static str, s: &str) -> Result<(), ImageError> {
    put_u32(out, len_u32(what, s.len())?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Serialize a compressed corpus into its persistent image. Fails with
/// [`ImageError::TooLarge`] if any count or string length does not fit its
/// fixed-width `u32` image field.
pub fn serialize_compressed(c: &Compressed) -> Result<Vec<u8>, ImageError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[0u8; 16]); // crc + paylen patched below
    put_u32(&mut out, len_u32("dictionary size", c.dict.len())?);
    put_u32(&mut out, len_u32("file count", c.file_names.len())?);
    put_u32(&mut out, len_u32("rule count", c.grammar.rule_count())?);
    for (_, w) in c.dict.iter() {
        put_str(&mut out, "dictionary word length", w)?;
    }
    for name in &c.file_names {
        put_str(&mut out, "file name length", name)?;
    }
    for r in &c.grammar.rules {
        put_u32(&mut out, len_u32("rule body length", r.symbols.len())?);
        for s in &r.symbols {
            put_u32(&mut out, s.raw());
        }
    }
    let crc = crc64(&out[HEADER_LEN..]);
    let paylen = (out.len() - HEADER_LEN) as u64;
    out[8..16].copy_from_slice(&crc.to_le_bytes());
    out[16..24].copy_from_slice(&paylen.to_le_bytes());
    Ok(out)
}

/// Byte length [`serialize_compressed`] would produce for `c`, computed
/// without materializing the image. Lets engines account for image size
/// (init-phase disk traffic, capacity planning) without an allocation
/// proportional to the corpus.
pub fn serialized_len(c: &Compressed) -> usize {
    let dict: usize = c.dict.iter().map(|(_, w)| 4 + w.len()).sum();
    let names: usize = c.file_names.iter().map(|n| 4 + n.len()).sum();
    let bodies: usize = c.grammar.rules.iter().map(|r| 4 + 4 * r.symbols.len()).sum();
    HEADER_LEN + 12 + dict + names + bodies
}

/// Deserialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The image ended before the declared contents.
    Truncated,
    /// The payload does not match the header checksum (torn write, bit
    /// rot, or a partially persisted image).
    BadChecksum,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The rules parse but are not a grammar an engine can traverse
    /// ([`Grammar::validate`]): a dangling reference, a cycle, or a rule
    /// unreachable from the root. A checksum only vouches for the bytes.
    BadGrammar(GrammarError),
    /// A host-side count or length does not fit its fixed-width `u32`
    /// image field (serialization-time check; deserialization can never
    /// produce this).
    TooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The offending host-side value.
        len: u64,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadMagic => write!(f, "bad image magic"),
            ImageError::Truncated => write!(f, "image truncated"),
            ImageError::BadChecksum => write!(f, "image payload fails checksum"),
            ImageError::BadUtf8 => write!(f, "image contains invalid UTF-8"),
            ImageError::BadGrammar(e) => write!(f, "image holds an invalid grammar: {e}"),
            ImageError::TooLarge { what, len } => {
                write!(f, "{what} {len} does not fit its u32 image field (max {})", u32::MAX)
            }
        }
    }
}

impl std::error::Error for ImageError {}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if n > self.buf.len() - self.at {
            return Err(ImageError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String, ImageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ImageError::BadUtf8)
    }
}

/// Parse a persistent image back into a [`Compressed`] corpus. Rejects
/// corruption (checksum mismatch, impossible lengths) and well-sealed
/// images whose rules fail [`Grammar::validate`] with an error — never
/// panics or over-allocates on untrusted input.
pub fn deserialize_compressed(bytes: &[u8]) -> Result<Compressed, ImageError> {
    let mut r = Reader { buf: bytes, at: 0 };
    if r.take(8)? != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let crc = r.u64()?;
    let paylen = r.u64()? as usize;
    if paylen > r.remaining() {
        return Err(ImageError::Truncated);
    }
    // Validate the payload as a whole before parsing any of it.
    if crc64(&bytes[HEADER_LEN..HEADER_LEN + paylen]) != crc {
        return Err(ImageError::BadChecksum);
    }
    let mut r = Reader { buf: &bytes[..HEADER_LEN + paylen], at: HEADER_LEN };
    let words = r.u32()? as usize;
    let files = r.u32()? as usize;
    let rules = r.u32()? as usize;
    // Counts come from media: cap pre-allocations by what could possibly
    // fit in the remaining bytes (each element costs >= 4 bytes).
    let cap = |n: usize, r: &Reader| n.min(r.remaining() / 4);
    let mut dict_words = Vec::with_capacity(cap(words, &r));
    for _ in 0..words {
        dict_words.push(r.string()?);
    }
    let mut file_names = Vec::with_capacity(cap(files, &r));
    for _ in 0..files {
        file_names.push(r.string()?);
    }
    let mut rule_vec = Vec::with_capacity(cap(rules, &r));
    for _ in 0..rules {
        let len = r.u32()? as usize;
        let mut symbols = Vec::with_capacity(cap(len, &r));
        for _ in 0..len {
            symbols.push(Symbol::from_raw(r.u32()?));
        }
        rule_vec.push(Rule { symbols });
    }
    let grammar = Grammar::new(rule_vec);
    grammar.validate().map_err(ImageError::BadGrammar)?;
    Ok(Compressed { grammar, dict: Dictionary::from_words(dict_words), file_names })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_corpus, TokenizerConfig};

    fn sample() -> Compressed {
        let files = vec![
            ("a.txt".into(), "the cat sat on the mat the cat sat again".into()),
            ("b.txt".into(), "the cat sat on the mat once more".into()),
        ];
        compress_corpus(&files, &TokenizerConfig::default())
    }

    /// The definition, one bit at a time.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc64_tables_compute_crc64_xz() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA, "the CRC-64/XZ check value");
        // Every length around the eight-byte step, at every alignment.
        let data: Vec<u8> = (0..97u32).map(|i| (i * 151 + 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc64(&data[start..end]), crc64_bitwise(&data[start..end]));
            }
        }
    }

    #[test]
    fn oversized_counts_are_reported_as_too_large() {
        // The narrowing guard itself (a corpus with 2³² dictionary entries
        // cannot be materialized in a test, but every count funnels
        // through `len_u32`).
        let over = u32::MAX as usize + 1;
        match len_u32("dictionary size", over) {
            Err(ImageError::TooLarge { what: "dictionary size", len }) => {
                assert_eq!(len, over as u64)
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(len_u32("rule count", u32::MAX as usize), Ok(u32::MAX));
        // And the typed error renders the offending field.
        let msg = ImageError::TooLarge { what: "rule count", len: 5_000_000_000 }.to_string();
        assert!(msg.contains("rule count") && msg.contains("5000000000"), "{msg}");
    }

    #[test]
    fn image_round_trips() {
        let c = sample();
        let img = serialize_compressed(&c).unwrap();
        let back = deserialize_compressed(&img).unwrap();
        assert_eq!(back.grammar, c.grammar);
        assert_eq!(back.file_names, c.file_names);
        assert_eq!(back.dict.len(), c.dict.len());
        assert_eq!(back.dict.id_of("cat"), c.dict.id_of("cat"));
    }

    #[test]
    fn serialized_len_matches_actual_image() {
        let c = sample();
        assert_eq!(serialized_len(&c), serialize_compressed(&c).unwrap().len());
    }

    #[test]
    fn bad_magic_detected() {
        let mut img = serialize_compressed(&sample()).unwrap();
        img[0] = b'X';
        assert_eq!(deserialize_compressed(&img).unwrap_err(), ImageError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let img = serialize_compressed(&sample()).unwrap();
        for cut in [7, 12, 20, img.len() / 2, img.len() - 1] {
            assert_eq!(
                deserialize_compressed(&img[..cut]).unwrap_err(),
                ImageError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let clean = serialize_compressed(&sample()).unwrap();
        // Flip one bit at a spread of payload positions: every one must be
        // caught by the checksum, none may parse (or panic).
        for pos in [24, 30, clean.len() / 2, clean.len() - 1] {
            let mut img = clean.clone();
            img[pos] ^= 0x10;
            assert_eq!(
                deserialize_compressed(&img).unwrap_err(),
                ImageError::BadChecksum,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn header_crc_flip_fails_checksum() {
        let mut img = serialize_compressed(&sample()).unwrap();
        img[9] ^= 0xFF; // inside the stored crc
        assert_eq!(deserialize_compressed(&img).unwrap_err(), ImageError::BadChecksum);
    }

    #[test]
    fn huge_declared_counts_do_not_overallocate() {
        // Forge an image declaring u32::MAX dictionary words with a valid
        // checksum: parsing must fail on content, not abort on allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        let mut img = Vec::new();
        img.extend_from_slice(&MAGIC);
        img.extend_from_slice(&crc64(&payload).to_le_bytes());
        img.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        img.extend_from_slice(&payload);
        assert_eq!(deserialize_compressed(&img).unwrap_err(), ImageError::Truncated);
    }

    #[test]
    fn expanded_text_survives_round_trip() {
        let c = sample();
        let img = serialize_compressed(&c).unwrap();
        let back = deserialize_compressed(&img).unwrap();
        assert_eq!(back.grammar.expand_text(&back.dict), c.grammar.expand_text(&c.dict));
    }
}
