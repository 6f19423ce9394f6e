//! Minimal, self-contained JSON value / writer / parser.
//!
//! The observability layer ([`crate::obs`], the bench `Emitter`,
//! `RunReport` v2) needs one *real* machine-readable emission path: stable
//! key order, lossless round-trips, and a parser strict enough to validate
//! checked-in fixtures. This module provides exactly that surface and
//! nothing more — objects are `BTreeMap`s (deterministic key order),
//! non-negative integers stay `u64` end-to-end (virtual-ns counters must
//! not round through `f64`), and `parse(write(v)) == v` for every value
//! the layer produces.
//!
//! It deliberately has no external dependencies so the emission path works
//! in hermetic build environments.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects keep keys sorted; integers and floats are kept
/// distinct so counters round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (counters, nanoseconds, byte counts).
    U64(u64),
    /// Any other number (gauges, ratios).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys deterministically ordered.
    Obj(BTreeMap<String, Json>),
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts; a document
/// with more containers open at once is refused with a [`JsonError`] at the
/// bracket that opens the one too many. The parser recurses once per open
/// container and its input may come from a socket, so the depth it can be
/// driven to has to be a constant. The deepest document this workspace
/// writes is `serve_load`'s experiment document, 12 containers down where it
/// embeds a `RunReport` (itself 7: report, span tree, `children` arrays);
/// 128 leaves tenfold headroom and is a few kilobytes of stack.
pub const MAX_DEPTH: usize = 128;

/// Parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub msg: String,
    /// Byte offset into the input at which parsing failed.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// Member lookup on objects; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (`F64` directly, `U64` widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(n) => Some(*n),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Serialize without whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write_u64(out, *n),
            Json::F64(n) => out.push_str(&fmt_f64(*n)),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1, pretty);
                    item.write(out, depth + 1, pretty);
                }
                newline_indent(out, depth, pretty);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1, pretty);
                    write_str(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, depth + 1, pretty);
                }
                newline_indent(out, depth, pretty);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected, nesting up to [`MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Format a float so it parses back as a float: integral values keep a
/// `.0` suffix (else they would re-parse as `U64` and break round-trip
/// equality). JSON has no NaN/∞; those serialize as `null`.
fn fmt_f64(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    let s = format!("{n}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn newline_indent(out: &mut String, depth: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Where [`write_str`] and [`write_u64`] append text: a `String`, or a
/// writer that passes it on in pieces (a bounded buffer in front of a
/// socket), so an encoding need not be held whole to be sent.
pub trait JsonOut {
    /// Append `s`.
    fn push_str(&mut self, s: &str);
}

impl JsonOut for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// Append `s` as a JSON string literal, quotes included: the writer every
/// encoder in the workspace shares, so a value written without a [`Json`]
/// tree has the bytes [`Json::compact`] would give it. `"`, `\` and the
/// controls below U+0020 are escaped (`\n`, `\t` and `\r` by name, the rest
/// as `\u00xx`); everything between two escapes is copied as one run.
pub fn write_str(out: &mut (impl JsonOut + ?Sized), s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_str("\"");
    // Start of the run not copied yet. Every byte that ends a run is
    // ASCII, so both ends of a run are character boundaries.
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let escape =
                    [b'\\', b'u', b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 0xf) as usize]];
                out.push_str(std::str::from_utf8(&escape).expect("ASCII escape"));
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push_str("\"");
}

/// Append `n` in decimal, as [`Json::U64`] is written, without the
/// `String` that `n.to_string()` allocates.
pub fn write_u64(out: &mut (impl JsonOut + ?Sized), mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has twenty
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { msg: msg.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse the container at `pos`, one level further down.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            // A literal too large for `f64` parses to infinity, which the
            // writer can only spell `null`.
            Ok(n) if n.is_finite() => Ok(Json::F64(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::object([
            ("name", Json::from("run \"x\"\n")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.25)),
            ("whole", Json::from(3.0)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("items", Json::from(vec![Json::from(1u64), Json::object([("k", Json::from(2u64))])])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(Default::default())),
        ]);
        for text in [v.pretty(), v.compact()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "failed on: {text}");
        }
    }

    #[test]
    fn integers_do_not_round_through_f64() {
        // 2^63 + 1 is not representable as f64; it must survive exactly.
        let v = Json::U64(9_223_372_036_854_775_809);
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn whole_floats_stay_floats() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::F64(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::U64(3));
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let v = Json::object([("b", 1u64), ("a", 2u64)]);
        assert_eq!(v.compact(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn parses_standard_json_with_whitespace_and_escapes() {
        let text = "\n{ \"k\" : [ 1 , -2.5e1 , \"a\\u0041\\n\" , null , false ] }\n";
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap(),
            &[
                Json::U64(1),
                Json::F64(-25.0),
                Json::Str("aA\n".into()),
                Json::Null,
                Json::Bool(false)
            ]
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "1 2", "\"unterminated"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.msg.is_empty(), "{bad} should fail");
        }
    }

    /// `depth` containers inside one another around a `1`: `opens[i % len]`
    /// opens level `i`.
    fn nest(depth: usize, opens: &[&str]) -> String {
        let level = |i: usize| opens[i % opens.len()];
        let mut doc: String = (0..depth).map(level).collect();
        doc.push('1');
        for i in (0..depth).rev() {
            doc.push(if level(i) == "[" { ']' } else { '}' });
        }
        doc
    }

    #[test]
    fn nesting_is_accepted_up_to_the_bound_and_refused_one_past_it() {
        for opens in [&["["][..], &["{\"k\":"], &["[", "{\"k\":"], &["{\"k\":", "["]] {
            let at_bound = nest(MAX_DEPTH, opens);
            let tree = Json::parse(&at_bound).unwrap_or_else(|e| panic!("{opens:?}: {e}"));
            assert_eq!(tree.compact(), at_bound);
            let past = nest(MAX_DEPTH + 1, opens);
            let err = Json::parse(&past).unwrap_err();
            assert!(err.msg.contains("128 levels"), "{opens:?}: {err}");
            // The offset is the bracket that opens level 129.
            let last_open = past.rfind(['[', '{']).unwrap();
            assert_eq!(err.at, last_open, "{opens:?}");
        }
        // Depth counts containers open at once, not containers in all.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1, &["["]); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // What a 64 KB request line can hold.
        for doc in ["[".repeat(60_000), "{\"a\":".repeat(10_000), "[{\"a\":".repeat(9_000)] {
            let err = Json::parse(&doc).unwrap_err();
            assert!(err.msg.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn numbers_too_large_for_f64_are_refused() {
        for bad in ["1e999", "-1e999", "[1e400]"] {
            assert_eq!(Json::parse(bad).unwrap_err().msg, "number out of range", "{bad}");
        }
        // Twenty digits overflow `u64` and become the nearest float.
        assert_eq!(Json::parse("99999999999999999999").unwrap(), Json::F64(1e20));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = Json::object([("n", 7u64)]);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::F64(1.5).as_u64(), None);
    }

    /// The writer `write_str` replaced, one `char` at a time: the reference
    /// for its bytes.
    fn write_str_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn write_str_copies_runs_to_the_bytes_of_the_char_by_char_writer() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            "",
            "plain",
            "\"",
            "\\",
            "\"\"\\\\",
            "ends in a quote\"",
            "\"starts with one",
            "tab\there, newline\nthere, return\rthere",
            "\u{7f} is not escaped, \u{80} neither",
            "naïve café — 日本語 🦀",
            "é\"é\\é\né",
            controls.as_str(),
        ];
        for s in cases {
            let (mut got, mut want) = (String::from("x"), String::from("x"));
            write_str(&mut got, s);
            write_str_by_char(&mut want, s);
            assert_eq!(got, want, "{s:?}");
            assert_eq!(Json::parse(&got[1..]).unwrap(), Json::Str(s.to_string()));
        }
    }

    #[test]
    fn write_u64_matches_to_string() {
        for n in [0, 1, 9, 10, 99, 100, 12345, u32::MAX as u64, 1 << 53, u64::MAX - 1, u64::MAX] {
            let mut got = String::from("n=");
            write_u64(&mut got, n);
            assert_eq!(got, format!("n={n}"));
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).compact(), "null");
    }
}
