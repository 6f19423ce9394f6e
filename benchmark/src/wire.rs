//! The serve socket's line protocol, from the client's side.

use ntadoc::{Query, Task, TaskOutput, TenantId};
use ntadoc_pmem::Json;

use crate::gen::Request;

/// The task's spelling on the command line and on the wire.
pub fn cli_name(task: Task) -> &'static str {
    match task {
        Task::WordCount => "wordcount",
        Task::Sort => "sort",
        Task::TermVector => "termvector",
        Task::InvertedIndex => "invertedindex",
        Task::SequenceCount => "sequencecount",
        Task::RankedInvertedIndex => "rankedindex",
    }
}

/// The request line `ntadoc query` would send for `req`.
pub fn request_line(req: Request, tenant: u32) -> String {
    let mut pairs = vec![
        ("op", Json::from("query")),
        ("task", Json::from(cli_name(req.task))),
        ("tenant", Json::U64(tenant as u64)),
    ];
    if let Some(k) = req.top {
        pairs.push(("top", Json::from(k)));
    }
    Json::object(pairs).compact()
}

/// The library's typed form of `req`.
pub fn query(req: Request, tenant: u32) -> Query {
    let q = Query::new(TenantId(tenant), req.task);
    match req.top {
        Some(k) => q.top_k(k),
        None => q,
    }
}

/// The bytes a reply's `output` member must have for `req`, given the
/// task's full answer: shaped by the library's own `QueryKey::apply` and
/// encoded by its own `to_json`, in process.
pub fn expected_output(req: Request, full: &TaskOutput) -> Vec<u8> {
    query(req, 0).key().apply(full.clone()).to_json().compact().into_bytes()
}

/// Split a JSON object into its top-level `(key, raw value bytes)` members
/// without building a tree — replies run to megabytes and the client must
/// not become the bottleneck. `None` if `line` is not a well-formed object
/// at the top level (values are only skipped over, not validated).
pub fn members(line: &[u8]) -> Option<Vec<(&[u8], &[u8])>> {
    let mut out = Vec::new();
    let mut i = skip_ws(line, 0);
    if line.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(line, i + 1);
    if line.get(i) == Some(&b'}') {
        return (skip_ws(line, i + 1) == line.len()).then_some(out);
    }
    loop {
        let key_end = skip_string(line, i)?;
        let key = &line[i + 1..key_end - 1];
        i = skip_ws(line, key_end);
        if line.get(i) != Some(&b':') {
            return None;
        }
        let start = skip_ws(line, i + 1);
        let end = skip_value(line, start)?;
        out.push((key, &line[start..end]));
        i = skip_ws(line, end);
        match line.get(i) {
            Some(b',') => i = skip_ws(line, i + 1),
            Some(b'}') => return (skip_ws(line, i + 1) == line.len()).then_some(out),
            _ => return None,
        }
    }
}

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while matches!(s.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        i += 1;
    }
    i
}

/// `i` at an opening quote → index just past the closing one.
fn skip_string(s: &[u8], i: usize) -> Option<usize> {
    if s.get(i) != Some(&b'"') {
        return None;
    }
    let mut j = i + 1;
    loop {
        match s.get(j)? {
            b'"' => return Some(j + 1),
            b'\\' => j += 2,
            _ => j += 1,
        }
    }
}

/// `i` at the first byte of a value → index just past it.
fn skip_value(s: &[u8], i: usize) -> Option<usize> {
    match s.get(i)? {
        b'"' => skip_string(s, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match s.get(j)? {
                    b'"' => {
                        j = skip_string(s, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while !matches!(
                s.get(j),
                None | Some(b',' | b'}' | b']' | b' ' | b'\t' | b'\r' | b'\n')
            ) {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// Look `key` up among split members.
pub fn member<'a>(members: &[(&'a [u8], &'a [u8])], key: &str) -> Option<&'a [u8]> {
    members.iter().find(|(k, _)| *k == key.as_bytes()).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_match_the_cli_client() {
        let req = Request { task: Task::WordCount, top: Some(10) };
        assert_eq!(
            request_line(req, 1),
            r#"{"op":"query","task":"wordcount","tenant":1,"top":10}"#
        );
        let req = Request { task: Task::InvertedIndex, top: None };
        assert_eq!(request_line(req, 0), r#"{"op":"query","task":"invertedindex","tenant":0}"#);
    }

    #[test]
    fn members_split_without_parsing_values() {
        let line = br#"{"cache_hit":false,"ok":true,"output":{"a}\"":[1,{"b":"]"}],"c":2},"task":"word count","tenant":0}"#;
        let m = members(line).unwrap();
        assert_eq!(m.len(), 5);
        assert_eq!(member(&m, "ok"), Some(&b"true"[..]));
        assert_eq!(member(&m, "output"), Some(&br#"{"a}\"":[1,{"b":"]"}],"c":2}"#[..]));
        assert_eq!(member(&m, "task"), Some(&br#""word count""#[..]));
        assert_eq!(member(&m, "tenant"), Some(&b"0"[..]));
        assert_eq!(member(&m, "missing"), None);
        assert_eq!(members(b"{}"), Some(vec![]));
    }

    #[test]
    fn malformed_replies_are_rejected() {
        for bad in
            [&b""[..], b"[1]", b"{\"a\":1", b"{\"a\" 1}", b"{\"a\":1}x", b"{\"a\":}", b"{\"a\":[1"]
        {
            assert!(members(bad).is_none(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn expected_output_shapes_like_the_daemon() {
        let full = TaskOutput::WordCount(
            [("a", 2u64), ("b", 5), ("c", 2)]
                .into_iter()
                .map(|(w, c)| (w.to_string(), c))
                .collect(),
        );
        let req = Request { task: Task::WordCount, top: Some(2) };
        assert_eq!(expected_output(req, &full), br#"{"a":2,"b":5}"#);
    }
}
