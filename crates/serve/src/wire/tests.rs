use std::io::Cursor;

use ntadoc::{Engine, EngineConfig};
use ntadoc_grammar::{compress_corpus, TokenizerConfig};

use super::*;
use crate::DaemonConfig;

fn server_over(files: Vec<(String, String)>, cfg: DaemonConfig) -> WireServer {
    let comp = compress_corpus(&files, &TokenizerConfig::default());
    let engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    WireServer::new(QueryDaemon::new(engine.serve().unwrap(), cfg))
}

fn server_with(cfg: DaemonConfig) -> WireServer {
    let files = vec![
        ("a.txt".into(), "to be or not to be that is the question".into()),
        ("b.txt".into(), "to be sure the answer is out there".into()),
    ];
    server_over(files, cfg)
}

fn server() -> WireServer {
    server_with(DaemonConfig::default())
}

/// A server whose full word count (≈ 36 KB encoded) is past
/// [`COPY_LIMIT`]: its hits leave in three parts.
fn wide_server() -> WireServer {
    let words: Vec<String> = (0..3000).map(|i| format!("w{i:05}")).collect();
    server_over(vec![("wide.txt".into(), words.join(" "))], DaemonConfig::default())
}

/// A connection played from a script: what the client sends, handed over
/// at most `read_max` bytes per `read`, and what it receives, taken at
/// most `write_max` bytes per `write`.
struct Script {
    sends: Cursor<Vec<u8>>,
    read_max: usize,
    received: Vec<u8>,
    write_max: usize,
}

impl Script {
    fn new(sends: impl Into<Vec<u8>>) -> Self {
        Script {
            sends: Cursor::new(sends.into()),
            read_max: usize::MAX,
            received: Vec::new(),
            write_max: usize::MAX,
        }
    }
}

impl Read for Script {
    fn read(&mut self, into: &mut [u8]) -> io::Result<usize> {
        let n = into.len().min(self.read_max);
        self.sends.read(&mut into[..n])
    }
}

impl Write for Script {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = bytes.len().min(self.write_max);
        self.received.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serve `sends` as one connection; the reply lines and the shutdown flag.
fn converse(server: &mut WireServer, sends: impl Into<Vec<u8>>) -> (Vec<String>, bool) {
    let mut script = Script::new(sends);
    let shutdown = server.serve_connection(&mut script).unwrap();
    let text = String::from_utf8(script.received).unwrap();
    assert!(text.is_empty() || text.ends_with('\n'), "a reply is a whole line");
    (text.lines().map(str::to_string).collect(), shutdown)
}

/// The one reply line to the one request line `request`.
fn ask(server: &mut WireServer, request: &str) -> String {
    let (mut lines, _) = converse(server, format!("{request}\n"));
    assert_eq!(lines.len(), 1, "{request}");
    lines.remove(0)
}

/// The reply line as it was built before there was a writer: the six
/// members as a tree, `output` from [`ntadoc::TaskOutput::to_json`], the
/// whole compacted. The reference [`send_served`] is held to.
fn tree_line(resp: &QueryResponse) -> String {
    Json::object([
        ("ok", Json::Bool(true)),
        ("cache_hit", Json::Bool(resp.cache_hit)),
        ("snapshot", Json::U64(resp.snapshot.fingerprint())),
        ("tenant", Json::U64(resp.tenant.0 as u64)),
        ("task", Json::from(resp.task.to_string())),
        ("output", resp.output().to_json()),
    ])
    .compact()
}

#[test]
fn a_query_is_served_then_served_from_the_cache() {
    let mut s = server();
    let cold = Json::parse(&ask(&mut s, r#"{"op":"query","task":"wordcount","tenant":1,"top":3}"#));
    let cold = cold.unwrap();
    assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
    let counts = cold.get("output").unwrap();
    assert_eq!(counts.get("to").and_then(Json::as_u64), Some(3));

    let warm = ask(&mut s, r#"{"op":"query","task":"wordcount","tenant":2,"top":3}"#);
    let warm = Json::parse(&warm).unwrap();
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("tenant").and_then(Json::as_u64), Some(2));
    assert_eq!(warm.get("output").unwrap(), counts, "hit must be byte-identical");
}

#[test]
fn every_reply_line_is_the_line_the_tree_built() {
    // Two daemons over one corpus, asked the same questions in the same
    // order: one through the wire, one directly and encoded as a tree.
    let (mut wire, mut direct) = (wide_server(), wide_server());
    let shapes: [(&str, Task, bool); 4] = [
        ("wordcount", Task::WordCount, false),
        ("sort", Task::Sort, false),
        ("termvector", Task::TermVector, true),
        ("invertedindex", Task::InvertedIndex, true),
    ];
    for (name, task, file_oriented) in shapes {
        for top in [None, Some(0), Some(2)] {
            for file in [None, Some("wide"), Some("no such file")] {
                if file.is_some() && !file_oriented {
                    continue;
                }
                // A miss, the hit that encodes, a hit that copies, and
                // another tenant's hit.
                for tenant in [7u32, 7, 7, 9] {
                    let mut request =
                        format!(r#"{{"op":"query","task":"{name}","tenant":{tenant}"#);
                    let mut query = Query::new(TenantId(tenant), task);
                    if let Some(k) = top {
                        request.push_str(&format!(r#","top":{k}"#));
                        query = query.top_k(k);
                    }
                    if let Some(f) = file {
                        request.push_str(&format!(r#","file":"{f}""#));
                        query = query.file_filter(f);
                    }
                    request.push('}');
                    let want = tree_line(&direct.daemon.execute(query).unwrap());
                    assert_eq!(ask(&mut wire, &request), want, "{request}");
                }
            }
        }
    }
    // 2 global tasks × 3 tops + 2 file-oriented ones × 3 tops × 3 filters.
    assert_eq!(wire.daemon().cache_counters(), (72, 24));
    assert_eq!(direct.daemon().cache_counters(), (72, 24));
}

#[test]
fn hits_share_one_encoding_and_tenant_and_cache_hit_sit_outside_it() {
    let mut d = server().daemon;
    let q = |tenant| Query::new(TenantId(tenant), Task::InvertedIndex).top_k(2);
    let miss = d.execute(q(1)).unwrap();
    assert_eq!(miss.encoded_output(), None, "a miss has no entry to encode into");
    assert_eq!(d.cache().memoized(), (0, 0));
    let first = d.execute(q(1)).unwrap();
    assert_eq!(d.cache().memoized(), (0, 0), "a hit nobody sent encodes nothing");
    let bytes = first.encoded_output().unwrap();
    assert_eq!(bytes, miss.output().to_json().compact());
    assert_eq!(d.cache().memoized(), (1, bytes.len()));
    let (second, third) = (d.execute(q(1)).unwrap(), d.execute(q(2)).unwrap());
    for later in [&second, &third] {
        assert!(std::ptr::eq(later.encoded_output().unwrap(), bytes), "one allocation");
    }
    assert_eq!(d.cache().memoized(), (1, bytes.len()));
    // The memo takes no part in what a response is.
    assert_ne!(second, third, "tenants differ");
    assert_eq!(second, first);
    let mut miss_as_hit = miss.clone();
    miss_as_hit.cache_hit = true;
    assert_eq!(first, miss_as_hit);
}

#[test]
fn a_large_hit_leaves_in_parts_and_survives_short_writes() {
    let mut s = wide_server();
    let request = "{\"op\":\"query\",\"task\":\"wordcount\"}\n";
    let (whole, _) = converse(&mut s, request.repeat(2));
    assert!(whole[1].len() > 2 * COPY_LIMIT);
    assert_eq!(whole[1], whole[0].replacen("\"cache_hit\":false", "\"cache_hit\":true", 1));
    for write_max in [1, 7, 4096, COPY_LIMIT + 1] {
        let mut script = Script::new(request);
        script.write_max = write_max;
        s.serve_connection(&mut script).unwrap();
        assert_eq!(String::from_utf8(script.received).unwrap(), format!("{}\n", whole[1]));
    }
}

#[test]
fn a_miss_past_the_stream_buffer_leaves_as_one_line_of_the_tree_bytes() {
    // 8 000 distinct words: the full word count is ≈ 112 KB encoded, and
    // leaves the buffer in pieces whatever the stream takes per write.
    let words: Vec<String> = (0..8000).map(|i| format!("w{i:05}")).collect();
    let files = vec![("wide.txt".to_string(), words.join(" "))];
    let mut direct = server_over(files.clone(), DaemonConfig::default());
    let want = tree_line(&direct.daemon.execute(Query::new(TenantId(0), Task::WordCount)).unwrap());
    assert!(want.len() > STREAM_BUFFER);
    let request = "{\"op\":\"query\",\"task\":\"wordcount\"}\n";
    for write_max in [usize::MAX, 1, 7, 4096, STREAM_BUFFER + 1] {
        // A fresh daemon each time, so every ask is a miss.
        let mut s =
            server_over(files.clone(), DaemonConfig { cache_capacity: 0, ..Default::default() });
        let mut script = Script::new(request);
        script.write_max = write_max;
        s.serve_connection(&mut script).unwrap();
        assert_eq!(String::from_utf8(script.received).unwrap(), format!("{want}\n"), "{write_max}");
        assert_eq!(s.reply.capacity(), STREAM_BUFFER, "the buffer never grows");
    }

    // A peer that goes away after the first piece: the error comes back,
    // and the next connection's reply is whole.
    struct Hangup(Script);
    impl Read for Hangup {
        fn read(&mut self, into: &mut [u8]) -> io::Result<usize> {
            self.0.read(into)
        }
    }
    impl Write for Hangup {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if !self.0.received.is_empty() {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.0.write(bytes)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut s = server_over(files, DaemonConfig { cache_capacity: 0, ..Default::default() });
    let err = s.serve_connection(&mut Hangup(Script::new(request))).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    assert_eq!(converse(&mut s, request).0, [want]);
}

#[test]
fn wrong_typed_members_are_refused_by_name() {
    let mut s = server();
    let refused = |s: &mut WireServer, request: &str, member: &str| {
        let reply = Json::parse(&ask(s, request)).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{request}");
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"), "{request}");
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with(member), "{request}: `{error}` should name `{member}`");
    };
    for top in ["-1", "\"5\"", "2.5", "18446744073709551616", "null", "[5]"] {
        refused(&mut s, &format!(r#"{{"op":"query","task":"sort","top":{top}}}"#), "top");
    }
    refused(&mut s, r#"{"op":"query","task":"termvector","file":7}"#, "file");
    for tenant in ["4294967297", "4294967296", "-1", "\"1\"", "1.0"] {
        refused(&mut s, &format!(r#"{{"op":"query","task":"sort","tenant":{tenant}}}"#), "tenant");
    }
    assert_eq!(s.daemon().cache_counters(), (0, 0), "a refused request reaches no cache");
    assert_eq!(s.daemon().batches_dispatched(), 0, "nor any tenant's quota");

    // Absent members keep their defaults, and the edges of each range are in.
    let full = Json::parse(&ask(&mut s, r#"{"op":"query","task":"sort"}"#)).unwrap();
    assert_eq!(full.get("tenant").and_then(Json::as_u64), Some(0));
    assert_eq!(full.get("output").and_then(Json::as_arr).map(<[Json]>::len), Some(12));
    let edge = ask(&mut s, r#"{"op":"query","task":"sort","tenant":4294967295,"top":0}"#);
    let edge = Json::parse(&edge).unwrap();
    assert_eq!(edge.get("tenant").and_then(Json::as_u64), Some(u32::MAX as u64));
    assert_eq!(edge.get("output"), Some(&Json::Arr(vec![])));
    let huge = ask(&mut s, r#"{"op":"query","task":"sort","top":18446744073709551615}"#);
    assert_eq!(Json::parse(&huge).unwrap().get("output"), full.get("output"));
}

#[test]
fn error_replies_are_the_lines_they_always_were() {
    let mut s = server();
    let cases = [
        (
            "{not json",
            r#"{"error":"unparseable request: json parse error at byte 1: expected '\"'","kind":"bad_request","ok":false}"#,
        ),
        (
            r#"{"op":"reticulate"}"#,
            r#"{"error":"op must be \"query\", \"stats\" or \"shutdown\"","kind":"bad_request","ok":false}"#,
        ),
        (r#"{"op":"query"}"#, r#"{"error":"query needs a task","kind":"bad_request","ok":false}"#),
        (
            r#"{"op":"query","task":7}"#,
            r#"{"error":"query needs a task","kind":"bad_request","ok":false}"#,
        ),
        (
            r#"{"op":"query","task":"Word-Cloud"}"#,
            r#"{"error":"unknown task `wordcloud`","kind":"bad_request","ok":false}"#,
        ),
        (
            r#"{"op":"query","task":"sort","file":"a"}"#,
            r#"{"error":"engine error: unsupported operation: file_filter applies to file-oriented tasks only, not 'sort'","kind":"unsupported","ok":false}"#,
        ),
    ];
    for (request, want) in cases {
        assert_eq!(ask(&mut s, request), want, "{request}");
    }
    let (lines, _) = converse(&mut s, b"\xff\xfe\n".to_vec());
    assert_eq!(
        lines,
        [r#"{"error":"request is not valid UTF-8","kind":"bad_request","ok":false}"#]
    );
    let (lines, shutdown) = converse(&mut s, "{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n");
    assert_eq!(lines, [r#"{"ok":true,"shutdown":true}"#], "nothing after a shutdown is read");
    assert!(shutdown);
}

#[test]
fn quota_rejections_come_back_typed() {
    let mut s = server_with(DaemonConfig { tenant_quota: 0, ..DaemonConfig::default() });
    let reply = Json::parse(&ask(&mut s, r#"{"op":"query","task":"sort","tenant":3}"#)).unwrap();
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("quota_exceeded"));
    assert!(reply.get("error").and_then(Json::as_str).unwrap().contains("tenant 3"));
}

#[test]
fn stats_reads_the_daemon_as_it_stands() {
    let mut s = server();
    let stat = |s: &mut WireServer, name: &str| {
        let reply = Json::parse(&ask(s, r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        reply.get(name).and_then(Json::as_u64).unwrap_or_else(|| panic!("no `{name}`"))
    };
    let all = [
        "batches_dispatched",
        "cache_answers",
        "cache_bytes",
        "cache_entries",
        "cache_hits",
        "cache_misses",
        "memoized_bytes",
        "memoized_entries",
        "queue_depth",
    ];
    for name in all {
        assert_eq!(stat(&mut s, name), 0, "{name} before any query");
    }
    assert_eq!(stat(&mut s, "snapshot"), s.daemon().snapshot_version());

    let sort = r#"{"op":"query","task":"sort","top":1}"#;
    let encoded = r#"[["answer",1]]"#.len() as u64;
    ask(&mut s, sort);
    ask(&mut s, r#"{"op":"query","task":"wordcount"}"#);
    let after_misses = all.map(|name| stat(&mut s, name));
    // A word id and a count per row: one row of sort, the corpus's twelve
    // words of word count. Hits add an encoding, which is counted apart.
    let rows = (1 + 12) * (4 + 8);
    assert_eq!(after_misses, [2, 2, rows, 2, 0, 2, 0, 0, 0]);
    ask(&mut s, sort);
    ask(&mut s, sort);
    let after_hits = all.map(|name| stat(&mut s, name));
    assert_eq!(after_hits, [4, 2, rows, 2, 2, 2, encoded, 1, 0]);
}

#[test]
fn lines_are_found_however_the_bytes_arrive() {
    let mut s = server();
    let stats = r#"{"op":"stats"}"#;
    let sends = format!("\n  \r\n{stats}\r\n{stats}\n\n{stats}");
    let (whole, _) = converse(&mut s, sends.clone());
    assert_eq!(whole.len(), 3, "blank lines get no reply, an unterminated last line gets one");
    for read_max in [1, 2, 5, 16] {
        let mut script = Script::new(sends.clone());
        script.read_max = read_max;
        s.serve_connection(&mut script).unwrap();
        assert_eq!(String::from_utf8(script.received).unwrap().lines().count(), 3);
    }
    // What one connection leaves unread is not the next one's.
    let (lines, shutdown) = converse(&mut s, "{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n");
    assert!(shutdown && lines.len() == 1);
    let (lines, _) = converse(&mut s, "");
    assert!(lines.is_empty());
}

#[test]
fn a_line_fits_up_to_the_cap_and_a_longer_one_costs_only_itself() {
    let mut s = server();
    let too_long = format!(
        r#"{{"error":"request line exceeds {MAX_REQUEST_BYTES} bytes","kind":"bad_request","ok":false}}"#
    );
    let padded = |len: usize| {
        let stats = r#"{"op":"stats"}"#;
        format!("{stats}{}", " ".repeat(len - stats.len()))
    };
    for read_max in [usize::MAX, 4093] {
        // Exactly the cap fits, with and without its newline.
        for sends in [format!("{}\n", padded(MAX_REQUEST_BYTES)), padded(MAX_REQUEST_BYTES)] {
            let mut script = Script::new(sends);
            script.read_max = read_max;
            s.serve_connection(&mut script).unwrap();
            assert!(script.received.starts_with(b"{\"batches_dispatched\":"));
        }
        // One byte more does not, and the lines around it are served —
        // also when the long line is the last and never ends.
        let over = padded(MAX_REQUEST_BYTES + 1);
        let sends = format!("{{\"op\":\"x\"}}\n{over}\n{{\"op\":\"y\"}}\n{}", "z".repeat(200_000));
        let mut script = Script::new(sends);
        script.read_max = read_max;
        s.serve_connection(&mut script).unwrap();
        let text = String::from_utf8(script.received).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("op must be") && lines[2].contains("op must be"));
        assert_eq!((lines[1], lines[3]), (&too_long[..], &too_long[..]));
    }
}
