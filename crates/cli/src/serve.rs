//! `ntadoc serve` / `ntadoc query` — the multi-tenant daemon over a Unix
//! socket.
//!
//! The wire protocol is line-delimited JSON, one request and one response
//! per line; a reply's members are in sorted order:
//!
//! ```text
//! → {"op":"query","task":"wordcount","tenant":3,"top":10}
//! ← {"cache_hit":false,"ok":true,"output":{…},"snapshot":…,"task":"word count","tenant":3}
//! → {"op":"stats"}
//! ← {"batches_dispatched":…,"cache_answers":…,"cache_bytes":…,"cache_entries":…,
//!    "cache_hits":…,
//!    "cache_misses":…,"memoized_bytes":…,"memoized_entries":…,"ok":true,
//!    "queue_depth":…,"snapshot":…}
//! → {"op":"shutdown"}
//! ← {"ok":true,"shutdown":true}
//! ```
//!
//! `tenant` (default 0), `top` and `file` are optional; one that is present
//! with the wrong type or out of range is refused by name (`"kind":
//! "bad_request"`), admission rejections come back typed
//! (`"quota_exceeded"` / `"queue_full"`), never as dropped connections, a
//! query the engine refuses by design is `"unsupported"` and any other
//! engine failure `"engine"`.
//! `stats` reads what the daemon keeps anyway: cache lookups that hit and
//! missed, entries (keys) resident, the distinct answers they hold
//! (`cache_answers`: keys whose results are equal share one stored answer)
//! and those answers' heap bytes (`cache_bytes`, each stored answer counted
//! once: dictionary and file ids, four bytes each, and counts — a cached
//! result holds no string), how many answers hold their `output` encoded
//! (the first hit encodes it, later hits under any key sharing it copy the
//! bytes) and in how many bytes, batches dispatched, queries admitted and
//! not yet dispatched, and the fingerprint of the snapshot being served.
//!
//! This file is the socket: the protocol itself — request decoding, the
//! reply writer — is [`ntadoc_serve::WireServer`]. The front-end serves
//! interactively over the one snapshot it was started on (each request
//! dispatches immediately, batch of one, through the shared result cache,
//! so batch size and tenant quota are never reached and are not options);
//! cross-tenant batch formation is exercised by the `serve_load` harness
//! and the daemon's trace API, which this command shares all state
//! machinery with.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use ntadoc::{Engine, EngineConfig, PoolBackend};
use ntadoc_pmem::Json;
use ntadoc_serve::{DaemonConfig, QueryDaemon, WireServer};

use crate::cmd::{
    backend_operand, fail, load_corpus, number, operand, parse_task, usage, CliError, CmdResult,
};

/// `ntadoc serve <corpus.ntdc> --socket <path> [--cache N] [--pool
/// <pool.ntdp>] [--backend file|mmap]`: build the engine once, then answer
/// queries on the socket until a shutdown request arrives. With `--pool`
/// the serve session's DAG and word-list caches live in (and persist to)
/// the pool file through the chosen backend instead of an anonymous
/// in-memory device.
pub fn serve(args: &[String]) -> CmdResult {
    let mut corpus = None;
    let mut socket = None;
    let mut cfg = DaemonConfig::default();
    let mut pool: Option<PathBuf> = None;
    let mut backend = PoolBackend::File;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(operand(args, i, "a path")?));
                i += 2;
            }
            "--pool" => {
                pool = Some(PathBuf::from(operand(args, i, "a path")?));
                i += 2;
            }
            "--backend" => {
                backend = backend_operand(args, i)?;
                i += 2;
            }
            "--cache" => {
                cfg.cache_capacity = number(args, i)?;
                i += 2;
            }
            p if corpus.is_none() => {
                corpus = Some(p.to_string());
                i += 1;
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let corpus = corpus.ok_or_else(|| usage("serve needs a corpus path"))?;
    let socket = socket.ok_or_else(|| usage("serve needs --socket <path>"))?;
    let comp = load_corpus(&corpus)?;
    let engine = Engine::builder(comp)
        .config(EngineConfig::ntadoc())
        .pool_backend(backend)
        .label("serve")
        .build()
        .map_err(fail)?;
    let serve_session = match &pool {
        Some(path) => engine.serve_pool(path),
        None => engine.serve(),
    }
    .map_err(fail)?;
    let daemon = QueryDaemon::new(serve_session, cfg);
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(&socket);
    let listener =
        UnixListener::bind(&socket).map_err(|e| fail(format!("{}: {e}", socket.display())))?;
    eprintln!(
        "[serve] corpus {corpus} (snapshot {:#018x}) on {}",
        daemon.snapshot_version(),
        socket.display()
    );
    let result = serve_loop(&listener, daemon);
    let _ = std::fs::remove_file(&socket);
    result
}

/// Accept-loop: one connection at a time, one request per line, every
/// connection through the same [`WireServer`] and so the same line and
/// reply buffers. Returns only after a shutdown request: an I/O error on
/// one connection (a peer that vanished before reading its reply, say)
/// drops that connection and the loop keeps accepting. Separated from
/// [`serve`] so tests can drive it without spawning a process.
pub fn serve_loop(listener: &UnixListener, daemon: QueryDaemon) -> CmdResult {
    let mut server = WireServer::new(daemon);
    for stream in listener.incoming() {
        // `&UnixStream` both reads and writes: no second descriptor.
        match stream.and_then(|s| server.serve_connection(&s)) {
            Ok(false) => {}
            Ok(true) => {
                let daemon = server.daemon();
                eprintln!(
                    "[serve] shutdown after {} batches, cache hit rate {:.3}",
                    daemon.batches_dispatched(),
                    daemon.cache_hit_rate()
                );
                return Ok(());
            }
            Err(e) => eprintln!("[serve] dropped a connection: {e}"),
        }
    }
    Ok(())
}

/// `ntadoc query --socket <path> <task> [--tenant N] [--top K] [--file F]`
/// or `ntadoc query --socket <path> --shutdown`: send one request to a
/// running daemon and print the response.
pub fn query(args: &[String]) -> CmdResult {
    let mut socket = None;
    let mut task = None;
    let mut tenant = 0u64;
    let mut top: Option<u64> = None;
    let mut file: Option<String> = None;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(operand(args, i, "a path")?));
                i += 2;
            }
            "--tenant" => {
                tenant = number(args, i)?;
                i += 2;
            }
            "--top" => {
                top = Some(number(args, i)?);
                i += 2;
            }
            "--file" => {
                file = Some(operand(args, i, "a name")?.clone());
                i += 2;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            t if task.is_none() && !t.starts_with('-') => {
                task = Some(t.to_string());
                i += 1;
            }
            other => return Err(usage(format!("unknown option `{other}`"))),
        }
    }
    let socket = socket.ok_or_else(|| usage("query needs --socket <path>"))?;
    let request = if shutdown {
        Json::object([("op", Json::from("shutdown"))])
    } else {
        let task = task.ok_or_else(|| usage("query needs a task (or --shutdown)"))?;
        parse_task(&task)?; // validate locally for a friendlier error
        let mut pairs = vec![
            ("op", Json::from("query")),
            ("task", Json::from(task)),
            ("tenant", Json::U64(tenant)),
        ];
        if let Some(k) = top {
            pairs.push(("top", Json::U64(k)));
        }
        if let Some(f) = file {
            pairs.push(("file", Json::from(f)));
        }
        Json::object(pairs)
    };
    let reply = roundtrip(&socket, &request)?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            if let Some(hit) = reply.get("cache_hit").and_then(Json::as_bool) {
                eprintln!("[query] cache {}", if hit { "HIT (zero lines read)" } else { "miss" });
            }
            match reply.get("output") {
                Some(out) => println!("{}", out.pretty()),
                None => println!("{}", reply.pretty()),
            }
            Ok(())
        }
        _ => {
            let kind = reply.get("kind").and_then(Json::as_str).unwrap_or("error");
            let msg = reply.get("error").and_then(Json::as_str).unwrap_or("malformed reply");
            Err(fail(format!("{kind}: {msg}")))
        }
    }
}

/// Send one request line, read one response line.
fn roundtrip(socket: &Path, request: &Json) -> Result<Json, CliError> {
    let mut stream =
        UnixStream::connect(socket).map_err(|e| fail(format!("{}: {e}", socket.display())))?;
    writeln!(stream, "{}", request.compact()).map_err(fail)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(fail)?;
    Json::parse(line.trim()).map_err(|e| fail(format!("malformed reply: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_grammar::{CorpusBuilder, TokenizerConfig};

    fn test_daemon() -> QueryDaemon {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_file("a.txt".to_string(), "to be or not to be that is the question");
        b.add_file("b.txt".to_string(), "to be sure the answer is out there");
        let engine = Engine::builder(b.finish()).config(EngineConfig::ntadoc()).build().unwrap();
        QueryDaemon::new(engine.serve().unwrap(), DaemonConfig::default())
    }

    #[test]
    fn socket_round_trip_and_shutdown() {
        let dir = std::env::temp_dir().join(format!("ntadoc-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("d.sock");
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).unwrap();
        let daemon = test_daemon();
        let server = std::thread::spawn(move || serve_loop(&listener, daemon));

        let req = Json::object([
            ("op", Json::from("query")),
            ("task", Json::from("invertedindex")),
            ("file", Json::from("a.txt")),
        ]);
        let reply = roundtrip(&sock, &req).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let output = reply.get("output").unwrap();
        // `question` appears only in a.txt; the filter keeps it.
        assert!(output.get("question").is_some());
        // `answer` appears only in b.txt; the filter drops its posting.
        assert!(output.get("answer").is_none());

        let bye = roundtrip(&sock, &Json::object([("op", Json::from("shutdown"))])).unwrap();
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Run `hostile` against a live `serve_loop`, then require a fresh
    /// connection to be served and a shutdown request to end the loop
    /// cleanly: nothing a client does may take the daemon down.
    fn daemon_survives(name: &str, hostile: impl FnOnce(&Path)) {
        let dir = std::env::temp_dir().join(format!("ntadoc-serve-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("d.sock");
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).unwrap();
        let daemon = test_daemon();
        let server = std::thread::spawn(move || serve_loop(&listener, daemon));

        hostile(&sock);

        let query = Json::object([("op", Json::from("query")), ("task", Json::from("wordcount"))]);
        let reply = roundtrip(&sock, &query).expect("the daemon must still answer");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("output").and_then(|o| o.get("to")).and_then(Json::as_u64), Some(3));
        roundtrip(&sock, &Json::object([("op", Json::from("shutdown"))])).unwrap();
        server.join().unwrap().expect("only a shutdown request ends the loop");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Send raw bytes, half-close, and return the daemon's one reply line.
    fn raw_exchange(sock: &Path, bytes: &[u8]) -> Json {
        let mut stream = UnixStream::connect(sock).unwrap();
        stream.write_all(bytes).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    }

    #[test]
    fn a_non_utf8_request_gets_bad_request_and_the_daemon_lives() {
        daemon_survives("utf8", |sock| {
            let reply = raw_exchange(sock, b"\xff\xfe\n");
            assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));
            assert!(reply.get("error").and_then(Json::as_str).unwrap().contains("UTF-8"));
        });
    }

    #[test]
    fn a_deeply_nested_request_gets_bad_request_and_the_daemon_lives() {
        daemon_survives("nested", |sock| {
            // Fits the line cap; parsed by recursion, it overflowed the stack.
            let mut line = vec![b'['; 60_000];
            line.push(b'\n');
            let reply = raw_exchange(sock, &line);
            assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));
            assert!(reply.get("error").and_then(Json::as_str).unwrap().contains("nesting"));
        });
    }

    #[test]
    fn an_oversized_request_line_gets_bad_request_and_the_daemon_lives() {
        daemon_survives("oversized", |sock| {
            // 1 MiB and no newline: answered without being buffered whole.
            let reply = raw_exchange(sock, &vec![b'a'; 1 << 20]);
            assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));
            assert!(reply.get("error").and_then(Json::as_str).unwrap().contains("exceeds"));
            // The request after an oversized line on the same connection
            // is still served.
            let mut two = vec![b' '; ntadoc_serve::MAX_REQUEST_BYTES + 1];
            two.extend_from_slice(b"\n{\"op\":\"reticulate\"}\n");
            let mut stream = UnixStream::connect(sock).unwrap();
            stream.write_all(&two).unwrap();
            let mut reader = BufReader::new(stream);
            for expect in ["exceeds", "op must be"] {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains(expect), "expected `{expect}` in {line}");
            }
        });
    }

    #[test]
    fn a_client_that_hangs_up_before_its_reply_does_not_stop_the_daemon() {
        daemon_survives("hangup", |sock| {
            // Distinct uncached queries, so the daemon is still computing
            // when the peer disappears and its reply meets a closed socket.
            for top in 1..=8u64 {
                let mut stream = UnixStream::connect(sock).unwrap();
                let req = Json::object([
                    ("op", Json::from("query")),
                    ("task", Json::from("sort")),
                    ("top", Json::U64(top)),
                ]);
                writeln!(stream, "{}", req.compact()).unwrap();
                drop(stream);
            }
        });
    }
}
