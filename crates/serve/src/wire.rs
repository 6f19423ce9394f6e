//! The line protocol of `ntadoc serve`: request lines in, reply lines out.
//!
//! One JSON object per line each way; a request names an `op` — `query`,
//! `stats` or `shutdown` — and anything else is answered
//! `{"error":…,"kind":"bad_request","ok":false}`. `ntadoc serve`'s module
//! header and README.md show a conversation.
//!
//! A query's optional members are `tenant` (an integer that fits `u32`,
//! default 0), `top` (a non-negative integer) and `file` (a string); one
//! that is present with another type or out of range is a `bad_request`
//! naming it, never a default. Admission rejections come back typed too
//! (`"kind":"quota_exceeded"` / `"queue_full"`), never as dropped
//! connections; a query the engine refuses by design (a `file` on a task
//! that is not file-oriented) is `"kind":"unsupported"`, and any other
//! engine failure `"kind":"engine"`.
//!
//! Members of every reply are in sorted order, as [`Json::compact`] writes
//! an object. A served reply is the one line that is not made from a tree:
//! its six members — `cache_hit`, `ok`, `output`, `snapshot`, `task`,
//! `tenant` — are written straight into the outgoing bytes. A miss's
//! `output` is streamed by
//! [`TaskRows::write_json`](ntadoc::TaskRows::write_json) — words and file
//! names looked up as they are written, no string form of the result in
//! between — through a buffer of at most `STREAM_BUFFER` (64 KiB), so a
//! 2 MB inverted index is never held whole. A hit's comes from the cache
//! entry's encoding ([`QueryResponse::encoded_output`]), which the first hit
//! on an entry makes and every later one copies. `tenant` and `cache_hit`
//! differ between askers and sit outside it.

use std::io::{self, IoSlice, Read, Write};

use ntadoc::{Query, QueryResponse, Task, TenantId};
use ntadoc_pmem::json::{write_str, write_u64, JsonOut};
use ntadoc_pmem::{Json, PmemError};

use crate::{QueryDaemon, ServeError};

/// Longest request line the server buffers. A longer one is answered with
/// `bad_request` and its remainder is discarded as it streams past.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// An encoded `output` up to this size is copied behind the reply's first
/// members so the line leaves in one `write`; a larger one is handed to
/// the stream where the cache keeps it, between the two.
const COPY_LIMIT: usize = 16 * 1024;

/// The reply buffer's size: a miss's reply leaves through it in pieces of
/// at most this many bytes, a hit's is assembled in it, and a piece too long
/// to fit (a name longer than the buffer) goes to the stream directly, so
/// the buffer never grows.
const STREAM_BUFFER: usize = 64 * 1024;

/// What one request line asks for.
enum Request {
    Query(Query),
    Stats,
    Shutdown,
}

/// Decode a request line; the error is the `bad_request` message.
fn parse_request(line: &str) -> Result<Request, String> {
    let req = Json::parse(line).map_err(|e| format!("unparseable request: {e}"))?;
    match req.get("op").and_then(Json::as_str) {
        Some("shutdown") => Ok(Request::Shutdown),
        Some("stats") => Ok(Request::Stats),
        Some("query") => {
            let task: Task = match req.get("task").and_then(Json::as_str) {
                Some(name) => name.parse().map_err(|e: ntadoc::UnknownTask| e.to_string())?,
                None => return Err("query needs a task".into()),
            };
            let tenant = match req.get("tenant") {
                None => 0,
                Some(t) => t
                    .as_u64()
                    .and_then(|t| u32::try_from(t).ok())
                    .ok_or("tenant must be an integer from 0 to 4294967295")?,
            };
            let mut query = Query::new(TenantId(tenant), task);
            if let Some(k) = req.get("top") {
                let k = k.as_u64().and_then(|k| usize::try_from(k).ok());
                query = query.top_k(k.ok_or("top must be a non-negative integer")?);
            }
            if let Some(f) = req.get("file") {
                query = query.file_filter(f.as_str().ok_or("file must be a string")?);
            }
            Ok(Request::Query(query))
        }
        _ => Err("op must be \"query\", \"stats\" or \"shutdown\"".into()),
    }
}

fn error_reply(kind: &str, message: &str) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        ("kind", Json::from(kind)),
        ("error", Json::from(message)),
    ])
}

fn bad_request(message: &str) -> Json {
    error_reply("bad_request", message)
}

/// Request lines off a stream through one buffer that outlives the
/// connections it is used for.
struct LineBuffer {
    /// Room for the longest line that fits and its newline.
    bytes: Box<[u8]>,
    /// `bytes[start..end]` has been read and not yet handed out.
    start: usize,
    end: usize,
}

/// What [`LineBuffer::next_line`] found.
enum Line<'a> {
    /// A line's bytes, without its newline.
    Text(&'a [u8]),
    /// A line over [`MAX_REQUEST_BYTES`], consumed to its end and not kept.
    TooLong,
    Eof,
}

impl LineBuffer {
    fn new() -> Self {
        LineBuffer { bytes: vec![0; MAX_REQUEST_BYTES + 1].into(), start: 0, end: 0 }
    }

    /// Forget what an earlier connection left unread.
    fn reset(&mut self) {
        (self.start, self.end) = (0, 0);
    }

    /// Where the first newline of `bytes[from..end]` is.
    fn newline_from(&self, from: usize) -> Option<usize> {
        self.bytes[from..self.end].iter().position(|&b| b == b'\n').map(|i| from + i)
    }

    /// The next `\n`-terminated line (or the unterminated last one).
    fn next_line(&mut self, stream: &mut impl Read) -> io::Result<Line<'_>> {
        let mut scanned = self.start;
        loop {
            if let Some(nl) = self.newline_from(scanned) {
                let line = self.start..nl;
                self.start = nl + 1;
                return Ok(Line::Text(&self.bytes[line]));
            }
            if self.end == self.bytes.len() {
                if self.start == 0 {
                    return self.discard_line(stream);
                }
                // Room for the rest of a line that began late in the buffer.
                self.bytes.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            scanned = self.end;
            let n = read_some(stream, &mut self.bytes[self.end..])?;
            if n == 0 {
                let last = self.start..self.end;
                self.start = self.end;
                return Ok(if last.is_empty() { Line::Eof } else { Line::Text(&self.bytes[last]) });
            }
            self.end += n;
        }
    }

    /// The buffer is full of one line with no end in sight: read past it,
    /// keeping what follows its newline.
    fn discard_line(&mut self, stream: &mut impl Read) -> io::Result<Line<'_>> {
        loop {
            self.end = read_some(stream, &mut self.bytes)?;
            let line_end = self.newline_from(0);
            self.start = line_end.map_or(self.end, |nl| nl + 1);
            if line_end.is_some() || self.end == 0 {
                return Ok(Line::TooLong);
            }
        }
    }
}

/// `read`, again if a signal interrupts it.
fn read_some(stream: &mut impl Read, into: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(into) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

/// `write_all` over several non-empty slices that are not contiguous in
/// memory.
fn write_all_parts(stream: &mut impl Write, parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    let mut rest = parts;
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A [`QueryDaemon`] behind the line protocol, with the buffers its
/// connections share: what an accept loop owns.
pub struct WireServer {
    daemon: QueryDaemon,
    lines: LineBuffer,
    /// The served reply being assembled or streamed: `STREAM_BUFFER`
    /// bytes, made once and kept.
    reply: String,
}

impl WireServer {
    /// Serve `daemon`.
    pub fn new(daemon: QueryDaemon) -> Self {
        let reply = String::with_capacity(STREAM_BUFFER);
        WireServer { daemon, lines: LineBuffer::new(), reply }
    }

    /// The daemon behind the protocol.
    pub fn daemon(&self) -> &QueryDaemon {
        &self.daemon
    }

    /// Answer one connection's requests until it closes; `Ok(true)` means
    /// it asked for shutdown. `&UnixStream` is such a stream, so a socket
    /// is served without a second descriptor for the writing side.
    pub fn serve_connection(&mut self, mut stream: impl Read + Write) -> io::Result<bool> {
        self.lines.reset();
        loop {
            let refused = match self.lines.next_line(&mut stream)? {
                Line::Eof => return Ok(false),
                Line::TooLong => format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                Line::Text(bytes) => match std::str::from_utf8(bytes).map(str::trim) {
                    Err(_) => "request is not valid UTF-8".to_string(),
                    Ok("") => continue,
                    Ok(text) => {
                        if answer(&mut self.daemon, text, &mut self.reply, &mut stream)? {
                            return Ok(true);
                        }
                        continue;
                    }
                },
            };
            send_tree(&bad_request(&refused), &mut stream)?;
        }
    }
}

/// Decode one request line, execute it and send its reply line (a served
/// query's through `reply`). The bool is the shutdown flag.
fn answer(
    daemon: &mut QueryDaemon,
    line: &str,
    reply: &mut String,
    stream: &mut impl Write,
) -> io::Result<bool> {
    let (tree, shutdown) = match parse_request(line) {
        Err(message) => (bad_request(&message), false),
        Ok(Request::Shutdown) => {
            (Json::object([("ok", Json::Bool(true)), ("shutdown", Json::Bool(true))]), true)
        }
        Ok(Request::Stats) => (stats_reply(daemon), false),
        Ok(Request::Query(query)) => match daemon.execute(query) {
            Ok(resp) => return send_served(&resp, reply, stream).map(|()| false),
            Err(e) => {
                let kind = match &e {
                    ServeError::QuotaExceeded { .. } => "quota_exceeded",
                    ServeError::QueueFull { .. } => "queue_full",
                    ServeError::Engine(PmemError::Unsupported(_)) => "unsupported",
                    ServeError::Engine(_) => "engine",
                };
                (error_reply(kind, &e.to_string()), false)
            }
        },
    };
    send_tree(&tree, stream)?;
    Ok(shutdown)
}

/// The `stats` reply: what the daemon would say about itself if asked now.
fn stats_reply(daemon: &QueryDaemon) -> Json {
    let (hits, misses) = daemon.cache_counters();
    let (memoized_entries, memoized_bytes) = daemon.cache().memoized();
    Json::object([
        ("ok", Json::Bool(true)),
        ("cache_hits", Json::U64(hits)),
        ("cache_misses", Json::U64(misses)),
        ("cache_entries", Json::from(daemon.cache().len())),
        ("cache_answers", Json::from(daemon.cache().answer_count())),
        ("cache_bytes", Json::from(daemon.cache().bytes())),
        ("memoized_entries", Json::from(memoized_entries)),
        ("memoized_bytes", Json::from(memoized_bytes)),
        ("batches_dispatched", Json::U64(daemon.batches_dispatched())),
        ("queue_depth", Json::from(daemon.queue_depth())),
        ("snapshot", Json::U64(daemon.snapshot_version())),
    ])
}

/// Send a reply that is built as a tree: everything but a served query.
fn send_tree(tree: &Json, stream: &mut impl Write) -> io::Result<()> {
    let mut line = tree.compact();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Send a served query's reply: the six members in sorted order, the line
/// [`Json::compact`] would write for them, with no tree.
fn send_served(
    resp: &QueryResponse,
    reply: &mut String,
    stream: &mut impl Write,
) -> io::Result<()> {
    reply.clear();
    let head = if resp.cache_hit {
        "{\"cache_hit\":true,\"ok\":true,\"output\":"
    } else {
        "{\"cache_hit\":false,\"ok\":true,\"output\":"
    };
    let Some(memo) = resp.encoded_output() else {
        let mut line = Streamed { buffer: reply, stream, failed: None };
        line.push_str(head);
        resp.rows().write_json(&mut line);
        served_tail(&mut line, resp);
        return line.finish();
    };
    reply.push_str(head);
    if memo.len() <= COPY_LIMIT {
        reply.push_str(memo);
        served_tail(reply, resp);
        return stream.write_all(reply.as_bytes());
    }
    let at = reply.len();
    served_tail(reply, resp);
    let (head, tail) = reply.as_bytes().split_at(at);
    write_all_parts(stream, &mut [head, memo.as_bytes(), tail].map(IoSlice::new))
}

/// The members after `output`, and the line's end.
fn served_tail(out: &mut impl JsonOut, resp: &QueryResponse) {
    out.push_str(",\"snapshot\":");
    write_u64(out, resp.snapshot.fingerprint());
    out.push_str(",\"task\":");
    write_str(out, resp.task.name());
    out.push_str(",\"tenant\":");
    write_u64(out, resp.tenant.0.into());
    out.push_str("}\n");
}

/// A reply line on its way to `stream` through `buffer`, which is written
/// out whenever the next piece would take it past `STREAM_BUFFER` bytes.
/// A write that fails is kept and ends the sending: the rest of the line is
/// dropped, and [`finish`](Self::finish) returns the error.
struct Streamed<'a, W: Write> {
    buffer: &'a mut String,
    stream: &'a mut W,
    failed: Option<io::Error>,
}

impl<W: Write> Streamed<'_, W> {
    /// Send what the buffer holds and empty it.
    fn drain(&mut self) {
        let sent = self.stream.write_all(self.buffer.as_bytes());
        self.buffer.clear();
        self.failed = sent.err();
    }

    /// Send the rest of the line.
    fn finish(mut self) -> io::Result<()> {
        if self.failed.is_none() {
            self.drain();
        }
        self.failed.map_or(Ok(()), Err)
    }
}

impl<W: Write> JsonOut for Streamed<'_, W> {
    fn push_str(&mut self, s: &str) {
        if self.failed.is_none() && self.buffer.len() + s.len() > STREAM_BUFFER {
            self.drain();
        }
        if self.failed.is_some() {
            return;
        }
        if s.len() > STREAM_BUFFER {
            self.failed = self.stream.write_all(s.as_bytes()).err();
        } else {
            self.buffer.push_str(s);
        }
    }
}

#[cfg(test)]
mod tests;
