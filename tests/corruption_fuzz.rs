//! Corruption fuzzing: arbitrary bytes thrown at every recovery entry
//! point — and at the serve socket's request parser — must produce a clean
//! error (or a clean no-op), never a panic and never an out-of-bounds
//! rollback.
//!
//! These are seeded-PRNG fuzz loops, so failures replay exactly;
//! `tests/proptests.rs` carries the same properties over generated inputs.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use ntadoc_grammar::serialize::ImageError;
use ntadoc_pmem::json::MAX_DEPTH;
use ntadoc_repro::{
    compress_corpus, deserialize_compressed, for_each_case, serialize_compressed, DaemonConfig,
    DeviceProfile, Engine, EngineConfig, Json, PmemError, Prng, QueryDaemon, SimDevice, Task,
    TokenizerConfig, TxLog, WireServer,
};

const LOG_AT: u64 = 4096;
const LOG_CAP: usize = 4096;

fn small_corpus() -> ntadoc_grammar::Compressed {
    let files = vec![
        ("a".to_string(), "lorem ipsum dolor sit amet lorem ipsum".repeat(10)),
        ("b".to_string(), "dolor sit amet consectetur".repeat(10)),
    ];
    compress_corpus(&files, &TokenizerConfig::default())
}

/// Fill `[LOG_AT, LOG_AT + LOG_CAP)` with seeded garbage.
fn scribble_log(dev: &SimDevice, rng: &mut Prng) {
    let mut garbage = vec![0u8; LOG_CAP];
    for chunk in garbage.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&word[..n]);
    }
    dev.write_bytes(LOG_AT, &garbage);
}

#[test]
fn garbage_in_the_log_region_never_panics_recovery() {
    for seed in 0..64u64 {
        let mut rng = Prng::new(seed);
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
        scribble_log(&dev, &mut rng);
        let mut log = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        // Recovery over garbage must be a clean verdict: either "nothing
        // to do" / rolled-back, or a typed corruption error.
        match log.recover() {
            Ok(_) => {}
            Err(PmemError::CorruptImage(_)) | Err(PmemError::MediaError { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected error class {e}"),
        }
        // After recovery (whatever the verdict) the log must be usable.
        log.begin().unwrap();
        log.log_range(0, 64).unwrap();
        log.commit().unwrap();
    }
}

#[test]
fn garbage_after_a_real_entry_truncates_not_corrupts() {
    // A valid sealed entry followed by garbage models a crash mid-append:
    // recovery must roll back the valid prefix and stop at the garbage.
    for seed in 0..32u64 {
        let mut rng = Prng::new(seed.wrapping_mul(0x9E37_79B9));
        let dev = Arc::new(SimDevice::new(DeviceProfile::nvm_optane(), 1 << 16));
        dev.write_u64(128, 0xAAAA_BBBB_CCCC_DDDD);
        dev.persist(128, 8);

        let mut log = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        log.begin().unwrap();
        log.log_range(128, 8).unwrap();
        // Mutate the data the entry covers, then scribble over the tail of
        // the log region (everything past the first entry) and "crash".
        dev.write_u64(128, 0x1111_2222_3333_4444);
        let tail = LOG_AT + 256;
        let mut garbage = vec![0u8; (LOG_AT + LOG_CAP as u64 - tail) as usize];
        for chunk in garbage.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        dev.write_bytes(tail, &garbage);

        let mut log2 = TxLog::new(dev.clone(), LOG_AT, LOG_CAP);
        let rolled_back = log2.recover().unwrap();
        assert!(rolled_back, "seed {seed}: the valid entry must roll back");
        assert_eq!(dev.read_u64(128), 0xAAAA_BBBB_CCCC_DDDD, "seed {seed}");
    }
}

#[test]
fn mutated_serialized_images_never_panic_deserialization() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();
    assert!(deserialize_compressed(&clean).is_ok());

    for seed in 0..128u64 {
        let mut rng = Prng::new(seed);
        let mut image = clean.clone();
        // Mutate 1..16 random bytes.
        let flips = 1 + rng.next_below(16) as usize;
        for _ in 0..flips {
            let at = rng.next_below(image.len() as u64) as usize;
            image[at] ^= (rng.next_u64() & 0xFF) as u8 | 1;
        }
        // Must return Ok (mutation missed live bytes — impossible here
        // since everything is covered by the checksum, but harmless) or a
        // typed ImageError; the point is: no panic, no abort.
        let _ = deserialize_compressed(&image);
    }
}

#[test]
fn truncated_and_garbage_images_never_panic_deserialization() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();
    for cut in 0..clean.len().min(64) {
        let _ = deserialize_compressed(&clean[..cut]);
    }
    for seed in 0..64u64 {
        let mut rng = Prng::new(!seed);
        let len = rng.next_below(512) as usize;
        let mut garbage = vec![0u8; len];
        for b in garbage.iter_mut() {
            *b = (rng.next_u64() & 0xFF) as u8;
        }
        let _ = deserialize_compressed(&garbage);
    }
}

/// A well-sealed image is not yet a grammar: `R0 → R1 c R1`, `R1 → a b`
/// plus a dead `R2 → R1 d` passes the checksum, and before `validate`
/// rejected unreachable rules every engine counted `{c: 1}` from it — the
/// top-down Kahn walk never drains `R1`, whose in-degree counts the dead
/// reference. The same goes for a sealed cycle or dangling reference.
#[test]
fn sealed_images_of_invalid_grammars_are_rejected_with_a_typed_error() {
    use ntadoc_repro::{Dictionary, Grammar, Symbol};
    let words = || Dictionary::from_words(["a", "b", "c", "d"].map(String::from).to_vec());
    let rule = |symbols: Vec<Symbol>| ntadoc_grammar::Rule { symbols };
    let live = vec![
        rule(vec![Symbol::rule(1), Symbol::word(2), Symbol::rule(1)]),
        rule(vec![Symbol::word(0), Symbol::word(1)]),
    ];
    let seal = |rules: Vec<ntadoc_grammar::Rule>| {
        let comp = ntadoc_grammar::Compressed {
            grammar: Grammar::new(rules),
            dict: words(),
            file_names: vec!["f".to_string()],
        };
        serialize_compressed(&comp).unwrap()
    };
    assert!(deserialize_compressed(&seal(live.clone())).is_ok());

    let mut dead = live.clone();
    dead.push(rule(vec![Symbol::rule(1), Symbol::word(3)]));
    let mut cyclic = live.clone();
    cyclic[1].symbols.push(Symbol::rule(0));
    // Every build writes the root's k-th file separator with payload k.
    let separated = |payload| {
        let mut rules = live.clone();
        rules[0].symbols.insert(1, Symbol::file_sep(payload));
        rules
    };
    assert!(deserialize_compressed(&seal(separated(0))).is_ok());
    let misnumbered = separated(1);
    let mut dangling = live;
    dangling[1].symbols.push(Symbol::rule(9));
    let cases = [
        ("unreachable", dead),
        ("cycle", cyclic),
        ("nonexistent", dangling),
        ("file separator 0 of the root carries payload 1", misnumbered),
    ];
    for (what, rules) in cases {
        let image = seal(rules);
        let err = deserialize_compressed(&image).unwrap_err();
        assert!(
            matches!(err, ImageError::BadGrammar(_)) && err.to_string().contains(what),
            "{what}: {err}"
        );
    }
}

#[test]
fn engine_rejects_corrupt_images_with_a_typed_error() {
    let comp = small_corpus();
    let clean = serialize_compressed(&comp).unwrap();

    // The pristine image round-trips into a working engine.
    let back = deserialize_compressed(&clean).unwrap();
    let mut engine = Engine::builder(back).config(EngineConfig::ntadoc()).build().unwrap();
    let mut ref_engine =
        Engine::builder(comp.clone()).config(EngineConfig::ntadoc()).build().unwrap();
    assert_eq!(engine.run(Task::WordCount).unwrap(), ref_engine.run(Task::WordCount).unwrap());

    // Any payload bit flip must be caught by the checksum before an
    // engine can be built over the contents.
    let mut rng = Prng::new(2024);
    for _ in 0..32 {
        let mut image = clean.clone();
        let at = 24 + rng.next_below((image.len() - 24) as u64) as usize;
        image[at] ^= 0x40;
        match deserialize_compressed(&image) {
            Err(ImageError::BadChecksum) => {}
            Err(e) => panic!("flip at {at}: wrong error class {e}"),
            Ok(_) => panic!("flip at {at}: corrupt image accepted"),
        }
    }
}

// ---- hostile request lines ----------------------------------------------

/// Request lines the daemon serves as they stand; the hostile ones are
/// made from these.
const VALID_LINES: [&str; 6] = [
    r#"{"op":"query","task":"wordcount"}"#,
    r#"{"op":"query","task":"sort","tenant":3,"top":5}"#,
    r#"{"op":"query","task":"invertedindex","file":"a","tenant":4294967295}"#,
    r#"{"op":"query","task":"termvector","top":0,"file":"caf\u00e9 \"b\"\\"}"#,
    r#" { "op" : "stats" , "ignored" : [ 1 , -2.5e1 , null , { "k" : true } ] } "#,
    r#"{"op":"stats"}"#,
];

/// One request line's bytes, printed as a byte string when a case fails.
struct Line(Vec<u8>);

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.0.escape_ascii())
    }
}

/// `depth` containers around a `1`, arrays and objects by the bits of
/// `shape`; left open when `closed` is false.
fn nested(depth: usize, shape: u64, closed: bool) -> Vec<u8> {
    let is_array = |level: usize| shape >> (level % 64) & 1 == 0;
    let mut doc = Vec::new();
    for level in 0..depth {
        doc.extend_from_slice(if is_array(level) { b"[" } else { b"{\"k\":" });
    }
    doc.push(b'1');
    if closed {
        doc.extend((0..depth).rev().map(|level| if is_array(level) { b']' } else { b'}' }));
    }
    doc
}

fn one_of<'a>(rng: &mut Prng, items: &[&'a str]) -> &'a str {
    items[rng.next_below(items.len() as u64) as usize]
}

/// A line no well-behaved client sends. Never holds a newline: one case
/// is one line.
fn hostile_line(rng: &mut Prng) -> Line {
    let pick = |rng: &mut Prng| one_of(rng, &VALID_LINES).as_bytes().to_vec();
    let member = |value: &str| format!(r#"{{"op":"query","task":"sort","top":{value}}}"#);
    let mut line = match rng.next_below(9) {
        // Byte flips.
        0 => {
            let mut line = pick(rng);
            for _ in 0..rng.range(1, 4) {
                let at = rng.next_below(line.len() as u64) as usize;
                line[at] ^= 1 << rng.next_below(8);
            }
            line
        }
        // Truncations.
        1 => {
            let mut line = pick(rng);
            line.truncate(rng.next_below(line.len() as u64) as usize);
            line
        }
        // Splices: the head of one line on the tail of another.
        2 => {
            let (mut head, tail) = (pick(rng), pick(rng));
            head.truncate(rng.next_below(head.len() as u64 + 1) as usize);
            head.extend_from_slice(&tail[rng.next_below(tail.len() as u64 + 1) as usize..]);
            head
        }
        // Random bytes.
        3 => (0..rng.next_below(200)).map(|_| rng.next_u64() as u8).collect(),
        // Strings and escapes that do not end, or are not escapes.
        4 => {
            let tails =
                ["\"abc", "\"abc\\", "\"\\u12", "\"\\u12G4\"", "\"\\x41\"", "\"a\tb\"", "\"\\"];
            member(one_of(rng, &tails)).into_bytes()
        }
        // Lone and reversed surrogates, in a value and in a key.
        5 => {
            let pairs =
                ["\\ud800", "\\udc00", "\\udc00\\ud800", "\\ud83d", "\\ud800x", "\\uDBFF\\uDFFF"];
            let s = one_of(rng, &pairs);
            format!(r#"{{"op":"query","task":"wordcount","file":"{s}","{s}":1}}"#).into_bytes()
        }
        // Numbers wider than any integer type, and what is not a number.
        6 => {
            let numbers = [
                "99999999999999999999",
                "18446744073709551616",
                "18446744073709551615",
                "-1",
                "1e999",
                "-1e999",
                "1e-999",
                "0.5",
                "-",
                "1e",
                "--1",
                "00000000000000000000",
            ];
            member(one_of(rng, &numbers)).into_bytes()
        }
        // Nesting at and around the bound, closed and left open.
        7 => {
            let depth = MAX_DEPTH - 2 + rng.next_below(5) as usize;
            nested(depth, rng.next_u64(), rng.chance(0.5))
        }
        // Nesting as deep as a request line has room for.
        _ => nested(9_000 + rng.next_below(1_000) as usize, rng.next_u64(), false),
    };
    for byte in &mut line {
        if *byte == b'\n' {
            *byte = b' ';
        }
    }
    Line(line)
}

/// One connection over a socketpair: send `line` and a `stats` request,
/// return every reply line.
fn exchange(server: &mut WireServer, line: &[u8]) -> Vec<String> {
    let (ours, mut theirs) = UnixStream::pair().unwrap();
    let mut sends = line.to_vec();
    sends.extend_from_slice(b"\n{\"op\":\"stats\"}\n");
    let client = std::thread::spawn(move || {
        theirs.write_all(&sends).unwrap();
        theirs.shutdown(std::net::Shutdown::Write).unwrap();
        let mut replies = String::new();
        theirs.read_to_string(&mut replies).unwrap();
        replies
    });
    let shutdown = server.serve_connection(&ours).unwrap();
    assert!(!shutdown, "no hostile line is a shutdown request");
    drop(ours); // the client's end of stream
    client.join().unwrap().lines().map(str::to_string).collect()
}

fn ok_member(reply: &str) -> bool {
    let tree = Json::parse(reply).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}"));
    tree.get("ok").and_then(Json::as_bool).unwrap_or_else(|| panic!("reply without `ok`: {reply}"))
}

#[test]
fn hostile_request_lines_get_one_well_formed_reply_each_and_the_server_lives() {
    let engine = Engine::builder(small_corpus()).config(EngineConfig::ntadoc()).build().unwrap();
    let mut server =
        WireServer::new(QueryDaemon::new(engine.serve().unwrap(), DaemonConfig::default()));
    let mut kinds = std::collections::BTreeMap::new();
    for_each_case("hostile_request_lines", 0x4057_11E5, 2048, hostile_line, |Line(line)| {
        // Through the parser: an error inside the line, or a tree that
        // survives its own encoding.
        let text = std::str::from_utf8(line);
        if let Ok(text) = text {
            match Json::parse(text) {
                Err(e) => assert!(e.at <= text.len() && !e.msg.is_empty(), "{e}"),
                Ok(tree) => assert_eq!(Json::parse(&tree.compact()).as_ref(), Ok(&tree)),
            }
        }
        // Through the server: a blank line is skipped, any other gets
        // exactly one reply, and the `stats` request behind it is served.
        let replies = exchange(&mut server, line);
        let blank = text.is_ok_and(|t| t.trim().is_empty());
        assert_eq!(replies.len(), if blank { 1 } else { 2 }, "{replies:?}");
        assert!(ok_member(replies.last().unwrap()), "stats refused: {replies:?}");
        if !blank {
            let served = ok_member(&replies[0]);
            *kinds.entry(served).or_insert(0u32) += 1;
        }
    });
    // Most lines are refused; the few that mutation left valid are served.
    assert!(kinds[&false] > 1500 && kinds[&true] > 0, "{kinds:?}");

    // The line that used to end the process, then a query with its answer.
    let replies = exchange(&mut server, &[b'['; 60_000]);
    assert!(!ok_member(&replies[0]) && replies[0].contains("bad_request"), "{}", replies[0]);
    assert!(replies[0].contains("nesting deeper than 128 levels"), "{}", replies[0]);
    assert!(ok_member(&replies[1]));
    let replies = exchange(&mut server, VALID_LINES[0].as_bytes());
    let counts = Json::parse(&replies[0]).unwrap();
    let sit = counts.get("output").and_then(|o| o.get("sit")).and_then(Json::as_u64);
    assert_eq!(sit, Some(20), "{}", replies[0]);
}
