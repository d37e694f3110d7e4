//! The in-tree `serde_json` parser is total and linear: every byte that
//! enters the system — wire, WAL, snapshot, trace, outcome — goes through
//! it, so arbitrary input must come back `Ok` or `Err`, never a panic and
//! never unbounded recursion; nesting is capped at 128; and a document of
//! many strings decodes in time proportional to its length.

mod daemon_util;

use daemon_util::{adhoc_line, loopback, ok, session_config};
use flowtime_daemon::{SnapshotBody, WalRecord};
use flowtime_dag::{JobSpec, ResourceVec};
use flowtime_sim::{AdhocSubmission, ClusterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Real documents of every kind the daemon parses: the request lines of
/// the golden session, a WAL record and a snapshot body of a live
/// session, and the golden outcome.
fn corpus() -> Vec<String> {
    let mut docs: Vec<String> = golden("daemon_session.jsonl")
        .lines()
        .map(|line| {
            let exchange = serde_json::parse(line).expect("golden transcript parses");
            let send = exchange.get("send").and_then(serde_json::Value::as_str);
            send.expect("every exchange has a `send`").to_string()
        })
        .collect();
    let cluster = ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0);
    let mut lb = loopback(cluster.clone(), "edf");
    let job = JobSpec::new(
        "naïve \"quoted\" \\ job\n",
        2,
        1,
        ResourceVec::new([1, 1024]),
    );
    ok(&mut lb, &adhoc_line(&AdhocSubmission::new(job, 0)));
    let session = lb.session();
    let record = WalRecord::Entry {
        entry: session.log().entries[0].clone(),
        request_id: Some("key-1".into()),
    };
    docs.push(serde_json::to_string(&record).expect("record serializes"));
    let body = SnapshotBody {
        config: session_config(cluster, "edf", 0),
        log: session.log().clone(),
        now: session.now(),
        next_seq: 1,
        wal_segment: 2,
        request_ids: [("key-1".to_string(), 0)].into_iter().collect(),
    };
    docs.push(serde_json::to_string(&body).expect("body serializes"));
    docs.push(golden("outcome.json"));
    docs
}

/// One seeded mutation: byte flips, a truncation, scattered insertions of
/// the structural bytes `[ { " \`, or one run of up to 2^17 of them.
fn mutate(doc: &str, rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"[{\"\\]}:,0-9.eEtfn u\x00\x7f\xc3\xa9";
    let mut bytes = doc.as_bytes().to_vec();
    const STRUCTURAL: &[u8] = b"[{\"\\";
    match rng.gen_range(0..4) {
        0 => {
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => {
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(0..=bytes.len());
                bytes.insert(at, STRUCTURAL[rng.gen_range(0..4usize)]);
            }
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let run =
                vec![STRUCTURAL[rng.gen_range(0..4usize)]; 1usize << rng.gen_range(0..=17u32)];
            bytes.splice(at..at, run);
        }
    }
    bytes
}

#[test]
fn mutated_documents_parse_or_fail_but_never_panic() {
    let docs = corpus();
    let (outcome, small) = docs.split_last().expect("corpus is not empty");
    let mut rng = StdRng::seed_from_u64(0x6a73_6f6e);
    let (mut parsed, mut refused, mut not_utf8) = (0u32, 0u32, 0u32);
    let mut check = |bytes: Vec<u8>| {
        // Input reaches the parser as `&str`; a mutation that broke the
        // UTF-8 is refused one layer up, where the wire is decoded — typed,
        // at the first bad byte, never repaired.
        let text = match flowtime_daemon::protocol::decode_line(&bytes) {
            Ok(text) => text,
            Err(e) => {
                let at = std::str::from_utf8(&bytes)
                    .expect_err("refused")
                    .valid_up_to();
                assert_eq!(e.code, flowtime_daemon::codes::MALFORMED_JSON);
                assert_eq!(e.detail, format!("request line is not UTF-8 at byte {at}"));
                not_utf8 += 1;
                return;
            }
        };
        match serde_json::parse(text) {
            // What parses is emitted as a document that parses back to
            // the same bytes.
            Ok(value) => {
                let emitted = serde_json::to_string(&value).expect("values serialize");
                let reparsed = serde_json::parse(&emitted).expect("emitted JSON parses");
                assert_eq!(serde_json::to_string(&reparsed).ok(), Some(emitted));
                parsed += 1;
            }
            Err(_) => refused += 1,
        }
    };
    for _ in 0..20_000 {
        let doc = &small[rng.gen_range(0..small.len())];
        check(mutate(doc, &mut rng));
    }
    // The 77 KB outcome document: fewer cases, same mutations.
    for _ in 0..100 {
        check(mutate(outcome, &mut rng));
    }
    assert!(
        parsed > 500 && refused + not_utf8 > 5_000 && not_utf8 > 100,
        "{parsed} ok / {refused} err / {not_utf8} not UTF-8"
    );
}

#[test]
fn nesting_is_capped_at_128_levels() {
    for (open, leaf, close) in [("[", "", "]"), ("{\"a\":", "1", "}")] {
        let nested = |depth: usize| format!("{}{leaf}{}", open.repeat(depth), close.repeat(depth));
        for depth in [1, 127, 128] {
            assert!(
                serde_json::parse(&nested(depth)).is_ok(),
                "{open} x {depth}"
            );
        }
        for depth in [129, 100_000] {
            for doc in [nested(depth), open.repeat(depth)] {
                let e = serde_json::parse(&doc).expect_err("past the depth cap");
                // The 129th opener's bracket.
                let at = 128 * open.len();
                assert_eq!(
                    e.to_string(),
                    format!("recursion limit exceeded at byte {at}"),
                    "{open} x {depth}"
                );
            }
        }
    }
    // The cap counts nesting, not containers: a long flat array is fine.
    assert!(serde_json::parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
}

/// A number no `f64` can hold is refused at the byte it starts on. It
/// used to decode to an infinity, which has no JSON spelling and was
/// re-emitted as `null` — the one silent value change the mutation loop
/// above turned up.
#[test]
fn numbers_past_f64_are_refused_not_nulled() {
    let digits = "9".repeat(400);
    for (doc, at) in [
        ("1e999".to_string(), 0),
        ("[0, -1e999]".to_string(), 4),
        (format!("{{\"a\":{digits}}}"), 5),
    ] {
        let e = serde_json::parse(&doc).expect_err("out of range");
        assert_eq!(
            e.to_string(),
            format!("number out of range at byte {at}"),
            "{doc}"
        );
    }
    // The edges of the range still parse: the largest finite double, an
    // integer one past `u64::MAX`, and an underflow to zero.
    for doc in ["1.7976931348623157e308", "18446744073709551616", "1e-999"] {
        let value = serde_json::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert!(matches!(value, serde_json::Value::F64(x) if x.is_finite()));
    }
}

#[test]
fn goldens_round_trip_byte_identically() {
    for name in [
        "outcome.json",
        "shard_report.json",
        "sweep_report.json",
        "telemetry.json",
    ] {
        let text = golden(name);
        let value = serde_json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            serde_json::to_string_pretty(&value).unwrap(),
            text.trim_end_matches('\n'),
            "{name}"
        );
    }
    for name in [
        "explain_report.json",
        "whatif_diff.json",
        "daemon_session.jsonl",
        "decision_trace.jsonl",
    ] {
        for (i, line) in golden(name).lines().enumerate() {
            let value = serde_json::parse(line).unwrap_or_else(|e| panic!("{name}:{i}: {e}"));
            assert_eq!(serde_json::to_string(&value).unwrap(), line, "{name}:{i}");
        }
    }
}

/// Escapes and multi-byte characters decode exactly as before the string
/// fast path: runs are copied whole, escapes one at a time.
#[test]
fn strings_decode_escapes_and_multibyte_runs() {
    let parsed = serde_json::parse(r#"["", "plain", "éé\"\\\/\n\tx", "日本語", "aA"]"#);
    let strings: Vec<String> = match parsed.expect("valid document") {
        serde_json::Value::Seq(items) => items
            .iter()
            .map(|v| v.as_str().expect("strings").to_string())
            .collect(),
        other => panic!("{other:?}"),
    };
    assert_eq!(strings, ["", "plain", "éé\"\\/\n\tx", "日本語", "aA"]);
    for bad in [r#""abc"#, r#""a\"#, r#""\q""#, r#""\u12"#, r#""\ud800""#] {
        assert!(serde_json::parse(bad).is_err(), "{bad}");
    }
    // Raw control characters inside a string stay accepted.
    assert!(serde_json::parse("\"a\tb\"").is_ok());
}

/// Decode time is linear in document length: the parser used to
/// re-validate the whole rest of the input for every character of every
/// string, which made 256 KiB of short strings 18x slower per byte than
/// 16 KiB. A wall-clock ratio, so the fastest of seven parses per size and
/// the best of three attempts: a busy host can slow a sample down, never
/// make a quadratic parser look linear.
#[test]
fn string_decoding_is_linear_in_document_length() {
    let ns_per_byte = |bytes: usize| {
        let doc = format!("[{}\"end\"]", "\"abcdefgh\",".repeat(bytes / 11));
        (0..7)
            .map(|_| {
                let t0 = Instant::now();
                let value = serde_json::parse(&doc).expect("valid document");
                let elapsed = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(value);
                elapsed / doc.len() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let ratios: Vec<f64> = (0..3)
        .map(|_| ns_per_byte(256 << 10) / ns_per_byte(16 << 10))
        .collect();
    assert!(
        ratios.iter().any(|&r| r < 3.0),
        "256 KiB decodes {ratios:.1?}x slower per byte than 16 KiB"
    );
}
