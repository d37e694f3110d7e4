//! Protocol bad-path tests: malformed JSON, unknown requests, oversized
//! payloads, lifecycle violations, and — over a real TCP socket —
//! mid-request disconnects and mid-stream line-cap enforcement. Every
//! failure is a typed error from the closed code catalogue; the daemon
//! never panics and never tears down the session over one bad client.

mod daemon_util;

use daemon_util::{adhoc_line, err_code, loopback, ok};
use flowtime_daemon::{codes, serve, Session, SessionConfig, MAX_LINE_BYTES};
use flowtime_dag::{JobSpec, ResourceVec};
use flowtime_sim::{AdhocSubmission, ClusterConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0)
}

fn adhoc(arrival: u64) -> AdhocSubmission {
    AdhocSubmission::new(
        JobSpec::new("a", 2, 1, ResourceVec::new([1, 1024])),
        arrival,
    )
}

#[test]
fn malformed_and_unknown_requests_are_typed_errors() {
    let mut lb = loopback(cluster(), "edf");
    err_code(&mut lb, "{oops", codes::MALFORMED_JSON);
    err_code(&mut lb, "null", codes::BAD_REQUEST);
    err_code(&mut lb, "{\"req\":\"frobnicate\"}", codes::UNKNOWN_REQUEST);
    err_code(&mut lb, "{\"req\":\"tick\"}", codes::BAD_REQUEST);
    err_code(
        &mut lb,
        "{\"req\":\"tick\",\"to\":\"soon\"}",
        codes::BAD_REQUEST,
    );
    err_code(
        &mut lb,
        "{\"req\":\"cancel\",\"sub\":-1}",
        codes::BAD_REQUEST,
    );
    err_code(&mut lb, "{\"req\":\"submit_adhoc\"}", codes::BAD_REQUEST);
    err_code(
        &mut lb,
        "{\"req\":\"submit_adhoc\",\"submission\":{\"bogus\":1}}",
        codes::MALFORMED_SUBMISSION,
    );
    let oversized = format!(
        "{{\"req\":\"status\",\"pad\":\"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    err_code(&mut lb, &oversized, codes::OVERSIZED_PAYLOAD);
    // The session survives all of it.
    ok(&mut lb, "{\"req\":\"status\"}");
}

/// Each malformed submission is a typed `malformed-submission` refusal
/// that logs nothing, over loopback and over TCP with a WAL, and the
/// session still drains after it.
#[test]
fn malformed_submissions_are_refused_typed_and_logged_nowhere() {
    for line in daemon_util::malformed_submissions() {
        let mut lb = loopback(cluster(), "edf");
        err_code(&mut lb, line, codes::MALFORMED_SUBMISSION);
        assert_eq!(lb.session().log().len(), 0, "{line}");
        ok(&mut lb, &adhoc_line(&adhoc(0)));
        ok(&mut lb, "{\"req\":\"drain\"}");

        let dir = daemon_util::wal_dir("tcp-malformed");
        let (addr, handle) = spawn_tcp_wal("edf", &dir);
        let mut s = TcpStream::connect(addr).expect("connect");
        let r = request(&mut s, line);
        assert!(r.contains(codes::MALFORMED_SUBMISSION), "{line}: {r}");
        let r = request(&mut s, "{\"req\":\"status\"}");
        assert_eq!(reply_u64(&r, &["ok", "logged"]), 0, "{r}");
        assert_eq!(
            reply_u64(&r, &["ok", "wal", "records"]),
            1,
            "genesis only: {r}"
        );
        let r = request(&mut s, "{\"req\":\"drain\"}");
        assert!(r.starts_with("{\"ok\":"), "{line}: {r}");
        let r = request(&mut s, "{\"req\":\"shutdown\"}");
        assert!(r.starts_with("{\"ok\":"), "{r}");
        assert_eq!(handle.join().expect("server thread"), (true, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn lifecycle_violations_are_typed_errors() {
    let mut lb = loopback(cluster(), "edf");
    // Unknown scheduler is rejected at session construction.
    assert!(Session::new(SessionConfig {
        cluster: cluster(),
        scheduler: "quantum-annealer".to_string(),
        max_slots: 100,
        trace_capacity: 64,
        snapshot_path: None,
        pods: 0,
        placer: None,
    })
    .is_err());

    err_code(&mut lb, "{\"req\":\"outcome\"}", codes::NOT_DRAINED);
    err_code(&mut lb, "{\"req\":\"explain\"}", codes::NOT_DRAINED);
    err_code(
        &mut lb,
        "{\"req\":\"cancel\",\"sub\":7}",
        codes::UNKNOWN_SUBMISSION,
    );
    err_code(
        &mut lb,
        "{\"req\":\"query\",\"sub\":7}",
        codes::UNKNOWN_SUBMISSION,
    );
    err_code(&mut lb, "{\"req\":\"snapshot\"}", codes::SNAPSHOT_IO);

    ok(&mut lb, &adhoc_line(&adhoc(0)));
    // The job finishes at slot 1 and the session parks there (the batch
    // run would have ended); ticking further is a no-op, not an error.
    let tick = ok(&mut lb, "{\"req\":\"tick\",\"to\":3}");
    assert!(
        tick.contains("\"now\":1"),
        "session should park at 1: {tick}"
    );
    // Submitting into already-simulated virtual time.
    err_code(&mut lb, &adhoc_line(&adhoc(0)), codes::LATE_ARRIVAL);
    // Cancelling a submission that already materialized.
    err_code(
        &mut lb,
        "{\"req\":\"cancel\",\"sub\":0}",
        codes::CANCEL_TOO_LATE,
    );

    // Cancel a pending future submission — then cancelling again is too
    // late (idempotence is not silent success).
    ok(&mut lb, &adhoc_line(&adhoc(50)));
    ok(&mut lb, "{\"req\":\"cancel\",\"sub\":1}");
    err_code(
        &mut lb,
        "{\"req\":\"cancel\",\"sub\":1}",
        codes::CANCEL_TOO_LATE,
    );

    ok(&mut lb, "{\"req\":\"drain\"}");
    // Drained sessions reject all mutation but keep serving reads.
    err_code(&mut lb, &adhoc_line(&adhoc(99)), codes::ALREADY_DRAINED);
    err_code(
        &mut lb,
        "{\"req\":\"tick\",\"to\":99}",
        codes::ALREADY_DRAINED,
    );
    err_code(
        &mut lb,
        "{\"req\":\"cancel\",\"sub\":0}",
        codes::ALREADY_DRAINED,
    );
    ok(&mut lb, "{\"req\":\"status\"}");
    ok(&mut lb, "{\"req\":\"trace\",\"limit\":4}");
    ok(&mut lb, "{\"req\":\"outcome\"}");
    // The drained artifacts re-certify and self-explain: the report body
    // deserializes as the sim crate's typed ExplainReport.
    let response = ok(&mut lb, "{\"req\":\"explain\"}");
    let value = serde_json::parse(&response).expect("explain response is JSON");
    let body = value
        .get("ok")
        .and_then(|o| o.get("explain"))
        .expect("explain body");
    let report: flowtime_sim::ExplainReport =
        serde_json::from_value(body).expect("explain report deserializes");
    assert!(report.events_checked > 0);
    // Drain is idempotent.
    ok(&mut lb, "{\"req\":\"drain\"}");
}

#[test]
fn explain_rejects_sharded_sessions_typed() {
    let mut lb = daemon_util::loopback_sharded(cluster(), "edf", 2);
    ok(&mut lb, &adhoc_line(&adhoc(0)));
    ok(&mut lb, "{\"req\":\"drain\"}");
    // A sharded session has no in-place log-replay certifier; the typed
    // error points at the offline per-pod trace path.
    err_code(&mut lb, "{\"req\":\"explain\"}", codes::BAD_REQUEST);
}

#[test]
fn horizon_exhaustion_is_a_typed_error() {
    let mut lb = loopback(cluster(), "edf");
    // A session with a tiny horizon cannot tick past it.
    let mut tiny = flowtime_daemon::Loopback::new(
        Session::new(SessionConfig {
            cluster: cluster(),
            scheduler: "edf".to_string(),
            max_slots: 5,
            trace_capacity: 64,
            snapshot_path: None,
            pods: 0,
            placer: None,
        })
        .expect("valid config"),
    );
    // A job needing 10 slots cannot finish inside a 5-slot horizon.
    let long_job =
        AdhocSubmission::new(JobSpec::new("long", 1, 10, ResourceVec::new([1, 1024])), 0);
    ok(&mut tiny, &adhoc_line(&long_job));
    // Park-aware: ticking an *empty* session is fine (it parks at 0).
    ok(&mut lb, "{\"req\":\"tick\",\"to\":1000}");
    err_code(
        &mut tiny,
        "{\"req\":\"tick\",\"to\":50}",
        codes::HORIZON_EXHAUSTED,
    );
}

/// The committed protocol transcript: a scripted session covering
/// submission, cancellation, queries, trace tails, drain, and the
/// embedded outcome, pinned request-by-request. Any change to the wire
/// format, the error catalogue, or the engine's serialized outcome shows
/// up as a diff here. Regenerate after an intentional change with
/// `GOLDEN_REGEN=1 cargo test --test daemon_protocol golden` (see
/// EXPERIMENTS.md).
#[test]
fn golden_session_transcript() {
    use flowtime_dag::{WorkflowBuilder, WorkflowId};
    use flowtime_sim::WorkflowSubmission;

    let mut b = WorkflowBuilder::new(WorkflowId::new(1), "golden");
    let a = b.add_job(JobSpec::new("a", 4, 2, ResourceVec::new([1, 1024])));
    let c = b.add_job(JobSpec::new("c", 2, 2, ResourceVec::new([1, 1024])));
    b.add_dep(a, c).expect("two nodes");
    let wf = WorkflowSubmission::new(b.window(0, 24).build().expect("valid window"));

    let script = vec![
        format!(
            "{{\"req\":\"submit_workflow\",\"submission\":{}}}",
            serde_json::to_string(&wf).expect("workflow serializes")
        ),
        adhoc_line(&adhoc(0)),
        adhoc_line(&adhoc(6)),
        adhoc_line(&adhoc(9)),
        "{\"req\":\"cancel\",\"sub\":3}".to_string(),
        "{\"req\":\"cancel\",\"sub\":3}".to_string(),
        "{\"req\":\"query\",\"sub\":0}".to_string(),
        "{\"req\":\"tick\",\"to\":4}".to_string(),
        "{\"req\":\"query\",\"sub\":0}".to_string(),
        "{\"req\":\"status\"}".to_string(),
        "{\"req\":\"trace\",\"limit\":5}".to_string(),
        "{\"req\":\"outcome\"}".to_string(),
        "{\"req\":\"drain\"}".to_string(),
        "{\"req\":\"outcome\"}".to_string(),
        "{\"req\":\"status\"}".to_string(),
    ];

    let mut lb = loopback(cluster(), "flowtime");
    let mut transcript = String::new();
    for line in &script {
        let response = lb.request_line(line);
        transcript.push_str(&format!(
            "{{\"send\":{},\"recv\":{}}}\n",
            serde_json::to_string(line).expect("request escapes"),
            serde_json::to_string(&response).expect("response escapes")
        ));
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/daemon_session.jsonl");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &transcript).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        transcript, golden,
        "daemon protocol transcript diverged from tests/golden/daemon_session.jsonl; \
         if the change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Spawns a real TCP daemon; returns the address and its thread handle.
fn spawn_tcp(scheduler: &str) -> (std::net::SocketAddr, std::thread::JoinHandle<(bool, usize)>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let scheduler = scheduler.to_string();
    // Schedulers are not `Send`, so the session is built inside the
    // server thread; the thread reports (drained, log length) facts back.
    let handle = std::thread::spawn(move || {
        let session = Session::new(SessionConfig {
            cluster: cluster(),
            scheduler,
            max_slots: 1_000_000,
            trace_capacity: 1 << 12,
            snapshot_path: None,
            pods: 0,
            placer: None,
        })
        .expect("valid config");
        let session = serve(listener, session, None).expect("server runs");
        (session.drained(), session.log().len())
    });
    (addr, handle)
}

fn request(stream: &mut TcpStream, line: &str) -> String {
    // One segment: a newline sent on its own waits behind Nagle for the
    // ACK of the line, 40 ms a request.
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response.trim_end().to_string()
}

#[test]
fn tcp_survives_mid_request_disconnects_and_oversized_streams() {
    let (addr, handle) = spawn_tcp("fifo");

    // Client 1 sends half a request and vanishes.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"{\"req\":\"submit_adhoc\",\"submi")
            .expect("partial write");
        // Dropped here: mid-request disconnect.
    }

    // Client 2 streams an unbounded line: the daemon cuts it off with a
    // typed error at the cap instead of buffering forever.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let chunk = [b'x'; 8192];
        let mut sent = 0usize;
        let response = loop {
            match s.write_all(&chunk) {
                Ok(()) => {
                    sent += chunk.len();
                    assert!(sent < 4 * MAX_LINE_BYTES, "daemon never enforced the cap");
                }
                // The daemon closed on us — read whatever it said first.
                Err(_) => break None,
            }
            if sent > MAX_LINE_BYTES + 8192 {
                break Some(());
            }
        };
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() && !line.is_empty() {
            assert!(
                line.contains(codes::OVERSIZED_PAYLOAD),
                "expected oversized-payload, got: {line}"
            );
        }
        let _ = response;
    }

    // Client 3 still gets clean service after both abuses.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let r = request(&mut s, &adhoc_line(&adhoc(0)));
        assert!(r.starts_with("{\"ok\":"), "submit over TCP failed: {r}");
        let r = request(&mut s, "{\"req\":\"drain\"}");
        assert!(r.starts_with("{\"ok\":"), "drain over TCP failed: {r}");
        let r = request(&mut s, "{\"req\":\"outcome\"}");
        assert!(
            r.starts_with("{\"ok\":{\"outcome\":"),
            "outcome over TCP failed: {r}"
        );
        let r = request(&mut s, "{\"req\":\"shutdown\"}");
        assert!(r.starts_with("{\"ok\":"), "shutdown failed: {r}");
    }

    // Shutdown returns the session from the server loop, drained.
    let (drained, _) = handle.join().expect("server thread");
    assert!(drained);
}

/// A line of 100 000 `[` (or `{"a":`) is a tenth of the line cap and
/// nests deeper than any stack: the parser must refuse it at its depth
/// limit with a typed reply, and the same connection keeps being served.
#[test]
fn tcp_answers_deeply_nested_lines_typed_and_keeps_serving() {
    let (addr, handle) = spawn_tcp("fifo");
    let mut s = TcpStream::connect(addr).expect("connect");
    for opener in ["[", "{\"a\":"] {
        let r = request(&mut s, &opener.repeat(100_000));
        assert!(
            r.contains(codes::MALFORMED_JSON) && r.contains("recursion limit"),
            "expected a typed refusal of {opener} x 100000, got: {r}"
        );
        let r = request(&mut s, "{\"req\":\"status\"}");
        assert!(r.starts_with("{\"ok\":"), "next request failed: {r}");
    }
    let r = request(&mut s, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "shutdown failed: {r}");
    handle.join().expect("server thread");
}

#[test]
fn tcp_interleaves_multiple_clients_in_arrival_order() {
    let (addr, handle) = spawn_tcp("edf");
    let mut a = TcpStream::connect(addr).expect("connect a");
    let mut b = TcpStream::connect(addr).expect("connect b");
    let ra = request(&mut a, &adhoc_line(&adhoc(0)));
    let rb = request(&mut b, &adhoc_line(&adhoc(2)));
    // Sequence numbers are global across connections.
    assert!(ra.contains("\"sub\":0"), "{ra}");
    assert!(rb.contains("\"sub\":1"), "{rb}");
    let r = request(&mut a, "{\"req\":\"drain\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let r = request(&mut b, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let (_, log_len) = handle.join().expect("server thread");
    assert_eq!(log_len, 2);
}

/// Like [`spawn_tcp`] but crash-consistent: the session writes a WAL in
/// `dir` with `fsync=always`; the thread hands back what `report` reads
/// off the served session.
fn spawn_tcp_wal_with<T: Send + 'static>(
    scheduler: &str,
    dir: &std::path::Path,
    report: fn(&Session) -> T,
) -> (std::net::SocketAddr, std::thread::JoinHandle<T>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let scheduler = scheduler.to_string();
    let dir = dir.to_path_buf();
    let handle = std::thread::spawn(move || {
        let (session, _report) = Session::recover(
            daemon_util::session_config(cluster(), &scheduler, 0),
            daemon_util::wal_config(&dir, flowtime_daemon::FsyncPolicy::Always),
            None,
        )
        .expect("fresh wal session");
        report(&serve(listener, session, None).expect("server runs"))
    });
    (addr, handle)
}

/// [`spawn_tcp_wal_with`] reporting `(drained, log length)`.
fn spawn_tcp_wal(
    scheduler: &str,
    dir: &std::path::Path,
) -> (std::net::SocketAddr, std::thread::JoinHandle<(bool, usize)>) {
    spawn_tcp_wal_with(scheduler, dir, |s| (s.drained(), s.log().len()))
}

/// Satellite contract: abusive clients — a mid-request disconnect and an
/// over-cap streamed line — interleaved with accepted WAL appends leave
/// NOTHING partial in the durable log. Only acknowledged requests have
/// records; recovery replays them all with no torn tail.
#[test]
fn rejected_requests_leave_no_partial_wal_records() {
    let dir = daemon_util::wal_dir("tcp-abuse");
    let (addr, handle) = spawn_tcp_wal("fifo", &dir);

    // Accepted submit #1 → durable record.
    let mut a = TcpStream::connect(addr).expect("connect a");
    let r = request(&mut a, &adhoc_line(&adhoc(0)));
    assert!(r.starts_with("{\"ok\":"), "{r}");

    // Abuse 1: half a request, then vanish. Nothing may hit the WAL.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"{\"req\":\"submit_adhoc\",\"submi")
            .expect("partial write");
    }

    // Accepted submit #2, interleaved after the abuse.
    let r = request(&mut a, &adhoc_line(&adhoc(1)));
    assert!(r.starts_with("{\"ok\":"), "{r}");

    // Abuse 2: a line streamed past the 1 MiB cap gets the typed
    // rejection (or a cut connection) — and no WAL record.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let chunk = [b'y'; 8192];
        let mut sent = 0usize;
        while s.write_all(&chunk).is_ok() {
            sent += chunk.len();
            assert!(sent < 4 * MAX_LINE_BYTES, "daemon never enforced the cap");
            if sent > MAX_LINE_BYTES + 8192 {
                break;
            }
        }
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok() && !line.is_empty() {
            assert!(
                line.contains(codes::OVERSIZED_PAYLOAD),
                "expected oversized-payload, got: {line}"
            );
        }
    }

    // Accepted submit #3, then clean shutdown.
    let r = request(&mut a, &adhoc_line(&adhoc(2)));
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let r = request(&mut a, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let (_, log_len) = handle.join().expect("server thread");
    assert_eq!(log_len, 3, "exactly the acknowledged submissions logged");

    // The durable log holds exactly the 3 acknowledged records (plus
    // genesis), with no torn tail and no trace of the rejected requests.
    let recovered = flowtime_daemon::wal::recover_dir(
        &daemon_util::wal_config(&dir, flowtime_daemon::FsyncPolicy::Always),
        None,
    )
    .expect("wal recovers");
    assert!(
        recovered.report.tail.is_none(),
        "no partial record may be durable: {:?}",
        recovered.report.tail
    );
    assert_eq!(
        recovered.report.records_replayed,
        4, // genesis + 3 entries
        "only acknowledged requests are durable"
    );
    let (session, _) = Session::recover(
        daemon_util::session_config(cluster(), "fifo", 0),
        daemon_util::wal_config(&dir, flowtime_daemon::FsyncPolicy::Always),
        None,
    )
    .expect("session recovers");
    assert_eq!(session.log().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one reply line off a persistent reader.
fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(line.ends_with('\n'), "connection closed mid-reply: {line}");
    line.trim_end().to_string()
}

/// A `u64` field of a reply, by path below the top-level object.
fn reply_u64(reply: &str, path: &[&str]) -> u64 {
    let mut v = &serde_json::parse(reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("no `{key}` in {reply}"));
    }
    match v {
        serde_json::Value::U64(n) => *n,
        other => panic!("`{path:?}` is {other:?} in {reply}"),
    }
}

/// One slow reader used to stall every client: the loop retried a blocked
/// write forever. Connection A streams over 4 MiB of `status` lines and
/// reads nothing; B must be served meanwhile; then A collects and every
/// one of its replies is there, in order.
#[test]
fn a_client_that_never_reads_stalls_nobody_and_loses_nothing() {
    use std::sync::mpsc;
    use std::time::Duration;

    let (addr, handle) = spawn_tcp("fifo");
    let status = "{\"req\":\"status\"}\n";
    const CHUNK_LINES: usize = 4096;
    let chunks = (4 << 20) / (CHUNK_LINES * status.len()) + 1;

    let a = TcpStream::connect(addr).expect("connect a");
    let mut a_send = a.try_clone().expect("clone a");
    let (progress, written) = mpsc::channel();
    // A's own sends block once the daemon stops reading it, so they need
    // a thread of their own.
    let sender = std::thread::spawn(move || {
        let chunk = status.repeat(CHUNK_LINES);
        for _ in 0..chunks {
            a_send.write_all(chunk.as_bytes()).expect("a sends");
            let _ = progress.send(());
        }
    });
    // Let A get well ahead of what the daemon will read from it (or block
    // trying) before B asks for anything.
    for _ in 0..chunks / 2 {
        if written.recv_timeout(Duration::from_secs(2)).is_err() {
            break;
        }
    }

    let mut b = TcpStream::connect(addr).expect("connect b");
    b.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let r = request(&mut b, "{\"req\":\"status\"}");
    assert_eq!(reply_u64(&r, &["ok", "logged"]), 0, "{r}");
    let r = request(&mut b, &adhoc_line(&adhoc(0)));
    assert_eq!(reply_u64(&r, &["ok", "sub"]), 0, "{r}");
    let r = request(&mut b, "{\"req\":\"status\"}");
    assert_eq!(reply_u64(&r, &["ok", "logged"]), 1, "{r}");

    // A collects: one reply per line it sent, none missing, in order —
    // the ones answered before B's submit say `logged` 0, the rest 1.
    let mut reader = BufReader::new(a);
    let mut logged = 0;
    for i in 0..chunks * CHUNK_LINES {
        let r = read_reply(&mut reader);
        assert!(
            r.starts_with("{\"ok\":{\"phase\":\"accepting\""),
            "{i}: {r}"
        );
        let now = u64::from(r.ends_with("\"logged\":1}}"));
        assert!(now >= logged && (now == 1 || r.ends_with("\"logged\":0}}")));
        logged = now;
    }
    assert_eq!(logged, 1, "A was still being answered after B's submit");
    sender.join().expect("sender");

    let r = request(&mut b, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let (_, log_len) = handle.join().expect("server thread");
    assert_eq!(log_len, 1);
}

/// A request line that is not UTF-8 used to be repaired (`U+FFFD`),
/// acknowledged and logged under a name the client never sent. It is a
/// typed refusal naming the byte; nothing reaches the WAL; the connection
/// keeps being served.
#[test]
fn tcp_refuses_non_utf8_lines_typed_and_logs_nothing() {
    let dir = daemon_util::wal_dir("tcp-not-utf8");
    let (addr, handle) = spawn_tcp_wal("fifo", &dir);
    let mut s = TcpStream::connect(addr).expect("connect");

    let good = adhoc_line(&adhoc(0));
    let at = good.find("\"name\":\"a\"").expect("job name") + "\"name\":\"a".len();
    let mut bad = good.as_bytes().to_vec();
    bad.splice(at..at, [0xff, 0xfe]);
    bad.push(b'\n');
    s.write_all(&bad).expect("write");
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    let r = read_reply(&mut reader);
    assert!(
        r.contains(codes::MALFORMED_JSON) && r.contains(&format!("not UTF-8 at byte {at}")),
        "expected a typed refusal naming byte {at}, got: {r}"
    );
    // A CRLF client and a bare bad byte, for good measure.
    s.write_all(b"{\"req\":\"status\"}\r\n\x80\n")
        .expect("write");
    let r = read_reply(&mut reader);
    assert_eq!(reply_u64(&r, &["ok", "logged"]), 0, "{r}");
    assert_eq!(
        reply_u64(&r, &["ok", "wal", "records"]),
        1,
        "genesis only: {r}"
    );
    let r = read_reply(&mut reader);
    assert!(r.contains("not UTF-8 at byte 0"), "{r}");

    let r = request(&mut s, &good);
    assert_eq!(reply_u64(&r, &["ok", "sub"]), 0, "{r}");
    let r = request(&mut s, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    handle.join().expect("server thread");

    let (session, report) = Session::recover(
        daemon_util::session_config(cluster(), "fifo", 0),
        daemon_util::wal_config(&dir, flowtime_daemon::FsyncPolicy::Always),
        None,
    )
    .expect("session recovers");
    assert_eq!(report.records_replayed, 2, "genesis + the one valid submit");
    let logged = serde_json::to_string(session.log()).expect("log serializes");
    assert!(!logged.contains('\u{fffd}'), "{logged}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `n` submit lines carrying `request_id`s `<tag>-0..n`, newline-joined.
fn pipelined_submits(tag: &str, n: usize) -> String {
    (0..n)
        .map(|i| {
            daemon_util::with_request_id(&adhoc_line(&adhoc(i as u64 / 8)), &format!("{tag}-{i}"))
                + "\n"
        })
        .collect()
}

/// The order rule (DESIGN.md §23): per connection FIFO; sequence numbers
/// are handed out in the order lines reach the session, which is the
/// order of the WAL's records; recovery reads that order back and never
/// re-derives it.
#[test]
fn pipelined_connections_are_fifo_and_the_wal_records_the_global_order() {
    let dir = daemon_util::wal_dir("tcp-order");
    let (addr, handle) = spawn_tcp_wal_with("fifo", &dir, |s| s.outcome_json().map(str::to_string));
    const N: usize = 500;

    // Both connections write everything before reading anything.
    let clients: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|tag| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(pipelined_submits(tag, N).as_bytes())
                    .expect("pipeline");
                let mut reader = BufReader::new(s);
                (0..N)
                    .map(|_| reply_u64(&read_reply(&mut reader), &["ok", "sub"]))
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let subs: Vec<Vec<u64>> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for per_conn in &subs {
        assert!(
            per_conn.windows(2).all(|w| w[0] < w[1]),
            "acks of one connection are not in send order: {per_conn:?}"
        );
    }
    let mut all: Vec<u64> = subs.concat();
    all.sort_unstable();
    assert_eq!(all, (0..2 * N as u64).collect::<Vec<_>>());

    let mut s = TcpStream::connect(addr).expect("connect");
    let r = request(&mut s, "{\"req\":\"drain\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let r = request(&mut s, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    let live = handle.join().expect("server thread").expect("drained");

    let config = daemon_util::wal_config(&dir, flowtime_daemon::FsyncPolicy::Always);
    let recovered = flowtime_daemon::wal::recover_dir(&config, None).expect("wal recovers");
    let seqs: Vec<u64> = recovered
        .tail
        .iter()
        .filter_map(|r| match r {
            flowtime_daemon::WalRecord::Entry { entry, .. } => Some(entry.seq()),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, (0..2 * N as u64).collect::<Vec<_>>());
    drop(recovered);
    let (session, _) = Session::recover(
        daemon_util::session_config(cluster(), "fifo", 0),
        config,
        None,
    )
    .expect("session recovers");
    assert_eq!(session.outcome_json(), Some(live.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit, counted: under `--fsync always` a pipelined burst costs
/// one sync per wake, not one per submit, and still loses nothing; the
/// same lines one round trip at a time cost exactly one sync each.
#[test]
fn pipelined_submits_share_syncs_and_all_survive() {
    const N: usize = 2000;
    let lines = pipelined_submits("g", N);
    let config =
        |dir: &std::path::Path| daemon_util::wal_config(dir, flowtime_daemon::FsyncPolicy::Always);
    let recovered_len = |dir: &std::path::Path| {
        Session::recover(
            daemon_util::session_config(cluster(), "fifo", 0),
            config(dir),
            None,
        )
        .expect("session recovers")
        .0
        .log()
        .len()
    };

    let dir = daemon_util::wal_dir("tcp-group-commit");
    let (addr, handle) = spawn_tcp_wal("fifo", &dir);
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(lines.as_bytes()).expect("one write, no read");
    let mut reader = BufReader::new(s.try_clone().expect("clone"));
    for i in 0..N as u64 {
        assert_eq!(reply_u64(&read_reply(&mut reader), &["ok", "sub"]), i);
    }
    let r = request(&mut s, "{\"req\":\"status\"}");
    let (records, syncs) = (
        reply_u64(&r, &["ok", "wal", "records"]),
        reply_u64(&r, &["ok", "wal", "syncs"]),
    );
    assert_eq!(records, N as u64 + 1, "genesis + every submit: {r}");
    assert!(syncs <= records / 4, "{syncs} syncs for {records} records");
    // The session is dropped as a `kill -9` drops it: no drain, no flush.
    let r = request(&mut s, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    handle.join().expect("server thread");
    assert_eq!(recovered_len(&dir), N);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = daemon_util::wal_dir("tcp-no-group-commit");
    let (addr, handle) = spawn_tcp_wal("fifo", &dir);
    let mut s = TcpStream::connect(addr).expect("connect");
    for line in lines.lines() {
        let r = request(&mut s, line);
        assert!(r.starts_with("{\"ok\":"), "{r}");
    }
    let r = request(&mut s, "{\"req\":\"status\"}");
    assert_eq!(
        reply_u64(&r, &["ok", "wal", "syncs"]),
        reply_u64(&r, &["ok", "wal", "records"]),
        "{r}"
    );
    let r = request(&mut s, "{\"req\":\"shutdown\"}");
    assert!(r.starts_with("{\"ok\":"), "{r}");
    handle.join().expect("server thread");
    assert_eq!(recovered_len(&dir), N);
    let _ = std::fs::remove_dir_all(&dir);
}
