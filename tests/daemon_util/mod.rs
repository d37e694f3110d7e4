//! Shared helpers for the daemon integration suites: building loopback
//! sessions, rendering protocol request lines, and extracting the typed
//! outcome/trace pair from a drained session.

// Each suite compiles this module independently and uses a different
// subset of the helpers.
#![allow(dead_code)]

use flowtime_daemon::{DiskFaultPlan, FsyncPolicy, Loopback, Session, SessionConfig, WalConfig};
use flowtime_sim::{AdhocSubmission, ClusterConfig, DecisionTrace, SimOutcome, WorkflowSubmission};
use std::path::{Path, PathBuf};

/// Trace ring size used by both sides of every differential comparison.
pub const TRACE_CAPACITY: u64 = 1 << 18;

/// A loopback session over the given cluster and scheduler.
pub fn loopback(cluster: ClusterConfig, scheduler: &str) -> Loopback {
    Loopback::new(
        Session::new(session_config(cluster, scheduler, 0)).expect("valid session config"),
    )
}

/// A fresh per-test WAL directory under the target temp dir. The caller
/// owns cleanup (tests usually `remove_dir_all` at the end; a failed
/// test leaves the directory behind for inspection).
pub fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowtime-wal-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A [`SessionConfig`] matching the loopback builders (used as the
/// recovery fallback config). `pods` is what a recorded config may say:
/// 0 and 1 are one engine, anything more is refused.
pub fn session_config(cluster: ClusterConfig, scheduler: &str, pods: u64) -> SessionConfig {
    SessionConfig {
        cluster,
        scheduler: scheduler.to_string(),
        max_slots: 1_000_000,
        trace_capacity: TRACE_CAPACITY,
        snapshot_path: None,
        pods,
        placer: None,
    }
}

/// A [`WalConfig`] rooted at `dir` with the given fsync policy and the
/// durable defaults otherwise.
pub fn wal_config(dir: &Path, fsync: FsyncPolicy) -> WalConfig {
    let mut config = WalConfig::new(dir);
    config.fsync = fsync;
    config
}

/// A loopback session recovered from (or freshly created in) the WAL
/// directory, optionally under a seeded disk-fault plan.
pub fn loopback_wal(
    cluster: ClusterConfig,
    scheduler: &str,
    pods: u64,
    dir: &Path,
    fsync: FsyncPolicy,
    faults: Option<DiskFaultPlan>,
) -> Loopback {
    let (session, _report) = Session::recover(
        session_config(cluster, scheduler, pods),
        wal_config(dir, fsync),
        faults,
    )
    .expect("wal recovery succeeds");
    Loopback::new(session)
}

/// Asks a session with a WAL for a snapshot and returns the path of the
/// `snap-*.snap` file its reply names.
pub fn snapshot_file(lb: &mut Loopback) -> PathBuf {
    let reply = ok(lb, "{\"req\":\"snapshot\"}");
    let value = serde_json::parse(&reply).expect("reply is JSON");
    let path = value
        .get("ok")
        .and_then(|body| body.get("path"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("snapshot reply names no file: {reply}"));
    let path = PathBuf::from(path);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    assert!(
        name.starts_with("snap-") && name.ends_with(".snap"),
        "not a WAL-directory snapshot: {reply}"
    );
    path
}

/// Submissions no builder could have built: a workflow of no jobs, a
/// workflow whose DAG has more nodes than it has jobs, an ad-hoc job of
/// zero tasks. Each used to be acknowledged and then panic the engine (or
/// fail every later `drain`) once injected.
pub fn malformed_submissions() -> [&'static str; 3] {
    [
        "{\"req\":\"submit_workflow\",\"submission\":{\"workflow\":{\"id\":7,\"name\":\"empty\",\
         \"jobs\":[],\"dag\":{\"n\":0,\"succ\":[],\"pred\":[],\"edge_count\":0},\
         \"submit_slot\":0,\"deadline_slot\":20},\"actual_work\":null,\"job_deadlines\":null}}",
        "{\"req\":\"submit_workflow\",\"submission\":{\"workflow\":{\"id\":8,\"name\":\"short\",\
         \"jobs\":[{\"name\":\"a\",\"tasks\":2,\"task_slots\":1,\"per_task\":[1,1024],\"max_parallel\":null}],\
         \"dag\":{\"n\":2,\"succ\":[[1],[]],\"pred\":[[],[0]],\"edge_count\":1},\
         \"submit_slot\":0,\"deadline_slot\":20},\"actual_work\":null,\"job_deadlines\":null}}",
        "{\"req\":\"submit_adhoc\",\"submission\":{\"spec\":{\"name\":\"z\",\"tasks\":0,\
         \"task_slots\":1,\"per_task\":[1,1024],\"max_parallel\":null},\"arrival_slot\":0}}",
    ]
}

/// Renders a `submit_workflow` request line.
pub fn workflow_line(sub: &WorkflowSubmission) -> String {
    format!(
        "{{\"req\":\"submit_workflow\",\"submission\":{}}}",
        serde_json::to_string(sub).expect("workflow serializes")
    )
}

/// Renders a `submit_adhoc` request line.
pub fn adhoc_line(sub: &AdhocSubmission) -> String {
    format!(
        "{{\"req\":\"submit_adhoc\",\"submission\":{}}}",
        serde_json::to_string(sub).expect("adhoc serializes")
    )
}

/// Splices a `request_id` field into a rendered submit line.
pub fn with_request_id(line: &str, rid: &str) -> String {
    let spliced = line.replacen(
        ",\"submission\":",
        &format!(",\"request_id\":\"{rid}\",\"submission\":"),
        1,
    );
    assert_ne!(spliced, line, "submit lines carry a submission field");
    spliced
}

/// Sends a line and asserts the daemon replied `{"ok": ...}`.
pub fn ok(lb: &mut Loopback, line: &str) -> String {
    let response = lb.request_line(line);
    assert!(
        response.starts_with("{\"ok\":"),
        "expected ok for `{line}`, got: {response}"
    );
    response
}

/// Sends a line and asserts the daemon replied with the given typed
/// error code.
pub fn err_code(lb: &mut Loopback, line: &str, code: &str) {
    let response = lb.request_line(line);
    let value = serde_json::parse(&response).expect("response is JSON");
    let got = value
        .get("err")
        .and_then(|e| e.get("code"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("expected error for `{line}`, got: {response}"));
    assert_eq!(got, code, "wrong error code for `{line}`: {response}");
}

/// Drains the session and returns `(outcome bytes, typed outcome, trace)`.
pub fn drain(mut lb: Loopback) -> (String, SimOutcome, DecisionTrace) {
    ok(&mut lb, "{\"req\":\"drain\"}");
    let session = lb.into_session();
    let bytes = session.outcome_json().expect("drained").to_string();
    let outcome: SimOutcome =
        serde_json::from_value(&serde_json::parse(&bytes).expect("outcome parses"))
            .expect("outcome deserializes");
    let trace = session.final_trace().expect("drained").clone();
    (bytes, outcome, trace)
}

/// Serializes a trace to its JSONL byte representation.
pub fn trace_bytes(trace: &DecisionTrace) -> String {
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("trace serializes");
    String::from_utf8(buf).expect("trace is utf-8")
}
