//! The `flowtimed` wire protocol: newline-delimited JSON.
//!
//! Every request is one JSON object on one line with a `"req"` field
//! naming the operation; every response is one JSON object on one line,
//! either `{"ok": ...}` or `{"err": {"code": "...", "detail": "..."}}`.
//! Error codes are a closed, typed catalogue ([`codes`]) mirroring the
//! CLI's `get_parsed` discipline: malformed input is always a typed
//! error, never a silent default and never a panic.
//!
//! # Requests
//!
//! | `req`             | fields                                   |
//! |-------------------|------------------------------------------|
//! | `submit_workflow` | `submission`: a workflow submission; optional `request_id` idempotency key |
//! | `submit_adhoc`    | `submission`: `{spec, arrival_slot}`; optional `request_id` idempotency key |
//! | `cancel`          | `sub`: sequence number to cancel         |
//! | `tick`            | `to`: advance virtual time to this slot  |
//! | `status`          | —                                        |
//! | `query`           | `sub`: sequence number to inspect        |
//! | `trace`           | `limit` (optional): tail length          |
//! | `drain`           | — (run everything to completion)         |
//! | `outcome`         | — (after drain: the final `SimOutcome`)  |
//! | `explain`         | — (after drain: per-missed-workflow E00x causal chains) |
//! | `snapshot`        | — (snapshot into the WAL directory now)  |
//! | `shutdown`        | — (respond, then close the server)       |
//!
//! Submission payloads are the serde forms of
//! [`flowtime_sim::WorkflowSubmission`] and
//! [`flowtime_sim::AdhocSubmission`] — the exact structures batch
//! scenario files use, so a scenario line can be replayed against a live
//! daemon unchanged.
//!
//! # Durability ordering contract
//!
//! When the daemon runs with a write-ahead log (`--wal-dir`), every
//! state-changing request — `submit_workflow`, `submit_adhoc`, `cancel`,
//! `tick`, `drain` — is appended to the WAL and made durable under the
//! configured fsync policy **before** the session mutates its in-memory
//! state and before the `{"ok":...}` reply is written. The reply is the
//! durability receipt: an acknowledged request survives a crash, and a
//! crash can only lose requests that were never acknowledged (plus, under
//! `--fsync batch:N` or `none`, acknowledged requests whose batch had not
//! yet synced — a window the operator opted into). If the append fails,
//! the request is rejected with [`codes::WAL_IO`] and the session state
//! is untouched — a rejected request never leaves a partial record
//! durable. Consecutive submissions that reach the daemon together are
//! appended and synced as one *run* and acknowledged together: the
//! contract holds with *run* for *request*, and a run the WAL refuses is
//! rejected whole. The WAL directory is the one way a session persists:
//! without `--wal-dir` replies promise nothing beyond process lifetime,
//! and a `snapshot` request is refused with [`codes::SNAPSHOT_IO`].
//!
//! # Idempotency keys
//!
//! `submit_workflow` and `submit_adhoc` accept an optional string field
//! `request_id`. The first accepted submission carrying a given key wins;
//! any later submission with the same key — same connection, a client
//! retry after a timeout, or a replay after daemon restart (the table is
//! persisted in the WAL and in snapshots) — is answered with a typed
//! [`codes::DUPLICATE`] error whose `data` field carries
//! `{"sub":<original sequence number>}`. Clients treat `duplicate` as
//! success: the work is already accepted under that sequence number.

use flowtime_sim::{AdhocSubmission, WorkflowSubmission};
use serde_json::Value;

/// Maximum accepted request-line length in bytes (newline excluded).
/// Longer lines are rejected with [`codes::OVERSIZED_PAYLOAD`] without
/// being parsed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The typed error-code catalogue. Closed: clients may match on these.
pub mod codes {
    /// The request line is not valid JSON.
    pub const MALFORMED_JSON: &str = "malformed-json";
    /// The request object is valid JSON but not a valid request (missing
    /// or ill-typed fields).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The `req` field names no known operation.
    pub const UNKNOWN_REQUEST: &str = "unknown-request";
    /// The request line exceeds [`super::MAX_LINE_BYTES`].
    pub const OVERSIZED_PAYLOAD: &str = "oversized-payload";
    /// A submission's arrival slot lies in already-simulated virtual time.
    pub const LATE_ARRIVAL: &str = "late-arrival";
    /// The submission payload is internally inconsistent.
    pub const MALFORMED_SUBMISSION: &str = "malformed-submission";
    /// The referenced submission sequence number does not exist.
    pub const UNKNOWN_SUBMISSION: &str = "unknown-submission";
    /// The submission was already materialized (or already cancelled)
    /// and can no longer be cancelled.
    pub const CANCEL_TOO_LATE: &str = "cancel-too-late";
    /// The session has been drained; no further mutation is accepted.
    pub const ALREADY_DRAINED: &str = "already-drained";
    /// The outcome was requested before the session was drained.
    pub const NOT_DRAINED: &str = "not-drained";
    /// Virtual time cannot advance: the slot horizon is exhausted.
    pub const HORIZON_EXHAUSTED: &str = "horizon-exhausted";
    /// Snapshot persistence failed (no WAL directory, or an I/O error).
    pub const SNAPSHOT_IO: &str = "snapshot-io";
    /// A snapshot file failed validation (format or checksum).
    pub const SNAPSHOT_CORRUPT: &str = "snapshot-corrupt";
    /// The engine rejected a scheduler decision or invariant mid-run.
    pub const ENGINE_ERROR: &str = "engine-error";
    /// A submission repeated an already-accepted `request_id`; the
    /// error's `data` field carries `{"sub":N}`, the sequence number the
    /// original submission was assigned. Clients treat this as success.
    pub const DUPLICATE: &str = "duplicate";
    /// The write-ahead log could not make the request durable (I/O
    /// failure, disk full, or a poisoned WAL). The request was rejected
    /// and session state is unchanged.
    pub const WAL_IO: &str = "wal-io";
    /// The write-ahead log's sealed history failed validation during
    /// recovery or replay (checksum mismatch outside the crash window,
    /// or a replayed record inconsistent with the session).
    pub const WAL_CORRUPT: &str = "wal-corrupt";
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a workflow (arrival = its `submit_slot`), with an optional
    /// client idempotency key.
    SubmitWorkflow(Box<WorkflowSubmission>, Option<String>),
    /// Submit an ad-hoc job, with an optional client idempotency key.
    SubmitAdhoc(AdhocSubmission, Option<String>),
    /// Cancel a still-pending submission by sequence number.
    Cancel(u64),
    /// Advance virtual time up to the given slot.
    Tick(u64),
    /// Session status snapshot.
    Status,
    /// Inspect one submission by sequence number.
    Query(u64),
    /// Decision-trace tail (default 32 events).
    Trace(usize),
    /// Run everything to completion and freeze the session.
    Drain,
    /// The final serialized `SimOutcome` (after drain).
    Outcome,
    /// Per-missed-workflow diagnostic chains over the drained session's
    /// certified artifacts (after drain).
    Explain,
    /// Persist a snapshot now.
    Snapshot,
    /// Acknowledge, then close the server loop.
    Shutdown,
}

/// A typed protocol error: a stable code plus human-readable detail,
/// plus optional machine-readable `data` (a complete JSON value) for
/// codes like [`codes::DUPLICATE`] that carry a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable context; never needed for dispatch.
    pub detail: String,
    /// Optional machine-readable payload, embedded verbatim as the
    /// error object's `data` field.
    pub data: Option<String>,
}

impl ProtocolError {
    /// Builds an error from a code and detail.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        ProtocolError {
            code,
            detail: detail.into(),
            data: None,
        }
    }

    /// Attaches a machine-readable payload (must be complete JSON).
    pub fn with_data(mut self, data: impl Into<String>) -> Self {
        self.data = Some(data.into());
        self
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Extracts a `u64` field, accepting only non-negative integers.
fn u64_field(v: &Value, key: &str) -> Result<u64, ProtocolError> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        Some(Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(other) => Err(ProtocolError::new(
            codes::BAD_REQUEST,
            format!(
                "field `{key}` must be a non-negative integer, got {}",
                other.kind()
            ),
        )),
        None => Err(ProtocolError::new(
            codes::BAD_REQUEST,
            format!("missing field `{key}`"),
        )),
    }
}

/// Extracts the optional `request_id` idempotency key: a non-empty
/// string of at most 256 bytes when present.
fn request_id_field(v: &Value) -> Result<Option<String>, ProtocolError> {
    match v.get("request_id") {
        None => Ok(None),
        Some(Value::Str(s)) if !s.is_empty() && s.len() <= 256 => Ok(Some(s.clone())),
        Some(Value::Str(_)) => Err(ProtocolError::new(
            codes::BAD_REQUEST,
            "field `request_id` must be a non-empty string of at most 256 bytes",
        )),
        Some(other) => Err(ProtocolError::new(
            codes::BAD_REQUEST,
            format!("field `request_id` must be a string, got {}", other.kind()),
        )),
    }
}

/// Decodes the bytes between two newlines into a request line: strict
/// UTF-8, borrowed, with a trailing `\r` (a CRLF client) dropped. Bytes
/// that are not UTF-8 are refused, never repaired — a repaired line would
/// be acknowledged, logged and replayed as something the client did not
/// send.
///
/// # Errors
///
/// [`codes::MALFORMED_JSON`] naming the offset of the first bad byte.
pub fn decode_line(bytes: &[u8]) -> Result<&str, ProtocolError> {
    match std::str::from_utf8(bytes) {
        Ok(line) => Ok(line.trim_end_matches('\r')),
        Err(e) => Err(ProtocolError::new(
            codes::MALFORMED_JSON,
            format!("request line is not UTF-8 at byte {}", e.valid_up_to()),
        )),
    }
}

/// Parses one request line. Enforces the size cap before parsing.
///
/// # Errors
///
/// [`ProtocolError`] with [`codes::OVERSIZED_PAYLOAD`],
/// [`codes::MALFORMED_JSON`], [`codes::BAD_REQUEST`], or
/// [`codes::UNKNOWN_REQUEST`].
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::new(
            codes::OVERSIZED_PAYLOAD,
            format!(
                "request line is {} bytes, cap is {}",
                line.len(),
                MAX_LINE_BYTES
            ),
        ));
    }
    let value = serde_json::parse(line)
        .map_err(|e| ProtocolError::new(codes::MALFORMED_JSON, e.to_string()))?;
    let req = value
        .get("req")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::new(codes::BAD_REQUEST, "missing string field `req`"))?;
    match req {
        "submit_workflow" => {
            let request_id = request_id_field(&value)?;
            let sub = value.get("submission").ok_or_else(|| {
                ProtocolError::new(codes::BAD_REQUEST, "missing field `submission`")
            })?;
            let submission: WorkflowSubmission = serde_json::from_value(sub)
                .map_err(|e| ProtocolError::new(codes::MALFORMED_SUBMISSION, e.to_string()))?;
            Ok(Request::SubmitWorkflow(Box::new(submission), request_id))
        }
        "submit_adhoc" => {
            let request_id = request_id_field(&value)?;
            let sub = value.get("submission").ok_or_else(|| {
                ProtocolError::new(codes::BAD_REQUEST, "missing field `submission`")
            })?;
            let submission: AdhocSubmission = serde_json::from_value(sub)
                .map_err(|e| ProtocolError::new(codes::MALFORMED_SUBMISSION, e.to_string()))?;
            Ok(Request::SubmitAdhoc(submission, request_id))
        }
        "cancel" => Ok(Request::Cancel(u64_field(&value, "sub")?)),
        "tick" => Ok(Request::Tick(u64_field(&value, "to")?)),
        "status" => Ok(Request::Status),
        "query" => Ok(Request::Query(u64_field(&value, "sub")?)),
        "trace" => {
            let limit = match value.get("limit") {
                None => 32,
                Some(_) => u64_field(&value, "limit")? as usize,
            };
            Ok(Request::Trace(limit))
        }
        "drain" => Ok(Request::Drain),
        "outcome" => Ok(Request::Outcome),
        "explain" => Ok(Request::Explain),
        "snapshot" => Ok(Request::Snapshot),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::new(
            codes::UNKNOWN_REQUEST,
            format!("unknown request `{other}`"),
        )),
    }
}

/// Renders a success response line (no trailing newline). `body` must be
/// a complete JSON value; it is embedded verbatim, which is what lets
/// the `outcome` endpoint return the engine's serialized `SimOutcome`
/// byte-for-byte.
pub fn ok_line(body: &str) -> String {
    format!("{{\"ok\":{body}}}")
}

/// Renders an error response line (no trailing newline). When the error
/// carries `data`, it is embedded verbatim as a third field.
pub fn err_line(err: &ProtocolError) -> String {
    // A string always serializes; the fallback keeps this panic-free.
    let detail = serde_json::to_string(&err.detail).unwrap_or_else(|_| "\"\"".to_string());
    match &err.data {
        Some(data) => format!(
            "{{\"err\":{{\"code\":\"{}\",\"detail\":{},\"data\":{}}}}}",
            err.code, detail, data
        ),
        None => format!(
            "{{\"err\":{{\"code\":\"{}\",\"detail\":{}}}}}",
            err.code, detail
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_bad_lines_typed() {
        let e = parse_request("{not json").unwrap_err();
        assert_eq!(e.code, codes::MALFORMED_JSON);
        let e = parse_request("{\"req\":\"launch_missiles\"}").unwrap_err();
        assert_eq!(e.code, codes::UNKNOWN_REQUEST);
        let e = parse_request("{\"no_req\":1}").unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let e = parse_request("{\"req\":\"tick\"}").unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let e = parse_request("{\"req\":\"tick\",\"to\":-3}").unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let big = format!(
            "{{\"req\":\"status\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let e = parse_request(&big).unwrap_err();
        assert_eq!(e.code, codes::OVERSIZED_PAYLOAD);
    }

    #[test]
    fn parse_accepts_core_requests() {
        assert!(matches!(
            parse_request("{\"req\":\"status\"}"),
            Ok(Request::Status)
        ));
        assert!(matches!(
            parse_request("{\"req\":\"tick\",\"to\":7}"),
            Ok(Request::Tick(7))
        ));
        assert!(matches!(
            parse_request("{\"req\":\"cancel\",\"sub\":2}"),
            Ok(Request::Cancel(2))
        ));
        assert!(matches!(
            parse_request("{\"req\":\"explain\"}"),
            Ok(Request::Explain)
        ));
    }

    #[test]
    fn request_id_is_validated() {
        let e = parse_request("{\"req\":\"submit_adhoc\",\"submission\":{},\"request_id\":7}")
            .unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let e = parse_request("{\"req\":\"submit_adhoc\",\"submission\":{},\"request_id\":\"\"}")
            .unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let long = format!(
            "{{\"req\":\"submit_adhoc\",\"submission\":{{}},\"request_id\":\"{}\"}}",
            "k".repeat(257)
        );
        let e = parse_request(&long).unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
    }

    #[test]
    fn error_data_is_embedded_verbatim() {
        let e = ProtocolError::new(codes::DUPLICATE, "seen before").with_data("{\"sub\":4}");
        let line = err_line(&e);
        let v = serde_json::parse(&line).unwrap();
        let err = v.get("err").unwrap();
        assert_eq!(err.get("code").unwrap().as_str().unwrap(), "duplicate");
        assert!(matches!(
            err.get("data").unwrap().get("sub").unwrap(),
            Value::U64(4)
        ));
    }

    #[test]
    fn response_lines_are_json() {
        assert_eq!(ok_line("{\"now\":3}"), "{\"ok\":{\"now\":3}}");
        let e = ProtocolError::new(codes::BAD_REQUEST, "missing `to`");
        let line = err_line(&e);
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(
            v.get("err").unwrap().get("code").unwrap().as_str().unwrap(),
            "bad-request"
        );
    }
}
