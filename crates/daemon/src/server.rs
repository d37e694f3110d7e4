//! Transports for a [`Session`]: the in-process loopback used by the
//! deterministic test harness, and the real single-threaded TCP event
//! loop behind `flowtimed`.
//!
//! Both transports funnel every request line through the same
//! [`handle_line`], so a loopback-driven session and a TCP-driven session
//! given the same lines produce byte-identical responses — the protocol
//! test suites exercise loopback for determinism and TCP only for
//! socket-level behavior (framing, oversized lines, mid-request
//! disconnects).

use crate::protocol::{self, ProtocolError, Request, MAX_LINE_BYTES};
use crate::session::Session;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Dispatches one request line against a session and renders the
/// response line (no trailing newline). The second value is `true` when
/// the request was `shutdown` and the server loop should exit.
pub fn handle_line(session: &mut Session, line: &str) -> (String, bool) {
    match protocol::parse_request(line) {
        Err(e) => (protocol::err_line(&e), false),
        Ok(request) => {
            let shutdown = matches!(request, Request::Shutdown);
            match session.handle(request) {
                Ok(body) => (protocol::ok_line(&body), shutdown),
                Err(e) => (protocol::err_line(&e), shutdown),
            }
        }
    }
}

/// An in-process transport: the same request/response byte stream as the
/// TCP server, with no sockets, threads, or wall-clock anywhere — fully
/// deterministic, which is what lets the differential and property
/// suites compare daemon sessions against batch runs byte-for-byte.
pub struct Loopback {
    session: Session,
}

impl Loopback {
    /// Wraps a session in the loopback transport.
    pub fn new(session: Session) -> Self {
        Loopback { session }
    }

    /// Sends one request line and returns the response line.
    pub fn request_line(&mut self, line: &str) -> String {
        handle_line(&mut self.session, line).0
    }

    /// Read access to the session (tests pull outcome bytes and traces
    /// out directly rather than re-parsing them off the wire).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the session.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Unwraps back into the session.
    pub fn into_session(self) -> Session {
        self.session
    }
}

/// One live TCP connection with its partial-line read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Runs the single-threaded event loop until a `shutdown` request
/// arrives. Connections are served round-robin with non-blocking reads;
/// requests are processed whole-line-at-a-time in arrival order, so the
/// engine only ever advances between requests — exactly the loopback
/// discipline, plus sockets.
///
/// `snapshot_every`: after every N handled requests, persist a snapshot
/// (if the session has a snapshot path configured). Snapshot failures
/// are reported to stderr but never take the daemon down.
///
/// # Errors
///
/// Only fatal listener errors; per-connection errors (resets,
/// mid-request disconnects) just drop that connection.
pub fn serve(
    listener: TcpListener,
    mut session: Session,
    snapshot_every: Option<u64>,
) -> std::io::Result<Session> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    let mut handled: u64 = 0;
    'outer: loop {
        // Accept everything pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    conns.push(Conn {
                        stream,
                        buf: Vec::new(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        let mut made_progress = false;
        let mut i = 0;
        while i < conns.len() {
            match pump_conn(&mut conns[i], &mut session, &mut handled, snapshot_every) {
                PumpResult::Idle => i += 1,
                PumpResult::Progress => {
                    made_progress = true;
                    i += 1;
                }
                PumpResult::Closed => {
                    // A dropped connection — mid-request or not — only
                    // affects that client; buffered partial lines die
                    // with it.
                    conns.swap_remove(i);
                }
                PumpResult::Shutdown => break 'outer,
            }
        }
        if !made_progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(session)
}

enum PumpResult {
    Idle,
    Progress,
    Closed,
    Shutdown,
}

/// Reads whatever the connection has, processes every complete line, and
/// enforces the line-length cap mid-stream (a client streaming an
/// unbounded line is cut off at the cap, not buffered forever).
fn pump_conn(
    conn: &mut Conn,
    session: &mut Session,
    handled: &mut u64,
    snapshot_every: Option<u64>,
) -> PumpResult {
    let mut chunk = [0u8; 4096];
    let mut progress = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return PumpResult::Closed,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                progress = true;
                // Process complete lines as they land.
                while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    let line_bytes: Vec<u8> = conn.buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line_bytes[..pos]).into_owned();
                    let (response, shutdown) = handle_line(session, line.trim_end_matches('\r'));
                    if write_line(&mut conn.stream, &response).is_err() {
                        return PumpResult::Closed;
                    }
                    *handled += 1;
                    maybe_snapshot(session, *handled, snapshot_every);
                    if shutdown {
                        return PumpResult::Shutdown;
                    }
                }
                if conn.buf.len() > MAX_LINE_BYTES {
                    let e = ProtocolError::new(
                        protocol::codes::OVERSIZED_PAYLOAD,
                        format!("request line exceeded {MAX_LINE_BYTES} bytes before a newline"),
                    );
                    let _ = write_line(&mut conn.stream, &protocol::err_line(&e));
                    return PumpResult::Closed;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return if progress {
                    PumpResult::Progress
                } else {
                    PumpResult::Idle
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return PumpResult::Closed,
        }
    }
}

/// Writes `line` plus newline, retrying short/blocked writes — the
/// stream is non-blocking, and outcome payloads can exceed one socket
/// buffer.
fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn maybe_snapshot(session: &mut Session, handled: u64, snapshot_every: Option<u64>) {
    let Some(every) = snapshot_every else { return };
    // Nowhere to write (neither `--snapshot` nor `--wal-dir`) is the
    // flagless default, not a failure: skip before any state is copied.
    if every == 0
        || !handled.is_multiple_of(every)
        || session.drained()
        || session.snapshot_target().is_none()
    {
        return;
    }
    if let Err(e) = session.write_snapshot() {
        eprintln!("flowtimed: periodic snapshot failed: {e}");
    }
}
