//! Transports for a [`Session`]: the in-process loopback used by the
//! deterministic test harness, and the single-threaded TCP readiness loop
//! behind `flowtimed`. Both hand request lines to the same
//! [`Session::handle_lines`], so the same lines get byte-identical
//! replies either way — the suites use loopback for determinism and TCP
//! for socket-level behavior (framing, the line cap, disconnects, slow
//! readers, pipelining).
//!
//! # Order
//!
//! A connection is answered in the order it sent. Connections ready in
//! the same wake are served in accept order, each one's lines of that wake
//! together. The order in which lines reach the session is the order of
//! their sequence numbers, of their WAL records and of their replies'
//! release; across connections it is decided by arrival, recorded by the
//! WAL and never re-derived.

use crate::protocol::{self, ProtocolError, MAX_LINE_BYTES};
use crate::readiness::{self, PollFd};
use crate::session::Session;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Answers one request line (no trailing newline either way). The second
/// value is `true` when the request was `shutdown`.
pub fn handle_line(session: &mut Session, line: &str) -> (String, bool) {
    let (mut replies, shutdown) = session.handle_lines(&[line]);
    (replies.pop().unwrap_or_default(), shutdown)
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

    /// Unwraps back into the session.
    pub fn into_session(self) -> Session {
        self.session
    }
}

/// Bytes asked of a socket per wake: one `read`, so connections take turns.
const READ_BYTES: usize = 64 << 10;

/// A connection owed more unsent bytes than this is not read until its
/// client has collected them: what a client that never reads can make the
/// daemon hold is this plus the replies to one read.
const OUT_HIGH_WATER: usize = 1 << 20;

/// One live TCP connection.
struct Conn {
    stream: TcpStream,
    /// Received and not answered: one partial line at most between wakes.
    buf: Vec<u8>,
    /// Answered and not written.
    out: Vec<u8>,
    /// End of stream, or a line past the cap: read no more, close once
    /// `out` is written.
    closing: bool,
    /// The socket failed: drop the connection and what it is owed.
    dead: bool,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.closing && self.out.len() <= OUT_HIGH_WATER
    }

    fn watch(&self) -> PollFd {
        PollFd::new(&self.stream, self.wants_read(), !self.out.is_empty())
    }

    /// One `read`; the lines it completed are answered into `out` through
    /// one [`Session::handle_lines`] and counted into `handled`. True when
    /// one of them was `shutdown`.
    fn pump(&mut self, chunk: &mut [u8], session: &mut Session, handled: &mut u64) -> bool {
        let n = match self.stream.read(chunk) {
            Ok(n) => {
                // End of stream: a partial line dies with the connection,
                // replies not collected yet are still written.
                self.closing = n == 0;
                n
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
            Err(_) => {
                self.dead = true;
                0
            }
        };
        let scanned = self.buf.len();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut shutdown = false;
        if let Some(last) = self.buf[scanned..].iter().rposition(|&b| b == b'\n') {
            let end = scanned + last;
            // A line that is not UTF-8 is a line that does not parse: an
            // empty one stands in for it, and its reply says which byte.
            let (mut lines, mut refused) = (Vec::new(), Vec::new());
            for raw in self.buf[..end].split(|&b| b == b'\n') {
                lines.push(protocol::decode_line(raw).unwrap_or_else(|e| {
                    refused.push((lines.len(), protocol::err_line(&e)));
                    ""
                }));
            }
            let (mut replies, stop) = session.handle_lines(&lines);
            for (i, refusal) in refused {
                if let Some(reply) = replies.get_mut(i) {
                    *reply = refusal;
                }
            }
            for reply in &replies {
                push_line(&mut self.out, reply);
            }
            *handled += replies.len() as u64;
            shutdown = stop;
            self.buf.drain(..=end);
        }
        // A client streaming an unbounded line is cut off at the cap, not
        // buffered forever.
        if self.buf.len() > MAX_LINE_BYTES {
            let e = ProtocolError::new(
                protocol::codes::OVERSIZED_PAYLOAD,
                format!("request line exceeded {MAX_LINE_BYTES} bytes before a newline"),
            );
            push_line(&mut self.out, &protocol::err_line(&e));
            self.closing = true;
        }
        shutdown
    }

    /// One `write` of what is owed; the rest waits for `POLLOUT`.
    fn flush(&mut self) {
        if self.out.is_empty() {
            return;
        }
        match self.stream.write(&self.out) {
            Ok(n) if n > 0 => drop(self.out.drain(..n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            _ => self.dead = true,
        }
    }
}

fn push_line(out: &mut Vec<u8>, line: &str) {
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Runs the single-threaded readiness loop until a `shutdown` request
/// arrives. It blocks in [`readiness::wait`] — no timeout, no sleep — on
/// the listener, on every connection it is willing to read and on every
/// connection it owes bytes; per wake and ready connection it does one
/// `read`, one [`Session::handle_lines`] (one WAL write, one sync) and one
/// `write`. Nothing blocks on a write: replies queue per connection, and
/// one that does not collect them is not read ([`OUT_HIGH_WATER`]) while
/// the others are served. The engine only ever advances between requests
/// — the loopback discipline, plus sockets. Module docs: the order rule.
///
/// `snapshot_every`: at the end of the first wake in which an N-th request
/// was handled — for a client that waits for its replies, right after
/// that request — persist a snapshot, if the session has somewhere to.
/// Snapshot failures are reported to stderr but never take the daemon down.
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
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_BYTES];
    let (every, mut handled) = (snapshot_every.filter(|&n| n > 0), 0u64);
    loop {
        fds.clear();
        fds.push(PollFd::new(&listener, true, false));
        fds.extend(conns.iter().map(Conn::watch));
        readiness::wait(&mut fds)?;

        let before = handled;
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            if !fd.ready() {
                continue;
            }
            if conn.wants_read() && conn.pump(&mut chunk, &mut session, &mut handled) {
                // The acknowledgement of `shutdown` is the one write worth
                // waiting for: nothing is left to serve.
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.write_all(&conn.out);
                return Ok(session);
            }
            conn.flush();
        }
        conns.retain(|c| !(c.dead || c.closing && c.out.is_empty()));
        // Nowhere to write (no `--wal-dir`) is the flagless default, not a
        // failure: skip before any state is copied.
        if every.is_some_and(|n| handled / n > before / n)
            && !session.drained()
            && session.snapshot_target().is_some()
        {
            if let Err(e) = session.write_snapshot() {
                eprintln!("flowtimed: periodic snapshot failed: {e}");
            }
        }

        // New connections join at the back: accept order is serving order.
        while fds[0].ready() {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Replies are small and the client is waiting: Nagle
                    // would hold the second of two behind the first's ACK.
                    if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                        let (buf, out) = (Vec::new(), Vec::new());
                        conns.push(Conn {
                            stream,
                            buf,
                            out,
                            closing: false,
                            dead: false,
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionConfig;
    use flowtime_dag::ResourceVec;
    use flowtime_sim::ClusterConfig;

    /// A client that sends and never reads: the connection is read until
    /// its unsent replies pass the high-water mark and then not again, so
    /// what it can make the daemon hold is the mark plus one read's
    /// replies — and it is read again once the replies are collected.
    #[test]
    fn a_connection_over_the_high_water_mark_is_not_read() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            closing: false,
            dead: false,
        };
        let mut session = Session::new(SessionConfig {
            cluster: ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0),
            scheduler: "fifo".to_string(),
            max_slots: 1000,
            trace_capacity: 64,
            snapshot_path: None,
            pods: 0,
            placer: None,
        })
        .expect("config");
        let mut handled = 0;
        let status = "{\"req\":\"status\"}\n";
        let reply_len = handle_line(&mut session, status.trim_end()).0.len() + 1;
        let one_read = (READ_BYTES / status.len() + 1) * reply_len;

        // 2 MiB of requests: several times what the mark lets through.
        // The kernel's socket buffers hold what the daemon side has not
        // read yet, so the writer needs its own thread.
        let writer = std::thread::spawn(move || {
            let burst = status.repeat((2 << 20) / status.len());
            client.write_all(burst.as_bytes()).expect("send");
            client
        });
        let mut chunk = vec![0u8; READ_BYTES];
        let mut reads = 0;
        while conn.wants_read() {
            assert_eq!(
                conn.watch(),
                PollFd::new(&conn.stream, true, !conn.out.is_empty())
            );
            assert!(!conn.pump(&mut chunk, &mut session, &mut handled));
            assert!(!conn.dead && !conn.closing);
            reads += 1;
            assert!(reads < 10_000, "the mark is never reached");
        }
        assert_eq!(
            conn.watch(),
            PollFd::new(&conn.stream, false, true),
            "over the mark: polled for POLLOUT, not for POLLIN"
        );
        assert!(conn.out.len() > OUT_HIGH_WATER);
        assert!(
            conn.out.len() <= OUT_HIGH_WATER + one_read,
            "backlog {} exceeds the mark plus one read's replies ({one_read})",
            conn.out.len()
        );
        assert_eq!(conn.out.len() % reply_len, 0, "whole replies only");

        // The client collects: the backlog drains and reading resumes.
        let owed = conn.out.len();
        let reader = std::thread::spawn(move || {
            let mut client = writer.join().expect("writer");
            let mut got = vec![0u8; owed];
            client.read_exact(&mut got).expect("collect");
            got
        });
        // The daemon side is non-blocking in production; here a blocking
        // write stands in for the POLLOUT wakes.
        while !conn.out.is_empty() {
            conn.flush();
            assert!(!conn.dead);
        }
        assert!(conn.wants_read());
        let got = reader.join().expect("reader");
        assert!(got
            .chunks(reply_len)
            .all(|r| r.starts_with(b"{\"ok\":{\"phase\"")));
    }
}
