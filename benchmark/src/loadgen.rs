//! The load generator: one thread, non-blocking pipelined connections.
//!
//! A phase is a list of operations, each bound to a connection and — in an
//! open loop — to the instant it is due. The open loop sends on schedule
//! whatever the server does and times every reply from the instant its
//! request was *due*, so a stall is charged to every request queued behind
//! it; how late the generator itself ran is reported next to the
//! latencies. The closed loop keeps a fixed window of requests outstanding
//! per connection and measures the rate the server accepts.
//!
//! The bookkeeping ([`Ledger`]) is separate from the sockets so it can be
//! driven by a scripted clock in tests.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request of a phase. `line` indexes the phase's request lines
/// (each already terminated by a newline, so a send is one write).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub conn: usize,
    pub line: usize,
    /// Offset from the phase start at which the request is due; 0 in a
    /// closed loop, where the window paces the sends.
    pub due_ns: u64,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Done {
    pub sent_ns: u64,
    pub reply_ns: u64,
    pub ok: bool,
}

/// Send/reply accounting of one phase, independent of any socket.
pub struct Ledger<'a> {
    ops: &'a [Op],
    /// `None` = open loop (send when due); `Some(w)` = at most `w`
    /// requests outstanding per connection.
    window: Option<usize>,
    /// Per connection: operations not yet sent, in order.
    queued: Vec<VecDeque<usize>>,
    /// Per connection: operations sent and awaiting their reply, in order
    /// (the protocol answers each connection's lines first-in first-out).
    outstanding: Vec<VecDeque<usize>>,
    pub done: Vec<Done>,
    replies: usize,
}

impl<'a> Ledger<'a> {
    pub fn new(ops: &'a [Op], conns: usize, window: Option<usize>) -> Self {
        let mut queued = vec![VecDeque::new(); conns];
        for (i, op) in ops.iter().enumerate() {
            queued[op.conn].push_back(i);
        }
        Ledger {
            ops,
            window,
            queued,
            outstanding: vec![VecDeque::new(); conns],
            done: vec![Done::default(); ops.len()],
            replies: 0,
        }
    }

    /// The next operation `conn` may send at `now_ns`, if any: the head of
    /// its queue, once due and inside the window.
    pub fn sendable(&self, conn: usize, now_ns: u64) -> Option<usize> {
        let &head = self.queued[conn].front()?;
        let in_window = self.window.is_none_or(|w| self.outstanding[conn].len() < w);
        (in_window && self.ops[head].due_ns <= now_ns).then_some(head)
    }

    /// Records that the head of `conn`'s queue went out at `now_ns`.
    pub fn sent(&mut self, conn: usize, now_ns: u64) {
        let op = self.queued[conn].pop_front().expect("sendable() said so");
        self.done[op].sent_ns = now_ns;
        self.outstanding[conn].push_back(op);
    }

    /// Records a reply line arriving on `conn` at `now_ns`. A reply with
    /// no request outstanding is ignored (and leaves `finished` false).
    pub fn reply(&mut self, conn: usize, now_ns: u64, line: &[u8]) {
        let Some(op) = self.outstanding[conn].pop_front() else {
            return;
        };
        self.done[op].reply_ns = now_ns;
        self.done[op].ok = line.starts_with(b"{\"ok\":");
        self.replies += 1;
    }

    pub fn finished(&self) -> bool {
        self.replies == self.ops.len()
    }

    /// Reply time minus due time, per operation, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&self.done)
            .map(|(op, d)| d.reply_ns.saturating_sub(op.due_ns) as f64 / 1e6)
            .collect()
    }

    /// The longest any request left after it was due, in milliseconds:
    /// how late the generator ran.
    pub fn max_lateness_ms(&self) -> f64 {
        self.ops
            .iter()
            .zip(&self.done)
            .map(|(op, d)| d.sent_ns.saturating_sub(op.due_ns) as f64 / 1e6)
            .fold(0.0, f64::max)
    }

    pub fn failures(&self) -> u64 {
        self.done.iter().filter(|d| !d.ok).count() as u64
    }
}

/// The unsigned integer following `key` in a reply line, if present.
pub fn field_u64(line: &[u8], key: &[u8]) -> Option<u64> {
    let at = line.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: &[u8] = &line[at..];
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// Evenly spaced due times: request `k` of a stream at `rate_per_s` is due
/// `k / rate` after the phase starts.
pub fn due_ns(k: usize, rate_per_s: f64) -> u64 {
    (k as f64 * 1e9 / rate_per_s) as u64
}

/// A non-blocking connection with its partial-line read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    /// Bytes of the current line already written, when a write was cut
    /// short by a full socket buffer.
    written: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
            written: 0,
        })
    }

    /// Tries to write the whole line; `false` means the socket buffer is
    /// full and the same line must be offered again.
    fn try_send(&mut self, line: &[u8]) -> std::io::Result<bool> {
        while self.written < line.len() {
            match self.stream.write(&line[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.written = 0;
        Ok(true)
    }

    /// Reads what is there and hands every complete line to `on_line`.
    /// Returns whether any byte arrived.
    fn poll(&mut self, mut on_line: impl FnMut(&[u8])) -> std::io::Result<bool> {
        let mut progress = false;
        let mut chunk = [0u8; 65536];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut start = 0;
        while let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + pos;
            on_line(&self.buf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        // The remainder holds no newline: never search it again.
        self.scanned = self.buf.len() - start;
        self.buf.drain(..start);
        Ok(progress)
    }

    /// One closed-loop request: send the line, wait for its reply line.
    pub fn request(&mut self, line: &str, timeout: Duration) -> std::io::Result<Vec<u8>> {
        let start = Instant::now();
        while !self.try_send(line.as_bytes())? {
            std::hint::spin_loop();
        }
        let mut reply = None;
        loop {
            self.poll(|l| {
                reply.get_or_insert_with(|| l.to_vec());
            })?;
            if let Some(reply) = reply.take() {
                return Ok(reply);
            }
            let waited = start.elapsed();
            if waited > timeout {
                return Err(ErrorKind::TimedOut.into());
            }
            // A reply this late (a drain, a recovery) is timed in seconds:
            // stop spinning and leave the core to whoever else wants it.
            if waited > Duration::from_millis(5) {
                std::thread::sleep(Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Runs one phase to completion over real connections and returns its
/// ledger. Requests still unanswered after `timeout` stay `ok = false`.
pub fn drive<'a>(
    conns: &mut [Conn],
    lines: &[String],
    ops: &'a [Op],
    window: Option<usize>,
    timeout: Duration,
) -> std::io::Result<Ledger<'a>> {
    let mut ledger = Ledger::new(ops, conns.len(), window);
    let start = Instant::now();
    let now_ns = |start: Instant| start.elapsed().as_nanos() as u64;
    while !ledger.finished() {
        let mut progress = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            // Bounded batch per pass so replies keep being read.
            for _ in 0..64 {
                let Some(op) = ledger.sendable(c, now_ns(start)) else {
                    break;
                };
                if !conn.try_send(lines[ops[op].line].as_bytes())? {
                    break;
                }
                ledger.sent(c, now_ns(start));
                progress = true;
            }
            progress |= conn.poll(|line| ledger.reply(c, now_ns(start), line))?;
        }
        if progress {
            continue;
        }
        if start.elapsed() > timeout {
            break;
        }
        // Poll rather than sleep: on the reference host a sleep overshoots
        // by up to a millisecond, which an open loop would book as latency.
        // Yielding hands this core to whatever else wants to run, so that
        // on two cores a third party displaces the generator and not the
        // daemon under test.
        std::hint::spin_loop();
    }
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = b"{\"ok\":{\"sub\":12,\"arrival\":3,\"jobs\":1}}";

    #[test]
    fn open_loop_times_replies_from_the_due_instant() {
        // Three requests due at 0, 1 ms, 2 ms on one connection.
        let ops: Vec<Op> = (0..3)
            .map(|k| Op {
                conn: 0,
                line: k,
                due_ns: due_ns(k, 1000.0),
            })
            .collect();
        let mut l = Ledger::new(&ops, 1, None);
        // At t=0 only the first is due.
        assert_eq!(l.sendable(0, 0), Some(0));
        l.sent(0, 0);
        assert_eq!(l.sendable(0, 500_000), None);
        // The generator stalls until t=2.5 ms: both remaining requests
        // are due and go out late, back to back.
        assert_eq!(l.sendable(0, 2_500_000), Some(1));
        l.sent(0, 2_500_000);
        assert_eq!(l.sendable(0, 2_600_000), Some(2));
        l.sent(0, 2_600_000);
        // Replies come back in order at 3, 3.2 and 3.4 ms.
        l.reply(0, 3_000_000, OK);
        l.reply(0, 3_200_000, OK);
        l.reply(
            0,
            3_400_000,
            b"{\"err\":{\"code\":\"late-arrival\",\"detail\":\"x\"}}",
        );
        assert!(l.finished());
        // Latency counts from the due time, not the (late) send time.
        let lat = l.latencies_ms();
        assert!((lat[0] - 3.0).abs() < 1e-9);
        assert!((lat[1] - 2.2).abs() < 1e-9);
        assert!((lat[2] - 1.4).abs() < 1e-9);
        // The second request left 1.5 ms after it was due.
        assert!((l.max_lateness_ms() - 1.5).abs() < 1e-9);
        assert_eq!(l.failures(), 1);
        assert!(l.done[0].ok && !l.done[2].ok);
    }

    #[test]
    fn closed_loop_keeps_the_window_per_connection() {
        let ops: Vec<Op> = (0..6)
            .map(|k| Op {
                conn: k % 2,
                line: k,
                due_ns: 0,
            })
            .collect();
        let mut l = Ledger::new(&ops, 2, Some(2));
        for c in 0..2 {
            assert!(l.sendable(c, 0).is_some());
            l.sent(c, 10);
            assert!(l.sendable(c, 0).is_some());
            l.sent(c, 20);
            // Window of two is full.
            assert_eq!(l.sendable(c, 1_000), None);
        }
        // A reply on connection 1 reopens only connection 1's window.
        l.reply(1, 30, OK);
        assert_eq!(l.sendable(0, 40), None);
        assert_eq!(l.sendable(1, 40), Some(5));
        // A stray reply with nothing outstanding is ignored.
        let mut empty = Ledger::new(&ops[..0], 1, None);
        empty.reply(0, 5, OK);
        assert!(empty.finished());
    }

    #[test]
    fn reply_fields_parse() {
        assert_eq!(field_u64(OK, b"\"sub\":"), Some(12));
        assert_eq!(
            field_u64(b"{\"ok\":{\"logged\":41000}}", b"\"logged\":"),
            Some(41000)
        );
        assert_eq!(field_u64(b"{\"ok\":{}}", b"\"sub\":"), None);
    }
}
