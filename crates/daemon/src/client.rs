//! A minimal blocking client for the `flowtimed` protocol, shared by the
//! CLI's `submit`/`status`/`drain` subcommands and the socket-level
//! tests.

use crate::protocol::codes;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A client-side failure: either transport trouble or a typed protocol
/// error relayed from the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect, send, or receive.
    Io(std::io::Error),
    /// The daemon's response was not a valid protocol response line.
    BadResponse(String),
    /// The daemon answered with `{"err": ...}`.
    Daemon {
        /// The typed error code (one of [`codes`]).
        code: String,
        /// Human-readable detail.
        detail: String,
        /// Machine-readable payload (e.g. the original sequence number
        /// carried by a `duplicate` reply), when the error has one.
        data: Option<Value>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::BadResponse(d) => write!(f, "unintelligible response: {d}"),
            ClientError::Daemon { code, detail, .. } => {
                write!(f, "daemon error [{code}]: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A persistent connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connection failure.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(ClientError::Io)?;
        // Strictly request/response with small lines: Nagle would only
        // ever hold a request back waiting for the peer's delayed ACK.
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure.
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        // One buffer, one write: a line split over two segments costs a
        // delayed-ACK round (≈40 ms on loopback) before the daemon sees
        // the newline.
        self.reader
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .map_err(ClientError::Io)?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(ClientError::Io)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends one request line and parses the response: the `ok` body on
    /// success, a typed [`ClientError::Daemon`] on a protocol error.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] variant.
    pub fn request(&mut self, line: &str) -> Result<Value, ClientError> {
        let response = self.request_line(line)?;
        parse_response(&response)
    }
}

/// Splits a raw response line into the `ok` body or a typed error.
///
/// # Errors
///
/// [`ClientError::BadResponse`] for lines that are not protocol
/// responses, [`ClientError::Daemon`] for `{"err": ...}` lines.
pub fn parse_response(line: &str) -> Result<Value, ClientError> {
    let value =
        serde_json::parse(line).map_err(|e| ClientError::BadResponse(format!("{e}: {line}")))?;
    if let Some(body) = value.get("ok") {
        return Ok(body.clone());
    }
    if let Some(err) = value.get("err") {
        let code = err
            .get("code")
            .and_then(Value::as_str)
            .unwrap_or(codes::ENGINE_ERROR)
            .to_string();
        let detail = err
            .get("detail")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let data = err.get("data").cloned();
        return Err(ClientError::Daemon { code, detail, data });
    }
    Err(ClientError::BadResponse(line.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, Session, SessionConfig};
    use flowtime_dag::ResourceVec;
    use flowtime_sim::ClusterConfig;
    use std::time::Instant;

    /// Against a real `serve` thread over loopback TCP: the connection
    /// runs with Nagle off, and sequential round trips cost what the
    /// event loop costs (about a millisecond), not a delayed ACK each —
    /// 50 of those would take over 2 s.
    #[test]
    fn connect_sets_nodelay_and_round_trips_stay_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let session = Session::new(SessionConfig {
                cluster: ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0),
                scheduler: "fifo".to_string(),
                max_slots: 100_000,
                trace_capacity: 1 << 12,
                snapshot_path: None,
                pods: 0,
                placer: None,
            })
            .expect("config");
            serve(listener, session, None).expect("server runs");
        });
        let mut client = Client::connect(&addr).expect("connect");
        assert!(client.reader.get_ref().nodelay().expect("nodelay"));
        let t0 = Instant::now();
        for _ in 0..50 {
            client.request("{\"req\":\"status\"}").expect("status");
        }
        let elapsed = t0.elapsed();
        client.request("{\"req\":\"shutdown\"}").expect("shutdown");
        server.join().expect("server thread");
        assert!(
            elapsed < Duration::from_secs(1),
            "50 status round trips took {elapsed:?}"
        );
    }

    #[test]
    fn parse_response_splits_ok_and_err() {
        let ok = parse_response("{\"ok\":{\"now\":4}}").unwrap();
        assert_eq!(
            ok.get("now").and_then(|v| match v {
                Value::U64(n) => Some(*n),
                _ => None,
            }),
            Some(4)
        );
        match parse_response("{\"err\":{\"code\":\"late-arrival\",\"detail\":\"x\"}}") {
            Err(ClientError::Daemon { code, .. }) => assert_eq!(code, "late-arrival"),
            other => panic!("expected daemon error, got {other:?}"),
        }
        assert!(matches!(
            parse_response("not json"),
            Err(ClientError::BadResponse(_))
        ));
        assert!(matches!(
            parse_response("{\"neither\":1}"),
            Err(ClientError::BadResponse(_))
        ));
    }
}
