//! Crash-recovery snapshots for daemon sessions.
//!
//! # Format (`flowtime-snapshot-v1`)
//!
//! A snapshot file is exactly two lines:
//!
//! ```text
//! flowtime-snapshot-v1 fnv1a=<16 lowercase hex digits>
//! {"config":...,"log":...,"now":N,"next_seq":M}
//! ```
//!
//! Line 1 is the magic header carrying an FNV-1a 64-bit checksum of line
//! 2's exact bytes (newline excluded). Line 2 is the serde form of
//! [`SnapshotBody`]. The body deliberately contains **no engine state**:
//! because a session is a deterministic function of its submission log
//! and virtual clock, restoring replays the log through a fresh engine
//! and advances to `now` — byte-identical recovery from first
//! principles, with the checksum catching torn or tampered files before
//! any replay work happens.

use crate::framing;
pub use crate::framing::fnv1a;
use crate::session::SessionConfig;
use flowtime_sim::serde_skip::zero_u64;
use flowtime_sim::SubmissionLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Magic prefix of a valid snapshot header line.
pub const MAGIC: &str = "flowtime-snapshot-v1";

/// Everything needed to rebuild a session deterministically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotBody {
    /// Session parameters (cluster, scheduler, horizon, trace capacity).
    pub config: SessionConfig,
    /// The full submission log, cancellations included.
    pub log: SubmissionLog,
    /// Virtual slot the session had reached when the snapshot was taken.
    pub now: u64,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// First WAL segment *not* covered by this snapshot (0 for a body
    /// saved outside a WAL directory; skipped then, so such bytes keep
    /// their pre-WAL form).
    #[serde(default, skip_serializing_if = "zero_u64")]
    pub wal_segment: u64,
    /// Idempotency keys already seen → the sequence number each was
    /// assigned. Skipped when empty.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub request_ids: BTreeMap<String, u64>,
}

/// Why a snapshot could not be loaded. Each variant maps onto one typed
/// protocol error code.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not a two-line `flowtime-snapshot-v1` document.
    Format(String),
    /// The body bytes do not match the header checksum.
    Checksum { expected: u64, actual: u64 },
    /// The body is well-framed but not a valid [`SnapshotBody`].
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Format(d) => write!(f, "snapshot format error: {d}"),
            SnapshotError::Checksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:016x}, body hashes to {actual:016x}"
            ),
            SnapshotError::Parse(d) => write!(f, "snapshot body error: {d}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Renders `body` as the two-line document and lands it at `path`
/// atomically: `write` puts the bytes into a sibling temp file and makes
/// them durable, then the temp file is renamed over `path`. The writer is
/// the only difference between [`save`] (a plain file write, what tests
/// and the benchmark call) and a WAL compaction point (which writes
/// through its fault plan), so both are framed identically. Returns the
/// document's byte length.
///
/// # Errors
///
/// [`SnapshotError::Io`] or [`SnapshotError::Parse`] (serialization).
pub(crate) fn save_with(
    path: &Path,
    body: &SnapshotBody,
    write: impl FnOnce(&Path, &[u8]) -> io::Result<()>,
) -> Result<u64, SnapshotError> {
    let json = serde_json::to_string(body).map_err(|e| SnapshotError::Parse(e.to_string()))?;
    let contents = framing::frame_document(MAGIC, &json);
    let tmp = path.with_extension("tmp");
    write(&tmp, contents.as_bytes()).map_err(SnapshotError::Io)?;
    fs::rename(&tmp, path).map_err(SnapshotError::Io)?;
    Ok(contents.len() as u64)
}

/// Serializes `body` to `path` atomically (write temp file, then rename)
/// and returns the byte length written.
///
/// # Errors
///
/// [`SnapshotError::Io`] or [`SnapshotError::Parse`] (serialization).
pub fn save(path: impl AsRef<Path>, body: &SnapshotBody) -> Result<u64, SnapshotError> {
    save_with(path.as_ref(), body, |tmp, bytes| {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })
}

/// Loads and validates a snapshot file.
///
/// # Errors
///
/// Any [`SnapshotError`] variant; corruption is always a typed error,
/// never a panic or a silently-wrong session.
pub fn load(path: impl AsRef<Path>) -> Result<SnapshotBody, SnapshotError> {
    let contents = fs::read_to_string(path.as_ref()).map_err(SnapshotError::Io)?;
    let body_line = framing::unframe_document(MAGIC, &contents)?;
    let value = serde_json::parse(body_line).map_err(|e| SnapshotError::Parse(e.to_string()))?;
    serde_json::from_value(&value).map_err(|e| SnapshotError::Parse(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::ResourceVec;
    use flowtime_sim::ClusterConfig;

    fn body() -> SnapshotBody {
        SnapshotBody {
            config: SessionConfig {
                cluster: ClusterConfig::new(ResourceVec::new([8, 65536]), 10.0),
                scheduler: "flowtime".to_string(),
                max_slots: 1000,
                trace_capacity: 64,
                snapshot_path: None,
                pods: 0,
                placer: None,
            },
            log: SubmissionLog::new(),
            now: 17,
            next_seq: 3,
            wal_segment: 0,
            request_ids: BTreeMap::new(),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("flowtime-snap-test-rt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        save(&path, &body()).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.now, 17);
        assert_eq!(loaded.next_seq, 3);
        assert_eq!(loaded.config, body().config);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let dir = std::env::temp_dir().join("flowtime-snap-test-bad");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        save(&path, &body()).unwrap();

        // Flip a byte in the body: checksum mismatch.
        let good = fs::read_to_string(&path).unwrap();
        fs::write(&path, good.replace("\"now\":17", "\"now\":18")).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Checksum { .. })));

        // Mangle the header: format error.
        fs::write(
            &path,
            format!("not-a-snapshot\n{}", good.lines().nth(1).unwrap()),
        )
        .unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Format(_))));

        // Truncate to one line: format error.
        fs::write(&path, good.lines().next().unwrap()).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Format(_))));

        // Missing file: io error.
        assert!(matches!(
            load(dir.join("absent.snap")),
            Err(SnapshotError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
