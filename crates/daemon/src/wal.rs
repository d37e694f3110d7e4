//! Crash-consistent write-ahead log for daemon sessions.
//!
//! # Format (`flowtime-wal-v1`)
//!
//! A WAL directory holds numbered **segments** (`wal-000001.log`,
//! `wal-000002.log`, ...) and **snapshots** (`snap-000001.snap`, named
//! after the segment they sealed). Each segment begins with a one-line
//! header:
//!
//! ```text
//! flowtime-wal-v1 segment=000001
//! ```
//!
//! followed by length-prefixed, checksummed NDJSON records in the
//! [`crate::framing`] record grammar (`<len> <fnv1a 16 hex> <json>\n`),
//! which is self-synchronizing from the front only — recovery reads
//! records in order and stops at the first defect. In the **final**
//! segment a defect is a *torn tail*
//! (the crash window): the file is truncated back to the last
//! checksum-valid record and recovery proceeds, reporting what was
//! dropped. A defect in any earlier segment can only be real corruption
//! of already-sealed history and is a typed [`WalError::Corrupt`], never
//! a silent truncation and never a panic.
//!
//! # Records and durability ordering
//!
//! Every state-changing request a [`crate::Session`] accepts —
//! submissions, cancellations, ticks, the drain — is appended here
//! **before** the session mutates its in-memory state and before the
//! reply is written. A reply therefore implies durability (under the
//! configured [`FsyncPolicy`]); a crash can only lose requests that were
//! never acknowledged. Segment 1 opens with a [`WalRecord::Genesis`]
//! carrying the session config, so a WAL with no snapshot is still
//! self-contained.
//!
//! # Snapshots as compaction points
//!
//! A snapshot seals the current segment: the segment is fsynced, the
//! snapshot (whose body records `wal_segment`, the first segment *not*
//! covered by it) is written and **self-checked** by re-loading it, a
//! [`WalRecord::Seal`] is appended, and a fresh segment is opened.
//! Recovery = newest valid snapshot + replay of the segments from
//! `wal_segment` on. Only after a newer snapshot passes its self-check
//! are older snapshots and the segments they cover pruned (keeping
//! [`WalConfig::keep_snapshots`] generations).
//!
//! # Fault injection
//!
//! [`DiskFaultPlan`] wraps every file handle the WAL (and its snapshots)
//! writes through, injecting short writes, `WouldBlock`/`Interrupted`,
//! checksum-corrupting bit flips, disk-full failures, and seeded
//! mid-write crashes at deterministic byte offsets — the substrate of
//! the `daemon_wal` crash corpus and the CI chaos matrix.

use crate::framing;
use crate::protocol::{codes, ProtocolError};
use crate::snapshot::{self, SnapshotBody, SnapshotError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::{self, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Magic prefix of every segment header line.
pub const MAGIC: &str = "flowtime-wal-v1";

/// When to force appended records onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged request survives
    /// power loss. The durability default.
    #[default]
    Always,
    /// `fsync` every N appends: bounded loss window (at most N-1
    /// acknowledged requests) in exchange for amortized sync cost.
    Batch(u64),
    /// Never `fsync`: survives process death (`kill -9`) but not power
    /// loss. `durability=none` must be an explicit operator choice.
    None,
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::None => write!(f, "none"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "none" => Ok(FsyncPolicy::None),
            other => match other.strip_prefix("batch:") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::Batch(n)),
                    _ => Err(format!("batch fsync interval must be >= 1, got `{n}`")),
                },
                None => Err(format!(
                    "fsync policy must be `always`, `batch:N`, or `none`, got `{other}`"
                )),
            },
        }
    }
}

/// Static WAL parameters. Not persisted — recovery is handed the same
/// config the daemon was started with, and the recorded artifacts
/// (genesis record, snapshots) carry the session config.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and snapshots. Created if absent.
    pub dir: PathBuf,
    /// Sync policy for appends.
    pub fsync: FsyncPolicy,
    /// Snapshot generations to retain (>= 1). Older snapshots and the
    /// segments they cover are pruned after a newer snapshot
    /// self-checks.
    pub keep_snapshots: u64,
    /// Rotate to a fresh segment after this many records even without a
    /// snapshot (0 disables size-based rotation; snapshots always
    /// rotate).
    pub segment_max_records: u64,
    /// Deterministic process-abort point for the kill-9 chaos harness:
    /// abort during append number `after_appends` (1-based), after
    /// writing `torn_bytes` bytes of it (`None` = after the full append
    /// and its sync — a crash *between* requests).
    pub chaos_kill: Option<ChaosKill>,
}

impl WalConfig {
    /// A config with the durable defaults: `fsync=always`, two snapshot
    /// generations, 65536-record segments, no chaos.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            keep_snapshots: 2,
            segment_max_records: 65_536,
            chaos_kill: None,
        }
    }
}

/// A real-process crash point (see [`WalConfig::chaos_kill`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosKill {
    /// Abort during this append (1-based count of appends).
    pub after_appends: u64,
    /// Bytes of the record to write before aborting; `None` aborts
    /// after the append completes (and syncs).
    pub torn_bytes: Option<u64>,
}

impl std::str::FromStr for ChaosKill {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let number = |field: &str| {
            let bad = |_| format!("chaos kill point must be N or N:BYTES, got `{s}`");
            field.parse::<u64>().map_err(bad)
        };
        let (n, bytes) = s.split_once(':').map_or((s, None), |(n, b)| (n, Some(b)));
        let after_appends = number(n)?;
        let torn_bytes = bytes.map(number).transpose()?;
        if after_appends == 0 {
            return Err("chaos kill append count is 1-based; 0 never fires".to_string());
        }
        Ok(ChaosKill {
            after_appends,
            torn_bytes,
        })
    }
}

/// One durable record. `Entry` wraps the sim crate's [`LogEntry`] —
/// submissions *and* cancels — exactly as the session's replayable
/// [`flowtime_sim::SubmissionLog`] stores them, plus the client's
/// idempotency key so the dedup table survives restart-replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// First record of segment 1: the session config a no-snapshot
    /// recovery rebuilds from.
    Genesis {
        /// The session parameters.
        config: crate::session::SessionConfig,
    },
    /// An accepted submission-affecting request.
    Entry {
        /// The accepted influence (workflow, ad-hoc, or cancel).
        entry: flowtime_sim::LogEntry,
        /// Client-supplied idempotency key, if any.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        request_id: Option<String>,
    },
    /// An accepted clock advance (`tick` request).
    Tick {
        /// Target virtual slot.
        to: u64,
    },
    /// The session was drained; replay re-drains deterministically.
    Drain {
        /// Virtual slot at the time of the drain request.
        at: u64,
    },
    /// A snapshot sealed this segment; everything before this record is
    /// covered by the snapshot whose body says `wal_segment ==
    /// next_segment`.
    Seal {
        /// The segment opened after this seal.
        next_segment: u64,
    },
}

/// Why a WAL operation failed. Every variant maps onto a typed protocol
/// error code (`wal-io` / `wal-corrupt`); nothing in this module panics
/// on bad input or bad disks.
#[derive(Debug)]
pub enum WalError {
    /// An I/O failure (including injected faults).
    Io(io::Error),
    /// A previous append failed and could not be rolled back; the WAL
    /// refuses further appends rather than write after a torn tail.
    Poisoned(String),
    /// Sealed history failed validation — a defect *not* in the crash
    /// window.
    Corrupt {
        /// Segment the defect was found in.
        segment: u64,
        /// Byte offset of the defect within the segment.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The directory layout or a replayed record is structurally
    /// invalid.
    Format(String),
    /// A record failed to serialize or deserialize.
    Serde(String),
    /// Snapshot read/write/validation failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Poisoned(d) => write!(f, "wal poisoned by an earlier failure: {d}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal corrupt: segment {segment} offset {offset}: {detail}"
            ),
            WalError::Format(d) => write!(f, "wal format error: {d}"),
            WalError::Serde(d) => write!(f, "wal record error: {d}"),
            WalError::Snapshot(e) => write!(f, "wal snapshot error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Maps onto the protocol's typed error catalogue.
impl From<WalError> for ProtocolError {
    fn from(e: WalError) -> Self {
        let code = match &e {
            WalError::Corrupt { .. } | WalError::Format(_) | WalError::Serde(_) => {
                codes::WAL_CORRUPT
            }
            WalError::Snapshot(inner) => {
                return ProtocolError::new(codes::SNAPSHOT_CORRUPT, inner.to_string())
            }
            WalError::Io(_) | WalError::Poisoned(_) => codes::WAL_IO,
        };
        ProtocolError::new(code, e.to_string())
    }
}

// ------------------------------------------------------------------ faults

/// What to inject when a planned fault fires.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// The write succeeds but moves fewer bytes than asked — exercises
    /// the append loop's continuation.
    ShortWrite,
    /// The write fails with [`ErrorKind::WouldBlock`]; the WAL retries.
    WouldBlock,
    /// The write fails with [`ErrorKind::Interrupted`]; the WAL retries.
    Interrupted,
    /// The write "succeeds" but a bit is flipped on the way to disk —
    /// detected later by the per-record checksum.
    BitFlip {
        /// Which bit of the affected byte to flip.
        bit: u8,
    },
    /// The write fails like a full disk. The append rolls back; the
    /// session reports a typed `wal-io` error and stays consistent.
    DiskFull,
    /// The next `fsync` at or past this byte offset fails; the bytes
    /// already written stay in the file. Exercises the append path's
    /// sync-failure rollback (a rejected request must not be replayed
    /// after a process-only crash).
    FsyncFail,
    /// Simulated `kill -9` mid-write: `keep` bytes of the buffer reach
    /// the file, every later operation on any handle fails. With
    /// `lose_unsynced`, bytes written since the last fsync vanish too
    /// (the power-loss model for `batch`/`none` fsync policies).
    Crash {
        /// Bytes of the current buffer that survive.
        keep: u64,
        /// Whether unsynced earlier bytes are lost as well.
        lose_unsynced: bool,
    },
}

/// One planned fault, triggered when cumulative bytes written through
/// the plan (WAL segments and snapshots alike) reach `at_byte`.
#[derive(Debug, Clone, Copy)]
pub struct PlannedFault {
    /// Cumulative byte offset the fault arms at.
    pub at_byte: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, deterministic I/O fault schedule. Wraps every file handle
/// the WAL opens; faults fire at planned byte offsets in write order.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultPlan {
    /// Faults in ascending `at_byte` order (sorted on build).
    pub faults: Vec<PlannedFault>,
}

impl DiskFaultPlan {
    /// A plan with one fault.
    pub fn single(at_byte: u64, kind: FaultKind) -> Self {
        DiskFaultPlan {
            faults: vec![PlannedFault { at_byte, kind }],
        }
    }

    /// A seeded mixed plan of transient faults (short writes,
    /// `WouldBlock`, `Interrupted`) spread over roughly `span` bytes —
    /// none fatal, so a run under this plan must behave identically to
    /// a clean one.
    pub fn transient(seed: u64, span: u64) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut faults = Vec::new();
        let mut at = 0u64;
        loop {
            at += 64 + splitmix(&mut state) % (span / 8).max(64);
            if at >= span {
                break;
            }
            let kind = match splitmix(&mut state) % 3 {
                0 => FaultKind::ShortWrite,
                1 => FaultKind::WouldBlock,
                _ => FaultKind::Interrupted,
            };
            faults.push(PlannedFault { at_byte: at, kind });
        }
        DiskFaultPlan { faults }
    }

    fn into_state(mut self) -> SharedFaults {
        self.faults.sort_by_key(|f| f.at_byte);
        Arc::new(Mutex::new(FaultState {
            plan: self.faults,
            next: 0,
            bytes_written: 0,
            crashed: false,
            injected: Vec::new(),
        }))
    }
}

/// Splitmix64 — the repo's stock seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared mutable fault-plan state (one per recovered/created WAL).
#[derive(Debug)]
struct FaultState {
    plan: Vec<PlannedFault>,
    next: usize,
    bytes_written: u64,
    crashed: bool,
    injected: Vec<String>,
}

/// The armed plan shared by every handle of one WAL.
type SharedFaults = Arc<Mutex<FaultState>>;

/// Locks the plan. It is plain counters, valid at every instruction
/// boundary, so a lock poisoned by a panicking holder is still usable.
fn lock(faults: &SharedFaults) -> MutexGuard<'_, FaultState> {
    faults.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A writable file routed through the fault plan (when one is armed).
struct FaultableFile {
    file: fs::File,
    faults: Option<SharedFaults>,
    /// Bytes of this file known to be on stable storage (fsync'd).
    synced_len: u64,
    /// Bytes written to this file.
    written_len: u64,
}

impl FaultableFile {
    fn create(path: &Path, faults: Option<SharedFaults>) -> io::Result<Self> {
        check_crashed(&faults)?;
        Ok(FaultableFile {
            file: fs::File::create(path)?,
            faults,
            synced_len: 0,
            written_len: 0,
        })
    }

    /// Writes through to the file, counting what it accepted.
    fn write_through(&mut self, st: Option<&mut FaultState>, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.written_len += n as u64;
        if let Some(st) = st {
            st.bytes_written += n as u64;
        }
        Ok(n)
    }

    /// One write step: consults the fault plan, then writes. Returns
    /// the number of bytes accepted.
    fn write_step(&mut self, buf: &[u8]) -> io::Result<usize> {
        check_crashed(&self.faults)?;
        let Some(faults) = self.faults.clone() else {
            return self.write_through(None, buf);
        };
        let mut st = lock(&faults);
        // Sync-time faults are consumed by `sync`, not here.
        let fault = match st.plan.get(st.next) {
            Some(f)
                if !matches!(f.kind, FaultKind::FsyncFail)
                    && st.bytes_written + buf.len() as u64 > f.at_byte =>
            {
                *f
            }
            _ => return self.write_through(Some(&mut st), buf),
        };
        st.next += 1;
        match fault.kind {
            FaultKind::ShortWrite => {
                let n = ((fault.at_byte - st.bytes_written) as usize).clamp(1, buf.len());
                st.injected.push(format!("short-write@{}", fault.at_byte));
                self.write_through(Some(&mut st), &buf[..n])
            }
            FaultKind::WouldBlock => {
                st.injected.push(format!("would-block@{}", fault.at_byte));
                Err(io::Error::new(ErrorKind::WouldBlock, "injected WouldBlock"))
            }
            FaultKind::Interrupted => {
                st.injected.push(format!("interrupted@{}", fault.at_byte));
                Err(io::Error::new(
                    ErrorKind::Interrupted,
                    "injected Interrupted",
                ))
            }
            FaultKind::BitFlip { bit } => {
                let mut corrupted = buf.to_vec();
                let idx = ((fault.at_byte - st.bytes_written) as usize).min(buf.len() - 1);
                corrupted[idx] ^= 1u8 << (bit % 8);
                let note = format!("bit-flip@{}+{idx}", st.bytes_written);
                st.injected.push(note);
                self.file.write_all(&corrupted)?;
                st.bytes_written += corrupted.len() as u64;
                self.written_len += corrupted.len() as u64;
                Ok(buf.len())
            }
            // Matched out above; listed so the match stays exhaustive.
            FaultKind::FsyncFail => self.write_through(Some(&mut st), buf),
            FaultKind::DiskFull => {
                st.injected.push(format!("disk-full@{}", fault.at_byte));
                Err(io::Error::other("injected disk full (ENOSPC)"))
            }
            FaultKind::Crash {
                keep,
                lose_unsynced,
            } => {
                st.crashed = true;
                if lose_unsynced {
                    let note = format!("crash@{} (unsynced tail lost)", st.bytes_written);
                    st.injected.push(note);
                    let _ = self.file.set_len(self.synced_len);
                } else {
                    let keep = (keep as usize).min(buf.len());
                    let note = format!("crash@{} (torn, kept {keep})", st.bytes_written);
                    st.injected.push(note);
                    let _ = self.file.write_all(&buf[..keep]);
                    let _ = self.file.sync_all();
                }
                Err(io::Error::other("chaos: simulated crash mid-write"))
            }
        }
    }

    /// Writes the whole buffer, continuing through short writes and
    /// retrying transient `WouldBlock`/`Interrupted` failures (bounded,
    /// so a genuinely stuck file still errors out).
    fn write_all_retry(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut off = 0;
        let mut transient_retries = 0u32;
        while off < buf.len() {
            match self.write_step(&buf[off..]) {
                Ok(0) => return Err(io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => off += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    transient_retries += 1;
                    if transient_retries > 1024 {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        check_crashed(&self.faults)?;
        if let Some(faults) = &self.faults {
            let mut st = lock(faults);
            let fires = st.plan.get(st.next).is_some_and(|f| {
                matches!(f.kind, FaultKind::FsyncFail) && st.bytes_written >= f.at_byte
            });
            if fires {
                let fault = st.plan[st.next];
                st.next += 1;
                st.injected.push(format!("fsync-fail@{}", fault.at_byte));
                return Err(io::Error::other("injected fsync failure"));
            }
        }
        self.file.sync_all()?;
        self.synced_len = self.written_len;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        check_crashed(&self.faults)?;
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.written_len = len;
        self.synced_len = self.synced_len.min(len);
        Ok(())
    }
}

fn check_crashed(faults: &Option<SharedFaults>) -> io::Result<()> {
    if let Some(f) = faults {
        if lock(f).crashed {
            return Err(io::Error::other("chaos: process is dead"));
        }
    }
    Ok(())
}

// ------------------------------------------------------------------- wal

/// Where recovery found a torn tail and what it dropped.
#[derive(Debug, Clone, Serialize)]
pub struct TailTruncation {
    /// Segment the defect was in (always the final one on disk).
    pub segment: u64,
    /// Byte offset the file was truncated back to.
    pub offset: u64,
    /// Bytes dropped beyond the last valid record.
    pub dropped_bytes: u64,
    /// What the defect was.
    pub defect: String,
}

/// What recovery did, for operators and for the chaos harness's
/// assertions.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryReport {
    /// True when the directory held no artifacts (fresh session).
    pub fresh: bool,
    /// Snapshot file used, if any.
    pub snapshot: Option<String>,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_rejected: Vec<String>,
    /// Segments whose records were replayed, in order.
    pub segments_replayed: Vec<u64>,
    /// Total records replayed (genesis and seals included).
    pub records_replayed: u64,
    /// Torn-tail truncation, if one happened.
    pub tail: Option<TailTruncation>,
}

/// The append half of the log. Created fresh by [`create`] or handed
/// back by [`recover_dir`] positioned on a new segment.
pub struct Wal {
    config: WalConfig,
    faults: Option<SharedFaults>,
    file: FaultableFile,
    segment: u64,
    segment_records: u64,
    appends: u64,
    unsynced: u64,
    poisoned: Option<String>,
    /// Appended and synced through this handle: what `status` reports.
    records: u64,
    bytes: u64,
    syncs: u64,
}

fn segment_path(dir: &Path, segment: u64) -> PathBuf {
    dir.join(format!("wal-{segment:06}.log"))
}

fn snapshot_file_path(dir: &Path, segment: u64) -> PathBuf {
    dir.join(format!("snap-{segment:06}.snap"))
}

fn segment_header(segment: u64) -> String {
    format!("{MAGIC} segment={segment:06}\n")
}

/// Creates a fresh WAL in an empty (or absent) directory, opening
/// segment 1. Fails if segments or snapshots already exist — recovery
/// of an existing directory must go through [`recover_dir`] so history
/// is never silently overwritten.
pub fn create(config: WalConfig, faults: Option<DiskFaultPlan>) -> Result<Wal, WalError> {
    fs::create_dir_all(&config.dir).map_err(WalError::Io)?;
    let (segments, snapshots) = scan_dir(&config.dir)?;
    if !segments.is_empty() || !snapshots.is_empty() {
        return Err(WalError::Format(format!(
            "{} already holds WAL artifacts; recover instead of creating",
            config.dir.display()
        )));
    }
    let faults = faults.map(DiskFaultPlan::into_state);
    open_segment(config, faults, 1)
}

/// Creates segment `segment`'s file with its header line synced.
fn create_segment_file(
    dir: &Path,
    faults: &Option<SharedFaults>,
    segment: u64,
) -> Result<FaultableFile, WalError> {
    let mut file =
        FaultableFile::create(&segment_path(dir, segment), faults.clone()).map_err(WalError::Io)?;
    file.write_all_retry(segment_header(segment).as_bytes())
        .map_err(WalError::Io)?;
    file.sync().map_err(WalError::Io)?;
    Ok(file)
}

fn open_segment(
    config: WalConfig,
    faults: Option<SharedFaults>,
    segment: u64,
) -> Result<Wal, WalError> {
    let file = create_segment_file(&config.dir, &faults, segment)?;
    Ok(Wal {
        config,
        faults,
        file,
        segment,
        segment_records: 0,
        appends: 0,
        unsynced: 0,
        poisoned: None,
        records: 0,
        bytes: 0,
        syncs: 0,
    })
}

impl Wal {
    /// The segment currently being appended to.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The `wal` object of a `status` reply: the segment appended to, and
    /// the records, `fsync`s and record bytes this process has put in the
    /// log. `syncs` against `records` is the group-commit ratio.
    pub fn status_json(&self) -> String {
        format!(
            "{{\"segment\":{},\"records\":{},\"syncs\":{},\"bytes\":{}}}",
            self.segment, self.records, self.syncs, self.bytes
        )
    }

    /// Human-readable log of injected faults so far (empty without a
    /// plan).
    pub fn injected_faults(&self) -> Vec<String> {
        match &self.faults {
            Some(f) => lock(f).injected.clone(),
            None => Vec::new(),
        }
    }

    /// Appends one record: [`Wal::append_all`] of a run of one.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Records the segment takes before it rotates. A caller that keeps
    /// its runs within this gets segment files that do not depend on how
    /// it grouped its records (a longer run overfills the segment).
    pub fn room(&self) -> usize {
        match self.config.segment_max_records {
            0 => usize::MAX,
            max => usize::try_from(max.saturating_sub(self.segment_records)).unwrap_or(usize::MAX),
        }
    }

    /// Appends a run of records — one `write`, one sync per the fsync
    /// policy — whole or not at all. On a write failure the partial tail
    /// is rolled back (truncated) so the next append starts on a clean
    /// boundary; if even the rollback fails the WAL poisons itself rather
    /// than ever append after a torn record. On a *sync* failure the fully
    /// written run is likewise rolled back (best effort) before the poison
    /// takes effect, so a request the client saw rejected is not replayed
    /// after a process-only crash.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Poisoned`]. The caller must treat
    /// any error as "not durable": every request of the run must be
    /// rejected, not acknowledged.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        if let Some(why) = &self.poisoned {
            return Err(WalError::Poisoned(why.clone()));
        }
        let mut lines = String::new();
        for record in records {
            let json = serde_json::to_string(record).map_err(|e| WalError::Serde(e.to_string()))?;
            let line = framing::frame_record(&json);
            self.appends += 1;
            if let Some(kill) = self.config.chaos_kill {
                if self.appends == kill.after_appends {
                    // The run's earlier records are on disk, as if alone.
                    let _ = self.file.write_all_retry(lines.as_bytes());
                    self.chaos_abort(&line, kill.torn_bytes);
                }
            }
            lines.push_str(&line);
        }
        let start = self.file.written_len;
        if let Err(e) = self.file.write_all_retry(lines.as_bytes()) {
            if self.file.truncate(start).is_err() {
                self.poisoned = Some(format!("append failed and rollback failed: {e}"));
            }
            return Err(WalError::Io(e));
        }
        let run = records.len() as u64;
        self.segment_records += run;
        self.unsynced += run;
        if let Err(e) = self.maybe_sync() {
            // The run's bytes are in the file but their durability
            // cannot be promised — `sync` has already poisoned the WAL.
            // Roll the run back so a process-only crash does not replay
            // requests the clients saw rejected; if the truncate fails
            // too the poison already refuses further appends.
            self.segment_records -= run;
            self.unsynced -= run;
            let _ = self.file.truncate(start);
            return Err(e);
        }
        self.records += run;
        self.bytes += lines.len() as u64;
        if self.room() == 0 {
            self.rotate()?;
        }
        Ok(())
    }

    /// The deterministic kill-9 point: writes the torn prefix (if any),
    /// forces it to disk, and aborts the process — no destructors, no
    /// flushes, exactly what the chaos harness's restart must recover
    /// from.
    fn chaos_abort(&mut self, line: &str, torn_bytes: Option<u64>) -> ! {
        if let Some(b) = torn_bytes {
            let keep = (b as usize).min(line.len());
            let _ = self.file.write_all_retry(&line.as_bytes()[..keep]);
        }
        let _ = self.file.sync();
        eprintln!(
            "flowtimed: chaos kill point reached (append {}, torn {:?}); aborting",
            self.appends, torn_bytes
        );
        std::process::abort();
    }

    fn maybe_sync(&mut self) -> Result<(), WalError> {
        let due = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(n) => self.unsynced >= n,
            FsyncPolicy::None => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far onto stable storage.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`]; a failed sync poisons the WAL (durability can
    /// no longer be promised for acknowledged requests).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(why) = &self.poisoned {
            return Err(WalError::Poisoned(why.clone()));
        }
        if let Err(e) = self.file.sync() {
            self.poisoned = Some(format!("fsync failed: {e}"));
            return Err(WalError::Io(e));
        }
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Seals the current segment and opens the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let next = self.segment + 1;
        self.file = create_segment_file(&self.config.dir, &self.faults, next)?;
        self.segment = next;
        self.segment_records = 0;
        Ok(())
    }

    /// Persists `body` as this WAL's next snapshot (compaction point):
    /// syncs the segment, writes `snap-<segment>.snap` atomically
    /// (through the fault plan), **self-checks it by re-loading**,
    /// appends a [`WalRecord::Seal`], rotates, and prunes old
    /// generations. Stamps `body.wal_segment` with the segment the tail
    /// continues in, so the snapshot and its seal cannot disagree. Returns
    /// the snapshot file and its byte length.
    ///
    /// # Errors
    ///
    /// Any [`WalError`]; on error no pruning has happened, so the
    /// previous snapshot and its tail remain a complete recovery line.
    pub fn save_snapshot(&mut self, mut body: SnapshotBody) -> Result<(PathBuf, u64), WalError> {
        body.wal_segment = self.segment + 1;
        self.sync()?;
        let path = snapshot_file_path(&self.config.dir, self.segment);
        let faults = &self.faults;
        let bytes = snapshot::save_with(&path, &body, |tmp, contents| {
            let mut f = FaultableFile::create(tmp, faults.clone())?;
            f.write_all_retry(contents)?;
            f.sync()?;
            check_crashed(faults)
        })
        .map_err(|e| match e {
            SnapshotError::Io(e) => WalError::Io(e),
            other => WalError::Snapshot(other),
        })?;
        // Self-check: a snapshot that does not load back bit-exactly is
        // no compaction point. Only after this may history be pruned.
        snapshot::load(&path).map_err(WalError::Snapshot)?;
        self.append(&WalRecord::Seal {
            next_segment: self.segment + 1,
        })?;
        self.rotate()?;
        self.prune()?;
        Ok((path, bytes))
    }

    /// Removes snapshot generations beyond `keep_snapshots` and every
    /// segment fully covered by the oldest retained snapshot — but only
    /// after re-validating the newest snapshot's checksum. A prune never
    /// deletes the only valid recovery line.
    fn prune(&mut self) -> Result<(), WalError> {
        let (segments, snapshots) = scan_dir(&self.config.dir)?;
        let keep = self.config.keep_snapshots.max(1) as usize;
        let (pruned, kept) = snapshots.split_at(snapshots.len().saturating_sub(keep));
        let (Some(&oldest_kept), Some(&newest)) = (kept.first(), kept.last()) else {
            return Ok(());
        };
        if pruned.is_empty() {
            return Ok(());
        }
        // Re-validate the newest before touching anything.
        if snapshot::load(snapshot_file_path(&self.config.dir, newest)).is_err() {
            return Err(WalError::Format(format!(
                "newest snapshot snap-{newest:06} failed its self-check; refusing to prune"
            )));
        }
        // The oldest retained snapshot covers segments < its wal_segment.
        let body = snapshot::load(snapshot_file_path(&self.config.dir, oldest_kept))
            .map_err(WalError::Snapshot)?;
        for &snap in pruned {
            fs::remove_file(snapshot_file_path(&self.config.dir, snap)).map_err(WalError::Io)?;
        }
        for &seg in &segments {
            if seg < body.wal_segment {
                fs::remove_file(segment_path(&self.config.dir, seg)).map_err(WalError::Io)?;
            }
        }
        Ok(())
    }
}

// -------------------------------------------------------------- recovery

/// Everything [`recover_dir`] hands back: the snapshot to restore from
/// (if any), the tail records to replay, the report, and a [`Wal`]
/// opened on a fresh segment for the recovered session's appends.
pub struct WalRecovered {
    /// Newest valid snapshot body, if one was usable.
    pub snapshot: Option<SnapshotBody>,
    /// Records to replay after the snapshot (from genesis when no
    /// snapshot was usable).
    pub tail: Vec<WalRecord>,
    /// What recovery did.
    pub report: RecoveryReport,
    /// The append handle, positioned on a brand-new segment.
    pub wal: Wal,
}

/// Lists `(segments, snapshots)` by number, ascending. Unknown files are
/// ignored (tmp files from torn snapshot writes included).
fn scan_dir(dir: &Path) -> Result<(Vec<u64>, Vec<u64>), WalError> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    if !dir.exists() {
        return Ok((segments, snapshots));
    }
    for entry in fs::read_dir(dir).map_err(WalError::Io)? {
        let entry = entry.map_err(WalError::Io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let numbered = |prefix: &str, suffix: &str| {
            let num = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            num.parse::<u64>().ok()
        };
        if let Some(n) = numbered("wal-", ".log") {
            segments.push(n);
        } else if let Some(n) = numbered("snap-", ".snap") {
            snapshots.push(n);
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();
    Ok((segments, snapshots))
}

/// One scanned segment: records plus where the valid prefix ends.
struct ScannedSegment {
    records: Vec<WalRecord>,
    valid_offset: u64,
    defect: Option<String>,
}

/// Parses the record at the head of `rest`: the framing grammar, then
/// the JSON it carries. Returns the record and the bytes it occupied.
fn parse_record(rest: &[u8]) -> Result<(WalRecord, usize), String> {
    let (json, used) = framing::unframe_record(rest)?;
    let record = serde_json::parse(json)
        .and_then(|v| serde_json::from_value(&v))
        .map_err(|e| format!("checksum-valid record failed to parse: {e}"))?;
    Ok((record, used))
}

/// Scans one segment's bytes front to back, stopping at the first
/// defect.
fn scan_segment(bytes: &[u8], segment: u64) -> ScannedSegment {
    let header = segment_header(segment);
    let mut scanned = ScannedSegment {
        records: Vec::new(),
        valid_offset: 0,
        defect: None,
    };
    if !bytes.starts_with(header.as_bytes()) {
        scanned.defect = Some("bad or torn segment header".to_string());
        return scanned;
    }
    let mut pos = header.len();
    while pos < bytes.len() && scanned.defect.is_none() {
        match parse_record(&bytes[pos..]) {
            Ok((record, used)) => {
                scanned.records.push(record);
                pos += used;
            }
            Err(defect) => scanned.defect = Some(defect),
        }
    }
    scanned.valid_offset = pos as u64;
    scanned
}

/// Recovers a WAL directory: picks the newest snapshot that validates
/// *and* whose tail segments are all present, scans the tail segments
/// (truncating a torn final segment at the last valid record), and
/// opens a fresh segment for further appends. An empty directory yields
/// a fresh WAL (`report.fresh`).
///
/// # Errors
///
/// [`WalError::Corrupt`] for defects outside the crash window (sealed
/// history), [`WalError::Format`] for unrecoverable layouts, I/O errors
/// otherwise. Never panics.
pub fn recover_dir(
    config: &WalConfig,
    faults: Option<DiskFaultPlan>,
) -> Result<WalRecovered, WalError> {
    fs::create_dir_all(&config.dir).map_err(WalError::Io)?;
    let (segments, snapshots) = scan_dir(&config.dir)?;
    let fault_state = faults.map(DiskFaultPlan::into_state);
    let max_segment = segments.last().copied().unwrap_or(0);
    // An empty directory needs no special case: nothing is chosen,
    // nothing is replayed, and segment 1 is opened below.
    let mut report = RecoveryReport {
        fresh: segments.is_empty() && snapshots.is_empty(),
        ..Default::default()
    };

    // Choose a snapshot: newest valid one whose tail is fully on disk.
    let mut chosen: Option<SnapshotBody> = None;
    for &snap in snapshots.iter().rev() {
        let path = snapshot_file_path(&config.dir, snap);
        match snapshot::load(&path) {
            Ok(body) => {
                // Every segment in (wal_segment ..= max) must exist;
                // a tail that never got its first segment (crash before
                // rotation) is also complete.
                let complete =
                    (body.wal_segment..=max_segment).all(|s| segments.binary_search(&s).is_ok());
                if complete {
                    report.snapshot = Some(path.display().to_string());
                    chosen = Some(body);
                    break;
                }
                report
                    .snapshots_rejected
                    .push(format!("{} (missing tail segments)", path.display()));
            }
            Err(e) => report
                .snapshots_rejected
                .push(format!("{} ({e})", path.display())),
        }
    }

    let replay_from = match &chosen {
        Some(body) => body.wal_segment,
        None => {
            if !snapshots.is_empty() && segments.binary_search(&1).is_err() {
                return Err(WalError::Format(
                    "no snapshot validates and segment 1 is pruned; the directory is \
                     unrecoverable"
                        .to_string(),
                ));
            }
            1
        }
    };

    // Appends continue in a brand-new segment — never after a truncated
    // tail, and never into sealed history. `replay_from - 1`, not
    // `replay_from`: a snapshot may name a `wal_segment` that was never
    // created (crash between the snapshot-file write and the rotate),
    // and skipping that number would leave a permanent hole that makes
    // every later recovery reject the snapshot for missing tail
    // segments.
    let mut open_at = max_segment.max(replay_from.saturating_sub(1)) + 1;

    // Replay segments `replay_from..=max_segment`, in order, contiguous.
    let mut tail = Vec::new();
    let replayed: Vec<u64> = (replay_from..=max_segment)
        .filter(|_| !segments.is_empty())
        .collect();
    for (i, &seg) in replayed.iter().enumerate() {
        if segments.binary_search(&seg).is_err() {
            return Err(WalError::Format(format!(
                "segment wal-{seg:06} is missing from the replay range"
            )));
        }
        let path = segment_path(&config.dir, seg);
        let bytes = fs::read(&path).map_err(WalError::Io)?;
        let scanned = scan_segment(&bytes, seg);
        let last = i + 1 == replayed.len();
        if let Some(defect) = scanned.defect {
            if !last {
                return Err(WalError::Corrupt {
                    segment: seg,
                    offset: scanned.valid_offset,
                    detail: defect,
                });
            }
            report.tail = Some(TailTruncation {
                segment: seg,
                offset: scanned.valid_offset,
                dropped_bytes: bytes.len() as u64 - scanned.valid_offset,
                defect,
            });
            if scanned.valid_offset == 0 {
                // The crash hit `open_segment`'s header write: nothing
                // in the file was ever valid. Truncating it to empty
                // would leave a segment the *next* recovery classifies
                // as sealed-history corruption — delete it and reuse
                // its number instead.
                fs::remove_file(&path).map_err(WalError::Io)?;
                open_at = seg;
                // A torn header on the only segment, with no snapshots,
                // means nothing valid (not even a genesis) was ever
                // written: the directory is fresh.
                if seg == 1 && replayed.len() == 1 && snapshots.is_empty() {
                    report.fresh = true;
                }
                continue;
            }
            // Torn tail: truncate back to the last valid record.
            fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(scanned.valid_offset))
                .map_err(WalError::Io)?;
        }
        report.records_replayed += scanned.records.len() as u64;
        report.segments_replayed.push(seg);
        tail.extend(scanned.records);
    }

    let wal = open_segment(config.clone(), fault_state, open_at)?;
    Ok(WalRecovered {
        snapshot: chosen,
        tail,
        report,
        wal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flowtime-wal-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("none".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::None);
        assert_eq!(
            "batch:64".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Batch(64)
        );
        assert!("batch:0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Batch(8).to_string(), "batch:8");
    }

    #[test]
    fn chaos_kill_parses() {
        let k: ChaosKill = "5".parse().unwrap();
        assert_eq!(k.after_appends, 5);
        assert!(k.torn_bytes.is_none());
        let k: ChaosKill = "5:17".parse().unwrap();
        assert_eq!(k.torn_bytes, Some(17));
        assert!("0".parse::<ChaosKill>().is_err());
        assert!("x:y".parse::<ChaosKill>().is_err());
    }

    #[test]
    fn append_scan_round_trip_with_torn_tail() {
        let dir = temp_dir("roundtrip");
        let mut wal = create(WalConfig::new(&dir), None).unwrap();
        for to in [3u64, 7, 9] {
            wal.append(&WalRecord::Tick { to }).unwrap();
        }
        drop(wal);
        // Tear the tail mid-record.
        let path = segment_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert_eq!(rec.tail.len(), 2, "last record is torn, first two valid");
        let t = rec.report.tail.expect("tail truncation reported");
        assert_eq!(t.segment, 1);
        assert!(t.dropped_bytes > 0);
        // The file was physically truncated at the valid boundary.
        assert_eq!(fs::metadata(&path).unwrap().len(), t.offset);
        assert_eq!(rec.wal.segment(), 2, "appends continue in a new segment");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_in_tail_truncates_and_reports() {
        let dir = temp_dir("bitflip");
        let mut wal = create(WalConfig::new(&dir), None).unwrap();
        wal.append(&WalRecord::Tick { to: 1 }).unwrap();
        wal.append(&WalRecord::Tick { to: 2 }).unwrap();
        drop(wal);
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x40; // corrupt the last record's json
        fs::write(&path, &bytes).unwrap();
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert_eq!(rec.tail.len(), 1);
        let t = rec.report.tail.expect("defect reported");
        assert!(t.defect.contains("checksum mismatch"), "{}", t.defect);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The nine ways a record can be defective, each behind one valid
    /// record: the scan must stop at the same offset (the end of the
    /// valid record) with the same defect text for every one of them.
    #[test]
    fn every_framing_defect_truncates_at_the_last_valid_record() {
        let hello = format!("{:016x}", framing::fnv1a(b"hello"));
        let mut not_utf8 = format!("2 {:016x} ", framing::fnv1a(&[0xff, 0xfe])).into_bytes();
        not_utf8.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let table: Vec<(Vec<u8>, String)> = vec![
            (b"12".to_vec(), "torn length prefix".into()),
            (b"x1 ".to_vec(), "unparseable length prefix".into()),
            (b"5 0123".to_vec(), "torn checksum field".into()),
            (
                b"5 zzzzzzzzzzzzzzzz hello\n".to_vec(),
                "unparseable checksum".into(),
            ),
            (
                format!("5 {hello} hel").into_bytes(),
                "torn record body".into(),
            ),
            (
                format!("5 {hello} helloX").into_bytes(),
                "missing record terminator".into(),
            ),
            (
                format!("5 {:016x} hello\n", 1).into_bytes(),
                format!("checksum mismatch (header {:016x}, body {hello})", 1),
            ),
            (not_utf8, "record body is not utf-8".into()),
            (
                framing::frame_record("{\"Nope\":1}").into_bytes(),
                "checksum-valid record failed to parse: ".into(),
            ),
        ];
        let mut valid = segment_header(3).into_bytes();
        valid.extend_from_slice(framing::frame_record("{\"Tick\":{\"to\":1}}").as_bytes());
        for (tail, defect) in table {
            let mut bytes = valid.clone();
            bytes.extend_from_slice(&tail);
            let scanned = scan_segment(&bytes, 3);
            assert_eq!(scanned.records, vec![WalRecord::Tick { to: 1 }], "{defect}");
            assert_eq!(scanned.valid_offset, valid.len() as u64, "{defect}");
            let got = scanned.defect.expect("defect reported");
            // Only the parse failure carries a serde message after its text.
            let same = if defect.ends_with(": ") {
                got.starts_with(&defect)
            } else {
                got == defect
            };
            assert!(same, "want `{defect}`, got `{got}`");
        }
        let clean = scan_segment(&valid, 3);
        assert_eq!(
            (clean.valid_offset, clean.defect),
            (valid.len() as u64, None)
        );
    }

    #[test]
    fn create_refuses_existing_artifacts() {
        let dir = temp_dir("norecreate");
        let mut wal = create(WalConfig::new(&dir), None).unwrap();
        wal.append(&WalRecord::Tick { to: 1 }).unwrap();
        drop(wal);
        assert!(matches!(
            create(WalConfig::new(&dir), None),
            Err(WalError::Format(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_are_invisible() {
        let dir = temp_dir("transient");
        let plan = DiskFaultPlan::transient(42, 4096);
        assert!(!plan.faults.is_empty());
        let mut wal = create(WalConfig::new(&dir), Some(plan)).unwrap();
        for to in 0..40u64 {
            wal.append(&WalRecord::Tick { to }).unwrap();
        }
        assert!(!wal.injected_faults().is_empty(), "plan must have fired");
        drop(wal);
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert_eq!(rec.tail.len(), 40);
        assert!(
            rec.report.tail.is_none(),
            "no defects under transient faults"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_rolls_back_the_rejected_record() {
        let dir = temp_dir("fsyncfail");
        // The segment header (~31 bytes) syncs clean; the first append
        // crosses byte 40 and its fsync fails.
        let mut wal = create(
            WalConfig::new(&dir),
            Some(DiskFaultPlan::single(40, FaultKind::FsyncFail)),
        )
        .unwrap();
        let header_len = fs::metadata(segment_path(&dir, 1)).unwrap().len();
        let err = wal
            .append(&WalRecord::Tick { to: 1 })
            .expect_err("fsync failure must surface");
        assert!(matches!(err, WalError::Io(_)));
        // The written-but-unsynced record was rolled back...
        assert_eq!(
            fs::metadata(segment_path(&dir, 1)).unwrap().len(),
            header_len
        );
        // ...and the WAL is poisoned against further appends.
        assert!(matches!(
            wal.append(&WalRecord::Tick { to: 2 }),
            Err(WalError::Poisoned(_))
        ));
        drop(wal);
        // A process-only crash must not replay the rejected record.
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert!(rec.tail.is_empty(), "rejected record must not replay");
        assert!(rec.report.tail.is_none(), "rollback left no torn tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_final_segment_is_deleted_and_its_number_reused() {
        let dir = temp_dir("tornheader");
        let mut wal = create(WalConfig::new(&dir), None).unwrap();
        wal.append(&WalRecord::Tick { to: 1 }).unwrap();
        drop(wal);
        // Crash during the next segment's header write.
        fs::write(segment_path(&dir, 2), b"flowtime-w").unwrap();
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert_eq!(rec.tail, vec![WalRecord::Tick { to: 1 }]);
        let t = rec.report.tail.expect("torn header reported");
        assert_eq!((t.segment, t.offset), (2, 0));
        assert!(
            !segment_path(&dir, 2).exists() || rec.wal.segment() == 2,
            "the dead file must not linger as an empty segment"
        );
        assert_eq!(rec.wal.segment(), 2, "the never-valid number is reused");
        drop(rec.wal);
        // The second restart must not classify the remnant as sealed-
        // history corruption.
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert_eq!(rec.tail, vec![WalRecord::Tick { to: 1 }]);
        assert!(rec.report.tail.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_on_the_only_segment_recovers_fresh() {
        let dir = temp_dir("tornfirst");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 1), b"flowtime-w").unwrap();
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert!(rec.tail.is_empty());
        assert!(rec.report.fresh, "nothing valid was ever written");
        assert_eq!(rec.wal.segment(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_rolls_back_and_later_appends_succeed() {
        let dir = temp_dir("diskfull");
        // The header is ~30 bytes; arm the fault inside the second record.
        let mut wal = create(
            WalConfig::new(&dir),
            Some(DiskFaultPlan::single(80, FaultKind::DiskFull)),
        )
        .unwrap();
        wal.append(&WalRecord::Tick { to: 1 }).unwrap();
        let err = wal
            .append(&WalRecord::Tick { to: 2 })
            .expect_err("disk full must surface");
        assert!(matches!(err, WalError::Io(_)));
        // Rolled back: the next append lands cleanly.
        wal.append(&WalRecord::Tick { to: 3 }).unwrap();
        drop(wal);
        let rec = recover_dir(&WalConfig::new(&dir), None).unwrap();
        assert!(rec.report.tail.is_none(), "rollback left no torn tail");
        assert_eq!(
            rec.tail,
            vec![WalRecord::Tick { to: 1 }, WalRecord::Tick { to: 3 }]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
