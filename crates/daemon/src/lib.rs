//! `flowtimed`: a long-running FlowTime scheduling daemon.
//!
//! The daemon turns the batch simulation engine into an online service:
//! clients submit deadline-aware workflows and ad-hoc jobs over
//! newline-delimited JSON while the engine advances in **virtual time**,
//! replanning through the FlowTime scheduler stack on every slot
//! boundary exactly as a batch run would.
//!
//! # Layers
//!
//! * [`protocol`] — the wire grammar: requests, typed error codes,
//!   response framing, the line-length cap.
//! * [`session`] — the state machine: one typed lifecycle, one commit
//!   path for every logged mutation (the submits of one wake are one
//!   *run*: one WAL write, one sync), virtual-clock advancement, drain.
//! * [`framing`] — the FNV-1a checksum and the two checksummed line
//!   grammars (WAL record, snapshot document) all durable bytes use.
//! * [`snapshot`] — checksummed crash-recovery snapshots; restore
//!   replays the submission log deterministically.
//! * [`wal`] — the crash-consistent write-ahead log: every accepted
//!   influence is durable (under a configurable fsync policy) before
//!   its reply is written; snapshots become compaction points; seeded
//!   I/O fault injection drives the kill-9 chaos suites.
//! * [`server`] — transports: the in-process [`server::Loopback`] used
//!   by the deterministic test harness, and the single-threaded TCP
//!   readiness loop behind the `flowtimed` binary — it blocks in
//!   `poll(2)`, never sleeps, never blocks on a write.
//! * `readiness` — that `poll(2)`, hand-declared: the one module allowed
//!   `unsafe` (the crate denies it everywhere else).
//! * [`client`] — the blocking client used by `flowtime-cli
//!   submit|status|drain`.
//!
//! # Determinism contract
//!
//! A session is a pure function of its request-line sequence: no
//! wall-clock, no threads, no randomness. The submission log a session
//! records replays through [`flowtime_sim::Engine::from_log`] to a
//! byte-identical [`flowtime_sim::SimOutcome`], auditor-certified on
//! both sides — the property the `daemon_differential` and
//! `daemon_props` suites enforce across every scheduler and fault seed.

#![deny(unsafe_code)]

pub mod client;
pub mod framing;
pub mod protocol;
#[allow(unsafe_code)]
mod readiness;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod wal;

pub use client::{Client, ClientError};
pub use protocol::{codes, ProtocolError, Request, MAX_LINE_BYTES};
pub use server::{handle_line, serve, Loopback};
pub use session::{Session, SessionConfig};
pub use snapshot::{SnapshotBody, SnapshotError};
pub use wal::{
    ChaosKill, DiskFaultPlan, FaultKind, FsyncPolicy, RecoveryReport, Wal, WalConfig, WalError,
    WalRecord,
};
