//! A daemon session: one online engine run driven by protocol requests.
//!
//! # Virtual-time model
//!
//! The session's virtual clock (its engine's `now`) advances **only**
//! through explicit `tick` and `drain` requests — never from wall-clock
//! time — so a session is a deterministic function of its request
//! sequence. Submissions are accepted for any arrival slot at or after
//! the clock, parked in a pending queue, and injected into the engine
//! exactly when virtual time reaches their arrival slot; until then they
//! can be cancelled. This queued-injection discipline is what makes the
//! recorded [`SubmissionLog`] replayable: a batch
//! [`flowtime_sim::Engine::from_log`] run over the same log materializes
//! the identical dense job table and produces a byte-identical
//! [`SimOutcome`].
//!
//! A session runs one engine over the whole cluster (DESIGN.md §29).
//! Pods — the cluster split into independent engines — are a batch
//! experiment (`flowtime-cli simulate --pods`); a recorded session config
//! asking for more than one is refused, never replayed onto one engine.
//!
//! # Lifecycle
//!
//! [`Phase::Accepting`] (submissions + ticks) → `drain` (runs everything
//! to completion, freezes the outcome and trace) → [`Phase::Drained`]
//! (read-only: `status` / `trace` / `outcome` still served; mutations are
//! typed errors). The engine exists only in the first phase, frozen
//! artifacts only in the second. Every change to the submission log —
//! live request (`Session::step` into a run, `Session::commit`),
//! recovered WAL record, snapshot log — goes through
//! `Session::apply_entry`, so replay cannot diverge from live.

use crate::protocol::{self, codes, ProtocolError, Request};
use crate::snapshot::SnapshotBody;
use crate::wal::{self, DiskFaultPlan, RecoveryReport, Wal, WalConfig, WalRecord};
use flowtime::Algo;
use flowtime_dag::JobId;
use flowtime_sim::{
    require_demand_placer, ClusterConfig, DecisionTrace, LogEntry, OnlineEngine, Scheduler,
    SimError, SimOutcome, StepOutcome, SubmissionLog, TraceHandle,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Immutable session parameters, persisted in snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Cluster the engine simulates.
    pub cluster: ClusterConfig,
    /// Scheduler name, resolved through the [`Algo`] registry
    /// (`flowtime`, `edf`, `fifo`, `fair`, `cora`, `morpheus`, ...).
    pub scheduler: String,
    /// Slot horizon for the underlying engine.
    pub max_slots: u64,
    /// Decision-trace ring capacity (events).
    pub trace_capacity: u64,
    /// Read by nothing: the snapshot file of a persistence mode that is
    /// gone (DESIGN.md §26). Kept so that recorded configs keep their
    /// bytes and `benchmark/`, which builds this struct by literal, still
    /// compiles.
    #[serde(default)]
    pub snapshot_path: Option<String>,
    /// The pod count sessions could choose before DESIGN.md §29. Kept so
    /// that recorded configs keep their bytes (it is serialized only when
    /// nonzero) and `benchmark/`, which builds this struct by literal,
    /// still compiles; only `0` and `1` — one engine — are accepted.
    #[serde(default, skip_serializing_if = "flowtime_sim::serde_skip::zero_u64")]
    pub pods: u64,
    /// The placement policy name sessions could choose before DESIGN.md
    /// §22. Kept so that recorded configs still parse (and `benchmark/`,
    /// which builds this struct by literal, still compiles); only `None`
    /// and `demand` — the one rule left — are accepted.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub placer: Option<String>,
}

/// Where a logged sequence number currently stands.
#[derive(Debug, Clone)]
enum SeqState {
    /// Accepted, waiting for virtual time to reach `arrival`.
    Pending(u64),
    /// Cancelled while pending; will never materialize.
    Cancelled,
    /// Materialized into the engine as these job ids.
    Injected(Vec<JobId>),
    /// The sequence number belongs to a cancel request itself.
    CancelRequest,
}

/// The frozen result of a drained session.
struct Finished {
    /// `serde_json::to_string(&outcome)` — the canonical bytes the
    /// differential harness compares against a batch run.
    outcome_json: String,
    outcome: SimOutcome,
    trace: DecisionTrace,
}

impl Finished {
    /// The fields `drain` and a drained `status` both report.
    fn summary(&self) -> String {
        format!(
            "\"now\":{},\"completed_jobs\":{},\"complete\":{}",
            self.outcome.slots_elapsed,
            self.outcome.metrics.jobs.len(),
            self.outcome.is_complete()
        )
    }
}

/// The session lifecycle. `drain` consumes the engine into the frozen
/// artifacts, so neither half can be observed in the wrong phase.
enum Phase {
    Accepting {
        scheduler: Box<dyn Scheduler>,
        online: Box<OnlineEngine>,
        trace: TraceHandle,
    },
    Drained(Box<Finished>),
}

/// One protocol-driven online run. See the module docs.
pub struct Session {
    config: SessionConfig,
    phase: Phase,
    /// Pending submissions keyed by `(arrival, seq)` — iteration order is
    /// exactly the injection (and batch materialization) order — mapped
    /// to the submission's index in `log.entries`, its only copy.
    pending: BTreeMap<(u64, u64), usize>,
    seq_state: BTreeMap<u64, SeqState>,
    log: SubmissionLog,
    next_seq: u64,
    /// Write-ahead log; when present, every accepted mutation is made
    /// durable here *before* the session state changes and the reply is
    /// written (the protocol's durability ordering contract).
    wal: Option<Wal>,
    /// Idempotency keys already accepted → the seq each was assigned.
    request_ids: BTreeMap<String, u64>,
}

fn not_drained(what: &str) -> ProtocolError {
    let detail = format!("{what} is only available after `drain`");
    ProtocolError::new(codes::NOT_DRAINED, detail)
}

fn unknown_submission(seq: u64) -> ProtocolError {
    let detail = format!("no submission with sequence number {seq}");
    ProtocolError::new(codes::UNKNOWN_SUBMISSION, detail)
}

/// Serializes a reply fragment; a failure is the engine's, typed.
fn json<T: Serialize + ?Sized>(value: &T) -> Result<String, ProtocolError> {
    serde_json::to_string(value).map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))
}

impl Session {
    /// Builds a fresh session.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`codes::BAD_REQUEST`] for an unknown
    /// scheduler name, a placer other than `demand`, or more than one pod
    /// — also when the config comes out of a snapshot or a WAL genesis
    /// record, so a session recorded under `firstfit` or on two pods is
    /// refused rather than replayed onto one engine.
    pub fn new(config: SessionConfig) -> Result<Self, ProtocolError> {
        let bad = |detail: String| ProtocolError::new(codes::BAD_REQUEST, detail);
        // The same registry a batch comparison run resolves through: both
        // must start from identical scheduler state for the differential
        // byte-parity contract to hold.
        let algo = Algo::parse(&config.scheduler)
            .ok_or_else(|| bad(format!("unknown scheduler `{}`", config.scheduler)))?;
        if let Some(name) = &config.placer {
            require_demand_placer("config.placer", name).map_err(bad)?;
        }
        if config.pods > 1 {
            return Err(bad(format!(
                "config.pods: {} pods are refused: a session runs one engine (0 or 1), so \
                 this recording cannot be replayed; shard a batch run with \
                 `flowtime-cli simulate --pods` instead",
                config.pods
            )));
        }
        let scheduler = algo.make(&config.cluster);
        let (online, trace) = OnlineEngine::new(config.cluster.clone(), config.max_slots)
            .with_trace(config.trace_capacity as usize);
        Ok(Session {
            config,
            phase: Phase::Accepting {
                scheduler,
                online: Box::new(online),
                trace,
            },
            pending: BTreeMap::new(),
            seq_state: BTreeMap::new(),
            log: SubmissionLog::new(),
            next_seq: 0,
            wal: None,
            request_ids: BTreeMap::new(),
        })
    }

    /// The idempotency-key table (key → assigned seq), for tests.
    pub fn request_ids(&self) -> &BTreeMap<String, u64> {
        &self.request_ids
    }

    /// Recovers a session from a WAL directory: newest valid snapshot
    /// plus a replay of the WAL tail (or, without a snapshot, a replay
    /// from the genesis record). A fresh directory starts a new session
    /// from `fallback` and writes its genesis record. Recorded
    /// configuration always wins over `fallback`, mirroring the
    /// snapshot-restore precedent.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] (`wal-io` / `wal-corrupt` /
    /// `snapshot-corrupt`) — a damaged directory is never a panic — or
    /// the `bad-request` of [`Session::new`] for a recorded config this
    /// tree refuses, leaving the directory as it was.
    pub fn recover(
        fallback: SessionConfig,
        wal_config: WalConfig,
        faults: Option<DiskFaultPlan>,
    ) -> Result<(Self, RecoveryReport), ProtocolError> {
        let wal::WalRecovered {
            snapshot,
            tail,
            report,
            next,
        } = wal::recover_dir(&wal_config, faults)?;
        let corrupt = |detail: &str| ProtocolError::new(codes::WAL_CORRUPT, detail);
        let mut records = tail.into_iter();
        // The config is checked before the next segment exists.
        let mut session = match snapshot {
            Some(body) => Session::restore(body)?,
            // Nothing valid was ever written: the tail is empty too.
            None if report.fresh => Session::new(fallback)?,
            None => match records.next() {
                Some(WalRecord::Genesis { config }) => Session::new(config)?,
                _ => return Err(corrupt("wal segment 1 must open with a genesis record")),
            },
        };
        let mut wal = next.open()?;
        if report.fresh {
            let config = session.config.clone();
            wal.append(&WalRecord::Genesis { config })?;
        }
        // `Tick` and `Drain` swallow their (deterministic) runtime errors:
        // the live session also replied with an error and kept going, so
        // the replayed state still matches it exactly.
        for record in records {
            match record {
                WalRecord::Genesis { .. } => {
                    return Err(corrupt("genesis record outside the head of segment 1"))
                }
                WalRecord::Entry { entry, request_id } => session.apply_entry(entry, request_id)?,
                WalRecord::Tick { to } => drop(session.run_to(to, false)),
                WalRecord::Drain { .. } => drop(session.drain_inner()),
                WalRecord::Seal { .. } => {}
            }
        }
        session.wal = Some(wal);
        Ok((session, report))
    }

    /// Rebuilds a session from a snapshot body: replays the recorded log
    /// through a fresh session's [`Session::apply_entry`], then advances
    /// virtual time to the snapshotted slot. Determinism makes this exact
    /// crash recovery — the restored session continues byte-identically.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the config is invalid or the replay fails
    /// (which means the snapshot does not describe a reachable state).
    pub fn restore(body: SnapshotBody) -> Result<Self, ProtocolError> {
        let mut session = Session::new(body.config)?;
        for entry in body.log.entries {
            session
                .apply_entry(entry, None)
                .map_err(|e| ProtocolError::new(codes::SNAPSHOT_CORRUPT, e.detail))?;
        }
        session.request_ids = body.request_ids;
        session.run_to(body.now, true)?;
        let (reached, recorded) = ((session.now(), session.next_seq), (body.now, body.next_seq));
        if reached != recorded {
            return Err(ProtocolError::new(
                codes::SNAPSHOT_CORRUPT,
                format!(
                    "replay reached (slot, seq) {reached:?} but the snapshot says {recorded:?}"
                ),
            ));
        }
        Ok(session)
    }

    /// The engine of a running session; `already-drained` otherwise.
    fn running(&self) -> Result<&OnlineEngine, ProtocolError> {
        match &self.phase {
            Phase::Accepting { online, .. } => Ok(online),
            Phase::Drained(_) => Err(ProtocolError::new(
                codes::ALREADY_DRAINED,
                "session is drained; no further mutation is accepted",
            )),
        }
    }

    fn finished(&self) -> Option<&Finished> {
        match &self.phase {
            Phase::Accepting { .. } => None,
            Phase::Drained(f) => Some(f),
        }
    }

    /// Current virtual slot.
    pub fn now(&self) -> u64 {
        match &self.phase {
            Phase::Accepting { online, .. } => online.now(),
            Phase::Drained(f) => f.outcome.slots_elapsed,
        }
    }

    /// True once the session has been drained.
    pub fn drained(&self) -> bool {
        self.finished().is_some()
    }

    /// The serialized outcome of a drained session — the canonical bytes
    /// the differential harness compares (see [`Finished::outcome_json`]).
    pub fn outcome_json(&self) -> Option<&str> {
        self.finished().map(|f| f.outcome_json.as_str())
    }

    /// The frozen decision trace of a drained session.
    pub fn final_trace(&self) -> Option<&DecisionTrace> {
        self.finished().map(|f| &f.trace)
    }

    /// The outcome of a drained session, as a one-element slice.
    pub fn final_outcomes(&self) -> Option<&[SimOutcome]> {
        self.finished().map(|f| std::slice::from_ref(&f.outcome))
    }

    /// The recorded submission log (the replay artifact).
    pub fn log(&self) -> &SubmissionLog {
        &self.log
    }

    /// Dispatches one parsed request — a run of one — returning the
    /// `ok`-body JSON. `Shutdown` is acknowledged here; closing the
    /// transport is the server loop's job.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for every failure mode; never a panic.
    pub fn handle(&mut self, request: Request) -> Result<String, ProtocolError> {
        let mut run = Vec::new();
        let reply = self.step(request, &mut run)?;
        self.commit(&mut run)?;
        Ok(reply)
    }

    /// Answers request lines in order, one reply line each; `true` once a
    /// line was `shutdown` (the lines after it are not answered).
    ///
    /// A *run* — consecutive `submit_workflow` / `submit_adhoc` lines — is
    /// admitted line by line against the state plus the run so far, then
    /// committed as one ([`Session::commit`]: one WAL write, one sync) and
    /// only then acknowledged; a run the WAL refuses is rejected whole. It
    /// ends before a line repeating one of its `request_id`s (answered
    /// `duplicate` once the run is applied), before any other request, and
    /// at [`Wal::room`]; a line that fails to parse or to be admitted is
    /// answered in place and ends nothing. So replies, log and WAL bytes
    /// do not depend on how lines are grouped into calls.
    pub fn handle_lines(&mut self, lines: &[&str]) -> (Vec<String>, bool) {
        let mut replies = Vec::with_capacity(lines.len());
        // The run, and for each of its records the reply it waits in.
        let (mut run, mut slots) = (Vec::new(), Vec::new());
        for line in lines {
            let request = match protocol::parse_request(line) {
                Ok(request) => request,
                Err(e) => {
                    replies.push(protocol::err_line(&e));
                    continue;
                }
            };
            let joins = match &request {
                Request::SubmitWorkflow(_, rid) | Request::SubmitAdhoc(_, rid) => {
                    let repeats = |r: &WalRecord| matches!(r, WalRecord::Entry { request_id, .. } if request_id == rid);
                    run.len() < self.wal.as_ref().map_or(usize::MAX, Wal::room)
                        && !(rid.is_some() && run.iter().any(repeats))
                }
                _ => false,
            };
            if !joins {
                self.commit_run(&mut run, &mut slots, &mut replies);
            }
            let shutdown = matches!(request, Request::Shutdown);
            let reply = self.step(request, &mut run);
            if slots.len() < run.len() {
                slots.push(replies.len());
            }
            replies.push(match reply {
                Ok(body) => protocol::ok_line(&body),
                Err(e) => protocol::err_line(&e),
            });
            if shutdown {
                return (replies, true);
            }
        }
        self.commit_run(&mut run, &mut slots, &mut replies);
        (replies, false)
    }

    /// Commits the run; if the WAL refuses it, every acknowledgement
    /// waiting in `slots` becomes the refusal.
    fn commit_run(
        &mut self,
        run: &mut Vec<WalRecord>,
        slots: &mut Vec<usize>,
        replies: &mut [String],
    ) {
        if let Err(e) = self.commit(run) {
            for &slot in slots.iter() {
                replies[slot] = protocol::err_line(&e);
            }
        }
        slots.clear();
    }

    /// One request against the state plus `run`. The three log-changing
    /// requests only build their [`LogEntry`] and are admitted — lifecycle
    /// → idempotency → [`Session::check`] — into `run`: a submission's
    /// reply stands once its run commits, a `cancel` commits here as a run
    /// of its own. Every other request expects `run` empty.
    fn step(
        &mut self,
        request: Request,
        run: &mut Vec<WalRecord>,
    ) -> Result<String, ProtocolError> {
        let (seq, at) = (self.next_seq + run.len() as u64, self.now());
        let alone = matches!(request, Request::Cancel(_));
        let (entry, request_id) = match request {
            Request::SubmitWorkflow(s, rid) => (
                LogEntry::Workflow {
                    seq,
                    at,
                    submission: *s,
                },
                rid,
            ),
            Request::SubmitAdhoc(submission, rid) => (
                LogEntry::Adhoc {
                    seq,
                    at,
                    submission,
                },
                rid,
            ),
            Request::Cancel(target) => (LogEntry::Cancel { seq, at, target }, None),
            Request::Tick(to) => return self.tick(to),
            Request::Status => return self.status(),
            Request::Query(seq) => return self.query(seq),
            Request::Trace(limit) => return self.trace_tail(limit),
            Request::Drain => return self.drain(),
            Request::Outcome => return self.outcome(),
            Request::Explain => return self.explain_report(),
            Request::Snapshot => return self.write_snapshot(),
            Request::Shutdown => return Ok("{\"shutdown\":true}".to_string()),
        };
        self.running()?;
        self.check_duplicate(request_id.as_ref())?;
        let reply = self.check(&entry)?;
        run.push(WalRecord::Entry { entry, request_id });
        if alone {
            self.commit(run)?;
        }
        Ok(reply)
    }

    fn check_arrival(&self, arrival: u64) -> Result<(), ProtocolError> {
        if arrival < self.now() {
            return Err(ProtocolError::new(
                codes::LATE_ARRIVAL,
                format!(
                    "arrival slot {arrival} is in the past (virtual time is {})",
                    self.now()
                ),
            ));
        }
        Ok(())
    }

    /// Rejects a repeated idempotency key with the typed `duplicate`
    /// reply carrying the original sequence number (clients treat it as
    /// success — the work is already accepted).
    fn check_duplicate(&self, request_id: Option<&String>) -> Result<(), ProtocolError> {
        if let Some(orig) = request_id.and_then(|rid| self.request_ids.get(rid)) {
            return Err(ProtocolError::new(
                codes::DUPLICATE,
                format!("request_id already accepted as submission {orig}"),
            )
            .with_data(format!("{{\"sub\":{orig}}}")));
        }
        Ok(())
    }

    /// Durable before any state change, durable before the reply: `run`
    /// goes to the WAL (if there is one) as one append — whole, or the
    /// session is untouched — and only then are its entries applied
    /// ([`Session::apply_entry`]; a `Tick` or `Drain` record is applied by
    /// its caller). Leaves `run` empty either way.
    fn commit(&mut self, run: &mut Vec<WalRecord>) -> Result<(), ProtocolError> {
        if run.is_empty() {
            return Ok(());
        }
        if let Some(wal) = &mut self.wal {
            if let Err(e) = wal.append_all(run) {
                run.clear();
                return Err(e.into());
            }
        }
        for record in run.drain(..) {
            if let WalRecord::Entry { entry, request_id } = record {
                self.apply_entry(entry, request_id)?;
            }
        }
        Ok(())
    }

    /// The checks only a live request needs — a logged entry passed them
    /// when it was accepted, so replay skips them — and the reply the
    /// request gets once it is durable and applied. A submission that the
    /// builders could not have built is refused here, before it reaches
    /// the WAL.
    fn check(&self, entry: &LogEntry) -> Result<String, ProtocolError> {
        let (seq, arrival, jobs) = match entry {
            LogEntry::Workflow {
                seq, submission, ..
            } => {
                let arrival = submission.workflow.submit_slot();
                self.check_arrival(arrival)?;
                submission.validate()?;
                (seq, arrival, submission.workflow.len())
            }
            LogEntry::Adhoc {
                seq, submission, ..
            } => {
                self.check_arrival(submission.arrival_slot)?;
                submission.validate()?;
                (seq, submission.arrival_slot, 1)
            }
            LogEntry::Cancel { target, .. } => {
                return match self.seq_state.get(target) {
                    Some(SeqState::Pending(_)) => Ok(format!("{{\"cancelled\":{target}}}")),
                    Some(SeqState::Cancelled) => Err(ProtocolError::new(
                        codes::CANCEL_TOO_LATE,
                        format!("submission {target} was already cancelled"),
                    )),
                    Some(SeqState::Injected { .. }) => Err(ProtocolError::new(
                        codes::CANCEL_TOO_LATE,
                        format!("submission {target} already materialized into the engine"),
                    )),
                    Some(SeqState::CancelRequest) | None => Err(unknown_submission(*target)),
                }
            }
        };
        Ok(format!(
            "{{\"sub\":{seq},\"arrival\":{arrival},\"jobs\":{jobs}}}"
        ))
    }

    /// Applies one log entry to the in-memory state — the single
    /// mutation path shared by live accepts, WAL replay and snapshot
    /// restore, so a recovered session is state-identical to the live
    /// one by construction. Errors say `wal-corrupt`; restore remaps it.
    fn apply_entry(
        &mut self,
        entry: LogEntry,
        request_id: Option<String>,
    ) -> Result<(), ProtocolError> {
        let seq = entry.seq();
        if seq != self.next_seq {
            return Err(ProtocolError::new(
                codes::WAL_CORRUPT,
                format!("entry seq {seq} but session expects {}", self.next_seq),
            ));
        }
        let arrival = match &entry {
            LogEntry::Workflow { submission, .. } => Some(submission.workflow.submit_slot()),
            LogEntry::Adhoc { submission, .. } => Some(submission.arrival_slot),
            LogEntry::Cancel { target, .. } => {
                let Some(SeqState::Pending(arrival)) = self.seq_state.get(target) else {
                    return Err(ProtocolError::new(
                        codes::WAL_CORRUPT,
                        format!("cancel of non-pending submission {target} in log"),
                    ));
                };
                self.pending.remove(&(*arrival, *target));
                self.seq_state.insert(*target, SeqState::Cancelled);
                None
            }
        };
        let state = match arrival {
            Some(arrival) => {
                self.pending.insert((arrival, seq), self.log.entries.len());
                SeqState::Pending(arrival)
            }
            None => SeqState::CancelRequest,
        };
        self.seq_state.insert(seq, state);
        self.log.entries.push(entry);
        self.next_seq = seq + 1;
        if let Some(rid) = request_id {
            self.request_ids.insert(rid, seq);
        }
        Ok(())
    }

    /// Materializes every pending submission whose arrival slot virtual
    /// time has reached, in `(arrival, seq)` order — the order a batch run
    /// sorts its table in — cloning each out of the log, its one resident
    /// copy.
    fn flush_arrivals(&mut self) -> Result<(), ProtocolError> {
        let Phase::Accepting { online, .. } = &mut self.phase else {
            return Ok(());
        };
        while let Some(first) = self.pending.first_entry() {
            let (arrival, seq) = *first.key();
            if arrival > online.now() {
                break;
            }
            let ids = match self.log.entries.get(first.remove()) {
                Some(LogEntry::Workflow { submission, .. }) => {
                    online.submit_workflow(submission.clone())
                }
                Some(LogEntry::Adhoc { submission, .. }) => {
                    online.submit_adhoc(submission.clone()).map(|id| vec![id])
                }
                Some(LogEntry::Cancel { .. }) | None => {
                    return Err(ProtocolError::new(
                        codes::ENGINE_ERROR,
                        format!("pending submission {seq} is not in the log"),
                    ))
                }
            };
            self.seq_state.insert(seq, SeqState::Injected(ids?));
        }
        Ok(())
    }

    /// One iteration of virtual time, shared by `tick`, `drain`, WAL
    /// replay and snapshot restore: inject due arrivals, park if nothing
    /// is left to simulate, otherwise simulate one slot — a `step` while
    /// injected work is incomplete, an idle `step_idle` that burns the gap
    /// while future submissions are queued (what a batch run whose table
    /// holds that arrival does, and what `engine.now` in the golden
    /// transcript pins).
    ///
    /// `replay` disables parking: during snapshot restore the recorded
    /// `now` proves the live session reached the slot, even though a
    /// logged cancel (applied up front on replay) may have emptied the
    /// queue that justified burning the gap live. The replayed engine
    /// calls are still identical — a burned slot never observes the
    /// queue — so the restored session continues byte-identically.
    fn step_slot(&mut self, replay: bool) -> Result<StepOutcome, ProtocolError> {
        self.flush_arrivals()?;
        let Phase::Accepting {
            scheduler, online, ..
        } = &mut self.phase
        else {
            return Ok(StepOutcome::Complete);
        };
        if online.incomplete() > 0 {
            Ok(online.step(&mut **scheduler)?)
        } else if replay || !self.pending.is_empty() {
            Ok(online.step_idle(&mut **scheduler)?)
        } else {
            Ok(StepOutcome::Complete)
        }
    }

    /// Advances virtual time to `target`, injecting arrivals on the way.
    /// Parks (stops early) when no work remains anywhere — the batch run
    /// would have ended there too — unless `replay` (see
    /// [`Session::step_slot`]).
    fn run_to(&mut self, target: u64, replay: bool) -> Result<(), ProtocolError> {
        while self.now() < target {
            match self.step_slot(replay)? {
                StepOutcome::Advanced => {}
                StepOutcome::Complete => break,
                StepOutcome::HorizonExhausted => {
                    return Err(ProtocolError::new(
                        codes::HORIZON_EXHAUSTED,
                        format!("slot horizon {} exhausted", self.config.max_slots),
                    ))
                }
            }
        }
        Ok(())
    }

    fn tick(&mut self, to: u64) -> Result<String, ProtocolError> {
        self.running()?;
        // The clock advance is durable before it happens: a failing
        // advance (horizon exhaustion) is deterministic, so replaying
        // the record reproduces the same partial state and same error.
        self.commit(&mut vec![WalRecord::Tick { to }])?;
        self.run_to(to, false)?;
        let online = self.running()?;
        Ok(format!(
            "{{\"now\":{},\"incomplete\":{},\"pending\":{}}}",
            online.now(),
            online.incomplete(),
            self.pending.len()
        ))
    }

    /// Runs everything — pending and injected — to completion, then
    /// freezes the outcome and trace. Idempotent: draining a drained
    /// session returns the same summary (and appends no second WAL
    /// record).
    fn drain(&mut self) -> Result<String, ProtocolError> {
        if !self.drained() {
            let at = self.now();
            self.commit(&mut vec![WalRecord::Drain { at }])?;
        }
        self.drain_inner()
    }

    /// The WAL-free drain body, shared by the live path (which logs
    /// first) and recovery replay (which must not log again).
    fn drain_inner(&mut self) -> Result<String, ProtocolError> {
        let stop = loop {
            match self.step_slot(false)? {
                StepOutcome::Advanced => {}
                stop => break stop,
            }
        };
        let (scheduler, online, trace) = match &mut self.phase {
            Phase::Drained(finished) => return Ok(format!("{{{}}}", finished.summary())),
            Phase::Accepting {
                scheduler,
                online,
                trace,
            } => (scheduler, online, trace),
        };
        if let StepOutcome::Complete = stop {
            // Mirror the batch engine's final step: observing `Complete`
            // runs the exact-conservation final check (a violation is an
            // engine bug and surfaces as a typed error). A horizon-stopped
            // session freezes its partial outcome as is.
            online.step(&mut **scheduler)?;
        }
        // `finish` consumes the engine: an empty one stands in until the
        // drained phase replaces the whole variant below.
        let spent = Box::new(OnlineEngine::new(self.config.cluster.clone(), 0));
        let outcome = std::mem::replace(online, spent).finish(&mut **scheduler);
        let finished = Finished {
            outcome_json: json(&outcome)?,
            trace: trace.take(),
            outcome,
        };
        let summary = finished.summary();
        self.phase = Phase::Drained(Box::new(finished));
        Ok(format!("{{{summary}}}"))
    }

    fn status(&mut self) -> Result<String, ProtocolError> {
        let (scheduler, online) = match &self.phase {
            Phase::Drained(f) => return Ok(format!("{{\"phase\":\"drained\",{}}}", f.summary())),
            Phase::Accepting {
                scheduler, online, ..
            } => (scheduler, online),
        };
        // Only a session with a WAL reports one, so WAL-less replies keep
        // their bytes (and the golden transcript its own).
        let wal = self
            .wal
            .as_ref()
            .map_or_else(String::new, |wal| format!(",\"wal\":{}", wal.status_json()));
        Ok(format!(
            "{{\"phase\":\"accepting\",\"engine\":{},\"solver\":{},\"pending\":{},\"logged\":{}{wal}}}",
            json(&online.status())?,
            json(&scheduler.telemetry())?,
            self.pending.len(),
            self.log.len()
        ))
    }

    fn query(&mut self, seq: u64) -> Result<String, ProtocolError> {
        let state = match self.seq_state.get(&seq) {
            None => return Err(unknown_submission(seq)),
            Some(SeqState::CancelRequest) => "\"cancel-request\"".to_string(),
            Some(SeqState::Pending(arrival)) => format!("\"pending\",\"arrival\":{arrival}"),
            Some(SeqState::Cancelled) => "\"cancelled\"".to_string(),
            Some(SeqState::Injected(ids)) => {
                let mut jobs = Vec::new();
                for id in ids {
                    match &self.phase {
                        Phase::Accepting { online, .. } => {
                            if let Some(p) = online.job_progress(*id) {
                                jobs.push(json(&p)?);
                            }
                        }
                        Phase::Drained(_) => jobs.push(format!("{{\"id\":{}}}", id.as_u64())),
                    }
                }
                format!("\"materialized\",\"jobs\":[{}]", jobs.join(","))
            }
        };
        Ok(format!("{{\"sub\":{seq},\"state\":{state}}}"))
    }

    fn trace_tail(&mut self, limit: usize) -> Result<String, ProtocolError> {
        let live;
        let trace = match &self.phase {
            Phase::Drained(f) => &f.trace,
            Phase::Accepting { trace, .. } => {
                live = trace.snapshot();
                &live
            }
        };
        let events: Vec<&flowtime_sim::TraceEvent> = trace.events().collect();
        let skip = events.len().saturating_sub(limit);
        let tail = events[skip..]
            .iter()
            .map(json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(format!(
            "{{\"recorded\":{},\"dropped\":{},\"tail\":[{}]}}",
            trace.recorded(),
            trace.dropped(),
            tail.join(",")
        ))
    }

    fn outcome(&self) -> Result<String, ProtocolError> {
        match self.outcome_json() {
            Some(outcome) => Ok(format!("{{\"outcome\":{outcome}}}")),
            None => Err(not_drained("outcome")),
        }
    }

    /// `explain` over a drained session: re-certifies the frozen outcome
    /// and trace against the recorded submission log, then emits the
    /// per-missed-workflow E00x causal chains
    /// ([`flowtime_sim::explain_log`]).
    fn explain_report(&self) -> Result<String, ProtocolError> {
        let f = self.finished().ok_or_else(|| not_drained("explain"))?;
        let report =
            flowtime_sim::explain_log(&self.config.cluster, &self.log, &f.outcome, &f.trace)
                .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?;
        Ok(format!("{{\"explain\":{}}}", json(&report)?))
    }

    /// Where a `snapshot` request would persist to: the WAL directory,
    /// the one place a session persists; nowhere without a WAL. The
    /// periodic-snapshot loop asks this before asking for a snapshot.
    pub fn snapshot_target(&self) -> Option<&Path> {
        self.wal.as_ref().map(Wal::dir)
    }

    /// Persists the session's replayable state as a compaction point in
    /// the WAL directory: segment sealed and rotated, old generations
    /// pruned after the new snapshot self-checks. A session without a
    /// WAL is refused before its log is copied.
    pub fn write_snapshot(&mut self) -> Result<String, ProtocolError> {
        if self.drained() {
            return Err(ProtocolError::new(
                codes::ALREADY_DRAINED,
                "drained sessions have nothing left to snapshot",
            ));
        }
        let now = self.now();
        let Some(wal) = &mut self.wal else {
            return Err(ProtocolError::new(
                codes::SNAPSHOT_IO,
                "snapshots are written to the WAL directory; start flowtimed with --wal-dir",
            ));
        };
        let (path, bytes) = wal.save_snapshot(SnapshotBody {
            config: self.config.clone(),
            log: self.log.clone(),
            now,
            next_seq: self.next_seq,
            wal_segment: 0,
            request_ids: self.request_ids.clone(),
        })?;
        Ok(format!(
            "{{\"path\":{},\"bytes\":{bytes}}}",
            json(&path.display().to_string())?
        ))
    }
}

/// Maps an engine error into the protocol's typed form.
impl From<SimError> for ProtocolError {
    fn from(e: SimError) -> Self {
        let code = match e {
            SimError::MalformedSubmission { .. } => codes::MALFORMED_SUBMISSION,
            SimError::HorizonExhausted { .. } => codes::HORIZON_EXHAUSTED,
            _ => codes::ENGINE_ERROR,
        };
        ProtocolError::new(code, e.to_string())
    }
}
