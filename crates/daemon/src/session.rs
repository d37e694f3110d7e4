//! A daemon session: one online engine run driven by protocol requests.
//!
//! # Virtual-time model
//!
//! The session owns a virtual clock that advances **only** through
//! explicit `tick` and `drain` requests — never from wall-clock time — so
//! a session is a deterministic function of its request sequence.
//! Submissions are accepted for any arrival slot at or after the clock,
//! parked in a pending queue, and injected into an engine exactly when
//! virtual time reaches their arrival slot; until then they can be
//! cancelled. This queued-injection discipline is what makes the recorded
//! [`SubmissionLog`] replayable: a batch [`flowtime_sim::Engine::from_log`]
//! run over the same log materializes the identical dense job table and
//! produces a byte-identical [`SimOutcome`].
//!
//! # Sharding
//!
//! With [`SessionConfig::pods`] > 1 the session runs one engine per pod
//! over the pod's capacity slice ([`flowtime_sim::pod_cluster`]), each with
//! its own scheduler instance (and plan cache). Submissions are placed at
//! injection time through the same [`PlacerState`] policy the batch layer
//! uses, in `(arrival, seq)` order — exactly the order
//! [`flowtime_sim::place_log`] replays — so a batch run over each per-pod
//! sub-log reproduces the per-pod outcomes byte-for-byte. A pod with no
//! work parks (its local clock lags the session clock) and resumes when a
//! placement lands on it; its local timeline therefore matches the batch
//! engine's, which also simulates idle gaps only up to its own last
//! completion. With one pod every code path collapses to the pre-sharding
//! behavior and all protocol responses are byte-identical to it.
//!
//! # Lifecycle
//!
//! `accepting` (submissions + ticks) → `drain` (runs everything to
//! completion, freezes the outcome and trace) → `drained` (read-only:
//! `status` / `trace` / `outcome` still served; mutations are typed
//! errors).

use crate::protocol::{codes, ProtocolError, Request};
use crate::snapshot::{self, SnapshotBody};
use crate::wal::{self, DiskFaultPlan, RecoveryReport, Wal, WalConfig, WalRecord};
use flowtime::Algo;
use flowtime_dag::JobId;
use flowtime_sim::{
    pod_cluster, AdhocSubmission, ClusterConfig, DecisionTrace, LogEntry, OnlineEngine, Placer,
    PlacerState, Scheduler, ShardSpec, SimError, SimOutcome, SolverTelemetry, StepOutcome,
    SubmissionLog, TraceHandle, WorkflowSubmission,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Where `snapshot` requests persist state; `None` disables them.
    #[serde(default)]
    pub snapshot_path: Option<String>,
    /// Number of pods to shard the cluster into; `0` and `1` both mean the
    /// unsharded single engine. Serialized only when sharded, so unsharded
    /// snapshots keep their pre-sharding bytes.
    #[serde(default, skip_serializing_if = "flowtime_sim::serde_skip::zero_u64")]
    pub pods: u64,
    /// Placement policy name (`firstfit`, `worstfit`, `demand`); only
    /// meaningful — and only accepted — with `pods > 1`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub placer: Option<String>,
}

/// A submission accepted but not yet materialized into an engine.
#[derive(Debug, Clone)]
enum PendingEntry {
    Workflow(WorkflowSubmission),
    Adhoc(AdhocSubmission),
}

/// Where a logged sequence number currently stands.
#[derive(Debug, Clone)]
enum SeqState {
    /// Accepted, waiting for virtual time to reach `arrival`.
    Pending(u64),
    /// Cancelled while pending; will never materialize.
    Cancelled,
    /// Materialized into pod `pod`'s engine as these job ids.
    Injected { pod: usize, ids: Vec<JobId> },
    /// The sequence number belongs to a cancel request itself.
    CancelRequest,
}

/// The frozen result of a drained session.
struct Finished {
    /// For one pod, `serde_json::to_string(&outcome)` — the canonical
    /// bytes the differential harness compares against a batch run. For
    /// several pods, `{"pods":[...]}` over the per-pod outcomes (each of
    /// which is individually batch-comparable).
    outcome_json: String,
    outcomes: Vec<SimOutcome>,
    traces: Vec<DecisionTrace>,
}

impl Finished {
    fn now(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.slots_elapsed)
            .max()
            .unwrap_or(0)
    }

    fn completed_jobs(&self) -> usize {
        self.outcomes.iter().map(|o| o.metrics.jobs.len()).sum()
    }

    fn complete(&self) -> bool {
        self.outcomes.iter().all(SimOutcome::is_complete)
    }
}

/// One pod's engine, scheduler, and trace recorder.
struct PodRuntime {
    scheduler: Box<dyn Scheduler>,
    /// `None` once drained (the engine was consumed by `finish`).
    online: Option<OnlineEngine>,
    trace: TraceHandle,
}

/// One protocol-driven online run. See the module docs.
pub struct Session {
    config: SessionConfig,
    /// One entry per pod; a single entry is the unsharded engine.
    pods: Vec<PodRuntime>,
    /// Placement state, present only when sharded (`pods.len() > 1`).
    placer: Option<PlacerState>,
    /// The session's virtual clock. With one pod this always equals the
    /// engine's `now`; with several it bounds every pod's local clock
    /// from above (parked pods lag it).
    clock: u64,
    /// Pending submissions keyed by `(arrival, seq)` — iteration order is
    /// exactly the injection (and batch materialization) order.
    pending: BTreeMap<(u64, u64), PendingEntry>,
    seq_state: BTreeMap<u64, SeqState>,
    log: SubmissionLog,
    next_seq: u64,
    finished: Option<Finished>,
    /// Write-ahead log; when present, every accepted mutation is made
    /// durable here *before* the session state changes and the reply is
    /// written (the protocol's durability ordering contract).
    wal: Option<Wal>,
    /// Idempotency keys already accepted → the seq each was assigned.
    request_ids: BTreeMap<String, u64>,
}

impl Session {
    /// Builds a fresh session.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`codes::BAD_REQUEST`] for an unknown
    /// scheduler name, an unknown placer name, or a placer configured
    /// without `pods > 1`.
    pub fn new(config: SessionConfig) -> Result<Self, ProtocolError> {
        let pod_count = config.pods.max(1) as usize;
        // The same registry a batch comparison run resolves through: both
        // must start from identical scheduler state for the differential
        // byte-parity contract to hold.
        let algo = Algo::parse(&config.scheduler).ok_or_else(|| {
            ProtocolError::new(
                codes::BAD_REQUEST,
                format!("unknown scheduler `{}`", config.scheduler),
            )
        })?;
        let policy = match &config.placer {
            None => Placer::Demand,
            Some(name) if pod_count > 1 => Placer::parse(name).ok_or_else(|| {
                ProtocolError::new(
                    codes::BAD_REQUEST,
                    format!("unknown placer `{name}` (firstfit, worstfit, demand)"),
                )
            })?,
            Some(_) => {
                return Err(ProtocolError::new(
                    codes::BAD_REQUEST,
                    "a placer only makes sense with pods > 1",
                ))
            }
        };
        let mut pods = Vec::with_capacity(pod_count);
        for i in 0..pod_count {
            let pc = pod_cluster(&config.cluster, pod_count, i);
            let scheduler = algo.make(&pc);
            let (online, trace) =
                OnlineEngine::new(pc, config.max_slots).with_trace(config.trace_capacity as usize);
            pods.push(PodRuntime {
                scheduler,
                online: Some(online),
                trace,
            });
        }
        let placer = (pod_count > 1).then(|| {
            PlacerState::for_cluster(
                &ShardSpec::new(pod_count).with_placer(policy),
                &config.cluster,
            )
        });
        Ok(Session {
            config,
            pods,
            placer,
            clock: 0,
            pending: BTreeMap::new(),
            seq_state: BTreeMap::new(),
            log: SubmissionLog::new(),
            next_seq: 0,
            finished: None,
            wal: None,
            request_ids: BTreeMap::new(),
        })
    }

    /// Attaches a write-ahead log. From here on every accepted mutation
    /// is appended (and synced per the WAL's fsync policy) before the
    /// session state changes.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Whether a write-ahead log is attached.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
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
    /// `snapshot-corrupt`) — a damaged directory is never a panic.
    pub fn recover(
        fallback: SessionConfig,
        wal_config: WalConfig,
        faults: Option<DiskFaultPlan>,
    ) -> Result<(Self, RecoveryReport), ProtocolError> {
        let recovered = wal::recover_dir(&wal_config, faults).map_err(|e| e.to_protocol())?;
        let wal::WalRecovered {
            snapshot,
            tail,
            report,
            mut wal,
        } = recovered;
        let mut records = tail.into_iter();
        let mut session = match snapshot {
            Some(body) => Session::restore(body)?,
            None if report.fresh => {
                let mut session = Session::new(fallback)?;
                wal.append(&WalRecord::Genesis {
                    config: session.config.clone(),
                })
                .map_err(|e| e.to_protocol())?;
                session.wal = Some(wal);
                return Ok((session, report));
            }
            None => match records.next() {
                Some(WalRecord::Genesis { config }) => Session::new(config)?,
                _ => {
                    return Err(ProtocolError::new(
                        codes::WAL_CORRUPT,
                        "wal segment 1 must open with a genesis record",
                    ))
                }
            },
        };
        for record in records {
            session.apply_wal_record(record)?;
        }
        session.wal = Some(wal);
        Ok((session, report))
    }

    /// Replays one recovered WAL record into the session. `Tick` and
    /// `Drain` swallow their (deterministic) runtime errors: the live
    /// session also replied with an error and kept going, so the
    /// replayed state still matches it exactly.
    fn apply_wal_record(&mut self, record: WalRecord) -> Result<(), ProtocolError> {
        match record {
            WalRecord::Genesis { .. } => Err(ProtocolError::new(
                codes::WAL_CORRUPT,
                "genesis record outside the head of segment 1",
            )),
            WalRecord::Entry { entry, request_id } => self.apply_entry(entry, request_id),
            WalRecord::Tick { to } => {
                let _ = self.run_to(to, false);
                Ok(())
            }
            WalRecord::Drain { .. } => {
                if self.finished.is_none() {
                    let _ = self.drain_inner();
                }
                Ok(())
            }
            WalRecord::Seal { .. } => Ok(()),
        }
    }

    /// Rebuilds a session from a snapshot body: replays the recorded log
    /// through a fresh engine, then advances virtual time to the
    /// snapshotted slot. Determinism makes this exact crash recovery —
    /// the restored session continues byte-identically.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the config is invalid or the replay fails
    /// (which means the snapshot does not describe a reachable state).
    pub fn restore(body: SnapshotBody) -> Result<Self, ProtocolError> {
        let mut session = Session::new(body.config)?;
        for entry in &body.log.entries {
            match entry {
                LogEntry::Workflow {
                    seq, submission, ..
                } => {
                    let arrival = submission.workflow.submit_slot();
                    session
                        .pending
                        .insert((arrival, *seq), PendingEntry::Workflow(submission.clone()));
                    session.seq_state.insert(*seq, SeqState::Pending(arrival));
                }
                LogEntry::Adhoc {
                    seq, submission, ..
                } => {
                    let arrival = submission.arrival_slot;
                    session
                        .pending
                        .insert((arrival, *seq), PendingEntry::Adhoc(submission.clone()));
                    session.seq_state.insert(*seq, SeqState::Pending(arrival));
                }
                LogEntry::Cancel { seq, target, .. } => {
                    let arrival = match session.seq_state.get(target) {
                        Some(SeqState::Pending(a)) => *a,
                        _ => {
                            return Err(ProtocolError::new(
                                codes::SNAPSHOT_CORRUPT,
                                format!("cancel of non-pending submission {target} in log"),
                            ))
                        }
                    };
                    session.pending.remove(&(arrival, *target));
                    session.seq_state.insert(*target, SeqState::Cancelled);
                    session.seq_state.insert(*seq, SeqState::CancelRequest);
                }
            }
        }
        session.log = body.log;
        session.next_seq = body.next_seq;
        session.request_ids = body.request_ids;
        session.run_to(body.now, true)?;
        if session.now() != body.now {
            return Err(ProtocolError::new(
                codes::SNAPSHOT_CORRUPT,
                format!(
                    "replay reached slot {} but snapshot was taken at {}",
                    session.now(),
                    body.now
                ),
            ));
        }
        Ok(session)
    }

    /// Current virtual slot.
    pub fn now(&self) -> u64 {
        match &self.finished {
            Some(f) => f.now(),
            None => self.clock,
        }
    }

    /// True once the session has been drained.
    pub fn drained(&self) -> bool {
        self.finished.is_some()
    }

    /// The serialized outcome of a drained session — the canonical bytes
    /// the differential harness compares (see [`Finished::outcome_json`]).
    pub fn outcome_json(&self) -> Option<&str> {
        self.finished.as_ref().map(|f| f.outcome_json.as_str())
    }

    /// The frozen pod-0 decision trace of a drained session.
    pub fn final_trace(&self) -> Option<&DecisionTrace> {
        self.finished.as_ref().map(|f| &f.traces[0])
    }

    /// All frozen per-pod decision traces of a drained session.
    pub fn final_traces(&self) -> Option<&[DecisionTrace]> {
        self.finished.as_ref().map(|f| f.traces.as_slice())
    }

    /// All per-pod outcomes of a drained session, in pod order.
    pub fn final_outcomes(&self) -> Option<&[SimOutcome]> {
        self.finished.as_ref().map(|f| f.outcomes.as_slice())
    }

    /// The recorded submission log (the replay artifact).
    pub fn log(&self) -> &SubmissionLog {
        &self.log
    }

    /// Dispatches one parsed request, returning the `ok`-body JSON.
    /// `Shutdown` is acknowledged here; closing the transport is the
    /// server loop's job.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for every failure mode; the session
    /// never panics on bad input.
    pub fn handle(&mut self, request: Request) -> Result<String, ProtocolError> {
        match request {
            Request::SubmitWorkflow(sub, rid) => self.submit_workflow(*sub, rid),
            Request::SubmitAdhoc(sub, rid) => self.submit_adhoc(sub, rid),
            Request::Cancel(seq) => self.cancel(seq),
            Request::Tick(to) => self.tick(to),
            Request::Status => self.status(),
            Request::Query(seq) => self.query(seq),
            Request::Trace(limit) => self.trace_tail(limit),
            Request::Drain => self.drain(),
            Request::Outcome => self.outcome(),
            Request::Explain => self.explain_report(),
            Request::Snapshot => self.write_snapshot(),
            Request::Shutdown => Ok("{\"shutdown\":true}".to_string()),
        }
    }

    fn require_accepting(&self) -> Result<(), ProtocolError> {
        if self.finished.is_some() {
            return Err(ProtocolError::new(
                codes::ALREADY_DRAINED,
                "session is drained; no further mutation is accepted",
            ));
        }
        Ok(())
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
        if let Some(rid) = request_id {
            if let Some(orig) = self.request_ids.get(rid) {
                return Err(ProtocolError::new(
                    codes::DUPLICATE,
                    format!("request_id already accepted as submission {orig}"),
                )
                .with_data(format!("{{\"sub\":{orig}}}")));
            }
        }
        Ok(())
    }

    /// Makes an accepted influence durable. Without a WAL this is a
    /// no-op (legacy `durability=none` mode); with one, an append
    /// failure rejects the request before any state has changed.
    fn persist(&mut self, record: &WalRecord) -> Result<(), ProtocolError> {
        match &mut self.wal {
            Some(wal) => wal.append(record).map_err(|e| e.to_protocol()),
            None => Ok(()),
        }
    }

    /// Applies one validated log entry to the in-memory state — the
    /// single mutation path shared by live accepts and WAL replay, so a
    /// recovered session is state-identical to the live one by
    /// construction.
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
        match &entry {
            LogEntry::Workflow { submission, .. } => {
                let arrival = submission.workflow.submit_slot();
                self.pending
                    .insert((arrival, seq), PendingEntry::Workflow(submission.clone()));
                self.seq_state.insert(seq, SeqState::Pending(arrival));
            }
            LogEntry::Adhoc { submission, .. } => {
                let arrival = submission.arrival_slot;
                self.pending
                    .insert((arrival, seq), PendingEntry::Adhoc(submission.clone()));
                self.seq_state.insert(seq, SeqState::Pending(arrival));
            }
            LogEntry::Cancel { target, .. } => {
                let arrival = match self.seq_state.get(target) {
                    Some(SeqState::Pending(a)) => *a,
                    _ => {
                        return Err(ProtocolError::new(
                            codes::WAL_CORRUPT,
                            format!("cancel of non-pending submission {target} in log"),
                        ))
                    }
                };
                self.pending.remove(&(arrival, *target));
                self.seq_state.insert(*target, SeqState::Cancelled);
                self.seq_state.insert(seq, SeqState::CancelRequest);
            }
        }
        self.log.entries.push(entry);
        self.next_seq = seq + 1;
        if let Some(rid) = request_id {
            self.request_ids.insert(rid, seq);
        }
        Ok(())
    }

    fn submit_workflow(
        &mut self,
        submission: WorkflowSubmission,
        request_id: Option<String>,
    ) -> Result<String, ProtocolError> {
        self.require_accepting()?;
        self.check_duplicate(request_id.as_ref())?;
        let arrival = submission.workflow.submit_slot();
        self.check_arrival(arrival)?;
        let n = submission.workflow.len();
        if submission
            .actual_work
            .as_ref()
            .is_some_and(|v| v.len() != n)
            || submission
                .job_deadlines
                .as_ref()
                .is_some_and(|v| v.len() != n)
        {
            return Err(ProtocolError::new(
                codes::MALFORMED_SUBMISSION,
                "per-node vector length differs from workflow size",
            ));
        }
        let seq = self.next_seq;
        let entry = LogEntry::Workflow {
            seq,
            at: self.now(),
            submission,
        };
        // Durable before any state change, durable before the reply.
        self.persist(&WalRecord::Entry {
            entry: entry.clone(),
            request_id: request_id.clone(),
        })?;
        self.apply_entry(entry, request_id)?;
        Ok(format!(
            "{{\"sub\":{seq},\"arrival\":{arrival},\"jobs\":{n}}}"
        ))
    }

    fn submit_adhoc(
        &mut self,
        submission: AdhocSubmission,
        request_id: Option<String>,
    ) -> Result<String, ProtocolError> {
        self.require_accepting()?;
        self.check_duplicate(request_id.as_ref())?;
        let arrival = submission.arrival_slot;
        self.check_arrival(arrival)?;
        let seq = self.next_seq;
        let entry = LogEntry::Adhoc {
            seq,
            at: self.now(),
            submission,
        };
        self.persist(&WalRecord::Entry {
            entry: entry.clone(),
            request_id: request_id.clone(),
        })?;
        self.apply_entry(entry, request_id)?;
        Ok(format!(
            "{{\"sub\":{seq},\"arrival\":{arrival},\"jobs\":1}}"
        ))
    }

    fn cancel(&mut self, target: u64) -> Result<String, ProtocolError> {
        self.require_accepting()?;
        match self.seq_state.get(&target) {
            Some(SeqState::Pending(_)) => {
                let entry = LogEntry::Cancel {
                    seq: self.next_seq,
                    at: self.now(),
                    target,
                };
                self.persist(&WalRecord::Entry {
                    entry: entry.clone(),
                    request_id: None,
                })?;
                self.apply_entry(entry, None)?;
                Ok(format!("{{\"cancelled\":{target}}}"))
            }
            Some(SeqState::Cancelled) => Err(ProtocolError::new(
                codes::CANCEL_TOO_LATE,
                format!("submission {target} was already cancelled"),
            )),
            Some(SeqState::Injected { .. }) => Err(ProtocolError::new(
                codes::CANCEL_TOO_LATE,
                format!("submission {target} already materialized into the engine"),
            )),
            Some(SeqState::CancelRequest) | None => Err(ProtocolError::new(
                codes::UNKNOWN_SUBMISSION,
                format!("no submission with sequence number {target}"),
            )),
        }
    }

    /// Materializes every pending submission whose arrival slot has been
    /// reached by the session clock, in `(arrival, seq)` order — the order
    /// [`flowtime_sim::place_log`] replays — placing each through the
    /// sharded placer when one is configured.
    fn flush_arrivals(&mut self) -> Result<(), ProtocolError> {
        while let Some((&(arrival, seq), _)) = self.pending.iter().next() {
            if arrival > self.clock {
                break;
            }
            let entry = self
                .pending
                .remove(&(arrival, seq))
                .expect("key just observed");
            let pod = match (&mut self.placer, &entry) {
                (None, _) => 0,
                (Some(ps), PendingEntry::Workflow(sub)) => ps.place_workflow(sub),
                (Some(ps), PendingEntry::Adhoc(sub)) => ps.place_adhoc(sub),
            };
            let runtime = &mut self.pods[pod];
            let online = runtime
                .online
                .as_mut()
                .expect("flush only runs while accepting");
            let ids = match entry {
                PendingEntry::Workflow(sub) => online.submit_workflow(sub),
                PendingEntry::Adhoc(sub) => online.submit_adhoc(sub).map(|id| vec![id]),
            }
            .map_err(engine_error)?;
            self.seq_state.insert(seq, SeqState::Injected { pod, ids });
        }
        Ok(())
    }

    /// Advances every pod toward the (just-incremented) session clock by
    /// one round: a pod with incomplete work simulates its next local
    /// slot; an idle pod burns the gap slot only when it is the sole pod
    /// and future submissions are queued (the pre-sharding engine's exact
    /// behavior, and what a batch run whose table holds that future
    /// arrival would do). Idle pods of a sharded session park instead —
    /// their local clock lags until a placement lands on them, keeping
    /// their timeline identical to a batch run over their sub-log.
    ///
    /// `force_burn` makes a sole idle pod burn the gap even with an empty
    /// queue — snapshot replay only (see [`Session::run_to`]).
    ///
    /// Returns `false` when a pod hit its slot horizon (nothing was
    /// simulated for it); the caller decides whether that is an error
    /// (`tick`) or a partial-outcome stop (`drain`).
    fn advance_clock_tick(&mut self, force_burn: bool) -> Result<bool, ProtocolError> {
        let single = self.pods.len() == 1;
        let burn_gap = force_burn || !self.pending.is_empty();
        for runtime in &mut self.pods {
            let online = runtime.online.as_mut().expect("running session");
            while online.now() < self.clock {
                let step = if online.incomplete() > 0 {
                    online.step(&mut *runtime.scheduler)
                } else if single && burn_gap {
                    online.step_idle(&mut *runtime.scheduler)
                } else {
                    break; // Parked: local time lags until new work arrives.
                }
                .map_err(engine_error)?;
                match step {
                    StepOutcome::Advanced => {}
                    StepOutcome::Complete => break,
                    StepOutcome::HorizonExhausted => return Ok(false),
                }
            }
        }
        Ok(true)
    }

    /// Advances virtual time to `target`, injecting arrivals on the way.
    /// Parks (stops early) when no work remains anywhere — the batch run
    /// would have ended there too.
    ///
    /// `replay` disables parking: during snapshot restore the recorded
    /// `now` proves the live session reached `target`, even though a
    /// logged cancel (applied up front on replay) may have emptied the
    /// queue that justified burning the gap live. The replayed engine
    /// calls are still identical — a burned slot never observes the
    /// queue — so the restored session continues byte-identically.
    fn run_to(&mut self, target: u64, replay: bool) -> Result<(), ProtocolError> {
        while self.clock < target {
            self.flush_arrivals()?;
            let all_idle = self
                .pods
                .iter()
                .all(|p| p.online.as_ref().expect("running session").incomplete() == 0);
            if !replay && all_idle && self.pending.is_empty() {
                break; // Parked: nothing to simulate until new work.
            }
            self.clock += 1;
            if !self.advance_clock_tick(replay)? {
                self.clock -= 1;
                return Err(ProtocolError::new(
                    codes::HORIZON_EXHAUSTED,
                    format!("slot horizon {} exhausted", self.config.max_slots),
                ));
            }
        }
        Ok(())
    }

    fn tick(&mut self, to: u64) -> Result<String, ProtocolError> {
        self.require_accepting()?;
        // The clock advance is durable before it happens: a failing
        // advance (horizon exhaustion) is deterministic, so replaying
        // the record reproduces the same partial state and same error.
        self.persist(&WalRecord::Tick { to })?;
        self.run_to(to, false)?;
        let incomplete: usize = self
            .pods
            .iter()
            .map(|p| p.online.as_ref().expect("running session").incomplete())
            .sum();
        Ok(format!(
            "{{\"now\":{},\"incomplete\":{},\"pending\":{}}}",
            self.clock,
            incomplete,
            self.pending.len()
        ))
    }

    /// Runs everything — pending and injected — to completion, then
    /// freezes the outcome and trace. Idempotent: draining a drained
    /// session returns the same summary (and appends no second WAL
    /// record).
    fn drain(&mut self) -> Result<String, ProtocolError> {
        if self.finished.is_none() {
            self.persist(&WalRecord::Drain { at: self.clock })?;
        }
        self.drain_inner()
    }

    /// The WAL-free drain body, shared by the live path (which persists
    /// first) and recovery replay (which must not re-persist).
    fn drain_inner(&mut self) -> Result<String, ProtocolError> {
        if self.finished.is_none() {
            loop {
                self.flush_arrivals()?;
                let all_idle = self
                    .pods
                    .iter()
                    .all(|p| p.online.as_ref().expect("running session").incomplete() == 0);
                if all_idle && self.pending.is_empty() {
                    // Mirror the batch engine's final step: observing
                    // `Complete` runs the exact-conservation final check
                    // on every pod (a violation is an engine bug and
                    // surfaces as a typed error, exactly as before).
                    for runtime in &mut self.pods {
                        let online = runtime.online.as_mut().expect("running session");
                        online.step(&mut *runtime.scheduler).map_err(engine_error)?;
                    }
                    break;
                }
                self.clock += 1;
                if !self.advance_clock_tick(false)? {
                    self.clock -= 1;
                    break; // Horizon exhausted: freeze the partial outcome.
                }
            }
            let mut outcomes = Vec::with_capacity(self.pods.len());
            let mut traces = Vec::with_capacity(self.pods.len());
            for runtime in &mut self.pods {
                let online = runtime.online.take().expect("running session");
                outcomes.push(online.finish(&mut *runtime.scheduler));
                traces.push(runtime.trace.take());
            }
            let outcome_json = if outcomes.len() == 1 {
                serde_json::to_string(&outcomes[0])
                    .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?
            } else {
                let mut per = Vec::with_capacity(outcomes.len());
                for o in &outcomes {
                    per.push(
                        serde_json::to_string(o)
                            .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?,
                    );
                }
                format!("{{\"pods\":[{}]}}", per.join(","))
            };
            self.finished = Some(Finished {
                outcome_json,
                outcomes,
                traces,
            });
        }
        let f = self.finished.as_ref().expect("just set");
        Ok(format!(
            "{{\"now\":{},\"completed_jobs\":{},\"complete\":{}}}",
            f.now(),
            f.completed_jobs(),
            f.complete()
        ))
    }

    fn status(&mut self) -> Result<String, ProtocolError> {
        if let Some(f) = &self.finished {
            return Ok(format!(
                "{{\"phase\":\"drained\",\"now\":{},\"completed_jobs\":{},\"complete\":{}}}",
                f.now(),
                f.completed_jobs(),
                f.complete()
            ));
        }
        if self.pods.len() == 1 {
            let runtime = &self.pods[0];
            let online = runtime.online.as_ref().expect("running session");
            let st = online.status();
            let status_json = serde_json::to_string(&st)
                .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?;
            let solver = match runtime.scheduler.telemetry() {
                Some(t) => serde_json::to_string(&t)
                    .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?,
                None => "null".to_string(),
            };
            return Ok(format!(
                "{{\"phase\":\"accepting\",\"engine\":{status_json},\"solver\":{solver},\"pending\":{},\"logged\":{}}}",
                self.pending.len(),
                self.log.len()
            ));
        }
        // Sharded: an aggregate `engine` header (so clients that only read
        // `engine.now` keep working) plus one full status per pod.
        let mut incomplete = 0usize;
        let mut pod_statuses = Vec::with_capacity(self.pods.len());
        let mut solver: Option<SolverTelemetry> = None;
        for runtime in &self.pods {
            let online = runtime.online.as_ref().expect("running session");
            incomplete += online.incomplete();
            pod_statuses.push(
                serde_json::to_string(&online.status())
                    .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?,
            );
            if let Some(t) = runtime.scheduler.telemetry() {
                match &mut solver {
                    Some(agg) => agg.accumulate(&t),
                    None => solver = Some(t),
                }
            }
        }
        let solver_json = match &solver {
            Some(t) => serde_json::to_string(t)
                .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?,
            None => "null".to_string(),
        };
        Ok(format!(
            "{{\"phase\":\"accepting\",\"engine\":{{\"now\":{},\"incomplete\":{incomplete}}},\"pods\":[{}],\"solver\":{solver_json},\"pending\":{},\"logged\":{}}}",
            self.clock,
            pod_statuses.join(","),
            self.pending.len(),
            self.log.len()
        ))
    }

    fn query(&mut self, seq: u64) -> Result<String, ProtocolError> {
        match self.seq_state.get(&seq) {
            None => Err(ProtocolError::new(
                codes::UNKNOWN_SUBMISSION,
                format!("no submission with sequence number {seq}"),
            )),
            Some(SeqState::CancelRequest) => {
                Ok(format!("{{\"sub\":{seq},\"state\":\"cancel-request\"}}"))
            }
            Some(SeqState::Pending(arrival)) => Ok(format!(
                "{{\"sub\":{seq},\"state\":\"pending\",\"arrival\":{arrival}}}"
            )),
            Some(SeqState::Cancelled) => Ok(format!("{{\"sub\":{seq},\"state\":\"cancelled\"}}")),
            Some(SeqState::Injected { pod, ids }) => {
                let mut jobs = Vec::new();
                for id in ids {
                    if let Some(online) = &self.pods[*pod].online {
                        if let Some(p) = online.job_progress(*id) {
                            jobs.push(serde_json::to_string(&p).map_err(|e| {
                                ProtocolError::new(codes::ENGINE_ERROR, e.to_string())
                            })?);
                        }
                    } else {
                        jobs.push(format!("{{\"id\":{}}}", id.as_u64()));
                    }
                }
                Ok(format!(
                    "{{\"sub\":{seq},\"state\":\"materialized\",\"jobs\":[{}]}}",
                    jobs.join(",")
                ))
            }
        }
    }

    fn trace_tail(&mut self, limit: usize) -> Result<String, ProtocolError> {
        // Sharded sessions serve pod 0's trace here; the full per-pod set
        // is available through [`Session::final_traces`] after drain.
        let trace = match &self.finished {
            Some(f) => f.traces[0].clone(),
            None => self.pods[0].trace.snapshot(),
        };
        let events: Vec<&flowtime_sim::TraceEvent> = trace.events().collect();
        let skip = events.len().saturating_sub(limit);
        let mut tail = Vec::new();
        for ev in &events[skip..] {
            tail.push(
                serde_json::to_string(ev)
                    .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?,
            );
        }
        Ok(format!(
            "{{\"recorded\":{},\"dropped\":{},\"tail\":[{}]}}",
            trace.recorded(),
            trace.dropped(),
            tail.join(",")
        ))
    }

    fn outcome(&self) -> Result<String, ProtocolError> {
        match &self.finished {
            Some(f) => Ok(format!("{{\"outcome\":{}}}", f.outcome_json)),
            None => Err(ProtocolError::new(
                codes::NOT_DRAINED,
                "outcome is only available after `drain`",
            )),
        }
    }

    /// `explain` over a drained session: re-certifies the frozen outcome
    /// and trace against the recorded submission log, then emits the
    /// per-missed-workflow E00x causal chains
    /// ([`flowtime_sim::explain_log`]). Only unsharded sessions can be
    /// explained in place — the log-replay certifier has no per-pod
    /// workload slices; sharded sessions export their per-pod traces
    /// (whose headers carry the pod provenance) for the offline
    /// `flowtime-cli explain` path instead.
    fn explain_report(&self) -> Result<String, ProtocolError> {
        let finished = self.finished.as_ref().ok_or_else(|| {
            ProtocolError::new(
                codes::NOT_DRAINED,
                "explain is only available after `drain`",
            )
        })?;
        if self.pods.len() > 1 {
            return Err(ProtocolError::new(
                codes::BAD_REQUEST,
                "explain serves unsharded sessions; export the per-pod traces and use \
                 `flowtime-cli explain` (the trace headers carry the pod provenance)",
            ));
        }
        let outcome = finished
            .outcomes
            .first()
            .expect("drained session has an outcome");
        let trace = finished
            .traces
            .first()
            .expect("drained session has a trace");
        let report = flowtime_sim::explain_log(&self.config.cluster, &self.log, outcome, trace)
            .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?;
        let json = serde_json::to_string(&report)
            .map_err(|e| ProtocolError::new(codes::ENGINE_ERROR, e.to_string()))?;
        Ok(format!("{{\"explain\":{json}}}"))
    }

    /// Persists the session's replayable state. With a WAL attached the
    /// snapshot is a compaction point in the WAL directory (segment
    /// sealed and rotated, old generations pruned after the new
    /// snapshot self-checks); otherwise it goes to the legacy
    /// `snapshot_path`.
    pub fn write_snapshot(&mut self) -> Result<String, ProtocolError> {
        if self.finished.is_some() {
            return Err(ProtocolError::new(
                codes::ALREADY_DRAINED,
                "drained sessions have nothing left to snapshot",
            ));
        }
        let mut body = SnapshotBody {
            config: self.config.clone(),
            log: self.log.clone(),
            now: self.now(),
            next_seq: self.next_seq,
            wal_segment: 0,
            request_ids: self.request_ids.clone(),
        };
        if let Some(wal) = &mut self.wal {
            body.wal_segment = wal.segment() + 1;
            let bytes = snapshot::render(&body)
                .map_err(|e| ProtocolError::new(codes::SNAPSHOT_IO, e.to_string()))?
                .len();
            let path = wal.save_snapshot(&body).map_err(|e| e.to_protocol())?;
            let path_json = serde_json::to_string(&path.display().to_string())
                .map_err(|e| ProtocolError::new(codes::SNAPSHOT_IO, e.to_string()))?;
            return Ok(format!("{{\"path\":{path_json},\"bytes\":{bytes}}}"));
        }
        let path =
            self.config.snapshot_path.as_ref().ok_or_else(|| {
                ProtocolError::new(codes::SNAPSHOT_IO, "no snapshot path configured")
            })?;
        let bytes = snapshot::save(path, &body)
            .map_err(|e| ProtocolError::new(codes::SNAPSHOT_IO, e.to_string()))?;
        let path_json = serde_json::to_string(path)
            .map_err(|e| ProtocolError::new(codes::SNAPSHOT_IO, e.to_string()))?;
        Ok(format!("{{\"path\":{path_json},\"bytes\":{bytes}}}"))
    }
}

/// Maps an engine error into the protocol's typed form.
fn engine_error(e: SimError) -> ProtocolError {
    match e {
        SimError::MalformedSubmission { .. } => {
            ProtocolError::new(codes::MALFORMED_SUBMISSION, e.to_string())
        }
        SimError::HorizonExhausted { .. } => {
            ProtocolError::new(codes::HORIZON_EXHAUSTED, e.to_string())
        }
        other => ProtocolError::new(codes::ENGINE_ERROR, other.to_string()),
    }
}
