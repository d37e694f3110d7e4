//! The simulation engine.
//!
//! The run loop is event-driven: arrivals and dependency releases live in a
//! binary-heap event queue and the runnable/visible job views are maintained
//! incrementally (see [`crate::state::SimState`]), so per-slot cost tracks
//! the number of jobs that *change* state rather than the number alive. The
//! historical linear-scan loop is preserved as [`crate::oracle::OracleEngine`]
//! and differential tests pin the two to identical outcomes.

use crate::cluster::{CapacityWindow, ClusterConfig};
use crate::error::SimError;
use crate::faults::{RecoveryPolicy, RecoverySetup, RuntimeFaultPlan, ShedPolicy};
use crate::invariants::InvariantChecker;
use crate::job::{AdhocSubmission, JobClass, JobRuntime, SimWorkload, WorkflowSubmission};
use crate::metrics::{
    InFlightJob, JobOutcome, Metrics, MissAttribution, NodeSlackUse, RecoveryStats, ShedJob,
    WorkflowOutcome,
};
use crate::scheduler::Scheduler;
use crate::state::{Live, SimState, WorkflowInstance};
use crate::telemetry::{EngineTelemetry, SolverTelemetry};
use crate::timeline::{Timeline, TimelineEntry};
use crate::trace::{TraceCtx, TraceEvent, TraceHandle, TraceHeader, TraceJobMeta};
use flowtime_dag::{JobId, ResourceVec};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Aggregated metrics. On a horizon-exhausted run these cover only the
    /// jobs (and fully-finished workflows) that completed in time.
    pub metrics: Metrics,
    /// Number of slots simulated until the last completion.
    pub slots_elapsed: u64,
    /// Full allocation recording, when enabled via
    /// [`Engine::with_timeline`].
    pub timeline: Option<Timeline>,
    /// Solver-effort counters reported by the scheduler at the end of the
    /// run (see [`crate::telemetry`]); `None` for solver-free schedulers.
    #[serde(default)]
    pub solver_telemetry: Option<SolverTelemetry>,
    /// Engine hot-path counters for this run (see [`crate::telemetry`]);
    /// wall-clock time is excluded from serialization and equality.
    #[serde(default)]
    pub engine_telemetry: EngineTelemetry,
    /// Jobs still unfinished when the slot horizon ran out; empty on a
    /// complete run. See [`Self::is_complete`].
    #[serde(default)]
    pub in_flight: Vec<InFlightJob>,
    /// Deadline-miss attribution: one report per fully-completed workflow
    /// with decomposed per-job milestones, recording which node set
    /// consumed the decomposed slack (see [`MissAttribution`]).
    #[serde(default)]
    pub deadline_attribution: Vec<MissAttribution>,
    /// Mid-run failure/recovery counters (see [`Engine::with_recovery`]).
    /// All-zero — and omitted from serialization — whenever recovery is
    /// off or never fired, keeping pre-recovery outcomes byte-identical.
    #[serde(default, skip_serializing_if = "RecoveryStats::is_inert")]
    pub recovery: RecoveryStats,
    /// Ad-hoc jobs dropped by admission control under sustained overload;
    /// empty (and omitted from serialization) unless the shed policy
    /// fired. Shed jobs count as neither completed nor in flight.
    #[serde(default, skip_serializing_if = "crate::serde_skip::empty_vec")]
    pub shed: Vec<ShedJob>,
}

impl SimOutcome {
    /// True when every submitted job finished within the horizon. When
    /// false, [`Self::in_flight`] lists the unfinished jobs and the
    /// metrics cover only the completed portion of the workload.
    pub fn is_complete(&self) -> bool {
        self.in_flight.is_empty()
    }
}

/// Event kind: a job's submission slot was reached (enters the visible
/// set). Ordered before [`EV_READY`] within a slot so a job is always
/// visible by the time it becomes runnable.
pub(crate) const EV_ARRIVAL: u8 = 0;
/// Event kind: a job's dependencies are satisfied (enters the runnable
/// set).
pub(crate) const EV_READY: u8 = 1;
/// Event kind: a killed attempt's backoff expired — the job re-enters the
/// runnable set, with no fresh `Ready` trace event (the retry slot is
/// derivable from the `Kill` event and the recovery policy).
const EV_RETRY: u8 = 2;

/// One pending state change, keyed `(slot, kind, job)`; `Reverse` turns
/// `BinaryHeap`'s max-heap into the min-heap the run loop pops from.
pub(crate) type Event = Reverse<(u64, u8, JobId)>;

/// Result of a single [`Engine::step`]: did the engine simulate a slot,
/// observe completion, or hit its horizon?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One slot was simulated and virtual time advanced by one.
    Advanced,
    /// Every known job is complete; the final invariants held. Virtual
    /// time did not advance. Stepping again after injecting more work
    /// (see [`crate::OnlineEngine`]) is valid and resumes the run.
    Complete,
    /// `max_slots` reached with work still pending; nothing was simulated.
    HorizonExhausted,
}

/// Runtime state of an armed failure/recovery subsystem (see
/// [`Engine::with_recovery`]).
struct RecoveryCtx {
    /// The seeded mid-run fault plan; every verdict is a pure function the
    /// offline auditor replays identically.
    plan: RuntimeFaultPlan,
    /// Retry bounds and degradation rules (sustain clamped to ≥ 1).
    policy: RecoveryPolicy,
    /// Work of ad-hoc jobs deferred by admission control and not yet
    /// re-admitted: they have arrived but sit outside `SimState::visible`,
    /// and the overload detector counts them in its backlog.
    deferred_backlog: u64,
    /// Materialized node-crash windows, ascending by `from_slot`.
    windows: Vec<CapacityWindow>,
    /// First window whose opening has not yet been processed.
    next_window: usize,
    /// Consecutive end-of-slot overload observations.
    overload_streak: u64,
    /// Counters surfaced as [`SimOutcome::recovery`].
    stats: RecoveryStats,
    /// Per-workflow infeasibility flag, set at most once each.
    flagged: Vec<bool>,
}

/// Drives a [`Scheduler`] over a [`SimWorkload`] slot by slot.
///
/// The engine is deterministic: identical workload, cluster, and scheduler
/// state produce identical outcomes, which is what makes algorithm
/// comparisons meaningful.
pub struct Engine {
    pub(crate) state: SimState,
    pub(crate) max_slots: u64,
    pub(crate) slot_loads: Vec<ResourceVec>,
    pub(crate) slot_capacities: Vec<ResourceVec>,
    pub(crate) timeline: Option<Timeline>,
    pub(crate) checker: InvariantChecker,
    pub(crate) telemetry: EngineTelemetry,
    /// Decision-trace recording context; `None` (the default) is the
    /// zero-cost path — no event is constructed and no telemetry is
    /// polled when tracing is off.
    pub(crate) trace: Option<TraceCtx>,
    /// Min-heap of pending arrival/readiness events.
    pub(crate) events: BinaryHeap<Event>,
    /// `(workflow index, DAG node)` of each workflow job, by job index;
    /// `None` for ad-hoc jobs.
    pub(crate) job_nodes: Vec<Option<(usize, usize)>>,
    /// Per workflow, per node: count of predecessors not yet complete. A
    /// node is released the moment its count reaches zero.
    pub(crate) pending_preds: Vec<Vec<usize>>,
    /// Mid-run failure/recovery context; `None` (the default) keeps every
    /// recovery branch untaken and the run byte-identical to builds that
    /// predate the subsystem.
    recovery: Option<RecoveryCtx>,
    /// Buffer for one slot's `job → tasks` grants, reused from slot to
    /// slot.
    pairs: Vec<(JobId, u64)>,
}

/// Incremental builder for the engine's dense job table. Both the batch
/// constructors ([`Engine::new`], [`Engine::from_log`]) and the online
/// injection path ([`crate::OnlineEngine`]) funnel through this type, so
/// the per-submission runtime layout is defined in exactly one place.
///
/// `base_job` / `base_workflow` offset the assigned ids, letting the
/// online engine splice freshly-built rows onto an already-populated
/// table without disturbing the dense-id contract.
pub(crate) struct TableBuilder {
    pub(crate) base_job: u64,
    pub(crate) base_workflow: usize,
    pub(crate) jobs: Vec<JobRuntime>,
    pub(crate) workflows: Vec<WorkflowInstance>,
    pub(crate) job_nodes: Vec<Option<(usize, usize)>>,
    pub(crate) pending_preds: Vec<Vec<usize>>,
}

impl TableBuilder {
    /// An empty table starting at job id 0, workflow index 0.
    pub(crate) fn new() -> Self {
        Self::offset(0, 0)
    }

    /// An empty table whose first job gets id `base_job` and whose first
    /// workflow gets index `base_workflow`.
    pub(crate) fn offset(base_job: u64, base_workflow: usize) -> Self {
        TableBuilder {
            base_job,
            base_workflow,
            jobs: Vec::new(),
            workflows: Vec::new(),
            job_nodes: Vec::new(),
            pending_preds: Vec::new(),
        }
    }

    /// Appends one workflow submission: one job per DAG node, in node
    /// order, with sources ready at the submit slot.
    pub(crate) fn push_workflow(&mut self, submission: WorkflowSubmission) -> Result<(), SimError> {
        submission.validate()?;
        let wf = &submission.workflow;
        let n = wf.len();
        let mut job_ids = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        for (node, spec) in wf.jobs().iter().enumerate() {
            let id = JobId::new(self.base_job + self.jobs.len() as u64);
            let actual_work = submission
                .actual_work
                .as_ref()
                .map_or_else(|| spec.work(), |v| v[node]);
            let n_preds = wf.dag().predecessors(node).len();
            self.jobs.push(JobRuntime {
                id,
                class: JobClass::Deadline {
                    workflow: wf.id(),
                    node,
                },
                estimate: spec.clone(),
                actual_work,
                arrival_slot: wf.submit_slot(),
                ready_slot: (n_preds == 0).then_some(wf.submit_slot()),
                done_work: 0,
                completion_slot: None,
                deadline_slot: submission.job_deadlines.as_ref().map(|v| v[node]),
                attempt: 0,
                wasted: 0,
                retry_at: 0,
                shed_slot: None,
                deferred: false,
            });
            job_ids.push(id);
            self.job_nodes
                .push(Some((self.base_workflow + self.workflows.len(), node)));
            preds.push(n_preds);
        }
        self.pending_preds.push(preds);
        self.workflows
            .push(WorkflowInstance::new(submission, job_ids));
        Ok(())
    }

    /// Appends one ad-hoc job, ready at its arrival slot.
    pub(crate) fn push_adhoc(&mut self, adhoc: AdhocSubmission) -> Result<(), SimError> {
        adhoc.validate()?;
        let id = JobId::new(self.base_job + self.jobs.len() as u64);
        self.jobs.push(JobRuntime {
            id,
            class: JobClass::AdHoc,
            actual_work: adhoc.spec.work(),
            estimate: adhoc.spec,
            arrival_slot: adhoc.arrival_slot,
            ready_slot: Some(adhoc.arrival_slot),
            done_work: 0,
            completion_slot: None,
            deadline_slot: None,
            attempt: 0,
            wasted: 0,
            retry_at: 0,
            shed_slot: None,
            deferred: false,
        });
        self.job_nodes.push(None);
        Ok(())
    }
}

impl Engine {
    /// Builds an engine over `workload`, bounding the run at `max_slots`.
    ///
    /// Job ids are assigned densely: workflow jobs first (in submission
    /// order, node order), then ad-hoc jobs in submission order.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] for a submission that fails its
    /// `validate` ([`WorkflowSubmission::validate`],
    /// [`AdhocSubmission::validate`]).
    pub fn new(
        cluster: ClusterConfig,
        workload: SimWorkload,
        max_slots: u64,
    ) -> Result<Self, SimError> {
        let mut table = TableBuilder::new();
        for submission in workload.workflows {
            table.push_workflow(submission)?;
        }
        for adhoc in workload.adhoc {
            table.push_adhoc(adhoc)?;
        }
        Ok(Self::assemble(cluster, table, max_slots))
    }

    /// Builds an engine from a [`SubmissionLog`]: cancelled submissions
    /// are dropped and job ids are assigned densely in `(arrival slot,
    /// submission sequence)` order — the same order an online session
    /// injects them in, which is what makes a batch replay of a recorded
    /// log byte-identical to the live run.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] for a submission that fails its
    /// `validate`, or a cancel entry that does not resolve to exactly one earlier
    /// submission.
    pub fn from_log(
        cluster: ClusterConfig,
        log: &crate::submission::SubmissionLog,
        max_slots: u64,
    ) -> Result<Self, SimError> {
        let mut table = TableBuilder::new();
        for entry in log.effective()? {
            match entry {
                crate::submission::EffectiveSubmission::Workflow(sub) => {
                    table.push_workflow(sub.clone())?;
                }
                crate::submission::EffectiveSubmission::Adhoc(sub) => {
                    table.push_adhoc(sub.clone())?;
                }
            }
        }
        Ok(Self::assemble(cluster, table, max_slots))
    }

    /// Finishes construction from a fully-populated job table: seeds the
    /// incremental indices for slot 0 and queues every future state
    /// change on the event heap.
    pub(crate) fn assemble(cluster: ClusterConfig, table: TableBuilder, max_slots: u64) -> Self {
        let TableBuilder {
            jobs,
            workflows,
            job_nodes,
            pending_preds,
            ..
        } = table;
        let mut state = SimState {
            now: 0,
            cluster,
            jobs,
            workflows,
            runnable: Default::default(),
            runnable_deadline: Default::default(),
            visible: Default::default(),
            visible_deadline: Default::default(),
            zero_need: Default::default(),
            departed: Vec::new(),
            incomplete: 0,
            crash_overlay: Vec::new(),
        };
        assert!(state.ids_are_dense(0), "job ids name their table rows");
        // Seed the incremental indices for slot 0 (so views are correct
        // even before `run`) and queue every future state change.
        state.rebuild_indices();
        let mut telemetry = EngineTelemetry::default();
        let mut events = BinaryHeap::new();
        for job in &state.jobs {
            if job.arrival_slot > 0 {
                events.push(Reverse((job.arrival_slot, EV_ARRIVAL, job.id)));
                telemetry.heap_ops += 1;
            }
            if let Some(r) = job.ready_slot {
                if r > 0 {
                    events.push(Reverse((r, EV_READY, job.id)));
                    telemetry.heap_ops += 1;
                }
            }
        }
        Engine {
            state,
            max_slots,
            slot_loads: Vec::new(),
            slot_capacities: Vec::new(),
            timeline: None,
            checker: InvariantChecker::new(),
            telemetry,
            trace: None,
            events,
            job_nodes,
            pending_preds,
            recovery: None,
            pairs: Vec::new(),
        }
    }

    /// Read access to the engine's world state (for in-crate tests).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &SimState {
        &self.state
    }

    /// Mutable access to the engine's world state (for in-crate tests that
    /// deliberately corrupt it).
    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut SimState {
        &mut self.state
    }

    /// Enables decision-trace recording into a ring buffer bounded at
    /// `capacity` events (see [`crate::trace`]). The returned
    /// [`TraceHandle`] stays valid after the run: call
    /// [`TraceHandle::take`] once the engine finishes to obtain the
    /// recorded [`crate::DecisionTrace`].
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> (Self, TraceHandle) {
        let (ctx, handle) = TraceCtx::new(capacity);
        self.trace = Some(ctx);
        (self, handle)
    }

    /// Enables per-allocation recording; the result is returned in
    /// [`SimOutcome::timeline`] and can be rendered with
    /// [`crate::timeline::render_gantt`].
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.timeline = Some(Timeline::default());
        self
    }

    /// Arms the mid-run failure/recovery subsystem: `setup.faults` drives
    /// deterministic task failures, node-crash windows, and straggler
    /// inflation; `setup.policy` bounds retries and applies graceful
    /// degradation under sustained overload. An inert setup
    /// ([`RecoverySetup::is_inert`]) leaves the run — and its serialized
    /// outcome — byte-identical to one without this call, provided the
    /// workload never trips the infeasibility detector.
    #[must_use]
    pub fn with_recovery(mut self, setup: RecoverySetup) -> Self {
        let mut policy = setup.policy;
        // Sustain < 1 would let the controller shed before ever observing
        // an overloaded slot; clamp like `RecoveryPolicy::with_overload`.
        policy.sustain_slots = policy.sustain_slots.max(1);
        // Same horizon rule as `crate::faults::runtime_fault_horizon`, so
        // the auditor materializes the identical window list offline.
        let horizon = self
            .state
            .workflows
            .iter()
            .map(|w| {
                let wf = &w.submission.workflow;
                wf.submit_slot() + wf.window_slots()
            })
            .chain(
                self.state
                    .jobs
                    .iter()
                    .filter(|j| j.class.is_adhoc())
                    .map(|j| j.arrival_slot + 1),
            )
            .max()
            .unwrap_or(0)
            .max(1);
        let plan = RuntimeFaultPlan::new(setup.faults);
        let windows = plan.crash_windows(self.state.cluster.capacity(), horizon);
        self.state.crash_overlay = windows.clone();
        let flagged = vec![false; self.state.workflows.len()];
        self.recovery = Some(RecoveryCtx {
            plan,
            policy,
            windows,
            next_window: 0,
            deferred_backlog: 0,
            overload_streak: 0,
            stats: RecoveryStats::default(),
            flagged,
        });
        self
    }

    /// Runs `scheduler` until every job completes or `max_slots` is
    /// reached. If the horizon runs out first, the outcome is still `Ok`:
    /// the completed portion of the workload lands in the metrics and the
    /// unfinished jobs are drained into [`SimOutcome::in_flight`]
    /// (check [`SimOutcome::is_complete`]).
    ///
    /// # Errors
    ///
    /// Scheduler-misbehaviour errors ([`SimError::CapacityExceeded`],
    /// [`SimError::UnknownJob`], [`SimError::JobNotRunnable`],
    /// [`SimError::ParallelismExceeded`]) and, for the engine's own
    /// bookkeeping, [`SimError::InvariantViolation`].
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> Result<SimOutcome, SimError> {
        let t0 = Instant::now();
        self.begin_trace(scheduler.name());
        loop {
            match self.step(scheduler, false)? {
                StepOutcome::Advanced => {}
                StepOutcome::Complete => {
                    self.telemetry.wall_nanos = t0.elapsed().as_nanos() as u64;
                    return Ok(self.finish(scheduler.telemetry()));
                }
                StepOutcome::HorizonExhausted => break,
            }
        }
        self.telemetry.wall_nanos = t0.elapsed().as_nanos() as u64;
        if self.state.incomplete == 0 {
            self.checker.check_final(&self.state)?;
        }
        // Horizon exhausted with jobs in flight: the exact-conservation
        // final check cannot hold, but every applied slot already passed
        // the per-slot invariants; report the partial outcome and list the
        // unfinished jobs instead of dropping them.
        Ok(self.finish(scheduler.telemetry()))
    }

    /// Writes the trace header and the slot-0 seed events. A no-op when
    /// tracing is off. The online engine calls this lazily at its first
    /// step (once the slot-0 table is final) instead of at construction.
    pub(crate) fn begin_trace(&self, scheduler_name: &str) {
        if let Some(ctx) = &self.trace {
            ctx.buffer().header = TraceHeader {
                scheduler: scheduler_name.to_string(),
                capacity: self.state.cluster.capacity(),
                slot_seconds: self.state.cluster.slot_seconds(),
                max_slots: self.max_slots,
                jobs: self.trace_job_metas(),
            };
            // Slot-0 arrivals and readies are seeded directly into the
            // incremental indices (never through the event heap), so they
            // must be recorded here to keep the trace self-contained.
            for j in &self.state.jobs {
                if j.arrival_slot == 0 {
                    ctx.push(TraceEvent::Arrival { slot: 0, job: j.id });
                }
            }
            for j in &self.state.jobs {
                if j.ready_slot == Some(0) {
                    ctx.push(TraceEvent::Ready { slot: 0, job: j.id });
                }
            }
        }
    }

    /// The trace header's job table for the current state (see
    /// [`TraceJobMeta`]). The online engine re-derives this at finish so
    /// the header covers jobs injected after the header was first written.
    pub(crate) fn trace_job_metas(&self) -> Vec<TraceJobMeta> {
        self.state
            .jobs
            .iter()
            .map(|j| TraceJobMeta {
                id: j.id,
                class: j.class,
                arrival_slot: j.arrival_slot,
                actual_work: j.actual_work,
                deadline_slot: j.deadline_slot,
            })
            .collect()
    }

    /// Advances the simulation by exactly one iteration of the run loop:
    /// applies due events, then either observes completion / horizon
    /// exhaustion (no slot simulated) or simulates one slot and advances
    /// virtual time.
    ///
    /// `force_idle` makes the engine simulate an (empty) slot even when
    /// every currently-known job is complete — the online path uses this
    /// to burn gap slots while future-dated submissions are queued, which
    /// is exactly what a batch run does while it waits for a far-future
    /// arrival. Observing [`StepOutcome::Complete`] is idempotent and
    /// resumable: stepping again after injecting more work continues the
    /// run with identical telemetry to a batch run of the merged table.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub(crate) fn step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        force_idle: bool,
    ) -> Result<StepOutcome, SimError> {
        if self.state.now >= self.max_slots {
            return Ok(StepOutcome::HorizonExhausted);
        }
        {
            self.advance_events();
            self.telemetry.peak_live_jobs = self
                .telemetry
                .peak_live_jobs
                .max(self.state.visible.len() as u64);
            if self.state.incomplete == 0 && !force_idle {
                self.checker.check_final(&self.state)?;
                return Ok(StepOutcome::Complete);
            }
            self.telemetry.slots_simulated += 1;
            // Node-crash windows opening this slot kill a seeded subset of
            // the running jobs before the scheduler sees the (shrunken)
            // capacity. Notify the scheduler once state is consistent.
            for (id, attempt) in self.process_crash_windows() {
                scheduler.on_failure(&self.state, id, attempt);
            }
            let allocation = scheduler.plan_slot(&self.state);
            let now = self.state.now;

            // Validate: scheduler rules plus (by default) the accounting
            // invariants, all owned by the checker.
            let mut pairs = std::mem::take(&mut self.pairs);
            pairs.clear();
            pairs.extend(allocation.iter());
            self.checker.check_slot(&self.state, &pairs)?;
            let used = self.state.allocation_usage(&pairs);
            if let Some(ctx) = &mut self.trace {
                // Replan delta: the scheduler's cumulative counter is
                // polled only when tracing, so the disabled path never
                // pays for telemetry construction.
                if let Some(t) = scheduler.telemetry() {
                    if t.replans > ctx.prev_replans {
                        let replans = t.replans - ctx.prev_replans;
                        ctx.prev_replans = t.replans;
                        ctx.push(TraceEvent::Replan { slot: now, replans });
                    }
                }
                let tag = scheduler.decision_tag();
                if ctx.last_tag != Some(tag) {
                    ctx.last_tag = Some(tag);
                    ctx.push(TraceEvent::PolicyTag {
                        slot: now,
                        tag: tag.to_string(),
                    });
                }
                // A job granted last slot, unfinished, and absent from
                // this slot's (sorted) grants was preempted.
                for &id in &ctx.prev_granted {
                    if pairs.binary_search_by_key(&id, |&(pid, _)| pid).is_err()
                        && !self.state.issued(id).is_complete()
                    {
                        ctx.push(TraceEvent::Preempt { slot: now, job: id });
                    }
                }
                for &(id, q) in &pairs {
                    if self.state.issued(id).done_work == 0 {
                        ctx.push(TraceEvent::Start { slot: now, job: id });
                    }
                    ctx.push(TraceEvent::Grant {
                        slot: now,
                        job: id,
                        tasks: q,
                    });
                }
                ctx.prev_granted.clear();
                ctx.prev_granted.extend(pairs.iter().map(|&(id, _)| id));
            }

            // Apply: each allocated task performs one task-slot of work.
            self.slot_loads.push(used);
            self.slot_capacities.push(self.state.capacity_now());
            if let Some(tl) = &mut self.timeline {
                for &(id, q) in &pairs {
                    tl.entries.push(TimelineEntry {
                        slot: now,
                        job: id,
                        tasks: q,
                    });
                }
            }
            let mut failed: Vec<(JobId, u32)> = Vec::new();
            for &(id, q) in &pairs {
                let idx = self.state.issued_row(id);
                // Straggler inflation fires at the job's first-ever grant
                // (attempt 0, no prior progress): the ground truth grows
                // before this slot's work is applied, and at most once —
                // kills bump the attempt counter.
                if let Some(rec) = &mut self.recovery {
                    let job = &mut self.state.jobs[idx];
                    if job.attempt == 0 && job.done_work == 0 {
                        let extra = rec.plan.straggler_extra(id, job.actual_work);
                        if extra > 0 {
                            job.actual_work += extra;
                            rec.stats.stragglers += 1;
                            rec.stats.straggler_extra_work += extra;
                            if let Some(ctx) = &self.trace {
                                ctx.push(TraceEvent::Straggler {
                                    slot: now,
                                    job: id,
                                    extra,
                                });
                            }
                        }
                    }
                }
                self.state.jobs[idx].done_work += q;
                // A seeded task failure takes precedence over completion:
                // the attempt dies the slot its cumulative progress first
                // reaches the failure threshold, even if that grant would
                // have finished the job. The final permitted attempt is
                // exempt, so no job is ever lost to task failures.
                let job = &self.state.jobs[idx];
                let failing = self.recovery.take_if(|rec| {
                    job.attempt < rec.policy.max_retries
                        && rec
                            .plan
                            .attempt_failure(id, job.attempt, job.actual_work)
                            .is_some_and(|fail_at| job.done_work >= fail_at)
                });
                if let Some(mut rec) = failing {
                    let attempt = self.state.jobs[idx].attempt;
                    self.kill_job(&mut rec, idx, now, false);
                    self.recovery = Some(rec);
                    failed.push((id, attempt + 1));
                    continue;
                }
                let job = &mut self.state.jobs[idx];
                if job.done_work >= job.actual_work && job.completion_slot.is_none() {
                    job.completion_slot = Some(now + 1);
                    let done_work = job.done_work;
                    if let Some(ctx) = &self.trace {
                        // Recorded at `now` (the job finished at the *end*
                        // of this slot; completion_slot = now + 1) so
                        // event slots stay non-decreasing.
                        ctx.push(TraceEvent::Finish {
                            slot: now,
                            job: id,
                            done_work,
                        });
                    }
                    self.on_complete(idx, now);
                }
            }
            for (id, attempt) in failed {
                scheduler.on_failure(&self.state, id, attempt);
            }
            self.pairs = pairs;
            self.update_degradation();
            self.state.now += 1;
        }
        Ok(StepOutcome::Advanced)
    }

    /// Applies every pending event at or before the current slot to the
    /// incremental visible/runnable indices. With recovery armed, ad-hoc
    /// arrivals pass through admission control here: under sustained
    /// overload they are shed or deferred instead of admitted.
    fn advance_events(&mut self) {
        while let Some(&Reverse((slot, kind, id))) = self.events.peek() {
            if slot > self.state.now {
                break;
            }
            self.events.pop();
            self.telemetry.heap_ops += 1;
            self.telemetry.events_processed += 1;
            let idx = self.state.issued_row(id);
            let job = &self.state.jobs[idx];
            if job.is_complete() || job.shed_slot.is_some() {
                continue;
            }
            let adhoc = job.class.is_adhoc();
            let deferred = job.deferred;
            let ready_slot = job.ready_slot;
            match kind {
                EV_ARRIVAL => {
                    if adhoc {
                        if let Some(rec) = &mut self.recovery {
                            if rec.overload_streak >= rec.policy.sustain_slots {
                                match rec.policy.shed {
                                    ShedPolicy::Shed => {
                                        self.state.jobs[idx].shed_slot = Some(slot);
                                        self.state.incomplete -= 1;
                                        rec.stats.shed_jobs += 1;
                                        if let Some(ctx) = &self.trace {
                                            ctx.push(TraceEvent::Shed { slot, job: id });
                                        }
                                        continue;
                                    }
                                    ShedPolicy::Delay { slots } if !deferred => {
                                        let until = slot + slots.max(1);
                                        let job = &mut self.state.jobs[idx];
                                        job.deferred = true;
                                        job.ready_slot = Some(until);
                                        rec.deferred_backlog += job.remaining_actual();
                                        self.events.push(Reverse((until, EV_ARRIVAL, id)));
                                        self.events.push(Reverse((until, EV_READY, id)));
                                        self.telemetry.heap_ops += 2;
                                        rec.stats.delayed_jobs += 1;
                                        if let Some(ctx) = &self.trace {
                                            ctx.push(TraceEvent::Defer {
                                                slot,
                                                job: id,
                                                until,
                                            });
                                        }
                                        continue;
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    if deferred {
                        if let Some(rec) = &mut self.recovery {
                            rec.deferred_backlog -= self.state.jobs[idx].remaining_actual();
                        }
                    }
                    self.state.enter(Live::Visible, idx);
                    if let Some(ctx) = &self.trace {
                        ctx.push(TraceEvent::Arrival { slot, job: id });
                    }
                }
                EV_READY => {
                    // A deferred job's original ready event is stale; the
                    // re-queued one fires at the deferred arrival instead.
                    if ready_slot.is_none_or(|r| r > slot) {
                        continue;
                    }
                    self.state.enter(Live::Runnable, idx);
                    if let Some(ctx) = &self.trace {
                        ctx.push(TraceEvent::Ready { slot, job: id });
                    }
                }
                _ => {
                    // EV_RETRY: the kill's backoff expired; the next
                    // attempt re-enters the runnable set silently (the
                    // Kill event plus the policy already pin this slot).
                    self.state.enter(Live::Runnable, idx);
                }
            }
        }
    }

    /// Handles node-crash windows opening at the current slot: each
    /// running job (positive progress) with retries left is killed with
    /// probability equal to the crash severity — it was on the capacity
    /// that just vanished. Returns `(job, next attempt)` pairs so the run
    /// loop can notify the scheduler once state is consistent.
    fn process_crash_windows(&mut self) -> Vec<(JobId, u32)> {
        let mut killed = Vec::new();
        // Taken out for the loop and put back after it, so `kill_job` is
        // handed the context instead of looking it up.
        let Some(mut rec) = self.recovery.take() else {
            return killed;
        };
        let now = self.state.now;
        while let Some(w) = rec.windows.get(rec.next_window) {
            if w.from_slot > now {
                break;
            }
            if w.from_slot == now {
                let w_idx = rec.next_window as u64;
                // Job-id order, so Kill events land deterministically.
                for idx in 0..self.state.jobs.len() {
                    let j = &self.state.jobs[idx];
                    if j.done_work == 0 || j.is_complete() || j.shed_slot.is_some() {
                        continue;
                    }
                    let (id, attempt) = (j.id, j.attempt);
                    if attempt < rec.policy.max_retries && rec.plan.crash_kills(w_idx, id) {
                        self.kill_job(&mut rec, idx, now, true);
                        killed.push((id, attempt + 1));
                    }
                }
            }
            rec.next_window += 1;
        }
        self.recovery = Some(rec);
        killed
    }

    /// Kills the current attempt of the job at `idx`: its progress is
    /// discarded into `wasted`, the attempt counter bumps, and the job
    /// leaves the runnable set until its deterministic backoff slot, when
    /// an [`EV_RETRY`] event re-admits it. `crash` selects which stats
    /// counter of `rec` — the recovery context, borrowed out of the
    /// engine by the caller — the kill lands in.
    fn kill_job(&mut self, rec: &mut RecoveryCtx, idx: usize, now: u64, crash: bool) {
        let job = &mut self.state.jobs[idx];
        let wasted = job.done_work;
        let killed_attempt = job.attempt;
        job.wasted += wasted;
        job.done_work = 0;
        job.attempt += 1;
        let retry_at = now + 1 + rec.policy.backoff_base * job.attempt as u64;
        job.retry_at = retry_at;
        rec.stats.retries += 1;
        rec.stats.wasted_work += wasted;
        if crash {
            rec.stats.crash_kills += 1;
        } else {
            rec.stats.task_failures += 1;
        }
        let id = job.id;
        self.state.leave(Live::Runnable, idx);
        self.events.push(Reverse((retry_at, EV_RETRY, id)));
        self.telemetry.heap_ops += 1;
        if let Some(ctx) = &self.trace {
            ctx.push(TraceEvent::Kill {
                slot: now,
                job: id,
                attempt: killed_attempt,
                wasted,
            });
        }
    }

    /// End-of-slot degradation bookkeeping: the overload detector feeds
    /// the admission controller, and workflows whose remaining ground
    /// truth provably exceeds what the base capacity can deliver before
    /// their deadline are flagged (once each) in the stats. The flags are
    /// observability only — they never change scheduling.
    fn update_degradation(&mut self) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        let now = self.state.now;
        if rec.policy.shed != ShedPolicy::None {
            // Arrived, un-shed, incomplete ad-hoc work: the live set's
            // share plus what admission control is holding back.
            let backlog: u64 = rec.deferred_backlog
                + self
                    .state
                    .visible
                    .iter()
                    .map(|&(_, id)| self.state.issued(id))
                    .filter(|j| j.class.is_adhoc())
                    .map(|j| j.remaining_actual())
                    .sum::<u64>();
            #[cfg(any(test, feature = "oracle"))]
            assert_eq!(
                backlog,
                self.state
                    .jobs
                    .iter()
                    .filter(|j| {
                        j.class.is_adhoc()
                            && j.arrival_slot <= now
                            && j.shed_slot.is_none()
                            && !j.is_complete()
                    })
                    .map(|j| j.remaining_actual())
                    .sum::<u64>(),
                "live-set backlog equals the whole-table backlog"
            );
            let cores = self.state.capacity_now().dim(0);
            if backlog as f64 > rec.policy.overload_factor * cores as f64 {
                rec.overload_streak += 1;
            } else {
                rec.overload_streak = 0;
            }
        }
        let base_cores = self.state.cluster.capacity().dim(0);
        for (w, inst) in self.state.workflows.iter().enumerate() {
            // A finished workflow has nothing remaining and is never flagged.
            if rec.flagged[w] || inst.is_complete() || inst.submission.workflow.submit_slot() > now
            {
                continue;
            }
            let remaining: u64 = inst
                .job_ids
                .iter()
                .map(|&id| self.state.issued(id).remaining_actual())
                .sum();
            let deadline = inst.submission.workflow.deadline_slot();
            // Even granting every core of every remaining slot, the
            // workflow cannot finish by its deadline: provably infeasible.
            if remaining > 0 && remaining > base_cores * deadline.saturating_sub(now + 1) {
                rec.flagged[w] = true;
                rec.stats.infeasible_flags += 1;
            }
        }
    }

    /// Incremental completion bookkeeping: drops the job from the live
    /// indices and releases any workflow dependents whose last pending
    /// predecessor this was. Released jobs become runnable from `now + 1`,
    /// matching the historical end-of-slot release rule.
    fn on_complete(&mut self, idx: usize, now: u64) {
        self.state.leave(Live::Runnable, idx);
        self.state.leave(Live::Visible, idx);
        self.state.incomplete -= 1;
        let Some((w, node)) = self.job_nodes[idx] else {
            return;
        };
        self.state.mark_node_complete(w, node);
        let inst = &self.state.workflows[w];
        for &s in inst.submission.workflow.dag().successors(node) {
            self.pending_preds[w][s] -= 1;
            if self.pending_preds[w][s] == 0 {
                let sid = inst.job_ids[s];
                let sidx = self.state.issued_row(sid);
                self.state.jobs[sidx].ready_slot = Some(now + 1);
                self.events.push(Reverse((now + 1, EV_READY, sid)));
                self.telemetry.heap_ops += 1;
            }
        }
    }

    /// Builds the outcome from whatever has completed. Jobs without a
    /// completion slot drain into [`SimOutcome::in_flight`]; workflows
    /// count only once every node finished.
    pub(crate) fn finish(self, solver_telemetry: Option<SolverTelemetry>) -> SimOutcome {
        let slots_elapsed = self.state.now;
        let mut job_outcomes: Vec<JobOutcome> = Vec::new();
        let mut in_flight: Vec<InFlightJob> = Vec::new();
        let mut shed: Vec<ShedJob> = Vec::new();
        for j in &self.state.jobs {
            if let Some(shed_slot) = j.shed_slot {
                // Shed jobs never ran: they are neither completed nor in
                // flight, and never hold a run incomplete.
                shed.push(ShedJob {
                    id: j.id,
                    arrival_slot: j.arrival_slot,
                    shed_slot,
                });
                continue;
            }
            // A job completes only after it was ready, so both slots are
            // set; a row with one of them missing is still in flight.
            match (j.completion_slot, j.ready_slot) {
                (Some(completion_slot), Some(ready_slot)) => job_outcomes.push(JobOutcome {
                    id: j.id,
                    class: j.class,
                    arrival_slot: j.arrival_slot,
                    ready_slot,
                    completion_slot,
                    deadline_slot: j.deadline_slot,
                    retries: j.attempt as u64,
                    wasted_work: j.wasted,
                }),
                _ => in_flight.push(InFlightJob {
                    id: j.id,
                    class: j.class,
                    arrival_slot: j.arrival_slot,
                    ready_slot: j.ready_slot,
                    done_work: j.done_work,
                    remaining_work: j.remaining_actual(),
                    deadline_slot: j.deadline_slot,
                    retries: j.attempt as u64,
                    wasted_work: j.wasted,
                }),
            }
        }
        let workflow_outcomes: Vec<WorkflowOutcome> = self
            .state
            .workflows
            .iter()
            .filter_map(|w| {
                let completion = w
                    .job_ids
                    .iter()
                    .map(|&id| self.state.issued(id).completion_slot)
                    .collect::<Option<Vec<u64>>>()?
                    .into_iter()
                    .max()?;
                Some(WorkflowOutcome {
                    id: w.submission.workflow.id(),
                    deadline_slot: w.submission.workflow.deadline_slot(),
                    completion_slot: completion,
                })
            })
            .collect();
        // Deadline-miss attribution: for every fully-completed workflow
        // with decomposed milestones, record which nodes finished past
        // their milestone (i.e. consumed the decomposed slack).
        let deadline_attribution: Vec<MissAttribution> = self
            .state
            .workflows
            .iter()
            .filter_map(|w| {
                let milestones = w.submission.job_deadlines.as_ref()?;
                let completions: Vec<u64> = w
                    .job_ids
                    .iter()
                    .map(|&id| self.state.issued(id).completion_slot)
                    .collect::<Option<Vec<u64>>>()?;
                let completion_slot = completions.iter().max().copied()?;
                let culprits: Vec<NodeSlackUse> = completions
                    .iter()
                    .enumerate()
                    .filter_map(|(node, &c)| {
                        let m = milestones[node];
                        (c > m).then(|| NodeSlackUse {
                            job: w.job_ids[node],
                            node: node as u64,
                            milestone_slot: m,
                            completion_slot: c,
                            overrun_slots: c - m,
                        })
                    })
                    .collect();
                Some(MissAttribution {
                    workflow: w.submission.workflow.id(),
                    deadline_slot: w.submission.workflow.deadline_slot(),
                    completion_slot,
                    total_overrun_slots: culprits.iter().map(|c| c.overrun_slots).sum(),
                    culprits,
                })
            })
            .collect();
        SimOutcome {
            metrics: Metrics {
                jobs: job_outcomes,
                workflows: workflow_outcomes,
                slot_loads: self.slot_loads,
                slot_capacities: self.slot_capacities,
                capacity: self.state.cluster.capacity(),
                slot_seconds: self.state.cluster.slot_seconds(),
            },
            slots_elapsed,
            timeline: self.timeline,
            solver_telemetry,
            engine_telemetry: self.telemetry,
            in_flight,
            deadline_attribution,
            recovery: self.recovery.map(|r| r.stats).unwrap_or_default(),
            shed,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::{AdhocSubmission, WorkflowSubmission};
    use crate::scheduler::Allocation;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};

    /// Greedy FIFO test scheduler (also driven by the checker's tests).
    pub(crate) struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            let mut free = state.capacity_now();
            for job in state.runnable() {
                let fit = job
                    .per_task
                    .times_fitting(&free)
                    .min(job.max_tasks_this_slot);
                if fit > 0 {
                    alloc.assign(job.id, fit);
                    free -= job.per_task * fit;
                }
            }
            alloc
        }
    }

    fn cluster(cores: u64) -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([cores, cores * 4096]), 10.0)
    }

    fn spec(tasks: u64, dur: u64) -> JobSpec {
        JobSpec::new("j", tasks, dur, ResourceVec::new([1, 4096]))
    }

    fn chain_workflow(submit: u64, deadline: u64) -> WorkflowSubmission {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "chain");
        let a = b.add_job(spec(4, 2));
        let c = b.add_job(spec(4, 2));
        b.add_dep(a, c).unwrap();
        WorkflowSubmission::new(b.window(submit, deadline).build().unwrap())
    }

    #[test]
    fn single_adhoc_job_runs_to_completion() {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 2), 3));
        let engine = Engine::new(cluster(8), wl, 100).unwrap();
        let out = engine.run(&mut Greedy).unwrap();
        assert_eq!(out.metrics.completed_jobs(), 1);
        assert!(out.is_complete());
        let j = &out.metrics.jobs[0];
        // 16 task-slots of work at up to 8 concurrent tasks: 2 slots.
        assert_eq!(j.arrival_slot, 3);
        assert_eq!(j.completion_slot, 5);
        assert_eq!(j.turnaround_slots(), 2);
    }

    #[test]
    fn workflow_dependencies_gate_execution() {
        let mut wl = SimWorkload::default();
        wl.workflows.push(chain_workflow(0, 100));
        let out = Engine::new(cluster(8), wl, 200)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        let jobs = &out.metrics.jobs;
        // First job: 8 units at 4-wide = 2 slots, completes at slot 2.
        assert_eq!(jobs[0].completion_slot, 2);
        // Second becomes ready at slot 3 (released end of slot 1... the
        // engine releases at completion, runnable the next slot).
        assert!(jobs[1].ready_slot >= jobs[0].completion_slot);
        assert!(jobs[1].completion_slot > jobs[0].completion_slot);
        assert_eq!(out.metrics.workflows.len(), 1);
        assert!(!out.metrics.workflows[0].missed_deadline());
    }

    #[test]
    fn capacity_is_shared_and_enforced() {
        // Two ad-hoc jobs that each want 8 tasks, cluster of 8 cores:
        // greedy serves FIFO, so total never exceeds capacity and the
        // second job is delayed.
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 4), 0));
        wl.adhoc.push(AdhocSubmission::new(spec(8, 4), 0));
        let out = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        for load in &out.metrics.slot_loads {
            assert!(load.fits_within(&ResourceVec::new([8, 8 * 4096])));
        }
        let c0 = out.metrics.jobs[0].completion_slot;
        let c1 = out.metrics.jobs[1].completion_slot;
        assert_eq!(c0.min(c1), 4);
        assert_eq!(c0.max(c1), 8);
    }

    #[test]
    fn overallocation_is_rejected() {
        struct Cheater;
        impl Scheduler for Cheater {
            fn name(&self) -> &str {
                "cheater"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                let mut a = Allocation::new();
                for job in state.runnable() {
                    a.assign(job.id, job.max_tasks_this_slot);
                }
                a
            }
        }
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 4), 0));
        wl.adhoc.push(AdhocSubmission::new(spec(8, 4), 0));
        // Cluster of 8 cores cannot host 16 concurrent tasks.
        let err = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .run(&mut Cheater)
            .unwrap_err();
        assert_eq!(err, SimError::CapacityExceeded { slot: 0 });
    }

    #[test]
    fn allocating_to_gated_job_is_rejected() {
        struct EagerBeaver;
        impl Scheduler for EagerBeaver {
            fn name(&self) -> &str {
                "eager"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                // Allocates to *visible* (not necessarily ready) jobs.
                let mut a = Allocation::new();
                for job in state.visible() {
                    a.assign(job.id, 1);
                }
                a
            }
        }
        let mut wl = SimWorkload::default();
        wl.workflows.push(chain_workflow(0, 100));
        let err = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .run(&mut EagerBeaver)
            .unwrap_err();
        assert!(matches!(err, SimError::JobNotRunnable { .. }));
    }

    #[test]
    fn allocating_to_an_unknown_id_is_a_typed_error() {
        /// Grants one task to a fixed id, whatever the table holds.
        struct Stray(JobId);
        impl Scheduler for Stray {
            fn name(&self) -> &str {
                "stray"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                assert!(state.job(self.0).is_none());
                let mut a = Allocation::new();
                a.assign(self.0, 1);
                a
            }
        }
        // One past the two-row table, and an id no `usize` cast may wrap
        // back into it.
        for raw in [2, u64::MAX, u64::MAX - 1, 1 << 32] {
            let mut wl = SimWorkload::default();
            wl.workflows.push(chain_workflow(0, 100));
            let err = Engine::new(cluster(8), wl, 100)
                .unwrap()
                .run(&mut Stray(JobId::new(raw)))
                .unwrap_err();
            assert_eq!(
                err,
                SimError::UnknownJob {
                    job: JobId::new(raw)
                }
            );
        }
    }

    #[test]
    fn parallelism_cap_is_enforced() {
        struct Wide;
        impl Scheduler for Wide {
            fn name(&self) -> &str {
                "wide"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                let mut a = Allocation::new();
                for job in state.runnable() {
                    a.assign(job.id, job.max_tasks_this_slot + 1);
                }
                a
            }
        }
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(4, 1), 0));
        let err = Engine::new(cluster(64), wl, 100)
            .unwrap()
            .run(&mut Wide)
            .unwrap_err();
        assert!(matches!(err, SimError::ParallelismExceeded { .. }));
    }

    #[test]
    fn an_overflowing_request_is_refused_not_wrapped() {
        /// Asks for 2⁶⁴ + 1 tasks in two grants. Wrapped, that reads as one
        /// task, which the cap would accept.
        struct Overflowing;
        impl Scheduler for Overflowing {
            fn name(&self) -> &str {
                "overflowing"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                let mut a = Allocation::new();
                for job in state.runnable() {
                    a.assign(job.id, u64::MAX);
                    a.assign(job.id, 2);
                }
                a
            }
        }
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(4, 1), 0));
        let err = Engine::new(cluster(64), wl, 100)
            .unwrap()
            .run(&mut Overflowing)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ParallelismExceeded {
                job: JobId::new(0),
                requested: u64::MAX,
                cap: 4,
            }
        );
    }

    #[test]
    fn horizon_exhaustion_reported() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn plan_slot(&mut self, _: &SimState) -> Allocation {
                Allocation::new()
            }
        }
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(1, 1), 0));
        let out = Engine::new(cluster(8), wl, 5)
            .unwrap()
            .run(&mut Lazy)
            .unwrap();
        // The job never ran: the run is incomplete but *not* an error, and
        // the untouched job is drained into `in_flight`.
        assert!(!out.is_complete());
        assert_eq!(out.slots_elapsed, 5);
        assert_eq!(out.metrics.completed_jobs(), 0);
        assert_eq!(out.in_flight.len(), 1);
        let j = &out.in_flight[0];
        assert_eq!(j.done_work, 0);
        assert_eq!(j.remaining_work, 1);
    }

    #[test]
    fn horizon_drain_reports_partial_progress() {
        // A 1-wide job with 10 task-slots of work against a 5-slot horizon:
        // half the work lands, and the drained record says exactly that.
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(1, 10), 0));
        wl.workflows.push(chain_workflow(0, 100));
        let out = Engine::new(cluster(8), wl, 5)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert!(!out.is_complete());
        // Both workflow jobs finish within 5 slots; the ad-hoc job cannot.
        assert_eq!(out.metrics.completed_jobs(), 2);
        assert_eq!(out.metrics.workflows.len(), 1);
        assert_eq!(out.in_flight.len(), 1);
        let j = &out.in_flight[0];
        assert!(j.class.is_adhoc());
        assert_eq!(j.done_work, 5);
        assert_eq!(j.remaining_work, 5);

        // A workflow cut off mid-DAG is excluded from workflow outcomes.
        let mut wl2 = SimWorkload::default();
        wl2.workflows.push(chain_workflow(0, 100));
        let out2 = Engine::new(cluster(8), wl2, 3)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert!(!out2.is_complete());
        assert_eq!(out2.metrics.completed_jobs(), 1);
        assert!(out2.metrics.workflows.is_empty());
        assert_eq!(out2.in_flight.len(), 1);
        assert!(out2.in_flight[0].ready_slot.is_some());
    }

    #[test]
    fn actual_work_overrun_delays_completion() {
        let mut sub = chain_workflow(0, 100);
        // Estimates say 8 task-slots each; reality is 12 for the first job.
        sub.actual_work = Some(vec![12, 8]);
        let mut wl = SimWorkload::default();
        wl.workflows.push(sub);
        let out = Engine::new(cluster(8), wl, 200)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        // 12 units at 4-wide = 3 slots.
        assert_eq!(out.metrics.jobs[0].completion_slot, 3);
    }

    #[test]
    fn malformed_submissions_rejected() {
        let mut sub = chain_workflow(0, 100);
        sub.actual_work = Some(vec![1]);
        let mut wl = SimWorkload::default();
        wl.workflows.push(sub);
        assert!(matches!(
            Engine::new(cluster(8), wl, 100),
            Err(SimError::MalformedSubmission { .. })
        ));
        let mut sub2 = chain_workflow(0, 100);
        sub2.job_deadlines = Some(vec![1, 2, 3]);
        let mut wl2 = SimWorkload::default();
        wl2.workflows.push(sub2);
        assert!(Engine::new(cluster(8), wl2, 100).is_err());
    }

    #[test]
    fn adhoc_size_is_hidden_from_views() {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 2), 0));
        wl.workflows.push(chain_workflow(0, 100));
        let engine = Engine::new(cluster(8), wl, 100).unwrap();
        for v in engine.state.runnable() {
            match v.class {
                JobClass::AdHoc => {
                    assert_eq!(v.estimated_remaining, None);
                    assert_eq!(v.estimated_total, None);
                }
                JobClass::Deadline { .. } => {
                    assert!(v.estimated_remaining.is_some());
                }
            }
        }
    }

    #[test]
    fn incremental_views_match_full_rescan_every_slot() {
        // Dependency releases, staggered arrivals, and completions all
        // mutate the incremental indices; a scheduler that re-derives both
        // views from a full scan each slot must always agree with them.
        struct Auditing {
            inner: Greedy,
        }
        impl Scheduler for Auditing {
            fn name(&self) -> &str {
                "auditing"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                let now = state.now();
                let visible: Vec<_> = state.visible().collect();
                let runnable: Vec<_> = state.runnable().map(|v| v.id).collect();
                // The runnable set is exactly the ready subset of the
                // visible set, in the same (arrival, id) order, and every
                // indexed job has arrived.
                let expect: Vec<_> = visible
                    .iter()
                    .filter(|v| v.ready_slot.is_some_and(|r| r <= now))
                    .map(|v| v.id)
                    .collect();
                assert_eq!(runnable, expect);
                let mut keys: Vec<_> = visible.iter().map(|v| (v.arrival_slot, v.id)).collect();
                keys.dedup();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                for v in &visible {
                    assert!(v.arrival_slot <= now);
                    assert!(state.job(v.id).is_some());
                }
                self.inner.plan_slot(state)
            }
        }
        let mut wl = SimWorkload::default();
        wl.workflows.push(chain_workflow(0, 100));
        wl.adhoc.push(AdhocSubmission::new(spec(2, 3), 2));
        wl.adhoc.push(AdhocSubmission::new(spec(1, 1), 7));
        let out = Engine::new(cluster(8), wl, 200)
            .unwrap()
            .run(&mut Auditing { inner: Greedy })
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.metrics.completed_jobs(), 4);
    }

    #[test]
    fn job_deadline_milestones_flow_into_metrics() {
        let sub = chain_workflow(0, 100).with_job_deadlines(vec![1, 100]);
        let mut wl = SimWorkload::default();
        wl.workflows.push(sub);
        let out = Engine::new(cluster(8), wl, 200)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        // First job needs 2 slots but milestone was 1: one miss.
        assert_eq!(out.metrics.job_deadline_misses(), 1);
    }

    #[test]
    fn timeline_records_all_allocations() {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 2), 0));
        let out = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .with_timeline()
            .run(&mut Greedy)
            .unwrap();
        let tl = out.timeline.expect("enabled");
        // Total recorded tasks equal the job's work.
        let id = out.metrics.jobs[0].id;
        let total: u64 = tl
            .entries
            .iter()
            .filter(|e| e.job == id)
            .map(|e| e.tasks)
            .sum();
        assert_eq!(total, 16);
        let chart = crate::timeline::render_gantt(&tl, Some(&out.metrics), 40);
        assert!(chart.contains("ad-hoc"));
    }

    #[test]
    fn scheduler_telemetry_lands_in_outcome() {
        struct Counting {
            inner: Greedy,
            slots: u64,
        }
        impl Scheduler for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn plan_slot(&mut self, state: &SimState) -> Allocation {
                self.slots += 1;
                self.inner.plan_slot(state)
            }
            fn telemetry(&self) -> Option<SolverTelemetry> {
                Some(SolverTelemetry {
                    replans: self.slots,
                    ..SolverTelemetry::default()
                })
            }
        }
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 2), 0));
        let mut sched = Counting {
            inner: Greedy,
            slots: 0,
        };
        let out = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .run(&mut sched)
            .unwrap();
        let telemetry = out.solver_telemetry.expect("scheduler reported Some");
        assert_eq!(telemetry.replans, out.slots_elapsed);

        // Solver-free schedulers report nothing.
        let out2 = Engine::new(cluster(8), SimWorkload::default(), 10)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert_eq!(out2.solver_telemetry, None);
    }

    #[test]
    fn engine_telemetry_counts_the_run() {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 2), 3));
        wl.workflows.push(chain_workflow(0, 100));
        let out = Engine::new(cluster(8), wl, 100)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        let t = &out.engine_telemetry;
        assert_eq!(t.slots_simulated, out.slots_elapsed);
        // Every queued event is eventually consumed: the chain source and
        // its dependent plus the late ad-hoc arrival all flow through.
        assert!(t.events_processed >= 3);
        assert!(t.heap_ops >= t.events_processed);
        // At its peak the chain job and the ad-hoc job are live together.
        assert_eq!(t.peak_live_jobs, 2);

        // The counters are deterministic across runs (wall time is not,
        // but it is excluded from equality).
        let mut wl2 = SimWorkload::default();
        wl2.adhoc.push(AdhocSubmission::new(spec(8, 2), 3));
        wl2.workflows.push(chain_workflow(0, 100));
        let out2 = Engine::new(cluster(8), wl2, 100)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert_eq!(out.engine_telemetry, out2.engine_telemetry);
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let out = Engine::new(cluster(8), SimWorkload::default(), 10)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert_eq!(out.metrics.completed_jobs(), 0);
        assert_eq!(out.slots_elapsed, 0);
        assert!(out.is_complete());
        assert_eq!(out.engine_telemetry.slots_simulated, 0);
    }
}
