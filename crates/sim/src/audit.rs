//! Offline certifying auditor for decision traces.
//!
//! [`certify`] replays a [`DecisionTrace`] against the scenario that
//! produced it (cluster + workload) and independently re-verifies the run:
//! DAG precedence, capacity conservation, parallelism caps, work
//! accounting, completion/readiness/turnaround arithmetic, the
//! deadline-decomposition metrics, and the deadline-miss attribution
//! report. Unlike the in-engine [`crate::InvariantChecker`], the auditor
//! shares **no state** with the engine: it rebuilds the job table from the
//! workload alone (using the documented id-assignment contract of
//! [`crate::Engine::new`]: workflow jobs first, in submission order and
//! node order, then ad-hoc jobs) and trusts nothing but the scenario
//! files. An engine bug that corrupts its own bookkeeping is invisible to
//! the engine's checker but not to this one.
//!
//! # Violation catalogue
//!
//! Each failed check yields an [`AuditViolation`] with a stable `code`:
//!
//! | code | meaning |
//! |------|---------|
//! | `trace-truncated` | the ring buffer dropped events; replay impossible |
//! | `header-mismatch` | trace header disagrees with the scenario |
//! | `event-order` | event slots are not non-decreasing |
//! | `unknown-job` | an event names a job the scenario does not define |
//! | `arrival-violation` | a grant or arrival precedes the submission slot |
//! | `precedence-inversion` | a grant precedes a DAG predecessor's finish |
//! | `capacity-overflow` | a slot's grants exceed the capacity in force |
//! | `parallelism-exceeded` | a grant exceeds the job's concurrency cap |
//! | `work-mismatch` | granted work disagrees with the finish accounting |
//! | `preempt-mismatch` | a preempt event contradicts the grant record |
//! | `finish-missing` | a completed job has no finish event |
//! | `finish-spurious` | a finish event is duplicated, premature, or for an unfinished job |
//! | `completion-mismatch` | outcome completion slots disagree with the trace |
//! | `ready-mismatch` | readiness disagrees with predecessor finishes |
//! | `turnaround-mismatch` | turnaround arithmetic is inconsistent |
//! | `deadline-drift` | recorded deadlines drifted from the scenario's |
//! | `deadline-accounting` | job deadline-miss counts do not recount |
//! | `workflow-accounting` | workflow outcomes do not recount |
//! | `attribution-mismatch` | the attribution report does not recompute |
//! | `load-mismatch` | per-slot loads/capacities disagree with the grants |
//! | `in-flight-mismatch` | drained-job progress disagrees with the trace |
//! | `kill-invalid` | a kill matches no seeded fault, or a due kill is missing |
//! | `kill-accounting` | a kill's attempt/wasted fields disagree with the replay |
//! | `retry-accounting` | retry counters, backoff gates, or wasted-work totals do not recount |
//! | `shed-violation` | admission-control events/records contradict the policy or replay |
//! | `straggler-mismatch` | straggler inflation disagrees with the seeded expectation |
//!
//! Runs recorded with the mid-run failure/recovery subsystem armed
//! ([`crate::Engine::with_recovery`]) are certified via
//! [`certify_with_recovery`], which re-derives every seeded fault verdict
//! (kill thresholds, crash windows, straggler inflation) from the
//! [`crate::faults::RecoverySetup`] alone and demands the trace match —
//! both directions: recorded faults must be seeded, and seeded faults
//! must be recorded. [`certify`] is the recovery-free special case: any
//! recovery event or counter then rejects the run.

use crate::cluster::{CapacityWindow, ClusterConfig};
use crate::engine::SimOutcome;
use crate::faults::{
    runtime_fault_horizon, RecoveryPolicy, RecoverySetup, RuntimeFaultPlan, ShedPolicy,
};
use crate::job::{AdhocSubmission, JobClass, SimWorkload, WorkflowSubmission};
use crate::metrics::{MissAttribution, NodeSlackUse, RecoveryStats};
use crate::submission::{EffectiveSubmission, SubmissionLog};
use crate::trace::{DecisionTrace, TraceEvent};
use flowtime_dag::{JobId, ResourceVec};
use std::collections::BTreeMap;

/// One failed audit check.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Stable check identifier (see the [module docs](self)).
    pub code: &'static str,
    /// Slot the violation concerns (0 for run-level checks).
    pub slot: u64,
    /// The job concerned, when the check is per-job.
    pub job: Option<JobId>,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.job {
            Some(job) => write!(
                f,
                "[{}] slot {} {}: {}",
                self.code, self.slot, job, self.detail
            ),
            None => write!(f, "[{}] slot {}: {}", self.code, self.slot, self.detail),
        }
    }
}

/// Result of auditing one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Every failed check, in detection order.
    pub violations: Vec<AuditViolation>,
    /// The deadline-miss attribution recomputed independently from the
    /// scenario and the certified completions.
    pub attribution: Vec<MissAttribution>,
    /// Number of trace events examined.
    pub events_checked: u64,
}

impl AuditReport {
    /// True when every check passed.
    pub fn is_certified(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when a violation with the given code was detected.
    pub fn has(&self, code: &str) -> bool {
        self.violations.iter().any(|v| v.code == code)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.is_certified() {
            format!("certified: {} events checked", self.events_checked)
        } else {
            format!(
                "REJECTED: {} violation(s) over {} events (first: {})",
                self.violations.len(),
                self.events_checked,
                self.violations[0]
            )
        }
    }
}

/// The auditor's independent view of one job, rebuilt from the workload.
struct AuditJob {
    id: JobId,
    class: JobClass,
    per_task: ResourceVec,
    parallel_cap: u64,
    actual_work: u64,
    arrival_slot: u64,
    deadline_slot: Option<u64>,
    /// Indices (into the audit table) of DAG predecessors.
    preds: Vec<usize>,
}

/// The auditor's view of one workflow submission.
struct AuditWorkflow {
    id: flowtime_dag::WorkflowId,
    deadline_slot: u64,
    job_idxs: Vec<usize>,
    milestones: Option<Vec<u64>>,
}

/// Replayed per-job dynamic state. `done_work` is the *current attempt's*
/// progress: kills reset it (into `wasted`), matching the engine.
#[derive(Default, Clone)]
struct Replay {
    arrival_event: Option<u64>,
    ready_event: Option<u64>,
    first_grant: Option<u64>,
    done_work: u64,
    finish: Option<(u64, u64)>, // (slot, done_work at finish)
    /// Zero-based attempt, bumped by each certified kill.
    attempt: u32,
    /// Task-slots discarded by certified kills.
    wasted: u64,
    /// Straggler inflation applied to the ground truth (0 until the first
    /// grant of a seeded straggler).
    extra_work: u64,
    /// Seeded straggler inflation awaiting its matching trace event:
    /// `(slot, extra)`.
    pending_straggler: Option<(u64, u64)>,
    /// Earliest slot the current attempt may be granted (backoff gate).
    retry_gate: u64,
    /// Slot at which a seeded task failure became due and must be killed.
    pending_task_kill: Option<u64>,
    /// Slot of a crash-window opening that must kill this running job.
    expected_crash_kill: Option<u64>,
    /// Slot the admission controller shed the job, per the trace.
    shed: Option<u64>,
    /// Deferred arrival slot assigned by the delay policy.
    deferred_until: Option<u64>,
}

/// The auditor's independent recovery context, rebuilt from the setup.
struct RecoveryAudit {
    plan: RuntimeFaultPlan,
    policy: RecoveryPolicy,
    /// Crash windows materialized exactly as the engine did.
    windows: Vec<CapacityWindow>,
    next_window: usize,
}

/// Marks the jobs a correct engine must kill as crash windows with
/// `from_slot <= upto` open, advancing `next_window`. Windows at or past
/// `run_end` never fired (the run had already ended).
fn expect_crash_kills(
    rc: &mut RecoveryAudit,
    jobs: &[AuditJob],
    replays: &mut [Replay],
    upto: u64,
    run_end: u64,
) {
    while rc.next_window < rc.windows.len() && rc.windows[rc.next_window].from_slot <= upto {
        let w_start = rc.windows[rc.next_window].from_slot;
        let w_idx = rc.next_window as u64;
        rc.next_window += 1;
        if w_start >= run_end {
            continue;
        }
        for (i, r) in replays.iter_mut().enumerate() {
            let finished_before = r.finish.is_some_and(|(f, _)| f < w_start);
            if !finished_before
                && r.shed.is_none()
                && r.done_work > 0
                && r.attempt < rc.policy.max_retries
                && rc.plan.crash_kills(w_idx, jobs[i].id)
            {
                r.expected_crash_kill = Some(w_start);
            }
        }
    }
}

/// Replays `trace` against the scenario and re-verifies `outcome`,
/// assuming no mid-run faults were armed. Equivalent to
/// [`certify_with_recovery`] with `None`.
///
/// The scenario must be the exact post-fault-injection input the engine
/// ran (the same `(cluster, workload)` pair passed to
/// [`crate::Engine::new`]).
pub fn certify(
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
) -> AuditReport {
    certify_with_recovery(cluster, workload, outcome, trace, None)
}

/// Replays `trace` against the scenario and re-verifies `outcome`,
/// including every mid-run fault and recovery decision when `recovery`
/// matches the [`crate::faults::RecoverySetup`] the engine was armed
/// with. With `None`, any recovery event or non-zero recovery counter is
/// itself a violation.
pub fn certify_with_recovery(
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
    recovery: Option<&RecoverySetup>,
) -> AuditReport {
    certify_table(
        cluster,
        build_table(workload),
        outcome,
        trace,
        recovery,
        runtime_fault_horizon(workload),
    )
}

/// Replays `trace` against a recorded [`SubmissionLog`] and re-verifies
/// `outcome` — the offline certification path for daemon sessions. The
/// job table is rebuilt from the log alone using the `(arrival slot,
/// sequence)` id contract of [`crate::Engine::from_log`], so a certified
/// online run and a certified batch replay of the same log verified the
/// same dense table. Mid-run recovery is not supported on the online
/// path, so any recovery event or counter is itself a violation.
pub fn certify_log(
    cluster: &ClusterConfig,
    log: &SubmissionLog,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
) -> AuditReport {
    certify_table(cluster, build_table_from_log(log), outcome, trace, None, 0)
}

/// Shared certification core: every check below runs against the
/// independently-rebuilt `table`, regardless of whether it came from a
/// batch workload or a submission log. `fault_horizon` is only read when
/// `recovery` is armed.
fn certify_table(
    cluster: &ClusterConfig,
    table: Result<(Vec<AuditJob>, Vec<AuditWorkflow>), String>,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
    recovery: Option<&RecoverySetup>,
    fault_horizon: u64,
) -> AuditReport {
    let mut v: Vec<AuditViolation> = Vec::new();
    let mut push = |code: &'static str, slot: u64, job: Option<JobId>, detail: String| {
        v.push(AuditViolation {
            code,
            slot,
            job,
            detail,
        });
    };

    // ---- Independent job table from the submissions alone. -------------
    let (jobs, workflows) = match table {
        Ok(t) => t,
        Err(reason) => {
            push("header-mismatch", 0, None, reason);
            return AuditReport {
                violations: v,
                attribution: Vec::new(),
                events_checked: 0,
            };
        }
    };
    let index_of = |id: JobId| -> Option<usize> {
        let raw = id.as_u64() as usize;
        (raw < jobs.len() && jobs[raw].id == id).then_some(raw)
    };

    // ---- Independent recovery context from the setup alone. -------------
    let mut rec_ctx: Option<RecoveryAudit> = recovery.map(|setup| {
        let mut policy = setup.policy.clone();
        // Same clamp as `Engine::with_recovery`.
        policy.sustain_slots = policy.sustain_slots.max(1);
        let plan = RuntimeFaultPlan::new(setup.faults.clone());
        let windows = plan.crash_windows(cluster.capacity(), fault_horizon);
        RecoveryAudit {
            plan,
            policy,
            windows,
            next_window: 0,
        }
    });
    // Effective capacity in force at a slot: the cluster's own windows
    // capped by any open crash window — what the engine validated against.
    let overlay: Vec<CapacityWindow> = rec_ctx
        .as_ref()
        .map(|rc| rc.windows.clone())
        .unwrap_or_default();
    let cap_at = |slot: u64| -> ResourceVec {
        let base = cluster.capacity_at(slot);
        overlay
            .iter()
            .rev()
            .find(|w| w.from_slot <= slot && slot < w.to_slot)
            .map_or(base, |w| base.min(&w.capacity))
    };
    // Recovery counters recomputed during replay (infeasible flags are an
    // engine-side heuristic over time and deliberately not audited).
    let mut rstats = RecoveryStats::default();

    // ---- Header consistency. -------------------------------------------
    let h = &trace.header;
    if h.capacity != cluster.capacity() {
        push(
            "header-mismatch",
            0,
            None,
            format!(
                "header capacity {:?} != cluster {:?}",
                h.capacity,
                cluster.capacity()
            ),
        );
    }
    if h.slot_seconds != cluster.slot_seconds() {
        push(
            "header-mismatch",
            0,
            None,
            format!(
                "header slot_seconds {:?} != cluster {:?}",
                h.slot_seconds,
                cluster.slot_seconds()
            ),
        );
    }
    if h.jobs.len() != jobs.len() {
        push(
            "header-mismatch",
            0,
            None,
            format!(
                "header lists {} jobs, scenario {}",
                h.jobs.len(),
                jobs.len()
            ),
        );
    }
    for (meta, job) in h.jobs.iter().zip(&jobs) {
        if meta.id != job.id
            || meta.class != job.class
            || meta.arrival_slot != job.arrival_slot
            || meta.actual_work != job.actual_work
        {
            push(
                "header-mismatch",
                0,
                Some(job.id),
                "header job metadata disagrees with the scenario".into(),
            );
        }
        if meta.deadline_slot != job.deadline_slot {
            push(
                "deadline-drift",
                0,
                Some(job.id),
                format!(
                    "header deadline {:?} != scenario {:?}",
                    meta.deadline_slot, job.deadline_slot
                ),
            );
        }
    }

    // ---- Event replay. --------------------------------------------------
    let mut replays: Vec<Replay> = vec![Replay::default(); jobs.len()];
    let mut usage: BTreeMap<u64, ResourceVec> = BTreeMap::new();
    let mut grants: BTreeMap<(u64, JobId), u64> = BTreeMap::new();
    let mut preempts: Vec<(u64, JobId)> = Vec::new();
    let truncated = trace.dropped() > 0;
    if truncated {
        push(
            "trace-truncated",
            0,
            None,
            format!("{} events dropped by the ring bound", trace.dropped()),
        );
    } else {
        let mut prev_slot = 0u64;
        for event in trace.events() {
            let slot = event.slot();
            // Crash windows opening at or before this slot mark the jobs a
            // correct engine must kill; the Kill events of this slot (which
            // come after the boundary) discharge them.
            if let Some(rc) = &mut rec_ctx {
                expect_crash_kills(rc, &jobs, &mut replays, slot, outcome.slots_elapsed);
            }
            if slot < prev_slot {
                push(
                    "event-order",
                    slot,
                    event.job(),
                    format!("event at slot {slot} after slot {prev_slot}"),
                );
            }
            prev_slot = prev_slot.max(slot);
            let idx = match event.job() {
                Some(id) => match index_of(id) {
                    Some(i) => Some(i),
                    None => {
                        push("unknown-job", slot, Some(id), "not in the scenario".into());
                        continue;
                    }
                },
                None => None,
            };
            match *event {
                TraceEvent::Arrival { slot, job } => {
                    let i = idx.expect("job events carry an id");
                    if replays[i].shed.is_some() {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "arrival recorded after the job was shed".into(),
                        );
                    }
                    let expected = replays[i].deferred_until.unwrap_or(jobs[i].arrival_slot);
                    if slot != expected {
                        push(
                            "arrival-violation",
                            slot,
                            Some(job),
                            format!("arrival recorded at {slot}, submitted {expected}"),
                        );
                    }
                    replays[i].arrival_event = Some(slot);
                }
                TraceEvent::Ready { slot, job } => {
                    let i = idx.expect("job events carry an id");
                    replays[i].ready_event = Some(slot);
                    match derived_ready(&jobs, &replays, i) {
                        Some(expected) if expected == slot => {}
                        Some(expected) => push(
                            "ready-mismatch",
                            slot,
                            Some(job),
                            format!("ready recorded at {slot}, derived {expected}"),
                        ),
                        None => push(
                            "precedence-inversion",
                            slot,
                            Some(job),
                            "ready before every predecessor finished".into(),
                        ),
                    }
                }
                TraceEvent::Grant { slot, job, tasks } => {
                    let i = idx.expect("job events carry an id");
                    let j = &jobs[i];
                    if slot < j.arrival_slot {
                        push(
                            "arrival-violation",
                            slot,
                            Some(job),
                            format!("granted before submission slot {}", j.arrival_slot),
                        );
                    }
                    if replays[i].shed.is_some() {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "granted after the job was shed".into(),
                        );
                    }
                    if slot < replays[i].retry_gate {
                        push(
                            "retry-accounting",
                            slot,
                            Some(job),
                            format!("granted before the backoff slot {}", replays[i].retry_gate),
                        );
                    }
                    for &p in &j.preds {
                        match replays[p].finish {
                            Some((f, _)) if f < slot => {}
                            _ => push(
                                "precedence-inversion",
                                slot,
                                Some(job),
                                format!("granted before predecessor {} finished", jobs[p].id),
                            ),
                        }
                    }
                    if replays[i].finish.is_some() {
                        push(
                            "work-mismatch",
                            slot,
                            Some(job),
                            "granted after its finish event".into(),
                        );
                    }
                    // The engine's parallelism cap was computed at plan
                    // time, before any straggler inflation of this slot.
                    let effective = j.actual_work + replays[i].extra_work;
                    let cap = j
                        .parallel_cap
                        .min(effective.saturating_sub(replays[i].done_work));
                    if tasks > cap {
                        push(
                            "parallelism-exceeded",
                            slot,
                            Some(job),
                            format!("granted {tasks} tasks, cap {cap}"),
                        );
                    }
                    if let Some(rc) = &rec_ctx {
                        // First-ever grant of a seeded straggler: the
                        // ground truth inflates now, and a matching
                        // Straggler event must follow within this slot.
                        if replays[i].attempt == 0
                            && replays[i].done_work == 0
                            && replays[i].first_grant.is_none()
                        {
                            let extra = rc.plan.straggler_extra(job, j.actual_work);
                            if extra > 0 {
                                replays[i].extra_work = extra;
                                replays[i].pending_straggler = Some((slot, extra));
                                rstats.stragglers += 1;
                                rstats.straggler_extra_work += extra;
                            }
                        }
                    }
                    replays[i].first_grant.get_or_insert(slot);
                    replays[i].done_work += tasks;
                    if let Some(rc) = &rec_ctx {
                        // Seeded task failure due: the attempt's progress
                        // reached its threshold, so a Kill must follow.
                        let r = &mut replays[i];
                        if r.attempt < rc.policy.max_retries {
                            let effective = j.actual_work + r.extra_work;
                            if rc
                                .plan
                                .attempt_failure(job, r.attempt, effective)
                                .is_some_and(|fail_at| r.done_work >= fail_at)
                            {
                                r.pending_task_kill = Some(slot);
                            }
                        }
                    }
                    *usage.entry(slot).or_insert_with(ResourceVec::zero) += j.per_task * tasks;
                    *grants.entry((slot, job)).or_insert(0) += tasks;
                }
                TraceEvent::Start { slot, job } => {
                    let i = idx.expect("job events carry an id");
                    if replays[i].done_work > 0 {
                        push(
                            "work-mismatch",
                            slot,
                            Some(job),
                            "start event after work was already granted".into(),
                        );
                    }
                }
                TraceEvent::Preempt { slot, job } => preempts.push((slot, job)),
                TraceEvent::Finish {
                    slot,
                    job,
                    done_work,
                } => {
                    let i = idx.expect("job events carry an id");
                    if replays[i].finish.is_some() {
                        push(
                            "finish-spurious",
                            slot,
                            Some(job),
                            "duplicate finish".into(),
                        );
                    }
                    if replays[i].done_work != done_work {
                        push(
                            "work-mismatch",
                            slot,
                            Some(job),
                            format!(
                                "finish claims {done_work} done, grants sum to {}",
                                replays[i].done_work
                            ),
                        );
                    }
                    let effective = jobs[i].actual_work + replays[i].extra_work;
                    if replays[i].done_work < effective {
                        push(
                            "finish-spurious",
                            slot,
                            Some(job),
                            format!(
                                "finished with {} of {} task-slots done",
                                replays[i].done_work, effective
                            ),
                        );
                    }
                    if replays[i].shed.is_some() {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "finish event for a shed job".into(),
                        );
                    }
                    replays[i].finish = Some((slot, done_work));
                }
                TraceEvent::Kill {
                    slot,
                    job,
                    attempt,
                    wasted,
                } => {
                    let i = idx.expect("job events carry an id");
                    let Some(rc) = &rec_ctx else {
                        push(
                            "kill-invalid",
                            slot,
                            Some(job),
                            "kill event without a recovery setup".into(),
                        );
                        continue;
                    };
                    let r = &mut replays[i];
                    if attempt != r.attempt {
                        push(
                            "kill-accounting",
                            slot,
                            Some(job),
                            format!("killed attempt {attempt}, replay is at {}", r.attempt),
                        );
                    }
                    if wasted != r.done_work {
                        push(
                            "kill-accounting",
                            slot,
                            Some(job),
                            format!("kill wasted {wasted}, attempt progress is {}", r.done_work),
                        );
                    }
                    if r.attempt >= rc.policy.max_retries {
                        push(
                            "kill-invalid",
                            slot,
                            Some(job),
                            "killed the final permitted attempt".into(),
                        );
                    }
                    // Cause: the kill must be the seeded crash window that
                    // caught the job running, or a seeded task failure
                    // whose threshold the attempt's progress reached.
                    let effective = jobs[i].actual_work + r.extra_work;
                    let crash_cause = r.expected_crash_kill == Some(slot);
                    let task_cause = rc
                        .plan
                        .attempt_failure(job, r.attempt, effective)
                        .is_some_and(|fail_at| r.done_work >= fail_at);
                    if crash_cause {
                        r.expected_crash_kill = None;
                        rstats.crash_kills += 1;
                    } else if task_cause {
                        rstats.task_failures += 1;
                    } else {
                        push(
                            "kill-invalid",
                            slot,
                            Some(job),
                            "kill matches neither a seeded task failure nor a crash window".into(),
                        );
                    }
                    r.pending_task_kill = None;
                    rstats.retries += 1;
                    rstats.wasted_work += r.done_work;
                    r.wasted += r.done_work;
                    r.done_work = 0;
                    r.attempt += 1;
                    r.retry_gate = slot + 1 + rc.policy.backoff_base * r.attempt as u64;
                }
                TraceEvent::Shed { slot, job } => {
                    let i = idx.expect("job events carry an id");
                    let Some(rc) = &rec_ctx else {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "shed event without a recovery setup".into(),
                        );
                        continue;
                    };
                    let r = &mut replays[i];
                    if rc.policy.shed != ShedPolicy::Shed || !jobs[i].class.is_adhoc() {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "shed outside the shed policy, or of a workflow job".into(),
                        );
                    }
                    if slot != jobs[i].arrival_slot {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            format!("shed at {slot}, arrival is {}", jobs[i].arrival_slot),
                        );
                    }
                    if r.first_grant.is_some() || r.shed.is_some() {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "shed after the job ran, or shed twice".into(),
                        );
                    }
                    r.shed = Some(slot);
                    rstats.shed_jobs += 1;
                }
                TraceEvent::Defer { slot, job, until } => {
                    let i = idx.expect("job events carry an id");
                    let Some(rc) = &rec_ctx else {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            "defer event without a recovery setup".into(),
                        );
                        continue;
                    };
                    let r = &mut replays[i];
                    let expected = match rc.policy.shed {
                        ShedPolicy::Delay { slots } => Some(slot + slots.max(1)),
                        _ => None,
                    };
                    if expected != Some(until)
                        || slot != jobs[i].arrival_slot
                        || !jobs[i].class.is_adhoc()
                        || r.deferred_until.is_some()
                    {
                        push(
                            "shed-violation",
                            slot,
                            Some(job),
                            format!("defer to {until} contradicts the delay policy"),
                        );
                    }
                    r.deferred_until = Some(until);
                    rstats.delayed_jobs += 1;
                }
                TraceEvent::Straggler { slot, job, extra } => {
                    let i = idx.expect("job events carry an id");
                    if rec_ctx.is_none() {
                        push(
                            "straggler-mismatch",
                            slot,
                            Some(job),
                            "straggler event without a recovery setup".into(),
                        );
                        continue;
                    }
                    match replays[i].pending_straggler.take() {
                        Some((s, e)) if s == slot && e == extra => {}
                        _ => push(
                            "straggler-mismatch",
                            slot,
                            Some(job),
                            format!("straggler (+{extra}) does not match the seeded expectation"),
                        ),
                    }
                }
                TraceEvent::Replan { .. } | TraceEvent::PolicyTag { .. } => {}
            }
        }

        // Windows opening after the last event but before the run ended
        // still fire; then every due kill and straggler must have been
        // discharged by a matching trace event.
        if let Some(rc) = &mut rec_ctx {
            expect_crash_kills(rc, &jobs, &mut replays, u64::MAX, outcome.slots_elapsed);
            for (i, r) in replays.iter().enumerate() {
                if let Some(s) = r.expected_crash_kill {
                    push(
                        "kill-invalid",
                        s,
                        Some(jobs[i].id),
                        "crash window caught the job running but no kill was recorded".into(),
                    );
                }
                if let Some(s) = r.pending_task_kill {
                    push(
                        "kill-invalid",
                        s,
                        Some(jobs[i].id),
                        "seeded task failure became due but no kill was recorded".into(),
                    );
                }
                if let Some((s, extra)) = r.pending_straggler {
                    push(
                        "straggler-mismatch",
                        s,
                        Some(jobs[i].id),
                        format!("seeded straggler inflation (+{extra}) was not recorded"),
                    );
                }
            }
        }

        // Per-slot capacity conservation against the capacity in force
        // (including any open crash window).
        for (&slot, &used) in &usage {
            let cap = cap_at(slot);
            if !used.fits_within(&cap) {
                push(
                    "capacity-overflow",
                    slot,
                    None,
                    format!("granted {used:?} exceeds capacity {cap:?}"),
                );
            }
        }

        // Preempt events must match the grant record: granted in the
        // previous slot, unallocated in this one, not yet finished.
        for (slot, job) in preempts {
            let legit = slot > 0
                && grants.contains_key(&(slot - 1, job))
                && !grants.contains_key(&(slot, job))
                && index_of(job)
                    .and_then(|i| replays[i].finish)
                    .is_none_or(|(f, _)| f >= slot);
            if !legit {
                push(
                    "preempt-mismatch",
                    slot,
                    Some(job),
                    "preempt contradicts the grant record".into(),
                );
            }
        }
    }

    // ---- Outcome cross-checks (independent of engine state). -----------
    let mut seen = vec![false; jobs.len()];
    for out in &outcome.metrics.jobs {
        let Some(i) = index_of(out.id) else {
            push(
                "completion-mismatch",
                0,
                Some(out.id),
                "completed job not in the scenario".into(),
            );
            continue;
        };
        seen[i] = true;
        let j = &jobs[i];
        if out.arrival_slot != j.arrival_slot {
            push(
                "turnaround-mismatch",
                out.completion_slot,
                Some(out.id),
                format!(
                    "outcome arrival {} != scenario {}",
                    out.arrival_slot, j.arrival_slot
                ),
            );
        }
        if out.deadline_slot != j.deadline_slot {
            push(
                "deadline-drift",
                out.completion_slot,
                Some(out.id),
                format!(
                    "outcome deadline {:?} != scenario {:?}",
                    out.deadline_slot, j.deadline_slot
                ),
            );
        }
        if !truncated {
            match replays[i].finish {
                Some((f, _)) => {
                    if out.completion_slot != f + 1 {
                        push(
                            "completion-mismatch",
                            out.completion_slot,
                            Some(out.id),
                            format!(
                                "completion {} but trace finished at end of {f}",
                                out.completion_slot
                            ),
                        );
                    }
                    if out.turnaround_slots() != (f + 1).saturating_sub(j.arrival_slot) {
                        push(
                            "turnaround-mismatch",
                            out.completion_slot,
                            Some(out.id),
                            format!(
                                "turnaround {} != trace-derived {}",
                                out.turnaround_slots(),
                                (f + 1).saturating_sub(j.arrival_slot)
                            ),
                        );
                    }
                }
                None => push(
                    "finish-missing",
                    out.completion_slot,
                    Some(out.id),
                    "completed without a finish event".into(),
                ),
            }
            match derived_ready(&jobs, &replays, i) {
                Some(expected) if expected == out.ready_slot => {}
                Some(expected) => push(
                    "ready-mismatch",
                    out.ready_slot,
                    Some(out.id),
                    format!("outcome ready {} != derived {expected}", out.ready_slot),
                ),
                None => push(
                    "precedence-inversion",
                    out.ready_slot,
                    Some(out.id),
                    "completed although a predecessor never finished".into(),
                ),
            }
            if out.retries != replays[i].attempt as u64 || out.wasted_work != replays[i].wasted {
                push(
                    "retry-accounting",
                    out.completion_slot,
                    Some(out.id),
                    format!(
                        "outcome reports {} retries / {} wasted, replay has {} / {}",
                        out.retries, out.wasted_work, replays[i].attempt, replays[i].wasted
                    ),
                );
            }
        }
    }
    for inf in &outcome.in_flight {
        let Some(i) = index_of(inf.id) else {
            push(
                "in-flight-mismatch",
                0,
                Some(inf.id),
                "in-flight job not in the scenario".into(),
            );
            continue;
        };
        if seen[i] {
            push(
                "completion-mismatch",
                0,
                Some(inf.id),
                "job is both completed and in flight".into(),
            );
        }
        seen[i] = true;
        if !truncated {
            if let Some((f, _)) = replays[i].finish {
                push(
                    "finish-spurious",
                    f,
                    Some(inf.id),
                    "finish event for a job reported in flight".into(),
                );
            }
            let effective = jobs[i].actual_work + replays[i].extra_work;
            if inf.done_work != replays[i].done_work
                || inf.remaining_work != effective.saturating_sub(replays[i].done_work)
            {
                push(
                    "in-flight-mismatch",
                    0,
                    Some(inf.id),
                    format!(
                        "reported {}/{} done, grants sum to {}/{}",
                        inf.done_work,
                        inf.done_work + inf.remaining_work,
                        replays[i].done_work,
                        effective
                    ),
                );
            }
            if inf.retries != replays[i].attempt as u64 || inf.wasted_work != replays[i].wasted {
                push(
                    "retry-accounting",
                    0,
                    Some(inf.id),
                    format!(
                        "in-flight reports {} retries / {} wasted, replay has {} / {}",
                        inf.retries, inf.wasted_work, replays[i].attempt, replays[i].wasted
                    ),
                );
            }
            let expected_ready = if jobs[i].preds.is_empty() {
                Some(jobs[i].arrival_slot)
            } else if jobs[i].preds.iter().all(|&p| replays[p].finish.is_some()) {
                derived_ready(&jobs, &replays, i)
            } else {
                None
            };
            if inf.ready_slot != expected_ready {
                push(
                    "ready-mismatch",
                    0,
                    Some(inf.id),
                    format!(
                        "in-flight ready {:?} != derived {:?}",
                        inf.ready_slot, expected_ready
                    ),
                );
            }
        }
    }
    for sj in &outcome.shed {
        let Some(i) = index_of(sj.id) else {
            push(
                "shed-violation",
                sj.shed_slot,
                Some(sj.id),
                "shed job not in the scenario".into(),
            );
            continue;
        };
        if seen[i] {
            push(
                "shed-violation",
                sj.shed_slot,
                Some(sj.id),
                "job is shed and also completed or in flight".into(),
            );
        }
        seen[i] = true;
        if sj.arrival_slot != jobs[i].arrival_slot {
            push(
                "shed-violation",
                sj.shed_slot,
                Some(sj.id),
                format!(
                    "shed record arrival {} != scenario {}",
                    sj.arrival_slot, jobs[i].arrival_slot
                ),
            );
        }
        if !truncated && replays[i].shed != Some(sj.shed_slot) {
            push(
                "shed-violation",
                sj.shed_slot,
                Some(sj.id),
                format!(
                    "outcome sheds at {}, trace sheds at {:?}",
                    sj.shed_slot, replays[i].shed
                ),
            );
        }
    }
    for (i, covered) in seen.iter().enumerate() {
        if !covered {
            if replays[i].shed.is_some() {
                push(
                    "shed-violation",
                    replays[i].shed.unwrap_or(0),
                    Some(jobs[i].id),
                    "shed in the trace but missing from the outcome's shed list".into(),
                );
            } else {
                push(
                    "completion-mismatch",
                    0,
                    Some(jobs[i].id),
                    "job appears in neither outcomes, in-flight, nor shed".into(),
                );
            }
        }
    }

    // ---- Recovery counter recount. --------------------------------------
    if !truncated {
        match &rec_ctx {
            Some(_) => {
                // Infeasibility flags are an engine-side heuristic the
                // auditor deliberately does not replay.
                rstats.infeasible_flags = outcome.recovery.infeasible_flags;
                if rstats != outcome.recovery {
                    push(
                        "retry-accounting",
                        0,
                        None,
                        format!(
                            "recovery counters do not recount: outcome {:?}, replay {:?}",
                            outcome.recovery, rstats
                        ),
                    );
                }
            }
            None => {
                if !outcome.recovery.is_inert() {
                    push(
                        "retry-accounting",
                        0,
                        None,
                        "recovery counters recorded without a recovery setup".into(),
                    );
                }
                if !outcome.shed.is_empty() {
                    push(
                        "shed-violation",
                        0,
                        None,
                        "shed jobs recorded without a recovery setup".into(),
                    );
                }
            }
        }
    }

    // ---- Per-slot load records. ----------------------------------------
    if outcome.metrics.slot_loads.len() as u64 != outcome.slots_elapsed
        || outcome.metrics.slot_capacities.len() != outcome.metrics.slot_loads.len()
    {
        push(
            "load-mismatch",
            0,
            None,
            format!(
                "{} load / {} capacity records for {} slots",
                outcome.metrics.slot_loads.len(),
                outcome.metrics.slot_capacities.len(),
                outcome.slots_elapsed
            ),
        );
    }
    if !truncated {
        for (s, load) in outcome.metrics.slot_loads.iter().enumerate() {
            let computed = usage
                .get(&(s as u64))
                .copied()
                .unwrap_or_else(ResourceVec::zero);
            if *load != computed {
                push(
                    "load-mismatch",
                    s as u64,
                    None,
                    format!("recorded load {load:?}, grants sum to {computed:?}"),
                );
            }
        }
        if let Some((&slot, _)) = usage
            .iter()
            .find(|(&s, _)| s >= outcome.metrics.slot_loads.len() as u64)
        {
            push(
                "load-mismatch",
                slot,
                None,
                "grants recorded beyond the simulated range".into(),
            );
        }
    }
    for (s, cap) in outcome.metrics.slot_capacities.iter().enumerate() {
        if *cap != cap_at(s as u64) {
            push(
                "load-mismatch",
                s as u64,
                None,
                format!(
                    "recorded capacity {cap:?} != effective {:?}",
                    cap_at(s as u64)
                ),
            );
        }
    }

    // ---- Deadline-decomposition accounting. -----------------------------
    let recount_job_misses = outcome
        .metrics
        .jobs
        .iter()
        .filter(|o| {
            index_of(o.id)
                .and_then(|i| jobs[i].deadline_slot)
                .is_some_and(|d| o.completion_slot > d)
        })
        .count();
    if recount_job_misses != outcome.metrics.job_deadline_misses() {
        push(
            "deadline-accounting",
            0,
            None,
            format!(
                "recounted {} job misses, metrics claim {}",
                recount_job_misses,
                outcome.metrics.job_deadline_misses()
            ),
        );
    }
    let completion_of = |i: usize| -> Option<u64> {
        outcome
            .metrics
            .jobs
            .iter()
            .find(|o| o.id == jobs[i].id)
            .map(|o| o.completion_slot)
    };
    let mut recount_wf_misses = 0usize;
    let mut complete_wfs = 0usize;
    for wf in &workflows {
        let completions: Option<Vec<u64>> = wf.job_idxs.iter().map(|&i| completion_of(i)).collect();
        let Some(completions) = completions else {
            if outcome.metrics.workflows.iter().any(|o| o.id == wf.id) {
                push(
                    "workflow-accounting",
                    0,
                    None,
                    format!("{} reported complete with unfinished nodes", wf.id),
                );
            }
            continue;
        };
        complete_wfs += 1;
        let completion = *completions.iter().max().expect("workflows are non-empty");
        if completion > wf.deadline_slot {
            recount_wf_misses += 1;
        }
        match outcome.metrics.workflows.iter().find(|o| o.id == wf.id) {
            Some(o) => {
                if o.completion_slot != completion || o.deadline_slot != wf.deadline_slot {
                    push(
                        "workflow-accounting",
                        completion,
                        None,
                        format!(
                            "{}: outcome ({}, dl {}) != recomputed ({completion}, dl {})",
                            wf.id, o.completion_slot, o.deadline_slot, wf.deadline_slot
                        ),
                    );
                }
            }
            None => push(
                "workflow-accounting",
                completion,
                None,
                format!("{} completed but missing from outcomes", wf.id),
            ),
        }
    }
    if outcome.metrics.workflows.len() != complete_wfs {
        push(
            "workflow-accounting",
            0,
            None,
            format!(
                "{} workflow outcomes, {} workflows fully completed",
                outcome.metrics.workflows.len(),
                complete_wfs
            ),
        );
    } else if recount_wf_misses != outcome.metrics.workflow_deadline_misses() {
        push(
            "deadline-accounting",
            0,
            None,
            format!(
                "recounted {} workflow misses, metrics claim {}",
                recount_wf_misses,
                outcome.metrics.workflow_deadline_misses()
            ),
        );
    }

    // ---- Attribution recompute. -----------------------------------------
    let attribution = recompute_attribution(&jobs, &workflows, &completion_of);
    if outcome.deadline_attribution != attribution {
        push(
            "attribution-mismatch",
            0,
            None,
            format!(
                "outcome lists {} attribution rows, recomputed {}",
                outcome.deadline_attribution.len(),
                attribution.len()
            ),
        );
    }

    AuditReport {
        violations: v,
        attribution,
        events_checked: trace.recorded(),
    }
}

/// The slot a job becomes runnable, derived from its predecessors' finish
/// events: arrival for sources and ad-hoc jobs, max predecessor finish
/// `+ 1` otherwise. `None` when a predecessor has no finish event.
fn derived_ready(jobs: &[AuditJob], replays: &[Replay], i: usize) -> Option<u64> {
    let j = &jobs[i];
    if j.preds.is_empty() {
        // Deferred ad-hoc jobs become runnable at their deferred arrival.
        return Some(replays[i].deferred_until.unwrap_or(j.arrival_slot));
    }
    j.preds
        .iter()
        .map(|&p| replays[p].finish.map(|(f, _)| f + 1))
        .collect::<Option<Vec<u64>>>()
        .map(|rs| {
            rs.into_iter()
                .max()
                .expect("preds non-empty")
                .max(j.arrival_slot)
        })
}

/// Rebuilds the engine's dense job table from the workload alone,
/// mirroring [`crate::Engine::new`]'s workflows-then-adhoc id order.
fn build_table(workload: &SimWorkload) -> Result<(Vec<AuditJob>, Vec<AuditWorkflow>), String> {
    let mut jobs: Vec<AuditJob> = Vec::new();
    let mut workflows: Vec<AuditWorkflow> = Vec::new();
    for sub in &workload.workflows {
        push_workflow_table(&mut jobs, &mut workflows, sub)?;
    }
    for adhoc in &workload.adhoc {
        push_adhoc_table(&mut jobs, adhoc);
    }
    Ok((jobs, workflows))
}

/// Rebuilds the dense job table from a submission log, mirroring
/// [`crate::Engine::from_log`]'s `(arrival slot, sequence)` id order.
fn build_table_from_log(
    log: &SubmissionLog,
) -> Result<(Vec<AuditJob>, Vec<AuditWorkflow>), String> {
    let mut jobs: Vec<AuditJob> = Vec::new();
    let mut workflows: Vec<AuditWorkflow> = Vec::new();
    let effective = log.effective().map_err(|e| e.to_string())?;
    for entry in effective {
        match entry {
            EffectiveSubmission::Workflow(sub) => {
                push_workflow_table(&mut jobs, &mut workflows, sub)?;
            }
            EffectiveSubmission::Adhoc(sub) => push_adhoc_table(&mut jobs, sub),
        }
    }
    Ok((jobs, workflows))
}

/// Appends one workflow submission's nodes to the audit table.
fn push_workflow_table(
    jobs: &mut Vec<AuditJob>,
    workflows: &mut Vec<AuditWorkflow>,
    sub: &WorkflowSubmission,
) -> Result<(), String> {
    let wf = &sub.workflow;
    let n = wf.len();
    if sub.actual_work.as_ref().is_some_and(|v| v.len() != n)
        || sub.job_deadlines.as_ref().is_some_and(|v| v.len() != n)
    {
        return Err(format!("{}: malformed submission vectors", wf.id()));
    }
    let base = jobs.len();
    for (node, spec) in wf.jobs().iter().enumerate() {
        jobs.push(AuditJob {
            id: JobId::new(jobs.len() as u64),
            class: JobClass::Deadline {
                workflow: wf.id(),
                node,
            },
            per_task: spec.per_task(),
            parallel_cap: spec.effective_parallel(),
            actual_work: sub
                .actual_work
                .as_ref()
                .map_or_else(|| spec.work(), |v| v[node]),
            arrival_slot: wf.submit_slot(),
            deadline_slot: sub.job_deadlines.as_ref().map(|v| v[node]),
            preds: wf
                .dag()
                .predecessors(node)
                .iter()
                .map(|&p| base + p)
                .collect(),
        });
    }
    workflows.push(AuditWorkflow {
        id: wf.id(),
        deadline_slot: wf.deadline_slot(),
        job_idxs: (base..base + n).collect(),
        milestones: sub.job_deadlines.clone(),
    });
    Ok(())
}

/// Appends one ad-hoc submission to the audit table.
fn push_adhoc_table(jobs: &mut Vec<AuditJob>, adhoc: &AdhocSubmission) {
    jobs.push(AuditJob {
        id: JobId::new(jobs.len() as u64),
        class: JobClass::AdHoc,
        per_task: adhoc.spec.per_task(),
        parallel_cap: adhoc.spec.effective_parallel(),
        actual_work: adhoc.spec.work(),
        arrival_slot: adhoc.arrival_slot,
        deadline_slot: None,
        preds: Vec::new(),
    });
}

/// Recomputes the deadline-miss attribution from scenario milestones and
/// certified completions — the same semantics as the engine's report, but
/// derived with zero shared state.
fn recompute_attribution(
    jobs: &[AuditJob],
    workflows: &[AuditWorkflow],
    completion_of: &dyn Fn(usize) -> Option<u64>,
) -> Vec<MissAttribution> {
    let mut out = Vec::new();
    for wf in workflows {
        let Some(milestones) = &wf.milestones else {
            continue;
        };
        let completions: Option<Vec<u64>> = wf.job_idxs.iter().map(|&i| completion_of(i)).collect();
        let Some(completions) = completions else {
            continue;
        };
        let culprits: Vec<NodeSlackUse> = completions
            .iter()
            .enumerate()
            .filter_map(|(node, &c)| {
                let m = milestones[node];
                (c > m).then(|| NodeSlackUse {
                    job: jobs[wf.job_idxs[node]].id,
                    node: node as u64,
                    milestone_slot: m,
                    completion_slot: c,
                    overrun_slots: c - m,
                })
            })
            .collect();
        let completion = *completions.iter().max().expect("workflows are non-empty");
        out.push(MissAttribution {
            workflow: wf.id,
            deadline_slot: wf.deadline_slot,
            completion_slot: completion,
            total_overrun_slots: culprits.iter().map(|c| c.overrun_slots).sum(),
            culprits,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::faults::RuntimeFaultConfig;
    use crate::job::{AdhocSubmission, WorkflowSubmission};
    use crate::scheduler::{Allocation, Scheduler};
    use crate::state::SimState;
    use crate::trace::TraceEvent;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};

    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            let mut free = state.capacity();
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

    fn scenario() -> (ClusterConfig, SimWorkload) {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "wf");
        let spec = |n: &str| JobSpec::new(n, 4, 2, ResourceVec::new([1, 1024]));
        let a = b.add_job(spec("a"));
        let c = b.add_job(spec("c"));
        b.add_dep(a, c).unwrap();
        let wf = b.window(0, 3).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(WorkflowSubmission::new(wf).with_job_deadlines(vec![1, 3]));
        wl.adhoc.push(AdhocSubmission::new(
            JobSpec::new("adhoc-0", 2, 3, ResourceVec::new([1, 512])),
            2,
        ));
        (ClusterConfig::new(ResourceVec::new([8, 65_536]), 10.0), wl)
    }

    fn traced_run(max_slots: u64) -> (ClusterConfig, SimWorkload, SimOutcome, DecisionTrace) {
        let (cluster, wl) = scenario();
        let (engine, handle) = Engine::new(cluster.clone(), wl.clone(), max_slots)
            .unwrap()
            .with_trace(4096);
        let out = engine.run(&mut Greedy).unwrap();
        (cluster, wl, out, handle.take())
    }

    #[test]
    fn clean_run_certifies_and_attributes() {
        let (cluster, wl, out, trace) = traced_run(100);
        let report = certify(&cluster, &wl, &out, &trace);
        assert!(report.is_certified(), "{}", report.summary());
        assert!(report.events_checked > 0);
        // The first chain job needed 2 slots against a milestone of 1,
        // pushing node 1 past its own milestone too; both are culprits and
        // the overrun tie breaks toward the earlier node.
        assert_eq!(report.attribution.len(), 1);
        let attr = &report.attribution[0];
        assert!(attr.missed());
        assert_eq!(attr.culprits.len(), 2);
        assert_eq!(attr.top_culprit().unwrap().node, 0);
        assert!(attr.total_overrun_slots > 0);
        assert_eq!(out.deadline_attribution, report.attribution);
    }

    #[test]
    fn drained_run_certifies() {
        let (cluster, wl, out, trace) = traced_run(3);
        assert!(!out.is_complete());
        let report = certify(&cluster, &wl, &out, &trace);
        assert!(report.is_certified(), "{}", report.summary());
    }

    #[test]
    fn inflated_grant_is_rejected() {
        let (cluster, wl, out, mut trace) = traced_run(100);
        let ev = trace
            .events_mut()
            .iter_mut()
            .find_map(|e| match e {
                TraceEvent::Grant { tasks, .. } => Some(tasks),
                _ => None,
            })
            .expect("some grant");
        *ev += 1_000;
        let report = certify(&cluster, &wl, &out, &trace);
        assert!(report.has("capacity-overflow"), "{}", report.summary());
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let (cluster, wl, out, _) = traced_run(100);
        let (engine, handle) = Engine::new(cluster.clone(), wl.clone(), 100)
            .unwrap()
            .with_trace(4);
        let out2 = engine.run(&mut Greedy).unwrap();
        assert_eq!(out, out2);
        let trace = handle.take();
        assert!(trace.dropped() > 0);
        let report = certify(&cluster, &wl, &out2, &trace);
        assert!(report.has("trace-truncated"));
    }

    #[test]
    fn wrong_scenario_is_rejected() {
        let (cluster, wl, out, trace) = traced_run(100);
        let mut other = wl.clone();
        other.adhoc[0].arrival_slot += 1;
        let report = certify(&cluster, &other, &out, &trace);
        assert!(!report.is_certified());
        assert!(report.has("header-mismatch"));
    }

    fn chaos_setup() -> RecoverySetup {
        RecoverySetup::new(
            RuntimeFaultConfig::none(7)
                .with_task_failures(0.6)
                .with_crashes(0.5)
                .with_crash_period(6)
                .with_stragglers(0.5, 1.0),
            RecoveryPolicy::default(),
        )
    }

    fn traced_recovery_run(
        setup: &RecoverySetup,
        workload: Option<SimWorkload>,
    ) -> (ClusterConfig, SimWorkload, SimOutcome, DecisionTrace) {
        let (cluster, default_wl) = scenario();
        let wl = workload.unwrap_or(default_wl);
        let (engine, handle) = Engine::new(cluster.clone(), wl.clone(), 300)
            .unwrap()
            .with_recovery(setup.clone())
            .with_trace(4096);
        let out = engine.run(&mut Greedy).unwrap();
        (cluster, wl, out, handle.take())
    }

    fn overload_workload() -> SimWorkload {
        let mut wl = SimWorkload::default();
        for i in 0..5u64 {
            wl.adhoc.push(AdhocSubmission::new(
                JobSpec::new(format!("a{i}"), 40, 4, ResourceVec::new([1, 512])),
                i,
            ));
        }
        wl
    }

    #[test]
    fn chaos_run_certifies() {
        let setup = chaos_setup();
        let (cluster, wl, out, trace) = traced_recovery_run(&setup, None);
        assert!(
            out.recovery.task_failures + out.recovery.crash_kills + out.recovery.stragglers > 0,
            "chaos seed produced no faults: {:?}",
            out.recovery
        );
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.is_certified(), "{}", report.summary());
    }

    #[test]
    fn recovery_with_inert_faults_matches_baseline_bytes() {
        // A feasible workload: the infeasibility flag (which is allowed to
        // fire with recovery attached even when faults are inert) stays
        // quiet, so the outcome must serialize byte-for-byte identically.
        let (cluster, _) = scenario();
        let wl = overload_workload();
        let base = Engine::new(cluster.clone(), wl.clone(), 300)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        let setup = RecoverySetup::new(RuntimeFaultConfig::none(7), RecoveryPolicy::default());
        let recovered = Engine::new(cluster, wl, 300)
            .unwrap()
            .with_recovery(setup)
            .run(&mut Greedy)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&base).unwrap(),
            serde_json::to_string(&recovered).unwrap()
        );
    }

    #[test]
    fn shed_policy_run_certifies() {
        let setup = RecoverySetup::new(
            RuntimeFaultConfig::none(3),
            RecoveryPolicy::default()
                .with_shed(ShedPolicy::Shed)
                .with_overload(0.5, 1),
        );
        let (cluster, wl, out, trace) = traced_recovery_run(&setup, Some(overload_workload()));
        assert!(out.recovery.shed_jobs > 0, "{:?}", out.recovery);
        assert_eq!(out.shed.len() as u64, out.recovery.shed_jobs);
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.is_certified(), "{}", report.summary());
    }

    #[test]
    fn delay_policy_run_certifies() {
        let setup = RecoverySetup::new(
            RuntimeFaultConfig::none(3),
            RecoveryPolicy::default()
                .with_shed(ShedPolicy::Delay { slots: 2 })
                .with_overload(0.5, 1),
        );
        let (cluster, wl, out, trace) = traced_recovery_run(&setup, Some(overload_workload()));
        assert!(out.recovery.delayed_jobs > 0, "{:?}", out.recovery);
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.is_certified(), "{}", report.summary());
    }

    #[test]
    fn kill_without_setup_is_rejected() {
        let setup = chaos_setup();
        let (cluster, wl, out, trace) = traced_recovery_run(&setup, None);
        assert!(
            trace.events().any(|e| matches!(e, TraceEvent::Kill { .. })),
            "chaos run produced no kills"
        );
        // Auditing the same run *without* the recovery setup must fail.
        let report = certify(&cluster, &wl, &out, &trace);
        assert!(report.has("kill-invalid"), "{}", report.summary());
    }

    #[test]
    fn corrupted_kill_wasted_is_rejected() {
        let setup = chaos_setup();
        let (cluster, wl, out, mut trace) = traced_recovery_run(&setup, None);
        let ev = trace
            .events_mut()
            .iter_mut()
            .find_map(|e| match e {
                TraceEvent::Kill { wasted, .. } => Some(wasted),
                _ => None,
            })
            .expect("some kill");
        *ev += 1;
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.has("kill-accounting"), "{}", report.summary());
    }

    #[test]
    fn corrupted_recovery_counter_is_rejected() {
        let setup = chaos_setup();
        let (cluster, wl, mut out, trace) = traced_recovery_run(&setup, None);
        out.recovery.retries += 1;
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.has("retry-accounting"), "{}", report.summary());
    }

    #[test]
    fn injected_shed_is_rejected() {
        let setup = chaos_setup();
        let (cluster, wl, out, mut trace) = traced_recovery_run(&setup, None);
        let job = trace.events().find_map(|e| e.job()).expect("a job");
        trace
            .events_mut()
            .insert(0, TraceEvent::Shed { slot: 0, job });
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.has("shed-violation"), "{}", report.summary());
    }

    #[test]
    fn injected_straggler_is_rejected() {
        let setup = chaos_setup();
        let (cluster, wl, out, mut trace) = traced_recovery_run(&setup, None);
        let job = trace.events().find_map(|e| e.job()).expect("a job");
        trace.events_mut().insert(
            0,
            TraceEvent::Straggler {
                slot: 0,
                job,
                extra: 5,
            },
        );
        let report = certify_with_recovery(&cluster, &wl, &out, &trace, Some(&setup));
        assert!(report.has("straggler-mismatch"), "{}", report.summary());
    }
}
