//! Deterministic causal diagnosis of workflow deadline misses.
//!
//! The paper's slack decomposition makes misses *attributable*: every
//! workflow deadline is split into per-node milestones, so a miss can be
//! traced to the exact node set that consumed the reserved slack. The
//! [`crate::audit`] module already recomputes that attribution
//! independently ([`MissAttribution`]); this module turns the recount plus
//! the recorded decision trace into *answers* — a typed causal chain per
//! missed workflow, in the style of deterministic-diagnostics RFCs.
//!
//! # The `E00x` diagnostic catalogue
//!
//! Diagnostics mirror the auditor's violation codes: each has a stable
//! identifier, a slot, an optional job/node anchor, a slack figure, and a
//! list of [`EventRef`] citations into the trace. The catalogue:
//!
//! | code | level | meaning |
//! |------|-------|---------|
//! | `E001` | node | **node-overrun** — the node finished past its decomposed milestone; `slack_slots` is the overrun. The anchor diagnostic: per workflow, the `E001` slack figures sum exactly to the auditor's [`MissAttribution::total_overrun_slots`]. |
//! | `E002` | node | **straggler-inflation** — a mid-run straggler inflated the node's ground-truth work at first grant. |
//! | `E003` | node | **retry-chain** — attempts killed by seed-derived task failures discarded progress. |
//! | `E004` | node | **crash-window** — attempts killed because a node-crash capacity window caught them in flight. Distinguished from `E003` only when the [`RecoverySetup`] is available to replay [`RuntimeFaultPlan::crash_kills`]; without it every kill reports as `E003`. |
//! | `E005` | node | **queue-wait** — the node waited one or more slots between becoming ready and its first capacity grant. |
//! | `E006` | node | **dependency-wait** — the node became ready *after* its own milestone: upstream overruns doomed it before it could run. |
//! | `E007` | node | **preemption** — the node was left unallocated while incomplete after having run. |
//! | `E008` | workflow | **fault-injection** — pre-run fault injection rewrote the scenario (submit delays, misestimates, capacity churn, bursts). |
//! | `E009` | workflow | *retired* — **placement** quoted the pod stamp of a sharded run's trace; runs have one engine over the whole cluster, and a pod-stamped trace is refused when it is read. The code is not reused. |
//! | `E010` | workflow | **admission-interference** — admission control shed or deferred ad-hoc arrivals before the workflow completed, changing the contention it faced. |
//!
//! Within one workflow the chain order is deterministic: workflow-level
//! context first (`E008`, `E010`), then per culprit node in
//! [`MissAttribution::culprits`] order: `E001` followed by `E002`–`E007`
//! in code order.
//!
//! # Certification
//!
//! [`explain`] refuses to diagnose an uncertified run: it runs
//! [`certify_with_recovery`] internally and returns
//! [`ExplainError::Uncertified`] if any check fails. The chains are then
//! built from the **auditor's** independent attribution recount, never
//! from the engine's own `deadline_attribution`, and the module
//! self-checks that every chain's `E001` slack figures balance to the
//! recount ([`ExplainError::AttributionImbalance`] otherwise — which would
//! indicate a bug here, not in the run).

use std::collections::BTreeMap;

use flowtime_dag::{JobId, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::audit::{certify_log, certify_with_recovery, AuditReport};
use crate::cluster::{CapacityWindow, ClusterConfig};
use crate::engine::SimOutcome;
use crate::faults::{runtime_fault_horizon, RecoverySetup, RuntimeFaultPlan};
use crate::job::SimWorkload;
use crate::metrics::MissAttribution;
use crate::submission::SubmissionLog;
use crate::trace::{DecisionTrace, TraceEvent};

/// A citation into the decision trace: the event a diagnostic rests on.
///
/// `index` is the event's position in the trace's logical event order
/// (i.e. the enumeration of [`DecisionTrace::events`]), so a report is
/// checkable against the exact trace it was built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRef {
    /// Position in the trace's logical event order.
    pub index: u64,
    /// Slot of the cited event.
    pub slot: u64,
    /// Event kind (see [`event_kind`]).
    pub kind: String,
    /// Job of the cited event, if it is job-scoped.
    pub job: Option<JobId>,
}

impl EventRef {
    fn new(index: usize, ev: &TraceEvent) -> Self {
        EventRef {
            index: index as u64,
            slot: ev.slot(),
            kind: event_kind(ev).to_string(),
            job: ev.job(),
        }
    }
}

/// The stable kind label of a trace event, as cited by [`EventRef`].
pub fn event_kind(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::Arrival { .. } => "arrival",
        TraceEvent::Ready { .. } => "ready",
        TraceEvent::Replan { .. } => "replan",
        TraceEvent::PolicyTag { .. } => "policy-tag",
        TraceEvent::Preempt { .. } => "preempt",
        TraceEvent::Start { .. } => "start",
        TraceEvent::Grant { .. } => "grant",
        TraceEvent::Finish { .. } => "finish",
        TraceEvent::Straggler { .. } => "straggler",
        TraceEvent::Kill { .. } => "kill",
        TraceEvent::Shed { .. } => "shed",
        TraceEvent::Defer { .. } => "defer",
    }
}

/// One typed diagnostic in a workflow's causal chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Catalogue code (`E001`–`E010`, see the [module docs](self)).
    pub code: String,
    /// The job concerned, for node-level diagnostics.
    pub job: Option<JobId>,
    /// DAG node index within the workflow, for node-level diagnostics.
    pub node: Option<u64>,
    /// The slot the diagnosis anchors to.
    pub slot: u64,
    /// Slack consumed, in slots. Non-zero only on `E001`; per workflow
    /// these sum to the auditor's recounted total overrun.
    #[serde(default, skip_serializing_if = "crate::serde_skip::zero_u64")]
    pub slack_slots: u64,
    /// Human-readable explanation.
    pub detail: String,
    /// Trace events this diagnosis rests on. Every entry indexes an event
    /// present in the trace; workflow-level context diagnostics built from
    /// the fault log or the header cite no events.
    #[serde(default, skip_serializing_if = "crate::serde_skip::empty_vec")]
    pub evidence: Vec<EventRef>,
}

/// The causal chain for one missed workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowExplanation {
    /// Workflow id.
    pub workflow: WorkflowId,
    /// The workflow deadline `wd`.
    pub deadline_slot: u64,
    /// Completion slot of the last constituent job.
    pub completion_slot: u64,
    /// Slots past the deadline (`completion - deadline`).
    pub miss_slots: u64,
    /// The auditor's recounted total milestone overrun across culprit
    /// nodes; zero when the workflow carries no decomposed milestones.
    pub total_overrun_slots: u64,
    /// True when the chain fully accounts for the miss: the auditor
    /// produced an attribution with at least one culprit node and the
    /// chain's `E001` slack figures balance to the recounted total.
    pub complete: bool,
    /// The diagnostics, in catalogue order (see the [module docs](self)).
    pub chain: Vec<Diagnostic>,
}

/// A full diagnosis: one causal chain per missed workflow, built from a
/// certified run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Scheduler that produced the run (from the trace header).
    pub scheduler: String,
    /// Trace events examined by the certifying audit.
    pub events_checked: u64,
    /// One chain per missed workflow, in workflow outcome order.
    pub workflows: Vec<WorkflowExplanation>,
}

impl ExplainReport {
    /// Number of missed workflows diagnosed.
    pub fn missed_workflows(&self) -> usize {
        self.workflows.len()
    }

    /// Number of missed workflows with a complete causal chain.
    pub fn complete_chains(&self) -> usize {
        self.workflows.iter().filter(|w| w.complete).count()
    }

    /// Total diagnostics across all chains.
    pub fn diagnostics(&self) -> usize {
        self.workflows.iter().map(|w| w.chain.len()).sum()
    }
}

/// Why a diagnosis could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    /// The run failed certification; diagnosing an unverified run would
    /// launder its violations into "explanations".
    Uncertified {
        /// The auditor's one-line summary.
        summary: String,
        /// Every violation, rendered `code: detail`.
        violations: Vec<String>,
    },
    /// A built chain's `E001` slack figures did not balance to the
    /// auditor's recount — an internal invariant breach in this module.
    AttributionImbalance {
        /// The workflow whose chain failed to balance.
        workflow: WorkflowId,
        /// Sum of the chain's `E001` slack figures.
        chain_slots: u64,
        /// The auditor's recounted total overrun.
        audited_slots: u64,
    },
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::Uncertified { summary, .. } => {
                write!(f, "run is not certified: {summary}")
            }
            ExplainError::AttributionImbalance {
                workflow,
                chain_slots,
                audited_slots,
            } => write!(
                f,
                "chain for {workflow} accounts {chain_slots} slack slots, auditor recounted {audited_slots}"
            ),
        }
    }
}

impl std::error::Error for ExplainError {}

/// Diagnoses every missed workflow of a certified scenario run.
///
/// Certifies `(outcome, trace)` against the scenario via
/// [`certify_with_recovery`] first, then builds the chains from the
/// auditor's independent [`MissAttribution`] recount. `recovery` must be
/// the setup the engine was armed with (or `None`), exactly as for the
/// audit — it is additionally used to split crash-window kills (`E004`)
/// from task-failure kills (`E003`).
pub fn explain(
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
    recovery: Option<&RecoverySetup>,
) -> Result<ExplainReport, ExplainError> {
    let audit = certify_with_recovery(cluster, workload, outcome, trace, recovery);
    let crash = recovery.map(|setup| {
        let plan = RuntimeFaultPlan::new(setup.faults.clone());
        let windows = plan.crash_windows(cluster.capacity(), runtime_fault_horizon(workload));
        (plan, windows)
    });
    build_report(
        outcome,
        trace,
        &audit,
        crash.as_ref().map(|(p, w)| (p, w.as_slice())),
    )
}

/// Diagnoses a run recorded as a [`SubmissionLog`] (the daemon's online
/// path), certifying via [`certify_log`]. Online sessions carry no
/// recovery setup, so every kill reports as `E003`.
pub fn explain_log(
    cluster: &ClusterConfig,
    log: &SubmissionLog,
    outcome: &SimOutcome,
    trace: &DecisionTrace,
) -> Result<ExplainReport, ExplainError> {
    let audit = certify_log(cluster, log, outcome, trace);
    build_report(outcome, trace, &audit, None)
}

fn build_report(
    outcome: &SimOutcome,
    trace: &DecisionTrace,
    audit: &AuditReport,
    crash: Option<(&RuntimeFaultPlan, &[CapacityWindow])>,
) -> Result<ExplainReport, ExplainError> {
    if !audit.is_certified() {
        return Err(ExplainError::Uncertified {
            summary: audit.summary(),
            violations: audit
                .violations
                .iter()
                .map(|v| format!("{}: {}", v.code, v.detail))
                .collect(),
        });
    }

    // Index the trace once: per-job event lists in logical order, plus the
    // admission-control events for E010.
    let mut by_job: BTreeMap<JobId, Vec<(usize, &TraceEvent)>> = BTreeMap::new();
    let mut admission: Vec<(usize, &TraceEvent)> = Vec::new();
    for (idx, ev) in trace.events().enumerate() {
        if let Some(job) = ev.job() {
            by_job.entry(job).or_default().push((idx, ev));
        }
        if matches!(ev, TraceEvent::Shed { .. } | TraceEvent::Defer { .. }) {
            admission.push((idx, ev));
        }
    }
    let ready_of: BTreeMap<JobId, u64> = outcome
        .metrics
        .jobs
        .iter()
        .map(|j| (j.id, j.ready_slot))
        .collect();
    let attr_of: BTreeMap<WorkflowId, &MissAttribution> =
        audit.attribution.iter().map(|a| (a.workflow, a)).collect();

    let mut workflows = Vec::new();
    for wf in outcome
        .metrics
        .workflows
        .iter()
        .filter(|w| w.missed_deadline())
    {
        let attr = attr_of.get(&wf.id).copied();
        let mut chain = Vec::new();

        // Workflow-level context: pre-run fault injection (E008).
        if !trace.faults.is_empty() {
            let kinds: Vec<&str> = trace.faults.iter().map(|f| f.kind.as_str()).collect();
            chain.push(Diagnostic {
                code: "E008".into(),
                job: None,
                node: None,
                slot: trace.faults.iter().map(|f| f.slot).min().unwrap_or(0),
                slack_slots: 0,
                detail: format!(
                    "{} pre-run fault injection(s) rewrote the scenario: {}",
                    trace.faults.len(),
                    kinds.join(", ")
                ),
                evidence: Vec::new(),
            });
        }
        // Admission interference (E010): shed/defer decisions before the
        // workflow completed changed the contention it faced.
        let interfering: Vec<EventRef> = admission
            .iter()
            .filter(|(_, ev)| ev.slot() < wf.completion_slot)
            .map(|&(idx, ev)| EventRef::new(idx, ev))
            .collect();
        if !interfering.is_empty() {
            let (sheds, defers) =
                interfering
                    .iter()
                    .fold((0u64, 0u64), |(s, d), e| match e.kind.as_str() {
                        "shed" => (s + 1, d),
                        _ => (s, d + 1),
                    });
            chain.push(Diagnostic {
                code: "E010".into(),
                job: None,
                node: None,
                slot: interfering[0].slot,
                slack_slots: 0,
                detail: format!(
                    "admission control shed {sheds} and deferred {defers} ad-hoc arrival(s) before the workflow completed"
                ),
                evidence: interfering,
            });
        }

        let mut chain_slots = 0u64;
        if let Some(attr) = attr {
            for culprit in &attr.culprits {
                let events = by_job.get(&culprit.job).map(Vec::as_slice).unwrap_or(&[]);
                chain_slots += culprit.overrun_slots;
                diagnose_node(&mut chain, culprit, events, &ready_of, crash);
            }
        }

        let total = attr.map(|a| a.total_overrun_slots).unwrap_or(0);
        if chain_slots != total {
            return Err(ExplainError::AttributionImbalance {
                workflow: wf.id,
                chain_slots,
                audited_slots: total,
            });
        }
        let complete = attr.map(|a| !a.culprits.is_empty()).unwrap_or(false);
        workflows.push(WorkflowExplanation {
            workflow: wf.id,
            deadline_slot: wf.deadline_slot,
            completion_slot: wf.completion_slot,
            miss_slots: wf.completion_slot - wf.deadline_slot,
            total_overrun_slots: total,
            complete,
            chain,
        });
    }

    Ok(ExplainReport {
        scheduler: trace.header.scheduler.clone(),
        events_checked: audit.events_checked,
        workflows,
    })
}

/// Appends the node-level diagnostics for one culprit: the `E001` anchor,
/// then `E002`–`E007` in code order.
fn diagnose_node(
    chain: &mut Vec<Diagnostic>,
    culprit: &crate::metrics::NodeSlackUse,
    events: &[(usize, &TraceEvent)],
    ready_of: &BTreeMap<JobId, u64>,
    crash: Option<(&RuntimeFaultPlan, &[CapacityWindow])>,
) {
    let job = culprit.job;
    let node_diag = |code: &str, slot, slack, detail, evidence| Diagnostic {
        code: code.into(),
        job: Some(job),
        node: Some(culprit.node),
        slot,
        slack_slots: slack,
        detail,
        evidence,
    };

    // E001 node-overrun: the anchor carrying the slack figure.
    let finish: Vec<EventRef> = events
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::Finish { .. }))
        .map(|&(idx, ev)| EventRef::new(idx, ev))
        .collect();
    chain.push(node_diag(
        "E001",
        culprit.completion_slot,
        culprit.overrun_slots,
        format!(
            "node {} finished at slot {}, {} slot(s) past its decomposed milestone {}",
            culprit.node, culprit.completion_slot, culprit.overrun_slots, culprit.milestone_slot
        ),
        finish,
    ));

    // E002 straggler-inflation.
    let stragglers: Vec<(usize, &TraceEvent)> = events
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::Straggler { .. }))
        .copied()
        .collect();
    if !stragglers.is_empty() {
        let extra: u64 = stragglers
            .iter()
            .map(|(_, ev)| match ev {
                TraceEvent::Straggler { extra, .. } => *extra,
                _ => 0,
            })
            .sum();
        chain.push(node_diag(
            "E002",
            stragglers[0].1.slot(),
            0,
            format!("straggler inflated the ground truth by {extra} task-slot(s) at first grant"),
            stragglers
                .iter()
                .map(|&(i, e)| EventRef::new(i, e))
                .collect(),
        ));
    }

    // E003 retry-chain / E004 crash-window. A kill is a crash kill when a
    // crash window opens at its slot and the fault plan says that window
    // catches this job; classification needs the recovery setup.
    let kills: Vec<(usize, &TraceEvent)> = events
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::Kill { .. }))
        .copied()
        .collect();
    if !kills.is_empty() {
        let is_crash = |slot: u64| -> bool {
            crash.is_some_and(|(plan, windows)| {
                windows
                    .iter()
                    .enumerate()
                    .any(|(i, w)| w.from_slot == slot && plan.crash_kills(i as u64, job))
            })
        };
        let (crash_kills, task_kills): (Vec<_>, Vec<_>) =
            kills.iter().partition(|(_, ev)| is_crash(ev.slot()));
        for (code, set, cause) in [
            ("E003", task_kills, "task failure(s)"),
            ("E004", crash_kills, "node-crash window(s)"),
        ] {
            if set.is_empty() {
                continue;
            }
            let wasted: u64 = set
                .iter()
                .map(|(_, ev)| match ev {
                    TraceEvent::Kill { wasted, .. } => *wasted,
                    _ => 0,
                })
                .sum();
            chain.push(node_diag(
                code,
                set[0].1.slot(),
                0,
                format!(
                    "{} attempt(s) killed by {cause} discarded {wasted} task-slot(s) of progress",
                    set.len()
                ),
                set.iter().map(|&(i, e)| EventRef::new(i, e)).collect(),
            ));
        }
    }

    // E005 queue-wait: gap between ready and first grant.
    let ready_slot = ready_of.get(&job).copied();
    let first_grant = events
        .iter()
        .find(|(_, ev)| matches!(ev, TraceEvent::Grant { .. }))
        .copied();
    if let (Some(ready), Some((gidx, gev))) = (ready_slot, first_grant) {
        if gev.slot() > ready {
            let mut evidence: Vec<EventRef> = events
                .iter()
                .filter(|(_, ev)| matches!(ev, TraceEvent::Ready { .. }))
                .map(|&(i, e)| EventRef::new(i, e))
                .collect();
            evidence.push(EventRef::new(gidx, gev));
            chain.push(node_diag(
                "E005",
                gev.slot(),
                0,
                format!(
                    "waited {} slot(s) from ready (slot {ready}) to first grant (slot {})",
                    gev.slot() - ready,
                    gev.slot()
                ),
                evidence,
            ));
        }
    }

    // E006 dependency-wait: ready only after the node's own milestone.
    if let Some(ready) = ready_slot {
        if ready > culprit.milestone_slot {
            chain.push(node_diag(
                "E006",
                ready,
                0,
                format!(
                    "became ready at slot {ready}, after its milestone {}: upstream overruns doomed the node before it could run",
                    culprit.milestone_slot
                ),
                events
                    .iter()
                    .filter(|(_, ev)| matches!(ev, TraceEvent::Ready { .. }))
                    .map(|&(i, e)| EventRef::new(i, e))
                    .collect(),
            ));
        }
    }

    // E007 preemption.
    let preempts: Vec<EventRef> = events
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::Preempt { .. }))
        .map(|&(i, e)| EventRef::new(i, e))
        .collect();
    if !preempts.is_empty() {
        chain.push(node_diag(
            "E007",
            preempts[0].slot,
            0,
            format!("preempted {} time(s) while incomplete", preempts.len()),
            preempts,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::engine::Engine;
    use crate::faults::{RecoveryPolicy, RuntimeFaultConfig};
    use crate::job::{AdhocSubmission, SimWorkload, WorkflowSubmission};
    use crate::scheduler::{Allocation, Scheduler};
    use crate::state::SimState;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder};

    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &'static str {
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

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 65_536]), 10.0)
    }

    /// A two-node chain a→b that cannot meet its milestones under the
    /// tight window: node b overruns its milestone, missing the deadline.
    fn missing_workload() -> SimWorkload {
        let mut b = WorkflowBuilder::new(flowtime_dag::WorkflowId::new(1), "wf");
        let spec = |n: &str| JobSpec::new(n, 8, 2, ResourceVec::new([1, 1024]));
        let x = b.add_job(spec("a"));
        let y = b.add_job(spec("b"));
        b.add_dep(x, y).unwrap();
        let wf = b.window(0, 3).build().unwrap();
        let mut workload = SimWorkload::default();
        workload
            .workflows
            .push(WorkflowSubmission::new(wf).with_job_deadlines(vec![1, 3]));
        workload.adhoc.push(AdhocSubmission::new(
            JobSpec::new("adhoc", 4, 2, ResourceVec::new([1, 512])),
            0,
        ));
        workload
    }

    fn run(workload: &SimWorkload) -> (SimOutcome, DecisionTrace) {
        let (engine, handle) = Engine::new(cluster(), workload.clone(), 300)
            .unwrap()
            .with_trace(4096);
        let outcome = engine.run(&mut Greedy).unwrap();
        (outcome, handle.take())
    }

    #[test]
    fn missed_workflow_gets_balanced_chain() {
        let workload = missing_workload();
        let (outcome, trace) = run(&workload);
        let report = explain(&cluster(), &workload, &outcome, &trace, None).unwrap();
        assert_eq!(report.scheduler, "greedy");
        assert_eq!(report.missed_workflows(), 1);
        let wf = &report.workflows[0];
        assert!(wf.complete, "chain should be complete: {wf:?}");
        assert!(wf.miss_slots > 0);
        let e001: u64 = wf
            .chain
            .iter()
            .filter(|d| d.code == "E001")
            .map(|d| d.slack_slots)
            .sum();
        assert_eq!(e001, wf.total_overrun_slots);
        // Every citation points at a real trace event.
        let events: Vec<&TraceEvent> = trace.events().collect();
        for d in &wf.chain {
            for e in &d.evidence {
                let ev = events[e.index as usize];
                assert_eq!(e.slot, ev.slot());
                assert_eq!(e.kind, event_kind(ev));
                assert_eq!(e.job, ev.job());
            }
        }
    }

    #[test]
    fn clean_feasible_run_yields_no_chains() {
        let mut b = WorkflowBuilder::new(flowtime_dag::WorkflowId::new(1), "wf");
        b.add_job(JobSpec::new("a", 4, 4, ResourceVec::new([1, 1024])));
        let wf = b.window(0, 20).build().unwrap();
        let mut workload = SimWorkload::default();
        workload.workflows.push(WorkflowSubmission::new(wf));
        let (outcome, trace) = run(&workload);
        let report = explain(&cluster(), &workload, &outcome, &trace, None).unwrap();
        assert_eq!(report.missed_workflows(), 0);
        assert_eq!(report.diagnostics(), 0);
    }

    #[test]
    fn uncertified_run_is_refused() {
        let workload = missing_workload();
        let (outcome, mut trace) = run(&workload);
        // Corrupt the trace: drop a Finish event.
        let pos = trace
            .events()
            .position(|e| matches!(e, TraceEvent::Finish { .. }))
            .unwrap();
        trace.events_mut().remove(pos);
        let err = explain(&cluster(), &workload, &outcome, &trace, None).unwrap_err();
        match err {
            ExplainError::Uncertified { violations, .. } => assert!(!violations.is_empty()),
            other => panic!("expected Uncertified, got {other:?}"),
        }
    }

    #[test]
    fn recovery_kills_classified_and_balanced() {
        let workload = missing_workload();
        let setup = RecoverySetup::new(
            RuntimeFaultConfig::none(7)
                .with_task_failures(0.6)
                .with_crashes(0.5)
                .with_crash_period(6)
                .with_stragglers(0.5, 1.0),
            RecoveryPolicy::default(),
        );
        let (engine, handle) = Engine::new(cluster(), workload.clone(), 300)
            .unwrap()
            .with_recovery(setup.clone())
            .with_trace(4096);
        let outcome = engine.run(&mut Greedy).unwrap();
        let trace = handle.take();
        let report = explain(&cluster(), &workload, &outcome, &trace, Some(&setup)).unwrap();
        for wf in &report.workflows {
            let e001: u64 = wf
                .chain
                .iter()
                .filter(|d| d.code == "E001")
                .map(|d| d.slack_slots)
                .sum();
            assert_eq!(e001, wf.total_overrun_slots);
        }
        // Byte-determinism: a second diagnosis of the same artifacts is
        // identical.
        let again = explain(&cluster(), &workload, &outcome, &trace, Some(&setup)).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }
}
