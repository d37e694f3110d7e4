//! Certified counterfactual replay: "what if we had run a different
//! policy?"
//!
//! The decision trace and the offline auditor make runs *replayable*; this
//! module makes them *comparable*. A what-if replays the same scenario
//! under a modified policy (scheduler, shed/retry policy, fault seed) and
//! produces a two-sided diff in which
//!
//! * **both sides are certified** — [`certified_diff`] refuses to compare
//!   runs the auditor rejects, so a diff row can never be an artifact of a
//!   broken replay;
//! * the diff is **byte-deterministic** — it is computed from certified
//!   artifacts only, so serializing it twice (or computing it from runs
//!   produced on different thread counts) yields identical bytes;
//! * every changed outcome row **links back to the first diverging trace
//!   event** for its job ([`DiffRow::diverged`]), and the diff as a whole
//!   records the first global divergence ([`WhatIfDiff::first_divergence`]).
//!
//! An *identical-policy* what-if is the harness's self-test: it must
//! produce an empty diff ([`WhatIfDiff::identical`] = true, no rows, no
//! divergence) — anything else means the replay itself is not
//! deterministic.

use std::collections::BTreeMap;

use flowtime_dag::{JobId, WorkflowId};
use serde::{Deserialize, Serialize};

use crate::audit::{certify_with_recovery, AuditReport};
use crate::cluster::ClusterConfig;
use crate::engine::SimOutcome;
use crate::faults::RecoverySetup;
use crate::job::SimWorkload;
use crate::trace::{DecisionTrace, TraceEvent};

/// The artifacts of one policy run: the certified outcome plus the full
/// decision trace it is certified against.
///
/// Not serializable as a unit: traces persist via
/// [`DecisionTrace::write_jsonl`], outcomes as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// The run's outcome.
    pub outcome: SimOutcome,
    /// The run's decision trace.
    pub trace: DecisionTrace,
}

/// How one job ended under one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFate {
    /// Completion slot; `None` if the job never finished (in flight at the
    /// horizon, or shed).
    pub completion_slot: Option<u64>,
    /// Milestone deadline, if tracked.
    pub deadline_slot: Option<u64>,
    /// True when the job finished past a tracked milestone.
    pub missed_deadline: bool,
    /// Attempts killed by mid-run faults.
    #[serde(default, skip_serializing_if = "crate::serde_skip::zero_u64")]
    pub retries: u64,
    /// True when admission control dropped the job.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub shed: bool,
    /// True when the job was still in flight at the slot horizon.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub in_flight: bool,
}

impl JobFate {
    fn absent() -> Self {
        JobFate {
            completion_slot: None,
            deadline_slot: None,
            missed_deadline: false,
            retries: 0,
            shed: false,
            in_flight: false,
        }
    }
}

/// The first trace event on which two replays disagree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Position in the compared event sequence (global for
    /// [`WhatIfDiff::first_divergence`], job-filtered for
    /// [`DiffRow::diverged`]).
    pub index: u64,
    /// Slot of the diverging event (the earlier of the two sides when
    /// both exist).
    pub slot: u64,
    /// The base side's event, rendered as compact JSON; `None` when the
    /// base sequence ended first.
    pub base_event: Option<String>,
    /// The alt side's event; `None` when the alt sequence ended first.
    pub alt_event: Option<String>,
}

/// One job whose fate changed between the two policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffRow {
    /// Job id (the scenario's job table is shared by both sides).
    pub job: JobId,
    /// The job's fate under the base policy.
    pub base: JobFate,
    /// The job's fate under the alt policy.
    pub alt: JobFate,
    /// The first event in the job's own event sequence where the two
    /// replays disagree; `None` when the job's events are identical (its
    /// fate changed only through global contention, e.g. a shed that
    /// produced no events on one side).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub diverged: Option<Divergence>,
}

/// One workflow whose deadline fate changed between the two policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowDiffRow {
    /// Workflow id (global, survives re-placement).
    pub workflow: WorkflowId,
    /// Workflow deadline `wd`.
    pub deadline_slot: u64,
    /// Completion under the base policy; `None` if unfinished.
    pub base_completion: Option<u64>,
    /// Completion under the alt policy; `None` if unfinished.
    pub alt_completion: Option<u64>,
    /// Missed under the base policy.
    pub base_missed: bool,
    /// Missed under the alt policy.
    pub alt_missed: bool,
}

/// Aggregate comparison of the two sides.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiffSummary {
    /// Jobs whose fate changed.
    pub changed_jobs: u64,
    /// Workflows whose deadline fate changed.
    pub changed_workflows: u64,
    /// Per-job milestone misses under the base policy.
    pub base_job_misses: u64,
    /// Per-job milestone misses under the alt policy.
    pub alt_job_misses: u64,
    /// Workflow deadline misses under the base policy.
    pub base_workflow_misses: u64,
    /// Workflow deadline misses under the alt policy.
    pub alt_workflow_misses: u64,
    /// Makespan under the base policy.
    pub base_slots_elapsed: u64,
    /// Makespan under the alt policy.
    pub alt_slots_elapsed: u64,
    /// Total attributed milestone overrun under the base policy.
    pub base_overrun_slots: u64,
    /// Total attributed milestone overrun under the alt policy.
    pub alt_overrun_slots: u64,
}

/// A certified two-sided policy diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfDiff {
    /// Base-side policy label (the scheduler name).
    pub base_policy: String,
    /// Alt-side policy label.
    pub alt_policy: String,
    /// True when the two replays are indistinguishable: no changed rows
    /// and no event divergence. An identical-policy what-if must report
    /// `true` — that is the harness's own determinism check.
    pub identical: bool,
    /// The first event on which the two replays disagree, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub first_divergence: Option<Divergence>,
    /// Jobs whose fate changed, in job-id order.
    #[serde(default, skip_serializing_if = "crate::serde_skip::empty_vec")]
    pub jobs: Vec<DiffRow>,
    /// Workflows whose deadline fate changed, in workflow-id order.
    #[serde(default, skip_serializing_if = "crate::serde_skip::empty_vec")]
    pub workflows: Vec<WorkflowDiffRow>,
    /// Aggregate comparison.
    pub summary: DiffSummary,
}

/// Why a what-if comparison was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIfError {
    /// One side failed certification.
    Uncertified {
        /// Which side (`"base"` or `"alt"`).
        side: &'static str,
        /// The auditor's one-line summary.
        summary: String,
        /// Every violation, rendered `code: detail`.
        violations: Vec<String>,
    },
}

impl std::fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhatIfError::Uncertified { side, summary, .. } => {
                write!(f, "{side} side is not certified: {summary}")
            }
        }
    }
}

impl std::error::Error for WhatIfError {}

fn ensure_certified(side: &'static str, report: &AuditReport) -> Result<(), WhatIfError> {
    if report.is_certified() {
        return Ok(());
    }
    Err(WhatIfError::Uncertified {
        side,
        summary: report.summary(),
        violations: report
            .violations
            .iter()
            .map(|v| format!("{}: {}", v.code, v.detail))
            .collect(),
    })
}

/// Certifies both sides against the shared scenario, then diffs them.
///
/// Each side's `recovery` must be the setup *that side's* engine was
/// armed with — a what-if may change the retry/shed policy or fault seed
/// between sides, so they are passed independently.
pub fn certified_diff(
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    base: &RunArtifacts,
    base_recovery: Option<&RecoverySetup>,
    alt: &RunArtifacts,
    alt_recovery: Option<&RecoverySetup>,
) -> Result<WhatIfDiff, WhatIfError> {
    let base_report =
        certify_with_recovery(cluster, workload, &base.outcome, &base.trace, base_recovery);
    ensure_certified("base", &base_report)?;
    let alt_report =
        certify_with_recovery(cluster, workload, &alt.outcome, &alt.trace, alt_recovery);
    ensure_certified("alt", &alt_report)?;
    Ok(diff_runs(base, alt))
}

/// Diffs two replays of the same scenario **without** certifying them.
///
/// This is the pure diff kernel behind [`certified_diff`], exposed so
/// harnesses can verify the detector itself: corrupt one side and the
/// diff must flag the exact divergence.
pub fn diff_runs(base: &RunArtifacts, alt: &RunArtifacts) -> WhatIfDiff {
    let base_fates = job_fates(&base.outcome);
    let alt_fates = job_fates(&alt.outcome);

    let mut jobs = Vec::new();
    let mut keys: Vec<JobId> = base_fates.keys().chain(alt_fates.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for job in keys {
        let b = base_fates
            .get(&job)
            .cloned()
            .unwrap_or_else(JobFate::absent);
        let a = alt_fates.get(&job).cloned().unwrap_or_else(JobFate::absent);
        if b != a {
            let diverged = first_divergence_for(&base.trace, &alt.trace, Some(job));
            jobs.push(DiffRow {
                job,
                base: b,
                alt: a,
                diverged,
            });
        }
    }

    let workflows = workflow_rows(
        &workflow_fates(&base.outcome),
        &workflow_fates(&alt.outcome),
    );
    let first_divergence = first_divergence_for(&base.trace, &alt.trace, None);
    let summary = summarize(
        &base.outcome,
        &alt.outcome,
        jobs.len() as u64,
        workflows.len() as u64,
    );
    let identical = jobs.is_empty() && workflows.is_empty() && first_divergence.is_none();
    WhatIfDiff {
        base_policy: base.trace.header.scheduler.clone(),
        alt_policy: alt.trace.header.scheduler.clone(),
        identical,
        first_divergence,
        jobs,
        workflows,
        summary,
    }
}

fn job_fates(outcome: &SimOutcome) -> BTreeMap<JobId, JobFate> {
    let mut fates = BTreeMap::new();
    for j in &outcome.metrics.jobs {
        fates.insert(
            j.id,
            JobFate {
                completion_slot: Some(j.completion_slot),
                deadline_slot: j.deadline_slot,
                missed_deadline: j.deadline_delta().is_some_and(|d| d > 0),
                retries: j.retries,
                shed: false,
                in_flight: false,
            },
        );
    }
    for j in &outcome.in_flight {
        fates.insert(
            j.id,
            JobFate {
                completion_slot: None,
                deadline_slot: j.deadline_slot,
                missed_deadline: false,
                retries: j.retries,
                shed: false,
                in_flight: true,
            },
        );
    }
    for j in &outcome.shed {
        fates.insert(
            j.id,
            JobFate {
                completion_slot: None,
                deadline_slot: None,
                missed_deadline: false,
                retries: 0,
                shed: true,
                in_flight: false,
            },
        );
    }
    fates
}

fn workflow_fates(outcome: &SimOutcome) -> BTreeMap<WorkflowId, (u64, Option<u64>)> {
    (outcome.metrics.workflows.iter())
        .map(|wf| (wf.id, (wf.deadline_slot, Some(wf.completion_slot))))
        .collect()
}

fn workflow_rows(
    base: &BTreeMap<WorkflowId, (u64, Option<u64>)>,
    alt: &BTreeMap<WorkflowId, (u64, Option<u64>)>,
) -> Vec<WorkflowDiffRow> {
    let mut keys: Vec<WorkflowId> = base.keys().chain(alt.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let mut rows = Vec::new();
    for wf in keys {
        let (_, bc) = base.get(&wf).copied().unwrap_or((0, None));
        let (_, ac) = alt.get(&wf).copied().unwrap_or((0, None));
        let deadline = base
            .get(&wf)
            .or_else(|| alt.get(&wf))
            .map(|&(d, _)| d)
            .unwrap_or(0);
        let base_missed = bc.is_some_and(|c| c > deadline);
        let alt_missed = ac.is_some_and(|c| c > deadline);
        if bc != ac || base_missed != alt_missed {
            rows.push(WorkflowDiffRow {
                workflow: wf,
                deadline_slot: deadline,
                base_completion: bc,
                alt_completion: ac,
                base_missed,
                alt_missed,
            });
        }
    }
    rows
}

fn summarize(
    base: &SimOutcome,
    alt: &SimOutcome,
    changed_jobs: u64,
    changed_workflows: u64,
) -> DiffSummary {
    let misses = |o: &SimOutcome| -> (u64, u64, u64, u64) {
        let overrun: u64 = (o.deadline_attribution.iter())
            .map(|a| a.total_overrun_slots)
            .sum();
        (
            o.metrics.job_deadline_misses() as u64,
            o.metrics.workflow_deadline_misses() as u64,
            o.slots_elapsed,
            overrun,
        )
    };
    let (bj, bw, bs, bo) = misses(base);
    let (aj, aw, asl, ao) = misses(alt);
    DiffSummary {
        changed_jobs,
        changed_workflows,
        base_job_misses: bj,
        alt_job_misses: aj,
        base_workflow_misses: bw,
        alt_workflow_misses: aw,
        base_slots_elapsed: bs,
        alt_slots_elapsed: asl,
        base_overrun_slots: bo,
        alt_overrun_slots: ao,
    }
}

/// First position at which the two traces' event sequences disagree,
/// optionally restricted to one job's events.
fn first_divergence_for(
    base: &DecisionTrace,
    alt: &DecisionTrace,
    job: Option<JobId>,
) -> Option<Divergence> {
    let keep = |ev: &&TraceEvent| match job {
        Some(id) => ev.job() == Some(id),
        None => true,
    };
    let mut b = base.events().filter(keep);
    let mut a = alt.events().filter(keep);
    let mut index = 0u64;
    loop {
        match (b.next(), a.next()) {
            (None, None) => return None,
            (be, ae) => {
                if be != ae {
                    let slot = match (be, ae) {
                        (Some(x), Some(y)) => x.slot().min(y.slot()),
                        (Some(x), None) => x.slot(),
                        (None, Some(y)) => y.slot(),
                        (None, None) => unreachable!(),
                    };
                    let render = |ev: Option<&TraceEvent>| {
                        ev.map(|e| serde_json::to_string(e).expect("trace events serialize"))
                    };
                    return Some(Divergence {
                        index,
                        slot,
                        base_event: render(be),
                        alt_event: render(ae),
                    });
                }
                index += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
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

    /// Grants one task per runnable job per slot: deliberately slow, so
    /// its replay diverges from Greedy's on the very first planned slot.
    struct Trickle;
    impl Scheduler for Trickle {
        fn name(&self) -> &'static str {
            "trickle"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            let mut free = state.capacity();
            for job in state.runnable() {
                if job.per_task.times_fitting(&free) > 0 && job.max_tasks_this_slot > 0 {
                    alloc.assign(job.id, 1);
                    free -= job.per_task * 1;
                }
            }
            alloc
        }
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 65_536]), 10.0)
    }

    fn workload() -> SimWorkload {
        let mut b = WorkflowBuilder::new(flowtime_dag::WorkflowId::new(1), "wf");
        let spec = |n: &str| JobSpec::new(n, 8, 2, ResourceVec::new([1, 1024]));
        let x = b.add_job(spec("a"));
        let y = b.add_job(spec("b"));
        b.add_dep(x, y).unwrap();
        let wf = b.window(0, 3).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(crate::job::WorkflowSubmission::new(wf).with_job_deadlines(vec![1, 3]));
        wl.adhoc.push(crate::job::AdhocSubmission::new(
            JobSpec::new("adhoc", 4, 2, ResourceVec::new([1, 512])),
            0,
        ));
        wl
    }

    /// Records one side of a what-if under `scheduler`.
    fn record(wl: &SimWorkload, scheduler: &mut dyn Scheduler) -> RunArtifacts {
        let (engine, handle) = Engine::new(cluster(), wl.clone(), 300)
            .unwrap()
            .with_trace(4096);
        let outcome = engine.run(scheduler).unwrap();
        RunArtifacts {
            outcome,
            trace: handle.take(),
        }
    }

    #[test]
    fn identical_policy_is_a_no_op_diff() {
        let wl = workload();
        let base = record(&wl, &mut Greedy);
        let alt = record(&wl, &mut Greedy);
        let diff = certified_diff(&cluster(), &wl, &base, None, &alt, None).unwrap();
        assert!(diff.identical, "identical policies must no-op: {diff:?}");
        assert!(diff.jobs.is_empty());
        assert!(diff.workflows.is_empty());
        assert!(diff.first_divergence.is_none());
        let again = certified_diff(&cluster(), &wl, &base, None, &alt, None).unwrap();
        assert_eq!(
            serde_json::to_string(&diff).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn cross_scheduler_diff_links_divergence() {
        let wl = workload();
        let base = record(&wl, &mut Greedy);
        let alt = record(&wl, &mut Trickle);
        let diff = certified_diff(&cluster(), &wl, &base, None, &alt, None).unwrap();
        assert!(!diff.identical);
        assert_eq!(diff.base_policy, "greedy");
        assert_eq!(diff.alt_policy, "trickle");
        assert!(diff.first_divergence.is_some());
        assert!(!diff.jobs.is_empty());
        for row in &diff.jobs {
            let d = row
                .diverged
                .as_ref()
                .expect("changed fate implies event divergence here");
            assert!(d.base_event.is_some() || d.alt_event.is_some());
        }
    }

    #[test]
    fn corrupted_side_is_refused_but_pure_diff_flags_it() {
        let wl = workload();
        let base = record(&wl, &mut Greedy);
        let mut alt = base.clone();
        // Corrupt one Finish event in the replayed alt trace.
        let pos = alt
            .trace
            .events()
            .position(|e| matches!(e, TraceEvent::Finish { .. }))
            .unwrap();
        let (slot, expected_index) = {
            let ev = &alt.trace.events_mut()[pos];
            (ev.slot(), pos as u64)
        };
        if let TraceEvent::Finish { done_work, .. } = &mut alt.trace.events_mut()[pos] {
            *done_work += 1;
        }
        let err = certified_diff(&cluster(), &wl, &base, None, &alt, None).unwrap_err();
        assert!(matches!(err, WhatIfError::Uncertified { side: "alt", .. }));
        let diff = diff_runs(&base, &alt);
        let d = diff.first_divergence.expect("corruption must be flagged");
        assert_eq!(d.index, expected_index);
        assert_eq!(d.slot, slot);
    }
}
