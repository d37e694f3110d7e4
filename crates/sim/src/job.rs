//! Workload submissions and runtime job state.

use crate::error::SimError;
use flowtime_dag::{DagError, JobId, JobSpec, Workflow, WorkflowId};
use serde::{Deserialize, Serialize};

/// Which workload class a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// A node of a deadline-aware workflow.
    Deadline {
        /// The owning workflow.
        workflow: WorkflowId,
        /// The DAG node index within that workflow.
        node: usize,
    },
    /// A best-effort ad-hoc job (unknown size, no deadline).
    AdHoc,
}

impl JobClass {
    /// True for ad-hoc jobs.
    pub fn is_adhoc(&self) -> bool {
        matches!(self, JobClass::AdHoc)
    }
}

/// An ad-hoc job submission: a spec (the *actual* shape; schedulers never
/// see its size) and an arrival slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdhocSubmission {
    /// The true job shape used by the engine to run it.
    pub spec: JobSpec,
    /// Slot at which the job is submitted.
    pub arrival_slot: u64,
}

impl AdhocSubmission {
    /// Creates an ad-hoc submission.
    pub fn new(spec: JobSpec, arrival_slot: u64) -> Self {
        AdhocSubmission { spec, arrival_slot }
    }

    /// The job-spec check a workflow's builder applies to each of its
    /// jobs ([`JobSpec::validate`]).
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] naming the degenerate field.
    pub fn validate(&self) -> Result<(), SimError> {
        self.spec
            .validate()
            .map_err(|reason| SimError::MalformedSubmission { reason })
    }
}

/// A deadline-aware workflow submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSubmission {
    /// The workflow description (what schedulers see: estimated specs).
    pub workflow: Workflow,
    /// Ground-truth per-node work in task-slots, when it differs from the
    /// estimate in the spec (estimation error). `None` = estimates are
    /// exact.
    pub actual_work: Option<Vec<u64>>,
    /// Scheduler-independent per-node deadline milestones, in slots, used
    /// for the per-job miss metrics of Fig. 4(a)/(b). Computed once by the
    /// experiment harness (via the FlowTime decomposer) so every algorithm
    /// is judged against identical milestones. `None` = only the workflow
    /// deadline is tracked.
    pub job_deadlines: Option<Vec<u64>>,
}

impl WorkflowSubmission {
    /// Submission with exact estimates and no per-job milestones.
    pub fn new(workflow: Workflow) -> Self {
        WorkflowSubmission {
            workflow,
            actual_work: None,
            job_deadlines: None,
        }
    }

    /// The one validity check of a submission that did not come out of
    /// [`flowtime_dag::WorkflowBuilder::build`] — one read from a request,
    /// a trace file or a log: the builder's checks ([`Workflow::validate`]),
    /// then one entry per node in each per-node vector.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] naming the first failed check.
    pub fn validate(&self) -> Result<(), SimError> {
        let malformed = |reason| SimError::MalformedSubmission { reason };
        self.workflow.validate().map_err(|e| {
            malformed(match e {
                DagError::EmptyWorkflow => "workflow has no jobs",
                DagError::InvalidWindow { .. } => "workflow deadline is not after its submit slot",
                DagError::InvalidJob { reason, .. } => reason,
                DagError::Cycle { .. } => "workflow dependencies are cyclic",
                _ => "workflow dependency graph is not a graph over its jobs",
            })
        })?;
        let n = self.workflow.len();
        if self.actual_work.as_ref().is_some_and(|v| v.len() != n) {
            return Err(malformed("actual_work length differs from workflow size"));
        }
        if self.job_deadlines.as_ref().is_some_and(|v| v.len() != n) {
            return Err(malformed("job_deadlines length differs from workflow size"));
        }
        Ok(())
    }

    /// Attaches ground-truth work (estimation error injection).
    #[must_use]
    pub fn with_actual_work(mut self, actual: Vec<u64>) -> Self {
        self.actual_work = Some(actual);
        self
    }

    /// Attaches per-node deadline milestones.
    #[must_use]
    pub fn with_job_deadlines(mut self, deadlines: Vec<u64>) -> Self {
        self.job_deadlines = Some(deadlines);
        self
    }
}

/// A complete workload: deadline workflows plus an ad-hoc stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimWorkload {
    /// Deadline-aware workflows.
    pub workflows: Vec<WorkflowSubmission>,
    /// Ad-hoc jobs.
    pub adhoc: Vec<AdhocSubmission>,
}

/// Runtime state of one job inside the engine.
#[derive(Debug, Clone)]
pub(crate) struct JobRuntime {
    pub id: JobId,
    pub class: JobClass,
    /// The estimate schedulers may inspect (for deadline jobs).
    pub estimate: JobSpec,
    /// Ground truth work in task-slots.
    pub actual_work: u64,
    pub arrival_slot: u64,
    /// Slot at which dependencies were all satisfied (= arrival for ad-hoc
    /// and for workflow sources).
    pub ready_slot: Option<u64>,
    pub done_work: u64,
    pub completion_slot: Option<u64>,
    /// Per-job milestone deadline (absolute slot), if tracked.
    pub deadline_slot: Option<u64>,
    /// Zero-based execution attempt (bumped on each mid-run kill).
    pub attempt: u32,
    /// Task-slots of work discarded by killed attempts.
    pub wasted: u64,
    /// Earliest slot the current attempt may run (retry backoff); `0`
    /// until the job is first killed.
    pub retry_at: u64,
    /// Slot the admission controller dropped this job, if it was shed —
    /// the job never runs and never completes.
    pub shed_slot: Option<u64>,
    /// Arrival already deferred once by the delay shed policy.
    pub deferred: bool,
}

impl JobRuntime {
    pub fn is_complete(&self) -> bool {
        self.completion_slot.is_some()
    }

    pub fn is_runnable(&self, now: u64) -> bool {
        !self.is_complete()
            && self.shed_slot.is_none()
            && now >= self.retry_at
            && self.ready_slot.is_some_and(|r| r <= now)
    }

    pub fn remaining_actual(&self) -> u64 {
        self.actual_work.saturating_sub(self.done_work)
    }

    /// The scheduler-visible remaining work: estimated total minus work
    /// done. A job that overruns its estimate is *re-estimated* at 10% over
    /// the original (the standard practice for recurring jobs — e.g.
    /// Morpheus's SLO inference pads history the same way), floored at 1
    /// while actually incomplete.
    pub fn estimated_remaining(&self) -> u64 {
        let est_total = self.estimate.work();
        let remaining = est_total.saturating_sub(self.done_work);
        if remaining == 0 && !self.is_complete() {
            let padded = est_total + est_total.div_ceil(10);
            padded.saturating_sub(self.done_work).max(1)
        } else {
            remaining
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::ResourceVec;

    fn runtime(actual: u64, est: u64) -> JobRuntime {
        JobRuntime {
            id: JobId::new(1),
            class: JobClass::AdHoc,
            estimate: JobSpec::new("j", est, 1, ResourceVec::new([1, 1])),
            actual_work: actual,
            arrival_slot: 0,
            ready_slot: Some(0),
            done_work: 0,
            completion_slot: None,
            deadline_slot: None,
            attempt: 0,
            wasted: 0,
            retry_at: 0,
            shed_slot: None,
            deferred: false,
        }
    }

    #[test]
    fn runnable_transitions() {
        let mut j = runtime(5, 5);
        assert!(j.is_runnable(0));
        j.ready_slot = Some(3);
        assert!(!j.is_runnable(2));
        assert!(j.is_runnable(3));
        j.completion_slot = Some(4);
        assert!(!j.is_runnable(5));
        assert!(j.is_complete());
    }

    #[test]
    fn estimated_remaining_floors_at_one_on_overrun() {
        let mut j = runtime(10, 6);
        j.done_work = 6;
        assert_eq!(j.remaining_actual(), 4);
        assert_eq!(j.estimated_remaining(), 1);
        j.done_work = 3;
        assert_eq!(j.estimated_remaining(), 3);
    }

    #[test]
    fn class_predicates() {
        assert!(JobClass::AdHoc.is_adhoc());
        assert!(!JobClass::Deadline {
            workflow: WorkflowId::new(1),
            node: 0
        }
        .is_adhoc());
    }
}
