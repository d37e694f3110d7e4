//! Job specifications.
//!
//! A job is one node of a workflow DAG: a batch of `tasks` identical tasks,
//! each running for `task_slots` time slots and occupying a `per_task`
//! resource vector while running (a YARN container). This matches the
//! paper's system model: for recurring workflows "the resource demand for
//! each job ... as well as the estimated running time of tasks in each job"
//! are known (Section I).

use crate::resources::{ResourceKind, ResourceVec, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

/// Static description of a job's estimated shape.
///
/// The *work* of a job is `tasks * task_slots`, measured in task-slots: one
/// task occupying its container for one slot. The scheduler allocates some
/// number of concurrent tasks `q_it` to the job in each slot; the job
/// completes once its accumulated task-slots reach [`JobSpec::work`].
///
/// # Example
///
/// ```
/// use flowtime_dag::{JobSpec, ResourceVec, ResourceKind};
/// // 40 map tasks, 3 slots each, 1 core + 2 GiB per container:
/// let spec = JobSpec::new("wordcount-map", 40, 3, ResourceVec::new([1, 2048]));
/// assert_eq!(spec.work(), 120);
/// // With at most 10 concurrent tasks it needs at least 12 slots:
/// let spec = spec.with_max_parallel(10);
/// assert_eq!(spec.min_runtime_slots(), 12);
/// assert_eq!(spec.total_demand().get(ResourceKind::Cpu), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    name: String,
    tasks: u64,
    task_slots: u64,
    per_task: ResourceVec,
    max_parallel: Option<u64>,
}

impl JobSpec {
    /// Creates a job of `tasks` tasks, each lasting `task_slots` slots and
    /// consuming `per_task` resources while running.
    ///
    /// Zero `tasks` or `task_slots` are permitted here and rejected at
    /// workflow build time ([`crate::WorkflowBuilder::build`]), so that
    /// specs can be constructed incrementally.
    pub fn new(
        name: impl Into<String>,
        tasks: u64,
        task_slots: u64,
        per_task: ResourceVec,
    ) -> Self {
        JobSpec {
            name: name.into(),
            tasks,
            task_slots,
            per_task,
            max_parallel: None,
        }
    }

    /// Caps the number of concurrently running tasks (e.g. a wave limit).
    ///
    /// A cap of zero is treated as "no cap" at validation time and rejected.
    #[must_use]
    pub fn with_max_parallel(mut self, max_parallel: u64) -> Self {
        self.max_parallel = Some(max_parallel);
        self
    }

    /// The job's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks in the job.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Estimated duration of one task, in slots.
    pub fn task_slots(&self) -> u64 {
        self.task_slots
    }

    /// Resources held by one running task.
    pub fn per_task(&self) -> ResourceVec {
        self.per_task
    }

    /// Concurrency cap, if any.
    pub fn max_parallel(&self) -> Option<u64> {
        self.max_parallel
    }

    /// Total work in task-slots: `tasks * task_slots`.
    pub fn work(&self) -> u64 {
        self.tasks * self.task_slots
    }

    /// Effective concurrency limit: the explicit cap, or `tasks` (all tasks
    /// can run at once) when uncapped.
    pub fn effective_parallel(&self) -> u64 {
        match self.max_parallel {
            Some(p) => p.min(self.tasks).max(1),
            None => self.tasks.max(1),
        }
    }

    /// Minimum runtime in slots assuming unlimited cluster capacity:
    /// the number of task *waves* times the task duration,
    /// `ceil(tasks / effective_parallel) * task_slots`.
    ///
    /// This is the per-job "minimum runtime" the decomposer reserves for each
    /// node set (Section IV-B).
    pub fn min_runtime_slots(&self) -> u64 {
        if self.tasks == 0 {
            return 0;
        }
        let p = self.effective_parallel();
        self.tasks.div_ceil(p) * self.task_slots
    }

    /// Total resource demand `s_i^r = work * per_task[r]` over the job's
    /// lifetime, in resource-slots (constraint Eq. (2) right-hand side).
    pub fn total_demand(&self) -> ResourceVec {
        self.per_task * self.work()
    }

    /// The demand of a single resource dimension, convenience for summations.
    pub fn demand_of(&self, kind: ResourceKind) -> u64 {
        self.total_demand().get(kind)
    }

    /// Validates the spec, returning a reason string on failure:
    /// [`crate::WorkflowBuilder::build`] checks every job with it, and a
    /// spec that did not go through a builder (an ad-hoc submission) must
    /// pass it before it runs.
    ///
    /// # Errors
    ///
    /// Zero tasks, zero task duration, no resources per task, or a
    /// `max_parallel` of zero.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.tasks == 0 {
            return Err("job has zero tasks");
        }
        if self.task_slots == 0 {
            return Err("job has zero task duration");
        }
        if self.per_task.is_zero() {
            return Err("job tasks consume no resources");
        }
        if self.max_parallel == Some(0) {
            return Err("max_parallel of zero");
        }
        let _ = NUM_RESOURCES; // dimensionality is fixed at compile time
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tasks: u64, dur: u64) -> JobSpec {
        JobSpec::new("t", tasks, dur, ResourceVec::new([1, 1024]))
    }

    #[test]
    fn work_and_demand() {
        let j = spec(10, 3);
        assert_eq!(j.work(), 30);
        assert_eq!(j.total_demand(), ResourceVec::new([30, 30 * 1024]));
        assert_eq!(j.demand_of(ResourceKind::Cpu), 30);
    }

    #[test]
    fn min_runtime_unlimited_parallelism_is_one_wave() {
        assert_eq!(spec(10, 3).min_runtime_slots(), 3);
    }

    #[test]
    fn min_runtime_with_waves() {
        let j = spec(10, 3).with_max_parallel(4);
        // ceil(10/4) = 3 waves of 3 slots
        assert_eq!(j.min_runtime_slots(), 9);
    }

    #[test]
    fn min_runtime_cap_larger_than_tasks() {
        let j = spec(4, 2).with_max_parallel(100);
        assert_eq!(j.effective_parallel(), 4);
        assert_eq!(j.min_runtime_slots(), 2);
    }

    #[test]
    fn zero_task_job_has_zero_runtime() {
        assert_eq!(spec(0, 3).min_runtime_slots(), 0);
    }

    #[test]
    fn validation_catches_degenerate_specs() {
        assert!(spec(0, 1).validate().is_err());
        assert!(spec(1, 0).validate().is_err());
        assert!(JobSpec::new("t", 1, 1, ResourceVec::zero())
            .validate()
            .is_err());
        assert!(spec(1, 1).with_max_parallel(0).validate().is_err());
        assert!(spec(1, 1).validate().is_ok());
    }
}
