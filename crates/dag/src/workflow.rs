//! Workflows: the paper's `W_i = {Q_i, ws_i, wd_i, P_i}` (Section II-A).
//!
//! A workflow bundles a set of jobs `Q_i`, a submission slot `ws_i`, a
//! deadline slot `wd_i`, and the dependency structure `P_i` (a [`Dag`]).

use crate::critical_path::CriticalPath;
use crate::error::DagError;
use crate::graph::Dag;
use crate::ids::WorkflowId;
use crate::job::JobSpec;
use crate::resources::ResourceVec;
use crate::topo::{level_sets, topological_order};
use serde::{Deserialize, Serialize};

/// A deadline-aware workflow: a DAG of jobs with a submission time and a
/// deadline, both in slot units.
///
/// Construct with [`WorkflowBuilder`]; a built workflow is always internally
/// consistent (acyclic, non-empty, valid window, valid job specs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    id: WorkflowId,
    name: String,
    jobs: Vec<JobSpec>,
    dag: Dag,
    submit_slot: u64,
    deadline_slot: u64,
}

impl Workflow {
    /// The workflow identifier.
    pub fn id(&self) -> WorkflowId {
        self.id
    }

    /// The workflow's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constituent jobs, indexed by DAG node index.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The job at DAG node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= jobs().len()`.
    pub fn job(&self, index: usize) -> &JobSpec {
        &self.jobs[index]
    }

    /// The dependency DAG `P_i`.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Submission slot `ws_i`.
    pub fn submit_slot(&self) -> u64 {
        self.submit_slot
    }

    /// Deadline slot `wd_i`.
    pub fn deadline_slot(&self) -> u64 {
        self.deadline_slot
    }

    /// Window length `wd_i - ws_i` in slots.
    pub fn window_slots(&self) -> u64 {
        self.deadline_slot - self.submit_slot
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the workflow has no jobs (never true for built workflows).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The paper's node sets: topological level sets of the DAG
    /// (see [`level_sets`]).
    ///
    /// Infallible here because construction validated acyclicity.
    pub fn level_sets(&self) -> Vec<Vec<usize>> {
        level_sets(&self.dag).expect("validated at build time")
    }

    /// One valid topological order of the jobs.
    pub fn topological_order(&self) -> Vec<usize> {
        topological_order(&self.dag).expect("validated at build time")
    }

    /// Critical path weighted by job minimum runtimes.
    pub fn critical_path(&self) -> CriticalPath {
        let weights: Vec<u64> = self.jobs.iter().map(JobSpec::min_runtime_slots).collect();
        CriticalPath::compute(&self.dag, &weights).expect("validated at build time")
    }

    /// Sum of total demands of all jobs, in resource-slots.
    pub fn total_demand(&self) -> ResourceVec {
        self.jobs
            .iter()
            .fold(ResourceVec::zero(), |acc, j| acc + j.total_demand())
    }

    /// Sum over level sets of the *set minimum runtime* (the max of member
    /// jobs' minimum runtimes) — the least window in which the workflow can
    /// complete even with unlimited resources, per the decomposition model.
    pub fn min_makespan_slots(&self) -> u64 {
        self.level_sets()
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&j| self.jobs[j].min_runtime_slots())
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// The checks [`WorkflowBuilder::build`] makes, for a workflow that
    /// did not come out of it (one deserialized from a request, a trace
    /// file or a log) and must pass them before anything indexes it.
    ///
    /// # Errors
    ///
    /// * [`DagError::EmptyWorkflow`] if there are no jobs.
    /// * [`DagError::InvalidWindow`] if `deadline <= submit`.
    /// * [`DagError::InvalidJob`] if a job spec is degenerate.
    /// * The errors of [`Dag::validate`] if the DAG is not one over the
    ///   jobs, [`DagError::Cycle`] if it is cyclic.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.jobs.is_empty() {
            return Err(DagError::EmptyWorkflow);
        }
        if self.deadline_slot <= self.submit_slot {
            return Err(DagError::InvalidWindow {
                submit: self.submit_slot,
                deadline: self.deadline_slot,
            });
        }
        for (index, job) in self.jobs.iter().enumerate() {
            if let Err(reason) = job.validate() {
                return Err(DagError::InvalidJob { index, reason });
            }
        }
        self.dag.validate(self.jobs.len())?;
        topological_order(&self.dag)?; // acyclicity check
        Ok(())
    }

    /// Returns a copy of this workflow shifted to a new submission slot,
    /// keeping the window length — used to instantiate recurring runs.
    #[must_use]
    pub fn recur_at(&self, id: WorkflowId, submit_slot: u64) -> Workflow {
        let window = self.window_slots();
        Workflow {
            id,
            name: self.name.clone(),
            jobs: self.jobs.clone(),
            dag: self.dag.clone(),
            submit_slot,
            deadline_slot: submit_slot + window,
        }
    }
}

/// Incremental builder for [`Workflow`].
///
/// # Example
///
/// ```
/// use flowtime_dag::{WorkflowBuilder, WorkflowId, JobSpec, ResourceVec};
/// # fn main() -> Result<(), flowtime_dag::DagError> {
/// let mut b = WorkflowBuilder::new(WorkflowId::new(1), "etl");
/// let extract = b.add_job(JobSpec::new("extract", 8, 2, ResourceVec::new([1, 1024])));
/// let load = b.add_job(JobSpec::new("load", 4, 1, ResourceVec::new([1, 2048])));
/// b.add_dep(extract, load)?;
/// let wf = b.window(0, 50).build()?;
/// assert_eq!(wf.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    id: WorkflowId,
    name: String,
    jobs: Vec<JobSpec>,
    edges: Vec<(usize, usize)>,
    submit_slot: u64,
    deadline_slot: u64,
}

impl WorkflowBuilder {
    /// Starts a builder for workflow `id` named `name`.
    pub fn new(id: WorkflowId, name: impl Into<String>) -> Self {
        WorkflowBuilder {
            id,
            name: name.into(),
            jobs: Vec::new(),
            edges: Vec::new(),
            submit_slot: 0,
            deadline_slot: 0,
        }
    }

    /// Adds a job, returning its node index for use in [`add_dep`].
    ///
    /// [`add_dep`]: WorkflowBuilder::add_dep
    pub fn add_job(&mut self, spec: JobSpec) -> usize {
        self.jobs.push(spec);
        self.jobs.len() - 1
    }

    /// Declares that `dependent` cannot start before `prerequisite`
    /// completes.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::NodeOutOfRange`], [`DagError::SelfLoop`], or
    /// [`DagError::DuplicateEdge`] on malformed edges (cycles are detected
    /// at [`build`](WorkflowBuilder::build) time).
    pub fn add_dep(&mut self, prerequisite: usize, dependent: usize) -> Result<(), DagError> {
        let n = self.jobs.len();
        for node in [prerequisite, dependent] {
            if node >= n {
                return Err(DagError::NodeOutOfRange { node, len: n });
            }
        }
        if prerequisite == dependent {
            return Err(DagError::SelfLoop { node: prerequisite });
        }
        if self.edges.contains(&(prerequisite, dependent)) {
            return Err(DagError::DuplicateEdge {
                from: prerequisite,
                to: dependent,
            });
        }
        self.edges.push((prerequisite, dependent));
        Ok(())
    }

    /// Sets the workflow window `[ws, wd)` in slots.
    #[must_use]
    pub fn window(mut self, submit_slot: u64, deadline_slot: u64) -> Self {
        self.submit_slot = submit_slot;
        self.deadline_slot = deadline_slot;
        self
    }

    /// Finalizes the workflow.
    ///
    /// # Errors
    ///
    /// Those of [`Workflow::validate`].
    pub fn build(self) -> Result<Workflow, DagError> {
        let workflow = Workflow {
            dag: Dag::from_edges(self.jobs.len(), self.edges)?,
            id: self.id,
            name: self.name,
            jobs: self.jobs,
            submit_slot: self.submit_slot,
            deadline_slot: self.deadline_slot,
        };
        workflow.validate()?;
        Ok(workflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;

    fn job(tasks: u64, dur: u64) -> JobSpec {
        JobSpec::new("j", tasks, dur, ResourceVec::new([1, 1024]))
    }

    fn fork_join(n_mid: usize, window: u64) -> Workflow {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "fj");
        let head = b.add_job(job(4, 2));
        let mids: Vec<usize> = (0..n_mid).map(|_| b.add_job(job(4, 2))).collect();
        let tail = b.add_job(job(4, 2));
        for &m in &mids {
            b.add_dep(head, m).unwrap();
            b.add_dep(m, tail).unwrap();
        }
        b.window(0, window).build().unwrap()
    }

    #[test]
    fn build_validates_window() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(job(1, 1));
        assert!(matches!(
            b.clone().window(10, 10).build(),
            Err(DagError::InvalidWindow { .. })
        ));
        assert!(b.window(10, 11).build().is_ok());
    }

    #[test]
    fn build_rejects_empty() {
        let b = WorkflowBuilder::new(WorkflowId::new(1), "w").window(0, 10);
        assert_eq!(b.build().unwrap_err(), DagError::EmptyWorkflow);
    }

    #[test]
    fn build_rejects_cycle() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let a = b.add_job(job(1, 1));
        let c = b.add_job(job(1, 1));
        b.add_dep(a, c).unwrap();
        b.add_dep(c, a).unwrap();
        assert!(matches!(
            b.window(0, 10).build(),
            Err(DagError::Cycle { .. })
        ));
    }

    #[test]
    fn build_rejects_bad_job() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(job(0, 1));
        assert!(matches!(
            b.window(0, 10).build(),
            Err(DagError::InvalidJob { index: 0, .. })
        ));
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(job(1, 1));
        b.add_job(job(1 << 32, 1 << 32));
        assert_eq!(
            b.window(0, 10).build().unwrap_err(),
            DagError::InvalidJob {
                index: 1,
                reason: "job work (tasks × task_slots) overflows u64"
            }
        );
    }

    #[test]
    fn min_makespan_sums_level_maxima() {
        let wf = fork_join(3, 100);
        // Three levels, each min runtime 2 slots (all tasks parallel).
        assert_eq!(wf.min_makespan_slots(), 6);
    }

    #[test]
    fn total_demand_adds_up() {
        let wf = fork_join(2, 100);
        // 4 jobs x (4 tasks x 2 slots) x <1, 1024>
        assert_eq!(wf.total_demand(), ResourceVec::new([32, 32 * 1024]));
    }

    #[test]
    fn recur_shifts_window() {
        let wf = fork_join(2, 100);
        let next = wf.recur_at(WorkflowId::new(2), 500);
        assert_eq!(next.submit_slot(), 500);
        assert_eq!(next.deadline_slot(), 600);
        assert_eq!(next.len(), wf.len());
        assert_eq!(next.id(), WorkflowId::new(2));
    }

    #[test]
    fn critical_path_of_fork_join() {
        let wf = fork_join(5, 100);
        let cp = wf.critical_path();
        assert_eq!(cp.nodes.len(), 3);
        assert_eq!(cp.length, 6);
    }

    #[test]
    fn add_dep_validates_indices() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let a = b.add_job(job(1, 1));
        assert!(matches!(
            b.add_dep(a, 7),
            Err(DagError::NodeOutOfRange { .. })
        ));
        assert!(matches!(b.add_dep(a, a), Err(DagError::SelfLoop { .. })));
    }
}
