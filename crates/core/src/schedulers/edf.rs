//! Earliest-deadline-first baseline.

use super::util::SlotFiller;
use flowtime_dag::WorkflowId;
use flowtime_sim::{Allocation, JobClass, Scheduler, SimState};
use std::collections::BTreeMap;

/// The EDF baseline of the paper's motivation (Fig. 1): deadline workflows
/// are served strictly before ad-hoc jobs, ordered by *workflow* deadline
/// (EDF has no per-job decomposition), each at full width. Ad-hoc jobs get
/// whatever is left — under sustained deadline load, nothing.
///
/// This is the paper's "best baseline for deadlines, worst for ad-hoc"
/// strawman: it completes loose-deadline workflows needlessly early
/// (Section II-B) and inflates ad-hoc turnaround by up to 10x (Fig. 4(c)).
///
/// # Example
///
/// ```
/// use flowtime::EdfScheduler;
/// use flowtime_sim::Scheduler;
/// assert_eq!(EdfScheduler::new().name(), "EDF");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdfScheduler {
    /// Each arrived workflow's deadline, recorded the first slot the
    /// workflow is seen.
    deadlines: BTreeMap<WorkflowId, u64>,
}

impl EdfScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        EdfScheduler::default()
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> &str {
        "EDF"
    }

    fn decision_tag(&self) -> &'static str {
        "edf-greedy"
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        for wf in state.workflows() {
            self.deadlines
                .entry(wf.id())
                .or_insert_with(|| wf.workflow.deadline_slot());
        }
        let mut deadline_jobs: Vec<_> = state.runnable_deadline().collect();
        deadline_jobs.sort_by_key(|j| {
            let wd = match j.class {
                JobClass::Deadline { workflow, .. } => {
                    self.deadlines.get(&workflow).copied().unwrap_or(u64::MAX)
                }
                JobClass::AdHoc => u64::MAX,
            };
            (wd, j.id)
        });
        let mut filler = SlotFiller::new(state);
        filler.greedy_fill(deadline_jobs);
        // Ad-hoc jobs only see the leftovers, in arrival order.
        filler.greedy_fill(state.runnable_adhoc());
        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder};
    use flowtime_sim::prelude::*;

    #[test]
    fn deadline_work_starves_adhoc() {
        // Paper Fig. 1 scaled down: workflow W1 = two chained jobs (each
        // 100% of the cluster for 10 slots), deadline slot 20 (loose would
        // be > 20; here exactly tight for EDF to look "fine" on deadlines).
        // Ad-hoc A1 arrives at 0, A2 at 10.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w1");
        let j1 = b.add_job(JobSpec::new("j1", 4, 10, ResourceVec::new([1, 1024])));
        let j2 = b.add_job(JobSpec::new("j2", 4, 10, ResourceVec::new([1, 1024])));
        b.add_dep(j1, j2).unwrap();
        let wf = b.window(0, 40).build().unwrap();

        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        wl.adhoc.push(AdhocSubmission::new(
            JobSpec::new("a1", 4, 10, ResourceVec::new([1, 1024])),
            0,
        ));
        let cluster = ClusterConfig::new(ResourceVec::new([4, 8192]), 10.0);
        let out = Engine::new(cluster, wl, 1000)
            .unwrap()
            .run(&mut EdfScheduler::new())
            .unwrap();
        // Workflow done at slot 20; the ad-hoc job waited the whole time.
        assert!(!out.metrics.workflows[0].missed_deadline());
        let adhoc = out.metrics.adhoc_jobs().next().unwrap();
        assert_eq!(adhoc.completion_slot, 30);
        assert_eq!(adhoc.turnaround_slots(), 30);
    }

    #[test]
    fn earlier_deadline_preempts_later() {
        let mk = |id: u64, deadline: u64| {
            let mut b = WorkflowBuilder::new(WorkflowId::new(id), "w");
            b.add_job(JobSpec::new("j", 4, 5, ResourceVec::new([1, 1024])));
            WorkflowSubmission::new(b.window(0, deadline).build().unwrap())
        };
        let mut wl = SimWorkload::default();
        wl.workflows.push(mk(1, 100)); // loose
        wl.workflows.push(mk(2, 10)); // tight
        let cluster = ClusterConfig::new(ResourceVec::new([4, 8192]), 10.0);
        let out = Engine::new(cluster, wl, 1000)
            .unwrap()
            .run(&mut EdfScheduler::new())
            .unwrap();
        let by_wf: Vec<(u64, u64)> = out
            .metrics
            .workflows
            .iter()
            .map(|w| (w.id.as_u64(), w.completion_slot))
            .collect();
        // Workflow 2 (deadline 10) completes first despite equal arrival.
        assert_eq!(by_wf, vec![(1, 10), (2, 5)]);
    }
}
