//! CORA-like baseline (Huang et al., INFOCOM 2015).
//!
//! CORA schedules cloud jobs by minimizing the maximum of per-job utility
//! functions. Following the paper's comparison setup (Section VII-A:
//! "deadline-critical" and "deadline-sensitive" job types with default
//! utilities), our reproduction models it as utility water-filling:
//!
//! * **deadline-critical** (workflow) jobs carry a *required rate* — the
//!   remaining estimated work divided by the slots left to their deadline.
//!   Per-job deadlines come from the traditional critical-path
//!   decomposition (CORA has no demand-aware decomposition — that is
//!   FlowTime's contribution).
//! * **deadline-sensitive** (ad-hoc) jobs accrue utility with service;
//!   their marginal utility decays with allocated width.
//!
//! Each slot, capacity goes one task at a time to the job with the worst
//! current utility, interleaving both classes — hence CORA's "moderate
//! performance across the board" in Fig. 4: it neither prioritizes
//! deadlines as hard as EDF nor serves ad-hoc jobs as well as Fair.

use super::util::SlotFiller;
use crate::decompose::{self, DecomposeConfig, Decomposer};
use flowtime_dag::{JobId, WorkflowId};
use flowtime_sim::{Allocation, ClusterConfig, JobView, Scheduler, SimState};
use std::collections::{HashMap, HashSet};

/// The CORA-like utility scheduler.
pub struct CoraScheduler {
    cluster: ClusterConfig,
    /// Per-job deadlines from the traditional decomposition.
    deadlines: HashMap<JobId, u64>,
    seen_workflows: HashSet<WorkflowId>,
}

impl CoraScheduler {
    /// Creates the scheduler.
    pub fn new(cluster: ClusterConfig) -> Self {
        CoraScheduler {
            cluster,
            deadlines: HashMap::new(),
            seen_workflows: HashSet::new(),
        }
    }

    fn absorb_arrivals(&mut self, state: &SimState) {
        for wf in state.workflows() {
            if !self.seen_workflows.insert(wf.id()) {
                continue;
            }
            let cfg = DecomposeConfig::new(self.cluster.capacity())
                .with_decomposer(Decomposer::CriticalPath);
            let deadlines: Vec<u64> = match decompose::decompose(wf.workflow, &cfg) {
                Ok(d) => d.job_deadlines(),
                Err(_) => vec![wf.workflow.deadline_slot(); wf.workflow.len()],
            };
            for (node, &dl) in deadlines.iter().enumerate() {
                self.deadlines.insert(wf.job_ids[node], dl);
            }
        }
    }

    /// Utility deficit of a job given `granted` tasks this slot: higher
    /// means more deserving of the next task.
    fn deficit(&self, job: &JobView, granted: u64, now: u64) -> f64 {
        if job.is_adhoc() {
            // Deadline-sensitive: diminishing returns in width, growing
            // with time waited.
            let waited = (now - job.arrival_slot) as f64;
            (1.0 + waited / 10.0) / (1.0 + granted as f64)
        } else {
            let deadline = self.deadlines.get(&job.id).copied().unwrap_or(u64::MAX);
            let slots_left = deadline.saturating_sub(now).max(1) as f64;
            let remaining = job.estimated_remaining.unwrap_or(0) as f64;
            let required = remaining / slots_left;
            // Deadline-critical: sharply deficient below the required rate,
            // and still hungry above it — CORA's utility is the job's
            // *completion time*, so a deadline job keeps bidding for width
            // until it runs at full parallelism, crowding ad-hoc jobs to a
            // degree between Fair's and EDF's (the paper's "moderate
            // performance across the board").
            let overdue_boost = if deadline <= now { 4.0 } else { 1.0 };
            let rate_deficit =
                ((required - granted as f64) / required.max(1.0)).max(0.0) * 2.0 * overdue_boost;
            let width = job.max_tasks_this_slot.max(1) as f64;
            let speed_hunger = 0.9 * (1.0 - granted as f64 / width);
            rate_deficit.max(speed_hunger.max(0.0))
        }
    }
}

impl Scheduler for CoraScheduler {
    fn name(&self) -> &str {
        "CORA"
    }

    fn decision_tag(&self) -> &'static str {
        "utility-waterfill"
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        self.absorb_arrivals(state);
        let now = state.now();
        let jobs: Vec<JobView> = state.runnable().collect();
        let mut filler = SlotFiller::new(state);
        // Water-fill by utility deficit, one task at a time.
        loop {
            let best = jobs
                .iter()
                .filter(|j| filler.headroom(j) > 0)
                .map(|j| (j, self.deficit(j, filler.granted(j.id), now)))
                .filter(|&(_, d)| d > 0.0)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let Some((job, _)) = best else {
                break;
            };
            if filler.grant(job, 1) == 0 {
                break;
            }
        }
        // Residual work conservation: fill anything left in arrival order.
        filler.greedy_fill(jobs);
        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder};
    use flowtime_sim::prelude::*;

    fn cluster(cores: u64) -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([cores, cores * 1024]), 10.0)
    }

    fn spec(tasks: u64) -> JobSpec {
        JobSpec::new("j", tasks, 1, ResourceVec::new([1, 1024]))
    }

    #[test]
    fn interleaves_deadline_and_adhoc_work() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(spec(40));
        let wf = b.window(0, 20).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        wl.adhoc.push(AdhocSubmission::new(spec(8), 0));
        let mut cora = CoraScheduler::new(cluster(4));
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut cora)
            .unwrap();
        // Deadline job needs rate 2/slot of 4 cores: ad-hoc gets service
        // well before the workflow finishes.
        let adhoc = out.metrics.adhoc_jobs().next().unwrap();
        let wf_done = out.metrics.workflows[0].completion_slot;
        assert!(adhoc.completion_slot < wf_done);
        assert_eq!(out.metrics.workflow_deadline_misses(), 0);
    }

    #[test]
    fn meets_loose_deadline() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let a = b.add_job(spec(8));
        let c = b.add_job(spec(8));
        b.add_dep(a, c).unwrap();
        let wf = b.window(0, 100).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        let mut cora = CoraScheduler::new(cluster(4));
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut cora)
            .unwrap();
        assert_eq!(out.metrics.workflow_deadline_misses(), 0);
    }
}
