//! The historical linear-scan engine, preserved as a differential oracle.
//!
//! Before the event-heap overhaul, [`crate::Engine`] re-derived everything
//! per slot from full scans: the termination check walked every job, the
//! runnable/visible views filtered and re-sorted the whole job table, and
//! dependency release re-examined every workflow node. That loop is slow
//! (per-slot cost scales with total job count) but *obviously* faithful to
//! the model — so it lives on here, compiled only for tests (and for
//! integration suites via the `oracle` feature), as the ground truth the
//! optimized engine is differentially tested against: identical workload,
//! cluster and scheduler must yield an identical [`SimOutcome`] — timeline
//! included — modulo the engine-telemetry counters, which describe the
//! implementation rather than the simulation.

use crate::cluster::ClusterConfig;
use crate::error::SimError;
use crate::job::SimWorkload;
use crate::placement::NodePool;
use crate::scheduler::Scheduler;
use crate::state::SimState;
use crate::telemetry::EngineTelemetry;
use crate::timeline::TimelineEntry;
use crate::{Engine, SimOutcome};
use flowtime_dag::JobId;

/// Drop-in replacement for [`Engine`] running the pre-overhaul
/// linear-scan slot loop. See the [module docs](self).
pub struct OracleEngine {
    inner: Engine,
}

impl OracleEngine {
    /// Builds an oracle engine; same contract as [`Engine::new`].
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`], exactly as [`Engine::new`].
    pub fn new(
        cluster: ClusterConfig,
        workload: SimWorkload,
        max_slots: u64,
    ) -> Result<Self, SimError> {
        Ok(OracleEngine {
            inner: Engine::new(cluster, workload, max_slots)?,
        })
    }

    /// See [`Engine::with_timeline`].
    #[must_use]
    pub fn with_timeline(mut self) -> Self {
        self.inner = self.inner.with_timeline();
        self
    }

    /// See [`Engine::with_nodes`].
    #[must_use]
    pub fn with_nodes(mut self, pool: NodePool) -> Self {
        self.inner = self.inner.with_nodes(pool);
        self
    }

    /// Runs `scheduler` with the historical full-scan loop: every slot the
    /// view indices are rebuilt from scratch and dependents are released by
    /// scanning every workflow node. Semantics (and the drain-on-exhaustion
    /// contract) match [`Engine::run`].
    ///
    /// # Errors
    ///
    /// Same scheduler-misbehaviour and invariant errors as [`Engine::run`].
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> Result<SimOutcome, SimError> {
        let e = &mut self.inner;
        // The oracle reports no hot-path counters: zero them so the only
        // telemetry difference against the heap engine is intentional.
        e.telemetry = EngineTelemetry::default();
        while e.state.now < e.max_slots {
            e.state.rebuild_indices();
            if e.state.incomplete == 0 {
                e.checker.check_final(&e.state)?;
                return Ok(self.inner.finish(scheduler.telemetry()));
            }
            let allocation = scheduler.plan_slot(&e.state);
            let now = e.state.now;

            let pairs: Vec<(JobId, u64)> = allocation.iter().collect();
            e.checker.check_slot(&e.state, &pairs)?;
            let used = e.state.allocation_usage(&pairs);

            e.slot_loads.push(used);
            e.slot_capacities.push(e.state.capacity_now());
            if let Some(tl) = &mut e.timeline {
                for &(id, q) in &pairs {
                    tl.entries.push(TimelineEntry {
                        slot: now,
                        job: id,
                        tasks: q,
                    });
                }
            }
            if let Some(pool) = &e.nodes {
                let requests: Vec<_> = pairs
                    .iter()
                    .map(|&(id, q)| (id, e.state.issued(id).estimate.per_task(), q))
                    .collect();
                e.placement_shortfalls
                    .push(pool.pack(&requests).unplaced_tasks());
            }
            for (id, q) in pairs {
                let idx = e.state.issued_row(id);
                let job = &mut e.state.jobs[idx];
                job.done_work += q;
                if job.done_work >= job.actual_work {
                    job.completion_slot = Some(now + 1);
                    if let Some((w, node)) = e.job_nodes[idx] {
                        e.state.mark_node_complete(w, node);
                    }
                }
            }
            release_dependents(&mut e.state, now);
            e.state.now += 1;
        }
        e.state.rebuild_indices();
        if e.state.incomplete == 0 {
            e.checker.check_final(&e.state)?;
        }
        Ok(self.inner.finish(scheduler.telemetry()))
    }
}

/// Marks workflow jobs ready once all their predecessors completed during
/// or before slot `now`; they become runnable from `now + 1`. The
/// pre-overhaul release rule, verbatim: a full scan over every node of
/// every workflow, every slot.
fn release_dependents(state: &mut SimState, now: u64) {
    for w in 0..state.workflows.len() {
        let n = state.workflows[w].job_ids.len();
        for node in 0..n {
            let id = state.workflows[w].job_ids[node];
            let idx = state.issued_row(id);
            if state.jobs[idx].ready_slot.is_some() {
                continue;
            }
            let dag = state.workflows[w].submission.workflow.dag();
            let all_done = dag.predecessors(node).iter().all(|&p| {
                let pid = state.workflows[w].job_ids[p];
                state.issued(pid).is_complete()
            });
            if all_done {
                state.jobs[idx].ready_slot = Some(now + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AdhocSubmission, WorkflowSubmission};
    use crate::scheduler::Allocation;
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

    fn workload() -> SimWorkload {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "diamond");
        let s = b.add_job(JobSpec::new("s", 4, 2, ResourceVec::new([1, 4096])));
        let l = b.add_job(JobSpec::new("l", 2, 3, ResourceVec::new([1, 4096])));
        let r = b.add_job(JobSpec::new("r", 2, 2, ResourceVec::new([1, 4096])));
        let t = b.add_job(JobSpec::new("t", 4, 1, ResourceVec::new([1, 4096])));
        b.add_dep(s, l).unwrap();
        b.add_dep(s, r).unwrap();
        b.add_dep(l, t).unwrap();
        b.add_dep(r, t).unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(WorkflowSubmission::new(b.window(0, 100).build().unwrap()));
        wl.adhoc.push(AdhocSubmission::new(
            JobSpec::new("a", 3, 4, ResourceVec::new([1, 4096])),
            2,
        ));
        wl
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0)
    }

    #[test]
    fn oracle_and_heap_engine_agree_on_a_diamond_dag() {
        let heap = Engine::new(cluster(), workload(), 1_000)
            .unwrap()
            .with_timeline()
            .run(&mut Greedy)
            .unwrap();
        let oracle = OracleEngine::new(cluster(), workload(), 1_000)
            .unwrap()
            .with_timeline()
            .run(&mut Greedy)
            .unwrap();
        let mut normalized = heap.clone();
        normalized.engine_telemetry = EngineTelemetry::default();
        assert_eq!(normalized, oracle);
        assert!(heap.is_complete());
    }

    #[test]
    fn oracle_and_heap_engine_agree_on_horizon_drain() {
        let heap = Engine::new(cluster(), workload(), 4)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        let oracle = OracleEngine::new(cluster(), workload(), 4)
            .unwrap()
            .run(&mut Greedy)
            .unwrap();
        assert!(!heap.is_complete());
        let mut normalized = heap.clone();
        normalized.engine_telemetry = EngineTelemetry::default();
        assert_eq!(normalized, oracle);
    }
}
