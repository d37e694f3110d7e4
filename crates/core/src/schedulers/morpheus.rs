//! Morpheus-like baseline (Jyothi et al., OSDI 2016).
//!
//! Morpheus infers per-job SLOs (deadlines) from the periodicity of prior
//! runs and *reserves* resources ahead of time to meet them. The paper's
//! criticism (Section I) is that the inference "has not utilized global
//! information of the entire workflow, such as how jobs depend upon each
//! other" — so our reproduction gives each job an SLO at the historical
//! *uniform level spacing* of the workflow window (what recurrence logs
//! reveal without DAG/demand analysis), then places a per-job reservation
//! greedily on the least-loaded slots before that SLO (the Rayon/Morpheus
//! skyline heuristic) rather than solving a global placement.
//!
//! Consequences reproduced from Fig. 4: reservations make it far better
//! than FIFO/Fair on deadlines, but per-job greedy placement misses
//! deadlines that FlowTime's global LP meets, and reservations squeeze
//! ad-hoc jobs harder than FlowTime's leveled profile.

use super::util::SlotFiller;
use flowtime_dag::{JobId, ResourceVec, WorkflowId};
use flowtime_sim::{Allocation, ClusterConfig, JobView, Scheduler, SimState};
use std::collections::{HashMap, HashSet};

/// Reservation record for one deadline job.
#[derive(Debug, Clone)]
struct Reservation {
    /// Absolute slot of `profile[0]`.
    origin: u64,
    /// Reserved tasks per slot.
    profile: Vec<u64>,
    /// Inferred SLO (absolute slot).
    slo: u64,
}

impl Reservation {
    /// Reserved tasks from `origin` through slot `now` inclusive.
    fn cumulative_through(&self, now: u64) -> u64 {
        if now < self.origin {
            return 0;
        }
        let upto = ((now - self.origin) as usize + 1).min(self.profile.len());
        self.profile[..upto].iter().sum()
    }

    fn total(&self) -> u64 {
        self.profile.iter().sum()
    }
}

/// The Morpheus-like reservation scheduler.
pub struct MorpheusScheduler {
    cluster: ClusterConfig,
    reservations: HashMap<JobId, Reservation>,
    /// Cluster-wide reserved load per absolute slot (the skyline).
    skyline: Vec<ResourceVec>,
    seen_workflows: HashSet<WorkflowId>,
}

impl MorpheusScheduler {
    /// Creates the scheduler.
    pub fn new(cluster: ClusterConfig) -> Self {
        MorpheusScheduler {
            cluster,
            reservations: HashMap::new(),
            skyline: Vec::new(),
            seen_workflows: HashSet::new(),
        }
    }

    fn skyline_at(&mut self, slot: u64) -> &mut ResourceVec {
        let idx = slot as usize;
        if idx >= self.skyline.len() {
            self.skyline.resize(idx + 1, ResourceVec::zero());
        }
        &mut self.skyline[idx]
    }

    fn absorb_arrivals(&mut self, state: &SimState) {
        let capacity = self.cluster.capacity();
        let arrived: Vec<_> = state
            .workflows()
            .iter()
            .filter(|w| !self.seen_workflows.contains(&w.id()))
            .map(|w| (w.id(), w.workflow.clone(), w.job_ids.to_vec()))
            .collect();
        for (wf_id, workflow, job_ids) in arrived {
            self.seen_workflows.insert(wf_id);
            // Historical SLO inference: uniform level spacing of the window
            // (recurrence reveals *when* jobs historically finished, not why).
            let sets = workflow.level_sets();
            let levels = sets.len() as u64;
            let ws = workflow.submit_slot();
            let window = workflow.window_slots();
            for (level_idx, set) in sets.iter().enumerate() {
                let start = ws + window * level_idx as u64 / levels;
                let slo = ws + window * (level_idx as u64 + 1) / levels;
                for &node in set {
                    let job = workflow.job(node);
                    let id = job_ids[node];
                    let demand = job.work();
                    let width_cap = job.effective_parallel();
                    let per_task = job.per_task();
                    let profile = self.reserve(demand, width_cap, per_task, start, slo, capacity);
                    self.reservations.insert(
                        id,
                        Reservation {
                            origin: start,
                            profile,
                            slo,
                        },
                    );
                }
            }
        }
    }

    /// Greedy skyline placement: one task at a time into the least-loaded
    /// slot of `[start, slo)` that still has headroom; once nothing fits,
    /// remaining demand piles onto the least-loaded slots regardless
    /// (over-subscription — Morpheus would reject or defer, which also
    /// misses deadlines).
    fn reserve(
        &mut self,
        demand: u64,
        width_cap: u64,
        per_task: ResourceVec,
        start: u64,
        slo: u64,
        capacity: ResourceVec,
    ) -> Vec<u64> {
        let end = slo.max(start + 1);
        let len = (end - start) as usize;
        let mut profile = vec![0u64; len];
        for _ in 0..demand {
            let mut best: Option<(usize, f64)> = None;
            for (off, reserved_tasks) in profile.iter().enumerate() {
                if *reserved_tasks >= width_cap {
                    continue;
                }
                let slot = start + off as u64;
                let slot_capacity = self.cluster.capacity_at(slot).min(&capacity);
                let slot_load = *self.skyline_at(slot);
                let fits = (slot_load + per_task).fits_within(&slot_capacity);
                let ratio =
                    slot_load.max_normalized_by(&slot_capacity) + if fits { 0.0 } else { 2.0 };
                if best.is_none_or(|(_, b)| ratio < b) {
                    best = Some((off, ratio));
                }
            }
            let Some((off, _)) = best else {
                // Width cap saturates the whole window: dump the remainder
                // evenly (will run late).
                break;
            };
            profile[off] += 1;
            *self.skyline_at(start + off as u64) += per_task;
        }
        let placed: u64 = profile.iter().sum();
        let mut leftover = demand - placed;
        let mut off = 0usize;
        while leftover > 0 {
            profile[off % len] += 1;
            leftover -= 1;
            off += 1;
        }
        profile
    }
}

impl Scheduler for MorpheusScheduler {
    fn name(&self) -> &str {
        "Morpheus"
    }

    fn decision_tag(&self) -> &'static str {
        "reservation-backfill"
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        self.absorb_arrivals(state);
        let now = state.now();
        let deadline_jobs: Vec<JobView> = state.runnable_deadline().collect();
        let mut filler = SlotFiller::new(state);

        // 1. Deadline jobs draw down their reservation backlog (reserved
        //    through now, minus work already done).
        let mut reserved_jobs: Vec<(&JobView, u64)> = Vec::new();
        for job in &deadline_jobs {
            if let Some(res) = self.reservations.get(&job.id) {
                let backlog = res.cumulative_through(now).saturating_sub(job.done_work);
                // Past the SLO, the whole remaining reservation is overdue.
                let want = if now >= res.slo {
                    res.total().saturating_sub(job.done_work)
                } else {
                    backlog
                };
                if want > 0 {
                    reserved_jobs.push((job, want));
                }
            }
        }
        reserved_jobs.sort_by_key(|(job, _)| (self.reservations[&job.id].slo, job.id));
        for (job, want) in reserved_jobs {
            filler.grant(job, want);
        }

        // 2. Ad-hoc jobs take the leftovers, FIFO.
        filler.greedy_fill(state.runnable_adhoc());

        // 3. Work conservation: deadline jobs may run ahead of reservation.
        filler.greedy_fill(deadline_jobs);
        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, WorkflowBuilder};
    use flowtime_sim::prelude::*;

    fn cluster(cores: u64) -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([cores, cores * 1024]), 10.0)
    }

    fn spec(tasks: u64) -> JobSpec {
        JobSpec::new("j", tasks, 1, ResourceVec::new([1, 1024]))
    }

    #[test]
    fn reservations_meet_loose_deadlines() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let a = b.add_job(spec(8));
        let c = b.add_job(spec(8));
        b.add_dep(a, c).unwrap();
        let wf = b.window(0, 60).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        let mut m = MorpheusScheduler::new(cluster(4));
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut m)
            .unwrap();
        assert_eq!(out.metrics.workflow_deadline_misses(), 0);
    }

    #[test]
    fn reservation_spreading_leaves_room_for_adhoc() {
        // Workflow with a loose deadline: its reservation spreads thin, so
        // a small ad-hoc job gets immediate service.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(spec(40));
        let wf = b.window(0, 40).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        wl.adhoc.push(AdhocSubmission::new(spec(4), 0));
        let mut m = MorpheusScheduler::new(cluster(4));
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut m)
            .unwrap();
        let adhoc = out.metrics.adhoc_jobs().next().unwrap();
        assert!(
            adhoc.turnaround_slots() <= 3,
            "turnaround {}",
            adhoc.turnaround_slots()
        );
    }

    #[test]
    fn uniform_slo_spacing_hurts_demand_skewed_workflows() {
        // Fork-join where the middle level carries almost all the demand:
        // uniform SLO spacing (1/3 each) under-provisions the middle —
        // exactly the failure mode FlowTime's demand decomposition fixes.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "fj");
        let head = b.add_job(spec(4));
        let mids: Vec<_> = (0..6)
            .map(|_| b.add_job(spec(40).with_max_parallel(8)))
            .collect();
        let tail = b.add_job(spec(4));
        for &mid in &mids {
            b.add_dep(head, mid).unwrap();
            b.add_dep(mid, tail).unwrap();
        }
        // Middle needs 240 task-slots; at 12 cores that is 20 slots minimum,
        // but uniform spacing grants it only ~10 of the 30-slot window.
        let wf = b.window(0, 30).build().unwrap();
        let milestones = vec![10, 20, 20, 20, 20, 20, 20, 30];
        let sub = WorkflowSubmission::new(wf).with_job_deadlines(milestones);
        let mut wl = SimWorkload::default();
        wl.workflows.push(sub);
        let mut m = MorpheusScheduler::new(cluster(12));
        let out = Engine::new(cluster(12), wl, 1000)
            .unwrap()
            .run(&mut m)
            .unwrap();
        // The middle jobs blow through their inferred milestone.
        assert!(out.metrics.job_deadline_misses() > 0);
    }
}
