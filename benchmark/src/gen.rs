//! Input generation: everything a workload feeds the programs under test
//! is made here, from the run's seed and nothing else.
//!
//! The workflows are the *recurring* part of the paper's setting: the same
//! DAGs come back every period, so their catalogue (shapes, estimates,
//! windows) is pinned by [`CATALOGUE_SEED`]. What differs from one
//! production day to the next — the ad-hoc stream riding on the cluster
//! and every submitted ad-hoc job of the daemon workloads — comes from the
//! run's seed. Measured on the 2-core reference host, seeding the
//! catalogue too moves `sim-plan`'s wall time by ±15 % and `sim-simplex`'s
//! by 3× between seeds (the planner's cost is chaotic in the DAG sizes),
//! which no bound of at most a quarter could hold; with the catalogue
//! pinned the cross-seed spread is the host's own timing noise.

use flowtime::decompose::{decompose, slack::slacked_windows, DecomposeConfig};
use flowtime::lp_sched::{LevelingProblem, PlanJob};
use flowtime_dag::{JobId, JobSpec, ResourceVec};
use flowtime_sim::{AdhocSubmission, ClusterConfig, WorkflowSubmission};
use flowtime_workload::trace::ProductionTraceConfig;
use flowtime_workload::{AdhocStream, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the pinned recurring-workflow catalogue (the issue's default).
pub const CATALOGUE_SEED: u64 = 7;

/// Slot horizon handed to every engine: never the binding limit.
pub const MAX_SLOTS: u64 = 10_000_000;

/// The cluster every workload runs on: 160 cores / 655 360 MB, 10 s slots.
pub fn cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([160, 655_360]), 10.0)
}

/// Size of one synthetic production trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceSize {
    pub workflows: usize,
    pub jobs_per_workflow: usize,
    pub adhoc_rate_per_slot: f64,
    pub adhoc_horizon: u64,
}

/// A production trace: pinned workflow catalogue, ad-hoc stream from `seed`.
pub fn production_trace(size: TraceSize, seed: u64) -> Trace {
    let config = ProductionTraceConfig {
        workflows: size.workflows,
        jobs_per_workflow: size.jobs_per_workflow,
        adhoc: AdhocStream {
            rate_per_slot: size.adhoc_rate_per_slot,
            ..AdhocStream::default()
        },
        adhoc_horizon: size.adhoc_horizon,
        ..ProductionTraceConfig::default()
    };
    let mut trace = Trace::synthesize_production(cluster(), &config, CATALOGUE_SEED);
    trace.workload.adhoc = config.adhoc.generate(size.adhoc_horizon, seed);
    trace
}

/// The trace as the JSON-lines bytes a user would hand `flowtime-cli`.
pub fn trace_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace
        .write_jsonl(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// The first `count` catalogue workflows, for daemon preload and the
/// pinned planning problem.
pub fn catalogue_workflows(count: usize) -> Vec<WorkflowSubmission> {
    let size = TraceSize {
        workflows: count,
        jobs_per_workflow: 18,
        adhoc_rate_per_slot: 0.2,
        adhoc_horizon: 0,
    };
    production_trace(size, CATALOGUE_SEED).workload.workflows
}

/// `submit_workflow` request line for one submission.
pub fn workflow_line(sub: &WorkflowSubmission) -> String {
    format!(
        "{{\"req\":\"submit_workflow\",\"submission\":{}}}",
        serde_json::to_string(sub).expect("submission serializes")
    )
}

/// `count` `submit_adhoc` request lines, the first being the stream's
/// `first_index`-th: jobs of 1–4 tasks × 1–2 slots of `[1, 1024]`,
/// `per_slot` of them arriving in each virtual slot, so arrival slots
/// never fall behind a clock that only advances to the slot of the next
/// line. (The issue has every job last one slot; on an unsaturated cluster
/// that makes the mean turnaround read exactly 10 s for every seed, and a
/// reading that never moves is refused as unmeasured.)
pub fn adhoc_lines(count: usize, per_slot: u64, first_index: u64, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ first_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..count as u64)
        .map(|i| {
            let k = first_index + i;
            let spec = JobSpec::new(
                format!("a{k}"),
                rng.gen_range(1..=4u64),
                rng.gen_range(1..=2u64),
                ResourceVec::new([1, 1024]),
            );
            let sub = AdhocSubmission::new(spec, k / per_slot);
            format!(
                "{{\"req\":\"submit_adhoc\",\"submission\":{}}}",
                serde_json::to_string(&sub).expect("submission serializes")
            )
        })
        .collect()
}

/// The pinned planning problem P0: every job of the first `workflows`
/// (nominally five) catalogue workflows as the planner would see it at
/// slot 0, in its slacked decomposed window.
pub fn pinned_problem(workflows: usize) -> LevelingProblem {
    let capacity = cluster().capacity();
    let config = DecomposeConfig::new(capacity);
    let mut jobs = Vec::new();
    for sub in catalogue_workflows(workflows) {
        let wf = &sub.workflow;
        let d = decompose(wf, &config).expect("catalogue windows are loose");
        for (node, w) in slacked_windows(&d, 6).into_iter().enumerate() {
            let spec = wf.job(node);
            let cap = spec
                .effective_parallel()
                .min(spec.per_task().times_fitting(&capacity))
                .max(1);
            let start = w.start as usize;
            let min_len = spec.work().div_ceil(cap) as usize;
            jobs.push(PlanJob {
                id: JobId::new(jobs.len() as u64),
                window: (start, (w.deadline as usize).max(start + min_len)),
                demand: spec.work(),
                per_task: spec.per_task(),
                per_slot_cap: Some(cap),
            });
        }
    }
    let horizon = jobs.iter().map(|j| j.window.1).max().unwrap_or(1);
    LevelingProblem {
        slot_caps: vec![capacity; horizon],
        jobs,
    }
}

/// A Lemma-2 interval-structured leveling problem with `jobs` jobs:
/// short random windows (4–8 slots) on a horizon of `max(24, jobs/4)`
/// slots, one task shape, demands that fit the window under a per-slot
/// cap of 4. `shrink` > 0 cuts every demand by up to 5 % without touching
/// the structure — what completions do between two replans — so a basis
/// of the `shrink = 0` instance warm-starts it.
pub fn interval_problem(jobs: usize, seed: u64, shrink: u64) -> LevelingProblem {
    const SLOT_CAP: u64 = 4;
    let horizon = (jobs / 4).max(24);
    let mut rng = StdRng::seed_from_u64(seed ^ (jobs as u64) << 20);
    let mut cut = StdRng::seed_from_u64(seed ^ shrink.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let plan_jobs = (0..jobs)
        .map(|i| {
            let len = rng.gen_range(4..=8usize);
            let start = rng.gen_range(0..=horizon - len);
            let mut demand = len as u64 + rng.gen_range(0..=len as u64 * (SLOT_CAP - 1));
            if shrink > 0 {
                demand = (demand - cut.gen_range(0..=demand / 20)).max(1);
            }
            PlanJob {
                id: JobId::new(i as u64),
                window: (start, start + len),
                demand,
                per_task: ResourceVec::new([1, 1024]),
                per_slot_cap: Some(SLOT_CAP),
            }
        })
        .collect();
    LevelingProblem {
        slot_caps: vec![cluster().capacity(); horizon],
        jobs: plan_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seed_moves_only_the_adhoc_stream() {
        let size = TraceSize {
            workflows: 5,
            jobs_per_workflow: 18,
            adhoc_rate_per_slot: 0.2,
            adhoc_horizon: 300,
        };
        let a = production_trace(size, 3);
        assert_eq!(a, production_trace(size, 3));
        let b = production_trace(size, 4);
        assert_eq!(a.workload.workflows, b.workload.workflows);
        assert_ne!(a.workload.adhoc, b.workload.adhoc);
        assert_eq!(adhoc_lines(8, 4, 100, 3), adhoc_lines(8, 4, 100, 3));
        assert_ne!(adhoc_lines(8, 4, 100, 3), adhoc_lines(8, 4, 100, 4));
    }

    #[test]
    fn generated_problems_are_well_formed() {
        let p0 = pinned_problem(5);
        assert_eq!(p0.jobs.len(), 90);
        p0.validate().unwrap();
        let base = interval_problem(100, 7, 0);
        base.validate().unwrap();
        let next = interval_problem(100, 7, 1);
        assert_eq!(base.jobs.len(), next.jobs.len());
        assert!(base
            .jobs
            .iter()
            .zip(&next.jobs)
            .all(|(a, b)| a.window == b.window && b.demand <= a.demand));
    }
}
