//! Workload construction and the checked experiment runner.

use flowtime::decompose::{decompose, DecomposeConfig};
pub use flowtime::Algo;
use flowtime::{RunOutput, RunSpec};
use flowtime_dag::{ResourceVec, WorkflowId};
use flowtime_sim::{ClusterConfig, FaultConfig, FaultPlan, Metrics, SimWorkload};
use flowtime_workload::{AdhocStream, ScientificShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Slot duration used throughout the experiments (the paper's 10 s).
pub const SLOT_SECONDS: f64 = 10.0;

/// The simulated cluster for the workflow experiments (Fig. 4/5): a
/// 10-node testbed at 8 cores / 32 GiB per node — small relative to the
/// jobs' task parallelism, as in the paper's deployment, so the deadline
/// workload genuinely contends for the cluster.
pub fn testbed_cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([80, 327_680]), SLOT_SECONDS)
}

/// The Fig. 7 cluster: 500 CPU cores and 1 TB of memory.
pub fn fig7_cluster() -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([500, 1_048_576]), SLOT_SECONDS)
}

/// Parameters of the Fig. 4/5 workflow experiment.
#[derive(Debug, Clone)]
pub struct WorkflowExperiment {
    /// Number of workflows (paper: 5).
    pub workflows: usize,
    /// Jobs per workflow (paper: 18, for 90 deadline jobs).
    pub jobs_per_workflow: usize,
    /// Input size range per job in GB (paper: >= 10 GB).
    pub input_gb: (u64, u64),
    /// Deadline looseness: window = looseness x minimal makespan.
    pub looseness: f64,
    /// Stagger between workflow submissions, in slots.
    pub stagger_slots: u64,
    /// Ad-hoc arrival rate per slot.
    pub adhoc_rate: f64,
    /// Slots over which ad-hoc jobs arrive.
    pub adhoc_horizon: u64,
    /// Relative runtime under-estimation bound: actual work is drawn in
    /// `[est, est * (1 + overrun)]` (0 = exact estimates).
    pub overrun: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkflowExperiment {
    fn default() -> Self {
        WorkflowExperiment {
            workflows: 5,
            jobs_per_workflow: 18,
            input_gb: (5, 12),
            looseness: 3.5,
            stagger_slots: 40,
            adhoc_rate: 0.45,
            adhoc_horizon: 600,
            overrun: 0.0,
            seed: 20180702, // ICDCS 2018 opened July 2 :-)
        }
    }
}

impl WorkflowExperiment {
    /// Builds the workload: `workflows` scientific workflows (one family
    /// each, rotating) of PUMA-style jobs with loose deadlines, per-job
    /// milestone deadlines attached from the scheduler-independent demand
    /// decomposition, plus a Poisson ad-hoc stream.
    pub fn build(&self, cluster: &ClusterConfig) -> SimWorkload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut workload = SimWorkload::default();
        for i in 0..self.workflows {
            let shape = ScientificShape::ALL[i % ScientificShape::ALL.len()];
            let submit = i as u64 * self.stagger_slots;
            let probe = shape
                .workflow(
                    WorkflowId::new(i as u64),
                    self.jobs_per_workflow,
                    self.input_gb.0,
                    self.input_gb.1,
                    submit,
                    submit + 1_000_000,
                    self.seed ^ (0xABCD + i as u64),
                )
                .expect("valid skeleton");
            // "Loose" must be judged against what the cluster can actually
            // do: the window is `looseness x` the capacity-aware makespan
            // (dependency makespan, floored by total normalized demand).
            let demand_slots = probe
                .total_demand()
                .max_normalized_by(&cluster.capacity())
                .ceil() as u64;
            let min_span = probe.min_makespan_slots().max(demand_slots).max(1);
            let window = ((min_span as f64) * self.looseness).ceil() as u64;
            let wf = {
                let mut b =
                    flowtime_dag::WorkflowBuilder::new(probe.id(), probe.name().to_string());
                for job in probe.jobs() {
                    b.add_job(job.clone());
                }
                for (from, to) in probe.dag().edges() {
                    b.add_dep(from, to).expect("valid edges");
                }
                b.window(submit, submit + window)
                    .build()
                    .expect("valid window")
            };
            // Scheduler-independent milestones from the paper's (unslacked)
            // demand decomposition: every algorithm is judged against the
            // same per-job deadlines.
            let milestones = decompose(&wf, &DecomposeConfig::new(cluster.capacity()))
                .expect("window covers level sets")
                .job_deadlines();
            let actual: Vec<u64> = wf
                .jobs()
                .iter()
                .map(|j| {
                    let overrun = rng.gen_range(0.0..=self.overrun.max(0.0));
                    ((j.work() as f64) * (1.0 + overrun)).round().max(1.0) as u64
                })
                .collect();
            workload.workflows.push(
                flowtime_sim::WorkflowSubmission::new(wf)
                    .with_job_deadlines(milestones)
                    .with_actual_work(actual),
            );
        }
        let stream = AdhocStream {
            rate_per_slot: self.adhoc_rate,
            // Heavy-tailed sizes: mostly small queries with occasional
            // multi-hundred-task-slot analytics jobs, the mix that makes
            // FIFO's head-of-line blocking visible (paper Fig. 4(b)).
            work_mu: 3.0,
            work_sigma: 1.1,
            ..Default::default()
        };
        workload.adhoc = stream.generate(self.adhoc_horizon, self.seed.wrapping_add(17));
        workload
    }
}

/// Builds an experiment's workload and then rewrites it (and the cluster)
/// through a deterministic [`FaultPlan`]. Every algorithm compared on the
/// returned pair sees the same misestimated runtimes, degraded capacity
/// windows, and injected bursts.
pub fn faulted_instance(
    exp: &WorkflowExperiment,
    cluster: &ClusterConfig,
    config: FaultConfig,
) -> (SimWorkload, ClusterConfig) {
    let mut workload = exp.build(cluster);
    let mut cluster = cluster.clone();
    let horizon = workload
        .workflows
        .iter()
        .map(|w| w.workflow.deadline_slot())
        .max()
        .unwrap_or(0)
        .max(exp.adhoc_horizon);
    FaultPlan::new(config).apply(&mut workload, &mut cluster, horizon);
    (workload, cluster)
}

/// Runs `spec` through the one run path ([`flowtime::run`]) under the
/// experiment harness's contract: a figure or a property suite has no use
/// for a failed or partial run, so either aborts.
///
/// # Panics
///
/// Panics if the engine rejects the scheduler (a bug) or exhausts the
/// horizon (workload mis-sized) — the engine reports exhaustion via
/// [`flowtime_sim::SimOutcome::in_flight`], and the harness treats a
/// partial run as unusable for comparisons.
pub fn run_checked(spec: &RunSpec, cluster: &ClusterConfig, workload: &SimWorkload) -> RunOutput {
    let name = spec.algo.name();
    let out =
        flowtime::run(spec, cluster, workload).unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert!(
        out.outcome.is_complete(),
        "{name}: horizon exhausted with {} jobs in flight",
        out.outcome.in_flight.len()
    );
    out
}

/// One row of the Fig. 4/5 comparison tables.
#[derive(Debug, Clone, Serialize)]
pub struct SummaryRow {
    /// Algorithm name.
    pub algo: String,
    /// Number of deadline jobs with milestones.
    pub deadline_jobs: usize,
    /// Jobs that missed their milestone (Fig. 4(b)).
    pub job_misses: usize,
    /// Workflows that missed their deadline.
    pub workflow_misses: usize,
    /// Worst completion-minus-deadline in seconds (Fig. 4(a) top).
    pub max_delta_s: f64,
    /// Mean completion-minus-deadline in seconds (Fig. 4(a) tendency).
    pub mean_delta_s: f64,
    /// Average ad-hoc turnaround in seconds (Fig. 4(c)).
    pub adhoc_turnaround_s: f64,
    /// Mean peak-normalized cluster utilization.
    pub avg_utilization: f64,
}

/// Summarizes a metrics object into a table row.
pub fn summarize(algo: Algo, metrics: &Metrics) -> SummaryRow {
    let deltas = metrics.job_deadline_deltas_seconds();
    let mean = if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().sum::<f64>() / deltas.len() as f64
    };
    SummaryRow {
        algo: algo.name().to_string(),
        deadline_jobs: metrics.deadline_jobs().count(),
        job_misses: metrics.job_deadline_misses(),
        workflow_misses: metrics.workflow_deadline_misses(),
        max_delta_s: deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mean_delta_s: mean,
        adhoc_turnaround_s: metrics.avg_adhoc_turnaround_seconds().unwrap_or(0.0),
        avg_utilization: metrics.avg_peak_utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_with_milestones() {
        let cluster = testbed_cluster();
        let exp = WorkflowExperiment {
            adhoc_horizon: 100,
            ..Default::default()
        };
        let wl = exp.build(&cluster);
        assert_eq!(wl.workflows.len(), 5);
        for sub in &wl.workflows {
            assert_eq!(sub.workflow.len(), 18);
            assert!(sub.job_deadlines.is_some());
            assert!(sub.actual_work.is_some());
        }
        assert!(!wl.adhoc.is_empty());
    }

    #[test]
    fn faulted_instance_is_deterministic_and_diverges() {
        let cluster = testbed_cluster();
        let exp = WorkflowExperiment {
            workflows: 2,
            jobs_per_workflow: 6,
            adhoc_horizon: 60,
            ..Default::default()
        };
        let (wl_a, cl_a) = faulted_instance(&exp, &cluster, FaultConfig::mixed(9));
        let (wl_b, cl_b) = faulted_instance(&exp, &cluster, FaultConfig::mixed(9));
        assert_eq!(wl_a, wl_b);
        assert_eq!(cl_a, cl_b);
        let (wl_clean, cl_clean) = faulted_instance(&exp, &cluster, FaultConfig::none(9));
        assert_eq!(wl_clean, exp.build(&cluster));
        assert_eq!(cl_clean, cluster);
        assert_ne!(wl_a, wl_clean);
    }

    #[test]
    fn all_algorithms_complete_a_small_instance() {
        let cluster = testbed_cluster();
        let exp = WorkflowExperiment {
            workflows: 2,
            jobs_per_workflow: 6,
            adhoc_horizon: 60,
            adhoc_rate: 0.45,
            ..Default::default()
        };
        let workload = exp.build(&cluster);
        for algo in Algo::FIG4 {
            let outcome = run_checked(&RunSpec::new(algo), &cluster, &workload).outcome;
            let metrics = outcome.metrics;
            assert!(metrics.completed_jobs() > 12, "{}", algo.name());
            let row = summarize(algo, &metrics);
            assert_eq!(row.deadline_jobs, 12);
        }
    }
}
