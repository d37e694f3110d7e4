//! Deterministic `(scenario × scheduler × seed)` experiment sweeps.
//!
//! The paper's evaluation is trace-driven simulation over many workload
//! mixes; the robustness experiments replay dozens of fault seeds on top.
//! [`SweepSpec`] names that whole grid once, expands it into independent
//! cells in a **canonical order** (scenario-major, then scheduler, then
//! fault seed), and executes the cells with the work-stealing runner
//! [`flowtime_sim::run_cells`]. Each cell builds its own workload and its
//! own scheduler and engine, so cells share nothing mutable; results are
//! reduced back in cell order. Together with the engine's own determinism
//! this makes the serialized [`SweepReport`] byte-identical for any thread
//! count — the property `tests/sweep_props.rs` pins.

use crate::experiments::{faulted_instance, run_checked, Algo, WorkflowExperiment};
use flowtime::RunSpec;
use flowtime_sim::{
    run_cells, ClusterConfig, EngineTelemetry, FaultConfig, RecoveryPolicy, RecoverySetup,
    RecoveryStats, RuntimeFaultConfig, ShedPolicy, SimOutcome, SolverTelemetry,
};
use serde::Serialize;

/// How a scenario derives each cell's [`FaultConfig`] from its fault seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultProfile {
    /// No injection: the clean generated workload.
    Clean,
    /// The moderate everything mix of [`FaultConfig::mixed`].
    Mixed,
    /// Runtime misestimation only, at the given log-normal sigma.
    Misestimate {
        /// Log-normal sigma of the actual/estimated work factor.
        sigma: f64,
    },
}

impl FaultProfile {
    /// Materializes the per-cell fault configuration.
    pub fn config(&self, seed: u64) -> FaultConfig {
        match *self {
            FaultProfile::Clean => FaultConfig::none(seed),
            FaultProfile::Mixed => FaultConfig::mixed(seed),
            FaultProfile::Misestimate { sigma } => FaultConfig::none(seed).with_misestimate(sigma),
        }
    }
}

/// A mid-run failure/recovery layer applied per fault seed — the runtime
/// analogue of [`FaultProfile`], which only rewrites the workload before
/// the run starts. Serialized into the report so a persisted sweep is
/// self-describing.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryProfile {
    /// Per-attempt probability that a running task attempt fails mid-run.
    pub task_fail_rate: f64,
    /// Fraction of capacity a node-crash window removes (0 = no crashes).
    pub crash_severity: f64,
    /// Slots between crash windows.
    pub crash_period: u64,
    /// Fraction of first attempts inflated by straggler slowdown.
    pub straggler_rate: f64,
    /// Extra-work factor applied to a straggling attempt.
    pub straggler_factor: f64,
    /// Kills tolerated per job before the final attempt runs protected.
    pub max_retries: u32,
    /// Admission policy for ad-hoc jobs under sustained overload.
    pub shed: ShedPolicy,
    /// Ad-hoc backlog per core counting as overload (only meaningful with
    /// a shedding policy).
    pub overload_factor: f64,
    /// Slots of sustained overload before the policy sheds.
    pub overload_sustain: u64,
}

impl RecoveryProfile {
    /// The chaos grid profile: task failures at `task_fail_rate`, periodic
    /// 30%-severity node crashes, 10% stragglers, default retry budget.
    pub fn chaos(task_fail_rate: f64) -> Self {
        RecoveryProfile {
            task_fail_rate,
            crash_severity: 0.3,
            crash_period: 60,
            straggler_rate: 0.1,
            straggler_factor: 0.5,
            max_retries: 3,
            shed: ShedPolicy::None,
            overload_factor: 4.0,
            overload_sustain: 10,
        }
    }

    /// Materializes the per-cell recovery setup from the cell's fault seed
    /// (the same seed that drives the scenario's [`FaultProfile`], so one
    /// number reproduces the whole cell).
    pub fn setup(&self, seed: u64) -> RecoverySetup {
        RecoverySetup::new(
            RuntimeFaultConfig::none(seed)
                .with_task_failures(self.task_fail_rate)
                .with_crashes(self.crash_severity)
                .with_crash_period(self.crash_period)
                .with_stragglers(self.straggler_rate, self.straggler_factor),
            RecoveryPolicy::default()
                .with_max_retries(self.max_retries)
                .with_shed(self.shed)
                .with_overload(self.overload_factor, self.overload_sustain),
        )
    }
}

/// One named workload scenario of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepScenario {
    /// Stable name used in report rows (e.g. `clean`, `overrun-20`).
    pub name: String,
    /// Runtime overrun bound fed to [`WorkflowExperiment::overrun`].
    pub overrun: f64,
    /// Fault injection profile applied per fault seed.
    pub faults: FaultProfile,
    /// Mid-run failure/recovery layer, applied per fault seed. `None`
    /// (and skipped in serialization) keeps pre-recovery sweep reports
    /// byte-identical.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery: Option<RecoveryProfile>,
}

impl SweepScenario {
    /// A clean scenario (exact estimates, no faults).
    pub fn clean() -> Self {
        SweepScenario {
            name: "clean".into(),
            overrun: 0.0,
            faults: FaultProfile::Clean,
            recovery: None,
        }
    }

    /// The mixed-fault scenario of the robustness sweep.
    pub fn mixed_faults() -> Self {
        SweepScenario {
            name: "mixed-faults".into(),
            overrun: 0.0,
            faults: FaultProfile::Mixed,
            recovery: None,
        }
    }

    /// The chaos scenario: a clean workload hit by mid-run task failures,
    /// node crashes, and stragglers, recovered by the retry policy.
    pub fn chaos(task_fail_rate: f64) -> Self {
        SweepScenario {
            name: format!("chaos-{}", (task_fail_rate * 100.0).round() as u64),
            overrun: 0.0,
            faults: FaultProfile::Clean,
            recovery: Some(RecoveryProfile::chaos(task_fail_rate)),
        }
    }

    /// Attaches (or replaces) the scenario's recovery layer.
    #[must_use]
    pub fn with_recovery(mut self, profile: RecoveryProfile) -> Self {
        self.recovery = Some(profile);
        self
    }
}

/// The full grid of a sweep: one base experiment crossed with scenarios,
/// schedulers, and fault seeds.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base experiment sizing (workflows, jobs, ad-hoc stream, seed).
    pub base: WorkflowExperiment,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Scenarios, in report order.
    pub scenarios: Vec<SweepScenario>,
    /// Schedulers, in report order.
    pub schedulers: Vec<Algo>,
    /// Fault seeds, in report order.
    pub fault_seeds: Vec<u64>,
    /// When true, every cell additionally records a decision trace and the
    /// offline auditor ([`flowtime_sim::certify_with_recovery`]) must
    /// certify the run; a rejected cell aborts the sweep. The report's
    /// bytes are unchanged by this flag — auditing only verifies.
    pub audit: bool,
}

/// One cell of the expanded grid.
#[derive(Debug, Clone)]
struct SweepCell {
    scenario: usize,
    algo: Algo,
    fault_seed: u64,
}

/// Everything measured inside one cell (intermediate, not serialized:
/// the raw turnaround samples feed the pooled percentiles).
struct CellOutcome {
    row: SweepCellRow,
    adhoc_turnaround_slots: Vec<u64>,
    /// Worst per-node milestone overrun of the cell: `(slots, "wf-X:nY")`.
    top_culprit: Option<(u64, String)>,
    solver: Option<SolverTelemetry>,
    engine: EngineTelemetry,
}

/// Per-cell summary row of the report, in canonical cell order.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCellRow {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler name.
    pub algo: String,
    /// Fault seed of this cell.
    pub fault_seed: u64,
    /// Jobs completed (the whole workload: sweeps reject partial runs).
    pub completed_jobs: usize,
    /// Milestone-tracked deadline jobs.
    pub deadline_jobs: usize,
    /// Milestone misses.
    pub job_misses: usize,
    /// Workflow deadline misses.
    pub workflow_misses: usize,
    /// Mean ad-hoc turnaround in seconds (0 when no ad-hoc jobs ran).
    pub adhoc_turnaround_s: f64,
    /// Total milestone overrun across the cell's deadline-miss attribution
    /// reports, in slots (which node set consumed the decomposed slack).
    pub overrun_slots: u64,
    /// Slots simulated.
    pub slots_elapsed: u64,
    /// Mid-run failure/recovery counters of the cell (task failures, crash
    /// kills, retries, wasted work, sheds); omitted — keeping pre-recovery
    /// report bytes — when nothing fired.
    #[serde(skip_serializing_if = "RecoveryStats::is_inert")]
    pub recovery: RecoveryStats,
}

/// Aggregate over every cell of one `(scenario, scheduler)` pair.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRollup {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler name.
    pub algo: String,
    /// Number of cells aggregated (= number of fault seeds).
    pub cells: usize,
    /// Total milestone-tracked jobs across cells.
    pub deadline_jobs: usize,
    /// Total milestone misses across cells.
    pub job_misses: usize,
    /// `job_misses / deadline_jobs` (0 when no deadline jobs).
    pub deadline_miss_rate: f64,
    /// Total workflow misses across cells.
    pub workflow_misses: usize,
    /// Pooled ad-hoc turnaround percentiles in seconds (nearest-rank over
    /// every ad-hoc job of every cell).
    pub adhoc_p50_s: f64,
    /// 90th percentile, same pooling.
    pub adhoc_p90_s: f64,
    /// 99th percentile, same pooling.
    pub adhoc_p99_s: f64,
    /// Total milestone overrun across cells, in slots.
    pub overrun_slots: u64,
    /// Worst single-node milestone overrun in the group, rendered as
    /// `"wf-X:nY +Z"` (empty when no node overran). Ties resolve to the
    /// first cell/node in canonical order, so the string is deterministic.
    pub top_overrun_node: String,
    /// Solver-effort counters summed across cells; `None` for solver-free
    /// schedulers.
    pub solver_telemetry: Option<SolverTelemetry>,
    /// Engine counters accumulated across cells (peak is a max).
    pub engine_telemetry: EngineTelemetry,
    /// Failure/recovery counters summed across cells; omitted (keeping
    /// pre-recovery report bytes) when nothing fired in the group.
    #[serde(skip_serializing_if = "RecoveryStats::is_inert")]
    pub recovery: RecoveryStats,
}

/// Compact description of the base experiment, embedded in the report so a
/// persisted sweep is self-describing.
#[derive(Debug, Clone, Serialize)]
pub struct SweepExperimentInfo {
    /// Number of workflows.
    pub workflows: usize,
    /// Jobs per workflow.
    pub jobs_per_workflow: usize,
    /// Ad-hoc arrival horizon in slots.
    pub adhoc_horizon: u64,
    /// Base workload seed.
    pub seed: u64,
}

/// The deterministic, ordered result of a sweep. Serialization contains no
/// wall-clock quantity, so its bytes are a pure function of the spec.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Base experiment sizing.
    pub experiment: SweepExperimentInfo,
    /// The scenario axis.
    pub scenarios: Vec<SweepScenario>,
    /// The scheduler axis, by display name.
    pub schedulers: Vec<String>,
    /// The fault-seed axis.
    pub fault_seeds: Vec<u64>,
    /// Per-cell rows in canonical (scenario, scheduler, seed) order.
    pub cells: Vec<SweepCellRow>,
    /// Per-`(scenario, scheduler)` aggregates, same order as the axes.
    pub rollups: Vec<SweepRollup>,
}

impl SweepSpec {
    /// The robustness fault-seed sweep as a spec: every Fig. 4 algorithm ×
    /// mixed faults × `fault_seeds` seeds on the default experiment.
    pub fn robustness(base_seed: u64, fault_seeds: usize) -> Self {
        SweepSpec {
            base: WorkflowExperiment {
                seed: base_seed,
                ..Default::default()
            },
            cluster: crate::experiments::testbed_cluster(),
            scenarios: vec![SweepScenario::mixed_faults()],
            schedulers: Algo::FIG4.to_vec(),
            fault_seeds: (0..fault_seeds as u64).collect(),
            audit: false,
        }
    }

    /// Number of cells the spec expands to.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.schedulers.len() * self.fault_seeds.len()
    }

    fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for scenario in 0..self.scenarios.len() {
            for &algo in &self.schedulers {
                for &fault_seed in &self.fault_seeds {
                    cells.push(SweepCell {
                        scenario,
                        algo,
                        fault_seed,
                    });
                }
            }
        }
        cells
    }

    /// Builds and runs one cell, fully isolated: its own workload, its own
    /// scheduler instance, its own engine.
    fn run_cell(&self, cell: &SweepCell) -> CellOutcome {
        let scenario = &self.scenarios[cell.scenario];
        let exp = WorkflowExperiment {
            overrun: scenario.overrun,
            ..self.base.clone()
        };
        let (workload, cluster) =
            faulted_instance(&exp, &self.cluster, scenario.faults.config(cell.fault_seed));
        let spec = RunSpec {
            recovery: scenario.recovery.as_ref().map(|p| p.setup(cell.fault_seed)),
            trace_capacity: self.audit.then_some(flowtime_sim::DEFAULT_TRACE_CAPACITY),
            ..RunSpec::new(cell.algo)
        };
        let run = run_checked(&spec, &cluster, &workload);
        if let Some(trace) = &run.trace {
            let report = flowtime_sim::certify_with_recovery(
                &cluster,
                &workload,
                &run.outcome,
                trace,
                spec.recovery.as_ref(),
            );
            assert!(
                report.is_certified(),
                "audit rejected {} / {} / seed {}: {}",
                scenario.name,
                cell.algo.name(),
                cell.fault_seed,
                report.summary()
            );
        }
        cell_outcome(scenario, cell, run.outcome)
    }

    /// Executes the sweep on up to `threads` workers. The returned report
    /// is byte-identical for any `threads` value.
    pub fn run(&self, threads: usize) -> SweepReport {
        let cells = self.cells();
        let outcomes = run_cells(&cells, threads, |_, cell| self.run_cell(cell));
        let slot_seconds = self.cluster.slot_seconds();

        let mut rollups = Vec::with_capacity(self.scenarios.len() * self.schedulers.len());
        for (s, scenario) in self.scenarios.iter().enumerate() {
            for &algo in &self.schedulers {
                let group: Vec<&CellOutcome> = cells
                    .iter()
                    .zip(&outcomes)
                    .filter(|(c, _)| c.scenario == s && c.algo == algo)
                    .map(|(_, o)| o)
                    .collect();
                rollups.push(rollup(scenario, algo, &group, slot_seconds));
            }
        }
        SweepReport {
            experiment: SweepExperimentInfo {
                workflows: self.base.workflows,
                jobs_per_workflow: self.base.jobs_per_workflow,
                adhoc_horizon: self.base.adhoc_horizon,
                seed: self.base.seed,
            },
            scenarios: self.scenarios.clone(),
            schedulers: self.schedulers.iter().map(|a| a.name().into()).collect(),
            fault_seeds: self.fault_seeds.clone(),
            cells: outcomes.iter().map(|o| o.row.clone()).collect(),
            rollups,
        }
    }
}

/// Nearest-rank percentile over an already-sorted slice of slot counts,
/// converted to seconds. Deterministic: integer sort, one f64 multiply.
fn percentile_seconds(sorted_slots: &[u64], p: f64, slot_seconds: f64) -> f64 {
    if sorted_slots.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_slots.len() as f64) * p).ceil() as usize;
    let idx = rank.clamp(1, sorted_slots.len()) - 1;
    sorted_slots[idx] as f64 * slot_seconds
}

/// Measures one cell's outcome: its report row, its ad-hoc turnaround
/// samples, its worst milestone overrun and its telemetry.
fn cell_outcome(scenario: &SweepScenario, cell: &SweepCell, outcome: SimOutcome) -> CellOutcome {
    let metrics = &outcome.metrics;
    let mut adhoc_turnaround_slots: Vec<u64> =
        metrics.adhoc_jobs().map(|j| j.turnaround_slots()).collect();
    adhoc_turnaround_slots.sort_unstable();
    let adhoc_turnaround_s = if adhoc_turnaround_slots.is_empty() {
        0.0
    } else {
        let sum: u64 = adhoc_turnaround_slots.iter().sum();
        sum as f64 / adhoc_turnaround_slots.len() as f64 * metrics.slot_seconds
    };
    let attribution = &outcome.deadline_attribution;
    // Strict `>` keeps the first maximum in (workflow, node) order, so the
    // pick is deterministic.
    let mut top_culprit: Option<(u64, String)> = None;
    for a in attribution {
        for c in &a.culprits {
            if top_culprit
                .as_ref()
                .is_none_or(|(best, _)| c.overrun_slots > *best)
            {
                top_culprit = Some((c.overrun_slots, format!("{}:n{}", a.workflow, c.node)));
            }
        }
    }
    CellOutcome {
        row: SweepCellRow {
            scenario: scenario.name.clone(),
            algo: cell.algo.name().to_string(),
            fault_seed: cell.fault_seed,
            completed_jobs: metrics.completed_jobs(),
            deadline_jobs: metrics.deadline_jobs().count(),
            job_misses: metrics.job_deadline_misses(),
            workflow_misses: metrics.workflow_deadline_misses(),
            adhoc_turnaround_s,
            overrun_slots: attribution.iter().map(|a| a.total_overrun_slots).sum(),
            slots_elapsed: outcome.slots_elapsed,
            recovery: outcome.recovery,
        },
        adhoc_turnaround_slots,
        top_culprit,
        solver: outcome.solver_telemetry,
        engine: outcome.engine_telemetry,
    }
}

fn rollup(
    scenario: &SweepScenario,
    algo: Algo,
    group: &[&CellOutcome],
    slot_seconds: f64,
) -> SweepRollup {
    let mut deadline_jobs = 0usize;
    let mut job_misses = 0usize;
    let mut workflow_misses = 0usize;
    let mut pooled: Vec<u64> = Vec::new();
    let mut overrun_slots = 0u64;
    let mut top: Option<(u64, String)> = None;
    let mut solver: Option<SolverTelemetry> = None;
    let mut engine = EngineTelemetry::default();
    let mut recovery = RecoveryStats::default();
    for o in group {
        recovery.accumulate(&o.row.recovery);
        deadline_jobs += o.row.deadline_jobs;
        job_misses += o.row.job_misses;
        workflow_misses += o.row.workflow_misses;
        overrun_slots += o.row.overrun_slots;
        if let Some((ov, label)) = &o.top_culprit {
            if top.as_ref().is_none_or(|(best, _)| *ov > *best) {
                top = Some((*ov, label.clone()));
            }
        }
        pooled.extend_from_slice(&o.adhoc_turnaround_slots);
        if let Some(t) = &o.solver {
            solver
                .get_or_insert_with(SolverTelemetry::default)
                .accumulate(t);
        }
        engine.accumulate(&o.engine);
    }
    pooled.sort_unstable();
    SweepRollup {
        scenario: scenario.name.clone(),
        algo: algo.name().to_string(),
        cells: group.len(),
        deadline_jobs,
        job_misses,
        deadline_miss_rate: if deadline_jobs == 0 {
            0.0
        } else {
            job_misses as f64 / deadline_jobs as f64
        },
        workflow_misses,
        adhoc_p50_s: percentile_seconds(&pooled, 0.50, slot_seconds),
        adhoc_p90_s: percentile_seconds(&pooled, 0.90, slot_seconds),
        adhoc_p99_s: percentile_seconds(&pooled, 0.99, slot_seconds),
        overrun_slots,
        top_overrun_node: top.map(|(ov, l)| format!("{l} +{ov}")).unwrap_or_default(),
        solver_telemetry: solver,
        engine_telemetry: engine,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            base: WorkflowExperiment {
                workflows: 2,
                jobs_per_workflow: 5,
                adhoc_horizon: 50,
                ..Default::default()
            },
            cluster: crate::experiments::testbed_cluster(),
            scenarios: vec![SweepScenario::clean(), SweepScenario::mixed_faults()],
            schedulers: vec![Algo::Edf, Algo::Fifo],
            fault_seeds: vec![0, 1],
            audit: false,
        }
    }

    #[test]
    fn cells_expand_in_canonical_order() {
        let spec = tiny_spec();
        assert_eq!(spec.cell_count(), 8);
        let cells = spec.cells();
        let order: Vec<(usize, &str, u64)> = cells
            .iter()
            .map(|c| (c.scenario, c.algo.name(), c.fault_seed))
            .collect();
        assert_eq!(order[0], (0, "EDF", 0));
        assert_eq!(order[1], (0, "EDF", 1));
        assert_eq!(order[2], (0, "FIFO", 0));
        assert_eq!(order[4], (1, "EDF", 0));
        assert_eq!(order[7], (1, "FIFO", 1));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let spec = tiny_spec();
        let sequential = serde_json::to_string_pretty(&spec.run(1)).unwrap();
        let parallel = serde_json::to_string_pretty(&spec.run(4)).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn rollups_aggregate_their_group() {
        let spec = tiny_spec();
        let report = spec.run(2);
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.rollups.len(), 4);
        for r in &report.rollups {
            assert_eq!(r.cells, 2);
            let group: Vec<&SweepCellRow> = report
                .cells
                .iter()
                .filter(|c| c.scenario == r.scenario && c.algo == r.algo)
                .collect();
            assert_eq!(group.len(), 2);
            assert_eq!(r.job_misses, group.iter().map(|c| c.job_misses).sum());
            assert_eq!(r.deadline_jobs, group.iter().map(|c| c.deadline_jobs).sum());
            assert!(r.adhoc_p50_s <= r.adhoc_p90_s && r.adhoc_p90_s <= r.adhoc_p99_s);
            assert!(r.engine_telemetry.slots_simulated > 0);
        }
    }

    #[test]
    fn audited_sweep_certifies_and_leaves_report_bytes_unchanged() {
        let spec = tiny_spec();
        let plain = serde_json::to_string_pretty(&spec.run(1)).unwrap();
        let audited_spec = SweepSpec {
            audit: true,
            ..spec
        };
        // run() panics inside a cell if the auditor rejects it.
        let audited = serde_json::to_string_pretty(&audited_spec.run(2)).unwrap();
        assert_eq!(plain, audited);
    }

    #[test]
    fn chaos_sweep_audits_recovers_and_stays_thread_deterministic() {
        let spec = SweepSpec {
            scenarios: vec![SweepScenario::chaos(0.3)],
            audit: true,
            ..tiny_spec()
        };
        let run = spec.run(1);
        let fired: u64 = run
            .cells
            .iter()
            .map(|c| c.recovery.task_failures + c.recovery.crash_kills)
            .sum();
        assert!(fired > 0, "chaos scenario injected nothing");
        for r in &run.rollups {
            assert_eq!(
                r.recovery.retries,
                r.recovery.task_failures + r.recovery.crash_kills
            );
        }
        let sequential = serde_json::to_string_pretty(&run).unwrap();
        let parallel = serde_json::to_string_pretty(&spec.run(4)).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn recovery_free_scenarios_serialize_without_recovery_fields() {
        let spec = tiny_spec();
        let bytes = serde_json::to_string_pretty(&spec.run(1)).unwrap();
        assert!(!bytes.contains("\"recovery\""), "inert counters leaked");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let slots: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_seconds(&slots, 0.50, 10.0), 500.0);
        assert_eq!(percentile_seconds(&slots, 0.90, 10.0), 900.0);
        assert_eq!(percentile_seconds(&slots, 0.99, 10.0), 990.0);
        assert_eq!(percentile_seconds(&[], 0.5, 10.0), 0.0);
        assert_eq!(percentile_seconds(&[7], 0.99, 10.0), 70.0);
    }
}
