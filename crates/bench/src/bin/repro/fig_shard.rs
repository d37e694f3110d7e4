//! Pod-sharding curve — what splitting one cluster into K pods does to
//! replans and deadline misses.
//!
//! Runs the same clean workload sharded across pods ∈ `--pods` (default
//! 1,2,4,8), each pod an independent FlowTime engine with its own plan
//! cache, and records per pod count the replans and deadline misses
//! summed over the pods. Every cell is run on 1 worker and
//! on K workers and the outcomes byte-compared (determinism), then rerun
//! traced and certified by the sharded auditor
//! ([`flowtime_sim::certify_sharded`]), including the cross-pod
//! conservation checks. The persisted `results/fig_shard.json` is a pure
//! function of the flags (CI diffs it against the committed file);
//! sharding has no wall-clock reading until `benchmark/` grows a sharded
//! workload.
//!
//! Usage: `repro fig_shard [--pods 1,2,4,8] [--workflows 8] [--jobs 12]
//! [--adhoc-horizon 400]`

use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{run_checked, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::report;
use flowtime_sim::{certify_sharded, ShardedOutcome, DEFAULT_TRACE_CAPACITY};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ShardRow {
    pods: usize,
    /// Jobs completed across all pods.
    completed_jobs: usize,
    /// Per-job milestone misses across all pods.
    job_misses: usize,
    /// Workflow deadline misses across all pods.
    workflow_misses: usize,
    /// Slowest pod's makespan in slots.
    slots_elapsed: u64,
    /// Total solver replans (LP/flow re-solves and cache hits) across all
    /// pods' telemetry.
    replans: u64,
    /// The sharded auditor certified this cell (always true — a rejected
    /// cell aborts the experiment).
    certified: bool,
}

#[derive(Debug, Serialize)]
struct ShardReport {
    scheduler: String,
    workflows: usize,
    jobs_per_workflow: usize,
    adhoc_horizon: u64,
    seed: u64,
    rows: Vec<ShardRow>,
}

pub fn run(args: &Args) -> Result<(), String> {
    let pods = args
        .list::<usize>("pods")?
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let workflows = args.get_parsed("workflows", 8usize)?;
    let jobs = args.get_parsed("jobs", 12usize)?;
    let adhoc_horizon = args.get_parsed("adhoc-horizon", 400u64)?;

    let exp = WorkflowExperiment {
        workflows,
        jobs_per_workflow: jobs,
        adhoc_horizon,
        ..Default::default()
    };
    let cluster = testbed_cluster();
    let workload = exp.build(&cluster);
    println!("fig_shard: FlowTime on {workflows}x{jobs} workflows + ad-hoc stream");
    println!("{:>5} {:>7} {:>10}", "pods", "misses", "replans");

    let mut rows: Vec<ShardRow> = Vec::new();
    for &k in &pods {
        let run = |threads: usize, trace_capacity: Option<usize>| {
            let spec = RunSpec {
                pods: k,
                trace_capacity,
                threads,
                ..RunSpec::new(Algo::FlowTime)
            };
            run_checked(&spec, &cluster, &workload)
        };
        let outcome_bytes = |outcome: &ShardedOutcome| {
            serde_json::to_string(outcome).map_err(|e| format!("pods={k}: outcome: {e}"))
        };

        // Determinism: thread count must not change a byte.
        let serial = run(1, None).outcome;
        let serial_bytes = outcome_bytes(&serial)?;
        if outcome_bytes(&run(k, None).outcome)? != serial_bytes {
            return Err(format!("pods={k}: serial and parallel outcomes diverge"));
        }

        // Certification: traced rerun must be byte-identical and pass the
        // sharded auditor's cross-pod + per-pod checks.
        let traced = run(k, Some(DEFAULT_TRACE_CAPACITY));
        if outcome_bytes(&traced.outcome)? != serial_bytes {
            return Err(format!("pods={k}: traced outcome diverges from untraced"));
        }
        let audit = certify_sharded(
            &cluster,
            &workload,
            k,
            &traced.outcome,
            &traced.traces,
            None,
        );
        if !audit.is_certified() {
            return Err(format!(
                "pods={k}: audit rejected the run: {}",
                audit.summary()
            ));
        }

        let row = ShardRow {
            pods: k,
            completed_jobs: serial.completed_jobs(),
            job_misses: serial.job_deadline_misses(),
            workflow_misses: serial.workflow_deadline_misses(),
            slots_elapsed: serial.slots_elapsed(),
            replans: serial
                .pods
                .iter()
                .filter_map(|p| p.solver_telemetry.as_ref())
                .map(|t| t.replans)
                .sum(),
            certified: true,
        };
        println!(
            "{:>5} {:>7} {:>10}",
            k,
            row.job_misses + row.workflow_misses,
            row.replans
        );
        rows.push(row);
    }

    report::persist(
        "fig_shard",
        &ShardReport {
            scheduler: Algo::FlowTime.name().to_string(),
            workflows,
            jobs_per_workflow: jobs,
            adhoc_horizon,
            seed: exp.seed,
            rows,
        },
    );
    println!("report written to results/fig_shard.json");
    Ok(())
}
