//! Pod-sharding scaling curve — per-pod FlowTime LP solves vs one
//! monolithic solve.
//!
//! Runs the same clean workload sharded across pods ∈ `--pods` (default
//! 1,2,4,8), each pod an independent FlowTime engine with its own plan
//! cache, and records wall time twice per pod count: **serial** (pods run
//! one after another on 1 worker — isolates the algorithmic win of
//! solving K small LPs instead of one big one) and **parallel** (pods run
//! on K workers via the work-stealing runner — adds the multi-core win).
//! Every cell is certified by the sharded auditor
//! ([`flowtime_sim::certify_sharded`]), including the cross-pod
//! conservation checks, and the serial and parallel outcomes are
//! byte-compared (determinism). Host parallelism is embedded in the
//! report so a flat parallel curve on a 1-core box is self-explaining.
//!
//! Usage: `fig_shard [--pods 1,2,4,8] [--placer demand] [--workflows 8]
//! [--jobs 12] [--adhoc-horizon 400] [--check-speedup N]`
//!
//! `--check-speedup N` exits nonzero unless the largest pod count's
//! *serial* wall time beats the unsharded run by at least N× — the
//! algorithmic floor, chosen so the gate also holds on 1-core runners;
//! multi-core CI additionally reports the parallel speedup.

use flowtime::RunSpec;
use flowtime_bench::experiments::{run_checked, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::report;
use flowtime_sim::{certify_sharded, Placer, ShardSpec, DEFAULT_TRACE_CAPACITY};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ShardRow {
    pods: usize,
    /// Wall ms with pods executed sequentially (1 worker).
    serial_wall_ms: f64,
    /// Wall ms with pods executed on `pods` workers.
    parallel_wall_ms: f64,
    /// Serial-vs-unsharded speedup (the algorithmic win).
    serial_speedup: f64,
    /// Parallel-vs-unsharded speedup (algorithmic + multi-core win).
    parallel_speedup: f64,
    /// Jobs completed across all pods.
    completed_jobs: usize,
    /// Per-job milestone misses across all pods.
    job_misses: usize,
    /// Workflow deadline misses across all pods.
    workflow_misses: usize,
    /// Slowest pod's makespan in slots.
    slots_elapsed: u64,
    /// Cross-pod rebalance moves recorded in the placement.
    rebalances: usize,
    /// Total solver replans (LP/flow re-solves and cache hits) across all
    /// pods' telemetry.
    replans: u64,
    /// The sharded auditor certified this cell (always true — a rejected
    /// cell aborts the bin).
    certified: bool,
}

#[derive(Debug, Serialize)]
struct ShardReport {
    scheduler: String,
    placer: &'static str,
    workflows: usize,
    jobs_per_workflow: usize,
    adhoc_horizon: u64,
    seed: u64,
    host: report::HostMeta,
    rows: Vec<ShardRow>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let pods: Vec<usize> = get("--pods")
        .map(String::as_str)
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("--pods wants numbers"))
        .collect();
    let placer = get("--placer").map_or(Placer::Demand, |v| {
        Placer::parse(v).unwrap_or_else(|| panic!("unknown placer '{v}'"))
    });
    let workflows: usize = get("--workflows").map_or(8, |v| v.parse().expect("--workflows"));
    let jobs: usize = get("--jobs").map_or(12, |v| v.parse().expect("--jobs"));
    let adhoc_horizon: u64 =
        get("--adhoc-horizon").map_or(400, |v| v.parse().expect("--adhoc-horizon"));
    let check_speedup: Option<f64> =
        get("--check-speedup").map(|v| v.parse().expect("--check-speedup"));

    let exp = WorkflowExperiment {
        workflows,
        jobs_per_workflow: jobs,
        adhoc_horizon,
        ..Default::default()
    };
    let cluster = testbed_cluster();
    let workload = exp.build(&cluster);
    let host = report::host_meta();
    println!(
        "fig_shard: FlowTime on {workflows}x{jobs} workflows + ad-hoc stream, \
         placer {}, host cores {}",
        placer.name(),
        host.available_parallelism
    );
    println!(
        "{:>5} {:>13} {:>15} {:>9} {:>9} {:>7} {:>7} {:>10}",
        "pods", "serial (ms)", "parallel (ms)", "ser x", "par x", "misses", "rebal", "replans"
    );

    let mut rows: Vec<ShardRow> = Vec::new();
    let mut base_wall: Option<f64> = None;
    for &k in &pods {
        let spec = ShardSpec::new(k).with_placer(placer);
        let run = |threads: usize, trace_capacity: Option<usize>| {
            let spec = RunSpec {
                shard: spec.clone(),
                trace_capacity,
                threads,
                ..RunSpec::new(Algo::FlowTime)
            };
            run_checked(&spec, &cluster, &workload)
        };

        let t0 = Instant::now();
        let serial = run(1, None).outcome;
        let serial_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let parallel = run(k, None).outcome;
        let parallel_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Determinism: thread count must not change a byte.
        let serial_bytes = serde_json::to_string(&serial).expect("outcome serializes");
        let parallel_bytes = serde_json::to_string(&parallel).expect("outcome serializes");
        assert_eq!(
            serial_bytes, parallel_bytes,
            "pods={k}: serial and parallel outcomes diverge"
        );

        // Certification: traced rerun must be byte-identical and pass the
        // sharded auditor's cross-pod + per-pod checks.
        let traced = run(k, Some(DEFAULT_TRACE_CAPACITY));
        assert_eq!(
            serde_json::to_string(&traced.outcome).expect("outcome serializes"),
            serial_bytes,
            "pods={k}: traced outcome diverges from untraced"
        );
        let audit = certify_sharded(
            &cluster,
            &workload,
            &spec,
            &traced.outcome,
            &traced.traces,
            None,
        );
        assert!(
            audit.is_certified(),
            "pods={k}: audit rejected the run: {}",
            audit.summary()
        );

        if k == 1 {
            base_wall = Some(serial_wall_ms);
        }
        let base = base_wall.unwrap_or(serial_wall_ms);
        let replans = serial
            .pods
            .iter()
            .filter_map(|p| p.solver_telemetry.as_ref())
            .map(|t| t.replans)
            .sum();
        let row = ShardRow {
            pods: k,
            serial_wall_ms,
            parallel_wall_ms,
            serial_speedup: base / serial_wall_ms.max(1e-9),
            parallel_speedup: base / parallel_wall_ms.max(1e-9),
            completed_jobs: serial.completed_jobs(),
            job_misses: serial.job_deadline_misses(),
            workflow_misses: serial.workflow_deadline_misses(),
            slots_elapsed: serial.slots_elapsed(),
            rebalances: serial.placement.rebalances.len(),
            replans,
            certified: true,
        };
        println!(
            "{:>5} {:>13.1} {:>15.1} {:>8.1}x {:>8.1}x {:>7} {:>7} {:>10}",
            k,
            row.serial_wall_ms,
            row.parallel_wall_ms,
            row.serial_speedup,
            row.parallel_speedup,
            row.job_misses + row.workflow_misses,
            row.rebalances,
            row.replans
        );
        rows.push(row);
    }
    let last_row = rows.last().map(|r| (r.pods, r.serial_speedup));

    report::persist(
        "fig_shard",
        &ShardReport {
            scheduler: Algo::FlowTime.name().to_string(),
            placer: placer.name(),
            workflows,
            jobs_per_workflow: jobs,
            adhoc_horizon,
            seed: exp.seed,
            host,
            rows,
        },
    );
    println!("report written to results/fig_shard.json");

    if let Some(floor) = check_speedup {
        let (last_pods, speedup) = last_row.expect("--pods must not be empty");
        println!("serial speedup at {last_pods} pods: {speedup:.1}x (floor {floor}x)");
        if speedup < floor {
            eprintln!("error: {last_pods} pods only {speedup:.1}x faster (serial) than unsharded");
            std::process::exit(1);
        }
    }
}
