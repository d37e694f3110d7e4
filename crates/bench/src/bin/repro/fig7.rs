//! Fig. 7 — scheduling-solver latency.
//!
//! Measures the time to solve the placement optimization as the number of
//! deadline-aware jobs grows, on the paper's Fig. 7 configuration: 500 CPU
//! cores, 1 TB of memory, 100 slots of 10 s (a 1000 s span). The paper
//! solves with CPLEX; we report both of our exact backends — the bundled
//! simplex LP and the parametric max-flow solver. Absolute numbers differ
//! from CPLEX; the shape to reproduce is sub-second growth with job count.
//!
//! This is one of the two stopwatches outside `benchmark/`: latency
//! against job count on this configuration *is* the paper's Fig. 7. The
//! layer suite's `flow.solve_ms.j*` / `simplex.{cold,warm}_ms.j*` rows own
//! every other solver timing, warm-vs-cold included.
//!
//! Usage: `repro fig7 [--max-jobs 100] [--reps 5]`

use flowtime::lp_sched::{LevelingProblem, PlanJob, SolverBackend};
use flowtime::Args;
use flowtime_bench::experiments::fig7_cluster;
use flowtime_dag::{JobId, ResourceVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

const SLOTS: usize = 100;

#[derive(Debug, Serialize)]
struct Point {
    jobs: usize,
    backend: &'static str,
    mean_ms: f64,
}

fn instance(jobs: usize, seed: u64) -> LevelingProblem {
    let cluster = fig7_cluster();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan_jobs = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let start = rng.gen_range(0..SLOTS - 10);
        let len = rng.gen_range(10..=SLOTS - start);
        let window = (start, start + len);
        // Containers of 1 core / 2 GiB; demand sized so ~100 jobs load the
        // cluster to roughly half on average.
        let demand = rng.gen_range(100..400);
        plan_jobs.push(PlanJob {
            id: JobId::new(i as u64),
            window,
            demand,
            per_task: ResourceVec::new([1, 2048]),
            per_slot_cap: Some(rng.gen_range(20..80)),
        });
    }
    LevelingProblem {
        slot_caps: vec![cluster.capacity(); SLOTS],
        jobs: plan_jobs,
    }
}

fn measure(problem: &LevelingProblem, backend: SolverBackend, reps: usize) -> f64 {
    let mut total = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let plan = problem.solve(backend).expect("feasible instance");
        std::hint::black_box(&plan);
        total += t0.elapsed().as_secs_f64();
    }
    total * 1e3 / reps as f64
}

pub fn run(args: &Args) -> Result<(), String> {
    let max_jobs = args.get_parsed("max-jobs", 100usize)?;
    let reps = args.get_parsed("reps", 5usize)?;

    println!("fig7: solver latency, {SLOTS} slots x 10 s, cluster 500 cores / 1 TB, {reps} reps");
    println!(
        "{:>6} {:>18} {:>18}",
        "jobs", "simplex LP (ms)", "param. flow (ms)"
    );
    let mut points = Vec::new();
    for jobs in (1..=max_jobs / 10).map(|i| i * 10) {
        // Rejection-sample seeds until the random instance is feasible
        // (dense random windows can locally over-commit the cluster).
        let problem = (0..50u64)
            .map(|offset| instance(jobs, 42 + jobs as u64 + offset * 1000))
            .find(|candidate| candidate.solve(SolverBackend::ParametricFlow).is_ok())
            .ok_or_else(|| format!("no feasible {jobs}-job instance in 50 seeds"))?;
        let lp_ms = measure(&problem, SolverBackend::Simplex { lex_rounds: 1 }, reps);
        let flow_ms = measure(&problem, SolverBackend::ParametricFlow, reps);
        println!("{jobs:>6} {lp_ms:>18.2} {flow_ms:>18.2}");
        points.push(Point {
            jobs,
            backend: "simplex",
            mean_ms: lp_ms,
        });
        points.push(Point {
            jobs,
            backend: "flow",
            mean_ms: flow_ms,
        });
    }
    flowtime_bench::report::persist("fig7", &points);
    Ok(())
}
