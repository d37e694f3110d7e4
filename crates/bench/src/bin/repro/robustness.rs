//! Robustness to estimation errors (paper Section III-A's third desired
//! property, extending the Fig. 5 ablation into a full curve): deadline
//! misses and ad-hoc turnaround as runtime under-estimation grows from 0%
//! to 40%, for FlowTime with and without deadline slack — followed by a
//! differential fault-seed sweep running all six algorithms on identical
//! fault-injected instances (log-normal misestimation + capacity churn +
//! arrival bursts from one seed each). Both grids execute on the
//! work-stealing sweep runner; results are deterministic for any thread
//! count.
//!
//! Usage: `repro robustness [seed] [fault-seeds] [threads]`

use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{
    run_checked, summarize, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::report;
use flowtime_bench::sweep::SweepSpec;
use flowtime_sim::run_cells;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    overrun_pct: u32,
    algo: String,
    job_misses: usize,
    workflow_misses: usize,
    adhoc_turnaround_s: f64,
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.positional(0, "seed", 20180702u64)?;
    let fault_seeds = args.positional(1, "fault-seeds", 5usize)?;
    let threads = args.positional(2, "threads", 1usize)?.max(1);
    let cluster = testbed_cluster();
    println!("robustness: misses vs. runtime under-estimation, seed {seed}\n");
    println!(
        "{:>9} {:>18} {:>8} {:>9} {:>14}",
        "overrun", "algorithm", "misses", "wf-miss", "adhoc tat (s)"
    );
    // The overrun curve as a (level × algorithm) cell grid on the sweep
    // runner: cells are independent simulations, results come back in grid
    // order regardless of thread count.
    let grid: Vec<(u32, Algo)> = [0u32, 10, 20, 30, 40]
        .iter()
        .flat_map(|&pct| [(pct, Algo::FlowTime), (pct, Algo::FlowTimeNoDs)])
        .collect();
    let points: Vec<Point> = run_cells(&grid, threads, |_, &(overrun_pct, algo)| {
        let exp = WorkflowExperiment {
            overrun: overrun_pct as f64 / 100.0,
            seed,
            ..Default::default()
        };
        let (outcome, _) =
            run_checked(&RunSpec::new(algo), &cluster, &exp.build(&cluster)).into_single();
        let row = summarize(algo, &outcome.metrics);
        Point {
            overrun_pct,
            algo: row.algo,
            job_misses: row.job_misses,
            workflow_misses: row.workflow_misses,
            adhoc_turnaround_s: row.adhoc_turnaround_s,
        }
    });
    for p in &points {
        println!(
            "{:>8}% {:>18} {:>8} {:>9} {:>14.1}",
            p.overrun_pct, p.algo, p.job_misses, p.workflow_misses, p.adhoc_turnaround_s
        );
    }
    report::persist("robustness", &points);
    println!("\nslack (sized for ~20% error) roughly halves misses at every error level.");

    println!(
        "\nrobustness: all algorithms under mixed fault injection \
         (misestimation σ=0.25, 20% churn, bursts), {fault_seeds} seeds, {threads} thread(s)\n"
    );
    let sweep = SweepSpec::robustness(seed, fault_seeds).run(threads);
    println!(
        "{:>10} {:>18} {:>8} {:>9} {:>10} {:>14}",
        "fault-seed", "algorithm", "misses", "wf-miss", "completed", "adhoc tat (s)"
    );
    for c in &sweep.cells {
        println!(
            "{:>10} {:>18} {:>8} {:>9} {:>10} {:>14.1}",
            c.fault_seed,
            c.algo,
            c.job_misses,
            c.workflow_misses,
            c.completed_jobs,
            c.adhoc_turnaround_s
        );
    }
    println!("\nper-algorithm rollups over all {fault_seeds} fault seeds:");
    for r in &sweep.rollups {
        println!(
            "{:>18}  miss-rate {:>6.3}  adhoc p50/p90/p99 {:>6.0}/{:>6.0}/{:>6.0}s",
            r.algo, r.deadline_miss_rate, r.adhoc_p50_s, r.adhoc_p90_s, r.adhoc_p99_s
        );
    }
    report::persist("robustness_faults", &sweep);
    println!(
        "\n{} cells; every run above passed the engine's per-slot invariant checker.",
        sweep.cells.len()
    );
    Ok(())
}
