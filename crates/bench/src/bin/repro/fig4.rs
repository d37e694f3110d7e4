//! Fig. 4 — deadline-aware workflows sharing the cluster with ad-hoc jobs.
//!
//! Reproduces all three panels of the paper's headline comparison:
//! (a) completion-minus-deadline deltas, (b) the number of jobs missing
//! their (decomposed) deadlines, (c) the average ad-hoc job turnaround —
//! for FlowTime, CORA, EDF, Fair, FIFO (plus the Morpheus baseline named
//! in Section VII-A).
//!
//! Usage: `repro fig4 [seed] [--quick]`

use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{
    run_checked, summarize, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::report;

pub fn run(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let seed = args.positional(0, "seed", 20180702u64)?;

    let cluster = testbed_cluster();
    let exp = if quick {
        WorkflowExperiment {
            workflows: 3,
            jobs_per_workflow: 8,
            adhoc_horizon: 150,
            seed,
            ..Default::default()
        }
    } else {
        WorkflowExperiment {
            seed,
            ..Default::default()
        }
    };

    println!(
        "fig4: {} workflows x {} jobs, adhoc rate {}/slot over {} slots, seed {}",
        exp.workflows, exp.jobs_per_workflow, exp.adhoc_rate, exp.adhoc_horizon, exp.seed
    );
    let mut rows = Vec::new();
    for algo in Algo::FIG4 {
        let workload = exp.build(&cluster);
        let outcome = run_checked(&RunSpec::new(algo), &cluster, &workload).outcome;
        rows.push(summarize(algo, &outcome.metrics));
    }
    println!();
    print!(
        "{}",
        report::render_table("Fig. 4 — deadlines and ad-hoc turnaround", &rows)
    );
    report::persist("fig4", &rows);
    Ok(())
}
