//! Fig. 5 — the deadline-slack ablation.
//!
//! Same workload as Fig. 4 but with runtime *under-estimation* (the actual
//! work exceeds the estimate by up to `--overrun`, default 20%), comparing
//! FlowTime against FlowTime_no_ds (slack = 0). The paper reports 5 jobs
//! missing deadlines without slack versus 0 with it, at essentially equal
//! ad-hoc turnaround (522.5 s vs 531.5 s).
//!
//! Usage: `repro fig5 [seed] [--overrun 0.2]`

use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{
    run_checked, summarize, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::report;

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.positional(0, "seed", 20180702u64)?;
    let overrun = args.get_parsed("overrun", 0.2f64)?;

    let cluster = testbed_cluster();
    let exp = WorkflowExperiment {
        overrun,
        seed,
        ..Default::default()
    };
    println!(
        "fig5: slack ablation with up to {:.0}% runtime under-estimation, seed {}",
        overrun * 100.0,
        seed
    );
    let mut rows = Vec::new();
    for algo in [Algo::FlowTime, Algo::FlowTimeNoDs] {
        let outcome = run_checked(&RunSpec::new(algo), &cluster, &exp.build(&cluster)).outcome;
        rows.push(summarize(algo, &outcome.metrics));
    }
    println!();
    print!(
        "{}",
        report::render_table("Fig. 5 — effect of deadline slack", &rows)
    );
    report::persist("fig5", &rows);
    Ok(())
}
