//! Fig. 5 — the deadline-slack ablation.
//!
//! Same workload as Fig. 4 but with runtime *under-estimation* (the actual
//! work exceeds the estimate by up to `--overrun`, default 20%), comparing
//! FlowTime against FlowTime_no_ds (slack = 0). The paper reports 5 jobs
//! missing deadlines without slack versus 0 with it, at essentially equal
//! ad-hoc turnaround (522.5 s vs 531.5 s).
//!
//! Usage: `fig5 [seed] [--overrun 0.2]`

use flowtime::RunSpec;
use flowtime_bench::experiments::{
    run_checked, summarize, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = args
        .iter()
        .find_map(|a| a.parse::<u64>().ok())
        .unwrap_or(20180702);
    let overrun = args
        .iter()
        .position(|a| a == "--overrun")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.2);

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
        let (outcome, _) =
            run_checked(&RunSpec::new(algo), &cluster, &exp.build(&cluster)).into_single();
        rows.push(summarize(algo, &outcome.metrics));
    }
    println!();
    print!(
        "{}",
        report::render_table("Fig. 5 — effect of deadline slack", &rows)
    );
    report::persist("fig5", &rows);
}
