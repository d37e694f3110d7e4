//! Trace-driven simulation (paper Section VII, large-scale part).
//!
//! The paper complements its testbed runs with trace-driven simulations of
//! production workloads. The production trace is proprietary, so this
//! experiment simulates on the synthetic stand-in generated by
//! `flowtime_workload::Trace::synthesize_production`, calibrated to what
//! the paper reports about it: recurring workflows with very loose
//! deadlines (24 h deadline vs ~2 h runtime), bursty ad-hoc jobs, and
//! imperfect runtime estimates.
//!
//! Usage: `repro trace_sim [seed] [--workflows 10] [--save trace.jsonl]
//! [--load trace.jsonl]`
//!
//! Every algorithm runs through the one run path ([`flowtime::run`] via
//! the bench harness).

use flowtime::decompose::{decompose, DecomposeConfig};
use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{run_checked, summarize, Algo, SLOT_SECONDS};
use flowtime_bench::report;
use flowtime_dag::ResourceVec;
use flowtime_sim::ClusterConfig;
use flowtime_workload::trace::{ProductionTraceConfig, Trace};

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.positional(0, "seed", 7u64)?;
    let workflows = args.get_parsed("workflows", 10usize)?;

    let cluster = ClusterConfig::new(ResourceVec::new([160, 655_360]), SLOT_SECONDS);
    let mut trace = if let Some(path) = args.get("load") {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("cannot open trace file {path:?}: {e}"))?;
        Trace::read_jsonl(std::io::BufReader::new(file))
            .map_err(|e| format!("malformed trace file {path:?}: {e}"))?
    } else {
        Trace::synthesize_production(
            cluster.clone(),
            &ProductionTraceConfig {
                workflows,
                ..Default::default()
            },
            seed,
        )
    };
    // Attach scheduler-independent milestone deadlines (the same demand
    // decomposition every algorithm is judged against in Fig. 4).
    let decompose_cfg = DecomposeConfig::new(trace.cluster.capacity());
    for sub in &mut trace.workload.workflows {
        if sub.job_deadlines.is_none() {
            if let Ok(d) = decompose(&sub.workflow, &decompose_cfg) {
                sub.job_deadlines = Some(d.job_deadlines());
            }
        }
    }
    if let Some(path) = args.get("save") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
        trace
            .write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write trace file {path:?}: {e}"))?;
        println!("trace saved to {path}");
    }
    println!(
        "trace_sim: {} workflows / {} deadline jobs / {} ad-hoc jobs, seed {}",
        trace.workload.workflows.len(),
        trace
            .workload
            .workflows
            .iter()
            .map(|w| w.workflow.len())
            .sum::<usize>(),
        trace.workload.adhoc.len(),
        seed
    );
    let mut rows = Vec::new();
    for algo in Algo::FIG4 {
        let outcome = run_checked(&RunSpec::new(algo), &trace.cluster, &trace.workload).outcome;
        rows.push(summarize(algo, &outcome.metrics));
    }
    println!();
    print!("{}", report::render_table("Trace-driven simulation", &rows));
    report::persist("trace_sim", &rows);
    Ok(())
}
