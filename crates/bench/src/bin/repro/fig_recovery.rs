//! Deadline misses under mid-run failures and recovery: the chaos grid.
//!
//! Sweeps a task-failure-rate axis (with a constant background of periodic
//! 30%-severity node crashes and 10% stragglers) across every Fig. 4
//! algorithm, with the bounded-retry recovery policy healing each kill,
//! plus one shedding variant where the admission controller drops ad-hoc
//! jobs under sustained overload. Every cell is audited: the offline
//! certifier replays the decision trace, recounts every kill, retry, and
//! shed against the seeded fault plan, and aborts the sweep on any
//! discrepancy. The persisted `results/fig_recovery.json` report is a pure
//! function of the spec — byte-identical for any thread count.
//!
//! Usage: `repro fig_recovery [seed] [fault-seeds] [threads]`

use flowtime::Args;
use flowtime_bench::experiments::{testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::sweep::{RecoveryProfile, SweepScenario, SweepSpec};
use flowtime_sim::ShedPolicy;

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.positional(0, "seed", 20180702u64)?;
    let fault_seeds = args.positional(1, "fault-seeds", 2u64)?;
    let threads = args.positional(2, "threads", 1usize)?.max(1);

    // The failure-rate axis; rate 0 shows the crash+straggler background
    // alone, so the marginal cost of task failures reads off the column.
    let mut scenarios: Vec<SweepScenario> = [0.0, 0.1, 0.2, 0.4]
        .iter()
        .map(|&rate| SweepScenario::chaos(rate))
        .collect();
    // Graceful degradation variant: same failures, but sustained ad-hoc
    // overload sheds instead of queueing.
    let mut shedding = SweepScenario::chaos(0.2).with_recovery(RecoveryProfile {
        shed: ShedPolicy::Shed,
        overload_factor: 1.0,
        overload_sustain: 3,
        ..RecoveryProfile::chaos(0.2)
    });
    shedding.name = "chaos-20-shed".into();
    scenarios.push(shedding);

    let spec = SweepSpec {
        base: WorkflowExperiment {
            workflows: 3,
            jobs_per_workflow: 10,
            adhoc_horizon: 240,
            seed,
            ..Default::default()
        },
        cluster: testbed_cluster(),
        scenarios,
        schedulers: Algo::FIG4.to_vec(),
        fault_seeds: (0..fault_seeds).collect(),
        audit: true,
    };
    println!(
        "fig_recovery: deadline misses vs mid-run task-failure rate, \
         {} audited cells on {threads} thread(s)\n",
        spec.cell_count()
    );
    let report = spec.run(threads);
    println!(
        "{:>14} {:>18} {:>10} {:>8} {:>8} {:>8} {:>6} {:>12}",
        "scenario", "algorithm", "miss-rate", "fails", "kills", "retries", "shed", "adhoc p90 (s)"
    );
    for r in &report.rollups {
        println!(
            "{:>14} {:>18} {:>10.3} {:>8} {:>8} {:>8} {:>6} {:>12.0}",
            r.scenario,
            r.algo,
            r.deadline_miss_rate,
            r.recovery.task_failures,
            r.recovery.crash_kills,
            r.recovery.retries,
            r.recovery.shed_jobs,
            r.adhoc_p90_s,
        );
    }
    flowtime_bench::report::persist("fig_recovery", &report);
    println!(
        "\n{} cells certified by the offline auditor; \
         report written to results/fig_recovery.json",
        report.cells.len()
    );
    Ok(())
}
