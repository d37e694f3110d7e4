//! Ablations of FlowTime's design choices (DESIGN.md §7) on the Fig. 4
//! workload:
//!
//! 1. **Decomposer**: the paper's demand-proportional split vs. the
//!    traditional critical-path split (quantifies the Fig. 3 argument
//!    end-to-end, not just on windows).
//! 2. **Deadline slack magnitude**: 0 / 2 / 6 / 12 slots under runtime
//!    under-estimation (the paper fixes 60 s and leaves tuning to future
//!    work — this is that future work).
//! 3. **Solver backend**: parametric flow vs. simplex LP, same plans,
//!    different cost.
//!
//! Usage: `repro ablation [seed]`

use flowtime::decompose::Decomposer;
use flowtime::lp_sched::SolverBackend;
use flowtime::{Args, FlowTimeConfig, FlowTimeScheduler};
use flowtime_bench::experiments::{summarize, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::report;
use flowtime_sim::Engine;

fn run_config(
    name: &str,
    config: FlowTimeConfig,
    exp: &WorkflowExperiment,
) -> flowtime_bench::SummaryRow {
    let cluster = testbed_cluster();
    let workload = exp.build(&cluster);
    let mut scheduler = FlowTimeScheduler::new(cluster.clone(), config);
    let metrics = Engine::new(cluster, workload, 1_000_000)
        .expect("valid workload")
        .run(&mut scheduler)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut row = summarize(Algo::FlowTime, &metrics.metrics);
    row.algo = format!("{name} ({} solves)", scheduler.solves());
    row
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed = args.positional(0, "seed", 20180702u64)?;

    // --- 1. decomposer ablation (exact estimates) ------------------------
    let exp = WorkflowExperiment {
        seed,
        ..Default::default()
    };
    let rows = vec![
        run_config(
            "demand-split",
            FlowTimeConfig {
                decomposer: Decomposer::ResourceDemand,
                ..Default::default()
            },
            &exp,
        ),
        run_config(
            "critical-path",
            FlowTimeConfig {
                decomposer: Decomposer::CriticalPath,
                ..Default::default()
            },
            &exp,
        ),
    ];
    print!(
        "{}",
        report::render_table("Ablation 1 — deadline decomposer", &rows)
    );
    report::persist("ablation_decomposer", &rows);

    // --- 2. slack sweep under 20% under-estimation -----------------------
    let noisy = WorkflowExperiment {
        overrun: 0.2,
        seed,
        ..Default::default()
    };
    let rows: Vec<_> = [0u64, 2, 6, 12]
        .into_iter()
        .map(|slack| {
            run_config(
                &format!("slack={slack}"),
                FlowTimeConfig {
                    slack_slots: slack,
                    ..Default::default()
                },
                &noisy,
            )
        })
        .collect();
    println!();
    print!(
        "{}",
        report::render_table("Ablation 2 — slack magnitude (20% overrun)", &rows)
    );
    report::persist("ablation_slack", &rows);

    // --- 3. solver backend ----------------------------------------------
    // The dense simplex is 100-1000x slower than the flow backend per
    // solve (Fig. 7), so this leg runs on a trimmed workload; the point is
    // that both backends produce equivalent schedules.
    let small = WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 8,
        adhoc_horizon: 120,
        seed,
        ..Default::default()
    };
    let rows = vec![
        run_config(
            "flow backend",
            FlowTimeConfig {
                backend: SolverBackend::ParametricFlow,
                ..Default::default()
            },
            &small,
        ),
        run_config(
            "simplex backend",
            FlowTimeConfig {
                backend: SolverBackend::Simplex { lex_rounds: 2 },
                ..Default::default()
            },
            &small,
        ),
    ];
    println!();
    print!(
        "{}",
        report::render_table("Ablation 3 — solver backend", &rows)
    );
    report::persist("ablation_backend", &rows);
    Ok(())
}
