//! Diagnosis coverage of the `explain` engine over the chaos grid
//! (`results/fig_explain.json`).
//!
//! Every cell of a chaos grid (task-failure rate × scheduler × fault
//! seed) is run traced, certified, and fed to [`flowtime_sim::explain`];
//! the figure quantifies how much of what went wrong the diagnostic
//! layer can actually account for: the fraction of missed workflows with
//! a *complete* causal chain (every culprit node explained down to E00x
//! evidence), plus the E00x code histogram. A cell whose run the auditor
//! rejects — or whose slack accounting fails to balance against the
//! `MissAttribution` recount — aborts the experiment: coverage numbers over
//! uncertified runs would be meaningless.
//!
//! Usage: `repro fig_explain [--threads N] [--seeds N] [--rates 0.1,0.3,0.5]`

use flowtime::{Args, RunSpec};
use flowtime_bench::experiments::{run_checked, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::report;
use flowtime_bench::sweep::RecoveryProfile;
use flowtime_sim::{explain, run_cells, DEFAULT_TRACE_CAPACITY};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Serialize)]
struct CellRow {
    /// Chaos scenario name (`chaos-<rate%>`).
    scenario: String,
    /// Scheduler name.
    algo: String,
    /// Fault seed of this cell.
    fault_seed: u64,
    /// Workflows that missed their deadline.
    missed_workflows: usize,
    /// Missed workflows whose causal chain is complete.
    complete_chains: usize,
    /// Diagnostics emitted across all chains.
    diagnostics: usize,
    /// E00x code histogram of the cell.
    codes: BTreeMap<String, u64>,
}

#[derive(Debug, Serialize)]
struct Totals {
    missed_workflows: usize,
    complete_chains: usize,
    /// `complete_chains / missed_workflows`, in percent (100 when the
    /// grid produced no misses at all).
    coverage_pct: f64,
    diagnostics: usize,
    codes: BTreeMap<String, u64>,
}

#[derive(Debug, Serialize)]
struct ExplainFigure {
    rates: Vec<f64>,
    fault_seeds: Vec<u64>,
    threads: usize,
    rows: Vec<CellRow>,
    totals: Totals,
}

pub fn run(args: &Args) -> Result<(), String> {
    let threads = args.get_parsed("threads", 4usize)?;
    let seeds = args.get_parsed("seeds", 3u64)?;
    let rates = args
        .list::<f64>("rates")?
        .unwrap_or_else(|| vec![0.1, 0.3, 0.5]);
    let fault_seeds: Vec<u64> = (0..seeds).map(|i| 11 + 31 * i).collect();

    let cluster = testbed_cluster();
    // Deadlines tight enough that chaos actually causes misses — a grid
    // with nothing to diagnose measures nothing.
    let workload = WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        looseness: 1.8,
        adhoc_horizon: 40,
        ..Default::default()
    }
    .build(&cluster);

    let mut cells: Vec<(f64, Algo, u64)> = Vec::new();
    for &rate in &rates {
        for algo in Algo::FIG4 {
            for &seed in &fault_seeds {
                cells.push((rate, algo, seed));
            }
        }
    }
    println!(
        "fig_explain: {} cells ({} rates x {} schedulers x {} seeds) on {threads} threads",
        cells.len(),
        rates.len(),
        Algo::FIG4.len(),
        fault_seeds.len()
    );

    let rows: Vec<CellRow> = run_cells(&cells, threads, |_, &(rate, algo, seed)| {
        let spec = RunSpec {
            recovery: Some(RecoveryProfile::chaos(rate).setup(seed)),
            trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
            ..RunSpec::new(algo)
        };
        let (outcome, trace) = run_checked(&spec, &cluster, &workload).into_single();
        let trace = trace.expect("traced run");
        let report = explain(
            &cluster,
            &workload,
            &outcome,
            &trace,
            spec.recovery.as_ref(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "chaos-{} {} seed {seed}: explain refused a grid cell: {e}",
                (rate * 100.0).round(),
                algo.name()
            )
        });
        let mut codes = BTreeMap::new();
        for wf in &report.workflows {
            for d in &wf.chain {
                *codes.entry(d.code.clone()).or_insert(0u64) += 1;
            }
        }
        CellRow {
            scenario: format!("chaos-{}", (rate * 100.0).round() as u64),
            algo: algo.name().to_string(),
            fault_seed: seed,
            missed_workflows: report.missed_workflows(),
            complete_chains: report.complete_chains(),
            diagnostics: report.diagnostics(),
            codes,
        }
    });

    let mut totals = Totals {
        missed_workflows: 0,
        complete_chains: 0,
        coverage_pct: 100.0,
        diagnostics: 0,
        codes: BTreeMap::new(),
    };
    for row in &rows {
        totals.missed_workflows += row.missed_workflows;
        totals.complete_chains += row.complete_chains;
        totals.diagnostics += row.diagnostics;
        for (code, n) in &row.codes {
            *totals.codes.entry(code.clone()).or_insert(0) += n;
        }
    }
    if totals.missed_workflows > 0 {
        totals.coverage_pct =
            100.0 * totals.complete_chains as f64 / totals.missed_workflows as f64;
    }

    println!(
        "  {} missed workflow(s), {} with complete chains — {:.1}% diagnosis coverage, {} diagnostic(s)",
        totals.missed_workflows, totals.complete_chains, totals.coverage_pct, totals.diagnostics
    );
    for (code, n) in &totals.codes {
        println!("  {code:<6} {n}");
    }
    let figure = ExplainFigure {
        rates,
        fault_seeds,
        threads,
        rows,
        totals,
    };
    report::persist("fig_explain", &figure);
    Ok(())
}
