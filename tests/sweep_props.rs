//! Determinism property suite for the sweep runner: a parallel sweep must
//! serialize byte-for-byte identically to the sequential reference for any
//! thread count, across fault seeds and every scheduler — the contract that
//! makes `--threads N` purely a wall-clock knob. A committed golden report
//! additionally pins the `SweepReport` schema.

use flowtime_bench::experiments::{testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::sweep::{SweepScenario, SweepSpec};
use proptest::prelude::*;

/// Small-but-contended base: 2 scientific workflows (10 deadline jobs)
/// plus an ad-hoc stream, on the paper's testbed cluster. Small enough
/// that a whole grid stays cheap, busy enough that schedulers disagree.
fn tiny_experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        ..Default::default()
    }
}

fn spec(schedulers: Vec<Algo>, fault_seeds: Vec<u64>, scenarios: Vec<SweepScenario>) -> SweepSpec {
    SweepSpec {
        base: tiny_experiment(),
        cluster: testbed_cluster(),
        scenarios,
        schedulers,
        fault_seeds,
        audit: false,
        pods: None,
    }
}

fn report_bytes(spec: &SweepSpec, threads: usize) -> String {
    serde_json::to_string_pretty(&spec.run(threads)).expect("report serializes")
}

/// The headline property, on the full scheduler axis: all six algorithms ×
/// mixed faults × two fault seeds, swept sequentially and with 2 and 8
/// worker threads. Every serialized report must be byte-identical.
#[test]
fn sweep_report_is_byte_identical_across_thread_counts_for_all_six_schedulers() {
    let spec = spec(
        Algo::FIG4.to_vec(),
        vec![0, 1],
        vec![SweepScenario::mixed_faults()],
    );
    let sequential = report_bytes(&spec, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            report_bytes(&spec, threads),
            sequential,
            "sweep diverged at {threads} threads"
        );
    }
}

/// Multi-scenario grids reduce in the same canonical order too: clean and
/// mixed-fault scenarios interleave their cells identically for any thread
/// count, and the clean scenario is itself reproducible cell-by-cell.
#[test]
fn multi_scenario_sweep_is_thread_count_invariant() {
    let spec = spec(
        vec![Algo::FlowTime, Algo::Fifo],
        vec![0, 1, 2],
        vec![SweepScenario::clean(), SweepScenario::mixed_faults()],
    );
    let sequential = report_bytes(&spec, 1);
    assert_eq!(report_bytes(&spec, 8), sequential);
    // Cells arrive scenario-major: first all clean rows, then all mixed.
    let report = spec.run(4);
    assert_eq!(report.cells.len(), 12);
    assert!(report.cells[..6].iter().all(|c| c.scenario == "clean"));
    assert!(report.cells[6..]
        .iter()
        .all(|c| c.scenario == "mixed-faults"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random slices of the grid at random thread counts: any pair of
    /// schedulers, any seed window, any worker count up to 8 must match
    /// the sequential reference byte-for-byte.
    #[test]
    fn random_grid_slices_match_sequential_reference(
        threads in 2usize..=8,
        seed_base in 0u64..50,
        a in 0usize..Algo::FIG4.len(),
        b in 0usize..Algo::FIG4.len(),
    ) {
        let spec = spec(
            vec![Algo::FIG4[a], Algo::FIG4[b]],
            vec![seed_base, seed_base + 1],
            vec![SweepScenario::mixed_faults()],
        );
        prop_assert_eq!(report_bytes(&spec, threads), report_bytes(&spec, 1));
    }
}

/// The fixed grid behind the committed golden report: 3 schedulers × 4
/// fault seeds × mixed faults.
fn golden_spec() -> SweepSpec {
    spec(
        vec![Algo::FlowTime, Algo::Edf, Algo::Fifo],
        vec![0, 1, 2, 3],
        vec![SweepScenario::mixed_faults()],
    )
}

/// Committed golden file for the serialized [`SweepReport`]: any change to
/// the report schema, the cell ordering, the rollup math, or the
/// simulation itself shows up as a diff against
/// `tests/golden/sweep_report.json`. Regenerate after intentional changes:
///
/// `GOLDEN_REGEN=1 cargo test --test sweep_props golden`
#[test]
fn golden_sweep_report_is_stable() {
    let serialized = report_bytes(&golden_spec(), 2);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_report.json");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &serialized).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        serialized, golden,
        "serialized SweepReport diverged from tests/golden/sweep_report.json; \
         if intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Schema stability, independent of exact values: the golden report parses
/// as JSON with every contracted top-level and per-row field present, the
/// axes multiply out to the cell count, and no wall-clock quantity leaks
/// into the serialized form.
#[test]
fn golden_sweep_report_schema_is_stable() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_report.json");
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    let v: serde_json::Value = serde_json::from_str(&golden).expect("golden parses as JSON");
    for key in [
        "experiment",
        "scenarios",
        "schedulers",
        "fault_seeds",
        "cells",
        "rollups",
    ] {
        assert!(v.get(key).is_some(), "report lost top-level field `{key}`");
    }
    let schedulers = v.get("schedulers").unwrap().as_seq().unwrap();
    let fault_seeds = v.get("fault_seeds").unwrap().as_seq().unwrap();
    let scenarios = v.get("scenarios").unwrap().as_seq().unwrap();
    let cells = v.get("cells").unwrap().as_seq().unwrap();
    let rollups = v.get("rollups").unwrap().as_seq().unwrap();
    assert_eq!(
        cells.len(),
        schedulers.len() * fault_seeds.len() * scenarios.len(),
        "cell count must be the product of the axes"
    );
    assert_eq!(rollups.len(), schedulers.len() * scenarios.len());
    for cell in cells {
        for key in [
            "scenario",
            "algo",
            "fault_seed",
            "completed_jobs",
            "deadline_jobs",
            "job_misses",
            "workflow_misses",
            "adhoc_turnaround_s",
            "slots_elapsed",
            "overrun_slots",
        ] {
            assert!(cell.get(key).is_some(), "cell row lost field `{key}`");
        }
    }
    for rollup in rollups {
        for key in [
            "scenario",
            "algo",
            "cells",
            "deadline_jobs",
            "job_misses",
            "deadline_miss_rate",
            "workflow_misses",
            "adhoc_p50_s",
            "adhoc_p90_s",
            "adhoc_p99_s",
            "solver_telemetry",
            "engine_telemetry",
            "overrun_slots",
            "top_overrun_node",
        ] {
            assert!(rollup.get(key).is_some(), "rollup lost field `{key}`");
        }
    }
    assert!(
        !golden.contains("wall"),
        "wall-clock values must never appear in a serialized SweepReport"
    );
}
