//! Golden pins for the explain/whatif layer: a fixed faulted scenario is
//! explained and counterfactually diffed, and the serialized artifacts
//! are byte-compared against committed fixtures. Any change to the E00x
//! catalogue, the diagnostic ordering, the diff schema, or the
//! simulation itself shows up as a diff. Regenerate intentionally:
//!
//! `GOLDEN_REGEN=1 cargo test --test explain_golden`

use flowtime::RunSpec;
use flowtime_bench::experiments::{testbed_cluster, Algo, WorkflowExperiment};
use flowtime_sim::prelude::*;
use flowtime_sim::{
    certified_diff, explain, ExplainReport, RunArtifacts, WhatIfDiff, DEFAULT_TRACE_CAPACITY,
};

/// The fixed scenario behind both fixtures: a small testbed workload with
/// tight deadlines under heavy mid-run faults, so EDF misses workflow
/// deadlines (a silent report would pin nothing).
fn scenario() -> (ClusterConfig, SimWorkload, RecoverySetup) {
    let cluster = testbed_cluster();
    let workload = WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        looseness: 1.4,
        adhoc_horizon: 40,
        ..Default::default()
    }
    .build(&cluster);
    let setup = RecoverySetup::new(
        RuntimeFaultConfig::none(7)
            .with_task_failures(0.6)
            .with_crashes(0.5)
            .with_crash_period(8)
            .with_stragglers(0.5, 1.2),
        RecoveryPolicy::default()
            .with_max_retries(3)
            .with_backoff(1),
    );
    (cluster, workload, setup)
}

/// The traced run of `algo` over the pinned scenario.
fn record(algo: Algo) -> RunArtifacts {
    let (cluster, workload, setup) = scenario();
    let spec = RunSpec {
        recovery: Some(setup),
        trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
        ..RunSpec::new(algo)
    };
    let flowtime::RunOutput { outcome, trace } =
        flowtime::run(&spec, &cluster, &workload).expect("replay runs");
    RunArtifacts {
        outcome,
        trace: trace.expect("traced run"),
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn pin(name: &str, serialized: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, serialized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing — regenerate with GOLDEN_REGEN=1"));
    assert_eq!(
        serialized, golden,
        "{name} diverged; if intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn golden_explain_report_is_stable() {
    let (cluster, workload, setup) = scenario();
    let RunArtifacts { outcome, trace } = record(Algo::Edf);
    let report = explain(&cluster, &workload, &outcome, &trace, Some(&setup))
        .expect("certified run explains");
    assert!(
        report.missed_workflows() > 0,
        "the pinned scenario must actually produce diagnostics"
    );
    let mut serialized = serde_json::to_string(&report).unwrap();
    serialized.push('\n');
    pin("explain_report.json", &serialized);

    // The pinned bytes round-trip losslessly through the typed report.
    let reloaded: ExplainReport = serde_json::from_str(serialized.trim_end()).unwrap();
    assert_eq!(
        serde_json::to_string(&reloaded).unwrap(),
        serialized.trim_end()
    );
}

#[test]
fn golden_whatif_diff_is_stable() {
    let (cluster, workload, setup) = scenario();
    let base = record(Algo::Edf);
    let alt = record(Algo::FlowTime);
    let diff = certified_diff(&cluster, &workload, &base, Some(&setup), &alt, Some(&setup))
        .expect("both sides certify");
    assert!(
        !diff.identical,
        "the pinned scheduler pair must actually diverge"
    );
    let mut serialized = serde_json::to_string(&diff).unwrap();
    serialized.push('\n');
    pin("whatif_diff.json", &serialized);

    let reloaded: WhatIfDiff = serde_json::from_str(serialized.trim_end()).unwrap();
    assert_eq!(
        serde_json::to_string(&reloaded).unwrap(),
        serialized.trim_end()
    );
}
