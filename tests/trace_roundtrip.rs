//! Trace persistence and replay across crates.

use flowtime::{FlowTimeConfig, FlowTimeScheduler};
use flowtime_dag::ResourceVec;
use flowtime_sim::{ClusterConfig, DecisionTrace, Engine, TraceError};
use flowtime_workload::trace::{ProductionTraceConfig, Trace};

fn small_trace(seed: u64) -> Trace {
    let cluster = ClusterConfig::new(ResourceVec::new([64, 262_144]), 10.0);
    Trace::synthesize_production(
        cluster,
        &ProductionTraceConfig {
            workflows: 3,
            jobs_per_workflow: 8,
            adhoc_horizon: 150,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn trace_survives_serialization_and_replays_identically() {
    let trace = small_trace(11);
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).unwrap();
    let reloaded = Trace::read_jsonl(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(trace, reloaded);

    let run = |t: &Trace| {
        let mut s = FlowTimeScheduler::new(t.cluster.clone(), FlowTimeConfig::default());
        Engine::new(t.cluster.clone(), t.workload.clone(), 1_000_000)
            .unwrap()
            .run(&mut s)
            .unwrap()
            .metrics
    };
    assert_eq!(run(&trace), run(&reloaded), "replay must be bit-identical");
}

#[test]
fn production_trace_deadlines_are_loose_and_met_by_flowtime() {
    let trace = small_trace(23);
    for sub in &trace.workload.workflows {
        let wf = &sub.workflow;
        assert!(wf.window_slots() >= wf.min_makespan_slots() * 5);
    }
    let mut s = FlowTimeScheduler::new(trace.cluster.clone(), FlowTimeConfig::default());
    let metrics = Engine::new(trace.cluster.clone(), trace.workload.clone(), 1_000_000)
        .unwrap()
        .run(&mut s)
        .unwrap()
        .metrics;
    assert_eq!(metrics.workflow_deadline_misses(), 0);
}

/// A decision trace `simulate --pods K` wrote before runs became one
/// engine (DESIGN.md §31) carries its pod count and index in the header
/// — before §22 also its placer. Such a file is refused at its header
/// line with a parse error naming `header.pods`, and is left untouched;
/// the same trace without the stamp still loads.
#[test]
fn multi_pod_decision_traces_are_refused_and_left_untouched() {
    let trace = small_trace(11);
    let mut s = FlowTimeScheduler::new(trace.cluster.clone(), FlowTimeConfig::default());
    let (engine, handle) = Engine::new(trace.cluster.clone(), trace.workload.clone(), 1_000_000)
        .unwrap()
        .with_trace(1 << 20);
    engine.run(&mut s).unwrap();
    let mut buf = Vec::new();
    handle.take().write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let (header, rest) = text.split_once('\n').unwrap();
    assert!(header.starts_with("{\"Header\":") && header.ends_with("}}"));
    let dir = std::env::temp_dir().join(format!("multi_pod_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let read = |path: &std::path::Path| {
        DecisionTrace::read_jsonl(std::io::BufReader::new(std::fs::File::open(path).unwrap()))
    };
    let plain = dir.join("plain.jsonl");
    std::fs::write(&plain, &text).unwrap();
    assert!(read(&plain).is_ok());
    for stamp in [
        ",\"pods\":2,\"pod\":1",
        ",\"pods\":2,\"pod\":0,\"placer\":\"Demand\"",
    ] {
        let stamped = format!("{}{stamp}}}}}\n{rest}", &header[..header.len() - 2]);
        let path = dir.join("stamped.jsonl");
        std::fs::write(&path, &stamped).unwrap();
        match read(&path) {
            Err(TraceError::Parse { line: 1, message }) => {
                assert!(message.starts_with("header.pods: "), "{stamp}: {message}")
            }
            other => panic!("{stamp}: expected a refusal, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), stamped, "{stamp}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_seeds_differ() {
    assert_ne!(small_trace(1), small_trace(2));
}

/// The fixed (workload, scheduler, fault seed) triple behind both golden
/// fixtures below.
fn golden_triple_outcome() -> flowtime_sim::SimOutcome {
    use flowtime_sim::{FaultConfig, FaultPlan};

    let cluster = ClusterConfig::new(ResourceVec::new([16, 65_536]), 10.0);
    let trace = Trace::synthesize_production(
        cluster,
        &ProductionTraceConfig {
            workflows: 2,
            jobs_per_workflow: 5,
            adhoc_horizon: 40,
            ..Default::default()
        },
        11,
    );
    let mut workload = trace.workload.clone();
    let mut faulted_cluster = trace.cluster.clone();
    FaultPlan::new(FaultConfig::mixed(7)).apply(&mut workload, &mut faulted_cluster, 200);
    let mut scheduler = FlowTimeScheduler::new(faulted_cluster.clone(), FlowTimeConfig::default());
    Engine::new(faulted_cluster, workload, 1_000_000)
        .unwrap()
        .with_timeline()
        .run(&mut scheduler)
        .unwrap()
}

/// Committed golden file for the serialized [`flowtime_sim::SimOutcome`]
/// of one fixed (workload, scheduler, fault seed) triple. Guards both the
/// serialization format and cross-version simulator determinism: any
/// change to either shows up as a diff against `tests/golden/outcome.json`.
///
/// Regenerate intentionally with:
/// `GOLDEN_REGEN=1 cargo test --test trace_roundtrip golden`
#[test]
fn golden_outcome_is_stable() {
    use flowtime_sim::SimOutcome;

    let outcome = golden_triple_outcome();
    let serialized = serde_json::to_string_pretty(&outcome).unwrap();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/outcome.json");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &serialized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        serialized, golden,
        "serialized SimOutcome diverged from tests/golden/outcome.json; \
         if intentional, regenerate with GOLDEN_REGEN=1"
    );

    // The golden bytes also round-trip through deserialization.
    let reparsed: SimOutcome = serde_json::from_str(&golden).unwrap();
    assert_eq!(reparsed, outcome);
    assert_eq!(serde_json::to_string_pretty(&reparsed).unwrap(), golden);
}

/// Committed golden file for the [`flowtime_sim::SolverTelemetry`] of the
/// same fixed faulted triple as `golden_outcome_is_stable`: pins both the
/// telemetry serialization schema and the determinism of the solver-effort
/// counters across the warm-start and plan-cache paths (wall-clock time is
/// excluded from serialization, so the counters are exactly reproducible).
///
/// Regenerate intentionally with:
/// `GOLDEN_REGEN=1 cargo test --test trace_roundtrip golden`
#[test]
fn golden_telemetry_is_stable() {
    use flowtime_sim::SolverTelemetry;

    let telemetry = golden_triple_outcome()
        .solver_telemetry
        .expect("flowtime reports solver telemetry");
    let serialized = serde_json::to_string_pretty(&telemetry).unwrap();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry.json");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &serialized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        serialized, golden,
        "SolverTelemetry diverged from tests/golden/telemetry.json; \
         if intentional, regenerate with GOLDEN_REGEN=1"
    );

    // The golden bytes round-trip through deserialization, and the
    // excluded wall-clock field deserializes to its zero default.
    let reparsed: SolverTelemetry = serde_json::from_str(&golden).unwrap();
    assert_eq!(reparsed, telemetry);
    assert_eq!(reparsed.replan_wall_nanos, 0);
    assert_eq!(serde_json::to_string_pretty(&reparsed).unwrap(), golden);
}
