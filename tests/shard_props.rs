//! Sharded scheduling property suite: the cross-shard equivalence and
//! determinism contracts of the one run path (`flowtime::run`).
//!
//! * **K=1 identity** — the run path with no shard asked for is
//!   byte-identical (outcome *and* decision trace) to an engine built by
//!   hand through `Engine`'s builder API, for all six Fig. 4 schedulers,
//!   clean, faulted, and under mid-run chaos.
//! * **Thread blindness** — for any pod count, the worker thread count
//!   changes no byte of the serialized outcome.
//! * **Chaos certification** — random (seed, pods, placer, scheduler)
//!   scenarios over faulted clusters are always certified by the sharded
//!   auditor, and every job lands in exactly one pod.
//! * **Mutation negatives** — each cross-pod violation code actually
//!   fires: a doubled placement, a dropped assignment, a tampered trace
//!   capacity, a dropped rebalance event, and a dropped pod are all
//!   caught, so the auditor's certification is evidence, not vacuous.
//! * **Capacity split** — `split_capacity` conserves every resource
//!   dimension exactly and spreads each within one unit.

use flowtime::{RunOutput, RunSpec};
use flowtime_bench::experiments::{
    faulted_instance, run_checked, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::sweep::RecoveryProfile;
use flowtime_dag::{JobSpec, ResourceVec};
use flowtime_sim::{
    certify_sharded, split_capacity, AdhocSubmission, ClusterConfig, DecisionTrace, Engine,
    FaultConfig, Placer, RecoverySetup, ShardClass, ShardSpec, SimOutcome, SimWorkload,
    DEFAULT_TRACE_CAPACITY,
};
use proptest::prelude::*;

fn experiment(seed: u64) -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        seed,
        ..Default::default()
    }
}

fn trace_jsonl(trace: &DecisionTrace) -> String {
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).expect("trace serializes");
    String::from_utf8(buf).expect("trace is utf-8")
}

fn job_count(workload: &SimWorkload) -> usize {
    workload
        .workflows
        .iter()
        .map(|w| w.workflow.len())
        .sum::<usize>()
        + workload.adhoc.len()
}

/// The reference the run path is pinned against: an engine assembled by
/// hand through `Engine`'s builder API, sharing nothing with
/// `flowtime::run` but the scheduler registry — so the K=1 identity below
/// can never degrade into comparing the run path with itself.
fn direct_engine_run(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    recovery: Option<&RecoverySetup>,
) -> (SimOutcome, DecisionTrace) {
    let mut scheduler = algo.make(cluster);
    let mut engine =
        Engine::new(cluster.clone(), workload.clone(), 1_000_000).expect("valid workload");
    if let Some(setup) = recovery {
        engine = engine.with_recovery(setup.clone());
    }
    let (engine, handle) = engine.with_trace(DEFAULT_TRACE_CAPACITY);
    let outcome = engine.run(scheduler.as_mut()).expect("engine runs");
    (outcome, handle.take())
}

/// `algo` through the one run path, sharded as `shard` says.
fn run_pods(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    shard: &ShardSpec,
    threads: usize,
    traced: bool,
) -> RunOutput {
    let spec = RunSpec {
        shard: shard.clone(),
        trace_capacity: traced.then_some(DEFAULT_TRACE_CAPACITY),
        threads,
        ..RunSpec::new(algo)
    };
    run_checked(&spec, cluster, workload)
}

/// K=1 identity: the run path with no shard asked for (`RunSpec::new`)
/// must reproduce the hand-built engine byte-for-byte — outcome and trace
/// — for all six schedulers, with and without a chaos recovery layer.
#[test]
fn single_pod_matches_unsharded_for_all_six_schedulers() {
    let cluster = testbed_cluster();
    let workload = experiment(0).build(&cluster);
    let chaos = RecoveryProfile::chaos(0.3).setup(5);
    for algo in Algo::FIG4 {
        for recovery in [None, Some(&chaos)] {
            let tag = format!(
                "{} ({})",
                algo.name(),
                if recovery.is_some() { "chaos" } else { "clean" }
            );
            let (plain, plain_trace) = direct_engine_run(algo, &cluster, &workload, recovery);
            let spec = RunSpec {
                recovery: recovery.cloned(),
                trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
                ..RunSpec::new(algo)
            };
            assert_eq!(spec.shard, ShardSpec::new(1));
            let RunOutput { outcome, traces } = run_checked(&spec, &cluster, &workload);
            assert_eq!(outcome.pods.len(), 1);
            assert_eq!(
                serde_json::to_string(&outcome.pods[0]).expect("outcome serializes"),
                serde_json::to_string(&plain).expect("outcome serializes"),
                "{tag}: the run path's outcome diverges from the hand-built engine"
            );
            assert_eq!(
                trace_jsonl(&traces[0]),
                trace_jsonl(&plain_trace),
                "{tag}: the run path's trace diverges from the hand-built engine"
            );
            let report = certify_sharded(
                &cluster,
                &workload,
                &spec.shard,
                &outcome,
                &traces,
                recovery,
            );
            assert!(report.is_certified(), "{tag}: {}", report.summary());
        }
    }
}

/// K=1 identity survives cluster faults: the identity is a property of
/// the sharding layer, not of a benign scenario.
#[test]
fn single_pod_identity_holds_under_faults() {
    let cluster = testbed_cluster();
    for seed in [1u64, 2] {
        let (workload, faulted) =
            faulted_instance(&experiment(seed), &cluster, FaultConfig::mixed(seed));
        for algo in [Algo::FlowTime, Algo::Edf] {
            let (plain, plain_trace) = direct_engine_run(algo, &faulted, &workload, None);
            let RunOutput {
                outcome: sharded,
                traces,
            } = run_pods(algo, &faulted, &workload, &ShardSpec::new(1), 1, true);
            assert_eq!(
                serde_json::to_string(&sharded.pods[0]).expect("outcome serializes"),
                serde_json::to_string(&plain).expect("outcome serializes"),
                "{} seed {seed}: faulted single-pod outcome diverges",
                algo.name()
            );
            assert_eq!(
                trace_jsonl(&traces[0]),
                trace_jsonl(&plain_trace),
                "{} seed {seed}: faulted single-pod trace diverges",
                algo.name()
            );
        }
    }
}

/// Thread blindness: for pods ∈ {1, 2, 4, 8}, running the pod set on 1,
/// 2, or 8 workers serializes to the same bytes, the traced rerun agrees
/// with the untraced one, and the auditor certifies every pod count.
#[test]
fn thread_count_never_changes_a_byte_for_any_pod_count() {
    let cluster = testbed_cluster();
    let workload = experiment(3).build(&cluster);
    for pods in [1usize, 2, 4, 8] {
        let spec = ShardSpec::new(pods);
        let reference = run_pods(Algo::FlowTime, &cluster, &workload, &spec, 1, false).outcome;
        let reference_bytes = serde_json::to_string(&reference).expect("outcome serializes");
        for threads in [2usize, 8] {
            let run = run_pods(Algo::FlowTime, &cluster, &workload, &spec, threads, false).outcome;
            assert_eq!(
                serde_json::to_string(&run).expect("outcome serializes"),
                reference_bytes,
                "pods={pods}: {threads} worker threads changed the outcome"
            );
        }
        let RunOutput {
            outcome: traced,
            traces,
        } = run_pods(Algo::FlowTime, &cluster, &workload, &spec, pods, true);
        assert_eq!(
            serde_json::to_string(&traced).expect("outcome serializes"),
            reference_bytes,
            "pods={pods}: tracing changed the outcome"
        );
        let report = certify_sharded(&cluster, &workload, &spec, &traced, &traces, None);
        assert!(report.is_certified(), "pods={pods}: {}", report.summary());
    }
}

/// A rebalance-heavy scenario (first-fit packs two enormous ad-hoc
/// backlogs onto pod 0, forcing the rebalancer to shed) used by the
/// mutation-negative tests that need a non-empty `rebalances` record.
fn rebalance_scenario() -> (ClusterConfig, SimWorkload, ShardSpec) {
    let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
    let mut w = SimWorkload::default();
    for i in 0..8u64 {
        let tasks = if i < 2 { 128 } else { 1 };
        w.adhoc.push(AdhocSubmission::new(
            JobSpec::new("a", tasks, 1, ResourceVec::new([1, 512])).with_max_parallel(1),
            i,
        ));
    }
    let spec = ShardSpec::new(4)
        .with_placer(Placer::FirstFit)
        .with_overload_factor(2.0);
    (cluster, w, spec)
}

/// Mutation negatives: every cross-pod violation code fires on the
/// tampered artifact it was designed to catch. Each mutation starts from
/// a certified run, so the violation is attributable to the mutation.
#[test]
fn tampered_sharded_artifacts_are_rejected_with_the_right_codes() {
    let cluster = testbed_cluster();
    let workload = experiment(4).build(&cluster);
    let spec = ShardSpec::new(2);
    let RunOutput { outcome, traces } =
        run_pods(Algo::FlowTime, &cluster, &workload, &spec, 2, true);
    let clean = certify_sharded(&cluster, &workload, &spec, &outcome, &traces, None);
    assert!(clean.is_certified(), "{}", clean.summary());

    // Double placement: the same submission recorded on both pods.
    let mut doubled = outcome.clone();
    let mut dup = doubled.placement.assignments[0].clone();
    dup.pod = (dup.pod + 1) % 2;
    doubled.placement.assignments.push(dup);
    let report = certify_sharded(&cluster, &workload, &spec, &doubled, &traces, None);
    assert!(
        report.has("shard-double-place"),
        "doubled assignment not caught: {}",
        report.summary()
    );

    // Dropped assignment: a submission placed on no pod.
    let mut unplaced = outcome.clone();
    unplaced.placement.assignments.pop();
    let report = certify_sharded(&cluster, &workload, &spec, &unplaced, &traces, None);
    assert!(
        report.has("shard-unplaced-job"),
        "dropped assignment not caught: {}",
        report.summary()
    );

    // Tampered capacity slice: the pod traces no longer sum to the
    // cluster's capacity.
    let mut fat_traces = traces.clone();
    fat_traces[0].header.capacity += ResourceVec::new([1, 0]);
    let report = certify_sharded(&cluster, &workload, &spec, &outcome, &fat_traces, None);
    assert!(
        report.has("shard-capacity-sum"),
        "inflated capacity slice not caught: {}",
        report.summary()
    );

    // Dropped pod: artifact pod counts disagree with the spec.
    let mut short = outcome.clone();
    short.pods.pop();
    let report = certify_sharded(&cluster, &workload, &spec, &short, &traces, None);
    assert!(
        report.has("shard-pod-count"),
        "dropped pod not caught: {}",
        report.summary()
    );

    // Rewritten placement: moving one assignment to the other pod keeps
    // exactly-once placement intact, so only the placement replay check
    // can catch it.
    let mut moved = outcome.clone();
    moved.placement.assignments[0].pod = (moved.placement.assignments[0].pod + 1) % 2;
    let report = certify_sharded(&cluster, &workload, &spec, &moved, &traces, None);
    assert!(
        report.has("shard-placement-mismatch"),
        "rewritten assignment not caught: {}",
        report.summary()
    );
}

/// A dropped rebalance event is caught by the placement replay check —
/// the recorded log no longer recomputes from the scenario.
#[test]
fn dropped_rebalance_event_is_rejected() {
    let (cluster, workload, spec) = rebalance_scenario();
    let RunOutput { outcome, traces } = run_pods(Algo::Edf, &cluster, &workload, &spec, 4, true);
    assert!(
        !outcome.placement.rebalances.is_empty(),
        "scenario must actually rebalance for this test to bite"
    );
    let clean = certify_sharded(&cluster, &workload, &spec, &outcome, &traces, None);
    assert!(clean.is_certified(), "{}", clean.summary());

    let mut dropped = outcome.clone();
    dropped.placement.rebalances.pop();
    let report = certify_sharded(&cluster, &workload, &spec, &dropped, &traces, None);
    assert!(
        report.has("shard-placement-mismatch"),
        "dropped rebalance event not caught: {}",
        report.summary()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chaos corpus: any (fault seed, pod count, placer, scheduler) cell
    /// is certified by the sharded auditor, places every job exactly
    /// once, and keeps ad-hoc placements within the pod range.
    #[test]
    fn random_sharded_scenarios_are_certified(
        seed in 0u64..32,
        pods in 1usize..5,
        placer_idx in 0usize..3,
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let (workload, faulted) =
            faulted_instance(&experiment(seed), &cluster, FaultConfig::mixed(seed));
        let placer = [Placer::FirstFit, Placer::WorstFit, Placer::Demand][placer_idx];
        let spec = ShardSpec::new(pods).with_placer(placer);
        let algo = Algo::FIG4[algo_idx];
        let RunOutput { outcome, traces } =
            run_pods(algo, &faulted, &workload, &spec, pods, true);
        let report = certify_sharded(&faulted, &workload, &spec, &outcome, &traces, None);
        prop_assert!(
            report.is_certified(),
            "{} pods={pods} {placer:?} seed={seed}: {}",
            algo.name(),
            report.summary()
        );
        let total: usize = outcome.pods.iter().map(|o| o.metrics.jobs.len()).sum();
        prop_assert_eq!(total, job_count(&workload));
        for a in &outcome.placement.assignments {
            prop_assert!(a.pod < pods);
            prop_assert!(matches!(a.class, ShardClass::Workflow | ShardClass::Adhoc));
        }
    }

    /// `split_capacity` conserves every resource dimension exactly and
    /// never spreads a dimension across pods by more than one unit.
    #[test]
    fn split_capacity_conserves_and_balances(
        cores in 0u64..512,
        mem in 0u64..1_048_576,
        pods in 1usize..17,
    ) {
        let total = ResourceVec::new([cores, mem]);
        let parts = split_capacity(total, pods);
        prop_assert_eq!(parts.len(), pods);
        let mut sum = ResourceVec::new([0, 0]);
        for p in &parts {
            sum += *p;
        }
        prop_assert_eq!(sum, total);
        for r in 0..2 {
            let hi = parts.iter().map(|p| p.dim(r)).max().expect("nonempty");
            let lo = parts.iter().map(|p| p.dim(r)).min().expect("nonempty");
            prop_assert!(hi - lo <= 1, "dimension {r} spread {hi}-{lo}");
        }
    }
}

/// The fixed sharded sweep behind `tests/golden/shard_report.json`: two
/// schedulers × two fault seeds × mixed faults, every cell run across
/// two pods with the demand placer and certified by the sharded auditor.
fn golden_sharded_spec() -> flowtime_bench::sweep::SweepSpec {
    flowtime_bench::sweep::SweepSpec {
        base: experiment(0),
        cluster: testbed_cluster(),
        scenarios: vec![flowtime_bench::sweep::SweepScenario::mixed_faults()],
        schedulers: vec![Algo::FlowTime, Algo::Edf],
        fault_seeds: vec![0, 1],
        audit: true,
        shard: Some(ShardSpec::new(2)),
    }
}

/// Committed golden for the serialized sharded `SweepReport`. Any change
/// to the shard schema, the placement layer, or any pod's simulated
/// outcome shows up as a diff here. Regenerate after an intentional
/// change:
///
/// `GOLDEN_REGEN=1 cargo test --test shard_props golden`
#[test]
fn golden_shard_report_is_stable() {
    let report = golden_sharded_spec().run(2);
    let serialized = serde_json::to_string_pretty(&report).expect("report serializes");
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/shard_report.json");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &serialized).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        serialized, golden,
        "serialized sharded SweepReport diverged from tests/golden/shard_report.json; \
         if intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Schema stability of the sharded report: the shard spec is embedded,
/// every cell carries its pod count, and — the flip side of the
/// skip-at-default contract — the *unsharded* golden sweep report
/// contains no shard keys at all, so pre-sharding bytes never moved.
#[test]
fn golden_shard_report_schema_is_stable() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden/shard_report.json"))
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    let v: serde_json::Value = serde_json::from_str(&golden).expect("golden parses as JSON");
    let shard = v.get("shard").expect("sharded report embeds its spec");
    assert!(
        matches!(shard.get("pods"), Some(serde_json::Value::U64(2))),
        "shard spec must record pods = 2"
    );
    for cell in v.get("cells").unwrap().as_seq().unwrap() {
        assert!(
            matches!(cell.get("pods"), Some(serde_json::Value::U64(2))),
            "every sharded cell row records its pod count"
        );
    }
    let unsharded = std::fs::read_to_string(root.join("tests/golden/sweep_report.json"))
        .expect("unsharded golden present");
    assert!(
        !unsharded.contains("\"shard\"") && !unsharded.contains("\"pods\""),
        "unsharded golden must stay free of shard keys"
    );
}
