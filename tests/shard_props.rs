//! Sharded scheduling property suite: the cross-shard equivalence and
//! determinism contracts of the one run path (`flowtime::run`).
//!
//! * **K=1 identity** — the run path with no shard asked for is
//!   byte-identical (outcome *and* decision trace) to an engine built by
//!   hand through `Engine`'s builder API, for all six Fig. 4 schedulers,
//!   clean, faulted, and under mid-run chaos.
//! * **Thread blindness** — for any pod count, the worker thread count
//!   changes no byte of the serialized outcome.
//! * **Chaos certification** — random (seed, pods, scheduler) scenarios
//!   over faulted clusters are always certified by the sharded auditor,
//!   and every job lands in exactly one pod.
//! * **Mutation negatives** — a doubled placement, a dropped assignment,
//!   a tampered trace capacity, a rewritten assignment and a dropped pod
//!   are all rejected — by a cross-pod violation code or, where the
//!   placement record can no longer hold the tamper, by a typed
//!   deserialization error — so certification is evidence, not vacuous.
//! * **One placement rule** — `place` on the `fig_shard` workload is
//!   pinned to the assignments the `demand` placer made before the other
//!   two policies and the rebalance pass were cut (DESIGN.md §22).
//! * **Capacity split** — `split_capacity` conserves every resource
//!   dimension exactly and spreads each within one unit.

use flowtime::{RunOutput, RunSpec};
use flowtime_bench::experiments::{
    faulted_instance, run_checked, testbed_cluster, Algo, WorkflowExperiment,
};
use flowtime_bench::sweep::RecoveryProfile;
use flowtime_dag::ResourceVec;
use flowtime_sim::{
    certify_sharded, place, split_capacity, ClusterConfig, DecisionTrace, Engine, FaultConfig,
    PlacementLog, RecoverySetup, ShardedOutcome, SimOutcome, SimWorkload, DEFAULT_TRACE_CAPACITY,
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

/// `algo` through the one run path, sharded across `pods` pods.
fn run_pods(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    pods: usize,
    threads: usize,
    traced: bool,
) -> RunOutput {
    let spec = RunSpec {
        pods,
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
            assert_eq!(spec.pods, 1);
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
            let report = certify_sharded(&cluster, &workload, 1, &outcome, &traces, recovery);
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
            } = run_pods(algo, &faulted, &workload, 1, 1, true);
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
        let reference = run_pods(Algo::FlowTime, &cluster, &workload, pods, 1, false).outcome;
        let reference_bytes = serde_json::to_string(&reference).expect("outcome serializes");
        for threads in [2usize, 8] {
            let run = run_pods(Algo::FlowTime, &cluster, &workload, pods, threads, false).outcome;
            assert_eq!(
                serde_json::to_string(&run).expect("outcome serializes"),
                reference_bytes,
                "pods={pods}: {threads} worker threads changed the outcome"
            );
        }
        let RunOutput {
            outcome: traced,
            traces,
        } = run_pods(Algo::FlowTime, &cluster, &workload, pods, pods, true);
        assert_eq!(
            serde_json::to_string(&traced).expect("outcome serializes"),
            reference_bytes,
            "pods={pods}: tracing changed the outcome"
        );
        let report = certify_sharded(&cluster, &workload, pods, &traced, &traces, None);
        assert!(report.is_certified(), "pods={pods}: {}", report.summary());
    }
}

/// The `{class, index, pod}` entries trees before DESIGN.md §22 wrote for
/// `placement`, one per submission — a list in which the same submission
/// can appear twice or not at all.
fn parent_entries(placement: &PlacementLog) -> Vec<String> {
    let entry = |class: &str, (index, pod): (usize, &usize)| {
        format!("{{\"class\":\"{class}\",\"index\":{index},\"pod\":{pod}}}")
    };
    let workflows = placement.workflows.iter().enumerate();
    let adhoc = placement.adhoc.iter().enumerate();
    (workflows.map(|a| entry("Workflow", a)))
        .chain(adhoc.map(|a| entry("Adhoc", a)))
        .collect()
}

/// `outcome` as those trees serialized it: its placement record swapped
/// for one naming `placer` and listing `entries`.
fn parent_shaped(outcome: &ShardedOutcome, placer: &str, entries: &[String]) -> String {
    let own = serde_json::to_string(&outcome.placement).expect("serializes");
    let theirs = format!(
        "{{\"pods\":{},\"placer\":\"{placer}\",\"assignments\":[{}]}}",
        outcome.placement.pods,
        entries.join(",")
    );
    let bytes = serde_json::to_string(outcome).expect("serializes");
    assert!(bytes.contains(&own));
    bytes.replace(&own, &theirs)
}

/// Mutation negatives: every tamper the cross-pod checks were built to
/// catch is still rejected. Each mutation starts from a certified run, so
/// the rejection is attributable to the mutation. A placement holds one
/// pod per submission, so "on two pods" and "on no pod" can only be
/// written as a record of the wrong length (caught by the placement
/// replay) or, in the shape earlier trees serialized, as a duplicated or
/// skipped entry (refused when the file is read).
#[test]
fn tampered_sharded_artifacts_are_rejected_with_the_right_codes() {
    let cluster = testbed_cluster();
    let workload = experiment(4).build(&cluster);
    let RunOutput { outcome, traces } = run_pods(Algo::FlowTime, &cluster, &workload, 2, 2, true);
    let certify = |outcome: &ShardedOutcome, traces| {
        certify_sharded(&cluster, &workload, 2, outcome, traces, None)
    };
    let clean = certify(&outcome, &traces);
    assert!(clean.is_certified(), "{}", clean.summary());

    // Double placement: one submission recorded once more, on the other pod.
    let mut doubled = outcome.clone();
    doubled
        .placement
        .adhoc
        .push((outcome.placement.adhoc[0] + 1) % 2);
    let report = certify(&doubled, &traces);
    assert!(
        report.has("shard-placement-mismatch"),
        "doubled assignment not caught: {}",
        report.summary()
    );

    // Dropped assignment: a submission placed on no pod.
    let mut unplaced = outcome.clone();
    unplaced.placement.adhoc.pop();
    let report = certify(&unplaced, &traces);
    assert!(
        report.has("shard-placement-mismatch"),
        "dropped assignment not caught: {}",
        report.summary()
    );

    // The same two tampers, and a policy this tree cannot replay, written
    // into the record shape earlier trees serialized: typed refusals
    // naming the field, where the untampered record loads and certifies.
    let entries = parent_entries(&outcome.placement);
    let loaded: ShardedOutcome =
        serde_json::from_str(&parent_shaped(&outcome, "Demand", &entries)).expect("demand loads");
    assert_eq!(loaded, outcome);
    let doubled = [&entries[..], &entries[..1]].concat();
    for (what, bytes, names) in [
        (
            "doubled entry",
            parent_shaped(&outcome, "Demand", &doubled),
            "placement.assignments",
        ),
        (
            "skipped entry",
            parent_shaped(&outcome, "Demand", &entries[1..]),
            "placement.assignments",
        ),
        (
            "first-fit recording",
            parent_shaped(&outcome, "FirstFit", &entries),
            "placement.placer",
        ),
    ] {
        let err = serde_json::from_str::<ShardedOutcome>(&bytes).expect_err(what);
        assert!(err.to_string().contains(names), "{what}: {err}");
    }

    // Tampered capacity slice: the pod traces no longer sum to the
    // cluster's capacity.
    let mut fat_traces = traces.clone();
    fat_traces[0].header.capacity += ResourceVec::new([1, 0]);
    let report = certify(&outcome, &fat_traces);
    assert!(
        report.has("shard-capacity-sum"),
        "inflated capacity slice not caught: {}",
        report.summary()
    );

    // Dropped pod: artifact pod counts disagree with the pod count asked for.
    let mut short = outcome.clone();
    short.pods.pop();
    let report = certify(&short, &traces);
    assert!(
        report.has("shard-pod-count"),
        "dropped pod not caught: {}",
        report.summary()
    );

    // Rewritten placement: moving one assignment to the other pod keeps
    // the record well-formed, so only the placement replay can catch it.
    let mut moved = outcome.clone();
    moved.placement.workflows[0] = (moved.placement.workflows[0] + 1) % 2;
    let report = certify(&moved, &traces);
    assert!(
        report.has("shard-placement-mismatch"),
        "rewritten assignment not caught: {}",
        report.summary()
    );
}

/// The one placement rule is the `demand` placer of the three there were:
/// on the `fig_shard` workload (8 workflows x 12 jobs, ad-hoc horizon 400,
/// testbed cluster) at K = 2, 4, 8, `place` returns the pods that placer
/// assigned *before* its rebalance pass ran — one digit per submission,
/// workflows first, recorded from the last tree that had the choice.
#[test]
fn placement_matches_the_demand_placer_it_replaced() {
    const RECORDED: [(usize, &str); 3] = [
        (2, "01010101010101010101010101010101010101001011010101010101010101010100101010101011010101010101010100101010101010101101010010101010101011010101000101101010101001010101010010101001101010101010101010101010101"),
        (4, "01232031230123010231023102310231023102310321023120312031203120312033120312031203102310213021302130231203120312031203120301230123012301023102331023103210321030213023102312031220130213021302130213023102310"),
        (8, "01234567203617454203617542036175420361756742031456732014567320145673720145637420156237401563274015613274056132740561034274561032745610327145660327145670321454670321540670321546570312645703126457031264570"),
    ];
    let cluster = testbed_cluster();
    let workload = WorkflowExperiment {
        workflows: 8,
        jobs_per_workflow: 12,
        adhoc_horizon: 400,
        ..Default::default()
    }
    .build(&cluster);
    for (pods, recorded) in RECORDED {
        let log = place(&cluster, &workload, pods);
        let placed: String = (log.workflows.iter().chain(&log.adhoc))
            .map(|&pod| char::from_digit(pod as u32, 10).expect("K <= 8"))
            .collect();
        assert_eq!(log.workflows.len(), workload.workflows.len());
        assert_eq!(placed, recorded, "pods={pods}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chaos corpus: any (fault seed, pod count, scheduler) cell is
    /// certified by the sharded auditor, places every job exactly once,
    /// and keeps placements within the pod range.
    #[test]
    fn random_sharded_scenarios_are_certified(
        seed in 0u64..32,
        pods in 1usize..5,
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let (workload, faulted) =
            faulted_instance(&experiment(seed), &cluster, FaultConfig::mixed(seed));
        let algo = Algo::FIG4[algo_idx];
        let RunOutput { outcome, traces } =
            run_pods(algo, &faulted, &workload, pods, pods, true);
        let report = certify_sharded(&faulted, &workload, pods, &outcome, &traces, None);
        prop_assert!(
            report.is_certified(),
            "{} pods={pods} seed={seed}: {}",
            algo.name(),
            report.summary()
        );
        let total: usize = outcome.pods.iter().map(|o| o.metrics.jobs.len()).sum();
        prop_assert_eq!(total, job_count(&workload));
        let placement = &outcome.placement;
        prop_assert!(placement.workflows.iter().chain(&placement.adhoc).all(|&pod| pod < pods));
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
/// two pods and certified by the sharded auditor.
fn golden_sharded_spec() -> flowtime_bench::sweep::SweepSpec {
    flowtime_bench::sweep::SweepSpec {
        base: experiment(0),
        cluster: testbed_cluster(),
        scenarios: vec![flowtime_bench::sweep::SweepScenario::mixed_faults()],
        schedulers: vec![Algo::FlowTime, Algo::Edf],
        fault_seeds: vec![0, 1],
        audit: true,
        pods: Some(2),
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

/// Schema stability of the sharded report: the pod count is embedded,
/// every cell carries it too, and — the flip side of the
/// skip-at-default contract — the *unsharded* golden sweep report
/// contains no shard keys at all, so pre-sharding bytes never moved.
#[test]
fn golden_shard_report_schema_is_stable() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden/shard_report.json"))
        .expect("golden file missing — regenerate with GOLDEN_REGEN=1");
    let v: serde_json::Value = serde_json::from_str(&golden).expect("golden parses as JSON");
    assert!(
        matches!(v.get("pods"), Some(serde_json::Value::U64(2))),
        "a sharded report must record pods = 2"
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
        !unsharded.contains("\"pods\""),
        "unsharded golden must stay free of shard keys"
    );
}
