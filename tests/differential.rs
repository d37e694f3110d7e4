//! Differential fault-injection suite: all six schedulers run on
//! bit-identical fault-injected instances, and metamorphic properties that
//! must hold regardless of scheduling policy are checked across many fault
//! seeds. A deliberately broken scheduler proves the engine's invariant
//! checking actually has teeth.

use flowtime_bench::experiments::{faulted_instance, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_dag::{JobId, ResourceVec};
use flowtime_sim::prelude::*;
use flowtime_sim::SimOutcome;

/// Small-but-contended instance: 2 scientific workflows (12 deadline jobs)
/// plus an ad-hoc stream, on the paper's testbed cluster.
fn experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 6,
        adhoc_horizon: 60,
        ..Default::default()
    }
}

fn run_outcome(algo: Algo, cluster: &ClusterConfig, workload: SimWorkload) -> SimOutcome {
    let mut scheduler = algo.make(cluster);
    Engine::new(cluster.clone(), workload, 1_000_000)
        .expect("valid workload")
        .with_timeline()
        .run(scheduler.as_mut())
        .unwrap_or_else(|e| panic!("{} violated an invariant: {e}", algo.name()))
}

fn completed_ids(outcome: &SimOutcome) -> Vec<JobId> {
    let mut ids: Vec<JobId> = outcome.metrics.jobs.iter().map(|j| j.id).collect();
    ids.sort();
    ids
}

/// Across 20 fault seeds, every scheduler (a) passes every per-slot and
/// final invariant — `Engine::run` returns `Ok` with extended checking on
/// by default — and (b) completes exactly the same job set: faults change
/// *when* things finish, never *what* exists.
#[test]
fn all_schedulers_complete_the_same_job_set_under_20_fault_seeds() {
    let cluster = testbed_cluster();
    let exp = experiment();
    for fault_seed in 0..20u64 {
        let (workload, faulted_cluster) =
            faulted_instance(&exp, &cluster, FaultConfig::mixed(fault_seed));
        let mut reference: Option<(String, Vec<JobId>)> = None;
        for algo in Algo::FIG4 {
            let outcome = run_outcome(algo, &faulted_cluster, workload.clone());
            let ids = completed_ids(&outcome);
            assert!(!ids.is_empty(), "{} completed nothing", algo.name());
            match &reference {
                None => reference = Some((algo.name().to_string(), ids)),
                Some((ref_name, ref_ids)) => assert_eq!(
                    ref_ids,
                    &ids,
                    "seed {fault_seed}: {} and {} completed different job sets",
                    ref_name,
                    algo.name()
                ),
            }
        }
    }
}

/// A zero-intensity fault plan is the identity: the faulted run serializes
/// byte-for-byte identically to the unfaulted baseline, timeline included.
#[test]
fn zero_fault_plan_reproduces_unfaulted_baseline_exactly() {
    let cluster = testbed_cluster();
    let exp = experiment();
    let (workload, faulted_cluster) = faulted_instance(&exp, &cluster, FaultConfig::none(4242));
    for algo in Algo::FIG4 {
        let baseline = run_outcome(algo, &cluster, exp.build(&cluster));
        let faulted = run_outcome(algo, &faulted_cluster, workload.clone());
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&faulted).unwrap(),
            "{}: zero-fault run diverged from baseline",
            algo.name()
        );
    }
}

/// The same (workload, scheduler, fault seed) triple always yields a
/// byte-identical serialized [`SimOutcome`] — the reproducibility guarantee
/// that makes every other differential assertion meaningful.
#[test]
fn same_triple_twice_gives_byte_identical_outcomes() {
    let cluster = testbed_cluster();
    let exp = experiment();
    for fault_seed in [0u64, 7, 20180702] {
        for algo in [Algo::FlowTime, Algo::Edf, Algo::Fifo] {
            let serialized: Vec<String> = (0..2)
                .map(|_| {
                    let (workload, faulted_cluster) =
                        faulted_instance(&exp, &cluster, FaultConfig::mixed(fault_seed));
                    serde_json::to_string(&run_outcome(algo, &faulted_cluster, workload)).unwrap()
                })
                .collect();
            assert_eq!(
                serialized[0],
                serialized[1],
                "{} seed {fault_seed}: repeated run diverged",
                algo.name()
            );
        }
    }
}

/// The plan cache is purely a solver-effort optimization: with it enabled
/// vs. disabled, FlowTime's serialized outcome — metrics and full timeline
/// — is byte-identical on every one of the 20 fault seeds. Only the solver
/// telemetry counters may legitimately differ (that is the point of the
/// cache), so they are detached and checked separately before comparison.
#[test]
fn plan_cache_toggle_is_invisible_across_20_fault_seeds() {
    use flowtime::{FlowTimeConfig, FlowTimeScheduler};

    let cluster = testbed_cluster();
    let exp = experiment();
    let mut cache_answered = 0u64;
    for fault_seed in 0..20u64 {
        let (workload, faulted_cluster) =
            faulted_instance(&exp, &cluster, FaultConfig::mixed(fault_seed));
        let run = |plan_cache: bool| {
            // Replanning every slot maximizes both cache traffic (quiet
            // slots are pure elapsed-time shifts) and the chances for a
            // divergence to surface.
            let cfg = FlowTimeConfig {
                plan_cache,
                replan_every_slot: true,
                ..FlowTimeConfig::default()
            };
            let mut s = FlowTimeScheduler::new(faulted_cluster.clone(), cfg);
            Engine::new(faulted_cluster.clone(), workload.clone(), 1_000_000)
                .expect("valid workload")
                .with_timeline()
                .run(&mut s)
                .expect("invariants hold")
        };
        let mut on = run(true);
        let mut off = run(false);
        let on_t = on
            .solver_telemetry
            .take()
            .expect("flowtime reports telemetry");
        let off_t = off
            .solver_telemetry
            .take()
            .expect("flowtime reports telemetry");
        cache_answered += on_t.cache_hits();
        assert_eq!(
            off_t.cache_hits(),
            0,
            "seed {fault_seed}: cache disabled but hits counted"
        );
        assert_eq!(off_t.cache_misses, 0, "seed {fault_seed}: misses while off");
        assert_eq!(
            on_t.replans, off_t.replans,
            "seed {fault_seed}: cache changed the replan count"
        );
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&off).unwrap(),
            "seed {fault_seed}: plan cache changed the simulated outcome"
        );
    }
    assert!(
        cache_answered > 0,
        "the cache never answered a replan across 20 faulted runs"
    );
}

/// Fig. 5's regime — runtime under-estimation only — must leave FlowTime
/// no worse on milestone misses than deadline-driven EDF, aggregated over
/// fault seeds (the paper's robustness claim for deadline slack).
#[test]
fn flowtime_misses_at_most_edf_under_misestimation() {
    let cluster = testbed_cluster();
    let exp = experiment();
    let mut flowtime_misses = 0usize;
    let mut edf_misses = 0usize;
    for fault_seed in 0..10u64 {
        let config = FaultConfig::none(fault_seed).with_misestimate(0.25);
        let (workload, faulted_cluster) = faulted_instance(&exp, &cluster, config);
        flowtime_misses += run_outcome(Algo::FlowTime, &faulted_cluster, workload.clone())
            .metrics
            .job_deadline_misses();
        edf_misses += run_outcome(Algo::Edf, &faulted_cluster, workload)
            .metrics
            .job_deadline_misses();
    }
    assert!(
        flowtime_misses <= edf_misses,
        "FlowTime missed {flowtime_misses} milestones vs EDF's {edf_misses}"
    );
}

/// Metamorphic oracle check: the event-heap engine must reproduce the
/// historical linear-scan engine (preserved as
/// [`flowtime_sim::OracleEngine`] behind the `oracle` feature) exactly —
/// same event timeline, same metrics, same serialized [`SimOutcome`] — on
/// the same fault-injected corpus the differential suite runs, for every
/// scheduler. Engine telemetry is the one intentional difference (the
/// oracle reports no hot-path counters), so the heap engine's counters are
/// normalized away before comparison.
#[test]
fn heap_engine_matches_linear_scan_oracle_on_fault_corpus() {
    use flowtime_sim::OracleEngine;

    let cluster = testbed_cluster();
    let exp = experiment();
    for fault_seed in 0..6u64 {
        let (workload, faulted_cluster) =
            faulted_instance(&exp, &cluster, FaultConfig::mixed(fault_seed));
        for algo in Algo::FIG4 {
            let mut heap_sched = algo.make(&faulted_cluster);
            let mut heap = Engine::new(faulted_cluster.clone(), workload.clone(), 1_000_000)
                .expect("valid workload")
                .with_timeline()
                .run(heap_sched.as_mut())
                .unwrap_or_else(|e| panic!("{}: heap engine failed: {e}", algo.name()));
            let mut oracle_sched = algo.make(&faulted_cluster);
            let oracle = OracleEngine::new(faulted_cluster.clone(), workload.clone(), 1_000_000)
                .expect("valid workload")
                .with_timeline()
                .run(oracle_sched.as_mut())
                .unwrap_or_else(|e| panic!("{}: oracle engine failed: {e}", algo.name()));
            heap.engine_telemetry = EngineTelemetry::default();
            assert_eq!(
                serde_json::to_string(&heap).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "seed {fault_seed}: {} diverged from the linear-scan oracle",
                algo.name()
            );
        }
    }
}

/// The oracle agreement must also hold on the horizon-drain path: with a
/// horizon too short to finish the workload, both engines report the same
/// completed set, the same in-flight remainder, and `!is_complete()`.
#[test]
fn heap_engine_matches_oracle_when_the_horizon_exhausts() {
    use flowtime_sim::OracleEngine;

    let cluster = testbed_cluster();
    let exp = experiment();
    let (workload, faulted_cluster) = faulted_instance(&exp, &cluster, FaultConfig::mixed(3));
    for algo in [Algo::FlowTime, Algo::Edf, Algo::Fifo] {
        for horizon in [10u64, 40] {
            let mut heap_sched = algo.make(&faulted_cluster);
            let mut heap = Engine::new(faulted_cluster.clone(), workload.clone(), horizon)
                .expect("valid workload")
                .run(heap_sched.as_mut())
                .expect("drain returns Ok");
            let mut oracle_sched = algo.make(&faulted_cluster);
            let oracle = OracleEngine::new(faulted_cluster.clone(), workload.clone(), horizon)
                .expect("valid workload")
                .run(oracle_sched.as_mut())
                .expect("drain returns Ok");
            assert!(
                !heap.is_complete(),
                "{} horizon {horizon}: expected exhaustion",
                algo.name()
            );
            heap.engine_telemetry = EngineTelemetry::default();
            assert_eq!(
                serde_json::to_string(&heap).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "{} horizon {horizon}: drain paths diverged",
                algo.name()
            );
        }
    }
}

/// Canary: a scheduler that ignores capacity must be rejected by the
/// engine's invariant checking on the very same workloads the six real
/// schedulers pass. Proves the green runs above are not vacuous.
#[test]
fn oversubscribing_scheduler_is_rejected() {
    struct Oversubscriber;
    impl Scheduler for Oversubscriber {
        fn name(&self) -> &'static str {
            "oversubscriber"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            // Full parallelism for every runnable job, capacity be damned.
            for job in state.runnable() {
                alloc.assign(job.id, job.max_tasks_this_slot);
            }
            alloc
        }
    }

    let cluster = testbed_cluster();
    let exp = experiment();
    let (workload, faulted_cluster) = faulted_instance(&exp, &cluster, FaultConfig::mixed(1));
    let result = Engine::new(faulted_cluster, workload, 1_000_000)
        .expect("valid workload")
        .run(&mut Oversubscriber);
    let err = result.expect_err("oversubscription must be caught");
    assert!(
        err.to_string().contains("capacity"),
        "unexpected rejection: {err}"
    );
}

/// The canary above relies on the workload actually oversubscribing a
/// slot; sanity-check the premise on a tiny instance where one job alone
/// exceeds the cluster.
#[test]
fn oversubscription_canary_premise_holds_on_minimal_instance() {
    struct Oversubscriber;
    impl Scheduler for Oversubscriber {
        fn name(&self) -> &'static str {
            "oversubscriber"
        }
        fn plan_slot(&mut self, state: &SimState) -> Allocation {
            let mut alloc = Allocation::new();
            for job in state.runnable() {
                alloc.assign(job.id, job.max_tasks_this_slot);
            }
            alloc
        }
    }

    let mut workload = SimWorkload::default();
    workload.adhoc.push(AdhocSubmission::new(
        flowtime_dag::JobSpec::new("wide", 16, 1, ResourceVec::new([1, 1024])),
        0,
    ));
    let cluster = ClusterConfig::new(ResourceVec::new([4, 65_536]), 10.0);
    let result = Engine::new(cluster, workload, 1_000)
        .expect("valid workload")
        .run(&mut Oversubscriber);
    assert!(result.is_err(), "16 one-core tasks cannot fit 4 cores");
}
