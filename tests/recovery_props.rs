//! Property-based tests of the mid-run failure/recovery subsystem: across
//! random fault intensities, retry policies, shed policies, and all six
//! schedulers, every traced run must be certified by the offline auditor,
//! the recovery accounting must balance, and a chaos sweep must stay
//! byte-identical for any worker-thread count.

use flowtime::RunSpec;
use flowtime_bench::experiments::{run_checked, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_bench::sweep::{SweepScenario, SweepSpec};
use flowtime_sim::prelude::*;
use proptest::prelude::*;

/// The run of `algo` with the recovery layer armed, optionally
/// traced, through the harness's checked runner.
fn run_recovery(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    setup: &RecoverySetup,
    traced: bool,
) -> (SimOutcome, Option<DecisionTrace>) {
    let spec = RunSpec {
        recovery: Some(setup.clone()),
        trace_capacity: traced.then_some(flowtime_sim::DEFAULT_TRACE_CAPACITY),
        ..RunSpec::new(algo)
    };
    let out = run_checked(&spec, cluster, workload);
    (out.outcome, out.trace)
}

fn experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        ..Default::default()
    }
}

/// Random mid-run fault intensities with every class enabled at least
/// sometimes: task failures are always on (the tentpole fault), crashes
/// and stragglers vary from off to heavy.
fn fault_config() -> impl Strategy<Value = RuntimeFaultConfig> {
    (
        0u64..1_000_000,
        0.05f64..0.8,
        0.0f64..0.6,
        6u64..60,
        0.0f64..0.5,
        0.1f64..1.5,
    )
        .prop_map(|(seed, fail, crash, period, straggle, factor)| {
            RuntimeFaultConfig::none(seed)
                .with_task_failures(fail)
                .with_crashes(crash)
                .with_crash_period(period)
                .with_stragglers(straggle, factor)
        })
}

/// Random retry bounds and degradation rules, including both admission
/// control modes. The overload detector is kept permissive enough that
/// shedding actually fires on the small testbed when selected.
fn recovery_policy() -> impl Strategy<Value = RecoveryPolicy> {
    (1u32..5, 0u64..3, 0usize..3, 1u64..4, 0.5f64..4.0, 1u64..6).prop_map(
        |(retries, backoff, shed_idx, delay, factor, sustain)| {
            let shed = match shed_idx {
                0 => ShedPolicy::None,
                1 => ShedPolicy::Shed,
                _ => ShedPolicy::Delay { slots: delay },
            };
            RecoveryPolicy::default()
                .with_max_retries(retries)
                .with_backoff(backoff)
                .with_shed(shed)
                .with_overload(factor, sustain)
        },
    )
}

fn setup() -> impl Strategy<Value = RecoverySetup> {
    (fault_config(), recovery_policy())
        .prop_map(|(faults, policy)| RecoverySetup::new(faults, policy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: whatever mid-run faults fire and whichever
    /// scheduler plans, the offline auditor certifies the traced run — it
    /// independently re-derives every kill, retry, straggler inflation,
    /// and shed verdict from the seeded plan and recounts the recovery
    /// stats to the byte.
    #[test]
    fn auditor_certifies_every_recovery_run_for_all_six_schedulers(
        setup in setup(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let algo = Algo::FIG4[algo_idx];
        let (outcome, trace) = run_recovery(algo, &cluster, &workload, &setup, true);
        let trace = trace.expect("traced run");
        let report = certify_with_recovery(&cluster, &workload, &outcome, &trace, Some(&setup));
        prop_assert!(
            report.is_certified(),
            "{}: {}",
            algo.name(),
            report.summary()
        );
        prop_assert_eq!(report.attribution, outcome.deadline_attribution);
    }

    /// Recovery accounting balances on every run: each retry is caused by
    /// exactly one task failure or crash kill, every killed attempt wastes
    /// the work it had done, and shed jobs appear exactly once each.
    #[test]
    fn recovery_accounting_balances(
        setup in setup(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let (outcome, _) = run_recovery(Algo::FIG4[algo_idx], &cluster, &workload, &setup, false);
        let r = &outcome.recovery;
        prop_assert_eq!(r.retries, r.task_failures + r.crash_kills);
        prop_assert_eq!(r.shed_jobs as usize, outcome.shed.len());
        if r.retries == 0 {
            prop_assert_eq!(r.wasted_work, 0);
        }
        prop_assert!(r.straggler_extra_work >= r.stragglers);
    }

    /// The recovery engine is a pure function of (workload, cluster,
    /// setup): re-running the same chaos instance yields byte-identical
    /// serialized outcomes.
    #[test]
    fn recovery_runs_are_deterministic(setup in setup()) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let (a, _) = run_recovery(Algo::FlowTime, &cluster, &workload, &setup, false);
        let (b, _) = run_recovery(Algo::FlowTime, &cluster, &workload, &setup, false);
        prop_assert_eq!(
            serde_json::to_string(&a).expect("outcome serializes"),
            serde_json::to_string(&b).expect("outcome serializes")
        );
    }

    /// `max_retries = 0` disables kills entirely (the final permitted
    /// attempt always runs to completion), so only straggler inflation
    /// survives from the fault plan.
    #[test]
    fn zero_retries_disables_every_kill(
        faults in fault_config(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let setup = RecoverySetup::new(
            faults,
            RecoveryPolicy::default().with_max_retries(0),
        );
        let (outcome, _) = run_recovery(Algo::FIG4[algo_idx], &cluster, &workload, &setup, false);
        let r = &outcome.recovery;
        prop_assert_eq!(r.task_failures, 0);
        prop_assert_eq!(r.crash_kills, 0);
        prop_assert_eq!(r.retries, 0);
        prop_assert_eq!(r.wasted_work, 0);
    }
}

/// The thread-determinism contract under chaos: an audited sweep with
/// mid-run failures enabled serializes byte-for-byte identically on 1, 2,
/// and 8 worker threads — every cell's `SimOutcome` (kills, retries,
/// sheds, crash windows) is reproduced exactly regardless of which worker
/// ran it, and every cell is certified along the way (`audit: true` panics
/// on the first uncertified cell).
#[test]
fn chaos_sweep_is_byte_identical_across_thread_counts() {
    let spec = SweepSpec {
        base: experiment(),
        cluster: testbed_cluster(),
        scenarios: vec![SweepScenario::chaos(0.3)],
        schedulers: Algo::FIG4.to_vec(),
        fault_seeds: vec![0, 1],
        audit: true,
    };
    let sequential = serde_json::to_string_pretty(&spec.run(1)).expect("report serializes");
    assert!(
        sequential.contains("\"recovery\""),
        "chaos sweep must record recovery counters"
    );
    for threads in [2usize, 8] {
        let parallel = serde_json::to_string_pretty(&spec.run(threads)).expect("report serializes");
        assert_eq!(
            parallel, sequential,
            "chaos sweep diverged at {threads} threads"
        );
    }
}

/// Per slot, the engine's accounting invariants visit only the live set
/// and fold the rows that leave it into running sums; this binary builds
/// `flowtime-sim` with `oracle`, so the whole-table pass runs beside that
/// on every slot and a difference in verdict or totals fails the run as
/// `live-set-agreement`. Kills (progress moved into `wasted`), straggler
/// inflation (`actual_work` grown mid-run), shedding and deferral are the
/// writes the linear-scan `OracleEngine` of `tests/differential.rs` does
/// not model, so they get their own grid here: six schedulers × 20 fault
/// seeds × {task failures + crashes + stragglers} × {shed, delay}.
#[test]
fn live_set_invariant_pass_agrees_with_the_whole_table_on_every_chaos_slot() {
    let cluster = testbed_cluster();
    let workload = experiment().build(&cluster);
    let mut totals = RecoveryStats::default();
    let mut runs = 0;
    for &algo in Algo::FIG4.iter() {
        for seed in 0..20u64 {
            for shed in [ShedPolicy::Shed, ShedPolicy::Delay { slots: 3 }] {
                let setup = RecoverySetup::new(
                    RuntimeFaultConfig::none(seed)
                        .with_task_failures(0.1 + 0.04 * seed as f64)
                        .with_crashes(0.3)
                        .with_crash_period(12)
                        .with_stragglers(0.3, 0.5),
                    RecoveryPolicy::default()
                        .with_max_retries(3)
                        .with_shed(shed)
                        .with_overload(0.5, 1),
                );
                let spec = RunSpec {
                    recovery: Some(setup),
                    ..RunSpec::new(algo)
                };
                let out = match flowtime::run(&spec, &cluster, &workload) {
                    Ok(out) => out.outcome,
                    Err(e) => panic!("{} seed {seed} {shed:?}: {e}", algo.name()),
                };
                let r = &out.recovery;
                totals.retries += r.retries;
                totals.wasted_work += r.wasted_work;
                totals.stragglers += r.stragglers;
                totals.shed_jobs += r.shed_jobs;
                totals.delayed_jobs += r.delayed_jobs;
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 6 * 20 * 2);
    // Every write path the frozen-row argument lists was exercised.
    assert!(totals.retries > 0 && totals.wasted_work > 0, "{totals:?}");
    assert!(totals.stragglers > 0, "{totals:?}");
    assert!(
        totals.shed_jobs > 0 && totals.delayed_jobs > 0,
        "{totals:?}"
    );
}
