//! Property-based tests of the fault-injection plan and the engine's
//! invariant checker: across random fault intensities, seeds, and
//! schedulers, every run must pass every per-slot and final invariant.

use flowtime_bench::experiments::{faulted_instance, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_sim::prelude::*;
use proptest::prelude::*;

fn experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        ..Default::default()
    }
}

fn fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        0u64..1_000_000,
        0.0f64..0.5,
        0.0f64..0.5,
        0usize..8,
        0u64..30,
    )
        .prop_map(|(seed, sigma, churn, bursts, delay)| {
            FaultConfig::none(seed)
                .with_misestimate(sigma)
                .with_static_churn(churn)
                .with_bursts(bursts)
                .with_submit_delay(delay)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever faults are injected and whichever scheduler runs, the
    /// engine's extended invariant checking (on by default) never trips:
    /// capacity fits, readiness respected, work conserved, completion
    /// accounting consistent.
    #[test]
    fn no_scheduler_violates_invariants_under_random_faults(
        config in fault_config(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let (workload, faulted_cluster) = faulted_instance(&experiment(), &cluster, config);
        let algo = Algo::FIG4[algo_idx];
        let mut scheduler = algo.make(&faulted_cluster);
        let result = Engine::new(faulted_cluster, workload, 1_000_000)
            .expect("valid workload")
            .run(scheduler.as_mut());
        prop_assert!(result.is_ok(), "{}: {:?}", algo.name(), result.err());
    }

    /// A zero-intensity plan is the identity regardless of its seed.
    #[test]
    fn zero_intensity_plan_is_identity_for_any_seed(seed in 0u64..u64::MAX) {
        let cluster = testbed_cluster();
        let exp = experiment();
        let (workload, faulted_cluster) =
            faulted_instance(&exp, &cluster, FaultConfig::none(seed));
        prop_assert_eq!(workload, exp.build(&cluster));
        prop_assert_eq!(faulted_cluster, cluster);
    }

    /// Fault application is a pure function of (workload, cluster, config):
    /// re-applying the same plan yields an identical instance.
    #[test]
    fn fault_application_is_deterministic(config in fault_config()) {
        let cluster = testbed_cluster();
        let exp = experiment();
        let a = faulted_instance(&exp, &cluster, config.clone());
        let b = faulted_instance(&exp, &cluster, config);
        prop_assert_eq!(a, b);
    }

    /// The offline auditor certifies every traced run: whatever faults are
    /// injected and whichever scheduler plans, replaying the decision trace
    /// against the scenario independently re-derives the outcome with zero
    /// violations.
    #[test]
    fn auditor_certifies_every_traced_run_under_random_faults(
        config in fault_config(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let (workload, faulted_cluster) = faulted_instance(&experiment(), &cluster, config);
        let algo = Algo::FIG4[algo_idx];
        let mut scheduler = algo.make(&faulted_cluster);
        let (engine, handle) = Engine::new(faulted_cluster.clone(), workload.clone(), 1_000_000)
            .expect("valid workload")
            .with_trace(flowtime_sim::DEFAULT_TRACE_CAPACITY);
        let outcome = engine.run(scheduler.as_mut()).expect("run succeeds");
        prop_assert!(outcome.is_complete());
        let report = certify(&faulted_cluster, &workload, &outcome, &handle.take());
        prop_assert!(
            report.is_certified(),
            "{}: {}",
            algo.name(),
            report.summary()
        );
        prop_assert_eq!(report.attribution, outcome.deadline_attribution);
    }

    /// Horizon-drain variant: when the slot budget runs out with jobs still
    /// in flight (including jobs that never arrived), the auditor still
    /// certifies the partial run from its trace.
    #[test]
    fn auditor_certifies_horizon_drained_runs(
        config in fault_config(),
        algo_idx in 0usize..Algo::FIG4.len(),
        max_slots in 2u64..60,
    ) {
        let cluster = testbed_cluster();
        let (workload, faulted_cluster) = faulted_instance(&experiment(), &cluster, config);
        let algo = Algo::FIG4[algo_idx];
        let mut scheduler = algo.make(&faulted_cluster);
        let (engine, handle) = Engine::new(faulted_cluster.clone(), workload.clone(), max_slots)
            .expect("valid workload")
            .with_trace(flowtime_sim::DEFAULT_TRACE_CAPACITY);
        let outcome = engine.run(scheduler.as_mut()).expect("drain is not an error");
        let report = certify(&faulted_cluster, &workload, &outcome, &handle.take());
        prop_assert!(
            report.is_certified(),
            "{} at {} slots: {}",
            algo.name(),
            max_slots,
            report.summary()
        );
    }

    /// Misestimation rewrites ground truth but never the scheduler-visible
    /// estimates, and never produces zero-work jobs.
    #[test]
    fn misestimation_preserves_estimates_and_positivity(
        seed in 0u64..100_000,
        sigma in 0.01f64..1.0,
    ) {
        let cluster = testbed_cluster();
        let exp = experiment();
        let clean = exp.build(&cluster);
        let (faulted, _) =
            faulted_instance(&exp, &cluster, FaultConfig::none(seed).with_misestimate(sigma));
        for (c, f) in clean.workflows.iter().zip(&faulted.workflows) {
            prop_assert_eq!(&c.workflow, &f.workflow, "estimates must be untouched");
            let actual = f.actual_work.as_ref().expect("ground truth injected");
            prop_assert_eq!(actual.len(), f.workflow.len());
            prop_assert!(actual.iter().all(|&w| w >= 1));
        }
    }
}
