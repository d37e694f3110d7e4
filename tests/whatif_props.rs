//! Differential properties of the `whatif` policy-diff harness: an
//! identical-policy replay is a byte-identical no-op diff, cross-scheduler
//! diffs on the fault-seed corpus certify both sides and are stable
//! across 1/2/8 bench worker threads, and a mutation-negative corpus
//! (corrupt a replayed trace or outcome) is flagged at the exact
//! divergence slot by the pure diff kernel.

use flowtime::RunSpec;
use flowtime_bench::experiments::{testbed_cluster, Algo, WorkflowExperiment};
use flowtime_sim::prelude::*;
use flowtime_sim::{certified_diff, diff_runs, run_cells, RunArtifacts, TraceEvent, WhatIfError};
use proptest::prelude::*;

const TRACE_CAPACITY: usize = 1 << 18;

fn experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        ..Default::default()
    }
}

fn fault_setup(seed: u64) -> RecoverySetup {
    RecoverySetup::new(
        RuntimeFaultConfig::none(seed)
            .with_task_failures(0.4)
            .with_crashes(0.3)
            .with_crash_period(12)
            .with_stragglers(0.3, 0.8),
        RecoveryPolicy::default()
            .with_max_retries(3)
            .with_backoff(1),
    )
}

/// Records one side of a what-if: a fresh scheduler instance replaying
/// the scenario with full tracing.
fn record(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    setup: Option<&RecoverySetup>,
) -> RunArtifacts {
    let spec = RunSpec {
        recovery: setup.cloned(),
        trace_capacity: Some(TRACE_CAPACITY),
        ..RunSpec::new(algo)
    };
    let flowtime::RunOutput { outcome, trace } =
        flowtime::run(&spec, cluster, workload).expect("replay runs");
    RunArtifacts {
        outcome,
        trace: trace.expect("traced run"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An identical-policy what-if is the harness's own determinism
    /// check: it must certify both sides and produce the empty diff, and
    /// the empty diff must serialize to the same bytes every time.
    #[test]
    fn identical_policy_whatif_is_a_byte_identical_noop(
        fault_seed in 0u64..1_000_000,
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let setup = fault_setup(fault_seed);
        let algo = Algo::FIG4[algo_idx];
        let base = record(algo, &cluster, &workload, Some(&setup));
        let alt = record(algo, &cluster, &workload, Some(&setup));
        let diff = certified_diff(&cluster, &workload, &base, Some(&setup), &alt, Some(&setup))
            .expect("both sides certify");
        prop_assert!(diff.identical, "identical policy must no-op");
        prop_assert!(diff.jobs.is_empty());
        prop_assert!(diff.workflows.is_empty());
        prop_assert!(diff.first_divergence.is_none());
        let bytes = serde_json::to_string(&diff).unwrap();
        let again = certified_diff(&cluster, &workload, &base, Some(&setup), &alt, Some(&setup))
            .unwrap();
        prop_assert_eq!(bytes, serde_json::to_string(&again).unwrap());
    }

    /// Mutation-negative, trace side: corrupt one event of a replayed
    /// trace and the pure diff kernel must flag the divergence at exactly
    /// that event index and slot, while the certified path refuses the
    /// corrupted side outright.
    #[test]
    fn corrupted_trace_is_flagged_at_the_exact_event(
        fault_seed in 0u64..1_000_000,
        algo_idx in 0usize..Algo::FIG4.len(),
        pick in 0usize..usize::MAX,
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let setup = fault_setup(fault_seed);
        let algo = Algo::FIG4[algo_idx];
        let base = record(algo, &cluster, &workload, Some(&setup));
        let mut alt = base.clone();
        let len = alt.trace.events().count();
        prop_assume!(len > 0);
        let k = pick % len;
        let was_finish = matches!(alt.trace.events_mut()[k], TraceEvent::Finish { .. });
        let slot = alt.trace.events_mut()[k].slot();
        alt.trace.events_mut()[k] = TraceEvent::PolicyTag {
            slot,
            tag: "corrupt".to_string(),
        };
        // The replaced event must actually differ (the scenario never
        // emits a "corrupt" policy tag), so k is the first divergence.
        let diff = diff_runs(&base, &alt);
        prop_assert!(!diff.identical);
        let d = diff.first_divergence.expect("corruption must be flagged");
        prop_assert_eq!(d.index, k as u64);
        prop_assert_eq!(d.slot, slot);
        // Clobbering a load-bearing event (a Finish carries the work
        // accounting the auditor recounts) also fails certification, so
        // the certified path refuses the corrupted side outright.
        if was_finish {
            let err = certified_diff(&cluster, &workload, &base, Some(&setup), &alt, Some(&setup))
                .unwrap_err();
            let WhatIfError::Uncertified { side, .. } = err;
            prop_assert_eq!(side, "alt");
        }
    }

    /// Mutation-negative, outcome side: shift one job's recorded
    /// completion and the diff gains exactly that job's row (the traces
    /// are untouched, so no event divergence is claimed).
    #[test]
    fn corrupted_outcome_yields_exactly_that_jobs_row(
        fault_seed in 0u64..1_000_000,
        algo_idx in 0usize..Algo::FIG4.len(),
        pick in 0usize..usize::MAX,
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let setup = fault_setup(fault_seed);
        let algo = Algo::FIG4[algo_idx];
        let base = record(algo, &cluster, &workload, Some(&setup));
        let mut alt = base.clone();
        prop_assume!(!alt.outcome.metrics.jobs.is_empty());
        let k = pick % alt.outcome.metrics.jobs.len();
        let job = alt.outcome.metrics.jobs[k].id;
        alt.outcome.metrics.jobs[k].completion_slot += 1_000;
        let diff = diff_runs(&base, &alt);
        prop_assert!(!diff.identical);
        prop_assert_eq!(diff.jobs.len(), 1);
        prop_assert_eq!(diff.jobs[0].job, job);
        prop_assert!(diff.jobs[0].diverged.is_none(), "traces were untouched");
        prop_assert!(diff.first_divergence.is_none());
    }
}

/// Cross-scheduler diffs over the fault-seed corpus: every pair certifies
/// on both sides, and computing the whole corpus on 1, 2, and 8 bench
/// worker threads yields byte-identical diffs.
#[test]
fn cross_scheduler_diffs_certify_and_are_thread_stable() {
    let cluster = testbed_cluster();
    let workload = experiment().build(&cluster);
    let corpus: Vec<(u64, Algo, Algo)> = vec![
        (11, Algo::FlowTime, Algo::Edf),
        (11, Algo::Fifo, Algo::Fair),
        (42, Algo::FlowTime, Algo::Morpheus),
        (42, Algo::Cora, Algo::FlowTimeNoDs),
        (77, Algo::Edf, Algo::Fifo),
        (77, Algo::FlowTime, Algo::Fair),
    ];
    let compute = |_i: usize, cell: &(u64, Algo, Algo)| {
        let (seed, base_algo, alt_algo) = *cell;
        let setup = fault_setup(seed);
        let base = record(base_algo, &cluster, &workload, Some(&setup));
        let alt = record(alt_algo, &cluster, &workload, Some(&setup));
        let diff = certified_diff(&cluster, &workload, &base, Some(&setup), &alt, Some(&setup))
            .expect("both sides certify");
        serde_json::to_string(&diff).expect("diff serializes")
    };
    let serial = run_cells(&corpus, 1, compute);
    for threads in [2usize, 8] {
        let parallel = run_cells(&corpus, threads, compute);
        assert_eq!(
            serial, parallel,
            "diff bytes must not depend on worker count ({threads} threads)"
        );
    }
    // Sanity: distinct schedulers on a faulty scenario actually diverge.
    assert!(serial.iter().any(|d| d.contains("\"identical\":false")));
}
