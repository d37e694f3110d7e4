//! Metamorphic properties of the `explain` diagnostic engine: across the
//! chaos corpus (random mid-run fault intensities × retry/shed policies ×
//! all six schedulers), every diagnostic must cite only events that exist
//! in the recorded trace, every causal chain's slack accounting must
//! balance exactly against the auditor's independent `MissAttribution`
//! recount, diagnostics must exist iff the run missed workflow deadlines,
//! and the whole report must be byte-deterministic across re-runs.

use flowtime::RunSpec;
use flowtime_bench::experiments::{run_checked, testbed_cluster, Algo, WorkflowExperiment};
use flowtime_sim::explain::event_kind;
use flowtime_sim::prelude::*;
use flowtime_sim::{explain, TraceEvent};
use proptest::prelude::*;

/// The traced run of `algo` through the harness's checked runner.
fn record(
    algo: Algo,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    setup: Option<&RecoverySetup>,
) -> (SimOutcome, DecisionTrace) {
    let spec = RunSpec {
        recovery: setup.cloned(),
        trace_capacity: Some(flowtime_sim::DEFAULT_TRACE_CAPACITY),
        ..RunSpec::new(algo)
    };
    let flowtime::RunOutput { outcome, trace } = run_checked(&spec, cluster, workload);
    (outcome, trace.expect("traced run"))
}

fn experiment() -> WorkflowExperiment {
    WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 5,
        adhoc_horizon: 40,
        ..Default::default()
    }
}

/// Random mid-run fault intensities — same shape as the recovery suite's
/// corpus, so the explain layer is exercised on exactly the runs the
/// auditor already certifies.
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

    /// The headline property: whatever faults fire and whichever scheduler
    /// plans, `explain` accepts the certified run and every claim it makes
    /// is grounded — each cited [`flowtime_sim::EventRef`] resolves to a
    /// real trace event with the same kind, slot, and job, and each missed
    /// workflow's E001 slack sums to the auditor's independent recount.
    #[test]
    fn diagnostics_cite_real_events_and_balance_to_the_auditor(
        setup in setup(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let algo = Algo::FIG4[algo_idx];
        let (outcome, trace) = record(algo, &cluster, &workload, Some(&setup));
        let report = explain(&cluster, &workload, &outcome, &trace, Some(&setup))
            .expect("certified runs must be explainable");

        // Every missed workflow gets a chain; clean runs get none.
        let missed = outcome
            .metrics
            .workflows
            .iter()
            .filter(|w| w.missed_deadline())
            .count();
        prop_assert_eq!(report.missed_workflows(), missed);
        prop_assert_eq!(report.diagnostics() == 0, missed == 0);

        let events: Vec<&TraceEvent> = trace.events().collect();
        let audit = certify_with_recovery(&cluster, &workload, &outcome, &trace, Some(&setup));
        prop_assert!(audit.is_certified(), "{}", audit.summary());

        for wf in &report.workflows {
            // Grounding: evidence only ever points into the trace, and the
            // pointed-at event agrees on kind, slot, and job.
            for d in &wf.chain {
                for r in &d.evidence {
                    let ev = events.get(r.index as usize);
                    prop_assert!(ev.is_some(), "evidence index {} out of range", r.index);
                    let ev = ev.unwrap();
                    prop_assert_eq!(event_kind(ev), r.kind.as_str());
                    prop_assert_eq!(ev.slot(), r.slot);
                    prop_assert_eq!(ev.job(), r.job);
                }
            }
            // Slack balance: the E001 anchors sum exactly to the auditor's
            // independently recounted overrun for this workflow.
            let e001: u64 = wf
                .chain
                .iter()
                .filter(|d| d.code == "E001")
                .map(|d| d.slack_slots)
                .sum();
            prop_assert_eq!(e001, wf.total_overrun_slots);
            let attr = audit
                .attribution
                .iter()
                .find(|a| a.workflow == wf.workflow)
                .expect("auditor attributes every missed workflow");
            prop_assert_eq!(wf.total_overrun_slots, attr.total_overrun_slots);
        }
    }

    /// Byte-determinism: explaining the same run twice — and explaining a
    /// from-scratch re-run of the same scenario — yields identical bytes.
    #[test]
    fn explain_is_byte_deterministic_across_reruns(
        setup in setup(),
        algo_idx in 0usize..Algo::FIG4.len(),
    ) {
        let cluster = testbed_cluster();
        let workload = experiment().build(&cluster);
        let algo = Algo::FIG4[algo_idx];
        let (outcome, trace) = record(algo, &cluster, &workload, Some(&setup));
        let first = serde_json::to_string(
            &explain(&cluster, &workload, &outcome, &trace, Some(&setup)).unwrap(),
        )
        .unwrap();
        let again = serde_json::to_string(
            &explain(&cluster, &workload, &outcome, &trace, Some(&setup)).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&first, &again);
        let (outcome2, trace2) = record(algo, &cluster, &workload, Some(&setup));
        let rerun = serde_json::to_string(
            &explain(&cluster, &workload, &outcome2, &trace2, Some(&setup)).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&first, &rerun);
    }
}

/// A clean, generously-provisioned scenario: no injected faults, loose
/// deadlines. Every scheduler meets every deadline, so `explain` must
/// stay silent for all six.
#[test]
fn clean_feasible_runs_yield_zero_diagnostics_for_all_six_schedulers() {
    let cluster = testbed_cluster();
    let workload = WorkflowExperiment {
        workflows: 2,
        jobs_per_workflow: 4,
        looseness: 8.0,
        adhoc_rate: 0.1,
        adhoc_horizon: 40,
        ..Default::default()
    }
    .build(&cluster);
    for algo in Algo::FIG4 {
        let (outcome, trace) = record(algo, &cluster, &workload, None);
        assert_eq!(
            outcome.metrics.workflow_deadline_misses(),
            0,
            "{}: the clean scenario must be feasible",
            algo.name()
        );
        let report = explain(&cluster, &workload, &outcome, &trace, None).unwrap();
        assert_eq!(report.missed_workflows(), 0, "{}", algo.name());
        assert_eq!(report.diagnostics(), 0, "{}", algo.name());
        assert!(report.events_checked > 0);
    }
}
