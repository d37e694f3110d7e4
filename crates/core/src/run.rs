//! The one run path: a typed [`RunSpec`] and the single [`run`] that turns
//! `(spec, cluster, workload)` into an outcome and, on request, a
//! decision trace.
//!
//! Every front end — `flowtime-cli simulate | compare | whatif | sweep`,
//! the figure binaries, the property suites — describes a run with the
//! same struct and executes it through the same function, so a comparison
//! between two schedulers (or traced and untraced) can never be an
//! artifact of two slightly different engine set-ups. A run is one
//! [`Engine`] over the whole cluster, as the paper plans it (DESIGN.md
//! §31), and its bytes are those of an engine assembled by hand through
//! the builder API (`tests/differential.rs` pins this for all six
//! schedulers).

use crate::registry::Algo;
use crate::schedulers::FlowTimeConfig;
use flowtime_sim::{
    ClusterConfig, DecisionTrace, Engine, RecoverySetup, SimError, SimOutcome, SimWorkload,
};

/// Everything that determines a run besides the scenario itself.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The scheduler the engine runs.
    pub algo: Algo,
    /// Base configuration of the two FlowTime variants (see
    /// [`Algo::make_with`]); ignored by the baselines.
    pub flowtime: FlowTimeConfig,
    /// Slot horizon of the engine.
    pub max_slots: u64,
    /// Mid-run failure/recovery layer; `None` attaches no layer at all.
    pub recovery: Option<RecoverySetup>,
    /// Ring bound of the decision trace; `None` records nothing.
    /// Recording only observes: outcome bytes are the same either way.
    pub trace_capacity: Option<usize>,
    /// Record the full per-slot allocation timeline in the outcome.
    pub timeline: bool,
}

impl RunSpec {
    /// The plain run of `algo`: default FlowTime configuration, a
    /// million-slot horizon, no faults, no trace, no timeline.
    pub fn new(algo: Algo) -> Self {
        RunSpec {
            algo,
            flowtime: FlowTimeConfig::default(),
            max_slots: 1_000_000,
            recovery: None,
            trace_capacity: None,
            timeline: false,
        }
    }
}

/// What [`run`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The engine's outcome.
    pub outcome: SimOutcome,
    /// The decision trace; `None` for an untraced run.
    pub trace: Option<DecisionTrace>,
}

/// Runs `workload` on `cluster` as `spec` describes: one engine, with its
/// own scheduler instance (and therefore its own plan cache and
/// warm-start state) built against the cluster.
///
/// A run that exhausts the horizon is not an error: it is reported
/// through [`SimOutcome::in_flight`].
///
/// # Errors
///
/// The engine's error: a malformed workload or a scheduler the engine
/// rejects.
pub fn run(
    spec: &RunSpec,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
) -> Result<RunOutput, SimError> {
    let mut scheduler = spec.algo.make_with(cluster, &spec.flowtime);
    let mut engine = Engine::new(cluster.clone(), workload.clone(), spec.max_slots)?;
    if let Some(setup) = &spec.recovery {
        engine = engine.with_recovery(setup.clone());
    }
    if spec.timeline {
        engine = engine.with_timeline();
    }
    let (engine, handle) = match spec.trace_capacity {
        Some(capacity) => {
            let (engine, handle) = engine.with_trace(capacity);
            (engine, Some(handle))
        }
        None => (engine, None),
    };
    let outcome = engine.run(scheduler.as_mut())?;
    Ok(RunOutput {
        outcome,
        trace: handle.map(|handle| handle.take()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
    use flowtime_sim::{
        certified_diff, certify, AdhocSubmission, RunArtifacts, WorkflowSubmission,
        DEFAULT_TRACE_CAPACITY,
    };

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 65_536]), 10.0)
    }

    fn workload() -> SimWorkload {
        let mut wl = SimWorkload::default();
        for i in 0..3u64 {
            let mut b = WorkflowBuilder::new(WorkflowId::new(i + 1), format!("wf-{i}"));
            let spec = |n: &str| JobSpec::new(n, 6, 2, ResourceVec::new([1, 1024]));
            let x = b.add_job(spec("a"));
            let y = b.add_job(spec("b"));
            b.add_dep(x, y).unwrap();
            wl.workflows
                .push(WorkflowSubmission::new(b.window(i, 60).build().unwrap()));
        }
        for i in 0..6u64 {
            wl.adhoc.push(AdhocSubmission::new(
                JobSpec::new("adhoc", 3, 2, ResourceVec::new([1, 512])),
                i * 2,
            ));
        }
        wl
    }

    #[test]
    fn tracing_never_changes_the_outcome() {
        let wl = workload();
        let plain = RunSpec::new(Algo::FlowTime);
        let reference = run(&plain, &cluster(), &wl).unwrap();
        assert!(reference.trace.is_none());
        assert!(reference.outcome.is_complete());
        let traced = RunSpec {
            trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
            ..plain
        };
        let out = run(&traced, &cluster(), &wl).unwrap();
        assert_eq!(out.outcome, reference.outcome);
        let trace = out.trace.expect("a traced run records a trace");
        let report = certify(&cluster(), &wl, &out.outcome, &trace);
        assert!(report.is_certified(), "{}", report.summary());
    }

    #[test]
    fn timeline_is_recorded_only_on_request() {
        let wl = workload();
        let spec = RunSpec::new(Algo::Edf);
        let RunOutput { outcome, trace } = run(&spec, &cluster(), &wl).unwrap();
        assert!(outcome.timeline.is_none() && trace.is_none());
        let spec = RunSpec {
            timeline: true,
            ..spec
        };
        assert!(run(&spec, &cluster(), &wl)
            .unwrap()
            .outcome
            .timeline
            .is_some());
    }

    #[test]
    fn identical_spec_diff_is_empty() {
        let wl = workload();
        let record = || {
            let spec = RunSpec {
                trace_capacity: Some(4096),
                ..RunSpec::new(Algo::Fifo)
            };
            let out = run(&spec, &cluster(), &wl).unwrap();
            RunArtifacts {
                outcome: out.outcome,
                trace: out.trace.unwrap(),
            }
        };
        let (base, alt) = (record(), record());
        let diff = certified_diff(&cluster(), &wl, &base, None, &alt, None).unwrap();
        assert!(diff.identical, "same spec, same scheduler: {diff:?}");
        assert!(diff.first_divergence.is_none());
    }
}
