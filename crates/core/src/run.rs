//! The one run path: a typed [`RunSpec`] and the single [`run`] that turns
//! `(spec, cluster, workload)` into per-pod outcomes.
//!
//! Every front end — `flowtime-cli simulate | compare | whatif | sweep`,
//! the figure binaries, the property suites — describes a run with the
//! same struct and executes it through the same function, so a comparison
//! between two schedulers (or two pod counts, or traced and untraced) can
//! never be an artifact of two slightly different engine set-ups.
//!
//! An unsharded run is `K = 1` of the sharded one: the placement puts
//! every submission on pod 0 in its original order and
//! [`flowtime_sim::pod_cluster`] hands pod 0 the whole cluster, so pod 0's
//! [`flowtime_sim::SimOutcome`] and decision trace are byte-for-byte what
//! a directly built [`Engine`] produces (`tests/shard_props.rs` pins this
//! against the engine's builder API for all six schedulers).

use crate::registry::Algo;
use crate::schedulers::FlowTimeConfig;
use flowtime_sim::{
    place, pod_cluster, run_cells, ClusterConfig, DecisionTrace, Engine, RecoverySetup,
    ShardedOutcome, SimError, SimOutcome, SimWorkload,
};

/// Everything that determines a run besides the scenario itself.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The scheduler every pod runs.
    pub algo: Algo,
    /// Base configuration of the two FlowTime variants (see
    /// [`Algo::make_with`]); ignored by the baselines.
    pub flowtime: FlowTimeConfig,
    /// Slot horizon of every pod's engine.
    pub max_slots: u64,
    /// Mid-run failure/recovery layer, armed on every pod with the same
    /// seed; `None` attaches no layer at all.
    pub recovery: Option<RecoverySetup>,
    /// Pods the cluster is partitioned into; `1` is the unsharded run.
    pub pods: usize,
    /// Ring bound of the per-pod decision trace; `None` records nothing.
    /// Recording only observes: outcome bytes are the same either way.
    pub trace_capacity: Option<usize>,
    /// Record the full per-slot allocation timeline in every pod outcome.
    pub timeline: bool,
    /// Worker threads the pods run on; never changes a byte of the output.
    pub threads: usize,
}

impl RunSpec {
    /// The plain run of `algo`: one pod, default FlowTime configuration,
    /// a million-slot horizon, no faults, no trace, no timeline.
    pub fn new(algo: Algo) -> Self {
        RunSpec {
            algo,
            flowtime: FlowTimeConfig::default(),
            max_slots: 1_000_000,
            recovery: None,
            pods: 1,
            trace_capacity: None,
            timeline: false,
            threads: 1,
        }
    }
}

/// What [`run`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The placement plus one outcome per pod, in pod order.
    pub outcome: ShardedOutcome,
    /// One decision trace per pod, in pod order; empty for an untraced
    /// run.
    pub traces: Vec<DecisionTrace>,
}

impl RunOutput {
    /// The outcome and trace of a one-pod run.
    ///
    /// # Panics
    ///
    /// Panics if the run had more than one pod.
    pub fn into_single(mut self) -> (SimOutcome, Option<DecisionTrace>) {
        assert_eq!(self.outcome.pods.len(), 1, "not a one-pod run");
        (self.outcome.pods.remove(0), self.traces.pop())
    }
}

/// Runs `workload` on `cluster` as `spec` describes: places every
/// submission on a pod, then runs one engine per pod — each with its own
/// scheduler instance (and therefore its own plan cache and warm-start
/// state) built against the pod's capacity slice — on up to
/// `spec.threads` workers.
///
/// A run that exhausts the horizon is not an error: it is reported
/// through [`SimOutcome::in_flight`].
///
/// # Errors
///
/// The first per-pod engine error, in pod order.
pub fn run(
    spec: &RunSpec,
    cluster: &ClusterConfig,
    workload: &SimWorkload,
) -> Result<RunOutput, SimError> {
    let placement = place(cluster, workload, spec.pods);
    let pod_workloads = placement.pod_workloads(workload)?;
    let results = run_cells(&pod_workloads, spec.threads, |pod, pod_workload| {
        run_pod(spec, cluster, pod, pod_workload.clone())
    });
    let mut pods = Vec::with_capacity(results.len());
    let mut traces = Vec::new();
    for result in results {
        let (outcome, trace) = result?;
        pods.push(outcome);
        traces.extend(trace);
    }
    Ok(RunOutput {
        outcome: ShardedOutcome { placement, pods },
        traces,
    })
}

/// Builds and runs one pod's engine, fully isolated from its siblings.
fn run_pod(
    spec: &RunSpec,
    cluster: &ClusterConfig,
    pod: usize,
    pod_workload: SimWorkload,
) -> Result<(SimOutcome, Option<DecisionTrace>), SimError> {
    let pods = spec.pods;
    let pc = pod_cluster(cluster, pods, pod);
    let mut scheduler = spec.algo.make_with(&pc, &spec.flowtime);
    let mut engine = Engine::new(pc, pod_workload, spec.max_slots)?;
    if let Some(setup) = &spec.recovery {
        engine = engine.with_recovery(setup.clone());
    }
    if spec.timeline {
        engine = engine.with_timeline();
    }
    let (mut outcome, mut trace) = match spec.trace_capacity {
        Some(capacity) => {
            let (engine, handle) = engine.with_trace(capacity);
            let outcome = engine.run(scheduler.as_mut())?;
            (outcome, Some(handle.take()))
        }
        None => (engine.run(scheduler.as_mut())?, None),
    };
    outcome.pod = pod as u64;
    // Stamp pod provenance into the trace header so offline consumers
    // (audit CLI, explain) can re-derive the shard spec from the trace
    // alone. K = 1 stays unstamped: its bytes must remain identical to a
    // directly built engine's.
    if pods > 1 {
        if let Some(trace) = trace.as_mut() {
            trace.header.pods = pods as u64;
            trace.header.pod = pod as u64;
        }
    }
    Ok((outcome, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};
    use flowtime_sim::{
        certified_sharded_diff, certify_sharded, AdhocSubmission, ShardedRunArtifacts,
        WorkflowSubmission, DEFAULT_TRACE_CAPACITY,
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
    fn tracing_and_thread_count_never_change_the_outcome() {
        let wl = workload();
        for pods in [1usize, 2, 3] {
            let plain = RunSpec {
                pods,
                ..RunSpec::new(Algo::FlowTime)
            };
            let reference = run(&plain, &cluster(), &wl).unwrap();
            assert_eq!(reference.outcome.pods.len(), pods);
            assert!(reference.traces.is_empty());
            assert!(reference.outcome.is_complete());
            let traced = RunSpec {
                trace_capacity: Some(DEFAULT_TRACE_CAPACITY),
                threads: pods,
                ..plain.clone()
            };
            let out = run(&traced, &cluster(), &wl).unwrap();
            assert_eq!(out.outcome, reference.outcome, "pods={pods}");
            assert_eq!(out.traces.len(), pods);
            let report = certify_sharded(&cluster(), &wl, pods, &out.outcome, &out.traces, None);
            assert!(report.is_certified(), "pods={pods}: {}", report.summary());
        }
    }

    #[test]
    fn timeline_is_recorded_only_on_request() {
        let wl = workload();
        let spec = RunSpec::new(Algo::Edf);
        let (outcome, trace) = run(&spec, &cluster(), &wl).unwrap().into_single();
        assert!(outcome.timeline.is_none() && trace.is_none());
        let spec = RunSpec {
            timeline: true,
            ..spec
        };
        let (outcome, _) = run(&spec, &cluster(), &wl).unwrap().into_single();
        assert!(outcome.timeline.is_some());
    }

    #[test]
    fn sharded_identical_spec_diff_is_empty() {
        let wl = workload();
        let record = |threads: usize| {
            let spec = RunSpec {
                pods: 2,
                trace_capacity: Some(4096),
                threads,
                ..RunSpec::new(Algo::Fifo)
            };
            let out = run(&spec, &cluster(), &wl).unwrap();
            ShardedRunArtifacts {
                outcome: out.outcome,
                traces: out.traces,
            }
        };
        let (base, alt) = (record(1), record(2));
        let diff = certified_sharded_diff(&cluster(), &wl, &base, 2, None, &alt, 2, None).unwrap();
        assert!(diff.identical, "same spec, same scheduler: {diff:?}");
        assert!(diff.first_divergence.is_none());
    }
}
