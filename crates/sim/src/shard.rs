//! Sharded pod-level scheduling: partition the cluster into K pods and
//! place submissions onto pods with a cheap top-level bin-packer. The run
//! path above this crate (`flowtime::run`) then runs one independent
//! engine (and per-pod LP solver) per pod on the work-stealing
//! [`crate::run_cells`] runner.
//!
//! The paper solves one allocation LP over the whole cluster per replan;
//! that cannot serve very large clusters. DAGPS-style systems show a
//! lightweight global placer above locally-packed partitions captures
//! most of the monolithic optimum. This module is that two-level shape:
//!
//! * [`split_capacity`] slices cluster capacity into K pod slices that
//!   sum **exactly** to the cluster capacity (remainders go to the first
//!   pods), including every [`crate::cluster::CapacityWindow`].
//! * A [`Placer`] assigns each workflow / ad-hoc submission to a pod by
//!   bin-packing its decomposed demand rate ([`PlacerState`]).
//! * A bounded rebalance pass moves ad-hoc load off pods whose projected
//!   backlog exceeds `overload_factor ×` their cores — the same
//!   backpressure signal the [`crate::faults::RecoveryPolicy`] admission
//!   controller uses — and records every move in the [`PlacementLog`].
//! * [`PlacementLog::pod_workloads`] splits the workload into the per-pod
//!   sub-workloads the engines run, and [`ShardedOutcome`] collects their
//!   outcomes.
//!
//! # Determinism and the K=1 contract
//!
//! The placement is a **pure function** of `(cluster, workload, spec)`:
//! the auditor ([`crate::audit::certify_sharded`]) recomputes it from
//! scratch and rejects any divergence. Each pod is a self-contained
//! deterministic simulation, and reduction happens in pod order, so a
//! sharded run is byte-identical for any thread count. With `pods = 1`
//! every submission lands on pod 0 in its original order and the pod
//! cluster *is* the cluster, so pod 0's [`SimOutcome`] and decision
//! trace are byte-for-byte the unsharded engine's — the property
//! `tests/shard_props.rs` pins across all six schedulers.

use crate::cluster::ClusterConfig;
use crate::engine::SimOutcome;
use crate::error::SimError;
use crate::job::{AdhocSubmission, SimWorkload, WorkflowSubmission};
use crate::submission::{LogEntry, SubmissionLog};
use flowtime_dag::{ResourceVec, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

/// Top-level placement policy: how a submission picks its pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placer {
    /// First pod whose projected load stays within its slice; falls back
    /// to the least-loaded pod when none fits.
    FirstFit,
    /// Pod with the most headroom *before* placement (classic worst-fit).
    WorstFit,
    /// Pod minimizing the *post-placement* peak normalized demand across
    /// resource dimensions (the default: demand-aware worst-fit).
    Demand,
}

impl Placer {
    /// Canonical CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Placer::FirstFit => "firstfit",
            Placer::WorstFit => "worstfit",
            Placer::Demand => "demand",
        }
    }

    /// Parses a CLI name, ignoring case and separators (`first-fit`,
    /// `FirstFit`, and `firstfit` all resolve).
    pub fn parse(name: &str) -> Option<Placer> {
        let norm: String = name
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase();
        match norm.as_str() {
            "firstfit" => Some(Placer::FirstFit),
            "worstfit" => Some(Placer::WorstFit),
            "demand" => Some(Placer::Demand),
            _ => None,
        }
    }
}

/// The shard configuration: how many pods and how to place onto them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Number of pods (≥ 1). `1` degenerates to the unsharded engine.
    pub pods: usize,
    /// Placement policy.
    pub placer: Placer,
    /// Rebalance threshold: a pod whose projected ad-hoc backlog exceeds
    /// `overload_factor ×` its core slice sheds load to the least-loaded
    /// pod. Mirrors [`crate::faults::RecoveryPolicy::overload_factor`].
    pub overload_factor: f64,
}

impl ShardSpec {
    /// `pods` pods with the default demand placer and the default
    /// overload threshold (matching [`crate::faults::RecoveryPolicy`]).
    pub fn new(pods: usize) -> Self {
        ShardSpec {
            pods: pods.max(1),
            placer: Placer::Demand,
            overload_factor: 4.0,
        }
    }

    /// Replaces the placement policy.
    #[must_use]
    pub fn with_placer(mut self, placer: Placer) -> Self {
        self.placer = placer;
        self
    }

    /// Replaces the rebalance threshold.
    #[must_use]
    pub fn with_overload_factor(mut self, factor: f64) -> Self {
        self.overload_factor = factor.max(0.0);
        self
    }
}

/// Which workload class a placement entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardClass {
    /// `index` is into [`SimWorkload::workflows`].
    Workflow,
    /// `index` is into [`SimWorkload::adhoc`].
    Adhoc,
}

/// One initial placement decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodAssignment {
    /// Workload class of the placed submission.
    pub class: ShardClass,
    /// Index within its class's submission vector.
    pub index: usize,
    /// The pod it was assigned to.
    pub pod: usize,
}

/// One cross-pod rebalance move (applied after the initial placement, in
/// order; the last move for an item wins).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceEvent {
    /// Workload class of the moved submission.
    pub class: ShardClass,
    /// Index within its class's submission vector.
    pub index: usize,
    /// Pod the item was on before the move.
    pub from_pod: usize,
    /// Pod the item moved to.
    pub to_pod: usize,
}

/// The complete, replayable record of a placement: initial assignments
/// plus every rebalance move. A pure function of
/// `(cluster, workload, spec)` — the auditor recomputes it and flags any
/// divergence (including a *dropped* rebalance event).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementLog {
    /// Number of pods placed onto.
    pub pods: usize,
    /// The policy that produced the assignments.
    pub placer: Placer,
    /// Initial placements, workflows first (in submission order), then
    /// ad-hoc jobs (in submission order).
    pub assignments: Vec<PodAssignment>,
    /// Rebalance moves, in the order they were applied.
    #[serde(default, skip_serializing_if = "crate::serde_skip::empty_vec")]
    pub rebalances: Vec<RebalanceEvent>,
}

impl PlacementLog {
    /// The final pod of an item after all rebalances, or `None` when the
    /// item was never assigned.
    pub fn final_pod(&self, class: ShardClass, index: usize) -> Option<usize> {
        let mut pod = None;
        for a in &self.assignments {
            if a.class == class && a.index == index {
                pod = Some(a.pod);
            }
        }
        for r in &self.rebalances {
            if r.class == class && r.index == index {
                pod = Some(r.to_pod);
            }
        }
        pod
    }

    /// Splits `workload` into one per-pod workload according to the final
    /// placement, preserving submission order within each pod.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] when an item is unassigned,
    /// assigned more than once, or assigned to a pod out of range.
    pub fn pod_workloads(&self, workload: &SimWorkload) -> Result<Vec<SimWorkload>, SimError> {
        // One pass over the log instead of a `final_pod` scan per item:
        // the unsharded run path goes through here too, with every
        // submission of the workload.
        let mut pod_wf: Vec<Option<usize>> = vec![None; workload.workflows.len()];
        let mut pod_ah: Vec<Option<usize>> = vec![None; workload.adhoc.len()];
        for a in &self.assignments {
            let slot = match a.class {
                ShardClass::Workflow => pod_wf.get_mut(a.index),
                ShardClass::Adhoc => pod_ah.get_mut(a.index),
            }
            .ok_or(SimError::MalformedSubmission {
                reason: "placement references a submission outside the workload",
            })?;
            if slot.replace(a.pod).is_some() {
                return Err(SimError::MalformedSubmission {
                    reason: "a submission is placed on more than one pod",
                });
            }
        }
        if pod_wf.iter().chain(pod_ah.iter()).any(Option::is_none) {
            return Err(SimError::MalformedSubmission {
                reason: "a submission is placed on no pod",
            });
        }
        for r in &self.rebalances {
            let slot = match r.class {
                ShardClass::Workflow => pod_wf.get_mut(r.index),
                ShardClass::Adhoc => pod_ah.get_mut(r.index),
            };
            if let Some(slot) = slot {
                *slot = Some(r.to_pod);
            }
        }
        let in_range = |pod: Option<usize>| {
            pod.filter(|&p| p < self.pods)
                .ok_or(SimError::MalformedSubmission {
                    reason: "a submission is placed on a pod out of range",
                })
        };
        let mut out = vec![SimWorkload::default(); self.pods];
        for (sub, &pod) in workload.workflows.iter().zip(&pod_wf) {
            out[in_range(pod)?].workflows.push(sub.clone());
        }
        for (sub, &pod) in workload.adhoc.iter().zip(&pod_ah) {
            out[in_range(pod)?].adhoc.push(sub.clone());
        }
        Ok(out)
    }
}

/// Splits `total` into `pods` slices, per resource dimension: every pod
/// gets `total / pods` and the first `total % pods` pods one extra unit,
/// so the slices **sum exactly** to `total`.
pub fn split_capacity(total: ResourceVec, pods: usize) -> Vec<ResourceVec> {
    let pods = pods.max(1);
    let k = pods as u64;
    let mut dims = vec![[0u64; NUM_RESOURCES]; pods];
    for r in 0..NUM_RESOURCES {
        let base = total.dim(r) / k;
        let rem = (total.dim(r) % k) as usize;
        for (i, d) in dims.iter_mut().enumerate() {
            d[r] = base + u64::from(i < rem);
        }
    }
    dims.into_iter().map(ResourceVec::new).collect()
}

/// The cluster slice pod `pod` of `pods` runs against: split base
/// capacity plus every capacity window split the same way. With
/// `pods = 1` this is a clone of `cluster` (the K=1 identity contract).
pub fn pod_cluster(cluster: &ClusterConfig, pods: usize, pod: usize) -> ClusterConfig {
    if pods <= 1 {
        return cluster.clone();
    }
    let mut out = ClusterConfig::new(
        split_capacity(cluster.capacity(), pods)[pod],
        cluster.slot_seconds(),
    );
    for w in cluster.windows() {
        out = out.with_capacity_window(
            w.from_slot,
            w.to_slot,
            split_capacity(w.capacity, pods)[pod],
        );
    }
    out
}

/// The incremental placement engine: tracks each pod's projected demand
/// rate and scores candidate pods for the configured [`Placer`].
///
/// Demand model (per resource dimension `r`):
/// * a workflow contributes its total demand spread over its deadline
///   window — the sustained rate needed to finish on time;
/// * an ad-hoc job contributes its peak concurrent footprint
///   (`per_task × effective_parallel`), since its size is invisible to
///   schedulers and only its shape is known at admission.
///
/// All decisions are pure integer/f64 arithmetic over a fixed order, so
/// a placement is reproducible from the submission sequence alone — the
/// property both the batch [`place`] and the daemon's online injection
/// path rely on.
#[derive(Debug, Clone)]
pub struct PlacerState {
    placer: Placer,
    caps: Vec<ResourceVec>,
    load: Vec<[f64; NUM_RESOURCES]>,
}

impl PlacerState {
    /// A fresh state over the given per-pod capacity slices.
    pub fn new(placer: Placer, caps: Vec<ResourceVec>) -> Self {
        let pods = caps.len().max(1);
        PlacerState {
            placer,
            caps,
            load: vec![[0.0; NUM_RESOURCES]; pods],
        }
    }

    /// Convenience: state over the canonical capacity split of `cluster`.
    pub fn for_cluster(spec: &ShardSpec, cluster: &ClusterConfig) -> Self {
        PlacerState::new(spec.placer, split_capacity(cluster.capacity(), spec.pods))
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.caps.len()
    }

    /// Peak normalized load of `pod`, optionally with `extra` added.
    fn score(&self, pod: usize, extra: Option<&[f64; NUM_RESOURCES]>) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..NUM_RESOURCES {
            let cap = self.caps[pod].dim(r) as f64;
            if cap <= 0.0 {
                continue;
            }
            let mut load = self.load[pod][r];
            if let Some(e) = extra {
                load += e[r];
            }
            let norm = load / cap;
            if norm > worst {
                worst = norm;
            }
        }
        worst
    }

    /// Places a raw demand rate, committing it to the chosen pod. Ties
    /// resolve to the lowest pod index, so placement is deterministic.
    pub fn place_rate(&mut self, rate: [f64; NUM_RESOURCES]) -> usize {
        let pods = self.pods();
        let chosen = match self.placer {
            Placer::FirstFit => (0..pods)
                .find(|&p| self.score(p, Some(&rate)) <= 1.0)
                .unwrap_or_else(|| argmin(pods, |p| self.score(p, Some(&rate)))),
            Placer::WorstFit => argmin(pods, |p| self.score(p, None)),
            Placer::Demand => argmin(pods, |p| self.score(p, Some(&rate))),
        };
        for (load, add) in self.load[chosen].iter_mut().zip(rate) {
            *load += add;
        }
        chosen
    }

    /// Places a workflow submission.
    pub fn place_workflow(&mut self, sub: &WorkflowSubmission) -> usize {
        self.place_rate(workflow_rate(sub))
    }

    /// Places an ad-hoc submission.
    pub fn place_adhoc(&mut self, sub: &AdhocSubmission) -> usize {
        self.place_rate(adhoc_rate(sub))
    }
}

/// Index of the minimum of `f` over `0..n`, first minimum on ties.
fn argmin<F: Fn(usize) -> f64>(n: usize, f: F) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::INFINITY;
    for i in 0..n {
        let v = f(i);
        if v < best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Sustained demand rate of a workflow: total demand over its window.
fn workflow_rate(sub: &WorkflowSubmission) -> [f64; NUM_RESOURCES] {
    let demand = sub.workflow.total_demand();
    let window = sub.workflow.window_slots().max(1) as f64;
    let mut rate = [0.0; NUM_RESOURCES];
    for (r, v) in rate.iter_mut().enumerate() {
        *v = demand.dim(r) as f64 / window;
    }
    rate
}

/// Peak concurrent footprint of an ad-hoc job.
fn adhoc_rate(sub: &AdhocSubmission) -> [f64; NUM_RESOURCES] {
    let per_task = sub.spec.per_task();
    let width = sub.spec.effective_parallel() as f64;
    let mut rate = [0.0; NUM_RESOURCES];
    for (r, v) in rate.iter_mut().enumerate() {
        *v = per_task.dim(r) as f64 * width;
    }
    rate
}

/// Core-slot backlog an ad-hoc job projects onto its pod (ground-truth
/// work × per-task cores) — the static analogue of the admission
/// controller's runtime backlog signal.
fn adhoc_backlog_cores(sub: &AdhocSubmission) -> f64 {
    (sub.spec.work() * sub.spec.per_task().dim(0)) as f64
}

/// Computes the full batch placement: workflows first (in submission
/// order), then ad-hoc jobs (in submission order), each through the
/// spec's [`Placer`]; then bounded rebalance passes move the most
/// recently placed ad-hoc jobs off overloaded pods (projected ad-hoc
/// backlog `> overload_factor ×` core slice) onto the least-loaded pod.
/// Every decision is recorded in the returned [`PlacementLog`].
pub fn place(cluster: &ClusterConfig, workload: &SimWorkload, spec: &ShardSpec) -> PlacementLog {
    let mut st = PlacerState::for_cluster(spec, cluster);
    let mut log = PlacementLog {
        pods: spec.pods,
        placer: spec.placer,
        assignments: Vec::with_capacity(workload.workflows.len() + workload.adhoc.len()),
        rebalances: Vec::new(),
    };
    for (i, sub) in workload.workflows.iter().enumerate() {
        log.assignments.push(PodAssignment {
            class: ShardClass::Workflow,
            index: i,
            pod: st.place_workflow(sub),
        });
    }
    for (i, sub) in workload.adhoc.iter().enumerate() {
        log.assignments.push(PodAssignment {
            class: ShardClass::Adhoc,
            index: i,
            pod: st.place_adhoc(sub),
        });
    }
    if spec.pods > 1 {
        rebalance(cluster, workload, spec, &mut log);
    }
    log
}

/// The bounded rebalance pass. Moves at most one ad-hoc item per
/// iteration (most recently placed on the most overloaded pod → least
/// loaded pod) and stops when no pod is overloaded, a move would not
/// strictly improve, or every ad-hoc item has moved once.
fn rebalance(
    cluster: &ClusterConfig,
    workload: &SimWorkload,
    spec: &ShardSpec,
    log: &mut PlacementLog,
) {
    let caps = split_capacity(cluster.capacity(), spec.pods);
    let cores: Vec<f64> = caps.iter().map(|c| c.dim(0).max(1) as f64).collect();
    // Final pod of each ad-hoc item so far (rebalances has only our own
    // entries, applied in order).
    let mut pod_of: Vec<usize> = (0..workload.adhoc.len())
        .map(|i| log.final_pod(ShardClass::Adhoc, i).unwrap_or(0))
        .collect();
    let mut backlog: Vec<f64> = vec![0.0; spec.pods];
    for (i, sub) in workload.adhoc.iter().enumerate() {
        backlog[pod_of[i]] += adhoc_backlog_cores(sub);
    }
    let mut moved = vec![false; workload.adhoc.len()];
    for _ in 0..workload.adhoc.len() {
        // Most overloaded source by backlog-per-core, first on ties.
        let mut src = None;
        let mut src_ratio = 0.0;
        for p in 0..spec.pods {
            let ratio = backlog[p] / cores[p];
            if ratio > spec.overload_factor && ratio > src_ratio {
                src_ratio = ratio;
                src = Some(p);
            }
        }
        let Some(src) = src else { break };
        let dst = argmin(spec.pods, |p| backlog[p] / cores[p]);
        if dst == src {
            break;
        }
        // Most recently placed movable item on the source pod.
        let Some(item) = (0..workload.adhoc.len())
            .rev()
            .find(|&i| pod_of[i] == src && !moved[i])
        else {
            break;
        };
        let weight = adhoc_backlog_cores(&workload.adhoc[item]);
        // Only move if the destination stays strictly below the source's
        // pre-move pressure; otherwise the pass would oscillate.
        if (backlog[dst] + weight) / cores[dst] >= src_ratio {
            break;
        }
        backlog[src] -= weight;
        backlog[dst] += weight;
        pod_of[item] = dst;
        moved[item] = true;
        log.rebalances.push(RebalanceEvent {
            class: ShardClass::Adhoc,
            index: item,
            from_pod: src,
            to_pod: dst,
        });
    }
}

/// Places the effective submissions of a recorded [`SubmissionLog`] in
/// materialization order (`(arrival, seq)` — exactly the order the
/// daemon injects them) and splits the log into one sub-log per pod,
/// preserving entry order. Cancelled submissions and cancel requests are
/// dropped (they never materialize, so they are never placed).
///
/// This is the batch replay contract of a **sharded daemon session**:
/// running [`crate::Engine::from_log`] over each returned sub-log reproduces
/// the session's per-pod outcomes byte-for-byte. No rebalance pass runs
/// here — online placement is final.
///
/// # Errors
///
/// [`SimError::MalformedSubmission`] when the log's cancellations do not
/// resolve (see [`SubmissionLog::effective`]).
pub fn place_log(
    cluster: &ClusterConfig,
    log: &SubmissionLog,
    spec: &ShardSpec,
) -> Result<Vec<SubmissionLog>, SimError> {
    // Surface malformed cancellations with the same error `from_log` would.
    log.effective()?;
    let mut cancelled: Vec<u64> = Vec::new();
    for entry in &log.entries {
        if let LogEntry::Cancel { target, .. } = entry {
            cancelled.push(*target);
        }
    }
    // (arrival, seq) over surviving submissions = injection order.
    let mut keyed: Vec<(u64, u64, usize)> = Vec::new();
    for (idx, entry) in log.entries.iter().enumerate() {
        match entry {
            LogEntry::Workflow {
                seq, submission, ..
            } if !cancelled.contains(seq) => {
                keyed.push((submission.workflow.submit_slot(), *seq, idx));
            }
            LogEntry::Adhoc {
                seq, submission, ..
            } if !cancelled.contains(seq) => {
                keyed.push((submission.arrival_slot, *seq, idx));
            }
            _ => {}
        }
    }
    keyed.sort_by_key(|&(arrival, seq, _)| (arrival, seq));
    let mut st = PlacerState::for_cluster(spec, cluster);
    let mut pod_of_entry: Vec<Option<usize>> = vec![None; log.entries.len()];
    for &(_, _, idx) in &keyed {
        let pod = match &log.entries[idx] {
            LogEntry::Workflow { submission, .. } => st.place_workflow(submission),
            LogEntry::Adhoc { submission, .. } => st.place_adhoc(submission),
            LogEntry::Cancel { .. } => unreachable!("cancels are never keyed"),
        };
        pod_of_entry[idx] = Some(pod);
    }
    let mut out = vec![SubmissionLog::new(); spec.pods];
    for (idx, entry) in log.entries.iter().enumerate() {
        if let Some(pod) = pod_of_entry[idx] {
            out[pod].entries.push(entry.clone());
        }
    }
    Ok(out)
}

/// The result of a sharded run: the placement that shaped it plus one
/// [`SimOutcome`] per pod (each stamped with its pod index; pod 0's
/// stamp serializes away, keeping the K=1 bytes unsharded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedOutcome {
    /// The placement the run executed.
    pub placement: PlacementLog,
    /// Per-pod outcomes, in pod order.
    pub pods: Vec<SimOutcome>,
}

impl ShardedOutcome {
    /// True when every pod finished its whole sub-workload.
    pub fn is_complete(&self) -> bool {
        self.pods.iter().all(SimOutcome::is_complete)
    }

    /// Jobs completed across all pods.
    pub fn completed_jobs(&self) -> usize {
        self.pods.iter().map(|o| o.metrics.completed_jobs()).sum()
    }

    /// Per-job milestone misses across all pods.
    pub fn job_deadline_misses(&self) -> usize {
        self.pods
            .iter()
            .map(|o| o.metrics.job_deadline_misses())
            .sum()
    }

    /// Workflow deadline misses across all pods.
    pub fn workflow_deadline_misses(&self) -> usize {
        self.pods
            .iter()
            .map(|o| o.metrics.workflow_deadline_misses())
            .sum()
    }

    /// Longest per-pod makespan (the cluster is done when the slowest
    /// pod is).
    pub fn slots_elapsed(&self) -> u64 {
        self.pods.iter().map(|o| o.slots_elapsed).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::JobSpec;

    fn adhoc(tasks: u64, dur: u64, arrival: u64) -> AdhocSubmission {
        AdhocSubmission::new(
            JobSpec::new("a", tasks, dur, ResourceVec::new([1, 512])),
            arrival,
        )
    }

    fn workload(workflows: usize, adhocs: usize) -> SimWorkload {
        use flowtime_dag::{WorkflowBuilder, WorkflowId};
        let mut w = SimWorkload::default();
        for i in 0..workflows {
            let mut b = WorkflowBuilder::new(WorkflowId::new(i as u64 + 1), format!("wf-{i}"));
            let a = b.add_job(JobSpec::new("j0", 4, 2, ResourceVec::new([1, 512])));
            let c = b.add_job(JobSpec::new("j1", 2, 2, ResourceVec::new([1, 512])));
            b.add_dep(a, c).unwrap();
            let wf = b.window(0, 60).build().unwrap();
            w.workflows.push(WorkflowSubmission::new(wf));
        }
        for i in 0..adhocs {
            w.adhoc.push(adhoc(2 + (i as u64 % 3), 2, i as u64));
        }
        w
    }

    #[test]
    fn split_sums_exactly_for_awkward_capacities() {
        for pods in 1..=9 {
            for cap in [
                ResourceVec::new([1, 1]),
                ResourceVec::new([80, 327_680]),
                ResourceVec::new([7, 13]),
                ResourceVec::new([0, 5]),
            ] {
                let slices = split_capacity(cap, pods);
                assert_eq!(slices.len(), pods);
                let mut sum = ResourceVec::zero();
                for s in &slices {
                    sum += *s;
                }
                assert_eq!(sum, cap, "pods={pods} cap={cap}");
                // Remainder goes to the first pods: slices are
                // non-increasing per dimension.
                for r in 0..NUM_RESOURCES {
                    for w in slices.windows(2) {
                        assert!(w[0].dim(r) >= w[1].dim(r));
                    }
                }
            }
        }
    }

    #[test]
    fn pod_cluster_splits_windows_too() {
        let cluster = ClusterConfig::new(ResourceVec::new([10, 100]), 10.0).with_capacity_window(
            5,
            8,
            ResourceVec::new([5, 50]),
        );
        let mut base_sum = ResourceVec::zero();
        let mut window_sum = ResourceVec::zero();
        for p in 0..3 {
            let pc = pod_cluster(&cluster, 3, p);
            base_sum += pc.capacity();
            window_sum += pc.capacity_at(6);
        }
        assert_eq!(base_sum, ResourceVec::new([10, 100]));
        assert_eq!(window_sum, ResourceVec::new([5, 50]));
        // K=1 is the cluster itself.
        assert_eq!(pod_cluster(&cluster, 1, 0), cluster);
    }

    #[test]
    fn placer_parse_round_trips_and_rejects_garbage() {
        for p in [Placer::FirstFit, Placer::WorstFit, Placer::Demand] {
            assert_eq!(Placer::parse(p.name()), Some(p));
        }
        assert_eq!(Placer::parse("First-Fit"), Some(Placer::FirstFit));
        assert_eq!(Placer::parse("WORSTFIT"), Some(Placer::WorstFit));
        assert_eq!(Placer::parse("banana"), None);
    }

    #[test]
    fn single_pod_placement_is_identity() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        let w = workload(2, 3);
        let log = place(&cluster, &w, &ShardSpec::new(1));
        assert!(log.rebalances.is_empty());
        assert!(log.assignments.iter().all(|a| a.pod == 0));
        let pods = log.pod_workloads(&w).unwrap();
        assert_eq!(pods.len(), 1);
        assert_eq!(pods[0], w);
    }

    #[test]
    fn placement_covers_every_submission_exactly_once() {
        let cluster = ClusterConfig::new(ResourceVec::new([16, 16384]), 10.0);
        let w = workload(5, 11);
        for placer in [Placer::FirstFit, Placer::WorstFit, Placer::Demand] {
            let spec = ShardSpec::new(4).with_placer(placer);
            let log = place(&cluster, &w, &spec);
            let pods = log.pod_workloads(&w).unwrap();
            assert_eq!(pods.iter().map(|p| p.workflows.len()).sum::<usize>(), 5);
            assert_eq!(pods.iter().map(|p| p.adhoc.len()).sum::<usize>(), 11);
            // Deterministic: recomputation is identical.
            assert_eq!(place(&cluster, &w, &spec), log);
        }
    }

    #[test]
    fn demand_placer_spreads_load_across_pods() {
        let cluster = ClusterConfig::new(ResourceVec::new([16, 16384]), 10.0);
        let w = workload(4, 8);
        let log = place(&cluster, &w, &ShardSpec::new(4));
        let used: std::collections::BTreeSet<usize> =
            log.assignments.iter().map(|a| a.pod).collect();
        assert!(used.len() > 1, "demand placer left all load on one pod");
    }

    #[test]
    fn rebalance_fires_under_projected_overload_and_is_recorded() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        // Eight jobs with the identical 1-wide footprint: first-fit packs
        // two per 2-core pod slice, blind to work. The first two — which
        // land together on pod 0 — carry enormous backlogs, so pod 0's
        // projected backlog blows past the threshold and the rebalancer
        // must shed from it.
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
        let log = place(&cluster, &w, &spec);
        assert!(
            !log.rebalances.is_empty(),
            "overloaded first-fit placement should rebalance"
        );
        // Moves are honored by the final split.
        let pods = log.pod_workloads(&w).unwrap();
        assert_eq!(pods.iter().map(|p| p.adhoc.len()).sum::<usize>(), 8);
        for ev in &log.rebalances {
            assert_ne!(ev.from_pod, ev.to_pod);
        }
    }

    #[test]
    fn pod_workloads_rejects_corrupt_placements() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        let w = workload(2, 2);
        let good = place(&cluster, &w, &ShardSpec::new(2));

        let mut double = good.clone();
        double.assignments.push(double.assignments[0].clone());
        assert!(double.pod_workloads(&w).is_err());

        let mut missing = good.clone();
        missing.assignments.remove(0);
        assert!(missing.pod_workloads(&w).is_err());

        let mut out_of_range = good.clone();
        out_of_range.assignments[0].pod = 7;
        assert!(out_of_range.pod_workloads(&w).is_err());

        let mut alien = good;
        alien.assignments.push(PodAssignment {
            class: ShardClass::Adhoc,
            index: 99,
            pod: 0,
        });
        assert!(alien.pod_workloads(&w).is_err());
    }

    #[test]
    fn place_log_matches_injection_order_and_drops_cancelled() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        let mut log = SubmissionLog::new();
        log.entries.push(LogEntry::Adhoc {
            seq: 0,
            at: 0,
            submission: adhoc(4, 4, 5),
        });
        log.entries.push(LogEntry::Adhoc {
            seq: 1,
            at: 0,
            submission: adhoc(4, 4, 2),
        });
        log.entries.push(LogEntry::Adhoc {
            seq: 2,
            at: 0,
            submission: adhoc(4, 4, 9),
        });
        log.entries.push(LogEntry::Cancel {
            seq: 3,
            at: 0,
            target: 2,
        });
        let spec = ShardSpec::new(2);
        let sublogs = place_log(&cluster, &log, &spec).unwrap();
        assert_eq!(sublogs.len(), 2);
        let total: usize = sublogs.iter().map(|l| l.len()).sum();
        assert_eq!(total, 2, "cancelled submission and cancel entry dropped");
        // Deterministic.
        let again = place_log(&cluster, &log, &spec).unwrap();
        assert_eq!(again, sublogs);
    }
}
