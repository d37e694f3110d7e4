//! Sharded pod-level scheduling: partition the cluster into K pods and
//! place every submission onto one of them. The run path above this crate
//! (`flowtime::run`) then runs one independent engine (and per-pod LP
//! solver) per pod on the work-stealing [`crate::run_cells`] runner.
//!
//! The paper solves one allocation LP over the whole cluster per replan;
//! that cannot serve very large clusters. DAGPS-style systems show a
//! lightweight global placer above locally-packed partitions captures
//! most of the monolithic optimum. This module is that two-level shape,
//! and a pod count is all there is to configure:
//!
//! * [`split_capacity`] slices cluster capacity into K pod slices that
//!   sum **exactly** to the cluster capacity (remainders go to the first
//!   pods), including every [`crate::cluster::CapacityWindow`].
//! * [`PlacerState`] assigns each workflow / ad-hoc submission to the pod
//!   whose peak normalized demand stays lowest with the submission on it.
//!   It is the only placement rule, and placement is final: the first-fit
//!   and worst-fit policies and the rebalance pass were cut when the one
//!   workload that measures sharding (`repro fig_shard`) could not tell
//!   them apart (DESIGN.md §22).
//! * [`PlacementLog`] holds the pod of each submission — "on two pods" and
//!   "on no pod" cannot be written down — and
//!   [`PlacementLog::pod_workloads`] splits the workload into the per-pod
//!   sub-workloads the engines run; [`ShardedOutcome`] collects their
//!   outcomes.
//!
//! # Determinism and the K=1 contract
//!
//! The placement is a **pure function** of `(cluster, workload, pods)`:
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
use serde::{DeError, Deserialize, Serialize, Value};

/// Checks the placement policy `name` a recorded artifact carries in
/// `field`. Trees before DESIGN.md §22 let a run choose `firstfit`,
/// `worstfit` or `demand` and wrote the choice into K > 1 trace headers,
/// sharded outcomes and daemon session configs. Only `demand` survives as
/// the rule, so only a `demand` recording can be replayed onto the pods
/// it ran on; case and separators are ignored, as they were when the name
/// was a flag.
///
/// # Errors
///
/// A one-line refusal of any other name, naming the field.
pub fn require_demand_placer(field: &str, name: &str) -> Result<(), String> {
    let plain = name.chars().filter(char::is_ascii_alphanumeric);
    if plain.map(|c| c.to_ascii_lowercase()).eq("demand".chars()) {
        return Ok(());
    }
    Err(format!(
        "{field}: placer `{name}` is retired: submissions are placed by the `demand` rule \
         only, so this recording cannot be replayed onto the pods it ran on"
    ))
}

/// The required field `key` of the JSON object `v`.
fn required<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DeError> {
    v.get(key)
        .ok_or_else(|| DeError::custom(format!("missing field `{key}`")))
}

/// The complete, replayable record of a placement: the pod of every
/// submission. A pure function of `(cluster, workload, pods)` — the
/// auditor recomputes it and flags any divergence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlacementLog {
    /// Number of pods placed onto.
    pub pods: usize,
    /// Pod of each workflow, by index into [`SimWorkload::workflows`].
    pub workflows: Vec<usize>,
    /// Pod of each ad-hoc job, by index into [`SimWorkload::adhoc`].
    pub adhoc: Vec<usize>,
}

impl Deserialize for PlacementLog {
    /// Reads what this tree writes, or the `assignments` list earlier
    /// trees wrote, and refuses a pod index at or past `pods` either way.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pods = usize::from_value(required(v, "pods")?)?;
        let (workflows, adhoc): (Vec<usize>, Vec<usize>) = match v.get("assignments") {
            Some(assignments) => legacy_assignments(v, assignments)?,
            None => (
                Deserialize::from_value(required(v, "workflows")?)?,
                Deserialize::from_value(required(v, "adhoc")?)?,
            ),
        };
        if let Some(pod) = workflows.iter().chain(&adhoc).find(|&&pod| pod >= pods) {
            return Err(DeError::custom(format!(
                "placement names pod {pod}, past its {pods} pod(s)"
            )));
        }
        Ok(PlacementLog {
            pods,
            workflows,
            adhoc,
        })
    }
}

/// The placement record trees before DESIGN.md §22 wrote: a `placer`
/// name, one `{class, index, pod}` entry per submission (workflows first,
/// each class in index order) and the rebalance moves applied on top.
/// Loads when it says what the one rule would have said — `demand`, no
/// moves, every submission once.
fn legacy_assignments(v: &Value, assignments: &Value) -> Result<(Vec<usize>, Vec<usize>), DeError> {
    if let Some(name) = v.get("placer").and_then(Value::as_str) {
        require_demand_placer("placement.placer", name).map_err(DeError::custom)?;
    }
    if v.get("rebalances")
        .and_then(Value::as_seq)
        .is_some_and(|moves| !moves.is_empty())
    {
        return Err(DeError::custom(
            "placement.rebalances: the rebalance pass is retired, so this recording \
             cannot be replayed onto the pods it ran on",
        ));
    }
    let (mut workflows, mut adhoc) = (Vec::new(), Vec::new());
    let entries = assignments
        .as_seq()
        .ok_or_else(|| DeError::expected("array", assignments))?;
    for entry in entries {
        let class = required(entry, "class")?;
        let placed = match class.as_str() {
            Some("Workflow") => &mut workflows,
            Some("Adhoc") => &mut adhoc,
            _ => return Err(DeError::expected("`Workflow` or `Adhoc`", class)),
        };
        let index = usize::from_value(required(entry, "index")?)?;
        if index != placed.len() {
            return Err(DeError::custom(format!(
                "placement.assignments: submission {index} is placed twice, \
                 not at all, or out of order"
            )));
        }
        placed.push(usize::from_value(required(entry, "pod")?)?);
    }
    Ok((workflows, adhoc))
}

impl PlacementLog {
    /// Splits `workload` into one per-pod workload, preserving submission
    /// order within each pod.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedSubmission`] when the log does not cover the
    /// workload's submissions one for one, or names a pod out of range.
    pub fn pod_workloads(&self, workload: &SimWorkload) -> Result<Vec<SimWorkload>, SimError> {
        if (self.workflows.len(), self.adhoc.len())
            != (workload.workflows.len(), workload.adhoc.len())
        {
            return Err(SimError::MalformedSubmission {
                reason: "placement does not cover the workload's submissions one for one",
            });
        }
        const OUT_OF_RANGE: SimError = SimError::MalformedSubmission {
            reason: "a submission is placed on a pod out of range",
        };
        let mut out = vec![SimWorkload::default(); self.pods];
        for (sub, &pod) in workload.workflows.iter().zip(&self.workflows) {
            let pod = out.get_mut(pod).ok_or(OUT_OF_RANGE)?;
            pod.workflows.push(sub.clone());
        }
        for (sub, &pod) in workload.adhoc.iter().zip(&self.adhoc) {
            let pod = out.get_mut(pod).ok_or(OUT_OF_RANGE)?;
            pod.adhoc.push(sub.clone());
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
/// rate and puts a submission on the pod whose peak normalized demand
/// across resource dimensions stays lowest with the submission on it.
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
    caps: Vec<ResourceVec>,
    load: Vec<[f64; NUM_RESOURCES]>,
}

impl PlacerState {
    /// A fresh state over the canonical capacity split of `cluster` into
    /// `pods` pods (`0` is read as `1`).
    pub fn new(cluster: &ClusterConfig, pods: usize) -> Self {
        let caps = split_capacity(cluster.capacity(), pods);
        PlacerState {
            load: vec![[0.0; NUM_RESOURCES]; caps.len()],
            caps,
        }
    }

    /// Peak normalized load of `pod` with `extra` added.
    fn score(&self, pod: usize, extra: &[f64; NUM_RESOURCES]) -> f64 {
        let mut worst = 0.0f64;
        for (r, extra) in extra.iter().enumerate() {
            let cap = self.caps[pod].dim(r) as f64;
            if cap > 0.0 {
                worst = worst.max((self.load[pod][r] + extra) / cap);
            }
        }
        worst
    }

    /// Places a raw demand rate, committing it to the chosen pod. Ties
    /// resolve to the lowest pod index, so placement is deterministic.
    fn place_rate(&mut self, rate: [f64; NUM_RESOURCES]) -> usize {
        let mut chosen = 0;
        let mut lowest = f64::INFINITY;
        for pod in 0..self.caps.len() {
            let score = self.score(pod, &rate);
            if score < lowest {
                (chosen, lowest) = (pod, score);
            }
        }
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

/// Computes the full batch placement: workflows first (in submission
/// order), then ad-hoc jobs (in submission order), each through one
/// [`PlacerState`].
pub fn place(cluster: &ClusterConfig, workload: &SimWorkload, pods: usize) -> PlacementLog {
    let mut st = PlacerState::new(cluster, pods);
    PlacementLog {
        pods: st.caps.len(),
        workflows: (workload.workflows.iter())
            .map(|sub| st.place_workflow(sub))
            .collect(),
        adhoc: (workload.adhoc.iter())
            .map(|sub| st.place_adhoc(sub))
            .collect(),
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
/// the session's per-pod outcomes byte-for-byte.
///
/// # Errors
///
/// [`SimError::MalformedSubmission`] when the log's cancellations do not
/// resolve (see [`SubmissionLog::effective`]).
pub fn place_log(
    cluster: &ClusterConfig,
    log: &SubmissionLog,
    pods: usize,
) -> Result<Vec<SubmissionLog>, SimError> {
    // Surface malformed cancellations with the same error `from_log` would.
    log.effective()?;
    let mut cancelled: Vec<u64> = Vec::new();
    for entry in &log.entries {
        if let LogEntry::Cancel { target, .. } = entry {
            cancelled.push(*target);
        }
    }
    // (arrival, seq) over surviving submissions = injection order; each
    // carries its entry index and the demand rate it is placed by.
    let mut keyed: Vec<(u64, u64, usize, [f64; NUM_RESOURCES])> = Vec::new();
    for (idx, entry) in log.entries.iter().enumerate() {
        match entry {
            LogEntry::Workflow {
                seq, submission, ..
            } if !cancelled.contains(seq) => {
                let arrival = submission.workflow.submit_slot();
                keyed.push((arrival, *seq, idx, workflow_rate(submission)));
            }
            LogEntry::Adhoc {
                seq, submission, ..
            } if !cancelled.contains(seq) => {
                keyed.push((submission.arrival_slot, *seq, idx, adhoc_rate(submission)));
            }
            _ => {}
        }
    }
    keyed.sort_by_key(|&(arrival, seq, ..)| (arrival, seq));
    let mut st = PlacerState::new(cluster, pods);
    let mut pod_of_entry: Vec<Option<usize>> = vec![None; log.entries.len()];
    for (_, _, idx, rate) in keyed {
        pod_of_entry[idx] = Some(st.place_rate(rate));
    }
    let mut out = vec![SubmissionLog::new(); st.caps.len()];
    for (entry, pod) in log.entries.iter().zip(pod_of_entry) {
        if let Some(pod) = pod {
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
    fn single_pod_placement_is_identity() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        let w = workload(2, 3);
        let log = place(&cluster, &w, 1);
        assert!(log.workflows.iter().chain(&log.adhoc).all(|&pod| pod == 0));
        let pods = log.pod_workloads(&w).unwrap();
        assert_eq!(pods.len(), 1);
        assert_eq!(pods[0], w);
    }

    #[test]
    fn placement_covers_every_submission_exactly_once() {
        let cluster = ClusterConfig::new(ResourceVec::new([16, 16384]), 10.0);
        let w = workload(5, 11);
        let log = place(&cluster, &w, 4);
        let pods = log.pod_workloads(&w).unwrap();
        assert_eq!(pods.iter().map(|p| p.workflows.len()).sum::<usize>(), 5);
        assert_eq!(pods.iter().map(|p| p.adhoc.len()).sum::<usize>(), 11);
        // Deterministic: recomputation is identical.
        assert_eq!(place(&cluster, &w, 4), log);
    }

    #[test]
    fn demand_placer_spreads_load_across_pods() {
        let cluster = ClusterConfig::new(ResourceVec::new([16, 16384]), 10.0);
        let w = workload(4, 8);
        let log = place(&cluster, &w, 4);
        let used: std::collections::BTreeSet<usize> =
            log.workflows.iter().chain(&log.adhoc).copied().collect();
        assert!(used.len() > 1, "demand placer left all load on one pod");
    }

    #[test]
    fn pod_workloads_rejects_corrupt_placements() {
        let cluster = ClusterConfig::new(ResourceVec::new([8, 8192]), 10.0);
        let w = workload(2, 2);
        let good = place(&cluster, &w, 2);

        let mut extra = good.clone();
        extra.adhoc.push(0);
        assert!(extra.pod_workloads(&w).is_err());

        let mut missing = good.clone();
        missing.workflows.remove(0);
        assert!(missing.pod_workloads(&w).is_err());

        let mut out_of_range = good;
        out_of_range.workflows[0] = 7;
        assert!(out_of_range.pod_workloads(&w).is_err());
    }

    /// What a tree before DESIGN.md §22 wrote still loads when the one
    /// rule would have written the same thing, and every state the old
    /// shape could hold and the new one cannot is a typed refusal.
    #[test]
    fn legacy_placement_records_load_or_are_refused_by_field() {
        let entry = |class: &str, index: usize, pod: usize| {
            format!("{{\"class\":\"{class}\",\"index\":{index},\"pod\":{pod}}}")
        };
        let record = |placer: &str, entries: &[String], rebalances: &str| {
            format!(
                "{{\"pods\":2,\"placer\":\"{placer}\",\"assignments\":[{}]{rebalances}}}",
                entries.join(",")
            )
        };
        let good = [
            entry("Workflow", 0, 1),
            entry("Adhoc", 0, 0),
            entry("Adhoc", 1, 1),
        ];
        let log: PlacementLog = serde_json::from_str(&record("Demand", &good, "")).unwrap();
        assert_eq!(
            (log.pods, &log.workflows, &log.adhoc),
            (2, &vec![1], &vec![0, 1])
        );
        // What this tree writes round-trips through the same reader.
        let bytes = serde_json::to_string(&log).unwrap();
        assert_eq!(bytes, "{\"pods\":2,\"workflows\":[1],\"adhoc\":[0,1]}");
        assert_eq!(serde_json::from_str::<PlacementLog>(&bytes).unwrap(), log);

        let a_move =
            ",\"rebalances\":[{\"class\":\"Adhoc\",\"index\":0,\"from_pod\":0,\"to_pod\":1}]";
        let doubled = [good[0].clone(), good[1].clone(), good[1].clone()];
        let skipped = [good[0].clone(), good[2].clone()];
        let off_the_end = [entry("Workflow", 0, 2)];
        for (bytes, names) in [
            (record("FirstFit", &good, ""), "placement.placer"),
            (record("Demand", &good, a_move), "placement.rebalances"),
            (record("Demand", &doubled, ""), "placement.assignments"),
            (record("Demand", &skipped, ""), "placement.assignments"),
            (record("Demand", &off_the_end, ""), "past its 2 pod(s)"),
            (
                "{\"pods\":2,\"workflows\":[2],\"adhoc\":[]}".to_string(),
                "past its 2 pod(s)",
            ),
        ] {
            let err = serde_json::from_str::<PlacementLog>(&bytes).unwrap_err();
            assert!(err.to_string().contains(names), "{bytes}: {err}");
        }
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
        let sublogs = place_log(&cluster, &log, 2).unwrap();
        assert_eq!(sublogs.len(), 2);
        let total: usize = sublogs.iter().map(|l| l.len()).sum();
        assert_eq!(total, 2, "cancelled submission and cancel entry dropped");
        // Deterministic.
        let again = place_log(&cluster, &log, 2).unwrap();
        assert_eq!(again, sublogs);
    }
}
