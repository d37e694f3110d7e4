//! Deterministic fault injection.
//!
//! The paper's robustness discussion (Section III-A) asks how schedulers
//! behave when reality diverges from the model: task runtimes are
//! mis-estimated, nodes churn in and out of the cluster, and ad-hoc load
//! arrives in bursts rather than smoothly. [`FaultPlan`] materializes all
//! of those divergences from a single `u64` seed, by rewriting a
//! [`SimWorkload`] / [`ClusterConfig`] pair *before* the simulation starts:
//!
//! * **Runtime misestimation** — each workflow job's ground-truth
//!   `actual_work` is scaled by a log-normal factor around its estimate, so
//!   schedulers plan against systematically wrong numbers.
//! * **Capacity churn** — maintenance-style [`crate::cluster::CapacityWindow`]s
//!   periodically remove a fraction of the cluster, exercising the paper's
//!   time-varying cap `C_t^r`.
//! * **Arrival bursts** — extra ad-hoc jobs are injected in tight clusters,
//!   the adversarial counterpart of the generator's smooth Poisson stream.
//! * **Delayed submissions** — whole workflows slip to later submit slots
//!   (window length preserved, milestones shifted with them), modelling
//!   upstream pipeline delays.
//!
//! Because the plan only rewrites inputs and the engine itself is
//! deterministic, the same `(workload, cluster, seed)` triple always yields
//! a bit-identical [`crate::SimOutcome`] — which is what makes differential
//! testing across schedulers sound. A plan built from
//! [`FaultConfig::none`] (all intensities zero) is the identity.
//!
//! # Mid-run faults
//!
//! [`FaultPlan`] perturbs *inputs*; nothing can go wrong once the engine
//! starts. [`RuntimeFaultPlan`] closes that gap with deterministic,
//! seed-derived *mid-run* events the engine consults while running:
//!
//! * **Task-attempt failures** — an attempt fails once its cumulative work
//!   crosses a seed-derived threshold; the job's progress is discarded and
//!   it re-executes after a deterministic backoff.
//! * **Node crash/recovery windows** — capacity shrinks mid-flight; jobs
//!   running on the lost capacity may be killed and retried. Unlike the
//!   static churn of [`FaultConfig::with_static_churn`], these windows are
//!   *not* visible to schedulers ahead of time.
//! * **Straggler inflation** — a job's ground-truth work grows beyond its
//!   estimate the moment it first runs, modelling slow containers.
//!
//! Every decision is a pure function of `(seed, job, attempt)` — no RNG
//! state threads through the engine loop — so outcomes stay bit-identical
//! across thread counts and replayable by the offline auditor.
//! [`RecoveryPolicy`] bounds the retries and governs graceful degradation
//! under sustained overload (shedding or delaying ad-hoc arrivals).

use crate::cluster::{CapacityWindow, ClusterConfig};
use crate::job::{AdhocSubmission, SimWorkload};
use crate::trace::FaultRecord;
use flowtime_dag::{JobId, JobSpec, ResourceVec};
use serde::{Deserialize, Serialize};

/// Intensities of each fault class. All-zero (the [`FaultConfig::none`]
/// default) disables injection entirely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed from which every random choice below is derived.
    pub seed: u64,
    /// Log-normal σ of the `actual / estimated` work factor for workflow
    /// jobs. `0.0` leaves ground truth untouched; `0.3` yields roughly
    /// ±35% runtime errors.
    pub misestimate_sigma: f64,
    /// Fraction of base capacity removed during each churn window, in
    /// `[0, 1)`. `0.0` disables churn.
    pub churn_severity: f64,
    /// Mean slots between churn windows (each window lasts about a quarter
    /// of this). Ignored when `churn_severity` is zero.
    pub churn_period: u64,
    /// Number of extra ad-hoc jobs injected as bursts. `0` disables bursts.
    pub burst_jobs: usize,
    /// Upper bound on the random submission delay applied to each
    /// workflow, in slots. `0` disables delays.
    pub max_submit_delay: u64,
}

impl FaultConfig {
    /// No faults: applying the resulting plan changes nothing.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            misestimate_sigma: 0.0,
            churn_severity: 0.0,
            churn_period: 200,
            burst_jobs: 0,
            max_submit_delay: 0,
        }
    }

    /// A moderate all-of-the-above mix, the default of the differential
    /// test suite and the `robustness` sweep.
    pub fn mixed(seed: u64) -> Self {
        FaultConfig {
            seed,
            misestimate_sigma: 0.25,
            churn_severity: 0.2,
            churn_period: 150,
            burst_jobs: 6,
            max_submit_delay: 20,
        }
    }

    /// Sets the misestimation σ.
    #[must_use]
    pub fn with_misestimate(mut self, sigma: f64) -> Self {
        self.misestimate_sigma = sigma.max(0.0);
        self
    }

    /// Sets *static* churn severity (fraction of capacity removed per
    /// window). Static churn is applied **once, before the run**: the
    /// degraded [`CapacityWindow`]s land in the [`ClusterConfig`], so
    /// planning schedulers can see them coming via `capacity_at`. For
    /// churn that surprises running jobs mid-flight, use
    /// [`RuntimeFaultConfig::with_crashes`] instead — that is the default
    /// churn path for new experiments.
    #[must_use]
    pub fn with_static_churn(mut self, severity: f64) -> Self {
        self.churn_severity = severity.clamp(0.0, 0.95);
        self
    }

    /// Sets the number of injected burst jobs.
    #[must_use]
    pub fn with_bursts(mut self, jobs: usize) -> Self {
        self.burst_jobs = jobs;
        self
    }

    /// Sets the maximum workflow submission delay.
    #[must_use]
    pub fn with_submit_delay(mut self, max_slots: u64) -> Self {
        self.max_submit_delay = max_slots;
        self
    }
}

/// A concrete, seeded injection plan. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Rewrites `workload` and `cluster` in place. `horizon` bounds where
    /// churn windows and bursts may land (pass the experiment's interesting
    /// range, e.g. the ad-hoc horizon — *not* the engine's `max_slots`
    /// safety bound).
    ///
    /// Deterministic: identical inputs and config produce identical
    /// rewrites, independent of platform.
    pub fn apply(&self, workload: &mut SimWorkload, cluster: &mut ClusterConfig, horizon: u64) {
        let _ = self.apply_recorded(workload, cluster, horizon);
    }

    /// Like [`Self::apply`], additionally returning one [`FaultRecord`]
    /// per concrete injection for the decision-trace layer. Recording only
    /// *observes* the rewrite — RNG consumption and the resulting
    /// workload/cluster are bit-identical to [`Self::apply`].
    pub fn apply_recorded(
        &self,
        workload: &mut SimWorkload,
        cluster: &mut ClusterConfig,
        horizon: u64,
    ) -> Vec<FaultRecord> {
        let mut rng = SplitMix64::new(self.config.seed);
        let mut records = Vec::new();
        self.delay_submissions(workload, &mut rng, &mut records);
        self.misestimate_runtimes(workload, &mut rng, &mut records);
        self.degrade_capacity(cluster, horizon, &mut rng, &mut records);
        self.inject_bursts(workload, horizon, &mut rng, &mut records);
        records
    }

    /// Shifts each workflow to a later submit slot (window length and
    /// milestone offsets preserved), uniformly in `[0, max_submit_delay]`.
    fn delay_submissions(
        &self,
        workload: &mut SimWorkload,
        rng: &mut SplitMix64,
        records: &mut Vec<FaultRecord>,
    ) {
        if self.config.max_submit_delay == 0 {
            return;
        }
        for sub in &mut workload.workflows {
            let delay = rng.below(self.config.max_submit_delay + 1);
            if delay == 0 {
                continue;
            }
            let wf = &sub.workflow;
            sub.workflow = wf.recur_at(wf.id(), wf.submit_slot() + delay);
            if let Some(milestones) = &mut sub.job_deadlines {
                for m in milestones.iter_mut() {
                    *m += delay;
                }
            }
            records.push(FaultRecord {
                kind: "submit-delay".into(),
                slot: sub.workflow.submit_slot(),
                detail: format!("{} delayed {delay} slots", sub.workflow.id()),
            });
        }
    }

    /// Replaces each workflow job's ground-truth work with
    /// `estimate * exp(σ·z)`, `z` standard normal — schedulers keep seeing
    /// the estimate. Submissions that already carry explicit `actual_work`
    /// are scaled from that ground truth instead.
    fn misestimate_runtimes(
        &self,
        workload: &mut SimWorkload,
        rng: &mut SplitMix64,
        records: &mut Vec<FaultRecord>,
    ) {
        let sigma = self.config.misestimate_sigma;
        if sigma <= 0.0 {
            return;
        }
        for sub in &mut workload.workflows {
            let base: Vec<u64> = match &sub.actual_work {
                Some(actual) => actual.clone(),
                None => sub.workflow.jobs().iter().map(JobSpec::work).collect(),
            };
            let faulted: Vec<u64> = base
                .iter()
                .map(|&w| {
                    let factor = (sigma * rng.standard_normal()).exp();
                    ((w as f64) * factor).round().max(1.0) as u64
                })
                .collect();
            records.push(FaultRecord {
                kind: "misestimate".into(),
                slot: sub.workflow.submit_slot(),
                detail: format!(
                    "{} ground truth rewritten across {} nodes",
                    sub.workflow.id(),
                    faulted.len()
                ),
            });
            sub.actual_work = Some(faulted);
        }
    }

    /// Adds capacity windows that remove `churn_severity` of the base
    /// capacity, spaced about `churn_period` slots apart within
    /// `[0, horizon)`, each lasting about a quarter period.
    fn degrade_capacity(
        &self,
        cluster: &mut ClusterConfig,
        horizon: u64,
        rng: &mut SplitMix64,
        records: &mut Vec<FaultRecord>,
    ) {
        let severity = self.config.churn_severity;
        if severity <= 0.0 || horizon == 0 {
            return;
        }
        let period = self.config.churn_period.max(4);
        let keep = 1.0 - severity.clamp(0.0, 0.95);
        let degraded = flowtime_dag::ResourceVec::new(
            cluster
                .capacity()
                .as_array()
                .map(|c| (((c as f64) * keep).floor() as u64).max(1)),
        );
        let mut start = rng.below(period);
        while start < horizon {
            let len = 1 + rng.below(period / 2).max(period / 4);
            let mut degraded_cluster = cluster.clone();
            degraded_cluster = degraded_cluster.with_capacity_window(start, start + len, degraded);
            *cluster = degraded_cluster;
            records.push(FaultRecord {
                kind: "capacity-churn".into(),
                slot: start,
                detail: format!("capacity degraded to {degraded:?} for {len} slots"),
            });
            start += period / 2 + rng.below(period);
        }
    }

    /// Injects `burst_jobs` extra ad-hoc jobs in tight clusters around a
    /// few burst centres in `[0, horizon)`. Container shape follows the
    /// existing ad-hoc jobs when present, else a 1-core task.
    fn inject_bursts(
        &self,
        workload: &mut SimWorkload,
        horizon: u64,
        rng: &mut SplitMix64,
        records: &mut Vec<FaultRecord>,
    ) {
        let n = self.config.burst_jobs;
        if n == 0 || horizon == 0 {
            return;
        }
        let template = workload
            .adhoc
            .first()
            .map(|s| (s.spec.per_task(), s.spec.max_parallel().unwrap_or(8)))
            .unwrap_or((flowtime_dag::ResourceVec::new([1, 1024]), 8));
        let per_burst = 3usize;
        let mut injected = 0usize;
        let mut burst_idx = 0u64;
        while injected < n {
            let centre = rng.below(horizon);
            for _ in 0..per_burst.min(n - injected) {
                let arrival = centre + rng.below(3);
                // Log-normal-ish work: median 8 task-slots, heavy tail.
                let work = ((8.0 * (0.9 * rng.standard_normal()).exp()).round() as u64).max(1);
                let tasks = work.min(template.1.max(1));
                let spec = JobSpec::new(
                    format!("burst-{burst_idx}-{injected}"),
                    tasks,
                    work.div_ceil(tasks),
                    template.0,
                )
                .with_max_parallel(template.1.max(1));
                records.push(FaultRecord {
                    kind: "burst".into(),
                    slot: arrival,
                    detail: spec.name().to_string(),
                });
                workload.adhoc.push(AdhocSubmission::new(spec, arrival));
                injected += 1;
            }
            burst_idx += 1;
        }
        // Engine semantics do not require sorted arrivals, but generators
        // emit them sorted; keep that property for downstream consumers.
        workload.adhoc.sort_by(|a, b| {
            a.arrival_slot
                .cmp(&b.arrival_slot)
                .then_with(|| a.spec.name().cmp(b.spec.name()))
        });
    }
}

/// Distinct salts keep the runtime-fault decision streams independent: the
/// same `(job, attempt)` pair feeds several unrelated questions (does the
/// attempt fail? where? is the job a straggler?) and must get uncorrelated
/// answers.
const TASK_SALT: u64 = 0x5157_4641_494C_0001;
const TASK_POINT_SALT: u64 = 0x5157_4641_494C_0002;
const CRASH_SALT: u64 = 0x5157_4641_494C_0003;
const CRASH_KILL_SALT: u64 = 0x5157_4641_494C_0004;
const STRAGGLER_SALT: u64 = 0x5157_4641_494C_0005;

/// Stateless hash-to-`(0,1)` used by every runtime-fault decision: a
/// SplitMix64 seeded from `(seed, a, b)`, burned once, then sampled. Pure
/// and platform-independent, so the engine and the offline auditor
/// recompute identical verdicts.
fn hash_unit(seed: u64, a: u64, b: u64) -> f64 {
    let mut rng = SplitMix64::new(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    rng.next_u64();
    rng.unit()
}

/// Intensities of each *mid-run* fault class. All-zero rates (the
/// [`RuntimeFaultConfig::none`] default) make the plan inert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeFaultConfig {
    /// Seed from which every mid-run decision is derived.
    pub seed: u64,
    /// Probability that a given `(job, attempt)` pair fails before
    /// completing, in `[0, 1]`. `0.0` disables task failures.
    pub task_fail_rate: f64,
    /// Fraction of base capacity lost during each node-crash window, in
    /// `[0, 1)`. `0.0` disables crash windows.
    pub crash_severity: f64,
    /// Mean slots between crash windows (each lasts about a quarter of
    /// this). Ignored when `crash_severity` is zero.
    pub crash_period: u64,
    /// Probability that a job is a straggler, in `[0, 1]`. `0.0` disables
    /// straggler inflation.
    pub straggler_rate: f64,
    /// Fractional work inflation applied to a straggler's ground truth
    /// (e.g. `0.5` adds 50% extra work).
    pub straggler_factor: f64,
}

impl RuntimeFaultConfig {
    /// No mid-run faults: the resulting plan never fires.
    pub fn none(seed: u64) -> Self {
        RuntimeFaultConfig {
            seed,
            task_fail_rate: 0.0,
            crash_severity: 0.0,
            crash_period: 120,
            straggler_rate: 0.0,
            straggler_factor: 0.5,
        }
    }

    /// `true` when every rate is zero — the plan cannot change a run.
    pub fn is_inert(&self) -> bool {
        self.task_fail_rate <= 0.0 && self.crash_severity <= 0.0 && self.straggler_rate <= 0.0
    }

    /// Sets the per-attempt task failure probability.
    #[must_use]
    pub fn with_task_failures(mut self, rate: f64) -> Self {
        self.task_fail_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the node-crash severity (fraction of capacity lost per
    /// window). Crash windows are the mid-run counterpart of
    /// [`FaultConfig::with_static_churn`]: schedulers cannot foresee them.
    #[must_use]
    pub fn with_crashes(mut self, severity: f64) -> Self {
        self.crash_severity = severity.clamp(0.0, 0.95);
        self
    }

    /// Sets the mean slots between crash windows.
    #[must_use]
    pub fn with_crash_period(mut self, period: u64) -> Self {
        self.crash_period = period.max(4);
        self
    }

    /// Sets the straggler probability and work-inflation factor.
    #[must_use]
    pub fn with_stragglers(mut self, rate: f64, factor: f64) -> Self {
        self.straggler_rate = rate.clamp(0.0, 1.0);
        self.straggler_factor = factor.max(0.0);
        self
    }
}

/// How many ad-hoc arrivals to drop or defer under sustained overload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Admit everything (no degradation).
    #[default]
    None,
    /// Drop ad-hoc arrivals outright while overloaded.
    Shed,
    /// Defer ad-hoc arrivals by a fixed number of slots while overloaded.
    Delay {
        /// Slots to push the arrival back by.
        slots: u64,
    },
}

/// Bounds on retries and the graceful-degradation rules applied when
/// mid-run faults fire. The [`Default`] gives three retries with a linear
/// one-slot backoff and no admission control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Maximum retries per job. The final permitted attempt always runs to
    /// completion (no lost jobs); `0` disables kills entirely.
    pub max_retries: u32,
    /// Backoff slots per retry: attempt `a` becomes runnable
    /// `1 + backoff_base * a` slots after its kill.
    pub backoff_base: u64,
    /// Admission control applied to ad-hoc arrivals under sustained
    /// overload.
    pub shed: ShedPolicy,
    /// Overload threshold: the ad-hoc backlog (remaining ground-truth
    /// work) must exceed `overload_factor x` current core capacity for a
    /// slot to count as overloaded.
    pub overload_factor: f64,
    /// Consecutive overloaded slots required before shedding/delaying
    /// starts. Clamped to at least 1, so arrivals at slot 0 are never
    /// shed.
    pub sustain_slots: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base: 1,
            shed: ShedPolicy::None,
            overload_factor: 4.0,
            sustain_slots: 10,
        }
    }
}

impl RecoveryPolicy {
    /// Sets the retry bound.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the per-retry backoff base.
    #[must_use]
    pub fn with_backoff(mut self, base: u64) -> Self {
        self.backoff_base = base;
        self
    }

    /// Sets the shed policy.
    #[must_use]
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Sets the overload detector (backlog factor and sustain slots).
    #[must_use]
    pub fn with_overload(mut self, factor: f64, sustain_slots: u64) -> Self {
        self.overload_factor = factor.max(0.0);
        self.sustain_slots = sustain_slots.max(1);
        self
    }
}

/// A mid-run fault plan plus the recovery policy that answers it — the
/// single value handed to [`crate::Engine::with_recovery`] and to the
/// auditor's [`crate::audit::certify_with_recovery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySetup {
    /// The mid-run fault intensities.
    pub faults: RuntimeFaultConfig,
    /// Retry bounds and degradation rules.
    pub policy: RecoveryPolicy,
}

impl RecoverySetup {
    /// Pairs a fault config with a recovery policy.
    pub fn new(faults: RuntimeFaultConfig, policy: RecoveryPolicy) -> Self {
        RecoverySetup { faults, policy }
    }

    /// `true` when the fault side can never fire; the engine then behaves
    /// byte-identically to a run without recovery.
    pub fn is_inert(&self) -> bool {
        self.faults.is_inert()
    }
}

/// The horizon within which crash windows are materialized for a
/// workload: the latest workflow deadline or ad-hoc arrival. The engine
/// and the auditor both use this, so their window lists agree.
pub fn runtime_fault_horizon(workload: &SimWorkload) -> u64 {
    let wf = workload
        .workflows
        .iter()
        .map(|s| s.workflow.submit_slot() + s.workflow.window_slots())
        .max()
        .unwrap_or(0);
    let adhoc = workload
        .adhoc
        .iter()
        .map(|s| s.arrival_slot + 1)
        .max()
        .unwrap_or(0);
    wf.max(adhoc).max(1)
}

/// A concrete, seeded mid-run injection plan. Every method is a pure
/// function of the config and its arguments — the engine consults it
/// during the run and the auditor replays the identical verdicts offline.
#[derive(Debug, Clone)]
pub struct RuntimeFaultPlan {
    config: RuntimeFaultConfig,
}

impl RuntimeFaultPlan {
    /// Builds a plan from a config.
    pub fn new(config: RuntimeFaultConfig) -> Self {
        RuntimeFaultPlan { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &RuntimeFaultConfig {
        &self.config
    }

    /// Materializes the node-crash windows over `[0, horizon)` against
    /// `base` capacity. Same spacing shape as the static churn path, but
    /// these windows live *outside* the [`ClusterConfig`]: the engine
    /// overlays them on `capacity_now` only, so planners never foresee
    /// them.
    pub fn crash_windows(&self, base: ResourceVec, horizon: u64) -> Vec<CapacityWindow> {
        let severity = self.config.crash_severity;
        if severity <= 0.0 || horizon == 0 {
            return Vec::new();
        }
        let period = self.config.crash_period.max(4);
        let keep = 1.0 - severity.clamp(0.0, 0.95);
        let degraded = ResourceVec::new(
            base.as_array()
                .map(|c| (((c as f64) * keep).floor() as u64).max(1)),
        );
        let mut rng = SplitMix64::new(self.config.seed ^ CRASH_SALT);
        let mut windows = Vec::new();
        let mut start = rng.below(period);
        while start < horizon {
            let len = 1 + rng.below(period / 2).max(period / 4);
            windows.push(CapacityWindow {
                from_slot: start,
                to_slot: start + len,
                capacity: degraded,
            });
            start += period / 2 + rng.below(period);
        }
        windows
    }

    /// Whether `job`, caught in flight when crash window `window_idx`
    /// opens, is on the lost capacity and killed. Probability equals the
    /// crash severity.
    pub fn crash_kills(&self, window_idx: u64, job: JobId) -> bool {
        let severity = self.config.crash_severity.clamp(0.0, 0.95);
        severity > 0.0
            && hash_unit(self.config.seed ^ CRASH_KILL_SALT, window_idx, job.as_u64()) < severity
    }

    /// Whether attempt `attempt` of `job` fails, and if so after how much
    /// cumulative work: returns the failure threshold in
    /// `[1, actual_work]` — the attempt dies in the slot its `done_work`
    /// first reaches it.
    pub fn attempt_failure(&self, job: JobId, attempt: u32, actual_work: u64) -> Option<u64> {
        let rate = self.config.task_fail_rate;
        if rate <= 0.0 || actual_work == 0 {
            return None;
        }
        if hash_unit(self.config.seed ^ TASK_SALT, job.as_u64(), attempt as u64) >= rate {
            return None;
        }
        let frac = hash_unit(
            self.config.seed ^ TASK_POINT_SALT,
            job.as_u64(),
            attempt as u64,
        );
        Some(1 + (frac * (actual_work - 1) as f64) as u64)
    }

    /// Extra ground-truth work a straggler `job` gains the first time it
    /// runs; `0` for non-stragglers.
    pub fn straggler_extra(&self, job: JobId, actual_work: u64) -> u64 {
        let rate = self.config.straggler_rate;
        if rate <= 0.0 || actual_work == 0 {
            return 0;
        }
        if hash_unit(self.config.seed ^ STRAGGLER_SALT, job.as_u64(), 0) >= rate {
            return 0;
        }
        (((actual_work as f64) * self.config.straggler_factor).round() as u64).max(1)
    }
}

/// SplitMix64: tiny, seedable, platform-independent PRNG. Kept private to
/// this crate so `flowtime-sim` stays dependency-free.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; returns 0 for `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift; bias is negligible for the bounds used here.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Uniform in `(0, 1)`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) * (1.0 / ((1u64 << 53) as f64 + 1.0))
    }

    /// Standard normal via Box-Muller.
    fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{ResourceVec, WorkflowBuilder, WorkflowId};

    fn workload() -> SimWorkload {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "wf");
        let a = b.add_job(JobSpec::new("a", 4, 2, ResourceVec::new([1, 1024])));
        let c = b.add_job(JobSpec::new("c", 4, 2, ResourceVec::new([1, 1024])));
        b.add_dep(a, c).unwrap();
        let wf = b.window(5, 60).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(crate::job::WorkflowSubmission::new(wf).with_job_deadlines(vec![30, 60]));
        wl.adhoc.push(AdhocSubmission::new(
            JobSpec::new("adhoc-0", 2, 2, ResourceVec::new([1, 512])),
            3,
        ));
        wl
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([16, 65_536]), 10.0)
    }

    #[test]
    fn zero_config_is_identity() {
        let mut wl = workload();
        let mut cl = cluster();
        FaultPlan::new(FaultConfig::none(99)).apply(&mut wl, &mut cl, 500);
        assert_eq!(wl, workload());
        assert_eq!(cl, cluster());
    }

    #[test]
    fn same_seed_same_rewrite() {
        let (mut wl_a, mut cl_a) = (workload(), cluster());
        let (mut wl_b, mut cl_b) = (workload(), cluster());
        let plan = FaultPlan::new(FaultConfig::mixed(7));
        plan.apply(&mut wl_a, &mut cl_a, 500);
        plan.apply(&mut wl_b, &mut cl_b, 500);
        assert_eq!(wl_a, wl_b);
        assert_eq!(cl_a, cl_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let (mut wl_a, mut cl_a) = (workload(), cluster());
        let (mut wl_b, mut cl_b) = (workload(), cluster());
        FaultPlan::new(FaultConfig::mixed(1)).apply(&mut wl_a, &mut cl_a, 500);
        FaultPlan::new(FaultConfig::mixed(2)).apply(&mut wl_b, &mut cl_b, 500);
        assert_ne!((wl_a, cl_a), (wl_b, cl_b));
    }

    #[test]
    fn misestimation_sets_actual_work() {
        let mut wl = workload();
        let mut cl = cluster();
        FaultPlan::new(FaultConfig::none(3).with_misestimate(0.4)).apply(&mut wl, &mut cl, 500);
        let actual = wl.workflows[0].actual_work.as_ref().expect("injected");
        assert_eq!(actual.len(), 2);
        assert!(actual.iter().all(|&w| w >= 1));
        // Cluster untouched by this fault class.
        assert_eq!(cl, cluster());
    }

    #[test]
    fn churn_adds_degraded_windows() {
        let mut wl = workload();
        let mut cl = cluster();
        FaultPlan::new(FaultConfig::none(3).with_static_churn(0.5)).apply(&mut wl, &mut cl, 1_000);
        assert!(cl.has_capacity_windows());
        let base = cluster().capacity();
        let mut saw_degraded = false;
        for slot in 0..1_000 {
            let cap = cl.capacity_at(slot);
            assert!(cap.fits_within(&base));
            if cap != base {
                saw_degraded = true;
                assert_eq!(cap, ResourceVec::new([8, 32_768]));
            }
        }
        assert!(saw_degraded);
    }

    #[test]
    fn bursts_add_adhoc_jobs_within_horizon() {
        let mut wl = workload();
        let mut cl = cluster();
        let before = wl.adhoc.len();
        FaultPlan::new(FaultConfig::none(3).with_bursts(9)).apply(&mut wl, &mut cl, 400);
        assert_eq!(wl.adhoc.len(), before + 9);
        for sub in &wl.adhoc {
            assert!(sub.arrival_slot < 400 + 3);
            assert!(sub.spec.work() >= 1);
        }
        // Sorted by arrival.
        for w in wl.adhoc.windows(2) {
            assert!(w[0].arrival_slot <= w[1].arrival_slot);
        }
    }

    #[test]
    fn recorded_apply_matches_apply_and_reports_each_injection() {
        let (mut wl_a, mut cl_a) = (workload(), cluster());
        let (mut wl_b, mut cl_b) = (workload(), cluster());
        let plan = FaultPlan::new(FaultConfig::mixed(7));
        plan.apply(&mut wl_a, &mut cl_a, 500);
        let records = plan.apply_recorded(&mut wl_b, &mut cl_b, 500);
        // Recording observes; it never perturbs the rewrite.
        assert_eq!(wl_a, wl_b);
        assert_eq!(cl_a, cl_b);
        assert!(records.iter().any(|r| r.kind == "misestimate"));
        assert!(records.iter().any(|r| r.kind == "capacity-churn"));
        assert_eq!(records.iter().filter(|r| r.kind == "burst").count(), 6);
        // The identity plan has nothing to report.
        let none = FaultPlan::new(FaultConfig::none(7)).apply_recorded(
            &mut workload(),
            &mut cluster(),
            500,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn inert_runtime_plan_never_fires() {
        let plan = RuntimeFaultPlan::new(RuntimeFaultConfig::none(42));
        assert!(plan.config().is_inert());
        assert!(plan
            .crash_windows(ResourceVec::new([16, 65_536]), 1_000)
            .is_empty());
        for raw in 0..50u64 {
            let id = JobId::new(raw);
            assert_eq!(plan.attempt_failure(id, 0, 100), None);
            assert_eq!(plan.straggler_extra(id, 100), 0);
            assert!(!plan.crash_kills(0, id));
        }
    }

    #[test]
    fn attempt_failure_is_deterministic_and_bounded() {
        let plan = RuntimeFaultPlan::new(RuntimeFaultConfig::none(9).with_task_failures(0.5));
        let mut fired = 0usize;
        for raw in 0..200u64 {
            let id = JobId::new(raw);
            let a = plan.attempt_failure(id, 1, 37);
            assert_eq!(a, plan.attempt_failure(id, 1, 37));
            if let Some(fail_at) = a {
                fired += 1;
                assert!((1..=37).contains(&fail_at));
            }
        }
        // Roughly half of 200 jobs should fail at rate 0.5.
        assert!((60..=140).contains(&fired), "fired {fired}");
        // Different attempts of the same job draw independently.
        let id = JobId::new(7);
        let per_attempt: Vec<_> = (0..20).map(|a| plan.attempt_failure(id, a, 37)).collect();
        assert!(per_attempt.iter().any(Option::is_some));
        assert!(per_attempt.iter().any(Option::is_none));
    }

    #[test]
    fn crash_windows_are_seeded_and_degraded() {
        let plan = RuntimeFaultPlan::new(
            RuntimeFaultConfig::none(5)
                .with_crashes(0.5)
                .with_crash_period(50),
        );
        let base = ResourceVec::new([16, 65_536]);
        let windows = plan.crash_windows(base, 1_000);
        assert!(!windows.is_empty());
        for w in &windows {
            assert!(w.from_slot < w.to_slot);
            assert!(w.from_slot < 1_000);
            assert_eq!(w.capacity, ResourceVec::new([8, 32_768]));
        }
        for pair in windows.windows(2) {
            assert!(pair[0].from_slot < pair[1].from_slot);
        }
        assert_eq!(windows, plan.crash_windows(base, 1_000));
        // Some in-flight jobs are killed, some survive, deterministically.
        let kills: Vec<bool> = (0..40)
            .map(|r| plan.crash_kills(0, JobId::new(r)))
            .collect();
        assert!(kills.iter().any(|&k| k));
        assert!(kills.iter().any(|&k| !k));
        assert_eq!(
            kills,
            (0..40)
                .map(|r| plan.crash_kills(0, JobId::new(r)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn straggler_extra_scales_with_factor() {
        let plan = RuntimeFaultPlan::new(RuntimeFaultConfig::none(11).with_stragglers(0.3, 0.5));
        let mut hit = 0usize;
        for raw in 0..200u64 {
            let id = JobId::new(raw);
            let extra = plan.straggler_extra(id, 40);
            assert_eq!(extra, plan.straggler_extra(id, 40));
            if extra > 0 {
                hit += 1;
                assert_eq!(extra, 20);
            }
        }
        assert!((30..=90).contains(&hit), "hit {hit}");
    }

    #[test]
    fn runtime_horizon_covers_deadlines_and_arrivals() {
        let wl = workload();
        // Workflow submits at 5 with a 55-slot window; ad-hoc arrival 3.
        assert_eq!(runtime_fault_horizon(&wl), 60);
        assert_eq!(runtime_fault_horizon(&SimWorkload::default()), 1);
    }

    #[test]
    fn delays_shift_window_and_milestones_together() {
        let mut wl = workload();
        let mut cl = cluster();
        FaultPlan::new(FaultConfig::none(12345).with_submit_delay(40)).apply(&mut wl, &mut cl, 500);
        let sub = &wl.workflows[0];
        let delay = sub.workflow.submit_slot() - 5;
        assert!(delay <= 40);
        assert_eq!(sub.workflow.window_slots(), 55);
        assert_eq!(
            sub.job_deadlines.as_ref().unwrap(),
            &vec![30 + delay, 60 + delay]
        );
    }
}
