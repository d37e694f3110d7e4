//! The FlowTime scheduler (the paper's contribution, Sections IV–VI).

use super::util::SlotFiller;
use crate::decompose::{self, slack::slacked_windows, DecomposeConfig, Decomposer, JobWindow};
use crate::lp_sched::{
    backend, cache::PlanCache, LevelingProblem, Plan, PlanJob, SolveStats, SolverBackend,
};
use flowtime_dag::{JobId, ResourceVec, WorkflowId};
use flowtime_sim::{Allocation, ClusterConfig, JobView, Scheduler, SimState, SolverTelemetry};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Tuning parameters of [`FlowTimeScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTimeConfig {
    /// Deadline slack in slots (paper default: 60 s = 6 slots of 10 s).
    /// Zero reproduces the `FlowTime_no_ds` ablation of Fig. 5.
    pub slack_slots: u64,
    /// Which exact solver realizes the lexmin-max placement.
    pub backend: SolverBackend,
    /// Deadline-decomposition strategy (the paper's demand-proportional by
    /// default; critical-path for the ablation).
    pub decomposer: Decomposer,
    /// Re-solve the placement LP every slot instead of only on
    /// arrival/completion events. Slower, occasionally tighter plans. Set
    /// by `plan_cache_toggle_is_invisible_across_20_fault_seeds`
    /// (`tests/differential.rs`), where quiet slots then replan as pure
    /// time shifts — the plan cache's hit case.
    pub replan_every_slot: bool,
    /// Hard cap on the planning horizon, in slots. Set by
    /// `six_schedulers_bit_identical_outcomes_across_engines`
    /// (`tests/lp_differential.rs`) to keep the dense oracle's LPs small.
    pub max_horizon: usize,
    /// Reuse the previous plan when the leveling problem is unchanged or a
    /// pure elapsed-time relabel of it (see [`crate::lp_sched::cache`]).
    /// Never changes any plan — only skips provably redundant solves — so
    /// disabling it is purely diagnostic.
    pub plan_cache: bool,
}

impl Default for FlowTimeConfig {
    fn default() -> Self {
        FlowTimeConfig {
            slack_slots: 6,
            backend: SolverBackend::default(),
            decomposer: Decomposer::ResourceDemand,
            replan_every_slot: false,
            max_horizon: 4096,
            plan_cache: true,
        }
    }
}

/// Minimum slots between completion-triggered re-plans (arrivals and plan
/// exhaustion always re-plan immediately). Batching completion events
/// bounds scheduling overhead on long horizons; stale plans are
/// conservative, because completed jobs' leftover planned capacity is
/// simply released to ad-hoc jobs and top-ups.
const REPLAN_INTERVAL: u64 = 8;

/// FlowTime: decompose workflow deadlines into per-job windows (Section
/// IV), then place all pending deadline jobs over the horizon by
/// lexicographically minimizing the peak normalized load (Section V). The
/// flattened deadline profile leaves maximal residual capacity in every
/// slot, which ad-hoc jobs share fairly; any capacity still left tops up
/// deadline jobs (work conservation).
///
/// Re-planning is event-driven (workflow arrivals, deadline-job
/// completions, plan exhaustion from under-estimated runtimes), matching
/// the paper's "triggered whenever a task/job completes" design with the
/// LP's sub-second latency budget (Fig. 7).
pub struct FlowTimeScheduler {
    cluster: ClusterConfig,
    config: FlowTimeConfig,
    /// Slacked scheduling windows per engine job id.
    windows: HashMap<JobId, JobWindow>,
    /// Unslacked milestone deadlines per engine job id (the true deadlines
    /// used for the overdue-priority check).
    milestones: HashMap<JobId, u64>,
    seen_workflows: HashSet<WorkflowId>,
    /// Current plan and the absolute slot it starts at.
    plan: Option<(u64, Plan)>,
    /// One past each job's last relative slot with planned tasks: the plan
    /// is exhausted for a job once `rel` reaches it (O(1) checks).
    planned_end: HashMap<JobId, usize>,
    /// Count of completed deadline jobs when the plan was built.
    planned_completions: usize,
    /// True when the last solve failed (infeasible windows): fall back to
    /// EDF-style greedy until the next successful replan.
    degraded: bool,
    last_replan_slot: u64,
    /// The conservative capacity regime the current windows were
    /// decomposed under (elementwise minimum of `capacity_at` over the
    /// tracked lookahead). `None` until the first slot, and always on a
    /// cluster without capacity windows.
    capacity_regime: Option<ResourceVec>,
    /// Scheduling deadlines of the pending jobs as of the last replan —
    /// the plan paces against these, so a later window refresh that moves
    /// any of them (capacity churn) invalidates the plan.
    planned_deadlines: HashMap<JobId, u64>,
    cache: PlanCache,
    telemetry: SolverTelemetry,
}

impl FlowTimeScheduler {
    /// Creates a FlowTime scheduler for the given cluster.
    pub fn new(cluster: ClusterConfig, config: FlowTimeConfig) -> Self {
        FlowTimeScheduler {
            cluster,
            config,
            windows: HashMap::new(),
            milestones: HashMap::new(),
            seen_workflows: HashSet::new(),
            plan: None,
            planned_end: HashMap::new(),
            planned_completions: 0,
            degraded: false,
            last_replan_slot: 0,
            capacity_regime: None,
            planned_deadlines: HashMap::new(),
            cache: PlanCache::new(),
            telemetry: SolverTelemetry::default(),
        }
    }

    /// Number of LP/flow solves performed so far (scheduling-latency
    /// accounting, Fig. 7): the telemetry's replan counter.
    pub fn solves(&self) -> usize {
        self.telemetry.replans as usize
    }

    /// The capacity figure deadline decomposition runs against: the
    /// conservative regime when one is tracked, else the nominal capacity.
    fn decompose_capacity(&self) -> ResourceVec {
        self.capacity_regime
            .unwrap_or_else(|| self.cluster.capacity())
    }

    /// (Re-)decomposes one workflow's deadline into job windows and
    /// milestones under the current capacity regime.
    fn decompose_into_windows(&mut self, wf: &flowtime_sim::WorkflowView<'_>) {
        let cfg =
            DecomposeConfig::new(self.decompose_capacity()).with_decomposer(self.config.decomposer);
        match decompose::decompose(wf.workflow, &cfg) {
            Ok(d) => {
                let windows = slacked_windows(&d, self.config.slack_slots);
                for ((node, w), milestone) in windows.into_iter().enumerate().zip(d.job_deadlines())
                {
                    self.windows.insert(wf.job_ids[node], w);
                    self.milestones.insert(wf.job_ids[node], milestone);
                }
            }
            Err(_) => {
                // Window tighter than the DAG depth: best effort — every
                // job gets the whole workflow window.
                let w = JobWindow {
                    start: wf.workflow.submit_slot(),
                    deadline: wf.workflow.deadline_slot(),
                };
                for node in 0..wf.workflow.len() {
                    self.windows.insert(wf.job_ids[node], w);
                    self.milestones.insert(wf.job_ids[node], w.deadline);
                }
            }
        }
    }

    /// Recomputes the conservative capacity regime over the tracked
    /// lookahead and re-decomposes live workflows when it changed.
    ///
    /// Capacity churn is statically known through
    /// [`ClusterConfig::capacity_at`] — the placement LP already routes
    /// around it slot by slot — but deadline *decomposition* runs against
    /// a single capacity figure, so windows decomposed at arrival go stale
    /// when churn shrinks (or restores) the capacity a workflow's
    /// remaining window can count on. The regime is the elementwise
    /// minimum of `capacity_at` from `now` to the furthest tracked
    /// deadline; when it changes, every incomplete workflow's windows and
    /// milestones are re-decomposed under it, and [`Self::needs_replan`]
    /// picks up any deadline that moved via
    /// [`Self::planned_deadlines`].
    fn refresh_regime(&mut self, state: &SimState) {
        if self.cluster.windows().is_empty() {
            // Every slot has the nominal capacity, which decomposition
            // falls back to while no regime is tracked.
            return;
        }
        let now = state.now();
        let far = state
            .workflows()
            .iter()
            .filter(|wf| !wf.is_complete())
            .map(|wf| wf.workflow.deadline_slot())
            .max()
            .unwrap_or(now)
            .clamp(now + 1, now + self.config.max_horizon as u64);
        let mut regime = self.cluster.capacity_at(now);
        for t in (now + 1)..far {
            regime = regime.min(&self.cluster.capacity_at(t));
        }
        if self.capacity_regime == Some(regime) {
            return;
        }
        let first = self.capacity_regime.is_none();
        self.capacity_regime = Some(regime);
        if first {
            // Nothing was decomposed under an older regime yet; arrivals
            // from this slot on use the fresh one.
            return;
        }
        for wf in state.workflows() {
            if self.seen_workflows.contains(&wf.id()) && !wf.is_complete() {
                self.decompose_into_windows(&wf);
            }
        }
    }

    /// Decomposes newly arrived workflows; returns true if any arrived.
    fn absorb_arrivals(&mut self, state: &SimState) -> bool {
        let mut dirty = false;
        for wf in state.workflows() {
            if !self.seen_workflows.insert(wf.id()) {
                continue;
            }
            dirty = true;
            self.decompose_into_windows(&wf);
        }
        dirty
    }

    fn needs_replan(&self, state: &SimState, pending: &[JobView]) -> bool {
        if self.config.replan_every_slot {
            return true;
        }
        let Some((origin, _)) = &self.plan else {
            return !pending.is_empty();
        };
        // A tracked pending job's scheduling deadline moved since the plan
        // was built (capacity-churn window refresh shrank or restored its
        // feasible window): the plan paces against stale windows, so
        // rebuild immediately rather than waiting for the completion
        // batch interval.
        for job in pending {
            if let (Some(w), Some(&planned)) = (
                self.windows.get(&job.id),
                self.planned_deadlines.get(&job.id),
            ) {
                if w.deadline != planned {
                    return true;
                }
            }
        }
        if completed_jobs(state) != self.planned_completions
            && state.now() >= self.last_replan_slot + REPLAN_INTERVAL
        {
            return true;
        }
        // Plan exhaustion: a runnable deadline job with work left but no
        // remaining planned tasks (estimation under-run or parent delay).
        let now = state.now();
        let rel = (now - origin) as usize;
        for job in pending {
            if job.ready_slot.is_some_and(|r| r <= now) {
                let planned_end = self.planned_end.get(&job.id).copied().unwrap_or(0);
                if rel >= planned_end && job.estimated_remaining.unwrap_or(0) > 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Builds the leveling problem for the pending jobs as of `now`.
    fn build_problem(&self, state: &SimState, pending: &[JobView]) -> LevelingProblem {
        let now = state.now();
        let default_window = JobWindow {
            start: now,
            deadline: now + 1,
        };
        // Horizon: cover the latest scheduling deadline of pending jobs.
        let mut horizon = 1usize;
        let mut jobs = Vec::with_capacity(pending.len());
        for job in pending {
            let w = self.windows.get(&job.id).copied().unwrap_or(default_window);
            let demand = job.estimated_remaining.unwrap_or(0);
            if demand == 0 {
                continue;
            }
            let cap = job.max_tasks_this_slot.max(1);
            // Relative window: starts at the decomposed start (or now), ends
            // at the slacked deadline — widened if overdue so each job
            // retains a feasible window. Feasible length is judged against
            // what the *cluster* can actually host per slot.
            let cluster_width = job.per_task.times_fitting(&self.cluster.capacity()).max(1);
            let start_rel = w.start.saturating_sub(now) as usize;
            let min_len = demand.div_ceil(cap.min(cluster_width)) as usize;
            let end_rel = (w.deadline.saturating_sub(now) as usize).max(start_rel + min_len);
            jobs.push(PlanJob {
                id: job.id,
                window: (start_rel, end_rel),
                demand,
                per_task: job.per_task,
                per_slot_cap: Some(cap),
            });
            horizon = horizon.max(end_rel);
        }
        let horizon = horizon.min(self.config.max_horizon);
        for job in &mut jobs {
            job.window.1 = job.window.1.min(horizon);
            job.window.0 = job.window.0.min(job.window.1.saturating_sub(1));
        }
        LevelingProblem {
            // Per-slot caps honour time-varying capacity windows (Eq. (4)).
            slot_caps: (0..horizon as u64)
                .map(|t| self.cluster.capacity_at(now + t))
                .collect(),
            jobs,
        }
    }

    fn replan(&mut self, state: &SimState, pending: &[JobView]) {
        let problem = self.build_problem(state, pending);
        self.telemetry.replans += 1;
        self.last_replan_slot = state.now();
        let started = Instant::now();
        let mut stats = SolveStats::default();
        let cache = if self.config.plan_cache {
            Some(&mut self.cache)
        } else {
            None
        };
        let solved = backend::solve_with(&problem, self.config.backend, cache, &mut stats);
        self.telemetry.replan_wall_nanos += started.elapsed().as_nanos() as u64;
        self.telemetry.accumulate(&stats);
        match solved {
            Ok(plan) => {
                self.planned_end = (plan.tasks.iter())
                    .map(|(&id, per_slot)| {
                        (
                            id,
                            per_slot.iter().rposition(|&n| n > 0).map_or(0, |t| t + 1),
                        )
                    })
                    .collect();
                self.plan = Some((state.now(), plan));
                self.degraded = false;
            }
            Err(_) => {
                // Infeasible decomposition (e.g. badly under-estimated or
                // overloaded): degrade to EDF-greedy until feasible again.
                self.plan = None;
                self.planned_end.clear();
                self.degraded = true;
                self.telemetry.degraded_replans += 1;
            }
        }
        self.planned_deadlines = pending
            .iter()
            .filter_map(|j| self.windows.get(&j.id).map(|w| (j.id, w.deadline)))
            .collect();
        self.planned_completions = completed_jobs(state);
    }
}

/// Completed workflow jobs across every arrived workflow — the progress
/// counter a plan is stamped with and `needs_replan` compares against.
fn completed_jobs(state: &SimState) -> usize {
    state.workflows().iter().map(|w| w.completed_count).sum()
}

impl Scheduler for FlowTimeScheduler {
    fn name(&self) -> &str {
        "FlowTime"
    }

    fn telemetry(&self) -> Option<SolverTelemetry> {
        Some(self.telemetry.clone())
    }

    fn decision_tag(&self) -> &'static str {
        if self.degraded {
            "degraded-greedy"
        } else {
            "lp-plan"
        }
    }

    fn on_failure(&mut self, _state: &SimState, job: JobId, _attempt: u32) {
        // A killed attempt reverts the job's progress to zero, so a plan
        // paced against the old `done_work` now under-provisions it. Drop
        // the plan: the next slot simply replans (the windows and
        // milestones survive — only the pacing is stale).
        // Ad-hoc failures don't touch the LP, which never plans them.
        if self.windows.contains_key(&job) {
            self.plan = None;
            self.planned_end.clear();
            self.planned_deadlines.clear();
        }
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        self.refresh_regime(state);
        let arrived = self.absorb_arrivals(state);
        let pending: Vec<JobView> = state.visible_deadline().collect();
        if arrived || self.needs_replan(state, &pending) {
            self.replan(state, &pending);
        }

        let now = state.now();
        let deadline_jobs: Vec<JobView> = state.runnable_deadline().collect();
        let mut filler = SlotFiller::new(state);

        // 1. Deadline jobs draw their planned allocation for this slot.
        if let Some((origin, plan)) = &self.plan {
            let rel = (now - origin) as usize;
            for job in &deadline_jobs {
                let planned = plan.tasks_at(job.id, rel);
                if planned > 0 {
                    filler.grant(job, planned);
                }
            }
        } else if self.degraded {
            // EDF-greedy fallback: most urgent scheduling deadline first.
            let mut urgent = deadline_jobs.clone();
            urgent.sort_by_key(|j| {
                (
                    self.windows.get(&j.id).map_or(u64::MAX, |w| w.deadline),
                    j.id,
                )
            });
            filler.greedy_fill(urgent);
        }

        // 2. Deadline jobs that are at or past their *slacked* scheduling
        //    deadline (estimation under-runs, delayed parents) take
        //    priority over ad-hoc work: meeting deadlines is the primary
        //    objective, and firing at the slacked deadline — slack_slots
        //    before the true milestone — is precisely the recovery window
        //    the slack buys (Section VII-B.2).
        let mut overdue: Vec<JobView> = deadline_jobs
            .iter()
            .filter(|j| {
                self.windows
                    .get(&j.id)
                    .is_some_and(|w| w.deadline <= now + 1)
            })
            .copied()
            .collect();
        overdue.sort_by_key(|j| {
            (
                self.milestones.get(&j.id).copied().unwrap_or(u64::MAX),
                j.id,
            )
        });
        filler.greedy_fill(overdue);

        // 3. Ad-hoc jobs share the residual capacity fairly — the whole
        //    point of flattening the deadline profile.
        filler.fair_fill(state.runnable_adhoc());

        // 4. Work conservation: leftover capacity tops up deadline jobs
        //    (finishing early is free; the profile constraint only matters
        //    while there is competition, which step 2 already resolved).
        let mut by_deadline = deadline_jobs;
        by_deadline.sort_by_key(|j| {
            (
                self.windows.get(&j.id).map_or(u64::MAX, |w| w.deadline),
                j.id,
            )
        });
        filler.greedy_fill(by_deadline);

        filler.into_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder};
    use flowtime_sim::prelude::*;

    fn cluster(cores: u64) -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([cores, cores * 1024]), 10.0)
    }

    fn spec(tasks: u64, dur: u64) -> JobSpec {
        JobSpec::new("j", tasks, dur, ResourceVec::new([1, 1024]))
    }

    /// The paper's Fig. 1 motivating example, scaled 1:10 (slots of 10 time
    /// units): W1 = two chained jobs each needing the *full* cluster for 10
    /// slots, deadline 20; A1 arrives at 0, A2 at 10, each needing half the
    /// cluster for 10 slots at full width... here: each ad-hoc needs 10
    /// slots of half the cluster.
    #[test]
    fn motivating_example_beats_edf_turnaround() {
        let cores = 4u64;
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w1");
        // Each job: work 40 task-slots = full cluster (4) x 10 slots, but
        // can also run at width 2 for 20 slots.
        let j1 = b.add_job(spec(40, 1));
        let j2 = b.add_job(spec(40, 1));
        b.add_dep(j1, j2).unwrap();
        let wf = b.window(0, 40).build().unwrap();

        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        // A1 at slot 0 and A2 at slot 10, each 20 task-slots (half-cluster
        // wide for 10 slots).
        wl.adhoc
            .push(AdhocSubmission::new(spec(20, 1).with_max_parallel(2), 0));
        wl.adhoc
            .push(AdhocSubmission::new(spec(20, 1).with_max_parallel(2), 10));

        let mut ft = FlowTimeScheduler::new(
            cluster(cores),
            FlowTimeConfig {
                slack_slots: 0,
                ..Default::default()
            },
        );
        let out = Engine::new(cluster(cores), wl, 1000)
            .unwrap()
            .run(&mut ft)
            .unwrap();
        // Deadline met...
        assert_eq!(out.metrics.workflow_deadline_misses(), 0);
        // ...and ad-hoc turnaround is near-optimal (each runs immediately
        // at its full width of 2): ~10 slots each, far below the EDF ~15
        // average (A1 waits 10 under EDF).
        let avg = out.metrics.avg_adhoc_turnaround_slots().unwrap();
        assert!(avg <= 11.0, "avg adhoc turnaround {avg}");
    }

    #[test]
    fn meets_deadlines_under_estimation_overrun_with_slack() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let j1 = b.add_job(spec(16, 1));
        let j2 = b.add_job(spec(16, 1));
        b.add_dep(j1, j2).unwrap();
        let wf = b.window(0, 30).build().unwrap();
        // Reality is 25% more work than estimated.
        let sub = WorkflowSubmission::new(wf)
            .with_actual_work(vec![20, 20])
            .with_job_deadlines(vec![15, 30]);
        let mut wl = SimWorkload::default();
        wl.workflows.push(sub);
        let mut ft = FlowTimeScheduler::new(cluster(4), FlowTimeConfig::default());
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut ft)
            .unwrap();
        assert_eq!(out.metrics.workflow_deadline_misses(), 0);
        assert!(ft.solves() >= 2, "overrun must trigger replanning");
    }

    #[test]
    fn work_conservation_when_no_adhoc() {
        // A single loose-deadline workflow on an idle cluster should not
        // dawdle: leftover capacity tops it up and it finishes early.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(spec(16, 1));
        let wf = b.window(0, 100).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        let mut ft = FlowTimeScheduler::new(cluster(8), FlowTimeConfig::default());
        let out = Engine::new(cluster(8), wl, 1000)
            .unwrap()
            .run(&mut ft)
            .unwrap();
        // 16 units at width 8 -> 2 slots, despite the 100-slot window.
        assert_eq!(out.metrics.jobs[0].completion_slot, 2);
    }

    #[test]
    fn degrades_gracefully_when_windows_infeasible() {
        // Demand that cannot fit the window at all: FlowTime must still
        // finish the work (late), not deadlock.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        b.add_job(spec(100, 1).with_max_parallel(4));
        let wf = b.window(0, 5).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows.push(WorkflowSubmission::new(wf));
        let mut ft = FlowTimeScheduler::new(cluster(4), FlowTimeConfig::default());
        let out = Engine::new(cluster(4), wl, 1000)
            .unwrap()
            .run(&mut ft)
            .unwrap();
        assert_eq!(out.metrics.completed_jobs(), 1);
        // 100 units at width 4 = 25 slots; deadline 5 is hopeless.
        assert_eq!(out.metrics.jobs[0].completion_slot, 25);
    }

    #[test]
    fn plan_cache_answers_waiting_replans_without_changing_behavior() {
        // j1 is over-estimated (finishes early) while j2's decomposed
        // window starts later, and a saturating ad-hoc job absorbs every
        // residual slot, so the every-slot replans between j1's completion
        // and j2's window start rebuild pure elapsed-time relabels of the
        // same leveling problem. The cache must answer those as shift hits
        // — and must not change a single metric relative to running with
        // the cache disabled.
        let build = || {
            let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
            let j1 = b.add_job(spec(8, 1));
            let j2 = b.add_job(spec(12, 1));
            b.add_dep(j1, j2).unwrap();
            let wf = b.window(0, 20).build().unwrap();
            let mut wl = SimWorkload::default();
            wl.workflows
                .push(WorkflowSubmission::new(wf).with_actual_work(vec![4, 12]));
            wl.adhoc.push(AdhocSubmission::new(spec(400, 1), 0));
            wl
        };
        let run = |plan_cache: bool| {
            let cfg = FlowTimeConfig {
                slack_slots: 0,
                replan_every_slot: true,
                plan_cache,
                ..Default::default()
            };
            let mut ft = FlowTimeScheduler::new(cluster(4), cfg);
            Engine::new(cluster(4), build(), 1000)
                .unwrap()
                .run(&mut ft)
                .unwrap()
        };
        let cached = run(true);
        let uncached = run(false);
        assert_eq!(cached.metrics, uncached.metrics);
        let on = cached.solver_telemetry.as_ref().unwrap();
        let off = uncached.solver_telemetry.as_ref().unwrap();
        assert!(on.cache_hits_shift >= 1, "no shift hits: {}", on.summary());
        assert_eq!(off.cache_hits(), 0);
        assert_eq!(off.cache_misses, 0, "disabled cache must not be probed");
        assert_eq!(on.replans, off.replans);
    }

    #[test]
    fn replans_immediately_when_churn_moves_window_deadlines() {
        // Capacity churn: the cluster runs at half capacity during slots
        // 0..12, restoring to full afterwards. Deadline decomposition under
        // the conservative regime gives width-constrained j1 a long window
        // (its min-runtime doubles at half capacity), pushing serial j2's
        // window start late. When the churn leaves the lookahead at slot
        // 12, re-decomposition under full capacity moves j1's deadline
        // *earlier* and j2's start with it — and j2 (which really needs 14
        // slots at width 1, not the estimated 10) only meets the workflow
        // deadline if the scheduler acts on that moved deadline right away.
        // Pre-fix, `needs_replan` ignored deadline changes without an
        // arrival, so the stale plan kept pacing j1 against the old window
        // and started j2 too late to finish by slot 30. The saturating
        // ad-hoc job keeps work-conservation top-ups from hiding the stale
        // start, and nothing completes before j1 does, so no completion
        // batch rescues the plan in time.
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
        let j1 = b.add_job(spec(24, 1));
        let j2 = b.add_job(spec(10, 1).with_max_parallel(1));
        b.add_dep(j1, j2).unwrap();
        let wf = b.window(0, 30).build().unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(WorkflowSubmission::new(wf).with_actual_work(vec![24, 14]));
        wl.adhoc.push(AdhocSubmission::new(spec(400, 1), 0));
        let churned = cluster(4).with_capacity_window(0, 12, ResourceVec::new([2, 2 * 1024]));
        let cfg = FlowTimeConfig {
            slack_slots: 0,
            ..Default::default()
        };
        let mut ft = FlowTimeScheduler::new(churned.clone(), cfg);
        let out = Engine::new(churned, wl, 1000)
            .unwrap()
            .run(&mut ft)
            .unwrap();
        assert_eq!(
            out.metrics.workflow_deadline_misses(),
            0,
            "completions: {:?}",
            out.metrics
                .jobs
                .iter()
                .map(|j| j.completion_slot)
                .collect::<Vec<_>>()
        );
        assert!(
            ft.solves() >= 2,
            "the regime change at slot 12 must trigger a replan"
        );
    }

    #[test]
    fn both_backends_schedule_identically_shaped_workloads() {
        for backend in [
            SolverBackend::ParametricFlow,
            SolverBackend::Simplex { lex_rounds: 4 },
        ] {
            let mut b = WorkflowBuilder::new(WorkflowId::new(1), "w");
            let a = b.add_job(spec(12, 1));
            let c = b.add_job(spec(12, 1));
            b.add_dep(a, c).unwrap();
            let wf = b.window(0, 40).build().unwrap();
            let mut wl = SimWorkload::default();
            wl.workflows.push(WorkflowSubmission::new(wf));
            wl.adhoc.push(AdhocSubmission::new(spec(8, 1), 2));
            let cfg = FlowTimeConfig {
                backend,
                ..Default::default()
            };
            let mut ft = FlowTimeScheduler::new(cluster(4), cfg);
            let out = Engine::new(cluster(4), wl, 1000)
                .unwrap()
                .run(&mut ft)
                .unwrap();
            assert_eq!(out.metrics.workflow_deadline_misses(), 0, "{backend:?}");
        }
    }
}
