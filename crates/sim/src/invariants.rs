//! Slot-by-slot invariant enforcement.
//!
//! [`InvariantChecker`] is the engine's single validation point. Every slot
//! it re-derives, from first principles, what a correct simulation must
//! satisfy, and fails the run with a structured [`SimError`] the moment
//! anything diverges. Two layers of rules:
//!
//! **Scheduler rules** (always enforced — a scheduling experiment whose
//! algorithm cheats silently would invalidate every reported metric):
//!
//! * every allocated job id exists ([`SimError::UnknownJob`]);
//! * no job runs before arrival/readiness or after completion
//!   ([`SimError::JobNotRunnable`]);
//! * per-job parallelism caps hold ([`SimError::ParallelismExceeded`]);
//! * the slot's total usage fits the capacity in force *this* slot,
//!   including time-varying windows ([`SimError::CapacityExceeded`]).
//!
//! **Accounting rules** (always enforced too — these guard the
//! *engine's* own bookkeeping and fail as [`SimError::InvariantViolation`]
//! naming the slot, job, and rule):
//!
//! * `work-conservation` — no job's completed work ever exceeds its
//!   ground-truth demand, and at the end of the run they are exactly equal;
//! * `completion-accounting` — a job is marked complete if and only if its
//!   accumulated work covers its demand;
//! * `monotone-completion` — the number of completed jobs and the total
//!   work performed (surviving progress plus work discarded by mid-run
//!   kills, which is how retries legally reset `done_work`) never
//!   decrease from slot to slot;
//! * `milestone-consistency` — per-workflow job deadlines are consistent
//!   with the decomposition windows they came from: inside the workflow's
//!   `[submit, deadline]` window and non-decreasing along DAG edges;
//! * `completion-ordering` — at the end of the run every job completed
//!   after it arrived and became ready.
//!
//! # Which rows the accounting rules visit
//!
//! The scheduler rules look at the granted rows. The three per-slot
//! accounting rules look at the **live set** — `SimState::visible`: rows
//! that have arrived, are incomplete and were not shed — plus the rows
//! that left that set since the previous pass (`SimState::departed`, an
//! append-only log the checker remembers its place in). Those are the
//! only rows the engine writes `done_work`, `wasted`, `actual_work` or
//! `completion_slot` of:
//!
//! * the apply loop of `Engine::step` (and of the linear-scan oracle)
//!   adds a grant to `done_work` and stamps `completion_slot`; a grant
//!   has passed the scheduler rules, so its row is arrived, ready and
//!   incomplete — live;
//! * `Engine::kill_job` moves `done_work` into `wasted`, for a row picked
//!   among those with progress and no completion (crash windows) or
//!   granted this slot (task failures) — live;
//! * straggler inflation grows `actual_work` at a row's first grant —
//!   live.
//!
//! A row not yet arrived, shed or deferred at arrival has never been
//! written: it is incomplete and carries no work. A row that completed is
//! never written again. So a departing row is checked one last time and
//! its completed flag and `done_work + wasted` are folded into running
//! sums; live rows plus those sums are the whole-table totals
//! `monotone-completion` compares. One slot costs O(live + granted + just
//! retired) rows however long the table has grown.
//!
//! The whole table is still visited: once at the end of the run by
//! [`InvariantChecker::check_final`], and — in test builds and under the
//! `oracle` feature, which only `[dev-dependencies]` may enable — by the
//! reference pass that runs beside the live-set pass on **every** slot and
//! must reach the same verdict and the same two totals
//! (`live-set-agreement`). A write to a frozen row is therefore caught at
//! the end of the run by a release binary and at the very slot by every
//! suite built with `oracle`.

use crate::error::SimError;
use crate::job::JobRuntime;
use crate::state::SimState;
use flowtime_dag::JobId;

/// What `monotone-completion` compares from slot to slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    /// Completed jobs.
    completed: usize,
    /// `done_work + wasted`, summed: wasted work from killed attempts
    /// counts, because a kill moves progress from `done_work` to `wasted`
    /// rather than destroying it, so the sum still never regresses.
    work: u64,
}

/// Stateful checker driven by [`crate::Engine`] once per slot plus once at
/// the end of the run. See the [module docs](self) for the rule catalogue.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    /// Whole-table totals observed at the previous check.
    prev: Totals,
    /// Whether the one-time static checks have run.
    static_checked: bool,
    /// Rows that have left the live set, each folded exactly once: the
    /// first `folded` entries of `SimState::departed`.
    retired: Totals,
    /// How far into `SimState::departed` the checker has read.
    folded: usize,
    /// Rows the live-set pass has visited so far (the reference pass
    /// beside it is not counted).
    #[cfg(test)]
    pub(crate) rows_visited: u64,
}

impl InvariantChecker {
    /// Creates a checker that has seen no slot yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn violation(slot: u64, job: Option<JobId>, rule: &'static str) -> SimError {
        SimError::InvariantViolation { slot, job, rule }
    }

    /// Validates one slot's allocation *before* the engine applies it.
    /// `pairs` is the scheduler's `job → tasks` mapping; `state` reflects
    /// the beginning of slot `state.now()`.
    ///
    /// # Errors
    ///
    /// Scheduler-rule failures use the legacy [`SimError`] variants;
    /// accounting-rule failures use [`SimError::InvariantViolation`].
    pub fn check_slot(&mut self, state: &SimState, pairs: &[(JobId, u64)]) -> Result<(), SimError> {
        let now = state.now();

        // Scheduler rules.
        for &(id, q) in pairs {
            let Some(row) = state.row(id) else {
                return Err(SimError::UnknownJob { job: id });
            };
            let job = &state.jobs[row];
            if job.arrival_slot > now || !job.is_runnable(now) {
                return Err(SimError::JobNotRunnable { job: id, slot: now });
            }
            let cap = job
                .estimate
                .effective_parallel()
                .min(job.remaining_actual());
            if q > cap {
                return Err(SimError::ParallelismExceeded {
                    job: id,
                    requested: q,
                    cap,
                });
            }
        }
        let used = state.allocation_usage(pairs);
        if !used.fits_within(&state.capacity_now()) {
            return Err(SimError::CapacityExceeded { slot: now });
        }

        // One-time static rules.
        if !self.static_checked {
            self.static_checked = true;
            self.check_milestone_consistency(state)?;
        }

        // Accounting rules.
        let totals = self.live_pass(state);
        #[cfg(any(test, feature = "oracle"))]
        let totals = Self::agree(now, totals, Self::table_pass(state));
        let totals = totals?;
        if totals.completed < self.prev.completed || totals.work < self.prev.work {
            return Err(Self::violation(now, None, "monotone-completion"));
        }
        self.prev = totals;
        Ok(())
    }

    /// `work-conservation` and `completion-accounting` on one row, then its
    /// contribution to the `monotone-completion` totals.
    fn account(now: u64, job: &JobRuntime, totals: &mut Totals) -> Result<(), SimError> {
        if job.done_work > job.actual_work {
            return Err(Self::violation(now, Some(job.id), "work-conservation"));
        }
        if job.is_complete() != (job.done_work >= job.actual_work) {
            return Err(Self::violation(now, Some(job.id), "completion-accounting"));
        }
        if job.is_complete() {
            totals.completed += 1;
        }
        totals.work += job.done_work + job.wasted;
        Ok(())
    }

    /// The accounting rules over the rows that left the live set since the
    /// previous pass — checked one last time, then folded into `retired` —
    /// and over the live set; returns the whole-table totals.
    fn live_pass(&mut self, state: &SimState) -> Result<Totals, SimError> {
        let now = state.now();
        while let Some(&id) = state.departed.get(self.folded) {
            Self::account(now, state.issued(id), &mut self.retired)?;
            self.folded += 1;
            #[cfg(test)]
            {
                self.rows_visited += 1;
            }
        }
        let mut totals = self.retired;
        for &(_, id) in &state.visible {
            Self::account(now, state.issued(id), &mut totals)?;
        }
        #[cfg(test)]
        {
            self.rows_visited += state.visible.len() as u64;
        }
        Ok(totals)
    }

    /// The accounting rules over the whole job table, in row order: the
    /// reference [`Self::live_pass`] is held to on every slot of a test or
    /// `oracle` build. It also re-derives, from the rows, the per-workflow
    /// completion flags that `SimState::workflows` lends to schedulers,
    /// and recounts the deadline subsets and zero-need counts the
    /// schedulers read beside `runnable` / `visible`.
    #[cfg(any(test, feature = "oracle"))]
    fn table_pass(state: &SimState) -> Result<Totals, SimError> {
        let now = state.now();
        let mut totals = Totals::default();
        for job in &state.jobs {
            Self::account(now, job, &mut totals)?;
        }
        for w in &state.workflows {
            let rows = w.job_ids.iter().map(|&id| state.issued(id).is_complete());
            if !rows.clone().eq(w.completed.iter().copied())
                || rows.filter(|&c| c).count() != w.completed_count
            {
                return Err(Self::violation(now, None, "live-set-agreement"));
            }
        }
        if !state.derived_indices_agree() {
            return Err(Self::violation(now, None, "live-set-agreement"));
        }
        Ok(totals)
    }

    /// Holds the live-set pass to the whole-table pass. The reference's
    /// error wins (so a corrupted frozen row fails the slot it was written
    /// in, under the rule it broke); any other difference — a verdict the
    /// reference does not share, or other totals — is the checker's own
    /// bug and fails as `live-set-agreement`.
    #[cfg(any(test, feature = "oracle"))]
    fn agree(
        now: u64,
        live: Result<Totals, SimError>,
        table: Result<Totals, SimError>,
    ) -> Result<Totals, SimError> {
        let table = table?;
        if live != Ok(table) {
            return Err(Self::violation(now, None, "live-set-agreement"));
        }
        Ok(table)
    }

    /// Per-workflow milestone consistency: each job deadline lies inside
    /// the workflow window and milestones never decrease along DAG edges
    /// (the shape the deadline decomposition guarantees).
    fn check_milestone_consistency(&self, state: &SimState) -> Result<(), SimError> {
        for w in &state.workflows {
            let Some(milestones) = &w.submission.job_deadlines else {
                continue;
            };
            let wf = &w.submission.workflow;
            for (node, &m) in milestones.iter().enumerate() {
                if m < wf.submit_slot() || m > wf.deadline_slot() {
                    return Err(Self::violation(
                        state.now(),
                        Some(w.job_ids[node]),
                        "milestone-consistency",
                    ));
                }
            }
            for (from, to) in wf.dag().edges() {
                if milestones[from] > milestones[to] {
                    return Err(Self::violation(
                        state.now(),
                        Some(w.job_ids[to]),
                        "milestone-consistency",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Validates the completed run: every job finished, with exact work
    /// conservation and sane orderings.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] naming the offending job and rule.
    pub fn check_final(&self, state: &SimState) -> Result<(), SimError> {
        let now = state.now();
        for job in &state.jobs {
            // Shed jobs never ran and never complete; they are reported in
            // their own outcome bucket, not held to conservation.
            if job.shed_slot.is_some() {
                continue;
            }
            if job.done_work != job.actual_work {
                return Err(Self::violation(now, Some(job.id), "work-conservation"));
            }
            let Some(completion) = job.completion_slot else {
                return Err(Self::violation(now, Some(job.id), "completion-accounting"));
            };
            let ready = job.ready_slot.unwrap_or(u64::MAX);
            if ready > completion || job.arrival_slot > completion || completion > now {
                return Err(Self::violation(now, Some(job.id), "completion-ordering"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::engine::Engine;
    use crate::job::{AdhocSubmission, SimWorkload, WorkflowSubmission};
    use flowtime_dag::{JobSpec, ResourceVec, WorkflowBuilder, WorkflowId};

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(ResourceVec::new([8, 32_768]), 10.0)
    }

    fn spec(tasks: u64, dur: u64) -> JobSpec {
        JobSpec::new("j", tasks, dur, ResourceVec::new([1, 4096]))
    }

    fn engine_with_adhoc() -> Engine {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(4, 2), 0));
        Engine::new(cluster(), wl, 100).unwrap()
    }

    #[test]
    fn clean_state_passes() {
        let engine = engine_with_adhoc();
        let mut checker = InvariantChecker::new();
        let id = engine.state().jobs[0].id;
        checker.check_slot(engine.state(), &[(id, 2)]).unwrap();
        checker.check_slot(engine.state(), &[]).unwrap();
    }

    #[test]
    fn oversubscription_is_detected() {
        let engine = engine_with_adhoc();
        let mut checker = InvariantChecker::new();
        let id = engine.state().jobs[0].id;
        // 9 one-core tasks on an 8-core cluster — but the parallelism cap
        // (4 tasks) fires first; widen via a second fake pair instead.
        let err = checker.check_slot(engine.state(), &[(id, 9)]).unwrap_err();
        assert!(matches!(err, SimError::ParallelismExceeded { .. }));
    }

    #[test]
    fn capacity_rule_uses_windowed_capacity() {
        let mut wl = SimWorkload::default();
        wl.adhoc.push(AdhocSubmission::new(spec(8, 4), 0));
        let cl = cluster().with_capacity_window(0, 5, ResourceVec::new([2, 8192]));
        let engine = Engine::new(cl, wl, 100).unwrap();
        let id = engine.state().jobs[0].id;
        let mut checker = InvariantChecker::new();
        // 4 tasks fit the base capacity but not the degraded window.
        let err = checker.check_slot(engine.state(), &[(id, 4)]).unwrap_err();
        assert_eq!(err, SimError::CapacityExceeded { slot: 0 });
    }

    #[test]
    fn corrupted_done_work_fails_conservation() {
        let mut engine = engine_with_adhoc();
        engine.state_mut().jobs[0].done_work = 1_000;
        let mut checker = InvariantChecker::new();
        let err = checker.check_slot(engine.state(), &[]).unwrap_err();
        assert_eq!(
            err,
            SimError::InvariantViolation {
                slot: 0,
                job: Some(engine.state().jobs[0].id),
                rule: "work-conservation",
            }
        );
    }

    #[test]
    fn unmarked_completion_fails_accounting() {
        let mut engine = engine_with_adhoc();
        let actual = engine.state().jobs[0].actual_work;
        engine.state_mut().jobs[0].done_work = actual; // done but not marked
        let mut checker = InvariantChecker::new();
        let err = checker.check_slot(engine.state(), &[]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvariantViolation {
                rule: "completion-accounting",
                ..
            }
        ));
    }

    #[test]
    fn regressing_completion_count_fails_monotonicity() {
        let mut engine = engine_with_adhoc();
        let actual = engine.state().jobs[0].actual_work;
        let mut checker = InvariantChecker::new();
        engine.state_mut().jobs[0].done_work = actual;
        engine.state_mut().jobs[0].completion_slot = Some(1);
        checker.check_slot(engine.state(), &[]).unwrap();
        // Un-complete the job: count and total work both regress.
        engine.state_mut().jobs[0].done_work = 0;
        engine.state_mut().jobs[0].completion_slot = None;
        let err = checker.check_slot(engine.state(), &[]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvariantViolation {
                rule: "monotone-completion",
                ..
            }
        ));
    }

    #[test]
    fn inconsistent_milestones_are_rejected() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "wf");
        let a = b.add_job(spec(2, 1));
        let c = b.add_job(spec(2, 1));
        b.add_dep(a, c).unwrap();
        let wf = b.window(0, 50).build().unwrap();
        // Successor milestone earlier than its predecessor's.
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(WorkflowSubmission::new(wf).with_job_deadlines(vec![40, 10]));
        let engine = Engine::new(cluster(), wl, 100).unwrap();
        let mut checker = InvariantChecker::new();
        let err = checker.check_slot(engine.state(), &[]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvariantViolation {
                rule: "milestone-consistency",
                ..
            }
        ));
    }

    #[test]
    fn final_check_requires_exact_conservation() {
        let mut engine = engine_with_adhoc();
        let checker = InvariantChecker::new();
        // Jobs incomplete at the end of the run: done < actual.
        let err = checker.check_final(engine.state()).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvariantViolation {
                rule: "work-conservation",
                ..
            }
        ));
        let actual = engine.state().jobs[0].actual_work;
        engine.state_mut().jobs[0].done_work = actual;
        engine.state_mut().jobs[0].completion_slot = Some(0);
        checker.check_final(engine.state()).unwrap();
    }

    // ---- live-set pass against the whole-table pass ----

    use crate::engine::tests::Greedy;
    use crate::faults::{RecoveryPolicy, RecoverySetup, RuntimeFaultConfig};
    use crate::online::OnlineEngine;

    /// Rows 0–2 finish within three slots (retired), row 3 runs for the
    /// whole test (live), row 4 arrives at slot 50 (not yet arrived).
    /// Stepped to slot 5, so the retired rows have been folded.
    fn engine_with_all_three_kinds_of_row() -> Engine {
        let mut wl = SimWorkload::default();
        for _ in 0..3 {
            wl.adhoc.push(AdhocSubmission::new(spec(2, 1), 0));
        }
        wl.adhoc.push(AdhocSubmission::new(spec(1, 40), 0));
        wl.adhoc.push(AdhocSubmission::new(spec(2, 2), 50));
        let mut engine = Engine::new(cluster(), wl, 1_000).unwrap();
        for _ in 0..5 {
            engine.step(&mut Greedy, false).unwrap();
        }
        assert!(engine.state().jobs[..3].iter().all(|j| j.is_complete()));
        assert_eq!(engine.state().visible.len(), 1);
        engine
    }

    /// Both passes on the engine's own checker, neither committed.
    fn both_passes(engine: &mut Engine) -> (Result<Totals, SimError>, Result<Totals, SimError>) {
        let live = engine.checker.live_pass(&engine.state);
        (live, InvariantChecker::table_pass(&engine.state))
    }

    #[test]
    fn live_pass_totals_are_the_whole_table_totals() {
        let mut engine = engine_with_all_three_kinds_of_row();
        let (live, table) = both_passes(&mut engine);
        // Three retired rows (2 task-slots each) and five slots of the
        // live one: the running sums carry what the live set no longer has.
        assert_eq!(
            table,
            Ok(Totals {
                completed: 3,
                work: 11
            })
        );
        assert_eq!(live, table);
    }

    #[test]
    fn corrupting_a_live_row_fails_both_passes_alike() {
        for corrupt in [
            (|j: &mut JobRuntime| j.done_work = 1_000) as fn(&mut JobRuntime),
            |j| j.completion_slot = Some(3),
        ] {
            let mut engine = engine_with_all_three_kinds_of_row();
            assert_eq!(both_passes(&mut engine).0, both_passes(&mut engine).1);
            corrupt(&mut engine.state_mut().jobs[3]);
            let (live, table) = both_passes(&mut engine);
            assert!(matches!(
                table,
                Err(SimError::InvariantViolation {
                    slot: 5,
                    job: Some(id),
                    ..
                }) if id == JobId::new(3)
            ));
            assert_eq!(live, table, "same rule, same slot, same job");
            let slot = engine.checker.check_slot(&engine.state, &[]).unwrap_err();
            assert_eq!(Err(slot), table);
        }
    }

    #[test]
    fn corrupting_a_frozen_row_is_left_to_the_reference_and_the_final_check() {
        // Row 1 retired, row 4 has not arrived: neither is in the live set.
        for row in [1usize, 4] {
            for corrupt in [
                (|j: &mut JobRuntime| j.done_work += 7) as fn(&mut JobRuntime),
                |j| {
                    j.completion_slot = match j.completion_slot {
                        Some(_) => None,
                        None => Some(2),
                    }
                },
            ] {
                let mut engine = engine_with_all_three_kinds_of_row();
                let (before, _) = both_passes(&mut engine);
                corrupt(&mut engine.state_mut().jobs[row]);
                let (live, table) = both_passes(&mut engine);
                assert_eq!(live, before, "the live-set pass alone does not see it");
                assert!(matches!(
                    table,
                    Err(SimError::InvariantViolation { slot: 5, job: Some(id), .. })
                        if id == JobId::new(row as u64)
                ));
                // The per-slot cross-check fails the slot of the write ...
                let slot = engine.checker.check_slot(&engine.state, &[]).unwrap_err();
                assert_eq!(Err(slot), table);
                // ... and, without it, the end of the run still would.
                assert!(matches!(
                    engine.checker.check_final(&engine.state),
                    Err(SimError::InvariantViolation { job: Some(id), .. })
                        if id <= JobId::new(row as u64)
                ));
            }
        }
    }

    #[test]
    fn totals_that_differ_fail_as_live_set_agreement() {
        let ok = Totals {
            completed: 3,
            work: 11,
        };
        assert_eq!(InvariantChecker::agree(5, Ok(ok), Ok(ok)), Ok(ok));
        let short = Totals {
            completed: 0,
            work: 5,
        };
        let disagreement = Err(SimError::InvariantViolation {
            slot: 5,
            job: None,
            rule: "live-set-agreement",
        });
        assert_eq!(InvariantChecker::agree(5, Ok(short), Ok(ok)), disagreement);
        let live_only = InvariantChecker::violation(5, Some(JobId::new(3)), "work-conservation");
        assert_eq!(
            InvariantChecker::agree(5, Err(live_only), Ok(ok)),
            disagreement
        );
    }

    #[test]
    fn kills_and_stragglers_keep_the_totals_monotone() {
        let mut wl = SimWorkload::default();
        for i in 0..12 {
            wl.adhoc.push(AdhocSubmission::new(spec(3, 4), i % 4));
        }
        let setup = RecoverySetup::new(
            RuntimeFaultConfig::none(7)
                .with_task_failures(0.9)
                .with_crashes(0.5)
                .with_crash_period(5)
                .with_stragglers(0.9, 1.0),
            RecoveryPolicy::default().with_max_retries(3),
        );
        // Every slot of the run went through the live-set pass, rule 7 and
        // the whole-table cross-check.
        let out = Engine::new(cluster(), wl, 10_000)
            .unwrap()
            .with_recovery(setup)
            .run(&mut Greedy)
            .unwrap();
        assert!(out.is_complete());
        assert!(out.recovery.retries > 0 && out.recovery.wasted_work > 0);
        assert!(out.recovery.stragglers > 0 && out.recovery.straggler_extra_work > 0);
    }

    // ---- counted, not timed ----

    #[test]
    fn counted_slot_cost_follows_the_live_set_not_the_table() {
        // 20 000 one-slot jobs, 500 per slot on a 500-core cluster, then
        // ten long ones.
        let big = ClusterConfig::new(ResourceVec::new([500, 500 * 4096]), 10.0);
        let mut wl = SimWorkload::default();
        for i in 0..20_000u64 {
            wl.adhoc.push(AdhocSubmission::new(spec(1, 1), i / 500));
        }
        for _ in 0..10 {
            wl.adhoc.push(AdhocSubmission::new(spec(1, 500), 45));
        }
        let mut engine = Engine::new(big, wl, 10_000).unwrap();
        while engine.state().now() < 50 {
            engine.step(&mut Greedy, false).unwrap();
        }
        assert_eq!(engine.state().jobs.len(), 20_010);
        assert_eq!(engine.state().visible.len(), 10);
        for _ in 0..100 {
            let before = engine.checker.rows_visited;
            engine.step(&mut Greedy, false).unwrap();
            // Ten live rows, nothing retired since the previous slot.
            assert_eq!(engine.checker.rows_visited - before, 10);
        }
    }

    #[test]
    fn counted_online_step_cost_is_flat_over_the_session() {
        let cores = ClusterConfig::new(ResourceVec::new([64, 64 * 4096]), 10.0);
        let mut online = OnlineEngine::new(cores, 100_000);
        let mut per_step = Vec::new();
        for slot in 0..200u64 {
            for _ in 0..25 {
                online
                    .submit_adhoc(AdhocSubmission::new(spec(1, 1), slot))
                    .unwrap();
            }
            let before = online.engine().checker.rows_visited;
            online.step(&mut Greedy).unwrap();
            per_step.push(online.engine().checker.rows_visited - before);
        }
        assert_eq!(online.engine().state().jobs.len(), 5_000);
        // 25 live rows plus the 25 that finished in the slot before.
        assert_eq!(per_step[1..100].iter().max(), Some(&50));
        assert_eq!(per_step[100..].iter().max(), Some(&50));
    }

    #[test]
    fn counted_view_of_a_finished_workflow_reads_no_job_row() {
        let mut b = WorkflowBuilder::new(WorkflowId::new(1), "wf");
        let a = b.add_job(spec(2, 1));
        let c = b.add_job(spec(2, 1));
        b.add_dep(a, c).unwrap();
        let mut wl = SimWorkload::default();
        wl.workflows
            .push(WorkflowSubmission::new(b.window(0, 50).build().unwrap()));
        wl.adhoc.push(AdhocSubmission::new(spec(1, 40), 0));
        let mut engine = Engine::new(cluster(), wl, 1_000).unwrap();
        for _ in 0..6 {
            engine.step(&mut Greedy, false).unwrap();
        }
        let lookups = || crate::state::ROW_LOOKUPS.with(|c| c.get());
        let before = lookups();
        let views = engine.state().workflows();
        assert_eq!(lookups(), before);
        assert_eq!(views.len(), 1);
        assert!(views[0].is_complete());
        assert_eq!(views[0].completed, [true, true]);
        assert_eq!(views[0].completed_count, 2);
        drop(views);

        // The lent flags are held to the rows by the reference pass.
        engine.state_mut().workflows[0].completed[1] = false;
        assert_eq!(
            engine.step(&mut Greedy, false),
            Err(SimError::InvariantViolation {
                slot: 6,
                job: None,
                rule: "live-set-agreement",
            })
        );
    }
}
