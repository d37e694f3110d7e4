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

use crate::error::SimError;
use crate::state::SimState;
use flowtime_dag::JobId;

/// Stateful checker driven by [`crate::Engine`] once per slot plus once at
/// the end of the run. See the [module docs](self) for the rule catalogue.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    /// Completed-job count observed at the previous check.
    completed_prev: usize,
    /// Total done work observed at the previous check.
    done_prev: u64,
    /// Whether the one-time static checks have run.
    static_checked: bool,
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
            let Some(&idx) = state.by_id.get(&id) else {
                return Err(SimError::UnknownJob { job: id });
            };
            let job = &state.jobs[idx];
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

        // Accounting rules over the whole job table.
        let mut completed = 0usize;
        let mut done_total = 0u64;
        for job in &state.jobs {
            if job.done_work > job.actual_work {
                return Err(Self::violation(now, Some(job.id), "work-conservation"));
            }
            if job.is_complete() != (job.done_work >= job.actual_work) {
                return Err(Self::violation(now, Some(job.id), "completion-accounting"));
            }
            if job.is_complete() {
                completed += 1;
            }
            // Wasted work from killed attempts counts toward the monotone
            // total: a kill moves progress from `done_work` to `wasted`
            // rather than destroying it, so the sum still never regresses.
            done_total += job.done_work + job.wasted;
        }
        if completed < self.completed_prev || done_total < self.done_prev {
            return Err(Self::violation(now, None, "monotone-completion"));
        }
        self.completed_prev = completed;
        self.done_prev = done_total;
        Ok(())
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
}
