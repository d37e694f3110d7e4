//! The scheduler interface.

use crate::state::SimState;
use flowtime_dag::JobId;

/// A per-slot allocation decision: how many concurrent tasks each job runs
/// during the coming slot.
///
/// One `(job, tasks)` entry per job, kept sorted by id, so iteration order
/// — and therefore engine behaviour — is deterministic regardless of how
/// the scheduler inserted entries. A grant to an id above every id already
/// present is an append.
///
/// # Example
///
/// ```
/// use flowtime_sim::Allocation;
/// use flowtime_dag::JobId;
/// let mut alloc = Allocation::new();
/// alloc.assign(JobId::new(1), 3);
/// alloc.assign(JobId::new(1), 2); // accumulates
/// assert_eq!(alloc.get(JobId::new(1)), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allocation {
    tasks: Vec<(JobId, u64)>,
}

impl Allocation {
    /// An empty allocation (cluster idles this slot).
    pub fn new() -> Self {
        Allocation::default()
    }

    /// Adds `tasks` concurrent tasks for `job` (accumulating with prior
    /// assignments, saturating at `u64::MAX` — more than any job's cap, so
    /// the engine refuses the slot instead of running a wrapped count).
    /// Zero-task assignments are ignored.
    pub fn assign(&mut self, job: JobId, tasks: u64) {
        if tasks == 0 {
            return;
        }
        if self.tasks.last().is_none_or(|&(last, _)| last < job) {
            self.tasks.push((job, tasks));
            return;
        }
        match self.tasks.binary_search_by_key(&job, |&(id, _)| id) {
            Ok(i) => self.tasks[i].1 = self.tasks[i].1.saturating_add(tasks),
            Err(i) => self.tasks.insert(i, (job, tasks)),
        }
    }

    /// The tasks assigned to `job` (zero if unassigned).
    pub fn get(&self, job: JobId) -> u64 {
        self.tasks
            .binary_search_by_key(&job, |&(id, _)| id)
            .map_or(0, |i| self.tasks[i].1)
    }

    /// Iterates `(job, tasks)` pairs in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, u64)> + '_ {
        self.tasks.iter().copied()
    }

    /// Number of jobs with a positive assignment.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl FromIterator<(JobId, u64)> for Allocation {
    fn from_iter<I: IntoIterator<Item = (JobId, u64)>>(iter: I) -> Self {
        let mut alloc = Allocation::new();
        for (id, q) in iter {
            alloc.assign(id, q);
        }
        alloc
    }
}

impl Extend<(JobId, u64)> for Allocation {
    fn extend<I: IntoIterator<Item = (JobId, u64)>>(&mut self, iter: I) {
        for (id, q) in iter {
            self.assign(id, q);
        }
    }
}

/// A scheduling algorithm under test.
///
/// The engine calls [`Scheduler::plan_slot`] once per slot with the current
/// [`SimState`]; the returned [`Allocation`] is validated (capacity,
/// readiness, parallelism caps) and applied for that slot. Schedulers carry
/// their own persistent state (plans, decomposed deadlines, histories)
/// across calls.
pub trait Scheduler {
    /// Short algorithm name used in reports (e.g. `"FlowTime"`, `"EDF"`).
    fn name(&self) -> &str;

    /// Decides the allocation for the slot `state.now()`.
    fn plan_slot(&mut self, state: &SimState) -> Allocation;

    /// Solver-effort counters accumulated so far, for schedulers that
    /// re-solve an optimization problem per replan. The engine snapshots
    /// this into [`crate::SimOutcome::solver_telemetry`] when the run
    /// ends. Schedulers with no solver (the default) report `None`.
    fn telemetry(&self) -> Option<crate::telemetry::SolverTelemetry> {
        None
    }

    /// Notification that an attempt of `job` was killed by a mid-run
    /// fault (task failure or node crash) and the job will re-execute as
    /// attempt `attempt` after its backoff. Called after the kill has been
    /// applied to `state`, so the job already shows zero done work.
    /// Plan-driven schedulers should invalidate any plan that counted the
    /// killed attempt's progress; the default (for greedy schedulers that
    /// re-derive decisions each slot) does nothing.
    fn on_failure(&mut self, _state: &SimState, _job: JobId, _attempt: u32) {}

    /// Short tag describing the decision regime currently in force (e.g.
    /// `"lp-plan"` vs `"degraded-greedy"` for a solver-backed scheduler
    /// that fell back). Polled by the decision-trace layer, which records
    /// a [`crate::trace::TraceEvent::PolicyTag`] whenever the tag changes;
    /// never consulted when tracing is off. The default suits greedy
    /// single-regime schedulers.
    fn decision_tag(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_accumulates_and_ignores_zero() {
        let mut a = Allocation::new();
        a.assign(JobId::new(3), 0);
        assert!(a.is_empty());
        a.assign(JobId::new(3), 2);
        a.assign(JobId::new(1), 1);
        a.assign(JobId::new(3), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(JobId::new(3)), 3);
        assert_eq!(a.get(JobId::new(9)), 0);
        let order: Vec<_> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![JobId::new(1), JobId::new(3)]);
    }

    #[test]
    fn out_of_order_grants_land_sorted_and_overflow_saturates() {
        let mut a = Allocation::new();
        for (id, q) in [(5, 1), (2, 1), (9, 1), (2, 4), (0, 1), (9, u64::MAX)] {
            a.assign(JobId::new(id), q);
        }
        let entries: Vec<_> = a.iter().map(|(id, q)| (id.as_u64(), q)).collect();
        assert_eq!(entries, [(0, 1), (2, 5), (5, 1), (9, u64::MAX)]);
        // Wrapping would read `u64::MAX + 2` as 1 task.
        let mut b = Allocation::new();
        b.assign(JobId::new(3), u64::MAX);
        b.assign(JobId::new(3), 2);
        assert_eq!(b.get(JobId::new(3)), u64::MAX);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut a: Allocation = [(JobId::new(1), 2), (JobId::new(2), 3)]
            .into_iter()
            .collect();
        a.extend([(JobId::new(1), 1)]);
        assert_eq!(a.get(JobId::new(1)), 3);
        assert_eq!(a.get(JobId::new(2)), 3);
    }
}
