//! LP-based co-scheduling (paper Section V).
//!
//! Given decomposed per-job windows, FlowTime places every deadline job's
//! demand across a slot horizon so that the **maximum normalized cluster
//! load** is (lexicographically) minimal — Eq. (1)–(5) of the paper. The
//! flattened deadline-load profile leaves the largest possible residual
//! capacity in every slot for ad-hoc jobs.
//!
//! Two interchangeable exact backends implement the optimization:
//!
//! * [`SolverBackend::Simplex`] — the paper's formulation, built by
//!   [`formulation`] and solved by the workspace simplex
//!   (`flowtime-lp`), with the lexicographic objective realized by
//!   iterative peak freezing ([`lexmin`]) and float allocations made
//!   integral by [`rounding`]. (The paper's Lemma 1 scalarization
//!   `g(u) = Σ k^{u_i}` is mathematically elegant but numerically
//!   unusable — `k^{u}` overflows immediately — so every practical
//!   implementation, ours included, uses iterative refinement.)
//! * [`SolverBackend::ParametricFlow`] — for uniform task shapes (the
//!   paper's YARN container model) the constraint matrix is a
//!   transportation polytope (Lemma 2), and the same optimum is found
//!   exactly and integrally by parametric max-flow (`flowtime-flow`).

pub mod backend;
pub mod cache;
pub mod formulation;
pub mod lexmin;
pub mod rounding;

use crate::error::CoreError;
use flowtime_dag::{JobId, ResourceVec};
use std::collections::HashMap;

/// Solver-effort counters accumulated across one or more backend solves:
/// the simulator's own [`flowtime_sim::SolverTelemetry`], of which a solve
/// fills the effort and cache fields. The scheduler folds one replan's
/// into its run telemetry with `accumulate`; tests read them directly to
/// assert warm-start and cache behaviour.
pub use flowtime_sim::SolverTelemetry as SolveStats;

/// One deadline job as seen by the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanJob {
    /// The engine job id this plan entry belongs to.
    pub id: JobId,
    /// Usable horizon slots `[start, end)`, relative to the plan origin.
    pub window: (usize, usize),
    /// Remaining demand in task-slots.
    pub demand: u64,
    /// Resources per concurrent task.
    pub per_task: ResourceVec,
    /// Cap on concurrent tasks per slot.
    pub per_slot_cap: Option<u64>,
}

impl PlanJob {
    /// The effective per-slot task cap (explicit cap or the whole demand).
    pub fn slot_cap(&self) -> u64 {
        self.per_slot_cap
            .unwrap_or(self.demand)
            .min(self.demand)
            .max(1)
    }
}

/// A leveling problem over a relative slot horizon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LevelingProblem {
    /// Residual capacity of each horizon slot available to deadline jobs.
    pub slot_caps: Vec<ResourceVec>,
    /// The deadline jobs to place.
    pub jobs: Vec<PlanJob>,
}

impl LevelingProblem {
    /// Horizon length in slots.
    pub fn horizon(&self) -> usize {
        self.slot_caps.len()
    }

    /// Validates windows and demands against the horizon.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadHorizon`] on empty or out-of-range windows.
    pub fn validate(&self) -> Result<(), CoreError> {
        let h = self.horizon();
        for job in &self.jobs {
            if job.window.0 >= job.window.1 {
                return Err(CoreError::BadHorizon {
                    reason: "empty job window",
                });
            }
            if job.window.1 > h {
                return Err(CoreError::BadHorizon {
                    reason: "job window beyond horizon",
                });
            }
        }
        Ok(())
    }

    /// Solves with the chosen backend. See [`backend::solve`].
    ///
    /// # Errors
    ///
    /// Propagates validation, infeasibility, and solver errors.
    pub fn solve(&self, backend: SolverBackend) -> Result<Plan, CoreError> {
        backend::solve(self, backend)
    }
}

/// Which optimizer realizes the lexmin-max placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// The paper's LP, solved by the workspace simplex with `lex_rounds`
    /// rounds of lexicographic peak freezing (1 = plain min-max).
    Simplex {
        /// Number of freeze/re-solve rounds.
        lex_rounds: usize,
    },
    /// Exact parametric max-flow; requires all jobs to share one task
    /// shape, otherwise [`backend::solve`] transparently falls back to the
    /// simplex.
    #[default]
    ParametricFlow,
}

/// An integral placement of deadline jobs over the horizon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Plan {
    /// `tasks[id][slot]` concurrent tasks planned for each job, dense over
    /// the horizon.
    pub tasks: HashMap<JobId, Vec<u64>>,
    /// Horizon length the plan covers.
    pub horizon: usize,
}

impl Plan {
    /// Planned tasks for `job` at relative `slot` (0 if absent).
    pub fn tasks_at(&self, job: JobId, slot: usize) -> u64 {
        self.tasks
            .get(&job)
            .and_then(|v| v.get(slot))
            .copied()
            .unwrap_or(0)
    }

    /// Total resources the plan consumes in `slot`, given per-job shapes.
    pub fn slot_usage(&self, jobs: &[PlanJob], slot: usize) -> ResourceVec {
        jobs.iter().fold(ResourceVec::zero(), |acc, j| {
            acc + j.per_task * self.tasks_at(j.id, slot)
        })
    }

    /// The peak normalized load of this plan against `slot_caps`.
    pub fn peak_ratio(&self, jobs: &[PlanJob], slot_caps: &[ResourceVec]) -> f64 {
        (0..self.horizon.min(slot_caps.len()))
            .map(|t| self.slot_usage(jobs, t).max_normalized_by(&slot_caps[t]))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, window: (usize, usize), demand: u64) -> PlanJob {
        PlanJob {
            id: JobId::new(id),
            window,
            demand,
            per_task: ResourceVec::new([1, 1024]),
            per_slot_cap: None,
        }
    }

    #[test]
    fn validation_catches_bad_windows() {
        let mut p = LevelingProblem {
            slot_caps: vec![ResourceVec::new([10, 10240]); 4],
            jobs: vec![job(1, (2, 2), 5)],
        };
        assert!(matches!(p.validate(), Err(CoreError::BadHorizon { .. })));
        p.jobs[0].window = (0, 9);
        assert!(matches!(p.validate(), Err(CoreError::BadHorizon { .. })));
        p.jobs[0].window = (0, 4);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn plan_accessors() {
        let mut plan = Plan {
            tasks: HashMap::new(),
            horizon: 3,
        };
        plan.tasks.insert(JobId::new(1), vec![2, 0, 1]);
        assert_eq!(plan.tasks_at(JobId::new(1), 0), 2);
        assert_eq!(plan.tasks_at(JobId::new(1), 9), 0);
        assert_eq!(plan.tasks_at(JobId::new(9), 0), 0);
        let jobs = vec![job(1, (0, 3), 3)];
        assert_eq!(plan.slot_usage(&jobs, 0), ResourceVec::new([2, 2048]));
        let caps = vec![ResourceVec::new([4, 409600]); 3];
        assert!((plan.peak_ratio(&jobs, &caps) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slot_cap_defaults_to_demand() {
        assert_eq!(job(1, (0, 1), 7).slot_cap(), 7);
        let mut j = job(1, (0, 1), 7);
        j.per_slot_cap = Some(3);
        assert_eq!(j.slot_cap(), 3);
        j.demand = 2;
        assert_eq!(j.slot_cap(), 2);
    }
}
