//! Plan reuse across replans.
//!
//! Event-driven replanning frequently rebuilds a [`LevelingProblem`] that
//! is either *identical* to the previous one (a batched completion check
//! that changed nothing) or a pure **elapsed-time relabel** of it: `k`
//! slots passed, no tracked job ran or changed, and every window simply
//! moved `k` slots closer. In both cases re-solving is pure waste — the
//! solver is deterministic, so it would reproduce the cached answer bit
//! for bit.
//!
//! [`PlanCache`] recognizes exactly (and only) those two cases:
//!
//! * **Exact hit** — the new problem `==` the cached one. Both solver
//!   backends are deterministic functions of the problem, so the cached
//!   [`Plan`] *is* the answer.
//! * **Shift hit** — the new problem is the cached one with every slot
//!   index reduced by `k`: the horizon shrank by `k`, the per-slot
//!   capacities are the cached ones shifted by `k`, and every job (same
//!   ids, demands, shapes, caps, in the same order) has its window shifted
//!   by `k` — which requires every cached window to start at or after `k`.
//!   Under those conditions the simplex formulation of the new problem is
//!   *term-for-term identical* to the cached one's: slots `< k` carry no
//!   job terms, so their capacity rows were already skipped, and every
//!   surviving row/variable is generated in the same order from equal
//!   numbers. The flow backend's transportation instance relabels the same
//!   way. A deterministic solver plus slot-relabel-equivariant rounding
//!   therefore yields exactly the cached plan minus its (empty) first `k`
//!   slots.
//!
//! Anything else — demand progress, window clamping, capacity churn
//! entering the horizon — is a miss. The cache never *approximates*: a hit
//! returns byte-identical plans to a fresh solve, which is what lets the
//! differential suite require bit-identical simulation outcomes with the
//! cache on and off.

use super::{LevelingProblem, Plan, SolverBackend};
use std::collections::HashMap;

/// Single-entry cache of the most recent `(backend, problem, plan)` triple.
///
/// Replans are sequential and each supersedes the last, so one entry is
/// exactly the useful capacity; failed solves are not cached. The backend
/// is part of the key: the two backends are *equivalent* on peak ratio but
/// not bit-identical on plans, and a hit must return exactly what the
/// requested backend would have produced.
///
/// Caches are strictly per-scheduler-instance: there is no interior
/// sharing, no global state, and `Clone` deep-copies the entry, so two
/// scheduler instances (two sweep cells, each owning its own scheduler)
/// can never observe each other's plans. The parallel sweep's determinism
/// contract leans on this — a cell's replan sequence is a function of
/// that cell's inputs alone, regardless of what any other cell solved
/// concurrently.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entry: Option<(SolverBackend, LevelingProblem, Plan)>,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// The cached plan answers the problem verbatim.
    Exact(Plan),
    /// The cached plan answers the problem after dropping `k` leading
    /// slots (elapsed-time relabel).
    Shift(Plan),
    /// No reusable plan; solve and [`PlanCache::store`].
    Miss,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Probes the cache for `leveling` as solved by `backend`.
    pub fn lookup(&self, leveling: &LevelingProblem, backend: SolverBackend) -> CacheLookup {
        let Some((cached_backend, cached, plan)) = &self.entry else {
            return CacheLookup::Miss;
        };
        if *cached_backend != backend {
            return CacheLookup::Miss;
        }
        if cached == leveling {
            return CacheLookup::Exact(plan.clone());
        }
        match shifted_plan(cached, plan, leveling) {
            Some(shifted) => CacheLookup::Shift(shifted),
            None => CacheLookup::Miss,
        }
    }

    /// Records the plan `backend` produced for `leveling`, superseding any
    /// prior entry.
    pub fn store(&mut self, leveling: &LevelingProblem, backend: SolverBackend, plan: &Plan) {
        self.entry = Some((backend, leveling.clone(), plan.clone()));
    }

    /// Drops the cached entry.
    pub fn clear(&mut self) {
        self.entry = None;
    }
}

/// The cached plan with `k` leading slots dropped, iff `new` is exactly
/// `old` relabelled by `k` elapsed slots (see the module docs for why that
/// makes the result identical to a fresh solve).
fn shifted_plan(old: &LevelingProblem, plan: &Plan, new: &LevelingProblem) -> Option<Plan> {
    let k = old.horizon().checked_sub(new.horizon())?;
    if k == 0 {
        // Equal horizons but unequal problems (exact match already failed).
        return None;
    }
    if old.slot_caps[k..] != new.slot_caps[..] || old.jobs.len() != new.jobs.len() {
        return None;
    }
    let relabelled = old.jobs.iter().zip(&new.jobs).all(|(o, n)| {
        o.id == n.id
            && o.demand == n.demand
            && o.per_task == n.per_task
            && o.per_slot_cap == n.per_slot_cap
            && o.window.0 >= k
            && n.window == (o.window.0 - k, o.window.1 - k)
    });
    if !relabelled {
        return None;
    }
    // The cached plan must be silent over the dropped prefix. It always is
    // when rounding respected the windows; verified rather than assumed so
    // a repair pass that ever spilled outside a window degrades to a miss
    // instead of a wrong reuse.
    let mut tasks = HashMap::with_capacity(plan.tasks.len());
    for (&id, per_slot) in &plan.tasks {
        if per_slot[..k.min(per_slot.len())].iter().any(|&q| q > 0) {
            return None;
        }
        tasks.insert(id, per_slot.get(k..).unwrap_or(&[]).to_vec());
    }
    Some(Plan {
        tasks,
        horizon: new.horizon(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::{PlanJob, SolverBackend};
    use super::*;
    use flowtime_dag::{JobId, ResourceVec};

    fn caps(n: usize, cores: u64) -> Vec<ResourceVec> {
        vec![ResourceVec::new([cores, cores * 1024]); n]
    }

    fn job(id: u64, window: (usize, usize), demand: u64) -> PlanJob {
        PlanJob {
            id: JobId::new(id),
            window,
            demand,
            per_task: ResourceVec::new([1, 1024]),
            per_slot_cap: None,
        }
    }

    fn shifted(p: &LevelingProblem, k: usize) -> LevelingProblem {
        LevelingProblem {
            slot_caps: p.slot_caps[k..].to_vec(),
            jobs: p
                .jobs
                .iter()
                .map(|j| PlanJob {
                    window: (j.window.0 - k, j.window.1 - k),
                    ..j.clone()
                })
                .collect(),
        }
    }

    #[test]
    fn exact_hit_returns_stored_plan() {
        let p = LevelingProblem {
            slot_caps: caps(4, 8),
            jobs: vec![job(1, (0, 4), 8)],
        };
        let plan = p.solve(SolverBackend::default()).unwrap();
        let mut cache = PlanCache::new();
        assert_eq!(
            cache.lookup(&p, SolverBackend::default()),
            CacheLookup::Miss
        );
        cache.store(&p, SolverBackend::default(), &plan);
        assert_eq!(
            cache.lookup(&p, SolverBackend::default()),
            CacheLookup::Exact(plan.clone())
        );
        // A different backend must not be answered with this plan.
        assert_eq!(
            cache.lookup(&p, SolverBackend::Simplex { lex_rounds: 2 }),
            CacheLookup::Miss
        );
        cache.clear();
        assert_eq!(
            cache.lookup(&p, SolverBackend::default()),
            CacheLookup::Miss
        );
    }

    #[test]
    fn shift_hit_matches_fresh_solve_on_both_backends() {
        // All windows start at slot 2: after 2 elapsed slots the problem is
        // a pure relabel, and the sliced plan must equal a fresh solve.
        for backend in [
            SolverBackend::ParametricFlow,
            SolverBackend::Simplex { lex_rounds: 3 },
        ] {
            let p = LevelingProblem {
                slot_caps: caps(8, 6),
                jobs: vec![job(1, (2, 6), 9), job(2, (3, 8), 7)],
            };
            let plan = p.solve(backend).unwrap();
            let mut cache = PlanCache::new();
            cache.store(&p, backend, &plan);
            let moved = shifted(&p, 2);
            let CacheLookup::Shift(reused) = cache.lookup(&moved, backend) else {
                panic!("expected shift hit ({backend:?})");
            };
            assert_eq!(reused, moved.solve(backend).unwrap(), "{backend:?}");
        }
    }

    #[test]
    fn progress_or_capacity_change_misses() {
        let p = LevelingProblem {
            slot_caps: caps(6, 6),
            jobs: vec![job(1, (1, 6), 9)],
        };
        let plan = p.solve(SolverBackend::default()).unwrap();
        let mut cache = PlanCache::new();
        cache.store(&p, SolverBackend::default(), &plan);
        // Demand progressed: no hit.
        let mut progressed = shifted(&p, 1);
        progressed.jobs[0].demand = 7;
        assert_eq!(
            cache.lookup(&progressed, SolverBackend::default()),
            CacheLookup::Miss
        );
        // Capacity churn entered the suffix: no hit.
        let mut churned = shifted(&p, 1);
        churned.slot_caps[3] = ResourceVec::new([2, 2048]);
        assert_eq!(
            cache.lookup(&churned, SolverBackend::default()),
            CacheLookup::Miss
        );
        // Window clamped rather than shifted: no hit.
        let mut clamped = shifted(&p, 1);
        clamped.jobs[0].window = (0, 4);
        assert_eq!(
            cache.lookup(&clamped, SolverBackend::default()),
            CacheLookup::Miss
        );
    }

    #[test]
    fn instances_are_independent() {
        // Two caches model two scheduler instances (two sweep cells): storing in
        // one never answers probes on the other, and a clone is a deep
        // copy — clearing or restocking the original leaves it untouched.
        let p = LevelingProblem {
            slot_caps: caps(4, 8),
            jobs: vec![job(1, (0, 4), 8)],
        };
        let plan = p.solve(SolverBackend::default()).unwrap();
        let mut cell_a = PlanCache::new();
        let mut cell_b = PlanCache::new();
        cell_a.store(&p, SolverBackend::default(), &plan);
        assert_eq!(
            cell_b.lookup(&p, SolverBackend::default()),
            CacheLookup::Miss,
            "a cell must never see another cell's plans"
        );
        let cloned = cell_a.clone();
        cell_a.clear();
        assert_eq!(
            cloned.lookup(&p, SolverBackend::default()),
            CacheLookup::Exact(plan.clone()),
            "a cloned cache owns its entry"
        );
        let q = LevelingProblem {
            slot_caps: caps(4, 8),
            jobs: vec![job(2, (0, 4), 4)],
        };
        let plan_q = q.solve(SolverBackend::default()).unwrap();
        cell_b.store(&q, SolverBackend::default(), &plan_q);
        assert_eq!(
            cloned.lookup(&q, SolverBackend::default()),
            CacheLookup::Miss,
            "stores on one instance must not leak into another"
        );
    }

    #[test]
    fn shift_requires_silent_prefix_and_started_windows() {
        // Window starts at 0: slot 0 carries load, so after one elapsed
        // slot the problems are genuinely different — must miss.
        let p = LevelingProblem {
            slot_caps: caps(4, 4),
            jobs: vec![job(1, (0, 4), 8)],
        };
        let plan = p.solve(SolverBackend::default()).unwrap();
        let mut cache = PlanCache::new();
        cache.store(&p, SolverBackend::default(), &plan);
        let moved = LevelingProblem {
            slot_caps: caps(3, 4),
            jobs: vec![job(1, (0, 3), 8)],
        };
        assert_eq!(
            cache.lookup(&moved, SolverBackend::default()),
            CacheLookup::Miss
        );
    }
}
