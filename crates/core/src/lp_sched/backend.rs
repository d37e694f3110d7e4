//! Backend dispatch: simplex LP vs. parametric max-flow.

use super::cache::{CacheLookup, PlanCache};
use super::{lexmin, rounding, LevelingProblem, Plan, SolveStats, SolverBackend};
use crate::error::CoreError;
use flowtime_dag::{ResourceVec, NUM_RESOURCES};
use flowtime_flow::leveling::{LevelingInstance, LevelingJob};
use std::collections::HashMap;

/// Lexicographic round budget for the flow backend: rounds run **in
/// total**, the exact min-max first round included — so one refinement
/// round follows it. (The heterogeneous-shape simplex fallback below runs
/// `1 + FLOW_LEX_ROUNDS`.) Changing the value changes every golden.
const FLOW_LEX_ROUNDS: usize = 2;

/// Solves `leveling` with `backend`, returning an integral plan.
///
/// [`SolverBackend::ParametricFlow`] requires every job to share one task
/// shape (the YARN uniform-container model of the paper's experiments);
/// heterogeneous instances fall back to the simplex path transparently.
///
/// # Errors
///
/// * [`CoreError::BadHorizon`] on malformed windows.
/// * [`CoreError::Lp`] / [`CoreError::Flow`] when the demand cannot fit the
///   windows (infeasible decomposition) or a solver fails.
pub fn solve(leveling: &LevelingProblem, backend: SolverBackend) -> Result<Plan, CoreError> {
    solve_with(leveling, backend, None, &mut SolveStats::default())
}

/// [`solve`] with an optional [`PlanCache`] and solver-effort accounting.
///
/// The cache answers only problems it can prove identical to a fresh solve
/// (see [`super::cache`]), so enabling it never changes any plan — only
/// how much solver work producing it costs. Failed solves are not cached;
/// hits, misses and per-backend solve/pivot counts accumulate into
/// `stats`.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with(
    leveling: &LevelingProblem,
    backend: SolverBackend,
    cache: Option<&mut PlanCache>,
    stats: &mut SolveStats,
) -> Result<Plan, CoreError> {
    leveling.validate()?;
    if leveling.jobs.is_empty() {
        return Ok(Plan {
            tasks: HashMap::new(),
            horizon: leveling.horizon(),
        });
    }
    if let Some(cache) = &cache {
        match cache.lookup(leveling, backend) {
            CacheLookup::Exact(plan) => {
                stats.cache_hits_exact += 1;
                return Ok(plan);
            }
            CacheLookup::Shift(plan) => {
                stats.cache_hits_shift += 1;
                return Ok(plan);
            }
            CacheLookup::Miss => stats.cache_misses += 1,
        }
    }
    let plan = match backend {
        SolverBackend::ParametricFlow => match uniform_shape(leveling) {
            Some(shape) => {
                stats.flow_solves += 1;
                solve_flow(leveling, shape)
            }
            // Heterogeneous shapes: the transportation reduction does not
            // apply; fall back to the LP with a bounded refinement budget.
            // A solve is one cold main solve; every later round commits
            // the last round's freezes into its retained optimum, and
            // every necessity trial probes it. Both are cheap next to the
            // cold phase 1, so what full lexicographic depth would cost on
            // a long horizon is its trials — one probe per candidate pair
            // per round.
            None => solve_simplex(leveling, 1 + FLOW_LEX_ROUNDS, stats),
        },
        SolverBackend::Simplex { lex_rounds } => solve_simplex(leveling, lex_rounds, stats),
    }?;
    if let Some(cache) = cache {
        cache.store(leveling, backend, &plan);
    }
    Ok(plan)
}

/// The shared per-task shape, if all jobs agree.
fn uniform_shape(leveling: &LevelingProblem) -> Option<ResourceVec> {
    let first = leveling.jobs.first()?.per_task;
    leveling
        .jobs
        .iter()
        .all(|j| j.per_task == first)
        .then_some(first)
}

fn solve_flow(leveling: &LevelingProblem, shape: ResourceVec) -> Result<Plan, CoreError> {
    // Slot capacity in *tasks*: the bottleneck resource decides.
    let slot_caps: Vec<u64> = leveling
        .slot_caps
        .iter()
        .map(|cap| shape.times_fitting(cap))
        .collect();
    let instance = LevelingInstance {
        slot_caps,
        jobs: leveling
            .jobs
            .iter()
            .map(|j| LevelingJob {
                start: j.window.0,
                end: j.window.1,
                demand: j.demand,
                per_slot_cap: j.per_slot_cap.map(|c| c.min(j.demand).max(1)),
            })
            .collect(),
    };
    // Bounded refinement keeps re-planning latency predictable on long
    // horizons; the first round is always the exact min-max peak.
    let sol = instance.solve_lexmin_rounds(FLOW_LEX_ROUNDS)?;
    let tasks: HashMap<_, _> = leveling
        .jobs
        .iter()
        .zip(sol.allocation)
        .map(|(j, alloc)| (j.id, alloc))
        .collect();
    Ok(Plan {
        tasks,
        horizon: leveling.horizon(),
    })
}

fn solve_simplex(
    leveling: &LevelingProblem,
    lex_rounds: usize,
    stats: &mut SolveStats,
) -> Result<Plan, CoreError> {
    let fractional = lexmin::solve_with_stats(leveling, lex_rounds, true, stats)?;
    Ok(rounding::round_plan(leveling, &fractional.x))
}

/// The normalized peak of a plan in resource space (diagnostic helper used
/// by benches and tests).
pub fn plan_peak(leveling: &LevelingProblem, plan: &Plan) -> f64 {
    let mut peak = 0.0f64;
    for t in 0..leveling.horizon() {
        let usage = plan.slot_usage(&leveling.jobs, t);
        for r in 0..NUM_RESOURCES {
            let cap = leveling.slot_caps[t].dim(r);
            if cap > 0 {
                peak = peak.max(usage.dim(r) as f64 / cap as f64);
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_sched::PlanJob;
    use flowtime_dag::JobId;

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

    #[test]
    fn backends_agree_on_peak() {
        let p = LevelingProblem {
            slot_caps: caps(6, 10),
            jobs: vec![job(1, (0, 3), 12), job(2, (1, 6), 15), job(3, (2, 4), 6)],
        };
        let flow = p.solve(SolverBackend::ParametricFlow).unwrap();
        let lp = p.solve(SolverBackend::Simplex { lex_rounds: 1 }).unwrap();
        let fp = plan_peak(&p, &flow);
        let lp_peak = plan_peak(&p, &lp);
        assert!(
            (fp - lp_peak).abs() < 1e-6,
            "flow peak {fp} vs lp peak {lp_peak}"
        );
        assert!(rounding::is_feasible(&p, &flow));
        assert!(rounding::is_feasible(&p, &lp));
    }

    #[test]
    fn heterogeneous_shapes_fall_back_to_lp() {
        let mut jobs = vec![job(1, (0, 4), 8)];
        jobs.push(PlanJob {
            id: JobId::new(2),
            window: (0, 4),
            demand: 4,
            per_task: ResourceVec::new([2, 512]),
            per_slot_cap: None,
        });
        let p = LevelingProblem {
            slot_caps: caps(4, 10),
            jobs,
        };
        let plan = p.solve(SolverBackend::ParametricFlow).unwrap();
        assert_eq!(plan.tasks[&JobId::new(1)].iter().sum::<u64>(), 8);
        assert_eq!(plan.tasks[&JobId::new(2)].iter().sum::<u64>(), 4);
    }

    #[test]
    fn empty_jobs_trivial_plan() {
        let p = LevelingProblem {
            slot_caps: caps(3, 4),
            jobs: vec![],
        };
        let plan = p.solve(SolverBackend::default()).unwrap();
        assert!(plan.tasks.is_empty());
        assert_eq!(plan.horizon, 3);
    }

    #[test]
    fn infeasible_instances_error() {
        let p = LevelingProblem {
            slot_caps: caps(2, 2),
            jobs: vec![job(1, (0, 2), 10)],
        };
        assert!(p.solve(SolverBackend::ParametricFlow).is_err());
        assert!(p.solve(SolverBackend::Simplex { lex_rounds: 1 }).is_err());
    }

    #[test]
    fn cached_solves_reuse_plans_and_count_stats() {
        let p = LevelingProblem {
            slot_caps: caps(8, 6),
            jobs: vec![job(1, (2, 6), 9), job(2, (3, 8), 7)],
        };
        let mut cache = PlanCache::new();
        let mut stats = SolveStats::default();
        let backend = SolverBackend::Simplex { lex_rounds: 2 };
        let first = solve_with(&p, backend, Some(&mut cache), &mut stats).unwrap();
        assert_eq!(stats.cache_misses, 1);
        assert!(
            stats.cold_solves >= 1,
            "the first round's main solve is cold"
        );
        // Identical problem: answered from cache, no new solves.
        let solves_before = stats.cold_solves + stats.warm_solves;
        let again = solve_with(&p, backend, Some(&mut cache), &mut stats).unwrap();
        assert_eq!(again, first);
        assert_eq!(stats.cache_hits_exact, 1);
        assert_eq!(stats.cold_solves + stats.warm_solves, solves_before);
        // Pure elapsed-time relabel: shift hit, identical to a fresh solve.
        let moved = LevelingProblem {
            slot_caps: p.slot_caps[1..].to_vec(),
            jobs: p
                .jobs
                .iter()
                .map(|j| PlanJob {
                    window: (j.window.0 - 1, j.window.1 - 1),
                    ..j.clone()
                })
                .collect(),
        };
        let reused = solve_with(&p, backend, Some(&mut cache), &mut stats).unwrap();
        assert_eq!(reused, first);
        let shifted = solve_with(&moved, backend, Some(&mut cache), &mut stats).unwrap();
        assert_eq!(stats.cache_hits_shift, 1);
        assert_eq!(shifted, solve(&moved, backend).unwrap());
    }

    #[test]
    fn cache_disabled_is_bitwise_identical() {
        let p = LevelingProblem {
            slot_caps: caps(6, 10),
            jobs: vec![job(1, (0, 3), 12), job(2, (1, 6), 15)],
        };
        let mut cache = PlanCache::new();
        let mut stats = SolveStats::default();
        for backend in [
            SolverBackend::ParametricFlow,
            SolverBackend::Simplex { lex_rounds: 3 },
        ] {
            let cached = solve_with(&p, backend, Some(&mut cache), &mut stats).unwrap();
            let uncached = solve(&p, backend).unwrap();
            assert_eq!(cached, uncached, "{backend:?}");
        }
        assert_eq!(stats.flow_solves, 1);
    }

    #[test]
    fn memory_bound_capacity_limits_tasks() {
        // Each task needs 4 GiB; cluster has 8 cores but only 8 GiB: only
        // 2 tasks/slot fit.
        let p = LevelingProblem {
            slot_caps: vec![ResourceVec::new([8, 8192]); 4],
            jobs: vec![PlanJob {
                id: JobId::new(1),
                window: (0, 4),
                demand: 8,
                per_task: ResourceVec::new([1, 4096]),
                per_slot_cap: None,
            }],
        };
        let plan = p.solve(SolverBackend::ParametricFlow).unwrap();
        assert!(rounding::is_feasible(&p, &plan));
        assert_eq!(plan.tasks[&JobId::new(1)], vec![2, 2, 2, 2]);
    }
}
