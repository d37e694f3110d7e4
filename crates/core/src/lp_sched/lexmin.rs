//! Lexicographic min-max by iterative peak freezing.
//!
//! Round `k`: solve the min-max LP over all non-frozen `(slot, resource)`
//! pairs; every pair that is **necessarily tight** at the optimal peak —
//! capping it any lower makes the LP infeasible or raises the peak — is
//! frozen at the peak level; repeat over the remaining pairs. This is the
//! standard numerically-stable realization of the paper's `lexmin`
//! objective (their Lemma-1 scalarization `Σ k^{u_i}` is exact on paper but
//! overflows any floating-point format for realistic `k = |T||R|`).
//!
//! The necessity test matters: freezing every pair that merely *happens* to
//! sit at the peak in one optimal solution would fix arbitrary caps that
//! later rounds could dump load into. When no individual pair is necessary
//! (a tie between equivalent peaks), all current peak pairs are frozen at
//! the peak level as a progress fallback — the result is then min-max
//! optimal at every completed level and approximately lexmin below.

use super::formulation::{self, Formulation};
use super::{LevelingProblem, SolveStats};
use crate::error::CoreError;
use flowtime_dag::NUM_RESOURCES;
use flowtime_lp::{LpError, Probe, Retained, SimplexOptions, Solution};
use std::collections::HashMap;

/// A fractional lexmin-max solution.
#[derive(Debug, Clone)]
pub struct FractionalPlan {
    /// `x[i][t]` allocation of job `i` in horizon slot `t` (dense).
    pub x: Vec<Vec<f64>>,
    /// The minimal peak ratio found in the first round.
    pub peak_ratio: f64,
    /// Number of refinement rounds performed.
    pub rounds_used: usize,
    /// The optimal peak level of each completed round's main solve — the
    /// lexicographic objective vector, for cross-configuration equivalence
    /// checks.
    pub thetas: Vec<f64>,
}

/// Absolute load caps of the `(slot, resource)` pairs frozen so far.
type Frozen = HashMap<(usize, usize), f64>;

/// The dense allocation matrix a main solve's `solution` describes.
fn allocation(leveling: &LevelingProblem, f: &Formulation, solution: &Solution) -> Vec<Vec<f64>> {
    let mut x = vec![vec![0.0f64; leveling.horizon()]; leveling.jobs.len()];
    for ((row, job), vars) in x.iter_mut().zip(&leveling.jobs).zip(&f.x) {
        for (slot, &v) in row[job.window.0..].iter_mut().zip(vars) {
            *slot = solution.value(v);
        }
    }
    x
}

fn loads_of(leveling: &LevelingProblem, x: &[Vec<f64>]) -> Vec<[f64; NUM_RESOURCES]> {
    let mut loads = vec![[0.0f64; NUM_RESOURCES]; leveling.horizon()];
    for (i, job) in leveling.jobs.iter().enumerate() {
        for t in job.window.0..job.window.1 {
            for (r, load) in loads[t].iter_mut().enumerate() {
                *load += x[i][t] * job.per_task.dim(r) as f64;
            }
        }
    }
    loads
}

/// One necessity trial by the cold rebuild: the LP with `(t, r)` also
/// frozen at `cap`, built and solved from scratch. This is the all-cold
/// reference (`warm_trials = false`) and what decides a trial the probe
/// leaves [`Probe::Undecided`]. `None` means infeasible.
fn cold_trial(
    leveling: &LevelingProblem,
    frozen: &Frozen,
    pair: (usize, usize),
    cap: f64,
    stats: &mut SolveStats,
) -> Result<Option<f64>, CoreError> {
    let mut trial = frozen.clone();
    trial.insert(pair, cap);
    let f = formulation::build(leveling, &trial)?;
    stats.cold_solves += 1;
    match f.problem.solve_with(&SimplexOptions::default()) {
        Ok(solution) => {
            stats.cold_pivots += solution.iterations as u64;
            Ok(Some(solution.value(f.theta)))
        }
        Err(LpError::Infeasible) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The peak pairs of a round that are **necessarily** tight: capped just
/// below the peak level, the LP turns infeasible or its peak rises. Each
/// trial is a probe of the round's retained optimum `optimum` — the trial
/// LP is the main LP `f` with the pair's load row stripped of `θ` and
/// capped; without an `optimum` (the all-cold reference) every trial is
/// the cold rebuild. When no pair is necessary, all of `peaks` are
/// returned (the tie fallback of the module docs).
fn necessary_peaks(
    leveling: &LevelingProblem,
    frozen: &Frozen,
    f: &Formulation,
    mut optimum: Option<&mut Retained<'_>>,
    theta: f64,
    peaks: &[(usize, usize)],
    stats: &mut SolveStats,
) -> Result<Frozen, CoreError> {
    let level_of = |t: usize, r: usize| theta * leveling.slot_caps[t].dim(r) as f64;
    let mut necessary = Frozen::new();
    for &(t, r) in peaks {
        let level = level_of(t, r);
        let delta = (level * 1e-3).max(0.5);
        let cap = (level - delta).max(0.0);
        let probed = match (&mut optimum, f.load_row(t, r)) {
            (Some(optimum), Some(row)) => optimum.probe(row, f.theta, cap)?,
            _ => Probe::Undecided,
        };
        let theta_new = match probed {
            Probe::Optimal { objective, pivots } => {
                stats.warm_solves += 1;
                stats.warm_pivots += pivots as u64;
                Some(objective)
            }
            Probe::Infeasible => {
                stats.warm_solves += 1;
                None
            }
            Probe::Undecided => {
                if optimum.is_some() {
                    stats.warm_fallbacks += 1;
                }
                cold_trial(leveling, frozen, (t, r), cap, stats)?
            }
        };
        if theta_new.is_none_or(|new| new > theta + 1e-6) {
            necessary.insert((t, r), level);
        }
    }
    if necessary.is_empty() {
        necessary.extend(peaks.iter().map(|&(t, r)| ((t, r), level_of(t, r))));
    }
    Ok(necessary)
}

/// Solves `leveling` lexicographically with at most `rounds` freeze
/// iterations (`1` = plain min-max, no refinement solves).
///
/// # Errors
///
/// Propagates formulation and LP errors; an infeasible first round means
/// the decomposed windows cannot hold the demand
/// ([`flowtime_lp::LpError::Infeasible`] wrapped in [`CoreError::Lp`]).
pub fn solve(leveling: &LevelingProblem, rounds: usize) -> Result<FractionalPlan, CoreError> {
    solve_with_stats(leveling, rounds, true, &mut SolveStats::default())
}

/// [`solve`] with explicit control over how necessity trials are answered
/// and solver-effort accounting.
///
/// Every round's **main** solve is always cold: the returned vertex defines
/// the peak candidates and the final allocation, so it must not depend on
/// any carried state. When `warm_trials` is set, the objective-only
/// necessity trials of each round are **probes** of that main solve's
/// retained, factored optimum ([`flowtime_lp::Retained::probe`]): the
/// trial LP differs from the main LP by one capacity row, the textbook
/// dual-repair case, and nothing is rebuilt or re-factored for it. A probe
/// the engine cannot decide exactly is solved by the cold rebuild instead.
/// With `warm_trials` off every trial is that cold rebuild — the
/// reference. Trials only compare the optimal *objective* against a
/// threshold, and probe and cold solve provably agree on the objective, so
/// the freezing decisions (and therefore the returned plan) are identical
/// either way; `tests/warm_start_props.rs` checks exactly that.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with_stats(
    leveling: &LevelingProblem,
    rounds: usize,
    warm_trials: bool,
    stats: &mut SolveStats,
) -> Result<FractionalPlan, CoreError> {
    let rounds = rounds.max(1);
    let mut frozen = Frozen::new();
    let mut thetas: Vec<f64> = Vec::new();
    loop {
        let f = formulation::build(leveling, &frozen)?;
        stats.cold_solves += 1;
        let (solution, mut optimum) = f.problem.solve_retained(&SimplexOptions::default())?;
        stats.cold_pivots += solution.iterations as u64;
        let theta = solution.value(f.theta);
        thetas.push(theta);
        let x = allocation(leveling, &f, &solution);
        // Candidate peak pairs among the unfrozen.
        let peaks: Vec<(usize, usize)> = if thetas.len() == rounds || theta <= 1e-9 {
            Vec::new()
        } else {
            let loads = loads_of(leveling, &x);
            (0..leveling.horizon())
                .flat_map(|t| (0..NUM_RESOURCES).map(move |r| (t, r)))
                .filter(|pair| !frozen.contains_key(pair))
                .filter(|&(t, r)| {
                    let cap = leveling.slot_caps[t].dim(r) as f64;
                    cap > 0.0 && loads[t][r] / cap >= theta - 1e-7
                })
                .collect()
        };
        if peaks.is_empty() {
            return Ok(FractionalPlan {
                x,
                peak_ratio: thetas[0],
                rounds_used: thetas.len(),
                thetas,
            });
        }
        frozen.extend(necessary_peaks(
            leveling,
            &frozen,
            &f,
            warm_trials.then_some(&mut optimum),
            theta,
            &peaks,
            stats,
        )?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_sched::PlanJob;
    use flowtime_dag::{JobId, ResourceVec};

    fn uniform_caps(n: usize, cores: u64) -> Vec<ResourceVec> {
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
    fn single_round_matches_min_max() {
        let p = LevelingProblem {
            slot_caps: uniform_caps(4, 10),
            jobs: vec![job(1, (0, 4), 12), job(2, (0, 4), 8)],
        };
        let plan = solve(&p, 1).unwrap();
        assert!((plan.peak_ratio - 0.5).abs() < 1e-6);
        let total0: f64 = plan.x[0].iter().sum();
        assert!((total0 - 12.0).abs() < 1e-6);
    }

    #[test]
    fn lexicographic_flattens_secondary_peaks() {
        // Rigid job pins slots 0-1; flexible job should spread over 2..6.
        let p = LevelingProblem {
            slot_caps: uniform_caps(6, 10),
            jobs: vec![job(1, (0, 2), 12), job(2, (2, 6), 8)],
        };
        let plan = solve(&p, 8).unwrap();
        assert!(plan.rounds_used >= 2);
        // Slots 2..6 should each carry ~2.0 of job 2.
        for t in 2..6 {
            assert!(
                (plan.x[1][t] - 2.0).abs() < 1e-5,
                "slot {t}: {}",
                plan.x[1][t]
            );
        }
    }

    #[test]
    fn necessity_test_does_not_overfreeze() {
        // One flexible job over 3 slots: peak 2.0 everywhere, no single
        // slot necessary below the tie fallback. The final profile must
        // still be flat with totals preserved.
        let p = LevelingProblem {
            slot_caps: uniform_caps(3, 10),
            jobs: vec![job(1, (0, 3), 6)],
        };
        let plan = solve(&p, 4).unwrap();
        let total: f64 = plan.x[0].iter().sum();
        assert!((total - 6.0).abs() < 1e-6);
        for t in 0..3 {
            assert!(plan.x[0][t] <= 2.0 + 1e-6);
        }
    }

    #[test]
    fn warm_trials_match_cold_trials_exactly() {
        // Rigid + flexible jobs force several freeze rounds with real
        // necessity trials; warm-started trials must reproduce the cold
        // path's allocation and objective vector bit for bit (the main
        // solves are cold in both configurations).
        let p = LevelingProblem {
            slot_caps: uniform_caps(8, 10),
            jobs: vec![job(1, (0, 2), 14), job(2, (2, 8), 12), job(3, (1, 5), 6)],
        };
        let mut warm_stats = SolveStats::default();
        let mut cold_stats = SolveStats::default();
        let warm = solve_with_stats(&p, 6, true, &mut warm_stats).unwrap();
        let cold = solve_with_stats(&p, 6, false, &mut cold_stats).unwrap();
        assert_eq!(warm.x, cold.x);
        assert_eq!(warm.thetas, cold.thetas);
        assert_eq!(warm.rounds_used, cold.rounds_used);
        // The cold configuration never warm-starts anything...
        assert_eq!(cold_stats.warm_solves, 0);
        assert_eq!(cold_stats.warm_fallbacks, 0);
        // ...and the warm configuration actually exercised warm trials.
        assert!(
            warm_stats.warm_solves > 0,
            "no warm trials ran: {warm_stats:?}"
        );
        assert_eq!(
            warm_stats.cold_solves + warm_stats.warm_solves,
            cold_stats.cold_solves,
            "same number of LP solves either way"
        );
    }

    #[test]
    fn infeasible_windows_error() {
        let p = LevelingProblem {
            slot_caps: uniform_caps(2, 2),
            jobs: vec![job(1, (0, 2), 10)],
        };
        assert!(matches!(solve(&p, 2), Err(CoreError::Lp(_))));
    }

    #[test]
    fn empty_problem_trivial() {
        let p = LevelingProblem {
            slot_caps: uniform_caps(3, 4),
            jobs: vec![],
        };
        let plan = solve(&p, 3).unwrap();
        assert_eq!(plan.peak_ratio, 0.0);
        assert!(plan.x.is_empty());
    }
}
