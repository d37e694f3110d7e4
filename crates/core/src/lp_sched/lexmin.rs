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
    /// What each round before the last froze, in round order — the freeze
    /// decisions, for the same checks.
    pub freezes: Vec<Freeze>,
}

/// The pairs one round froze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Freeze {
    /// The frozen `(slot, resource)` pairs, ascending.
    pub pairs: Vec<(usize, usize)>,
    /// Whether they are the round's necessary peaks. `false` when no peak
    /// was necessary and the tie fallback froze every peak of the round's
    /// optimal vertex.
    pub necessary: bool,
}

/// Absolute load caps of the `(slot, resource)` pairs frozen so far.
type Frozen = HashMap<(usize, usize), f64>;

/// The dense allocation matrix a main solve's `solution` describes.
///
/// # Errors
///
/// [`CoreError::NonFiniteAllocation`] for a value no plan can be rounded
/// from.
fn allocation(
    leveling: &LevelingProblem,
    f: &Formulation,
    solution: &Solution,
) -> Result<Vec<Vec<f64>>, CoreError> {
    let mut x = vec![vec![0.0f64; leveling.horizon()]; leveling.jobs.len()];
    for ((row, job), vars) in x.iter_mut().zip(&leveling.jobs).zip(&f.x) {
        for (t, (slot, &v)) in row[job.window.0..].iter_mut().zip(vars).enumerate() {
            *slot = solution.value(v);
            if !slot.is_finite() {
                return Err(CoreError::NonFiniteAllocation {
                    job: job.id,
                    slot: job.window.0 + t,
                });
            }
        }
    }
    Ok(x)
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

/// A round's main solve by the cold rebuild: the LP with every pair of
/// `frozen` capped, built and solved from scratch, its optimum retained
/// for the round's probes and the next round's commit. The first round of
/// every solve, every round of the all-cold reference (`warm_trials =
/// false`), and what replaces a commit that could not decide.
fn cold_round(
    leveling: &LevelingProblem,
    frozen: &Frozen,
    stats: &mut SolveStats,
) -> Result<(Formulation, Solution, Retained), CoreError> {
    let mut f = formulation::build(leveling, frozen)?;
    stats.cold_solves += 1;
    // The LP moves into the retained optimum, which commits patch in place;
    // the round loop reads only `f`'s variable ids and row indices.
    let problem = std::mem::take(&mut f.problem);
    let (solution, optimum) = problem.solve_retained(&SimplexOptions::default())?;
    stats.cold_pivots += solution.iterations as u64;
    Ok((f, solution, optimum))
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
/// LP is the round's LP with the pair's load row stripped of `θ` and
/// capped; without an `optimum` (the all-cold reference) every trial is
/// the cold rebuild. When no pair is necessary, all of `peaks` are
/// returned (the tie fallback of the module docs) and the flag is `false`.
fn necessary_peaks(
    leveling: &LevelingProblem,
    frozen: &Frozen,
    f: &Formulation,
    mut optimum: Option<&mut Retained>,
    theta: f64,
    peaks: &[(usize, usize)],
    stats: &mut SolveStats,
) -> Result<(Frozen, bool), CoreError> {
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
        let all = peaks.iter().map(|&(t, r)| ((t, r), level_of(t, r)));
        return Ok((all.collect(), false));
    }
    Ok((necessary, true))
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

/// [`solve`] with explicit control over how rounds after the first and
/// necessity trials are answered, and solver-effort accounting.
///
/// The first round's main solve is cold ([`cold_round`]). With
/// `warm_trials` set, everything after it continues from that solve's
/// retained, factored optimum ([`flowtime_lp::Retained`]): a round's
/// objective-only necessity trials are **probes** of it — the trial LP
/// differs from the round's LP by one capacity row, the textbook
/// dual-repair case — and the next round's main solve is a **commit** of
/// the pairs the round froze: round `k + 1`'s LP is round `k`'s with each
/// newly frozen load row stripped of `θ` and capped at its level, exactly
/// what `formulation::build` writes for a frozen pair, so the retained
/// optimum is patched in place and re-optimised from its own vertex
/// ([`flowtime_lp::Retained::commit`]). One cold solve per call; a probe
/// or a commit the engine cannot decide exactly is replaced by the cold
/// rebuild. With `warm_trials` off every trial and every round is that
/// cold rebuild — the reference.
///
/// What the two configurations share is what the objective fixes: every
/// round's optimal peak (`thetas`, up to the solver's tolerances: a
/// frozen level is `θ` on the 1e-9 grid times `C`, so a later round's LP
/// may be feasible only within them, and two solves of it may read its
/// peak a few grid steps apart), the verdict of every trial (probe and
/// cold solve agree on the optimal objective), and the number of rounds.
/// The vertex a degenerate round lands on may differ — a commit continues
/// from the last one, the rebuild starts from the all-artificial basis —
/// and with it `x` and which pairs sit at the peak, so which are tried: a
/// tie-fallback freeze, and a pair necessary only within the trial's
/// margin that sits just under the peak in one vertex and is therefore
/// not frozen by that configuration in that round.
/// `tests/warm_start_props.rs` checks exactly that split.
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
    let mut freezes: Vec<Freeze> = Vec::new();
    let (mut f, mut solution, mut optimum) = cold_round(leveling, &frozen, stats)?;
    loop {
        let theta = solution.value(f.theta);
        thetas.push(theta);
        let x = allocation(leveling, &f, &solution)?;
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
                freezes,
            });
        }
        let (newly, necessary) = necessary_peaks(
            leveling,
            &frozen,
            &f,
            warm_trials.then_some(&mut optimum),
            theta,
            &peaks,
            stats,
        )?;
        let mut newly: Vec<((usize, usize), f64)> = newly.into_iter().collect();
        newly.sort_unstable_by_key(|&(pair, _)| pair);
        // The next round's LP, as patches of this one's load rows.
        let caps: Option<Vec<(usize, f64)>> = newly
            .iter()
            .map(|&((t, r), level)| Some((f.load_row(t, r)?, level)))
            .collect();
        frozen.extend(newly.iter().copied());
        freezes.push(Freeze {
            pairs: newly.iter().map(|&(pair, _)| pair).collect(),
            necessary,
        });
        let committed = match caps {
            Some(caps) if warm_trials => optimum.commit(f.theta, &caps)?,
            _ => None,
        };
        match committed {
            Some(next) => {
                stats.warm_solves += 1;
                stats.warm_pivots += next.iterations as u64;
                solution = next;
            }
            None => {
                if warm_trials {
                    stats.warm_fallbacks += 1;
                }
                (f, solution, optimum) = cold_round(leveling, &frozen, stats)?;
            }
        }
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
    fn carried_rounds_match_the_all_cold_reference() {
        // Rigid + flexible jobs force several freeze rounds with real
        // necessity trials. Carried rounds (one cold solve, then commits,
        // trials probed) must reach the all-cold reference's objective
        // vector through the same freezes; the vertex may differ.
        let p = LevelingProblem {
            slot_caps: uniform_caps(8, 10),
            jobs: vec![job(1, (0, 2), 14), job(2, (2, 8), 12), job(3, (1, 5), 6)],
        };
        let mut warm_stats = SolveStats::default();
        let mut cold_stats = SolveStats::default();
        let warm = solve_with_stats(&p, 6, true, &mut warm_stats).unwrap();
        let cold = solve_with_stats(&p, 6, false, &mut cold_stats).unwrap();
        assert_eq!(warm.thetas, cold.thetas);
        assert_eq!(warm.rounds_used, cold.rounds_used);
        assert_eq!(warm.freezes, cold.freezes);
        assert!(warm.rounds_used >= 3, "{warm:?}");
        // The cold configuration never warm-starts anything...
        assert_eq!(cold_stats.warm_solves, 0);
        assert_eq!(cold_stats.warm_fallbacks, 0);
        // ...and the carried one solved cold once: every later round was
        // a commit, every trial a probe.
        assert_eq!(warm_stats.cold_solves, 1, "{warm_stats:?}");
        assert_eq!(warm_stats.warm_fallbacks, 0, "{warm_stats:?}");
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
