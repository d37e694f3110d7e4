//! Bounded-variable two-phase *revised* simplex over a sparse LU-factored
//! basis.
//!
//! This engine is trajectory-compatible with the dense tableau oracle in
//! [`crate::simplex`]: it prices with the same Dantzig→Bland policy, runs
//! the same ratio test with the same tolerances and tie-breaks, performs
//! the same bound-flip transformations, and counts iterations identically.
//! The two engines therefore walk the same pivot sequence (the revised
//! quantities `B⁻¹a_j`, reduced costs, and basic values are the *same
//! numbers* the tableau stores explicitly, recomputed through the LU
//! factors), so warm-start bases are interchangeable and plans downstream
//! stay bit-identical — the differential suite in `tests/lp_differential.rs`
//! holds the two engines to that.
//!
//! Where the dense tableau spends `O(m·n)` per pivot updating every entry,
//! this engine spends `O(nnz)`: one BTRAN for pricing, one FTRAN for the
//! entering column, and an `O(m)` basic-value update. On the Lemma 2
//! interval LPs (`nnz = O(n)`), that turns each pivot from quadratic to
//! linear.

use crate::error::LpError;
use crate::lu::{self, Factorization};
use crate::problem::{Problem, RowPatch};
use crate::simplex::{
    auto_iteration_cap, certifies_infeasible, held_value, infeasibility, largest_pivot,
    phase1_block, pivot_floor, quantize, slack_of, violation, Basis, CycleDetector, Mend, Pricing,
    RatioOutcome, Repair, SimplexOptions, SolverCore, Stall, WarmOutcome, DEGEN_SNAP,
    PATCH_PIVOT_TOL, PRICE_TIE, RATIO_TIE,
};
use crate::solution::{Solution, Status};
use crate::sparse::SparseForm;

/// The sparse revised-simplex engine ([`crate::SimplexEngine::Sparse`]).
pub struct SparseRevised;

impl SolverCore for SparseRevised {
    fn solve_cold(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
    ) -> Result<(Solution, Basis), LpError> {
        cold(problem, options)
    }

    fn try_warm(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
        start: &Basis,
    ) -> Option<(Solution, Basis)> {
        warm(problem, options, start)
    }
}

/// Mutable solver state: the standard form, the basis, the incrementally
/// maintained basic values, and the factorization of the basis.
struct Rev {
    f: SparseForm,
    /// Basic column of each row/position.
    basis: Vec<usize>,
    /// Membership mask over all columns.
    in_basis: Vec<bool>,
    /// Current basic values (`B⁻¹b`, maintained incrementally exactly like
    /// the dense tableau's `beta`).
    beta: Vec<f64>,
    lu: Factorization,
    /// Non-LU operation counter (pricing, ratio tests, updates).
    work: u64,
    /// Set while a probe runs: what the incremental steps below change
    /// that a snapshot of the dense vectors does not cover.
    trail: Option<Trail>,
}

/// The part of a probe's undo record that is written where the change
/// happens: every column complemented, in order, and the factorization a
/// refactorization inside the probe replaced.
#[derive(Default)]
struct Trail {
    flips: Vec<usize>,
    parked: Option<Factorization>,
}

impl Rev {
    /// Complements column `j` (storage, right-hand side, objective
    /// constant); the caller owns any `beta` update.
    fn flip(&mut self, j: usize) {
        self.f.flip_column(j);
        if let Some(trail) = &mut self.trail {
            trail.flips.push(j);
        }
    }
}

/// Relative residual bound for the `‖B·β − b‖∞` self-check run at every
/// refactorization and before results are surfaced.
const RESIDUAL_TOL: f64 = 1e-6;

fn build_cold(problem: &Problem) -> Result<Rev, LpError> {
    let f = SparseForm::build(problem)?;
    let basis: Vec<usize> = (f.art_start..f.width).collect();
    let mut in_basis = vec![false; f.width];
    for &b in &basis {
        in_basis[b] = true;
    }
    let beta = f.b.clone(); // all-artificial basis: B = I
    let lu = Factorization::factor(&f.a, &basis)?;
    Ok(Rev {
        f,
        basis,
        in_basis,
        beta,
        lu,
        work: 0,
        trail: None,
    })
}

fn objective(rev: &Rev, phase1: bool) -> f64 {
    let mut z = if phase1 { 0.0 } else { rev.f.flip_const2 };
    for (i, &b) in rev.basis.iter().enumerate() {
        z += rev.f.effective_cost(b, phase1) * rev.beta[i];
    }
    z
}

/// Complements the *basic* variable of row `r` (mirror of the dense
/// `flip_basic_row`): the storage flip plus the `beta` rebase. The caller
/// pivots this row immediately afterwards, which is what re-syncs the
/// factorization (the replacement eta is computed against the pre-flip
/// basis, and the replaced column's orientation is irrelevant once it has
/// left).
fn flip_basic(rev: &mut Rev, r: usize) {
    let k = rev.basis[r];
    rev.flip(k);
    rev.beta[r] = rev.f.upper[k] - rev.beta[r];
}

/// Basis exchange at row `r`: column `j` enters with FTRAN'd column `w` and
/// pivot element `w[r]` (the dense `pivot`, minus the tableau sweep).
fn pivot(rev: &mut Rev, r: usize, j: usize, w: &[f64]) -> Result<(), LpError> {
    let step = rev.beta[r] / w[r];
    apply_pivot(rev, r, j, w, step)
}

/// Basis exchange after [`flip_basic`] on row `r`: the dense pivot element
/// is the *negated* `w[r]` (the row was complemented), while the eta update
/// still uses the original `w` (`B_new = B_old·E(w)` — the leaving column's
/// in-storage negation does not alter the replaced basis column).
fn pivot_flipped(rev: &mut Rev, r: usize, j: usize, w: &[f64]) -> Result<(), LpError> {
    let step = rev.beta[r] / (-w[r]);
    apply_pivot(rev, r, j, w, step)
}

fn apply_pivot(rev: &mut Rev, r: usize, j: usize, w: &[f64], step: f64) -> Result<(), LpError> {
    for (i, &wi) in w.iter().enumerate() {
        if i == r || wi == 0.0 {
            continue;
        }
        rev.beta[i] -= wi * step;
        if rev.beta[i] < 0.0 && rev.beta[i] > -1e-9 {
            rev.beta[i] = 0.0;
        }
    }
    rev.beta[r] = step;
    rev.lu.update(r, w)?;
    rev.in_basis[rev.basis[r]] = false;
    rev.in_basis[j] = true;
    rev.basis[r] = j;
    rev.work += w.len() as u64;
    Ok(())
}

/// Rebuilds the LU factors from the current basis and runs the residual
/// self-check on the incrementally maintained `beta`. A corrupted factor or
/// a skipped eta shows up here as [`LpError::NumericalInstability`] rather
/// than a silently wrong plan.
fn refactor(rev: &mut Rev) -> Result<(), LpError> {
    let carried = rev.lu.work;
    let fresh = Factorization::factor(&rev.f.a, &rev.basis)?;
    let replaced = std::mem::replace(&mut rev.lu, fresh);
    rev.lu.work += carried;
    if let Some(trail) = &mut rev.trail {
        trail.parked.get_or_insert(replaced);
    }
    check_residual(rev)
}

fn check_residual(rev: &Rev) -> Result<(), LpError> {
    let residual = lu::basis_residual_inf(&rev.f.a, &rev.basis, &rev.beta, &rev.f.b);
    let scale = 1.0 + rev.f.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    if residual / scale <= RESIDUAL_TOL {
        Ok(())
    } else {
        Err(LpError::NumericalInstability { residual })
    }
}

fn better_leave(rev: &Rev, current: &RatioOutcome, candidate_row: usize, pricing: Pricing) -> bool {
    let cand = rev.basis[candidate_row];
    match current {
        RatioOutcome::Flip | RatioOutcome::Unbounded => true,
        RatioOutcome::LeaveLower(r) | RatioOutcome::LeaveUpper(r) => match pricing {
            Pricing::Bland => cand < rev.basis[*r],
            Pricing::Dantzig => false,
        },
    }
}

fn run_phase(
    rev: &mut Rev,
    phase1: bool,
    tol: f64,
    max_iterations: usize,
    stall_limit: usize,
    iterations: &mut usize,
) -> Result<(), LpError> {
    let m = rev.f.m;
    let mut pricing = Pricing::Dantzig;
    let mut stall = 0usize;
    let mut detector = CycleDetector::new();
    let mut last_obj = objective(rev, phase1);
    let mut y = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    loop {
        if *iterations >= max_iterations {
            return Err(LpError::IterationLimit {
                limit: max_iterations,
            });
        }
        // Price every column from fresh duals (`y = B⁻ᵀc_B`). The dense
        // engine maintains reduced costs incrementally but refreshes before
        // declaring optimality; both selections see the same values.
        for (i, slot) in y.iter_mut().enumerate() {
            *slot = rev.f.effective_cost(rev.basis[i], phase1);
        }
        rev.lu.btran(&mut y);
        let mut entering: Option<(usize, f64)> = None;
        for j in 0..rev.f.width {
            if rev.in_basis[j] || rev.f.upper[j] <= 0.0 || !(phase1 || j < rev.f.art_start) {
                continue;
            }
            let d = rev.f.effective_cost(j, phase1) - rev.f.a.col_dot(j, &y);
            if d < -tol {
                match pricing {
                    // Windowed argmin, mirroring the dense engine: a later
                    // column must beat the incumbent by more than
                    // PRICE_TIE to displace it, so exact ties resolve to
                    // the lowest index on both engines.
                    Pricing::Dantzig => {
                        if entering.is_none_or(|(_, bd)| d < bd - PRICE_TIE * (1.0 + bd.abs())) {
                            entering = Some((j, d));
                        }
                    }
                    Pricing::Bland => {
                        entering = Some((j, d));
                        break;
                    }
                }
            }
        }
        rev.work += rev.f.a.nnz() as u64 + m as u64;
        let Some((j, _)) = entering else {
            return Ok(()); // optimal for this phase
        };

        // FTRAN the entering column; `w` is the tableau column `B⁻¹a_j`.
        for v in w.iter_mut() {
            *v = 0.0;
        }
        rev.f.a.scatter_col(j, 1.0, &mut w);
        rev.lu.ftran(&mut w);

        // Ratio test — same thresholds and tie-breaks as the dense engine.
        let mut best = rev.f.upper[j];
        let mut outcome = if best.is_finite() {
            RatioOutcome::Flip
        } else {
            RatioOutcome::Unbounded
        };
        let floor = pivot_floor(w.iter().copied(), rev.f.a.col_max(j));
        for (i, &a) in w.iter().enumerate() {
            if a > floor {
                let numer = rev.beta[i].max(0.0);
                let ratio = if numer < DEGEN_SNAP { 0.0 } else { numer / a };
                let tie = RATIO_TIE * (1.0 + best.abs());
                if ratio < best - tie
                    || (ratio < best + tie && better_leave(rev, &outcome, i, pricing))
                {
                    best = ratio;
                    outcome = RatioOutcome::LeaveLower(i);
                }
            } else if a < -floor {
                let ub = rev.f.upper[rev.basis[i]];
                if ub.is_finite() {
                    let numer = (ub - rev.beta[i]).max(0.0);
                    let ratio = if numer < DEGEN_SNAP {
                        0.0
                    } else {
                        numer / (-a)
                    };
                    let tie = RATIO_TIE * (1.0 + best.abs());
                    if ratio < best - tie
                        || (ratio < best + tie && better_leave(rev, &outcome, i, pricing))
                    {
                        best = ratio;
                        outcome = RatioOutcome::LeaveUpper(i);
                    }
                }
            }
        }
        rev.work += m as u64;

        match outcome {
            RatioOutcome::Unbounded => {
                return if phase1 {
                    // Cannot happen: phase-1 objective is bounded below by 0.
                    Err(LpError::Infeasible)
                } else {
                    Err(LpError::Unbounded)
                };
            }
            RatioOutcome::Flip => {
                let u = rev.f.upper[j];
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        rev.beta[i] -= wi * u;
                    }
                }
                rev.flip(j);
            }
            RatioOutcome::LeaveLower(r) => pivot(rev, r, j, &w)?,
            RatioOutcome::LeaveUpper(r) => {
                flip_basic(rev, r);
                pivot_flipped(rev, r, j, &w)?;
            }
        }
        *iterations += 1;

        let obj = objective(rev, phase1);
        if obj < last_obj - 1e-12 {
            stall = 0;
            pricing = Pricing::Dantzig;
            detector.clear();
        } else {
            stall += 1;
            // Cycle detection is armed where a basis repeat is conclusive:
            // under Bland (deterministic, so a repeat loops forever) and
            // under Dantzig when the Bland rescue is disabled.
            if (pricing == Pricing::Bland || stall_limit == usize::MAX)
                && detector.record(&rev.basis, &rev.f.flipped)
            {
                return Err(LpError::Cycling {
                    iterations: *iterations,
                });
            }
            if stall > stall_limit && pricing != Pricing::Bland {
                pricing = Pricing::Bland;
                detector.clear();
            }
        }
        last_obj = obj;

        if rev.lu.needs_refactor() {
            refactor(rev)?;
        }
    }
}

/// Drives still-basic artificials out after phase 1 (mirror of the dense
/// sweep): for each artificial row, the first real column with a pivotable
/// tableau entry enters.
fn drive_out_artificials(rev: &mut Rev) -> Result<(), LpError> {
    let m = rev.f.m;
    let mut rho = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    for r in 0..m {
        if rev.basis[r] < rev.f.art_start {
            continue;
        }
        // Row r of B⁻¹A, one sparse dot per column.
        for v in rho.iter_mut() {
            *v = 0.0;
        }
        rho[r] = 1.0;
        rev.lu.btran(&mut rho);
        let found = (0..rev.f.n_real)
            .find(|&j| rev.f.upper[j] > 0.0 && rev.f.a.col_dot(j, &rho).abs() > 1e-7);
        rev.work += rev.f.a.nnz() as u64;
        if let Some(j) = found {
            for v in w.iter_mut() {
                *v = 0.0;
            }
            rev.f.a.scatter_col(j, 1.0, &mut w);
            rev.lu.ftran(&mut w);
            pivot(rev, r, j, &w)?;
            if rev.lu.needs_refactor() {
                refactor(rev)?;
            }
        }
    }
    Ok(())
}

fn extract_solution(rev: &Rev, problem: &Problem, iterations: usize) -> Solution {
    let n_struct = problem.num_vars();
    let mut shifted = vec![0.0f64; rev.f.n_real];
    for (r, &b) in rev.basis.iter().enumerate() {
        if b < rev.f.n_real {
            shifted[b] = rev.beta[r].max(0.0);
        }
    }
    let mut x = vec![0.0f64; n_struct];
    for (j, slot) in x.iter_mut().enumerate() {
        let mut v = shifted[j];
        if rev.f.flipped[j] {
            v = rev.f.upper[j] - v;
        }
        // Clean float fuzz against the original bounds and the grid.
        *slot = quantize((v + problem.lower[j]).clamp(problem.lower[j], problem.upper[j]));
    }
    let objective = problem.objective_at(&x);
    Solution {
        status: Status::Optimal,
        objective,
        x,
        iterations,
        work: rev.work + rev.lu.work,
    }
}

fn export_basis(rev: &Rev, n_struct: usize) -> Basis {
    let rows: Vec<Option<usize>> = rev
        .basis
        .iter()
        .map(|&b| (b < rev.f.art_start).then_some(b))
        .collect();
    let mut in_b = vec![false; rev.f.n_real];
    for &b in &rev.basis {
        if b < rev.f.art_start {
            in_b[b] = true;
        }
    }
    let flipped = (0..rev.f.n_real)
        .map(|j| rev.f.flipped[j] && !in_b[j])
        .collect();
    Basis {
        rows,
        flipped,
        n_struct,
        n_slack: rev.f.n_real - n_struct,
    }
}

fn cold(problem: &Problem, options: &SimplexOptions) -> Result<(Solution, Basis), LpError> {
    cold_retained(problem, options).map(|(solution, basis, _)| (solution, basis))
}

/// The cold two-phase solve, handing back its final state beside the
/// solution: the standard form in its final orientation, the optimal
/// basis, `beta`, and the LU factors with their eta file.
pub(crate) fn cold_retained(
    problem: &Problem,
    options: &SimplexOptions,
) -> Result<(Solution, Basis, RetainedRev), LpError> {
    let tol = options.tolerance;
    let mut rev = build_cold(problem)?;
    let max_iterations = auto_iteration_cap(options, rev.f.m, rev.f.n_real);
    let mut iterations = 0usize;

    run_phase(
        &mut rev,
        true,
        tol,
        max_iterations,
        options.stall_limit,
        &mut iterations,
    )?;
    if objective(&rev, true) > 1e-6 {
        return Err(LpError::Infeasible);
    }
    drive_out_artificials(&mut rev)?;
    for j in rev.f.art_start..rev.f.width {
        rev.f.upper[j] = 0.0;
    }
    run_phase(
        &mut rev,
        false,
        tol,
        max_iterations,
        options.stall_limit,
        &mut iterations,
    )?;
    check_residual(&rev)?;
    let solution = extract_solution(&rev, problem, iterations);
    let basis = export_basis(&rev, problem.num_vars());
    let retained = RetainedRev {
        rev,
        saved: Saved::default(),
    };
    Ok((solution, basis, retained))
}

/// All basic values within their (working-space) bounds?
fn primal_feasible(rev: &Rev, tol: f64) -> bool {
    (0..rev.f.m).all(|r| {
        let b = rev.beta[r];
        let ub = rev.f.upper[rev.basis[r]];
        b >= -tol && (!ub.is_finite() || b <= ub + tol)
    })
}

/// Bounded-variable dual simplex on the revised representation, mirroring
/// the dense `dual_repair` step for step. [`Repair::Undecided`] — caller
/// falls back to a cold solve — on lost dual feasibility, a stalled
/// repair, or a violated row with no entering candidate whose Farkas
/// certificate is not macroscopic (see
/// [`crate::simplex::certifies_infeasible`]); [`Repair::Infeasible`] when
/// it is.
fn dual_repair(rev: &mut Rev, iterations: &mut usize) -> Repair {
    const FEAS_TOL: f64 = 1e-7;
    let m = rev.f.m;
    let step_cap = 4 * m + 50;
    let mut steps = 0usize;
    let mut y = vec![0.0f64; m];
    let mut rho = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    loop {
        // Leaving row: largest bound violation (ties: lowest row).
        let mut worst: Option<(usize, f64, bool)> = None;
        for r in 0..m {
            let b = rev.beta[r];
            let ub = rev.f.upper[rev.basis[r]];
            let (violation, at_upper) = if b < -FEAS_TOL {
                (-b, false)
            } else if ub.is_finite() && b > ub + FEAS_TOL {
                (b - ub, true)
            } else {
                continue;
            };
            if worst.is_none_or(|(_, wv, _)| violation > wv) {
                worst = Some((r, violation, at_upper));
            }
        }
        let Some((r, violation, at_upper)) = worst else {
            return Repair::Feasible; // primal feasible again
        };
        if steps >= step_cap {
            return Repair::Undecided;
        }
        // Price pre-flip: a basic-variable complement leaves reduced costs
        // unchanged, and the dense engine's post-flip pivot row is exactly
        // the negated `B⁻¹A` row, handled below via `sgn`.
        for (i, slot) in y.iter_mut().enumerate() {
            *slot = rev.f.effective_cost2(rev.basis[i]);
        }
        rev.lu.btran(&mut y);
        for v in rho.iter_mut() {
            *v = 0.0;
        }
        rho[r] = 1.0;
        rev.lu.btran(&mut rho);
        rev.work += 2 * rev.f.a.nnz() as u64;
        let sgn = if at_upper { -1.0 } else { 1.0 };
        let mut entering: Option<(f64, usize)> = None;
        // The most the non-basic columns can move row `r` towards its
        // bound, for the certificate below.
        let mut reach = 0.0f64;
        for j in 0..rev.f.n_real {
            if rev.in_basis[j] || rev.f.upper[j] <= 0.0 {
                continue;
            }
            let dj = rev.f.effective_cost2(j) - rev.f.a.col_dot(j, &y);
            if dj < -1e-7 {
                return Repair::Undecided; // dual feasibility lost: repair unsound
            }
            let a = sgn * rev.f.a.col_dot(j, &rho);
            if a < 0.0 && rev.f.upper[j].is_finite() {
                reach -= a * rev.f.upper[j];
            }
            if a < -1e-9 {
                let ratio = dj.max(0.0) / -a;
                let better = match entering {
                    None => true,
                    Some((br, bj)) => ratio < br - 1e-12 || (ratio < br + 1e-12 && j < bj),
                };
                if better {
                    entering = Some((ratio, j));
                }
            }
        }
        let Some((_, j)) = entering else {
            // No candidate: `rho` is a Farkas multiplier for the row.
            let scale: f64 = rho.iter().zip(&rev.f.b).map(|(p, b)| (p * b).abs()).sum();
            return if certifies_infeasible(violation - reach, scale) {
                Repair::Infeasible
            } else {
                Repair::Undecided
            };
        };
        for v in w.iter_mut() {
            *v = 0.0;
        }
        rev.f.a.scatter_col(j, 1.0, &mut w);
        rev.lu.ftran(&mut w);
        let pivoted = if at_upper {
            flip_basic(rev, r);
            pivot_flipped(rev, r, j, &w)
        } else {
            pivot(rev, r, j, &w)
        };
        if pivoted.is_err() {
            return Repair::Undecided;
        }
        *iterations += 1;
        steps += 1;
        if rev.lu.needs_refactor() && refactor(rev).is_err() {
            return Repair::Undecided;
        }
    }
}

/// Primal phase 1 from a prescribed basis, mirroring the dense
/// `primal_repair` step for step: minimises the sum of the basic values'
/// bound violations (cost −1 below the lower bound, +1 above the upper),
/// with a ratio test that lets a violated value travel to the bound it
/// violates but not past a bound it respects. Needs no dual feasibility,
/// which a basis that has just had a column exchanged in does not have.
/// When no column reduces the violation any more, the phase-1 duals `y`
/// are a Farkas multiplier: [`Repair::Infeasible`] if the violation left
/// passes [`certifies_infeasible`] against `Σ|y_i·b_i|`. A violation
/// within that margin is rounding in the data (a frozen cap of `θ·C` with
/// `θ` on the 1e-9 grid), which the cold phase 1 accepts as well
/// ([`Repair::Feasible`]: phase 2 runs from there, and the safety net has
/// the last word) — also when degenerate steps stop reducing it
/// ([`Stall`]). [`Repair::Undecided`] at the step cap.
fn primal_repair(rev: &mut Rev, tol: f64, iterations: &mut usize) -> Repair {
    let m = rev.f.m;
    let step_cap = 4 * m + 50;
    let mut steps = 0usize;
    let mut y = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    let mut stall = Stall::default();
    loop {
        let mut gap = 0.0f64;
        for (i, slot) in y.iter_mut().enumerate() {
            let upper = rev.f.upper[rev.basis[i]];
            *slot = infeasibility(rev.beta[i], upper);
            gap += violation(*slot, rev.beta[i], upper);
        }
        if y.iter().all(|&c| c == 0.0) {
            return Repair::Feasible;
        }
        if steps >= step_cap {
            return Repair::Undecided;
        }
        rev.lu.btran(&mut y);
        let scale: f64 = y.iter().zip(&rev.f.b).map(|(y, b)| (y * b).abs()).sum();
        let noise = !certifies_infeasible(gap, scale);
        if noise && stall.stuck(gap) {
            return Repair::Feasible;
        }
        let mut entering: Option<(usize, f64)> = None;
        for j in 0..rev.f.n_real {
            if rev.in_basis[j] || rev.f.upper[j] <= 0.0 {
                continue;
            }
            let d = -rev.f.a.col_dot(j, &y);
            if d < -tol && entering.is_none_or(|(_, bd)| d < bd - PRICE_TIE * (1.0 + bd.abs())) {
                entering = Some((j, d));
            }
        }
        rev.work += rev.f.a.nnz() as u64 + m as u64;
        let Some((j, _)) = entering else {
            return if noise {
                Repair::Feasible
            } else {
                Repair::Infeasible
            };
        };
        for v in w.iter_mut() {
            *v = 0.0;
        }
        rev.f.a.scatter_col(j, 1.0, &mut w);
        rev.lu.ftran(&mut w);
        let mut best = rev.f.upper[j];
        let mut outcome = if best.is_finite() {
            RatioOutcome::Flip
        } else {
            RatioOutcome::Unbounded
        };
        let floor = pivot_floor(w.iter().copied(), rev.f.a.col_max(j));
        for (i, &a) in w.iter().enumerate() {
            let upper = rev.f.upper[rev.basis[i]];
            let Some((ratio, at_upper)) = phase1_block(rev.beta[i], upper, a, floor) else {
                continue;
            };
            let tie = RATIO_TIE * (1.0 + best.abs());
            let open = matches!(outcome, RatioOutcome::Flip | RatioOutcome::Unbounded);
            if ratio < best - tie || (ratio < best + tie && open) {
                best = ratio;
                outcome = if at_upper {
                    RatioOutcome::LeaveUpper(i)
                } else {
                    RatioOutcome::LeaveLower(i)
                };
            }
        }
        rev.work += m as u64;
        let pivoted = match outcome {
            RatioOutcome::Unbounded => return Repair::Undecided,
            RatioOutcome::Flip => {
                let u = rev.f.upper[j];
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        rev.beta[i] -= wi * u;
                    }
                }
                rev.flip(j);
                Ok(())
            }
            RatioOutcome::LeaveLower(r) => pivot(rev, r, j, &w),
            RatioOutcome::LeaveUpper(r) => {
                flip_basic(rev, r);
                pivot_flipped(rev, r, j, &w)
            }
        };
        if pivoted.is_err() {
            return Repair::Undecided;
        }
        *iterations += 1;
        steps += 1;
        if rev.lu.needs_refactor() && refactor(rev).is_err() {
            return Repair::Undecided;
        }
    }
}

/// What the warm path, a probe and a commit share once the basis stands
/// on the LP to solve: `mend` if the vertex is primal infeasible, then
/// phase 2, counting pivots into `iterations`. `Err` says how the attempt
/// ended short of an optimum.
fn settle(
    rev: &mut Rev,
    options: &SimplexOptions,
    mend: Mend,
    iterations: &mut usize,
) -> Result<(), WarmOutcome> {
    let max_iterations = auto_iteration_cap(options, rev.f.m, rev.f.n_real);
    if !primal_feasible(rev, 1e-7) {
        let repaired = match mend {
            Mend::Dual => match dual_repair(rev, iterations) {
                Repair::Undecided => primal_repair(rev, options.tolerance, iterations),
                decided => decided,
            },
            Mend::Primal => primal_repair(rev, options.tolerance, iterations),
        };
        match repaired {
            Repair::Feasible => {}
            Repair::Infeasible => return Err(WarmOutcome::Infeasible),
            Repair::Undecided => return Err(WarmOutcome::Undecided),
        }
    }
    run_phase(
        rev,
        false,
        options.tolerance,
        max_iterations,
        options.stall_limit,
        iterations,
    )
    .map_err(|_| WarmOutcome::Undecided)
}

/// The residual self-check and the feasibility safety net on a settled
/// basis, against `problem` with `patch` applied. Anything short of a
/// checked optimum is [`WarmOutcome::Undecided`]; the cold path
/// re-derives it authoritatively.
fn checked(rev: &Rev, problem: &Problem, patches: &[RowPatch], iterations: usize) -> WarmOutcome {
    if check_residual(rev).is_err() {
        return WarmOutcome::Undecided;
    }
    let solution = extract_solution(rev, problem, iterations);
    // Safety net: numerical trouble on the warm path must never leak an
    // infeasible "solution"; the cold path re-solves from scratch instead.
    if !problem.is_nearly_feasible(patches, &solution.x, 1e-6) {
        return WarmOutcome::Undecided;
    }
    WarmOutcome::Optimal(solution)
}

/// Attempts the warm path; `None` means "fall back to a cold solve".
/// Mirrors the dense `try_warm` contract: same compatibility checks, same
/// flip restoration, dual repair, phase-2 finish, and final feasibility
/// safety net — with the greedy tableau refactorization replaced by a
/// direct LU factorization of the prescribed basis (any nonsingular
/// arrangement of the prescribed column set reproduces the same vertex).
fn warm(problem: &Problem, options: &SimplexOptions, start: &Basis) -> Option<(Solution, Basis)> {
    if !start.fits(problem) {
        return None;
    }
    let mut f = SparseForm::build(problem).ok()?;
    if start.flipped.len() != f.n_real {
        return None;
    }
    // Range/duplicate check on the prescribed basic columns.
    let mut prescribed = vec![false; f.n_real];
    for &col in &start.rows {
        if let Some(j) = col {
            if j >= f.n_real || prescribed[j] {
                return None;
            }
            prescribed[j] = true;
        }
    }
    // The warm path never runs phase 1: bar artificials immediately. Rows
    // whose artificial stays basic get a zero upper bound, so any nonzero
    // beta there becomes a bound violation for the dual repair.
    for j in f.art_start..f.width {
        f.upper[j] = 0.0;
    }
    // Restore bound flips of non-basic columns.
    for (j, &basic) in prescribed.iter().enumerate() {
        if start.flipped[j] && !basic {
            if !f.upper[j].is_finite() {
                return None;
            }
            f.flip_column(j);
        }
    }
    let basis: Vec<usize> = start
        .rows
        .iter()
        .enumerate()
        .map(|(r, col)| col.unwrap_or(f.art_start + r))
        .collect();
    let mut in_basis = vec![false; f.width];
    for &b in &basis {
        in_basis[b] = true;
    }
    // A (near-)singular prescribed basis falls back to the cold solve,
    // like the dense greedy refactorization's no-progress bail-out.
    let mut lu = Factorization::factor(&f.a, &basis).ok()?;
    let mut beta = f.b.clone();
    lu.ftran(&mut beta);
    let mut rev = Rev {
        f,
        basis,
        in_basis,
        beta,
        lu,
        work: 0,
        trail: None,
    };
    let mut iterations = 0usize;
    let outcome = match settle(&mut rev, options, Mend::Dual, &mut iterations) {
        Ok(()) => checked(&rev, problem, &[], iterations),
        Err(outcome) => outcome,
    };
    match outcome {
        WarmOutcome::Optimal(solution) => {
            let basis = export_basis(&rev, problem.num_vars());
            Some((solution, basis))
        }
        WarmOutcome::Infeasible | WarmOutcome::Undecided => None,
    }
}

/// A cold solve's final state, kept so that one-row variations of its LP
/// are answered from it ([`probe`]) instead of from a rebuilt standard
/// form and a fresh factorization.
pub(crate) struct RetainedRev {
    rev: Rev,
    saved: Saved,
}

/// The snapshot half of an undo record: the dense vectors (a few hundred
/// words each), copied into buffers that are reused from probe to probe.
/// The matrix and the factors are far larger and are put back from the
/// [`Trail`] instead.
#[derive(Default)]
struct Saved {
    b: Vec<f64>,
    beta: Vec<f64>,
    basis: Vec<usize>,
}

/// The rest of a probe's or a commit's undo record: the scalars, the
/// matrix entries zeroed (with the value each held), and a column whose
/// upper bound was moved (with its old bound).
struct Mark {
    flip_const2: f64,
    etas: usize,
    work: u64,
    lu_work: u64,
    entries: Vec<(usize, f64)>,
    bound: Option<(usize, f64)>,
}

/// Starts an undo record of `state` and arms its trail.
fn mark(state: &mut RetainedRev) -> Mark {
    let RetainedRev { rev, saved } = state;
    saved.b.clone_from(&rev.f.b);
    saved.beta.clone_from(&rev.beta);
    saved.basis.clone_from(&rev.basis);
    rev.trail = Some(Trail::default());
    Mark {
        flip_const2: rev.f.flip_const2,
        etas: rev.lu.etas.len(),
        work: rev.work,
        lu_work: rev.lu.work,
        entries: Vec::new(),
        bound: None,
    }
}

/// Puts `state` back bit for bit as [`mark`] found it.
fn rollback(state: &mut RetainedRev, mark: Mark) {
    let RetainedRev { rev, saved } = state;
    let trail = rev.trail.take().unwrap_or_default();
    // Negation is exact, so re-complementing in reverse order restores
    // every stored value; `b` and the objective constant are not
    // (`b − a·u + a·u`), hence the snapshot. Entries are taken before
    // any complement, so they go back after the last one is undone.
    for &j in trail.flips.iter().rev() {
        rev.f.a.negate_col(j);
        rev.f.flipped[j] = !rev.f.flipped[j];
    }
    for &(k, value) in &mark.entries {
        rev.f.a.values[k] = value;
    }
    if let Some((j, upper)) = mark.bound {
        rev.f.upper[j] = upper;
    }
    for &j in &rev.basis {
        rev.in_basis[j] = false;
    }
    for &j in &saved.basis {
        rev.in_basis[j] = true;
    }
    rev.f.b.clone_from(&saved.b);
    rev.beta.clone_from(&saved.beta);
    rev.basis.clone_from(&saved.basis);
    rev.f.flip_const2 = mark.flip_const2;
    if let Some(parked) = trail.parked {
        rev.lu = parked;
    }
    rev.lu.etas.truncate(mark.etas);
    rev.lu.work = mark.lu_work;
    rev.work = mark.work;
}

/// Solves `problem` with `patch` applied, starting from the optimum
/// `state` retains, and puts `state` back bit for bit.
///
/// The patched LP differs from the retained one in one stored entry of
/// one column and one right-hand side, so the retained factorization is
/// one product-form eta away from a factorization of the patched basis.
pub(crate) fn probe(
    state: &mut RetainedRev,
    problem: &Problem,
    patch: &RowPatch,
    options: &SimplexOptions,
) -> WarmOutcome {
    let mut undo = mark(state);
    let patches = std::slice::from_ref(patch);
    let outcome = carry(
        &mut state.rev,
        &mut undo,
        problem,
        patches,
        options,
        Mend::Dual,
    );
    rollback(state, undo);
    outcome
}

/// Makes `state` the optimum of `problem` with `patches` applied — all of
/// one variable, ascending rows — starting from the retained vertex. On
/// an optimum the new state is kept; otherwise `state` is put back bit
/// for bit.
pub(crate) fn commit(
    state: &mut RetainedRev,
    problem: &Problem,
    patches: &[RowPatch],
    options: &SimplexOptions,
) -> WarmOutcome {
    let mut undo = mark(state);
    let outcome = carry(
        &mut state.rev,
        &mut undo,
        problem,
        patches,
        options,
        Mend::Primal,
    );
    match outcome {
        WarmOutcome::Optimal(_) => state.rev.trail = None,
        WarmOutcome::Infeasible | WarmOutcome::Undecided => rollback(state, undo),
    }
    outcome
}

/// What a probe and a commit do to `rev`, recording in `undo` what the
/// trail does not (the zeroed entries, a moved bound): moves `rev` from
/// the retained vertex onto the LP `problem` with `patches` applied, and
/// re-optimises there — by `mend` when the patched basis stands, by
/// primal phase 1 when [`unpin`] had to take the patched column out.
fn carry(
    rev: &mut Rev,
    undo: &mut Mark,
    problem: &Problem,
    patches: &[RowPatch],
    options: &SimplexOptions,
    mut mend: Mend,
) -> WarmOutcome {
    for patch in patches {
        undo.entries
            .extend(rev.f.a.take_entry(patch.row, patch.var));
    }
    for &RowPatch { row, var, rhs } in patches {
        let con = &problem.constraints[row];
        rev.f.b[row] = rev
            .f
            .row_rhs(row, &con.terms, Some(var), rhs, &problem.lower);
    }
    let var = patches.first().map(|patch| patch.var);
    if let Some((var, p)) =
        var.and_then(|var| Some((var, rev.basis.iter().position(|&j| j == var)?)))
    {
        // The basis column changed: B' = B·E(w) with w = B⁻¹·a'_var.
        let mut w = vec![0.0f64; rev.f.m];
        rev.f.a.scatter_col(var, 1.0, &mut w);
        rev.lu.ftran(&mut w);
        if w[p].abs() > PATCH_PIVOT_TOL {
            if rev.lu.update(p, &w).is_err() {
                return WarmOutcome::Undecided;
            }
        } else if unpin(rev, undo, problem, var, p, patches).is_some() {
            mend = Mend::Primal;
        } else {
            return WarmOutcome::Undecided;
        }
    }
    rev.beta.clone_from(&rev.f.b);
    rev.lu.ftran(&mut rev.beta);
    let mut iterations = 0usize;
    let mut settled = settle(rev, options, mend, &mut iterations);
    if let (Some(var), Some((_, upper))) = (var, undo.bound) {
        // Phase 1 proved the LP with `var` held infeasible, or phase 2
        // left it at the held value: neither says anything about the LP
        // itself. Give `var` its own bound back and, in those two cases,
        // go on from there.
        let held = !rev.in_basis[var] && rev.f.flipped[var];
        let proved = matches!(settled, Err(WarmOutcome::Infeasible));
        if settled.is_ok() || proved {
            if release(rev, var, upper).is_none() {
                return WarmOutcome::Undecided;
            }
            if held || proved {
                settled = settle(rev, options, Mend::Primal, &mut iterations);
            }
        }
    }
    if let Err(outcome) = settled {
        return outcome;
    }
    // A basis that moved is factored afresh and priced again before it is
    // trusted (and a commit keeps the fresh factors): a pivot on
    // cancellation noise — an entry of 1e-9 in a column of 6.6e5 at a
    // degenerate vertex — passes every incremental check and leaves a
    // singular basis, or a vertex phase 2 only believed optimal.
    if iterations > 0 && (refactor(rev).is_err() || !dual_feasible(rev)) {
        return WarmOutcome::Undecided;
    }
    checked(rev, problem, patches, iterations)
}

/// Whether no non-basic column prices below −1e-7 (the dual repair's
/// bound) from duals solved afresh: the optimality half of the check a
/// moved basis passes.
fn dual_feasible(rev: &mut Rev) -> bool {
    let mut y: Vec<f64> = rev
        .basis
        .iter()
        .map(|&b| rev.f.effective_cost2(b))
        .collect();
    rev.lu.btran(&mut y);
    rev.work += rev.f.a.nnz() as u64;
    (0..rev.f.n_real).all(|j| {
        rev.in_basis[j]
            || rev.f.upper[j] <= 0.0
            || rev.f.effective_cost2(j) - rev.f.a.col_dot(j, &y) >= -1e-7
    })
}

/// The basic column `var` at position `p` can no longer stand in the
/// basis (its patched column is a combination of the others — in a
/// lexmin round, `θ` once every row that pinned it is frozen). The slack
/// of the patched row with the largest `|(B⁻¹)_{p,row}|` takes its
/// position — or, when no patched row's slack can, the non-basic column
/// with the largest pivot — in one BTRAN and one eta, and `var` is held
/// non-basic at the value it had, as a temporary upper bound (recorded in
/// `undo`) it sits at. The old vertex is then a basic solution of the
/// patched LP again. `None` when no column can take the position.
fn unpin(
    rev: &mut Rev,
    undo: &mut Mark,
    problem: &Problem,
    var: usize,
    p: usize,
    patches: &[RowPatch],
) -> Option<()> {
    let m = rev.f.m;
    let mut rho = vec![0.0f64; m];
    rho[p] = 1.0;
    rev.lu.btran(&mut rho);
    let slacks = patches.iter().filter_map(|patch| {
        let slack = slack_of(problem, patch.row)?;
        (!rev.in_basis[slack]).then_some((slack, rho[patch.row]))
    });
    let entering = largest_pivot(slacks).or_else(|| {
        let columns = (0..rev.f.n_real).filter(|&j| !rev.in_basis[j] && rev.f.upper[j] > 0.0);
        largest_pivot(columns.map(|j| (j, rev.f.a.col_dot(j, &rho))))
    })?;
    let mut w = vec![0.0f64; m];
    rev.f.a.scatter_col(entering, 1.0, &mut w);
    rev.lu.ftran(&mut w);
    rev.lu.update(p, &w).ok()?;
    rev.in_basis[var] = false;
    rev.in_basis[entering] = true;
    rev.basis[p] = entering;
    let upper = rev.f.upper[var];
    let value = if rev.f.flipped[var] {
        upper - rev.beta[p]
    } else {
        rev.beta[p]
    };
    let at = held_value(value, upper);
    if rev.f.flipped[var] {
        rev.flip(var);
    }
    if at > 0.0 {
        if at < upper {
            undo.bound = Some((var, upper));
            rev.f.upper[var] = at;
        }
        rev.flip(var);
    }
    Some(())
}

/// Gives `var` its own upper bound back after phase 1 or phase 2 ran
/// under the temporary one [`unpin`] set. A basic `var` keeps its value
/// and is un-complemented in place (its column negated back: one eta,
/// `−e_p`); a non-basic one at its lower bound stays there; one at the
/// temporary bound moves to its own upper bound (or, if that is
/// infinite, to its lower one), and `beta` is solved afresh.
fn release(rev: &mut Rev, var: usize, upper: f64) -> Option<()> {
    match rev.basis.iter().position(|&j| j == var) {
        Some(p) if rev.f.flipped[var] => {
            flip_basic(rev, p);
            let mut w = vec![0.0f64; rev.f.m];
            w[p] = -1.0;
            rev.lu.update(p, &w).ok()?;
        }
        None if rev.f.flipped[var] => {
            rev.flip(var);
            rev.f.upper[var] = upper;
            if upper.is_finite() {
                rev.flip(var);
            }
            rev.beta.clone_from(&rev.f.b);
            rev.lu.ftran(&mut rev.beta);
        }
        Some(_) | None => {}
    }
    rev.f.upper[var] = upper;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Relation, VarId};
    use crate::simplex::{Probe, SimplexEngine, NAIVE_CERTIFICATE};

    /// Deterministic LCG stream in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as f64) / (u32::MAX as f64 + 1.0)
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.next() * n as f64) as usize).min(n - 1)
        }
    }

    /// A random bounded LP: mixed-sign costs, finite boxes with some
    /// non-zero lower bounds, `≤` rows that keep the origin-ish corner
    /// feasible plus a few `≥` / `=` rows through a known interior point.
    fn random_lp(seed: u64) -> Problem {
        let mut rng = Lcg(seed);
        let n = 4 + rng.below(7);
        let m = 3 + rng.below(6);
        let mut p = Problem::new();
        let mut point = Vec::new();
        let vars: Vec<VarId> = (0..n)
            .map(|_| {
                let lower = if rng.below(4) == 0 { 1.0 } else { 0.0 };
                let upper = lower + 1.0 + rng.next() * 9.0;
                point.push(lower + (upper - lower) * rng.next());
                p.add_var(rng.next() * 4.0 - 2.0, lower, upper).unwrap()
            })
            .collect();
        for _ in 0..m {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .map(|&v| (v, rng.next() * 4.0 - 1.0))
                .filter(|&(_, c)| c.abs() > 0.5)
                .collect();
            if terms.is_empty() {
                continue;
            }
            let at_point: f64 = terms.iter().map(|&(v, c)| c * point[v.index()]).sum();
            match rng.below(6) {
                0 => p.add_constraint(&terms, Relation::Eq, at_point),
                1 => p.add_constraint(&terms, Relation::Ge, at_point - rng.next() * 3.0),
                _ => p.add_constraint(&terms, Relation::Le, at_point + rng.next() * 3.0),
            }
            .unwrap();
        }
        p
    }

    /// A random (row, variable of that row, rhs) patch of `p`.
    fn random_patch(p: &Problem, rng: &mut Lcg) -> (usize, VarId, f64) {
        let row = rng.below(p.num_constraints());
        let con = &p.constraints[row];
        let var = con.terms[rng.below(con.terms.len())].0;
        (row, VarId(var), con.rhs + rng.next() * 12.0 - 6.0)
    }

    fn opts_for(engine: SimplexEngine) -> SimplexOptions {
        SimplexOptions {
            engine: Some(engine),
            ..SimplexOptions::default()
        }
    }

    /// The headline property: a probe answers like a cold solve of the
    /// patched problem, on both engines, and the two engines' probes land
    /// in the same class with the same pivot count.
    #[test]
    fn probe_equals_cold_solve_of_the_patched_lp() {
        let (mut probes, mut undecided, mut infeasible) = (0usize, 0usize, 0usize);
        for seed in 0..300u64 {
            let p = random_lp(0x9e37_79b9 ^ seed.wrapping_mul(0x1000_0001));
            let sparse = p.clone().solve_retained(&opts_for(SimplexEngine::Sparse));
            let dense = p.clone().solve_retained(&opts_for(SimplexEngine::Dense));
            let (Ok((_, mut sparse)), Ok((_, mut dense))) = (sparse, dense) else {
                continue;
            };
            let mut rng = Lcg(seed ^ 0xabcd);
            for _ in 0..6 {
                let (row, var, rhs) = random_patch(&p, &mut rng);
                let patch = p.row_patch(row, var, rhs).unwrap();
                let cold = p.patched(&patch).solve();
                let s = sparse.probe(row, var, rhs).unwrap();
                let d = dense.probe(row, var, rhs).unwrap();
                probes += 1;
                for (engine, got) in [("sparse", s), ("dense", d)] {
                    match (got, &cold) {
                        (Probe::Optimal { objective, .. }, Ok(c)) => assert!(
                            (objective - c.objective).abs() <= 1e-9 * (1.0 + c.objective.abs()),
                            "seed {seed} {engine}: probe {objective} vs cold {}",
                            c.objective
                        ),
                        (Probe::Infeasible, Err(LpError::Infeasible)) => {}
                        (Probe::Undecided, _) => {}
                        (got, cold) => panic!("seed {seed} {engine}: {got:?} vs cold {cold:?}"),
                    }
                }
                assert_eq!(s, d, "seed {seed}: engines answered differently");
                undecided += usize::from(s == Probe::Undecided);
                infeasible += usize::from(s == Probe::Infeasible);
            }
        }
        assert!(probes >= 1000, "corpus too small: {probes}");
        assert!(
            infeasible * 20 >= probes,
            "no infeasible patches: {infeasible}"
        );
        // Random patches are far harsher than a necessity trial: most
        // remove a *basic* variable from a row it is pinned by, which
        // leaves the column set singular (two thirds of the undecided) or
        // costs dual feasibility (the rest). Measured: 500 of 1 800.
        assert!(
            undecided * 3 <= probes,
            "{undecided} of {probes} probes undecided"
        );
    }

    /// Everything a probe touches, as bits.
    #[derive(Debug, PartialEq)]
    struct Bits {
        values: Vec<u64>,
        b: Vec<u64>,
        beta: Vec<u64>,
        basis: Vec<usize>,
        in_basis: Vec<bool>,
        flipped: Vec<bool>,
        flip_const2: u64,
        etas: usize,
        l_cols: Vec<Vec<(usize, u64)>>,
        work: (u64, u64),
    }

    fn bits(state: &RetainedRev) -> Bits {
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let rev = &state.rev;
        Bits {
            values: to_bits(&rev.f.a.values),
            b: to_bits(&rev.f.b),
            beta: to_bits(&rev.beta),
            basis: rev.basis.clone(),
            in_basis: rev.in_basis.clone(),
            flipped: rev.f.flipped.clone(),
            flip_const2: rev.f.flip_const2.to_bits(),
            etas: rev.lu.etas.len(),
            l_cols: rev
                .lu
                .l_cols
                .iter()
                .map(|col| col.iter().map(|&(r, v)| (r, v.to_bits())).collect())
                .collect(),
            work: (rev.work, rev.lu.work),
        }
    }

    fn sparse_probe(state: &mut RetainedRev, p: &Problem, patch: (usize, VarId, f64)) -> Probe {
        let patch = p.row_patch(patch.0, patch.1, patch.2).unwrap();
        match probe(state, p, &patch, &SimplexOptions::default()) {
            WarmOutcome::Optimal(s) => Probe::Optimal {
                objective: s.objective,
                pivots: s.iterations,
            },
            WarmOutcome::Infeasible => Probe::Infeasible,
            WarmOutcome::Undecided => Probe::Undecided,
        }
    }

    /// Probe A, probe B, probe A again: the two A's are bit-identical and
    /// the retained state never moves.
    #[test]
    fn probes_leave_no_trace() {
        let mut pivoting = 0usize;
        for seed in 0..400u64 {
            let p = random_lp(0x51ce ^ seed.wrapping_mul(0x2545_f491));
            let Ok((_, _, mut state)) = cold_retained(&p, &SimplexOptions::default()) else {
                continue;
            };
            let before = bits(&state);
            let mut rng = Lcg(seed ^ 0x77);
            let a = random_patch(&p, &mut rng);
            let b = random_patch(&p, &mut rng);
            let first = sparse_probe(&mut state, &p, a);
            assert_eq!(bits(&state), before, "seed {seed}: probe A left a trace");
            sparse_probe(&mut state, &p, b);
            assert_eq!(bits(&state), before, "seed {seed}: probe B left a trace");
            let again = sparse_probe(&mut state, &p, a);
            assert_eq!(first, again, "seed {seed}: probe A is not repeatable");
            if let Probe::Optimal { pivots, .. } = first {
                pivoting += usize::from(pivots > 0);
            }
        }
        assert!(pivoting >= 20, "only {pivoting} probes moved the basis");
    }

    /// A probe that crosses the refactorization threshold rebuilds the
    /// factors of the *patched* basis mid-trial; the retained factors must
    /// come back all the same.
    #[test]
    fn probe_restores_across_a_refactorization() {
        let mut crossed = 0usize;
        for seed in 0..600u64 {
            let p = random_lp(0xfeed ^ seed.wrapping_mul(0x9e37_79b1));
            let Ok((_, _, mut state)) = cold_retained(&p, &SimplexOptions::default()) else {
                continue;
            };
            // Pad the eta file with identity updates up to one short of
            // the threshold: replacing a basic column then reaches it, and
            // the first pivot of the trial refactors.
            let mut unit = vec![0.0f64; state.rev.f.m];
            unit[0] = 1.0;
            while state.rev.lu.etas.len() + 1 < lu::REFACTOR_EVERY {
                state.rev.lu.update(0, &unit).unwrap();
            }
            let mut rng = Lcg(seed ^ 0x1234);
            let patch = random_patch(&p, &mut rng);
            if !state.rev.in_basis[patch.1.index()] {
                continue;
            }
            let before = bits(&state);
            let first = sparse_probe(&mut state, &p, patch);
            assert_eq!(bits(&state), before, "seed {seed}: factors not restored");
            assert_eq!(first, sparse_probe(&mut state, &p, patch), "seed {seed}");
            let cold = p
                .patched(&p.row_patch(patch.0, patch.1, patch.2).unwrap())
                .solve();
            if let (Probe::Optimal { objective, pivots }, Ok(c)) = (first, cold) {
                assert!((objective - c.objective).abs() <= 1e-9 * (1.0 + c.objective.abs()));
                crossed += usize::from(pivots > 0);
            }
        }
        assert!(crossed >= 10, "only {crossed} trials refactored mid-probe");
    }

    /// The leveling LP of `tests/warm_start_props.rs`'s replay case 27 in
    /// its second lexmin round: 11 slots of `[10, 10240]`, tasks of
    /// `[1, 1024]`, slots 8–10 frozen at the quantized level
    /// `θ·C = 0.833333333·C` of the round before. Returns the problem, `θ`
    /// and the row of slot 5's core load.
    fn case_27() -> (Problem, VarId, usize) {
        // (window start, window end, demand, per-slot cap)
        let jobs = [
            (1usize, 2usize, 5.0, 5.0),
            (2, 8, 12.0, 4.0),
            (0, 5, 10.0, 2.0),
            (1, 6, 3.0, 3.0),
            (8, 11, 25.0, 25.0),
        ];
        let mut p = Problem::new();
        let theta = p.add_var(1.0, 0.0, 1.0).unwrap();
        let mut loads: Vec<Vec<VarId>> = vec![Vec::new(); 11];
        for &(start, end, demand, cap) in &jobs {
            let vars: Vec<VarId> = (start..end)
                .map(|_| p.add_var(0.0, 0.0, cap).unwrap())
                .collect();
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Relation::Eq, demand).unwrap();
            for (&v, slot) in vars.iter().zip(&mut loads[start..end]) {
                slot.push(v);
            }
        }
        let mut probed_row = 0;
        for (t, vars) in loads.iter().enumerate() {
            for (req, cap) in [(1.0, 10.0), (1024.0, 10240.0)] {
                let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, req)).collect();
                let row = if t >= 8 {
                    let frozen = if req == 1.0 {
                        8.33333333
                    } else {
                        8533.33332992
                    };
                    p.add_constraint(&terms, Relation::Le, frozen)
                } else {
                    terms.push((theta, -cap));
                    p.add_constraint(&terms, Relation::Le, 0.0)
                }
                .unwrap();
                if (t, req) == (5, 1.0) {
                    probed_row = row;
                }
            }
        }
        (p, theta, probed_row)
    }

    /// Regression for the certificate's margin. The frozen caps of slots
    /// 8–10 sum to 24.99999999 core-slots against a demand of 25, so the
    /// main optimum already carries a memory-row slack of −1.0e-5 — within
    /// every tolerance of the cold solve, which finds the trial feasible
    /// at `θ = 0.7`. The dual repair meets that row with no entering
    /// candidate; read against the absolute 1e-7 it "proves"
    /// infeasibility and the freeze decision flips. Within the margin the
    /// repair cannot decide, and primal phase 1 from where it stopped
    /// reads the row as the rounding it is: the probe answers 0.7.
    #[test]
    fn case_27_rounding_in_a_frozen_row_is_not_a_certificate() {
        let (p, theta, row) = case_27();
        let cold = p.patched(&p.row_patch(row, theta, 6.5).unwrap()).solve();
        assert!((cold.unwrap().objective - 0.7).abs() < 1e-9);
        for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
            let (main, mut optimum) = p.clone().solve_retained(&opts_for(engine)).unwrap();
            assert!((main.objective - 0.7).abs() < 1e-9);
            match optimum.probe(row, theta, 6.5) {
                Ok(Probe::Optimal { objective, .. }) => {
                    assert!((objective - 0.7).abs() < 1e-9, "{engine:?}: {objective}")
                }
                other => panic!("{engine:?}: {other:?}"),
            }
            // Not vacuous: the naive reading of the same row is wrong.
            NAIVE_CERTIFICATE.set(true);
            let naive = optimum.probe(row, theta, 6.5);
            NAIVE_CERTIFICATE.set(false);
            assert_eq!(naive, Ok(Probe::Infeasible), "{engine:?}");
        }
    }

    /// `max 3x + 5y` over `x ≤ 4`, `2y ≤ 12`, `3x + 2y ≤ 18`: returns the
    /// problem, `y`, and the row of the third constraint.
    fn textbook() -> (Problem, VarId, usize) {
        let mut p = Problem::new();
        let x = p.add_var(-3.0, 0.0, f64::INFINITY).unwrap();
        let y = p.add_var(-5.0, 0.0, f64::INFINITY).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        let row = p
            .add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        (p, y, row)
    }

    #[test]
    fn probe_refuses_a_row_out_of_range() {
        let (p, y, _) = textbook();
        let (_, mut optimum) = p
            .clone()
            .solve_retained(&SimplexOptions::default())
            .unwrap();
        let len = p.num_constraints();
        assert_eq!(
            optimum.probe(len, y, 1.0),
            Err(LpError::RowOutOfRange { row: len, len })
        );
    }

    #[test]
    fn probe_refuses_a_variable_absent_from_the_row() {
        let (p, y, row) = textbook();
        let (_, mut optimum) = p
            .clone()
            .solve_retained(&SimplexOptions::default())
            .unwrap();
        // Row 0 is `x ≤ 4`: no y in it.
        assert_eq!(
            optimum.probe(0, y, 1.0),
            Err(LpError::VarNotInRow { var: 1, row: 0 })
        );
        let beyond = VarId(p.num_vars());
        assert_eq!(
            optimum.probe(row, beyond, 1.0),
            Err(LpError::VarOutOfRange {
                var: p.num_vars(),
                len: p.num_vars()
            })
        );
    }

    #[test]
    fn probe_refuses_a_non_finite_rhs() {
        let (p, y, row) = textbook();
        let (_, mut optimum) = p
            .clone()
            .solve_retained(&SimplexOptions::default())
            .unwrap();
        for rhs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                optimum.probe(row, y, rhs),
                Err(LpError::NonFiniteCoefficient)
            );
        }
        // A refused probe ran nothing: the next one still answers
        // (`3x ≤ 9` instead of `3x + 2y ≤ 18`: x = 3, y = 6).
        assert_eq!(
            optimum.probe(row, y, 9.0),
            Ok(Probe::Optimal {
                objective: -39.0,
                pivots: 0
            })
        );
    }

    /// A random leveling LP, the shape every lexmin round solves: `θ`
    /// (cost 1, in `[0, 1]`), per-slot allocations of a few jobs with
    /// windows and per-slot caps, one demand row per job and one load row
    /// `Σ x − C·θ ≤ 0` per slot some window reaches. Returns the problem,
    /// `θ`, and each load row with its slot's capacity.
    fn random_leveling(seed: u64) -> (Problem, VarId, Vec<(usize, f64)>) {
        let mut rng = Lcg(seed);
        let horizon = 4 + rng.below(6);
        let caps: Vec<f64> = (0..horizon).map(|_| (5 + rng.below(6)) as f64).collect();
        let mut p = Problem::new();
        let theta = p.add_var(1.0, 0.0, 1.0).unwrap();
        let mut by_slot: Vec<Vec<VarId>> = vec![Vec::new(); horizon];
        for _ in 0..2 + rng.below(5) {
            let start = rng.below(horizon);
            let end = (start + 1 + rng.below(4)).min(horizon);
            let cap = 2 + rng.below(4);
            let demand = 1 + rng.below(cap * (end - start));
            let vars: Vec<VarId> = (start..end)
                .map(|_| p.add_var(0.0, 0.0, cap as f64).unwrap())
                .collect();
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Relation::Eq, demand as f64)
                .unwrap();
            for (&v, slot) in vars.iter().zip(&mut by_slot[start..end]) {
                slot.push(v);
            }
        }
        let mut rows = Vec::new();
        for (t, vars) in by_slot.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            terms.push((theta, -caps[t]));
            let row = p.add_constraint(&terms, Relation::Le, 0.0).unwrap();
            rows.push((row, caps[t]));
        }
        (p, theta, rows)
    }

    /// What a lexmin round freezes from the optimum `x`: every load row
    /// not yet frozen whose load sits at the peak `θ`, capped at its level.
    fn peak_caps(
        p: &Problem,
        x: &[f64],
        theta: VarId,
        rows: &[(usize, f64)],
        frozen: &[usize],
    ) -> Vec<(usize, f64)> {
        let level = x[theta.index()];
        rows.iter()
            .filter(|(row, _)| !frozen.contains(row))
            .filter_map(|&(row, cap)| {
                let load: f64 = p.constraints[row]
                    .terms
                    .iter()
                    .filter(|&&(v, _)| v != theta.index())
                    .map(|&(v, a)| a * x[v])
                    .sum();
                (load >= (level - 1e-7) * cap).then_some((row, level * cap))
            })
            .collect()
    }

    fn outcome(outcome: WarmOutcome) -> Option<Solution> {
        match outcome {
            WarmOutcome::Optimal(solution) => Some(solution),
            WarmOutcome::Infeasible | WarmOutcome::Undecided => None,
        }
    }

    /// The headline property of a commit, in the order lexmin issues them:
    /// round after round, the peak rows are frozen at their level and the
    /// retained optimum re-optimised in place. Every commit that decides
    /// equals a cold solve of the LP with all commits so far applied; the
    /// dense oracle decides the same commits in the same pivots; one that
    /// does not decide leaves the retained state bit for bit as it was.
    #[test]
    fn commits_equal_cold_solves_of_the_patched_lp() {
        let (mut commits, mut decided, mut pinned) = (0usize, 0usize, 0usize);
        for seed in 0..300u64 {
            let (p, theta, rows) = random_leveling(0x5eed ^ seed.wrapping_mul(0x9e37_79b9));
            let options = SimplexOptions::default();
            let Ok((first, _, mut state)) = cold_retained(&p, &options) else {
                continue;
            };
            let (_, mut dense) = p
                .clone()
                .solve_retained(&opts_for(SimplexEngine::Dense))
                .unwrap();
            let mut current = p.clone();
            let mut frozen = Vec::new();
            let mut x = first.x;
            for round in 1..4 {
                let caps = peak_caps(&p, &x, theta, &rows, &frozen);
                if caps.is_empty() || x[theta.index()] <= 1e-9 {
                    break;
                }
                let patches: Vec<RowPatch> = caps
                    .iter()
                    .map(|&(row, rhs)| current.row_patch(row, theta, rhs).unwrap())
                    .collect();
                let mut next = current.clone();
                for patch in &patches {
                    next.apply(patch);
                }
                pinned += usize::from(state.rev.in_basis[theta.index()]);
                let before = bits(&state);
                let s = outcome(commit(&mut state, &current, &patches, &options));
                let d = dense.commit(theta, &caps).unwrap();
                commits += 1;
                let tag = format!("seed {seed} round {round}");
                assert_eq!(
                    s.as_ref().map(|s| s.iterations),
                    d.as_ref().map(|d| d.iterations),
                    "{tag}: engines split"
                );
                let Some(s) = s else {
                    assert_eq!(bits(&state), before, "{tag}: undecided commit left a trace");
                    break;
                };
                decided += 1;
                let cold = next.solve().unwrap_or_else(|e| panic!("{tag}: cold {e}"));
                assert!(
                    (s.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                    "{tag}: commit {} vs cold {}",
                    s.objective,
                    cold.objective
                );
                assert!(
                    next.is_feasible(&s.x, 1e-6),
                    "{tag}: commit vertex infeasible"
                );
                frozen.extend(caps.iter().map(|&(row, _)| row));
                current = next;
                x = s.x;
            }
        }
        assert!(commits >= 300, "corpus too small: {commits}");
        assert_eq!(decided, commits, "{decided} of {commits} commits decided");
        // The case the commit exists for: θ basic, its column left with no
        // entry a frozen row pins it by.
        assert!(pinned * 2 >= commits, "θ basic in {pinned} of {commits}");
    }

    /// Commits of arbitrary rows of arbitrary LPs: several rows of one
    /// variable at once, right-hand sides moved anywhere. A commit that
    /// decides equals the cold solve; one on an infeasible LP never
    /// decides; both engines agree on which and in how many pivots.
    #[test]
    fn random_commits_are_exact_or_undecided() {
        let (mut feasible, mut infeasible, mut decided) = (0usize, 0usize, 0usize);
        for seed in 0..300u64 {
            let p = random_lp(0xc0de ^ seed.wrapping_mul(0x2545_f491));
            let sparse = p.clone().solve_retained(&opts_for(SimplexEngine::Sparse));
            let dense = p.clone().solve_retained(&opts_for(SimplexEngine::Dense));
            let (Ok((_, mut sparse)), Ok((_, mut dense))) = (sparse, dense) else {
                continue;
            };
            let mut rng = Lcg(seed ^ 0x5151);
            let mut current = p.clone();
            for step in 0..3 {
                let rows: Vec<usize> = (0..current.num_constraints())
                    .filter(|&i| !current.constraints[i].terms.is_empty())
                    .collect();
                let row = rows[rng.below(rows.len())];
                let con = &current.constraints[row];
                let var = VarId(con.terms[rng.below(con.terms.len())].0);
                let mut caps: Vec<(usize, f64)> = Vec::new();
                for (i, con) in current.constraints.iter().enumerate() {
                    let has = con.terms.iter().any(|&(v, _)| v == var.index());
                    if has && caps.len() < 3 && (i == row || rng.below(2) == 0) {
                        caps.push((i, con.rhs + rng.next() * 8.0 - 4.0));
                    }
                }
                let mut next = current.clone();
                for &(row, rhs) in &caps {
                    next.apply(&next.row_patch(row, var, rhs).unwrap());
                }
                let cold = next.solve();
                let s = sparse.commit(var, &caps).unwrap();
                let d = dense.commit(var, &caps).unwrap();
                feasible += usize::from(cold.is_ok());
                infeasible += usize::from(cold == Err(LpError::Infeasible));
                let tag = format!("seed {seed} step {step}");
                assert_eq!(
                    s.as_ref().map(|s| s.iterations),
                    d.as_ref().map(|d| d.iterations),
                    "{tag}: engines split"
                );
                match (&s, &cold) {
                    (Some(s), Ok(c)) => assert!(
                        (s.objective - c.objective).abs() <= 1e-9 * (1.0 + c.objective.abs()),
                        "{tag}: commit {} vs cold {}",
                        s.objective,
                        c.objective
                    ),
                    (Some(s), Err(e)) => panic!("{tag}: committed {} where cold {e}", s.objective),
                    (None, _) => continue,
                }
                decided += 1;
                current = next;
            }
        }
        assert!(
            infeasible >= 300,
            "too few infeasible commits: {infeasible}"
        );
        // Measured: all 271 feasible commits decide (and 629 infeasible).
        assert!(
            decided * 10 >= feasible * 9,
            "{decided} of {feasible} feasible commits decided"
        );
    }

    /// A probe of a committed optimum answers like a cold solve of the LP
    /// with every commit and the probe's own patch applied, and leaves the
    /// committed state bit for bit as it found it.
    #[test]
    fn probes_of_a_committed_optimum_are_exact_and_leave_no_trace() {
        let mut probes = 0usize;
        for seed in 0..200u64 {
            let (p, theta, rows) = random_leveling(0xbead ^ seed.wrapping_mul(0x9e37_79b9));
            let options = SimplexOptions::default();
            let Ok((first, _, mut state)) = cold_retained(&p, &options) else {
                continue;
            };
            let (_, mut dense) = p
                .clone()
                .solve_retained(&opts_for(SimplexEngine::Dense))
                .unwrap();
            let caps = peak_caps(&p, &first.x, theta, &rows, &[]);
            if caps.is_empty() {
                continue;
            }
            let patches: Vec<RowPatch> = caps
                .iter()
                .map(|&(row, rhs)| p.row_patch(row, theta, rhs).unwrap())
                .collect();
            let mut committed = p.clone();
            for patch in &patches {
                committed.apply(patch);
            }
            if outcome(commit(&mut state, &p, &patches, &options)).is_none() {
                continue;
            }
            dense.commit(theta, &caps).unwrap();
            let before = bits(&state);
            let mut rng = Lcg(seed ^ 0x3c3c);
            for _ in 0..4 {
                let patch = random_patch(&committed, &mut rng);
                let cold = committed
                    .patched(&committed.row_patch(patch.0, patch.1, patch.2).unwrap())
                    .solve();
                let s = sparse_probe(&mut state, &committed, patch);
                assert_eq!(bits(&state), before, "seed {seed}: the probe left a trace");
                let d = dense.probe(patch.0, patch.1, patch.2).unwrap();
                match (s, d) {
                    (
                        Probe::Optimal { objective, pivots },
                        Probe::Optimal {
                            objective: o,
                            pivots: p,
                        },
                    ) => assert!(
                        pivots == p && (objective - o).abs() <= 1e-8,
                        "seed {seed}: sparse {s:?} vs dense {d:?}"
                    ),
                    _ => assert_eq!(s, d, "seed {seed}: engines answered differently"),
                }
                match (s, &cold) {
                    (Probe::Optimal { objective, .. }, Ok(c)) => assert!(
                        (objective - c.objective).abs() <= 1e-9 * (1.0 + c.objective.abs()),
                        "seed {seed}: probe {objective} vs cold {}",
                        c.objective
                    ),
                    (Probe::Infeasible, Err(LpError::Infeasible)) | (Probe::Undecided, _) => {}
                    (got, cold) => panic!("seed {seed}: {got:?} vs cold {cold:?}"),
                }
                probes += 1;
            }
        }
        assert!(probes >= 300, "corpus too small: {probes}");
    }

    /// A commit that does not address the problem is refused before
    /// anything runs, as a probe is — a row named twice included — and the
    /// retained optimum still answers afterwards.
    #[test]
    fn commit_refusals_are_typed_and_change_nothing() {
        let (p, y, row) = textbook();
        let (_, mut optimum) = p
            .clone()
            .solve_retained(&SimplexOptions::default())
            .unwrap();
        let len = p.num_constraints();
        assert_eq!(
            optimum.commit(y, &[(len, 1.0)]),
            Err(LpError::RowOutOfRange { row: len, len })
        );
        assert_eq!(
            optimum.commit(y, &[(0, 1.0)]),
            Err(LpError::VarNotInRow { var: 1, row: 0 })
        );
        let beyond = VarId(p.num_vars());
        assert_eq!(
            optimum.commit(beyond, &[(row, 1.0)]),
            Err(LpError::VarOutOfRange {
                var: p.num_vars(),
                len: p.num_vars()
            })
        );
        assert_eq!(
            optimum.commit(y, &[(row, f64::NAN)]),
            Err(LpError::NonFiniteCoefficient)
        );
        assert_eq!(
            optimum.commit(y, &[(row, 9.0), (row, 8.0)]),
            Err(LpError::VarNotInRow { var: 1, row })
        );
        // Nothing ran: the probe answers as it did before any refusal, and
        // the commit it previews lands (`3x ≤ 9`: x = 3, y = 6).
        assert_eq!(
            optimum.probe(row, y, 9.0),
            Ok(Probe::Optimal {
                objective: -39.0,
                pivots: 0
            })
        );
        let committed = optimum.commit(y, &[(row, 9.0)]).unwrap().unwrap();
        assert_eq!(committed.objective, -39.0);
        // The committed row no longer holds `y`.
        assert_eq!(
            optimum.probe(row, y, 9.0),
            Err(LpError::VarNotInRow { var: 1, row })
        );
    }
}
