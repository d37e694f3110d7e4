//! Simplex front end: engine selection, the shared warm-start contract,
//! and the dense tableau oracle.
//!
//! Two engines implement the bounded-variable two-phase primal simplex:
//!
//! * [`SimplexEngine::Sparse`] — the revised simplex over a sparse
//!   LU-factored basis ([`crate::revised`]), the default.
//! * [`SimplexEngine::Dense`] — [`DenseOracle`], the original dense
//!   tableau implementation, kept as a differential-testing oracle behind
//!   the `oracle` feature (always available inside this crate's tests).
//!
//! Both keep every non-basic variable at one of its bounds. Rather than
//! tracking "at upper bound" as a separate state, a variable at its upper
//! bound is *complemented* (`x ↦ u − x`, a column negation), so all
//! non-basic variables sit at zero in the working space — this makes the
//! ratio test and pivoting identical to the textbook simplex while still
//! supporting finite upper bounds without extra constraint rows. Bound
//! flips (the entering variable reaching its own opposite bound) cost one
//! column negation and no pivot.
//!
//! In the dense oracle, reduced costs are maintained incrementally (`O(n)`
//! per pivot) and refreshed from scratch periodically — and whenever
//! optimality is about to be declared — to bound numerical drift.
//! Anti-cycling in both engines: Dantzig pricing by default, switching to
//! Bland's rule (with a fresh cost vector) after `stall_limit` iterations
//! without objective improvement, plus basis-repeat detection that turns a
//! genuine cycle into a typed [`LpError::Cycling`] instead of a hang.

use crate::error::LpError;
#[cfg(any(test, feature = "oracle"))]
use crate::problem::RowPatch;
use crate::problem::{Problem, Relation, VarId};
use crate::solution::Solution;
#[cfg(any(test, feature = "oracle"))]
use crate::solution::Status;
use std::collections::HashSet;
#[cfg(any(test, feature = "oracle"))]
use std::sync::atomic::{AtomicU8, Ordering};

/// Tuning knobs for [`solve`].
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases. `0` means "choose
    /// automatically from the problem size".
    pub max_iterations: usize,
    /// Feasibility / reduced-cost tolerance.
    pub tolerance: f64,
    /// Iterations without objective improvement before switching to
    /// Bland's rule. `usize::MAX` disables the Bland rescue, in which case
    /// a detected basis repeat reports [`LpError::Cycling`].
    pub stall_limit: usize,
    /// Engine override for this solve; `None` uses the sparse engine
    /// (or, in a build that has the dense oracle, whatever
    /// `set_default_engine` selected last).
    pub engine: Option<SimplexEngine>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 0,
            tolerance: 1e-9,
            stall_limit: 200,
            engine: None,
        }
    }
}

/// Selects which simplex implementation executes a solve.
///
/// Both engines walk the same pivot trajectory (same pricing, ratio test,
/// tolerances, and tie-breaks), so they are interchangeable — including
/// warm-start [`Basis`] hand-off between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimplexEngine {
    /// Sparse revised simplex with LU basis factorization (the default).
    Sparse,
    /// Dense tableau oracle. Exists only in this crate's own tests and
    /// under the `oracle` cargo feature, like the engine it names.
    #[cfg(any(test, feature = "oracle"))]
    Dense,
}

/// Process-wide default engine, so that a differential suite can run code
/// that never takes [`SimplexOptions`] (a whole scheduler) on either
/// engine. 0 = Sparse, 1 = Dense. A build without the dense oracle has one
/// engine and no switch.
#[cfg(any(test, feature = "oracle"))]
static DEFAULT_ENGINE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default [`SimplexEngine`] used when
/// [`SimplexOptions::engine`] is `None`.
#[cfg(any(test, feature = "oracle"))]
pub fn set_default_engine(engine: SimplexEngine) {
    let v = match engine {
        SimplexEngine::Sparse => 0,
        SimplexEngine::Dense => 1,
    };
    DEFAULT_ENGINE.store(v, Ordering::SeqCst);
}

/// The current process-wide default [`SimplexEngine`].
#[cfg(any(test, feature = "oracle"))]
pub fn default_engine() -> SimplexEngine {
    match DEFAULT_ENGINE.load(Ordering::SeqCst) {
        0 => SimplexEngine::Sparse,
        _ => SimplexEngine::Dense,
    }
}

/// The engine a solve under `options` runs on.
fn engine_for(options: &SimplexOptions) -> SimplexEngine {
    #[cfg(any(test, feature = "oracle"))]
    let fallback = default_engine();
    #[cfg(not(any(test, feature = "oracle")))]
    let fallback = SimplexEngine::Sparse;
    options.engine.unwrap_or(fallback)
}

/// The engine backend contract: a cold two-phase solve and a warm-start
/// attempt. `solve`/`solve_with_warm_start` layer the shared fallback
/// logic on top, so the two entry points behave identically across
/// engines.
pub(crate) trait SolverCore {
    fn solve_cold(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
    ) -> Result<(Solution, Basis), LpError>;
    fn try_warm(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
        start: &Basis,
    ) -> Option<(Solution, Basis)>;
}

fn core_for(engine: SimplexEngine) -> &'static dyn SolverCore {
    match engine {
        SimplexEngine::Sparse => &crate::revised::SparseRevised,
        #[cfg(any(test, feature = "oracle"))]
        SimplexEngine::Dense => &DenseOracle,
    }
}

/// Detects basis repeats during objective stalls. Two independently
/// seeded 64-bit FNV-style hashes of `(basis, flipped)` keep the false
/// positive probability negligible without storing full basis snapshots.
pub(crate) struct CycleDetector {
    seen: HashSet<(u64, u64)>,
}

impl CycleDetector {
    pub(crate) fn new() -> Self {
        CycleDetector {
            seen: HashSet::new(),
        }
    }

    /// Forget all recorded states (called when the objective improves: no
    /// cycle can span a strict improvement).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }

    /// Records the current basis state; `true` means it was seen before.
    pub(crate) fn record(&mut self, basis: &[usize], flipped: &[bool]) -> bool {
        let h1 = hash_state(basis, flipped, 0xcbf2_9ce4_8422_2325);
        let h2 = hash_state(basis, flipped, 0x9e37_79b9_7f4a_7c15);
        !self.seen.insert((h1, h2))
    }
}

fn hash_state(basis: &[usize], flipped: &[bool], seed: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for &b in basis {
        h = (h ^ (b as u64)).wrapping_mul(PRIME);
    }
    for &f in flipped {
        h = (h ^ (f as u64 + 2)).wrapping_mul(PRIME);
    }
    h ^ (h >> 31)
}

/// Which pricing rule is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pricing {
    Dantzig,
    Bland,
}

/// Relative tie window for Dantzig pricing. The two engines compute
/// reduced costs through different arithmetic (incrementally updated
/// tableau rows vs fresh BTRANs against the LU factors), so columns that
/// tie in exact arithmetic land a few ulps apart — and scheduling LPs are
/// full of exact ties (every allocation column costs zero). Treating
/// candidates within this window of the incumbent minimum as tied and
/// keeping the lowest-index column makes the pivot trajectory a function
/// of the instance, not of which engine's rounding noise is on top.
pub(crate) const PRICE_TIE: f64 = 1e-6;

/// Relative tie window for the ratio test, for the same reason as
/// [`PRICE_TIE`]: on degenerate vertices many rows tie at ratio zero, and
/// the computed ratios sit on accumulated-drift noise (up to ~1e-12 after
/// hundreds of tableau updates) rather than on zero exactly. Rows within
/// the window are tied; the scan keeps the earliest (under Bland, the
/// smallest basic index via `better_leave`), identically on both engines.
/// The window slightly relaxes the blocking test — a basic value may go
/// negative by up to `window × |pivot|`, well inside the 1e-7 feasibility
/// tolerance the engines already operate under.
pub(crate) const RATIO_TIE: f64 = 1e-6;

/// Degenerate-numerator snap for the ratio test. At a degenerate vertex
/// the blocking basic value is *exactly* zero in exact arithmetic, but the
/// incrementally maintained values carry accumulated drift (observed up to
/// ~1e-9 after a few hundred pivots, and different per engine). Numerators
/// below this threshold are treated as exact zeros so every degenerate row
/// prices a ratio of exactly 0.0 on both engines and ties resolve purely
/// by scan order. A genuinely tiny-but-nonzero basic value is driven
/// negative by at most this amount — inside the 1e-7 feasibility band.
pub(crate) const DEGEN_SNAP: f64 = 1e-7;

/// Snap an extracted solution value to a 1e-9 grid. After identical pivot
/// trajectories the two engines' final values still differ in the last
/// ulps; a value an ulp either side of a rounding boundary (e.g. 2.5)
/// would then round to different integers downstream. Quantizing both
/// engines' outputs to the same grid absorbs that noise (it is orders of
/// magnitude below solver tolerance) and makes rounded plans engine-exact.
pub(crate) fn quantize(v: f64) -> f64 {
    (v * 1e9).round() / 1e9
}

/// Outcome of one ratio test.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RatioOutcome {
    /// Entering variable reaches its own upper bound: flip, no pivot.
    Flip,
    /// Basic variable in this row reaches zero: standard pivot.
    LeaveLower(usize),
    /// Basic variable in this row reaches its upper bound: flip it, pivot.
    LeaveUpper(usize),
    /// No limit: the LP is unbounded in this direction.
    Unbounded,
}

/// How a dual repair ended.
pub(crate) enum Repair {
    /// Primal feasible again; phase 2 may finish.
    Feasible,
    /// A violated row no non-basic column can mend, by a macroscopic
    /// margin ([`certifies_infeasible`]): the LP has no feasible point.
    Infeasible,
    /// Lost dual feasibility, a stalled repair, or an unmendable row whose
    /// margin is within noise: only a cold solve can tell.
    Undecided,
}

/// Result of finishing a solve from a prescribed basis — the warm path's
/// and a probe's common currency.
pub(crate) enum WarmOutcome {
    /// A checked optimum.
    Optimal(Solution),
    /// Certified infeasible by the dual repair.
    Infeasible,
    /// Not decided here; the caller solves cold.
    Undecided,
}

/// Relative margin of the infeasibility certificate.
const CERT_MARGIN: f64 = 1e-6;

/// Whether a violated tableau row with no entering candidate proves the
/// LP infeasible. `gap` is the bound violation left after every non-basic
/// column has moved as far towards mending it as its bounds allow; `scale`
/// is `Σ|ρ_i·b_i|`, the magnitude of the terms that cancel into the row's
/// basic value `ρᵀb`. The gap must exceed [`CERT_MARGIN`] of that scale:
/// a violation that is small against the numbers it was computed from is
/// rounding in the data (a frozen cap of `θ·C` with `θ` on the 1e-9 grid
/// sits up to `C·5e-10` below the load that defined it), not a proof —
/// comparing it with the absolute 1e-7 feasibility tolerance reports
/// feasible LPs infeasible.
pub(crate) fn certifies_infeasible(gap: f64, scale: f64) -> bool {
    #[cfg(test)]
    if NAIVE_CERTIFICATE.get() {
        return gap > 1e-7;
    }
    gap > CERT_MARGIN * (1.0 + scale)
}

// Mutation switch for the certificate's regression test: reads the gap
// against the absolute feasibility tolerance, as a first version would.
#[cfg(test)]
thread_local! {
    pub(crate) static NAIVE_CERTIFICATE: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// How a prescribed basis whose vertex is not primal feasible is mended
/// before phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mend {
    /// Bounded dual simplex: the basis is dual feasible (a warm start, a
    /// probe), and a row it cannot mend is an infeasibility certificate.
    /// What it cannot decide goes on to primal phase 1.
    Dual,
    /// Primal phase 1 on the sum of infeasibilities: the basis need not be
    /// dual feasible (a commit, whose held column prices negative).
    Primal,
}

/// Bound violation below which a basic value counts as feasible, in the
/// repairs as in the `primal_feasible` check before them.
const FEAS_TOL: f64 = 1e-7;

/// Pivot of a column-replacement eta below which a patched basis counts
/// as singular (the threshold both engines factor a prescribed basis
/// with).
pub(crate) const PATCH_PIVOT_TOL: f64 = 1e-7;

/// The phase-1 cost of a basic value with working-space bounds `[0,
/// upper]`: −1 below the lower bound, +1 above the upper, 0 within.
pub(crate) fn infeasibility(beta: f64, upper: f64) -> f64 {
    if beta < -FEAS_TOL {
        -1.0
    } else if upper.is_finite() && beta > upper + FEAS_TOL {
        1.0
    } else {
        0.0
    }
}

/// Phase 1's progress watch: whether its violation has stopped falling
/// for [`Stall::STEPS`] steps in a row. Degenerate steps can circle a
/// violation of rounding size for as long as the step cap lets them;
/// once it is within noise, that is as feasible as the data allow.
#[derive(Default)]
pub(crate) struct Stall {
    best: Option<f64>,
    steps: usize,
}

impl Stall {
    const STEPS: usize = 50;

    /// Records this step's violation `gap`; `true` once it has not fallen
    /// below the best seen for [`Stall::STEPS`] steps.
    pub(crate) fn stuck(&mut self, gap: f64) -> bool {
        if self.best.is_none_or(|best| gap < best - 1e-12) {
            self.best = Some(gap);
            self.steps = 0;
        } else {
            self.steps += 1;
        }
        self.steps >= Self::STEPS
    }
}

/// How far a basic value lies outside `[0, upper]`, given its
/// [`infeasibility`] cost.
pub(crate) fn violation(cost: f64, beta: f64, upper: f64) -> f64 {
    if cost > 0.0 {
        beta - upper
    } else if cost < 0.0 {
        -beta
    } else {
        0.0
    }
}

/// The smallest entry of an entering column `B⁻¹a_j` the ratio tests
/// pivot on: 1e-9, or [`PIVOT_REL`] of the largest magnitude among its
/// entries and `a_j`'s own (`scale`) if that is more. An entry is a sum of
/// products of that size; on a 655 360 MB memory row `θ`'s column holds
/// 6.6e5, and an entry of 3e-9 in `B⁻¹a_θ` is cancellation noise at a
/// degenerate vertex — pivoting on it leaves a basis no fresh
/// factorization accepts.
pub(crate) fn pivot_floor(column: impl IntoIterator<Item = f64>, scale: f64) -> f64 {
    let largest = column.into_iter().fold(scale, |m, a| m.max(a.abs()));
    (PIVOT_REL * largest).max(1e-9)
}

/// See [`pivot_floor`].
const PIVOT_REL: f64 = 1e-12;

/// Phase 1's ratio test for one basic value `beta` (bounds `[0, upper]`)
/// whose tableau entry in the entering column is `a` (`floor` from
/// [`pivot_floor`]): the step at which it blocks, and whether it leaves
/// at its upper bound; `None` when it never blocks. A violated value
/// blocks on reaching the bound it violates; a value within its bounds
/// blocks on the bound it moves towards.
pub(crate) fn phase1_block(beta: f64, upper: f64, a: f64, floor: f64) -> Option<(f64, bool)> {
    let below = beta < -FEAS_TOL;
    let above = upper.is_finite() && beta > upper + FEAS_TOL;
    let (numer, at_upper) = if a > floor {
        // The entering column rises, this value falls.
        if below {
            return None;
        }
        if above {
            (beta - upper, true)
        } else {
            (beta.max(0.0), false)
        }
    } else if a < -floor {
        if above {
            return None;
        }
        if below {
            (-beta, false)
        } else if upper.is_finite() {
            ((upper - beta).max(0.0), true)
        } else {
            return None;
        }
    } else {
        return None;
    };
    let ratio = if numer < DEGEN_SNAP {
        0.0
    } else {
        numer / a.abs()
    };
    Some((ratio, at_upper))
}

/// The slack column of constraint `row` in both engines' standard form;
/// `None` for an equality row (or a row out of range).
pub(crate) fn slack_of(problem: &Problem, row: usize) -> Option<usize> {
    let cons = &problem.constraints;
    if cons.get(row)?.relation == Relation::Eq {
        return None;
    }
    let before = cons[..row]
        .iter()
        .filter(|c| c.relation != Relation::Eq)
        .count();
    Some(problem.num_vars() + before)
}

/// Which column takes the position of a basic column a patch left
/// singular: of `candidates` — `(column, its pivot at that position)` in
/// ascending column order — the largest pivot magnitude above
/// [`PATCH_PIVOT_TOL`], ties within [`RATIO_TIE`] to the lowest column,
/// so that both engines pick the same one.
pub(crate) fn largest_pivot(candidates: impl IntoIterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (column, pivot) in candidates {
        let mag = pivot.abs();
        if mag > PATCH_PIVOT_TOL && best.is_none_or(|(_, b)| mag > b + RATIO_TIE * (1.0 + b)) {
            best = Some((column, mag));
        }
    }
    best.map(|(column, _)| column)
}

/// The working-space value a column leaving the basis in a commit is held
/// at: its value clamped into `[0, upper]`.
pub(crate) fn held_value(value: f64, upper: f64) -> f64 {
    value.max(0.0).min(upper)
}

#[cfg(any(test, feature = "oracle"))]
struct Tableau {
    m: usize,
    /// Structural + slack columns (artificials excluded).
    n_real: usize,
    /// Total columns including artificials.
    width: usize,
    /// Row-major `m × width` tableau `B⁻¹A`.
    t: Vec<f64>,
    /// Current values of basic variables (`B⁻¹b` adjusted for flips).
    beta: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Upper bound of each column in the working (shifted) space.
    upper: Vec<f64>,
    /// Whether each column is currently complemented.
    flipped: Vec<bool>,
    /// Phase-2 cost of each column, in *original* (unflipped) orientation.
    cost2: Vec<f64>,
    /// Accumulated phase-2 objective constant from flips.
    flip_const2: f64,
    /// First artificial column index.
    art_start: usize,
    /// Largest coefficient magnitude of each column of the problem (1 for
    /// a slack or an artificial): the `scale` of [`pivot_floor`].
    col_max: Vec<f64>,
}

#[cfg(any(test, feature = "oracle"))]
impl Tableau {
    fn effective_cost2(&self, j: usize) -> f64 {
        if self.flipped[j] {
            -self.cost2[j]
        } else {
            self.cost2[j]
        }
    }

    fn effective_cost(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            // Artificials never flip (infinite upper bound).
            if j >= self.art_start {
                1.0
            } else {
                0.0
            }
        } else {
            self.effective_cost2(j)
        }
    }

    /// Current phase objective value (including flip constants in phase 2).
    fn objective(&self, phase1: bool) -> f64 {
        let mut z = if phase1 { 0.0 } else { self.flip_const2 };
        for (i, &b) in self.basis.iter().enumerate() {
            z += self.effective_cost(b, phase1) * self.beta[i];
        }
        z
    }

    /// Reduced costs `d_j = c_j − c_B·(B⁻¹a_j)` for all columns.
    fn reduced_costs(&self, phase1: bool) -> Vec<f64> {
        let mut d: Vec<f64> = (0..self.width)
            .map(|j| self.effective_cost(j, phase1))
            .collect();
        for i in 0..self.m {
            let cb = self.effective_cost(self.basis[i], phase1);
            if cb != 0.0 {
                let row = &self.t[i * self.width..(i + 1) * self.width];
                for (dj, &a) in d.iter_mut().zip(row.iter()) {
                    *dj -= cb * a;
                }
            }
        }
        d
    }

    /// Complements non-basic column `j` (bound flip).
    fn flip_column(&mut self, j: usize) {
        let u = self.upper[j];
        debug_assert!(u.is_finite());
        self.flip_const2 += self.effective_cost2(j) * u;
        for i in 0..self.m {
            let a = self.t[i * self.width + j];
            if a != 0.0 {
                self.beta[i] -= a * u;
                self.t[i * self.width + j] = -a;
            }
        }
        self.flipped[j] = !self.flipped[j];
    }

    /// Complements *basic* variable of row `r` in place (it is about to
    /// leave at its upper bound): negates the row and rebases `beta`.
    fn flip_basic_row(&mut self, r: usize) {
        let k = self.basis[r];
        let u = self.upper[k];
        debug_assert!(u.is_finite());
        self.flip_const2 += self.effective_cost2(k) * u;
        let row = &mut self.t[r * self.width..(r + 1) * self.width];
        for (j, a) in row.iter_mut().enumerate() {
            if j != k {
                *a = -*a;
            }
        }
        self.beta[r] = u - self.beta[r];
        self.flipped[k] = !self.flipped[k];
    }

    /// Standard pivot: column `j` enters the basis in row `r`.
    fn pivot(&mut self, r: usize, j: usize) {
        let piv = self.t[r * self.width + j];
        debug_assert!(piv.abs() > 1e-12, "pivot on near-zero element");
        let inv = 1.0 / piv;
        for a in &mut self.t[r * self.width..(r + 1) * self.width] {
            *a *= inv;
        }
        self.beta[r] *= inv;
        // Exact unit column for the entering variable.
        self.t[r * self.width + j] = 1.0;
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let f = self.t[i * self.width + j];
            if f == 0.0 {
                continue;
            }
            let (head, tail) = self.t.split_at_mut(r.max(i) * self.width);
            let (row_i, row_r) = if i < r {
                (
                    &mut head[i * self.width..(i + 1) * self.width],
                    &tail[..self.width],
                )
            } else {
                (
                    &mut tail[..self.width],
                    &head[r * self.width..(r + 1) * self.width],
                )
            };
            for (a, &p) in row_i.iter_mut().zip(row_r.iter()) {
                *a -= f * p;
            }
            row_i[j] = 0.0;
            self.beta[i] -= f * self.beta[r];
            if self.beta[i] < 0.0 && self.beta[i] > -1e-9 {
                self.beta[i] = 0.0;
            }
        }
        self.basis[r] = j;
    }
}

/// An exported simplex basis: enough state to reconstruct the optimal
/// vertex of a solved [`Problem`] inside a *structurally identical*
/// problem (same variable count, same constraint count and senses) whose
/// coefficients, bounds, or right-hand sides have since been perturbed.
///
/// Obtained from [`solve_with_warm_start`] and fed back into a later call
/// to warm-start it. The representation is deliberately opaque: rows store
/// the basic column of each constraint row (in structural + slack
/// indexing; `None` marks a redundant row whose artificial stayed basic),
/// plus the at-upper-bound flip state of every non-basic column.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Basic column of each row; `None` = artificial remained basic.
    pub(crate) rows: Vec<Option<usize>>,
    /// Bound-flip state per structural/slack column (true = at upper).
    /// Only meaningful for columns not in `rows`.
    pub(crate) flipped: Vec<bool>,
    /// Structural variable count of the originating problem.
    pub(crate) n_struct: usize,
    /// Slack column count of the originating problem.
    pub(crate) n_slack: usize,
}

impl Basis {
    /// Whether this basis is dimensionally compatible with `problem`
    /// (necessary, not sufficient, for a successful warm start).
    pub fn fits(&self, problem: &Problem) -> bool {
        self.n_struct == problem.num_vars()
            && self.rows.len() == problem.num_constraints()
            && self.n_slack == count_slacks(problem)
    }
}

/// Result of [`solve_with_warm_start`]: the solution, the optimal basis
/// (reusable as the next warm start), and whether the warm path was
/// actually taken or the solver fell back to a cold two-phase solve.
#[derive(Debug, Clone)]
pub struct WarmSolveResult {
    /// The optimal solution, identical in contract to [`solve`]'s.
    pub solution: Solution,
    /// The optimal basis, for warm-starting a subsequent solve.
    pub basis: Basis,
    /// True iff the provided basis was accepted and repaired in place;
    /// false on a cold solve (no basis given, or basis incompatible).
    pub warm_used: bool,
}

pub(crate) fn count_slacks(problem: &Problem) -> usize {
    problem
        .constraints
        .iter()
        .filter(|c| c.relation != Relation::Eq)
        .count()
}

/// Standard-form conversion shared by the cold and warm paths: shifts every
/// structural variable by its lower bound so domains are `[0, u]`, adds one
/// slack/surplus column per inequality and one artificial per row,
/// normalizes rows to `beta >= 0`, and installs the all-artificial basis.
#[cfg(any(test, feature = "oracle"))]
fn build_tableau(problem: &Problem) -> Result<Tableau, LpError> {
    let n_struct = problem.num_vars();
    let m = problem.num_constraints();
    let mut upper: Vec<f64> = Vec::with_capacity(n_struct + m);
    for j in 0..n_struct {
        let u = problem.upper[j] - problem.lower[j];
        if u < 0.0 {
            return Err(LpError::InvalidBounds {
                lower: problem.lower[j],
                upper: problem.upper[j],
            });
        }
        upper.push(u);
    }
    let n_slack = count_slacks(problem);
    let n_real = n_struct + n_slack;
    let width = n_real + m; // + one artificial per row
    let mut t = vec![0.0f64; m * width];
    let mut beta = vec![0.0f64; m];
    let mut slack_idx = n_struct;
    for (i, con) in problem.constraints.iter().enumerate() {
        let mut rhs = con.rhs;
        for &(v, a) in &con.terms {
            rhs -= a * problem.lower[v];
            t[i * width + v] = a;
        }
        match con.relation {
            Relation::Le => {
                t[i * width + slack_idx] = 1.0;
                slack_idx += 1;
            }
            Relation::Ge => {
                t[i * width + slack_idx] = -1.0;
                slack_idx += 1;
            }
            Relation::Eq => {}
        }
        beta[i] = rhs;
    }
    upper.resize(n_real, f64::INFINITY); // slacks unbounded above
                                         // Normalize rows to beta >= 0, then install artificial basis.
    for i in 0..m {
        if beta[i] < 0.0 {
            beta[i] = -beta[i];
            for a in &mut t[i * width..i * width + n_real] {
                *a = -*a;
            }
        }
        t[i * width + n_real + i] = 1.0;
    }
    upper.resize(width, f64::INFINITY); // artificials

    let mut cost2 = vec![0.0f64; width];
    cost2[..n_struct].copy_from_slice(&problem.objective);
    let flip_const2: f64 = problem
        .objective
        .iter()
        .zip(problem.lower.iter())
        .map(|(c, l)| c * l)
        .sum();

    let mut col_max = vec![1.0f64; width];
    col_max[..n_struct].fill(0.0);
    for con in &problem.constraints {
        for &(v, a) in &con.terms {
            col_max[v] = col_max[v].max(a.abs());
        }
    }
    Ok(Tableau {
        m,
        n_real,
        width,
        t,
        beta,
        basis: (n_real..width).collect(),
        upper,
        flipped: vec![false; width],
        cost2,
        flip_const2,
        art_start: n_real,
        col_max,
    })
}

pub(crate) fn auto_iteration_cap(options: &SimplexOptions, m: usize, n_real: usize) -> usize {
    if options.max_iterations > 0 {
        options.max_iterations
    } else {
        20_000 + 50 * (m + n_real)
    }
}

/// Reads the structural solution out of an optimal tableau.
#[cfg(any(test, feature = "oracle"))]
fn extract_solution(tab: &Tableau, problem: &Problem, iterations: usize) -> Solution {
    let n_struct = problem.num_vars();
    let mut shifted = vec![0.0f64; tab.n_real];
    for (r, &b) in tab.basis.iter().enumerate() {
        if b < tab.n_real {
            shifted[b] = tab.beta[r].max(0.0);
        }
    }
    let mut x = vec![0.0f64; n_struct];
    for j in 0..n_struct {
        let mut v = shifted[j];
        if tab.flipped[j] {
            v = tab.upper[j] - v;
        }
        x[j] = v + problem.lower[j];
        // Clean float fuzz against the original bounds and the grid.
        x[j] = quantize(x[j].clamp(problem.lower[j], problem.upper[j]));
    }
    let objective = problem.objective_at(&x);
    Solution {
        status: Status::Optimal,
        objective,
        x,
        iterations,
        // The dense tableau touches the full m×width sheet per pivot.
        work: (iterations as u64) * (tab.m as u64) * (tab.width as u64),
    }
}

/// Snapshots the basis of an optimal tableau. Flip state is recorded only
/// for non-basic columns: a basic column's flip history does not affect the
/// vertex (basic values are read off `beta` either way), and discarding it
/// keeps the basis a pure vertex description.
#[cfg(any(test, feature = "oracle"))]
fn export_basis(tab: &Tableau, n_struct: usize) -> Basis {
    let rows: Vec<Option<usize>> = tab
        .basis
        .iter()
        .map(|&b| (b < tab.art_start).then_some(b))
        .collect();
    let mut in_basis = vec![false; tab.n_real];
    for &b in &tab.basis {
        if b < tab.art_start {
            in_basis[b] = true;
        }
    }
    let flipped = (0..tab.n_real)
        .map(|j| tab.flipped[j] && !in_basis[j])
        .collect();
    Basis {
        rows,
        flipped,
        n_struct,
        n_slack: tab.n_real - n_struct,
    }
}

/// Solves `problem` by two-phase bounded-variable primal simplex, using
/// the engine from [`SimplexOptions::engine`] (or the process default).
///
/// # Errors
///
/// * [`LpError::Infeasible`] if no point satisfies the constraints.
/// * [`LpError::Unbounded`] if the objective is unbounded below.
/// * [`LpError::IterationLimit`] if the pivot budget is exhausted.
/// * [`LpError::InvalidBounds`] if some variable has an empty domain.
/// * [`LpError::Cycling`] if a basis repeat is detected with the Bland
///   rescue disabled (`stall_limit == usize::MAX`) or under Bland itself.
/// * [`LpError::NumericalInstability`] if the sparse engine's residual
///   self-check fails.
pub fn solve(problem: &Problem, options: &SimplexOptions) -> Result<Solution, LpError> {
    core_for(engine_for(options))
        .solve_cold(problem, options)
        .map(|(solution, _)| solution)
}

/// The dense tableau engine, preserved verbatim as a differential-testing
/// oracle (selected via [`SimplexEngine::Dense`]; compiled under the
/// `oracle` feature or in-crate tests).
#[cfg(any(test, feature = "oracle"))]
pub struct DenseOracle;

#[cfg(any(test, feature = "oracle"))]
impl SolverCore for DenseOracle {
    fn solve_cold(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
    ) -> Result<(Solution, Basis), LpError> {
        dense_solve_cold(problem, options)
    }

    fn try_warm(
        &self,
        problem: &Problem,
        options: &SimplexOptions,
        start: &Basis,
    ) -> Option<(Solution, Basis)> {
        dense_try_warm(problem, options, start)
    }
}

/// Cold two-phase solve that also exports the optimal basis.
#[cfg(any(test, feature = "oracle"))]
fn dense_solve_cold(
    problem: &Problem,
    options: &SimplexOptions,
) -> Result<(Solution, Basis), LpError> {
    let tol = options.tolerance;
    let mut tab = build_tableau(problem)?;
    let max_iterations = auto_iteration_cap(options, tab.m, tab.n_real);
    let mut iterations = 0usize;

    // --- phase 1 --------------------------------------------------------
    run_phase(
        &mut tab,
        true,
        tol,
        max_iterations,
        options.stall_limit,
        &mut iterations,
    )?;
    if tab.objective(true) > 1e-6 {
        return Err(LpError::Infeasible);
    }
    // Drive artificials out of the basis where possible; redundant rows
    // keep a zero-valued artificial that is inert from here on.
    for r in 0..tab.m {
        if tab.basis[r] >= tab.art_start {
            let row_start = r * tab.width;
            if let Some(j) =
                (0..tab.n_real).find(|&j| tab.upper[j] > 0.0 && tab.t[row_start + j].abs() > 1e-7)
            {
                tab.pivot(r, j);
            }
        }
    }
    // Bar artificials from ever entering again.
    for j in tab.art_start..tab.width {
        tab.upper[j] = 0.0;
    }

    // --- phase 2 --------------------------------------------------------
    run_phase(
        &mut tab,
        false,
        tol,
        max_iterations,
        options.stall_limit,
        &mut iterations,
    )?;

    let solution = extract_solution(&tab, problem, iterations);
    let basis = export_basis(&tab, problem.num_vars());
    Ok((solution, basis))
}

/// Solves `problem`, warm-starting from `warm` when possible.
///
/// The warm path rebuilds the tableau for the *current* problem data,
/// refactorizes the supplied basis onto it, restores non-basic bound
/// flips, and then repairs primal infeasibility introduced by RHS/bound
/// perturbations with a bounded dual simplex before finishing with
/// ordinary phase-2 pivots. Any incompatibility — dimension mismatch,
/// (near-)singular prescribed basis, lost dual feasibility, stalled
/// repair, or a final point that fails feasibility checks — silently falls
/// back to the cold two-phase solve, so the result contract is identical
/// to [`solve`]: same errors, and an optimal solution with the same
/// objective value (the optimal *vertex* may differ between the warm and
/// cold paths when the optimum is degenerate).
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_with_warm_start(
    problem: &Problem,
    options: &SimplexOptions,
    warm: Option<&Basis>,
) -> Result<WarmSolveResult, LpError> {
    let core = core_for(engine_for(options));
    if let Some(start) = warm {
        if let Some((solution, basis)) = core.try_warm(problem, options, start) {
            return Ok(WarmSolveResult {
                solution,
                basis,
                warm_used: true,
            });
        }
    }
    let (solution, basis) = core.solve_cold(problem, options)?;
    Ok(WarmSolveResult {
        solution,
        basis,
        warm_used: false,
    })
}

/// The answer of a [`Retained::probe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The varied LP has this optimal objective, reached in `pivots`
    /// pivots from the retained optimum.
    Optimal {
        /// Optimal objective value of the varied LP.
        objective: f64,
        /// Dual-repair plus phase-2 pivots spent.
        pivots: usize,
    },
    /// The varied LP has no feasible point (certified by the dual repair).
    Infeasible,
    /// The probe could not decide exactly — a singular patched basis, lost
    /// dual feasibility, the repair's step cap, an infeasibility
    /// certificate within noise, or a failed residual or feasibility
    /// check. Solve the varied LP cold.
    Undecided,
}

/// The optimum of a solve of an LP, kept in factored form
/// ([`solve_retained`]) so that LPs differing from it in one row are
/// answered from it by [`Retained::probe`], and so that a sequence of LPs
/// each differing from the last in a few rows is solved from it by
/// [`Retained::commit`]. It owns the LP it holds the optimum of, which
/// each commit patches in place.
pub struct Retained {
    problem: Problem,
    options: SimplexOptions,
    state: RetainedState,
}

enum RetainedState {
    /// Standard form, basis, basic values and LU factors, probed and
    /// committed in place.
    Sparse(Box<crate::revised::RetainedRev>),
    /// The dense oracle keeps the exported basis and answers a probe or a
    /// commit the way it answers a warm solve: rebuilt tableau, prescribed
    /// basis.
    #[cfg(any(test, feature = "oracle"))]
    Dense(Basis),
}

impl std::fmt::Debug for Retained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retained").finish_non_exhaustive()
    }
}

/// [`solve`], keeping the optimum for [`Retained::probe`] and
/// [`Retained::commit`]. The solve is the same cold two-phase solve: same
/// pivots, same solution.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_retained(
    problem: Problem,
    options: &SimplexOptions,
) -> Result<(Solution, Retained), LpError> {
    let (solution, state) = match engine_for(options) {
        SimplexEngine::Sparse => {
            let (solution, _, state) = crate::revised::cold_retained(&problem, options)?;
            (solution, RetainedState::Sparse(Box::new(state)))
        }
        #[cfg(any(test, feature = "oracle"))]
        SimplexEngine::Dense => {
            let (solution, basis) = dense_solve_cold(&problem, options)?;
            (solution, RetainedState::Dense(basis))
        }
    };
    let retained = Retained {
        problem,
        options: options.clone(),
        state,
    };
    Ok((solution, retained))
}

impl Retained {
    /// Solves the retained problem with constraint `row` changed — its
    /// term in `var` removed, its right-hand side set to `rhs` — starting
    /// from the retained optimum, and leaves that optimum as it found it:
    /// probes are independent of each other and of their order.
    ///
    /// # Errors
    ///
    /// A probe that does not address the problem is refused, not run:
    /// [`LpError::NonFiniteCoefficient`] for a non-finite `rhs`,
    /// [`LpError::RowOutOfRange`], [`LpError::VarOutOfRange`], and
    /// [`LpError::VarNotInRow`] when `row` has no term in `var`.
    pub fn probe(&mut self, row: usize, var: VarId, rhs: f64) -> Result<Probe, LpError> {
        let patch = self.problem.row_patch(row, var, rhs)?;
        let outcome = match &mut self.state {
            RetainedState::Sparse(state) => {
                crate::revised::probe(state, &self.problem, &patch, &self.options)
            }
            #[cfg(any(test, feature = "oracle"))]
            RetainedState::Dense(basis) => {
                dense_carry(&self.problem, basis, &[patch], &self.options, Mend::Dual).0
            }
        };
        Ok(match outcome {
            WarmOutcome::Optimal(solution) => Probe::Optimal {
                objective: solution.objective,
                pivots: solution.iterations,
            },
            WarmOutcome::Infeasible => Probe::Infeasible,
            WarmOutcome::Undecided => Probe::Undecided,
        })
    }

    /// Makes the retained problem the LP with every row of `caps` changed
    /// as a probe changes one — its term in `var` removed, its right-hand
    /// side set — and re-optimises from the retained vertex. The new
    /// optimum replaces the retained one: later probes and commits start
    /// from it.
    ///
    /// When `var` is basic and the changed column can no longer stand in
    /// the basis, it is exchanged for the slack of one of `caps`' rows and
    /// held at its value by a temporary upper bound while the new optimum
    /// is sought (primal phase 1 if the held vertex is off by rounding,
    /// then phase 2), and given its own bound back at the end.
    ///
    /// Returns the new optimum — its `iterations` are the pivots from the
    /// retained vertex — or `None` when it could not be reached exactly
    /// that way (no row can take `var`'s place, phase 1 or phase 2 gave
    /// up, `var` ended at its temporary bound, or the residual or
    /// feasibility check failed). Then nothing changed: the retained
    /// problem and optimum are as they were, and the caller solves the
    /// changed LP cold.
    ///
    /// # Errors
    ///
    /// Refused before anything runs, as a probe is, when a row of `caps`
    /// does not address the problem — and with [`LpError::VarNotInRow`]
    /// when a row is named twice.
    pub fn commit(
        &mut self,
        var: VarId,
        caps: &[(usize, f64)],
    ) -> Result<Option<Solution>, LpError> {
        let mut patches = caps
            .iter()
            .map(|&(row, rhs)| self.problem.row_patch(row, var, rhs))
            .collect::<Result<Vec<_>, _>>()?;
        patches.sort_unstable_by_key(|patch| patch.row);
        // A row named twice would lose its term in `var` by the first patch.
        if let Some(twice) = patches.windows(2).find(|w| w[0].row == w[1].row) {
            return Err(LpError::VarNotInRow {
                var: var.0,
                row: twice[0].row,
            });
        }
        let outcome = match &mut self.state {
            RetainedState::Sparse(state) => {
                crate::revised::commit(state, &self.problem, &patches, &self.options)
            }
            #[cfg(any(test, feature = "oracle"))]
            RetainedState::Dense(basis) => {
                match dense_carry(&self.problem, basis, &patches, &self.options, Mend::Primal) {
                    (outcome, Some(next)) => {
                        *basis = next;
                        outcome
                    }
                    (outcome, None) => outcome,
                }
            }
        };
        Ok(match outcome {
            WarmOutcome::Optimal(solution) => {
                for patch in &patches {
                    self.problem.apply(patch);
                }
                Some(solution)
            }
            WarmOutcome::Infeasible | WarmOutcome::Undecided => None,
        })
    }
}

/// The dense mirror of the sparse engine's `carry`, for a probe and a
/// commit alike: the retained vertex is rebuilt from `basis` on `problem`;
/// if the patched variable is basic there and its changed column is
/// singular, the column [`largest_pivot`] picks takes its position and the
/// variable is held at its value by a temporary upper bound on the
/// tableau, and `mend` gives way to primal phase 1; then the patched LP is
/// refactored onto that basis and settled. Returns the outcome and, on an
/// optimum, the basis it reached.
#[cfg(any(test, feature = "oracle"))]
fn dense_carry(
    problem: &Problem,
    basis: &Basis,
    patches: &[RowPatch],
    options: &SimplexOptions,
    mut mend: Mend,
) -> (WarmOutcome, Option<Basis>) {
    let undecided = (WarmOutcome::Undecided, None);
    let mut patched = problem.clone();
    for patch in patches {
        patched.apply(patch);
    }
    let mut start = basis.clone();
    let mut bound = None;
    let var = patches.first().map(|patch| patch.var);
    if let Some(var) = var.filter(|&var| basis.rows.contains(&Some(var))) {
        let Some(tab) = dense_prepare_warm(problem, basis, None) else {
            return undecided;
        };
        let Some(p) = tab.basis.iter().position(|&j| j == var) else {
            return undecided;
        };
        // Row p of the tableau's artificial block is row p of B⁻¹ (rows
        // normalised as `build_tableau` normalised them).
        let rho = |i: usize| tab.t[p * tab.width + tab.art_start + i];
        let column = if tab.flipped[var] { -1.0 } else { 1.0 };
        let pivot: f64 = patched
            .constraints
            .iter()
            .enumerate()
            .flat_map(|(i, con)| con.terms.iter().map(move |&(v, a)| (i, v, a)))
            .filter(|&(_, v, _)| v == var)
            .map(|(i, _, a)| rho(i) * row_sign(problem, i) * a * column)
            .sum();
        if pivot.abs() <= PATCH_PIVOT_TOL {
            let slacks = patches.iter().filter_map(|patch| {
                let slack = slack_of(problem, patch.row)?;
                (!tab.basis.contains(&slack)).then_some((slack, rho(patch.row)))
            });
            let entering = largest_pivot(slacks).or_else(|| {
                let columns = (0..tab.n_real)
                    .filter(|&j| !tab.basis.contains(&j) && j != var && tab.upper[j] > 0.0);
                largest_pivot(columns.map(|j| (j, tab.t[p * tab.width + j])))
            });
            let Some(entering) = entering else {
                return undecided;
            };
            start.rows[p] = Some(entering);
            let upper = tab.upper[var];
            let value = if tab.flipped[var] {
                upper - tab.beta[p]
            } else {
                tab.beta[p]
            };
            let at = held_value(value, upper);
            start.flipped[var] = at > 0.0;
            if at > 0.0 && at < upper {
                bound = Some((var, at));
            }
            mend = Mend::Primal;
        }
    }
    let Some(mut tab) = dense_prepare_warm(&patched, &start, bound) else {
        return undecided;
    };
    let mut iterations = 0usize;
    let mut settled = dense_settle(&mut tab, &patched, options, mend, &mut iterations);
    if let Some((var, _)) = bound {
        // The sparse engine's `release`, and the settle after it.
        let upper = patched.upper[var] - patched.lower[var];
        let basic = tab.basis.iter().position(|&j| j == var);
        let held = basic.is_none() && tab.flipped[var];
        let proved = matches!(settled, Err(WarmOutcome::Infeasible));
        if settled.is_ok() || proved {
            match basic {
                Some(r) if tab.flipped[var] => tab.flip_basic_row(r),
                None if held => {
                    tab.flip_column(var);
                    tab.upper[var] = upper;
                    if upper.is_finite() {
                        tab.flip_column(var);
                    }
                }
                Some(_) | None => {}
            }
            tab.upper[var] = upper;
            if held || proved {
                settled = dense_settle(&mut tab, &patched, options, Mend::Primal, &mut iterations);
            }
        }
    }
    if let Err(outcome) = settled {
        return (outcome, None);
    }
    // The sparse engine factors and prices a basis that moved afresh: one
    // that cannot be factored, or prices below −1e-7, is no answer.
    let next = export_basis(&tab, patched.num_vars());
    if iterations > 0 {
        let Some(fresh) = dense_prepare_warm(&patched, &next, None) else {
            return undecided;
        };
        let d = fresh.reduced_costs(false);
        let basic: HashSet<usize> = fresh.basis.iter().copied().collect();
        let priced =
            (0..fresh.n_real).all(|j| basic.contains(&j) || fresh.upper[j] <= 0.0 || d[j] >= -1e-7);
        if !priced {
            return undecided;
        }
    }
    let solution = extract_solution(&tab, &patched, iterations);
    // Safety net, as on the warm path.
    if !patched.is_nearly_feasible(&[], &solution.x, 1e-6) {
        return undecided;
    }
    (WarmOutcome::Optimal(solution), Some(next))
}

/// The sign `build_tableau` normalised row `i` of `problem` by.
#[cfg(any(test, feature = "oracle"))]
fn row_sign(problem: &Problem, i: usize) -> f64 {
    let con = &problem.constraints[i];
    let mut rhs = con.rhs;
    for &(v, a) in &con.terms {
        rhs -= a * problem.lower[v];
    }
    if rhs < 0.0 {
        -1.0
    } else {
        1.0
    }
}

/// Attempts the warm path; `None` means "fall back to a cold solve"
/// (covers both basis incompatibility and any in-flight solver error,
/// which the cold path will re-derive authoritatively).
#[cfg(any(test, feature = "oracle"))]
fn dense_try_warm(
    problem: &Problem,
    options: &SimplexOptions,
    start: &Basis,
) -> Option<(Solution, Basis)> {
    let mut tab = dense_prepare_warm(problem, start, None)?;
    match dense_finish_from_basis(&mut tab, problem, options) {
        WarmOutcome::Optimal(solution) => {
            let basis = export_basis(&tab, problem.num_vars());
            Some((solution, basis))
        }
        WarmOutcome::Infeasible | WarmOutcome::Undecided => None,
    }
}

/// The tableau of `problem` refactorized onto the basis `start`
/// prescribes, bound flips restored, each basic column in the row `start`
/// gives it; `bound` (a column and a working-space upper bound) replaces
/// that column's own before any flip. `None` when the basis does not fit
/// or is (near-)singular for the current coefficients.
#[cfg(any(test, feature = "oracle"))]
fn dense_prepare_warm(
    problem: &Problem,
    start: &Basis,
    bound: Option<(usize, f64)>,
) -> Option<Tableau> {
    if !start.fits(problem) {
        return None;
    }
    let mut tab = build_tableau(problem).ok()?;
    if start.flipped.len() != tab.n_real {
        return None;
    }
    if let Some((j, upper)) = bound {
        *tab.upper.get_mut(j)? = upper;
    }
    // Range/duplicate check on the prescribed basic columns.
    let mut prescribed = vec![false; tab.n_real];
    for &col in &start.rows {
        if let Some(j) = col {
            if j >= tab.n_real || prescribed[j] {
                return None;
            }
            prescribed[j] = true;
        }
    }
    // The warm path never runs phase 1: bar artificials immediately.
    // Rows whose artificial stays basic are handled by the dual repair
    // (a zero upper bound turns any nonzero beta into a bound violation).
    for j in tab.art_start..tab.width {
        tab.upper[j] = 0.0;
    }
    // Restore bound flips of non-basic columns. A flip needs a finite
    // upper bound; if a bound became infinite since export, bail out.
    for (j, &basic) in prescribed.iter().enumerate() {
        if start.flipped[j] && !basic {
            if !tab.upper[j].is_finite() {
                return None;
            }
            tab.flip_column(j);
        }
    }
    // Refactorize: pivot every exported row onto one prescribed basic
    // column. The exported row↔column pairing is only a hint — any perfect
    // matching of rows onto the prescribed column *set* reproduces the
    // same basis — so each row greedily takes the remaining column with
    // the largest pivot magnitude (partial pivoting). Insisting on the
    // recorded pairing would stall whenever the fixed pivot sequence hits
    // an elimination-order zero, which happens routinely on large bases; a
    // sweep with no progress at all means the prescribed basis really is
    // (near-)singular for the current coefficients.
    let mut rows: Vec<usize> = Vec::new();
    let mut cols: Vec<usize> = Vec::new();
    for (r, col) in start.rows.iter().enumerate() {
        if let Some(j) = *col {
            rows.push(r);
            cols.push(j);
        }
    }
    while !rows.is_empty() {
        let before = rows.len();
        let mut deferred = Vec::new();
        for &r in &rows {
            let row_off = r * tab.width;
            let mut best: Option<(usize, f64)> = None;
            for (ci, &j) in cols.iter().enumerate() {
                let a = tab.t[row_off + j].abs();
                if a > 1e-7 && best.is_none_or(|(_, m)| a > m) {
                    best = Some((ci, a));
                }
            }
            match best {
                Some((ci, _)) => {
                    let j = cols.swap_remove(ci);
                    tab.pivot(r, j);
                }
                None => deferred.push(r),
            }
        }
        if deferred.len() == before {
            return None;
        }
        rows = deferred;
    }
    // The greedy sweep may leave a prescribed column in another row than
    // `start` gave it. Tableau rows follow basis positions, so permuting
    // them is free: put every column back in its own row, the position
    // the sparse engine keeps it at, so that both engines break ratio
    // ties on the same rows.
    let mut row_of = vec![usize::MAX; tab.width];
    for (i, &col) in tab.basis.iter().enumerate() {
        row_of[col] = i;
    }
    let width = tab.width;
    let (t, beta, basis) = (
        std::mem::take(&mut tab.t),
        tab.beta.clone(),
        tab.basis.clone(),
    );
    tab.t.reserve(t.len());
    for (r, col) in start.rows.iter().enumerate() {
        let i = *row_of.get(col.unwrap_or(tab.art_start + r))?;
        tab.t.extend_from_slice(t.get(i * width..(i + 1) * width)?);
        tab.beta[r] = beta[i];
        tab.basis[r] = basis[i];
    }
    Some(tab)
}

/// Mirror of the sparse engine's `settle`: `mend` if the vertex is not
/// primal feasible, then phase 2, counting pivots into `iterations`; `Err`
/// says how it ended short of an optimum.
#[cfg(any(test, feature = "oracle"))]
fn dense_settle(
    tab: &mut Tableau,
    problem: &Problem,
    options: &SimplexOptions,
    mend: Mend,
    iterations: &mut usize,
) -> Result<(), WarmOutcome> {
    let max_iterations = auto_iteration_cap(options, tab.m, tab.n_real);
    if !primal_feasible(tab, 1e-7) {
        let repaired = match mend {
            Mend::Dual => match dual_repair(tab, problem, iterations) {
                Repair::Undecided => primal_repair(tab, problem, options.tolerance, iterations),
                decided => decided,
            },
            Mend::Primal => primal_repair(tab, problem, options.tolerance, iterations),
        };
        match repaired {
            Repair::Feasible => {}
            Repair::Infeasible => return Err(WarmOutcome::Infeasible),
            Repair::Undecided => return Err(WarmOutcome::Undecided),
        }
    }
    run_phase(
        tab,
        false,
        options.tolerance,
        max_iterations,
        options.stall_limit,
        iterations,
    )
    .map_err(|_| WarmOutcome::Undecided)
}

/// Mirror of the sparse engine's `finish_from_basis`: dual repair if
/// needed, phase 2, and the feasibility safety net.
#[cfg(any(test, feature = "oracle"))]
fn dense_finish_from_basis(
    tab: &mut Tableau,
    problem: &Problem,
    options: &SimplexOptions,
) -> WarmOutcome {
    let mut iterations = 0usize;
    if let Err(outcome) = dense_settle(tab, problem, options, Mend::Dual, &mut iterations) {
        return outcome;
    }
    let solution = extract_solution(tab, problem, iterations);
    // Safety net: numerical trouble on the warm path must never leak an
    // infeasible "solution"; the cold path re-solves from scratch instead.
    if !problem.is_nearly_feasible(&[], &solution.x, 1e-6) {
        return WarmOutcome::Undecided;
    }
    WarmOutcome::Optimal(solution)
}

/// Primal phase 1 on the tableau, the sparse engine's `primal_repair`
/// step for step: sum-of-infeasibilities pricing over the real columns,
/// [`phase1_block`]'s ratio test, earliest row on a tie.
#[cfg(any(test, feature = "oracle"))]
fn primal_repair(tab: &mut Tableau, problem: &Problem, tol: f64, iterations: &mut usize) -> Repair {
    let step_cap = 4 * tab.m + 50;
    let mut steps = 0usize;
    let mut stall = Stall::default();
    loop {
        let cost: Vec<f64> = (0..tab.m)
            .map(|r| infeasibility(tab.beta[r], tab.upper[tab.basis[r]]))
            .collect();
        let gap: f64 = (0..tab.m)
            .map(|r| violation(cost[r], tab.beta[r], tab.upper[tab.basis[r]]))
            .sum();
        if cost.iter().all(|&c| c == 0.0) {
            return Repair::Feasible;
        }
        if steps >= step_cap {
            return Repair::Undecided;
        }
        // The phase-1 duals, `y_i = Σ_r cost_r·(B⁻¹)_{r,i}`, read off the
        // artificial block.
        let y = (0..tab.m).map(|i| {
            (0..tab.m)
                .map(|r| cost[r] * tab.t[r * tab.width + tab.art_start + i])
                .sum::<f64>()
        });
        let scale: f64 = y
            .zip(current_rhs(tab, problem))
            .map(|(y, b)| (y * b).abs())
            .sum();
        let noise = !certifies_infeasible(gap, scale);
        if noise && stall.stuck(gap) {
            return Repair::Feasible;
        }
        let mut in_basis = vec![false; tab.width];
        for &b in &tab.basis {
            in_basis[b] = true;
        }
        let mut entering: Option<(usize, f64)> = None;
        for (j, &basic) in in_basis.iter().enumerate().take(tab.n_real) {
            if basic || tab.upper[j] <= 0.0 {
                continue;
            }
            let d: f64 = -(0..tab.m)
                .map(|r| cost[r] * tab.t[r * tab.width + j])
                .sum::<f64>();
            if d < -tol && entering.is_none_or(|(_, bd)| d < bd - PRICE_TIE * (1.0 + bd.abs())) {
                entering = Some((j, d));
            }
        }
        let Some((j, _)) = entering else {
            return if noise {
                Repair::Feasible
            } else {
                Repair::Infeasible
            };
        };
        let mut best = tab.upper[j];
        let mut outcome = if best.is_finite() {
            RatioOutcome::Flip
        } else {
            RatioOutcome::Unbounded
        };
        let floor = pivot_floor((0..tab.m).map(|i| tab.t[i * tab.width + j]), tab.col_max[j]);
        for i in 0..tab.m {
            let a = tab.t[i * tab.width + j];
            let upper = tab.upper[tab.basis[i]];
            let Some((ratio, at_upper)) = phase1_block(tab.beta[i], upper, a, floor) else {
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
        match outcome {
            RatioOutcome::Unbounded => return Repair::Undecided,
            RatioOutcome::Flip => tab.flip_column(j),
            RatioOutcome::LeaveLower(r) => tab.pivot(r, j),
            RatioOutcome::LeaveUpper(r) => {
                tab.flip_basic_row(r);
                tab.pivot(r, j);
            }
        }
        *iterations += 1;
        steps += 1;
    }
}

/// All basic values within their (working-space) bounds?
#[cfg(any(test, feature = "oracle"))]
fn primal_feasible(tab: &Tableau, tol: f64) -> bool {
    (0..tab.m).all(|r| {
        let b = tab.beta[r];
        let ub = tab.upper[tab.basis[r]];
        b >= -tol && (!ub.is_finite() || b <= ub + tol)
    })
}

/// Bounded-variable dual simplex: restores primal feasibility after
/// RHS/bound perturbations while preserving dual feasibility (non-negative
/// phase-2 reduced costs). [`Repair::Undecided`] — caller falls back to a
/// cold solve — on lost dual feasibility, a stalled repair, or an
/// unsatisfiable row whose certificate is within noise;
/// [`Repair::Infeasible`] when [`certifies_infeasible`] holds for it.
#[cfg(any(test, feature = "oracle"))]
fn dual_repair(tab: &mut Tableau, problem: &Problem, iterations: &mut usize) -> Repair {
    const FEAS_TOL: f64 = 1e-7;
    let step_cap = 4 * tab.m + 50;
    let mut steps = 0usize;
    loop {
        // Leaving row: largest bound violation (ties: lowest row).
        let mut worst: Option<(usize, f64, bool)> = None;
        for r in 0..tab.m {
            let b = tab.beta[r];
            let ub = tab.upper[tab.basis[r]];
            let (violation, at_upper) = if b < -FEAS_TOL {
                (-b, false)
            } else if ub.is_finite() && b > ub + FEAS_TOL {
                (b - ub, true)
            } else {
                continue;
            };
            if worst.is_none_or(|(_, w, _)| violation > w) {
                worst = Some((r, violation, at_upper));
            }
        }
        let Some((r, violation, at_upper)) = worst else {
            return Repair::Feasible; // primal feasible again
        };
        if steps >= step_cap {
            return Repair::Undecided;
        }
        if at_upper {
            // Complement the basic variable so the violation is uniformly
            // "below zero" and the textbook dual ratio test applies.
            tab.flip_basic_row(r);
        }
        let d = tab.reduced_costs(false);
        let mut in_basis = vec![false; tab.width];
        for &b in &tab.basis {
            in_basis[b] = true;
        }
        let row = r * tab.width;
        let mut entering: Option<(f64, usize)> = None;
        // The most the non-basic columns can move row `r` towards its
        // bound, for the certificate below.
        let mut reach = 0.0f64;
        for (j, &dj) in d.iter().enumerate().take(tab.n_real) {
            if in_basis[j] || tab.upper[j] <= 0.0 {
                continue;
            }
            if dj < -1e-7 {
                return Repair::Undecided; // dual feasibility lost: repair unsound
            }
            let a = tab.t[row + j];
            if a < 0.0 && tab.upper[j].is_finite() {
                reach -= a * tab.upper[j];
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
            // No candidate: the row's slice of B⁻¹ (the artificial block)
            // is a Farkas multiplier.
            let rho = &tab.t[row + tab.art_start..row + tab.width];
            let scale: f64 = rho
                .iter()
                .zip(current_rhs(tab, problem))
                .map(|(p, b)| (p * b).abs())
                .sum();
            return if certifies_infeasible(violation - reach, scale) {
                Repair::Infeasible
            } else {
                Repair::Undecided
            };
        };
        tab.pivot(r, j);
        *iterations += 1;
        steps += 1;
    }
}

/// Magnitude of each row's flip-adjusted right-hand side — what the
/// sparse engine keeps as `SparseForm::b` — recomputed from the problem.
#[cfg(any(test, feature = "oracle"))]
fn current_rhs<'a>(tab: &'a Tableau, problem: &'a Problem) -> impl Iterator<Item = f64> + 'a {
    problem.constraints.iter().map(|con| {
        let mut rhs = con.rhs;
        for &(v, a) in &con.terms {
            rhs -= a * problem.lower[v];
            if tab.flipped[v] {
                rhs -= a * tab.upper[v];
            }
        }
        rhs.abs()
    })
}

#[cfg(any(test, feature = "oracle"))]
fn run_phase(
    tab: &mut Tableau,
    phase1: bool,
    tol: f64,
    max_iterations: usize,
    stall_limit: usize,
    iterations: &mut usize,
) -> Result<(), LpError> {
    let mut pricing = Pricing::Dantzig;
    let mut stall = 0usize;
    let mut detector = CycleDetector::new();
    let mut last_obj = tab.objective(phase1);
    // Reduced costs are maintained incrementally (O(n) per pivot) and
    // refreshed from scratch periodically to bound numerical drift.
    const REFRESH_EVERY: usize = 128;
    let mut d = tab.reduced_costs(phase1);
    let mut since_refresh = 0usize;
    loop {
        if *iterations >= max_iterations {
            return Err(LpError::IterationLimit {
                limit: max_iterations,
            });
        }
        if since_refresh >= REFRESH_EVERY {
            d = tab.reduced_costs(phase1);
            since_refresh = 0;
        }
        // Entering column: eligible = non-basic, movable, not a barred
        // artificial, with significantly negative reduced cost.
        let mut in_basis = vec![false; tab.width];
        for &b in &tab.basis {
            in_basis[b] = true;
        }
        let pick = |d: &[f64]| {
            let eligible = (0..tab.width).filter(|&j| {
                !in_basis[j] && tab.upper[j] > 0.0 && d[j] < -tol && (phase1 || j < tab.art_start)
            });
            match pricing {
                // Windowed argmin: a later column must beat the incumbent
                // by more than PRICE_TIE to displace it, so exact ties
                // resolve to the lowest index on both engines.
                Pricing::Dantzig => {
                    let mut best: Option<(usize, f64)> = None;
                    for j in eligible {
                        match best {
                            Some((_, bd)) if d[j] >= bd - PRICE_TIE * (1.0 + bd.abs()) => {}
                            _ => best = Some((j, d[j])),
                        }
                    }
                    best.map(|(j, _)| j)
                }
                Pricing::Bland => eligible.min(),
            }
        };
        let mut entering = pick(&d);
        if entering.is_none() && since_refresh > 0 {
            // Possibly drift-induced: confirm optimality on fresh costs.
            d = tab.reduced_costs(phase1);
            since_refresh = 0;
            entering = pick(&d);
        }
        let Some(j) = entering else {
            return Ok(()); // optimal for this phase
        };

        // Ratio test.
        let mut best = tab.upper[j];
        let mut outcome = if best.is_finite() {
            RatioOutcome::Flip
        } else {
            RatioOutcome::Unbounded
        };
        let floor = pivot_floor((0..tab.m).map(|i| tab.t[i * tab.width + j]), tab.col_max[j]);
        for i in 0..tab.m {
            let a = tab.t[i * tab.width + j];
            if a > floor {
                let numer = tab.beta[i].max(0.0);
                let ratio = if numer < DEGEN_SNAP { 0.0 } else { numer / a };
                let tie = RATIO_TIE * (1.0 + best.abs());
                if ratio < best - tie
                    || (ratio < best + tie && better_leave(tab, &outcome, i, pricing))
                {
                    best = ratio;
                    outcome = RatioOutcome::LeaveLower(i);
                }
            } else if a < -floor {
                let ub = tab.upper[tab.basis[i]];
                if ub.is_finite() {
                    let numer = (ub - tab.beta[i]).max(0.0);
                    let ratio = if numer < DEGEN_SNAP {
                        0.0
                    } else {
                        numer / (-a)
                    };
                    let tie = RATIO_TIE * (1.0 + best.abs());
                    if ratio < best - tie
                        || (ratio < best + tie && better_leave(tab, &outcome, i, pricing))
                    {
                        best = ratio;
                        outcome = RatioOutcome::LeaveUpper(i);
                    }
                }
            }
        }

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
                tab.flip_column(j);
                d[j] = -d[j];
            }
            RatioOutcome::LeaveLower(r) => {
                let dj = d[j];
                tab.pivot(r, j);
                update_reduced_costs(&mut d, tab, r, dj);
            }
            RatioOutcome::LeaveUpper(r) => {
                // The basic-row complement leaves reduced costs unchanged
                // (the effective basic cost and the row negate together).
                let dj = d[j];
                tab.flip_basic_row(r);
                tab.pivot(r, j);
                update_reduced_costs(&mut d, tab, r, dj);
            }
        }
        *iterations += 1;
        since_refresh += 1;

        let obj = tab.objective(phase1);
        if obj < last_obj - 1e-12 {
            stall = 0;
            pricing = Pricing::Dantzig;
            detector.clear();
        } else {
            stall += 1;
            // A basis repeat is conclusive where the rule is deterministic
            // and no rescue remains: under Bland, or under Dantzig with
            // the Bland rescue disabled. Report it as a typed error
            // instead of burning the iteration budget.
            if (pricing == Pricing::Bland || stall_limit == usize::MAX)
                && detector.record(&tab.basis, &tab.flipped)
            {
                return Err(LpError::Cycling {
                    iterations: *iterations,
                });
            }
            if stall > stall_limit && pricing != Pricing::Bland {
                // Bland's anti-cycling guarantee needs exact reduced-cost
                // signs: refresh before switching rules.
                pricing = Pricing::Bland;
                d = tab.reduced_costs(phase1);
                since_refresh = 0;
                detector.clear();
            }
        }
        last_obj = obj;
    }
}

/// Incremental reduced-cost update after a pivot on row `r` where the
/// entering column had reduced cost `dj_before`: `d ← d − dj · (row r)`
/// (the post-pivot row, whose entering-column entry is exactly 1, so the
/// entering column's reduced cost lands on exactly 0).
#[cfg(any(test, feature = "oracle"))]
fn update_reduced_costs(d: &mut [f64], tab: &Tableau, r: usize, dj_before: f64) {
    if dj_before == 0.0 {
        return;
    }
    let row = &tab.t[r * tab.width..(r + 1) * tab.width];
    for (dc, &a) in d.iter_mut().zip(row.iter()) {
        if a != 0.0 {
            *dc -= dj_before * a;
        }
    }
}

/// Tie-break for equal ratios: under Bland, prefer the smallest leaving
/// variable index (with flips ranked last); under Dantzig, prefer the row
/// whose pivot element has larger magnitude for numerical stability — here
/// approximated by preferring any row over a flip and lower basis index.
#[cfg(any(test, feature = "oracle"))]
fn better_leave(
    tab: &Tableau,
    current: &RatioOutcome,
    candidate_row: usize,
    pricing: Pricing,
) -> bool {
    let cand = tab.basis[candidate_row];
    match current {
        RatioOutcome::Flip | RatioOutcome::Unbounded => true,
        RatioOutcome::LeaveLower(r) | RatioOutcome::LeaveUpper(r) => match pricing {
            Pricing::Bland => cand < tab.basis[*r],
            Pricing::Dantzig => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};

    const INF: f64 = f64::INFINITY;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), z = 36
        let mut p = Problem::new();
        let x = p.add_var(-3.0, 0.0, INF).unwrap();
        let y = p.add_var(-5.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.objective, -36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, INF).unwrap();
        let y = p.add_var(1.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn ge_constraints_and_shifted_lower_bounds() {
        // min 2x + 3y st x + y >= 10, x >= 2, y in [1, 4]
        let mut p = Problem::new();
        let x = p.add_var(2.0, 2.0, INF).unwrap();
        let y = p.add_var(3.0, 1.0, 4.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        let sol = p.solve().unwrap();
        // Cheaper to use x: y stays at its lower bound 1, x = 9.
        assert_close(sol.value(x), 9.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective, 21.0);
    }

    #[test]
    fn upper_bound_flip_without_constraints() {
        // min -x with x in [0, 3] and no rows: pure bound flip.
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, 3.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 3.0);
        assert_close(sol.objective, -3.0);
    }

    #[test]
    fn upper_bounds_interact_with_rows() {
        // max x + 2y st x + y <= 4, y <= 3 (bound), x <= 10 (bound)
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, 10.0).unwrap();
        let y = p.add_var(-2.0, 0.0, 3.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn basic_variable_leaves_at_upper_bound() {
        // min -x - y st x - y <= 2, x <= 5, y <= 4.
        // Optimum x=5 (upper), y=4 (upper). Exercises LeaveUpper paths.
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, 5.0).unwrap();
        let y = p.add_var(-1.0, 0.0, 4.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 5.0);
        assert_close(sol.value(y), 4.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 5.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_infeasible_equalities() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 3.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 4.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, INF).unwrap();
        let y = p.add_var(0.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 2.5, 2.5).unwrap();
        let y = p.add_var(-1.0, 0.0, 1.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 10.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 2.5);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn redundant_rows_are_harmless() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, INF).unwrap();
        let y = p.add_var(1.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: several constraints meet at the origin.
        let mut p = Problem::new();
        let x = p.add_var(-0.75, 0.0, INF).unwrap();
        let y = p.add_var(150.0, 0.0, INF).unwrap();
        let z = p.add_var(-0.02, 0.0, INF).unwrap();
        let w = p.add_var(6.0, 0.0, INF).unwrap();
        // Beale's cycling example (min form).
        p.add_constraint(
            &[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            &[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(&[(z, 1.0)], Relation::Le, 1.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn zero_constraint_problem_minimizes_at_bounds() {
        let mut p = Problem::new();
        let x = p.add_var(3.0, 1.0, 8.0).unwrap();
        let y = p.add_var(-2.0, 0.0, 5.0).unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 5.0);
        assert_close(sol.objective, -7.0);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x - y >= -3 with b < 0 after standardization.
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, INF).unwrap();
        let y = p.add_var(1.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Ge, -3.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        let sol = p.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn iteration_limit_reported() {
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        let opts = SimplexOptions {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(p.solve_with(&opts).is_ok());
        // A limit of zero iterations cannot even complete phase 1 pivots...
        // but phase 1 with b=0 rows may need no pivots; use an always-pivoting
        // instance: equality forces at least one pivot.
        let mut q = Problem::new();
        let v = q.add_var(1.0, 0.0, INF).unwrap();
        q.add_constraint(&[(v, 1.0)], Relation::Eq, 2.0).unwrap();
        let strict = SimplexOptions {
            max_iterations: 1,
            ..Default::default()
        };
        // Either it solves within one pivot or reports the limit; both are
        // acceptable contracts, but it must not loop forever.
        match q.solve_with(&strict) {
            Ok(sol) => assert_close(sol.value(v), 2.0),
            Err(LpError::IterationLimit { limit }) => assert_eq!(limit, 1),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn warm_start_after_rhs_change_matches_cold() {
        // Solve, perturb every RHS, re-solve warm; objective must match a
        // cold solve to high precision and the warm path must engage.
        let mut p = Problem::new();
        let x = p.add_var(-3.0, 0.0, INF).unwrap();
        let y = p.add_var(-5.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let opts = SimplexOptions::default();
        let first = solve_with_warm_start(&p, &opts, None).unwrap();
        assert!(!first.warm_used);

        let mut q = Problem::new();
        let x = q.add_var(-3.0, 0.0, INF).unwrap();
        let y = q.add_var(-5.0, 0.0, INF).unwrap();
        q.add_constraint(&[(x, 1.0)], Relation::Le, 3.0).unwrap();
        q.add_constraint(&[(y, 2.0)], Relation::Le, 10.0).unwrap();
        q.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 16.0)
            .unwrap();
        let warm = solve_with_warm_start(&q, &opts, Some(&first.basis)).unwrap();
        let cold = solve(&q, &opts).unwrap();
        assert!(warm.warm_used, "compatible basis must warm-start");
        assert!((warm.solution.objective - cold.objective).abs() < 1e-9);
        assert!(q.is_feasible(&warm.solution.x, 1e-7));
    }

    #[test]
    fn warm_start_dimension_mismatch_falls_back_cold() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let opts = SimplexOptions::default();
        let first = solve_with_warm_start(&p, &opts, None).unwrap();

        let mut q = Problem::new();
        let a = q.add_var(1.0, 0.0, INF).unwrap();
        let b = q.add_var(1.0, 0.0, INF).unwrap();
        q.add_constraint(&[(a, 1.0), (b, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        assert!(!first.basis.fits(&q));
        let warm = solve_with_warm_start(&q, &opts, Some(&first.basis)).unwrap();
        assert!(!warm.warm_used, "mismatched basis must fall back cold");
        assert_close(warm.solution.objective, 2.0);
    }

    #[test]
    fn warm_start_detects_new_infeasibility() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, 10.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let opts = SimplexOptions::default();
        let first = solve_with_warm_start(&p, &opts, None).unwrap();

        // Same structure, but the Ge RHS now exceeds the variable bound.
        let mut q = Problem::new();
        let x = q.add_var(1.0, 0.0, 10.0).unwrap();
        q.add_constraint(&[(x, 1.0)], Relation::Ge, 50.0).unwrap();
        let err = solve_with_warm_start(&q, &opts, Some(&first.basis)).unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }

    #[test]
    fn warm_start_handles_bound_tightening_and_flips() {
        // Optimum sits at upper bounds (flipped columns); tighten bounds
        // and re-solve warm.
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, 5.0).unwrap();
        let y = p.add_var(-1.0, 0.0, 4.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0)
            .unwrap();
        let opts = SimplexOptions::default();
        let first = solve_with_warm_start(&p, &opts, None).unwrap();
        assert_close(first.solution.objective, -9.0);

        let mut q = Problem::new();
        let x = q.add_var(-1.0, 0.0, 3.0).unwrap();
        let y = q.add_var(-1.0, 0.0, 2.0).unwrap();
        q.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0)
            .unwrap();
        let warm = solve_with_warm_start(&q, &opts, Some(&first.basis)).unwrap();
        let cold = solve(&q, &opts).unwrap();
        assert!((warm.solution.objective - cold.objective).abs() < 1e-9);
        assert!(q.is_feasible(&warm.solution.x, 1e-7));
    }

    #[test]
    fn warm_start_chain_tracks_a_drifting_rhs() {
        // A replan-like sequence: the same structure re-solved many times
        // with drifting RHS, each solve warm-started from the previous.
        let opts = SimplexOptions::default();
        let build = |b0: f64, b1: f64| {
            let mut p = Problem::new();
            let x = p.add_var(-2.0, 0.0, 8.0).unwrap();
            let y = p.add_var(-3.0, 0.0, 8.0).unwrap();
            let z = p.add_var(-1.0, 0.0, 8.0).unwrap();
            p.add_constraint(&[(x, 1.0), (y, 2.0), (z, 1.0)], Relation::Le, b0)
                .unwrap();
            p.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, b1)
                .unwrap();
            p.add_constraint(&[(y, 1.0), (z, 1.0)], Relation::Ge, 1.0)
                .unwrap();
            p
        };
        let mut basis: Option<Basis> = None;
        let mut warm_hits = 0usize;
        for step in 0..12 {
            let b0 = 10.0 + (step % 5) as f64;
            let b1 = 12.0 - (step % 3) as f64;
            let p = build(b0, b1);
            let got = solve_with_warm_start(&p, &opts, basis.as_ref()).unwrap();
            let cold = solve(&p, &opts).unwrap();
            assert!(
                (got.solution.objective - cold.objective).abs() < 1e-9,
                "step {step}: warm {} vs cold {}",
                got.solution.objective,
                cold.objective
            );
            assert!(p.is_feasible(&got.solution.x, 1e-7));
            warm_hits += usize::from(got.warm_used);
            basis = Some(got.basis);
        }
        assert!(warm_hits >= 10, "only {warm_hits}/11 possible warm starts");
    }

    #[test]
    fn warm_start_survives_equality_and_redundant_rows() {
        let opts = SimplexOptions::default();
        let build = |rhs: f64| {
            let mut p = Problem::new();
            let x = p.add_var(1.0, 0.0, INF).unwrap();
            let y = p.add_var(1.0, 0.0, INF).unwrap();
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, rhs)
                .unwrap();
            p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 2.0 * rhs)
                .unwrap();
            p
        };
        let first = solve_with_warm_start(&build(4.0), &opts, None).unwrap();
        let p = build(6.0);
        let warm = solve_with_warm_start(&p, &opts, Some(&first.basis)).unwrap();
        assert!((warm.solution.objective - 6.0).abs() < 1e-9);
        assert!(p.is_feasible(&warm.solution.x, 1e-7));
    }

    #[test]
    fn solution_feasible_on_moderate_random_instance() {
        // Deterministic pseudo-random LP; checks feasibility + optimality
        // against the bound given by weak duality through a feasible point.
        let mut p = Problem::new();
        let mut vars = Vec::new();
        let mut state = 0x12345678u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..12 {
            let c = rnd() * 4.0 - 2.0;
            let u = 1.0 + rnd() * 9.0;
            vars.push(p.add_var(c, 0.0, u).unwrap());
        }
        for _ in 0..8 {
            let terms: Vec<_> = vars
                .iter()
                .map(|&v| (v, rnd() * 2.0))
                .filter(|&(_, c)| c > 0.4)
                .collect();
            let rhs = 5.0 + rnd() * 20.0;
            p.add_constraint(&terms, Relation::Le, rhs).unwrap();
        }
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(&sol.x, 1e-6));
        // Origin is feasible (all-≤ with positive rhs), so optimum ≤ 0.
        assert!(sol.objective <= 1e-9);
    }

    // ---- cross-engine and anti-cycling tests ----

    fn opts_for(engine: SimplexEngine) -> SimplexOptions {
        SimplexOptions {
            engine: Some(engine),
            ..SimplexOptions::default()
        }
    }

    /// Beale's classic cycling example (min form): under Dantzig pricing
    /// with lowest-index ratio ties and no anti-cycling rescue, the
    /// simplex revisits bases forever at the degenerate origin vertex.
    fn beale_problem() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var(-0.75, 0.0, INF).unwrap();
        let y = p.add_var(150.0, 0.0, INF).unwrap();
        let z = p.add_var(-0.02, 0.0, INF).unwrap();
        let w = p.add_var(6.0, 0.0, INF).unwrap();
        p.add_constraint(
            &[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            &[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(&[(z, 1.0)], Relation::Le, 1.0).unwrap();
        p
    }

    fn random_instance(seed: u64, n: usize, m: usize) -> Problem {
        let mut p = Problem::new();
        let mut vars = Vec::new();
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..n {
            let c = rnd() * 4.0 - 2.0;
            let u = 1.0 + rnd() * 9.0;
            vars.push(p.add_var(c, 0.0, u).unwrap());
        }
        for _ in 0..m {
            let terms: Vec<_> = vars
                .iter()
                .map(|&v| (v, rnd() * 2.0))
                .filter(|&(_, c)| c > 0.4)
                .collect();
            let rhs = 5.0 + rnd() * 20.0;
            p.add_constraint(&terms, Relation::Le, rhs).unwrap();
        }
        p
    }

    /// A minimal instance (found by randomized search over small integer
    /// LPs degenerate at the origin) on which this implementation's exact
    /// pivot rules — Dantzig most-negative entering, lowest-index ratio
    /// ties — revisit a basis forever when the Bland rescue is disabled.
    fn cycling_problem() -> Problem {
        let mut p = Problem::new();
        let v: Vec<_> = [2.0, -2.0, 0.0, 2.0]
            .iter()
            .map(|&c| p.add_var(c, 0.0, INF).unwrap())
            .collect();
        for row in [
            [-1.0, -1.0, -2.0, 2.0],
            [-3.0, -2.0, 0.0, 1.0],
            [3.0, -3.0, -1.0, 1.0],
        ] {
            let terms: Vec<_> = v
                .iter()
                .zip(&row)
                .filter(|&(_, &c)| c != 0.0)
                .map(|(&var, &c)| (var, c))
                .collect();
            p.add_constraint(&terms, Relation::Le, 0.0).unwrap();
        }
        p
    }

    #[test]
    fn cycling_reported_when_rescue_disabled() {
        // Regression for the silent accuracy gap: with the Bland rescue
        // disabled, a genuine cycle must surface as a typed error on both
        // engines instead of spinning until the iteration cap.
        for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
            let opts = SimplexOptions {
                stall_limit: usize::MAX,
                ..opts_for(engine)
            };
            match solve(&cycling_problem(), &opts) {
                Err(LpError::Cycling { iterations }) => {
                    assert!(iterations > 0, "{engine:?}: cycle at pivot 0?")
                }
                other => panic!("{engine:?}: expected Cycling, got {other:?}"),
            }
        }
    }

    #[test]
    fn cycling_instance_resolves_with_default_options() {
        // The same instance escapes the cycle under the default Bland
        // rescue: the LP is actually unbounded along the x2 ray, and both
        // engines must discover that instead of spinning.
        for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
            assert_eq!(
                solve(&cycling_problem(), &opts_for(engine)).unwrap_err(),
                LpError::Unbounded,
                "{engine:?}"
            );
        }
        // And the bounded classic (Beale's example) still reaches its
        // optimum under default options on both engines.
        for engine in [SimplexEngine::Sparse, SimplexEngine::Dense] {
            let sol = solve(&beale_problem(), &opts_for(engine)).unwrap();
            assert_close(sol.objective, -0.05);
        }
    }

    /// The engines walk the same pivot trajectory, so they terminate at
    /// the same vertex; numeric values differ only by accumulation order
    /// (incremental tableau vs fresh LU solves), i.e. last-ulp noise. The
    /// downstream bit-identity contract is on *rounded* plans.
    fn assert_engine_equivalent(s: &Solution, d: &Solution, tag: &str) {
        assert_eq!(s.iterations, d.iterations, "{tag}: trajectories split");
        assert!(
            (s.objective - d.objective).abs() <= 1e-9 * (1.0 + d.objective.abs()),
            "{tag}: objectives {} vs {}",
            s.objective,
            d.objective
        );
        assert_eq!(s.x.len(), d.x.len(), "{tag}");
        for (j, (&a, &b)) in s.x.iter().zip(&d.x).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "{tag}: x[{j}] {a} vs {b}"
            );
            assert_eq!(
                a.round() as i64,
                b.round() as i64,
                "{tag}: x[{j}] rounds apart"
            );
        }
    }

    #[test]
    fn engines_agree_on_random_instances() {
        for seed in [0x12345678u64, 0xdeadbeef, 0x51ce9a7e] {
            let p = random_instance(seed, 12, 8);
            let s = solve(&p, &opts_for(SimplexEngine::Sparse)).unwrap();
            let d = solve(&p, &opts_for(SimplexEngine::Dense)).unwrap();
            assert_engine_equivalent(&s, &d, &format!("seed {seed:#x}"));
        }
    }

    #[test]
    fn engines_agree_on_warm_chain() {
        // Replan-like drifting-RHS chain, solved in lockstep on both
        // engines: every step's solution must match bitwise and the warm
        // bases must stay interchangeable.
        let build = |b0: f64, b1: f64| {
            let mut p = Problem::new();
            let x = p.add_var(-2.0, 0.0, 8.0).unwrap();
            let y = p.add_var(-3.0, 0.0, 8.0).unwrap();
            let z = p.add_var(-1.0, 0.0, 8.0).unwrap();
            p.add_constraint(&[(x, 1.0), (y, 2.0), (z, 1.0)], Relation::Le, b0)
                .unwrap();
            p.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, b1)
                .unwrap();
            p.add_constraint(&[(y, 1.0), (z, 1.0)], Relation::Ge, 1.0)
                .unwrap();
            p
        };
        let mut sparse_basis: Option<Basis> = None;
        let mut dense_basis: Option<Basis> = None;
        for step in 0..12 {
            let b0 = 10.0 + (step % 5) as f64;
            let b1 = 12.0 - (step % 3) as f64;
            let p = build(b0, b1);
            let s =
                solve_with_warm_start(&p, &opts_for(SimplexEngine::Sparse), sparse_basis.as_ref())
                    .unwrap();
            let d =
                solve_with_warm_start(&p, &opts_for(SimplexEngine::Dense), dense_basis.as_ref())
                    .unwrap();
            assert_engine_equivalent(&s.solution, &d.solution, &format!("step {step}"));
            assert_eq!(s.warm_used, d.warm_used, "step {step}");
            sparse_basis = Some(s.basis);
            dense_basis = Some(d.basis);
        }
    }

    #[test]
    fn basis_transfers_between_engines() {
        // A basis exported by one engine warm-starts the other: the
        // representation is engine-neutral.
        let p = random_instance(0xabcdef12, 10, 6);
        let from_dense = solve_with_warm_start(&p, &opts_for(SimplexEngine::Dense), None).unwrap();
        let from_sparse =
            solve_with_warm_start(&p, &opts_for(SimplexEngine::Sparse), None).unwrap();
        let s_warm = solve_with_warm_start(
            &p,
            &opts_for(SimplexEngine::Sparse),
            Some(&from_dense.basis),
        )
        .unwrap();
        let d_warm = solve_with_warm_start(
            &p,
            &opts_for(SimplexEngine::Dense),
            Some(&from_sparse.basis),
        )
        .unwrap();
        assert!(s_warm.warm_used, "sparse engine rejected a dense basis");
        assert!(d_warm.warm_used, "dense engine rejected a sparse basis");
        // A warm start from the other engine's optimal basis lands at the
        // same optimum (iteration counts differ from the cold solves by
        // construction, so compare values only).
        for (warm, cold, tag) in [
            (&s_warm.solution, &from_dense.solution, "dense->sparse"),
            (&d_warm.solution, &from_sparse.solution, "sparse->dense"),
        ] {
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                "{tag}: {} vs {}",
                warm.objective,
                cold.objective
            );
            for (j, (&a, &b)) in warm.x.iter().zip(&cold.x).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{tag}: x[{j}] {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn dense_engine_handles_key_cases() {
        let opts = opts_for(SimplexEngine::Dense);
        let mut p = Problem::new();
        let x = p.add_var(-3.0, 0.0, INF).unwrap();
        let y = p.add_var(-5.0, 0.0, INF).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        p.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let sol = solve(&p, &opts).unwrap();
        assert_close(sol.objective, -36.0);

        let mut inf = Problem::new();
        let v = inf.add_var(1.0, 0.0, 1.0).unwrap();
        inf.add_constraint(&[(v, 1.0)], Relation::Ge, 5.0).unwrap();
        assert_eq!(solve(&inf, &opts).unwrap_err(), LpError::Infeasible);

        let mut unb = Problem::new();
        let a = unb.add_var(-1.0, 0.0, INF).unwrap();
        let b = unb.add_var(0.0, 0.0, INF).unwrap();
        unb.add_constraint(&[(a, 1.0), (b, -1.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(solve(&unb, &opts).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn work_counter_is_positive_and_deterministic() {
        let p = random_instance(0x7777, 12, 8);
        let s1 = solve(&p, &opts_for(SimplexEngine::Sparse)).unwrap();
        let s2 = solve(&p, &opts_for(SimplexEngine::Sparse)).unwrap();
        assert!(s1.work > 0);
        assert_eq!(s1.work, s2.work);
        let d = solve(&p, &opts_for(SimplexEngine::Dense)).unwrap();
        assert!(d.work > 0);
    }
}
