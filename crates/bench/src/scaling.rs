//! Lemma 2 interval-structured leveling LPs at parameterized scale.
//!
//! The paper's per-slot scheduling LP (Section IV, Lemma 2) has *interval
//! structure*: every allocation variable touches one job-demand row and one
//! slot-capacity row inside a contiguous slot window, and the peak variable
//! couples the slot rows. The constraint matrix is therefore near-banded
//! and extremely sparse (two nonzeros per allocation column), which is
//! exactly the regime the sparse revised simplex exploits.
//!
//! This module generates that family at any job count, deterministically
//! from a seed, for the differential and scale-stratified property tests
//! (`tests/lp_differential.rs`, `tests/solver_props.rs`):
//!
//! * `min z  s.t.  Σ_t a_{j,t} = D_j` (one equality per job),
//!   `Σ_j a_{j,t} − z ≤ 0` (one row per slot), `0 ≤ a_{j,t} ≤ cap`.
//! * Windows are short random intervals, so column count ≈ 6·jobs while
//!   rows ≈ jobs + horizon — the 1k–10k-job shapes DAGPS-style schedulers
//!   replan at.
//! * [`perturbed`] shrinks demands by a few percent (what job completions
//!   do between replans) without touching the structure, producing the
//!   realistic warm-start sequence.

use flowtime_lp::{Problem, Relation, VarId};

/// Per-variable allocation cap (containers per job per slot).
pub const SLOT_CAP: u64 = 4;

/// An interval leveling LP plus the metadata needed to reason about its
/// size and to regenerate perturbed variants.
pub struct ScalingInstance {
    /// The assembled LP (`min z`).
    pub problem: Problem,
    /// The peak variable.
    pub z: VarId,
    /// Job count (equality-row count).
    pub jobs: usize,
    /// Slot count (inequality-row count).
    pub horizon: usize,
    /// Total rows `jobs + horizon`.
    pub rows: usize,
    /// Total structural columns (allocations + z).
    pub cols: usize,
    /// Structural nonzeros of the constraint matrix.
    pub nnz: usize,
    /// Each job's `(window_start, window_len, demand)`.
    pub shape: Vec<(usize, usize, u64)>,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic interval instance with `jobs` jobs on a horizon of
/// `max(24, jobs/4)` slots.
pub fn interval_instance(jobs: usize, seed: u64) -> ScalingInstance {
    let horizon = (jobs / 4).max(24);
    let mut state = seed | 1;
    let mut shape = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let len = 4 + (xorshift(&mut state) % 5) as usize; // 4..=8 slots
        let start = (xorshift(&mut state) % (horizon - len + 1) as u64) as usize;
        // Demand fits the window under the per-slot cap: D ≤ len·SLOT_CAP.
        let demand = len as u64 + xorshift(&mut state) % (len as u64 * (SLOT_CAP - 1) + 1);
        shape.push((start, len, demand));
    }
    assemble(horizon, &shape)
}

/// The replan at `step`: the base shape with every demand shrunk by a
/// deterministic few percent (never below 1), structure untouched. Each
/// step's LP has identical dimensions, so an optimal basis of the base
/// instance warm-starts it.
pub fn perturbed(base: &ScalingInstance, step: u64, seed: u64) -> ScalingInstance {
    let mut state = (seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    let shape: Vec<(usize, usize, u64)> = base
        .shape
        .iter()
        .map(|&(start, len, demand)| {
            let cut = xorshift(&mut state) % (demand / 20 + 1);
            (start, len, (demand - cut).max(1))
        })
        .collect();
    assemble(base.horizon, &shape)
}

/// Like [`perturbed`], but shrinks the demands of only `count`
/// pseudo-randomly chosen jobs, leaving the rest untouched. This is the
/// bounded-drift replan (a handful of completions land between two
/// replans): the number of moved RHS entries stays constant as the
/// instance grows, which is what lets warm-resolve work scale
/// sub-quadratically in n.
pub fn perturbed_jobs(
    base: &ScalingInstance,
    step: u64,
    seed: u64,
    count: usize,
) -> ScalingInstance {
    let mut state = (seed ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    let mut shape = base.shape.clone();
    for _ in 0..count {
        let j = (xorshift(&mut state) % shape.len() as u64) as usize;
        let (start, len, demand) = shape[j];
        let cut = xorshift(&mut state) % (demand / 20 + 1);
        shape[j] = (start, len, (demand - cut).max(1));
    }
    assemble(base.horizon, &shape)
}

fn assemble(horizon: usize, shape: &[(usize, usize, u64)]) -> ScalingInstance {
    let mut p = Problem::new();
    let z = p.add_var(1.0, 0.0, f64::INFINITY).expect("valid bounds");
    let mut slot_terms: Vec<Vec<(VarId, f64)>> = vec![vec![(z, -1.0)]; horizon];
    let mut cols = 1usize;
    let mut nnz = horizon; // z's entries
    for &(start, len, demand) in shape {
        let mut job_terms = Vec::with_capacity(len);
        for slot in slot_terms.iter_mut().skip(start).take(len) {
            let a = p.add_var(0.0, 0.0, SLOT_CAP as f64).expect("valid bounds");
            job_terms.push((a, 1.0));
            slot.push((a, 1.0));
            cols += 1;
            nnz += 2;
        }
        p.add_constraint(&job_terms, Relation::Eq, demand as f64)
            .expect("well-formed row");
    }
    for terms in &slot_terms {
        p.add_constraint(terms, Relation::Le, 0.0)
            .expect("well-formed row");
    }
    ScalingInstance {
        problem: p,
        z,
        jobs: shape.len(),
        horizon,
        rows: shape.len() + horizon,
        cols,
        nnz,
        shape: shape.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_lp::SimplexOptions;

    #[test]
    fn instance_is_feasible_and_leveled() {
        let inst = interval_instance(40, 7);
        assert_eq!(inst.rows, 40 + inst.horizon);
        let sol = inst.problem.solve().unwrap();
        // z equals the peak usage; the perfectly-leveled lower bound is
        // total demand over the horizon.
        let total: u64 = inst.shape.iter().map(|&(_, _, d)| d).sum();
        let floor = total as f64 / inst.horizon as f64;
        assert!(sol.objective >= floor - 1e-6, "{} < {floor}", sol.objective);
        assert!(inst.problem.is_feasible(&sol.x, 1e-6));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = interval_instance(25, 3);
        let b = interval_instance(25, 3);
        assert_eq!(a.shape, b.shape);
        let pa = perturbed(&a, 2, 11);
        let pb = perturbed(&b, 2, 11);
        assert_eq!(pa.shape, pb.shape);
    }

    #[test]
    fn perturbation_keeps_dimensions_and_feasibility() {
        let base = interval_instance(30, 5);
        let stepped = perturbed(&base, 1, 5);
        assert_eq!(base.rows, stepped.rows);
        assert_eq!(base.cols, stepped.cols);
        for (&(s0, l0, d0), &(s1, l1, d1)) in base.shape.iter().zip(&stepped.shape) {
            assert_eq!((s0, l0), (s1, l1));
            assert!(d1 <= d0 && d1 >= 1);
        }
        // The base optimum warm-starts the perturbed replan.
        let opts = SimplexOptions::default();
        let first = base.problem.solve_warm(&opts, None).unwrap();
        let warm = stepped
            .problem
            .solve_warm(&opts, Some(&first.basis))
            .unwrap();
        assert!(warm.warm_used, "replan should accept the previous basis");
    }
}
