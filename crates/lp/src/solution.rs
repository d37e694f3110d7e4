//! Solver results.

use crate::problem::VarId;

/// Termination status of a successful solve.
///
/// Infeasibility, unboundedness, and iteration exhaustion are reported as
/// [`crate::LpError`] values instead, so a returned [`Solution`] always
/// carries a usable point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proved optimal.
    Optimal,
}

/// An optimal solution to a [`crate::Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value `cᵀx` at the solution.
    pub objective: f64,
    /// Variable values, indexed by [`VarId::index`].
    pub x: Vec<f64>,
    /// Number of simplex pivots performed (phases 1 and 2 combined).
    pub iterations: usize,
    /// Abstract work units spent by the engine — a deterministic count of
    /// arithmetic touched (tableau cells for the dense engine; nonzeros
    /// priced, factored, and solved for the sparse engine). Comparable
    /// within an engine across instance sizes, unlike wall-clock time.
    pub work: u64,
}

impl Solution {
    /// The value of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.x[var.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let sol = Solution {
            status: Status::Optimal,
            objective: 1.5,
            x: vec![0.0, 2.0000000001],
            iterations: 3,
            work: 12,
        };
        assert_eq!(sol.value(VarId(1)), 2.0000000001);
        assert_eq!(sol.value(VarId(1)).round(), 2.0);
        assert_eq!(sol.status, Status::Optimal);
    }
}
