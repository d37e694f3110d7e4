//! Error types for LP construction and solving.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// A variable was declared with `lower > upper`, a non-finite lower
    /// bound, or a NaN bound. (Free variables are not supported: every
    /// quantity in the scheduling LPs is naturally lower-bounded.)
    InvalidBounds {
        /// Lower bound as given.
        lower: f64,
        /// Upper bound as given.
        upper: f64,
    },
    /// A coefficient, objective entry, or right-hand side was NaN/infinite.
    NonFiniteCoefficient,
    /// A constraint referenced a variable that does not exist.
    VarOutOfRange {
        /// The raw variable index.
        var: usize,
        /// Number of declared variables.
        len: usize,
    },
    /// A probe addressed a constraint row that does not exist.
    RowOutOfRange {
        /// The raw row index.
        row: usize,
        /// Number of constraint rows.
        len: usize,
    },
    /// A probe asked to remove a variable from a row that has no term in
    /// it.
    VarNotInRow {
        /// The raw variable index.
        var: usize,
        /// The constraint row.
        row: usize,
    },
    /// The LP is infeasible (phase 1 terminated with positive residual).
    Infeasible,
    /// The LP is unbounded below.
    Unbounded,
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The simplex revisited a basis it had already seen while stalled,
    /// proving it is cycling on a degenerate vertex. Only reported when no
    /// anti-cycling rescue remains (under Bland's rule, or when the Bland
    /// fallback is disabled via `stall_limit = usize::MAX`).
    Cycling {
        /// Pivots performed before the repeat was detected.
        iterations: usize,
    },
    /// The candidate basis matrix is numerically singular: LU factorization
    /// found no acceptable pivot in some column, or an eta update's pivot
    /// element was zero.
    SingularBasis,
    /// The factorization self-check `‖B·x − b‖∞` exceeded tolerance after a
    /// refactorization, indicating corrupted factors or a missed update.
    /// Results are withheld rather than silently wrong.
    NumericalInstability {
        /// The residual that tripped the check.
        residual: f64,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::InvalidBounds { lower, upper } => {
                write!(f, "invalid variable bounds [{lower}, {upper}]")
            }
            LpError::NonFiniteCoefficient => f.write_str("non-finite coefficient in problem data"),
            LpError::VarOutOfRange { var, len } => {
                write!(
                    f,
                    "variable {var} out of range for problem with {len} variables"
                )
            }
            LpError::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range for problem with {len} rows")
            }
            LpError::VarNotInRow { var, row } => {
                write!(f, "variable {var} has no term in row {row}")
            }
            LpError::Infeasible => f.write_str("linear program is infeasible"),
            LpError::Unbounded => f.write_str("linear program is unbounded"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            LpError::Cycling { iterations } => {
                write!(f, "simplex cycling detected after {iterations} pivots")
            }
            LpError::SingularBasis => f.write_str("basis matrix is numerically singular"),
            LpError::NumericalInstability { residual } => {
                write!(
                    f,
                    "factorization residual {residual:e} exceeds tolerance; results withheld"
                )
            }
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_nonempty() {
        for e in [
            LpError::InvalidBounds {
                lower: 1.0,
                upper: 0.0,
            },
            LpError::NonFiniteCoefficient,
            LpError::VarOutOfRange { var: 4, len: 2 },
            LpError::RowOutOfRange { row: 4, len: 2 },
            LpError::VarNotInRow { var: 1, row: 0 },
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::IterationLimit { limit: 10 },
            LpError::Cycling { iterations: 7 },
            LpError::SingularBasis,
            LpError::NumericalInstability { residual: 1e-3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<LpError>();
    }
}
