//! LP problem construction.

use crate::error::LpError;
use crate::simplex::{self, SimplexOptions};
use crate::solution::Solution;
use std::fmt;

/// Handle to a variable of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable within its problem.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Eq => "=",
            Relation::Ge => ">=",
        })
    }
}

/// One linear constraint `Σ coeff·x {≤,=,≥} rhs` in sparse form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A one-row variation of a [`Problem`], validated against it: constraint
/// `row` loses its term in `var` and gets right-hand side `rhs`. This is
/// what a [`simplex::Retained::probe`] answers, and what a
/// [`simplex::Retained::commit`] applies to each of its rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowPatch {
    pub(crate) row: usize,
    pub(crate) var: usize,
    pub(crate) rhs: f64,
}

/// A linear program `min cᵀx  s.t.  Ax {≤,=,≥} b,  l ≤ x ≤ u`.
///
/// The objective sense is *minimization*; to maximize, negate the objective
/// coefficients. Variables require a finite lower bound; upper bounds may be
/// `f64::INFINITY`.
///
/// # Example
///
/// ```
/// use flowtime_lp::{Problem, Relation};
/// # fn main() -> Result<(), flowtime_lp::LpError> {
/// let mut p = Problem::new();
/// let x = p.add_var(1.0, 0.0, f64::INFINITY)?;
/// p.add_constraint(&[(x, 1.0)], Relation::Ge, 5.0)?;
/// let sol = p.solve()?;
/// assert!((sol.value(x) - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Number of variables declared so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a variable with objective coefficient `obj` and bounds
    /// `[lower, upper]`.
    ///
    /// # Errors
    ///
    /// * [`LpError::InvalidBounds`] if `lower` is not finite, `upper` is NaN
    ///   or `-∞`, or `lower > upper`.
    /// * [`LpError::NonFiniteCoefficient`] if `obj` is not finite.
    pub fn add_var(&mut self, obj: f64, lower: f64, upper: f64) -> Result<VarId, LpError> {
        if !obj.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        if !lower.is_finite() || upper.is_nan() || upper == f64::NEG_INFINITY || lower > upper {
            return Err(LpError::InvalidBounds { lower, upper });
        }
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        Ok(VarId(self.objective.len() - 1))
    }

    /// Adds the constraint `Σ terms {≤,=,≥} rhs`.
    ///
    /// Duplicate variables within `terms` are summed.
    ///
    /// # Errors
    ///
    /// * [`LpError::VarOutOfRange`] if any term references an unknown
    ///   variable.
    /// * [`LpError::NonFiniteCoefficient`] if any coefficient or `rhs` is
    ///   not finite.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<usize, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        let n = self.num_vars();
        // Rows come almost always without duplicates: one sort of the
        // indices finds that out, and only a row that has some pays the
        // quadratic merge (which keeps first-occurrence order).
        let mut seen: Vec<usize> = terms.iter().map(|&(var, _)| var.0).collect();
        seen.sort_unstable();
        let distinct = seen.windows(2).all(|w| w[0] != w[1]);
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(var, coeff) in terms {
            if !coeff.is_finite() {
                return Err(LpError::NonFiniteCoefficient);
            }
            if var.0 >= n {
                return Err(LpError::VarOutOfRange { var: var.0, len: n });
            }
            let earlier = if distinct {
                None
            } else {
                dense.iter_mut().find(|(v, _)| *v == var.0)
            };
            match earlier {
                Some((_, c)) => *c += coeff,
                None => dense.push((var.0, coeff)),
            }
        }
        self.constraints.push(Constraint {
            terms: dense,
            relation,
            rhs,
        });
        Ok(self.constraints.len() - 1)
    }

    /// Solves the problem with default [`SimplexOptions`].
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`] from the simplex.
    pub fn solve(&self) -> Result<Solution, LpError> {
        simplex::solve(self, &SimplexOptions::default())
    }

    /// Solves the problem with explicit options.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<Solution, LpError> {
        simplex::solve(self, options)
    }

    /// Solves the problem, warm-starting from a previous optimal basis
    /// when one is supplied and still compatible; see
    /// [`simplex::solve_with_warm_start`].
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_warm(
        &self,
        options: &SimplexOptions,
        warm: Option<&simplex::Basis>,
    ) -> Result<simplex::WarmSolveResult, LpError> {
        simplex::solve_with_warm_start(self, options, warm)
    }

    /// Solves the problem cold and keeps the factored optimum, so that
    /// one-row variations can be answered by [`simplex::Retained::probe`]
    /// and a sequence of few-row changes solved by
    /// [`simplex::Retained::commit`]; see [`simplex::solve_retained`]. The
    /// problem moves into the [`simplex::Retained`], which commits patch it
    /// in place.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_retained(
        self,
        options: &SimplexOptions,
    ) -> Result<(Solution, simplex::Retained), LpError> {
        simplex::solve_retained(self, options)
    }

    /// Checks a probe's address against this problem.
    pub(crate) fn row_patch(&self, row: usize, var: VarId, rhs: f64) -> Result<RowPatch, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient);
        }
        let con = self.constraints.get(row).ok_or(LpError::RowOutOfRange {
            row,
            len: self.constraints.len(),
        })?;
        if var.0 >= self.num_vars() {
            return Err(LpError::VarOutOfRange {
                var: var.0,
                len: self.num_vars(),
            });
        }
        if !con.terms.iter().any(|&(v, _)| v == var.0) {
            return Err(LpError::VarNotInRow { var: var.0, row });
        }
        Ok(RowPatch {
            row,
            var: var.0,
            rhs,
        })
    }

    /// Makes this problem the one `patch` describes.
    pub(crate) fn apply(&mut self, patch: &RowPatch) {
        if let Some(con) = self.constraints.get_mut(patch.row) {
            con.terms.retain(|&(v, _)| v != patch.var);
            con.rhs = patch.rhs;
        }
    }

    /// The problem `patch` describes, built the long way (what the
    /// in-crate tests solve cold to check a probe).
    #[cfg(test)]
    pub(crate) fn patched(&self, patch: &RowPatch) -> Problem {
        let mut p = self.clone();
        p.apply(patch);
        p
    }

    /// Evaluates the objective at a point (no feasibility check).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Writes the problem in CPLEX LP file format — handy for eyeballing a
    /// formulation or feeding it to an external solver for comparison.
    ///
    /// # Errors
    ///
    /// I/O errors from `writer`.
    ///
    /// # Example
    ///
    /// ```
    /// use flowtime_lp::{Problem, Relation};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut p = Problem::new();
    /// let x = p.add_var(1.0, 0.0, 5.0)?;
    /// p.add_constraint(&[(x, 2.0)], Relation::Ge, 3.0)?;
    /// let mut out = Vec::new();
    /// p.write_lp_format(&mut out)?;
    /// let text = String::from_utf8(out)?;
    /// assert!(text.contains("Minimize"));
    /// assert!(text.contains("2 x0 >= 3"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn write_lp_format<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "Minimize")?;
        write!(writer, " obj:")?;
        let mut first = true;
        for (j, &c) in self.objective.iter().enumerate() {
            if c != 0.0 {
                write!(
                    writer,
                    " {}{} x{j}",
                    if c >= 0.0 && !first { "+ " } else { "" },
                    fmt_coeff(c)
                )?;
                first = false;
            }
        }
        if first {
            write!(writer, " 0")?;
        }
        writeln!(writer)?;
        writeln!(writer, "Subject To")?;
        for (i, con) in self.constraints.iter().enumerate() {
            write!(writer, " c{i}:")?;
            let mut first = true;
            for &(v, a) in &con.terms {
                write!(
                    writer,
                    " {}{} x{v}",
                    if a >= 0.0 && !first { "+ " } else { "" },
                    fmt_coeff(a)
                )?;
                first = false;
            }
            if first {
                write!(writer, " 0 x0")?;
            }
            let op = match con.relation {
                Relation::Le => "<=",
                Relation::Eq => "=",
                Relation::Ge => ">=",
            };
            writeln!(writer, " {op} {}", fmt_coeff(con.rhs))?;
        }
        writeln!(writer, "Bounds")?;
        for j in 0..self.num_vars() {
            let (lo, hi) = (self.lower[j], self.upper[j]);
            if hi.is_finite() {
                writeln!(writer, " {} <= x{j} <= {}", fmt_coeff(lo), fmt_coeff(hi))?;
            } else {
                writeln!(writer, " x{j} >= {}", fmt_coeff(lo))?;
            }
        }
        writeln!(writer, "End")
    }

    /// Checks whether `x` satisfies all constraints and bounds within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        self.within(&[], x, tol, false)
    }

    /// The solvers' safety net: [`Problem::is_feasible`] against this
    /// problem with `patches` applied (at most one per row), each row
    /// allowed to miss by `tol` relative to its activity, `tol·(1 +
    /// Σ|a_j·x_j|)`. An absolute `tol` is finer than the solvers work to
    /// on a row with large coefficients: basic values are feasible to
    /// 1e-7 and extracted values sit on a 1e-9 grid, and a 655 360 MB
    /// memory row multiplies either by its capacity.
    pub(crate) fn is_nearly_feasible(&self, patches: &[RowPatch], x: &[f64], tol: f64) -> bool {
        self.within(patches, x, tol, true)
    }

    fn within(&self, patches: &[RowPatch], x: &[f64], tol: f64, relative: bool) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (i, &v) in x.iter().enumerate() {
            if v < self.lower[i] - tol || v > self.upper[i] + tol {
                return false;
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            let patch = patches.iter().find(|p| p.row == i);
            let dropped = patch.map(|p| p.var);
            let rhs = patch.map_or(c.rhs, |p| p.rhs);
            let kept = || c.terms.iter().filter(|&&(v, _)| Some(v) != dropped);
            let lhs: f64 = kept().map(|&(v, a)| a * x[v]).sum();
            let tol = if relative {
                tol * (1.0 + kept().map(|&(v, a)| (a * x[v]).abs()).sum::<f64>())
            } else {
                tol
            };
            let ok = match c.relation {
                Relation::Le => lhs <= rhs + tol,
                Relation::Eq => (lhs - rhs).abs() <= tol,
                Relation::Ge => lhs >= rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Formats a coefficient without trailing `.0` noise for integers.
fn fmt_coeff(c: f64) -> String {
    if c == c.trunc() && c.abs() < 1e15 {
        format!("{}", c as i64)
    } else {
        format!("{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_var_validates() {
        let mut p = Problem::new();
        assert!(p.add_var(f64::NAN, 0.0, 1.0).is_err());
        assert!(p.add_var(1.0, f64::NEG_INFINITY, 1.0).is_err());
        assert!(p.add_var(1.0, 2.0, 1.0).is_err());
        assert!(p.add_var(1.0, 0.0, f64::NAN).is_err());
        assert!(p.add_var(1.0, 0.0, f64::INFINITY).is_ok());
        assert_eq!(p.num_vars(), 1);
    }

    #[test]
    fn constraint_validates_and_merges_duplicates() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 0.0, 1.0).unwrap();
        assert!(p
            .add_constraint(&[(VarId(7), 1.0)], Relation::Le, 1.0)
            .is_err());
        assert!(p
            .add_constraint(&[(x, f64::INFINITY)], Relation::Le, 1.0)
            .is_err());
        assert!(p
            .add_constraint(&[(x, 1.0)], Relation::Le, f64::NAN)
            .is_err());
        p.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(p.constraints[0].terms, vec![(0, 3.0)]);
        // Merged terms keep first-occurrence order; a row without
        // duplicates is stored as given, sorted or not.
        let y = p.add_var(0.0, 0.0, 1.0).unwrap();
        let z = p.add_var(0.0, 0.0, 1.0).unwrap();
        p.add_constraint(&[(z, 1.0), (x, 1.0), (z, 2.0), (y, 4.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(p.constraints[1].terms, vec![(2, 3.0), (0, 1.0), (1, 4.0)]);
        p.add_constraint(&[(z, 1.0), (x, 1.0), (y, 4.0)], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(p.constraints[2].terms, vec![(2, 1.0), (0, 1.0), (1, 4.0)]);
    }

    #[test]
    fn feasibility_checker() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, 0.0, 10.0).unwrap();
        let y = p.add_var(1.0, 0.0, 10.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        assert!(p.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[2.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[-1.0, 6.0], 1e-9));
        assert!(!p.is_feasible(&[5.0], 1e-9));
        assert_eq!(p.objective_at(&[2.0, 3.0]), 5.0);
    }

    #[test]
    fn lp_format_is_complete() {
        let mut p = Problem::new();
        let x = p.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        let y = p.add_var(2.5, 1.0, 4.0).unwrap();
        p.add_constraint(&[(x, 1.0), (y, -3.0)], Relation::Le, 7.0)
            .unwrap();
        p.add_constraint(&[(y, 1.0)], Relation::Eq, 2.0).unwrap();
        let mut out = Vec::new();
        p.write_lp_format(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Minimize"), "{text}");
        assert!(text.contains("-1 x0"), "{text}");
        assert!(text.contains("2.5 x1"), "{text}");
        assert!(text.contains("1 x0 -3 x1 <= 7"), "{text}");
        assert!(text.contains("1 x1 = 2"), "{text}");
        assert!(text.contains("x0 >= 0"), "{text}");
        assert!(text.contains("1 <= x1 <= 4"), "{text}");
        assert!(text.trim_end().ends_with("End"), "{text}");
    }
}
