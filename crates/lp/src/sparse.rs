//! Sparse standard-form representation for the revised simplex.
//!
//! [`SparseForm`] is the column-compressed analogue of the dense tableau's
//! standard-form conversion: every structural variable shifted by its lower
//! bound so domains are `[0, u]`, one slack/surplus column per inequality,
//! one artificial per row, rows normalized to a non-negative right-hand
//! side. Column orientations carry the bound-flip state (`x ↦ u − x` is a
//! stored column negation), exactly as in the dense tableau, so the two
//! engines walk the same working space and export interchangeable bases.
//!
//! The scheduling LPs this crate serves (paper Lemma 2) have *interval*
//! columns: each `x_{i,t}` touches one demand row and the capacity rows of
//! a single slot, and a job's columns cover a contiguous slot range. The
//! resulting bases are near-banded, which is what keeps LU fill-in small in
//! [`crate::lu`].

use crate::error::LpError;
use crate::problem::{Problem, Relation};

/// A column-compressed sparse matrix (CSC) with mutable values, used for
/// the standard-form constraint matrix. Row indices within a column are
/// strictly increasing.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    /// Number of rows.
    pub m: usize,
    /// Column start offsets into `row_idx`/`values` (`n + 1` entries).
    pub col_ptr: Vec<usize>,
    /// Row index of each stored entry.
    pub row_idx: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from per-column entry lists.
    pub fn from_columns(m: usize, columns: &[Vec<(usize, f64)>]) -> CscMatrix {
        let nnz: usize = columns.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in columns {
            for &(r, v) in col {
                debug_assert!(r < m);
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            m,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .zip(self.values[range].iter())
            .map(|(&r, &v)| (r, v))
    }

    /// Entry count of column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Negates every stored value of column `j` (the bound-flip column
    /// transformation).
    pub fn negate_col(&mut self, j: usize) {
        for v in &mut self.values[self.col_ptr[j]..self.col_ptr[j + 1]] {
            *v = -*v;
        }
    }

    /// Zeroes the stored entry of column `j` in row `row`, keeping its
    /// place in the pattern; returns its index in `values` and the value
    /// it held, or `None` when the column stores nothing there.
    pub fn take_entry(&mut self, row: usize, j: usize) -> Option<(usize, f64)> {
        let k = (self.col_ptr[j]..self.col_ptr[j + 1]).find(|&k| self.row_idx[k] == row)?;
        Some((k, std::mem::replace(&mut self.values[k], 0.0)))
    }

    /// Largest magnitude stored in column `j`.
    pub fn col_max(&self, j: usize) -> f64 {
        self.col(j).fold(0.0f64, |m, (_, v)| m.max(v.abs()))
    }

    /// Sparse dot product of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        self.col(j).map(|(r, v)| v * x[r]).sum()
    }

    /// Scatters column `j` into a dense vector (adds onto existing values).
    pub fn scatter_col(&self, j: usize, scale: f64, out: &mut [f64]) {
        for (r, v) in self.col(j) {
            out[r] += scale * v;
        }
    }
}

/// The standard-form LP in column-sparse layout, sharing the dense
/// tableau's column indexing: `[0, n_struct)` structural, `[n_struct,
/// n_real)` slack/surplus, `[n_real, width)` artificial.
#[derive(Debug, Clone)]
pub struct SparseForm {
    /// Row count.
    pub m: usize,
    /// Structural variable count.
    #[cfg_attr(not(test), allow(dead_code))]
    pub n_struct: usize,
    /// Structural + slack column count (artificials excluded).
    pub n_real: usize,
    /// Total columns including artificials.
    pub width: usize,
    /// First artificial column index (`== n_real`).
    pub art_start: usize,
    /// Constraint matrix in the *current* column orientation (flipped
    /// columns are stored negated).
    pub a: CscMatrix,
    /// Current effective right-hand side, adjusted for every flip applied
    /// so far (`b − Σ_flipped u_j · a_j` in current orientations).
    pub b: Vec<f64>,
    /// `−1.0` for a row stored negated (its shifted right-hand side was
    /// negative when the form was built), else `1.0`. A row patched later
    /// keeps the orientation it was stored in.
    pub sign: Vec<f64>,
    /// Upper bound of each column in the working (shifted) space.
    pub upper: Vec<f64>,
    /// Whether each column is currently complemented.
    pub flipped: Vec<bool>,
    /// Phase-2 cost of each column, in *original* orientation.
    pub cost2: Vec<f64>,
    /// Accumulated phase-2 objective constant from shifts and flips.
    pub flip_const2: f64,
}

impl SparseForm {
    /// Standard-form conversion mirroring the dense tableau's
    /// `build_tableau` byte for byte in semantics: same shifts, same slack
    /// and artificial layout, same row normalization.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidBounds`] if some variable has an empty domain.
    pub fn build(problem: &Problem) -> Result<SparseForm, LpError> {
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
        // Shifted right-hand sides and the per-row normalization sign.
        let mut b = vec![0.0f64; m];
        let mut sign = vec![1.0f64; m];
        for (i, con) in problem.constraints.iter().enumerate() {
            let mut rhs = con.rhs;
            for &(v, a) in &con.terms {
                rhs -= a * problem.lower[v];
            }
            if rhs < 0.0 {
                sign[i] = -1.0;
                rhs = -rhs;
            }
            b[i] = rhs;
        }
        let n_slack = problem
            .constraints
            .iter()
            .filter(|c| c.relation != Relation::Eq)
            .count();
        let n_real = n_struct + n_slack;
        let width = n_real + m;
        // Gather columns: structural from the row-major constraint data,
        // then slack singletons, then artificial singletons.
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); width];
        let mut slack_idx = n_struct;
        for (i, con) in problem.constraints.iter().enumerate() {
            for &(v, a) in &con.terms {
                if a != 0.0 {
                    columns[v].push((i, a * sign[i]));
                }
            }
            match con.relation {
                Relation::Le => {
                    columns[slack_idx].push((i, sign[i]));
                    slack_idx += 1;
                }
                Relation::Ge => {
                    columns[slack_idx].push((i, -sign[i]));
                    slack_idx += 1;
                }
                Relation::Eq => {}
            }
            columns[n_real + i].push((i, 1.0));
        }
        let a = CscMatrix::from_columns(m, &columns);
        upper.resize(n_real, f64::INFINITY); // slacks unbounded above
        upper.resize(width, f64::INFINITY); // artificials (barred later)

        let mut cost2 = vec![0.0f64; width];
        cost2[..n_struct].copy_from_slice(&problem.objective);
        let flip_const2: f64 = problem
            .objective
            .iter()
            .zip(problem.lower.iter())
            .map(|(c, l)| c * l)
            .sum();

        Ok(SparseForm {
            m,
            n_struct,
            n_real,
            width,
            art_start: n_real,
            a,
            b,
            sign,
            upper,
            flipped: vec![false; width],
            cost2,
            flip_const2,
        })
    }

    /// The effective right-hand side of stored row `row` for the
    /// constraint `Σ terms ⋈ rhs` with `skip`'s term left out, from
    /// scratch: shifted by the lower bounds, less the share of every
    /// complemented column, in the row's stored orientation.
    pub fn row_rhs(
        &self,
        row: usize,
        terms: &[(usize, f64)],
        skip: Option<usize>,
        rhs: f64,
        lower: &[f64],
    ) -> f64 {
        let kept = || terms.iter().filter(|&&(v, _)| Some(v) != skip);
        let sign = self.sign[row];
        let mut shifted = rhs;
        for &(v, a) in kept() {
            shifted -= a * lower[v];
        }
        let mut b = sign * shifted;
        for &(v, a) in kept() {
            if self.flipped[v] {
                b -= sign * a * self.upper[v];
            }
        }
        b
    }

    /// Phase-2 cost of column `j` in its current orientation.
    pub fn effective_cost2(&self, j: usize) -> f64 {
        if self.flipped[j] {
            -self.cost2[j]
        } else {
            self.cost2[j]
        }
    }

    /// Cost of column `j` for the given phase, current orientation.
    pub fn effective_cost(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            if j >= self.art_start {
                1.0
            } else {
                0.0
            }
        } else {
            self.effective_cost2(j)
        }
    }

    /// Complements column `j`: accounts the objective constant, adjusts the
    /// effective right-hand side, and negates the stored column. The caller
    /// is responsible for any `beta` update (the engines maintain basic
    /// values incrementally, exactly like the dense tableau).
    pub fn flip_column(&mut self, j: usize) {
        let u = self.upper[j];
        debug_assert!(u.is_finite());
        self.flip_const2 += self.effective_cost2(j) * u;
        for k in self.a.col_ptr[j]..self.a.col_ptr[j + 1] {
            self.b[self.a.row_idx[k]] -= self.a.values[k] * u;
        }
        self.a.negate_col(j);
        self.flipped[j] = !self.flipped[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation};

    fn sample() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var(2.0, 1.0, 5.0).unwrap();
        let y = p.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Le, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 3.0), (y, -1.0)], Relation::Ge, -4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 6.0)
            .unwrap();
        p
    }

    #[test]
    fn layout_matches_dense_convention() {
        let f = SparseForm::build(&sample()).unwrap();
        assert_eq!(f.m, 3);
        assert_eq!(f.n_struct, 2);
        assert_eq!(f.n_real, 4); // two inequality slacks
        assert_eq!(f.width, 7); // + three artificials
                                // Row 0: rhs 10 - 1*1 = 9 (positive, unnormalized).
        assert!((f.b[0] - 9.0).abs() < 1e-12);
        // Row 1: rhs -4 - 3*1 = -7 -> normalized to 7 with negated row.
        assert!((f.b[1] - 7.0).abs() < 1e-12);
        // Row 2: rhs 6 - 1 = 5.
        assert!((f.b[2] - 5.0).abs() < 1e-12);
        // Column x touches all three rows; row 1 negated.
        let col: Vec<(usize, f64)> = f.a.col(0).collect();
        assert_eq!(col, vec![(0, 1.0), (1, -3.0), (2, 1.0)]);
        // Surplus column of the Ge row: -1, then negated by normalization.
        let col: Vec<(usize, f64)> = f.a.col(3).collect();
        assert_eq!(col, vec![(1, 1.0)]);
        // Artificials are +1 singletons after normalization.
        for i in 0..3 {
            let col: Vec<(usize, f64)> = f.a.col(4 + i).collect();
            assert_eq!(col, vec![(i, 1.0)]);
        }
        // Shifted bounds and objective constant.
        assert!((f.upper[0] - 4.0).abs() < 1e-12);
        assert!(f.upper[1].is_infinite());
        assert!((f.flip_const2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flip_adjusts_rhs_and_orientation() {
        let mut f = SparseForm::build(&sample()).unwrap();
        let before = f.b.clone();
        f.flip_column(0);
        assert!(f.flipped[0]);
        // b -= u * a_col in the old orientation.
        assert!((f.b[0] - (before[0] - 4.0)).abs() < 1e-12);
        assert!((f.b[1] - (before[1] + 12.0)).abs() < 1e-12);
        let col: Vec<(usize, f64)> = f.a.col(0).collect();
        assert_eq!(col, vec![(0, -1.0), (1, 3.0), (2, -1.0)]);
        // Objective constant moved by c * u.
        assert!((f.flip_const2 - (2.0 + 2.0 * 4.0)).abs() < 1e-12);
        // Flipping back restores everything.
        f.flip_column(0);
        assert!(!f.flipped[0]);
        for (a, b) in f.b.iter().zip(before.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut p = Problem::new();
        p.objective.push(1.0);
        p.lower.push(3.0);
        p.upper.push(1.0);
        assert!(matches!(
            SparseForm::build(&p),
            Err(LpError::InvalidBounds { .. })
        ));
    }
}
