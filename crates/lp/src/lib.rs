//! A bounded-variable two-phase primal simplex linear-programming solver
//! with two interchangeable engines.
//!
//! The FlowTime paper (Section V) schedules deadline-aware jobs by solving a
//! linear program with CPLEX. Mature LP solvers are not available as pure
//! Rust crates, so this crate implements one from scratch:
//!
//! * [`Problem`] — an LP in the general form
//!   `min cᵀx  s.t.  Ax {≤,=,≥} b,  l ≤ x ≤ u`,
//!   built incrementally with [`Problem::add_var`] /
//!   [`Problem::add_constraint`].
//! * [`simplex::solve`] — a **bounded-variable two-phase primal simplex**.
//!   Variable upper bounds are handled implicitly (non-basic variables may
//!   sit at either bound, via the column-flip transformation), so the
//!   scheduling LP's per-slot parallelism caps do not inflate the row
//!   count. Anti-cycling falls back to Bland's rule after a stall, with
//!   basis-repeat detection surfacing [`LpError::Cycling`] when no rescue
//!   remains.
//!
//! Two engines implement the identical pivot policy and are selected with
//! [`SimplexEngine`] (per solve via [`SimplexOptions::engine`], or
//! process-wide via `set_default_engine`, which like the dense engine
//! exists only in test builds and under the `oracle` feature):
//!
//! * **Sparse revised simplex** (default) — the basis is held as a sparse
//!   LU factorization (Gilbert–Peierls left-looking factorization with
//!   partial pivoting and nnz-ascending column preorder) updated by a
//!   product-form eta file with periodic refactorization. Pricing uses
//!   BTRAN, entering columns FTRAN; a `‖B·β − b‖∞` residual self-check
//!   guards every refactorization. This exploits the near-banded interval
//!   structure of the paper's Lemma 2 LPs.
//! * **[`DenseOracle`]** — the original dense tableau engine, kept
//!   bit-for-bit intact behind the `oracle` feature (always available under
//!   `cfg(test)`) as a differential-testing oracle for the sparse path.
//!
//! Both engines share the warm-start contract: [`Basis`] export/import and
//! bounded dual-simplex repair, so cached bases transfer across engines.
//! A cold solve can also keep its factored optimum
//! ([`Problem::solve_retained`]); [`Retained::probe`] then answers LPs that
//! differ from it in one row — a term removed, the right-hand side moved —
//! in place, and leaves the retained optimum as it found it;
//! [`Retained::commit`] applies such changes to a few rows for good and
//! re-optimises from the retained vertex, keeping the new optimum.
//!
//! The solver is exact enough for the scheduling LPs of the paper: the
//! constraint matrices there are totally unimodular (paper Lemma 2), so
//! optimal bases are integral and the simplex returns integer allocations up
//! to floating-point round-off.
//!
//! # Example
//!
//! ```
//! use flowtime_lp::{Problem, Relation};
//!
//! # fn main() -> Result<(), flowtime_lp::LpError> {
//! // max x + 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var(-1.0, 0.0, f64::INFINITY)?; // minimize -x - 2y
//! let y = p.add_var(-2.0, 0.0, 3.0)?;
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)?;
//! let sol = p.solve()?;
//! assert!((sol.objective - (-7.0)).abs() < 1e-9); // x=1, y=3
//! assert!((sol.value(x) - 1.0).abs() < 1e-9);
//! assert!((sol.value(y) - 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod lu;
pub mod problem;
mod revised;
pub mod simplex;
pub mod solution;
mod sparse;

pub use error::LpError;
pub use problem::{Problem, Relation, VarId};
#[cfg(any(test, feature = "oracle"))]
pub use simplex::{default_engine, set_default_engine, DenseOracle};
pub use simplex::{Basis, Probe, Retained, SimplexEngine, SimplexOptions, WarmSolveResult};
pub use solution::{Solution, Status};
