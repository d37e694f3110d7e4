//! Max-flow based solvers for the FlowTime scheduling polytope.
//!
//! Lemma 2 of the paper shows the deadline-scheduling constraint matrix is
//! totally unimodular: each allocation variable `x_it` appears in one job
//! (demand) row and one slot (capacity) row — an interval/bipartite
//! structure. That polytope is a *transportation polytope*, so the LP can
//! also be solved exactly — with guaranteed integral solutions — by
//! combinatorial max-flow:
//!
//! * [`graph::FlowNetwork`] + [`dinic::Dinic`] — Dinic's max-flow algorithm
//!   on integer capacities.
//! * [`leveling`] — the scheduler's actual question: the **lexicographic
//!   min-max load profile** (paper Eq. (1)), found by parametric binary
//!   search over the peak ratio with min-cut-guided slot fixing.
//!
//! This crate serves as the exact combinatorial backend and as an
//! independent cross-check of the simplex backend in `flowtime-lp`; the
//! property-test suite asserts both produce the same optimal peak.
//!
//! # Example
//!
//! ```
//! use flowtime_flow::leveling::{LevelingInstance, LevelingJob};
//!
//! # fn main() -> Result<(), flowtime_flow::FlowError> {
//! // Two jobs on a 4-slot horizon of capacity 10/slot.
//! let inst = LevelingInstance {
//!     slot_caps: vec![10; 4],
//!     jobs: vec![
//!         LevelingJob { start: 0, end: 4, demand: 12, per_slot_cap: None },
//!         LevelingJob { start: 0, end: 2, demand: 8, per_slot_cap: None },
//!     ],
//! };
//! let sol = inst.solve_lexmin()?;
//! // 20 units over 4 slots level out to 5 per slot.
//! assert!((sol.peak_ratio - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dinic;
pub mod error;
pub mod graph;
pub mod leveling;

pub use dinic::Dinic;
pub use error::FlowError;
pub use graph::{EdgeId, FlowNetwork, NodeId};
pub use leveling::{LevelingInstance, LevelingJob, LevelingSolution};
