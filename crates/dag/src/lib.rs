//! Workflow DAG model for the FlowTime scheduler.
//!
//! This crate is the bottom-most substrate of the FlowTime reproduction. It
//! defines:
//!
//! * typed identifiers for jobs and workflows ([`ids`]),
//! * the multi-resource vector type used across the workspace ([`resources`]),
//! * job specifications with task-level demand estimates ([`job`]),
//! * a directed acyclic graph over jobs ([`graph`]),
//! * Kahn's algorithm with *level-set* grouping — the paper's
//!   "node sets" of Section IV ([`topo`]),
//! * critical-path analysis used by the fallback decomposer
//!   ([`critical_path`]), and
//! * the [`Workflow`](workflow::Workflow) bundle `W = {Q, ws, wd, P}` of the
//!   paper's system model (Section II-A).
//!
//! # Example
//!
//! Build the paper's Fig. 3 fork-join workflow (`1 → {2..n} → n+1`) and
//! inspect its level sets:
//!
//! ```
//! use flowtime_dag::prelude::*;
//!
//! # fn main() -> Result<(), DagError> {
//! let mut b = WorkflowBuilder::new(WorkflowId::new(1), "fork-join");
//! let head = b.add_job(JobSpec::new("head", 10, 2, ResourceVec::new([10, 1024])));
//! let mids: Vec<_> = (0..4)
//!     .map(|i| b.add_job(JobSpec::new(format!("mid{i}"), 10, 2, ResourceVec::new([10, 1024]))))
//!     .collect();
//! let tail = b.add_job(JobSpec::new("tail", 10, 2, ResourceVec::new([10, 1024])));
//! for &m in &mids {
//!     b.add_dep(head, m)?;
//!     b.add_dep(m, tail)?;
//! }
//! let wf = b.window(0, 100).build()?;
//! let levels = wf.level_sets();
//! assert_eq!(levels.len(), 3);
//! assert_eq!(levels[1].len(), 4); // the parallel middle set
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod error;
pub mod graph;
pub mod ids;
pub mod job;
pub mod resources;
pub mod topo;
pub mod workflow;

pub use critical_path::CriticalPath;
pub use error::DagError;
pub use graph::Dag;
pub use ids::{JobId, WorkflowId};
pub use job::JobSpec;
pub use resources::{ResourceKind, ResourceVec, NUM_RESOURCES};
pub use topo::{level_sets, topological_order};
pub use workflow::{Workflow, WorkflowBuilder};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::{
        CriticalPath, Dag, DagError, JobId, JobSpec, ResourceKind, ResourceVec, Workflow,
        WorkflowBuilder, WorkflowId, NUM_RESOURCES,
    };
}
