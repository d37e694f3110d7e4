//! FlowTime: dynamic scheduling of deadline-aware workflows and ad-hoc jobs.
//!
//! This crate is the primary contribution of the reproduction of
//! *FlowTime: Dynamic Scheduling of Deadline-Aware Workflows and Ad-hoc
//! Jobs* (Hu, Li, Chen, Ke — ICDCS 2018). It composes the workspace
//! substrates into the paper's two-stage system:
//!
//! 1. **Deadline decomposition** ([`decompose`]) — Section IV: a workflow's
//!    deadline is split into per-job deadlines by grouping the DAG into
//!    topological *node sets*, reserving each set's minimum runtime, and
//!    distributing the remaining window **proportionally to each set's
//!    resource demand** (with a critical-path fallback for tight windows and
//!    a configurable *deadline slack*).
//! 2. **LP co-scheduling** ([`lp_sched`]) — Section V: the decomposed jobs
//!    are placed over a slot horizon by lexicographically minimizing the
//!    maximum normalized cluster load (Eq. (1)), leaving the largest and
//!    flattest possible residual capacity for ad-hoc jobs. Two exact
//!    backends are provided: the paper's LP (our simplex solver,
//!    `flowtime-lp`) and an equivalent parametric max-flow formulation
//!    (`flowtime-flow`) justified by the same total-unimodularity argument
//!    as the paper's Lemma 2.
//!
//! The [`schedulers`] module packages the full FlowTime algorithm and the
//! five baselines evaluated in the paper (EDF, FIFO, Fair, CORA-like,
//! Morpheus-like) as [`flowtime_sim::Scheduler`] implementations; the
//! [`registry`] resolves them by name ([`Algo`]), [`run`](run::run) is
//! the single path that executes a workload under one of them, and
//! [`args`] is the single flag parser of every binary that does.
//!
//! # Quickstart
//!
//! ```
//! use flowtime::prelude::*;
//! use flowtime_dag::prelude::*;
//! use flowtime_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One two-stage workflow with a loose deadline...
//! let mut b = WorkflowBuilder::new(WorkflowId::new(1), "nightly-etl");
//! let extract = b.add_job(JobSpec::new("extract", 20, 2, ResourceVec::new([1, 2048])));
//! let load = b.add_job(JobSpec::new("load", 10, 2, ResourceVec::new([1, 2048])));
//! b.add_dep(extract, load)?;
//! let wf = b.window(0, 120).build()?;
//!
//! // ...plus an ad-hoc job that arrives while it runs.
//! let mut workload = SimWorkload::default();
//! workload.workflows.push(WorkflowSubmission::new(wf));
//! workload.adhoc.push(AdhocSubmission::new(
//!     JobSpec::new("query", 12, 1, ResourceVec::new([1, 2048])),
//!     5,
//! ));
//!
//! let cluster = ClusterConfig::new(ResourceVec::new([10, 65536]), 10.0);
//! let mut scheduler = FlowTimeScheduler::new(cluster.clone(), FlowTimeConfig::default());
//! let outcome = Engine::new(cluster, workload, 10_000)?.run(&mut scheduler)?;
//! assert_eq!(outcome.metrics.workflow_deadline_misses(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod decompose;
pub mod error;
pub mod estimate;
pub mod lp_sched;
pub mod registry;
pub mod run;
pub mod schedulers;

pub use args::Args;
pub use decompose::{DecomposeConfig, Decomposer, Decomposition, JobWindow};
pub use error::CoreError;
pub use estimate::RunHistory;
pub use lp_sched::{LevelingProblem, Plan, PlanJob, SolverBackend};
pub use registry::Algo;
pub use run::{run, RunOutput, RunSpec};
pub use schedulers::{
    CoraScheduler, EdfScheduler, FairScheduler, FifoScheduler, FlowTimeConfig, FlowTimeScheduler,
    MorpheusScheduler,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::decompose::{DecomposeConfig, Decomposer, Decomposition, JobWindow};
    pub use crate::lp_sched::{LevelingProblem, Plan, PlanJob, SolverBackend};
    pub use crate::schedulers::{
        CoraScheduler, EdfScheduler, FairScheduler, FifoScheduler, FlowTimeConfig,
        FlowTimeScheduler, MorpheusScheduler,
    };
    pub use crate::CoreError;
}
