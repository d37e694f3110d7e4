//! Slot-based discrete-event cluster simulator.
//!
//! The paper evaluates FlowTime on a YARN cluster plus trace-driven
//! simulation. This crate is the simulation substrate: a deterministic,
//! slot-based cluster model against which every scheduling algorithm in the
//! reproduction (FlowTime and the five baselines) runs under identical
//! workloads.
//!
//! # Model
//!
//! * Time advances in discrete **slots** (the paper uses 10 s slots). Each
//!   slot, the active [`Scheduler`] is asked for an allocation: how many
//!   concurrent tasks of each runnable job to run during that slot.
//! * A job is a batch of identical tasks ([`flowtime_dag::JobSpec`]);
//!   running `q` tasks for one slot performs `q` task-slots of **work** and
//!   occupies `q ×` the job's per-task [`flowtime_dag::ResourceVec`]. The
//!   job completes when accumulated work reaches its *actual* work, which
//!   may differ from the scheduler-visible estimate (estimation error,
//!   Section III-A "robustness").
//! * **Deadline jobs** belong to workflows and become ready when their DAG
//!   predecessors complete. **Ad-hoc jobs** arrive at any slot and their
//!   size is invisible to schedulers ([`state::JobView::estimated_remaining`]
//!   is `None`), exactly as in the paper's system model (Section II-A).
//! * The engine validates every allocation (capacity, readiness,
//!   parallelism caps) and rejects schedulers that cheat with a
//!   [`SimError`].
//!
//! # Example
//!
//! ```
//! use flowtime_sim::prelude::*;
//! use flowtime_dag::prelude::*;
//!
//! /// A trivial scheduler: run every ready job at full parallelism FIFO.
//! struct Greedy;
//! impl Scheduler for Greedy {
//!     fn name(&self) -> &'static str { "greedy" }
//!     fn plan_slot(&mut self, state: &SimState) -> Allocation {
//!         let mut alloc = Allocation::new();
//!         let mut free = state.capacity();
//!         for job in state.runnable() {
//!             let fit = job.per_task.times_fitting(&free).min(job.max_tasks_this_slot);
//!             if fit > 0 {
//!                 alloc.assign(job.id, fit);
//!                 free -= job.per_task * fit;
//!             }
//!         }
//!         alloc
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut workload = SimWorkload::default();
//! workload.adhoc.push(AdhocSubmission::new(
//!     JobSpec::new("adhoc", 8, 2, ResourceVec::new([1, 1024])),
//!     0,
//! ));
//! let cluster = ClusterConfig::new(ResourceVec::new([8, 65536]), 10.0);
//! let outcome = Engine::new(cluster, workload, 1_000)?.run(&mut Greedy)?;
//! assert_eq!(outcome.metrics.completed_jobs(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod explain;
pub mod faults;
pub mod invariants;
pub mod job;
pub mod metrics;
pub mod online;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod placement;
pub mod scheduler;
pub mod shard;
pub mod state;
pub mod submission;
pub mod sweep;
pub mod telemetry;
pub mod timeline;
pub mod trace;
pub mod whatif;

pub use audit::{
    certify, certify_log, certify_sharded, certify_with_recovery, AuditReport, AuditViolation,
};
pub use cluster::ClusterConfig;
pub use engine::{Engine, SimOutcome, StepOutcome};
pub use error::SimError;
pub use explain::{
    explain, explain_log, Diagnostic, EventRef, ExplainError, ExplainReport, WorkflowExplanation,
};
pub use faults::{
    runtime_fault_horizon, FaultConfig, FaultPlan, RecoveryPolicy, RecoverySetup,
    RuntimeFaultConfig, RuntimeFaultPlan, ShedPolicy,
};
pub use invariants::InvariantChecker;
pub use job::{AdhocSubmission, JobClass, SimWorkload, WorkflowSubmission};
pub use metrics::{
    InFlightJob, JobOutcome, Metrics, MissAttribution, NodeSlackUse, RecoveryStats, ShedJob,
};
pub use online::{OnlineEngine, OnlineStatus};
#[cfg(any(test, feature = "oracle"))]
pub use oracle::OracleEngine;
pub use placement::{NodePool, PackResult};
pub use scheduler::{Allocation, Scheduler};
pub use shard::{
    place, place_log, pod_cluster, require_demand_placer, split_capacity, PlacementLog,
    PlacerState, ShardedOutcome,
};
pub use state::{JobView, SimState, WorkflowView};
pub use submission::{EffectiveSubmission, LogEntry, SubmissionLog};
pub use sweep::run_cells;
pub use telemetry::{EngineTelemetry, SolverTelemetry};
pub use timeline::{Timeline, TimelineEntry};
pub use trace::{
    DecisionTrace, FaultRecord, TraceError, TraceEvent, TraceHandle, TraceHeader, TraceJobMeta,
    DEFAULT_TRACE_CAPACITY,
};
pub use whatif::{
    certified_diff, certified_sharded_diff, diff_runs, DiffRow, DiffSummary, Divergence, JobFate,
    RunArtifacts, ShardedRunArtifacts, WhatIfDiff, WhatIfError, WorkflowDiffRow,
};

/// Serde `skip_serializing_if` predicates shared by the outcome types:
/// every recovery-era field is skipped at its default so outcomes from
/// runs without mid-run faults stay byte-identical to older ones.
pub mod serde_skip {
    /// True for zero (skip the field).
    pub fn zero_u64(v: &u64) -> bool {
        *v == 0
    }

    /// True for an empty vector (skip the field).
    pub fn empty_vec<T>(v: &[T]) -> bool {
        v.is_empty()
    }
}

/// Convenience re-exports for schedulers and experiment harnesses.
pub mod prelude {
    pub use crate::job::SimWorkload;
    pub use crate::{
        certify, certify_with_recovery, AdhocSubmission, Allocation, AuditReport, ClusterConfig,
        DecisionTrace, Engine, EngineTelemetry, FaultConfig, FaultPlan, InFlightJob, JobClass,
        JobView, Metrics, MissAttribution, RecoveryPolicy, RecoverySetup, RecoveryStats,
        RuntimeFaultConfig, RuntimeFaultPlan, Scheduler, ShedPolicy, SimError, SimOutcome,
        SimState, SolverTelemetry, TraceHandle, WorkflowSubmission, WorkflowView,
    };
}
