//! Error type for the FlowTime core.

use flowtime_dag::{DagError, JobId};
use flowtime_flow::FlowError;
use flowtime_lp::LpError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by deadline decomposition and plan construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying DAG was malformed.
    Dag(DagError),
    /// The LP backend failed (infeasible plan, iteration limit, ...).
    Lp(LpError),
    /// The flow backend failed.
    Flow(FlowError),
    /// A workflow window is shorter than one slot per level set, so no
    /// decomposition can assign every job a non-empty window.
    WindowTooTight {
        /// Number of level sets needing at least one slot each.
        level_sets: usize,
        /// The available window in slots.
        window: u64,
    },
    /// A planning request mixed slot horizons inconsistently.
    BadHorizon {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A solver returned a non-finite allocation, which no integral plan
    /// can be rounded from.
    NonFiniteAllocation {
        /// The job the value belongs to.
        job: JobId,
        /// The horizon slot it was for.
        slot: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dag(e) => write!(f, "dag error: {e}"),
            CoreError::Lp(e) => write!(f, "lp error: {e}"),
            CoreError::Flow(e) => write!(f, "flow error: {e}"),
            CoreError::WindowTooTight { level_sets, window } => write!(
                f,
                "workflow window of {window} slots cannot cover {level_sets} sequential level sets"
            ),
            CoreError::BadHorizon { reason } => write!(f, "bad planning horizon: {reason}"),
            CoreError::NonFiniteAllocation { job, slot } => {
                write!(f, "non-finite allocation for job {job} in slot {slot}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Dag(e) => Some(e),
            CoreError::Lp(e) => Some(e),
            CoreError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for CoreError {
    fn from(e: DagError) -> Self {
        CoreError::Dag(e)
    }
}

impl From<LpError> for CoreError {
    fn from(e: LpError) -> Self {
        CoreError::Lp(e)
    }
}

impl From<FlowError> for CoreError {
    fn from(e: FlowError) -> Self {
        CoreError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = DagError::EmptyWorkflow.into();
        assert!(e.to_string().contains("dag error"));
        assert!(e.source().is_some());
        let e: CoreError = LpError::Infeasible.into();
        assert!(e.to_string().contains("lp error"));
        let e: CoreError = FlowError::Infeasible.into();
        assert!(e.to_string().contains("flow error"));
        let e = CoreError::WindowTooTight {
            level_sets: 3,
            window: 2,
        };
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
        assert!(!CoreError::BadHorizon { reason: "x" }.to_string().is_empty());
        let e = CoreError::NonFiniteAllocation {
            job: JobId::new(4),
            slot: 2,
        };
        assert!(e.to_string().contains("slot 2"), "{e}");
    }
}
