//! Error types for workflow construction and DAG analysis.

use std::error::Error;
use std::fmt;

/// Errors produced while building or analysing workflow DAGs.
///
/// # Example
///
/// ```
/// use flowtime_dag::{Dag, DagError};
/// let mut dag = Dag::new(2);
/// dag.add_edge(0, 1)?;
/// assert_eq!(dag.add_edge(1, 1), Err(DagError::SelfLoop { node: 1 }));
/// # Ok::<(), DagError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagError {
    /// An edge endpoint referred to a node index outside the graph.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        len: usize,
    },
    /// An edge from a node to itself was added.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// The same dependency edge was added twice.
    DuplicateEdge {
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// The dependency graph contains a cycle and is not a DAG.
    Cycle {
        /// A node known to participate in (or be downstream of) a cycle.
        node: usize,
    },
    /// A workflow was built with no jobs.
    EmptyWorkflow,
    /// A workflow window had `deadline <= submit`.
    InvalidWindow {
        /// Submission slot `ws`.
        submit: u64,
        /// Deadline slot `wd`.
        deadline: u64,
    },
    /// A job specification was invalid (zero tasks or zero task duration).
    InvalidJob {
        /// Index of the offending job within the workflow.
        index: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A deserialized graph is not one over the workflow's jobs: another
    /// node count, or adjacency lists that disagree with each other.
    Inconsistent {
        /// The graph's own node count.
        nodes: usize,
        /// The number of jobs it should range over.
        jobs: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange { node, len } => {
                write!(f, "node index {node} out of range for graph of {len} nodes")
            }
            DagError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            DagError::Cycle { node } => {
                write!(f, "dependency graph contains a cycle through node {node}")
            }
            DagError::EmptyWorkflow => f.write_str("workflow contains no jobs"),
            DagError::InvalidWindow { submit, deadline } => {
                write!(
                    f,
                    "workflow deadline {deadline} is not after submit time {submit}"
                )
            }
            DagError::InvalidJob { index, reason } => {
                write!(f, "job {index} is invalid: {reason}")
            }
            DagError::Inconsistent { nodes, jobs } => write!(
                f,
                "dependency graph of {nodes} nodes is not a graph over the {jobs} jobs"
            ),
        }
    }
}

impl Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs = [
            DagError::NodeOutOfRange { node: 3, len: 2 },
            DagError::SelfLoop { node: 1 },
            DagError::DuplicateEdge { from: 0, to: 1 },
            DagError::Cycle { node: 2 },
            DagError::EmptyWorkflow,
            DagError::InvalidWindow {
                submit: 5,
                deadline: 5,
            },
            DagError::InvalidJob {
                index: 0,
                reason: "zero tasks",
            },
            DagError::Inconsistent { nodes: 3, jobs: 2 },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase()
                    || msg.chars().next().unwrap().is_numeric()
            );
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<DagError>();
    }
}
