//! Directed acyclic graph over workflow jobs.
//!
//! Nodes are dense indices `0..n` (the position of each job within its
//! workflow); edges point from a job to the jobs that depend on it — the
//! paper's `P_i^j`, "all the jobs that depend on the j-th job" (Section
//! II-A). Acyclicity is validated on demand by [`crate::topo`].

use crate::error::DagError;
use serde::{Deserialize, Serialize};

/// A dependency graph over `n` jobs.
///
/// # Example
///
/// ```
/// use flowtime_dag::Dag;
/// # fn main() -> Result<(), flowtime_dag::DagError> {
/// let mut dag = Dag::new(3);
/// dag.add_edge(0, 1)?; // job 1 depends on job 0
/// dag.add_edge(1, 2)?;
/// assert_eq!(dag.successors(0), &[1]);
/// assert_eq!(dag.predecessors(2), &[1]);
/// assert_eq!(dag.sources().collect::<Vec<_>>(), vec![0]);
/// assert_eq!(dag.sinks().collect::<Vec<_>>(), vec![2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag {
    n: usize,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Dag {
    /// Creates an edgeless graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Dag {
            n,
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Creates a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Dag::add_edge`].
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, DagError> {
        let mut dag = Dag::new(n);
        for (from, to) in edges {
            dag.add_edge(from, to)?;
        }
        Ok(dag)
    }

    /// Adds a dependency edge `from -> to` (job `to` cannot start until job
    /// `from` completes).
    ///
    /// # Errors
    ///
    /// * [`DagError::NodeOutOfRange`] if either endpoint is `>= n`.
    /// * [`DagError::SelfLoop`] if `from == to`.
    /// * [`DagError::DuplicateEdge`] if the edge already exists.
    ///
    /// Cycles are *not* detected here (that would make edge insertion
    /// quadratic); they are reported by [`crate::topo::topological_order`].
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), DagError> {
        for node in [from, to] {
            if node >= self.n {
                return Err(DagError::NodeOutOfRange { node, len: self.n });
            }
        }
        if from == to {
            return Err(DagError::SelfLoop { node: from });
        }
        if self.succ[from].contains(&to) {
            return Err(DagError::DuplicateEdge { from, to });
        }
        self.succ[from].push(to);
        self.pred[to].push(from);
        self.edge_count += 1;
        Ok(())
    }

    /// Checks that this is a graph [`Dag::from_edges`] builds over `n`
    /// nodes — what a deserialized graph must be before its adjacency
    /// lists are indexed.
    ///
    /// # Errors
    ///
    /// The errors of [`Dag::add_edge`] for an edge that is not one over
    /// `n` nodes; [`DagError::Inconsistent`] for a node count other than
    /// `n` or adjacency lists that disagree with each other.
    pub fn validate(&self, n: usize) -> Result<(), DagError> {
        let rebuilt = Dag::from_edges(n, self.edges())?;
        // `from_edges` lists each node's predecessors in ascending order;
        // a builder lists them in the order the edges were added.
        let mut sorted = self.clone();
        sorted.pred.iter_mut().for_each(|p| p.sort_unstable());
        if sorted != rebuilt {
            let (nodes, jobs) = (self.n, n);
            return Err(DagError::Inconsistent { nodes, jobs });
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Nodes that depend on `node` (out-neighbours).
    ///
    /// # Panics
    ///
    /// Panics if `node >= len()`.
    pub fn successors(&self, node: usize) -> &[usize] {
        &self.succ[node]
    }

    /// Nodes that `node` depends on (in-neighbours).
    ///
    /// # Panics
    ///
    /// Panics if `node >= len()`.
    pub fn predecessors(&self, node: usize) -> &[usize] {
        &self.pred[node]
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.pred.iter().map(Vec::len).collect()
    }

    /// Nodes with no predecessors (entry jobs).
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&v| self.pred[v].is_empty())
    }

    /// Nodes with no successors (exit jobs).
    pub fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&v| self.succ[v].is_empty())
    }

    /// All edges as `(from, to)` pairs, in insertion order per source node.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (from, to)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let dag = Dag::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.edge_count(), 4);
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.predecessors(3), &[1, 2]);
        assert_eq!(dag.sources().collect::<Vec<_>>(), vec![0]);
        assert_eq!(dag.sinks().collect::<Vec<_>>(), vec![3]);
        assert_eq!(dag.edges().count(), 4);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut dag = Dag::new(2);
        assert_eq!(
            dag.add_edge(0, 5),
            Err(DagError::NodeOutOfRange { node: 5, len: 2 })
        );
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let mut dag = Dag::new(2);
        assert_eq!(dag.add_edge(1, 1), Err(DagError::SelfLoop { node: 1 }));
        dag.add_edge(0, 1).unwrap();
        assert_eq!(
            dag.add_edge(0, 1),
            Err(DagError::DuplicateEdge { from: 0, to: 1 })
        );
    }

    #[test]
    fn empty_graph() {
        let dag = Dag::new(0);
        assert!(dag.is_empty());
        assert_eq!(dag.sources().count(), 0);
        assert_eq!(dag.in_degrees(), Vec::<usize>::new());
    }

    #[test]
    fn validate_accepts_any_edge_order_and_refuses_other_graphs() {
        let dag = Dag::from_edges(3, [(1, 2), (0, 2)]).unwrap();
        assert_eq!(dag.predecessors(2), &[1, 0]);
        assert_eq!(dag.validate(3), Ok(()));
        assert_eq!(
            dag.validate(2),
            Err(DagError::NodeOutOfRange { node: 2, len: 2 })
        );
        assert_eq!(
            dag.validate(4),
            Err(DagError::Inconsistent { nodes: 3, jobs: 4 })
        );
        let mut torn = dag.clone();
        torn.pred[0].push(2);
        assert_eq!(
            torn.validate(3),
            Err(DagError::Inconsistent { nodes: 3, jobs: 3 })
        );
    }

    #[test]
    fn isolated_nodes_are_sources_and_sinks() {
        let dag = Dag::new(3);
        assert_eq!(dag.sources().count(), 3);
        assert_eq!(dag.sinks().count(), 3);
    }
}
