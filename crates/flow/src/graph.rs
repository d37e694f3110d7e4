//! Residual flow network representation.

use crate::error::FlowError;

/// Index of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Handle to a directed edge, usable to query its final flow after a
/// max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

/// One directed arc and its residual twin.
#[derive(Debug, Clone)]
pub(crate) struct Arc {
    pub(crate) to: NodeId,
    /// Remaining residual capacity.
    pub(crate) cap: u64,
    /// Index of the reverse arc within `to`'s adjacency list.
    pub(crate) rev: usize,
    /// Original capacity (0 for residual twins).
    pub(crate) orig_cap: u64,
}

/// A directed flow network with integer capacities, stored as per-node
/// adjacency lists of residual arcs.
///
/// # Example
///
/// ```
/// use flowtime_flow::{FlowNetwork, Dinic};
/// # fn main() -> Result<(), flowtime_flow::FlowError> {
/// let mut net = FlowNetwork::new(4);
/// let e1 = net.add_edge(0, 1, 3)?;
/// net.add_edge(0, 2, 2)?;
/// net.add_edge(1, 3, 2)?;
/// net.add_edge(2, 3, 3)?;
/// net.add_edge(1, 2, 5)?;
/// let flow = Dinic::new(&mut net).max_flow(0, 3);
/// assert_eq!(flow, 5);
/// assert_eq!(net.flow(e1), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    pub(crate) adj: Vec<Vec<Arc>>,
    /// (node, arc-index) location of each public edge.
    edges: Vec<(NodeId, usize)>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// A network whose node `v` has room for exactly `degrees[v]` arcs
    /// (forward arcs out of it plus residual twins into it) and for `edges`
    /// edges, so a build that adds exactly those never reallocates.
    pub(crate) fn with_degrees(degrees: &[usize], edges: usize) -> Self {
        FlowNetwork {
            adj: degrees.iter().map(|&d| Vec::with_capacity(d)).collect(),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (forward) edges added.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap`.
    ///
    /// # Errors
    ///
    /// [`FlowError::NodeOutOfRange`] if either endpoint does not exist.
    /// Self-loops are permitted but never carry flow.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: u64) -> Result<EdgeId, FlowError> {
        let n = self.adj.len();
        for node in [from, to] {
            if node >= n {
                return Err(FlowError::NodeOutOfRange { node, len: n });
            }
        }
        let fwd_idx = self.adj[from].len();
        let rev_idx = self.adj[to].len() + usize::from(from == to);
        self.adj[from].push(Arc {
            to,
            cap,
            rev: rev_idx,
            orig_cap: cap,
        });
        self.adj[to].push(Arc {
            to: from,
            cap: 0,
            rev: fwd_idx,
            orig_cap: 0,
        });
        self.edges.push((from, fwd_idx));
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// The flow currently carried by `edge` (meaningful after a max-flow
    /// run).
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this network.
    pub fn flow(&self, edge: EdgeId) -> u64 {
        let (node, idx) = self.edges[edge.0];
        let arc = &self.adj[node][idx];
        arc.orig_cap - arc.cap
    }

    /// Remaining residual capacity of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this network.
    pub fn residual(&self, edge: EdgeId) -> u64 {
        let (node, idx) = self.edges[edge.0];
        self.adj[node][idx].cap
    }

    /// Resets all flows to zero, keeping the topology and capacities.
    pub fn reset(&mut self) {
        for arcs in &mut self.adj {
            for arc in arcs.iter_mut() {
                arc.cap = arc.orig_cap;
            }
        }
    }

    /// Changes `edge`'s capacity in place, keeping the flow it carries.
    /// The caller first takes back any flow above the new capacity
    /// ([`FlowNetwork::cancel`]).
    pub(crate) fn set_capacity(&mut self, edge: EdgeId, cap: u64) {
        let (node, idx) = self.edges[edge.0];
        let arc = &mut self.adj[node][idx];
        let flow = arc.orig_cap - arc.cap;
        debug_assert!(flow <= cap, "flow above the new capacity");
        arc.orig_cap = cap;
        arc.cap = cap - flow;
    }

    /// Sends `amount` more units of flow along `edge`, at most its
    /// residual. Conservation at the edge's endpoints is the caller's to
    /// keep.
    pub(crate) fn push(&mut self, edge: EdgeId, amount: u64) {
        let (node, idx) = self.edges[edge.0];
        let arc = &mut self.adj[node][idx];
        arc.cap -= amount;
        let (to, rev) = (arc.to, arc.rev);
        self.adj[to][rev].cap += amount;
    }

    /// Takes `amount` units of flow back off `edge`. Conservation at the
    /// edge's endpoints is the caller's to restore.
    pub(crate) fn cancel(&mut self, edge: EdgeId, amount: u64) {
        let (node, idx) = self.edges[edge.0];
        let arc = &mut self.adj[node][idx];
        arc.cap += amount;
        let (to, rev) = (arc.to, arc.rev);
        self.adj[to][rev].cap -= amount;
    }

    /// Nodes with a residual path to `target`. An arc `u → v` has residual
    /// capacity exactly when `v`'s twin of it says so, so the backward
    /// search reads each visited node's own arc list and needs no reverse
    /// adjacency.
    pub(crate) fn reaches(&self, target: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![target];
        seen[target] = true;
        while let Some(v) = stack.pop() {
            for arc in &self.adj[v] {
                if !seen[arc.to] && self.adj[arc.to][arc.rev].cap > 0 {
                    seen[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 7).unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.flow(e), 0);
        assert_eq!(net.residual(e), 7);
    }

    #[test]
    fn out_of_range_edge() {
        let mut net = FlowNetwork::new(1);
        assert_eq!(
            net.add_edge(0, 3, 1),
            Err(FlowError::NodeOutOfRange { node: 3, len: 1 })
        );
    }

    #[test]
    fn self_loop_is_accepted_and_inert() {
        let mut net = FlowNetwork::new(2);
        let loop_edge = net.add_edge(0, 0, 5).unwrap();
        let real = net.add_edge(0, 1, 5).unwrap();
        let flow = crate::dinic::Dinic::new(&mut net).max_flow(0, 1);
        assert_eq!(flow, 5);
        assert_eq!(net.flow(loop_edge), 0);
        assert_eq!(net.flow(real), 5);
    }

    #[test]
    fn reset_restores_capacity() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 4).unwrap();
        crate::dinic::Dinic::new(&mut net).max_flow(0, 1);
        assert_eq!(net.flow(e), 4);
        net.reset();
        assert_eq!(net.flow(e), 0);
        assert_eq!(net.residual(e), 4);
    }
}
