//! Dinic's maximum-flow algorithm.
//!
//! Level-graph BFS phases with blocking-flow DFS and the current-arc
//! optimisation. Runs in `O(V²E)` generally and `O(E√V)` on the unit-ish
//! bipartite networks produced by [`crate::leveling`], far below the
//! millisecond budget of a scheduler invocation at paper scale
//! (hundreds of jobs × hundreds of slots).

use crate::graph::{FlowNetwork, NodeId};

/// A max-flow computation bound to a mutable network.
///
/// The network retains the resulting flow assignment after
/// [`Dinic::max_flow`] returns, so callers can read per-edge flows via
/// [`FlowNetwork::flow`].
#[derive(Debug)]
pub struct Dinic<'a> {
    net: &'a mut FlowNetwork,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl<'a> Dinic<'a> {
    /// Binds the algorithm to `net`.
    pub fn new(net: &'a mut FlowNetwork) -> Self {
        let n = net.len();
        Dinic {
            net,
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Computes the maximum `source → sink` flow, mutating the bound
    /// network's residual capacities. Augmentation starts from the flow
    /// the network already carries (none on a fresh or
    /// [`FlowNetwork::reset`] network) and the return value is the amount
    /// added to it.
    ///
    /// A `source` or `sink` that is not a node of the network has no arcs,
    /// so — like `source == sink` — the answer is 0, not a panic.
    pub fn max_flow(&mut self, source: NodeId, sink: NodeId) -> u64 {
        if source == sink || source.max(sink) >= self.net.len() {
            return 0;
        }
        let mut flow = 0u64;
        while self.bfs(source, sink) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(source, sink, u64::MAX);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// After [`Dinic::max_flow`], returns the source side of a minimum cut:
    /// all nodes reachable from `source` in the residual graph.
    pub fn min_cut_source_side(&mut self, source: NodeId) -> Vec<bool> {
        let n = self.net.len();
        let mut seen = vec![false; n];
        let mut stack = vec![source];
        seen[source] = true;
        while let Some(v) = stack.pop() {
            for arc in &self.net.adj[v] {
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        seen
    }

    fn bfs(&mut self, source: NodeId, sink: NodeId) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[source] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for arc in &self.net.adj[v] {
                if arc.cap > 0 && self.level[arc.to] < 0 {
                    self.level[arc.to] = self.level[v] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        self.level[sink] >= 0
    }

    fn dfs(&mut self, v: NodeId, sink: NodeId, limit: u64) -> u64 {
        if v == sink {
            return limit;
        }
        while self.iter[v] < self.net.adj[v].len() {
            let i = self.iter[v];
            let (to, cap, rev) = {
                let arc = &self.net.adj[v][i];
                (arc.to, arc.cap, arc.rev)
            };
            if cap > 0 && self.level[to] == self.level[v] + 1 {
                let pushed = self.dfs(to, sink, limit.min(cap));
                if pushed > 0 {
                    self.net.adj[v][i].cap -= pushed;
                    self.net.adj[to][rev].cap += pushed;
                    return pushed;
                }
            }
            self.iter[v] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetwork;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 9).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 1), 9);
    }

    #[test]
    fn classic_diamond() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 10).unwrap();
        net.add_edge(0, 2, 10).unwrap();
        net.add_edge(1, 3, 4).unwrap();
        net.add_edge(2, 3, 9).unwrap();
        net.add_edge(1, 2, 6).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 3), 13);
    }

    #[test]
    fn disconnected_sink() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 2), 0);
    }

    #[test]
    fn source_equals_sink() {
        let mut net = FlowNetwork::new(1);
        assert_eq!(Dinic::new(&mut net).max_flow(0, 0), 0);
    }

    #[test]
    fn endpoint_outside_the_network_carries_nothing() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 9).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 2), 0);
        assert_eq!(Dinic::new(&mut net).max_flow(7, 1), 0);
    }

    #[test]
    fn second_run_augments_the_flow_already_there() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5).unwrap();
        let out = net.add_edge(1, 2, 3).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 2), 3);
        net.set_capacity(out, 4);
        assert_eq!(Dinic::new(&mut net).max_flow(0, 2), 1);
        assert_eq!(net.flow(out), 4);
    }

    #[test]
    fn min_cut_separates() {
        // Bottleneck edge 1 -> 2 with capacity 1.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 100).unwrap();
        net.add_edge(1, 2, 1).unwrap();
        net.add_edge(2, 3, 100).unwrap();
        let mut dinic = Dinic::new(&mut net);
        assert_eq!(dinic.max_flow(0, 3), 1);
        let cut = dinic.min_cut_source_side(0);
        assert_eq!(cut, vec![true, true, false, false]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3).unwrap();
        net.add_edge(0, 1, 4).unwrap();
        assert_eq!(Dinic::new(&mut net).max_flow(0, 1), 7);
    }

    #[test]
    fn flow_conservation_holds() {
        // Random-ish fixed network; verify conservation at internal nodes.
        let mut net = FlowNetwork::new(6);
        let caps = [
            (0, 1, 7),
            (0, 2, 9),
            (1, 3, 5),
            (2, 3, 3),
            (1, 4, 4),
            (2, 4, 6),
            (3, 5, 9),
            (4, 5, 8),
            (3, 4, 2),
        ];
        let edges: Vec<_> = caps
            .iter()
            .map(|&(u, v, c)| ((u, v), net.add_edge(u, v, c).unwrap()))
            .collect();
        let total = Dinic::new(&mut net).max_flow(0, 5);
        assert!(total > 0);
        let mut balance = [0i64; 6];
        for ((u, v), e) in edges {
            let f = net.flow(e) as i64;
            balance[u] -= f;
            balance[v] += f;
        }
        assert_eq!(balance[0], -(total as i64));
        assert_eq!(balance[5], total as i64);
        for (node, &b) in balance.iter().enumerate().take(5).skip(1) {
            assert_eq!(b, 0, "conservation at {node}");
        }
    }
}
