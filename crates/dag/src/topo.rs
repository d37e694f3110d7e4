//! Kahn's algorithm and level-set grouping.
//!
//! Section IV-A of the paper adapts Kahn's topological sort [Kahn 1962] so
//! that jobs with no dependencies *among each other* are grouped into one
//! **node set**: for the fork-join DAG `1 -> {2..n} -> n+1` the output is
//! `{1}, {2, 3, ..., n}, {n+1}` rather than a flat order. Deadlines are then
//! decomposed per node set, so all parallel jobs in a set share an arrival
//! time and a deadline.
//!
//! We implement the grouping as *longest-distance layering*: the level of a
//! node is `0` for sources and `1 + max(level of predecessors)` otherwise.
//! Within a level no node can depend on another (any dependency would force a
//! higher level), so levels are exactly the paper's node sets.

use crate::error::DagError;
use crate::graph::Dag;
use std::collections::VecDeque;

/// Returns one valid topological order of `dag` using Kahn's algorithm.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic; the reported node
/// is one that never became ready.
///
/// # Example
///
/// ```
/// use flowtime_dag::{Dag, topological_order};
/// # fn main() -> Result<(), flowtime_dag::DagError> {
/// let dag = Dag::from_edges(3, [(0, 1), (1, 2)])?;
/// assert_eq!(topological_order(&dag)?, vec![0, 1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn topological_order(dag: &Dag) -> Result<Vec<usize>, DagError> {
    let mut indeg = dag.in_degrees();
    let mut queue: VecDeque<usize> = (0..dag.len()).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(dag.len());
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in dag.successors(v) {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push_back(w);
            }
        }
    }
    if order.len() != dag.len() {
        let node = indeg.iter().position(|&d| d > 0).unwrap_or(0);
        return Err(DagError::Cycle { node });
    }
    Ok(order)
}

/// Groups the nodes of `dag` into topological **level sets** (the paper's
/// node sets): level 0 holds all sources; every other node sits one level
/// above its deepest predecessor. Nodes within a level are mutually
/// independent.
///
/// Returns the levels in topological order; node indices within a level are
/// ascending.
///
/// # Errors
///
/// Returns [`DagError::Cycle`] if the graph is not acyclic.
///
/// # Example
///
/// The paper's Fig. 3 fork-join shape:
///
/// ```
/// use flowtime_dag::{Dag, level_sets};
/// # fn main() -> Result<(), flowtime_dag::DagError> {
/// // 0 -> {1,2,3} -> 4
/// let dag = Dag::from_edges(5, [(0,1),(0,2),(0,3),(1,4),(2,4),(3,4)])?;
/// assert_eq!(level_sets(&dag)?, vec![vec![0], vec![1, 2, 3], vec![4]]);
/// # Ok(())
/// # }
/// ```
pub fn level_sets(dag: &Dag) -> Result<Vec<Vec<usize>>, DagError> {
    let order = topological_order(dag)?;
    let mut level = vec![0usize; dag.len()];
    let mut max_level = 0usize;
    for &v in &order {
        for &p in dag.predecessors(v) {
            level[v] = level[v].max(level[p] + 1);
        }
        max_level = max_level.max(level[v]);
    }
    if dag.is_empty() {
        return Ok(Vec::new());
    }
    let mut sets = vec![Vec::new(); max_level + 1];
    for v in 0..dag.len() {
        sets[level[v]].push(v);
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_respects_edges() {
        let dag = Dag::from_edges(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]).unwrap();
        let order = topological_order(&dag).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (from, to) in dag.edges() {
            assert!(pos[from] < pos[to], "edge {from}->{to} violated");
        }
    }

    #[test]
    fn detects_cycle() {
        let dag = Dag::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(matches!(
            topological_order(&dag),
            Err(DagError::Cycle { .. })
        ));
        assert!(matches!(level_sets(&dag), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn fork_join_levels_match_paper_example() {
        // Fig. 3: 1 -> {2..n} -> n+1 with n = 5 parallel middles.
        let n_mid = 5;
        let total = n_mid + 2;
        let mut edges = Vec::new();
        for m in 1..=n_mid {
            edges.push((0, m));
            edges.push((m, n_mid + 1));
        }
        let dag = Dag::from_edges(total, edges).unwrap();
        let sets = level_sets(&dag).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0], vec![0]);
        assert_eq!(sets[1], (1..=n_mid).collect::<Vec<_>>());
        assert_eq!(sets[2], vec![n_mid + 1]);
    }

    #[test]
    fn levels_are_antichains() {
        let dag =
            Dag::from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 6)]).unwrap();
        let sets = level_sets(&dag).unwrap();
        for set in &sets {
            for &a in set {
                for &b in set {
                    assert!(
                        !dag.successors(a).contains(&b),
                        "{a} -> {b} within one level"
                    );
                }
            }
        }
    }

    #[test]
    fn straggler_joins_level_of_deepest_predecessor() {
        // 0 -> 1 -> 3, 2 -> 3: node 2 is a source but 3 must sit at level 2.
        let dag = Dag::from_edges(4, [(0, 1), (1, 3), (2, 3)]).unwrap();
        let sets = level_sets(&dag).unwrap();
        assert_eq!(sets, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        assert_eq!(level_sets(&Dag::new(0)).unwrap(), Vec::<Vec<usize>>::new());
        assert_eq!(level_sets(&Dag::new(3)).unwrap(), vec![vec![0, 1, 2]]);
    }
}
