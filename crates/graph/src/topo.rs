//! Topological ordering (Kahn's algorithm) with cycle detection.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::node::NodeId;

/// A topological ordering of a DAG's nodes.
///
/// Produced by [`TopologicalOrder::compute`] and cached inside
/// [`Dag`](crate::Dag); iterate it to visit nodes so that every node appears
/// after all of its predecessors.
///
/// # Examples
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let a = b.add_node(1);
/// let c = b.add_node(1);
/// let d = b.add_node(1);
/// b.add_edge(a, c)?;
/// b.add_edge(c, d)?;
/// let dag = b.build()?;
/// let order: Vec<_> = dag.topological_order().iter().collect();
/// assert_eq!(order, vec![a, c, d]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologicalOrder {
    pub(crate) order: Vec<NodeId>,
}

impl TopologicalOrder {
    /// Computes a deterministic topological order of the rows of `succ`
    /// using Kahn's algorithm with a FIFO frontier: the sources enter in
    /// id order, and a node enters behind everything already waiting at
    /// the moment its last predecessor is emitted (successor rows are
    /// scanned in insertion order). This is *not* "smallest ready id
    /// first" — the two differ as soon as a row lists a larger id before
    /// a smaller one — and the Figure 2 golden digests pin this order.
    ///
    /// The in-degree row is a stamp row first: one pass over the rows
    /// marks each target with its row, so a target met twice in one row
    /// is a repeated edge. `Dag::assemble` orders a graph in a fused pass
    /// ([`Reachability::ordered`](crate::Reachability)) and calls this
    /// only to name the error when that pass meets a repeated edge or a
    /// cycle, so every error keeps this function's precedence and
    /// witness.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateEdge`] for the first repeated edge in row
    /// order; otherwise [`GraphError::Cycle`] naming a node that lies on
    /// a cycle if the edge relation is cyclic.
    pub(crate) fn compute(succ: &Csr) -> Result<Self, GraphError> {
        let n = succ.node_count();
        let mut indegree = vec![0u32; n];
        for v in 0..n {
            let stamp = v as u32 + 1;
            for &w in succ.row(v) {
                if std::mem::replace(&mut indegree[w.index()], stamp) == stamp {
                    return Err(GraphError::DuplicateEdge(NodeId::from_index(v), w));
                }
            }
        }
        indegree.fill(0);
        for v in 0..n {
            for &w in succ.row(v) {
                indegree[w.index()] += 1;
            }
        }
        // A FIFO queue pops in push order, so the output doubles as the
        // frontier: everything behind `head` is waiting.
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| indegree[v] == 0).map(NodeId::from_index));
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for &w in succ.row(v.index()) {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    order.push(w);
                }
            }
        }
        if order.len() == n {
            Ok(TopologicalOrder { order })
        } else {
            // Any node with remaining in-degree lies on (or behind) a cycle;
            // report one with an actual positive in-degree as witness.
            let witness = (0..n)
                .find(|&v| indegree[v] > 0)
                .expect("cycle detected but no witness found");
            Err(GraphError::Cycle(NodeId::from_index(witness)))
        }
    }

    /// Number of ordered nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the order contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates over the nodes in topological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.order.iter().copied()
    }

    /// The order as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    /// CSR rows from per-node successor lists.
    fn csr(succ: &[&[usize]]) -> Csr {
        let edges: Vec<(NodeId, NodeId)> = succ
            .iter()
            .enumerate()
            .flat_map(|(v, out)| {
                out.iter()
                    .map(move |&w| (NodeId::from_index(v), NodeId::from_index(w)))
            })
            .collect();
        Csr::from_edges(succ.len(), edges.iter().copied())
    }

    #[test]
    fn orders_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let order = TopologicalOrder::compute(&csr(&[&[1, 2], &[3], &[3], &[]])).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
        assert_eq!(order.len(), 4);
        assert!(!order.is_empty());
    }

    #[test]
    fn detects_cycle() {
        // 0 -> 1 -> 2 -> 0
        let err = TopologicalOrder::compute(&csr(&[&[1], &[2], &[0]])).unwrap_err();
        assert!(matches!(err, GraphError::Cycle(v) if v.index() < 3));
    }

    #[test]
    fn single_node() {
        let order = TopologicalOrder::compute(&csr(&[&[]])).unwrap();
        assert_eq!(order.as_slice(), &[NodeId::from_index(0)]);
    }

    #[test]
    fn disconnected_components_ordered_by_id() {
        let order = TopologicalOrder::compute(&csr(&[&[], &[], &[]])).unwrap();
        assert_eq!(order.as_slice(), ids(&[0, 1, 2]).as_slice());
    }

    #[test]
    fn frontier_is_fifo_not_smallest_id() {
        // s -> b is declared before s -> a although a has the smaller
        // id, and a -> x makes x ready while b still waits in the
        // frontier. FIFO: s, b, a, x, t. Smallest-ready-id would give
        // s, a, b, x, t (and s, a, x, b, t with x numbered below b).
        let mut g = DagBuilder::new();
        let s = g.add_node(1);
        let a = g.add_node(1);
        let b = g.add_node(1);
        let x = g.add_node(1);
        let t = g.add_node(1);
        g.add_edge(s, b).unwrap();
        g.add_edge(s, a).unwrap();
        g.add_edge(a, x).unwrap();
        g.add_edge(x, t).unwrap();
        g.add_edge(b, t).unwrap();
        let dag = g.build().unwrap();
        assert_eq!(dag.topological_order().as_slice(), &[s, b, a, x, t]);
    }
}
