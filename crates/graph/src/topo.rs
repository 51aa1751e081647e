//! The topological order every [`Dag`](crate::Dag) keeps.

use std::fmt;

use crate::csr::IdBlock;
use crate::node::NodeId;

/// A topological ordering of a DAG's nodes.
///
/// Made by the Kahn pass that assembles a [`Dag`](crate::Dag) and kept
/// with it: the sources in id order, then a FIFO frontier fed in
/// successor-row order. Iterate it to visit nodes so that every node
/// appears after all of its predecessors.
///
/// The order is one part of the graph's id block, which also holds the
/// graph's rows: the block is owned here because
/// [`Dag::topological_order`](crate::Dag::topological_order) hands out
/// a reference to this type.
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
#[derive(Clone)]
pub struct TopologicalOrder {
    pub(crate) ids: IdBlock,
}

impl TopologicalOrder {
    /// Number of ordered nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.node_count()
    }

    /// Returns `true` if the order contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the nodes in topological order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }

    /// The order as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        self.ids.order()
    }
}

impl PartialEq for TopologicalOrder {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TopologicalOrder {}

impl fmt::Debug for TopologicalOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TopologicalOrder")
            .field("order", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;

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
