//! Transitive reachability (the paper's transitive `pred(v)` / `succ(v)`).
//!
//! Both closures are flat bit matrices — one heap block per direction,
//! row `v` at words `v·⌈n/64⌉ ..` — filled in place in (reverse)
//! topological order: a row is the union of its direct neighbours and
//! their already-final rows, each neighbour absorbed in one pass over
//! the row's words inside the block. That
//! one kernel (`closure`) is the only writer: a closure is computed
//! whole, at assembly, and never patched.

use crate::bitset::{BitMatrix, BitRow};
use crate::csr::Csr;
use crate::dag::Dag;
use crate::node::NodeId;
use crate::topo::TopologicalOrder;

/// Precomputed transitive reachability of a [`Dag`].
///
/// The paper's `pred(v)` and `succ(v)` denote *direct or transitive*
/// predecessors/successors; this type materializes both as one flat bit
/// matrix each (row `v` = the set for `v`, handed out as a [`BitRow`]) so
/// that the concurrency sets `C(v)` (Eq. 2) can be evaluated in
/// `O(|V|/64)` words per membership sweep.
///
/// # Examples
///
/// ```
/// use rtpool_graph::{DagBuilder, Reachability};
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let a = b.add_node(1);
/// let c = b.add_node(1);
/// let d = b.add_node(1);
/// b.add_edge(a, c)?;
/// b.add_edge(c, d)?;
/// let dag = b.build()?;
/// let reach = Reachability::new(&dag);
/// assert!(reach.reaches(a, d));
/// assert!(!reach.reaches(d, a));
/// assert!(!reach.are_concurrent(a, d));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Reachability {
    /// Row `v`: transitive successors of `v` (excluding `v`).
    descendants: BitMatrix,
    /// Row `v`: transitive predecessors of `v` (excluding `v`).
    ancestors: BitMatrix,
}

impl Reachability {
    /// Computes transitive reachability for `dag` in `O(|V|·|E|/64)` words.
    #[must_use]
    pub fn new(dag: &Dag) -> Self {
        let t = &dag.topology;
        Self::from_parts(&t.succ, &t.pred, &t.order)
    }

    /// Computes reachability from raw adjacency and a topological order
    /// (used by the builder before the [`Dag`] exists). Every row is
    /// accumulated where it lives; no temporary row is made.
    pub(crate) fn from_parts(succ: &Csr, pred: &Csr, topo: &TopologicalOrder) -> Self {
        Reachability {
            // Reverse topological order: a node's descendants are the
            // union of each direct successor and that successor's
            // (already final) descendants.
            descendants: closure(succ, topo.iter().rev()),
            ancestors: closure(pred, topo.iter()),
        }
    }

    /// Number of nodes covered by this reachability table.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.descendants.node_count()
    }

    /// Returns `true` if there is a (possibly transitive) path `from -> to`.
    ///
    /// A node does not reach itself.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.descendants.contains(from.index(), to.index())
    }

    /// Transitive successors of `v` (the paper's `succ(v)`), excluding `v`.
    #[must_use]
    pub fn descendants(&self, v: NodeId) -> BitRow<'_> {
        self.descendants.row(v.index())
    }

    /// Transitive predecessors of `v` (the paper's `pred(v)`), excluding `v`.
    #[must_use]
    pub fn ancestors(&self, v: NodeId) -> BitRow<'_> {
        self.ancestors.row(v.index())
    }

    /// Returns `true` if `a` and `b` are distinct and subject to no
    /// (transitive) precedence constraint in either direction.
    #[must_use]
    pub fn are_concurrent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }
}

/// The transitive closure of `adj`, visiting nodes in an order in which
/// every neighbour's row is final before the node's own.
fn closure(adj: &Csr, order: impl Iterator<Item = NodeId>) -> BitMatrix {
    let mut rows = BitMatrix::new(adj.node_count());
    for v in order {
        for &w in adj.row(v.index()) {
            rows.absorb(v.index(), w.index());
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    /// Diamond: s -> a, s -> b, a -> t, b -> t.
    fn diamond() -> (Dag, [NodeId; 4]) {
        let mut builder = DagBuilder::new();
        let s = builder.add_node(1);
        let a = builder.add_node(2);
        let b = builder.add_node(3);
        let t = builder.add_node(4);
        builder.add_edge(s, a).unwrap();
        builder.add_edge(s, b).unwrap();
        builder.add_edge(a, t).unwrap();
        builder.add_edge(b, t).unwrap();
        (builder.build().unwrap(), [s, a, b, t])
    }

    #[test]
    fn transitive_closure_of_diamond() {
        let (dag, [s, a, b, t]) = diamond();
        let r = Reachability::new(&dag);
        assert!(r.reaches(s, t));
        assert!(r.reaches(s, a));
        assert!(!r.reaches(a, b));
        assert!(!r.reaches(b, a));
        assert!(!r.reaches(t, s));
        assert!(!r.reaches(s, s), "a node does not reach itself");
        assert_eq!(r.descendants(s).len(), 3);
        assert_eq!(r.ancestors(t).len(), 3);
        assert_eq!(r.ancestors(s).len(), 0);
    }

    #[test]
    fn concurrency_relation() {
        let (dag, [s, a, b, t]) = diamond();
        let r = Reachability::new(&dag);
        assert!(r.are_concurrent(a, b));
        assert!(r.are_concurrent(b, a));
        assert!(!r.are_concurrent(s, a));
        assert!(!r.are_concurrent(a, a));
        assert!(!r.are_concurrent(a, t));
        assert!(!r.are_concurrent(s, t));
    }

    #[test]
    fn chain_has_no_concurrency() {
        let mut builder = DagBuilder::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| builder.add_node(1)).collect();
        for w in nodes.windows(2) {
            builder.add_edge(w[0], w[1]).unwrap();
        }
        let dag = builder.build().unwrap();
        let r = Reachability::new(&dag);
        for &u in &nodes {
            for &v in &nodes {
                if u != v {
                    assert!(r.reaches(u, v) || r.reaches(v, u));
                    assert!(!r.are_concurrent(u, v));
                }
            }
        }
    }
}
