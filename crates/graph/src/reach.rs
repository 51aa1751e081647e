//! Transitive reachability (the paper's transitive `pred(v)` / `succ(v)`).
//!
//! Both closures live in one flat bit matrix — one heap block, row `v`
//! holding `v`'s descendants and row `n + v` its ancestors, each
//! `⌈n/64⌉` words — filled in place in (reverse) topological order: a
//! row is the union of its direct neighbours and their already-final
//! rows, each neighbour absorbed in one pass over the row's words inside
//! the block. A closure is computed whole, at assembly, and never
//! patched. Assembly fills the ancestor half inside the Kahn pass that
//! orders the graph ([`Reachability::ordered`]), which also names a
//! repeated edge or a cycle, and the descendant half in one pass over
//! that order backwards.

use crate::bitset::{BitMatrix, BitRow, RowsMut};
use crate::csr::{IdBlock, Rows};
use crate::dag::Dag;
use crate::error::GraphError;
use crate::node::NodeId;

/// Precomputed transitive reachability of a [`Dag`].
///
/// The paper's `pred(v)` and `succ(v)` denote *direct or transitive*
/// predecessors/successors; this type materializes both as the rows of
/// one flat bit matrix (a row handed out as a [`BitRow`]) so that the
/// concurrency sets `C(v)` (Eq. 2) can be evaluated in `O(|V|/64)` words
/// per membership sweep.
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
    /// Row `v`: transitive successors of `v`; row `n + v`: transitive
    /// predecessors of `v` (neither includes `v`).
    rows: BitMatrix,
}

impl Reachability {
    /// Computes transitive reachability for `dag` anew in
    /// `O(|V|·|E|/64)` words, through the pass that ordered the graph at
    /// assembly, on a copy of its rows. [`Dag::reachability`] reads the
    /// closure assembly kept.
    #[must_use]
    pub fn new(dag: &Dag) -> Self {
        Self::ordered(&mut dag.topology.ids().clone()).expect("an assembled graph has an order")
    }

    /// Kahn's topological order of `ids`' rows, written into its order
    /// slots, and the closure, in two passes: the Kahn pass emits the
    /// order and ORs each emitted node's ancestor row, plus the node,
    /// into every successor's; one pass over the order backwards fills
    /// the descendants.
    ///
    /// The order has the sources in id order, then a FIFO frontier fed
    /// in successor-row order: a node enters behind everything already
    /// waiting when its last predecessor is emitted. This is *not*
    /// "smallest ready id first", and the Figure 2 golden digests pin it.
    ///
    /// The ancestor rows are the repeated-edge stamp: when `v` is
    /// emitted, `w`'s row holds `v` only if `v`'s row named `w` before,
    /// because every other path from `v` to `w` runs through nodes
    /// emitted after `v`.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateEdge`] for the first repeated edge in row
    /// order; otherwise [`GraphError::Cycle`] naming the lowest node the
    /// order never reaches.
    pub(crate) fn ordered(ids: &mut IdBlock) -> Result<Self, GraphError> {
        let n = ids.node_count();
        let mut reach = Reachability {
            rows: BitMatrix::with_rows(2 * n, n),
        };
        let (rows, order, _) = ids.parts_mut();
        // Up to 64 nodes — most graphs — a row is one word: that call
        // gets its own copy of the inlined passes, with every row offset
        // folded.
        let complete = match reach.rows.stride() {
            1 => order_and_close(&mut reach.rows.rows_mut(1), rows, order),
            stride => order_and_close(&mut reach.rows.rows_mut(stride), rows, order),
        };
        if complete {
            return Ok(reach);
        }
        Err(repeated_edge(rows).unwrap_or_else(|| {
            // Without a repeated edge the pass ran to its end, so a
            // descendant row still counts the node's predecessors never
            // emitted: it is non-zero exactly for the nodes left out.
            let stuck = (0..n)
                .find(|&v| !reach.rows.row(v).is_empty())
                .expect("a short order leaves a node waiting");
            GraphError::Cycle(NodeId::from_index(stuck))
        }))
    }

    /// Both closures as one matrix: rows `0..n` the descendants, rows
    /// `n..2n` the ancestors.
    pub(crate) fn matrix(&self) -> &BitMatrix {
        &self.rows
    }

    /// Number of nodes covered by this reachability table.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.rows.node_count()
    }

    /// Returns `true` if there is a (possibly transitive) path `from -> to`.
    ///
    /// A node does not reach itself.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.rows.contains(from.index(), to.index())
    }

    /// Transitive successors of `v` (the paper's `succ(v)`), excluding `v`.
    #[must_use]
    pub fn descendants(&self, v: NodeId) -> BitRow<'_> {
        self.rows.row(v.index())
    }

    /// Transitive predecessors of `v` (the paper's `pred(v)`), excluding `v`.
    #[must_use]
    pub fn ancestors(&self, v: NodeId) -> BitRow<'_> {
        self.rows.row(self.node_count() + v.index())
    }

    /// Returns `true` if `a` and `b` are distinct and subject to no
    /// (transitive) precedence constraint in either direction.
    #[must_use]
    pub fn are_concurrent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }
}

/// The passes of [`Reachability::ordered`] over `closure` (`2n` rows:
/// descendants, then ancestors), writing the `n` slots of `order`:
/// `false` on a repeated edge or a short order.
#[inline(always)]
fn order_and_close(closure: &mut RowsMut<'_>, rows: Rows<'_>, order: &mut [NodeId]) -> bool {
    let n = rows.node_count();
    // The descendant rows are unused until the order is complete, so
    // the first word of row `v` counts `v`'s predecessors not yet
    // emitted. A complete order counted every one down to zero: the
    // rows are blank again when the descendant pass starts.
    let mut len = 0;
    for v in 0..n {
        let waiting = rows.pred(v).len() as u64;
        *closure.first_word_mut(v) = waiting;
        if waiting == 0 {
            order[len] = NodeId::from_index(v);
            len += 1;
        }
    }
    // A FIFO queue pops in push order, so the output doubles as the
    // frontier: everything from `head` to `len` is waiting.
    let mut head = 0;
    while head < len {
        let v = order[head];
        head += 1;
        for &w in rows.succ(v.index()) {
            if !closure.absorb(n + w.index(), n + v.index(), v.index()) {
                return false;
            }
            let waiting = closure.first_word_mut(w.index());
            *waiting -= 1;
            // Written whether or not `w` is ready and kept only if it is:
            // whether a count reaches zero is data, and a branch on it
            // mispredicts on every new graph (this pass ran 1.14x faster
            // so inside a Figure 2 sweep on a 2-vCPU VM, and no faster
            // in a loop over the same graphs, which the predictor
            // learns). The slot past the last node is never needed.
            let ready = *waiting == 0;
            if let Some(slot) = order.get_mut(len) {
                *slot = w;
            }
            len += usize::from(ready);
        }
    }
    if len < n {
        return false;
    }
    // Reverse topological order: a node's descendants are the union of
    // each direct successor and that successor's (already final) row.
    for v in order.iter().rev() {
        for &w in rows.succ(v.index()) {
            closure.absorb(v.index(), w.index(), w.index());
        }
    }
    true
}

/// The first edge a successor row names twice, rows in id order: each
/// target is stamped with the last row that named it.
fn repeated_edge(rows: Rows<'_>) -> Option<GraphError> {
    let mut stamp = vec![0; rows.node_count()];
    (0..rows.node_count()).find_map(|v| {
        let w = rows
            .succ(v)
            .iter()
            .find(|w| std::mem::replace(&mut stamp[w.index()], v + 1) == v + 1)?;
        Some(GraphError::DuplicateEdge(NodeId::from_index(v), *w))
    })
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
