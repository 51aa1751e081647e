//! Compressed-sparse-row adjacency: one offsets array and one target
//! array per direction, built from an edge list by a stable counting
//! sort.
//!
//! *Stable* is the invariant the rest of the workspace leans on: row
//! `v` lists its neighbours in the order the edges were added, exactly
//! as a per-node `Vec` that was pushed to would. The topological order
//! (a FIFO frontier), the critical-path witness, the content hash and
//! through them every golden digest depend on that order.

use crate::error::GraphError;
use crate::node::NodeId;

/// Sorts `edges` by their first component into CSR form, reusing the
/// two buffers: afterwards `targets[offsets[v]..offsets[v + 1]]` holds
/// the second components of the edges keyed `v`, in iteration order.
///
/// `offsets` ends up with `n + 1` entries and `targets` with one entry
/// per edge; neither reallocates once it has grown to the shape at
/// hand. Pass the edges swapped to obtain predecessor rows.
///
/// # Panics
///
/// Panics if a key is `>= n`. The edge count must fit in `u32` (node ids
/// do, and the builder rejects duplicate edges).
pub(crate) fn fill_csr(
    n: usize,
    edges: impl Iterator<Item = (NodeId, NodeId)> + Clone,
    offsets: &mut Vec<u32>,
    targets: &mut Vec<NodeId>,
) {
    offsets.clear();
    offsets.resize(n + 1, 0);
    let starts = offsets.as_mut_slice();
    for (key, _) in edges.clone() {
        starts[key.index() + 1] += 1;
    }
    accumulate(starts);
    targets.clear();
    targets.resize(starts[n] as usize, NodeId(0));
    for (key, value) in edges {
        place(starts, targets, key, value);
    }
    rewind(starts);
}

// The three steps of a fill are `#[inline]` because `fill_csr` and
// `Csr::both_directions` are generic and so compiled in whichever crate
// instantiates them, where a plain private function would stay a call.

/// Turns the row lengths counted at `starts[v + 1]` into row starts.
#[inline]
fn accumulate(starts: &mut [u32]) {
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
}

/// Writes `value` at row `key`'s cursor: the row start, advanced past
/// each value placed before.
#[inline]
fn place(starts: &mut [u32], slots: &mut [NodeId], key: NodeId, value: NodeId) {
    let cursor = &mut starts[key.index()];
    slots[*cursor as usize] = value;
    *cursor += 1;
}

/// Shifts the cursors back after a fill: each row's cursor ended at the
/// next row's start.
#[inline]
fn rewind(starts: &mut [u32]) {
    starts.copy_within(0..starts.len() - 1, 1);
    starts[0] = 0;
}

/// Checks that the edge (or blocking pair) `from -> to` joins two
/// distinct nodes below `n`.
///
/// # Errors
///
/// [`GraphError::UnknownNode`] naming the first end out of range, then
/// [`GraphError::SelfLoop`].
pub(crate) fn check_edge(n: usize, from: NodeId, to: NodeId) -> Result<(), GraphError> {
    if let Some(&v) = [from, to].iter().find(|v| v.index() >= n) {
        return Err(GraphError::UnknownNode(v));
    }
    if from == to {
        return Err(GraphError::SelfLoop(from));
    }
    Ok(())
}

/// One direction of a graph's adjacency in CSR form.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// The rows of `n` nodes under `edges` (`(row, neighbour)` pairs).
    pub(crate) fn from_edges(
        n: usize,
        edges: impl Iterator<Item = (NodeId, NodeId)> + Clone,
    ) -> Self {
        let mut csr = Csr::default();
        fill_csr(n, edges, &mut csr.offsets, &mut csr.targets);
        csr
    }

    /// The successor and the predecessor rows of `n` nodes under
    /// `edges`, each row in list order: one pass checks every edge
    /// ([`check_edge`]) and counts both directions' row lengths, one
    /// writes both.
    ///
    /// # Errors
    ///
    /// The first malformed edge in list order.
    pub(crate) fn both_directions(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<(Csr, Csr), GraphError> {
        let mut succ = Csr {
            offsets: vec![0; n + 1],
            targets: vec![NodeId(0); edges.len()],
        };
        let mut pred = succ.clone();
        for &(from, to) in edges {
            check_edge(n, from, to)?;
            succ.offsets[from.index() + 1] += 1;
            pred.offsets[to.index() + 1] += 1;
        }
        accumulate(&mut succ.offsets);
        accumulate(&mut pred.offsets);
        for &(from, to) in edges {
            place(&mut succ.offsets, &mut succ.targets, from, to);
            place(&mut pred.offsets, &mut pred.targets, to, from);
        }
        rewind(&mut succ.offsets);
        rewind(&mut pred.offsets);
        Ok((succ, pred))
    }

    /// Number of rows.
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbours of `v`, in insertion order.
    pub(crate) fn row(&self, v: usize) -> &[NodeId] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Every `(row, neighbour)` pair, row by row.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + Clone + '_ {
        (0..self.node_count()).flat_map(move |v| {
            let from = NodeId::from_index(v);
            self.row(v).iter().map(move |&to| (from, to))
        })
    }

    /// A copy covering `n >= node_count()` rows with `added` appended:
    /// each row keeps its order and gains its new neighbours behind it,
    /// as pushing onto per-node lists would.
    pub(crate) fn extended(
        &self,
        n: usize,
        added: impl Iterator<Item = (NodeId, NodeId)> + Clone,
    ) -> Self {
        Csr::from_edges(n, self.edges().chain(added))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn rows_keep_insertion_order() {
        let edges = [(v(2), v(0)), (v(0), v(3)), (v(2), v(3)), (v(0), v(1))];
        let csr = Csr::from_edges(4, edges.iter().copied());
        assert_eq!(csr.row(0), &[v(3), v(1)]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), &[v(0), v(3)]);
        assert!(csr.row(3).is_empty());
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.node_count(), 4);
    }

    #[test]
    fn refill_reuses_buffers() {
        let (mut offsets, mut targets) = (Vec::new(), Vec::new());
        fill_csr(
            3,
            [(v(0), v(1)), (v(1), v(2))].into_iter(),
            &mut offsets,
            &mut targets,
        );
        let (po, pt) = (offsets.as_ptr(), targets.as_ptr());
        fill_csr(2, [(v(1), v(0))].into_iter(), &mut offsets, &mut targets);
        assert_eq!(offsets, [0, 0, 1]);
        assert_eq!(targets, [v(0)]);
        assert_eq!((offsets.as_ptr(), targets.as_ptr()), (po, pt));
    }

    #[test]
    fn extension_appends_behind_existing_rows() {
        let base = Csr::from_edges(2, [(v(0), v(1))].into_iter());
        let ext = base.extended(3, [(v(0), v(2)), (v(2), v(1))].into_iter());
        assert_eq!(ext.row(0), &[v(1), v(2)]);
        assert!(ext.row(1).is_empty());
        assert_eq!(ext.row(2), &[v(1)]);
        assert_eq!(
            ext.edges().collect::<Vec<_>>(),
            vec![(v(0), v(1)), (v(0), v(2)), (v(2), v(1))]
        );
    }

    #[test]
    fn empty_graph_has_one_offset() {
        let csr = Csr::from_edges(0, std::iter::empty());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}
