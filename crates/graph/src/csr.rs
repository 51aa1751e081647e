//! A graph's node ids in one heap block: both compressed-sparse-row
//! (CSR) directions, the topological order and the region of every
//! node.
//!
//! For `n` nodes and `e` edges the block is
//!
//! ```text
//! [ succ starts: n + 1 | pred starts: n + 1 | succ targets: e | pred targets: e | order: n | region: n ]
//! ```
//!
//! Row `v` of a direction is `block[start[v]..start[v + 1]]`: the starts
//! are absolute positions in the block. A region slot holds the index of
//! the node's blocking region plus one, and zero for a node outside
//! every region. Starts and region slots are stored as `NodeId` words
//! (each is a `u32`) so that the whole block is one `Vec<NodeId>` and a
//! row is handed out as a borrowed `&[NodeId]`.
//!
//! The rows are filled from an edge list by a *stable* counting sort,
//! the invariant the rest of the workspace leans on: row `v` lists its
//! neighbours in the order the edges were added, exactly as a per-node
//! `Vec` that was pushed to would. The topological order (a FIFO
//! frontier), the content hash and through them every golden digest
//! depend on that order.

use crate::error::GraphError;
use crate::node::NodeId;

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

/// The row whose start is at `block[at]` and whose end is at
/// `block[at + 1]`.
#[inline]
fn row(block: &[NodeId], at: usize) -> &[NodeId] {
    &block[block[at].0 as usize..block[at + 1].0 as usize]
}

/// The region index a slot holds, if any.
#[inline]
pub(crate) fn region_in(slot: NodeId) -> Option<u32> {
    slot.0.checked_sub(1)
}

/// The slot value of region `index`.
pub(crate) fn region_slot(index: usize) -> NodeId {
    NodeId::from_index(index + 1)
}

/// A graph's id block (see the module documentation).
#[derive(Clone, Debug)]
pub(crate) struct IdBlock {
    ids: Vec<NodeId>,
    n: usize,
}

/// The two CSR directions of an [`IdBlock`], borrowed apart from its
/// order and region slots so that those can be written meanwhile.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    block: &'a [NodeId],
    n: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows per direction.
    pub(crate) fn node_count(self) -> usize {
        self.n
    }

    /// The successors of `v`, in insertion order.
    #[inline]
    pub(crate) fn succ(self, v: usize) -> &'a [NodeId] {
        row(self.block, v)
    }

    /// The predecessors of `v`, in insertion order.
    #[inline]
    pub(crate) fn pred(self, v: usize) -> &'a [NodeId] {
        row(self.block, self.n + 1 + v)
    }
}

impl IdBlock {
    /// The successor and the predecessor rows of `n` nodes under
    /// `edges`, each row in list order, with the order and region slots
    /// blank: one pass checks every edge ([`check_edge`]) and counts both
    /// directions' row lengths, one writes both.
    ///
    /// # Errors
    ///
    /// The first malformed edge in list order.
    ///
    /// # Panics
    ///
    /// Panics if the block has `u32::MAX` entries or more (some billion
    /// nodes or edges).
    pub(crate) fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        IdBlock::fill(n, None, edges)
    }

    /// A block of `n >= node_count()` nodes whose rows are this block's
    /// with `added` behind them, as pushing onto per-node lists would
    /// give, and whose order and region slots are blank.
    ///
    /// # Panics
    ///
    /// Panics if an added edge is malformed, or as
    /// [`IdBlock::from_edges`] does.
    pub(crate) fn extended(&self, n: usize, added: &[(NodeId, NodeId)]) -> Self {
        IdBlock::fill(n, Some(self), added).expect("the added edges were checked")
    }

    /// The rows of `base` (if any) followed by `edges`, over `n` nodes.
    fn fill(
        n: usize,
        base: Option<&IdBlock>,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, GraphError> {
        let e = base.map_or(0, IdBlock::edge_count) + edges.len();
        let len = 4 * n + 2 + 2 * e;
        assert!(
            u32::try_from(len).is_ok(),
            "a graph's id block is indexed by u32"
        );
        let mut ids = vec![NodeId(0); len];
        // `starts[key]` counts row `key`'s length, for both directions'
        // rows in one array: a running sum from the first target's
        // position then makes each entry its row's end, and the
        // predecessor targets follow the successor targets. The rows are
        // then written back to front, the added edges before the base
        // rows, each cursor stepping down to its row's start; entry `n`
        // of each direction is never a key and stays the end of the row
        // before it.
        let (starts, rest) = ids.split_at_mut(2 * n + 2);
        // Row `key` of the new block and the base's row it starts from.
        let base_rows = base.into_iter().flat_map(|base| {
            (0..base.n).flat_map(move |v| [(v, base.succ(v)), (n + 1 + v, base.pred(v))])
        });
        for (key, row) in base_rows.clone() {
            starts[key].0 = row.len() as u32;
        }
        for &(from, to) in edges {
            check_edge(n, from, to)?;
            starts[from.index()].0 += 1;
            starts[n + 1 + to.index()].0 += 1;
        }
        let mut end = (2 * n + 2) as u32;
        for start in starts.iter_mut() {
            end += start.0;
            start.0 = end;
        }
        for &(from, to) in edges.iter().rev() {
            place(starts, rest, from.index(), to);
            place(starts, rest, n + 1 + to.index(), from);
        }
        for (key, row) in base_rows {
            let cursor = &mut starts[key].0;
            *cursor -= row.len() as u32;
            let at = *cursor as usize - (2 * n + 2);
            rest[at..at + row.len()].copy_from_slice(row);
        }
        Ok(IdBlock { ids, n })
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        (self.ids.len() - 4 * self.n - 2) / 2
    }

    /// The successors of `v`, in insertion order.
    #[inline]
    pub(crate) fn succ(&self, v: usize) -> &[NodeId] {
        row(&self.ids, v)
    }

    /// Every successor row, as two slices of the block: the rows'
    /// starts and the ids they hold. Two blocks of as many nodes hold the
    /// same rows exactly when both slices are equal.
    pub(crate) fn succ_rows(&self) -> [&[NodeId]; 2] {
        let starts = &self.ids[..=self.n];
        let rows = &self.ids[starts[0].0 as usize..starts[self.n].0 as usize];
        [starts, rows]
    }

    /// The predecessors of `v`, in insertion order.
    #[inline]
    pub(crate) fn pred(&self, v: usize) -> &[NodeId] {
        row(&self.ids, self.n + 1 + v)
    }

    /// The topological order (as written by [`IdBlock::parts_mut`]'s
    /// caller).
    pub(crate) fn order(&self) -> &[NodeId] {
        let at = self.ids.len() - 2 * self.n;
        &self.ids[at..at + self.n]
    }

    /// Every node's region slot, in id order (see [`region_in`]).
    pub(crate) fn region_slots(&self) -> &[NodeId] {
        &self.ids[self.ids.len() - self.n..]
    }

    /// The index of the region `v` belongs to, if any.
    #[inline]
    pub(crate) fn region(&self, v: usize) -> Option<u32> {
        region_in(self.ids[self.ids.len() - self.n + v])
    }

    /// Every `(row, neighbour)` pair of the successor rows, row by row.
    #[cfg(test)]
    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |v| {
            let from = NodeId::from_index(v);
            self.succ(v).iter().map(move |&to| (from, to))
        })
    }

    /// The rows, and the order and the region slots to write.
    pub(crate) fn parts_mut(&mut self) -> (Rows<'_>, &mut [NodeId], &mut [NodeId]) {
        let n = self.n;
        let at = self.ids.len() - 2 * n;
        let (block, tail) = self.ids.split_at_mut(at);
        let (order, regions) = tail.split_at_mut(n);
        (Rows { block, n }, order, regions)
    }
}

/// Steps the cursor `starts[key]` (a position in the block, which
/// `slots` ends) down by one and writes `value` there.
#[inline]
fn place(starts: &mut [NodeId], slots: &mut [NodeId], key: usize, value: NodeId) {
    let cursor = &mut starts[key].0;
    *cursor -= 1;
    slots[*cursor as usize - starts.len()] = value;
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
        let ids = IdBlock::from_edges(4, &edges).unwrap();
        assert_eq!(ids.succ(0), &[v(3), v(1)]);
        assert!(ids.succ(1).is_empty());
        assert_eq!(ids.succ(2), &[v(0), v(3)]);
        assert!(ids.succ(3).is_empty());
        assert_eq!(ids.pred(0), &[v(2)]);
        assert_eq!(ids.pred(1), &[v(0)]);
        assert!(ids.pred(2).is_empty());
        assert_eq!(ids.pred(3), &[v(0), v(2)]);
        assert_eq!(ids.edge_count(), 4);
        assert_eq!(ids.node_count(), 4);
        assert_eq!(
            ids.edges().collect::<Vec<_>>(),
            vec![(v(0), v(3)), (v(0), v(1)), (v(2), v(0)), (v(2), v(3))]
        );
    }

    #[test]
    fn order_and_region_slots_start_blank_and_stay_apart() {
        let mut ids = IdBlock::from_edges(3, &[(v(0), v(1)), (v(1), v(2))]).unwrap();
        assert_eq!(ids.order(), &[v(0); 3]);
        assert_eq!(ids.region(1), None);
        let (rows, order, regions) = ids.parts_mut();
        assert_eq!(rows.succ(1), &[v(2)]);
        assert_eq!(rows.pred(1), &[v(0)]);
        order.copy_from_slice(&[v(0), v(1), v(2)]);
        regions[1] = region_slot(4);
        assert_eq!(ids.order(), &[v(0), v(1), v(2)]);
        assert_eq!((ids.region(0), ids.region(1)), (None, Some(4)));
        assert_eq!(ids.succ(0), &[v(1)]);
    }

    #[test]
    fn extension_appends_behind_existing_rows() {
        let mut base = IdBlock::from_edges(2, &[(v(0), v(1))]).unwrap();
        base.parts_mut().2[0] = region_slot(0);
        let ext = base.extended(3, &[(v(0), v(2)), (v(2), v(1))]);
        assert_eq!(ext.succ(0), &[v(1), v(2)]);
        assert!(ext.succ(1).is_empty());
        assert_eq!(ext.succ(2), &[v(1)]);
        assert_eq!(ext.pred(1), &[v(0), v(2)]);
        assert_eq!(ext.pred(2), &[v(0)]);
        assert_eq!(ext.region(0), None, "the copy's region slots are blank");
        assert_eq!(
            ext.edges().collect::<Vec<_>>(),
            vec![(v(0), v(1)), (v(0), v(2)), (v(2), v(1))]
        );
    }

    #[test]
    fn malformed_edges_are_refused_in_list_order() {
        let edges = [(v(0), v(1)), (v(1), v(1)), (v(0), v(7))];
        let err = IdBlock::from_edges(2, &edges).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(v(1)));
    }

    #[test]
    fn empty_graph_has_two_starts() {
        let ids = IdBlock::from_edges(0, &[]).unwrap();
        assert_eq!(ids.node_count(), 0);
        assert_eq!(ids.edge_count(), 0);
        assert!(ids.order().is_empty());
    }
}
