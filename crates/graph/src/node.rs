//! Node identifiers and node kinds of the thread-pool DAG task model.

use std::fmt;

/// Identifier of a node within a [`Dag`](crate::Dag).
///
/// Node ids are dense indices assigned by
/// [`DagBuilder::add_node`](crate::DagBuilder::add_node) in insertion
/// order; they are only meaningful relative to the graph that created
/// them.
///
/// # Examples
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// let mut b = DagBuilder::new();
/// let v = b.add_node(5);
/// assert_eq!(v.index(), 0);
/// assert_eq!(format!("{v}"), "v0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// This is mainly useful for iterating over all nodes of a graph by
    /// index; ids manufactured this way must be in range for the graph they
    /// are used with (methods panic otherwise).
    #[must_use]
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The synchronization type of a node (`X = {BF, BJ, BC, NB}` in the paper).
///
/// The type determines how the node interacts with the *available
/// concurrency* of its thread pool: completing a
/// [`BlockingFork`](NodeKind::BlockingFork) suspends the serving thread
/// (decrementing the available concurrency) until the paired
/// [`BlockingJoin`](NodeKind::BlockingJoin) becomes eligible, at which
/// point the thread wakes and the join runs on it.
///
/// # Examples
///
/// ```
/// use rtpool_graph::NodeKind;
///
/// assert_eq!(NodeKind::default(), NodeKind::NonBlocking);
/// assert_eq!(NodeKind::BlockingChild.short_name(), "BC");
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// `NB`: a node whose precedence constraints are realized without
    /// suspending the serving thread (Listing 2 of the paper).
    #[default]
    NonBlocking,
    /// `BF`: executes, spawns its children, then suspends the serving
    /// thread on a barrier until all children complete (Listing 1).
    BlockingFork,
    /// `BJ`: the continuation of a `BF` node; runs on the same thread when
    /// the barrier opens.
    BlockingJoin,
    /// `BC`: a child node inside a `BF`/`BJ`-delimited sub-graph.
    BlockingChild,
}

impl NodeKind {
    /// The paper's two-letter abbreviation: `NB`, `BF`, `BJ`, or `BC`.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            NodeKind::NonBlocking => "NB",
            NodeKind::BlockingFork => "BF",
            NodeKind::BlockingJoin => "BJ",
            NodeKind::BlockingChild => "BC",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Internal per-node payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NodeData {
    /// Worst-case execution time in integer time units.
    pub wcet: u64,
    /// Synchronization type.
    pub kind: NodeKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id:?}"), "v42");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }

    #[test]
    fn kind_short_names() {
        assert_eq!(NodeKind::NonBlocking.short_name(), "NB");
        assert_eq!(NodeKind::BlockingFork.short_name(), "BF");
        assert_eq!(NodeKind::BlockingJoin.short_name(), "BJ");
        assert_eq!(NodeKind::BlockingChild.short_name(), "BC");
        assert_eq!(NodeKind::BlockingFork.to_string(), "BF");
    }

    #[test]
    fn kind_defaults_to_non_blocking() {
        assert_eq!(NodeKind::default(), NodeKind::NonBlocking);
    }
}
