//! Error type for graph construction and model validation.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// Errors produced while building a [`Dag`](crate::Dag) or validating it
/// against the structural restrictions of the DAC 2019 task model.
///
/// Assembly reports the first rule broken, in this order: each edge, then
/// each pair, in list order (`UnknownNode`, then `SelfLoop`); `Empty`;
/// `DuplicateEdge`, then `Cycle`; `MultipleSources`, then
/// `MultipleSinks`; per pair in declaration order `UnreachableJoin`,
/// `OverlappingPairs`, `NestedRegions`, `ForkEscape`, `JoinIntrusion`,
/// `RegionLeak`; then `VolumeOverflow`. Each variant's docs state which
/// nodes it names when more than one would do; [`GraphError::nodes`]
/// lists them primary first.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// An edge or pair endpoint does not belong to the graph: the first
    /// one, `from` before `to`.
    UnknownNode(NodeId),
    /// A self-loop `v -> v` was requested, as an edge or as a pair.
    SelfLoop(NodeId),
    /// The same edge was added twice: the first target a successor row
    /// lists twice, rows in id order.
    DuplicateEdge(NodeId, NodeId),
    /// The edge set contains a cycle. Witness: the lowest-id node the
    /// topological order never reaches, which lies on a cycle or behind
    /// one.
    Cycle(NodeId),
    /// More than one source node and no normalization requested: every
    /// node without a predecessor, by id.
    MultipleSources(Vec<NodeId>),
    /// More than one sink node and no normalization requested: every
    /// node without a successor, by id.
    MultipleSinks(Vec<NodeId>),
    /// A blocking pair `(fork, join)` where the fork does not reach the join.
    UnreachableJoin {
        /// The declared fork node.
        fork: NodeId,
        /// The declared join node.
        join: NodeId,
    },
    /// A node delimits more than one blocking pair: the later pair's
    /// fork if it delimits an earlier pair, else its join.
    OverlappingPairs(NodeId),
    /// Restriction (i): an inner node of a blocking region has an edge
    /// to/from a node outside the region. Witness: the first such inner
    /// node by id, and its first outside neighbour, successor row before
    /// predecessor row.
    RegionLeak {
        /// Fork delimiting the offending region.
        fork: NodeId,
        /// The inner node with an external edge.
        inner: NodeId,
        /// The external endpoint.
        outside: NodeId,
    },
    /// Restriction (ii): an edge leaving the fork ends outside the
    /// region. Witness: the fork's first such successor, in row order.
    ForkEscape {
        /// Fork delimiting the offending region.
        fork: NodeId,
        /// The external direct successor of the fork.
        outside: NodeId,
    },
    /// Restriction (iii): an edge entering the join starts outside the
    /// region. Witness: the join's first such predecessor, in row order.
    JoinIntrusion {
        /// Join delimiting the offending region.
        join: NodeId,
        /// The external direct predecessor of the join.
        outside: NodeId,
    },
    /// A blocking region shares a node with an earlier one (nested or
    /// overlapping), which the model forbids. Witness: the earlier region
    /// holding the first shared node, looking at the fork, the join, then
    /// the inner nodes by id.
    NestedRegions {
        /// Fork of the earlier region.
        outer_fork: NodeId,
        /// Fork of the later pair.
        inner_fork: NodeId,
    },
    /// The source or sink node is typed `BF`/`BJ`/`BC`; the paper requires
    /// endpoints of type `NB`.
    BlockingEndpoint(NodeId),
    /// An edit tried to dissolve a blocking pair `(fork, join)` that is
    /// not currently declared.
    NoSuchPair {
        /// The fork named by the edit.
        fork: NodeId,
        /// The join named by the edit.
        join: NodeId,
    },
    /// The node WCETs sum past `u64::MAX`, so the task has no volume
    /// (and no path length or per-core load bounded by it) to analyze.
    VolumeOverflow,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::UnknownNode(v) => write!(f, "node {v} does not belong to this graph"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle(v) => write!(f, "graph contains a cycle through {v}"),
            GraphError::MultipleSources(vs) => {
                write!(f, "graph has {} source nodes (expected one)", vs.len())
            }
            GraphError::MultipleSinks(vs) => {
                write!(f, "graph has {} sink nodes (expected one)", vs.len())
            }
            GraphError::UnreachableJoin { fork, join } => {
                write!(f, "blocking pair ({fork}, {join}): fork does not reach join")
            }
            GraphError::OverlappingPairs(v) => {
                write!(f, "node {v} participates in more than one blocking pair")
            }
            GraphError::RegionLeak { fork, inner, outside } => write!(
                f,
                "inner node {inner} of blocking region at {fork} is connected to external node {outside}"
            ),
            GraphError::ForkEscape { fork, outside } => {
                write!(f, "edge from blocking fork {fork} leaves its region toward {outside}")
            }
            GraphError::JoinIntrusion { join, outside } => {
                write!(f, "edge into blocking join {join} starts outside its region at {outside}")
            }
            GraphError::NestedRegions { outer_fork, inner_fork } => write!(
                f,
                "blocking region at {inner_fork} is nested inside the region at {outer_fork}"
            ),
            GraphError::BlockingEndpoint(v) => {
                write!(f, "source/sink node {v} must be non-blocking")
            }
            GraphError::NoSuchPair { fork, join } => {
                write!(f, "({fork}, {join}) is not a declared blocking pair")
            }
            GraphError::VolumeOverflow => {
                write!(f, "node WCETs sum past u64::MAX (volume overflow)")
            }
        }
    }
}

impl GraphError {
    /// The nodes involved in the error, primary witness first.
    ///
    /// Diagnostic tooling uses this to attach source locations to a
    /// structural error: the first returned node is the one a renderer
    /// should point its primary span at (e.g. the node on the cycle, the
    /// inner node of a leaking region), followed by secondary witnesses
    /// in a stable order. [`GraphError::Empty`] and
    /// [`GraphError::VolumeOverflow`] involve no nodes.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            GraphError::Empty | GraphError::VolumeOverflow => Vec::new(),
            GraphError::UnknownNode(v)
            | GraphError::SelfLoop(v)
            | GraphError::Cycle(v)
            | GraphError::OverlappingPairs(v)
            | GraphError::BlockingEndpoint(v) => vec![*v],
            GraphError::DuplicateEdge(a, b) => vec![*a, *b],
            GraphError::MultipleSources(vs) | GraphError::MultipleSinks(vs) => vs.clone(),
            GraphError::UnreachableJoin { fork, join } | GraphError::NoSuchPair { fork, join } => {
                vec![*fork, *join]
            }
            GraphError::RegionLeak {
                fork,
                inner,
                outside,
            } => vec![*inner, *fork, *outside],
            GraphError::ForkEscape { fork, outside } => vec![*fork, *outside],
            GraphError::JoinIntrusion { join, outside } => vec![*join, *outside],
            GraphError::NestedRegions {
                outer_fork,
                inner_fork,
            } => vec![*inner_fork, *outer_fork],
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = GraphError::SelfLoop(NodeId(3));
        assert_eq!(e.to_string(), "self-loop on node v3");
        let e = GraphError::Cycle(NodeId(1));
        assert!(e.to_string().contains("cycle"));
        let e = GraphError::NestedRegions {
            outer_fork: NodeId(0),
            inner_fork: NodeId(2),
        };
        assert!(e.to_string().contains("nested"));
    }

    #[test]
    fn nodes_lists_primary_witness_first() {
        assert!(GraphError::Empty.nodes().is_empty());
        assert_eq!(GraphError::Cycle(NodeId(7)).nodes(), vec![NodeId(7)]);
        let e = GraphError::RegionLeak {
            fork: NodeId(0),
            inner: NodeId(2),
            outside: NodeId(5),
        };
        assert_eq!(e.nodes()[0], NodeId(2));
        let e = GraphError::MultipleSources(vec![NodeId(1), NodeId(3)]);
        assert_eq!(e.nodes(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
