//! Incremental construction of [`Dag`] values.
//!
//! The builder holds no adjacency of its own: it records the edges in
//! the order they are added and [`DagBuilder::build`] hands that list to
//! [`Dag::from_lists`], which sorts it once into the two CSR arrays of
//! the finished graph. A row therefore lists a node's neighbours in
//! insertion order, which the topological order and the content hash
//! both depend on. Beside the list it keeps
//! a keyed set for an *eager* duplicate check, so a caller hears about a
//! repeated edge at the `add_edge` that repeats it, where `from_lists`
//! would only find it whole. Callers that hold lists already skip the
//! builder and that set: the task-set generator, and the `.rtp` parser
//! (`rtpool_core::textfmt`), which checks a repeated edge at its line
//! itself, and only when it records declaration sites.

use std::collections::HashSet;

use crate::dag::Dag;
use crate::error::GraphError;
use crate::node::NodeId;

/// Builder for [`Dag`] task graphs.
///
/// Add nodes with WCETs, connect them with edges, declare blocking
/// fork/join pairs, and call [`DagBuilder::build`] (or
/// [`DagBuilder::build_normalized`] to auto-insert dummy endpoints). Node
/// kinds are *derived* at build time from the declared blocking pairs, so
/// there is no way to construct an inconsistently-typed graph.
///
/// # Examples
///
/// A chain of three nodes with a blocking fork–join in the middle:
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let head = b.add_node(3);
/// let (fork, join) = b.fork_join(1, &[7, 7, 7], 1, true)?;
/// let tail = b.add_node(3);
/// b.add_edge(head, fork)?;
/// b.add_edge(join, tail)?;
/// let dag = b.build()?;
/// assert_eq!(dag.node_count(), 7);
/// assert_eq!(dag.source(), head);
/// assert_eq!(dag.sink(), tail);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    wcets: Vec<u64>,
    /// Edges in insertion order.
    edges: Vec<(NodeId, NodeId)>,
    /// The same edges keyed for the duplicate check. The default
    /// (randomly keyed) hasher stays: a caller's edges may come from
    /// outside the program.
    seen: HashSet<(NodeId, NodeId)>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Creates an empty builder with room for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        DagBuilder::with_capacities(nodes, 0)
    }

    /// Creates an empty builder with room for `nodes` nodes and `edges`
    /// edges.
    #[must_use]
    pub fn with_capacities(nodes: usize, edges: usize) -> Self {
        DagBuilder {
            wcets: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            seen: HashSet::with_capacity(edges),
            pairs: Vec::new(),
        }
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with the given worst-case execution time and returns its
    /// id. Nodes default to [`NodeKind::NonBlocking`]; blocking kinds are
    /// derived from [`DagBuilder::blocking_pair`] declarations at build
    /// time.
    ///
    /// [`NodeKind::NonBlocking`]: crate::NodeKind::NonBlocking
    pub fn add_node(&mut self, wcet: u64) -> NodeId {
        let id = NodeId::from_index(self.wcets.len());
        self.wcets.push(wcet);
        id
    }

    /// Adds a precedence edge `from -> to`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if an endpoint was not created by this
    ///   builder;
    /// * [`GraphError::SelfLoop`] if `from == to`;
    /// * [`GraphError::DuplicateEdge`] if the edge already exists.
    ///
    /// Cycles are detected at build time, not here.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        for v in [from, to] {
            if v.index() >= self.wcets.len() {
                return Err(GraphError::UnknownNode(v));
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !self.seen.insert((from, to)) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Connects `nodes` into a chain with an edge between each consecutive
    /// pair.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DagBuilder::add_edge`] error.
    pub fn add_chain(&mut self, nodes: &[NodeId]) -> Result<(), GraphError> {
        for w in nodes.windows(2) {
            self.add_edge(w[0], w[1])?;
        }
        Ok(())
    }

    /// Declares that `fork` and `join` delimit a blocking region: at build
    /// time `fork` becomes `BF`, `join` becomes `BJ`, and every node
    /// strictly between them becomes `BC`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if an endpoint was not created by this
    ///   builder;
    /// * [`GraphError::SelfLoop`] if `fork == join`.
    ///
    /// Reachability, overlap, and the sub-graph restrictions are validated
    /// at build time.
    pub fn blocking_pair(&mut self, fork: NodeId, join: NodeId) -> Result<(), GraphError> {
        for v in [fork, join] {
            if v.index() >= self.wcets.len() {
                return Err(GraphError::UnknownNode(v));
            }
        }
        if fork == join {
            return Err(GraphError::SelfLoop(fork));
        }
        self.pairs.push((fork, join));
        Ok(())
    }

    /// Convenience: adds a complete fork–join sub-graph (a fork node, one
    /// node per entry of `branch_wcets`, and a join node) and returns
    /// `(fork, join)`. With `blocking = true` the pair is declared blocking
    /// (`BF`/`BJ`); otherwise all nodes stay non-blocking.
    ///
    /// The sub-graph is *not* connected to the rest of the graph; callers
    /// add edges into the fork and out of the join.
    ///
    /// # Errors
    ///
    /// Never fails for fresh nodes; the `Result` mirrors the fallible
    /// builder API so call sites compose with `?`.
    pub fn fork_join(
        &mut self,
        fork_wcet: u64,
        branch_wcets: &[u64],
        join_wcet: u64,
        blocking: bool,
    ) -> Result<(NodeId, NodeId), GraphError> {
        let fork = self.add_node(fork_wcet);
        let join = self.add_node(join_wcet);
        if branch_wcets.is_empty() {
            self.add_edge(fork, join)?;
        }
        for &w in branch_wcets {
            let c = self.add_node(w);
            self.add_edge(fork, c)?;
            self.add_edge(c, join)?;
        }
        if blocking {
            self.blocking_pair(fork, join)?;
        }
        Ok((fork, join))
    }

    /// Builds and validates the graph.
    ///
    /// # Errors
    ///
    /// Any violation of the model restrictions: emptiness, cycles, multiple
    /// sources/sinks, malformed or nested blocking regions (see
    /// [`GraphError`]).
    pub fn build(self) -> Result<Dag, GraphError> {
        Dag::from_lists(&self.wcets, &self.edges, &self.pairs)
    }

    /// Builds the graph, first normalizing multiple sources/sinks by adding
    /// a dummy source/sink node with zero WCET (the transformation the
    /// paper describes in Section 2).
    ///
    /// Dummy nodes are only added when needed, so graphs that already have
    /// unique endpoints build unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`DagBuilder::build`], except multiple sources/sinks are
    /// repaired rather than rejected.
    pub fn build_normalized(mut self) -> Result<Dag, GraphError> {
        if self.wcets.is_empty() {
            return Err(GraphError::Empty);
        }
        let sources = self.nodes_without(|&(_, to)| to);
        if sources.len() > 1 {
            let dummy = self.add_node(0);
            for s in sources {
                self.add_edge(dummy, s)?;
            }
        }
        let sinks = self.nodes_without(|&(from, _)| from);
        // The dummy source added above has no successors yet only if the
        // graph was entirely source nodes; `sinks` recomputed after the
        // source fix keeps the invariant.
        if sinks.len() > 1 {
            let dummy = self.add_node(0);
            for t in sinks {
                self.add_edge(t, dummy)?;
            }
        }
        self.build()
    }

    /// The nodes, in id order, that are no edge's `end` (its head for
    /// the sources, its tail for the sinks).
    fn nodes_without(&self, end: impl Fn(&(NodeId, NodeId)) -> NodeId) -> Vec<NodeId> {
        let mut touched = vec![false; self.wcets.len()];
        for edge in &self.edges {
            touched[end(edge).index()] = true;
        }
        (0..touched.len())
            .filter(|&v| !touched[v])
            .map(NodeId::from_index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn rejects_unknown_node_and_self_loop() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let ghost = NodeId::from_index(7);
        assert_eq!(b.add_edge(a, ghost), Err(GraphError::UnknownNode(ghost)));
        assert_eq!(b.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(b.blocking_pair(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(
            b.blocking_pair(ghost, a),
            Err(GraphError::UnknownNode(ghost))
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        assert_eq!(b.add_edge(a, c), Err(GraphError::DuplicateEdge(a, c)));
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(matches!(DagBuilder::new().build(), Err(GraphError::Empty)));
        assert!(matches!(
            DagBuilder::new().build_normalized(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn rejects_a_wcet_sum_past_u64() {
        // Five parallel nodes of 2^62 between unit endpoints: the true
        // volume is 5·2^62 + 2, which wraps to 2^62 + 2.
        let mut b = DagBuilder::new();
        let (_, _) = b.fork_join(1, &[1 << 62; 5], 1, false).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::VolumeOverflow);
        // One branch fewer fits, and the checked sum seeds the cache.
        let mut b = DagBuilder::new();
        let (_, _) = b.fork_join(1, &[1 << 62; 3], 1, false).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.cache.volume.get(), Some(&(3 * (1 << 62) + 2)));
    }

    #[test]
    fn rejects_cycle_at_build() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn rejects_multiple_sources_without_normalization() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(a, t).unwrap();
        b.add_edge(c, t).unwrap();
        assert!(matches!(b.build(), Err(GraphError::MultipleSources(_))));
    }

    #[test]
    fn normalization_adds_dummy_endpoints() {
        let mut b = DagBuilder::new();
        let a = b.add_node(5);
        let c = b.add_node(5);
        // Two disconnected nodes: two sources and two sinks.
        let _ = c;
        let _ = a;
        let dag = b.build_normalized().unwrap();
        assert_eq!(dag.node_count(), 4);
        assert_eq!(dag.wcet(dag.source()), 0);
        assert_eq!(dag.wcet(dag.sink()), 0);
        assert_eq!(dag.volume(), 10);
        dag.validate_model().unwrap();
    }

    #[test]
    fn normalization_is_noop_for_unique_endpoints() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        let dag = b.build_normalized().unwrap();
        assert_eq!(dag.node_count(), 2);
    }

    #[test]
    fn chain_helper() {
        let mut b = DagBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(1)).collect();
        b.add_chain(&n).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.edge_count(), 3);
        assert_eq!(dag.critical_path_length(), 4);
    }

    #[test]
    fn fork_join_helper_with_empty_branches_is_degenerate() {
        let mut b = DagBuilder::new();
        let (f, j) = b.fork_join(2, &[], 3, true).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.node_count(), 2);
        assert_eq!(dag.successors(f), &[j]);
        assert!(dag.blocking_regions()[0].inner().is_empty());
    }

    #[test]
    fn non_blocking_fork_join_keeps_nb_kinds() {
        let mut b = DagBuilder::new();
        let (f, j) = b.fork_join(1, &[1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.kind(f), NodeKind::NonBlocking);
        assert_eq!(dag.kind(j), NodeKind::NonBlocking);
        assert!(dag.blocking_regions().is_empty());
    }
}
