//! The immutable, validated DAG task graph.

use std::sync::Arc;

use crate::cache::{DelayProfile, DerivedCache};
use crate::csr::{check_edge, Csr};
use crate::error::GraphError;
use crate::node::{NodeData, NodeId, NodeKind};
use crate::paths::CriticalPath;
use crate::reach::Reachability;
use crate::regions::Region;
use crate::topo::TopologicalOrder;
use crate::validate;

/// An immutable, validated task graph `Gᵢ = {Vᵢ, Eᵢ}` of the thread-pool
/// task model.
///
/// Construct via [`DagBuilder`](crate::DagBuilder); the builder's `build`
/// methods guarantee that every `Dag` value is acyclic, has a unique
/// source and sink, and satisfies the blocking-region restrictions of the
/// paper's Section 2 (see [`Dag::validate_model`]). The adjacency is two
/// CSR arrays per direction, so [`Dag::successors`] and
/// [`Dag::predecessors`] are slices of one block each, in the order the
/// edges were added. Node kinds are derived from the declared
/// blocking pairs: the fork becomes [`NodeKind::BlockingFork`], the join
/// [`NodeKind::BlockingJoin`], the enclosed nodes
/// [`NodeKind::BlockingChild`], and everything else stays
/// [`NodeKind::NonBlocking`].
///
/// # Examples
///
/// ```
/// use rtpool_graph::{DagBuilder, NodeKind};
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let (fork, join) = b.fork_join(5, &[10, 10, 10], 5, true)?;
/// let dag = b.build()?;
/// assert_eq!(dag.node_count(), 5);
/// assert_eq!(dag.volume(), 40);
/// assert_eq!(dag.kind(fork), NodeKind::BlockingFork);
/// assert_eq!(dag.blocking_join_of(fork), Some(join));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Dag {
    /// WCET and kind per node: the only per-version state a WCET edit
    /// copies.
    pub(crate) nodes: Vec<NodeData>,
    /// Everything that depends on edges and blocking pairs only. Shared
    /// by clones and by every WCET-only [`Dag::edit`] descendant.
    pub(crate) topology: Arc<Topology>,
    /// Lazily-memoized derived analyses; see [`crate::cache`]. Valid for
    /// the lifetime of the graph because a `Dag` is immutable once built.
    pub(crate) cache: DerivedCache,
}

/// The WCET-independent part of a [`Dag`]: CSR adjacency in both
/// directions, the topological order and the blocking-region tables.
#[derive(Clone, Debug)]
pub(crate) struct Topology {
    /// Successor rows, each in edge-insertion order.
    pub(crate) succ: Csr,
    /// Predecessor rows, each in edge-insertion order.
    pub(crate) pred: Csr,
    pub(crate) order: TopologicalOrder,
    pub(crate) source: NodeId,
    pub(crate) sink: NodeId,
    /// For every node belonging to a region (fork, join, or inner):
    /// the index of that region in `regions`.
    pub(crate) region_of: Vec<Option<u32>>,
    pub(crate) regions: Vec<Region>,
}

impl Dag {
    /// Builds and validates a graph from plain lists: node WCETs (node
    /// `i` is `NodeId::from_index(i)`), the edges in insertion order
    /// (each CSR row keeps that order) and the declared blocking pairs.
    ///
    /// This is what [`DagBuilder::build`](crate::DagBuilder::build) does
    /// with what it recorded; a caller that already holds such lists,
    /// like the task-set generator or the `.rtp` parser, hands them over
    /// without replaying them through a builder. The lists are checked
    /// while both CSR directions are counted; a repeated edge is found
    /// by the pass that orders the graph, not a hash set.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownNode`] or [`GraphError::SelfLoop`] for the
    /// first malformed edge, then the first malformed pair;
    /// [`GraphError::DuplicateEdge`] for an edge listed twice; then
    /// everything [`DagBuilder::build`](crate::DagBuilder::build)
    /// reports.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtpool_graph::{Dag, GraphError, NodeId, NodeKind};
    ///
    /// let v = NodeId::from_index;
    /// let edges = [(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))];
    /// let dag = Dag::from_lists(&[1, 2, 2, 1], &edges, &[(v(0), v(3))]).unwrap();
    /// assert_eq!(dag.kind(v(1)), NodeKind::BlockingChild);
    /// assert_eq!(dag.successors(v(0)), &[v(1), v(2)]);
    ///
    /// let twice = [(v(0), v(1)), (v(0), v(1))];
    /// assert_eq!(
    ///     Dag::from_lists(&[1, 1], &twice, &[]).unwrap_err(),
    ///     GraphError::DuplicateEdge(v(0), v(1))
    /// );
    /// ```
    pub fn from_lists(
        wcets: &[u64],
        edges: &[(NodeId, NodeId)],
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Dag, GraphError> {
        let n = wcets.len();
        let (succ, pred) = Csr::both_directions(n, edges)?;
        for &(fork, join) in pairs {
            check_edge(n, fork, join)?;
        }
        Dag::assemble(wcets, succ, pred, pairs)
    }

    /// The one place a `Dag` is made from a skeleton — node WCETs, the
    /// two CSR arrays and the declared blocking pairs — for
    /// [`Dag::from_lists`] (and so the builder), for a structural
    /// [`Dag::edit`] and for [`Dag::validate_model`] alike. One Kahn
    /// pass orders the graph, finds a repeated edge and fills the
    /// ancestor closure, one pass backwards fills the descendants
    /// ([`Reachability::ordered`]); the endpoints are read off the rows,
    /// the regions are checked on the closure, and the WCETs are summed
    /// with overflow checked (every path length and per-core load is at
    /// most the volume, so this one check bounds them all) while the
    /// node table is written. The closure and the volume seed the cache;
    /// every other cell stays lazy.
    ///
    /// Errors come in the order of the separate passes this replaces:
    /// `Empty`; a repeated edge, then a cycle (both named by
    /// [`Reachability::ordered`]); sources, then sinks; regions; the
    /// volume.
    pub(crate) fn assemble(
        wcets: &[u64],
        succ: Csr,
        pred: Csr,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Dag, GraphError> {
        let n = wcets.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let (order, reach) = Reachability::ordered(&succ, &pred)?;
        // The sources are the order's head: Kahn seeds them in id order.
        let sources = order.iter().take_while(|v| pred.row(v.index()).is_empty());
        let source = unique(sources).map_err(GraphError::MultipleSources)?;
        let sinks = (0..n)
            .filter(|&v| succ.row(v).is_empty())
            .map(NodeId::from_index);
        let sink = unique(sinks).map_err(GraphError::MultipleSinks)?;
        let (region_of, regions) = validate::regions(&succ, &pred, &reach, pairs)?;
        let mut volume = 0u64;
        let mut nodes = Vec::with_capacity(n);
        for (v, &wcet) in wcets.iter().enumerate() {
            volume = volume.checked_add(wcet).ok_or(GraphError::VolumeOverflow)?;
            nodes.push(NodeData {
                wcet,
                kind: validate::kind_in(&regions, region_of[v], v),
            });
        }
        let cache = DerivedCache {
            volume: volume.into(),
            reach: Arc::new(reach).into(),
            ..DerivedCache::default()
        };
        Ok(Dag {
            nodes,
            topology: Arc::new(Topology {
                succ,
                pred,
                order,
                source,
                sink,
                region_of,
                regions,
            }),
            cache,
        })
    }

    /// Number of nodes `|Vᵢ|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|Eᵢ|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.topology.succ.edge_count()
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Worst-case execution time `C_{i,j}` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn wcet(&self, v: NodeId) -> u64 {
        self.nodes[v.index()].wcet
    }

    /// Synchronization type `x_{i,j}` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.nodes[v.index()].kind
    }

    /// Direct successors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        self.topology.succ.row(v.index())
    }

    /// Direct predecessors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        self.topology.pred.row(v.index())
    }

    /// The unique source node (no incoming edges).
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.topology.source
    }

    /// The unique sink node (no outgoing edges).
    #[must_use]
    pub fn sink(&self) -> NodeId {
        self.topology.sink
    }

    /// The cached topological order of the nodes.
    #[must_use]
    pub fn topological_order(&self) -> &TopologicalOrder {
        &self.topology.order
    }

    /// All blocking regions, in declaration order.
    #[must_use]
    pub fn blocking_regions(&self) -> &[Region] {
        &self.topology.regions
    }

    /// The region `v` belongs to (as fork, join, or inner node), if any.
    #[must_use]
    pub fn region_of(&self, v: NodeId) -> Option<&Region> {
        self.topology.region_of[v.index()].map(|i| &self.topology.regions[i as usize])
    }

    /// For a `BF` node, the paired `BJ` node (`J(v)` in Algorithm 1).
    ///
    /// Returns `None` for nodes that are not blocking forks.
    #[must_use]
    pub fn blocking_join_of(&self, fork: NodeId) -> Option<NodeId> {
        (self.kind(fork) == NodeKind::BlockingFork)
            .then(|| self.region_of(fork).map(Region::join))
            .flatten()
    }

    /// For a `BJ` node, the paired `BF` node.
    ///
    /// Returns `None` for nodes that are not blocking joins.
    #[must_use]
    pub fn blocking_fork_of(&self, join: NodeId) -> Option<NodeId> {
        (self.kind(join) == NodeKind::BlockingJoin)
            .then(|| self.region_of(join).map(Region::fork))
            .flatten()
    }

    /// For a `BC` node, the `BF` node that waits for its completion — the
    /// paper's `F(v)`.
    ///
    /// Returns `None` for nodes that are not blocking children.
    #[must_use]
    pub fn waiting_fork_of(&self, child: NodeId) -> Option<NodeId> {
        (self.kind(child) == NodeKind::BlockingChild)
            .then(|| self.region_of(child).map(Region::fork))
            .flatten()
    }

    /// Node ids of all `BF` nodes, in index order. Memoized.
    #[must_use]
    pub fn blocking_forks(&self) -> &[NodeId] {
        self.cache.blocking_forks.get_or_init(|| {
            self.node_ids()
                .filter(|&v| self.kind(v) == NodeKind::BlockingFork)
                .collect()
        })
    }

    /// The task volume `vol(τᵢ)`: the sum of all node WCETs. Memoized —
    /// and seeded at assembly, where the sum is checked for overflow, so
    /// only a [`Dag::clone_uncached`] copy ever adds it up again.
    #[must_use]
    pub fn volume(&self) -> u64 {
        *self
            .cache
            .volume
            .get_or_init(|| self.nodes.iter().map(|n| n.wcet).sum())
    }

    /// Length `len(λᵢ*)` of the critical (longest) path: the length of
    /// the memoized [`Dag::critical_path`].
    #[must_use]
    pub fn critical_path_length(&self) -> u64 {
        self.critical_path().length
    }

    /// The critical path itself: its length and one witnessing node
    /// sequence from source to sink. Memoized.
    #[must_use]
    pub fn critical_path(&self) -> &CriticalPath {
        self.cache
            .critical_path
            .get_or_init(|| CriticalPath::new(self))
    }

    /// The transitive-reachability closure of the graph. Memoized — and
    /// seeded at assembly, which computes the closure while validating
    /// blocking regions, so this never recomputes it for a built or
    /// edited graph.
    #[must_use]
    pub fn reachability(&self) -> &Reachability {
        self.cache
            .reach
            .get_or_init(|| Arc::new(Reachability::new(self)))
    }

    /// The per-node delay sets `X(v)` and the bound `b̄` of the paper's
    /// Section 3.1, as the rows of one bit matrix. Memoized.
    #[must_use]
    pub fn delay_profile(&self) -> &DelayProfile {
        self.cache
            .delays
            .get_or_init(|| Arc::new(DelayProfile::new(self, self.reachability())))
    }

    /// A maximum antichain of the `BF` nodes: the largest set of blocking
    /// forks that may be simultaneously suspended (exact, via min-chain
    /// cover). Memoized.
    #[must_use]
    pub fn max_blocking_antichain(&self) -> &[NodeId] {
        self.cache.bf_antichain.get_or_init(|| {
            crate::antichain::max_antichain_of(self.reachability(), self.blocking_forks())
        })
    }

    /// A stable structural fingerprint of the graph: an FNV-1a hash over
    /// the node WCETs, the edge list, and the declared blocking pairs.
    /// Memoized.
    ///
    /// Two graphs built from the same `.rtp` source (or the same builder
    /// calls) hash identically, independent of when or where they were
    /// constructed, so the hash is usable as a content-addressed cache
    /// key — `rtpool-serve` interns parsed submissions under it to share
    /// one [`Dag`] (and its filled derived-analysis cache) across
    /// structurally identical requests. It is *not* a cryptographic hash;
    /// collisions are possible and callers needing certainty must compare
    /// structures.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.cache.content_hash.get_or_init(|| {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = OFFSET;
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
            };
            mix(self.nodes.len() as u64);
            for n in &self.nodes {
                mix(n.wcet);
            }
            for (from, to) in self.topology.succ.edges() {
                mix(((from.index() as u64) << 32) | to.index() as u64);
            }
            // Each pair once, from its lower-numbered end, in id order.
            for v in self.node_ids() {
                let partner = match self.kind(v) {
                    NodeKind::BlockingFork => self.blocking_join_of(v),
                    NodeKind::BlockingJoin => self.blocking_fork_of(v),
                    _ => None,
                };
                if let Some(p) = partner.filter(|p| p.index() > v.index()) {
                    mix(((v.index() as u64) << 32) | p.index() as u64);
                }
            }
            h
        })
    }

    /// Opens a versioned edit session on this graph.
    ///
    /// The returned [`DagEdit`](crate::DagEdit) accumulates mutations
    /// (WCET changes, edge/node insertions, blocking-flag toggles) and
    /// applies them to a *new* `Dag`: a script of WCET changes alone
    /// shares the topology and the `O(|V|²)` artifacts with the base
    /// graph outright, and any other script is rebuilt and validated
    /// whole, as the builder would. `self` is unchanged.
    #[must_use]
    pub fn edit(&self) -> crate::DagEdit<'_> {
        crate::DagEdit::new(self)
    }

    /// A copy of this graph (sharing its immutable topology) with an
    /// *empty* derived-analysis cache: every memoized artifact will be
    /// recomputed on first use.
    ///
    /// Plain [`Clone`] carries filled cache cells along; this is the
    /// cold-start variant, used to benchmark the miss path and to check
    /// cache coherence in tests.
    #[must_use]
    pub fn clone_uncached(&self) -> Dag {
        Dag {
            nodes: self.nodes.clone(),
            topology: Arc::clone(&self.topology),
            cache: DerivedCache::default(),
        }
    }

    /// Re-validates this graph against the full task-model restrictions.
    ///
    /// Graphs built through [`DagBuilder`](crate::DagBuilder) or
    /// [`Dag::edit`] are always valid; this hands the stored WCETs, rows
    /// and blocking pairs to the assembly every graph goes through once
    /// more, as a check in tests and tools.
    ///
    /// # Errors
    ///
    /// Returns the first violated restriction as a [`GraphError`].
    pub fn validate_model(&self) -> Result<(), GraphError> {
        validate::validate(self)
    }

    /// Checks the experiment-generation convention that the source and sink
    /// are of type [`NodeKind::NonBlocking`] (Section 5 of the paper).
    ///
    /// The model itself permits blocking endpoints (the paper's Figure 1(a)
    /// has a `BF` source), so this is *not* part of
    /// [`Dag::validate_model`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BlockingEndpoint`] naming the offending node.
    pub fn validate_endpoints_non_blocking(&self) -> Result<(), GraphError> {
        for v in [self.source(), self.sink()] {
            if self.kind(v) != NodeKind::NonBlocking {
                return Err(GraphError::BlockingEndpoint(v));
            }
        }
        Ok(())
    }
}

/// The one node `ends` yields.
///
/// # Errors
///
/// Every node it yields, in its order, when there is not exactly one.
fn unique(mut ends: impl Iterator<Item = NodeId>) -> Result<NodeId, Vec<NodeId>> {
    match (ends.next(), ends.next()) {
        (Some(only), None) => Ok(only),
        (first, second) => Err(first.into_iter().chain(second).chain(ends).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    fn figure1a() -> (Dag, [NodeId; 5]) {
        let mut b = DagBuilder::new();
        let v1 = b.add_node(10);
        let v2 = b.add_node(20);
        let v3 = b.add_node(30);
        let v4 = b.add_node(20);
        let v5 = b.add_node(10);
        for c in [v2, v3, v4] {
            b.add_edge(v1, c).unwrap();
            b.add_edge(c, v5).unwrap();
        }
        b.blocking_pair(v1, v5).unwrap();
        (b.build().unwrap(), [v1, v2, v3, v4, v5])
    }

    #[test]
    fn content_hash_is_structural() {
        let (a, _) = figure1a();
        let (b, _) = figure1a();
        // Same construction → same hash, across instances and across a
        // cold-cache copy.
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone_uncached().content_hash());

        // A WCET change, an extra edge, or a dropped blocking pair each
        // change the fingerprint.
        let mut c = DagBuilder::new();
        let v1 = c.add_node(11); // 10 in figure1a
        let v2 = c.add_node(20);
        let v3 = c.add_node(30);
        let v4 = c.add_node(20);
        let v5 = c.add_node(10);
        for x in [v2, v3, v4] {
            c.add_edge(v1, x).unwrap();
            c.add_edge(x, v5).unwrap();
        }
        c.blocking_pair(v1, v5).unwrap();
        assert_ne!(a.content_hash(), c.build().unwrap().content_hash());

        let mut d = DagBuilder::new();
        let v1 = d.add_node(10);
        let v2 = d.add_node(20);
        let v3 = d.add_node(30);
        let v4 = d.add_node(20);
        let v5 = d.add_node(10);
        for x in [v2, v3, v4] {
            d.add_edge(v1, x).unwrap();
            d.add_edge(x, v5).unwrap();
        }
        // No blocking pair declared.
        assert_ne!(a.content_hash(), d.build().unwrap().content_hash());
    }

    #[test]
    fn list_entry_finds_a_repeated_edge() {
        let (dag, [v1, v2, _, _, v5]) = figure1a();
        let wcets: Vec<u64> = dag.node_ids().map(|v| dag.wcet(v)).collect();
        let mut edges: Vec<(NodeId, NodeId)> = dag
            .node_ids()
            .flat_map(|v| dag.successors(v).iter().map(move |&w| (v, w)))
            .collect();
        let pairs = [(v1, v5)];
        // The lists the builder recorded give the builder's graph back.
        let same = Dag::from_lists(&wcets, &edges, &pairs).unwrap();
        assert_eq!(same.content_hash(), dag.content_hash());
        // The same edge again, anywhere in the list, is refused.
        edges.insert(1, (v2, v5));
        assert_eq!(
            Dag::from_lists(&wcets, &edges, &pairs).unwrap_err(),
            GraphError::DuplicateEdge(v2, v5)
        );
        // Malformed edges and pairs are refused before the rows are built.
        let ghost = NodeId::from_index(5);
        assert_eq!(
            Dag::from_lists(&wcets, &[(v1, ghost)], &pairs).unwrap_err(),
            GraphError::UnknownNode(ghost)
        );
        assert_eq!(
            Dag::from_lists(&wcets, &[], &[(v2, v2)]).unwrap_err(),
            GraphError::SelfLoop(v2)
        );
    }

    #[test]
    fn kinds_derived_from_pair() {
        let (dag, [v1, v2, v3, v4, v5]) = figure1a();
        assert_eq!(dag.kind(v1), NodeKind::BlockingFork);
        assert_eq!(dag.kind(v5), NodeKind::BlockingJoin);
        for c in [v2, v3, v4] {
            assert_eq!(dag.kind(c), NodeKind::BlockingChild);
        }
        assert_eq!(dag.blocking_join_of(v1), Some(v5));
        assert_eq!(dag.blocking_fork_of(v5), Some(v1));
        assert_eq!(dag.waiting_fork_of(v3), Some(v1));
        assert_eq!(dag.waiting_fork_of(v1), None);
        assert_eq!(dag.blocking_forks(), vec![v1]);
    }

    #[test]
    fn metrics() {
        let (dag, [v1, _, v3, _, v5]) = figure1a();
        assert_eq!(dag.volume(), 90);
        assert_eq!(dag.critical_path_length(), 50);
        let cp = dag.critical_path();
        assert_eq!(cp.nodes, vec![v1, v3, v5]);
        assert_eq!(dag.source(), v1);
        assert_eq!(dag.sink(), v5);
        assert_eq!(dag.edge_count(), 6);
    }

    #[test]
    fn region_queries() {
        let (dag, [v1, v2, _, _, v5]) = figure1a();
        assert_eq!(dag.blocking_regions().len(), 1);
        let r = dag.region_of(v2).unwrap();
        assert_eq!(r.fork(), v1);
        assert_eq!(r.join(), v5);
        assert_eq!(r.inner().len(), 3);
        assert!(dag.region_of(v1).is_some());
    }

    #[test]
    fn endpoint_check_rejects_bf_source() {
        let (dag, _) = figure1a();
        // v1 (source) is BF, so the generation convention is violated.
        assert!(matches!(
            dag.validate_endpoints_non_blocking(),
            Err(GraphError::BlockingEndpoint(_))
        ));
        // ...but the model itself accepts the graph.
        dag.validate_model().unwrap();
    }
}
