//! The immutable, validated DAG task graph.

use std::sync::{Arc, OnceLock};

use crate::cache::{DelayProfile, DerivedCache};
use crate::csr::{check_edge, IdBlock};
use crate::error::GraphError;
use crate::node::{NodeId, NodeKind};
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
/// paper's Section 2 (see [`Dag::validate_model`]). The adjacency is
/// CSR in both directions, kept in one block with the topological
/// order, so [`Dag::successors`] and [`Dag::predecessors`] are slices of
/// that block, in the order the edges were added. Node kinds are read
/// off the blocking regions the declared pairs delimit: a region's fork
/// is [`NodeKind::BlockingFork`], its join [`NodeKind::BlockingJoin`],
/// its enclosed nodes [`NodeKind::BlockingChild`], and a node of no
/// region is [`NodeKind::NonBlocking`].
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
    /// The WCET of every node: the only per-version state a WCET edit
    /// copies.
    pub(crate) wcets: Vec<u64>,
    /// Everything that depends on edges and blocking pairs only. Shared
    /// by clones and by every WCET-only [`Dag::edit`] descendant.
    pub(crate) topology: Arc<Topology>,
    /// Lazily-memoized derived analyses; see [`crate::cache`]. Valid for
    /// the lifetime of the graph because a `Dag` is immutable once built.
    pub(crate) cache: DerivedCache,
}

/// The WCET-independent part of a [`Dag`]: CSR adjacency in both
/// directions, the topological order and every node's region in one id
/// block (see [`crate::csr`]), the reachability closure, the blocking
/// regions and, once asked for, the delay profile, the blocking forks
/// and their maximum antichain.
#[derive(Debug)]
pub(crate) struct Topology {
    /// Owns the id block: rows in edge-insertion order, the order, and
    /// for every node belonging to a region (fork, join, or inner) the
    /// index of that region in `regions`.
    pub(crate) order: TopologicalOrder,
    pub(crate) reach: Reachability,
    pub(crate) source: NodeId,
    pub(crate) sink: NodeId,
    pub(crate) regions: Vec<Region>,
    pub(crate) delays: OnceLock<DelayProfile>,
    pub(crate) blocking_forks: OnceLock<Vec<NodeId>>,
    pub(crate) bf_antichain: OnceLock<Vec<NodeId>>,
}

impl Topology {
    /// The id block.
    #[inline]
    pub(crate) fn ids(&self) -> &IdBlock {
        &self.order.ids
    }
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
        let ids = IdBlock::from_edges(n, edges)?;
        for &(fork, join) in pairs {
            check_edge(n, fork, join)?;
        }
        Dag::assemble(wcets, ids, pairs)
    }

    /// The one place a `Dag` is made from a skeleton — node WCETs, the
    /// id block holding both CSR directions ([`IdBlock::from_edges`],
    /// [`IdBlock::extended`]) and the declared blocking pairs — for
    /// [`Dag::from_lists`] (and so the builder and the generator), for a
    /// structural [`Dag::edit`], for [`Dag::validate_model`] and for
    /// [`Dag::clone_uncached`] alike.
    /// One Kahn pass orders the graph into the block, finds a repeated
    /// edge and fills the ancestor closure, one pass backwards fills the
    /// descendants ([`Reachability::ordered`]); the endpoints are read
    /// off the rows, the regions are checked on the closure and written
    /// into the block, the WCETs are summed with overflow checked (every
    /// path length and per-core load is at most the volume, so this one
    /// check bounds them all). There is no kinds pass: [`Dag::kind`]
    /// reads a node's region slot. The topology keeps the closure; the
    /// volume seeds the cache, and every other cell stays lazy.
    ///
    /// A graph of `k >= 1` blocking regions is `5 + k` heap blocks, and
    /// one without any is 4: the id block, the closure, the shared
    /// topology, the region table with one list of inner nodes per
    /// region, and the WCET vector.
    ///
    /// Errors come in the order of the separate passes this replaces:
    /// `Empty`; a repeated edge, then a cycle (both named by
    /// [`Reachability::ordered`]); sources, then sinks; regions; the
    /// volume.
    pub(crate) fn assemble(
        wcets: &[u64],
        mut ids: IdBlock,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Dag, GraphError> {
        let n = wcets.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let reach = Reachability::ordered(&mut ids)?;
        // The sources are the order's head: Kahn seeds them in id order.
        let sources = ids
            .order()
            .iter()
            .take_while(|v| ids.pred(v.index()).is_empty());
        let source = unique(sources.copied()).map_err(GraphError::MultipleSources)?;
        let sinks = (0..n)
            .filter(|&v| ids.succ(v).is_empty())
            .map(NodeId::from_index);
        let sink = unique(sinks).map_err(GraphError::MultipleSinks)?;
        let regions = validate::regions(&mut ids, &reach, pairs)?;
        let volume = wcets
            .iter()
            .try_fold(0u64, |sum, &wcet| sum.checked_add(wcet))
            .ok_or(GraphError::VolumeOverflow)?;
        Ok(Dag {
            wcets: wcets.to_vec(),
            topology: Arc::new(Topology {
                order: TopologicalOrder { ids },
                reach,
                source,
                sink,
                regions,
                delays: OnceLock::new(),
                blocking_forks: OnceLock::new(),
                bf_antichain: OnceLock::new(),
            }),
            cache: DerivedCache {
                volume: volume.into(),
                ..DerivedCache::default()
            },
        })
    }

    /// Number of nodes `|Vᵢ|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of edges `|Eᵢ|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.topology.ids().edge_count()
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        (0..self.wcets.len()).map(NodeId::from_index)
    }

    /// Worst-case execution time `C_{i,j}` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn wcet(&self, v: NodeId) -> u64 {
        self.wcets[v.index()]
    }

    /// Synchronization type `x_{i,j}` of node `v`, read off the region it
    /// belongs to: `NB` outside every region, else `BF` as the region's
    /// fork, `BJ` as its join and `BC` as an inner node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn kind(&self, v: NodeId) -> NodeKind {
        match self.region_of(v) {
            None => NodeKind::NonBlocking,
            Some(r) if r.fork() == v => NodeKind::BlockingFork,
            Some(r) if r.join() == v => NodeKind::BlockingJoin,
            Some(_) => NodeKind::BlockingChild,
        }
    }

    /// Direct successors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        self.topology.ids().succ(v.index())
    }

    /// Direct predecessors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this graph.
    #[must_use]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        self.topology.ids().pred(v.index())
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
        let t = &*self.topology;
        t.ids().region(v.index()).map(|i| &t.regions[i as usize])
    }

    /// For a `BF` node, the paired `BJ` node (`J(v)` in Algorithm 1).
    ///
    /// Returns `None` for nodes that are not blocking forks.
    #[must_use]
    pub fn blocking_join_of(&self, fork: NodeId) -> Option<NodeId> {
        self.region_of(fork)
            .filter(|r| r.fork() == fork)
            .map(Region::join)
    }

    /// For a `BJ` node, the paired `BF` node.
    ///
    /// Returns `None` for nodes that are not blocking joins.
    #[must_use]
    pub fn blocking_fork_of(&self, join: NodeId) -> Option<NodeId> {
        self.region_of(join)
            .filter(|r| r.join() == join)
            .map(Region::fork)
    }

    /// For a `BC` node, the `BF` node that waits for its completion — the
    /// paper's `F(v)`.
    ///
    /// Returns `None` for nodes that are not blocking children.
    #[must_use]
    pub fn waiting_fork_of(&self, child: NodeId) -> Option<NodeId> {
        self.region_of(child)
            .filter(|r| r.fork() != child && r.join() != child)
            .map(Region::fork)
    }

    /// Node ids of all `BF` nodes, in index order. Memoized in the
    /// topology.
    #[must_use]
    pub fn blocking_forks(&self) -> &[NodeId] {
        self.topology.blocking_forks.get_or_init(|| {
            let mut forks: Vec<NodeId> = self.blocking_regions().iter().map(Region::fork).collect();
            forks.sort_unstable();
            forks
        })
    }

    /// The task volume `vol(τᵢ)`: the sum of all node WCETs. Memoized —
    /// and seeded at assembly, where the sum is checked for overflow, so
    /// only a [`Dag::clone_uncached`] copy ever adds it up again.
    #[must_use]
    pub fn volume(&self) -> u64 {
        *self.cache.volume.get_or_init(|| self.wcets.iter().sum())
    }

    /// Length `len(λᵢ*)` of the critical (longest) source-to-sink path.
    /// Memoized.
    #[must_use]
    pub fn critical_path_length(&self) -> u64 {
        *self
            .cache
            .critical_path_length
            .get_or_init(|| crate::paths::critical_path_length(self))
    }

    /// The transitive-reachability closure of the graph, computed at
    /// assembly (which checks the blocking regions on it) and kept in the
    /// topology that clones and WCET-only edits share.
    #[must_use]
    pub fn reachability(&self) -> &Reachability {
        &self.topology.reach
    }

    /// The per-node delay sets `X(v)` and the bound `b̄` of the paper's
    /// Section 3.1, as the rows of one bit matrix. Memoized in the
    /// topology, so clones and WCET-only edits share it.
    #[must_use]
    pub fn delay_profile(&self) -> &DelayProfile {
        self.topology
            .delays
            .get_or_init(|| DelayProfile::new(self, self.reachability()))
    }

    /// A maximum antichain of the `BF` nodes: the largest set of blocking
    /// forks that may be simultaneously suspended (exact, via min-chain
    /// cover). Memoized in the topology.
    #[must_use]
    pub fn max_blocking_antichain(&self) -> &[NodeId] {
        self.topology.bf_antichain.get_or_init(|| {
            crate::antichain::max_antichain_of(self.reachability(), self.blocking_forks())
        })
    }

    /// A stable structural fingerprint of the graph: the
    /// [`WordHash`](crate::WordHash) of the node count, each WCET by
    /// node, each edge as `from << 32 | to` (successor rows in id order,
    /// each row in insertion order) and each declared blocking pair as
    /// `low << 32 | high` of its two ends, ascending. Memoized.
    ///
    /// The WCETs go into the four lanes straight off the WCET vector, a
    /// step per four; the edge words are made row by row off the id
    /// block and the pair words in one pass over its region slots, each
    /// through the kernel's four-word buffer. Nothing is allocated.
    ///
    /// Two graphs built from the same `.rtp` source (or the same builder
    /// calls) hash identically, independent of when or where they were
    /// constructed, so the hash is usable as a content-addressed cache
    /// key — `rtpool-serve` interns parsed submissions under it to share
    /// one [`Dag`] (and its filled derived-analysis cache) across
    /// structurally identical requests. It is *not* a cryptographic hash;
    /// collisions are possible and callers needing certainty must compare
    /// structures: `==` compares exactly what it reads.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.cache.content_hash.get_or_init(|| {
            let mut h = crate::WordHash::new(0);
            h.word(self.wcets.len() as u64);
            h.words(&self.wcets);
            let ids = self.topology.ids();
            for v in 0..self.wcets.len() {
                for &to in ids.succ(v) {
                    h.word(((v as u64) << 32) | to.index() as u64);
                }
            }
            for (low, high) in self.pairs() {
                h.word(((low.index() as u64) << 32) | high.index() as u64);
            }
            h.finish()
        })
    }

    /// Each declared blocking pair as `(low, high)` of its two ends, in
    /// ascending order of `low`: a scan of the region slots.
    fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let t = &*self.topology;
        let slots = if t.regions.is_empty() {
            &[][..]
        } else {
            t.ids().region_slots()
        };
        slots.iter().enumerate().filter_map(move |(v, &slot)| {
            let region = &t.regions[crate::csr::region_in(slot)? as usize];
            let v = NodeId::from_index(v);
            let partner = if v == region.fork() {
                region.join()
            } else if v == region.join() {
                region.fork()
            } else {
                return None;
            };
            (partner.index() > v.index()).then_some((v, partner))
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

    /// A copy of this graph with every derived artifact cold: assembled
    /// again from its WCETs, rows and blocking pairs into a topology of
    /// its own, whose closure and regions are computed afresh and whose
    /// lazy cells are empty, with an empty derived-analysis cache. Every
    /// other artifact is recomputed on first use.
    ///
    /// Plain [`Clone`] and a WCET-only [`Dag::edit`] share the topology;
    /// a clone also carries filled cache cells along. This is the
    /// cold-start variant, used to benchmark the miss path and to check
    /// cache coherence in tests.
    #[must_use]
    pub fn clone_uncached(&self) -> Dag {
        let cold = self
            .reassembled()
            .expect("an assembled graph assembles again");
        Dag {
            cache: DerivedCache::default(),
            ..cold
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
        self.reassembled().map(drop)
    }

    /// This graph's WCETs, rows and pairs through `Dag::assemble` again.
    fn reassembled(&self) -> Result<Dag, GraphError> {
        let t = &*self.topology;
        let pairs: Vec<(NodeId, NodeId)> = t.regions.iter().map(|r| (r.fork(), r.join())).collect();
        Dag::assemble(
            &self.wcets,
            t.ids().extended(self.node_count(), &[]),
            &pairs,
        )
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

/// Equal when [`Dag::content_hash`] reads the same words from both: the
/// WCETs, the successor rows (each in insertion order) and the blocking
/// pairs. Two graphs sharing a topology (clones, WCET-only edits)
/// compare their WCETs only; any other two compare their WCETs and the
/// successor part of their id blocks as two slices each, then their
/// pairs one region at a time.
impl PartialEq for Dag {
    fn eq(&self, other: &Dag) -> bool {
        if self.wcets != other.wcets {
            return false;
        }
        if Arc::ptr_eq(&self.topology, &other.topology) {
            return true;
        }
        let (a, b) = (&*self.topology, &*other.topology);
        // A node delimits one pair at most, so equal counts and each
        // fork's join found again make the pair sets equal.
        a.ids().succ_rows() == b.ids().succ_rows()
            && a.regions.len() == b.regions.len()
            && (a.regions.iter()).all(|r| other.blocking_join_of(r.fork()) == Some(r.join()))
    }
}

impl Eq for Dag {}

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
    fn an_uncached_copy_derives_everything_afresh() {
        let (a, [v1, ..]) = figure1a();
        let _ = (a.delay_profile(), a.critical_path_length());
        let _ = (a.blocking_forks(), a.max_blocking_antichain());
        let cold = a.clone_uncached();
        assert!(!Arc::ptr_eq(&a.topology, &cold.topology));
        assert!(cold.topology.delays.get().is_none());
        assert!(cold.topology.blocking_forks.get().is_none());
        assert!(cold.topology.bf_antichain.get().is_none());
        assert!(cold.cache.critical_path_length.get().is_none());
        assert!(!std::ptr::eq(a.reachability(), cold.reachability()));
        for v in a.node_ids() {
            assert_eq!(
                a.reachability().descendants(v),
                cold.reachability().descendants(v)
            );
            assert_eq!(
                a.reachability().ancestors(v),
                cold.reachability().ancestors(v)
            );
            assert_eq!(
                a.delay_profile().delay_row(v),
                cold.delay_profile().delay_row(v)
            );
            assert_eq!(a.successors(v), cold.successors(v));
            assert_eq!(a.region_of(v), cold.region_of(v));
        }
        assert_eq!(
            a.topological_order().as_slice(),
            cold.topological_order().as_slice()
        );
        assert_eq!(a.blocking_join_of(v1), cold.blocking_join_of(v1));
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
        let (dag, [v1, .., v5]) = figure1a();
        assert_eq!(dag.volume(), 90);
        assert_eq!(dag.critical_path_length(), 50);
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
