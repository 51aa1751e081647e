//! Versioned, cache-preserving mutation of [`Dag`] graphs.
//!
//! A `Dag` is immutable, so "editing" one means deriving a *new* version.
//! The naive route — re-running [`DagBuilder`](crate::DagBuilder) — pays
//! the full `O(|V|²/64)` reachability closure plus a fresh
//! [`DelayProfile`](crate::DelayProfile) even for a one-node WCET tweak.
//! [`DagEdit`] instead patches the base graph's
//! [`DerivedCache`](crate::cache::DerivedCache) in place:
//!
//! * **WCET change** — structure untouched: the topology (CSR adjacency,
//!   topological order, region tables), the reachability closure and the
//!   delay profile are all *shared* with the base (each sits behind an
//!   `Arc`), the volume is adjusted arithmetically, and only the path
//!   metrics are left for lazy `O(|V|+|E|)` recomputation. The one
//!   per-node copy is the WCET/kind table, so the allocator is called a
//!   fixed number of times whatever the graph's size.
//! * **Edge insert `u -> v`** — only the *dirty cone* is touched: the
//!   descendant rows of `{u} ∪ anc(u)` and the ancestor rows of
//!   `{v} ∪ desc(v)` are patched word-parallel, and the delay rows of
//!   exactly those nodes are rebuilt.
//! * **Node insert** — an `NB` node is appended; the closure and delay
//!   matrices grow by one row and column and the new edges are patched
//!   in as above.
//! * **Blocking toggle** — reachability is unaffected; the fork's column
//!   is flipped across the delay rows in `O(1)` per row.
//!
//! Inserted edges are collected while the script runs and the two CSR
//! arrays are rebuilt once at the end: every row keeps its order and
//! gains its new neighbours behind it, which is what pushing onto
//! per-node lists would have produced.
//!
//! Every op is validated against the evolving graph (cycles via the
//! already-patched closure, the paper's region restrictions (i)–(iii),
//! nesting/overlap), so an edited `Dag` upholds the same invariants as a
//! builder-constructed one. The returned [`DagDelta`] names the dirty
//! cone so downstream analyses (warm-started RTA in `rtpool-core`) can
//! confine their own recomputation to it.
//!
//! # Examples
//!
//! ```
//! use rtpool_graph::DagBuilder;
//!
//! # fn main() -> Result<(), rtpool_graph::GraphError> {
//! let mut b = DagBuilder::new();
//! let (fork, join) = b.fork_join(1, &[4, 4], 1, true)?;
//! let dag = b.build()?;
//! let branch = dag.successors(fork)[0];
//!
//! let mut edit = dag.edit();
//! edit.set_wcet(branch, 9);
//! let (v2, delta) = edit.apply()?;
//! assert!(delta.is_wcet_only());
//! assert_eq!(v2.volume(), dag.volume() + 5);
//! assert_eq!(v2.blocking_regions().len(), 1);
//! # let _ = join;
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::cache::{DelayProfile, DerivedCache};
use crate::csr::Csr;
use crate::dag::{Dag, Topology};
use crate::error::GraphError;
use crate::node::{NodeData, NodeId, NodeKind};
use crate::reach::Reachability;
use crate::regions::Region;
use crate::topo::TopologicalOrder;

/// One mutation step of an edit script. See [`DagEdit`] for semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Replace the WCET of an existing node.
    SetWcet {
        /// The node to retime.
        node: NodeId,
        /// Its new worst-case execution time.
        wcet: u64,
    },
    /// Insert a precedence edge `from -> to`.
    InsertEdge {
        /// Edge tail.
        from: NodeId,
        /// Edge head.
        to: NodeId,
    },
    /// Append a new `NB` node wired to existing predecessors/successors.
    InsertNode {
        /// WCET of the new node.
        wcet: u64,
        /// Direct predecessors (at least one, to preserve the unique source).
        preds: Vec<NodeId>,
        /// Direct successors (at least one, to preserve the unique sink).
        succs: Vec<NodeId>,
    },
    /// Declare (`on = true`) or dissolve (`on = false`) the blocking pair
    /// `(fork, join)`.
    SetBlocking {
        /// The fork endpoint.
        fork: NodeId,
        /// The join endpoint.
        join: NodeId,
        /// `true` to declare the pair blocking, `false` to clear it.
        on: bool,
    },
}

/// Summary of what an applied edit script touched, so downstream
/// analyses can confine recomputation to the affected cone.
#[derive(Clone, Debug)]
pub struct DagDelta {
    /// Nodes whose derived data (reachability rows, delay sets, or WCET)
    /// may differ from the base graph, sorted by id. A superset of the
    /// true change set is permitted; membership is exact for WCET edits.
    pub dirty: Vec<NodeId>,
    /// `true` if any edge or node was inserted (topology changed).
    pub structural: bool,
    /// `true` if any node's WCET changed.
    pub wcet_changed: bool,
    /// `true` if any blocking pair was declared or dissolved.
    pub blocking_changed: bool,
    /// Number of nodes appended by the script.
    pub nodes_added: usize,
}

impl DagDelta {
    /// `true` if the script changed only WCETs: topology, node kinds, and
    /// blocking regions are identical to the base, so structural caches
    /// (reachability, delay profile, partition mappings) remain valid.
    #[must_use]
    pub fn is_wcet_only(&self) -> bool {
        !self.structural && !self.blocking_changed && self.nodes_added == 0
    }
}

/// An edit session on a base [`Dag`], opened with [`Dag::edit`].
///
/// Ops accumulate in order and are validated and applied atomically by
/// [`DagEdit::apply`]: either every op is legal against the evolving
/// graph and a new `Dag` (plus its [`DagDelta`]) is returned, or the
/// first violation is reported and the base graph is left untouched.
#[derive(Debug)]
pub struct DagEdit<'a> {
    base: &'a Dag,
    ops: Vec<EditOp>,
    pending_nodes: usize,
}

impl<'a> DagEdit<'a> {
    pub(crate) fn new(base: &'a Dag) -> Self {
        DagEdit {
            base,
            ops: Vec::new(),
            pending_nodes: 0,
        }
    }

    /// Number of accumulated ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no ops were recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queues a raw [`EditOp`] (the script-driven entry point used by
    /// `rtpool-serve`). Returns the id a queued `InsertNode` will receive.
    pub fn push(&mut self, op: EditOp) -> Option<NodeId> {
        let id = if let EditOp::InsertNode { .. } = op {
            let id = NodeId::from_index(self.base.node_count() + self.pending_nodes);
            self.pending_nodes += 1;
            Some(id)
        } else {
            None
        };
        self.ops.push(op);
        id
    }

    /// Queues a WCET change for `node`.
    pub fn set_wcet(&mut self, node: NodeId, wcet: u64) -> &mut Self {
        self.push(EditOp::SetWcet { node, wcet });
        self
    }

    /// Queues insertion of the edge `from -> to`.
    pub fn insert_edge(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.push(EditOp::InsertEdge { from, to });
        self
    }

    /// Queues insertion of a new non-blocking node between `preds` and
    /// `succs`, returning the id it will hold once applied.
    pub fn insert_node(&mut self, wcet: u64, preds: &[NodeId], succs: &[NodeId]) -> NodeId {
        self.push(EditOp::InsertNode {
            wcet,
            preds: preds.to_vec(),
            succs: succs.to_vec(),
        })
        .expect("InsertNode always yields an id")
    }

    /// Queues declaration (`on = true`) or dissolution (`on = false`) of
    /// the blocking pair `(fork, join)`.
    pub fn set_blocking(&mut self, fork: NodeId, join: NodeId, on: bool) -> &mut Self {
        self.push(EditOp::SetBlocking { fork, join, on });
        self
    }

    /// Validates and applies the accumulated script, producing the edited
    /// graph and a [`DagDelta`] describing the affected cone.
    ///
    /// The base graph is never modified; its `O(|V|²/64)` derived
    /// artifacts are shared (WCET-only scripts) or copied once and
    /// patched only on the dirty rows (structural scripts).
    ///
    /// # Errors
    ///
    /// The first op that would violate the task model: unknown nodes,
    /// self-loops, duplicate edges, cycles, endpoint-uniqueness breaks
    /// (reported as cycles, since any such edge closes one), the region
    /// restrictions (i)–(iii), nesting/overlap of blocking pairs, or a
    /// [`GraphError::NoSuchPair`] when dissolving an undeclared pair.
    pub fn apply(self) -> Result<(Dag, DagDelta), GraphError> {
        let base = self.base;
        // Force the closure once; the builder pre-seeds it, so this is a
        // cache hit for every builder- or edit-constructed graph.
        let _ = base.reachability();
        let mut reach: Arc<Reachability> = base.cache.reach.get().expect("just forced").clone();
        let base_delays: Option<Arc<DelayProfile>> = base.cache.delays.get().cloned();

        let mut g = Evolving::new(base);

        // Indices whose reachability/delay rows changed (structural cone)
        // and all touched indices (for the reported delta).
        let mut structural_dirty: Vec<usize> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut toggles: Vec<(NodeId, bool)> = Vec::new();
        let mut volume_delta: i128 = 0;
        let mut structural = false;
        let mut wcet_changed = false;
        let mut blocking_changed = false;
        let mut nodes_added = 0usize;

        for op in self.ops {
            let n = g.nodes.len();
            match op {
                EditOp::SetWcet { node, wcet } => {
                    if node.index() >= n {
                        return Err(GraphError::UnknownNode(node));
                    }
                    let old = g.nodes[node.index()].wcet;
                    volume_delta += i128::from(wcet) - i128::from(old);
                    g.nodes[node.index()].wcet = wcet;
                    wcet_changed = true;
                    touched.push(node.index());
                }
                EditOp::InsertEdge { from, to } => {
                    g.validate_edge(&reach, from, to)?;
                    g.added.push((from, to));
                    let dirty = Arc::make_mut(&mut reach).patch_edge(from, to);
                    structural_dirty.extend_from_slice(&dirty);
                    touched.extend_from_slice(&dirty);
                    structural = true;
                }
                EditOp::InsertNode { wcet, preds, succs } => {
                    let new = NodeId::from_index(n);
                    g.validate_node_insert(&reach, &preds, &succs)?;
                    g.nodes.push(NodeData {
                        wcet,
                        kind: NodeKind::NonBlocking,
                    });
                    g.pair.to_mut().push(None);
                    g.region_of.to_mut().push(None);
                    volume_delta += i128::from(wcet);
                    let r = Arc::make_mut(&mut reach);
                    r.grow(n + 1);
                    let edges = preds
                        .iter()
                        .map(|&p| (p, new))
                        .chain(succs.iter().map(|&s| (new, s)));
                    for (from, to) in edges {
                        g.added.push((from, to));
                        let dirty = r.patch_edge(from, to);
                        structural_dirty.extend_from_slice(&dirty);
                        touched.extend_from_slice(&dirty);
                    }
                    structural = true;
                    nodes_added += 1;
                }
                EditOp::SetBlocking { fork, join, on } => {
                    for v in [fork, join] {
                        if v.index() >= n {
                            return Err(GraphError::UnknownNode(v));
                        }
                    }
                    if fork == join {
                        return Err(GraphError::SelfLoop(fork));
                    }
                    touched.push(fork.index());
                    touched.push(join.index());
                    if on {
                        let inner = g.declare_region(fork, join, &reach)?;
                        touched.extend(inner.iter());
                    } else {
                        let inner = g.dissolve_region(fork, join)?;
                        touched.extend(inner.iter().map(|v| v.index()));
                    }
                    toggles.push((fork, on));
                    blocking_changed = true;
                }
            }
        }

        structural_dirty.sort_unstable();
        structural_dirty.dedup();
        touched.sort_unstable();
        touched.dedup();

        let nodes = g.nodes;
        let n = nodes.len();
        // A script that changed only WCETs shares the base topology; any
        // other builds the two CSR arrays once, each row keeping its
        // order and gaining the inserted edges behind it.
        let topology = if !structural && !blocking_changed {
            Arc::clone(&base.topology)
        } else {
            let t = &base.topology;
            let (succ, pred, order) = if structural {
                let succ = t.succ.extended(n, g.added.iter().copied());
                let pred = t
                    .pred
                    .extended(n, g.added.iter().map(|&(from, to)| (to, from)));
                let order = TopologicalOrder::compute(&succ).map_err(GraphError::Cycle)?;
                (succ, pred, order)
            } else {
                (t.succ.clone(), t.pred.clone(), t.order.clone())
            };
            Arc::new(Topology {
                succ,
                pred,
                order,
                source: t.source,
                sink: t.sink,
                pair: g.pair.into_owned(),
                region_of: g.region_of.into_owned(),
                regions: g.regions.into_owned(),
            })
        };

        // Assemble the cache: reachability is always carried (shared or
        // patched); cheap-to-derive artifacts are carried when still
        // valid, left lazy otherwise.
        let cache = DerivedCache::default();
        let _ = cache.reach.set(reach);
        if let Some(&vol) = base.cache.volume.get() {
            let patched = i128::from(vol) + volume_delta;
            let _ = cache
                .volume
                .set(u64::try_from(patched).expect("volume stays non-negative"));
        }
        if !blocking_changed {
            if let Some(bf) = base.cache.blocking_forks.get() {
                let _ = cache.blocking_forks.set(bf.clone());
            }
            // The exact BF antichain depends only on BF-BF reachability;
            // carry it unless the dirty cone touched a blocking fork.
            let cone_hits_fork = structural_dirty
                .iter()
                .any(|&i| nodes[i].kind == NodeKind::BlockingFork);
            if !cone_hits_fork {
                if let Some(ac) = base.cache.bf_antichain.get() {
                    let _ = cache.bf_antichain.set(ac.clone());
                }
            }
        }

        let dag = Dag {
            nodes,
            topology,
            cache,
        };

        // Patch the delay profile last — its helpers read the finished
        // graph. Shared outright when no row can have changed.
        if let Some(mut profile) = base_delays {
            if structural_dirty.is_empty() && toggles.is_empty() {
                let _ = dag.cache.delays.set(profile);
            } else {
                let p = Arc::make_mut(&mut profile);
                p.grow(n);
                let reach_ref = dag.reachability();
                for &(fork, on) in &toggles {
                    p.toggle_fork(&dag, reach_ref, fork, on);
                }
                p.repatch(&dag, reach_ref, &structural_dirty);
                let _ = dag.cache.delays.set(profile);
            }
        }

        let delta = DagDelta {
            dirty: touched.into_iter().map(NodeId::from_index).collect(),
            structural,
            wcet_changed,
            blocking_changed,
            nodes_added,
        };
        Ok((dag, delta))
    }
}

/// The graph as it stands part-way through a script: the base topology
/// (never copied while only read), the edges inserted so far, and the
/// per-node and region tables, each copied from the base on first write.
struct Evolving<'a> {
    base: &'a Topology,
    nodes: Vec<NodeData>,
    /// Inserted edges in op order; a node's current neighbours are its
    /// base row followed by its entries here.
    added: Vec<(NodeId, NodeId)>,
    pair: Cow<'a, [Option<NodeId>]>,
    region_of: Cow<'a, [Option<u32>]>,
    regions: Cow<'a, [Region]>,
}

impl<'a> Evolving<'a> {
    fn new(base: &'a Dag) -> Self {
        let t: &Topology = &base.topology;
        Evolving {
            base: t,
            nodes: base.nodes.clone(),
            added: Vec::new(),
            pair: Cow::Borrowed(&t.pair),
            region_of: Cow::Borrowed(&t.region_of),
            regions: Cow::Borrowed(&t.regions),
        }
    }

    /// Current direct successors of `v`, in insertion order.
    fn succs(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let added = self.added.iter().filter(move |e| e.0 == v).map(|e| e.1);
        base_row(&self.base.succ, v).iter().copied().chain(added)
    }

    /// Current direct predecessors of `v`, in insertion order.
    fn preds(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let added = self.added.iter().filter(move |e| e.1 == v).map(|e| e.0);
        base_row(&self.base.pred, v).iter().copied().chain(added)
    }

    /// The fork of the region a `BC` node belongs to.
    fn fork_of_inner(&self, inner: NodeId) -> NodeId {
        let r = self.region_of[inner.index()].expect("BC node belongs to a region");
        self.regions[r as usize].fork()
    }

    /// Validates an edge insert against the evolving graph: range,
    /// self-loop, duplicate, acyclicity (via the patched closure — which
    /// also preserves endpoint uniqueness, since an edge into the source
    /// or out of the sink always closes a cycle), and the region
    /// restrictions.
    fn validate_edge(
        &self,
        reach: &Reachability,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), GraphError> {
        for v in [from, to] {
            if v.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(v));
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if self.succs(from).any(|s| s == to) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        if reach.reaches(to, from) {
            return Err(GraphError::Cycle(from));
        }
        let region_of = &self.region_of;
        let same_region =
            region_of[from.index()].is_some() && region_of[from.index()] == region_of[to.index()];
        match self.nodes[from.index()].kind {
            // Restriction (ii): the fork's successors stay in its region.
            NodeKind::BlockingFork if !same_region => {
                return Err(GraphError::ForkEscape {
                    fork: from,
                    outside: to,
                });
            }
            // Restriction (i): inner nodes connect only within the region.
            NodeKind::BlockingChild if !same_region => {
                return Err(GraphError::RegionLeak {
                    fork: self.fork_of_inner(from),
                    inner: from,
                    outside: to,
                });
            }
            _ => {}
        }
        match self.nodes[to.index()].kind {
            // Restriction (iii): the join's predecessors come from its region.
            NodeKind::BlockingJoin if !same_region => {
                return Err(GraphError::JoinIntrusion {
                    join: to,
                    outside: from,
                });
            }
            NodeKind::BlockingChild if !same_region => {
                return Err(GraphError::RegionLeak {
                    fork: self.fork_of_inner(to),
                    inner: to,
                    outside: from,
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Validates a node insert: the new node is `NB` and lives outside
    /// every region, so its neighbors must not be nodes whose edges are
    /// confined (`BF` out-edges, `BJ` in-edges, any `BC` edge), it needs
    /// at least one predecessor and successor to preserve endpoint
    /// uniqueness, and no `pred -> new -> succ` path may close a cycle.
    fn validate_node_insert(
        &self,
        reach: &Reachability,
        preds: &[NodeId],
        succs: &[NodeId],
    ) -> Result<(), GraphError> {
        let n = self.nodes.len();
        let new = NodeId::from_index(n);
        for v in preds.iter().chain(succs) {
            if v.index() >= n {
                return Err(GraphError::UnknownNode(*v));
            }
        }
        if preds.is_empty() {
            // No predecessor would make the new node a second source.
            return Err(GraphError::MultipleSources(vec![new]));
        }
        if succs.is_empty() {
            return Err(GraphError::MultipleSinks(vec![new]));
        }
        for (i, &v) in preds.iter().enumerate() {
            if preds[..i].contains(&v) {
                return Err(GraphError::DuplicateEdge(v, new));
            }
        }
        for (i, &v) in succs.iter().enumerate() {
            if succs[..i].contains(&v) {
                return Err(GraphError::DuplicateEdge(new, v));
            }
        }
        for &p in preds {
            match self.nodes[p.index()].kind {
                NodeKind::BlockingFork => {
                    return Err(GraphError::ForkEscape {
                        fork: p,
                        outside: new,
                    });
                }
                NodeKind::BlockingChild => {
                    return Err(GraphError::RegionLeak {
                        fork: self.fork_of_inner(p),
                        inner: p,
                        outside: new,
                    });
                }
                _ => {}
            }
        }
        for &s in succs {
            match self.nodes[s.index()].kind {
                NodeKind::BlockingJoin => {
                    return Err(GraphError::JoinIntrusion {
                        join: s,
                        outside: new,
                    });
                }
                NodeKind::BlockingChild => {
                    return Err(GraphError::RegionLeak {
                        fork: self.fork_of_inner(s),
                        inner: s,
                        outside: new,
                    });
                }
                _ => {}
            }
        }
        for &p in preds {
            for &s in succs {
                if s == p || reach.reaches(s, p) {
                    return Err(GraphError::Cycle(s));
                }
            }
        }
        Ok(())
    }

    /// Validates and applies a blocking-pair declaration, mirroring the
    /// builder-time checks of `validate::analyze`. Returns the inner node
    /// indices of the new region.
    fn declare_region(
        &mut self,
        fork: NodeId,
        join: NodeId,
        reach: &Reachability,
    ) -> Result<BitSet, GraphError> {
        if !reach.reaches(fork, join) {
            return Err(GraphError::UnreachableJoin { fork, join });
        }
        if self.pair[fork.index()].is_some() {
            return Err(GraphError::OverlappingPairs(fork));
        }
        if self.pair[join.index()].is_some() {
            return Err(GraphError::OverlappingPairs(join));
        }
        let mut inner = reach.descendants(fork).to_bitset();
        inner.intersect_with(reach.ancestors(join));
        let in_region = |v: NodeId| v == fork || v == join || inner.contains(v.index());
        for v in std::iter::once(fork)
            .chain(std::iter::once(join))
            .chain(inner.iter().map(NodeId::from_index))
        {
            if let Some(prev) = self.region_of[v.index()] {
                return Err(GraphError::NestedRegions {
                    outer_fork: self.regions[prev as usize].fork(),
                    inner_fork: fork,
                });
            }
        }
        // Restriction (ii): every edge out of the fork stays in the region.
        if let Some(s) = self.succs(fork).find(|&s| !in_region(s)) {
            return Err(GraphError::ForkEscape { fork, outside: s });
        }
        // Restriction (iii): every edge into the join starts in the region.
        if let Some(p) = self.preds(join).find(|&p| !in_region(p)) {
            return Err(GraphError::JoinIntrusion { join, outside: p });
        }
        // Restriction (i): inner nodes are internally connected only.
        for x in inner.iter().map(NodeId::from_index) {
            if let Some(nbr) = self.succs(x).chain(self.preds(x)).find(|&v| !in_region(v)) {
                return Err(GraphError::RegionLeak {
                    fork,
                    inner: x,
                    outside: nbr,
                });
            }
        }

        let region_idx = u32::try_from(self.regions.len()).expect("too many regions");
        let pair = self.pair.to_mut();
        pair[fork.index()] = Some(join);
        pair[join.index()] = Some(fork);
        self.nodes[fork.index()].kind = NodeKind::BlockingFork;
        self.nodes[join.index()].kind = NodeKind::BlockingJoin;
        let region_of = self.region_of.to_mut();
        region_of[fork.index()] = Some(region_idx);
        region_of[join.index()] = Some(region_idx);
        for i in inner.iter() {
            self.nodes[i].kind = NodeKind::BlockingChild;
            region_of[i] = Some(region_idx);
        }
        self.regions.to_mut().push(Region::new(
            fork,
            join,
            inner.iter().map(NodeId::from_index).collect(),
        ));
        Ok(inner)
    }

    /// Dissolves the blocking pair `(fork, join)`: every member reverts
    /// to `NB` and the region is dropped. Returns the former inner nodes.
    fn dissolve_region(&mut self, fork: NodeId, join: NodeId) -> Result<Vec<NodeId>, GraphError> {
        if self.nodes[fork.index()].kind != NodeKind::BlockingFork
            || self.pair[fork.index()] != Some(join)
        {
            return Err(GraphError::NoSuchPair { fork, join });
        }
        let ri = self.region_of[fork.index()].expect("BF node belongs to a region") as usize;
        let region = self.regions.to_mut().remove(ri);
        debug_assert_eq!(region.fork(), fork);
        let region_of = self.region_of.to_mut();
        for v in region.nodes() {
            self.nodes[v.index()].kind = NodeKind::NonBlocking;
            region_of[v.index()] = None;
        }
        let pair = self.pair.to_mut();
        pair[fork.index()] = None;
        pair[join.index()] = None;
        // Region removal shifts the indices of the regions behind it.
        for slot in region_of.iter_mut().flatten() {
            if *slot as usize > ri {
                *slot -= 1;
            }
        }
        Ok(region.inner().to_vec())
    }
}

/// Row `v` of a base CSR, empty for a node inserted by the script.
fn base_row(adj: &Csr, v: NodeId) -> &[NodeId] {
    if v.index() < adj.node_count() {
        adj.row(v.index())
    } else {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    /// s -> f{a,b}j -> t with a blocking region, plus a parallel lane
    /// s -> p -> t.
    fn base_graph() -> (Dag, [NodeId; 7]) {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let (f, j) = b.fork_join(2, &[5, 7], 2, true).unwrap();
        let p = b.add_node(3);
        let t = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(s, p).unwrap();
        b.add_edge(j, t).unwrap();
        b.add_edge(p, t).unwrap();
        let dag = b.build().unwrap();
        let a = dag.successors(f)[0];
        let c = dag.successors(f)[1];
        (dag, [s, f, a, c, j, p, t])
    }

    /// The patched cache must agree with a cold recompute on every
    /// derived artifact.
    fn assert_cache_coherent(dag: &Dag) {
        let cold = dag.clone_uncached();
        assert_eq!(dag.volume(), cold.volume());
        assert_eq!(dag.critical_path(), cold.critical_path());
        assert_eq!(dag.blocking_forks(), cold.blocking_forks());
        assert_eq!(dag.max_blocking_antichain(), cold.max_blocking_antichain());
        assert_eq!(dag.content_hash(), cold.content_hash());
        let (r, rc) = (dag.reachability(), cold.reachability());
        let (d, dc) = (dag.delay_profile(), cold.delay_profile());
        assert_eq!(d.max_delay_count(), dc.max_delay_count());
        for v in dag.node_ids() {
            assert_eq!(r.descendants(v), rc.descendants(v), "desc({v})");
            assert_eq!(r.ancestors(v), rc.ancestors(v), "anc({v})");
            assert_eq!(d.delay_row(v), dc.delay_row(v), "X({v})");
            assert_eq!(d.delay_count(v), dc.delay_count(v));
        }
        dag.validate_model().unwrap();
    }

    /// Forces every cache cell so edits exercise the patch paths.
    fn warm(dag: &Dag) {
        let _ = dag.volume();
        let _ = dag.critical_path();
        let _ = dag.reachability();
        let _ = dag.delay_profile();
        let _ = dag.blocking_forks();
        let _ = dag.max_blocking_antichain();
        let _ = dag.content_hash();
    }

    #[test]
    fn wcet_edit_shares_structural_artifacts() {
        let (dag, [_, _, a, ..]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.set_wcet(a, 50);
        let (v2, delta) = e.apply().unwrap();
        assert!(delta.is_wcet_only());
        assert!(delta.wcet_changed);
        assert_eq!(delta.dirty, vec![a]);
        assert_eq!(v2.wcet(a), 50);
        assert_eq!(v2.volume(), dag.volume() + 45);
        // The O(|V|²) artifacts are the very same allocations.
        assert!(Arc::ptr_eq(
            dag.cache.reach.get().unwrap(),
            v2.cache.reach.get().unwrap()
        ));
        assert!(Arc::ptr_eq(
            dag.cache.delays.get().unwrap(),
            v2.cache.delays.get().unwrap()
        ));
        assert_cache_coherent(&v2);
        // The base is untouched.
        assert_eq!(dag.wcet(a), 5);
        assert_cache_coherent(&dag);
    }

    #[test]
    fn edge_insert_patches_dirty_cone() {
        let (dag, [s, _, _, _, j, p, t]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.insert_edge(j, p);
        let (v2, delta) = e.apply().unwrap();
        assert!(delta.structural && !delta.blocking_changed);
        assert!(v2.reachability().reaches(j, p));
        assert!(v2.reachability().reaches(s, t));
        assert_eq!(v2.edge_count(), dag.edge_count() + 1);
        assert_cache_coherent(&v2);
        assert!(!dag.reachability().reaches(j, p), "base untouched");
    }

    #[test]
    fn node_insert_grows_and_patches() {
        let (dag, [s, .., t]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        let new = e.insert_node(11, &[s], &[t]);
        let (v2, delta) = e.apply().unwrap();
        assert_eq!(delta.nodes_added, 1);
        assert_eq!(new.index(), dag.node_count());
        assert_eq!(v2.node_count(), dag.node_count() + 1);
        assert_eq!(v2.wcet(new), 11);
        assert_eq!(v2.kind(new), NodeKind::NonBlocking);
        assert_eq!(v2.volume(), dag.volume() + 11);
        assert!(v2.reachability().reaches(s, new));
        assert!(v2.reachability().reaches(new, t));
        assert_cache_coherent(&v2);
    }

    #[test]
    fn blocking_toggle_off_then_on_roundtrips() {
        let (dag, [_, f, _, _, j, ..]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.set_blocking(f, j, false);
        let (v2, delta) = e.apply().unwrap();
        assert!(delta.blocking_changed && !delta.structural);
        assert!(v2.blocking_regions().is_empty());
        assert_eq!(v2.kind(f), NodeKind::NonBlocking);
        assert_eq!(v2.delay_profile().max_delay_count(), 0);
        assert_cache_coherent(&v2);

        let mut e = v2.edit();
        e.set_blocking(f, j, true);
        let (v3, _) = e.apply().unwrap();
        assert_eq!(v3.kind(f), NodeKind::BlockingFork);
        assert_eq!(v3.blocking_join_of(f), Some(j));
        assert_eq!(
            v3.delay_profile().max_delay_count(),
            dag.delay_profile().max_delay_count()
        );
        assert_cache_coherent(&v3);
        assert_eq!(v3.content_hash(), dag.content_hash());
    }

    #[test]
    fn chained_script_applies_in_order() {
        let (dag, [s, _, a, _, _, p, t]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.set_wcet(a, 9);
        let new = e.insert_node(4, &[s], &[p]);
        e.insert_edge(new, t);
        let (v2, delta) = e.apply().unwrap();
        assert!(delta.structural && delta.wcet_changed);
        assert_eq!(v2.wcet(a), 9);
        assert!(v2.reachability().reaches(new, t));
        assert!(v2.successors(new).contains(&p));
        assert_cache_coherent(&v2);
    }

    #[test]
    fn invalid_edits_are_rejected() {
        let (dag, [s, f, a, _, j, p, t]) = base_graph();
        let ghost = NodeId::from_index(99);

        let err = |ops: &dyn Fn(&mut DagEdit<'_>)| {
            let mut e = dag.edit();
            ops(&mut e);
            e.apply().unwrap_err()
        };
        assert!(matches!(
            err(&|e| {
                e.set_wcet(ghost, 1);
            }),
            GraphError::UnknownNode(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_edge(t, s);
            }),
            GraphError::Cycle(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_edge(p, p);
            }),
            GraphError::SelfLoop(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_edge(s, p);
            }),
            GraphError::DuplicateEdge(..)
        ));
        // Region restrictions: an edge escaping the fork, intruding into
        // the join, or leaking from an inner node.
        assert!(matches!(
            err(&|e| {
                e.insert_edge(f, t);
            }),
            GraphError::ForkEscape { .. }
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_edge(s, j);
            }),
            GraphError::JoinIntrusion { .. }
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_edge(a, t);
            }),
            GraphError::RegionLeak { .. }
        ));
        // Node inserts must not dangle and must respect regions.
        assert!(matches!(
            err(&|e| {
                e.insert_node(1, &[], &[t]);
            }),
            GraphError::MultipleSources(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_node(1, &[s], &[]);
            }),
            GraphError::MultipleSinks(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_node(1, &[f], &[t]);
            }),
            GraphError::ForkEscape { .. }
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_node(1, &[s], &[a]);
            }),
            GraphError::RegionLeak { .. }
        ));
        assert!(matches!(
            err(&|e| {
                e.insert_node(1, &[t], &[s]);
            }),
            GraphError::Cycle(_)
        ));
        // Blocking toggles: overlap, unreachable join, missing pair.
        assert!(matches!(
            err(&|e| {
                e.set_blocking(f, t, true);
            }),
            GraphError::OverlappingPairs(_)
        ));
        assert!(matches!(
            err(&|e| {
                e.set_blocking(p, s, true);
            }),
            GraphError::UnreachableJoin { .. }
        ));
        assert!(matches!(
            err(&|e| {
                e.set_blocking(s, p, false);
            }),
            GraphError::NoSuchPair { .. }
        ));

        // A failed script leaves the base fully intact.
        assert_cache_coherent(&dag);
    }

    #[test]
    fn declaring_region_checks_restrictions() {
        // s -> f -> a -> j -> t with an extra edge f -> t: declaring
        // (f, j) blocking must trip restriction (ii).
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let f = b.add_node(1);
        let a = b.add_node(1);
        let j = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(f, a).unwrap();
        b.add_edge(a, j).unwrap();
        b.add_edge(j, t).unwrap();
        b.add_edge(f, t).unwrap();
        let dag = b.build().unwrap();
        let mut e = dag.edit();
        e.set_blocking(f, j, true);
        assert!(matches!(
            e.apply().unwrap_err(),
            GraphError::ForkEscape { .. }
        ));
    }

    #[test]
    fn cold_base_leaves_lazy_cells_lazy() {
        let (dag, [_, _, a, ..]) = base_graph();
        // No warm(): only the builder-seeded reachability is present.
        let mut e = dag.edit();
        e.set_wcet(a, 2);
        let (v2, _) = e.apply().unwrap();
        assert!(v2.cache.delays.get().is_none());
        assert!(v2.cache.volume.get().is_none());
        assert_cache_coherent(&v2);
    }

    #[test]
    fn node_inserts_across_a_stride_boundary_agree_with_cold_rebuild() {
        // 63 nodes: one word per row. The 64th still fits; the 65th
        // needs a second word, so every row of both closures and of the
        // delay matrix is re-laid.
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let mut tails = Vec::new();
        for _ in 0..12 {
            let (f, j) = b.fork_join(1, &[2, 3, 4], 1, true).unwrap();
            b.add_edge(s, f).unwrap();
            tails.push(j);
        }
        let lone = b.add_node(7);
        b.add_edge(s, lone).unwrap();
        let t = b.add_node(1);
        for &j in &tails {
            b.add_edge(j, t).unwrap();
        }
        b.add_edge(lone, t).unwrap();
        let mut dag = b.build().unwrap();
        assert_eq!(dag.node_count(), 63);
        warm(&dag);
        for expected in [64, 65] {
            let mut e = dag.edit();
            let new = e.insert_node(5, &[s, lone], &[t]);
            let (next, delta) = e.apply().unwrap();
            assert_eq!(next.node_count(), expected);
            assert_eq!(delta.nodes_added, 1);
            assert!(next.reachability().reaches(lone, new));
            assert_eq!(next.reachability().descendants(s).capacity(), expected);
            assert_cache_coherent(&next);
            dag = next;
        }
        assert_eq!(dag.predecessors(t).len(), 15);
    }

    #[test]
    fn wcet_edit_after_structural_edit_shares_the_topology() {
        let (dag, [s, _, a, _, _, p, t]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        let new = e.insert_node(4, &[s], &[p]);
        let (v2, delta) = e.apply().unwrap();
        assert!(delta.structural);
        assert!(!Arc::ptr_eq(&dag.topology, &v2.topology));
        // Rows keep their order and gain the new neighbour at the back.
        assert_eq!(v2.successors(s), &[dag.successors(s), &[new]].concat()[..]);
        assert_eq!(v2.predecessors(p), &[s, new]);

        let mut e = v2.edit();
        e.set_wcet(a, 40).set_wcet(new, 6);
        let (v3, delta) = e.apply().unwrap();
        assert!(delta.is_wcet_only());
        assert!(Arc::ptr_eq(&v2.topology, &v3.topology));
        assert!(Arc::ptr_eq(&v2.topology, &v3.clone_uncached().topology));
        assert_eq!(v3.wcet(new), 6);
        assert_eq!(v2.wcet(new), 4, "the shared topology carries no WCET");
        assert_cache_coherent(&v3);
        let _ = t;
    }
}
