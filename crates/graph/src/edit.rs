//! Versioned mutation of [`Dag`] graphs: a WCET patch or a rebuild.
//!
//! A `Dag` is immutable, so "editing" one means deriving a *new* version.
//! [`DagEdit::apply`] has exactly two routes, chosen by what the script
//! contains:
//!
//! * **Only [`EditOp::SetWcet`] ops** — structure untouched: the topology
//!   (CSR adjacency, topological order, region tables), the reachability
//!   closure and the delay profile are all *shared* with the base (each
//!   sits behind an `Arc`), the volume is adjusted arithmetically, and
//!   only the critical path is left for lazy `O(|V|+|E|)` recomputation.
//!   The one per-node copy is the WCET/kind table, so the allocator is
//!   called a fixed number of times whatever the graph's size.
//! * **Anything else** — a rebuild. The script is folded into the final
//!   skeleton (node WCETs; the base CSR rows, each keeping its order and
//!   gaining the inserted edges behind it, which is what pushing onto
//!   per-node lists would have produced; the base regions' pairs minus
//!   the dissolved ones plus the declared ones in op order) and handed to
//!   `Dag::assemble`, the same validation and assembly step
//!   [`DagBuilder`](crate::DagBuilder) ends in.
//!
//! A script is therefore judged by the graph it *ends at*, as a `.rtp`
//! file is: cycles, endpoint uniqueness, the paper's region restrictions
//! (i)–(iii), nesting and overlap are reported by the one validator with
//! its variants and witnesses, node kinds are derived from the final
//! pairs (a node inserted between a blocking fork and its join is a
//! `BC` child), and an edited `Dag` upholds every invariant because it
//! came through the only code that checks them. Only what a skeleton
//! cannot represent is rejected op by op: an out-of-range node index, a
//! self-loop, a duplicate edge, a node insert without predecessors or
//! successors, and dissolving a pair that is not declared.
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

use std::sync::Arc;

use crate::cache::DerivedCache;
use crate::dag::Dag;
use crate::error::GraphError;
use crate::node::NodeId;

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
    /// Append a new node wired to existing predecessors/successors. Its
    /// kind is derived like every other node's: `NB` unless the final
    /// graph places it inside a blocking region.
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

/// Which of [`DagEdit::apply`]'s two routes a script took.
#[derive(Clone, Copy, Debug)]
pub struct DagDelta {
    wcet_only: bool,
}

impl DagDelta {
    /// `true` if the script changed only WCETs: topology, node kinds, and
    /// blocking regions are identical to the base, so structural caches
    /// (reachability, delay profile, partition mappings) remain valid.
    #[must_use]
    pub fn is_wcet_only(&self) -> bool {
        self.wcet_only
    }
}

/// An edit session on a base [`Dag`], opened with [`Dag::edit`].
///
/// Ops accumulate in order and are applied atomically by
/// [`DagEdit::apply`]: either the graph the script ends at is a valid
/// task graph and a new `Dag` is returned, or the violation is reported
/// and the base graph is left untouched.
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

    /// Queues insertion of a new node between `preds` and `succs`,
    /// returning the id it will hold once applied.
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

    /// Applies the accumulated script, producing the edited graph and a
    /// [`DagDelta`] naming the route taken. The base graph is never
    /// modified; a script of [`EditOp::SetWcet`] ops alone shares its
    /// topology and its `O(|V|²/64)` derived artifacts, any other script
    /// is rebuilt and validated as the graph it ends at, the way
    /// [`DagBuilder::build`](crate::DagBuilder::build) would.
    ///
    /// # Errors
    ///
    /// Op by op, in script order: [`GraphError::UnknownNode`],
    /// [`GraphError::SelfLoop`], [`GraphError::DuplicateEdge`], a node
    /// insert with no predecessor ([`GraphError::MultipleSources`]) or no
    /// successor ([`GraphError::MultipleSinks`]), and
    /// [`GraphError::NoSuchPair`] when dissolving an undeclared pair.
    /// Then, for the graph the script ends at, everything
    /// [`DagBuilder::build`](crate::DagBuilder::build) reports, with the
    /// same variants and witnesses; [`GraphError::VolumeOverflow`] on
    /// either route.
    pub fn apply(self) -> Result<(Dag, DagDelta), GraphError> {
        let wcet_only = self
            .ops
            .iter()
            .all(|op| matches!(op, EditOp::SetWcet { .. }));
        let dag = if wcet_only {
            self.retimed()?
        } else {
            self.rebuilt()?
        };
        Ok((dag, DagDelta { wcet_only }))
    }

    /// The base under a script of `SetWcet` ops: one copy of the node
    /// table, everything structural shared.
    fn retimed(self) -> Result<Dag, GraphError> {
        let base = self.base;
        let mut nodes = base.nodes.clone();
        let mut volume = i128::from(base.volume());
        for op in &self.ops {
            if let EditOp::SetWcet { node, wcet } = *op {
                let data = nodes
                    .get_mut(node.index())
                    .ok_or(GraphError::UnknownNode(node))?;
                volume += i128::from(wcet) - i128::from(data.wcet);
                data.wcet = wcet;
            }
        }
        let volume = u64::try_from(volume).map_err(|_| GraphError::VolumeOverflow)?;

        // WCET-independent cells are carried when filled, left lazy
        // otherwise; the critical path and the content hash are not.
        let carried = &base.cache;
        let cache = DerivedCache {
            volume: volume.into(),
            reach: carried.reach.clone(),
            delays: carried.delays.clone(),
            blocking_forks: carried.blocking_forks.clone(),
            bf_antichain: carried.bf_antichain.clone(),
            ..DerivedCache::default()
        };
        Ok(Dag {
            nodes,
            topology: Arc::clone(&base.topology),
            cache,
        })
    }

    /// The graph the script ends at, through `Dag::assemble`.
    fn rebuilt(self) -> Result<Dag, GraphError> {
        let t = &*self.base.topology;
        let mut wcets: Vec<u64> = self.base.nodes.iter().map(|node| node.wcet).collect();
        let mut added: Vec<(NodeId, NodeId)> = Vec::new();
        let mut pairs: Vec<(NodeId, NodeId)> =
            t.regions.iter().map(|r| (r.fork(), r.join())).collect();

        let known = |v: NodeId, n: usize| {
            (v.index() < n)
                .then_some(())
                .ok_or(GraphError::UnknownNode(v))
        };
        // An edge the skeleton would hold twice: in `from`'s base row, or
        // inserted by an earlier op.
        let fresh = |added: &[(NodeId, NodeId)], from: NodeId, to: NodeId| {
            let base = &t.succ;
            let held = from.index() < base.node_count() && base.row(from.index()).contains(&to);
            (!held && !added.contains(&(from, to)))
                .then_some(())
                .ok_or(GraphError::DuplicateEdge(from, to))
        };

        for op in self.ops {
            let n = wcets.len();
            match op {
                EditOp::SetWcet { node, wcet } => {
                    known(node, n)?;
                    wcets[node.index()] = wcet;
                }
                EditOp::InsertEdge { from, to } => {
                    known(from, n)?;
                    known(to, n)?;
                    if from == to {
                        return Err(GraphError::SelfLoop(from));
                    }
                    fresh(&added, from, to)?;
                    added.push((from, to));
                }
                EditOp::InsertNode { wcet, preds, succs } => {
                    let new = NodeId::from_index(n);
                    for &v in preds.iter().chain(&succs) {
                        known(v, n)?;
                    }
                    if preds.is_empty() {
                        return Err(GraphError::MultipleSources(vec![new]));
                    }
                    if succs.is_empty() {
                        return Err(GraphError::MultipleSinks(vec![new]));
                    }
                    wcets.push(wcet);
                    let edges = preds
                        .iter()
                        .map(|&p| (p, new))
                        .chain(succs.iter().map(|&s| (new, s)));
                    for (from, to) in edges {
                        fresh(&added, from, to)?;
                        added.push((from, to));
                    }
                }
                EditOp::SetBlocking { fork, join, on } => {
                    known(fork, n)?;
                    known(join, n)?;
                    if fork == join {
                        return Err(GraphError::SelfLoop(fork));
                    }
                    if on {
                        pairs.push((fork, join));
                    } else {
                        let declared = pairs
                            .iter()
                            .position(|&pair| pair == (fork, join))
                            .ok_or(GraphError::NoSuchPair { fork, join })?;
                        pairs.remove(declared);
                    }
                }
            }
        }

        let n = wcets.len();
        let succ = t.succ.extended(n, added.iter().copied());
        let pred = t
            .pred
            .extended(n, added.iter().map(|&(from, to)| (to, from)));
        Dag::assemble(&wcets, succ, pred, &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::node::NodeKind;

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

    /// The carried or seeded cache must agree with a cold recompute on
    /// every derived artifact.
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

    /// Forces every cache cell, so a WCET edit has filled cells to carry
    /// and a rebuild a fully derived base to leave alone.
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
    fn edge_insert_updates_reachability_and_delays() {
        let (dag, [s, _, _, _, j, p, t]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.insert_edge(j, p);
        let (v2, delta) = e.apply().unwrap();
        assert!(!delta.is_wcet_only());
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
        assert!(!delta.is_wcet_only());
        assert_eq!(new.index(), dag.node_count());
        assert_eq!(v2.node_count(), dag.node_count() + 1);
        assert_eq!(v2.wcet(new), 11);
        assert_eq!(v2.kind(new), NodeKind::NonBlocking);
        assert_eq!(v2.volume(), dag.volume() + 11);
        assert!(v2.reachability().reaches(s, new));
        assert!(v2.reachability().reaches(new, t));
        assert_cache_coherent(&v2);
        assert_cache_coherent(&dag);
    }

    #[test]
    fn blocking_toggle_off_then_on_roundtrips() {
        let (dag, [_, f, _, _, j, ..]) = base_graph();
        warm(&dag);
        let mut e = dag.edit();
        e.set_blocking(f, j, false);
        let (v2, delta) = e.apply().unwrap();
        assert!(!delta.is_wcet_only());
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
        assert!(!delta.is_wcet_only());
        assert_eq!(v2.wcet(a), 9);
        assert!(v2.reachability().reaches(new, t));
        assert!(v2.successors(new).contains(&p));
        assert_cache_coherent(&v2);
    }

    #[test]
    fn invalid_edits_are_rejected() {
        let (dag, [s, f, a, _, j, p, t]) = base_graph();
        let ghost = NodeId::from_index(99);
        let new = NodeId::from_index(dag.node_count());
        let edge = |from, to| EditOp::InsertEdge { from, to };
        let node = |preds: &[NodeId], succs: &[NodeId]| EditOp::InsertNode {
            wcet: 1,
            preds: preds.to_vec(),
            succs: succs.to_vec(),
        };
        let block = |fork, join, on| EditOp::SetBlocking { fork, join, on };
        let refusal = |ops: &[EditOp]| {
            let mut e = dag.edit();
            for op in ops {
                e.push(op.clone());
            }
            e.apply().unwrap_err()
        };
        let cases = [
            // What no skeleton can hold is rejected op by op.
            (
                vec![EditOp::SetWcet {
                    node: ghost,
                    wcet: 1,
                }],
                GraphError::UnknownNode(ghost),
            ),
            (vec![edge(s, ghost)], GraphError::UnknownNode(ghost)),
            (vec![edge(p, p)], GraphError::SelfLoop(p)),
            (vec![edge(s, p)], GraphError::DuplicateEdge(s, p)),
            (
                vec![edge(j, p), edge(j, p)],
                GraphError::DuplicateEdge(j, p),
            ),
            (vec![node(&[s, s], &[t])], GraphError::DuplicateEdge(s, new)),
            (
                vec![node(&[], &[t])],
                GraphError::MultipleSources(vec![new]),
            ),
            (vec![node(&[s], &[])], GraphError::MultipleSinks(vec![new])),
            (
                vec![block(s, p, false)],
                GraphError::NoSuchPair { fork: s, join: p },
            ),
            // Everything else is the one validator's verdict on the final
            // graph: a cycle is witnessed by its lowest-numbered node, ...
            (vec![edge(t, s)], GraphError::Cycle(s)),
            (vec![node(&[t], &[p])], GraphError::Cycle(p)),
            // ... a declared pair by overlap or an unreachable join, ...
            (vec![block(f, t, true)], GraphError::OverlappingPairs(f)),
            (
                vec![block(p, s, true)],
                GraphError::UnreachableJoin { fork: p, join: s },
            ),
        ];
        for (ops, want) in cases {
            assert_eq!(refusal(&ops), want, "{ops:?}");
        }
        // ... and an edge escaping the fork, intruding into the join or
        // leaking from an inner node by the region it breaks.
        use GraphError::{ForkEscape, JoinIntrusion, RegionLeak};
        assert!(matches!(refusal(&[edge(f, t)]),
            ForkEscape { fork, outside } if (fork, outside) == (f, t)));
        assert!(matches!(refusal(&[node(&[f], &[t])]),
            ForkEscape { fork, outside } if (fork, outside) == (f, new)));
        assert!(matches!(refusal(&[edge(s, j)]),
            JoinIntrusion { join, outside } if (join, outside) == (j, s)));
        assert!(matches!(refusal(&[edge(a, t)]),
            RegionLeak { fork, inner, outside } if (fork, inner, outside) == (f, a, t)));
        assert!(matches!(refusal(&[node(&[s], &[a])]),
            RegionLeak { fork, inner, outside } if (fork, inner, outside) == (f, a, new)));
        // A failed script leaves the base fully intact.
        assert_cache_coherent(&dag);
    }

    #[test]
    fn a_script_is_judged_by_the_graph_it_ends_at() {
        let (dag, [s, f, a, c, j, p, t]) = base_graph();
        // An edge out of the fork is no escape once the pair is dissolved,
        // whichever op comes first.
        for fork_edge_first in [true, false] {
            let mut e = dag.edit();
            if fork_edge_first {
                e.insert_edge(f, t).set_blocking(f, j, false);
            } else {
                e.set_blocking(f, j, false).insert_edge(f, t);
            }
            let (v2, _) = e.apply().unwrap();
            assert!(v2.blocking_regions().is_empty());
            assert_eq!(v2.successors(f), &[a, c, t]);
            assert_cache_coherent(&v2);
        }
        // A pair may be declared before the edge that makes its fork
        // reach its join.
        let mut e = dag.edit();
        let q = e.insert_node(2, &[s], &[t]);
        e.set_blocking(p, q, true).insert_edge(p, q);
        // (p, q) is a region now, and p's old edge to t leaves it.
        assert!(matches!(e.apply().unwrap_err(),
            GraphError::ForkEscape { fork, outside } if (fork, outside) == (p, t)));
        // A node between a blocking fork and its join is one more child.
        let mut e = dag.edit();
        let child = e.insert_node(6, &[f], &[j]);
        let between = e.insert_node(1, &[a], &[c]);
        let (v2, _) = e.apply().unwrap();
        assert_eq!(v2.kind(child), NodeKind::BlockingChild);
        assert_eq!(v2.kind(between), NodeKind::BlockingChild);
        assert_eq!(v2.waiting_fork_of(child), Some(f));
        assert_eq!(v2.blocking_regions()[0].inner(), &[a, c, child, between]);
        assert_cache_coherent(&v2);
    }

    #[test]
    fn declaring_region_checks_restrictions() {
        // s -> f -> a -> j -> t with an extra edge f -> t: declaring
        // (f, j) blocking must trip restriction (ii).
        let mut b = DagBuilder::new();
        let [s, f, a, j, t] = [1; 5].map(|wcet| b.add_node(wcet));
        b.add_chain(&[s, f, a, j, t]).unwrap();
        b.add_edge(f, t).unwrap();
        let dag = b.build().unwrap();
        let mut e = dag.edit();
        e.set_blocking(f, j, true);
        assert!(matches!(e.apply().unwrap_err(),
            GraphError::ForkEscape { fork, outside } if (fork, outside) == (f, t)));
    }

    #[test]
    fn a_wcet_sum_past_u64_is_refused_on_both_routes() {
        let (dag, [s, _, a, c, .., t]) = base_graph();
        // The fast path patches the sum arithmetically ...
        let mut e = dag.edit();
        e.set_wcet(a, u64::MAX).set_wcet(c, u64::MAX);
        assert_eq!(e.apply().unwrap_err(), GraphError::VolumeOverflow);
        // ... and only the final sum counts.
        let mut e = dag.edit();
        e.set_wcet(a, u64::MAX).set_wcet(c, u64::MAX).set_wcet(a, 1);
        assert_eq!(e.apply().unwrap_err(), GraphError::VolumeOverflow);
        let mut e = dag.edit();
        e.set_wcet(a, u64::MAX).set_wcet(a, 1);
        let (v2, _) = e.apply().unwrap();
        assert_eq!(v2.volume(), dag.volume() - 4);
        // A rebuild sums the whole node table.
        let mut e = dag.edit();
        e.set_wcet(a, u64::MAX);
        e.insert_node(1, &[s], &[t]);
        assert_eq!(e.apply().unwrap_err(), GraphError::VolumeOverflow);
        // An uncached base has no seed; its volume is summed on demand.
        let cold = dag.clone_uncached();
        assert!(cold.cache.volume.get().is_none());
        let mut e = cold.edit();
        e.set_wcet(a, u64::MAX - 10);
        assert_eq!(e.apply().unwrap_err(), GraphError::VolumeOverflow);
    }

    #[test]
    fn cold_base_leaves_lazy_cells_lazy() {
        let (dag, [_, _, a, ..]) = base_graph();
        // No warm(): only the two assembly seeds are present.
        let mut e = dag.edit();
        e.set_wcet(a, 2);
        let (v2, _) = e.apply().unwrap();
        assert!(v2.cache.delays.get().is_none());
        assert!(v2.cache.bf_antichain.get().is_none());
        assert_eq!(v2.cache.volume.get(), Some(&(dag.volume() - 3)));
        assert_cache_coherent(&v2);
    }

    #[test]
    fn node_inserts_across_a_stride_boundary_agree_with_cold_rebuild() {
        // 63 nodes: one word per row. The 64th still fits; the 65th
        // needs a second word in every row of both closures and of the
        // delay matrix.
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
        for expected in [64, 65] {
            let mut e = dag.edit();
            let new = e.insert_node(5, &[s, lone], &[t]);
            let (next, _) = e.apply().unwrap();
            assert_eq!(next.node_count(), expected);
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
        let mut e = dag.edit();
        let new = e.insert_node(4, &[s], &[p]);
        let (v2, delta) = e.apply().unwrap();
        assert!(!delta.is_wcet_only());
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
