//! Structural analysis and validation of the task-model restrictions.
//!
//! The checks implement Section 2 of the paper:
//!
//! * the graph is a DAG with a unique source and a unique sink;
//! * each declared blocking pair `(f, j)` delimits a sub-graph
//!   `V' = succ*(f) ∩ pred*(j) ∪ {f, j}` such that
//!   * **(i)** inner nodes connect only to nodes of `V'`,
//!   * **(ii)** every edge leaving `f` stays in `V'`,
//!   * **(iii)** every edge entering `j` starts in `V'`,
//! * blocking regions neither nest nor overlap.

use crate::csr::Csr;
use crate::dag::Dag;
use crate::error::GraphError;
use crate::node::{NodeId, NodeKind};
use crate::reach::Reachability;
use crate::regions::Region;
use crate::topo::TopologicalOrder;

/// The derived structure of a node/edge/pair skeleton: everything
/// `Dag::assemble` needs to finish a [`Dag`], or the validator needs to
/// re-check one.
pub(crate) struct Analysis {
    pub topo: TopologicalOrder,
    pub source: NodeId,
    pub sink: NodeId,
    pub regions: Vec<Region>,
    /// For every node of a region (fork, join or inner): its index in
    /// `regions`. Node kinds are read off it ([`Analysis::kind`]).
    pub region_of: Vec<Option<u32>>,
    /// The transitive closure computed during region validation; it
    /// seeds the finished graph's derived-analysis cache so it is never
    /// recomputed.
    pub reach: Reachability,
}

impl Analysis {
    /// The kind of node `v`: what its place in its region makes it, or
    /// `NB` outside every region.
    pub(crate) fn kind(&self, v: usize) -> NodeKind {
        kind_in(&self.regions, self.region_of[v], v)
    }
}

/// The kind of node `v` given the region it belongs to, if any.
pub(crate) fn kind_in(regions: &[Region], region: Option<u32>, v: usize) -> NodeKind {
    match region.map(|r| &regions[r as usize]) {
        None => NodeKind::NonBlocking,
        Some(r) if r.fork().index() == v => NodeKind::BlockingFork,
        Some(r) if r.join().index() == v => NodeKind::BlockingJoin,
        Some(_) => NodeKind::BlockingChild,
    }
}

/// Analyzes a raw skeleton, deriving blocking regions (and through them
/// node kinds) and checking every model restriction.
pub(crate) fn analyze(
    succ: &Csr,
    pred: &Csr,
    pairs: &[(NodeId, NodeId)],
) -> Result<Analysis, GraphError> {
    let n = succ.node_count();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let topo = TopologicalOrder::compute(succ)?;
    let source = unique_endpoint(pred).map_err(GraphError::MultipleSources)?;
    let sink = unique_endpoint(succ).map_err(GraphError::MultipleSinks)?;

    let reach = Reachability::from_parts(succ, pred, &topo);
    let mut region_of: Vec<Option<u32>> = vec![None; n];
    let mut regions: Vec<Region> = Vec::with_capacity(pairs.len());

    for &(f, j) in pairs {
        if !reach.reaches(f, j) {
            return Err(GraphError::UnreachableJoin { fork: f, join: j });
        }
        // A node may delimit one pair only.
        for v in [f, j] {
            if matches!(
                kind_in(&regions, region_of[v.index()], v.index()),
                NodeKind::BlockingFork | NodeKind::BlockingJoin
            ) {
                return Err(GraphError::OverlappingPairs(v));
            }
        }

        // Inner nodes: strictly between the fork and the join, read off
        // the two closure rows in increasing order.
        let between = reach.descendants(f).intersection(reach.ancestors(j));
        let mut inner: Vec<NodeId> = Vec::with_capacity(between.clone().count());
        inner.extend(between.map(NodeId::from_index));

        let region_idx = u32::try_from(regions.len()).expect("too many regions");
        for v in std::iter::once(f)
            .chain(std::iter::once(j))
            .chain(inner.iter().copied())
        {
            if let Some(prev) = region_of[v.index()] {
                return Err(GraphError::NestedRegions {
                    outer_fork: regions[prev as usize].fork(),
                    inner_fork: f,
                });
            }
            region_of[v.index()] = Some(region_idx);
        }
        // Exactly this region's nodes now map to `region_idx`.
        let outside = |v: NodeId| region_of[v.index()] != Some(region_idx);

        // Restriction (ii): every edge out of the fork stays in the region.
        if let Some(&s) = succ.row(f.index()).iter().find(|&&s| outside(s)) {
            return Err(GraphError::ForkEscape {
                fork: f,
                outside: s,
            });
        }
        // Restriction (iii): every edge into the join starts in the region.
        if let Some(&p) = pred.row(j.index()).iter().find(|&&p| outside(p)) {
            return Err(GraphError::JoinIntrusion {
                join: j,
                outside: p,
            });
        }
        // Restriction (i): inner nodes are internally connected only.
        for &x in &inner {
            let mut row = succ.row(x.index()).iter().chain(pred.row(x.index()));
            if let Some(&nbr) = row.find(|&&nbr| outside(nbr)) {
                return Err(GraphError::RegionLeak {
                    fork: f,
                    inner: x,
                    outside: nbr,
                });
            }
        }
        regions.push(Region::new(f, j, inner));
    }

    Ok(Analysis {
        topo,
        source,
        sink,
        regions,
        region_of,
        reach,
    })
}

/// The one node with an empty row in `adj` (the source under the
/// predecessor rows, the sink under the successor rows).
///
/// # Errors
///
/// All such nodes, in id order, when there is not exactly one.
fn unique_endpoint(adj: &Csr) -> Result<NodeId, Vec<NodeId>> {
    let mut ends = (0..adj.node_count())
        .filter(|&v| adj.row(v).is_empty())
        .map(NodeId::from_index);
    match (ends.next(), ends.next()) {
        (Some(only), None) => Ok(only),
        (first, second) => Err(first.into_iter().chain(second).chain(ends).collect()),
    }
}

/// Re-validates an assembled [`Dag`] (used by [`Dag::validate_model`]).
pub(crate) fn validate(dag: &Dag) -> Result<(), GraphError> {
    let pairs: Vec<(NodeId, NodeId)> = dag
        .blocking_regions()
        .iter()
        .map(|r| (r.fork(), r.join()))
        .collect();
    let analysis = analyze(&dag.topology.succ, &dag.topology.pred, &pairs)?;
    debug_assert_eq!(analysis.source, dag.source());
    debug_assert_eq!(analysis.sink, dag.sink());
    debug_assert!(dag
        .node_ids()
        .all(|v| analysis.kind(v.index()) == dag.kind(v)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    #[test]
    fn fork_escape_detected() {
        // f forks {a}, joins at j, but f also has an edge escaping to t.
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
        b.add_edge(f, t).unwrap(); // escapes the region
        b.blocking_pair(f, j).unwrap();
        // The escaping edge makes t a descendant of f but not an ancestor
        // of j, so it is outside the region.
        assert!(matches!(b.build(), Err(GraphError::ForkEscape { .. })));
    }

    #[test]
    fn join_intrusion_detected() {
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
        b.add_edge(s, j).unwrap(); // intrudes from outside
        b.blocking_pair(f, j).unwrap();
        assert!(matches!(b.build(), Err(GraphError::JoinIntrusion { .. })));
    }

    #[test]
    fn region_leak_detected() {
        // Inner node a has an extra edge to external node t.
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let f = b.add_node(1);
        let a = b.add_node(1);
        let j = b.add_node(1);
        let t = b.add_node(1);
        let u = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(f, a).unwrap();
        b.add_edge(a, j).unwrap();
        b.add_edge(j, t).unwrap();
        b.add_edge(s, u).unwrap();
        b.add_edge(a, u).unwrap(); // leak: a is inner, u external
        b.add_edge(u, t).unwrap();
        b.blocking_pair(f, j).unwrap();
        let err = b.build().unwrap_err();
        // The leaked edge also makes u a descendant of f; u is not an
        // ancestor of j, so the leak manifests as a fork-region violation
        // (a's successor u is outside succ*(f) ∩ pred*(j)).
        assert!(
            matches!(err, GraphError::RegionLeak { .. }),
            "expected RegionLeak, got {err:?}"
        );
    }

    #[test]
    fn nested_regions_rejected() {
        // Outer region f1..j1 contains inner region f2..j2.
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let f1 = b.add_node(1);
        let f2 = b.add_node(1);
        let a = b.add_node(1);
        let j2 = b.add_node(1);
        let j1 = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(s, f1).unwrap();
        b.add_edge(f1, f2).unwrap();
        b.add_edge(f2, a).unwrap();
        b.add_edge(a, j2).unwrap();
        b.add_edge(j2, j1).unwrap();
        b.add_edge(j1, t).unwrap();
        b.blocking_pair(f1, j1).unwrap();
        b.blocking_pair(f2, j2).unwrap();
        assert!(matches!(b.build(), Err(GraphError::NestedRegions { .. })));
    }

    #[test]
    fn sibling_regions_accepted() {
        // Two disjoint regions in parallel branches are fine.
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let (f1, j1) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        let (f2, j2) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        let t = b.add_node(1);
        b.add_edge(s, f1).unwrap();
        b.add_edge(s, f2).unwrap();
        b.add_edge(j1, t).unwrap();
        b.add_edge(j2, t).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.blocking_regions().len(), 2);
        dag.validate_model().unwrap();
    }

    #[test]
    fn unreachable_join_rejected() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let a = b.add_node(1);
        let c = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(s, a).unwrap();
        b.add_edge(s, c).unwrap();
        b.add_edge(a, t).unwrap();
        b.add_edge(c, t).unwrap();
        b.blocking_pair(a, c).unwrap(); // a does not reach c
        assert!(matches!(b.build(), Err(GraphError::UnreachableJoin { .. })));
    }

    #[test]
    fn node_in_two_pairs_rejected() {
        let mut b = DagBuilder::new();
        let f = b.add_node(1);
        let a = b.add_node(1);
        let j = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(f, a).unwrap();
        b.add_edge(a, j).unwrap();
        b.add_edge(j, t).unwrap();
        b.blocking_pair(f, j).unwrap();
        b.blocking_pair(f, t).unwrap();
        assert!(matches!(b.build(), Err(GraphError::OverlappingPairs(_))));
    }

    #[test]
    fn degenerate_region_fork_to_join_only() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let f = b.add_node(1);
        let j = b.add_node(1);
        let t = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(f, j).unwrap();
        b.add_edge(j, t).unwrap();
        b.blocking_pair(f, j).unwrap();
        let dag = b.build().unwrap();
        assert!(dag.blocking_regions()[0].inner().is_empty());
        dag.validate_model().unwrap();
    }
}
