//! The blocking-region restrictions of the task model.
//!
//! Section 2 of the paper asks that the graph be a DAG with a unique
//! source and a unique sink (checked by `Dag::assemble` in the passes
//! that order and close it) and that
//!
//! * each declared blocking pair `(f, j)` delimits a sub-graph
//!   `V' = succ*(f) ∩ pred*(j) ∪ {f, j}` such that
//!   * **(i)** inner nodes connect only to nodes of `V'`,
//!   * **(ii)** every edge leaving `f` stays in `V'`,
//!   * **(iii)** every edge entering `j` starts in `V'`,
//! * blocking regions neither nest nor overlap,
//!
//! which [`regions`] checks on the closure.

use crate::csr::Csr;
use crate::dag::Dag;
use crate::error::GraphError;
use crate::node::{NodeId, NodeKind};
use crate::reach::Reachability;
use crate::regions::Region;

/// The kind of node `v` given the region it belongs to, if any.
pub(crate) fn kind_in(regions: &[Region], region: Option<u32>, v: usize) -> NodeKind {
    match region.map(|r| &regions[r as usize]) {
        None => NodeKind::NonBlocking,
        Some(r) if r.fork().index() == v => NodeKind::BlockingFork,
        Some(r) if r.join().index() == v => NodeKind::BlockingJoin,
        Some(_) => NodeKind::BlockingChild,
    }
}

/// The blocking regions a graph's declared pairs delimit, in
/// declaration order, and for every node of a region (fork, join or
/// inner) its index among them: node kinds are read off the two
/// ([`kind_in`]). Checks every restriction a pair is under, on the
/// graph's rows and its closure.
pub(crate) fn regions(
    succ: &Csr,
    pred: &Csr,
    reach: &Reachability,
    pairs: &[(NodeId, NodeId)],
) -> Result<(Vec<Option<u32>>, Vec<Region>), GraphError> {
    let mut region_of: Vec<Option<u32>> = vec![None; succ.node_count()];
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
    Ok((region_of, regions))
}

/// Re-validates an assembled [`Dag`] (used by [`Dag::validate_model`]):
/// its WCETs, rows and pairs go through `Dag::assemble` again.
pub(crate) fn validate(dag: &Dag) -> Result<(), GraphError> {
    let t = &*dag.topology;
    let wcets: Vec<u64> = dag.nodes.iter().map(|node| node.wcet).collect();
    let pairs: Vec<(NodeId, NodeId)> = t.regions.iter().map(|r| (r.fork(), r.join())).collect();
    let again = Dag::assemble(&wcets, t.succ.clone(), t.pred.clone(), &pairs)?;
    debug_assert_eq!(again.source(), dag.source());
    debug_assert_eq!(again.sink(), dag.sink());
    debug_assert!(dag.node_ids().all(|v| again.kind(v) == dag.kind(v)));
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
