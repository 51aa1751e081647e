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

use crate::csr::{region_in, region_slot, IdBlock};
use crate::error::GraphError;
use crate::node::NodeId;
use crate::reach::Reachability;
use crate::regions::Region;

/// The blocking regions a graph's declared pairs delimit, in
/// declaration order; every node of a region (fork, join or inner) gets
/// its index among them in its region slot of `ids`. Checks every
/// restriction a pair is under, on the graph's rows and its closure.
pub(crate) fn regions(
    ids: &mut IdBlock,
    reach: &Reachability,
    pairs: &[(NodeId, NodeId)],
) -> Result<Vec<Region>, GraphError> {
    let (rows, _, region_of) = ids.parts_mut();
    let mut regions: Vec<Region> = Vec::with_capacity(pairs.len());

    for &(f, j) in pairs {
        if !reach.reaches(f, j) {
            return Err(GraphError::UnreachableJoin { fork: f, join: j });
        }
        // A node may delimit one pair only.
        for v in [f, j] {
            if let Some(r) = region_in(region_of[v.index()]).map(|r| &regions[r as usize]) {
                if r.fork() == v || r.join() == v {
                    return Err(GraphError::OverlappingPairs(v));
                }
            }
        }

        // Inner nodes: strictly between the fork and the join, read off
        // the two closure rows in increasing order.
        let between = reach.descendants(f).intersection(reach.ancestors(j));
        let mut inner: Vec<NodeId> = Vec::with_capacity(between.clone().count());
        inner.extend(between.map(NodeId::from_index));

        let slot = region_slot(regions.len());
        for v in std::iter::once(f)
            .chain(std::iter::once(j))
            .chain(inner.iter().copied())
        {
            if let Some(prev) = region_in(std::mem::replace(&mut region_of[v.index()], slot)) {
                return Err(GraphError::NestedRegions {
                    outer_fork: regions[prev as usize].fork(),
                    inner_fork: f,
                });
            }
        }
        // Exactly this region's nodes now hold `slot`.
        let outside = |v: NodeId| region_of[v.index()] != slot;

        // Restriction (ii): every edge out of the fork stays in the region.
        if let Some(&s) = rows.succ(f.index()).iter().find(|&&s| outside(s)) {
            return Err(GraphError::ForkEscape {
                fork: f,
                outside: s,
            });
        }
        // Restriction (iii): every edge into the join starts in the region.
        if let Some(&p) = rows.pred(j.index()).iter().find(|&&p| outside(p)) {
            return Err(GraphError::JoinIntrusion {
                join: j,
                outside: p,
            });
        }
        // Restriction (i): inner nodes are internally connected only.
        for &x in &inner {
            let mut row = rows.succ(x.index()).iter().chain(rows.pred(x.index()));
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
    Ok(regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::dag::Dag;

    /// `Dag::from_lists` over unit WCETs, with nodes named by index.
    fn lists(n: usize, edges: &[(u32, u32)], pairs: &[(u32, u32)]) -> Result<Dag, GraphError> {
        let ids = |l: &[(u32, u32)]| -> Vec<_> {
            l.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
        };
        Dag::from_lists(&vec![1; n], &ids(edges), &ids(pairs))
    }

    /// s0 -> f1 -> a2 -> j3 -> t4 with `(f1, j3)` blocking beside
    /// s0 -> u5 -> t4, plus `extra`.
    fn region_with(extra: &[(u32, u32)]) -> Result<Dag, GraphError> {
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)];
        edges.extend(extra);
        lists(6, &edges, &[(1, 3)])
    }

    #[test]
    fn fork_escape_detected() {
        // f1 -> t4 makes t4 a descendant of f1 but not an ancestor of j3,
        // so it is outside the region.
        let (fork, outside) = (NodeId(1), NodeId(4));
        let err = region_with(&[(1, 4)]).unwrap_err();
        assert_eq!(err, GraphError::ForkEscape { fork, outside });
    }

    #[test]
    fn join_intrusion_detected() {
        let (join, outside) = (NodeId(3), NodeId(0));
        let err = region_with(&[(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::JoinIntrusion { join, outside });
    }

    #[test]
    fn region_leak_detected() {
        // Inner node a2 has an edge to u5 and one from s0, both outside
        // succ*(f1) ∩ pred*(j3). The successor row is read before the
        // predecessor row, so u5, not s0, is the witness.
        let (fork, inner, outside) = (NodeId(1), NodeId(2), NodeId(5));
        let err = region_with(&[(2, 5), (0, 2)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::RegionLeak {
                fork,
                inner,
                outside
            }
        );
    }

    #[test]
    fn nested_regions_rejected() {
        // Outer region f1..j5 contains inner region f2..j4.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)];
        let err = lists(7, &edges, &[(1, 5), (2, 4)]).unwrap_err();
        let (outer_fork, inner_fork) = (NodeId(1), NodeId(2));
        assert_eq!(
            err,
            GraphError::NestedRegions {
                outer_fork,
                inner_fork
            }
        );
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
        // a1 and c2 are parallel, so a1 does not reach c2.
        let err = lists(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], &[(1, 2)]).unwrap_err();
        let (fork, join) = (NodeId(1), NodeId(2));
        assert_eq!(err, GraphError::UnreachableJoin { fork, join });
    }

    #[test]
    fn node_in_two_pairs_rejected() {
        // f0 -> a1 -> j2 -> t3 with (f0, j2) declared, then a second pair
        // that reuses its fork or its join: the reused end is the
        // witness, before any nesting is looked at.
        for (second, reused) in [((0, 3), 0), ((1, 2), 2)] {
            let err = lists(4, &[(0, 1), (1, 2), (2, 3)], &[(0, 2), second]).unwrap_err();
            assert_eq!(err, GraphError::OverlappingPairs(NodeId(reused)));
        }
    }

    #[test]
    fn degenerate_region_fork_to_join_only() {
        let dag = lists(4, &[(0, 1), (1, 2), (2, 3)], &[(1, 2)]).unwrap();
        assert!(dag.blocking_regions()[0].inner().is_empty());
        dag.validate_model().unwrap();
    }
}
