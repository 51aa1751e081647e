//! The critical path `λᵢ*` and its length.

use crate::dag::Dag;
use crate::node::NodeId;

/// The critical path `λᵢ*` of a DAG: the source-to-sink path with maximum
/// total WCET, together with its length `len(λᵢ*)`.
///
/// # Examples
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let (f, j) = b.fork_join(1, &[5, 9, 2], 1, false)?;
/// let dag = b.build()?;
/// let cp = dag.critical_path();
/// assert_eq!(cp.length, 11); // 1 + 9 + 1
/// assert_eq!(cp.nodes.first(), Some(&f));
/// assert_eq!(cp.nodes.last(), Some(&j));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Sum of the WCETs of the nodes on the path.
    pub length: u64,
    /// The nodes of the path, from source to sink.
    pub nodes: Vec<NodeId>,
}

impl CriticalPath {
    /// One pass over `dag` in topological order: each node's longest
    /// path ending there (its WCET included) and the predecessor it
    /// runs through, the one with the larger distance and, of equal
    /// ones, the smaller id, so the path is deterministic. The path is
    /// read back from the sink; the per-node table is dropped.
    pub(crate) fn new(dag: &Dag) -> Self {
        let mut best: Vec<(u64, Option<NodeId>)> = vec![(0, None); dag.node_count()];
        for v in dag.topological_order().iter() {
            let mut pick: Option<(u64, NodeId)> = None;
            for &p in dag.predecessors(v) {
                let d = best[p.index()].0;
                if pick.is_none_or(|(bd, bp)| d > bd || (d == bd && p < bp)) {
                    pick = Some((d, p));
                }
            }
            best[v.index()] = (
                pick.map_or(0, |(d, _)| d) + dag.wcet(v),
                pick.map(|(_, p)| p),
            );
        }
        let sink = dag.sink();
        let hops = std::iter::successors(Some(sink), |v| best[v.index()].1);
        let mut nodes = Vec::with_capacity(hops.clone().count());
        nodes.extend(hops);
        nodes.reverse();
        CriticalPath {
            length: best[sink.index()].0,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;

    #[test]
    fn critical_path_of_single_node() {
        let mut b = DagBuilder::new();
        let a = b.add_node(7);
        let dag = b.build().unwrap();
        let cp = dag.critical_path();
        assert_eq!(cp.length, 7);
        assert_eq!(cp.nodes, vec![a]);
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let light = b.add_node(2);
        let heavy = b.add_node(50);
        let t = b.add_node(1);
        b.add_edge(s, light).unwrap();
        b.add_edge(s, heavy).unwrap();
        b.add_edge(light, t).unwrap();
        b.add_edge(heavy, t).unwrap();
        let dag = b.build().unwrap();
        let cp = dag.critical_path();
        assert_eq!(cp.length, 52);
        assert_eq!(cp.nodes, vec![s, heavy, t]);
    }

    #[test]
    fn critical_path_never_exceeds_volume() {
        let mut b = DagBuilder::new();
        let (_, _) = b.fork_join(3, &[4, 5, 6], 7, false).unwrap();
        let dag = b.build().unwrap();
        assert!(dag.critical_path_length() <= dag.volume());
        assert_eq!(dag.critical_path_length(), 3 + 6 + 7);
        assert_eq!(dag.volume(), 25);
    }

    #[test]
    fn path_is_connected_by_real_edges() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let (f, j) = b.fork_join(2, &[8, 3], 2, false).unwrap();
        let t = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(j, t).unwrap();
        let dag = b.build().unwrap();
        let cp = dag.critical_path();
        for w in cp.nodes.windows(2) {
            assert!(
                dag.successors(w[0]).contains(&w[1]),
                "critical path hop {} -> {} is not an edge",
                w[0],
                w[1]
            );
        }
        assert_eq!(cp.nodes[0], dag.source());
        assert_eq!(*cp.nodes.last().unwrap(), dag.sink());
        assert_eq!(
            cp.length,
            cp.nodes.iter().map(|&v| dag.wcet(v)).sum::<u64>()
        );
    }
}
