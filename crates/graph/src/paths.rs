//! The length `len(λᵢ*)` of the critical path.

use crate::dag::Dag;

/// `len(λᵢ*)`: one pass over `dag` in topological order, each node's
/// longest path ending there (its WCET included) the longest of its
/// predecessors' plus its own WCET; the sink's is the answer. No sum
/// overflows, because assembly checked the volume, which bounds them all.
pub(crate) fn critical_path_length(dag: &Dag) -> u64 {
    let mut dist = vec![0u64; dag.node_count()];
    for v in dag.topological_order().iter() {
        let longest = dag
            .predecessors(v)
            .iter()
            .map(|p| dist[p.index()])
            .max()
            .unwrap_or(0);
        dist[v.index()] = longest + dag.wcet(v);
    }
    dist[dag.sink().index()]
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;

    #[test]
    fn critical_path_of_single_node() {
        let mut b = DagBuilder::new();
        b.add_node(7);
        let dag = b.build().unwrap();
        assert_eq!(dag.critical_path_length(), 7);
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
        assert_eq!(dag.critical_path_length(), 52);
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
    fn critical_path_runs_through_a_nested_fork_join() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let (f, j) = b.fork_join(2, &[8, 3], 2, false).unwrap();
        let t = b.add_node(1);
        b.add_edge(s, f).unwrap();
        b.add_edge(j, t).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.critical_path_length(), 1 + 2 + 8 + 2 + 1);
    }
}
