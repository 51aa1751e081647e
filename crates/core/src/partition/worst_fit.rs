//! Blocking-oblivious worst-fit partitioning (the paper's baseline).

use rtpool_graph::{Dag, NodeKind};

use crate::partition::{least_loaded, NodeMapping, ThreadId, Workspace};

/// Partitions the nodes of `dag` over `m` threads with the worst-fit
/// heuristic (each node goes to the currently least-loaded thread),
/// **ignoring blocking synchronization** — the state-of-the-art baseline
/// of the paper's second experiment.
///
/// Blocking joins are still co-located with their forks, because that
/// co-location is forced by the execution semantics (the join is the
/// continuation of the fork's function, Listing 1), not by the
/// partitioning policy.
///
/// The resulting mapping balances load but may exhibit
/// reduced-concurrency delays or even deadlocks; use
/// [`deadlock::check_partitioned`](crate::deadlock::check_partitioned) to
/// audit it.
///
/// # Panics
///
/// Panics if `m == 0` or `m` is past
/// [`MAX_PARTITIONED_THREADS`](crate::partition::MAX_PARTITIONED_THREADS).
///
/// # Examples
///
/// ```
/// use rtpool_core::partition::worst_fit;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(1, &[10, 10, 10, 10], 1, false)?;
/// let dag = b.build()?;
/// let mapping = worst_fit(&dag, 2);
/// let loads = mapping.loads(&dag);
/// assert_eq!(loads.iter().sum::<u64>(), dag.volume());
/// assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 10);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn worst_fit(dag: &Dag, m: usize) -> NodeMapping {
    let mut workspace = Workspace::with_capacity(dag.node_count());
    worst_fit_in(dag, m, &mut workspace);
    workspace.into_mapping(m)
}

/// [`worst_fit`] into `workspace`, whose `threads()` then hold the
/// mapping.
pub(crate) fn worst_fit_in(dag: &Dag, m: usize, workspace: &mut Workspace) {
    assert!(m > 0, "pool must have at least one thread");
    super::assert_partitioned_pool(m);
    workspace.reset(dag.node_count(), m);
    let Workspace { threads, loads, .. } = workspace;
    for v in dag.topological_order().iter() {
        if threads[v.index()] != ThreadId::UNASSIGNED {
            // A join, pinned to its fork's thread: joins follow their
            // forks in topological order.
            continue;
        }
        let t = least_loaded((0..m).map(ThreadId::new), loads);
        threads[v.index()] = t;
        loads[t.index()] += dag.wcet(v);
        if dag.kind(v) == NodeKind::BlockingFork {
            let j = dag
                .blocking_join_of(v)
                .expect("validated BF node has a paired BJ");
            threads[j.index()] = t;
            loads[t.index()] += dag.wcet(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    #[test]
    fn covers_all_nodes() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[2, 3, 4], 1, true).unwrap();
        let dag = b.build().unwrap();
        let mapping = worst_fit(&dag, 3);
        assert_eq!(mapping.node_count(), dag.node_count());
        assert_eq!(mapping.loads(&dag).iter().sum::<u64>(), dag.volume());
    }

    #[test]
    fn joins_colocated_by_default() {
        let mut b = DagBuilder::new();
        let (f, j) = b.fork_join(1, &[2, 3], 1, true).unwrap();
        let dag = b.build().unwrap();
        let mapping = worst_fit(&dag, 4);
        assert_eq!(mapping.thread_of(f), mapping.thread_of(j));
    }

    #[test]
    fn single_thread_maps_everything_to_it() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        let mapping = worst_fit(&dag, 1);
        for (_, t) in mapping.iter() {
            assert_eq!(t, ThreadId::new(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let mut b = DagBuilder::new();
        b.add_node(1);
        let dag = b.build().unwrap();
        let _ = worst_fit(&dag, 0);
    }

    #[test]
    fn can_place_children_behind_fork_thread() {
        // Demonstrates the hazard the paper describes: with m = 1 the
        // children land on the (suspended) fork's thread.
        let mut b = DagBuilder::new();
        let (f, _j) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        let dag = b.build().unwrap();
        let mapping = worst_fit(&dag, 1);
        for region in dag.blocking_regions() {
            for &c in region.inner() {
                assert_eq!(mapping.thread_of(c), mapping.thread_of(f));
            }
        }
    }
}
