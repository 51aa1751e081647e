//! Algorithm 1 of the paper: reduced-concurrency-delay-free partitioning.
//!
//! The algorithm walks the nodes of a task graph (skipping blocking
//! joins, which are forced onto their fork's thread) and keeps every node
//! off the threads that host blocking forks able to delay it — the set
//! `Φ_BF = {T(x) : x ∈ C(v) ∪ F'(v)}`. Whenever a node is placed, the
//! not-yet-placed forks that could delay it are immediately pinned to
//! *other* threads (lines 14–18), establishing the invariant that a
//! placed node can never end up behind a suspended fork in its FIFO
//! queue. A successful run therefore yields a mapping with **no
//! reduced-concurrency delay and no deadlock by construction**
//! (the extended Eq. 3 of Section 4.2; certified by
//! [`deadlock::check_mapping_delay_free`](crate::deadlock::check_mapping_delay_free)).
//!
//! `Φ_BF` is one `m`-wide flag row of a [`Workspace`], and the threads
//! outside it are compacted into another in id order without a branch per
//! thread; a partitioned pass makes the workspace once for all its tasks.

use std::error::Error;
use std::fmt;

use rtpool_graph::{Dag, NodeId, NodeKind};

use crate::partition::{NodeMapping, PlacementHeuristic, ThreadId, Workspace, WorstFit};

/// Why Algorithm 1 failed on a particular node.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Algorithm1Error {
    /// Line 7: the node was pre-assigned (as a fork, during an earlier
    /// node's line-18 placement) to a thread that now hosts a fork able to
    /// delay it.
    ConflictingPreassignment {
        /// The thread the node was already pinned to.
        thread: ThreadId,
    },
    /// Line 9: the forks able to delay the node already occupy all `m`
    /// threads, so no safe thread remains.
    SaturatedByBlockingForks {
        /// Number of distinct threads hosting delaying forks (`|Φ_BF|`).
        blocked_threads: usize,
    },
    /// Line 17: a delaying fork cannot be pinned anywhere — every thread
    /// either hosts a fork concurrent with it or is the current node's
    /// thread.
    NoThreadForFork {
        /// The fork that could not be placed.
        fork: NodeId,
    },
}

/// Failure report of [`algorithm1`]: the node being processed and the
/// reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Algorithm1Failure {
    /// The node whose processing triggered the failure.
    pub node: NodeId,
    /// The specific failure condition.
    pub error: Algorithm1Error,
}

impl fmt::Display for Algorithm1Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.error {
            Algorithm1Error::ConflictingPreassignment { thread } => write!(
                f,
                "node {} is pre-assigned to thread {} which hosts a delaying fork",
                self.node, thread
            ),
            Algorithm1Error::SaturatedByBlockingForks { blocked_threads } => write!(
                f,
                "all {} threads host forks that can delay node {}",
                blocked_threads, self.node
            ),
            Algorithm1Error::NoThreadForFork { fork } => write!(
                f,
                "no feasible thread for fork {} while processing node {}",
                fork, self.node
            ),
        }
    }
}

impl Error for Algorithm1Failure {}

/// Runs Algorithm 1 with the paper's worst-fit tie-breaking.
///
/// # Errors
///
/// Returns an [`Algorithm1Failure`] naming the node and condition (lines
/// 7, 9, or 17 of the pseudocode) when no delay-free mapping is found by
/// the greedy strategy. A failure is how the paper's experiments count a
/// task as unschedulable under partitioned scheduling.
///
/// # Panics
///
/// Panics if `m` is past
/// [`MAX_PARTITIONED_THREADS`](crate::partition::MAX_PARTITIONED_THREADS).
///
/// # Examples
///
/// ```
/// use rtpool_core::partition::algorithm1;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let (_f, _j) = b.fork_join(1, &[2, 3], 1, true)?;
/// let dag = b.build()?;
/// let mapping = algorithm1(&dag, 2)?;
/// // The fork's thread never hosts its children.
/// let fork_thread = mapping.thread_of(dag.blocking_forks()[0]);
/// for &c in dag.blocking_regions()[0].inner() {
///     assert_ne!(mapping.thread_of(c), fork_thread);
/// }
/// # Ok(())
/// # }
/// ```
pub fn algorithm1(dag: &Dag, m: usize) -> Result<NodeMapping, Algorithm1Failure> {
    algorithm1_with(dag, m, &mut WorstFit)
}

/// Runs Algorithm 1 with a caller-provided [`PlacementHeuristic`] for the
/// free choices at lines 11 and 18.
///
/// # Errors
///
/// Same as [`algorithm1`].
///
/// # Panics
///
/// Same as [`algorithm1`].
pub fn algorithm1_with<H: PlacementHeuristic>(
    dag: &Dag,
    m: usize,
    heuristic: &mut H,
) -> Result<NodeMapping, Algorithm1Failure> {
    let mut workspace = Workspace::with_capacity(dag.node_count());
    algorithm1_in(dag, m, heuristic, &mut workspace)?;
    Ok(workspace.into_mapping(m))
}

/// [`algorithm1_with`] into `workspace`, whose `threads()` hold the
/// mapping when it succeeds.
pub(crate) fn algorithm1_in<H: PlacementHeuristic>(
    dag: &Dag,
    m: usize,
    heuristic: &mut H,
    workspace: &mut Workspace,
) -> Result<(), Algorithm1Failure> {
    super::assert_partitioned_pool(m);
    let delays = dag.delay_profile();
    workspace.reset(dag.node_count(), m);
    workspace.blocked.resize(m, false);
    workspace.allowed.resize(m, ThreadId::UNASSIGNED);
    let Workspace {
        threads: assigned,
        loads,
        blocked,
        allowed,
    } = workspace;
    let placed = |t: &ThreadId| *t != ThreadId::UNASSIGNED;

    // Line 4: iterate every node of kind != BJ (topological order for
    // determinism; the paper leaves the order open).
    for v in dag.topological_order().iter() {
        if dag.kind(v) == NodeKind::BlockingJoin {
            continue;
        }
        let delay_row = delays.delay_row(v);
        // Line 5: threads hosting already-assigned delaying forks.
        let blocked_threads = fill(
            blocked,
            delay_row.iter().map(|f| assigned[f]).filter(placed),
        );
        let v_thread = assigned[v.index()];
        if placed(&v_thread) {
            // Lines 6-7.
            if blocked[v_thread.index()] {
                return Err(Algorithm1Failure {
                    node: v,
                    error: Algorithm1Error::ConflictingPreassignment { thread: v_thread },
                });
            }
        } else {
            // Lines 8-9.
            if blocked_threads >= m {
                return Err(Algorithm1Failure {
                    node: v,
                    error: Algorithm1Error::SaturatedByBlockingForks { blocked_threads },
                });
            }
            // Lines 10-11.
            let t = heuristic.choose(dag, v, complement(blocked, allowed), loads);
            assigned[v.index()] = t;
            loads[t.index()] += dag.wcet(v);
        }
        let v_thread = assigned[v.index()];
        // Lines 12-13: the paired join runs on the fork's thread (they are
        // two halves of the same function, Listing 1).
        if dag.kind(v) == NodeKind::BlockingFork {
            let j = dag
                .blocking_join_of(v)
                .expect("validated BF node has a paired BJ");
            debug_assert!(!placed(&assigned[j.index()]), "BJ assigned twice");
            assigned[j.index()] = v_thread;
            loads[v_thread.index()] += dag.wcet(j);
        }
        // Lines 14-18: pin the not-yet-placed forks that can delay v, so
        // they can never land on v's thread later.
        for fork in delay_row.iter().map(NodeId::from_index) {
            if placed(&assigned[fork.index()]) {
                continue;
            }
            // Line 15: threads hosting forks concurrent with `fork`
            // (fork is BF, so its delay row equals C(fork)), and v's.
            let row = delays.delay_row(fork).iter().map(|x| assigned[x]);
            fill(blocked, row.filter(placed).chain([v_thread]));
            // Lines 16-18.
            let choices = complement(blocked, allowed);
            if choices.is_empty() {
                return Err(Algorithm1Failure {
                    node: v,
                    error: Algorithm1Error::NoThreadForFork { fork },
                });
            }
            let t = heuristic.choose(dag, fork, choices, loads);
            assigned[fork.index()] = t;
            loads[t.index()] += dag.wcet(fork);
        }
    }
    Ok(())
}

/// Makes `blocked` flag exactly `threads` and returns how many it flags
/// (duplicates counted once).
fn fill(blocked: &mut [bool], threads: impl Iterator<Item = ThreadId>) -> usize {
    blocked.fill(false);
    let mut count = 0;
    for t in threads {
        let flag = &mut blocked[t.index()];
        count += usize::from(!*flag);
        *flag = true;
    }
    count
}

/// The threads `blocked` does not flag, in id order: every thread is
/// written to the next free slot of `out`, which advances only past an
/// unflagged one, so no branch depends on the flags.
fn complement<'a>(blocked: &[bool], out: &'a mut [ThreadId]) -> &'a [ThreadId] {
    let mut len = 0;
    for (t, &flag) in blocked.iter().enumerate() {
        out[len] = ThreadId::new(t);
        len += usize::from(!flag);
    }
    &out[..len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock;
    use rtpool_graph::DagBuilder;

    /// `replicas` parallel blocking regions with `kids` children each.
    fn replicated(replicas: usize, kids: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let wcets = vec![5u64; kids];
            let (f, j) = b.fork_join(10, &wcets, 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn single_region_needs_two_threads() {
        let dag = replicated(1, 3);
        assert!(
            algorithm1(&dag, 1).is_err(),
            "1 thread cannot be delay-free"
        );
        let mapping = algorithm1(&dag, 2).unwrap();
        deadlock::check_mapping_delay_free(&dag, &mapping).unwrap();
    }

    #[test]
    fn join_colocated_with_fork() {
        let dag = replicated(1, 3);
        let mapping = algorithm1(&dag, 4).unwrap();
        for region in dag.blocking_regions() {
            assert_eq!(
                mapping.thread_of(region.fork()),
                mapping.thread_of(region.join())
            );
        }
    }

    #[test]
    fn children_avoid_fork_thread() {
        let dag = replicated(2, 4);
        let mapping = algorithm1(&dag, 4).unwrap();
        for region in dag.blocking_regions() {
            for &c in region.inner() {
                // The child must avoid its fork's thread and any
                // concurrent fork's thread.
                for f in dag.delay_profile().delay_row(c).iter() {
                    assert_ne!(
                        mapping.thread_of(c),
                        mapping.thread_of(NodeId::from_index(f))
                    );
                }
            }
        }
        deadlock::check_mapping_delay_free(&dag, &mapping).unwrap();
    }

    #[test]
    fn two_replicas_fail_on_two_threads() {
        // Children of region 0 are delayed by 2 forks; with m = 2 the
        // forks occupy both threads, leaving nowhere safe for children.
        let dag = replicated(2, 2);
        assert!(algorithm1(&dag, 2).is_err());
        assert!(algorithm1(&dag, 3).is_ok());
    }

    #[test]
    fn non_blocking_graph_always_partitions() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1, 1, 1, 1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        for m in 1..=4 {
            let mapping = algorithm1(&dag, m).unwrap();
            assert_eq!(mapping.pool_size(), m);
        }
    }

    #[test]
    fn worst_fit_balances_load() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[10, 10, 10, 10], 1, false).unwrap();
        let dag = b.build().unwrap();
        let mapping = algorithm1(&dag, 4).unwrap();
        let loads = mapping.loads(&dag);
        // The four heavy branches should be spread across the threads.
        assert!(loads.iter().filter(|&&l| l >= 10).count() == 4, "{loads:?}");
    }

    #[test]
    fn failure_reports_node_and_reason() {
        let dag = replicated(2, 2);
        let err = algorithm1(&dag, 2).unwrap_err();
        assert!(!err.to_string().is_empty());
        match err.error {
            Algorithm1Error::SaturatedByBlockingForks { blocked_threads } => {
                assert_eq!(blocked_threads, 2);
            }
            Algorithm1Error::ConflictingPreassignment { .. }
            | Algorithm1Error::NoThreadForFork { .. } => {}
        }
    }

    #[test]
    fn heuristics_all_yield_delay_free_mappings() {
        use crate::partition::{BestFit, FirstFit};
        let dag = replicated(2, 3);
        for mapping in [
            algorithm1_with(&dag, 4, &mut WorstFit).unwrap(),
            algorithm1_with(&dag, 4, &mut FirstFit).unwrap(),
            algorithm1_with(&dag, 4, &mut BestFit).unwrap(),
        ] {
            deadlock::check_mapping_delay_free(&dag, &mapping).unwrap();
        }
    }
}
