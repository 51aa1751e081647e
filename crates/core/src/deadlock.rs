//! Deadlock analysis (Section 3 of the paper).
//!
//! The Section 3.1 quantities of a node `v` of task `τᵢ` on a pool of `m`
//! threads are memoized on the task's [`Dag`]:
//!
//! * `X(v)` — the `BF` nodes whose suspension can affect `v`: those
//!   concurrent with `v` (`C(v)`, Eq. 2), plus the fork waiting for `v`
//!   when `v` is a blocking child (`F(v)`, [`Dag::waiting_fork_of`]); read
//!   it as `dag.delay_profile().delay_row(v)`;
//! * `b̄(τᵢ) = max_v |X(v)|` — `dag.delay_profile().max_delay_count()`;
//! * `A(τᵢ)` — the exact maximum number of simultaneously-suspendable
//!   threads, a maximum antichain among the `BF` nodes
//!   ([`Dag::max_blocking_antichain`]); `A(τᵢ) ≤ b̄(τᵢ)`;
//! * `l̄(τᵢ) = m − b̄(τᵢ)` — [`concurrency_floor`].
//!
//! A task deadlocks when its available concurrency drops to zero
//! (Lemma 1): every thread of the pool is suspended on a blocking
//! barrier, so no node — in particular none of the blocking children the
//! barriers wait for — can be served.
//!
//! * Under **global** intra-pool scheduling the condition is also
//!   necessary (Lemma 2), so deadlock freedom reduces to bounding the
//!   number of simultaneously-suspended threads below `m`: either with
//!   the paper's polynomial bound `b̄(τᵢ)` (check `l̄(τᵢ) > 0`) or with
//!   the exact maximum antichain of `BF` nodes computed here.
//! * Under **partitioned** intra-pool scheduling a task can additionally
//!   stall because a blocking child sits in the FIFO queue of a suspended
//!   thread; Lemma 3 gives a mapping condition (Eq. 3) that rules this
//!   out.

use std::error::Error;
use std::fmt;

use rtpool_graph::{Dag, NodeId, NodeKind};

use crate::partition::{NodeMapping, ThreadId};

/// `l̄(τᵢ) = m − b̄(τᵢ)`: the paper's lower bound on the available
/// concurrency `l(t, τᵢ)`, valid at every time `t` (Section 3.1). When it
/// is positive the task cannot deadlock on `m` threads; it may be zero or
/// negative even for a deadlock-free task, since [`check_global`]'s exact
/// antichain is tighter.
///
/// # Examples
///
/// The paper's Figure 1(a) graph has one `BF` node, so a single blocked
/// thread is the worst case and `l̄ = m − 1`:
///
/// ```
/// use rtpool_core::deadlock::concurrency_floor;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20, 20], 10, true)?;
/// let dag = b.build()?;
/// assert_eq!(dag.delay_profile().max_delay_count(), 1); // b̄
/// assert_eq!(concurrency_floor(&dag, 8), 7);
/// # Ok(())
/// # }
/// ```
#[must_use]
#[inline]
pub fn concurrency_floor(dag: &Dag, m: usize) -> i64 {
    available_concurrency(m, dag.delay_profile().max_delay_count())
}

/// `m − suspended`: the threads of an `m`-thread pool still able to run
/// when `suspended` of them may be suspended at once. With `b̄` this is
/// [`concurrency_floor`]; with `|A(τ)|` it is the exact-antichain floor;
/// with `0` it is the pool itself. Every `l̄` in the workspace is this
/// one rule.
///
/// Saturating: a pool too large for `i64` is no smaller than `i64::MAX`,
/// so the result never falls as `m` grows.
///
/// ```
/// use rtpool_core::deadlock::available_concurrency;
///
/// assert_eq!(available_concurrency(8, 1), 7);
/// assert_eq!(available_concurrency(2, 3), -1);
/// assert_eq!(available_concurrency(usize::MAX, 0), i64::MAX);
/// ```
#[must_use]
#[inline]
pub fn available_concurrency(m: usize, suspended: usize) -> i64 {
    i64::try_from(m).unwrap_or(i64::MAX) - suspended as i64
}

/// Deadlock verdict for a task under **global** work-conserving
/// intra-pool scheduling (Lemmas 1 and 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalVerdict {
    /// No reachable schedule suspends all `m` threads.
    DeadlockFree {
        /// Exact maximum number of simultaneously-suspended threads (the
        /// maximum antichain among `BF` nodes).
        max_suspended: usize,
        /// The paper's time-independent bound `l̄(τᵢ) = m − b̄(τᵢ)`. May be
        /// `≤ 0` even for deadlock-free tasks (the exact antichain is
        /// tighter); it is the value the Section 4.1 schedulability test
        /// divides by.
        concurrency_floor: i64,
    },
    /// There exists a work-conserving dispatch order that suspends `m`
    /// threads simultaneously, stalling the task (Eq. 1 becomes
    /// satisfiable, so by Lemma 1 a deadlock occurs).
    DeadlockPossible {
        /// `m` pairwise-concurrent `BF` nodes witnessing the stall.
        suspended_antichain: Vec<NodeId>,
    },
}

impl GlobalVerdict {
    /// Returns `true` for [`GlobalVerdict::DeadlockFree`].
    #[must_use]
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, GlobalVerdict::DeadlockFree { .. })
    }
}

/// Checks a task for deadlock freedom under global scheduling on a pool
/// of `m` threads, using the exact antichain characterization.
///
/// Simultaneously-suspended forks are pairwise concurrent (every path out
/// of a fork passes through its join, so ordered forks never wait
/// together); conversely, any set of pairwise-concurrent forks can be
/// driven into simultaneous suspension by an adversarial work-conserving
/// dispatch order. Hence the task is deadlock-free iff the maximum `BF`
/// antichain is `< m`.
///
/// # Examples
///
/// ```
/// use rtpool_core::deadlock::{check_global, GlobalVerdict};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(1, &[1, 1], 1, true)?;
/// let dag = b.build()?;
/// // One blocking fork: a single-thread pool deadlocks, two threads don't.
/// assert!(!check_global(&dag, 1).is_deadlock_free());
/// assert!(check_global(&dag, 2).is_deadlock_free());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn check_global(dag: &Dag, m: usize) -> GlobalVerdict {
    let antichain = dag.max_blocking_antichain();
    if antichain.len() >= m {
        GlobalVerdict::DeadlockPossible {
            suspended_antichain: antichain.iter().copied().take(m).collect(),
        }
    } else {
        GlobalVerdict::DeadlockFree {
            max_suspended: antichain.len(),
            concurrency_floor: concurrency_floor(dag, m),
        }
    }
}

/// A violation of Lemma 3's Eq. 3 (or its Section 4.2 extension): `node`
/// is mapped to a thread that also hosts `conflicting_fork`, a blocking
/// fork able to suspend that thread while `node` waits in its queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappingViolation {
    /// The node that can be stranded in a suspended thread's queue.
    pub node: NodeId,
    /// The thread both nodes share.
    pub thread: ThreadId,
    /// The blocking fork that can suspend the shared thread.
    pub conflicting_fork: NodeId,
}

impl fmt::Display for MappingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} shares thread {} with blocking fork {} that may suspend it",
            self.node, self.thread, self.conflicting_fork
        )
    }
}

impl Error for MappingViolation {}

/// Deadlock verdict for a task under **partitioned** intra-pool
/// scheduling with a concrete node-to-thread mapping (Lemma 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionedVerdict {
    /// Lemma 3 holds: Eq. 1 cannot be reached and no blocking child is
    /// mapped behind a fork that may suspend its thread.
    DeadlockFree,
    /// The concurrency precondition fails: `m` forks can suspend
    /// simultaneously regardless of the mapping.
    ConcurrencyExhausted {
        /// `m` pairwise-concurrent `BF` nodes.
        suspended_antichain: Vec<NodeId>,
    },
    /// Eq. 3 is violated for a blocking child; the mapping itself can
    /// deadlock.
    MappingUnsafe(MappingViolation),
}

impl PartitionedVerdict {
    /// Returns `true` for [`PartitionedVerdict::DeadlockFree`].
    #[must_use]
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, PartitionedVerdict::DeadlockFree)
    }
}

/// Checks Lemma 3 for a mapping under partitioned scheduling: the
/// concurrency precondition (Eq. 1 unreachable, via the exact antichain)
/// plus Eq. 3 for every blocking child.
///
/// # Panics
///
/// Panics if `mapping` does not cover the analyzed graph.
///
/// # Examples
///
/// ```
/// use rtpool_core::deadlock::check_partitioned;
/// use rtpool_core::partition::{algorithm1, worst_fit};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(1, &[1, 1], 1, true)?;
/// let dag = b.build()?;
/// // Algorithm 1 mappings are deadlock-free by construction...
/// let safe = algorithm1(&dag, 2)?;
/// assert!(check_partitioned(&dag, 2, &safe).is_deadlock_free());
/// // ...a single-thread worst-fit mapping is not.
/// let unsafe_map = worst_fit(&dag, 1);
/// assert!(!check_partitioned(&dag, 1, &unsafe_map).is_deadlock_free());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn check_partitioned(dag: &Dag, m: usize, mapping: &NodeMapping) -> PartitionedVerdict {
    assert_eq!(
        mapping.node_count(),
        dag.node_count(),
        "mapping/graph mismatch"
    );
    let antichain = dag.max_blocking_antichain();
    if antichain.len() >= m {
        return PartitionedVerdict::ConcurrencyExhausted {
            suspended_antichain: antichain.iter().copied().take(m).collect(),
        };
    }
    // Eq. 3: for every BC node a, T(a) ∉ P(a) where P(a) collects the
    // threads of C(a) ∪ {F(a)}.
    for a in dag.node_ids() {
        if dag.kind(a) != NodeKind::BlockingChild {
            continue;
        }
        if let Some(v) = eq3_violation(dag, mapping, a) {
            return PartitionedVerdict::MappingUnsafe(v);
        }
    }
    PartitionedVerdict::DeadlockFree
}

/// Checks the **extended** Eq. 3 of Section 4.2 on every node of kind
/// `NB`, `BC`, or `BF`, plus fork/join co-location — the condition under
/// which the mapping exhibits *no reduced-concurrency delay at all* (not
/// merely no deadlock). Algorithm 1 outputs always satisfy it.
///
/// # Errors
///
/// Returns the first [`MappingViolation`] found.
///
/// # Panics
///
/// Panics if `mapping` does not cover the analyzed graph.
pub fn check_mapping_delay_free(dag: &Dag, mapping: &NodeMapping) -> Result<(), MappingViolation> {
    assert_eq!(
        mapping.node_count(),
        dag.node_count(),
        "mapping/graph mismatch"
    );
    for v in dag.node_ids() {
        match dag.kind(v) {
            NodeKind::BlockingJoin => {
                let f = dag.blocking_fork_of(v).expect("validated BJ has a fork");
                if mapping.thread_of(v) != mapping.thread_of(f) {
                    return Err(MappingViolation {
                        node: v,
                        thread: mapping.thread_of(v),
                        conflicting_fork: f,
                    });
                }
            }
            NodeKind::NonBlocking | NodeKind::BlockingChild | NodeKind::BlockingFork => {
                if let Some(violation) = eq3_violation(dag, mapping, v) {
                    return Err(violation);
                }
            }
        }
    }
    Ok(())
}

/// Returns the Eq. 3 violation for `node`, if any: a fork in the node's
/// delay set `X(node) = C(node) ∪ F'(node)` mapped to the node's thread.
fn eq3_violation(dag: &Dag, mapping: &NodeMapping, node: NodeId) -> Option<MappingViolation> {
    let t = mapping.thread_of(node);
    dag.delay_profile()
        .delay_row(node)
        .iter()
        .map(NodeId::from_index)
        .find(|&f| mapping.thread_of(f) == t)
        .map(|f| MappingViolation {
            node,
            thread: t,
            conflicting_fork: f,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{algorithm1, worst_fit, NodeMapping};
    use rtpool_graph::DagBuilder;

    fn replicated(replicas: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(10, &[5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn figure_1c_two_replicas_two_threads() {
        let dag = replicated(2);
        match check_global(&dag, 2) {
            GlobalVerdict::DeadlockPossible {
                suspended_antichain,
            } => {
                assert_eq!(suspended_antichain.len(), 2);
                for &f in &suspended_antichain {
                    assert_eq!(dag.kind(f), NodeKind::BlockingFork);
                }
            }
            v => panic!("expected deadlock, got {v:?}"),
        }
        assert!(check_global(&dag, 3).is_deadlock_free());
    }

    #[test]
    fn single_region_delay_sets() {
        let dag = replicated(1);
        assert_eq!(dag.blocking_forks().len(), 1);
        let f = dag.blocking_forks()[0];
        let j = dag.blocking_join_of(f).unwrap();
        let profile = dag.delay_profile();
        // The fork has no concurrent forks (it is the only one).
        assert!(profile.delay_row(f).is_empty());
        // Each child is delayed only by its own waiting fork.
        for &c in dag.blocking_regions()[0].inner() {
            let row: Vec<NodeId> = profile
                .delay_row(c)
                .iter()
                .map(NodeId::from_index)
                .collect();
            assert_eq!(row, vec![f]);
            assert_eq!(profile.delay_count(c), 1);
            assert_eq!(dag.waiting_fork_of(c), Some(f));
        }
        assert_eq!(dag.waiting_fork_of(j), None);
        assert_eq!(profile.max_delay_count(), 1);
        assert_eq!(concurrency_floor(&dag, 4), 3);
        assert_eq!(dag.max_blocking_antichain().len(), 1);
    }

    #[test]
    fn two_replicas_can_suspend_two_threads() {
        let dag = replicated(2);
        assert_eq!(dag.blocking_forks().len(), 2);
        // A child of one region is delayed by its own fork AND the
        // concurrent fork of the sibling region.
        let child = dag.blocking_regions()[0].inner()[0];
        assert_eq!(dag.delay_profile().delay_count(child), 2);
        assert_eq!(dag.delay_profile().max_delay_count(), 2);
        assert_eq!(concurrency_floor(&dag, 2), 0);
        assert_eq!(concurrency_floor(&dag, 3), 1);
        assert_eq!(dag.max_blocking_antichain().len(), 2);
        // The exact check is at least as strong as the bound: whenever
        // l̄ > 0 certifies freedom, so does the antichain.
        assert_eq!(concurrency_floor(&dag, 4), 2);
        assert!(check_global(&dag, 4).is_deadlock_free());
    }

    #[test]
    fn floor_is_negative_when_forks_exceed_threads() {
        let dag = replicated(5);
        assert_eq!(dag.delay_profile().max_delay_count(), 5);
        assert_eq!(concurrency_floor(&dag, 3), -2);
    }

    #[test]
    fn sequential_regions_do_not_stack() {
        // Two blocking regions in series: only one can be suspended at a
        // time, so b̄ = 1 even though there are two BF nodes.
        let mut b = DagBuilder::new();
        let (f1, j1) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        let (f2, _j2) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        b.add_edge(j1, f2).unwrap();
        let dag = b.build().unwrap();
        assert!(dag.delay_profile().delay_row(f1).is_empty());
        assert!(dag.delay_profile().delay_row(f2).is_empty());
        assert_eq!(dag.delay_profile().max_delay_count(), 1);
        assert_eq!(dag.max_blocking_antichain().len(), 1);
    }

    #[test]
    fn delay_bound_never_below_antichain() {
        for replicas in 1..=4 {
            let dag = replicated(replicas);
            assert!(dag.delay_profile().max_delay_count() >= dag.max_blocking_antichain().len());
        }
    }

    #[test]
    fn exact_check_sharper_than_bound() {
        // Chain of two blocking regions + one parallel region: the delay
        // set of a child of region 0 can include forks that are never
        // simultaneously suspended with it.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        // Two *sequential* regions on one branch.
        let (f1, j1) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        let (f2, j2) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        b.add_edge(src, f1).unwrap();
        b.add_edge(j1, f2).unwrap();
        b.add_edge(j2, snk).unwrap();
        // One parallel region on another branch.
        let (f3, j3) = b.fork_join(1, &[1, 1], 1, true).unwrap();
        b.add_edge(src, f3).unwrap();
        b.add_edge(j3, snk).unwrap();
        let dag = b.build().unwrap();
        // A child of region 3 is concurrent with f1 AND f2 plus its own
        // fork f3: b̄ = 3, but at most 2 forks suspend simultaneously.
        assert_eq!(dag.delay_profile().max_delay_count(), 3);
        assert_eq!(dag.max_blocking_antichain().len(), 2);
        // With m = 3: the bound is inconclusive (l̄ = 0) but the exact
        // check certifies freedom.
        assert_eq!(concurrency_floor(&dag, 3), 0);
        assert!(check_global(&dag, 3).is_deadlock_free());
    }

    #[test]
    fn partitioned_lemma3_flags_child_behind_fork() {
        let dag = replicated(1);
        // Map everything to thread 0 of a 2-thread pool: children sit
        // behind their suspended fork.
        let mapping = NodeMapping::from_threads(&dag, 2, vec![0; dag.node_count()]).unwrap();
        match check_partitioned(&dag, 2, &mapping) {
            PartitionedVerdict::MappingUnsafe(v) => {
                assert_eq!(dag.kind(v.node), NodeKind::BlockingChild);
                assert_eq!(dag.kind(v.conflicting_fork), NodeKind::BlockingFork);
                assert!(!v.to_string().is_empty());
            }
            v => panic!("expected mapping violation, got {v:?}"),
        }
    }

    #[test]
    fn partitioned_concurrency_precondition() {
        let dag = replicated(3);
        let mapping = worst_fit(&dag, 3);
        assert!(matches!(
            check_partitioned(&dag, 3, &mapping),
            PartitionedVerdict::ConcurrencyExhausted { .. }
        ));
    }

    #[test]
    fn algorithm1_outputs_are_certified_delay_free() {
        for replicas in 1..=3 {
            let dag = replicated(replicas);
            let m = replicas + 2;
            let mapping = algorithm1(&dag, m).unwrap();
            check_mapping_delay_free(&dag, &mapping).unwrap();
            assert!(check_partitioned(&dag, m, &mapping).is_deadlock_free());
        }
    }

    #[test]
    fn delay_free_check_rejects_separated_join() {
        let dag = replicated(1);
        let good = algorithm1(&dag, 3).unwrap();
        // Move the join away from its fork.
        let mut threads: Vec<usize> = good.iter().map(|(_, t)| t.index()).collect();
        let region = &dag.blocking_regions()[0];
        let fork_thread = good.thread_of(region.fork()).index();
        threads[region.join().index()] = (fork_thread + 1) % 3;
        let bad = NodeMapping::from_threads(&dag, 3, threads).unwrap();
        let err = check_mapping_delay_free(&dag, &bad).unwrap_err();
        assert_eq!(err.node, region.join());
    }

    #[test]
    fn non_blocking_tasks_never_deadlock() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1, 1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        assert!(dag.blocking_forks().is_empty());
        assert_eq!(dag.delay_profile().max_delay_count(), 0);
        assert!(dag.max_blocking_antichain().is_empty());
        for m in 1..=4 {
            assert_eq!(concurrency_floor(&dag, m), m as i64);
            assert!(check_global(&dag, m).is_deadlock_free());
            let mapping = worst_fit(&dag, m);
            assert!(check_partitioned(&dag, m, &mapping).is_deadlock_free());
        }
    }

    #[test]
    fn floor_never_falls_as_the_pool_grows() {
        // `m as i64` wrapped: 2⁶³ threads read as l̄ = −2⁶³ − b̄, and
        // `usize::MAX` as l̄ = −1 − b̄.
        let dag = replicated(2);
        let b = dag.delay_profile().max_delay_count() as i64;
        assert_eq!(concurrency_floor(&dag, 3), 3 - b);
        for m in [usize::MAX / 2, usize::MAX / 2 + 1, usize::MAX] {
            assert!(concurrency_floor(&dag, m) > 0, "m = {m}");
            assert!(concurrency_floor(&dag, m) >= concurrency_floor(&dag, 3));
        }
        assert_eq!(concurrency_floor(&dag, usize::MAX), i64::MAX - b);
    }
}
