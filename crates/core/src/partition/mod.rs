//! Node-to-thread partitioning for partitioned intra-pool scheduling.
//!
//! Under partitioned scheduling every thread `φ_{i,j}` of pool `Φᵢ` is
//! pinned to core `j` and has its own FIFO work-queue; a *node-to-thread
//! mapping* `T(v)` decides which queue each node is pushed to. A careless
//! mapping lets a node sit in the queue of a thread that is suspended on a
//! blocking barrier — the *reduced-concurrency delay* of Section 4.2 —
//! and can even deadlock (Lemma 3).
//!
//! This module provides:
//!
//! * [`NodeMapping`] — a complete, validated mapping;
//! * [`algorithm1`] — the paper's Algorithm 1, which produces
//!   delay-free mappings by construction (or fails);
//! * [`worst_fit`] — the load-balancing baseline the paper compares
//!   against, oblivious to blocking;
//! * [`PlacementHeuristic`] with [`WorstFit`], [`FirstFit`], and
//!   [`BestFit`] strategies for the free choices in Algorithm 1
//!   (lines 11 and 18).

mod algorithm1;
mod mapping;
mod worst_fit;

pub(crate) use algorithm1::algorithm1_in;
pub use algorithm1::{algorithm1, algorithm1_with, Algorithm1Error, Algorithm1Failure};
pub use mapping::{NodeMapping, ThreadId};
pub use worst_fit::worst_fit;
pub(crate) use worst_fit::worst_fit_in;

use std::hint::select_unpredictable;

use rtpool_graph::{Dag, NodeId};

/// The largest pool the partitioned paths take: [`algorithm1`],
/// [`worst_fit`] and the partitioned analysis
/// ([`crate::analysis::partitioned`]) keep a table entry per thread (per
/// task, in the analysis) and panic naming this bound past it, where an
/// allocation could not succeed. `analyze`, `rtpool-trace` and `rtlint`
/// check an outside `m` first. Global analyses and deadlock checks keep no
/// per-thread table and take any `m`.
///
/// The value is set by the tables' cost: `m` words each, and Algorithm 1
/// scans every thread per node (`n·m` steps). At 4 096 a table is 32 KiB
/// and `analyze`'s partitioned section on `workloads/*.rtp` takes 3 ms
/// (0.5 s at 2²⁰ on two vCPUs; 2³² does not fit in memory), 256 times the
/// largest pool of the paper's experiments (`m = 16`).
pub const MAX_PARTITIONED_THREADS: usize = 4096;

/// Panics unless `m` is within [`MAX_PARTITIONED_THREADS`].
pub(crate) fn assert_partitioned_pool(m: usize) {
    assert!(
        m <= MAX_PARTITIONED_THREADS,
        "a partitioned pool of {m} threads is past MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}"
    );
}

/// The working vectors of [`worst_fit`] and [`algorithm1_with`]: made
/// once per partitioned pass and reset for each task it maps, so a pass
/// allocates them once whatever the number of tasks it reaches.
#[derive(Default)]
pub(crate) struct Workspace {
    /// `T(v)` per node, [`ThreadId::UNASSIGNED`] until placed.
    threads: Vec<ThreadId>,
    /// Summed WCET placed on each thread.
    loads: Vec<u64>,
    /// Algorithm 1's `Φ_BF`: one flag per thread.
    blocked: Vec<bool>,
    /// The threads outside `Φ_BF`, compacted in id order to the front.
    allowed: Vec<ThreadId>,
}

impl Workspace {
    /// A workspace whose node table holds graphs of up to `nodes` nodes
    /// without growing.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        Workspace {
            threads: Vec::with_capacity(nodes),
            ..Workspace::default()
        }
    }

    /// Unassigns `n` nodes and zeroes `m` loads.
    fn reset(&mut self, n: usize, m: usize) {
        self.threads.clear();
        self.threads.resize(n, ThreadId::UNASSIGNED);
        self.loads.clear();
        self.loads.resize(m, 0);
    }

    /// The last mapping made, one thread per node.
    pub(crate) fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// The last mapping made, as a [`NodeMapping`] over `m` threads.
    fn into_mapping(self, m: usize) -> NodeMapping {
        NodeMapping::from_ids(self.threads, m)
    }
}

/// The lexicographic minimum of `(loads[t], t)` over `threads`: the
/// least-loaded thread, ties to the lowest id, in whatever order
/// `threads` lists them. Each thread is one compare and two selects that
/// compile to conditional moves, so no branch depends on the loads.
///
/// # Panics
///
/// Panics if `threads` is empty.
fn least_loaded(threads: impl Iterator<Item = ThreadId>, loads: &[u64]) -> ThreadId {
    let (mut best, mut best_load) = (ThreadId::UNASSIGNED, u64::MAX);
    for t in threads {
        let load = loads[t.index()];
        let less = (load < best_load) | ((load == best_load) & (t < best));
        best = select_unpredictable(less, t, best);
        best_load = select_unpredictable(less, load, best_load);
    }
    assert!(
        best != ThreadId::UNASSIGNED,
        "allowed set must be non-empty"
    );
    best
}

/// Strategy for choosing among the admissible threads when Algorithm 1
/// (or a baseline partitioner) has more than one feasible option.
///
/// The paper resolves these free choices with the worst-fit heuristic
/// ("When a node can be allocated in multiple threads according to
/// Algorithm 1, one of them is chosen with the worst-fit heuristic",
/// Section 5); [`WorstFit`] reproduces that, and the alternatives enable
/// ablation studies.
pub trait PlacementHeuristic {
    /// Chooses one of `allowed` (non-empty, sorted by thread id) for
    /// `node`, given the current per-thread WCET loads.
    fn choose(&mut self, dag: &Dag, node: NodeId, allowed: &[ThreadId], loads: &[u64]) -> ThreadId;
}

/// Chooses the least-loaded admissible thread (ties: lowest id). This is
/// the heuristic used in the paper's experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorstFit;

impl PlacementHeuristic for WorstFit {
    fn choose(
        &mut self,
        _dag: &Dag,
        _node: NodeId,
        allowed: &[ThreadId],
        loads: &[u64],
    ) -> ThreadId {
        least_loaded(allowed.iter().copied(), loads)
    }
}

/// Chooses the admissible thread with the lowest id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementHeuristic for FirstFit {
    fn choose(
        &mut self,
        _dag: &Dag,
        _node: NodeId,
        allowed: &[ThreadId],
        _loads: &[u64],
    ) -> ThreadId {
        *allowed.iter().min().expect("allowed set must be non-empty")
    }
}

/// Chooses the most-loaded admissible thread (ties: lowest id), packing
/// work densely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BestFit;

impl PlacementHeuristic for BestFit {
    fn choose(
        &mut self,
        _dag: &Dag,
        _node: NodeId,
        allowed: &[ThreadId],
        loads: &[u64],
    ) -> ThreadId {
        *allowed
            .iter()
            .max_by_key(|t| (loads[t.index()], std::cmp::Reverse(t.index())))
            .expect("allowed set must be non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    fn tiny_dag() -> Dag {
        let mut b = DagBuilder::new();
        b.add_node(1);
        b.build().unwrap()
    }

    #[test]
    fn worst_fit_picks_least_loaded() {
        let dag = tiny_dag();
        let allowed = [ThreadId::new(0), ThreadId::new(1), ThreadId::new(2)];
        let loads = [10, 3, 7];
        let mut h = WorstFit;
        assert_eq!(
            h.choose(&dag, NodeId::from_index(0), &allowed, &loads),
            ThreadId::new(1)
        );
    }

    #[test]
    fn worst_fit_breaks_ties_by_id() {
        let dag = tiny_dag();
        let allowed = [ThreadId::new(2), ThreadId::new(0)];
        let loads = [5, 9, 5];
        let mut h = WorstFit;
        assert_eq!(
            h.choose(&dag, NodeId::from_index(0), &allowed, &loads),
            ThreadId::new(0)
        );
    }

    #[test]
    fn first_fit_picks_lowest_id() {
        let dag = tiny_dag();
        let allowed = [ThreadId::new(3), ThreadId::new(1)];
        let mut h = FirstFit;
        assert_eq!(
            h.choose(&dag, NodeId::from_index(0), &allowed, &[0; 4]),
            ThreadId::new(1)
        );
    }

    #[test]
    fn best_fit_picks_most_loaded() {
        let dag = tiny_dag();
        let allowed = [ThreadId::new(0), ThreadId::new(1)];
        let loads = [2, 8];
        let mut h = BestFit;
        assert_eq!(
            h.choose(&dag, NodeId::from_index(0), &allowed, &loads),
            ThreadId::new(1)
        );
    }
}
