//! Lazily-memoized derived analyses of an immutable [`Dag`].
//!
//! A `Dag` is frozen at construction, so every derived artifact — volume,
//! critical path, the transitive-reachability closure, blocking-fork
//! inventory, the per-node delay sets `X(v)` of Section 3.1, and the
//! exact maximum `BF` antichain — is a pure function of the graph. This
//! module stores them in [`OnceLock`] cells on the `Dag` itself so each
//! is computed at most once per graph and shared by every analysis
//! (deadlock checks, global/partitioned RTA, Algorithm 1, the linter,
//! and the experiment harness) instead of being rebuilt per call.
//!
//! Because the graph is immutable there is no invalidation: a cell, once
//! filled, stays valid for the lifetime of the `Dag` (clones carry the
//! filled cells along). [`Dag::clone_uncached`] produces a structural
//! copy with every cell empty, for benchmarking the miss path and for
//! coherence tests.
//!
//! The two `O(|V|²/64)` artifacts — reachability and the delay profile —
//! are flat bit matrices: one row-major `Vec<u64>` per relation (stride
//! `⌈|V|/64⌉` words), whose rows are written in place and handed out as
//! borrowed [`BitRow`] views. A profile is therefore three heap blocks
//! and a closure one, whatever the node count, where one owned bit set
//! per node per relation used to make filling and freeing the cache
//! `O(|V|)` allocator calls. Both are held behind [`Arc`] so a WCET-only
//! [`Dag::edit`](crate::Dag::edit) carries them to the next graph
//! version at refcount cost; any other edit is a rebuild and computes
//! its own.

use std::sync::{Arc, OnceLock};

use crate::bitset::{BitMatrix, BitRow};
use crate::dag::Dag;
use crate::node::{NodeId, NodeKind};
use crate::paths::CriticalPath;
use crate::reach::Reachability;

/// The per-node delay sets `X(v)` of the paper's Section 3.1, stored as
/// the rows of one flat bit matrix over the node indices, plus the
/// derived bound `b̄(τᵢ) = max_v |X(v)|`.
///
/// `X(v) = C(v) ∪ F'(v)`: the `BF` nodes subject to no precedence
/// constraint with `v` (Eq. 2), plus — for a `BC` node — the fork waiting
/// for `v`. Each row is computed word-parallel, in place, from the
/// reachability closure (`O(|V|²/64)` for the whole profile).
///
/// # Examples
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let (fork, _join) = b.fork_join(1, &[2, 2], 1, true)?;
/// let dag = b.build()?;
/// let profile = dag.delay_profile();
/// // The children are delayed only by their own waiting fork.
/// assert_eq!(profile.max_delay_count(), 1);
/// assert!(profile.delay_row(fork).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DelayProfile {
    /// Row `v`: `X(v)`.
    rows: BitMatrix,
    counts: Vec<u32>,
    max_count: usize,
}

impl DelayProfile {
    pub(crate) fn new(dag: &Dag, reach: &Reachability) -> Self {
        let n = dag.node_count();
        let mut profile = DelayProfile {
            rows: BitMatrix::new(n),
            counts: vec![0; n],
            max_count: 0,
        };
        let mut bf_mask = BitMatrix::with_rows(1, n);
        for v in dag.node_ids() {
            if dag.kind(v) == NodeKind::BlockingFork {
                bf_mask.insert(0, v.index());
            }
        }
        for v in dag.node_ids() {
            let count = profile.fill_row(dag, reach, bf_mask.row(0), v);
            profile.max_count = profile.max_count.max(count);
        }
        profile
    }

    /// `X(v)` as a set of node indices (all of kind `BF`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the profiled graph.
    #[must_use]
    pub fn delay_row(&self, v: NodeId) -> BitRow<'_> {
        self.rows.row(v.index())
    }

    /// `|X(v)|`, without a popcount sweep.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the profiled graph.
    #[must_use]
    pub fn delay_count(&self, v: NodeId) -> usize {
        self.counts[v.index()] as usize
    }

    /// `b̄(τᵢ) = max_v |X(v)|` (Section 3.1).
    #[must_use]
    pub fn max_delay_count(&self) -> usize {
        self.max_count
    }

    /// Writes `X(v) = C(v) ∪ F'(v)` into row `v` in place, records its
    /// size and returns it.
    fn fill_row(
        &mut self,
        dag: &Dag,
        reach: &Reachability,
        bf_mask: BitRow<'_>,
        v: NodeId,
    ) -> usize {
        let i = v.index();
        // C(v): BF nodes neither preceding nor following v, minus v,
        // written and counted in one pass over the words.
        let mut count =
            self.rows
                .set_row_minus(i, bf_mask, reach.descendants(v), reach.ancestors(v));
        count -= usize::from(self.rows.remove(i, i));
        // F(v) is an ancestor of v, so it was just removed; re-insert
        // it to obtain X(v) for blocking children.
        if let Some(f) = dag.waiting_fork_of(v) {
            count += usize::from(self.rows.insert(i, f.index()));
        }
        self.counts[i] = u32::try_from(count).expect("|X(v)| fits in u32");
        count
    }
}

/// The lazy cells carried by every [`Dag`]. All fields start empty and
/// fill on first use, but for the two `Dag::assemble` seeds: the closure
/// the assembly computed anyway, and the checked WCET sum.
#[derive(Clone, Debug, Default)]
pub(crate) struct DerivedCache {
    pub(crate) volume: OnceLock<u64>,
    pub(crate) critical_path: OnceLock<CriticalPath>,
    pub(crate) reach: OnceLock<Arc<Reachability>>,
    pub(crate) blocking_forks: OnceLock<Vec<NodeId>>,
    pub(crate) bf_antichain: OnceLock<Vec<NodeId>>,
    pub(crate) delays: OnceLock<Arc<DelayProfile>>,
    pub(crate) content_hash: OnceLock<u64>,
}
