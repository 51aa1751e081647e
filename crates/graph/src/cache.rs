//! Lazily-memoized derived analyses of an immutable [`Dag`].
//!
//! A `Dag` is frozen at construction, so every derived artifact — volume,
//! path metrics, the transitive-reachability closure, blocking-fork
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
//! and a closure two, whatever the node count, where one owned bit set
//! per node per relation used to make filling and freeing the cache
//! `O(|V|)` allocator calls. Both are held behind [`Arc`] so the
//! incremental edit layer ([`Dag::edit`](crate::Dag::edit)) can share
//! them across graph versions: a WCET-only edit carries both forward at
//! refcount cost, and a structural edit clones the inner value once (one
//! `memcpy` per matrix) and patches only the dirty rows.

use std::sync::{Arc, OnceLock};

use crate::bitset::{BitMatrix, BitRow, BitSet};
use crate::dag::Dag;
use crate::node::{NodeId, NodeKind};
use crate::paths::{CriticalPath, PathMetrics};
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
        let bf_mask = bf_mask_of(dag);
        for v in dag.node_ids() {
            profile.fill_row(dag, reach, &bf_mask, v);
        }
        profile.refresh_max();
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

    /// Grows the profile to cover `new_count` nodes. The appended rows
    /// are placeholders; callers must list the new indices as dirty in a
    /// subsequent [`DelayProfile::repatch`].
    pub(crate) fn grow(&mut self, new_count: usize) {
        self.rows.grow(new_count);
        self.counts.resize(new_count, 0);
    }

    /// Recomputes the rows of `dirty` node indices against the (already
    /// patched) `dag` and `reach`, then refreshes `b̄`. Cost is one
    /// `O(|V|/64)` sweep per dirty node — the whole-profile rebuild only
    /// when every node is dirty.
    pub(crate) fn repatch(&mut self, dag: &Dag, reach: &Reachability, dirty: &[usize]) {
        let bf_mask = bf_mask_of(dag);
        for &i in dirty {
            self.fill_row(dag, reach, &bf_mask, NodeId::from_index(i));
        }
        self.refresh_max();
    }

    /// Adds or clears the `fork` column across all rows after a
    /// blocking-flag toggle. Reachability is unchanged by a toggle, so
    /// membership of `fork` in `X(v)` is `C`-concurrency with `v` (or
    /// `v` waiting on `fork`), evaluated in `O(1)` per row.
    pub(crate) fn toggle_fork(&mut self, dag: &Dag, reach: &Reachability, fork: NodeId, on: bool) {
        let f = fork.index();
        for i in 0..self.counts.len() {
            let v = NodeId::from_index(i);
            if on {
                let member = reach.are_concurrent(fork, v) || dag.waiting_fork_of(v) == Some(fork);
                if member && self.rows.insert(i, f) {
                    self.counts[i] += 1;
                }
            } else if self.rows.remove(i, f) {
                self.counts[i] -= 1;
            }
        }
        self.refresh_max();
    }

    /// Recomputes `max_count` from the per-row counts (`O(|V|)`).
    pub(crate) fn refresh_max(&mut self) {
        self.max_count = self.counts.iter().map(|&c| c as usize).max().unwrap_or(0);
    }

    /// Writes `X(v) = C(v) ∪ F'(v)` into row `v` in place and records
    /// its size.
    fn fill_row(&mut self, dag: &Dag, reach: &Reachability, bf_mask: &BitSet, v: NodeId) {
        let i = v.index();
        // C(v): BF nodes neither preceding nor following v, minus v.
        self.rows.set_row(i, bf_mask.as_row());
        self.rows.difference_row(i, reach.descendants(v));
        self.rows.difference_row(i, reach.ancestors(v));
        self.rows.remove(i, i);
        // F(v) is an ancestor of v, so it was just removed; re-insert
        // it to obtain X(v) for blocking children.
        if let Some(f) = dag.waiting_fork_of(v) {
            self.rows.insert(i, f.index());
        }
        self.counts[i] = u32::try_from(self.rows.row(i).len()).expect("|X(v)| fits in u32");
    }
}

/// Bitset of the `BF` node indices of `dag`.
fn bf_mask_of(dag: &Dag) -> BitSet {
    let mut bf_mask = BitSet::new(dag.node_count());
    for v in dag.node_ids() {
        if dag.kind(v) == NodeKind::BlockingFork {
            bf_mask.insert(v.index());
        }
    }
    bf_mask
}

/// The lazy cells carried by every [`Dag`]. All fields start empty (or
/// pre-seeded by the builder, which computes reachability anyway during
/// validation) and fill on first use.
#[derive(Clone, Debug, Default)]
pub(crate) struct DerivedCache {
    pub(crate) volume: OnceLock<u64>,
    pub(crate) metrics: OnceLock<PathMetrics>,
    pub(crate) critical_path: OnceLock<CriticalPath>,
    pub(crate) reach: OnceLock<Arc<Reachability>>,
    pub(crate) blocking_forks: OnceLock<Vec<NodeId>>,
    pub(crate) bf_antichain: OnceLock<Vec<NodeId>>,
    pub(crate) delays: OnceLock<Arc<DelayProfile>>,
    pub(crate) content_hash: OnceLock<u64>,
}

impl DerivedCache {
    /// A cache whose reachability cell is pre-filled — the builder
    /// computes the closure while validating blocking regions, so the
    /// finished graph never recomputes it.
    pub(crate) fn with_reachability(reach: Reachability) -> Self {
        let cache = DerivedCache::default();
        let _ = cache.reach.set(Arc::new(reach));
        cache
    }
}
