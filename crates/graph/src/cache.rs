//! Lazily-memoized derived analyses of an immutable [`Dag`].
//!
//! A `Dag` is frozen at construction, so every derived artifact is a
//! pure function of the graph, computed at most once per graph and
//! shared by every analysis (deadlock checks, global/partitioned RTA,
//! Algorithm 1, the linter, and the experiment harness). Each lives in
//! one place, chosen by what it depends on:
//!
//! * on the WCETs: the volume, the critical-path length and the content
//!   hash, the three `u64` cells of [`DerivedCache`] on the `Dag` itself;
//! * on edges and blocking pairs only: the reachability closure (made
//!   at assembly), the delay profile, the blocking forks and their
//!   maximum antichain (made on first use), all in the graph's shared
//!   topology, which a clone and a WCET-only
//!   [`Dag::edit`](crate::Dag::edit) carry to the next graph version at
//!   refcount cost. Any other edit is a rebuild and computes its own.
//!
//! Because the graph is immutable there is no invalidation: a cell, once
//! filled, stays valid for the lifetime of the `Dag` (clones carry the
//! filled cells along). [`Dag::clone_uncached`] produces a structural
//! copy with every cell empty and a topology of its own, whose closure
//! is computed afresh, for benchmarking the miss path and for coherence
//! tests.
//!
//! The two `O(|V|²/64)` artifacts — reachability and the delay profile —
//! are flat bit matrices: one row-major `Vec<u64>` per relation (stride
//! `⌈|V|/64⌉` words), whose rows are written in place and handed out as
//! borrowed [`BitRow`] views, so each is one heap block whatever the
//! node count.

use std::sync::OnceLock;

use crate::bitset::{BitMatrix, BitRow};
use crate::dag::Dag;
use crate::node::NodeId;
use crate::reach::Reachability;

/// The per-node delay sets `X(v)` of the paper's Section 3.1, stored as
/// the rows of one flat bit matrix over the node indices, plus the
/// derived bound `b̄(τᵢ) = max_v |X(v)|`.
///
/// `X(v) = C(v) ∪ F'(v)`: the `BF` nodes subject to no precedence
/// constraint with `v` (Eq. 2), plus — for a `BC` node — the fork waiting
/// for `v`. The rows are computed word-parallel, in place, from the
/// reachability closure (`O(|V|²/64)` for the whole profile): one pass
/// over the words for every `C(v)`, one over the regions' inner nodes for
/// `F'(v)`, and a popcount per row for `b̄`.
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
///
/// The matrix has one row more than the graph has nodes: row `v < n` is
/// `X(v)` and row `n` the mask of every `BF` node, which the `C(v)` pass
/// reads. [`DelayProfile::delay_row`] refuses that last row, because it
/// is no node's.
#[derive(Clone, Debug)]
pub struct DelayProfile {
    rows: BitMatrix,
    max_count: usize,
}

impl DelayProfile {
    pub(crate) fn new(dag: &Dag, reach: &Reachability) -> Self {
        let n = dag.node_count();
        let mut rows = BitMatrix::with_rows(n + 1, n);
        let regions = dag.blocking_regions();
        for region in regions {
            rows.insert(n, region.fork().index());
        }
        // C(v): BF nodes neither preceding nor following v, minus v.
        rows.set_rows_outside(reach.matrix());
        // F'(v): a BC node also waits for its fork, an ancestor the rows
        // above left out.
        for region in regions {
            for &x in region.inner() {
                rows.insert(x.index(), region.fork().index());
            }
        }
        let max_count = (0..n).map(|v| rows.row(v).len()).max().unwrap_or(0);
        DelayProfile { rows, max_count }
    }

    /// `X(v)` as a set of node indices (all of kind `BF`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the profiled graph.
    #[must_use]
    pub fn delay_row(&self, v: NodeId) -> BitRow<'_> {
        let n = self.rows.node_count();
        assert!(
            v.index() < n,
            "{v} is out of range for a profile of {n} nodes"
        );
        self.rows.row(v.index())
    }

    /// `|X(v)|`: a popcount over the row's `⌈|V|/64⌉` words.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the profiled graph.
    #[must_use]
    pub fn delay_count(&self, v: NodeId) -> usize {
        self.delay_row(v).len()
    }

    /// `b̄(τᵢ) = max_v |X(v)|` (Section 3.1).
    #[must_use]
    pub fn max_delay_count(&self) -> usize {
        self.max_count
    }
}

/// The WCET-dependent cells carried by every [`Dag`]. All start empty
/// and fill on first use, but for the `Dag::assemble` seed: the checked
/// WCET sum.
#[derive(Clone, Debug, Default)]
pub(crate) struct DerivedCache {
    pub(crate) volume: OnceLock<u64>,
    pub(crate) critical_path_length: OnceLock<u64>,
    pub(crate) content_hash: OnceLock<u64>,
}

#[cfg(test)]
mod tests {
    use crate::builder::DagBuilder;
    use crate::node::NodeId;

    #[test]
    #[should_panic(expected = "out of range")]
    fn the_mask_row_is_not_a_nodes_row() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[2, 2], 1, true).unwrap();
        let dag = b.build().unwrap();
        let _ = dag.delay_profile().delay_row(NodeId::from_index(4));
    }
}
