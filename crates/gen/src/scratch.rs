//! Reusable generation scratch buffers and the early concurrency check.
//!
//! The Figure 2(a)/(b) harness rejection-samples task graphs until the
//! concurrency floor `l̄ = m − b̄` lands in a window — up to tens of
//! thousands of attempts per accepted sample. The original path built a
//! full [`Dag`] (cycle/region validation, node-kind derivation, the
//! transitive-reachability closure, and the derived-artifact cache) for
//! every attempt just to read one number off it.
//!
//! [`DagScratch`] replaces that: the generator writes the raw shape
//! (WCETs, edges in insertion order, blocking pairs) into flat reusable
//! buffers, and [`DagScratch::max_delay_count`] computes `b̄` directly
//! from the node types with a per-blocking-fork BFS —
//! `O(|BF|·(|V|+|E|))` with zero allocation after warm-up, versus the
//! `O(|V|²/64)`-plus-allocations full build. Most attempts do not even
//! get that far: every `X(v)` is a subset of `BF`, so
//! `b̄ ≤ |BF|` = [`DagScratch::blocking_pair_count`], and an attempt whose
//! `m − |BF|` already lies above the window is rejected on the count
//! alone — with Figure 2(a)/(b)'s settings, ~98 % of all rejections. So
//! a window attempt first runs the shape recursion as a *counting pass*
//! ([`DagGenConfig::count_blocking_pairs`](crate::DagGenConfig::count_blocking_pairs)):
//! the same draws, but only the region tree is written down. Only when
//! `|BF|` passes is the RNG rewound and the shape recorded in full.
//! Only *accepted* attempts are promoted to a real `Dag` via
//! [`DagScratch::build`], which hands the recorded lists to
//! [`Dag::from_lists`] in their insertion order, so the built graph is
//! bit-identical (node ids, adjacency order, derived artifacts) to one
//! built from the same calls through a `DagBuilder`.
//!
//! The agreement of the early `b̄` with the post-build
//! [`DelayProfile`](rtpool_graph::DelayProfile) value, `b̄ ≤ |BF|`, and
//! the counting pass's agreement with the recording pass are pinned by
//! property tests in `tests/scratch_agreement.rs`.

use rtpool_graph::{fill_csr, Dag, NodeId};

/// One fork–join region recorded during shape generation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegionScratch {
    /// Fork node index.
    pub(crate) fork: u32,
    /// Join node index.
    pub(crate) join: u32,
    /// Nesting depth (top-level block = 1).
    pub(crate) depth: u32,
    /// Index of the enclosing region, or `-1` at top level.
    pub(crate) parent: i32,
    /// A (transitive) descendant region is already marked blocking.
    pub(crate) has_marked_descendant: bool,
    /// This region was promoted to a blocking (`BF`/`BJ`) region.
    pub(crate) marked: bool,
}

/// Reusable buffers for one in-flight generated graph.
///
/// Create once, pass to
/// [`DagGenConfig::generate_into`](crate::DagGenConfig::generate_into)
/// for every attempt; all buffers are cleared (capacity kept) at the
/// start of each generation, so a rejection-sampling loop performs no
/// per-attempt heap allocation once the buffers have grown to the
/// workload's typical graph size.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtpool_gen::{DagGenConfig, DagScratch};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let mut scratch = DagScratch::new();
/// let config = DagGenConfig::default();
/// config.generate_into(&mut rng, &mut scratch);
/// let b_bar = scratch.max_delay_count();
/// let dag = scratch.build();
/// assert_eq!(b_bar, dag.delay_profile().max_delay_count());
/// ```
#[derive(Debug, Default)]
pub struct DagScratch {
    wcets: Vec<u64>,
    /// Edges in insertion order (handed verbatim to [`Dag::from_lists`]).
    edges: Vec<(NodeId, NodeId)>,
    /// Blocking pairs in declaration order.
    pairs: Vec<(NodeId, NodeId)>,
    /// Region that created each node (`-1` for source/sink).
    owner: Vec<i32>,
    pub(crate) regions: Vec<RegionScratch>,
    // ---- scratch for the early b̄ computation ----
    /// CSR offsets/adjacency, refilled per query from `edges`.
    succ_off: Vec<u32>,
    succ_adj: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred_adj: Vec<NodeId>,
    /// Per node: how many blocking forks are ordered with it (or are it).
    comparable: Vec<u32>,
    /// BFS visited stamps (monotone, avoids clearing).
    seen: Vec<u32>,
    stamp: u32,
    queue: Vec<u32>,
    /// Per region: it or an ancestor region is marked blocking.
    region_blocked: Vec<bool>,
}

impl DagScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        DagScratch::default()
    }

    /// Nodes recorded by the last generation.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Edges recorded by the last generation.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Blocking pairs (`BF`/`BJ` regions) recorded by the last generation.
    #[must_use]
    pub fn blocking_pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Clears the shape buffers, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.wcets.clear();
        self.edges.clear();
        self.pairs.clear();
        self.owner.clear();
        self.regions.clear();
    }

    /// Records a node created by region `owner` (`-1` for none) and
    /// returns its index.
    pub(crate) fn add_node(&mut self, wcet: u64, owner: i32) -> u32 {
        let id = u32::try_from(self.wcets.len()).expect("node count fits in u32");
        self.wcets.push(wcet);
        self.owner.push(owner);
        id
    }

    /// Records an edge `from -> to`.
    pub(crate) fn add_edge(&mut self, from: u32, to: u32) {
        self.edges.push((node(from), node(to)));
    }

    /// Records a fork–join region and returns its index.
    pub(crate) fn push_region(&mut self, fork: u32, join: u32, depth: u32, parent: i32) -> usize {
        self.regions.push(RegionScratch {
            fork,
            join,
            depth,
            parent,
            has_marked_descendant: false,
            marked: false,
        });
        self.regions.len() - 1
    }

    /// Promotes region `idx` to blocking: records the `BF`/`BJ` pair and
    /// propagates the marked-descendant flag up the region tree.
    pub(crate) fn mark_region(&mut self, idx: usize) {
        let region = self.regions[idx];
        self.pairs.push((node(region.fork), node(region.join)));
        self.regions[idx].marked = true;
        let mut cursor = region.parent;
        while cursor >= 0 {
            let a = cursor as usize;
            if self.regions[a].has_marked_descendant {
                break;
            }
            self.regions[a].has_marked_descendant = true;
            cursor = self.regions[a].parent;
        }
    }

    /// `b̄ = max_v |X(v)|` of the recorded shape, computed without
    /// building a [`Dag`].
    ///
    /// `X(v)` is the delay set of the paper's Section 3.1: the `BF`
    /// nodes subject to no precedence constraint with `v`, plus — for a
    /// node strictly inside a blocking region — the fork waiting for it.
    /// The count is obtained per node as
    /// `|BF| − #{forks ordered with v (or equal to v)}`, plus one for
    /// blocking children; orderings come from one forward and one
    /// backward BFS per blocking fork over a scratch CSR of the edge
    /// list (`rtpool_graph::fill_csr` into buffers kept across calls).
    /// Agreement with the post-build
    /// [`DelayProfile`](rtpool_graph::DelayProfile) is property-tested.
    #[must_use = "the window verdict is derived from the returned bound"]
    pub fn max_delay_count(&mut self) -> usize {
        let n = self.wcets.len();
        let k = self.pairs.len();
        if n == 0 || k == 0 {
            return 0;
        }
        let edges = self.edges.iter().copied();
        fill_csr(n, edges.clone(), &mut self.succ_off, &mut self.succ_adj);
        fill_csr(
            n,
            edges.map(|(from, to)| (to, from)),
            &mut self.pred_off,
            &mut self.pred_adj,
        );
        self.comparable.clear();
        self.comparable.resize(n, 0);
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        for fi in 0..k {
            let fork = self.pairs[fi].0.index();
            self.comparable[fork] += 1;
            self.sweep(fork, true);
            self.sweep(fork, false);
        }
        // region_blocked[r]: r or a region enclosing r is marked, i.e.
        // every node created inside r is a blocking child (`BC`).
        // Regions are recorded parent-before-child, so one forward pass
        // resolves the tree.
        self.region_blocked.clear();
        self.region_blocked.resize(self.regions.len(), false);
        for i in 0..self.regions.len() {
            let r = &self.regions[i];
            self.region_blocked[i] =
                r.marked || (r.parent >= 0 && self.region_blocked[r.parent as usize]);
        }
        let mut max = 0usize;
        for v in 0..n {
            let owner = self.owner[v];
            let is_bc = owner >= 0 && self.region_blocked[owner as usize];
            let count = k - self.comparable[v] as usize + usize::from(is_bc);
            max = max.max(count);
        }
        max
    }

    /// Marks every strict descendant (`forward`) or ancestor of `from`
    /// as comparable with one more blocking fork.
    // Index loop: iterating `adj[lo..hi]` would hold an immutable borrow
    // of `self` across the `self.seen` / `self.queue` writes below.
    #[allow(clippy::needless_range_loop)]
    fn sweep(&mut self, from: usize, forward: bool) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.queue.clear();
        self.queue.push(from as u32);
        self.seen[from] = stamp;
        while let Some(v) = self.queue.pop() {
            let (off, adj) = if forward {
                (&self.succ_off, &self.succ_adj)
            } else {
                (&self.pred_off, &self.pred_adj)
            };
            let lo = off[v as usize] as usize;
            let hi = off[v as usize + 1] as usize;
            for i in lo..hi {
                let w = adj[i].index();
                if self.seen[w] != stamp {
                    self.seen[w] = stamp;
                    self.comparable[w] += 1;
                    self.queue.push(w as u32);
                }
            }
        }
    }

    /// Promotes the recorded shape to a validated [`Dag`]: the node,
    /// edge and pair lists go to [`Dag::from_lists`] in their insertion
    /// order, so every row, id and derived artifact is what the same
    /// lists give by any other route.
    ///
    /// # Panics
    ///
    /// Panics if the scratch is empty (nothing generated into it); the
    /// fork–join generator itself always records a valid shape.
    #[must_use]
    pub fn build(&self) -> Dag {
        assert!(
            !self.wcets.is_empty(),
            "DagScratch::build on an empty scratch: generate into it first"
        );
        Dag::from_lists(&self.wcets, &self.edges, &self.pairs)
            .expect("generated fork-join graphs always satisfy the model")
    }
}

fn node(index: u32) -> NodeId {
    NodeId::from_index(index as usize)
}
