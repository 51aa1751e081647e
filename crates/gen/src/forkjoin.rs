//! Nested fork–join DAG generation in the style of Melani et al.
//!
//! A task graph is the paper's grammar at its fixed depth `d = 2`: a
//! non-blocking source and sink (Section 5's endpoints are always `NB`)
//! flank one top-level fork–join region. Each of its branches is a chain
//! of blocks, and a block is a terminal node or an *inner* fork–join
//! region whose branches are chains of terminal nodes.
//!
//! After the shape is fixed, each fork–join region of depth `d` is marked
//! *blocking* with probability `p_BF = d/(d+1)` (deeper regions — the
//! fine-grained parallelism that real libraries guard with condition
//! variables — are more likely blocking). Inner regions are tossed first,
//! in the order they were drawn; the top region is tossed only when none
//! of them came up, as the model forbids nested blocking regions.
//!
//! The same pass returns the graph's `b̄ = max_v |X(v)|` (Section 3.1)
//! from what it drew, without the graph: `0` when no region is blocking,
//! `1` when only the top region is (each node inside it waits for its
//! fork), and otherwise `k − min_b m_b + [min_b m_b > 0]`, where `k`
//! blocking inner regions lie `m_b` to top-level branch `b`. A node of
//! branch `b` is ordered with exactly `b`'s blocking forks, and one
//! strictly inside a blocking region also waits for its own fork.

use rand::Rng;
use rtpool_graph::Dag;

use crate::error::GenError;
use crate::scratch::DagScratch;

/// Branches of one fork–join region: at least 2, up to the paper
/// generator's 6.
const BRANCHES: std::ops::RangeInclusive<usize> = 2..=6;
/// Most blocks chained inside one branch.
const MAX_SEQUENCE: usize = 2;
/// Probability that a block of a top-level branch is a terminal node
/// instead of an inner fork–join. The top-level block always expands,
/// so every generated task is genuinely parallel — sequential tasks with
/// UUniFast utilizations above 1 would be trivially infeasible.
const P_TERMINAL: f64 = 0.4;
/// Every node's WCET range (the paper's `[0, 100]` without the
/// degenerate zero).
const WCET: std::ops::RangeInclusive<u64> = 1..=100;

/// Inner fork–join regions of one graph, at most: `MAX_SEQUENCE` per
/// top-level branch.
pub(crate) const MAX_REGIONS: usize = *BRANCHES.end() * MAX_SEQUENCE;
/// Nodes of one graph, at most: source, sink, the top fork and join,
/// and per inner region its fork, its join and a chain of
/// `MAX_SEQUENCE` nodes per branch.
pub(crate) const MAX_NODES: usize = 4 + MAX_REGIONS * (2 + *BRANCHES.end() * MAX_SEQUENCE);
/// Edges of one graph, at most: two at the endpoints, `MAX_SEQUENCE + 1`
/// per chain of a top-level branch, and as many per chain of an inner
/// region.
pub(crate) const MAX_EDGES: usize =
    2 + (*BRANCHES.end() + MAX_REGIONS * *BRANCHES.end()) * (MAX_SEQUENCE + 1);

/// How fork–join regions are promoted to blocking (`BF`/`BJ`) regions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockingPolicy {
    /// The paper's rule: a region at nesting depth `d ≥ 1` is blocking
    /// with probability `d/(d+1)`.
    DepthWeighted,
    /// Every region is blocking with the same fixed probability; `0.0`
    /// gives plain sporadic DAG tasks (the classical model of Listing 2).
    Fixed(f64),
}

/// Parameters of the nested fork–join DAG generator.
///
/// The shape is the paper's (`d = 2`, 2–6 branches, WCET ∈ `[1, 100]`);
/// only the blocking policy is chosen, depth-weighted by default.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtpool_gen::DagGenConfig;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let dag = DagGenConfig::default().generate(&mut rng);
/// dag.validate_model().unwrap();
/// dag.validate_endpoints_non_blocking().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DagGenConfig {
    /// Blocking-region promotion policy.
    pub blocking: BlockingPolicy,
}

impl Default for DagGenConfig {
    fn default() -> Self {
        DagGenConfig {
            blocking: BlockingPolicy::DepthWeighted,
        }
    }
}

impl DagGenConfig {
    /// Validates the parameter domain.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] naming `blocking` when a
    /// [`BlockingPolicy::Fixed`] probability lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), GenError> {
        match self.blocking {
            BlockingPolicy::Fixed(p) if !(0.0..=1.0).contains(&p) => {
                Err(GenError::InvalidParameter {
                    name: "blocking",
                    message: "fixed probability must lie in [0, 1]".into(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Generates one task graph.
    ///
    /// Convenience wrapper over [`DagGenConfig::generate_into`] with a
    /// fresh [`DagScratch`]; rejection-sampling loops should hold their
    /// own scratch and call `generate_into` directly so rejected
    /// attempts allocate nothing and skip the full graph build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`DagGenConfig::validate`] first for a `Result`).
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dag {
        let mut scratch = DagScratch::new();
        self.generate_into(rng, &mut scratch);
        scratch.build()
    }

    /// Generates one task graph's *shape* into reusable scratch buffers
    /// without building (or validating) a [`Dag`], and returns its
    /// `b̄` — what the built graph's
    /// [`DelayProfile::max_delay_count`](rtpool_graph::DelayProfile::max_delay_count)
    /// will be.
    ///
    /// Consumes the RNG stream exactly as [`DagGenConfig::generate`]
    /// does, so `generate(rng)` and
    /// `{ generate_into(rng, &mut s); s.build() }` produce bit-identical
    /// graphs and leave `rng` in the same state. Promote accepted shapes
    /// with [`DagScratch::build`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`DagGenConfig::validate`] first for a `Result`).
    pub fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut DagScratch) -> usize {
        self.validate().expect("invalid DagGenConfig");
        self.shape::<R, true>(rng, scratch)
    }

    /// Draws exactly what [`DagGenConfig::generate_into`] draws, in the
    /// same order, writes nothing, and returns the drawn graph's `b̄`.
    ///
    /// A window attempt is judged on this alone: one that is rejected
    /// leaves `rng` where the next attempt begins, and one that is kept
    /// is drawn again by `generate_into` from a copy of `rng` taken
    /// before the probe.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`DagGenConfig::validate`] first for a `Result`).
    #[must_use = "the probe's only output is the returned b̄"]
    pub fn probe_max_delay_count<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.validate().expect("invalid DagGenConfig");
        // Nothing is written, so the empty scratch never allocates.
        self.shape::<R, false>(rng, &mut DagScratch::new())
    }

    /// One pass of the grammar, for an already validated configuration;
    /// returns the drawn graph's `b̄`. `RECORD` decides whether nodes,
    /// edges, regions and pairs are written into `scratch` (cleared
    /// first) or nothing is. The draws are the same either way; the
    /// `RECORD` branches touch the scratch only.
    pub(crate) fn shape<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> usize {
        if RECORD {
            scratch.clear();
        }
        let source = self.node::<R, RECORD>(rng, scratch);
        let fork = self.node::<R, RECORD>(rng, scratch);
        let join = self.node::<R, RECORD>(rng, scratch);
        let branches = rng.gen_range(BRANCHES);
        // Inner regions drawn in each top-level branch.
        let mut inner = [0usize; *BRANCHES.end()];
        for regions in &mut inner[..branches] {
            let mut prev = fork;
            for _ in 0..rng.gen_range(1..=MAX_SEQUENCE) {
                let (entry, exit) = if rng.gen_bool(P_TERMINAL) {
                    let v = self.node::<R, RECORD>(rng, scratch);
                    (v, v)
                } else {
                    *regions += 1;
                    self.inner_region::<R, RECORD>(rng, scratch)
                };
                if RECORD {
                    scratch.add_edge(prev, entry);
                }
                prev = exit;
            }
            if RECORD {
                scratch.add_edge(prev, join);
            }
        }
        let sink = self.node::<R, RECORD>(rng, scratch);
        if RECORD {
            scratch.add_edge(source, fork);
            scratch.add_edge(join, sink);
        }
        self.mark_blocking::<R, RECORD>(rng, scratch, (fork, join), &inner[..branches])
    }

    /// Draws a node's WCET and records the node; returns its index (0
    /// when not recording).
    fn node<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> u32 {
        let wcet = rng.gen_range(WCET);
        if RECORD {
            scratch.add_node(wcet)
        } else {
            0
        }
    }

    /// Draws an inner fork–join region, whose branches are chains of
    /// terminal nodes; returns its fork and join.
    fn inner_region<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> (u32, u32) {
        let fork = self.node::<R, RECORD>(rng, scratch);
        let join = self.node::<R, RECORD>(rng, scratch);
        if RECORD {
            scratch.push_region(fork, join);
        }
        for _ in 0..rng.gen_range(BRANCHES) {
            let mut prev = fork;
            for _ in 0..rng.gen_range(1..=MAX_SEQUENCE) {
                let v = self.node::<R, RECORD>(rng, scratch);
                if RECORD {
                    scratch.add_edge(prev, v);
                }
                prev = v;
            }
            if RECORD {
                scratch.add_edge(prev, join);
            }
        }
        (fork, join)
    }

    /// Promotes regions to blocking and returns `b̄` (see the module
    /// docs). `inner[b]` counts the inner regions of top-level branch
    /// `b`; they were drawn, and are tossed, branch by branch.
    fn mark_blocking<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
        (fork, join): (u32, u32),
        inner: &[usize],
    ) -> usize {
        let p = self.probability(2);
        let (mut region, mut marked, mut fewest) = (0, 0, usize::MAX);
        for &regions in inner {
            let mut in_branch = 0;
            for _ in 0..regions {
                if p > 0.0 && rng.gen_bool(p) {
                    in_branch += 1;
                    if RECORD {
                        scratch.mark_region(region);
                    }
                }
                region += 1;
            }
            marked += in_branch;
            fewest = fewest.min(in_branch);
        }
        if marked > 0 {
            return marked - fewest + usize::from(fewest > 0);
        }
        let p = self.probability(1);
        if p > 0.0 && rng.gen_bool(p) {
            if RECORD {
                scratch.add_pair(fork, join);
            }
            return 1;
        }
        0
    }

    /// The probability that a region at nesting depth `depth` (the top
    /// region is at depth 1) is blocking.
    fn probability(&self, depth: u32) -> f64 {
        match self.blocking {
            BlockingPolicy::DepthWeighted => {
                let d = f64::from(depth);
                d / (d + 1.0)
            }
            BlockingPolicy::Fixed(p) => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rtpool_graph::NodeKind;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn defaults_are_valid() {
        DagGenConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_parameters_rejected() {
        let config = DagGenConfig {
            blocking: BlockingPolicy::Fixed(2.0),
        };
        match config.validate() {
            Err(GenError::InvalidParameter { name, .. }) => assert_eq!(name, "blocking"),
            other => panic!("expected InvalidParameter(blocking), got {other:?}"),
        }
        // A single windowed graph refuses it too, instead of panicking.
        let window = crate::ConcurrencyWindow::around(8, 6);
        let graph = crate::TaskSetConfig::new(1, 1.0, config).with_concurrency_window(window);
        match graph.generate_dag(&mut rng(0)) {
            Err(GenError::InvalidParameter { name, .. }) => assert_eq!(name, "blocking"),
            other => panic!("expected InvalidParameter(blocking), got {other:?}"),
        }
    }

    #[test]
    fn generated_graphs_always_validate() {
        let config = DagGenConfig::default();
        for seed in 0..200 {
            let dag = config.generate(&mut rng(seed));
            dag.validate_model().unwrap();
            dag.validate_endpoints_non_blocking().unwrap();
            assert!(dag.node_count() >= 3);
        }
    }

    #[test]
    fn wcets_respect_range() {
        let config = DagGenConfig::default();
        for seed in 0..30 {
            let dag = config.generate(&mut rng(seed));
            assert!(dag.node_ids().all(|v| WCET.contains(&dag.wcet(v))));
        }
    }

    #[test]
    fn never_policy_yields_plain_dags() {
        let config = DagGenConfig {
            blocking: BlockingPolicy::Fixed(0.0),
        };
        for seed in 0..30 {
            let dag = config.generate(&mut rng(seed));
            assert!(dag.blocking_regions().is_empty());
            assert!(dag.node_ids().all(|v| dag.kind(v) == NodeKind::NonBlocking));
        }
    }

    #[test]
    fn fixed_one_marks_all_non_nested() {
        let config = DagGenConfig {
            blocking: BlockingPolicy::Fixed(1.0),
        };
        for seed in 0..30 {
            let dag = config.generate(&mut rng(seed));
            // With p = 1 deepest-first, exactly the innermost regions are
            // blocking, and validation (no nesting) still passes.
            assert!(!dag.blocking_regions().is_empty());
            dag.validate_model().unwrap();
        }
    }

    #[test]
    fn depth_weighted_prefers_deeper_regions() {
        // Statistically: depth-2 regions are blocked with p = 2/3 and
        // depth-1 regions only when no descendant is marked. Count the
        // kinds over many seeds.
        let config = DagGenConfig::default();
        let mut blocking = 0usize;
        let mut total_regions = 0usize;
        for seed in 0..100 {
            let dag = config.generate(&mut rng(seed));
            blocking += dag.blocking_regions().len();
            // Count all fork-join regions structurally: forks are nodes
            // with >1 successors.
            total_regions += dag
                .node_ids()
                .filter(|&v| dag.successors(v).len() > 1)
                .count();
        }
        assert!(blocking > 0);
        assert!(blocking < total_regions, "not every region may be blocking");
    }

    #[test]
    fn determinism_per_seed() {
        let config = DagGenConfig::default();
        let a = config.generate(&mut rng(77));
        let b = config.generate(&mut rng(77));
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.volume(), b.volume());
        assert_eq!(a.blocking_regions().len(), b.blocking_regions().len());
    }
}
