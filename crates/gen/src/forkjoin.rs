//! Nested fork–join DAG generation in the style of Melani et al.
//!
//! A task graph is grown by recursive expansion: a *block* is either a
//! terminal node or a fork–join of several branches, each branch a chain
//! of sub-blocks one level deeper. The recursion is capped at
//! `max_depth` (the paper's `d = 2`). A dedicated non-blocking source and
//! sink flank the top-level block, matching the Section 5 convention that
//! endpoints are always of type `NB`.
//!
//! After the shape is fixed, each fork–join region of depth `d` is marked
//! *blocking* with probability `p_BF = d/(d+1)` (deeper regions — the
//! fine-grained parallelism that real libraries guard with condition
//! variables — are more likely blocking), processing regions deepest
//! first and skipping any region that would nest with an already-marked
//! one, as the model forbids nested blocking regions.

use rand::Rng;
use rtpool_graph::Dag;

use crate::error::GenError;
use crate::scratch::DagScratch;

/// How fork–join regions are promoted to blocking (`BF`/`BJ`) regions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockingPolicy {
    /// The paper's rule: a region at nesting depth `d ≥ 1` is blocking
    /// with probability `d/(d+1)`.
    DepthWeighted,
    /// Every region is blocking with the same fixed probability.
    Fixed(f64),
    /// No region is blocking (plain sporadic DAG tasks — the classical
    /// model of Listing 2).
    Never,
}

/// Parameters of the nested fork–join DAG generator.
///
/// The defaults reproduce the paper's setup (`d = 2`, WCET ∈ `[1, 100]`,
/// depth-weighted blocking probability).
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
    /// Maximum recursion depth of fork–join nesting (paper: 2).
    pub max_depth: u32,
    /// Minimum branches of a fork–join region (≥ 2).
    pub min_branches: usize,
    /// Maximum branches of a fork–join region (paper's generator uses up
    /// to 6 parallel branches).
    pub max_branches: usize,
    /// Maximum number of sub-blocks chained inside one branch.
    pub max_sequence: usize,
    /// Probability that a block *below* the depth cap is a terminal node
    /// instead of a nested fork–join. The top-level block (depth 1)
    /// always expands, so every generated task is genuinely parallel —
    /// sequential tasks with UUniFast utilizations above 1 would be
    /// trivially infeasible.
    pub p_terminal: f64,
    /// Inclusive WCET range for every node.
    pub wcet_min: u64,
    /// Inclusive upper end of the WCET range.
    pub wcet_max: u64,
    /// Blocking-region promotion policy.
    pub blocking: BlockingPolicy,
}

impl Default for DagGenConfig {
    fn default() -> Self {
        DagGenConfig {
            max_depth: 2,
            min_branches: 2,
            max_branches: 6,
            max_sequence: 2,
            p_terminal: 0.4,
            wcet_min: 1,
            wcet_max: 100,
            blocking: BlockingPolicy::DepthWeighted,
        }
    }
}

impl DagGenConfig {
    /// Validates the parameter domain.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), GenError> {
        let err = |name: &'static str, message: String| -> Result<(), GenError> {
            Err(GenError::InvalidParameter { name, message })
        };
        if self.max_depth == 0 {
            return err("max_depth", "must be at least 1".into());
        }
        if self.min_branches < 2 {
            return err("min_branches", "a fork needs at least 2 branches".into());
        }
        if self.max_branches < self.min_branches {
            return err(
                "max_branches",
                format!("must be >= min_branches ({})", self.min_branches),
            );
        }
        if self.max_sequence == 0 {
            return err("max_sequence", "must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.p_terminal) {
            return err("p_terminal", "must lie in [0, 1]".into());
        }
        if self.wcet_min == 0 || self.wcet_max < self.wcet_min {
            return err(
                "wcet_max",
                format!(
                    "need 1 <= wcet_min <= wcet_max, got [{}, {}]",
                    self.wcet_min, self.wcet_max
                ),
            );
        }
        if let BlockingPolicy::Fixed(p) = self.blocking {
            if !(0.0..=1.0).contains(&p) {
                return err("blocking", "fixed probability must lie in [0, 1]".into());
            }
        }
        Ok(())
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
    /// without building (or validating) a [`Dag`].
    ///
    /// Consumes the RNG stream exactly as [`DagGenConfig::generate`]
    /// does, so `generate(rng)` and
    /// `{ generate_into(rng, &mut s); s.build() }` produce bit-identical
    /// graphs and leave `rng` in the same state. Query the early
    /// concurrency bound with [`DagScratch::max_delay_count`] and
    /// promote accepted shapes with [`DagScratch::build`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`DagGenConfig::validate`] first for a `Result`).
    pub fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut DagScratch) {
        self.validate().expect("invalid DagGenConfig");
        self.shape::<R, true>(rng, scratch);
    }

    /// The counting pass of a window attempt: draws exactly what
    /// [`DagGenConfig::generate_into`] draws, in the same order, but
    /// records only the region tree, and returns the number of blocking
    /// pairs `|BF|` — what the recording pass's
    /// [`DagScratch::blocking_pair_count`] would be.
    ///
    /// A caller that keeps the attempt rewinds `rng` to where this pass
    /// started and runs `generate_into`; one that rejects it on `|BF|`
    /// alone finds `rng` already where its next attempt begins. `scratch`
    /// holds no graph afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`DagGenConfig::validate`] first for a `Result`).
    pub fn count_blocking_pairs<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> usize {
        self.validate().expect("invalid DagGenConfig");
        self.shape::<R, false>(rng, scratch);
        scratch.blocking_pair_count()
    }

    /// One pass of the shape recursion into `scratch`, for an already
    /// validated configuration. `RECORD` decides what is written down:
    /// nodes, edges, regions and pairs, or only regions and pairs (with
    /// every node index 0). The draws are the same either way; the
    /// `RECORD` branches touch the scratch only.
    fn shape<R: Rng + ?Sized, const RECORD: bool>(&self, rng: &mut R, scratch: &mut DagScratch) {
        scratch.clear();
        let source = self.node::<R, RECORD>(rng, scratch, -1);
        let (entry, exit) = self.block::<R, RECORD>(rng, scratch, 1, -1);
        let sink = self.node::<R, RECORD>(rng, scratch, -1);
        if RECORD {
            scratch.add_edge(source, entry);
            scratch.add_edge(exit, sink);
        }
        self.mark_blocking(rng, scratch);
    }

    /// Draws a node's WCET and records the node created by region
    /// `owner` (`-1` for none); returns its index (0 when not recording).
    fn node<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
        owner: i32,
    ) -> u32 {
        let wcet = rng.gen_range(self.wcet_min..=self.wcet_max);
        if RECORD {
            scratch.add_node(wcet, owner)
        } else {
            0
        }
    }

    /// Recursively emits one block at nesting depth `depth`; returns its
    /// entry and exit nodes.
    fn block<R: Rng + ?Sized, const RECORD: bool>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
        depth: u32,
        parent: i32,
    ) -> (u32, u32) {
        let terminal = depth > self.max_depth || (depth > 1 && rng.gen_bool(self.p_terminal));
        if terminal {
            let v = self.node::<R, RECORD>(rng, scratch, parent);
            return (v, v);
        }
        let fork = self.node::<R, RECORD>(rng, scratch, parent);
        let join = self.node::<R, RECORD>(rng, scratch, parent);
        let region_idx = scratch.push_region(fork, join, depth, parent);
        let region = i32::try_from(region_idx).expect("region count fits in i32");
        let branches = rng.gen_range(self.min_branches..=self.max_branches);
        for _ in 0..branches {
            let blocks = rng.gen_range(1..=self.max_sequence);
            let mut prev_exit = fork;
            for _ in 0..blocks {
                let (entry, exit) = self.block::<R, RECORD>(rng, scratch, depth + 1, region);
                if RECORD {
                    scratch.add_edge(prev_exit, entry);
                }
                prev_exit = exit;
            }
            if RECORD {
                scratch.add_edge(prev_exit, join);
            }
        }
        (fork, join)
    }

    /// Promotes regions to blocking, deepest first, skipping nesting
    /// conflicts. Within one depth regions go in index order, so the walk
    /// draws from the RNG exactly as a stable sort by descending depth
    /// would, without building the order.
    fn mark_blocking<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut DagScratch) {
        // Regions exist only at depths 1..=max_depth (deeper blocks are
        // terminal).
        for depth in (1..=self.max_depth).rev() {
            let p = match self.blocking {
                BlockingPolicy::DepthWeighted => {
                    let d = f64::from(depth);
                    d / (d + 1.0)
                }
                BlockingPolicy::Fixed(p) => p,
                BlockingPolicy::Never => 0.0,
            };
            for i in 0..scratch.regions.len() {
                let region = &scratch.regions[i];
                if region.depth != depth || region.has_marked_descendant {
                    continue;
                }
                if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                    scratch.mark_region(i);
                }
            }
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
        let base = DagGenConfig::default;
        for (cfg, field) in [
            (
                DagGenConfig {
                    max_depth: 0,
                    ..base()
                },
                "max_depth",
            ),
            (
                DagGenConfig {
                    min_branches: 1,
                    ..base()
                },
                "min_branches",
            ),
            (
                DagGenConfig {
                    max_branches: 1,
                    ..base()
                },
                "max_branches",
            ),
            (
                DagGenConfig {
                    max_sequence: 0,
                    ..base()
                },
                "max_sequence",
            ),
            (
                DagGenConfig {
                    p_terminal: 1.5,
                    ..base()
                },
                "p_terminal",
            ),
            (
                DagGenConfig {
                    wcet_min: 0,
                    ..base()
                },
                "wcet_max",
            ),
            (
                DagGenConfig {
                    wcet_min: 10,
                    wcet_max: 5,
                    ..base()
                },
                "wcet_max",
            ),
            (
                DagGenConfig {
                    blocking: BlockingPolicy::Fixed(2.0),
                    ..base()
                },
                "blocking",
            ),
        ] {
            match cfg.validate() {
                Err(GenError::InvalidParameter { name, .. }) => assert_eq!(name, field),
                other => panic!("expected InvalidParameter({field}), got {other:?}"),
            }
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
        let config = DagGenConfig {
            wcet_min: 5,
            wcet_max: 9,
            ..DagGenConfig::default()
        };
        let dag = config.generate(&mut rng(11));
        for v in dag.node_ids() {
            assert!((5..=9).contains(&dag.wcet(v)));
        }
    }

    #[test]
    fn never_policy_yields_plain_dags() {
        let config = DagGenConfig {
            blocking: BlockingPolicy::Never,
            ..DagGenConfig::default()
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
            p_terminal: 0.0, // force nesting
            max_depth: 2,
            max_branches: 2,
            ..DagGenConfig::default()
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
        // Statistically: with max_depth = 2 and forced nesting, depth-2
        // regions are blocked with p = 2/3 and depth-1 regions only when
        // no descendant is marked (rare). Count the kinds over many seeds.
        let config = DagGenConfig {
            p_terminal: 0.0,
            max_depth: 2,
            max_branches: 2,
            max_sequence: 1,
            ..DagGenConfig::default()
        };
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
