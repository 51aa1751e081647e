//! Reusable generation scratch buffers.
//!
//! The Figure 2(a)/(b) harness rejection-samples task graphs until the
//! concurrency floor `l̄ = m − b̄` lands in a window — up to tens of
//! thousands of attempts per accepted sample. An attempt is judged by
//! [`DagGenConfig::probe_max_delay_count`](crate::DagGenConfig::probe_max_delay_count),
//! which draws the graph, writes nothing and returns its exact `b̄`. Only
//! the accepted attempt is drawn again into a [`DagScratch`] (from a copy
//! of the RNG taken before its probe) and promoted to a real `Dag` by
//! [`DagScratch::build`], which hands the recorded lists to
//! [`Dag::from_lists`] in their insertion order, so the built graph is
//! bit-identical (node ids, adjacency order, derived artifacts) to one
//! built from the same calls through a `DagBuilder`.
//!
//! `tests/scratch_agreement.rs` holds the probe's `b̄` and next RNG word
//! to the recording pass, to the built graph's
//! [`DelayProfile`](rtpool_graph::DelayProfile) and to the paper-literal
//! model in `rtpool-oracle`.

use rtpool_graph::{Dag, NodeId};

use crate::forkjoin::{MAX_EDGES, MAX_NODES, MAX_REGIONS};

/// Reusable buffers for one in-flight generated graph.
///
/// Create once, pass to
/// [`DagGenConfig::generate_into`](crate::DagGenConfig::generate_into)
/// for every attempt; all buffers are cleared (capacity kept) at the
/// start of each recording. The first recording gives every buffer room
/// for the largest graph the generator draws, so a scratch calls the
/// allocator four times in its life, and a rejection-sampling loop none
/// per attempt.
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
/// let b_bar = config.generate_into(&mut rng, &mut scratch);
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
    /// Fork and join of each inner fork–join region, in drawing order.
    regions: Vec<(NodeId, NodeId)>,
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

    /// Clears the shape buffers, keeping their capacity, which is room
    /// for the largest generated graph from the first call on.
    pub(crate) fn clear(&mut self) {
        self.wcets.clear();
        self.edges.clear();
        self.pairs.clear();
        self.regions.clear();
        self.wcets.reserve(MAX_NODES);
        self.edges.reserve(MAX_EDGES);
        self.pairs.reserve(MAX_REGIONS);
        self.regions.reserve(MAX_REGIONS);
    }

    /// Records a node and returns its index.
    pub(crate) fn add_node(&mut self, wcet: u64) -> u32 {
        let id = u32::try_from(self.wcets.len()).expect("node count fits in u32");
        self.wcets.push(wcet);
        id
    }

    /// Records an edge `from -> to`.
    pub(crate) fn add_edge(&mut self, from: u32, to: u32) {
        self.edges.push((node(from), node(to)));
    }

    /// Records an inner fork–join region.
    pub(crate) fn push_region(&mut self, fork: u32, join: u32) {
        self.regions.push((node(fork), node(join)));
    }

    /// Promotes inner region `idx` to blocking.
    pub(crate) fn mark_region(&mut self, idx: usize) {
        self.pairs.push(self.regions[idx]);
    }

    /// Records the blocking pair `(fork, join)`.
    pub(crate) fn add_pair(&mut self, fork: u32, join: u32) {
        self.pairs.push((node(fork), node(join)));
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

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::{BlockingPolicy, DagGenConfig};

    #[test]
    fn the_first_recording_makes_room_for_every_graph() {
        let mut scratch = DagScratch::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let capacities = |s: &DagScratch| {
            [
                s.wcets.capacity(),
                s.edges.capacity(),
                s.pairs.capacity(),
                s.regions.capacity(),
            ]
        };
        let mut largest = 0;
        for blocking in [BlockingPolicy::DepthWeighted, BlockingPolicy::Fixed(1.0)] {
            for _ in 0..500 {
                DagGenConfig { blocking }.generate_into(&mut rng, &mut scratch);
                assert_eq!(
                    capacities(&scratch),
                    [MAX_NODES, MAX_EDGES, MAX_REGIONS, MAX_REGIONS]
                );
                largest = largest.max(scratch.node_count());
            }
        }
        assert!(largest > 64, "the draws never came near the bound");
    }
}
