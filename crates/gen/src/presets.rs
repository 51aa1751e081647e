//! Named workload presets modeled after the application classes the
//! paper's introduction motivates.

use rtpool_graph::{Dag, DagBuilder, GraphError};

/// Builds an *inference-style* task: `towers` independent towers of
/// `layers` sequential layers, each layer a blocking fork–join over
/// `shards` small operations — the TensorFlow/Eigen pattern where every
/// parallel operation blocks its caller on a condition variable. WCETs:
/// 1 for forks/joins, `shard_wcet` for shards, 2 for the pre/post nodes.
///
/// # Errors
///
/// Returns the builder's [`GraphError`] (unreachable for valid
/// parameters).
///
/// # Examples
///
/// ```
/// let dag = rtpool_gen::presets::inference(2, 3, 8, 3, true)?;
/// assert_eq!(dag.blocking_regions().len(), 6);
/// # Ok::<(), rtpool_graph::GraphError>(())
/// ```
pub fn inference(
    towers: usize,
    layers: usize,
    shards: usize,
    shard_wcet: u64,
    blocking: bool,
) -> Result<Dag, GraphError> {
    let mut b = DagBuilder::new();
    let input = b.add_node(2);
    let output = b.add_node(2);
    for _ in 0..towers.max(1) {
        let mut prev = input;
        for _ in 0..layers.max(1) {
            let wcets = vec![shard_wcet; shards.max(1)];
            let (fork, join) = b.fork_join(1, &wcets, 1, blocking)?;
            b.add_edge(prev, fork)?;
            prev = join;
        }
        b.add_edge(prev, output)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_structure() {
        let dag = inference(3, 4, 12, 3, true).unwrap();
        dag.validate_model().unwrap();
        assert_eq!(dag.blocking_regions().len(), 12);
        // 2 endpoints + 3 towers × 4 layers × (2 + 12 shards).
        assert_eq!(dag.node_count(), 2 + 3 * 4 * 14);
        dag.validate_endpoints_non_blocking().unwrap();
    }

    #[test]
    fn inference_non_blocking_variant() {
        let dag = inference(1, 2, 4, 1, false).unwrap();
        assert!(dag.blocking_regions().is_empty());
    }
}
