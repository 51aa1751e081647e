//! Shared partition-then-analyze plumbing for the experiments.
//!
//! The `fig2` sweep, the spin study and the registered benchmark's
//! `fig2-sweep` workload all evaluate the same schedulability battery
//! (oblivious vs concurrency-aware, global vs partitioned); the helpers
//! here keep those call sites identical so a pipeline change cannot
//! silently skew one experiment but not another.

use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::TaskSet;

/// Whether Figure 2's concurrency-aware test accepts `set` under the
/// inset's scheduling family (`global = true` for insets a/c/e): the
/// Lemma 4 global RTA, or Algorithm 1 plus the partitioned RTA.
#[must_use]
pub fn proposed(set: &TaskSet, m: usize, global: bool) -> bool {
    if global {
        global::accepts(set, m, ConcurrencyModel::Limited)
    } else {
        partitioned::accepts(set, m, PartitionStrategy::Algorithm1)
    }
}

/// Whether Figure 2's concurrency-oblivious baseline accepts `set`: the
/// Melani global RTA, or worst-fit plus the partitioned RTA.
#[must_use]
pub fn baseline(set: &TaskSet, m: usize, global: bool) -> bool {
    if global {
        global::accepts(set, m, ConcurrencyModel::Full)
    } else {
        partitioned::accepts(set, m, PartitionStrategy::WorstFit)
    }
}

/// The full Figure 2 verdict battery for one generated set: returns
/// `(proposed, baseline)` schedulability under the inset's scheduling
/// family. Each test stops at the first task that misses.
#[must_use]
pub fn battery(set: &TaskSet, m: usize, global: bool) -> (bool, bool) {
    let base = baseline(set, m, global);
    (proposed(set, m, global), base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rtpool_gen::{DagGenConfig, TaskSetConfig};

    fn sample_set(seed: u64) -> TaskSet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TaskSetConfig::new(4, 2.0, DagGenConfig::default())
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn battery_agrees_with_direct_calls() {
        let set = sample_set(7);
        let (prop_g, base_g) = battery(&set, 8, true);
        assert_eq!(
            prop_g,
            global::analyze(&set, 8, ConcurrencyModel::Limited).is_schedulable()
        );
        assert_eq!(
            base_g,
            global::analyze(&set, 8, ConcurrencyModel::Full).is_schedulable()
        );
        let (prop_p, base_p) = battery(&set, 8, false);
        assert_eq!(
            prop_p,
            partitioned::partition_and_analyze(&set, 8, PartitionStrategy::Algorithm1)
                .0
                .is_schedulable()
        );
        assert_eq!(
            base_p,
            partitioned::partition_and_analyze(&set, 8, PartitionStrategy::WorstFit)
                .0
                .is_schedulable()
        );
    }
}
