//! Verdict-stability checks for the derived-analysis cache: on a seeded
//! corpus, every schedulability test must return bit-identical results
//! whether the task DAGs carry warm memoized caches or freshly-built
//! empty ones.

use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::{Task, TaskSet};
use rtpool_gen::{DagGenConfig, TaskSetConfig};

const M: usize = 8;

fn corpus(sets: usize) -> Vec<TaskSet> {
    (0..sets as u64)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0f_fee ^ i);
            TaskSetConfig::new(4, 2.0, DagGenConfig::default())
                .generate(&mut rng)
                .unwrap()
        })
        .collect()
}

fn rebuild_uncached(set: &TaskSet) -> TaskSet {
    TaskSet::new(
        set.as_slice()
            .iter()
            .map(|t| Task::new(t.dag().clone_uncached(), t.period(), t.deadline()).unwrap())
            .collect(),
    )
}

#[test]
fn global_verdicts_identical_cached_and_uncached() {
    for set in &corpus(10) {
        let uncached = rebuild_uncached(set);
        for model in [
            ConcurrencyModel::Full,
            ConcurrencyModel::Limited,
            ConcurrencyModel::LimitedExact,
        ] {
            assert_eq!(
                global::analyze(set, M, model),
                global::analyze(&uncached, M, model),
                "global verdict diverged under {model:?}"
            );
        }
    }
}

#[test]
fn partitioned_verdicts_identical_cached_and_uncached() {
    for set in &corpus(10) {
        let uncached = rebuild_uncached(set);
        for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
            let (warm, warm_maps) = partitioned::partition_and_analyze(set, M, strategy);
            let (cold, cold_maps) = partitioned::partition_and_analyze(&uncached, M, strategy);
            assert_eq!(
                warm, cold,
                "partitioned verdict diverged under {strategy:?}"
            );
            assert_eq!(
                warm_maps.iter().map(Option::is_some).collect::<Vec<_>>(),
                cold_maps.iter().map(Option::is_some).collect::<Vec<_>>(),
                "partition success pattern diverged under {strategy:?}"
            );
        }
    }
}

#[test]
fn batched_pass_identical_to_uncached_single_model_passes() {
    // One batched global pass over a cached set, the call the registered
    // benchmark's `fig2-sweep` workload makes for its traced RTA stage,
    // against the slowest correct path (separate passes, cold caches).
    let models = [ConcurrencyModel::Full, ConcurrencyModel::Limited];
    for set in &corpus(10) {
        let batched = global::analyze_many(set, M, &models);
        for (result, model) in batched.into_iter().zip(models) {
            assert_eq!(result, global::analyze(&rebuild_uncached(set), M, model));
        }
    }
}
