//! Verdict-stability checks for the derived-analysis cache: on a seeded
//! corpus, every schedulability test must return bit-identical results
//! whether the task DAGs carry warm memoized caches or freshly-built
//! empty ones.

use rand::SeedableRng;
use rtpool_bench::pipeline;
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
    // The fig2 fast path (one batched global pass over a cached set)
    // against the slowest correct path (separate passes, cold caches).
    for set in &corpus(10) {
        let (full, limited) = pipeline::global_full_and_limited(set, M);
        assert_eq!(
            full,
            global::analyze(&rebuild_uncached(set), M, ConcurrencyModel::Full)
        );
        assert_eq!(
            limited,
            global::analyze(&rebuild_uncached(set), M, ConcurrencyModel::Limited)
        );
    }
}
