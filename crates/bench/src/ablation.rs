//! Ablation studies for the design choices DESIGN.md calls out, run as
//! `fig2 --study floor` and `fig2 --study heuristic`:
//!
//! 1. **Concurrency floor**: the paper's `b̄`-based floor
//!    (`ConcurrencyModel::Limited`) versus the exact-antichain extension
//!    (`ConcurrencyModel::LimitedExact`) versus the oblivious baseline —
//!    how much schedulability the cheap bound gives away.
//! 2. **Algorithm 1 tie-breaking**: worst-fit (the paper's choice)
//!    versus first-fit and best-fit for the free placements at lines 11
//!    and 18.

use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, BlockingAwareness};
use rtpool_core::partition::{
    algorithm1_with, BestFit, FirstFit, NodeMapping, PlacementHeuristic, WorstFit,
};
use rtpool_core::TaskSet;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

use crate::fig2::{self, Fig2Params, Inset, Tally};
use crate::sweep::SweepPool;

/// Figure 2(e)'s grid (`m = 8`, `U = 0.4·n`): per set, whether the
/// oblivious (`Full`), `b̄` (`Limited`) and exact-antichain
/// (`LimitedExact`) global RTAs accept it.
pub(crate) fn floor(pool: &SweepPool, params: &Fig2Params) -> Vec<(Inset, Vec<Tally<3>>)> {
    let seed = params.seed;
    fig2::sweep(
        pool,
        "floor",
        &[Inset::E],
        params.sets_per_point,
        |_, n, sample| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, n as u64, sample as u64));
            let n = usize::try_from(n).expect("positive n");
            let set = TaskSetConfig::new(n, 0.4 * n as f64, DagGenConfig::default())
                .generate(&mut rng)
                .map_err(|e| e.to_string())?;
            let models = [
                ConcurrencyModel::Full,
                ConcurrencyModel::Limited,
                ConcurrencyModel::LimitedExact,
            ];
            Ok(Some(models.map(|model| global::accepts(&set, 8, model))))
        },
    )
}

/// Figure 2(d)'s grid (`n = 4`, `U = 1.0`): per set, whether Algorithm 1
/// with worst-, first- and best-fit placement yields a mapping the
/// partitioned RTA accepts.
pub(crate) fn heuristic(pool: &SweepPool, params: &Fig2Params) -> Vec<(Inset, Vec<Tally<3>>)> {
    let seed = params.seed;
    fig2::sweep(
        pool,
        "heuristic",
        &[Inset::D],
        params.sets_per_point,
        |_, m, sample| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, m as u64, sample as u64));
            let m = usize::try_from(m).expect("positive m");
            let set = TaskSetConfig::new(4, 1.0, DagGenConfig::default())
                .generate(&mut rng)
                .map_err(|e| e.to_string())?;
            Ok(Some([
                accepts(&set, m, &mut WorstFit),
                accepts(&set, m, &mut FirstFit),
                accepts(&set, m, &mut BestFit),
            ]))
        },
    )
}

/// Partitions every task with Algorithm 1 under `heuristic` and runs the
/// partitioned RTA.
fn accepts<H: PlacementHeuristic>(set: &TaskSet, m: usize, heuristic: &mut H) -> bool {
    let mut mappings: Vec<NodeMapping> = Vec::with_capacity(set.len());
    for (_, task) in set.iter() {
        match algorithm1_with(task.dag(), m, heuristic) {
            Ok(mapping) => mappings.push(mapping),
            Err(_) => return false,
        }
    }
    partitioned::analyze(set, m, &mappings, BlockingAwareness::Oblivious).is_schedulable()
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(sets_per_point: usize, seed: u64) -> Fig2Params {
        Fig2Params {
            sets_per_point,
            seed,
            threads: 4,
        }
    }

    #[test]
    fn floor_ablation_orders_models() {
        // Full >= LimitedExact >= Limited acceptance, pointwise.
        let pool = SweepPool::new(4);
        for p in &floor(&pool, &params(24, 11))[0].1 {
            let [full, limited, exact] = p.accepted;
            assert!(full >= exact, "full {full} < exact {exact} at n = {}", p.x);
            assert!(
                exact >= limited,
                "exact {exact} < limited {limited} at n = {}",
                p.x
            );
        }
    }

    #[test]
    fn heuristic_ablation_evaluates_every_sample() {
        let pool = SweepPool::new(4);
        let series = heuristic(&pool, &params(12, 3));
        assert_eq!(series[0].1.len(), Inset::D.x_values().len());
        for p in &series[0].1 {
            assert_eq!((p.samples, p.skipped, p.errors), (12, 0, 0));
        }
    }
}
