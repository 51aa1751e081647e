//! Ablation studies for the design choices DESIGN.md calls out:
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
use rtpool_core::{ConcurrencyAnalysis, TaskSet};
use rtpool_gen::{DagGenConfig, TaskSetConfig};

use crate::sweep::SweepPool;

/// Acceptance ratios of the three global concurrency models at one
/// parameter point.
#[derive(Clone, Debug, PartialEq)]
pub struct FloorPoint {
    /// The swept task count.
    pub n: usize,
    /// Oblivious baseline acceptance.
    pub full: f64,
    /// `b̄`-based (paper) acceptance.
    pub limited: f64,
    /// Exact-antichain (extension) acceptance.
    pub limited_exact: f64,
}

/// Sweeps the task count (the Figure 2(e) setup) and reports the
/// acceptance of all three concurrency models. The whole
/// `(n × sample)` grid runs as one queue on the shared pool.
#[must_use]
pub fn concurrency_floor_ablation(
    pool: &SweepPool,
    sets_per_point: usize,
    seed: u64,
) -> Vec<FloorPoint> {
    let m = 8;
    let counts = sweep_counts(
        pool,
        "ablation:floor",
        8,
        sets_per_point,
        move |point, sample| {
            let n = 2 * (point + 1);
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, n as u64, sample as u64));
            let set = TaskSetConfig::new(n, 0.4 * n as f64, DagGenConfig::default())
                .generate(&mut rng)
                .expect("generation succeeds");
            [
                global::analyze(&set, m, ConcurrencyModel::Full).is_schedulable(),
                global::analyze(&set, m, ConcurrencyModel::Limited).is_schedulable(),
                global::analyze(&set, m, ConcurrencyModel::LimitedExact).is_schedulable(),
            ]
        },
    );
    counts
        .into_iter()
        .enumerate()
        .map(|(point, c)| FloorPoint {
            n: 2 * (point + 1),
            full: c[0] as f64 / sets_per_point as f64,
            limited: c[1] as f64 / sets_per_point as f64,
            limited_exact: c[2] as f64 / sets_per_point as f64,
        })
        .collect()
}

/// Acceptance ratios of Algorithm 1 under the three placement
/// heuristics at one pool size.
#[derive(Clone, Debug, PartialEq)]
pub struct HeuristicPoint {
    /// The swept pool size.
    pub m: usize,
    /// Worst-fit (the paper's heuristic).
    pub worst_fit: f64,
    /// First-fit.
    pub first_fit: f64,
    /// Best-fit.
    pub best_fit: f64,
}

/// The pool sizes swept by [`heuristic_ablation`] (the Figure 2(d)
/// setup).
const HEURISTIC_POOL_SIZES: [usize; 7] = [2, 3, 4, 6, 8, 12, 16];

/// Sweeps the pool size (the Figure 2(d) setup) and reports partitioned
/// acceptance for each Algorithm 1 tie-breaking heuristic. The whole
/// `(m × sample)` grid runs as one queue on the shared pool.
#[must_use]
pub fn heuristic_ablation(
    pool: &SweepPool,
    sets_per_point: usize,
    seed: u64,
) -> Vec<HeuristicPoint> {
    let counts = sweep_counts(
        pool,
        "ablation:heuristic",
        HEURISTIC_POOL_SIZES.len(),
        sets_per_point,
        move |point, sample| {
            let m = HEURISTIC_POOL_SIZES[point];
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, m as u64, sample as u64));
            let set = TaskSetConfig::new(4, 1.0, DagGenConfig::default())
                .generate(&mut rng)
                .expect("generation succeeds");
            [
                accepts(&set, m, &mut WorstFit),
                accepts(&set, m, &mut FirstFit),
                accepts(&set, m, &mut BestFit),
            ]
        },
    );
    counts
        .into_iter()
        .enumerate()
        .map(|(point, c)| HeuristicPoint {
            m: HEURISTIC_POOL_SIZES[point],
            worst_fit: c[0] as f64 / sets_per_point as f64,
            first_fit: c[1] as f64 / sets_per_point as f64,
            best_fit: c[2] as f64 / sets_per_point as f64,
        })
        .collect()
}

/// Partitions every task with Algorithm 1 under `heuristic` and runs the
/// partitioned RTA.
fn accepts<H: PlacementHeuristic>(set: &TaskSet, m: usize, heuristic: &mut H) -> bool {
    let mut mappings: Vec<NodeMapping> = Vec::with_capacity(set.len());
    for (_, task) in set.iter() {
        let ca = ConcurrencyAnalysis::new(task.dag());
        match algorithm1_with(&ca, m, heuristic) {
            Ok(mapping) => mappings.push(mapping),
            Err(_) => return false,
        }
    }
    partitioned::analyze(set, m, &mappings, BlockingAwareness::Oblivious).is_schedulable()
}

/// Evaluates `f(point, sample)` for the whole `points × samples` grid
/// as one flat queue on the shared pool and folds the boolean verdicts
/// into per-point hit counts.
fn sweep_counts<const K: usize>(
    pool: &SweepPool,
    label: &str,
    points: usize,
    samples: usize,
    f: impl Fn(usize, usize) -> [bool; K] + Sync,
) -> Vec<[usize; K]> {
    let verdicts = pool.run(points * samples, label, |i| f(i / samples, i % samples));
    let mut out = vec![[0usize; K]; points];
    for (i, verdict) in verdicts.iter().enumerate() {
        for (k, &hit) in verdict.iter().enumerate() {
            out[i / samples][k] += usize::from(hit);
        }
    }
    out
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

    #[test]
    fn floor_ablation_orders_models() {
        // Full >= LimitedExact >= Limited acceptance, pointwise.
        let pool = SweepPool::new(4);
        for p in concurrency_floor_ablation(&pool, 24, 11) {
            assert!(
                p.full >= p.limited_exact - 1e-12,
                "full {} < exact {} at n = {}",
                p.full,
                p.limited_exact,
                p.n
            );
            assert!(
                p.limited_exact >= p.limited - 1e-12,
                "exact {} < limited {} at n = {}",
                p.limited_exact,
                p.limited,
                p.n
            );
        }
    }

    #[test]
    fn heuristic_ablation_produces_ratios() {
        let pool = SweepPool::new(4);
        for p in heuristic_ablation(&pool, 12, 3) {
            for v in [p.worst_fit, p.first_fit, p.best_fit] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn sweep_counts_counts() {
        let pool = SweepPool::new(4);
        let counts = sweep_counts(&pool, "t", 2, 50, |_, sample| [sample % 2 == 0, true]);
        assert_eq!(counts, vec![[25, 50], [25, 50]]);
    }

    #[test]
    fn ablation_independent_of_worker_count() {
        let serial = SweepPool::new(1);
        let wide = SweepPool::new(8);
        assert_eq!(
            concurrency_floor_ablation(&serial, 12, 5),
            concurrency_floor_ablation(&wide, 12, 5)
        );
        assert_eq!(
            heuristic_ablation(&serial, 8, 5),
            heuristic_ablation(&wide, 8, 5)
        );
    }
}
