//! Bound-tightness study: how far above the *observed* worst response
//! time the analytic bounds sit, measured by simulating accepted task
//! sets with synchronous periodic releases (the presumed critical
//! instant).
//!
//! This quantifies the price of each analysis' pessimism — information
//! the paper's schedulability-ratio plots can only show indirectly.

use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::TaskId;
use rtpool_gen::{DagGenConfig, TaskSetConfig};
use rtpool_sim::{SchedulingPolicy, SimConfig};

use crate::sweep::SweepPool;

/// Tightness statistics for one analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct Tightness {
    /// Analysis name.
    pub label: &'static str,
    /// Task sets that the analysis accepted (and were thus simulated).
    pub accepted: usize,
    /// Mean of `bound / observed` over all tasks of accepted sets
    /// (1.0 = exact; above 1 = pessimism).
    pub mean_ratio: f64,
    /// Largest observed `bound / observed`.
    pub max_ratio: f64,
    /// Tasks whose *simulated* response exceeded the analytic bound.
    /// Always 0 for the sound analyses; strictly positive occurrences
    /// for the oblivious Melani baseline on blocking tasks are the
    /// paper's core unsafety claim, demonstrated empirically.
    pub violations: usize,
}

/// Labels of the three studied analyses, in evaluation order.
const STUDY_LABELS: [&str; 3] = [
    "global full (Melani)",
    "global limited (paper)",
    "partitioned Algorithm 1",
];

/// Runs the study: `samples` random task sets (n tasks, utilization `u`,
/// `m` cores); for each analysis, accepted sets are simulated for three
/// hyperperiod-ish windows and per-task `bound/observed` ratios
/// aggregated. The whole `(analysis × sample)` grid runs as one queue
/// on the shared pool; aggregation uses the same `1e6` fixed-point
/// arithmetic as ever (sample order cannot perturb the sums).
#[must_use]
pub fn measure(
    pool: &SweepPool,
    samples: usize,
    m: usize,
    n: usize,
    u: f64,
    seed: u64,
) -> Vec<Tightness> {
    let ratios_per_cell = pool.run(STUDY_LABELS.len() * samples, "tightness", |i| {
        let study = match i / samples {
            0 => Study::Global(ConcurrencyModel::Full),
            1 => Study::Global(ConcurrencyModel::Limited),
            _ => Study::Partitioned,
        };
        let sample = i % samples;
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (sample as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let set = TaskSetConfig::new(n, u, DagGenConfig::default())
            .generate(&mut rng)
            .expect("generation succeeds");
        study.evaluate(&set, m)
    });

    STUDY_LABELS
        .iter()
        .enumerate()
        .map(|(s, &label)| {
            let mut accepted = 0usize;
            let mut count = 0usize;
            let mut sum_scaled = 0u64;
            let mut max_scaled = 0u64;
            let mut violations = 0usize;
            for ratios in ratios_per_cell[s * samples..(s + 1) * samples]
                .iter()
                .flatten()
            {
                accepted += 1;
                for &r in ratios {
                    if r < 1.0 {
                        violations += 1;
                    }
                    let scaled = (r * 1e6) as u64;
                    count += 1;
                    sum_scaled += scaled;
                    max_scaled = max_scaled.max(scaled);
                }
            }
            Tightness {
                label,
                accepted,
                mean_ratio: sum_scaled as f64 / 1e6 / count.max(1) as f64,
                max_ratio: max_scaled as f64 / 1e6,
                violations,
            }
        })
        .collect()
}

enum Study {
    Global(ConcurrencyModel),
    Partitioned,
}

impl Study {
    /// Returns per-task `bound / observed` ratios when the analysis
    /// accepts the set, `None` otherwise.
    fn evaluate(&self, set: &rtpool_core::TaskSet, m: usize) -> Option<Vec<f64>> {
        let horizon = set.iter().map(|(_, t)| t.period()).max()? * 3;
        let (result, config) = match self {
            Study::Global(model) => {
                let r = global::analyze(set, m, *model);
                (r, SimConfig::periodic(SchedulingPolicy::Global, m, horizon))
            }
            Study::Partitioned => {
                let (r, mappings) =
                    partitioned::partition_and_analyze(set, m, PartitionStrategy::Algorithm1);
                if !r.is_schedulable() {
                    return None;
                }
                let maps: Vec<_> = mappings.into_iter().map(Option::unwrap).collect();
                (
                    r,
                    SimConfig::periodic(SchedulingPolicy::Partitioned, m, horizon)
                        .with_mappings(maps),
                )
            }
        };
        if !result.is_schedulable() {
            return None;
        }
        let out = config.run(set).ok()?;
        let mut ratios = Vec::new();
        for (i, _) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time()? as f64;
            if out.task(i).stall.is_some() {
                // An accepted task deadlocked: the ultimate bound
                // violation (possible only for the oblivious baseline).
                ratios.push(0.0);
            } else if let Some(observed) = out.task(i).max_response {
                // Ratios below 1 are bound violations; the caller counts
                // them (they occur only for the unsafe oblivious
                // baseline — the paper's headline hazard).
                ratios.push(bound / observed as f64);
            }
        }
        Some(ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_analyses_never_violate() {
        let pool = SweepPool::new(4);
        for t in measure(&pool, 30, 6, 3, 1.5, 7) {
            assert!(t.max_ratio >= 1.0 || t.accepted == 0);
            if t.label != "global full (Melani)" {
                assert_eq!(t.violations, 0, "{} violated its bound", t.label);
            }
        }
    }

    #[test]
    fn oblivious_baseline_can_violate_its_bound() {
        // Statistical: across enough samples, the unsafe baseline
        // under-estimates at least one blocking task's response.
        let pool = SweepPool::new(4);
        let results = measure(&pool, 120, 4, 2, 1.0, 99);
        let full = &results[0];
        assert!(
            full.violations > 0,
            "expected the oblivious baseline to violate at least once"
        );
    }
}
