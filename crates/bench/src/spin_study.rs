//! The suspend-vs-spin schedulability study: what the [`SyncBackend`]
//! knob costs the analysis.
//!
//! A fig2-style sweep over the global insets: the same seeded task sets
//! as [`crate::fig2`] (identical RNG streams, identical discard rules),
//! each analyzed under the suspend backend *and* re-analyzed with its
//! backend flipped to spin. The suspend series is bit-identical to the
//! `fig2` pipeline by construction — [`StudyReport::verdicts_match`]
//! re-runs `fig2` and checks — while the spin series shows the
//! schedulability cliff the busy-wait model pays at high blocking (low
//! `l_max`): spinning forks inflate every interfering task's volume and
//! harden the sizing floor to the delay count, so the spin ratio can only
//! fall below the suspend ratio
//! ([`StudyReport::spin_never_beats_suspend`] pins the dominance).
//!
//! The execution side of the same knob — what a spinning barrier wait
//! costs in wall-clock on the real pool — is the registered benchmark's
//! `exec.v1/v2.blocking.spin_over_suspend` (workload `exec-blocking`).

use rand::SeedableRng;
use rtpool_core::SyncBackend;
use rtpool_gen::DagScratch;

use crate::fig2::{self, Fig2Params, Inset};
use crate::sweep::SweepPool;

/// One x-point of the head-to-head sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendPoint {
    /// The swept parameter's value.
    pub x: i64,
    /// Proposed-test schedulability ratio under the suspend backend
    /// (exactly `fig2`'s `proposed`).
    pub suspend: f64,
    /// The same ratio with every set's backend flipped to spin.
    pub spin: f64,
    /// Backend-oblivious baseline ratio (identical under both backends).
    pub baseline: f64,
    /// Sets evaluated / skipped / errored, as in [`fig2::SeriesPoint`].
    pub samples: usize,
    /// Samples the discard/window budget dropped.
    pub skipped: usize,
    /// Samples dropped by a generation error.
    pub errors: usize,
    /// Samples where spin accepted a set suspend rejected — must stay 0
    /// (spin analysis only adds interference and hardens the floor).
    pub dominance_violations: usize,
}

/// What [`run_study`] returns.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// Per-inset series, in request order.
    pub series: Vec<(Inset, Vec<BackendPoint>)>,
    /// `true` when the suspend side reproduced the `fig2` pipeline
    /// bit-identically.
    pub verdicts_match: bool,
}

impl StudyReport {
    /// `true` when no sample anywhere was schedulable under spin but not
    /// under suspend.
    #[must_use]
    pub fn spin_never_beats_suspend(&self) -> bool {
        self.series
            .iter()
            .flat_map(|(_, points)| points)
            .all(|p| p.dominance_violations == 0)
    }
}

/// Outcome of one `(inset, x, sample)` cell under both backends.
enum CellOutcome {
    Evaluated {
        suspend: bool,
        spin: bool,
        baseline: bool,
    },
    Skipped,
    Error,
}

/// Runs the head-to-head sweep over the given (global) insets.
///
/// Every cell regenerates its set through the exact `fig2` sample
/// driver — same derived seed, same scratch fast path, same discard
/// rule — so the suspend verdicts are the `fig2` verdicts, then flips
/// the set's backend in place and re-runs the same analysis battery.
///
/// # Panics
///
/// Panics when a partitioned inset (b/d/f) is requested: the
/// partitioned analyses are backend-oblivious, so a spin series over
/// them would be vacuously equal to suspend.
#[must_use]
pub fn run_study(pool: &SweepPool, insets: &[Inset], params: &Fig2Params) -> StudyReport {
    for &inset in insets {
        assert!(
            fig2::is_global(inset),
            "inset ({}) is partitioned: the spin study covers the global analyses only",
            inset.letter()
        );
    }
    let coords: Vec<(Inset, i64)> = insets
        .iter()
        .flat_map(|&inset| inset.x_values().into_iter().map(move |x| (inset, x)))
        .collect();
    let spp = params.sets_per_point;
    let seed = params.seed;
    let outcomes = pool.run(coords.len() * spp, "spin-study", |i| {
        let (inset, x) = coords[i / spp];
        let sample = i % spp;
        let mut rng = rand::rngs::StdRng::seed_from_u64(fig2::derive_seed(seed, inset, x, sample));
        let mut scratch = DagScratch::new();
        match fig2::sample_with_verdicts(inset, x, &mut rng, &mut scratch) {
            Ok(Some((mut set, m, suspend, baseline))) => {
                set.set_backend(SyncBackend::Spin);
                CellOutcome::Evaluated {
                    suspend,
                    spin: fig2::evaluate_set(inset, &set, m).0,
                    baseline,
                }
            }
            Ok(None) => CellOutcome::Skipped,
            Err(_) => CellOutcome::Error,
        }
    });

    let mut series: Vec<(Inset, Vec<BackendPoint>)> =
        insets.iter().map(|&inset| (inset, Vec::new())).collect();
    for (p, &(inset, x)) in coords.iter().enumerate() {
        let point = fold_cell(x, &outcomes[p * spp..(p + 1) * spp]);
        series
            .iter_mut()
            .find(|(i, _)| *i == inset)
            .expect("coordinate instigated by an entry of `insets`")
            .1
            .push(point);
    }

    // Bit-identity gate: the suspend half of the study must reproduce
    // the fig2 pipeline exactly (ratios, tallies, everything).
    let verdicts_match = fig2::run_insets(pool, insets, params)
        .iter()
        .zip(&series)
        .all(|((fi, fig2_points), (si, study_points))| {
            fi == si
                && fig2_points.len() == study_points.len()
                && fig2_points.iter().zip(study_points).all(|(f, s)| {
                    f.x == s.x
                        && f.proposed.to_bits() == s.suspend.to_bits()
                        && f.baseline.to_bits() == s.baseline.to_bits()
                        && f.samples == s.samples
                        && f.skipped == s.skipped
                        && f.errors == s.errors
                })
        });

    StudyReport {
        series,
        verdicts_match,
    }
}

fn fold_cell(x: i64, outcomes: &[CellOutcome]) -> BackendPoint {
    let mut evaluated = 0usize;
    let mut suspend_ok = 0usize;
    let mut spin_ok = 0usize;
    let mut baseline_ok = 0usize;
    let mut skipped = 0usize;
    let mut errors = 0usize;
    let mut dominance_violations = 0usize;
    for outcome in outcomes {
        match outcome {
            CellOutcome::Evaluated {
                suspend,
                spin,
                baseline,
            } => {
                evaluated += 1;
                suspend_ok += usize::from(*suspend);
                spin_ok += usize::from(*spin);
                baseline_ok += usize::from(*baseline);
                dominance_violations += usize::from(*spin && !*suspend);
            }
            CellOutcome::Skipped => skipped += 1,
            CellOutcome::Error => errors += 1,
        }
    }
    let ratio = |count: usize| {
        if evaluated == 0 {
            0.0
        } else {
            count as f64 / evaluated as f64
        }
    };
    BackendPoint {
        x,
        suspend: ratio(suspend_ok),
        spin: ratio(spin_ok),
        baseline: ratio(baseline_ok),
        samples: evaluated,
        skipped,
        errors,
        dominance_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig2Params {
        Fig2Params {
            sets_per_point: 10,
            seed: 3,
            threads: 4,
        }
    }

    #[test]
    fn study_suspend_side_is_bit_identical_to_fig2() {
        let pool = SweepPool::new(4);
        let insets = [Inset::A, Inset::C];
        let report = run_study(&pool, &insets, &tiny_params());
        assert!(report.verdicts_match);
        assert!(report.spin_never_beats_suspend());
        assert_eq!(report.series.len(), insets.len());
        for (inset, series) in &report.series {
            assert_eq!(series.len(), inset.x_values().len());
            for p in series {
                assert!(
                    p.spin <= p.suspend + 1e-12,
                    "spin beat suspend at inset ({}), x={}",
                    inset.letter(),
                    p.x
                );
            }
        }
    }

    #[test]
    fn study_is_deterministic() {
        let pool = SweepPool::new(4);
        let a = run_study(&pool, &[Inset::C], &tiny_params());
        let b = run_study(&pool, &[Inset::C], &tiny_params());
        assert_eq!(a.series, b.series);
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn partitioned_insets_are_rejected() {
        let pool = SweepPool::new(2);
        let _ = run_study(&pool, &[Inset::B], &tiny_params());
    }
}
