//! The suspend-vs-spin schedulability study (`fig2 --study spin`): what
//! the [`SyncBackend`] knob costs the analysis.
//!
//! The sets of Figure 2's insets (a) and (c) — same RNG streams, same
//! discard rules — are analyzed as generated (suspend) and again with
//! their backend flipped to spin. Spinning forks inflate every
//! interfering task's volume and harden the sizing floor to the delay
//! count, so spin can only lose sets: the run asserts that per sample,
//! and that the suspend column is Figure 2's bit for bit. What a
//! spinning barrier costs in wall-clock on the real pool is the
//! registered benchmark's `exec.v1/v2.blocking.spin_over_suspend`
//! (workload `exec-blocking`).

use rtpool_core::SyncBackend;

use crate::fig2::{self, Fig2Params, Inset, Tally, Verdicts};
use crate::pipeline;
use crate::sweep::SweepPool;

/// The insets the study covers: the partitioned analyses are
/// backend-oblivious, and (e) is not published.
const INSETS: [Inset; 2] = [Inset::A, Inset::C];

/// Runs the study: per point, how many sets the proposed test accepts
/// under suspend and under spin, and how many the baseline accepts.
///
/// # Panics
///
/// Panics when a set is schedulable under spin but not under suspend,
/// or when the suspend column differs from Figure 2's.
pub(crate) fn run(pool: &SweepPool, params: &Fig2Params) -> Vec<(Inset, Vec<Tally<3>>)> {
    let cell = |inset: Inset, x: i64, sample| -> Verdicts<3> {
        let Some((mut set, m, suspend, baseline)) =
            fig2::sample_with_verdicts(inset, x, params.seed, sample)?
        else {
            return Ok(None);
        };
        set.set_backend(SyncBackend::Spin);
        let spin = pipeline::proposed(&set, m, fig2::is_global(inset));
        assert!(
            suspend || !spin,
            "inset ({}), x = {x}, sample {sample}: schedulable under spin, not under suspend",
            inset.letter()
        );
        Ok(Some([suspend, spin, baseline]))
    };
    let series = fig2::sweep(pool, "spin", &INSETS, params.sets_per_point, cell);

    let suspend_side: Vec<(Inset, Vec<Tally<2>>)> = series
        .iter()
        .map(|(inset, points)| {
            let points = points
                .iter()
                .map(|p| Tally {
                    x: p.x,
                    accepted: [p.accepted[0], p.accepted[2]],
                    samples: p.samples,
                    skipped: p.skipped,
                    errors: p.errors,
                })
                .collect();
            (*inset, points)
        })
        .collect();
    assert_eq!(
        suspend_side,
        fig2::figure(pool, &INSETS, params),
        "the suspend column differs from Figure 2's"
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_suspend_side_is_bit_identical_to_fig2() {
        // `run` asserts both gates; this runs them on a small grid.
        let params = Fig2Params {
            sets_per_point: 10,
            seed: 3,
            threads: 4,
        };
        let series = run(&SweepPool::new(4), &params);
        assert_eq!(series.len(), INSETS.len());
        for (inset, points) in &series {
            assert_eq!(points.len(), inset.x_values().len());
        }
    }
}
