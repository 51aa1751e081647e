//! Property tests pinning the generation fast path to the reference path.
//!
//! Three guarantees, each load-bearing for the experiment pipeline:
//!
//! 1. The early `b̄` computed by [`DagScratch::max_delay_count`] on the
//!    raw shape equals the post-build `DelayProfile::max_delay_count` of
//!    the promoted `Dag` — so the window prefilter accepts/rejects
//!    exactly the attempts the full build would.
//! 2. `generate_into` + [`DagScratch::build`] consumes the RNG stream
//!    identically to `generate` and yields a bit-identical graph.
//! 3. `TaskSetConfig::generate` (fast path) and [`reference_set`] (the
//!    rejection loop over the public generator, a full build per
//!    attempt) produce identical task sets — including the
//!    `WindowUnsatisfiable` cases — from identical RNG states.
//! 4. The counting pass of a window attempt
//!    ([`DagGenConfig::count_blocking_pairs`]) sees the recording pass's
//!    `|BF|` and leaves the RNG on the same next word, so a rejection on
//!    the count alone and a rewound, recorded attempt draw alike.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtpool_core::deadlock::concurrency_floor;
use rtpool_core::{Task, TaskSet};
use rtpool_gen::{
    uunifast, BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, GenError, TaskSetConfig,
};
use rtpool_graph::NodeId;

/// `TaskSetConfig::new(n_tasks, total, config)` with `window`, generated
/// from public parts: UUniFast shares; per task, whole graphs drawn by
/// `DagGenConfig::generate` until one's floor `l̄ = m − b̄` lies in the
/// window; periods `⌈vol/U⌉`; implicit deadlines; deadline-monotonic
/// order.
fn reference_set(
    n_tasks: usize,
    total: f64,
    config: &DagGenConfig,
    window: Option<ConcurrencyWindow>,
    rng: &mut StdRng,
) -> Result<TaskSet, GenError> {
    config.validate()?;
    let mut tasks = Vec::with_capacity(n_tasks);
    for u in uunifast(rng, n_tasks, total) {
        let dag = match window {
            None => config.generate(rng),
            Some(w) => (0..w.max_attempts)
                .map(|_| config.generate(rng))
                .find(|dag| w.contains(concurrency_floor(dag, w.m)))
                .ok_or(GenError::WindowUnsatisfiable {
                    l_min: w.l_min,
                    l_max: w.l_max,
                    attempts: w.max_attempts,
                })?,
        };
        let period = ((dag.volume() as f64 / u).ceil() as u64).max(1);
        tasks.push(Task::with_implicit_deadline(dag, period).expect("period >= 1"));
    }
    let mut set = TaskSet::new(tasks);
    set.sort_deadline_monotonic();
    Ok(set)
}

/// Strategy over what the generator lets a caller choose: the blocking
/// policy (depth-weighted, none at all, or a fixed probability) and the
/// seed.
fn gen_config() -> impl Strategy<Value = (DagGenConfig, u64)> {
    (0usize..3, 0u32..=100, any::<u64>()).prop_map(|(policy_ix, pct, seed)| {
        let blocking = match policy_ix {
            0 => BlockingPolicy::DepthWeighted,
            1 => BlockingPolicy::Fixed(0.0),
            _ => BlockingPolicy::Fixed(f64::from(pct) / 100.0),
        };
        (DagGenConfig { blocking }, seed)
    })
}

proptest! {
    /// Guarantee 1: the prefilter's `b̄` equals the built graph's `b̄` on
    /// every generated structure, hence the window verdict agrees too.
    #[test]
    fn early_b_bar_matches_built_profile((config, seed) in gen_config()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = DagScratch::new();
        config.generate_into(&mut rng, &mut scratch);
        let early = scratch.max_delay_count();
        let dag = scratch.build();
        let built = dag.delay_profile().max_delay_count();
        prop_assert_eq!(early, built);
        // Window verdict agreement for every plausible pool size.
        for m in 1usize..=16 {
            let window = ConcurrencyWindow::around(m, (m as i64 - 1).max(1));
            let early_floor = m as i64 - early as i64;
            let built_floor = m as i64 - built as i64;
            prop_assert_eq!(window.contains(early_floor), window.contains(built_floor));
        }
    }

    /// Guarantee 2: the scratch path is RNG-stream and output identical
    /// to the direct path.
    #[test]
    fn generate_into_is_bit_identical((config, seed) in gen_config()) {
        let mut rng_direct = StdRng::seed_from_u64(seed);
        let direct = config.generate(&mut rng_direct);

        let mut rng_scratch = StdRng::seed_from_u64(seed);
        let mut scratch = DagScratch::new();
        config.generate_into(&mut rng_scratch, &mut scratch);
        let via_scratch = scratch.build();

        prop_assert_eq!(direct.node_count(), via_scratch.node_count());
        for i in 0..direct.node_count() {
            let v = NodeId::from_index(i);
            prop_assert_eq!(direct.wcet(v), via_scratch.wcet(v));
            prop_assert_eq!(direct.kind(v), via_scratch.kind(v));
            prop_assert_eq!(direct.successors(v), via_scratch.successors(v));
            prop_assert_eq!(direct.predecessors(v), via_scratch.predecessors(v));
        }
        prop_assert_eq!(direct.blocking_forks(), via_scratch.blocking_forks());
        for &fork in direct.blocking_forks() {
            prop_assert_eq!(
                direct.blocking_join_of(fork),
                via_scratch.blocking_join_of(fork)
            );
        }
        // The RNG streams must be in the same state afterwards: draw one
        // more value from each and compare.
        prop_assert_eq!(
            rand::Rng::gen::<u64>(&mut rng_direct),
            rand::Rng::gen::<u64>(&mut rng_scratch)
        );
    }

    /// The fast path's fork-count prefilter is sound: `X(v) ⊆ BF`, so
    /// `b̄ ≤ |BF|` on every generated shape.
    #[test]
    fn early_b_bar_never_exceeds_the_fork_count((config, seed) in gen_config()) {
        let mut scratch = DagScratch::new();
        config.generate_into(&mut StdRng::seed_from_u64(seed), &mut scratch);
        prop_assert!(scratch.max_delay_count() <= scratch.blocking_pair_count());
    }

    /// Guarantee 3: full task-set generation agrees between the fast
    /// path and the reference path, unwindowed (kind 0), in the wide
    /// window [1, 7] (kind 5), or in a narrow Figure 2(a)/(b) window
    /// `[l_max − 1, l_max]` with `l_max` = kind ∈ 1..=4 at `m = 8` under
    /// `BlockingPolicy::Fixed` — where most attempts have fewer than
    /// `8 − l_max` forks and the fork-count prefilter rejects them.
    #[test]
    fn taskset_fast_path_matches_reference(
        (config, seed) in gen_config(),
        n_tasks in 1usize..5,
        window_kind in 0i64..6,
        pct in 50u32..100,
    ) {
        let (config, window) = match window_kind {
            0 => (config, None),
            5 => (config, Some(ConcurrencyWindow { m: 8, l_min: 1, l_max: 7, max_attempts: 40 })),
            l_max => (
                DagGenConfig { blocking: BlockingPolicy::Fixed(f64::from(pct) / 100.0) },
                Some(ConcurrencyWindow { max_attempts: 40, ..ConcurrencyWindow::around(8, l_max) }),
            ),
        };
        let total = 0.5 * n_tasks as f64;
        let mut ts = TaskSetConfig::new(n_tasks, total, config.clone());
        if let Some(window) = window {
            ts = ts.with_concurrency_window(window);
        }

        let fast = ts.generate(&mut StdRng::seed_from_u64(seed));
        let reference =
            reference_set(n_tasks, total, &config, window, &mut StdRng::seed_from_u64(seed));

        match (fast, reference) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.len(), b.len());
                for ((_, ta), (_, tb)) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(ta.period(), tb.period());
                    prop_assert_eq!(ta.deadline(), tb.deadline());
                    prop_assert_eq!(ta.dag().node_count(), tb.dag().node_count());
                    prop_assert_eq!(ta.dag().volume(), tb.dag().volume());
                    prop_assert_eq!(
                        ta.dag().delay_profile().max_delay_count(),
                        tb.dag().delay_profile().max_delay_count()
                    );
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(format!("{ea}"), format!("{eb}")),
            (a, b) => prop_assert!(
                false,
                "fast path and reference disagree: {:?} vs {:?}",
                a.map(|s| s.len()),
                b.map(|s| s.len())
            ),
        }
    }
}

proptest! {
    /// Guarantee 4: counting and recording draw the same words and find
    /// the same number of blocking pairs.
    #[test]
    fn counting_pass_matches_the_recording_pass((config, seed) in gen_config()) {
        let mut counting = StdRng::seed_from_u64(seed);
        let mut recording = StdRng::seed_from_u64(seed);
        let mut scratch = DagScratch::new();
        let count = config.count_blocking_pairs(&mut counting, &mut scratch);
        config.generate_into(&mut recording, &mut scratch);
        prop_assert_eq!(count, scratch.blocking_pair_count());
        prop_assert_eq!(
            rand::Rng::gen::<u64>(&mut counting),
            rand::Rng::gen::<u64>(&mut recording)
        );
    }
}
