//! Property tests pinning the generation fast path to its references.
//!
//! Three guarantees, each load-bearing for the experiment pipeline:
//!
//! 1. The `b̄` a window attempt is judged on — the closed form returned
//!    by [`DagGenConfig::probe_max_delay_count`], which writes nothing —
//!    equals the recording pass's, the built graph's
//!    `DelayProfile::max_delay_count` and the paper-literal model's
//!    (`rtpool_oracle::graph`), and the probe leaves the RNG on the same
//!    next word as the recording pass.
//! 2. `generate_into` + [`DagScratch::build`] consumes the RNG stream
//!    identically to `generate` and yields a bit-identical graph.
//! 3. `TaskSetConfig::generate` (fast path) and [`reference_set`] (the
//!    rejection loop over the public generator, a full build per
//!    attempt) produce identical task sets — including the
//!    `WindowUnsatisfiable` cases — from identical RNG states.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtpool_core::deadlock::concurrency_floor;
use rtpool_core::{Task, TaskSet};
use rtpool_gen::{
    uunifast, BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, GenError, TaskSetConfig,
};
use rtpool_graph::{Dag, NodeId};
use rtpool_oracle::graph::{self, Shape};

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

/// `b̄` of `dag` by the model written from the paper's definitions.
fn oracle_b_bar(dag: &Dag) -> usize {
    let shape = Shape {
        wcets: dag.node_ids().map(|v| dag.wcet(v)).collect(),
        edges: dag
            .node_ids()
            .flat_map(|v| {
                dag.successors(v)
                    .iter()
                    .map(move |w| (v.index(), w.index()))
            })
            .collect(),
        pairs: dag
            .blocking_regions()
            .iter()
            .map(|r| (r.fork().index(), r.join().index()))
            .collect(),
    };
    graph::build(&shape)
        .expect("a generated graph satisfies the model")
        .b_bar
}

/// Guarantee 1 for one draw: the probe's `b̄` and the word after it
/// against the recording pass, the built graph and the oracle. Returns
/// the graph for the caller's tally.
fn probe_agrees(config: &DagGenConfig, seed: u64) -> Result<Dag, String> {
    let mut probing = StdRng::seed_from_u64(seed);
    let probed = config.probe_max_delay_count(&mut probing);
    let mut recording = StdRng::seed_from_u64(seed);
    let mut scratch = DagScratch::new();
    let recorded = config.generate_into(&mut recording, &mut scratch);
    let dag = scratch.build();
    let built = dag.delay_profile().max_delay_count();
    prop_assert_eq!(
        (probed, recorded, built),
        (built, built, oracle_b_bar(&dag)),
        "probe, recording pass, built graph against the oracle ({:?}, seed {})",
        config.blocking,
        seed
    );
    prop_assert_eq!(
        rand::Rng::gen::<u64>(&mut probing),
        rand::Rng::gen::<u64>(&mut recording)
    );
    Ok(dag)
}

proptest! {
    /// Guarantee 1 on every policy and seed.
    #[test]
    fn probe_b_bar_matches_both_references((config, seed) in gen_config()) {
        probe_agrees(&config, seed)?;
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

    /// Guarantee 3: full task-set generation agrees between the fast
    /// path and the reference path, unwindowed (kind 0), in the wide
    /// window [1, 7] (kind 5), in a narrow Figure 2(a)/(b) window
    /// `[l_max − 1, l_max]` with `l_max` = kind ∈ 1..=4 at `m = 8` under
    /// `BlockingPolicy::Fixed`, or at the top of the floor's range,
    /// `[i64::MAX − 1, i64::MAX]`, for a pool of 2⁶³ threads (kind 6) or
    /// `usize::MAX` (kind 7): past `i64::MAX` threads the floor saturates
    /// as `concurrency_floor`'s does.
    #[test]
    fn taskset_fast_path_matches_reference(
        (config, seed) in gen_config(),
        n_tasks in 1usize..5,
        window_kind in 0i64..8,
        pct in 50u32..100,
    ) {
        let top = |m| ConcurrencyWindow { m, l_min: i64::MAX - 1, l_max: i64::MAX, max_attempts: 40 };
        let (config, window) = match window_kind {
            0 => (config, None),
            5 => (config, Some(ConcurrencyWindow { m: 8, l_min: 1, l_max: 7, max_attempts: 40 })),
            6 => (config, Some(top(1 << 63))),
            7 => (config, Some(top(usize::MAX))),
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

/// Guarantee 1 where each term of the closed form decides: every seed
/// below 3 000 under four policies (never, depth-weighted, one half,
/// always). Some draws must reach each case: no blocking region, the top
/// region alone, and `b̄ < |BF|` — every top-level branch holding two
/// blocking inner regions, the one case where a branch's own blocking
/// forks lower `b̄` by more than its blocking children raise it. The
/// proptest above rarely draws the last.
#[test]
fn closed_form_b_bar_matches_both_references_in_every_case() {
    let (mut none, mut top_only, mut below_forks) = (0, 0, 0);
    for blocking in [
        BlockingPolicy::Fixed(0.0),
        BlockingPolicy::DepthWeighted,
        BlockingPolicy::Fixed(0.5),
        BlockingPolicy::Fixed(1.0),
    ] {
        let config = DagGenConfig { blocking };
        for seed in 0..3_000 {
            let dag = probe_agrees(&config, seed).unwrap_or_else(|e| panic!("{e}"));
            let (forks, b_bar) = (dag.blocking_forks(), dag.delay_profile().max_delay_count());
            match forks {
                [] => none += 1,
                [fork] if dag.successors(dag.source()) == [*fork] => top_only += 1,
                _ if b_bar < forks.len() => below_forks += 1,
                _ => {}
            }
        }
    }
    println!("{none} graphs without blocking, {top_only} with the top region alone, {below_forks} with b̄ < |BF|");
    assert!(none > 0 && top_only > 0 && below_forks > 0);
}
