//! End-to-end pipelines across the whole workspace: generate → analyze →
//! simulate → (spot-check) execute, asserting the safety relations the
//! paper's results rest on.

use rand::SeedableRng;
use rtpool::core::analysis::global::{self, ConcurrencyModel};
use rtpool::core::analysis::partitioned::{self, PartitionStrategy};
use rtpool::core::{deadlock, TaskId};
use rtpool::gen::{BlockingPolicy, ConcurrencyWindow, DagGenConfig, TaskSetConfig};
use rtpool::sim::{SchedulingPolicy, SimConfig};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn generated_sets_analyze_and_simulate_consistently() {
    let m = 6;
    for seed in 0..30 {
        let set = TaskSetConfig::new(3, 0.3 * m as f64, DagGenConfig::default())
            .generate(&mut rng(seed))
            .unwrap();
        let result = global::analyze(&set, m, ConcurrencyModel::Limited);
        if !result.is_schedulable() {
            continue;
        }
        let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 2;
        let out = SimConfig::periodic(SchedulingPolicy::Global, m, horizon)
            .run(&set)
            .unwrap();
        assert!(!out.any_stall(), "seed {seed}: accepted set stalled");
        for (i, _) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time().unwrap();
            if let Some(r) = out.task(i).max_response {
                assert!(r <= bound, "seed {seed}, task {i}: {r} > bound {bound}");
            }
            assert_eq!(out.task(i).deadline_misses, 0, "seed {seed}, task {i}");
        }
    }
}

#[test]
fn exact_concurrency_model_is_sound_against_simulation() {
    let m = 6;
    let mut accepted = 0;
    for seed in 100..160 {
        let set = TaskSetConfig::new(2, 0.3 * m as f64, DagGenConfig::default())
            .generate(&mut rng(seed))
            .unwrap();
        let result = global::analyze(&set, m, ConcurrencyModel::LimitedExact);
        if !result.is_schedulable() {
            continue;
        }
        accepted += 1;
        let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 2;
        let out = SimConfig::periodic(SchedulingPolicy::Global, m, horizon)
            .run(&set)
            .unwrap();
        assert!(!out.any_stall(), "seed {seed}");
        for (i, _) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time().unwrap();
            if let Some(r) = out.task(i).max_response {
                assert!(r <= bound, "seed {seed}, task {i}: {r} > {bound}");
            }
        }
    }
    assert!(accepted > 0, "statistical test vacuous: nothing accepted");
}

#[test]
fn algorithm1_pipeline_simulates_cleanly() {
    let m = 5;
    let mut checked = 0;
    for seed in 200..240 {
        let set = TaskSetConfig::new(3, 0.25 * m as f64, DagGenConfig::default())
            .generate(&mut rng(seed))
            .unwrap();
        let (result, mappings) =
            partitioned::partition_and_analyze(&set, m, PartitionStrategy::Algorithm1);
        if !result.is_schedulable() {
            continue;
        }
        checked += 1;
        let maps: Vec<_> = mappings.into_iter().map(Option::unwrap).collect();
        // Every mapping is certified delay-free.
        for ((_, task), mapping) in set.iter().zip(&maps) {
            deadlock::check_mapping_delay_free(task.dag(), mapping).unwrap();
        }
        let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 2;
        let out = SimConfig::periodic(SchedulingPolicy::Partitioned, m, horizon)
            .with_mappings(maps)
            .run(&set)
            .unwrap();
        assert!(!out.any_stall(), "seed {seed}");
        for (i, _) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time().unwrap();
            if let Some(r) = out.task(i).max_response {
                assert!(r <= bound, "seed {seed}, task {i}: {r} > {bound}");
            }
        }
    }
    assert!(checked > 0, "statistical test vacuous: nothing accepted");
}

#[test]
fn concurrency_window_controls_generated_floors() {
    for l_max in 2..=6 {
        let window = ConcurrencyWindow::around(8, l_max);
        let cfg = TaskSetConfig::new(
            2,
            2.0,
            DagGenConfig {
                blocking: BlockingPolicy::Fixed(0.5),
            },
        )
        .with_concurrency_window(window);
        let set = cfg.generate(&mut rng(l_max as u64)).unwrap();
        for (_, task) in set.iter() {
            let floor = deadlock::concurrency_floor(task.dag(), 8);
            assert!(
                window.contains(floor),
                "floor {floor} outside window around {l_max}"
            );
        }
    }
}

#[test]
fn oblivious_baseline_accepts_sets_that_stall() {
    // The core claim of the paper: the state-of-the-art partitioned
    // analysis can accept a set whose execution deadlocks. Find one
    // within a few seeds and demonstrate it in simulation.
    let m = 2;
    let mut demonstrated = false;
    for seed in 300..400 {
        let set = TaskSetConfig::new(1, 0.4, DagGenConfig::default())
            .generate(&mut rng(seed))
            .unwrap();
        let (result, mappings) =
            partitioned::partition_and_analyze(&set, m, PartitionStrategy::WorstFit);
        if !result.is_schedulable() {
            continue;
        }
        let maps: Vec<_> = mappings.into_iter().map(Option::unwrap).collect();
        let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
            .with_mappings(maps)
            .run(&set)
            .unwrap();
        if out.any_stall() {
            demonstrated = true;
            break;
        }
    }
    assert!(
        demonstrated,
        "expected at least one accepted-but-stalling set in 100 seeds"
    );
}

#[test]
fn facade_reexports_work() {
    // The facade crate exposes all five sub-crates.
    let mut b = rtpool::graph::DagBuilder::new();
    b.add_node(1);
    let dag = b.build().unwrap();
    let _ = rtpool::core::deadlock::check_global(&dag, 1);
    let _ = rtpool::gen::DagGenConfig::default();
    let _ = rtpool::sim::SimConfig::single_job(rtpool::sim::SchedulingPolicy::Global, 1);
    let _ = rtpool::exec::PoolConfig::new(1, rtpool::exec::QueueDiscipline::GlobalFifo);
}
