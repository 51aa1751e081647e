//! Cross-validation of the analyses against the simulator: the simulator
//! is the empirical oracle, the analyses must be safe with respect to it.

use proptest::prelude::*;
use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::deadlock;
use rtpool_core::deadlock::concurrency_floor;
use rtpool_core::partition::algorithm1;
use rtpool_core::{Task, TaskId, TaskSet};
use rtpool_gen::{BlockingPolicy, DagGenConfig, TaskSetConfig};
use rtpool_sim::{ExecutionTime, SchedulingPolicy, SimConfig};
use rtpool_trace::TraceAnalysis;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn random_set(seed: u64, n: usize, util: f64) -> TaskSet {
    TaskSetConfig::new(n, util, DagGenConfig::default())
        .generate(&mut rng(seed))
        .expect("unconstrained generation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulated available concurrency never drops below the paper's
    /// l̄ bound (Section 3.1's key claim).
    #[test]
    fn concurrency_floor_is_sound(seed in 0u64..10_000, m in 2usize..7) {
        let set = random_set(seed, 2, 0.4 * m as f64);
        let out = SimConfig::single_job(SchedulingPolicy::Global, m).run(&set).unwrap();
        for (i, (_, task)) in set.iter().enumerate() {
            let floor = concurrency_floor(task.dag(), m);
            let observed = out.task(i).min_available_concurrency as i64;
            prop_assert!(
                observed >= floor,
                "observed l(t) = {observed} below bound {floor} (task {i})"
            );
        }
    }

    /// When the exact deadlock check certifies freedom, the simulator
    /// never stalls (Lemma 2 direction: global WC scheduling).
    #[test]
    fn deadlock_free_verdicts_never_stall(seed in 0u64..10_000, m in 1usize..7) {
        let set = random_set(seed, 2, 1.0);
        let all_free = set.iter().all(|(_, task)| {
            deadlock::check_global(task.dag(), m).is_deadlock_free()
        });
        if all_free {
            let out = SimConfig::single_job(SchedulingPolicy::Global, m).run(&set).unwrap();
            prop_assert!(!out.any_stall(), "certified-free set stalled");
        }
    }

    /// Lemma 3 / Algorithm 1: delay-free mappings never stall under
    /// partitioned scheduling.
    #[test]
    fn algorithm1_mappings_never_stall(seed in 0u64..10_000, m in 2usize..7) {
        let set = random_set(seed, 2, 1.0);
        let mut mappings = Vec::new();
        for (_, task) in set.iter() {
            match algorithm1(task.dag(), m) {
                Ok(mapping) => mappings.push(mapping),
                Err(_) => return Ok(()), // partitioning infeasible: skip
            }
        }
        let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
            .with_mappings(mappings)
            .run(&set)
            .unwrap();
        prop_assert!(!out.any_stall(), "Algorithm 1 mapping stalled");
    }

    /// Global RTA safety: on sets the (limited-concurrency) analysis
    /// accepts, the simulated response times never exceed the analytic
    /// bounds — for the synchronous periodic arrival pattern.
    #[test]
    fn global_rta_bounds_dominate_simulation(seed in 0u64..10_000, m in 2usize..7) {
        let set = random_set(seed, 3, 0.4 * m as f64);
        let result = global::analyze(&set, m, ConcurrencyModel::Limited);
        if !result.is_schedulable() {
            return Ok(());
        }
        let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 3;
        let out = SimConfig::periodic(SchedulingPolicy::Global, m, horizon)
            .run(&set)
            .unwrap();
        prop_assert!(!out.any_stall());
        for (i, (_, _)) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time().unwrap();
            if let Some(max_resp) = out.task(i).max_response {
                prop_assert!(
                    max_resp <= bound,
                    "task {i}: simulated response {max_resp} exceeds bound {bound}"
                );
            }
            prop_assert_eq!(out.task(i).deadline_misses, 0);
        }
    }

    /// Partitioned RTA safety on Algorithm 1 mappings (where the
    /// no-reduced-concurrency-delay precondition holds by construction).
    #[test]
    fn partitioned_rta_bounds_dominate_simulation(seed in 0u64..10_000, m in 2usize..7) {
        let set = random_set(seed, 3, 0.3 * m as f64);
        let (result, mappings) =
            partitioned::partition_and_analyze(&set, m, PartitionStrategy::Algorithm1);
        if !result.is_schedulable() {
            return Ok(());
        }
        let mappings: Vec<_> = mappings.into_iter().map(Option::unwrap).collect();
        let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 3;
        let out = SimConfig::periodic(SchedulingPolicy::Partitioned, m, horizon)
            .with_mappings(mappings)
            .run(&set)
            .unwrap();
        prop_assert!(!out.any_stall());
        for (i, _) in set.iter().enumerate() {
            let bound = result.verdict(TaskId(i)).response_time().unwrap();
            if let Some(max_resp) = out.task(i).max_response {
                prop_assert!(
                    max_resp <= bound,
                    "task {i}: simulated response {max_resp} exceeds bound {bound}"
                );
            }
            prop_assert_eq!(out.task(i).deadline_misses, 0);
        }
    }

    /// Non-blocking implementations of the same workload never suspend a
    /// thread (their `l(t)` stays at `m`), while blocking runs dip. Note
    /// that per-run makespans are NOT totally ordered between the two
    /// semantics — FIFO dispatch is a list scheduler, so Graham-style
    /// ordering anomalies can occasionally make the blocking run faster;
    /// only the concurrency profile is a safe invariant.
    #[test]
    fn non_blocking_runs_keep_full_concurrency(seed in 0u64..10_000, m in 2usize..7) {
        let blocking_cfg = DagGenConfig::default();
        let plain_cfg = DagGenConfig { blocking: BlockingPolicy::Fixed(0.0) };
        let dag_b = blocking_cfg.generate(&mut rng(seed));
        let dag_p = plain_cfg.generate(&mut rng(seed));
        let has_regions = !dag_b.blocking_regions().is_empty();
        let set_b = TaskSet::new(vec![Task::with_implicit_deadline(dag_b, 1 << 40).unwrap()]);
        let set_p = TaskSet::new(vec![Task::with_implicit_deadline(dag_p, 1 << 40).unwrap()]);
        let out_b = SimConfig::single_job(SchedulingPolicy::Global, m).run(&set_b).unwrap();
        let out_p = SimConfig::single_job(SchedulingPolicy::Global, m).run(&set_p).unwrap();
        // Plain DAG tasks: always complete, never suspend.
        prop_assert!(out_p.task(0).stall.is_none());
        prop_assert_eq!(out_p.task(0).min_available_concurrency, m);
        // Blocking regions actually suspend threads.
        if has_regions && out_b.task(0).stall.is_none() {
            prop_assert!(out_b.task(0).min_available_concurrency < m);
            // Response time is at least the critical path in either case.
            let rb = out_b.task(0).max_response.unwrap();
            prop_assert!(rb >= set_b.task(TaskId(0)).critical_path_length());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deadlock freedom is execution-time independent: a task certified
    /// deadlock-free under global scheduling never stalls no matter how
    /// much shorter than WCET its nodes actually run.
    #[test]
    fn deadlock_freedom_survives_execution_variation(
        seed in 0u64..10_000, m in 2usize..6, exec_seed in 0u64..100
    ) {
        let set = random_set(seed, 2, 1.0);
        let all_free = set.iter().all(|(_, task)| {
            deadlock::check_global(task.dag(), m).is_deadlock_free()
        });
        prop_assume!(all_free);
        let out = SimConfig::single_job(SchedulingPolicy::Global, m)
            .with_execution_time(ExecutionTime::Random {
                seed: exec_seed,
                min_permille: 100,
            })
            .run(&set)
            .unwrap();
        prop_assert!(!out.any_stall(), "execution variation induced a stall");
    }

    /// Same for Algorithm 1 mappings under partitioned scheduling: the
    /// delay-freedom guarantee is structural, not timing-dependent.
    #[test]
    fn algorithm1_survives_execution_variation(
        seed in 0u64..10_000, m in 2usize..6, exec_seed in 0u64..100
    ) {
        let set = random_set(seed, 2, 1.0);
        let mut mappings = Vec::new();
        for (_, task) in set.iter() {
            match algorithm1(task.dag(), m) {
                Ok(mapping) => mappings.push(mapping),
                Err(_) => return Ok(()),
            }
        }
        let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
            .with_mappings(mappings)
            .with_execution_time(ExecutionTime::Random {
                seed: exec_seed,
                min_permille: 100,
            })
            .run(&set)
            .unwrap();
        prop_assert!(!out.any_stall());
    }
}

/// Deterministic end-to-end scenario: the paper's Figure 1(b) —
/// blocking barriers stretch the schedule even without deadlock.
#[test]
fn figure_1b_blocking_slowdown() {
    // Fork-join of 3 children (wcet 5 each), fork/join wcet 1, m = 2.
    let mk = |blocking: bool| {
        let mut b = rtpool_graph::DagBuilder::new();
        b.fork_join(1, &[5, 5, 5], 1, blocking).unwrap();
        TaskSet::new(vec![Task::with_implicit_deadline(
            b.build().unwrap(),
            10_000,
        )
        .unwrap()])
    };
    let blocking = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&mk(true))
        .unwrap();
    let plain = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&mk(false))
        .unwrap();
    // Non-blocking: the fork's thread helps with the children — two run
    // in parallel, the third serializes: 1 + (5 + 5) + 1 = 12.
    assert_eq!(plain.task(0).max_response, Some(12));
    // Blocking: one thread suspended, children serialize on the other:
    // 1 + 15 + 1 = 17.
    assert_eq!(blocking.task(0).max_response, Some(17));
}

/// The l(t) trace of a blocking run dips exactly while children run.
#[test]
fn concurrency_trace_shape() {
    let mut b = rtpool_graph::DagBuilder::new();
    b.fork_join(2, &[4], 2, true).unwrap();
    let set = TaskSet::new(vec![Task::with_implicit_deadline(
        b.build().unwrap(),
        1_000,
    )
    .unwrap()]);
    let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .with_event_trace()
        .run(&set)
        .unwrap();
    let ana = TraceAnalysis::new(out.event_trace().expect("event trace recorded"));
    // Starts at 2, dips to 1 at fork completion (t=2), returns to 2 when
    // the barrier opens (t=6).
    assert_eq!(ana.task(0).concurrency_profile, [(0, 2), (2, 1), (6, 2)]);
}
