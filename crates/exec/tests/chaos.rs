//! Chaos suite: hundreds of seeded fault plans driven through every
//! queue discipline, cross-checking the runtime's verdicts against the
//! static analysis of `rtpool-core`, plus deterministic reproductions of
//! panic isolation, watchdog timeouts, retry-with-backoff, and pool
//! growth.

use std::sync::Once;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rtpool_core::partition::worst_fit;
use rtpool_core::{deadlock, sizing};
use rtpool_exec::{
    Engine, ExecError, FaultPlan, PoolConfig, QueueDiscipline, RecoveryEvent, RecoveryPolicy,
    RetryCause, SyncBackend, ThreadPool,
};
use rtpool_gen::DagGenConfig;
use rtpool_graph::{Dag, DagBuilder};

/// Injected node-body panics print through the default panic hook, which
/// turns chaos runs into a wall of expected backtrace noise. Suppress
/// panics coming from pool threads; everything else keeps the default
/// behavior.
fn quiet_worker_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let from_pool = std::thread::current().name().is_some_and(|n| {
                n.starts_with("rtpool-worker-") || n.starts_with("rtpool-rescuer-")
            });
            if !from_pool {
                default(info);
            }
        }));
    });
}

fn random_dag(seed: u64) -> Dag {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    DagGenConfig::default().generate(&mut rng)
}

/// Both dispatch engines: every chaos scenario must hold under the v1
/// condvar engine and the v2 lock-free engine alike.
const ENGINES: [Engine; 2] = [Engine::V1Condvar, Engine::V2LockFree];

fn base_config(workers: usize, discipline: QueueDiscipline, engine: Engine) -> PoolConfig {
    PoolConfig::new(workers, discipline)
        .with_engine(engine)
        .with_time_scale(Duration::ZERO)
        .with_watchdog(Duration::from_secs(20))
}

/// Barrier-wait backends chaos must hold under. Blocking accounting is
/// backend-independent — a spinner is just as unable to serve its queue
/// as a sleeper — so every static verdict the battery cross-checks
/// applies verbatim to both; only the wait mechanics (and hence the
/// interleavings the faults land on) differ.
const BACKENDS: [SyncBackend; 2] = SyncBackend::ALL;

fn assert_valid_run(dag: &Dag, report: &rtpool_exec::JobReport) {
    assert_eq!(report.executed_nodes, dag.node_count());
    let mut pos = vec![usize::MAX; dag.node_count()];
    for (i, &n) in report.completion_order.iter().enumerate() {
        pos[n] = i;
    }
    for v in dag.node_ids() {
        for &s in dag.successors(v) {
            assert!(
                pos[v.index()] < pos[s.index()],
                "{v} completed after its successor {s}"
            );
        }
    }
    assert_eq!(report.spans.len(), dag.node_count());
}

/// A fault mix that cannot make a job fail: wakeup delays and WCET
/// jitter perturb timing but never eat concurrency or kill a body.
fn benign_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .delay_wakeup_prob(0.15, Duration::from_micros(300))
        .jitter_prob(0.25, 3)
}

/// The full chaos mix: panics, suspensions, delays, and jitter.
fn hostile_plan(seed: u64) -> FaultPlan {
    benign_plan(seed)
        .panic_prob(0.04)
        .suspend_prob(0.08, Duration::from_millis(1))
}

/// The two-replica blocking workload of the paper's Figure 1c: needs
/// three workers to be deadlock-free under global scheduling.
fn figure_1c() -> Dag {
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    b.build().unwrap()
}

/// ≥200 seeded fault plans across all three queue disciplines — run once
/// per sync backend, per engine — with the runtime's verdict
/// cross-checked against the static analysis:
///
/// * benign plans (delay + jitter) on safely-sized pools must always
///   complete — timing faults alone can never stall a safe pool;
/// * hostile plans (plus panics and artificial suspensions) on
///   under-provisioned pools may stall or abort, but a stall is only
///   acceptable when the static analysis predicted the pool size is
///   unsafe or a concurrency-eating suspension was injected, and the
///   watchdog must never fire (the exact detector covers every injected
///   state except lost wakeups, which this mix does not contain).
///
/// The same verdict table governs both backends: deadlock is a property
/// of who is *blocked*, not of how they wait, so a plan that must
/// complete under suspend must complete under spin, and vice versa.
#[test]
fn seeded_fault_plans_across_all_disciplines() {
    for engine in ENGINES {
        for backend in BACKENDS {
            seeded_fault_plans_across_all_disciplines_on(engine, backend);
        }
    }
}

fn seeded_fault_plans_across_all_disciplines_on(engine: Engine, backend: SyncBackend) {
    quiet_worker_panics();
    let mut plans_run = 0u32;
    for seed in 0..35u64 {
        let dag = random_dag(seed);
        let safe = sizing::min_threads_deadlock_free(&dag);

        // Benign mix on a safe pool: must complete, whatever the
        // discipline.
        for discipline in [
            QueueDiscipline::GlobalFifo,
            QueueDiscipline::WorkStealing { seed },
            QueueDiscipline::Partitioned(worst_fit(&dag, safe)),
        ] {
            let partitioned_safe = match &discipline {
                QueueDiscipline::Partitioned(mapping) => {
                    deadlock::check_partitioned(&dag, safe, mapping).is_deadlock_free()
                }
                _ => true,
            };
            let config = base_config(safe, discipline, engine)
                .with_backend(backend)
                .with_faults(benign_plan(seed));
            let mut pool = ThreadPool::new(config);
            match pool.run(&dag) {
                Ok(report) => assert_valid_run(&dag, &report),
                Err(ExecError::Stalled { .. }) if !partitioned_safe => {
                    // A worst-fit mapping can be unsafe even at the safe
                    // global size; the static check must have predicted it.
                }
                Err(e) => panic!(
                    "seed {seed}: benign plan failed under {}: {e}",
                    backend.as_str()
                ),
            }
            plans_run += 1;
        }

        // Hostile mix on an under-provisioned pool: any statically
        // explicable outcome is fine, silent watchdog aborts are not.
        let workers = (safe - 1).max(1);
        for discipline in [
            QueueDiscipline::GlobalFifo,
            QueueDiscipline::WorkStealing { seed: seed + 1 },
            QueueDiscipline::Partitioned(worst_fit(&dag, workers)),
        ] {
            let verdict_safe = match &discipline {
                QueueDiscipline::Partitioned(mapping) => {
                    deadlock::check_partitioned(&dag, workers, mapping).is_deadlock_free()
                }
                _ => deadlock::check_global(&dag, workers).is_deadlock_free(),
            };
            let config = base_config(workers, discipline.clone(), engine)
                .with_backend(backend)
                .with_faults(hostile_plan(seed));
            let mut pool = ThreadPool::new(config);
            match pool.run(&dag) {
                Ok(report) => assert_valid_run(&dag, &report),
                Err(ExecError::Stalled {
                    suspended_workers, ..
                }) => {
                    assert!(suspended_workers <= workers);
                    if verdict_safe {
                        // A statically safe configuration can only stall
                        // because injected suspensions ate concurrency:
                        // the same seeded run minus the suspension rule
                        // (panic draws are keyed by the same rule index,
                        // so they repeat identically) must never stall.
                        let no_suspensions = benign_plan(seed).panic_prob(0.04);
                        let config = base_config(workers, discipline.clone(), engine)
                            .with_backend(backend)
                            .with_faults(no_suspensions);
                        let mut pool = ThreadPool::new(config);
                        match pool.run(&dag) {
                            Ok(report) => assert_valid_run(&dag, &report),
                            Err(ExecError::NodePanicked { .. }) => {}
                            Err(e) => panic!(
                                "seed {seed}: suspension-free rerun of a statically safe \
                                 configuration failed under {}: {e}",
                                backend.as_str()
                            ),
                        }
                    }
                }
                Err(ExecError::NodePanicked { node, .. }) => {
                    assert!(node < dag.node_count());
                }
                Err(e) => panic!(
                    "seed {seed}: unexpected error under {}: {e}",
                    backend.as_str()
                ),
            }
            plans_run += 1;
        }
    }
    assert!(
        plans_run >= 200,
        "only {plans_run} fault plans were run under {} / {}",
        engine.as_str(),
        backend.as_str()
    );
}

/// Identical seeds produce identical fault decisions, regardless of
/// thread interleaving, and the outcome class repeats as far as those
/// decisions determine it. Panic decisions are per (attempt, node): a
/// seed that dooms some node can never complete, and one that dooms
/// none can never report a panic. Whether a pool one worker short of
/// the deadlock-free size stalls under injected suspensions depends on
/// which forks overlap, so there a stall may replace either class; at
/// the deadlock-free size and without suspensions nothing can stall, and
/// the class repeats exactly.
#[test]
fn chaos_outcomes_are_reproducible_from_the_seed() {
    for engine in ENGINES {
        for backend in BACKENDS {
            chaos_outcomes_are_reproducible_from_the_seed_on(engine, backend);
        }
    }
}

fn chaos_outcomes_are_reproducible_from_the_seed_on(engine: Engine, backend: SyncBackend) {
    const OK: u8 = 0;
    const STALLED: u8 = 1;
    const PANICKED: u8 = 2;
    quiet_worker_panics();
    for seed in 50..65u64 {
        let dag = random_dag(seed);
        let safe = sizing::min_threads_deadlock_free(&dag);
        let outcome = |workers: usize, plan: FaultPlan| {
            let config = base_config(workers, QueueDiscipline::GlobalFifo, engine)
                .with_backend(backend)
                .with_faults(plan);
            let mut p = ThreadPool::new(config);
            match p.run(&dag) {
                Ok(_) => OK,
                Err(ExecError::Stalled { .. }) => STALLED,
                Err(ExecError::NodePanicked { .. }) => PANICKED,
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        };
        // Panic draws are keyed by the rule index, so dropping the
        // suspension rule (the last one) leaves them as they were.
        let no_suspensions = benign_plan(seed).panic_prob(0.04);
        let doomed = outcome(safe, no_suspensions.clone());
        assert_ne!(doomed, STALLED, "seed {seed}: stall at the safe size");
        assert_eq!(
            outcome(safe, no_suspensions),
            doomed,
            "seed {seed}: suspension-free run at the safe size not reproducible"
        );
        for _ in 0..2 {
            let hostile = outcome(safe.max(2) - 1, hostile_plan(seed));
            assert!(
                hostile == STALLED || hostile == doomed,
                "seed {seed}: class {hostile} one worker short, {doomed} at the safe size"
            );
        }
    }
}

/// A panicking node body aborts its job with `NodePanicked` but must not
/// poison the pool: the same pool serves later jobs normally, including
/// when another worker was suspended on a barrier at panic time.
#[test]
fn node_panic_is_isolated_and_pool_stays_usable() {
    for engine in ENGINES {
        node_panic_is_isolated_and_pool_stays_usable_on(engine);
    }
}

fn node_panic_is_isolated_and_pool_stays_usable_on(engine: Engine) {
    quiet_worker_panics();
    // Blocking fork-join: node 0 = BF, nodes 1-2 = children, node 3 = BJ.
    let mut b = DagBuilder::new();
    b.fork_join(1, &[2, 2], 1, true).unwrap();
    let dag = b.build().unwrap();
    let config = base_config(2, QueueDiscipline::GlobalFifo, engine)
        .with_faults(FaultPlan::seeded(7).panic_on(2));
    let mut pool = ThreadPool::new(config);
    // Deterministic plans fail deterministically, run after run.
    for round in 0..3 {
        match pool.run(&dag) {
            Err(ExecError::NodePanicked { node, message }) => {
                assert_eq!(node, 2, "round {round}");
                assert!(
                    message.contains("injected fault"),
                    "round {round}: {message}"
                );
            }
            other => panic!("round {round}: expected NodePanicked, got {other:?}"),
        }
    }
    // A job without the doomed node index runs to completion on the very
    // same pool — counters and epoch survived the panics.
    let mut tiny = DagBuilder::new();
    tiny.add_node(1);
    let tiny = tiny.build().unwrap();
    let report = pool.run(&tiny).unwrap();
    assert_eq!(report.executed_nodes, 1);
    assert_eq!(report.attempts, 1);
}

/// Satellite (b): a swallowed completion wakeup is the one failure the
/// exact stall detector intentionally does not claim (a join is ready —
/// the state is not a deadlock, the *notification* was lost). The
/// watchdog must catch it, deterministically.
#[test]
fn watchdog_catches_swallowed_wakeup() {
    for engine in ENGINES {
        watchdog_catches_swallowed_wakeup_on(engine);
    }
}

fn watchdog_catches_swallowed_wakeup_on(engine: Engine) {
    // Node 0 = BF (its worker suspends on the barrier), node 1 = BJ,
    // node 2 = the child. Swallowing the child's completion wakeup
    // leaves the barrier sleeper unnotified forever — provided it is
    // asleep by then: a fork worker that reaches its wait after the
    // child finished sees the join ready and needs no wakeup. The
    // child's 50 ms body starts only once the fork is done, so the fork's
    // worker has that long for the few instructions to its wait.
    let mut b = DagBuilder::new();
    b.fork_join(1, &[10], 1, true).unwrap();
    let dag = b.build().unwrap();
    let config = PoolConfig::new(2, QueueDiscipline::GlobalFifo)
        .with_engine(engine)
        .with_time_scale(Duration::from_millis(5))
        .with_watchdog(Duration::from_millis(150))
        .with_faults(FaultPlan::seeded(3).swallow_wakeup_on(2));
    let mut pool = ThreadPool::new(config);
    let start = Instant::now();
    match pool.run(&dag) {
        Err(ExecError::WatchdogTimeout) => {}
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "watchdog fired before its window"
    );
    // The pool survives the abort.
    let mut tiny = DagBuilder::new();
    tiny.add_node(1);
    let tiny = tiny.build().unwrap();
    assert_eq!(pool.run(&tiny).unwrap().executed_nodes, 1);
}

/// Satellite (d): an injected suspension stalls the first attempt; the
/// retry policy backs off and the second attempt (whose fault rule no
/// longer matches) succeeds. The report carries the whole history.
#[test]
fn retry_with_backoff_recovers_injected_stall() {
    for engine in ENGINES {
        retry_with_backoff_recovers_injected_stall_on(engine);
    }
}

fn retry_with_backoff_recovers_injected_stall_on(engine: Engine) {
    // A 3-node chain on one worker: suspending the worker on node 1
    // leaves nothing fetchable and nobody executing — an exact stall.
    let mut b = DagBuilder::new();
    let n0 = b.add_node(1);
    let n1 = b.add_node(1);
    let n2 = b.add_node(1);
    b.add_edge(n0, n1).unwrap();
    b.add_edge(n1, n2).unwrap();
    let dag = b.build().unwrap();

    let base_delay = Duration::from_millis(25);
    let config = base_config(1, QueueDiscipline::GlobalFifo, engine)
        .with_recovery(RecoveryPolicy::RetryWithBackoff {
            max_retries: 2,
            base_delay,
        })
        .with_faults(FaultPlan::seeded(5).suspend_on_attempt(0, 1, Duration::from_millis(40)));
    let mut pool = ThreadPool::new(config);
    let start = Instant::now();
    let report = pool.run(&dag).unwrap();
    let elapsed = start.elapsed();

    assert_eq!(report.executed_nodes, 3);
    assert_eq!(report.attempts, 2, "one stall, one successful retry");
    assert!(
        elapsed >= base_delay,
        "backoff delay must be respected: {elapsed:?}"
    );
    assert!(report
        .recovery_events
        .contains(&RecoveryEvent::FaultInjected {
            attempt: 0,
            node: 1,
            fault: "suspend_worker",
        }));
    assert!(report.recovery_events.contains(&RecoveryEvent::Retried {
        attempt: 0,
        cause: RetryCause::Stalled,
        delay: base_delay,
    }));
}

/// Retry also covers isolated node panics, with exponential backoff
/// between attempts.
#[test]
fn retry_with_backoff_recovers_injected_panic() {
    for engine in ENGINES {
        retry_with_backoff_recovers_injected_panic_on(engine);
    }
}

fn retry_with_backoff_recovers_injected_panic_on(engine: Engine) {
    quiet_worker_panics();
    let mut b = DagBuilder::new();
    b.add_node(1);
    let dag = b.build().unwrap();
    let base_delay = Duration::from_millis(5);
    let config = base_config(1, QueueDiscipline::GlobalFifo, engine)
        .with_recovery(RecoveryPolicy::RetryWithBackoff {
            max_retries: 3,
            base_delay,
        })
        .with_faults(
            FaultPlan::seeded(8)
                .panic_on_attempt(0, 0)
                .panic_on_attempt(1, 0),
        );
    let mut pool = ThreadPool::new(config);
    let report = pool.run(&dag).unwrap();
    assert_eq!(report.attempts, 3, "two panics, then success");
    let retries: Vec<_> = report
        .recovery_events
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::Retried {
                attempt,
                cause,
                delay,
            } => Some((*attempt, *cause, *delay)),
            _ => None,
        })
        .collect();
    assert_eq!(
        retries,
        vec![
            (0, RetryCause::NodePanicked(0), base_delay),
            (1, RetryCause::NodePanicked(0), base_delay * 2),
        ],
        "exponential backoff per attempt"
    );
    // An exhausted retry budget surfaces the final error.
    let config = base_config(1, QueueDiscipline::GlobalFifo, engine)
        .with_recovery(RecoveryPolicy::RetryWithBackoff {
            max_retries: 1,
            base_delay,
        })
        .with_faults(FaultPlan::seeded(8).panic_on(0));
    let mut pool = ThreadPool::new(config);
    assert!(matches!(
        pool.run(&dag),
        Err(ExecError::NodePanicked { node: 0, .. })
    ));
}

/// `GrowPool` resolves the paper's Figure 1c deadlock: the reserve
/// computed by `sizing::reserve_for` restores the available concurrency
/// `l̄ = m − b̄ ≥ 1` and the job completes on an under-provisioned pool.
#[test]
fn grow_pool_resolves_figure_1c_deadlock() {
    for engine in ENGINES {
        grow_pool_resolves_figure_1c_deadlock_on(engine);
    }
}

fn grow_pool_resolves_figure_1c_deadlock_on(engine: Engine) {
    let dag = figure_1c();
    let workers = 2;
    let reserve = sizing::reserve_for(&dag, workers);
    assert_eq!(
        reserve, 1,
        "two concurrent forks on two workers need one spare"
    );
    for discipline in [
        QueueDiscipline::GlobalFifo,
        QueueDiscipline::WorkStealing { seed: 17 },
    ] {
        let config = base_config(workers, discipline, engine)
            .with_recovery(RecoveryPolicy::GrowPool { reserve });
        let mut pool = ThreadPool::new(config);
        let report = pool.run(&dag).unwrap();
        assert_valid_run(&dag, &report);
        assert_eq!(report.attempts, 1, "growth happens in-place, not by retry");
        assert!(
            report.workers_grown() >= 1,
            "the stall must have forced growth"
        );
        assert!(report.workers_grown() <= reserve);
        assert!(report.recovery_events.iter().any(|e| matches!(
            e,
            RecoveryEvent::PoolGrown { total_workers, .. } if *total_workers <= workers + reserve
        )));
    }
}

/// Under the partitioned discipline, rescue workers serve the queues of
/// suspended owners — growth un-wedges a mapping that strands a child
/// behind its suspended fork.
#[test]
fn grow_pool_rescues_unsafe_partitioned_mapping() {
    for engine in ENGINES {
        grow_pool_rescues_unsafe_partitioned_mapping_on(engine);
    }
}

fn grow_pool_rescues_unsafe_partitioned_mapping_on(engine: Engine) {
    let mut b = DagBuilder::new();
    b.fork_join(1, &[1], 1, true).unwrap();
    let dag = b.build().unwrap();
    // Everything on the single worker: the child sits in the queue of the
    // worker suspended on the fork's barrier.
    let mapping = worst_fit(&dag, 1);
    let config = base_config(1, QueueDiscipline::Partitioned(mapping), engine)
        .with_recovery(RecoveryPolicy::GrowPool { reserve: 1 });
    let mut pool = ThreadPool::new(config);
    let report = pool.run(&dag).unwrap();
    assert_valid_run(&dag, &report);
    assert_eq!(report.workers_grown(), 1);
}

/// On a statically safe pool, injected suspensions may still eat all
/// concurrency; with an adequate allowance (one spare per concurrently
/// injected suspension) `GrowPool` must always complete the job — under
/// either wait backend: the rescuers growth adds serve queues regardless
/// of whether the wedged workers sleep or spin.
#[test]
fn grow_pool_completes_safe_jobs_under_injected_suspensions() {
    for engine in ENGINES {
        for backend in BACKENDS {
            grow_pool_completes_safe_jobs_under_injected_suspensions_on(engine, backend);
        }
    }
}

fn grow_pool_completes_safe_jobs_under_injected_suspensions_on(
    engine: Engine,
    backend: SyncBackend,
) {
    for seed in 70..82u64 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag);
        assert_eq!(sizing::reserve_for(&dag, workers), 0, "statically safe");
        // The hostile suspension mix can suspend every worker at once in
        // the worst case: allow one spare per worker.
        let config = base_config(workers, QueueDiscipline::GlobalFifo, engine)
            .with_backend(backend)
            .with_recovery(RecoveryPolicy::GrowPool { reserve: workers })
            .with_faults(FaultPlan::seeded(seed).suspend_prob(0.3, Duration::from_millis(2)));
        let mut pool = ThreadPool::new(config);
        let report = pool.run(&dag).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: GrowPool failed to recover under {}: {e}",
                backend.as_str()
            )
        });
        assert_valid_run(&dag, &report);
    }
}

/// An exhausted growth reserve degrades gracefully into the exact stall
/// verdict instead of hanging or watchdogging.
#[test]
fn exhausted_reserve_still_reports_exact_stall() {
    for engine in ENGINES {
        exhausted_reserve_still_reports_exact_stall_on(engine);
    }
}

fn exhausted_reserve_still_reports_exact_stall_on(engine: Engine) {
    // Three concurrent blocking forks on one worker: needs three spares,
    // gets one.
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..3 {
        let (f, j) = b.fork_join(1, &[1], 1, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    let dag = b.build().unwrap();
    let config = base_config(1, QueueDiscipline::GlobalFifo, engine)
        .with_recovery(RecoveryPolicy::GrowPool { reserve: 1 });
    let mut pool = ThreadPool::new(config);
    match pool.run(&dag) {
        Err(ExecError::Stalled {
            suspended_workers, ..
        }) => {
            assert!(suspended_workers >= 2, "both workers ended up suspended");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    // And the pool (including its retired rescuer) is still healthy.
    let mut tiny = DagBuilder::new();
    tiny.add_node(1);
    let tiny = tiny.build().unwrap();
    assert_eq!(pool.run(&tiny).unwrap().executed_nodes, 1);
}

/// Regression: a panic observed while a sibling node is mid-body on
/// another worker must not cost that sibling's `NodeEnd`. The submitter
/// drains in-flight bodies before detaching the aborted job; without the
/// drain, the sibling's re-lock hits the epoch guard and its terminal
/// events vanish from `take_last_trace`.
#[test]
fn panic_trace_keeps_mid_body_sibling_node_end() {
    for engine in ENGINES {
        panic_trace_keeps_mid_body_sibling_node_end_on(engine);
    }
}

fn panic_trace_keeps_mid_body_sibling_node_end_on(engine: Engine) {
    quiet_worker_panics();
    // src fans out to a slow node (mid-body when the panic fires) and a
    // fast chain whose second node panics before its body runs.
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let slow = b.add_node(200);
    let fast = b.add_node(10);
    let doomed = b.add_node(1);
    let snk = b.add_node(1);
    b.add_edge(src, slow).unwrap();
    b.add_edge(src, fast).unwrap();
    b.add_edge(fast, doomed).unwrap();
    b.add_edge(doomed, snk).unwrap();
    b.add_edge(slow, snk).unwrap();
    let dag = b.build().unwrap();
    let config = PoolConfig::new(2, QueueDiscipline::GlobalFifo)
        .with_engine(engine)
        .with_time_scale(Duration::from_micros(100))
        .with_watchdog(Duration::from_secs(20))
        .with_trace()
        .with_faults(FaultPlan::seeded(7).panic_on(doomed.index()));
    let mut pool = ThreadPool::new(config);
    for round in 0..3 {
        match pool.run(&dag) {
            Err(ExecError::NodePanicked { node, .. }) => {
                assert_eq!(node, doomed.index(), "round {round}");
            }
            other => panic!("round {round}: expected NodePanicked, got {other:?}"),
        }
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "round {round}: {:?}",
            trace.validate()
        );
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        for e in &trace.events {
            match e.kind {
                rtpool_trace::EventKind::NodeStart { node, .. } => starts.push(node),
                rtpool_trace::EventKind::NodeEnd { node, .. } => ends.push(node),
                _ => {}
            }
        }
        assert_eq!(
            starts.len(),
            ends.len(),
            "round {round}: a mid-body sibling's NodeEnd was dropped"
        );
        let slow_id = u32::try_from(slow.index()).unwrap();
        assert!(
            ends.contains(&slow_id),
            "round {round}: slow sibling's NodeEnd missing ({ends:?})"
        );
    }
}

/// Satellite (a): failed attempts keep their traces. A deterministic
/// first-attempt panic under `RetryWithBackoff` must leave exactly one
/// schema-clean trace in `JobReport::attempt_traces`, separate from the
/// successful attempt's trace — and an exhausted retry budget must leave
/// the failed attempts' traces retrievable from the pool.
#[test]
fn retry_preserves_failed_attempt_traces() {
    for engine in ENGINES {
        retry_preserves_failed_attempt_traces_on(engine);
    }
}

fn retry_preserves_failed_attempt_traces_on(engine: Engine) {
    quiet_worker_panics();
    let mut b = DagBuilder::new();
    b.fork_join(1, &[2, 2], 1, false).unwrap();
    let dag = b.build().unwrap();
    let retrying = |faults: FaultPlan| {
        base_config(2, QueueDiscipline::GlobalFifo, engine)
            .with_trace()
            .with_recovery(RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                base_delay: Duration::from_millis(1),
            })
            .with_faults(faults)
    };

    // One failed attempt, then success: the report carries both traces.
    let mut pool = ThreadPool::new(retrying(FaultPlan::seeded(11).panic_on_attempt(0, 2)));
    let report = pool.run(&dag).unwrap();
    assert_eq!(report.attempts, 2, "{}", engine.as_str());
    assert_eq!(
        report.attempt_traces.len(),
        1,
        "one failed attempt, one kept trace ({})",
        engine.as_str()
    );
    let failed = &report.attempt_traces[0];
    assert!(failed.validate().is_empty(), "{:?}", failed.validate());
    assert!(
        failed
            .events
            .iter()
            .any(|e| matches!(e.kind, rtpool_trace::EventKind::Recovery { .. })),
        "failed attempt trace records the injected panic ({})",
        engine.as_str()
    );
    let success = report.trace.as_ref().expect("successful attempt trace");
    assert!(success.validate().is_empty(), "{:?}", success.validate());
    assert!(
        pool.take_attempt_traces().is_empty(),
        "success moves the traces onto the report"
    );

    // Retry budget exhausted: every attempt's trace stays on the pool,
    // and the final one doubles as the last trace.
    let mut pool = ThreadPool::new(retrying(FaultPlan::seeded(11).panic_on(2)));
    assert!(matches!(
        pool.run(&dag),
        Err(ExecError::NodePanicked { node: 2, .. })
    ));
    let attempts = pool.take_attempt_traces();
    assert_eq!(attempts.len(), 3, "{}", engine.as_str());
    for t in &attempts {
        assert!(t.validate().is_empty(), "{:?}", t.validate());
    }
    assert!(
        pool.take_last_trace().is_some(),
        "final failed attempt is also the last trace"
    );
}

/// Blocking-event census of a trace: `(spin_starts, spin_ends,
/// barrier_suspends)`. In a spin-backend trace the only legitimate
/// suspend-dialect events are *injected* fault suspensions, which are
/// deliberately traced as barrier waits whatever the backend; genuine
/// barrier waits must all be spin windows. An aborted window may dangle
/// (the epoch guard drops post-abort events), exactly like an aborted
/// worker's `BarrierSuspend` — the validator accepts both at trace end.
fn blocking_stats(trace: &rtpool_trace::Trace, ctx: &str) -> (usize, usize, usize) {
    let defects = trace.validate();
    assert!(defects.is_empty(), "{ctx}: {defects:?}");
    let mut spin_starts = 0usize;
    let mut spin_ends = 0usize;
    let mut barrier_suspends = 0usize;
    for e in &trace.events {
        match e.kind {
            rtpool_trace::EventKind::SpinStart { .. } => spin_starts += 1,
            rtpool_trace::EventKind::SpinEnd { .. } => spin_ends += 1,
            rtpool_trace::EventKind::BarrierSuspend { .. } => barrier_suspends += 1,
            _ => {}
        }
    }
    assert!(
        spin_ends <= spin_starts,
        "{ctx}: more spin ends than starts"
    );
    (spin_starts, spin_ends, barrier_suspends)
}

/// Satellite regression: a fault that lands while another worker is
/// *mid-spin* on a barrier is isolated and recovered exactly like its
/// suspend-mode counterpart.
///
/// Part one: a node panic fires ~1.2ms into a ~10ms busy-wait. The job
/// aborts with `NodePanicked`, the trace stays schema-clean (the
/// abandoned window may dangle, never park), no genuine barrier wait
/// leaks a suspend-dialect event, and the same pool serves later jobs
/// normally.
#[test]
fn panic_mid_spin_is_isolated_and_pool_stays_usable() {
    for engine in ENGINES {
        panic_mid_spin_is_isolated_and_pool_stays_usable_on(engine);
    }
}

fn panic_mid_spin_is_isolated_and_pool_stays_usable_on(engine: Engine) {
    quiet_worker_panics();
    // src fans out to a blocking fork whose single child runs ~10ms (the
    // forking worker busy-waits the whole time) and to a slow→doomed
    // chain whose panic fires ~1.2ms in — squarely inside the window.
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let slow = b.add_node(10);
    let doomed = b.add_node(1);
    let (f, j) = b.fork_join(1, &[100], 1, true).unwrap();
    let snk = b.add_node(1);
    b.add_edge(src, slow).unwrap();
    b.add_edge(slow, doomed).unwrap();
    b.add_edge(src, f).unwrap();
    b.add_edge(j, snk).unwrap();
    b.add_edge(doomed, snk).unwrap();
    let dag = b.build().unwrap();

    let config = PoolConfig::new(3, QueueDiscipline::GlobalFifo)
        .with_engine(engine)
        .with_backend(SyncBackend::Spin)
        .with_time_scale(Duration::from_micros(100))
        .with_watchdog(Duration::from_secs(20))
        .with_trace()
        .with_faults(FaultPlan::seeded(7).panic_on(doomed.index()));
    let mut pool = ThreadPool::new(config);
    for round in 0..2 {
        match pool.run(&dag) {
            Err(ExecError::NodePanicked { node, .. }) => {
                assert_eq!(node, doomed.index(), "round {round}");
            }
            other => panic!("round {round}: expected NodePanicked, got {other:?}"),
        }
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        let ctx = format!("{} round {round}", engine.as_str());
        let (spin_starts, _, barrier_suspends) = blocking_stats(&trace, &ctx);
        assert!(spin_starts >= 1, "{ctx}: the fork worker never busy-waited");
        assert_eq!(
            barrier_suspends, 0,
            "{ctx}: a genuine barrier wait was traced as a suspension"
        );
    }
    // The pool survived both aborts; a fault-free job completes on it.
    let mut tiny = DagBuilder::new();
    tiny.add_node(1);
    let tiny = tiny.build().unwrap();
    assert_eq!(pool.run(&tiny).unwrap().executed_nodes, 1);
}

/// Part two: an injected suspension eats the second worker while the
/// first busy-waits on the fork barrier — an exact stall with a spinning
/// participant. `RetryWithBackoff` must detect it (not watchdog), close
/// the spin window in the failed attempt's trace, and complete on the
/// fault-free retry.
#[test]
fn retry_recovers_stall_with_a_mid_spin_worker() {
    for engine in ENGINES {
        retry_recovers_stall_with_a_mid_spin_worker_on(engine);
    }
}

fn retry_recovers_stall_with_a_mid_spin_worker_on(engine: Engine) {
    // Node 0 = BF (its worker spins on the barrier), node 1 = BJ,
    // node 2 = the child the injected suspension lands on.
    let mut b = DagBuilder::new();
    b.fork_join(1, &[1], 1, true).unwrap();
    let dag = b.build().unwrap();

    let base_delay = Duration::from_millis(10);
    let config = base_config(2, QueueDiscipline::GlobalFifo, engine)
        .with_backend(SyncBackend::Spin)
        .with_trace()
        .with_recovery(RecoveryPolicy::RetryWithBackoff {
            max_retries: 2,
            base_delay,
        })
        .with_faults(FaultPlan::seeded(5).suspend_on_attempt(0, 2, Duration::from_millis(40)));
    let mut pool = ThreadPool::new(config);
    let report = pool.run(&dag).unwrap();

    assert_eq!(report.executed_nodes, dag.node_count());
    assert_eq!(report.attempts, 2, "one mid-spin stall, one clean retry");
    assert!(report
        .recovery_events
        .contains(&RecoveryEvent::FaultInjected {
            attempt: 0,
            node: 2,
            fault: "suspend_worker",
        }));
    assert!(report.recovery_events.contains(&RecoveryEvent::Retried {
        attempt: 0,
        cause: RetryCause::Stalled,
        delay: base_delay,
    }));
    // The stalled attempt's trace shows the fork worker spinning when
    // the stall was declared, and exactly one suspend-dialect event: the
    // injected suspension, traced as a barrier wait by design.
    assert_eq!(report.attempt_traces.len(), 1, "{}", engine.as_str());
    let ctx = format!("{} stalled attempt", engine.as_str());
    let (spin_starts, _, barrier_suspends) = blocking_stats(&report.attempt_traces[0], &ctx);
    assert!(spin_starts >= 1, "{ctx}: the fork worker never busy-waited");
    assert_eq!(
        barrier_suspends, 1,
        "{ctx}: expected exactly the injected suspension"
    );
    // The clean retry is pure spin dialect: no faults, no suspensions.
    let success = report.trace.as_ref().expect("successful attempt trace");
    let ctx = format!("{} retry attempt", engine.as_str());
    let (_, _, retry_suspends) = blocking_stats(success, &ctx);
    assert_eq!(
        retry_suspends, 0,
        "{ctx}: suspension in a fault-free spin run"
    );
}
