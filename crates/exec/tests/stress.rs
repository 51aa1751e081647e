//! Stress tests: random generated workloads through every queue
//! discipline, checking precedence, completeness, and stall verdicts
//! against the static analysis.

use std::sync::mpsc;
use std::time::Duration;

use rand::SeedableRng;
use rtpool_core::partition::algorithm1;
use rtpool_core::{deadlock, sizing};
use rtpool_exec::{
    Engine, ExecError, FaultPlan, PoolConfig, QueueDiscipline, RecoveryPolicy, ThreadPool,
};
use rtpool_gen::DagGenConfig;
use rtpool_graph::Dag;

fn random_dag(seed: u64) -> Dag {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    DagGenConfig::default().generate(&mut rng)
}

/// Both dispatch engines: every stress workload must hold under the v1
/// condvar engine and the v2 lock-free engine alike.
const ENGINES: [Engine; 2] = [Engine::V1Condvar, Engine::V2LockFree];

fn fast_pool(workers: usize, discipline: QueueDiscipline, engine: Engine) -> ThreadPool {
    ThreadPool::new(
        PoolConfig::new(workers, discipline)
            .with_engine(engine)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(20)),
    )
}

fn assert_valid_run(dag: &Dag, report: &rtpool_exec::JobReport) {
    assert_eq!(report.executed_nodes, dag.node_count());
    // Completion order respects precedence.
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
    // Spans cover every node exactly once with sane timestamps.
    assert_eq!(report.spans.len(), dag.node_count());
    for span in &report.spans {
        assert!(span.start <= span.end);
        assert!(span.end <= report.makespan + Duration::from_millis(50));
    }
}

#[test]
fn global_fifo_random_workloads() {
    for engine in ENGINES {
        global_fifo_random_workloads_on(engine);
    }
}

fn global_fifo_random_workloads_on(engine: Engine) {
    for seed in 0..25 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag);
        let mut pool = fast_pool(workers, QueueDiscipline::GlobalFifo, engine);
        let report = pool
            .run(&dag)
            .unwrap_or_else(|e| panic!("seed {seed}: safe pool size {workers} stalled: {e}"));
        assert_valid_run(&dag, &report);
    }
}

#[test]
fn work_stealing_random_workloads() {
    for engine in ENGINES {
        work_stealing_random_workloads_on(engine);
    }
}

fn work_stealing_random_workloads_on(engine: Engine) {
    for seed in 100..120 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag);
        let mut pool = fast_pool(workers, QueueDiscipline::WorkStealing { seed }, engine);
        let report = pool.run(&dag).unwrap();
        assert_valid_run(&dag, &report);
    }
}

#[test]
fn partitioned_random_workloads_with_algorithm1() {
    for engine in ENGINES {
        partitioned_random_workloads_with_algorithm1_on(engine);
    }
}

fn partitioned_random_workloads_with_algorithm1_on(engine: Engine) {
    let mut ran = 0;
    for seed in 200..240 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag) + 1;
        let Ok(mapping) = algorithm1(&dag, workers) else {
            continue;
        };
        let mut pool = fast_pool(workers, QueueDiscipline::Partitioned(mapping), engine);
        let report = pool.run(&dag).unwrap();
        assert_valid_run(&dag, &report);
        ran += 1;
    }
    assert!(ran > 10, "too few partitionable samples: {ran}");
}

#[test]
fn under_provisioned_pools_stall_only_when_predicted() {
    for engine in ENGINES {
        under_provisioned_pools_stall_only_when_predicted_on(engine);
    }
}

fn under_provisioned_pools_stall_only_when_predicted_on(engine: Engine) {
    // Run every workload on a 1..=safe range of pool sizes; the pool
    // must stall exactly when the analysis says deadlock is possible.
    for seed in 300..315 {
        let dag = random_dag(seed);
        let safe = sizing::min_threads_deadlock_free(&dag);
        for workers in 1..=safe {
            let verdict = deadlock::check_global(&dag, workers);
            let mut pool = fast_pool(workers, QueueDiscipline::GlobalFifo, engine);
            match pool.run(&dag) {
                Ok(report) => {
                    assert_valid_run(&dag, &report);
                    // Completion with a "possible deadlock" verdict is
                    // fine: the verdict is about the *existence* of a bad
                    // interleaving, not this particular one.
                }
                Err(ExecError::Stalled { .. }) => {
                    assert!(
                        !verdict.is_deadlock_free(),
                        "seed {seed}: stalled at {workers} workers despite deadlock-free verdict"
                    );
                }
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn pool_survives_a_batch_of_mixed_jobs() {
    for engine in ENGINES {
        pool_survives_a_batch_of_mixed_jobs_on(engine);
    }
}

fn pool_survives_a_batch_of_mixed_jobs_on(engine: Engine) {
    let mut pool = fast_pool(3, QueueDiscipline::GlobalFifo, engine);
    let mut stalls = 0;
    let mut completions = 0;
    for seed in 400..430 {
        let dag = random_dag(seed);
        match pool.run(&dag) {
            Ok(report) => {
                assert_valid_run(&dag, &report);
                completions += 1;
            }
            Err(ExecError::Stalled { .. }) => stalls += 1,
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert_eq!(stalls + completions, 30);
    assert!(completions > 0, "some jobs must fit 3 workers");
}

/// Satellite (c): a deliberately oversubscribed m = 32 pool (this runner
/// has far fewer cores) churning many tiny-WCET wide jobs back to back.
/// Every completion wakeup under the v2 engine is a *targeted* unpark; a
/// lost wakeup would strand a parked worker and surface as a watchdog
/// abort or a spurious stall. Seeded and deterministic in workload.
#[test]
fn no_lost_wakeups_at_m32_oversubscribed() {
    use rand::Rng;
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(32, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_time_scale(Duration::ZERO)
                .with_watchdog(Duration::from_secs(20)),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11CE);
        for round in 0..40 {
            // Wide, shallow, all-tiny-WCET fork-joins: maximal enqueue /
            // park churn per unit of body work.
            let width = rng.gen_range(8..=64);
            let blocking = round % 3 == 0;
            let mut b = rtpool_graph::DagBuilder::new();
            let wcets = vec![1u64; width];
            b.fork_join(1, &wcets, 1, blocking).unwrap();
            let dag = b.build().unwrap();
            let report = pool.run(&dag).unwrap_or_else(|e| {
                panic!(
                    "{} round {round}: lost wakeup suspected: {e}",
                    engine.as_str()
                )
            });
            assert_eq!(report.executed_nodes, width + 2, "round {round}");
        }
    }
}

/// Regression for the v2 false stall at job end: the stall detector read
/// the completion ticket before the packed counter, so the sink's
/// `ticket += 1; ctr -= EXEC_ONE` could land between the two reads and
/// an idle worker saw "work remains" next to "nobody executing, nothing
/// queued" — `Stalled` with 0 suspended workers after all 258 nodes. A
/// flat fan-out with free bodies on two stealing workers makes the
/// window as hot as it gets; under `Abort` a single false stall fails
/// the run.
#[test]
fn v2_flat_jobs_never_stall_at_job_end() {
    let mut b = rtpool_graph::DagBuilder::new();
    b.fork_join(1, &[1u64; 256], 1, false).unwrap();
    let dag = b.build().unwrap();
    let mut pool = ThreadPool::new(
        PoolConfig::new(2, QueueDiscipline::WorkStealing { seed: 1 })
            .with_engine(Engine::V2LockFree)
            .with_recovery(RecoveryPolicy::Abort)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(20)),
    );
    for run in 0..20_000 {
        let report = pool
            .run(&dag)
            .unwrap_or_else(|e| panic!("run {run}: false stall suspected: {e}"));
        assert_eq!(report.executed_nodes, 258, "run {run}");
    }
}

/// Regression for a lost wakeup on the v2 panic path: the panicking
/// worker writes the terminal status under the job lock but raises the
/// `done` flag and notifies only after releasing it, so a sibling whose
/// barrier-wait predicate was `done` alone could check it, miss the
/// notification and sleep forever on the dead job — the next job then
/// runs a worker short and dropping the pool hangs in `join`. Here the
/// fork's worker waits on a suspend-mode barrier while the first
/// attempt's only child panics; the retry needs *both* workers (one
/// waits, one serves the child), so a stranded sibling shows up as a
/// watchdog abort, and the final drop must return.
#[test]
fn panic_beside_a_barrier_waiter_strands_nobody() {
    // Injected panics print through the default hook; mute pool threads.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let name = std::thread::current().name().map(str::to_owned);
        if !name.is_some_and(|n| n.starts_with("rtpool-")) {
            default(info);
        }
    }));
    let mut b = rtpool_graph::DagBuilder::new();
    b.fork_join(1, &[1], 1, true).unwrap(); // fork 0, join 1, child 2
    let dag = b.build().unwrap();
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_time_scale(Duration::ZERO)
                .with_watchdog(Duration::from_secs(2))
                .with_recovery(RecoveryPolicy::RetryWithBackoff {
                    max_retries: 1,
                    base_delay: Duration::ZERO,
                })
                .with_faults(FaultPlan::seeded(7).panic_on_attempt(0, 2)),
        );
        for run in 0..3_000 {
            match pool.run(&dag) {
                Ok(report) => assert_eq!((report.attempts, report.executed_nodes), (2, 3)),
                Err(e) => {
                    // Dropping a pool with a stranded worker would hang
                    // the failure report itself.
                    std::mem::forget(pool);
                    panic!("{} run {run}: a worker was stranded: {e}", engine.as_str());
                }
            }
        }
        let (dropped, on_drop) = mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            dropped.send(()).unwrap();
        });
        on_drop
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{}: dropping the pool hangs", engine.as_str()));
    }
}
