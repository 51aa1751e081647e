//! Cross-backend differential battery: the same seeded task sets pushed
//! through the simulator and the native pool under **both** barrier
//! backends (and, on the pool, both dispatch engines), checking the
//! invariants each backend owes the paper's model:
//!
//! * every trace passes the schema validator — which in spin mode
//!   rejects `ThreadPark` during a busy-wait (`ParkWhileSpinning`) and
//!   any suspend/spin event cross-pairing;
//! * spin traces never contain a `BarrierSuspend`/`BarrierWake` pair
//!   (blocking never parks), suspend traces never contain
//!   `SpinStart`/`SpinEnd`;
//! * observed simultaneous blocking stays within `b̄` and observed
//!   `l(t)` respects the backend's floor: `m − b̄` (antichain) under
//!   suspend, and under spin additionally the harsher delay-count bound
//!   the spin analyses certify (`m − b̄_delay ≤ m − b̄`);
//! * suspend-mode results are bit-identical to the pre-spin-backend
//!   oracle (hard-coded response vectors from the seed pipeline), and a
//!   default `PoolConfig`/`TaskSet` still runs the suspend path.
//!
//! The corpus pushes 100+ distinct seeded sets through the battery (see
//! the `*_SETS` constants, enforced at compile time).

use std::time::Duration;

use rand::SeedableRng;
use rtpool_core::{deadlock, SyncBackend, TaskSet};
use rtpool_exec::{Engine, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_gen::{DagGenConfig, TaskSetConfig};
use rtpool_sim::{SchedulingPolicy, SimConfig, SimOutcome};
use rtpool_trace::{EventKind, Trace, TraceAnalysis};

/// Distinct seeded sets pushed through the simulator (each under both
/// backends).
const SIM_SETS: usize = 84;
/// Distinct seeded sets pushed through the native pool (each under both
/// backends × both engines).
const EXEC_SETS: usize = 20;

// The suite's coverage floor, enforced at compile time.
const _: () = assert!(SIM_SETS + EXEC_SETS >= 100);

const POOL_ENGINES: [Engine; 2] = [Engine::V1Condvar, Engine::V2LockFree];

fn random_set(seed: u64, n: usize, util: f64) -> TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TaskSetConfig::new(n, util, DagGenConfig::default())
        .generate(&mut rng)
        .expect("unconstrained generation succeeds")
}

/// `true` when `kind` is a barrier-suspension event (the suspend
/// backend's blocking signature).
fn is_suspend_blocking(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::BarrierSuspend { .. } | EventKind::BarrierWake { .. }
    )
}

/// `true` when `kind` is a busy-wait event (the spin backend's blocking
/// signature).
fn is_spin_blocking(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::SpinStart { .. } | EventKind::SpinEnd { .. }
    )
}

/// Schema validity plus the backend's exclusive blocking signature: a
/// backend must only ever block in its own dialect.
fn assert_backend_signature(trace: &Trace, backend: SyncBackend, ctx: &str) {
    let defects = trace.validate();
    assert!(defects.is_empty(), "{ctx}: schema defects {defects:?}");
    for e in &trace.events {
        match backend {
            SyncBackend::Suspend => assert!(
                !is_spin_blocking(&e.kind),
                "{ctx}: spin event {:?} in a suspend-mode trace",
                e.kind
            ),
            SyncBackend::Spin => assert!(
                !is_suspend_blocking(&e.kind),
                "{ctx}: suspension event {:?} in a spin-mode trace \
                 (spin blocking must never park)",
                e.kind
            ),
        }
    }
}

/// Observed blocking within `b̄`, observed `l(t)` at or above the
/// backend's floor.
fn assert_floors(trace: &Trace, set: &TaskSet, m: usize, backend: SyncBackend, ctx: &str) {
    let analysis = TraceAnalysis::new(trace);
    for i in 0..trace.tasks as usize {
        let (_, task) = set.iter().nth(i).expect("trace task index in set range");
        let obs = analysis.task(i);
        let b_bar = task.dag().max_blocking_antichain().len();
        assert!(
            obs.max_simultaneous_blocking <= b_bar,
            "{ctx}: task {i} observed {} blocked threads, bound b\u{304} = {b_bar}",
            obs.max_simultaneous_blocking
        );
        let suspend_floor = deadlock::concurrency_floor(task.dag(), m);
        assert!(
            obs.min_available as i64 >= suspend_floor,
            "{ctx}: task {i} observed l(t) = {} below the antichain floor {suspend_floor}",
            obs.min_available
        );
        if backend.is_spin() {
            // The spin analyses certify only the harsher delay-count
            // floor; the observation must respect it a fortiori.
            let spin_floor = m as i64 - task.dag().delay_profile().max_delay_count() as i64;
            assert!(
                obs.min_available as i64 >= spin_floor.min(suspend_floor),
                "{ctx}: task {i} observed l(t) = {} below the spin floor {spin_floor}",
                obs.min_available
            );
        }
    }
}

fn run_sim(set: &TaskSet, m: usize) -> (SimOutcome, Trace) {
    let mut out = SimConfig::single_job(SchedulingPolicy::Global, m)
        .with_event_trace()
        .run(set)
        .expect("simulation runs");
    let trace = out.take_event_trace().expect("tracing was enabled");
    (out, trace)
}

#[test]
fn sim_corpus_respects_each_backends_floors_and_signature() {
    const M: usize = 4;
    let mut spin_blocked_runs = 0usize;
    for seed in 0..SIM_SETS as u64 {
        let base = random_set(seed, 3, 2.0);
        for backend in SyncBackend::ALL {
            let set = base.clone().with_backend(backend);
            let (out, trace) = run_sim(&set, M);
            let ctx = format!("sim seed {seed} backend {}", backend.as_str());
            assert_backend_signature(&trace, backend, &ctx);
            assert_floors(&trace, &set, M, backend, &ctx);
            // The trace-derived observation agrees with the simulator's
            // own accounting under both backends.
            let analysis = TraceAnalysis::new(&trace);
            for (i, task_out) in out.tasks().iter().enumerate() {
                let obs = analysis.task(i);
                assert_eq!(
                    obs.responses, task_out.responses,
                    "{ctx}: task {i} responses"
                );
                assert_eq!(
                    obs.min_available, task_out.min_available_concurrency,
                    "{ctx}: task {i} min available"
                );
            }
            if backend.is_spin()
                && trace
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::SpinStart { .. }))
            {
                spin_blocked_runs += 1;
            }
        }
    }
    // The corpus must actually exercise busy-waiting, not just pass
    // vacuously on blocking-free sets.
    assert!(
        spin_blocked_runs >= SIM_SETS / 4,
        "only {spin_blocked_runs} spin runs ever busy-waited"
    );
}

/// Suspend-mode simulator results, pinned against the seed pipeline:
/// `(seed, per-task response vectors)` recorded before the spin backend
/// existed. A change to any of these numbers means the suspend path is
/// no longer the pre-PR behavior.
const SIM_SUSPEND_ORACLE: &[(u64, &[&[u64]])] = &[
    (0, &[&[], &[989], &[1378]]),
    (7, &[&[674], &[1502], &[]]),
    (19, &[&[1089], &[1303], &[2175]]),
    (42, &[&[], &[743], &[706]]),
    (63, &[&[997], &[], &[1553]]),
];

#[test]
fn sim_suspend_results_match_the_pre_spin_oracle() {
    const M: usize = 4;
    assert!(!SIM_SUSPEND_ORACLE.is_empty(), "oracle not recorded");
    for &(seed, expected) in SIM_SUSPEND_ORACLE {
        let set = random_set(seed, 3, 2.0);
        assert_eq!(set.backend(), SyncBackend::Suspend, "default backend");
        let (out, _) = run_sim(&set, M);
        let got: Vec<Vec<u64>> = out.tasks().iter().map(|t| t.responses.clone()).collect();
        let expected: Vec<Vec<u64>> = expected.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got, expected, "seed {seed}: suspend responses drifted");
    }
}

#[test]
fn exec_corpus_runs_both_backends_on_both_engines() {
    const M: usize = 3;
    let mut spin_blocked_runs = 0usize;
    for seed in 0..EXEC_SETS as u64 {
        let set = random_set(seed, 2, 1.0);
        for (i, (_, task)) in set.iter().enumerate() {
            // Dispatch only DAGs certified for *both* backends: the
            // suspend certificate (exact antichain check) plus the spin
            // floor on the delay count — a spinning fork can stall pools
            // the antichain check accepts.
            let dag = task.dag();
            if !deadlock::check_global(dag, M).is_deadlock_free()
                || dag.delay_profile().max_delay_count() >= M
            {
                continue;
            }
            for engine in POOL_ENGINES {
                for backend in SyncBackend::ALL {
                    let mut pool = ThreadPool::new(
                        PoolConfig::new(M, QueueDiscipline::GlobalFifo)
                            .with_engine(engine)
                            .with_backend(backend)
                            .with_time_scale(Duration::ZERO)
                            .with_watchdog(Duration::from_secs(10))
                            .with_trace(),
                    );
                    let ctx = format!(
                        "exec seed {seed} task {i} {} backend {}",
                        engine.as_str(),
                        backend.as_str()
                    );
                    let mut report = pool
                        .run(dag)
                        .unwrap_or_else(|e| panic!("{ctx}: certified DAG failed: {e}"));
                    let trace = report
                        .trace
                        .take()
                        .expect("tracing was enabled")
                        .with_task_index(u32::try_from(i).unwrap());
                    assert_backend_signature(&trace, backend, &ctx);
                    assert_floors(&trace, &set, M, backend, &ctx);
                    let analysis = TraceAnalysis::new(&trace);
                    let obs = analysis.task(i);
                    assert!(!analysis.any_stall(), "{ctx}: certified DAG stalled");
                    assert_eq!(obs.completed, 1, "{ctx}: job completion");
                    assert_eq!(
                        obs.nodes_executed,
                        dag.node_count(),
                        "{ctx}: executed node count"
                    );
                    assert_eq!(
                        obs.min_available, report.min_available_workers,
                        "{ctx}: min available workers"
                    );
                    if backend.is_spin()
                        && trace
                            .events
                            .iter()
                            .any(|e| matches!(e.kind, EventKind::SpinStart { .. }))
                    {
                        spin_blocked_runs += 1;
                    }
                }
            }
        }
    }
    assert!(
        spin_blocked_runs > 0,
        "no exec spin run ever busy-waited — the corpus is vacuous"
    );
}

/// The pre-PR construction paths still mean suspend: a default
/// `PoolConfig` and an untouched generated `TaskSet` both run the
/// suspend backend, and an explicit `with_backend(Suspend)` changes
/// nothing about the (deterministic) logical outcome.
#[test]
fn default_paths_are_the_suspend_backend() {
    assert_eq!(
        PoolConfig::new(2, QueueDiscipline::GlobalFifo).backend,
        SyncBackend::Suspend
    );
    let set = random_set(0, 3, 2.0);
    assert_eq!(set.backend(), SyncBackend::Suspend);

    const M: usize = 4;
    let (default_out, default_trace) = run_sim(&set, M);
    let explicit = set.clone().with_backend(SyncBackend::Suspend);
    let (explicit_out, explicit_trace) = run_sim(&explicit, M);
    let fields = |o: &SimOutcome| -> Vec<(usize, usize, Vec<u64>, usize)> {
        o.tasks()
            .iter()
            .map(|t| {
                (
                    t.released,
                    t.completed,
                    t.responses.clone(),
                    t.min_available_concurrency,
                )
            })
            .collect()
    };
    assert_eq!(fields(&default_out), fields(&explicit_out));
    assert_eq!(default_trace.events.len(), explicit_trace.events.len());
}

/// Helper for recording the oracle: run with
/// `BACKEND_ORACLE_PRINT=1 cargo test -p rtpool-bench --test
/// backend_differential -- --nocapture print_oracle` and paste the
/// output into `SIM_SUSPEND_ORACLE`.
#[test]
fn print_oracle() {
    if std::env::var_os("BACKEND_ORACLE_PRINT").is_none() {
        return;
    }
    const M: usize = 4;
    for seed in [0u64, 7, 19, 42, 63] {
        let set = random_set(seed, 3, 2.0);
        let (out, _) = run_sim(&set, M);
        let rows: Vec<String> = out
            .tasks()
            .iter()
            .map(|t| {
                let rs: Vec<String> = t.responses.iter().map(u64::to_string).collect();
                format!("&[{}]", rs.join(", "))
            })
            .collect();
        println!("    ({seed}, &[{}]),", rows.join(", "));
    }
}
