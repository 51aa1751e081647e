//! The exec-path workloads, `exec-flat` and `exec-blocking`.
//!
//! An operation is one `ThreadPool::run`: release of a job to completion
//! of its sink. A pool runs one job of a task at a time, so the loop is
//! closed with one job in flight. Node bodies are free (`time_scale =
//! 0`): what is timed is the executor, not the work.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rtpool_exec::{
    Engine, JobReport, PoolConfig, QueueDiscipline, RecoveryPolicy, SyncBackend, ThreadPool,
};
use rtpool_graph::Dag;
use rtpool_trace::EventKind;

use crate::inputs::{ExecInputs, ExecShape};
use crate::oracle::{check_job, Findings};
use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::{nanos, Samples, Slice};

/// Steal-order seed of the work-stealing pool. A constant: the benchmark
/// seed shapes the inputs and never reaches the program.
const STEAL_SEED: u64 = 0x5eed;
/// The v2 engine now and then declares a finished job stalled ("stalled
/// with 0 suspended workers after 258 nodes", about once in 10^5..10^6
/// flat jobs at the seed commit). The pools therefore run under the
/// program's retry policy, as a caller who wants every job to complete
/// would; such jobs are reported as `exec.retried_jobs`, not hidden.
const RETRY: RecoveryPolicy = RecoveryPolicy::RetryWithBackoff {
    max_retries: 2,
    base_delay: Duration::ZERO,
};
/// Jobs run before the clock starts.
const WARMUP_JOBS: usize = 1000;
/// Busy time of one slice of the measured phase.
const SLICE: Duration = Duration::from_millis(500);
/// Jobs per engine of the traced pass.
const TRACED_JOBS: usize = 1000;
/// Jobs run with the program's `with_trace` flag (event-level metrics).
const EVENT_JOBS: usize = 100;
/// Jobs per backend of the spin-vs-suspend comparison.
const SPIN_JOBS: usize = 100;
/// Traced jobs whose node spans are written to the span log.
const NODE_SPAN_JOBS: usize = 20;
/// Job reports of the measured phase kept for the topological check.
const DEEP_CHECKS: usize = 64;

impl ExecShape {
    /// Workers of the pool (`m`).
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            ExecShape::Flat => 2,
            ExecShape::Blocking => 4,
        }
    }

    /// Most workers the graph can suspend at once (`b̄`), by construction.
    #[must_use]
    pub fn max_blocked(self) -> usize {
        match self {
            ExecShape::Flat => 0,
            ExecShape::Blocking => 2,
        }
    }

    /// The engine the end-to-end row runs on.
    #[must_use]
    pub fn engine(self) -> Engine {
        match self {
            ExecShape::Flat => Engine::V2LockFree,
            ExecShape::Blocking => Engine::V1Condvar,
        }
    }

    /// Name used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecShape::Flat => "flat",
            ExecShape::Blocking => "blocking",
        }
    }
}

fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::V1Condvar => "v1",
        Engine::V2LockFree => "v2",
    }
}

/// The pool configuration of a shape on `engine` and `backend`.
#[must_use]
pub fn pool_config(shape: ExecShape, engine: Engine, backend: SyncBackend) -> PoolConfig {
    let discipline = match shape {
        ExecShape::Flat => QueueDiscipline::WorkStealing { seed: STEAL_SEED },
        ExecShape::Blocking => QueueDiscipline::GlobalFifo,
    };
    PoolConfig::new(shape.workers(), discipline)
        .with_engine(engine)
        .with_backend(backend)
        .with_time_scale(Duration::ZERO)
        .with_recovery(RETRY)
}

/// A spawned, warmed-up pool and the graph it runs.
pub struct Prepared {
    /// The generated input.
    pub inputs: ExecInputs,
    pool: ThreadPool,
    /// Wall time of `ThreadPool::new`.
    pub spawn_us: f64,
}

fn warmed_pool(config: PoolConfig, dag: &Dag, jobs: usize) -> (ThreadPool, f64) {
    let t0 = Instant::now();
    let mut pool = ThreadPool::new(config);
    let spawn_us = t0.elapsed().as_secs_f64() * 1e6;
    for _ in 0..jobs {
        pool.run(dag).expect("the benchmark shapes cannot stall");
    }
    (pool, spawn_us)
}

/// Sets an exec workload up from an already-generated graph.
#[must_use]
pub fn set_up(inputs: ExecInputs) -> Prepared {
    let shape = inputs.shape;
    let config = pool_config(shape, shape.engine(), SyncBackend::Suspend);
    let (pool, spawn_us) = warmed_pool(config, &inputs.dag, WARMUP_JOBS);
    Prepared {
        inputs,
        pool,
        spawn_us,
    }
}

/// The measured (untraced) phase of an exec workload.
pub struct Measured {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Jobs that completed only on a retry.
    pub retried: u64,
    /// One entry per [`SLICE`] of busy time.
    pub slices: Vec<Slice>,
    /// Wall time of each `run` call.
    pub latency: Samples,
    /// Smallest `min_available_workers` over all jobs.
    pub min_available: usize,
    /// See [`Prepared::spawn_us`].
    pub spawn_us: f64,
    /// Failed oracle checks.
    pub findings: Findings,
}

impl Measured {
    /// Adds the part measured on another pool.
    pub fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retried += other.retried;
        self.slices.extend(other.slices);
        self.latency.absorb(&other.latency);
        self.min_available = self.min_available.min(other.min_available);
        self.spawn_us = other.spawn_us;
        self.findings.extend(other.findings);
    }
}

/// Runs jobs back to back for `phase`, one slice per [`SLICE`], then
/// checks the reports.
#[must_use]
pub fn measure(prepared: Prepared, phase: Duration) -> (Measured, ExecInputs) {
    let Prepared {
        inputs,
        mut pool,
        spawn_us,
    } = prepared;
    let shape = inputs.shape;
    let dag = &inputs.dag;
    let floor = shape.workers() - shape.max_blocked();
    let mut findings = Findings::default();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(1 << 17);
    let mut slices = Vec::new();
    let mut kept: Vec<JobReport> = Vec::with_capacity(DEEP_CHECKS);
    let (mut failed, mut retried) = (0u64, 0u64);
    let mut min_available = usize::MAX;
    let deadline = Instant::now() + phase;
    while Instant::now() < deadline {
        let (first, failed_before) = (lat_ns.len(), failed);
        let mut busy = Duration::ZERO;
        while busy < SLICE {
            let t0 = Instant::now();
            let outcome = pool.run(dag);
            let took = t0.elapsed();
            busy += took;
            lat_ns.push(nanos(took));
            match outcome {
                Err(e) => {
                    failed += 1;
                    findings.fail(format!("exec: job {} failed: {e}", lat_ns.len()));
                }
                Ok(report) => {
                    retried += u64::from(report.attempts > 1);
                    min_available = min_available.min(report.min_available_workers);
                    if report.executed_nodes != dag.node_count()
                        || report.min_available_workers < floor
                        || (lat_ns.len() % 997 == 1 && kept.len() < DEEP_CHECKS)
                    {
                        kept.push(report);
                    }
                }
            }
        }
        let slice_failed = (failed - failed_before) as usize;
        slices.push(Slice::of(&lat_ns[first..], slice_failed, busy));
    }
    for report in &kept {
        findings.extend(check_job(dag, report, floor));
    }
    let measured = Measured {
        attempted: lat_ns.len() as u64,
        failed,
        retried,
        slices,
        latency: Samples::from_ns(&lat_ns),
        min_available,
        spawn_us,
        findings,
    };
    (measured, inputs)
}

/// What a traced batch of jobs on one engine showed.
struct EngineRun {
    wall: Samples,
    makespan: Samples,
    overhead: Samples,
    fetch_gap: Samples,
    wake: Samples,
}

/// Runs `jobs` jobs with a span around each, reading the node spans the
/// executor reports for every job (no program flag needed).
fn traced_jobs(
    pool: &mut ThreadPool,
    dag: &Dag,
    jobs: usize,
    log: &mut SpanLog,
    op_base: u64,
    findings: &mut Findings,
    floor: usize,
) -> EngineRun {
    let mut run = EngineRun {
        wall: Samples::with_capacity(jobs),
        makespan: Samples::with_capacity(jobs),
        overhead: Samples::with_capacity(jobs),
        fetch_gap: Samples::default(),
        wake: Samples::default(),
    };
    let regions: Vec<(usize, Vec<usize>)> = dag
        .blocking_regions()
        .iter()
        .map(|r| {
            let join = r.join();
            let children = dag.predecessors(join).iter().map(|c| c.index()).collect();
            (join.index(), children)
        })
        .collect();
    for job in 0..jobs {
        let op = op_base + job as u64;
        let span = log.open("exec.run", None, op);
        let start_ns = log.now_ns();
        let outcome = pool.run(dag);
        let wall_ns = log.close(span);
        let Ok(report) = outcome else {
            findings.fail(format!("exec traced: job {job} failed"));
            continue;
        };
        if job == 0 {
            findings.extend(check_job(dag, &report, floor));
        }
        let makespan_ns = nanos(report.makespan);
        run.wall.push_ns(wall_ns);
        run.makespan.push_ns(makespan_ns);
        run.overhead.push_ns(wall_ns.saturating_sub(makespan_ns));

        let mut by_node = vec![(Duration::ZERO, Duration::ZERO); dag.node_count()];
        let mut by_worker: HashMap<usize, Vec<(Duration, Duration)>> = HashMap::new();
        for s in &report.spans {
            by_node[s.node] = (s.start, s.end);
            by_worker
                .entry(s.worker)
                .or_default()
                .push((s.start, s.end));
            if job < NODE_SPAN_JOBS {
                let at = |d: Duration| start_ns + nanos(d);
                log.push("exec.node", at(s.start), at(s.end), Some(span), op);
            }
        }
        for spans in by_worker.values_mut() {
            spans.sort_unstable();
            for pair in spans.windows(2) {
                run.fetch_gap.push(pair[1].0.saturating_sub(pair[0].1));
            }
        }
        for (join, children) in &regions {
            let last_child = children.iter().map(|&c| by_node[c].1).max();
            if let Some(end) = last_child {
                run.wake.push(by_node[*join].0.saturating_sub(end));
            }
        }
    }
    run
}

/// Median job time over `jobs` jobs on a fresh pool of `config`.
fn p50_makespan_us(config: PoolConfig, dag: &Dag, jobs: usize) -> f64 {
    let (mut pool, _) = warmed_pool(config, dag, jobs / 5);
    let mut s = Samples::with_capacity(jobs);
    for _ in 0..jobs {
        if let Ok(report) = pool.run(dag) {
            s.push(report.makespan);
        }
    }
    s.percentile_us(50.0)
}

/// The traced pass: both engines on the workload's graph, each job
/// wrapped in a span; a short batch under the program's `with_trace`
/// flag for the event-level numbers; and — where barriers exist — the
/// spin backend against suspend.
#[must_use]
pub fn layers(
    inputs: &ExecInputs,
    measured: &mut Measured,
    log: &mut SpanLog,
) -> (Metrics, Findings) {
    let mut m = Metrics::default();
    let mut findings = Findings::default();
    let shape = inputs.shape;
    let dag = &inputs.dag;
    let floor = shape.workers() - shape.max_blocked();
    let nodes = dag.node_count() as f64;

    m.count(
        "failed_share",
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    m.count("exec.retried_jobs", measured.retried as f64);
    m.put("exec.pool.spawn_us", measured.spawn_us, 1);
    if shape == ExecShape::Blocking {
        m.count(
            "exec.blocking.min_available_workers",
            measured.min_available as f64,
        );
    }

    for (e, engine) in [Engine::V1Condvar, Engine::V2LockFree]
        .into_iter()
        .enumerate()
    {
        let (v, s) = (engine_name(engine), shape.name());
        let config = pool_config(shape, engine, SyncBackend::Suspend);
        let (mut pool, _) = warmed_pool(config.clone(), dag, WARMUP_JOBS);
        let op_base = (e * TRACED_JOBS) as u64;
        let mut run = traced_jobs(
            &mut pool,
            dag,
            TRACED_JOBS,
            log,
            op_base,
            &mut findings,
            floor,
        );
        drop(pool);
        let p50 = run.makespan.percentile_us(50.0);
        m.put(format!("exec.{v}.{s}.job_us_p50"), p50, run.makespan.len());
        m.put(
            format!("exec.{v}.{s}.job_us_p99"),
            run.makespan.percentile_us(99.0),
            run.makespan.len(),
        );
        if engine == shape.engine() {
            let untraced = measured.latency.percentile_us(50.0);
            m.count(
                "trace.overhead_share",
                (run.wall.percentile_us(50.0) - untraced) / untraced,
            );
            m.put(
                "exec.submit_overhead_us_p50",
                run.overhead.percentile_us(50.0),
                run.overhead.len(),
            );
        }
        match shape {
            ExecShape::Flat => {
                m.put(
                    format!("exec.{v}.flat.ns_per_node"),
                    p50 * 1e3 / nodes,
                    run.makespan.len(),
                );
                if engine == Engine::V2LockFree {
                    m.put(
                        "exec.v2.flat.fetch_gap_ns_p50",
                        run.fetch_gap.percentile_ns(50.0) as f64,
                        run.fetch_gap.len(),
                    );
                }
            }
            ExecShape::Blocking => {
                m.put(
                    format!("exec.{v}.blocking.wake_us_p50"),
                    run.wake.percentile_us(50.0),
                    run.wake.len(),
                );
                m.put(
                    format!("exec.{v}.blocking.wake_us_p99"),
                    run.wake.percentile_us(99.0),
                    run.wake.len(),
                );
                let spin = pool_config(shape, engine, SyncBackend::Spin);
                m.put(
                    format!("exec.{v}.blocking.spin_over_suspend"),
                    p50_makespan_us(spin, dag, SPIN_JOBS) / p50_makespan_us(config, dag, SPIN_JOBS),
                    SPIN_JOBS,
                );
            }
        }
    }

    // Event-level numbers need the program's own trace flag; they are
    // taken on a separate short batch so that its cost stays out of the
    // latencies above.
    let config = pool_config(shape, shape.engine(), SyncBackend::Suspend).with_trace();
    let (mut pool, _) = warmed_pool(config, dag, EVENT_JOBS / 5);
    let mut steals = 0u64;
    let mut barrier = Samples::default();
    let mut jobs = 0u64;
    for _ in 0..EVENT_JOBS {
        let Ok(report) = pool.run(dag) else { continue };
        let Some(trace) = report.trace else { continue };
        jobs += 1;
        let mut suspended: HashMap<u32, u64> = HashMap::new();
        for e in &trace.events {
            match e.kind {
                EventKind::StealBatch { .. } => steals += 1,
                EventKind::BarrierSuspend { thread, .. } => {
                    suspended.insert(thread, e.time);
                }
                EventKind::BarrierWake { thread, .. } => {
                    if let Some(t) = suspended.remove(&thread) {
                        barrier.push_ns(e.time.saturating_sub(t));
                    }
                }
                _ => {}
            }
        }
    }
    match shape {
        ExecShape::Flat => m.put(
            "exec.v2.flat.steals_per_job",
            steals as f64 / jobs.max(1) as f64,
            jobs as usize,
        ),
        ExecShape::Blocking => m.put(
            "exec.v1.blocking.barrier_wait_us_p50",
            barrier.percentile_us(50.0),
            barrier.len(),
        ),
    }
    (m, findings)
}
