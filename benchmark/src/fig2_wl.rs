//! The fig2-path workload, `fig2-sweep`.
//!
//! An operation is one generated-and-judged sample; latency is taken per
//! `fig2::run_insets` call (all six insets, 46 points) on a 2-thread
//! `SweepPool`, the calls cycling over eight sweep seeds.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_bench::fig2::{self, Inset};
use rtpool_bench::pipeline;
use rtpool_bench::sweep::SweepPool;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
use rtpool_core::TaskSet;
use rtpool_gen::{BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, TaskSetConfig};

use crate::inputs::{self, FIG2_PINNED, FIG2_SETS_PER_POINT};
use crate::oracle::{check_series, is_global, series_digest, Findings, Series};
use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::{Samples, Slice};

/// Threads of the measured sweep pool.
pub const SWEEP_THREADS: usize = 2;
/// Sweeps the traced pass replays per thread count.
const TRACED_SWEEPS: usize = 20;
/// Empty cells pushed through the pool to price one cell.
const EMPTY_CELLS: usize = 100_000;

/// Samples one `run_insets` call evaluates.
#[must_use]
pub fn cells_per_call() -> usize {
    Inset::ALL.iter().map(|i| i.x_values().len()).sum::<usize>() * FIG2_SETS_PER_POINT
}

/// A spawned pool and the series digests the oracle expects of the
/// first [`FIG2_PINNED`] calls of the stream.
pub struct Prepared {
    seed: u64,
    pool: SweepPool,
    /// Series digest of call `k < FIG2_PINNED`, from a 1-thread pool.
    pub expected: Vec<u64>,
    /// Checks made while setting up.
    pub findings: Findings,
}

/// Sets the workload up: the oracle runs the first sweeps of the stream
/// on one thread, then the measured 2-thread pool runs them (warm-up)
/// and must reproduce every series.
#[must_use]
pub fn set_up(seed: u64) -> Prepared {
    let mut findings = Findings::default();
    let serial = SweepPool::new(1);
    let pool = SweepPool::new(SWEEP_THREADS);
    let mut expected = Vec::with_capacity(FIG2_PINNED);
    for k in 0..FIG2_PINNED {
        let p = inputs::fig2(seed, k);
        let reference: Series = fig2::run_insets(&serial, &Inset::ALL, &p);
        let parallel: Series = fig2::run_insets(&pool, &Inset::ALL, &p);
        findings.check(parallel == reference, || {
            format!("fig2: call {k} differs between 1 and {SWEEP_THREADS} threads")
        });
        expected.push(series_digest(&reference));
    }
    Prepared {
        seed,
        pool,
        expected,
        findings,
    }
}

/// Checks one call's series: well-formed, ordered, and — for a pinned
/// call — equal to the oracle's.
fn check_call(prepared: &Prepared, k: usize, series: &Series, findings: &mut Findings) {
    findings.extend(check_series(series, FIG2_SETS_PER_POINT));
    if let Some(&expected) = prepared.expected.get(k) {
        findings.check(series_digest(series) == expected, || {
            format!("fig2: call {k} differs from the oracle's series")
        });
    }
}

/// The measured (untraced) phase.
pub struct Measured {
    /// Samples attempted.
    pub attempted: u64,
    /// Samples lost to a generation error.
    pub failed: u64,
    /// Samples skipped because a discard budget ran out (not failures).
    pub skipped: u64,
    /// Time spent inside `run_insets`.
    pub busy: Duration,
    /// Calls made so far (the next call sweeps seed `S + calls`).
    pub calls: usize,
    /// Wall time of each `run_insets` call.
    pub latency: Samples,
    /// Failed oracle checks.
    pub findings: Findings,
}

impl Measured {
    /// Nothing measured yet.
    #[must_use]
    pub fn empty() -> Self {
        Measured {
            attempted: 0,
            failed: 0,
            skipped: 0,
            busy: Duration::ZERO,
            calls: 0,
            latency: Samples::default(),
            findings: Findings::default(),
        }
    }

    /// Throughput and call latency over everything measured.
    #[must_use]
    pub fn whole_run(&mut self) -> Slice {
        Slice {
            throughput: (self.attempted - self.failed) as f64 / self.busy.as_secs_f64(),
            p50_us: self.latency.percentile_us(50.0),
            p95_us: self.latency.percentile_us(95.0),
        }
    }
}

/// Runs sweeps back to back for `phase`, each on the next seed of the
/// stream, adding to `measured`.
pub fn measure(prepared: &mut Prepared, phase: Duration, measured: &mut Measured) {
    measured
        .findings
        .extend(std::mem::take(&mut prepared.findings));
    let deadline = Instant::now() + phase;
    while Instant::now() < deadline {
        let k = measured.calls;
        let p = inputs::fig2(prepared.seed, k);
        let t0 = Instant::now();
        let series: Series = fig2::run_insets(&prepared.pool, &Inset::ALL, &p);
        let took = t0.elapsed();
        measured.busy += took;
        measured.calls += 1;
        measured.latency.push(took);
        check_call(prepared, k, &series, &mut measured.findings);
        for point in series.iter().flat_map(|(_, points)| points) {
            measured.skipped += point.skipped as u64;
            measured.failed += point.errors as u64;
        }
        measured.attempted += cells_per_call() as u64;
    }
}

/// The generation configuration of one fig2 sample, as the fig2 module
/// documents it (its own constants are private): insets a/b resample a
/// blocking probability and enforce the `l̄` window, c–f generate plain.
fn sample_config(inset: Inset, x: i64, rng: &mut StdRng) -> (TaskSetConfig, usize) {
    match inset {
        Inset::A | Inset::B => {
            let m = 8;
            let u = if inset == Inset::A { 4.0 } else { 1.0 };
            let dag = DagGenConfig {
                blocking: BlockingPolicy::Fixed(rng.gen()),
                ..DagGenConfig::default()
            };
            let window = ConcurrencyWindow {
                m,
                l_min: (x - 1).max(1),
                l_max: x,
                max_attempts: 60,
            };
            (
                TaskSetConfig::new(4, u, dag).with_concurrency_window(window),
                m,
            )
        }
        Inset::C | Inset::D => {
            let u = if inset == Inset::C { 2.0 } else { 1.0 };
            let m = usize::try_from(x).expect("positive m");
            (TaskSetConfig::new(4, u, DagGenConfig::default()), m)
        }
        Inset::E | Inset::F => {
            let n = usize::try_from(x).expect("positive n");
            let per_task = if inset == Inset::E { 0.4 } else { 0.15 };
            (
                TaskSetConfig::new(n, per_task * n as f64, DagGenConfig::default()),
                8,
            )
        }
    }
}

/// The traced pass: sweeps wrapped in spans at one and two threads, the
/// price of an empty cell, and the per-sample stages (generate, cold and
/// warm verdict battery, the RTA and partitioning calls) replayed on one
/// thread over every point of every inset.
#[must_use]
pub fn layers(
    prepared: &Prepared,
    measured: &mut Measured,
    log: &mut SpanLog,
) -> (Metrics, Findings) {
    let mut m = Metrics::default();
    let mut findings = Findings::default();
    let cells = cells_per_call();

    m.count(
        "failed_share",
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    m.count("sweep.errors", measured.failed as f64);
    m.count(
        "sweep.skipped_share",
        measured.skipped as f64 / measured.attempted.max(1) as f64,
    );

    // -- whole sweeps, 2 threads then 1 ----------------------------------
    let serial = SweepPool::new(1);
    let mut wall = [Samples::default(), Samples::default()];
    for (w, (pool, name)) in [
        (&prepared.pool, "sweep.run_insets.2t"),
        (&serial, "sweep.run_insets.1t"),
    ]
    .into_iter()
    .enumerate()
    {
        for k in 0..TRACED_SWEEPS {
            let p = inputs::fig2(prepared.seed, k);
            let (series, ns) = log.time(name, None, k as u64, || -> Series {
                fig2::run_insets(pool, &Inset::ALL, &p)
            });
            wall[w].push_ns(ns);
            check_call(prepared, k, &series, &mut findings);
        }
    }
    let [two, one] = &mut wall;
    let untraced = measured.latency.percentile_us(50.0);
    m.put("sweep.call_us_p50", two.percentile_us(50.0), two.len());
    m.count(
        "trace.overhead_share",
        (two.percentile_us(50.0) - untraced) / untraced,
    );
    m.put(
        "sweep.speedup_2t",
        one.sum_ns() as f64 / two.sum_ns().max(1) as f64,
        TRACED_SWEEPS,
    );
    let (_, ns) = log.time("sweep.empty_cells", None, 0, || {
        prepared.pool.run(EMPTY_CELLS, "empty", |i| i)
    });
    m.put(
        "sweep.cell_overhead_ns",
        ns as f64 / EMPTY_CELLS as f64,
        EMPTY_CELLS,
    );

    // -- per-sample stages, one thread -----------------------------------
    let mut rng = StdRng::seed_from_u64(prepared.seed);
    let mut scratch = DagScratch::new();
    let (mut gen_window, mut gen_plain) = (Samples::default(), Samples::default());
    let mut cold = [Samples::default(), Samples::default()];
    let mut warm = [Samples::default(), Samples::default()];
    let (mut rta, mut worst_fit, mut algorithm1) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut stage_ns = 0u128;
    let mut samples = 0usize;
    for inset in Inset::ALL {
        let global = is_global(inset);
        for x in inset.x_values() {
            for _ in 0..FIG2_SETS_PER_POINT {
                samples += 1;
                let op = samples as u64;
                let root = log.open("fig2.sample", None, op);
                // Insets a/b regenerate until the baseline accepts the
                // set (at most 400 times); c–f take the first set.
                let mut kept: Option<(TaskSet, usize)> = None;
                for _ in 0..400 {
                    let (config, cores) = sample_config(inset, x, &mut rng);
                    let (set, ns) = log.time("gen.generate", Some(root), op, || {
                        config.generate_with(&mut rng, &mut scratch)
                    });
                    stage_ns += u128::from(ns);
                    let windowed = matches!(inset, Inset::A | Inset::B);
                    if windowed {
                        &mut gen_window
                    } else {
                        &mut gen_plain
                    }
                    .push_ns(ns);
                    let Ok(set) = set else { continue };
                    let ((_, baseline), ns) = log.time("core.battery.cold", Some(root), op, || {
                        pipeline::battery(&set, cores, global)
                    });
                    stage_ns += u128::from(ns);
                    cold[usize::from(!global)].push_ns(ns);
                    if baseline || !windowed {
                        kept = Some((set, cores));
                        break;
                    }
                }
                log.close(root);
                let Some((set, cores)) = kept else { continue };
                // Second battery on the same set: the derived artifacts
                // are cached now, so this is the analysis alone.
                let (_, ns) = log.time("core.battery.warm", None, op, || {
                    pipeline::battery(&set, cores, global)
                });
                warm[usize::from(!global)].push_ns(ns);
                if global {
                    let models = [ConcurrencyModel::Full, ConcurrencyModel::Limited];
                    let (_, ns) = log.time("core.global_rta", None, op, || {
                        global::analyze_many(&set, cores, &models)
                    });
                    rta.push_ns(ns);
                } else {
                    let (_, ns) = log.time("core.partitioned.worstfit", None, op, || {
                        partition_and_analyze(&set, cores, PartitionStrategy::WorstFit)
                    });
                    worst_fit.push_ns(ns);
                    let (_, ns) = log.time("core.partitioned.algorithm1", None, op, || {
                        partition_and_analyze(&set, cores, PartitionStrategy::Algorithm1)
                    });
                    algorithm1.push_ns(ns);
                }
            }
        }
    }
    let mut put = |name: &str, s: &mut Samples| m.put(name, s.percentile_us(50.0), s.len());
    put("gen.generate_us_p50.window", &mut gen_window);
    put("gen.generate_us_p50.plain", &mut gen_plain);
    let [cold_global, cold_part] = &mut cold;
    let [warm_global, warm_part] = &mut warm;
    let derive = cold_global.percentile_us(50.0) - warm_global.percentile_us(50.0);
    put("core.battery_cold_us_p50.global", cold_global);
    put("core.battery_cold_us_p50.partitioned", cold_part);
    put("core.battery_warm_us_p50.global", warm_global);
    put("core.battery_warm_us_p50.partitioned", warm_part);
    put("core.global_rta_us_p50", &mut rta);
    put("core.partitioned.worstfit_us_p50", &mut worst_fit);
    put("core.partitioned.algorithm1_us_p50", &mut algorithm1);
    m.put("graph.derive_us_p50", derive, cold_global.len());
    // Generate + battery per sample against what a sample costs inside
    // the 1-thread sweep: what is left is the sweep engine's own share.
    let per_sample_in_sweep = one.sum_ns() as f64 / (TRACED_SWEEPS * cells) as f64;
    m.put(
        "sweep.closure_share",
        stage_ns as f64 / samples.max(1) as f64 / per_sample_in_sweep,
        samples,
    );
    (m, findings)
}
