//! Emits `BENCH_analysis.json`: before/after medians for the hot
//! schedulability kernels, the windowed-generation kernel, end-to-end
//! Figure 2 sample throughput, and the insets-(a)/(b) battery including
//! generation.
//!
//! "Before" replays the pre-optimization pipelines: analysis calls
//! receive task DAGs with an empty derived-artifact cache
//! ([`rtpool_graph::Dag::clone_uncached`]), generation builds (and
//! validates) a full `Dag` per rejection-sampling attempt
//! ([`rtpool_gen::TaskSetConfig::generate_reference`]), and the
//! (a)/(b) battery spawns a scope of OS threads per point
//! ([`rtpool_bench::fig2::run_point_reference`]). "After" uses the
//! cached [`rtpool_bench::pipeline`] entry points, the scratch-buffer
//! generation fast path with its early `b̄` window prefilter, and the
//! persistent work-stealing [`rtpool_bench::sweep::SweepPool`].
//!
//! Every before/after pair is gated on bit-identical outputs
//! (`verdicts_match`, `generation.series_match`,
//! `fig2_ab_end_to_end.series_match`) before the numbers are written.
//!
//! Usage: `bench_summary [--quick] [--out PATH] [--trace PATH]`
//!
//! `--trace PATH` additionally replays the first corpus set under the
//! simulator with event tracing and writes the Chrome trace-event JSON
//! to `PATH` — a profiling artifact for inspecting what the measured
//! battery actually schedules.
//!
//! `--incremental` switches to the incremental-analysis benchmark
//! instead: on a task set whose biggest DAG has ≥ 10⁴ nodes, a sequence
//! of single-node WCET edits is answered by `Dag::edit` (derived cache
//! patched in place) plus warm-started RTA
//! ([`rtpool_core::analysis::incremental::analyze_many_warm`]), and by
//! the from-scratch path (uncached rebuild + cold RTA). Every edit is
//! gated on bit-identical verdicts across all three concurrency models
//! before the numbers are written; in full mode the incremental path
//! must be ≥ 10× faster. Writes `BENCH_incremental.json`
//! (or `--out PATH`).
//!
//! `--exec` switches to the executor dispatch benchmark instead: the v1
//! condvar engine vs the v2 lock-free injector/stealer engine on a
//! dispatch-bound workload (a wide flat fork-join of wcet-1 nodes at
//! `time_scale` zero — the bodies are free, so the measured cost is
//! dispatch itself) at m ∈ {4, 8, 16, 32}. Every run is gated on full
//! execution and an untouched available-concurrency floor; in full mode
//! the v2 engine must reach ≥ 2× the v1 node throughput at m = 16 and
//! m = 32. Writes `BENCH_exec.json` (or `--out PATH`).

use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rtpool_bench::fig2::{run_insets, run_point_reference, Fig2Params, Inset, SeriesPoint};
use rtpool_bench::pipeline;
use rtpool_bench::sweep::SweepPool;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::incremental::analyze_many_warm;
use rtpool_core::analysis::partitioned::PartitionStrategy;
use rtpool_core::analysis::SchedResult;
use rtpool_core::CancelToken;
use rtpool_core::{Task, TaskSet};
use rtpool_gen::{BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, TaskSetConfig};

const M: usize = 8;
const N_TASKS: usize = 4;
const UTILIZATION: f64 = 2.0;
const BASE_SEED: u64 = 0x5eed_f00d;

struct Config {
    corpus_size: usize,
    reps: usize,
    quick: bool,
    out: String,
    trace: Option<String>,
    exec: bool,
    incremental: bool,
}

fn main() {
    let mut cfg = Config {
        corpus_size: 40,
        reps: 5,
        quick: false,
        out: String::new(),
        trace: None,
        exec: false,
        incremental: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                cfg.quick = true;
                cfg.corpus_size = 8;
                cfg.reps = 3;
            }
            "--out" => cfg.out = args.next().expect("--out needs a path"),
            "--trace" => cfg.trace = Some(args.next().expect("--trace needs a path")),
            "--exec" => cfg.exec = true,
            "--incremental" => cfg.incremental = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_summary [--quick] [--out PATH] [--trace PATH] [--exec] \
                     [--incremental]"
                );
                std::process::exit(2);
            }
        }
    }
    if cfg.out.is_empty() {
        cfg.out = if cfg.exec {
            "BENCH_exec.json".to_string()
        } else if cfg.incremental {
            "BENCH_incremental.json".to_string()
        } else {
            "BENCH_analysis.json".to_string()
        };
    }
    if cfg.exec {
        exec_benchmark(&cfg);
        return;
    }
    if cfg.incremental {
        incremental_benchmark(&cfg);
        return;
    }

    eprintln!(
        "generating corpus: {} sets (n={N_TASKS}, U={UTILIZATION}, m={M}, seed={BASE_SEED:#x})",
        cfg.corpus_size
    );
    let corpus: Vec<TaskSet> = (0..cfg.corpus_size as u64)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(BASE_SEED.wrapping_add(i));
            TaskSetConfig::new(N_TASKS, UTILIZATION, DagGenConfig::default())
                .generate(&mut rng)
                .expect("corpus generation")
        })
        .collect();

    if let Some(path) = &cfg.trace {
        // Profiling hook: what does one measured sample actually
        // schedule? Replay corpus set 0 with event tracing and export it
        // through the shared rtpool-trace exporter.
        let mut outcome =
            rtpool_sim::SimConfig::single_job(rtpool_sim::SchedulingPolicy::Global, M)
                .with_event_trace()
                .run(&corpus[0])
                .expect("corpus set simulates");
        let trace = outcome
            .take_event_trace()
            .expect("event tracing was enabled");
        std::fs::write(path, rtpool_trace::to_chrome_json(&trace)).expect("write trace");
        eprintln!("wrote event trace of corpus set 0 to {path}");
    }

    // Correctness gate: the cached pipeline must produce bit-identical
    // verdicts to the uncached replay on every corpus set.
    let verdicts_match = corpus
        .iter()
        .all(|set| battery_verdicts_before(set) == battery_verdicts_after(set));
    assert!(verdicts_match, "cached and uncached verdicts diverged");
    eprintln!(
        "verdict check: cached == uncached on all {} sets",
        corpus.len()
    );

    let kernels = [
        (
            "concurrency_bounds",
            "delay rows + b-bar + exact blocking antichain per task",
            measure(&corpus, cfg.reps, |set| {
                for (_, t) in set.iter() {
                    let dag = t.dag().clone_uncached();
                    std::hint::black_box(dag.delay_profile().max_delay_count());
                    std::hint::black_box(dag.max_blocking_antichain().len());
                }
            }),
            measure(&corpus, cfg.reps, |set| {
                for (_, t) in set.iter() {
                    std::hint::black_box(t.dag().delay_profile().max_delay_count());
                    std::hint::black_box(t.dag().max_blocking_antichain().len());
                }
            }),
        ),
        (
            "global_rta",
            "global RTA under Full + Limited concurrency models",
            measure(&corpus, cfg.reps, |set| {
                let s = rebuild_uncached(set);
                std::hint::black_box(global::analyze(&s, M, ConcurrencyModel::Full));
                let s = rebuild_uncached(set);
                std::hint::black_box(global::analyze(&s, M, ConcurrencyModel::Limited));
            }),
            measure(&corpus, cfg.reps, |set| {
                std::hint::black_box(pipeline::global_full_and_limited(set, M));
            }),
        ),
        (
            "partitioned_rta",
            "worst-fit partitioning + partitioned RTA",
            measure(&corpus, cfg.reps, |set| {
                let s = rebuild_uncached(set);
                std::hint::black_box(pipeline::partition_and(&s, M, PartitionStrategy::WorstFit));
            }),
            measure(&corpus, cfg.reps, |set| {
                std::hint::black_box(pipeline::partition_and(set, M, PartitionStrategy::WorstFit));
            }),
        ),
        (
            "algorithm1",
            "Algorithm 1 delay-aware partitioning + partitioned RTA",
            measure(&corpus, cfg.reps, |set| {
                let s = rebuild_uncached(set);
                std::hint::black_box(pipeline::partition_and(
                    &s,
                    M,
                    PartitionStrategy::Algorithm1,
                ));
            }),
            measure(&corpus, cfg.reps, |set| {
                std::hint::black_box(pipeline::partition_and(
                    set,
                    M,
                    PartitionStrategy::Algorithm1,
                ));
            }),
        ),
    ];

    // End-to-end Figure 2 sample evaluation: the full verdict battery a
    // fig2 sample runs (global pair + both partitioned strategies),
    // generation excluded, single thread.
    let fig2_before = throughput(&corpus, cfg.reps, |set| {
        std::hint::black_box(battery_verdicts_before(set));
    });
    let fig2_after = throughput(&corpus, cfg.reps, |set| {
        std::hint::black_box(battery_verdicts_after(set));
    });

    // Windowed-generation kernel: the inset (a) cost model (resampled
    // blocking probability, concurrency window, rejection sampling),
    // full-build reference path vs scratch fast path. Identical RNG
    // streams, so the produced sets must match exactly.
    let gen_samples = if cfg.quick { 8 } else { 24 };
    let (gen_before_ns, sets_ref) = measure_generation(gen_samples, cfg.reps, false);
    let (gen_after_ns, sets_fast) = measure_generation(gen_samples, cfg.reps, true);
    let generation_match = sets_ref == sets_fast;
    assert!(
        generation_match,
        "generation fast path diverged from reference"
    );
    eprintln!("generation check: fast path == reference on all {gen_samples} samples");

    // Insets (a)/(b) battery end to end, generation included: the
    // reference path (scoped threads per point + full-build generation)
    // vs one sweep over the persistent pool with the scratch fast path.
    // Single worker on both sides; the series must be bit-identical.
    let ab_params = Fig2Params {
        sets_per_point: if cfg.quick { 3 } else { 25 },
        seed: BASE_SEED,
        threads: 1,
    };
    let ab_insets = [Inset::A, Inset::B];
    let start = Instant::now();
    let series_ref: Vec<SeriesPoint> = ab_insets
        .iter()
        .flat_map(|&inset| {
            inset
                .x_values()
                .into_iter()
                .map(move |x| run_point_reference(inset, x, &ab_params))
        })
        .collect();
    let ab_before_secs = start.elapsed().as_secs_f64();
    let pool = SweepPool::new(1);
    let start = Instant::now();
    let series_fast: Vec<SeriesPoint> = run_insets(&pool, &ab_insets, &ab_params)
        .into_iter()
        .flat_map(|(_, series)| series)
        .collect();
    let ab_after_secs = start.elapsed().as_secs_f64();
    let series_match = series_ref == series_fast;
    assert!(series_match, "sweep-engine series diverged from reference");
    eprintln!(
        "series check: sweep engine == reference on insets (a)/(b) \
         ({} points, {} sets/point)",
        series_fast.len(),
        ab_params.sets_per_point
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"derived-analysis cache + sweep engine + generation fast path\",\n",
    );
    json.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    json.push_str(&format!(
        "  \"corpus\": {{ \"sets\": {}, \"n_tasks\": {N_TASKS}, \"utilization\": {UTILIZATION}, \"m\": {M}, \"seed\": {BASE_SEED}, \"threads\": 1 }},\n",
        corpus.len()
    ));
    json.push_str("  \"kernels\": {\n");
    for (i, (name, what, before_ns, after_ns)) in kernels.iter().enumerate() {
        let speedup = *before_ns as f64 / (*after_ns).max(1) as f64;
        json.push_str(&format!(
            "    \"{name}\": {{ \"what\": \"{what}\", \"before_median_ns\": {before_ns}, \"after_median_ns\": {after_ns}, \"speedup\": {speedup:.2} }}{}\n",
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"generation\": {{ \"what\": \"windowed task-set generation (inset (a) cost model): scratch fast path + early b-bar prefilter vs full build per attempt\", \"before_median_ns\": {gen_before_ns}, \"after_median_ns\": {gen_after_ns}, \"speedup\": {:.2}, \"series_match\": {generation_match} }},\n",
        gen_before_ns as f64 / (gen_after_ns.max(1)) as f64
    ));
    json.push_str(&format!(
        "  \"fig2_end_to_end\": {{ \"what\": \"full per-sample verdict battery, generation excluded\", \"before_samples_per_sec\": {fig2_before:.1}, \"after_samples_per_sec\": {fig2_after:.1}, \"speedup\": {:.2}, \"verdicts_match\": {verdicts_match} }},\n",
        fig2_after / fig2_before.max(f64::MIN_POSITIVE)
    ));
    json.push_str(&format!(
        "  \"fig2_ab_end_to_end\": {{ \"what\": \"insets (a)+(b) battery including generation: per-point scoped threads + full-build generation vs persistent sweep pool + scratch fast path\", \"sets_per_point\": {}, \"before_secs\": {ab_before_secs:.3}, \"after_secs\": {ab_after_secs:.3}, \"speedup\": {:.2}, \"series_match\": {series_match} }}\n",
        ab_params.sets_per_point,
        ab_before_secs / ab_after_secs.max(f64::MIN_POSITIVE)
    ));
    json.push_str("}\n");

    std::fs::write(&cfg.out, &json).expect("write BENCH_analysis.json");
    eprintln!("wrote {}", cfg.out);
    print!("{json}");
}

/// Rebuilds `set` with structurally-identical DAGs whose derived caches
/// are empty, replaying the pre-cache cost model where every analysis
/// call recomputes its artifacts.
fn rebuild_uncached(set: &TaskSet) -> TaskSet {
    TaskSet::new(
        set.as_slice()
            .iter()
            .map(|t| {
                Task::new(t.dag().clone_uncached(), t.period(), t.deadline())
                    .expect("rebuilt task is valid")
            })
            .collect(),
    )
}

/// All four verdicts of the fig2 battery, pre-cache cost model.
fn battery_verdicts_before(set: &TaskSet) -> [SchedResult; 4] {
    let full = global::analyze(&rebuild_uncached(set), M, ConcurrencyModel::Full);
    let limited = global::analyze(&rebuild_uncached(set), M, ConcurrencyModel::Limited);
    let wf = pipeline::partition_and(&rebuild_uncached(set), M, PartitionStrategy::WorstFit).0;
    let a1 = pipeline::partition_and(&rebuild_uncached(set), M, PartitionStrategy::Algorithm1).0;
    [full, limited, wf, a1]
}

/// All four verdicts of the fig2 battery, cached pipeline.
fn battery_verdicts_after(set: &TaskSet) -> [SchedResult; 4] {
    let (full, limited) = pipeline::global_full_and_limited(set, M);
    let wf = pipeline::partition_and(set, M, PartitionStrategy::WorstFit).0;
    let a1 = pipeline::partition_and(set, M, PartitionStrategy::Algorithm1).0;
    [full, limited, wf, a1]
}

/// One windowed-generation sample: the inset (a) cost model (resampled
/// blocking-promotion probability, concurrency window, rejection
/// sampling) without the analysis battery.
fn generate_windowed(sample: u64, fast: bool, scratch: &mut DagScratch) -> Option<TaskSet> {
    let x = 1 + (sample % 8) as i64; // cycle the inset (a) sweep
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(BASE_SEED ^ sample.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let window = ConcurrencyWindow {
        m: M,
        l_min: (x - 1).max(1),
        l_max: x,
        max_attempts: 60,
    };
    for _ in 0..40 {
        let p: f64 = rng.gen();
        let dag_cfg = DagGenConfig {
            blocking: BlockingPolicy::Fixed(p),
            ..DagGenConfig::default()
        };
        let cfg =
            TaskSetConfig::new(N_TASKS, 0.5 * M as f64, dag_cfg).with_concurrency_window(window);
        let result = if fast {
            cfg.generate_with(&mut rng, scratch)
        } else {
            cfg.generate_reference(&mut rng)
        };
        if let Ok(set) = result {
            return Some(set);
        }
    }
    None
}

/// Times `samples` windowed generations per repetition; returns the
/// median per-sample time in ns plus a structural fingerprint of the
/// generated sets (node count, volume, period per task) for the
/// fast == reference gate.
fn measure_generation(samples: usize, reps: usize, fast: bool) -> (u128, Vec<(usize, u64, u64)>) {
    let mut scratch = DagScratch::new();
    let mut times = Vec::with_capacity(reps);
    let mut fingerprint = Vec::new();
    for _ in 0..reps {
        fingerprint.clear();
        let start = Instant::now();
        for sample in 0..samples as u64 {
            match generate_windowed(sample, fast, &mut scratch) {
                Some(set) => {
                    for (_, task) in set.iter() {
                        fingerprint.push((
                            task.dag().node_count(),
                            task.dag().volume(),
                            task.period(),
                        ));
                    }
                }
                None => fingerprint.push((0, 0, 0)),
            }
        }
        times.push(start.elapsed().as_nanos() / samples.max(1) as u128);
    }
    (median(times), fingerprint)
}

/// Median over `reps` repetitions of the per-set mean time of `f`, in ns.
fn measure(corpus: &[TaskSet], reps: usize, mut f: impl FnMut(&TaskSet)) -> u128 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for set in corpus {
            f(set);
        }
        samples.push(start.elapsed().as_nanos() / corpus.len().max(1) as u128);
    }
    median(samples)
}

/// Median samples-per-second over `reps` repetitions of evaluating the
/// whole corpus with `f`.
fn throughput(corpus: &[TaskSet], reps: usize, mut f: impl FnMut(&TaskSet)) -> f64 {
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for set in corpus {
            f(set);
        }
        rates.push(corpus.len() as f64 / start.elapsed().as_secs_f64());
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    rates[rates.len() / 2]
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// Builds a layered DAG — source → `layers` rows of `width` wcet-1
/// nodes (each wired to two nodes of the next row) → sink — of
/// `layers * width + 2` nodes, the incremental benchmark's big graph.
fn layered_dag(layers: usize, width: usize) -> rtpool_graph::Dag {
    use rtpool_graph::DagBuilder;
    let mut b = DagBuilder::with_capacities(layers * width + 2, 2 * layers * width + 2);
    let source = b.add_node(1);
    let rows: Vec<Vec<rtpool_graph::NodeId>> = (0..layers)
        .map(|_| (0..width).map(|_| b.add_node(1)).collect())
        .collect();
    for v in &rows[0] {
        b.add_edge(source, *v).expect("source edge");
    }
    for l in 0..layers - 1 {
        for (i, v) in rows[l].iter().enumerate() {
            b.add_edge(*v, rows[l + 1][i]).expect("straight edge");
            b.add_edge(*v, rows[l + 1][(i + 1) % width])
                .expect("diagonal edge");
        }
    }
    let sink = b.add_node(1);
    for v in &rows[layers - 1] {
        b.add_edge(*v, sink).expect("sink edge");
    }
    b.build().expect("layered dag is valid")
}

/// Runs the incremental-analysis benchmark (`--incremental`) and writes
/// `BENCH_incremental.json`: single-node WCET edits answered by
/// `Dag::edit` + warm-started RTA vs an uncached rebuild + cold RTA,
/// gated on bit-identical verdicts per edit (and on ≥ 10× speedup in
/// full mode).
fn incremental_benchmark(cfg: &Config) {
    let (layers, width) = if cfg.quick { (25, 40) } else { (100, 100) };
    let edits = if cfg.quick { 4 } else { 8 };
    let models = [
        ConcurrencyModel::Full,
        ConcurrencyModel::Limited,
        ConcurrencyModel::LimitedExact,
    ];
    let big = layered_dag(layers, width);
    let big_nodes = big.node_count();
    // Two light higher-priority tasks ahead of the big DAG, so warm
    // starts also exercise the hp-interference guard.
    let hp = |wcets: &[u64], period: u64| {
        let mut b = rtpool_graph::DagBuilder::new();
        let ids: Vec<_> = wcets.iter().map(|&w| b.add_node(w)).collect();
        b.add_chain(&ids).expect("chain");
        Task::new(b.build().expect("chain dag"), period, period).expect("hp task")
    };
    let period = (big_nodes as u64) * 4;
    let mut set = TaskSet::new(vec![
        hp(&[40, 40], 4_000),
        hp(&[60, 60, 60], 9_000),
        Task::new(big.clone(), period, period).expect("big task"),
    ]);
    eprintln!(
        "incremental benchmark: big DAG {big_nodes} nodes ({layers}x{width}), \
         {edits} WCET edits, m={M}, 3 models"
    );
    let never = CancelToken::never();

    // Warm the caches and the warm-start state once (steady-state server
    // behavior: the base set is resident before edits arrive).
    let (mut cold_base, _) = (global::analyze_many(&set, M, &models), ());
    let (warm_base, mut warm) =
        analyze_many_warm(&set, M, &models, &never, None).expect("never cancelled");
    assert_eq!(cold_base, warm_base, "cold pass must match before any edit");

    let big_index = 2usize;
    let mut incr_ns: Vec<u128> = Vec::with_capacity(edits);
    let mut scratch_ns: Vec<u128> = Vec::with_capacity(edits);
    let mut seeded_total = 0usize;
    let mut verdicts_match = true;
    for k in 0..edits {
        // Deterministically pick an interior node and bump its WCET.
        let node = 1 + (k * 7919) % (big_nodes - 2);
        let new_wcet = 2 + (k as u64 % 5);

        // Incremental path: patch the derived cache, warm-start the RTA.
        let t0 = Instant::now();
        let mut e = set.as_slice()[big_index].dag().edit();
        e.set_wcet(rtpool_graph::NodeId::from_index(node), new_wcet);
        let (edited, delta) = e.apply().expect("WCET edit is valid");
        assert!(delta.is_wcet_only());
        let mut tasks: Vec<Task> = set.as_slice().to_vec();
        tasks[big_index] = Task::new(edited, period, period).expect("edited task");
        let edited_set = TaskSet::new(tasks);
        let (warm_results, next_warm) =
            analyze_many_warm(&edited_set, M, &models, &never, Some(&warm)).expect("never");
        incr_ns.push(t0.elapsed().as_nanos());
        seeded_total += next_warm.seeded_tasks();

        // From-scratch path: uncached rebuild, cold RTA.
        let t0 = Instant::now();
        let rebuilt = rebuild_uncached(&edited_set);
        let cold_results = global::analyze_many(&rebuilt, M, &models);
        scratch_ns.push(t0.elapsed().as_nanos());

        verdicts_match &= warm_results == cold_results;
        assert!(
            verdicts_match,
            "edit {k}: warm-started verdicts diverged from cold recompute"
        );
        set = edited_set;
        warm = next_warm;
        cold_base = cold_results;
    }
    let _ = cold_base;
    let incr_med = median(incr_ns.clone());
    let scratch_med = median(scratch_ns.clone());
    let speedup = scratch_med as f64 / incr_med.max(1) as f64;
    let gate_10x = speedup >= 10.0;
    eprintln!(
        "  per-edit medians: incremental {incr_med} ns, from-scratch {scratch_med} ns \
         ({speedup:.1}x), {seeded_total} warm-seeded task fix-points"
    );
    if !cfg.quick {
        assert!(
            gate_10x,
            "incremental path must be >= 10x faster than from-scratch on \
             single-node WCET edits (got {speedup:.2}x)"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"incremental analysis: Dag::edit + warm-started RTA vs uncached rebuild + cold RTA\",\n",
    );
    json.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    json.push_str(&format!(
        "  \"workload\": {{ \"tasks\": 3, \"big_dag_nodes\": {big_nodes}, \"big_dag_shape\": \"{layers}x{width} layered\", \"m\": {M}, \"models\": [\"full\", \"limited\", \"limited_exact\"], \"edits\": {edits} }},\n"
    ));
    json.push_str(&format!(
        "  \"incremental\": {{ \"per_edit_median_ns\": {incr_med}, \"seeded_task_fixpoints\": {seeded_total} }},\n"
    ));
    json.push_str(&format!(
        "  \"from_scratch\": {{ \"per_edit_median_ns\": {scratch_med} }},\n"
    ));
    json.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    json.push_str(&format!("  \"verdicts_match\": {verdicts_match},\n"));
    json.push_str(&format!("  \"gate_10x\": {gate_10x}\n"));
    json.push_str("}\n");
    std::fs::write(&cfg.out, &json).expect("write incremental benchmark artifact");
    eprintln!("wrote {}", cfg.out);
    print!("{json}");
}

/// One engine × pool-size measurement of the dispatch benchmark.
/// `nodes_per_sec` is derived from the *best* repetition: the machine
/// shares a host, and external noise bursts only ever slow a rep down,
/// so min-of-reps is the standard noise-robust throughput estimator
/// (the median is kept for dispersion reporting).
struct ExecSample {
    nodes_per_sec: f64,
    best_job_ns: u128,
    median_job_ns: u128,
    span_p50_ns: u64,
    span_p99_ns: u64,
}

/// One engine's half of the interleaved measurement at one pool size.
struct ExecRunner {
    pool: rtpool_exec::ThreadPool,
    spans: rtpool_trace::LatencyHistogram,
    job_ns: Vec<u128>,
}

impl ExecRunner {
    fn new(
        m: usize,
        discipline: rtpool_exec::QueueDiscipline,
        engine: rtpool_exec::Engine,
        reps: usize,
    ) -> Self {
        use rtpool_exec::{PoolConfig, ThreadPool};
        ExecRunner {
            pool: ThreadPool::new(
                PoolConfig::new(m, discipline)
                    .with_engine(engine)
                    .with_time_scale(Duration::ZERO)
                    .with_watchdog(Duration::from_secs(30)),
            ),
            spans: rtpool_trace::LatencyHistogram::new(),
            job_ns: Vec::with_capacity(reps),
        }
    }

    /// One repetition: `jobs` back-to-back runs of the wide flat DAG.
    /// Every run is gated on full execution and the untouched
    /// available-concurrency floor (the workload has no blocking nodes,
    /// so `l(t)` must never drop below `m`).
    fn rep(&mut self, dag: &rtpool_graph::Dag, m: usize, jobs: usize) {
        let engine = self.pool.engine();
        let mut reports = Vec::with_capacity(jobs);
        // Only the pool runs inside the timed region; gating and span
        // accounting happen after the clock stops so the measured cost
        // is the dispatch engine's alone.
        let start = Instant::now();
        for _ in 0..jobs {
            reports.push(self.pool.run(dag).expect("benchmark run"));
        }
        self.job_ns
            .push(start.elapsed().as_nanos() / jobs.max(1) as u128);
        for report in reports {
            assert_eq!(
                report.executed_nodes,
                dag.node_count(),
                "{} at m={m}: incomplete run",
                engine.as_str()
            );
            assert_eq!(
                report.min_available_workers,
                m,
                "{} at m={m}: a non-blocking workload must not eat concurrency",
                engine.as_str()
            );
            for span in &report.spans {
                self.spans
                    .observe(u64::try_from((span.end - span.start).as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }

    fn sample(self, nodes_per_job: usize) -> ExecSample {
        let best_job_ns = self.job_ns.iter().copied().min().unwrap_or(u128::MAX);
        let median_job_ns = median(self.job_ns);
        ExecSample {
            nodes_per_sec: nodes_per_job as f64 / (best_job_ns.max(1) as f64 / 1e9),
            best_job_ns,
            median_job_ns,
            span_p50_ns: self.spans.quantile_upper(0.50).unwrap_or(0),
            span_p99_ns: self.spans.quantile_upper(0.99).unwrap_or(0),
        }
    }
}

/// Measures both engines at one pool size with *interleaved* repetitions
/// (v1 rep, v2 rep, v1 rep, ...), so slow drift in background load hits
/// both engines equally instead of biasing whichever ran second.
///
/// The returned speedup is the **median of pairwise per-rep ratios**:
/// rep `i` of both engines runs back-to-back and shares its noise
/// environment, so `v1[i] / v2[i]` cancels host-level slowdowns that a
/// ratio of independently-picked best reps would mix across phases.
fn measure_exec_pair(
    dag: &rtpool_graph::Dag,
    m: usize,
    discipline: &rtpool_exec::QueueDiscipline,
    jobs: usize,
    reps: usize,
) -> (ExecSample, ExecSample, f64) {
    use rtpool_exec::Engine;
    let mut v1 = ExecRunner::new(m, discipline.clone(), Engine::V1Condvar, reps);
    let mut v2 = ExecRunner::new(m, discipline.clone(), Engine::V2LockFree, reps);
    // Warm-up rep for each: workers attached, queues touched, counters
    // exercised; discarded.
    v1.rep(dag, m, jobs.min(4));
    v2.rep(dag, m, jobs.min(4));
    v1.job_ns.clear();
    v2.job_ns.clear();
    for _ in 0..reps {
        v1.rep(dag, m, jobs);
        v2.rep(dag, m, jobs);
    }
    let mut ratios: Vec<f64> = v1
        .job_ns
        .iter()
        .zip(&v2.job_ns)
        .map(|(&a, &b)| a as f64 / b.max(1) as f64)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[ratios.len() / 2];
    let nodes = dag.node_count();
    (v1.sample(nodes), v2.sample(nodes), speedup)
}

/// Runs the executor dispatch benchmark (`--exec`) and writes
/// `BENCH_exec.json`: v1 condvar engine vs v2 lock-free engine at
/// m ∈ {4, 8, 16, 32} on a dispatch-bound wide flat fork-join.
fn exec_benchmark(cfg: &Config) {
    const WIDTH: usize = 256;
    const POOL_SIZES: [usize; 4] = [4, 8, 16, 32];
    // Full-mode reps are long (100 jobs ≈ 10–30 ms) so a single OS
    // scheduling burp cannot dominate a rep; quick mode stays short for
    // CI smoke use.
    let (jobs, reps) = if cfg.quick { (6, 3) } else { (100, 9) };

    // Source → WIDTH parallel wcet-1 nodes → sink, non-blocking, at
    // time_scale zero: node bodies cost nothing, so per-job time is the
    // dispatch engine's own overhead (v1: one pool-mutex round-trip plus
    // an m-wide notify_all broadcast per completion; v2: lock-free queue
    // ops plus one targeted unpark).
    let mut b = rtpool_graph::DagBuilder::new();
    let wcets = vec![1u64; WIDTH];
    b.fork_join(1, &wcets, 1, false).expect("flat fork-join");
    let dag = b.build().expect("valid dag");
    eprintln!(
        "exec benchmark: {} nodes/job, {jobs} jobs x {reps} reps per engine, m in {POOL_SIZES:?}",
        dag.node_count()
    );

    use rtpool_exec::QueueDiscipline;
    let disciplines = [
        ("global_fifo", QueueDiscipline::GlobalFifo),
        (
            "work_stealing",
            QueueDiscipline::WorkStealing { seed: BASE_SEED },
        ),
    ];
    let mut tables = Vec::new();
    for (name, discipline) in &disciplines {
        eprintln!("  discipline: {name}");
        let mut rows = Vec::new();
        for m in POOL_SIZES {
            let (v1, v2, speedup) = measure_exec_pair(&dag, m, discipline, jobs, reps);
            eprintln!(
                "    m={m:>2}: v1 {:>10.0} nodes/s | v2 {:>10.0} nodes/s | speedup {speedup:.2}x",
                v1.nodes_per_sec, v2.nodes_per_sec
            );
            rows.push((m, v1, v2, speedup));
        }
        tables.push((*name, rows));
    }

    // The 2x gate applies to the engine's headline discipline — the
    // injector/stealer work-stealing path, where v1 serializes every
    // local pop and steal under the one pool mutex.
    let ws = &tables
        .iter()
        .find(|(n, _)| *n == "work_stealing")
        .expect("ws table")
        .1;
    let speedup_at = |m: usize| {
        ws.iter()
            .find(|(size, ..)| *size == m)
            .map(|(_, _, _, s)| *s)
            .expect("measured pool size")
    };
    let (speedup_m16, speedup_m32) = (speedup_at(16), speedup_at(32));
    let gate_2x = speedup_m16 >= 2.0 && speedup_m32 >= 2.0;
    if !cfg.quick {
        assert!(
            gate_2x,
            "v2 engine must reach 2x the v1 dispatch throughput at m=16 and m=32 \
             under work stealing (got {speedup_m16:.2}x and {speedup_m32:.2}x)"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"executor dispatch engines: v1 condvar vs v2 lock-free\",\n");
    json.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    json.push_str(&format!(
        "  \"workload\": {{ \"shape\": \"source -> {WIDTH} x wcet-1 -> sink\", \"nodes\": {}, \"jobs_per_rep\": {jobs}, \"reps\": {reps}, \"time_scale_ns\": 0 }},\n",
        dag.node_count()
    ));
    json.push_str("  \"disciplines\": {\n");
    for (d, (name, rows)) in tables.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {{\n"));
        for (i, (m, v1, v2, speedup)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "      \"m{m}\": {{ \"v1_condvar\": {{ \"nodes_per_sec\": {:.0}, \"best_job_ns\": {}, \"median_job_ns\": {}, \"span_p50_ns\": {}, \"span_p99_ns\": {} }}, \"v2_lockfree\": {{ \"nodes_per_sec\": {:.0}, \"best_job_ns\": {}, \"median_job_ns\": {}, \"span_p50_ns\": {}, \"span_p99_ns\": {} }}, \"speedup\": {speedup:.2} }}{}\n",
                v1.nodes_per_sec,
                v1.best_job_ns,
                v1.median_job_ns,
                v1.span_p50_ns,
                v1.span_p99_ns,
                v2.nodes_per_sec,
                v2.best_job_ns,
                v2.median_job_ns,
                v2.span_p50_ns,
                v2.span_p99_ns,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
            if d + 1 < tables.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_m16\": {speedup_m16:.2},\n  \"speedup_m32\": {speedup_m32:.2},\n  \"gate_2x\": {gate_2x}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&cfg.out, &json).expect("write exec benchmark artifact");
    eprintln!("wrote {}", cfg.out);
    print!("{json}");
}
