//! Reproduces the paper's Figure 2 (insets a–f): schedulability ratio of
//! the proposed concurrency-aware tests versus the oblivious state of the
//! art, as `l_max`, `m`, and `n` vary.
//!
//! ```text
//! fig2 [--inset a|b|c|d|e|f|all] [--sets N] [--seed S]
//!      [--threads T] [--csv DIR] [--plot] [--trace DIR]
//! ```
//!
//! Defaults: all insets, 500 sets per point (the paper's count), seed
//! `0x5eedf00d`, all cores, text tables on stdout. `--trace DIR`
//! additionally replays one representative sample per requested inset
//! under the simulator with event tracing and writes the Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) to
//! `DIR/fig2<letter>-sample.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rtpool_bench::fig2::{run_insets, sample_for_trace, Fig2Params, Inset};
use rtpool_bench::sweep::SweepPool;
use rtpool_bench::table;
use rtpool_core::partition::algorithm1;
use rtpool_sim::{SchedulingPolicy, SimConfig};

struct Args {
    insets: Vec<Inset>,
    params: Fig2Params,
    csv_dir: Option<PathBuf>,
    plot: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        insets: Inset::ALL.to_vec(),
        params: Fig2Params::default(),
        csv_dir: None,
        plot: false,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--inset" => {
                let v = value("--inset")?;
                if v.eq_ignore_ascii_case("all") {
                    args.insets = Inset::ALL.to_vec();
                } else {
                    args.insets =
                        vec![Inset::parse(&v).ok_or_else(|| format!("unknown inset `{v}`"))?];
                }
            }
            "--sets" => {
                args.params.sets_per_point = value("--sets")?
                    .parse()
                    .map_err(|e| format!("invalid --sets: {e}"))?;
            }
            "--seed" => {
                args.params.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--threads" => {
                args.params.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            "--csv" => {
                args.csv_dir = Some(PathBuf::from(value("--csv")?));
            }
            "--plot" => args.plot = true,
            "--trace" => {
                args.trace_dir = Some(PathBuf::from(value("--trace")?));
            }
            "--help" | "-h" => {
                println!(
                    "usage: fig2 [--inset a..f|all] [--sets N] [--seed S] \
                     [--threads T] [--csv DIR] [--plot] [--trace DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    // All requested insets run as a single work queue with no barrier
    // between points.
    let pool = SweepPool::new(args.params.threads);
    let start = Instant::now();
    let results = run_insets(&pool, &args.insets, &args.params);
    let elapsed = start.elapsed();
    for (inset, series) in &results {
        println!("{}", table::render_text(*inset, series));
        if args.plot {
            println!("{}", table::render_ascii_plot(series));
        }
        if let Some(dir) = &args.csv_dir {
            let path = dir.join(format!("fig2{}.csv", inset.letter()));
            if let Err(e) = std::fs::write(&path, table::render_csv(*inset, series)) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("  wrote {}", path.display());
        }
        println!();
    }
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for &inset in &args.insets {
            match export_sample_trace(inset, args.params.seed, dir) {
                Ok(path) => println!("  wrote {}", path.display()),
                Err(e) => eprintln!("fig2: trace export for inset ({}): {e}", inset.letter()),
            }
        }
    }
    println!(
        "({} sets/point, seed {:#x}, {} workers, {:.1}s total)",
        args.params.sets_per_point,
        args.params.seed,
        pool.threads(),
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// Replays one representative sample (the middle x value, sample 0) of
/// `inset` under the simulator with event tracing and writes the Chrome
/// trace-event JSON to `dir`.
fn export_sample_trace(inset: Inset, seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let xs = inset.x_values();
    let x = xs[xs.len() / 2];
    let (set, m) = sample_for_trace(inset, x, seed)?;
    let global = matches!(inset, Inset::A | Inset::C | Inset::E);
    let mut config = if global {
        SimConfig::single_job(SchedulingPolicy::Global, m)
    } else {
        SimConfig::single_job(SchedulingPolicy::Partitioned, m)
    }
    .with_event_trace();
    if !global {
        let mappings = set
            .iter()
            .map(|(id, t)| {
                algorithm1(t.dag(), m)
                    .map_err(|e| format!("task {id}: Algorithm 1 found no safe mapping: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        config = config.with_mappings(mappings);
    }
    let mut outcome = config.run(&set).map_err(|e| e.to_string())?;
    let trace = outcome
        .take_event_trace()
        .expect("event tracing was enabled");
    if outcome.any_stall() {
        eprintln!(
            "note: inset {} sample stalled (deadlock); the trace covers the stalled prefix",
            inset.letter()
        );
    }
    let path = dir.join(format!("fig2{}-sample.json", inset.letter()));
    std::fs::write(&path, rtpool_trace::to_chrome_json(&trace))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
