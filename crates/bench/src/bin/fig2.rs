//! Runs every experiment of the reproduction: the paper's Figure 2
//! (insets a–f) by default, and with `--study` the four studies beside
//! it — the concurrency-floor and Algorithm 1 tie-breaking ablations,
//! bound tightness, and suspend vs spin.
//!
//! ```text
//! fig2 [--study figure|floor|heuristic|tightness|spin|all] [--inset a..f|all]
//!      [--sets N] [--seed S] [--threads T] [--csv DIR] [--trace DIR]
//! ```
//!
//! Defaults: the figure, all insets, each study's committed sample count
//! and seed (`Study::params`; the figure's is the paper's 500 sets per
//! point and seed `0x5eedf00d`), all cores (`--threads` stops at
//! `MAX_PARTITIONED_THREADS`), text tables on stdout.
//! `--csv DIR` writes `DIR/fig2<letter>.csv` per inset and
//! `DIR/<study>.csv` for the other studies, so `--study all --csv
//! results` regenerates every committed CSV. `--inset` and `--trace DIR`
//! belong to the figure: `--trace DIR` replays one representative
//! sample per requested inset under the simulator with event tracing and
//! writes the Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) to `DIR/fig2<letter>-sample.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rtpool_bench::cli::{number, thread_count, traced_simulation, value};
use rtpool_bench::fig2::{sample_for_trace, Fig2Params, Inset, Study};
use rtpool_bench::sweep::SweepPool;
use rtpool_sim::SchedulingPolicy;

const USAGE: &str = "usage: fig2 [--study figure|floor|heuristic|tightness|spin|all] \
                     [--inset a..f|all] [--sets N] [--seed S] [--threads T] [--csv DIR] \
                     [--trace DIR]";

#[derive(Debug)]
struct Args {
    studies: Vec<Study>,
    /// `None` until `--inset` is given: every inset.
    insets: Option<Vec<Inset>>,
    /// Overrides every study's committed sample count.
    sets: Option<usize>,
    /// Overrides every study's committed seed.
    seed: Option<u64>,
    threads: usize,
    csv_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        studies: vec![Study::Figure],
        insets: None,
        sets: None,
        seed: None,
        threads: Fig2Params::default().threads,
        csv_dir: None,
        trace_dir: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--study" => {
                let v = value(&mut it, "--study")?;
                args.studies = if v == "all" {
                    Study::ALL.to_vec()
                } else {
                    vec![Study::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown study `{v}` \
                             (expected figure, floor, heuristic, tightness, spin or all)"
                        )
                    })?]
                };
            }
            "--inset" => {
                let v = value(&mut it, "--inset")?;
                args.insets = Some(if v.eq_ignore_ascii_case("all") {
                    Inset::ALL.to_vec()
                } else {
                    vec![Inset::parse(&v).ok_or_else(|| format!("unknown inset `{v}`"))?]
                });
            }
            "--sets" => args.sets = Some(number(&mut it, "--sets")?),
            "--seed" => args.seed = Some(number(&mut it, "--seed")?),
            // 0 runs on the calling thread alone, as 1 does.
            "--threads" => args.threads = thread_count(&mut it, "--threads")?,
            "--csv" => args.csv_dir = Some(PathBuf::from(value(&mut it, "--csv")?)),
            "--trace" => args.trace_dir = Some(PathBuf::from(value(&mut it, "--trace")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if (args.insets.is_some() || args.trace_dir.is_some()) && !args.studies.contains(&Study::Figure)
    {
        return Err("--inset and --trace select Figure 2's insets; \
                    they need --study figure or all"
            .to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let insets = args.insets.as_deref().unwrap_or(&Inset::ALL);
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    // Each study's whole grid runs as a single work queue with no barrier
    // between points.
    let pool = SweepPool::new(args.threads);
    for &study in &args.studies {
        let committed = study.params();
        let params = Fig2Params {
            sets_per_point: args.sets.unwrap_or(committed.sets_per_point),
            seed: args.seed.unwrap_or(committed.seed),
            threads: args.threads,
        };
        let start = Instant::now();
        let report = study.run(&pool, &params, insets);
        let elapsed = start.elapsed();
        print!("{}", report.text);
        if let Some(dir) = &args.csv_dir {
            for (name, contents) in &report.csv {
                let path = dir.join(name);
                std::fs::write(&path, contents)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("  wrote {}", path.display());
            }
        }
        println!(
            "({}: {} sets/point, seed {:#x}, {} workers, {:.1}s)\n",
            study.name(),
            params.sets_per_point,
            params.seed,
            pool.threads(),
            elapsed.as_secs_f64()
        );
    }
    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let seed = args.seed.unwrap_or(Study::Figure.params().seed);
        for &inset in insets {
            match export_sample_trace(inset, seed, dir) {
                Ok(path) => println!("  wrote {}", path.display()),
                Err(e) => eprintln!("fig2: trace export for inset ({}): {e}", inset.letter()),
            }
        }
    }
    Ok(())
}

/// Replays one representative sample (the middle x value, sample 0) of
/// `inset` under the simulator with event tracing and writes the Chrome
/// trace-event JSON to `dir`.
fn export_sample_trace(inset: Inset, seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let xs = inset.x_values();
    let x = xs[xs.len() / 2];
    let (set, m) = sample_for_trace(inset, x, seed)?;
    let policy = match inset {
        Inset::A | Inset::C | Inset::E => SchedulingPolicy::Global,
        Inset::B | Inset::D | Inset::F => SchedulingPolicy::Partitioned,
    };
    let (trace, outcome) = traced_simulation(&set, policy, m, None)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn an_unknown_study_is_an_error() {
        let err = parse(&["--study", "flor"]).unwrap_err();
        assert!(err.contains("unknown study `flor`"), "{err}");
    }

    #[test]
    fn studies_parse_by_name_and_default_to_the_figure() {
        assert_eq!(parse(&[]).unwrap().studies, [Study::Figure]);
        assert_eq!(parse(&["--study", "all"]).unwrap().studies, Study::ALL);
        for study in Study::ALL {
            assert_eq!(parse(&["--study", study.name()]).unwrap().studies, [study]);
        }
    }

    #[test]
    fn threads_stop_at_the_thread_bound() {
        assert_eq!(parse(&["--threads", "0"]).unwrap().threads, 0);
        let err = parse(&["--threads", "4097"]).unwrap_err();
        assert!(err.contains("past MAX_PARTITIONED_THREADS = 4096"), "{err}");
    }

    #[test]
    fn figure_flags_need_the_figure() {
        assert!(parse(&["--study", "spin", "--inset", "a"]).is_err());
        assert!(parse(&["--study", "floor", "--trace", "t"]).is_err());
        assert!(parse(&["--study", "all", "--inset", "c"]).is_ok());
    }
}
