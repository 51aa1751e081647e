//! The suspend-vs-spin schedulability study, printed as a table.
//!
//! ```text
//! spin_study [--inset a|c|e|all] [--sets N] [--seed S] [--threads T] [--quick]
//! ```
//!
//! Re-runs the fig2 sweep over the global insets with every sampled set
//! analyzed under both barrier backends (see `rtpool_bench::spin_study`).
//! The exit code carries the two gates:
//!
//! * the suspend series is bit-identical to the `fig2` pipeline (same
//!   RNG streams, same tallies, same ratios);
//! * no sampled set was schedulable under spin but not under suspend.
//!
//! Defaults: insets (a) and (c), 150 sets per point. `--quick` (the CI
//! smoke configuration) drops to 40 sets per point.

use std::process::ExitCode;
use std::time::Instant;

use rtpool_bench::fig2::{Fig2Params, Inset};
use rtpool_bench::spin_study::run_study;
use rtpool_bench::sweep::SweepPool;

struct Args {
    insets: Vec<Inset>,
    params: Fig2Params,
}

const GLOBAL_INSETS: [Inset; 3] = [Inset::A, Inset::C, Inset::E];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        insets: vec![Inset::A, Inset::C],
        params: Fig2Params {
            sets_per_point: 150,
            ..Fig2Params::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--inset" => {
                let v = value("--inset")?;
                if v.eq_ignore_ascii_case("all") {
                    args.insets = GLOBAL_INSETS.to_vec();
                } else {
                    let inset = Inset::parse(&v).ok_or_else(|| format!("unknown inset `{v}`"))?;
                    if !GLOBAL_INSETS.contains(&inset) {
                        return Err(format!(
                            "inset ({v}) is partitioned; the spin study covers a, c, e"
                        ));
                    }
                    args.insets = vec![inset];
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
            "--quick" => {
                args.params.sets_per_point = 40;
                args.insets = vec![Inset::A, Inset::C];
            }
            "--help" | "-h" => {
                println!(
                    "usage: spin_study [--inset a|c|e|all] [--sets N] [--seed S] \
                     [--threads T] [--quick]"
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
    let pool = SweepPool::new(args.params.threads);
    let start = Instant::now();
    let report = run_study(&pool, &args.insets, &args.params);
    let sweep_elapsed = start.elapsed();

    for (inset, points) in &report.series {
        println!(
            "inset ({}) — {} (proposed-test ratio per backend)",
            inset.letter(),
            inset.description()
        );
        println!(
            "  {:>6}  {:>8}  {:>8}  {:>8}  {:>8}",
            inset.x_label(),
            "suspend",
            "spin",
            "baseline",
            "samples"
        );
        for p in points {
            println!(
                "  {:>6}  {:>8.3}  {:>8.3}  {:>8.3}  {:>8}",
                p.x, p.suspend, p.spin, p.baseline, p.samples
            );
        }
        println!();
    }
    println!(
        "({} sets/point, seed {:#x}, sweep {:.1}s)",
        args.params.sets_per_point,
        args.params.seed,
        sweep_elapsed.as_secs_f64()
    );

    if !report.verdicts_match {
        eprintln!("error: suspend series diverged from the fig2 pipeline");
        return ExitCode::FAILURE;
    }
    if !report.spin_never_beats_suspend() {
        eprintln!("error: a set was schedulable under spin but not under suspend");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
