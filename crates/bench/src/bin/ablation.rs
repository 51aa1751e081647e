//! Ablation studies beyond the paper's figures:
//!
//! * `--study floor`: how much schedulability the cheap `b̄` bound gives
//!   away versus the exact-antichain concurrency floor (extension).
//! * `--study heuristic`: Algorithm 1 acceptance under worst-fit (the
//!   paper's tie-breaker) versus first-fit and best-fit.
//!
//! ```text
//! ablation [--study floor|heuristic|all] [--sets N] [--seed S] [--threads T]
//! ```

use std::process::ExitCode;

use rtpool_bench::ablation;
use rtpool_bench::sweep::SweepPool;

fn main() -> ExitCode {
    let mut study = String::from("all");
    let mut sets = 200usize;
    let mut seed = 0xab1au64;
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let result = match flag.as_str() {
            "--study" => value("--study").map(|v| study = v),
            "--sets" => value("--sets").and_then(|v| {
                v.parse()
                    .map(|v| sets = v)
                    .map_err(|e| format!("invalid --sets: {e}"))
            }),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|v| seed = v)
                    .map_err(|e| format!("invalid --seed: {e}"))
            }),
            "--threads" => value("--threads").and_then(|v| {
                v.parse()
                    .map(|v| threads = v)
                    .map_err(|e| format!("invalid --threads: {e}"))
            }),
            "--help" | "-h" => {
                println!("usage: ablation [--study floor|heuristic|all] [--sets N] [--seed S] [--threads T]");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let pool = SweepPool::new(threads);
    if study == "floor" || study == "all" {
        println!("Ablation: concurrency floor (global RTA, m=8, U=0.4n; {sets} sets/point)");
        println!(
            "{:>4} | {:>10} | {:>12} | {:>14}",
            "n", "oblivious", "b̄ (paper)", "exact (ext.)"
        );
        println!("{}", "-".repeat(50));
        for p in ablation::concurrency_floor_ablation(&pool, sets, seed) {
            println!(
                "{:>4} | {:>10.3} | {:>12.3} | {:>14.3}",
                p.n, p.full, p.limited, p.limited_exact
            );
        }
        println!();
    }
    if study == "heuristic" || study == "all" {
        println!("Ablation: Algorithm 1 tie-breaking (partitioned, n=4, U=1.0; {sets} sets/point)");
        println!(
            "{:>4} | {:>10} | {:>10} | {:>10}",
            "m", "worst-fit", "first-fit", "best-fit"
        );
        println!("{}", "-".repeat(44));
        for p in ablation::heuristic_ablation(&pool, sets, seed) {
            println!(
                "{:>4} | {:>10.3} | {:>10.3} | {:>10.3}",
                p.m, p.worst_fit, p.first_fit, p.best_fit
            );
        }
    }
    ExitCode::SUCCESS
}
