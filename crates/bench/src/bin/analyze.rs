//! Command-line analyzer for task sets in the `.rtp` text format (see
//! `rtpool_core::textfmt`): lint diagnostics, per-task structural
//! metrics, schedulability under every shipped test, and Algorithm 1
//! mappings. `rtpool-trace run --engine sim` simulates a set.
//!
//! Parsing and all structural/deadlock checking are routed through the
//! `rtlint` engine (`rtpool_lint::check_source`), so this tool prints
//! the same diagnostics — with spans, notes, and fix suggestions — as
//! `rtlint` itself, followed by the numeric analysis sections. The exit
//! status is non-zero when the linter reports an error-severity finding.
//!
//! ```text
//! analyze <file.rtp> --m <threads> [--timeout-ms T]
//! ```
//!
//! `--m 0` is refused. A pool past
//! `rtpool_core::partition::MAX_PARTITIONED_THREADS` gets
//! every global section, an error naming the bound in place of the
//! partitioned ones, and exit code 1.
//!
//! `--timeout-ms` bounds the response-time fix-points: past the budget
//! the analysis stops with a clean "analysis timed out" error instead of
//! iterating further (pathological parameters can make the
//! pseudo-polynomial RTA arbitrarily slow).

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use rtpool_bench::cli::{self, number, pool_size, verdict_row, PoolUse};
use rtpool_core::analysis::global::{analyze_many_cancellable, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::{sizing, CancelToken, TaskId};
use rtpool_lint::{check_source, render_human, LintOptions};

#[derive(Debug)]
struct Args {
    path: String,
    m: usize,
    timeout: Option<Duration>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut path = None;
    let mut m = 4usize;
    let mut timeout = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--m" => m = pool_size("--m", number(&mut it, "--m")?, PoolUse::Modelled)?,
            "--timeout-ms" => {
                let ms: u64 = number(&mut it, "--timeout-ms")?;
                if ms == 0 {
                    return Err("--timeout-ms must be positive".into());
                }
                timeout = Some(Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                println!("usage: analyze <file.rtp> [--m N] [--timeout-ms T]");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => path = Some(file.to_owned()),
        }
    }
    Ok(Args {
        path: path.ok_or("missing input file")?,
        m,
        timeout,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let text = cli::read_source(Path::new(&args.path))?;
    let m = args.m;

    // One parse, shared with the linter: the lint pass owns parsing and
    // all structural/deadlock diagnostics.
    let (report, parsed) = check_source(&args.path, &text, &LintOptions::with_m(m));
    if !report.is_clean() {
        println!("== Lint (rtlint, m = {m}) ==");
        print!("{}", render_human(&report, Some(&text)));
    }
    let Some((set, _spans)) = parsed else {
        return Err(format!(
            "{} does not parse; see diagnostics above",
            args.path
        ));
    };

    println!(
        "{} tasks, m = {m}, total utilization {:.3}\n",
        set.len(),
        set.total_utilization()
    );

    println!("== Per-task structural metrics (Section 3) ==");
    for (id, task) in set.iter() {
        let dag = task.dag();
        println!(
            "  {id}: |V|={:3} vol={:6} len={:5} T={:7} D={:7} U={:.3}",
            dag.node_count(),
            task.volume(),
            task.critical_path_length(),
            task.period(),
            task.deadline(),
            task.utilization(),
        );
        // l̄ = m − b̄ exactly: `deadlock::concurrency_floor` is an `i64`
        // and stops at `i64::MAX − b̄` for pools past 2⁶³ threads.
        let b_bar = dag.delay_profile().max_delay_count();
        println!(
            "      b̄={b_bar} l̄({m})={} max-suspended={} min-safe-pool={}",
            m as i128 - b_bar as i128,
            dag.max_blocking_antichain().len(),
            sizing::min_threads_deadlock_free(dag),
        );
    }

    let token = args.timeout.map_or_else(CancelToken::never, |t| {
        CancelToken::with_deadline(std::time::Instant::now() + t)
    });

    println!("\n== Global schedulability (Section 4.1) ==");
    for (label, model) in [
        ("Melani et al. [14] (oblivious)", ConcurrencyModel::Full),
        ("limited concurrency (paper)", ConcurrencyModel::Limited),
        (
            "exact antichain (extension)",
            ConcurrencyModel::LimitedExact,
        ),
    ] {
        let r = match analyze_many_cancellable(&set, m, &[model], &token) {
            Ok(mut results) => results.remove(0),
            Err(_) => {
                return Err(format!(
                    "analysis timed out after {:?} (in {label}); \
                     re-run with a larger --timeout-ms",
                    args.timeout.unwrap_or_default()
                ));
            }
        };
        println!("{}", verdict_row(label, &r));
    }

    // The section is refused for the pool it would partition, so the
    // message names `m` rather than the flag.
    let refused = pool_size("m", m, PoolUse::Partitioned).err();
    if let Some(e) = &refused {
        eprintln!("error: partitioned analysis refused: {e}");
    } else {
        println!("\n== Partitioned schedulability (Section 4.2) ==");
        for (label, strategy) in [
            (
                "worst-fit (oblivious baseline)",
                PartitionStrategy::WorstFit,
            ),
            ("Algorithm 1 (delay-free)", PartitionStrategy::Algorithm1),
        ] {
            let (r, mappings) = partitioned::partition_and_analyze(&set, m, strategy);
            println!("{}", verdict_row(label, &r));
            for (i, mapping) in mappings.iter().enumerate() {
                if let Some(mapping) = mapping {
                    let task = set.task(TaskId(i));
                    println!("      τ{i} loads: {:?}", mapping.loads(task.dag()));
                } else {
                    println!("      τ{i}: partitioning failed");
                }
            }
        }
    }

    Ok(refused.is_none() && !report.has_failures())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn the_pool_and_the_budget_must_be_positive() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["f.rtp", "--m", "0"]), "--m must be positive");
        assert_eq!(
            err(&["f.rtp", "--timeout-ms", "0"]),
            "--timeout-ms must be positive"
        );
        assert_eq!(err(&["f.rtp", "--m"]), "missing value for --m");
        assert!(err(&["f.rtp", "--m", "x"]).starts_with("invalid --m: "));
        assert_eq!(err(&["--m", "2"]), "missing input file");
    }

    #[test]
    fn any_positive_pool_is_analysed() {
        let max = usize::MAX.to_string();
        let args = parse(&["f.rtp", "--m", &max]).unwrap();
        assert_eq!((args.path.as_str(), args.m), ("f.rtp", usize::MAX));
        assert_eq!(parse(&["f.rtp"]).unwrap().m, 4);
    }
}
