//! `rtpool-benchmark run | compare` — see `README.md`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use rtpool_benchmark::compare::{self, RunSet, Verdict};
use rtpool_benchmark::inputs::DEFAULT_SEED;
use rtpool_benchmark::{run, Passes, Workload};

const USAGE: &str = "\
usage:
  rtpool-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                       [--append FILE] [--out-dir DIR]
      Runs one workload (default: all five) from the seed (default 1) with a
      measured phase of N seconds (default 10). Without --trace it makes both
      passes and prints every metric; with --trace 0 only the untraced pass,
      with --trace 1 the traced pass. The last line of standard output is the
      result object of the (last) workload. --append adds one result record
      per pass to FILE for `compare`. Span logs go to DIR (default
      benchmark/out).
  rtpool-benchmark compare A.json B.json [--registry BENCHMARK.json]
      Compares two sets of result records against the registered bounds.
      Exit code 1: a regression; 2: only unresolved metrics; 0: agreement.
workloads: admit-cold admit-resident exec-flat exec-blocking fig2-sweep";

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(64)
}

/// First line of a tool's output, or "unknown" (no git in a bare
/// checkout, for one).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Without `--workload`: one child process per workload, so that each
/// reports its own peak memory rather than the largest so far.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to run the workloads one by one: {e}");
            return ExitCode::from(71);
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload.name()])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace: Option<bool> = None;
    let mut append: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return fail(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(n) => seed = n,
                Err(_) => return fail("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse() {
                Ok(n @ 1..=600) => seconds = n,
                _ => return fail("--seconds takes 1..=600"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return fail("--trace takes 0 or 1"),
            },
            "--append" => append = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return fail(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return run_all(args);
    };
    let passes = match trace {
        None => Passes::Both,
        Some(false) => Passes::Untraced,
        Some(true) => Passes::Traced,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if passes == Passes::Both {
        println!(
            "rtpool-benchmark: nproc={nproc} rustc=\"{}\" commit={} seed={seed} seconds={seconds}",
            tool_line("rustc", &["--version"]),
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
        );
    } else {
        println!("rtpool-benchmark: nproc={nproc} seed={seed} seconds={seconds}");
    }

    let (result, findings) = run(workload, seed, seconds, passes, &out_dir);
    print!("{}", result.render());
    for line in findings.lines() {
        println!("  ORACLE FAILED: {line}");
    }
    // One record per pass made; `--trace 1` asks for the per-layer
    // object as the last line, anything else for the end-to-end one.
    let mut records = Vec::new();
    if passes != Passes::Untraced {
        records.push((1, result.json(true)));
    }
    if passes != Passes::Traced {
        records.push((0, result.json(false)));
    }
    if let Some(path) = &append {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| {
                records.iter().try_for_each(|(traced, json)| {
                    writeln!(
                        file,
                        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {traced}, {}",
                        result.workload,
                        &json[1..]
                    )
                })
            });
        if let Err(e) = written {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(74);
        }
    }
    if let Some((_, last)) = records.last() {
        println!("{last}");
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_command(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut registry = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--registry" {
            match it.next() {
                Some(path) => registry = PathBuf::from(path),
                None => return fail("--registry needs a path"),
            }
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files.as_slice() else {
        return fail("compare takes exactly two result files");
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = read(&registry.to_string_lossy())
        .and_then(|text| compare::registry(&text))
        .and_then(|metrics| {
            let a = RunSet::parse(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
            let b = RunSet::parse(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
            Ok((metrics, a, b))
        });
    let (metrics, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(66);
        }
    };
    let (report, verdict) = compare::compare(&a, &b, &metrics);
    print!("{report}");
    match verdict {
        Verdict::Ok => ExitCode::SUCCESS,
        Verdict::Regression => ExitCode::from(1),
        Verdict::Unresolved => ExitCode::from(2),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "compare" => compare_command(rest),
        _ => fail("expected `run` or `compare`"),
    }
}
