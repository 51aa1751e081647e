//! Unified trace tooling: runs a `.rtp` workload under the simulator or
//! the native thread pool with event tracing enabled, then summarizes,
//! renders, or exports the trace; also validates exported traces.
//!
//! ```text
//! rtpool-trace run <workload.rtp> [--engine sim|exec]
//!              [--policy global|partitioned] [--pool v1|v2|both] [--m N]
//!              [--horizon H] [--format summary|ascii|chrome|csv]
//!              [--out PATH] [--time-scale-us U] [--timeout-ms T]
//! rtpool-trace validate <trace.json>
//! ```
//!
//! `run` defaults: simulator, global policy, `m = 4`, one synchronous
//! job per task, summary on stdout; the simulator's summary ends with
//! each task's deadline misses. `--horizon H` (sim only) switches to
//! periodic releases up to `H`. Under `--engine exec` each task's DAG
//! runs as one job on its own pool and yields one trace per task (with
//! `--out`, files are suffixed `.task<i>`); `--pool v1|v2` selects the
//! pool's dispatch engine (default `v1`, the mutex/condvar engine; `v2`
//! is the lock-free injector/stealer engine — both emit the same trace
//! schema, and `--pool both` runs every task under *both* engines and
//! prints a per-task table comparing their NodeStart→NodeEnd latency
//! percentiles, from each trace's [`TraceAnalysis`]);
//! `--time-scale-us` sets the
//! wall-clock length of one WCET unit (default 100 µs), and
//! `--timeout-ms` bounds each task's wall-clock run via the pool
//! watchdog (default 10 000 ms) — a workload that deadlocks is reported
//! as a stall with its partial trace instead of hanging the tool. An
//! `--m` past `MAX_PARTITIONED_THREADS` (4096) is refused under
//! `--policy partitioned` or `--engine exec`, before any thread starts.
//!
//! `validate` parses a Chrome trace-event JSON exported by this tool and
//! checks the schema invariants ([`Trace::validate`]): exit code 0 when
//! clean, 1 when defects are found, 2 on parse/IO errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use rtpool_bench::cli::{self, map_task, number, pool_size, traced_simulation, value, PoolUse};
use rtpool_core::{TaskId, TaskSet};
use rtpool_exec::{Engine as PoolEngine, ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_sim::SchedulingPolicy;
use rtpool_trace::{from_chrome_json, to_chrome_json, to_csv, Trace, TraceAnalysis};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Sim,
    Exec,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Global,
    Partitioned,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PoolChoice {
    One(PoolEngine),
    Both,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Summary,
    Ascii,
    Chrome,
    Csv,
}

struct RunArgs {
    workload: PathBuf,
    engine: Engine,
    policy: Policy,
    pool: PoolChoice,
    m: usize,
    horizon: Option<u64>,
    format: Format,
    out: Option<PathBuf>,
    time_scale: Duration,
    timeout: Duration,
}

fn usage() -> &'static str {
    "usage: rtpool-trace run <workload.rtp> [--engine sim|exec] \
     [--policy global|partitioned] [--pool v1|v2|both] [--m N] [--horizon H] \
     [--format summary|ascii|chrome|csv] [--out PATH] [--time-scale-us U] \
     [--timeout-ms T]\n\
     \x20      rtpool-trace validate <trace.json>"
}

fn parse_run_args(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let workload = it.next().ok_or("missing workload path")?;
    let mut args = RunArgs {
        workload: PathBuf::from(workload),
        engine: Engine::Sim,
        policy: Policy::Global,
        pool: PoolChoice::One(PoolEngine::default()),
        m: 4,
        horizon: None,
        format: Format::Summary,
        out: None,
        time_scale: Duration::from_micros(100),
        timeout: Duration::from_secs(10),
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--engine" => {
                args.engine = match value(&mut it, "--engine")?.as_str() {
                    "sim" => Engine::Sim,
                    "exec" => Engine::Exec,
                    other => return Err(format!("unknown engine `{other}`")),
                };
            }
            "--policy" => {
                args.policy = match value(&mut it, "--policy")?.as_str() {
                    "global" => Policy::Global,
                    "partitioned" => Policy::Partitioned,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--pool" => {
                args.pool = match value(&mut it, "--pool")?.as_str() {
                    "v1" => PoolChoice::One(PoolEngine::V1Condvar),
                    "v2" => PoolChoice::One(PoolEngine::V2LockFree),
                    "both" => PoolChoice::Both,
                    other => return Err(format!("unknown pool engine `{other}` (v1|v2|both)")),
                };
            }
            "--m" => args.m = number(&mut it, "--m")?,
            "--horizon" => args.horizon = Some(number(&mut it, "--horizon")?),
            "--format" => {
                args.format = match value(&mut it, "--format")?.as_str() {
                    "summary" => Format::Summary,
                    "ascii" => Format::Ascii,
                    "chrome" => Format::Chrome,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out")?)),
            "--time-scale-us" => {
                args.time_scale = Duration::from_micros(number(&mut it, "--time-scale-us")?);
            }
            "--timeout-ms" => {
                args.timeout = Duration::from_millis(number(&mut it, "--timeout-ms")?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let pool = match (args.engine, args.policy) {
        (Engine::Exec, _) => PoolUse::Started,
        (Engine::Sim, Policy::Partitioned) => PoolUse::Partitioned,
        (Engine::Sim, Policy::Global) => PoolUse::Modelled,
    };
    pool_size("--m", args.m, pool)?;
    if args.pool == PoolChoice::Both && args.engine != Engine::Exec {
        return Err("--pool both requires --engine exec".into());
    }
    if args.timeout.is_zero() {
        return Err("--timeout-ms must be positive".into());
    }
    Ok(args)
}

fn render(trace: &Trace, format: Format) -> String {
    match format {
        Format::Summary => {
            let defects = trace.validate();
            let mut out = TraceAnalysis::new(trace).summary();
            if defects.is_empty() {
                out.push_str(&format!("events: {} (schema valid)\n", trace.events.len()));
            } else {
                out.push_str(&format!("schema defects: {defects:?}\n"));
            }
            out
        }
        Format::Ascii => rtpool_trace::gantt::render(trace, 120),
        Format::Chrome => to_chrome_json(trace),
        Format::Csv => to_csv(trace),
    }
}

fn emit(rendered: &str, out: Option<&PathBuf>) -> Result<(), String> {
    match out {
        None => {
            print!("{rendered}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
    }
}

fn run_sim(args: &RunArgs, set: &TaskSet) -> Result<(), String> {
    let policy = match args.policy {
        Policy::Global => SchedulingPolicy::Global,
        Policy::Partitioned => SchedulingPolicy::Partitioned,
    };
    let (trace, outcome) = traced_simulation(set, policy, args.m, args.horizon)?;
    if outcome.any_stall() {
        eprintln!("note: the simulation stalled (deadlock); the trace covers the stalled prefix");
    }
    let mut rendered = render(&trace, args.format);
    if args.format == Format::Summary {
        // A trace records no deadlines; the simulator counts the misses.
        let misses: Vec<String> = outcome
            .tasks()
            .iter()
            .map(|t| t.deadline_misses.to_string())
            .collect();
        rendered.push_str(&format!("deadline_misses: [{}]\n", misses.join(", ")));
    }
    emit(&rendered, args.out.as_ref())
}

/// Suffixes `--out` per task (`trace.json` → `trace.task1.json`) so an
/// exec run of an n-task workload yields n files.
fn task_out(out: Option<&PathBuf>, task: usize, tasks: usize) -> Option<PathBuf> {
    let out = out?;
    if tasks == 1 {
        return Some(out.clone());
    }
    let ext = out.extension().map(|e| e.to_string_lossy().into_owned());
    let stem = out.with_extension("");
    let mut name = format!("{}.task{task}", stem.display());
    if let Some(ext) = ext {
        name.push('.');
        name.push_str(&ext);
    }
    Some(PathBuf::from(name))
}

/// Runs task `i` of the set once on `engine`, returning its trace
/// (re-indexed to position `i`). The pool waits on barriers with the
/// workload's own sync backend (the `.rtp` `backend` directive), so a
/// spin workload exports `SpinStart`/`SpinEnd` windows.
fn run_task_trace(
    args: &RunArgs,
    i: usize,
    task: &rtpool_core::Task,
    backend: rtpool_core::SyncBackend,
    engine: PoolEngine,
) -> Result<Trace, String> {
    let discipline = match args.policy {
        Policy::Global => QueueDiscipline::GlobalFifo,
        Policy::Partitioned => QueueDiscipline::Partitioned(map_task(TaskId(i), task, args.m)?),
    };
    let config = PoolConfig::new(args.m, discipline)
        .with_engine(engine)
        .with_backend(backend)
        .with_time_scale(args.time_scale)
        .with_watchdog(args.timeout)
        .with_trace();
    let mut pool = ThreadPool::try_new(config).map_err(|e| e.to_string())?;
    let trace = match pool.run(task.dag()) {
        Ok(report) => report.trace.expect("tracing was enabled"),
        Err(e @ (ExecError::Stalled { .. } | ExecError::NodePanicked { .. })) => {
            eprintln!("note: task {i} failed ({e}); exporting the failed attempt's trace");
            pool.take_last_trace().expect("tracing was enabled")
        }
        Err(e) => return Err(format!("task {i}: {e}")),
    };
    Ok(trace.with_task_index(u32::try_from(i).unwrap_or(u32::MAX)))
}

/// `--pool both`: runs every task under both dispatch engines and
/// prints a per-task table comparing their NodeStart→NodeEnd latency
/// percentiles (each task's [`TraceAnalysis`] `node_latency`).
fn compare_engines(args: &RunArgs, set: &TaskSet) -> Result<(), String> {
    use std::fmt::Write as _;
    if args.format != Format::Summary {
        return Err("--pool both produces the comparison table; use --format summary".into());
    }
    let mut out = String::new();
    for (id, task) in set.iter() {
        let i = id.index();
        let _ = writeln!(out, "task {i}: NodeStart→NodeEnd latency (ns) by engine");
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "engine", "count", "p50", "p90", "p99", "max"
        );
        for (engine, label) in [
            (PoolEngine::V1Condvar, "v1_condvar"),
            (PoolEngine::V2LockFree, "v2_lockfree"),
        ] {
            let trace = run_task_trace(args, i, task, set.backend(), engine)?;
            let analysis = TraceAnalysis::new(&trace);
            let lat = &analysis.task(i).node_latency;
            let q = |p| lat.quantile_upper(p).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10}",
                label,
                lat.count(),
                q(0.50),
                q(0.90),
                q(0.99),
                lat.max().unwrap_or(0)
            );
        }
    }
    emit(&out, args.out.as_ref())
}

fn run_exec(args: &RunArgs, set: &TaskSet) -> Result<(), String> {
    if args.horizon.is_some() {
        return Err("--horizon applies to the simulator only".into());
    }
    let engine = match args.pool {
        PoolChoice::Both => return compare_engines(args, set),
        PoolChoice::One(engine) => engine,
    };
    let tasks = set.iter().count();
    for (id, task) in set.iter() {
        let i = id.index();
        let trace = run_task_trace(args, i, task, set.backend(), engine)?;
        if args.format == Format::Summary && args.out.is_none() && tasks > 1 {
            println!("--- task {i} ---");
        }
        emit(
            &render(&trace, args.format),
            task_out(args.out.as_ref(), i, tasks).as_ref(),
        )?;
    }
    Ok(())
}

fn validate(path: &Path) -> ExitCode {
    let text = match cli::read_source(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match from_chrome_json(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let defects = trace.validate();
    if defects.is_empty() {
        println!(
            "{}: valid {} trace ({} events, {} cores, {} tasks, end_time {})",
            path.display(),
            trace.engine.as_str(),
            trace.events.len(),
            trace.cores,
            trace.tasks,
            trace.end_time
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {} schema defect(s):", path.display(), defects.len());
        for d in &defects {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut it = std::env::args();
    let _argv0 = it.next();
    let command = it.next();
    match command.as_deref() {
        Some("run") => {
            let args = match parse_run_args(it) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}\n{}", usage());
                    return ExitCode::from(2);
                }
            };
            let set = match cli::load_set(&args.workload) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let result = match args.engine {
                Engine::Sim => run_sim(&args, &set),
                Engine::Exec => run_exec(&args, &set),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("validate") => match it.next() {
            Some(path) => validate(Path::new(&path)),
            None => {
                eprintln!("error: missing trace path\n{}", usage());
                ExitCode::from(2)
            }
        },
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(args: &[&str]) -> Result<usize, String> {
        let args = [&["w.rtp"][..], args].concat();
        parse_run_args(args.into_iter().map(str::to_owned)).map(|a| a.m)
    }

    #[test]
    fn only_a_modelled_pool_may_pass_the_thread_bound() {
        let past = "4097";
        assert_eq!(pool(&["--m", past]), Ok(4097));
        let refusal = Err("--m = 4097 is past MAX_PARTITIONED_THREADS = 4096".to_owned());
        assert_eq!(pool(&["--m", past, "--policy", "partitioned"]), refusal);
        assert_eq!(pool(&["--engine", "exec", "--m", past]), refusal);
        assert_eq!(pool(&["--engine", "exec", "--m", "4096"]), Ok(4096));
        assert_eq!(pool(&["--m", "0"]), Err("--m must be positive".to_owned()));
    }
}
