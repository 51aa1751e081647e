//! `rtpool-loadgen`: drives a spawned `rtpool-serve` child process at a
//! configurable overload factor and checks the resilience invariants
//! from the outside.
//!
//! ```text
//! rtpool-loadgen [--serve-bin PATH] [--workers N] [--duration-secs S]
//!                [--overload F] [--seed S] [--max-rss-mb MB]
//!                [--calibrate N] [--out PATH]
//! ```
//!
//! Two phases, each against a fresh child:
//!
//! 1. **Calibration** — `--calibrate` requests (default 200) as fast as
//!    possible against a permissive SLO, measuring the sustained
//!    verdict rate and the p99 latency.
//! 2. **Soak** — `--duration-secs` (default 30) at `--overload` (default
//!    2.0) times the calibrated rate, with the child's SLO pinned to the
//!    calibrated p99 so the breaker has a realistic trip point.
//!
//! Asserted invariants, each fatal (non-zero exit) when violated:
//!
//! * **zero lost requests** — every submitted line is answered;
//! * **bounded memory** — the child's peak RSS (sampled from
//!   `/proc/<pid>/status`) stays under `--max-rss-mb` (default 512);
//! * **clean shutdown** — closing stdin drains the backlog and the
//!   child exits with status 0.
//!
//! `--out PATH` writes the soak latency histogram and verdict counts as
//! a JSON artifact (the CI `serve-soak` job uploads it).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtpool_bench::cli::{number, thread_count, value};
use rtpool_bench::serve::loadgen::{gen_request_lines, LoadConfig};
use rtpool_bench::serve::protocol::{parse_response, Response, VerdictKind};
use rtpool_trace::LatencyHistogram;

#[derive(Debug)]
struct Args {
    serve_bin: String,
    workers: usize,
    duration: Duration,
    overload: f64,
    seed: u64,
    max_rss_mb: u64,
    calibrate: usize,
    out: Option<String>,
}

fn usage() -> &'static str {
    "usage: rtpool-loadgen [--serve-bin PATH] [--workers N] [--duration-secs S] \
     [--overload F] [--seed S] [--max-rss-mb MB] [--calibrate N] [--out PATH]"
}

fn default_serve_bin() -> String {
    // Sibling binary in the same target directory as this one.
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("rtpool-serve")))
        .map_or_else(|| "rtpool-serve".to_string(), |p| p.display().to_string())
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        serve_bin: default_serve_bin(),
        workers: 0,
        duration: Duration::from_secs(30),
        overload: 2.0,
        seed: 0x10ad,
        max_rss_mb: 512,
        calibrate: 200,
        out: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--serve-bin" => args.serve_bin = value(&mut it, "--serve-bin")?,
            // 0 leaves the child's default, one worker per core.
            "--workers" => args.workers = thread_count(&mut it, "--workers")?,
            "--duration-secs" => {
                args.duration = Duration::from_secs(number(&mut it, "--duration-secs")?);
            }
            "--overload" => args.overload = number(&mut it, "--overload")?,
            "--seed" => args.seed = number(&mut it, "--seed")?,
            "--max-rss-mb" => args.max_rss_mb = number(&mut it, "--max-rss-mb")?,
            "--calibrate" => args.calibrate = number(&mut it, "--calibrate")?,
            "--out" => args.out = Some(value(&mut it, "--out")?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // An infinite rate sizes the soak at `usize::MAX` requests, and NaN
    // passes every comparison below as a 64-request soak at 1 request/s.
    if !args.overload.is_finite() {
        return Err(format!("--overload must be finite, not {}", args.overload));
    }
    if args.overload <= 0.0 {
        return Err("--overload must be positive".into());
    }
    Ok(args)
}

/// Peak RSS of `pid` in kB, from `/proc/<pid>/status` (`VmHWM`, falling
/// back to `VmRSS`). `None` off Linux or if the process is gone.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |name: &str| {
        status.lines().find_map(|l| {
            l.strip_prefix(name)?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
    };
    field("VmHWM:").or_else(|| field("VmRSS:"))
}

/// Tally of one phase against the child.
struct PhaseOutcome {
    sent: u64,
    answered: u64,
    admitted: u64,
    rejected: u64,
    busy: u64,
    shed: u64,
    errors: u64,
    degraded: u64,
    latency: LatencyHistogram,
    elapsed: Duration,
    peak_rss_kb: u64,
    exit_ok: bool,
}

impl PhaseOutcome {
    fn lost(&self) -> u64 {
        self.sent - self.answered
    }

    fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        (self.shed + self.busy) as f64 / self.sent as f64
    }
}

fn spawn_server(args: &Args, slo_p99_us: Option<u64>) -> Result<Child, String> {
    let mut cmd = Command::new(&args.serve_bin);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.workers > 0 {
        cmd.arg("--workers").arg(args.workers.to_string());
    }
    if let Some(slo) = slo_p99_us {
        cmd.arg("--slo-p99-us").arg(slo.to_string());
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", args.serve_bin))
}

/// Streams `lines` into the child at `pace` (None = as fast as
/// possible), reads responses concurrently, then closes stdin and waits
/// for a clean exit. RSS is sampled from /proc once per second.
fn run_phase(
    args: &Args,
    lines: &[String],
    pace: Option<Duration>,
    slo_p99_us: Option<u64>,
) -> Result<PhaseOutcome, String> {
    let mut child = spawn_server(args, slo_p99_us)?;
    let pid = child.id();
    let mut stdin = child.stdin.take().expect("child stdin piped");
    let stdout = child.stdout.take().expect("child stdout piped");

    let (tx, rx) = mpsc::channel::<Response>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match parse_response(&line) {
                Ok(resp) => {
                    if tx.send(resp).is_err() {
                        break;
                    }
                }
                Err(e) => eprintln!("loadgen: unparseable response line: {e}"),
            }
        }
    });

    let start = Instant::now();
    let mut outcome = PhaseOutcome {
        sent: 0,
        answered: 0,
        admitted: 0,
        rejected: 0,
        busy: 0,
        shed: 0,
        errors: 0,
        degraded: 0,
        latency: LatencyHistogram::new(),
        elapsed: Duration::ZERO,
        peak_rss_kb: 0,
        exit_ok: false,
    };
    let absorb = |outcome: &mut PhaseOutcome, resp: &Response| {
        outcome.answered += 1;
        match resp.verdict {
            VerdictKind::Admit => outcome.admitted += 1,
            VerdictKind::Reject => outcome.rejected += 1,
            VerdictKind::Busy => outcome.busy += 1,
            VerdictKind::Shed => outcome.shed += 1,
            VerdictKind::Error => outcome.errors += 1,
        }
        if resp.degraded {
            outcome.degraded += 1;
        }
        outcome.latency.observe(resp.latency_us);
    };

    let mut last_rss = Instant::now() - Duration::from_secs(2);
    let mut write_failed = false;
    for line in lines {
        if stdin.write_all(line.as_bytes()).is_err() || stdin.write_all(b"\n").is_err() {
            write_failed = true;
            break;
        }
        outcome.sent += 1;
        while let Ok(resp) = rx.try_recv() {
            absorb(&mut outcome, &resp);
        }
        if last_rss.elapsed() >= Duration::from_secs(1) {
            last_rss = Instant::now();
            outcome.peak_rss_kb = outcome.peak_rss_kb.max(peak_rss_kb(pid).unwrap_or(0));
        }
        if let Some(p) = pace {
            std::thread::sleep(p);
        }
    }
    let _ = stdin.flush();
    drop(stdin); // EOF: the server drains and shuts down.

    // Drain the remaining responses; the reader thread ends when the
    // child closes stdout on exit.
    while outcome.answered < outcome.sent {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(resp) => absorb(&mut outcome, &resp),
            Err(_) => break,
        }
    }
    outcome.elapsed = start.elapsed();
    outcome.peak_rss_kb = outcome.peak_rss_kb.max(peak_rss_kb(pid).unwrap_or(0));
    reader.join().expect("reader thread healthy");
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    outcome.exit_ok = status.success() && !write_failed;
    Ok(outcome)
}

fn artifact_json(soak: &PhaseOutcome, args: &Args, rate: f64) -> String {
    format!(
        "{{\n  \"benchmark\": \"rtpool-serve soak\",\n  \"duration_secs\": {:.1},\n  \
         \"overload\": {},\n  \"target_rate_per_sec\": {rate:.1},\n  \"sent\": {},\n  \
         \"answered\": {},\n  \"lost\": {},\n  \"admitted\": {},\n  \"rejected\": {},\n  \
         \"busy\": {},\n  \"shed\": {},\n  \"errors\": {},\n  \"degraded\": {},\n  \
         \"shed_rate\": {:.4},\n  \"peak_rss_kb\": {},\n  \"clean_exit\": {},\n  \
         \"latency_us\": {}\n}}\n",
        soak.elapsed.as_secs_f64(),
        args.overload,
        soak.sent,
        soak.answered,
        soak.lost(),
        soak.admitted,
        soak.rejected,
        soak.busy,
        soak.shed,
        soak.errors,
        soak.degraded,
        soak.shed_rate(),
        soak.peak_rss_kb,
        soak.exit_ok,
        soak.latency.to_json(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Phase 1: calibration — unpaced, permissive SLO (no shedding).
    eprintln!(
        "loadgen: calibrating with {} requests against {}",
        args.calibrate, args.serve_bin
    );
    let cal_lines = gen_request_lines(&LoadConfig {
        requests: args.calibrate.max(16),
        seed: args.seed,
        ..LoadConfig::default()
    });
    let cal = match run_phase(&args, &cal_lines, None, Some(10_000_000)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: calibration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !cal.exit_ok || cal.lost() > 0 {
        eprintln!(
            "error: calibration run unhealthy (lost {}, clean exit {})",
            cal.lost(),
            cal.exit_ok
        );
        return ExitCode::FAILURE;
    }
    let sustained = cal.answered as f64 / cal.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let cal_p99 = cal.latency.quantile_upper(0.99).unwrap_or(1000).max(100);
    eprintln!(
        "loadgen: calibrated {sustained:.1} verdicts/s, p99 {cal_p99} µs; \
         soaking {}s at {:.1}x",
        args.duration.as_secs(),
        args.overload
    );

    // Phase 2: soak at overload × sustained, SLO pinned to calibrated
    // p99 so the breaker trips under genuine overload.
    let target_rate = sustained * args.overload;
    let pace = Duration::from_secs_f64(1.0 / target_rate.max(1.0));
    let soak_requests = (target_rate * args.duration.as_secs_f64()).ceil() as usize;
    let soak_lines = gen_request_lines(&LoadConfig {
        requests: soak_requests.max(64),
        seed: args.seed ^ 0x5eed,
        ..LoadConfig::default()
    });
    let soak = match run_phase(&args, &soak_lines, Some(pace), Some(cal_p99)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: soak failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let artifact = artifact_json(&soak, &args, target_rate);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &artifact) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen: wrote {path}");
    }
    print!("{artifact}");

    let mut failed = false;
    if soak.lost() > 0 {
        eprintln!("FAIL: {} request(s) lost (no response)", soak.lost());
        failed = true;
    }
    if !soak.exit_ok {
        eprintln!("FAIL: server did not shut down cleanly");
        failed = true;
    }
    let rss_mb = soak.peak_rss_kb / 1024;
    if rss_mb > args.max_rss_mb {
        eprintln!(
            "FAIL: peak RSS {rss_mb} MB exceeds bound {} MB",
            args.max_rss_mb
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: OK — 0 lost, peak RSS {rss_mb} MB, clean exit, \
         shed rate {:.1}%",
        soak.shed_rate() * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn the_overload_must_be_positive_and_finite() {
        assert_eq!(parse(&["--overload", "0.5"]).unwrap().overload, 0.5);
        for bad in ["inf", "NaN", "-inf"] {
            let err = parse(&["--overload", bad]).unwrap_err();
            assert!(err.starts_with("--overload must be finite"), "{bad}: {err}");
        }
        assert_eq!(
            parse(&["--overload", "0"]).unwrap_err(),
            "--overload must be positive"
        );
    }

    #[test]
    fn workers_are_bounded_like_the_servers() {
        assert_eq!(parse(&["--workers", "0"]).unwrap().workers, 0);
        let err = parse(&["--workers", "4097"]).unwrap_err();
        assert!(err.contains("past MAX_PARTITIONED_THREADS = 4096"), "{err}");
    }
}
