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
//!    calibrated p99 so the breaker has a realistic trip point. Write `k`
//!    is due `k` paces after the phase starts: a sleep that overshoots
//!    delays that write only, and a phase that has fallen behind writes
//!    without sleeping until it is due again. The soak cycles through
//!    [`SOAK_CORPUS`] generated requests under fresh ids, so its memory
//!    does not grow with its length, and refuses a length past
//!    [`MAX_SOAK_REQUESTS`].
//!
//! Asserted invariants, each fatal (non-zero exit) when violated:
//!
//! * **zero lost requests** — every submitted line is answered;
//! * **bounded memory** — the child's peak RSS (sampled from
//!   `/proc/<pid>/status`) stays under `--max-rss-mb` (default 512);
//! * **clean shutdown** — closing stdin drains the backlog and the
//!   child exits with status 0.
//!
//! `--out PATH` writes the soak latency histogram, verdict counts, the
//! rate achieved while writing and the latest any write ran behind its
//! schedule as a JSON artifact (the CI `serve-soak` job uploads it).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtpool_bench::cli::{number, thread_count, value};
use rtpool_bench::serve::loadgen::{gen_request_lines, LoadConfig};
use rtpool_bench::serve::protocol::{parse_response, Response, VerdictKind};
use rtpool_trace::LatencyHistogram;

/// Distinct requests a soak generates before it cycles through them
/// again under new ids. A generated request line is about 11 KB, so the
/// corpus holds ~45 MB however long the soak runs; 4 096 sets are 16
/// times what the child's interner keeps, so a cycled set is no longer
/// resident when it comes round again.
const SOAK_CORPUS: usize = 4096;

/// The longest soak, in requests: about an hour at the ~30 000 requests/s
/// the service sustains on two cores. A rate × duration past it is
/// refused before the soak starts instead of writing until killed.
const MAX_SOAK_REQUESTS: u64 = 100_000_000;

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
    if args.calibrate as u64 > MAX_SOAK_REQUESTS {
        return Err(format!(
            "--calibrate {} is past MAX_SOAK_REQUESTS = {MAX_SOAK_REQUESTS}",
            args.calibrate
        ));
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
    /// From the first write to the last one.
    writing: Duration,
    /// How far the most delayed write ran behind its due time.
    max_lateness: Duration,
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

    fn achieved_rate(&self) -> f64 {
        self.sent as f64 / self.writing.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Requests in a soak of `duration` at `rate` requests/s: at least 64,
/// and refused past [`MAX_SOAK_REQUESTS`].
fn soak_requests(rate: f64, duration: Duration) -> Result<u64, String> {
    let requests = (rate * duration.as_secs_f64()).ceil();
    // NaN is refused too, so the cast below never saturates.
    if requests.is_nan() || requests > MAX_SOAK_REQUESTS as f64 {
        return Err(format!(
            "a soak of {requests} requests ({rate:.1}/s for {} s) is past \
             MAX_SOAK_REQUESTS = {MAX_SOAK_REQUESTS}",
            duration.as_secs()
        ));
    }
    Ok((requests as u64).max(64))
}

/// How long write `k` of a phase paced at `pace` waits when `elapsed`
/// has passed since the phase began, and how late it is: write `k` is due
/// at `k · pace`, whatever happened to the writes before it. At most one
/// of the two is non-zero.
fn schedule(k: u64, pace: Duration, elapsed: Duration) -> (Duration, Duration) {
    let nanos = pace.as_nanos().saturating_mul(u128::from(k));
    let due = Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX));
    (due.saturating_sub(elapsed), elapsed.saturating_sub(due))
}

/// The request lines of `corpus` without their `{"id":N` head, so that
/// [`request_line`] can send each again under another id.
fn bodies(corpus: Vec<String>) -> Vec<String> {
    corpus
        .into_iter()
        .map(|line| {
            let at = line.find(',').expect("an encoded request has an id field");
            line[at..].to_owned()
        })
        .collect()
}

/// Request `k` of a phase: body `k mod |bodies|` under id `k`, one line.
fn request_line(out: &mut String, k: u64, bodies: &[String]) {
    out.clear();
    let body = &bodies[(k % bodies.len() as u64) as usize];
    let _ = writeln!(out, "{{\"id\":{k}{body}");
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

/// Streams `requests` lines cycled from `bodies` into the child on the
/// schedule of `pace` (None = as fast as possible), reads responses
/// concurrently, then closes stdin and waits for a clean exit. RSS is
/// sampled from /proc once per second.
fn run_phase(
    args: &Args,
    bodies: &[String],
    requests: u64,
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
        writing: Duration::ZERO,
        max_lateness: Duration::ZERO,
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
    let mut line = String::new();
    for k in 0..requests {
        if let Some(pace) = pace {
            let (wait, _) = schedule(k, pace, start.elapsed());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let (_, late) = schedule(k, pace, start.elapsed());
            outcome.max_lateness = outcome.max_lateness.max(late);
        }
        request_line(&mut line, k, bodies);
        if stdin.write_all(line.as_bytes()).is_err() {
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
    }
    outcome.writing = start.elapsed();
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
         \"overload\": {},\n  \"target_rate_per_sec\": {rate:.1},\n  \
         \"achieved_rate_per_sec\": {:.1},\n  \"max_write_lateness_us\": {},\n  \"sent\": {},\n  \
         \"answered\": {},\n  \"lost\": {},\n  \"admitted\": {},\n  \"rejected\": {},\n  \
         \"busy\": {},\n  \"shed\": {},\n  \"errors\": {},\n  \"degraded\": {},\n  \
         \"shed_rate\": {:.4},\n  \"peak_rss_kb\": {},\n  \"clean_exit\": {},\n  \
         \"latency_us\": {}\n}}\n",
        soak.elapsed.as_secs_f64(),
        args.overload,
        soak.achieved_rate(),
        soak.max_lateness.as_micros(),
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
    let cal_requests = args.calibrate.max(16);
    let cal_lines = bodies(gen_request_lines(&LoadConfig {
        requests: cal_requests.min(SOAK_CORPUS),
        seed: args.seed,
        ..LoadConfig::default()
    }));
    let cal = match run_phase(
        &args,
        &cal_lines,
        cal_requests as u64,
        None,
        Some(10_000_000),
    ) {
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
    let requests = match soak_requests(target_rate, args.duration) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let soak_lines = bodies(gen_request_lines(&LoadConfig {
        requests: requests.min(SOAK_CORPUS as u64) as usize,
        seed: args.seed ^ 0x5eed,
        ..LoadConfig::default()
    }));
    let soak = match run_phase(&args, &soak_lines, requests, Some(pace), Some(cal_p99)) {
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
        let err = parse(&["--calibrate", "100000001"]).unwrap_err();
        assert!(err.ends_with("past MAX_SOAK_REQUESTS = 100000000"), "{err}");
    }

    #[test]
    fn a_write_is_due_k_paces_after_the_start() {
        let us = Duration::from_micros;
        let pace = us(50);
        // Ahead of the schedule: wait for the due time, not a whole pace.
        assert_eq!(schedule(3, pace, us(120)), (us(30), Duration::ZERO));
        assert_eq!(
            schedule(0, pace, Duration::ZERO),
            (Duration::ZERO, Duration::ZERO)
        );
        // Behind it: no wait, and the lateness is reported.
        assert_eq!(schedule(3, pace, us(190)), (Duration::ZERO, us(40)));
        // A late write moves no later due time: write 4 is still due at
        // 200 µs, so it waits 10 µs after write 3 ran 40 µs late.
        assert_eq!(schedule(4, pace, us(190)), (us(10), Duration::ZERO));
        // Far along the schedule the due time saturates, never wraps.
        let (wait, late) = schedule(u64::MAX, Duration::MAX, us(1));
        assert_eq!(
            (wait, late),
            (Duration::from_nanos(u64::MAX) - us(1), Duration::ZERO)
        );
    }

    #[test]
    fn a_soak_is_sized_within_its_bound() {
        let secs = Duration::from_secs;
        assert_eq!(soak_requests(31_265.4, secs(30)), Ok(937_962));
        assert_eq!(soak_requests(0.5, secs(4)), Ok(64));
        assert_eq!(
            soak_requests(MAX_SOAK_REQUESTS as f64, secs(1)),
            Ok(MAX_SOAK_REQUESTS)
        );
        for rate in [
            1e30,
            f64::INFINITY,
            f64::NAN,
            MAX_SOAK_REQUESTS as f64 + 1.0,
        ] {
            let err = soak_requests(rate, secs(1)).unwrap_err();
            assert!(
                err.ends_with("is past MAX_SOAK_REQUESTS = 100000000"),
                "{rate}: {err}"
            );
        }
    }

    #[test]
    fn a_cycled_request_keeps_its_body_under_a_new_id() {
        let lines = gen_request_lines(&LoadConfig {
            requests: 2,
            ..LoadConfig::default()
        });
        let bodies = bodies(lines.clone());
        let mut line = String::new();
        request_line(&mut line, 1, &bodies);
        assert_eq!(line, format!("{}\n", lines[1]));
        request_line(&mut line, 6, &bodies);
        assert_eq!(
            line,
            format!("{}\n", lines[0].replacen("\"id\":0", "\"id\":6", 1))
        );
    }

    #[test]
    fn workers_are_bounded_like_the_servers() {
        assert_eq!(parse(&["--workers", "0"]).unwrap().workers, 0);
        let err = parse(&["--workers", "4097"]).unwrap_err();
        assert!(err.contains("past MAX_PARTITIONED_THREADS = 4096"), "{err}");
    }
}
