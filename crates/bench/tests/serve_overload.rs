//! Overload recovery of the `rtpool-serve` binary, from the outside.
//!
//! One child, `rtpool-serve --workers 2 --queue-cap 4096 --slo-p99-us
//! 20000 --summary`, gets [`STORM`] of unpaced writes, then [`CALM`] at a
//! quarter of the storm's capacity C: its `admit` and `reject` answers
//! per second. Refusals do not count, since a `busy` costs next to
//! nothing: a rate over all answers reads 2–2.6 C, so "1×" of it would
//! itself be an overload. The queue is 4 096 deep so that a storm's wait is
//! far past the SLO and opens the breaker. The SLO is 20 ms because the
//! breaker's "p99" of 64 responses is their maximum (`breaker.rs`): it
//! must sit above the calm's slowest answer, or one preempted worker
//! re-opens the breaker.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtpool_bench::serve::protocol::{parse_response, Response, VerdictKind};
use rtpool_trace::json::{Reader, Value};

mod common;
use common::gen_request_lines;

const SERVE: &str = env!("CARGO_BIN_EXE_rtpool-serve");

/// The child's `--slo-p99-us`, and the bound on the final calm second's
/// p95 (68–92 µs measured in release, 0.82–1.1 ms in debug).
const SLO_US: u64 = 20_000;
/// The child's `--queue-cap`.
const QUEUE_CAP: usize = 4096;
const STORM: Duration = Duration::from_secs(3);
const CALM: Duration = Duration::from_secs(4);
/// How far into the calm a `busy` or `shed` may still be read, unless a
/// full queue takes longer to answer ([`recovery_bound`]).
const RECOVERY: Duration = Duration::from_secs(1);
/// The child's peak resident set (9–24 MB measured).
const MAX_HWM_KB: u64 = 512 * 1024;
/// How long the child may take to exit once its stdin closes.
const EXIT_WITHIN: Duration = Duration::from_secs(30);
/// Distinct request bodies, sent again in turn under new ids: four times
/// the child's 256-entry interner, so a body is no longer resident when
/// it comes round again.
const CORPUS: usize = 1024;

/// [`RECOVERY`], or the time a full queue takes to drain at the three
/// quarters of `capacity` the calm leaves free, whichever is longer. That
/// is [`RECOVERY`] from 5 462 answers/s up; a release build serves
/// 20 k–29 k/s, a debug build 1.5 k–2.8 k/s, where a 3 s storm can queue
/// more than a second's answers.
fn recovery_bound(capacity: f64) -> Duration {
    RECOVERY.max(Duration::from_secs_f64(
        QUEUE_CAP as f64 / (0.75 * capacity),
    ))
}

/// Writes request `id`, body `id mod |bodies|` under that id, in one
/// write.
fn send(stdin: &mut ChildStdin, id: u64, bodies: &[String]) {
    let body = &bodies[(id % bodies.len() as u64) as usize];
    let line = format!("{{\"id\":{id}{body}\n");
    stdin
        .write_all(line.as_bytes())
        .expect("rtpool-serve reads its stdin");
}

fn served(r: &Response) -> bool {
    matches!(r.verdict, VerdictKind::Admit | VerdictKind::Reject)
}

fn refused(r: &Response) -> bool {
    matches!(r.verdict, VerdictKind::Busy | VerdictKind::Shed)
}

/// `open`, `opens` and `closes` of the `--summary` JSON's breaker.
fn breaker_summary(stderr: &str) -> (Option<Value<'_>>, u64, u64) {
    let line = stderr.lines().rfind(|l| l.starts_with('{'));
    let report = Reader::new(line.expect("a --summary line")).value();
    let breaker = report.expect("the summary is JSON");
    let breaker = breaker.get("breaker").expect("a breaker object");
    let count = |key| breaker.get(key).and_then(Value::as_u64).expect(key);
    (
        breaker.get("open").cloned(),
        count("opens"),
        count("closes"),
    )
}

#[test]
fn the_service_recovers_once_a_storm_ends() {
    let bodies: Vec<String> = gen_request_lines(CORPUS, 0x10ad)
        .into_iter()
        .map(|line| line[line.find(',').expect("an id field")..].to_owned())
        .collect();
    let mut child = Command::new(SERVE)
        .args(["--workers", "2", "--summary"])
        .args(["--queue-cap", &QUEUE_CAP.to_string()])
        .args(["--slo-p99-us", &SLO_US.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rtpool-serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let served_count = Arc::new(AtomicU64::new(0));
    let reader = {
        let served_count = Arc::clone(&served_count);
        std::thread::spawn(move || {
            let mut answers = Vec::new();
            for line in BufReader::new(stdout).lines() {
                let answer = parse_response(&line.expect("a line")).expect("an answer");
                if served(&answer) {
                    served_count.fetch_add(1, Ordering::Relaxed);
                }
                answers.push((Instant::now(), answer));
            }
            answers
        })
    };

    let mut sent = 0u64;
    let storm = Instant::now();
    while storm.elapsed() < STORM {
        send(&mut stdin, sent, &bodies);
        sent += 1;
    }
    let capacity = served_count.load(Ordering::Relaxed) as f64 / storm.elapsed().as_secs_f64();
    assert!(capacity > 0.0, "nothing was served in the storm");
    let storm_sent = sent;

    // At C/4, write `k` of the calm due `k` paces after it starts.
    let pace = Duration::from_secs_f64(4.0 / capacity);
    let calm = Instant::now();
    let mut last_second = sent;
    for due in (0u32..).map(|k| pace * k).take_while(|&due| due < CALM) {
        if due < CALM - Duration::from_secs(1) {
            last_second = sent + 1;
        }
        std::thread::sleep(due.saturating_sub(calm.elapsed()));
        send(&mut stdin, sent, &bodies);
        sent += 1;
    }
    let proc_status = std::fs::read_to_string(format!("/proc/{}/status", child.id()));
    let hwm_kb: u64 = proc_status
        .expect("a live child")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix(" kB"))
        .and_then(|kb| kb.parse().ok())
        .expect("a VmHWM line");
    drop(stdin);

    let give_up = Instant::now() + EXIT_WITHIN;
    let status = loop {
        match child.try_wait().expect("child polled") {
            Some(status) => break status,
            None if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(20)),
            None => {
                let _ = child.kill();
                panic!("rtpool-serve did not exit");
            }
        }
    };
    let answers = reader.join().expect("answer reader");
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("stderr piped");
    pipe.read_to_string(&mut stderr).expect("stderr is UTF-8");
    let (open, opens, closes) = breaker_summary(&stderr);

    let refusals = answers.iter().filter(|(_, r)| refused(r));
    let storm_refusals = refusals.clone().filter(|(_, r)| r.id < storm_sent).count();
    let last_refusal = refusals
        .map(|(at, _)| at.saturating_duration_since(calm))
        .max()
        .unwrap_or_default();
    let mut tail: Vec<u64> = answers
        .iter()
        .filter(|(_, r)| r.id >= last_second && served(r))
        .map(|(_, r)| r.latency_us)
        .collect();
    assert!(!tail.is_empty(), "nothing served in the last calm second");
    tail.sort_unstable();
    let tail_p95 = tail[(tail.len() * 95).div_ceil(100) - 1];
    let recovery = recovery_bound(capacity);
    println!(
        "overload: C {capacity:.0} served/s, storm refusals {storm_refusals}, \
         last refusal {} ms into the calm (bound {} ms), final-second p95 \
         {tail_p95} us, VmHWM {} MB, breaker opens {opens} closes {closes}",
        last_refusal.as_millis(),
        recovery.as_millis(),
        hwm_kb / 1024,
    );

    let mut answered = vec![0u32; sent as usize];
    for (_, r) in &answers {
        answered[r.id as usize] += 1;
    }
    if let Some(id) = answered.iter().position(|&n| n != 1) {
        panic!("id {id} was answered {} times", answered[id]);
    }
    assert!(storm_refusals > 0, "the storm was never refused");
    assert!(opens >= 1, "the breaker never opened");
    assert!(
        last_refusal <= recovery,
        "refused {last_refusal:?} into the calm"
    );
    assert!(tail_p95 <= SLO_US, "final-second p95 {tail_p95} us");
    assert_eq!(
        (open, opens),
        (Some(Value::Bool(false)), closes),
        "breaker at exit"
    );
    assert!(status.success(), "{status}");
    assert!(hwm_kb <= MAX_HWM_KB, "VmHWM {hwm_kb} kB");
}
