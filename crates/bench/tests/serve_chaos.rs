//! Chaos suite for the admission service: 70+ seeded [`ServiceFaultPlan`]s
//! (worker panics, slow requests, queue-full storms, interner poison,
//! and mixtures) driven through an in-process [`Server`], asserting the
//! service's core liveness contract under every plan:
//!
//! 1. **Exactly one verdict per request** — every submitted line is
//!    answered exactly once (busy/shed/parse errors at submit, the rest
//!    by the supervised analysis workers), no duplicates, no losses.
//! 2. **The breaker re-closes** once an overload storm ends and
//!    latencies fall back under the SLO.
//!
//! Fault decisions are pure in `(seed, rule, request, attempt)`, so
//! every scenario here replays identically across runs and machines.

use std::collections::HashMap;
use std::time::Duration;

use rtpool_bench::serve::protocol::{parse_request, RequestBody};
use rtpool_bench::serve::{BreakerConfig, ServeConfig, ServeReport, Server, ServiceFaultPlan};
use rtpool_exec::RecoveryPolicy;

mod common;
use common::gen_request_lines;

/// Tight retry backoff so panic-heavy scenarios stay fast.
fn fast_retry() -> RecoveryPolicy {
    RecoveryPolicy::RetryWithBackoff {
        max_retries: 2,
        base_delay: Duration::from_millis(1),
    }
}

/// A small deterministic workload; ids are `0..n`.
fn workload(seed: u64, n: usize) -> Vec<String> {
    gen_request_lines(n, seed)
}

#[test]
fn workloads_are_deterministic_and_mixed() {
    let a = workload(0x10ad, 24);
    assert_eq!(a, workload(0x10ad, 24));
    assert_eq!(a.len(), 24);
    // Repeats mean strictly fewer distinct sources than requests (the
    // full lines always differ: ids are unique). Ids are the stream
    // indices and priorities cycle through all eight.
    let mut sources = std::collections::HashSet::new();
    for (i, line) in a.iter().enumerate() {
        let req = parse_request(line).expect("valid line");
        assert_eq!((req.id, req.priority), (i as u64, (i % 8) as u8));
        let RequestBody::Source(source) = req.body else {
            unreachable!("the generator sends sources")
        };
        sources.insert(source);
    }
    assert!(sources.len() < a.len());
}

/// Drives `lines` through a fresh 2-worker server under `config` and
/// returns the final report plus a per-id response count.
fn run_scenario(
    config: ServeConfig,
    lines: &[String],
    pace: Option<Duration>,
) -> (ServeReport, HashMap<u64, usize>) {
    let (server, rx) = Server::start(config, 2);
    let mut counts: HashMap<u64, usize> = HashMap::new();
    let mut answered = 0usize;
    for line in lines {
        server.submit(line);
        while let Ok(resp) = rx.try_recv() {
            *counts.entry(resp.id).or_default() += 1;
            answered += 1;
        }
        if let Some(p) = pace {
            std::thread::sleep(p);
        }
    }
    while answered < lines.len() {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(resp) => {
                *counts.entry(resp.id).or_default() += 1;
                answered += 1;
            }
            Err(_) => break,
        }
    }
    let report = server.shutdown();
    // Shutdown drains the backlog; collect anything that raced the
    // final recv loop.
    while let Ok(resp) = rx.try_recv() {
        *counts.entry(resp.id).or_default() += 1;
    }
    (report, counts)
}

/// Every id `0..n` answered exactly once — the chaos contract.
fn assert_exactly_one_verdict(scenario: &str, n: usize, counts: &HashMap<u64, usize>) {
    for id in 0..n as u64 {
        assert_eq!(
            counts.get(&id),
            Some(&1),
            "{scenario}: request {id} answered {:?} times (want exactly 1)",
            counts.get(&id).copied().unwrap_or(0)
        );
    }
    assert_eq!(
        counts.len(),
        n,
        "{scenario}: spurious response ids {:?}",
        counts
            .keys()
            .filter(|id| **id >= n as u64)
            .collect::<Vec<_>>()
    );
}

#[test]
fn worker_panic_storms_answer_every_request() {
    let mut total_panics = 0;
    for seed in 0..20u64 {
        let lines = workload(seed, 24);
        let config = ServeConfig {
            recovery: fast_retry(),
            faults: ServiceFaultPlan::seeded(seed).panic_prob(0.25),
            ..ServeConfig::default()
        };
        let (report, counts) = run_scenario(config, &lines, None);
        assert_exactly_one_verdict(&format!("panic seed {seed}"), lines.len(), &counts);
        total_panics += report.panics;
    }
    // Probability of zero firings across 20 seeds x 24 requests at
    // p=0.25 is astronomically small; the plans really inject.
    assert!(total_panics > 0, "panic plans never fired");
}

#[test]
fn slow_requests_answer_every_request() {
    let mut slowed_any = false;
    for seed in 100..120u64 {
        let lines = workload(seed, 24);
        let config = ServeConfig {
            recovery: fast_retry(),
            faults: ServiceFaultPlan::seeded(seed).slow_prob(0.3, Duration::from_millis(2)),
            ..ServeConfig::default()
        };
        let (report, counts) = run_scenario(config, &lines, None);
        assert_exactly_one_verdict(&format!("slow seed {seed}"), lines.len(), &counts);
        // Slowed requests show up as latency, never as losses.
        slowed_any |= report.latency.max().is_some_and(|v| v >= 2_000);
    }
    assert!(slowed_any, "slow plans never added visible latency");
}

#[test]
fn queue_full_storms_refuse_with_busy_not_silence() {
    let mut total_busy = 0;
    for seed in 200..220u64 {
        let lines = workload(seed, 24);
        let config = ServeConfig {
            queue_cap: 2,
            recovery: fast_retry(),
            faults: ServiceFaultPlan::seeded(seed).slow_storm(0, 24, Duration::from_millis(3)),
            ..ServeConfig::default()
        };
        let (report, counts) = run_scenario(config, &lines, None);
        assert_exactly_one_verdict(&format!("queue storm seed {seed}"), lines.len(), &counts);
        total_busy += report.busy;
        assert_eq!(
            report.accepted + report.busy + report.shed,
            lines.len() as u64,
            "queue storm seed {seed}: ingress accounting leak"
        );
    }
    assert!(
        total_busy > 0,
        "a 2-slot queue under an unpaced slow storm never overflowed"
    );
}

#[test]
fn mixed_fault_plans_answer_every_request() {
    for seed in 300..311u64 {
        let lines = workload(seed, 20);
        let config = ServeConfig {
            recovery: fast_retry(),
            faults: ServiceFaultPlan::seeded(seed)
                .panic_prob(0.15)
                .slow_prob(0.15, Duration::from_millis(1))
                .poison_prob(0.1),
            ..ServeConfig::default()
        };
        let (_, counts) = run_scenario(config, &lines, None);
        assert_exactly_one_verdict(&format!("mixed seed {seed}"), lines.len(), &counts);
    }
}

#[test]
fn breaker_reopens_then_recloses_after_the_storm_ends() {
    // Storm: the first 12 accepted requests are slowed far past the
    // 20 ms SLO, tripping the breaker. The storm is drained completely
    // before the calm phase starts, so calm requests do not inherit
    // queue wait behind stormed ones; their windows fall back under
    // the SLO and the breaker must re-close by shutdown. (Shed
    // responses do not feed the breaker window, so the calm phase is
    // sized for several full windows of served high-priority requests.)
    let lines = workload(0xb4ea, 60);
    let storm_len = 12;
    let config = ServeConfig {
        breaker: BreakerConfig {
            slo_p99_us: 20_000,
            window: 8,
            shed_below_priority: 4,
        },
        recovery: fast_retry(),
        faults: ServiceFaultPlan::seeded(7).slow_storm(
            0,
            storm_len as u64,
            Duration::from_millis(100),
        ),
        ..ServeConfig::default()
    };
    let (server, rx) = Server::start(config, 2);
    let mut counts: HashMap<u64, usize> = HashMap::new();
    let mut answered = 0usize;
    let mut drain_until = |target: usize, counts: &mut HashMap<u64, usize>| {
        while answered < target {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(resp) => {
                    *counts.entry(resp.id).or_default() += 1;
                    answered += 1;
                }
                Err(_) => break,
            }
        }
    };
    for line in &lines[..storm_len] {
        server.submit(line);
    }
    drain_until(storm_len, &mut counts);
    for line in &lines[storm_len..] {
        server.submit(line);
        std::thread::sleep(Duration::from_millis(1));
    }
    drain_until(lines.len(), &mut counts);
    let report = server.shutdown();
    while let Ok(resp) = rx.try_recv() {
        *counts.entry(resp.id).or_default() += 1;
    }
    assert_exactly_one_verdict("breaker storm", lines.len(), &counts);
    assert!(
        report.breaker.opens >= 1,
        "a 100 ms slow storm against a 20 ms SLO never opened the breaker"
    );
    assert!(
        !report.breaker.open,
        "breaker still open after the storm ended and fast windows completed \
         ({:?})",
        report.breaker
    );
    assert_eq!(report.breaker.opens, report.breaker.closes);
}
