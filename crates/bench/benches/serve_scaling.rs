//! Does the serve path get faster with a second worker?
//!
//! Two measurements on the shape of the registered benchmark's
//! `admit-cold` workload (1 024 distinct inline sources against an
//! interner of 256, so every request parses, evicts and climbs):
//!
//! * `Supervisor::execute` called from 1 and from 2 threads on **one
//!   shared interner** — the work itself, no queue and no server. The
//!   2-thread ÷ 1-thread throughput ratio is the number to watch: below
//!   1 the threads are serialising on something (on malloc, 0.7–0.85,
//!   when an evicted set is freed by a thread that did not build it —
//!   see `serve/interner.rs`);
//! * a closed loop of two requests in flight through a 2-worker
//!   [`Server`] — the same work behind the ingress queue.
//!
//! Freshly spawned threads can share one core for about their first
//! second on a small VM, which hides any scaling; every number here is
//! taken in a timed window after a warm-up on the same threads. The
//! bench fails when the ratio is below [`MIN_2_OVER_1`]; with a single
//! hardware thread the ratio says nothing and is only printed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rtpool_bench::serve::protocol::encode_request;
use rtpool_bench::serve::{Interner, Request, RequestBody, ServeConfig, Server, Supervisor};
use rtpool_core::textfmt::write_task_set;
use rtpool_core::CancelToken;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

const SOURCES: usize = 1024;
const INTERNER_CAP: usize = 256;
const M: usize = 8;
const WARM_UP: Duration = Duration::from_millis(1500);
const WINDOW: Duration = Duration::from_secs(3);
/// Two threads must do at least this much of one thread's work (1.7–2.3
/// measured on two cores).
const MIN_2_OVER_1: f64 = 1.4;

/// 1 024 distinct requests: 2, 4 and 8 tasks in rotation, utilization
/// drawn from the middle half of `M` cores.
fn requests() -> Vec<Request> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    (0..SOURCES)
        .map(|i| {
            let n = [2usize, 4, 8][i % 3];
            let u = rng.gen_range(0.25 * M as f64..0.75 * M as f64);
            let set = TaskSetConfig::new(n, u, DagGenConfig::default())
                .generate(&mut rng)
                .expect("generation succeeds");
            Request {
                id: i as u64,
                m: M,
                priority: 4,
                deadline_us: 0,
                body: RequestBody::Source(write_task_set(&set)),
            }
        })
        .collect()
}

fn supervisor() -> Supervisor {
    let config = ServeConfig::default();
    Supervisor::new(config.recovery, config.faults)
}

/// Calls per second of `threads` threads taking requests in turn and
/// executing them against one shared interner, in a [`WINDOW`] that
/// starts after [`WARM_UP`].
fn execute_ops_s(requests: &[Request], threads: usize) -> f64 {
    const WARMING: u8 = 0;
    const TIMED: u8 = 1;
    const DONE: u8 = 2;
    let interner = Interner::new(INTERNER_CAP);
    let supervisor = supervisor();
    let never = CancelToken::never();
    let next = AtomicUsize::new(0);
    let phase = AtomicU8::new(WARMING);
    let timed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let request = &requests[i % requests.len()];
                black_box(supervisor.execute(i as u64, request, &interner, &never));
                match phase.load(Ordering::Relaxed) {
                    TIMED => {
                        timed.fetch_add(1, Ordering::Relaxed);
                    }
                    DONE => return,
                    _ => {}
                }
            });
        }
        std::thread::sleep(WARM_UP);
        phase.store(TIMED, Ordering::Relaxed);
        let start = Instant::now();
        std::thread::sleep(WINDOW);
        let done = timed.load(Ordering::Relaxed);
        let elapsed = start.elapsed();
        phase.store(DONE, Ordering::Relaxed);
        done as f64 / elapsed.as_secs_f64()
    })
}

/// Answers per second of a closed loop keeping two requests in flight
/// through a 2-worker server.
fn server_ops_s(lines: &[String]) -> f64 {
    const IN_FLIGHT: usize = 2;
    let config = ServeConfig {
        interner_cap: INTERNER_CAP,
        ..ServeConfig::default()
    };
    let (server, rx) = Server::start(config, 2);
    let mut next = 0;
    let mut submit = || {
        server.submit(&lines[next % lines.len()]);
        next += 1;
    };
    for _ in 0..IN_FLIGHT {
        submit();
    }
    let mut answer_one = || {
        black_box(rx.recv().expect("one response per request"));
        submit();
    };
    let warm = Instant::now();
    while warm.elapsed() < WARM_UP {
        answer_one();
    }
    let start = Instant::now();
    let mut answered = 0u64;
    while start.elapsed() < WINDOW {
        answer_one();
        answered += 1;
    }
    let ops_s = answered as f64 / start.elapsed().as_secs_f64();
    let report = server.shutdown();
    assert_eq!(report.accepted, report.admitted + report.rejected);
    ops_s
}

fn main() {
    let requests = requests();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("serve_scaling: {cores} hardware thread(s) available");

    let one = execute_ops_s(&requests, 1);
    let two = execute_ops_s(&requests, 2);
    println!("serve_scaling/execute_shared_interner/1: {one:.0} ops/s");
    println!("serve_scaling/execute_shared_interner/2: {two:.0} ops/s");
    let ratio = two / one;
    println!("serve_scaling/execute_shared_interner/2_over_1: {ratio:.2}");

    let lines: Vec<String> = requests.iter().map(encode_request).collect();
    println!(
        "serve_scaling/server_2_workers_2_in_flight: {:.0} ops/s",
        server_ops_s(&lines)
    );

    if cores < 2 {
        println!("serve_scaling: one hardware thread, 2_over_1 not checked");
    } else {
        assert!(
            ratio >= MIN_2_OVER_1,
            "2_over_1 = {ratio:.2} < {MIN_2_OVER_1}: a second worker does not help"
        );
    }
}
