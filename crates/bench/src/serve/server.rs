//! The admission server: ingress, workers, and reporting.
//!
//! ```text
//!                 ┌────────────┐  full   ┌──────┐
//!  submit(line) ─▶│  breaker   │───────▶ │ busy │──▶ responses
//!                 │  (shed?)   │  shed   └──────┘
//!                 └─────┬──────┘─────────▶ shed ───▶ responses
//!                       │ accepted
//!                 ┌─────▼──────┐    pop      ┌───────────────┐
//!                 │  bounded   │◀────────────│ rtpool-serve-i│
//!                 │  ingress   │ each worker │  supervisor   │
//!                 └────────────┘ fetches its │  ladder       │
//!                                next request└──────┬────────┘
//!                                                   ▼
//!                                               responses
//! ```
//!
//! The workers are the server's own threads: [`Server::start`] spawns
//! `rtpool-serve-0..n`, each the paper's Listing 1 loop — block in
//! [`IngressQueue::pop`], serve the request, fetch the next — so a
//! request waits only while every worker is busy, never for a batch of
//! other requests to finish. [`Server::shutdown`] closes the queue and
//! joins them. What one worker alone touches (its latency histogram,
//! its trace lane) moves into its thread and comes back through the
//! join, so the request path takes no lock for it; counters, breaker,
//! interner and the control trace lane are shared.
//!
//! Every submitted line produces **exactly one** [`Response`] on the
//! server's outbound channel: parse failures, sheds, and busy
//! rejections are answered at ingress; accepted requests are answered
//! by the supervised analysis, crashes included. Shutdown closes the
//! queue, drains the backlog (accepted work is never dropped), and
//! returns a [`ServeReport`].
//!
//! The per-request deadline budget starts at *arrival* — time spent
//! queued counts against it, so a request that aged out in
//! the queue degrades at the prefilter rung instead of burning worker
//! time on an answer nobody is waiting for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtpool_core::CancelToken;
use rtpool_exec::RecoveryPolicy;
use rtpool_trace::{
    assemble, EngineKind, EventKind, LaneRecorder, LatencyHistogram, SeqClock, TimeUnit, Trace,
};

use super::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use super::interner::{Interner, InternerStats};
use super::protocol::{self, Request, Response, VerdictKind};
use super::queue::IngressQueue;
use super::supervisor::{ServiceEvent, ServiceFaultPlan, Supervisor};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ingress queue capacity (requests buffered before `busy`).
    pub queue_cap: usize,
    /// Deadline budget for requests that do not carry one
    /// (`0` = unlimited).
    pub default_deadline_us: u64,
    /// Circuit-breaker settings.
    pub breaker: BreakerConfig,
    /// Interner capacity (distinct task sets held).
    pub interner_cap: usize,
    /// Recovery policy for panicking analysis workers.
    pub recovery: RecoveryPolicy,
    /// Service-fault injection plan (chaos testing).
    pub faults: ServiceFaultPlan,
    /// Record a request-lifecycle trace in the `rtpool-trace` schema.
    pub record_trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 256,
            default_deadline_us: 0,
            breaker: BreakerConfig::default(),
            interner_cap: 256,
            recovery: RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                base_delay: Duration::from_micros(50),
            },
            faults: ServiceFaultPlan::seeded(0),
            record_trace: false,
        }
    }
}

/// Monotone service counters.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    busy: AtomicU64,
    shed: AtomicU64,
    parse_errors: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
    /// Accepted requests answered so far (`accepted − served` = in flight).
    served: AtomicU64,
}

/// Final server report, returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests refused with `busy` (queue full).
    pub busy: u64,
    /// Requests refused with `shed` (breaker open).
    pub shed: u64,
    /// Lines that failed to parse (answered `error`).
    pub parse_errors: u64,
    /// Analysis verdicts: admitted.
    pub admitted: u64,
    /// Analysis verdicts: rejected.
    pub rejected: u64,
    /// `error` verdicts from served requests (crashes, unknown hashes).
    pub errors: u64,
    /// Verdicts marked degraded.
    pub degraded: u64,
    /// Worker panics caught by the supervisor.
    pub panics: u64,
    /// Supervisor retries.
    pub retries: u64,
    /// Service latency (arrival → verdict) of served requests, µs.
    pub latency: LatencyHistogram,
    /// Breaker statistics.
    pub breaker: BreakerStats,
    /// Interner statistics.
    pub interner: InternerStats,
    /// Ingress queue high-water mark.
    pub queue_peak: usize,
    /// Request-lifecycle trace, when recording was enabled.
    pub trace: Option<Trace>,
}

impl ServeReport {
    /// Renders the report as a JSON object (trace omitted) for the CLI
    /// `--summary` output.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"accepted\": {}, \"busy\": {}, \"shed\": {}, \"parse_errors\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"errors\": {}, \"degraded\": {}, \
             \"panics\": {}, \"retries\": {}, \"queue_peak\": {}, \
             \"latency_us\": {}, \
             \"breaker\": {{ \"open\": {}, \"opens\": {}, \"closes\": {}, \"shed\": {} }}, \
             \"interner\": {{ \"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"memo_hits\": {}, \"delta_hits\": {}, \"recalled\": {} }} }}",
            self.accepted,
            self.busy,
            self.shed,
            self.parse_errors,
            self.admitted,
            self.rejected,
            self.errors,
            self.degraded,
            self.panics,
            self.retries,
            self.queue_peak,
            self.latency.to_json(),
            self.breaker.open,
            self.breaker.opens,
            self.breaker.closes,
            self.breaker.shed,
            self.interner.entries,
            self.interner.hits,
            self.interner.misses,
            self.interner.evictions,
            self.interner.memo_hits,
            self.interner.delta_hits,
            self.interner.recalled,
        )
    }
}

/// An accepted request waiting for a worker.
struct Pending {
    seq: u64,
    arrival: Instant,
    request: Request,
}

/// Trace recording state every thread shares: the clock all lanes stamp
/// from and the control lane (request lifecycle, supervision events),
/// which serializes briefly. A worker's lane (analysis start/end) is
/// its own, see [`Worker`].
struct TraceShared {
    clock: SeqClock,
    control: Mutex<LaneRecorder>,
}

struct Inner {
    default_deadline_us: u64,
    queue: IngressQueue<Pending>,
    breaker: CircuitBreaker,
    interner: Interner,
    supervisor: Supervisor,
    counters: Counters,
    trace: Option<TraceShared>,
    tx: Sender<Response>,
    t0: Instant,
}

/// What one worker alone touches. It moves into the worker's thread at
/// [`Server::start`] and is handed back through the `JoinHandle` at
/// [`Server::shutdown`].
struct Worker {
    index: u32,
    /// Service latency of the requests this worker answered.
    latency: LatencyHistogram,
    /// Analysis start/end events, when tracing.
    lane: Option<LaneRecorder>,
}

impl Worker {
    /// Records `kind()`, stamped now, on this worker's lane. With
    /// tracing off nothing is built.
    fn rec(&mut self, inner: &Inner, kind: impl FnOnce() -> EventKind) {
        if let Some(lane) = &mut self.lane {
            lane.record(inner.nanos_at(Instant::now()), kind());
        }
    }
}

impl Inner {
    fn nanos_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `kind()`, stamped now, on the control lane. With tracing
    /// off nothing is built: no event, no label `String`, no clock read.
    fn rec_control(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(tr) = &self.trace {
            let t = self.nanos_at(Instant::now());
            tr.control
                .lock()
                .expect("trace lane lock not poisoned")
                .record(t, kind());
        }
    }

    fn send(&self, response: Response) {
        // The receiver living shorter than the server is fine (e.g. a
        // client that hung up); verdicts are then dropped on the floor
        // by the channel, not by the server.
        let _ = self.tx.send(response);
    }
}

fn job_id(seq: u64) -> u32 {
    u32::try_from(seq & 0xffff_ffff).expect("masked to 32 bits")
}

/// The admission server. Submit JSON lines with [`Server::submit`];
/// responses arrive on the channel returned by [`Server::start`];
/// finish with [`Server::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<Worker>>,
    seq: AtomicU64,
}

impl Server {
    /// Starts a server with `workers` serving threads (at least one),
    /// named `rtpool-serve-{i}`, that live until [`Server::shutdown`].
    /// Returns the server handle and the outbound response channel.
    #[must_use]
    pub fn start(config: ServeConfig, workers: usize) -> (Server, Receiver<Response>) {
        let (tx, rx) = channel();
        let trace = config.record_trace.then(|| {
            let clock = SeqClock::new();
            TraceShared {
                control: Mutex::new(LaneRecorder::new(&clock)),
                clock,
            }
        });
        let inner = Arc::new(Inner {
            default_deadline_us: config.default_deadline_us,
            queue: IngressQueue::new(config.queue_cap),
            breaker: CircuitBreaker::new(config.breaker),
            interner: Interner::new(config.interner_cap),
            supervisor: Supervisor::new(config.recovery, config.faults),
            counters: Counters::default(),
            trace,
            tx,
            t0: Instant::now(),
        });
        let workers = (0..workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                let mut worker = Worker {
                    index: u32::try_from(index).expect("worker index fits u32"),
                    latency: LatencyHistogram::new(),
                    lane: inner.trace.as_ref().map(|tr| LaneRecorder::new(&tr.clock)),
                };
                std::thread::Builder::new()
                    .name(format!("rtpool-serve-{index}"))
                    .spawn(move || {
                        while let Some(pending) = inner.queue.pop() {
                            serve_one(&inner, &pending, &mut worker);
                        }
                        worker
                    })
                    .expect("spawning serve worker")
            })
            .collect();
        (
            Server {
                inner,
                workers,
                seq: AtomicU64::new(0),
            },
            rx,
        )
    }

    #[doc(hidden)] // compat, see `InjectorPool` below
    pub fn start_on(config: ServeConfig, pool: ServePool) -> (Server, Receiver<Response>) {
        Server::start(config, pool.0)
    }

    /// Whether no accepted request is queued or in flight: every
    /// response is then on the outbound channel. Useful for
    /// connection-oriented front-ends that must drain between clients.
    #[must_use]
    pub fn idle(&self) -> bool {
        let c = &self.inner.counters;
        // Read `served` first: if it momentarily lags `accepted` we
        // report busy, never the reverse.
        let served = c.served.load(Ordering::Acquire);
        let accepted = c.accepted.load(Ordering::Acquire);
        self.inner.queue.is_empty() && served == accepted
    }

    /// Ingests one JSON line. Always results in exactly one response on
    /// the outbound channel (possibly immediately: parse error, shed,
    /// or busy).
    pub fn submit(&self, line: &str) {
        let inner = &self.inner;
        let (id, decoded) = protocol::decode_request(line);
        let request = match decoded {
            Ok(r) => r,
            Err(detail) => {
                inner.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                inner.send(Response {
                    id,
                    verdict: VerdictKind::Error,
                    level: None,
                    degraded: false,
                    latency_us: 0,
                    hash: None,
                    detail,
                });
                return;
            }
        };
        if !inner.breaker.admit(request.priority) {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            inner.rec_control(|| EventKind::Recovery {
                task: 0,
                label: "serve_shed".to_string(),
                node: None,
            });
            inner.send(Response {
                id: request.id,
                verdict: VerdictKind::Shed,
                level: None,
                degraded: false,
                latency_us: 0,
                hash: None,
                detail: "breaker open; priority below shed threshold".to_string(),
            });
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let arrival = Instant::now();
        let pending = Pending {
            seq,
            arrival,
            request,
        };
        // A worker blocked in `pop` serves the request the moment it is
        // pushed and may record everything up to `JobCompleted` before
        // this thread runs again. The release is recorded only once the
        // push is accepted, so its place in the trace — sequence number
        // and arrival time — is taken here, ahead of all it causes.
        let release_seq = inner.trace.as_ref().map(|tr| tr.clock.tick());
        match inner.queue.push(pending) {
            Ok(()) => {
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                if let (Some(tr), Some(release_seq)) = (&inner.trace, release_seq) {
                    tr.control
                        .lock()
                        .expect("trace lane lock not poisoned")
                        .record_at(
                            release_seq,
                            inner.nanos_at(arrival),
                            EventKind::JobReleased {
                                task: 0,
                                job: job_id(seq),
                            },
                        );
                }
            }
            Err(rejected) => {
                inner.counters.busy.fetch_add(1, Ordering::Relaxed);
                inner.rec_control(|| EventKind::Recovery {
                    task: 0,
                    label: "serve_busy".to_string(),
                    node: None,
                });
                inner.send(Response {
                    id: rejected.request.id,
                    verdict: VerdictKind::Busy,
                    level: None,
                    degraded: false,
                    latency_us: 0,
                    hash: None,
                    detail: format!("ingress queue full ({} pending)", inner.queue.capacity()),
                });
            }
        }
    }

    /// Stops ingress, drains every accepted request to a verdict, and
    /// returns the final report.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked (a server bug —
    /// request-level crashes are contained by the supervisor).
    #[must_use]
    pub fn shutdown(self) -> ServeReport {
        self.inner.queue.close();
        let workers: Vec<Worker> = self
            .workers
            .into_iter()
            .map(|handle| handle.join().expect("serve worker healthy"))
            .collect();
        let inner = &self.inner;
        let c = &inner.counters;
        let mut latency = LatencyHistogram::new();
        for worker in &workers {
            latency.merge(&worker.latency);
        }
        let trace = inner.trace.as_ref().map(|tr| {
            let control = std::mem::replace(
                &mut *tr.control.lock().expect("trace lane lock not poisoned"),
                LaneRecorder::new(&tr.clock),
            );
            let cores = u32::try_from(workers.len()).expect("worker count fits u32");
            let lanes = std::iter::once(control)
                .chain(workers.into_iter().filter_map(|w| w.lane))
                .collect();
            assemble(
                EngineKind::Exec,
                TimeUnit::Nanos,
                cores,
                1,
                inner.nanos_at(Instant::now()),
                lanes,
            )
        });
        ServeReport {
            accepted: c.accepted.load(Ordering::Relaxed),
            busy: c.busy.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            parse_errors: c.parse_errors.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            latency,
            breaker: inner.breaker.stats(),
            interner: inner.interner.stats(),
            queue_peak: inner.queue.pressure().0,
            trace,
        }
    }
}

// Compat, one caller: `benchmark/src/serve_wl.rs:184` (frozen while this landed) spells the
// pool the server used to run on. Delete when a `benchmark` PR calls `Server::start` (ROADMAP 1a).
#[doc(hidden)]
pub struct InjectorPool(usize);
#[doc(hidden)]
pub type ServePool = Arc<InjectorPool>;
#[doc(hidden)]
impl InjectorPool {
    pub fn new(threads: usize) -> Self {
        InjectorPool(threads)
    }
}

/// Serves one accepted request on `worker`'s thread.
fn serve_one(inner: &Inner, pending: &Pending, worker: &mut Worker) {
    let req = &pending.request;
    let seq = pending.seq;
    let budget_us = if req.deadline_us > 0 {
        req.deadline_us
    } else {
        inner.default_deadline_us
    };
    let token = if budget_us > 0 {
        CancelToken::with_deadline(pending.arrival + Duration::from_micros(budget_us))
    } else {
        CancelToken::never()
    };
    let thread = worker.index;
    worker.rec(inner, || EventKind::NodeStart {
        task: 0,
        job: job_id(seq),
        node: 0,
        thread,
    });
    let outcome = inner.supervisor.execute(seq, req, &inner.interner, &token);
    worker.rec(inner, || EventKind::NodeEnd {
        task: 0,
        job: job_id(seq),
        node: 0,
        thread,
    });
    for event in &outcome.events {
        match event {
            ServiceEvent::WorkerPanicked => {
                inner.counters.panics.fetch_add(1, Ordering::Relaxed);
            }
            ServiceEvent::Retried => {
                inner.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if *event == ServiceEvent::CacheDeltaHit {
            // Delta hits get their own first-class trace event, not a
            // generic Recovery label, so a trace reader can count them.
            inner.rec_control(|| EventKind::CacheDeltaHit {
                task: 0,
                job: job_id(seq),
            });
        } else {
            inner.rec_control(|| EventKind::Recovery {
                task: 0,
                label: event.label().to_string(),
                node: None,
            });
        }
    }
    let latency = pending.arrival.elapsed();
    let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
    match outcome.verdict {
        VerdictKind::Admit => inner.counters.admitted.fetch_add(1, Ordering::Relaxed),
        VerdictKind::Reject => inner.counters.rejected.fetch_add(1, Ordering::Relaxed),
        _ => inner.counters.errors.fetch_add(1, Ordering::Relaxed),
    };
    if outcome.degraded {
        inner.counters.degraded.fetch_add(1, Ordering::Relaxed);
    }
    worker.latency.observe(latency_us);
    inner.breaker.observe(latency_us);
    inner.rec_control(|| EventKind::JobCompleted {
        task: 0,
        job: job_id(seq),
    });
    inner.send(Response {
        id: req.id,
        verdict: outcome.verdict,
        level: outcome.level,
        degraded: outcome.degraded,
        latency_us,
        hash: outcome.hash,
        detail: outcome.detail,
    });
    // After the send: an idle server has every response on the channel.
    inner.counters.served.fetch_add(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{encode_request, parse_response, LadderLevel, RequestBody};

    const SRC: &str = "task period=100\n  node a 10\n  node b 5\n  edge a b\nend\n";

    fn line(id: u64, m: usize) -> String {
        encode_request(&Request {
            id,
            m,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Source(SRC.to_string()),
        })
    }

    #[test]
    fn serves_and_shuts_down_cleanly() {
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            2,
        );
        for id in 0..10 {
            server.submit(&line(id, 4));
        }
        // Malformed (no body), but the id is still recoverable for the
        // error response.
        server.submit("{\"id\": 10, \"m\": 4}");
        let report = server.shutdown();
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 11, "one response per submission");
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..11).collect::<Vec<_>>().as_slice());
        assert_eq!(report.accepted, 10);
        assert_eq!(report.parse_errors, 1);
        assert_eq!(report.admitted, 10);
        assert_eq!(report.errors, 1);
        // All ten analysis responses share one interned set.
        assert_eq!(report.interner.entries, 1);
        assert!(report.interner.memo_hits >= 1);
        let trace = report.trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        // Round-trip a response line for good measure.
        let encoded = protocol::encode_response(&responses[0]);
        assert_eq!(parse_response(&encoded).unwrap(), responses[0]);
    }

    /// A line that breaks *after* its id — here the source is cut short —
    /// is still answered under that id, not under 0.
    #[test]
    fn malformed_line_after_id_is_answered_with_its_id() {
        let (server, rx) = Server::start(ServeConfig::default(), 1);
        let whole = line(7, 4);
        server.submit(&whole[..whole.len() - 12]);
        server.submit("{\"id\":8,\"m\":4,\"source\":\"bad \\q escape\"}");
        server.submit("{\"id\":9,\"m\":4,\"hash\":\"ff\"} trailing");
        let report = server.shutdown();
        let answers: Vec<(u64, VerdictKind, String)> =
            rx.iter().map(|r| (r.id, r.verdict, r.detail)).collect();
        let error = |id, detail: &str| (id, VerdictKind::Error, detail.to_string());
        assert_eq!(
            answers,
            [
                error(7, "unterminated string"),
                error(8, "bad escape at byte 29"),
                error(9, "trailing input at byte 27"),
            ]
        );
        assert_eq!(report.parse_errors, 3);
    }

    /// `threads` requests, each held for a while by an injected
    /// `slow_request`, must all be in service at once, each on a lane of
    /// its own — were a worker not to serve, one request would start
    /// only after another had ended.
    #[test]
    fn every_worker_serves() {
        let hold = Duration::from_millis(200);
        for threads in [1usize, 2, 4] {
            let (server, rx) = Server::start(
                ServeConfig {
                    record_trace: true,
                    faults: ServiceFaultPlan::seeded(0).slow_storm(0, threads as u64, hold),
                    ..ServeConfig::default()
                },
                threads,
            );
            for id in 0..threads as u64 {
                server.submit(&line(id, 4));
            }
            let report = server.shutdown();
            assert_eq!(rx.iter().count(), threads);
            let trace = report.trace.expect("trace recorded");
            let mut lanes = Vec::new();
            let (mut last_start, mut first_end) = (0, u64::MAX);
            for e in &trace.events {
                match e.kind {
                    EventKind::NodeStart { thread, .. } => {
                        lanes.push(thread);
                        last_start = last_start.max(e.time);
                    }
                    EventKind::NodeEnd { .. } => first_end = first_end.min(e.time),
                    _ => {}
                }
            }
            lanes.sort_unstable();
            assert_eq!(
                lanes,
                (0..threads as u32).collect::<Vec<_>>(),
                "x{threads}: one held request per worker lane"
            );
            assert!(
                last_start < first_end,
                "x{threads}: a request started only after another ended"
            );
        }
    }

    /// Histograms and lanes come back through `join`: nothing a worker
    /// recorded is lost on the way into the report.
    #[test]
    fn joined_workers_hand_back_every_sample_and_event() {
        let requests = 400;
        let (server, rx) = Server::start(
            ServeConfig {
                queue_cap: requests as usize,
                record_trace: true,
                ..ServeConfig::default()
            },
            4,
        );
        for id in 0..requests {
            server.submit(&line(id, 4));
        }
        let report = server.shutdown();
        assert_eq!(rx.iter().count() as u64, requests);
        assert_eq!(report.accepted, requests);
        assert_eq!(report.latency.count(), report.accepted);
        let trace = report.trace.expect("trace recorded");
        assert_eq!(trace.cores, 4);
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let mut pairs = std::collections::HashMap::new();
        for e in &trace.events {
            match e.kind {
                EventKind::NodeStart { job, .. } => pairs.entry(job).or_insert((0, 0)).0 += 1,
                EventKind::NodeEnd { job, .. } => pairs.entry(job).or_insert((0, 0)).1 += 1,
                _ => {}
            }
        }
        assert_eq!(pairs.len() as u64, report.accepted);
        assert!(pairs.values().all(|&pair| pair == (1, 1)), "{pairs:?}");
    }

    #[test]
    fn zero_workers_means_one() {
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            0,
        );
        server.submit(&line(1, 4));
        assert_eq!(rx.recv().expect("served").verdict, VerdictKind::Admit);
        assert_eq!(server.shutdown().trace.expect("trace recorded").cores, 1);
    }

    /// One request in flight at a time, so a worker is always blocked in
    /// `pop` and serves each request before `submit` gets to record its
    /// release. The release must still sort first: the trace consumers
    /// look a job's release up when they meet its completion, and a
    /// completion that sorts first loses its response sample.
    #[test]
    fn release_sorts_before_what_a_waiting_worker_records() {
        let requests = 200;
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            2,
        );
        for id in 0..requests {
            server.submit(&line(id, 4));
            rx.recv().expect("one response per request");
        }
        let trace = server.shutdown().trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let mut released = std::collections::HashSet::new();
        for e in &trace.events {
            match e.kind {
                EventKind::JobReleased { job, .. } => {
                    released.insert(job);
                }
                EventKind::NodeStart { job, .. } => {
                    assert!(released.contains(&job), "job {job} started unreleased");
                }
                _ => {}
            }
        }
        let samples = rtpool_trace::TraceAnalysis::new(&trace)
            .task(0)
            .responses
            .len();
        assert_eq!(samples as u64, requests, "a response sample per request");
    }

    /// Shutdown with the queue full and every worker busy: accepted work
    /// is drained, not dropped, and the refused rest was answered `busy`.
    #[test]
    fn shutdown_drains_a_full_backlog() {
        let queue_cap = 8;
        let submitted = 16u64;
        let (server, rx) = Server::start(
            ServeConfig {
                queue_cap,
                faults: ServiceFaultPlan::seeded(0).slow_prob(1.0, Duration::from_millis(20)),
                ..ServeConfig::default()
            },
            2,
        );
        for id in 0..submitted {
            server.submit(&line(id, 4));
        }
        let report = server.shutdown();
        // At least the queue's worth was accepted; the two workers can
        // have taken at most one more each while the rest was submitted
        // (16 submits take far less than the 20 ms a request is held).
        assert!(report.accepted >= queue_cap as u64, "{report:?}");
        assert_eq!(report.accepted + report.busy, submitted);
        assert!(report.busy > 0, "the backlog was never full");
        let mut answers: Vec<(u64, VerdictKind)> = rx.iter().map(|r| (r.id, r.verdict)).collect();
        answers.sort_unstable_by_key(|a| a.0);
        let ids: Vec<u64> = answers.iter().map(|a| a.0).collect();
        assert_eq!(ids, (0..submitted).collect::<Vec<_>>(), "each id once");
        let served = answers.iter().filter(|a| a.1 == VerdictKind::Admit).count() as u64;
        assert_eq!(served, report.accepted, "every accepted id was served");
        assert_eq!(report.admitted, report.accepted);
    }

    #[test]
    fn hash_resubmission_skips_source() {
        let (server, rx) = Server::start(ServeConfig::default(), 2);
        server.submit(&line(1, 4));
        let first = rx.recv().expect("first response");
        assert_eq!(first.verdict, VerdictKind::Admit);
        let hash = first.hash.expect("hash present");
        server.submit(&encode_request(&Request {
            id: 2,
            m: 4,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Hash(hash),
        }));
        let second = rx.recv().expect("second response");
        assert_eq!(second.verdict, VerdictKind::Admit);
        assert_eq!(second.level, Some(LadderLevel::Exact));
        assert_eq!(second.detail, "memoized verdict");
        let report = server.shutdown();
        assert_eq!(report.admitted, 2);
    }

    #[test]
    fn edit_resubmission_hits_delta_path() {
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            2,
        );
        server.submit(&line(1, 4));
        let first = rx.recv().expect("first response");
        let base = first.hash.expect("hash present");
        // Sent three times: built, built and remembered, recalled.
        let mut patched = None;
        for id in 2..5 {
            server.submit(&encode_request(&Request {
                id,
                m: 4,
                priority: 4,
                deadline_us: 0,
                body: RequestBody::Edit {
                    base,
                    script: "wcet:0.0=12".to_string(),
                },
            }));
            let edited = rx.recv().expect("edit response");
            assert_eq!(edited.verdict, VerdictKind::Admit, "{}", edited.detail);
            assert_ne!(edited.hash, Some(base), "edit produces a new content hash");
            assert_eq!(*patched.get_or_insert(edited.hash), edited.hash);
        }
        let report = server.shutdown();
        assert_eq!(report.interner.delta_hits, 3);
        assert_eq!(report.interner.recalled, 1);
        assert!(report
            .to_json()
            .contains("\"delta_hits\": 3, \"recalled\": 1"));
        let trace = report.trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let hits = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CacheDeltaHit { .. }))
            .count();
        assert_eq!(hits, 3, "one CacheDeltaHit trace event per edit");
    }

    #[test]
    fn expired_budget_degrades_at_prefilter() {
        let (server, rx) = Server::start(ServeConfig::default(), 1);
        server.submit(&encode_request(&Request {
            id: 9,
            m: 4,
            priority: 4,
            deadline_us: 1, // expires while queued
            body: RequestBody::Source(SRC.to_string()),
        }));
        std::thread::sleep(Duration::from_millis(5));
        let report = server.shutdown();
        let resp: Vec<Response> = rx.iter().collect();
        assert_eq!(resp.len(), 1);
        assert!(resp[0].degraded);
        assert_eq!(resp[0].verdict, VerdictKind::Reject);
        assert_eq!(report.degraded, 1);
    }
}
