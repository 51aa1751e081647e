//! The admission server: ingress, dispatch, and reporting.
//!
//! ```text
//!                 ┌────────────┐  full   ┌──────┐
//!  submit(line) ─▶│  breaker   │───────▶ │ busy │──▶ responses
//!                 │  (shed?)   │  shed   └──────┘
//!                 └─────┬──────┘─────────▶ shed ───▶ responses
//!                       │ accepted
//!                 ┌─────▼──────┐   batches   ┌───────────────┐
//!                 │  bounded   │────────────▶│  ServePool    │
//!                 │  ingress   │ dispatcher  │  fan-out      │
//!                 └────────────┘             │  supervisor   │
//!                                            │  ladder       │
//!                                            └──────┬────────┘
//!                                                   ▼
//!                                               responses
//! ```
//!
//! The fan-out is a [`ServePool`]: the lock-free `InjectorPool` the
//! `rtpool_serve` binary and the registered benchmark run by default, or
//! the locked-range `SweepPool` kept selectable as the v1 path.
//!
//! Every submitted line produces **exactly one** [`Response`] on the
//! server's outbound channel: parse failures, sheds, and busy
//! rejections are answered at ingress; accepted requests are answered
//! by the supervised analysis, crashes included. Shutdown closes the
//! queue, drains the backlog (accepted work is never dropped), and
//! returns a [`ServeReport`].
//!
//! The per-request deadline budget starts at *arrival* — time spent
//! queued and batched counts against it, so a request that aged out in
//! the queue degrades at the prefilter rung instead of burning worker
//! time on an answer nobody is waiting for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtpool_core::CancelToken;
use rtpool_exec::{FaultPlan, RecoveryPolicy};
use rtpool_trace::{
    assemble, EngineKind, EventKind, LaneRecorder, LatencyHistogram, SeqClock, TimeUnit, Trace,
};

use super::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use super::dispatch::ServePool;
use super::interner::{Interner, InternerStats};
use super::protocol::{self, Request, Response, VerdictKind};
use super::queue::IngressQueue;
use super::supervisor::{ServiceEvent, Supervisor};
use crate::sweep::SweepPool;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ingress queue capacity (requests buffered before `busy`).
    pub queue_cap: usize,
    /// Max requests dispatched to the [`ServePool`] per batch, whichever
    /// engine it wraps (`0` = twice the pool's worker count).
    pub batch_max: usize,
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
    pub faults: FaultPlan,
    /// Record a request-lifecycle trace in the `rtpool-trace` schema.
    pub record_trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 256,
            batch_max: 0,
            default_deadline_us: 0,
            breaker: BreakerConfig::default(),
            interner_cap: 256,
            recovery: RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                base_delay: Duration::from_micros(50),
            },
            faults: FaultPlan::seeded(0),
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
    /// `--summary` output and the CI soak artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let q = |p: f64| {
            self.latency
                .quantile_upper(p)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        format!(
            "{{ \"accepted\": {}, \"busy\": {}, \"shed\": {}, \"parse_errors\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"errors\": {}, \"degraded\": {}, \
             \"panics\": {}, \"retries\": {}, \"queue_peak\": {}, \
             \"latency_us\": {{ \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"p999\": {}, \"max\": {} }}, \
             \"breaker\": {{ \"open\": {}, \"opens\": {}, \"closes\": {}, \"shed\": {} }}, \
             \"interner\": {{ \"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"memo_hits\": {}, \"delta_hits\": {} }} }}",
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
            self.latency.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            self.latency.max().unwrap_or(0),
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
        )
    }
}

/// An accepted request waiting for a worker.
struct Pending {
    seq: u64,
    arrival: Instant,
    request: Request,
}

/// Trace recording state: one control lane (request lifecycle,
/// supervision events) plus one lane per sweep worker (analysis
/// start/end). Worker lanes are only ever touched by their own sweep
/// worker, so the mutexes are uncontended; the control lane serializes
/// briefly.
struct TraceShared {
    clock: SeqClock,
    control: Mutex<LaneRecorder>,
    workers: Vec<Mutex<LaneRecorder>>,
}

struct Inner {
    default_deadline_us: u64,
    queue: IngressQueue<Pending>,
    breaker: CircuitBreaker,
    interner: Interner,
    supervisor: Supervisor,
    counters: Counters,
    /// Shard-local latency histograms, merged at report time.
    shards: Vec<Mutex<LatencyHistogram>>,
    trace: Option<TraceShared>,
    tx: Sender<Response>,
    t0: Instant,
    workers: usize,
}

impl Inner {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn rec_control(&self, kind: EventKind) {
        if let Some(tr) = &self.trace {
            let t = self.now_nanos();
            tr.control
                .lock()
                .expect("trace lane lock not poisoned")
                .record(t, kind);
        }
    }

    fn rec_worker(&self, worker: usize, kind: EventKind) {
        if let Some(tr) = &self.trace {
            let t = self.now_nanos();
            tr.workers[worker]
                .lock()
                .expect("trace lane lock not poisoned")
                .record(t, kind);
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
    pool: ServePool,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    seq: AtomicU64,
}

impl Server {
    /// Starts a server fanning analysis across a [`SweepPool`] (the v1
    /// serve path). Returns the server handle and the outbound response
    /// channel. Use [`Server::start_on`] to select the dispatch engine.
    #[must_use]
    pub fn start(config: ServeConfig, pool: Arc<SweepPool>) -> (Server, Receiver<Response>) {
        Server::start_on(config, ServePool::Sweep(pool))
    }

    /// Starts a server fanning analysis across `pool` — either serve
    /// dispatch engine. Returns the server handle and the outbound
    /// response channel.
    #[must_use]
    pub fn start_on(config: ServeConfig, pool: ServePool) -> (Server, Receiver<Response>) {
        let workers = pool.threads();
        let batch_max = if config.batch_max == 0 {
            workers * 2
        } else {
            config.batch_max
        };
        let (tx, rx) = channel();
        let trace = config.record_trace.then(|| {
            let clock = SeqClock::new();
            TraceShared {
                control: Mutex::new(LaneRecorder::new(&clock)),
                workers: (0..workers)
                    .map(|_| Mutex::new(LaneRecorder::new(&clock)))
                    .collect(),
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
            shards: (0..workers)
                .map(|_| Mutex::new(LatencyHistogram::new()))
                .collect(),
            trace,
            tx,
            t0: Instant::now(),
            workers,
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            let pool = pool.clone();
            std::thread::Builder::new()
                .name("rtpool-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&inner, &pool, batch_max))
                .expect("spawning dispatcher")
        };
        (
            Server {
                inner,
                pool,
                dispatcher: Some(dispatcher),
                seq: AtomicU64::new(0),
            },
            rx,
        )
    }

    /// Whether no accepted request is queued or in flight. Useful for
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

    /// The dispatch pool the server fans out on.
    #[must_use]
    pub fn pool(&self) -> &ServePool {
        &self.pool
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
            inner.rec_control(EventKind::Recovery {
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
        let pending = Pending {
            seq,
            arrival: Instant::now(),
            request,
        };
        match inner.queue.push(pending) {
            Ok(()) => {
                inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                inner.rec_control(EventKind::JobReleased {
                    task: 0,
                    job: job_id(seq),
                });
            }
            Err(rejected) => {
                inner.counters.busy.fetch_add(1, Ordering::Relaxed);
                inner.rec_control(EventKind::Recovery {
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
    /// Panics if the dispatcher thread itself panicked (a server bug —
    /// request-level crashes are contained by the supervisor).
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.inner.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            handle.join().expect("dispatcher thread healthy");
        }
        let inner = &self.inner;
        let c = &inner.counters;
        let mut latency = LatencyHistogram::new();
        for shard in &inner.shards {
            latency.merge(&shard.lock().expect("shard lock not poisoned"));
        }
        let trace = inner.trace.as_ref().map(|tr| {
            let mut lanes = Vec::with_capacity(inner.workers + 1);
            lanes.push(take_lane(&tr.control, &tr.clock));
            for lane in &tr.workers {
                lanes.push(take_lane(lane, &tr.clock));
            }
            assemble(
                EngineKind::Exec,
                TimeUnit::Nanos,
                u32::try_from(inner.workers).expect("worker count fits u32"),
                1,
                inner.now_nanos(),
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

/// Replaces a lane with a fresh one, returning the recorded lane.
fn take_lane(lane: &Mutex<LaneRecorder>, clock: &SeqClock) -> LaneRecorder {
    std::mem::replace(
        &mut *lane.lock().expect("trace lane lock not poisoned"),
        LaneRecorder::new(clock),
    )
}

fn dispatch_loop(inner: &Arc<Inner>, pool: &ServePool, batch_max: usize) {
    loop {
        let batch = inner.queue.pop_batch(batch_max);
        if batch.is_empty() {
            return; // closed and drained
        }
        let batch = Arc::new(batch);
        let inner2 = Arc::clone(inner);
        let batch2 = Arc::clone(&batch);
        pool.run_indexed(batch.len(), "serve", move |i, worker| {
            serve_one(&inner2, &batch2[i], worker);
        });
    }
}

/// Serves one accepted request on sweep worker `worker`.
fn serve_one(inner: &Inner, pending: &Pending, worker: usize) {
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
    inner.rec_worker(
        worker,
        EventKind::NodeStart {
            task: 0,
            job: job_id(seq),
            node: 0,
            thread: u32::try_from(worker).expect("worker index fits u32"),
        },
    );
    let outcome = inner.supervisor.execute(seq, req, &inner.interner, &token);
    inner.rec_worker(
        worker,
        EventKind::NodeEnd {
            task: 0,
            job: job_id(seq),
            node: 0,
            thread: u32::try_from(worker).expect("worker index fits u32"),
        },
    );
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
            // Delta hits get their own first-class trace event (the
            // rtpool-trace metrics count them per task), not a generic
            // Recovery label.
            inner.rec_control(EventKind::CacheDeltaHit {
                task: 0,
                job: job_id(seq),
            });
        } else {
            inner.rec_control(EventKind::Recovery {
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
    inner.shards[worker]
        .lock()
        .expect("shard lock not poisoned")
        .observe(latency_us);
    inner.breaker.observe(latency_us);
    inner.rec_control(EventKind::JobCompleted {
        task: 0,
        job: job_id(seq),
    });
    inner.counters.served.fetch_add(1, Ordering::Relaxed);
    inner.send(Response {
        id: req.id,
        verdict: outcome.verdict,
        level: outcome.level,
        degraded: outcome.degraded,
        latency_us,
        hash: outcome.hash,
        detail: outcome.detail,
    });
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
        let pool = Arc::new(SweepPool::new(2));
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            pool,
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
        let pool = Arc::new(SweepPool::new(1));
        let (server, rx) = Server::start(ServeConfig::default(), pool);
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

    #[test]
    fn serves_on_injector_pool() {
        use crate::serve::dispatch::InjectorPool;
        let pool = ServePool::from(Arc::new(InjectorPool::new(2)));
        assert_eq!(pool.engine_label(), "injector");
        let (server, rx) = Server::start_on(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            pool,
        );
        for id in 0..10 {
            server.submit(&line(id, 4));
        }
        let report = server.shutdown();
        let responses: Vec<Response> = rx.iter().collect();
        assert_eq!(responses.len(), 10, "one response per submission");
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>().as_slice());
        assert_eq!(report.accepted, 10);
        assert_eq!(report.admitted, 10);
        let trace = report.trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
    }

    #[test]
    fn hash_resubmission_skips_source() {
        let pool = Arc::new(SweepPool::new(2));
        let (server, rx) = Server::start(ServeConfig::default(), pool);
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
        let pool = Arc::new(SweepPool::new(2));
        let (server, rx) = Server::start(
            ServeConfig {
                record_trace: true,
                ..ServeConfig::default()
            },
            pool,
        );
        server.submit(&line(1, 4));
        let first = rx.recv().expect("first response");
        let base = first.hash.expect("hash present");
        server.submit(&encode_request(&Request {
            id: 2,
            m: 4,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Edit {
                base,
                script: "wcet:0.0=12".to_string(),
            },
        }));
        let second = rx.recv().expect("second response");
        assert_eq!(second.verdict, VerdictKind::Admit, "{}", second.detail);
        assert_ne!(second.hash, Some(base), "edit produces a new content hash");
        let report = server.shutdown();
        assert_eq!(report.interner.delta_hits, 1);
        assert!(report.to_json().contains("\"delta_hits\": 1"));
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
        assert_eq!(hits, 1, "one CacheDeltaHit trace event for the edit");
    }

    #[test]
    fn expired_budget_degrades_at_prefilter() {
        let pool = Arc::new(SweepPool::new(1));
        let (server, rx) = Server::start(ServeConfig::default(), pool);
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
