//! The serve-path workloads, `admit-cold` and `admit-resident`.
//!
//! An operation is one request: the bytes of a JSON line go into
//! `Server::submit`, and the operation ends when the `Response` has been
//! received and `encode_response`d. One generator thread keeps two
//! requests in flight against a 2-worker `InjectorPool` — a closed loop,
//! because an admission caller deploys nothing until its verdict is back.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtpool_bench::serve::protocol::{
    encode_response, parse_request, LadderLevel, RequestBody, Response, VerdictKind,
};
use rtpool_bench::serve::{
    parse_edit_script, run_ladder, InjectorPool, Interner, MemoOutcome, ServeConfig, ServePool,
    ServeReport, Server, Supervisor,
};
use rtpool_core::analysis::global::ConcurrencyModel;
use rtpool_core::analysis::incremental::analyze_many_warm;
use rtpool_core::textfmt::parse_task_set;
use rtpool_core::{CancelToken, Task, TaskSet};
use rtpool_graph::NodeId;
use rtpool_trace::EventKind;

use crate::inputs::{OpKind, ServeInputs, ServeOp};
use crate::oracle::{self, Findings};
use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::{nanos, whole_cycles, Samples, Slice};

/// Requests the generator keeps in flight.
pub const IN_FLIGHT: usize = 2;
/// `InjectorPool` workers behind the server.
pub const SERVE_WORKERS: usize = 2;
/// Operations of a stream the traced pass replays (at most).
pub const TRACED_OPS: usize = 5120;
/// A response this late counts as lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The server configuration both serve workloads run: every default of
/// the program kept, only the interner capacity of the workload and the
/// program's own trace flag set.
#[must_use]
pub fn server_config(inputs: &ServeInputs, record_trace: bool) -> ServeConfig {
    ServeConfig {
        interner_cap: inputs.interner_cap,
        record_trace,
        ..ServeConfig::default()
    }
}

/// A started, warmed-up server.
pub struct Live {
    server: Server,
    rx: Receiver<Response>,
    /// Latency of the very first request the fresh server answered.
    pub first_request_us: f64,
    /// Warm-up requests that were not answered `admit`/`reject`.
    pub warmup_failed: u64,
}

/// Operations per slice of the measured phase; every cycle length is a
/// multiple, so whole cycles are whole slices.
pub const SLICE_OPS: usize = 512;

/// What one closed-loop drive of a stream observed.
struct Drive {
    started: Instant,
    /// Per operation, in submission order: submit → encoded response.
    lat_ns: Vec<u64>,
    /// Per operation: busy / shed / error / degraded / lost.
    bad: Vec<bool>,
    /// When the `k`-th slice of [`SLICE_OPS`] operations had been answered.
    marks: Vec<Instant>,
    /// Per operation: submit instant since `started` (traced drives only).
    submit_ns: Vec<u64>,
    findings: Findings,
}

enum Until {
    /// Exactly this many operations.
    Count(usize),
    /// Whole cycles until the deadline (at least one).
    Deadline(Instant),
}

/// Drives `ops` cyclically through the server, [`IN_FLIGHT`] requests at
/// a time, checking every answer against the oracle's.
fn drive(live: &Live, ops: &[ServeOp], until: &Until, spans: bool) -> Drive {
    let (server, rx) = (&live.server, &live.rx);
    let len = ops.len();
    let started = Instant::now();
    let mut out = Drive {
        started,
        lat_ns: Vec::new(),
        bad: Vec::new(),
        marks: Vec::new(),
        submit_ns: Vec::new(),
        findings: Findings::default(),
    };
    let mut outstanding: Vec<(u64, usize, Instant)> = Vec::with_capacity(IN_FLIGHT);
    let mut submitted = 0usize;
    let mut answered = 0usize;
    loop {
        while outstanding.len() < IN_FLIGHT {
            let more = match *until {
                Until::Count(n) => submitted < n,
                Until::Deadline(d) => submitted < len || Instant::now() < d,
            };
            if !more {
                break;
            }
            let op = &ops[submitted % len];
            out.lat_ns.push(0);
            out.bad.push(true);
            let t0 = Instant::now();
            if spans {
                out.submit_ns.push(nanos(t0 - started));
            }
            server.submit(&op.line);
            outstanding.push((op.id, submitted, t0));
            submitted += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let Ok(response) = rx.recv_timeout(RESPONSE_TIMEOUT) else {
            out.findings.fail(format!(
                "serve: {} request(s) lost (no response within {RESPONSE_TIMEOUT:?})",
                outstanding.len()
            ));
            break;
        };
        black_box(encode_response(&response));
        let t1 = Instant::now();
        let Some(slot) = outstanding.iter().position(|o| o.0 == response.id) else {
            out.findings.fail(format!(
                "serve: response for id {} which is not in flight (answered twice?)",
                response.id
            ));
            continue;
        };
        let (_, n, t0) = outstanding.swap_remove(slot);
        out.lat_ns[n] = nanos(t1 - t0);
        let op = &ops[n % len];
        // Busy, shed, error, degraded (and lost, above) are failed
        // operations; an answered one must agree with the oracle.
        let answered_in_full = matches!(response.verdict, VerdictKind::Admit | VerdictKind::Reject)
            && !response.degraded;
        out.bad[n] = !answered_in_full;
        let admit = response.verdict == VerdictKind::Admit;
        if answered_in_full && (admit != op.admit || response.hash != Some(op.hash)) {
            out.findings.fail(format!(
                "serve: op {} ({} m={}): got {} hash {:x?}, oracle says admit={} hash {:x}",
                n % len,
                op.kind.name(),
                op.m,
                response.verdict,
                response.hash,
                op.admit,
                op.hash,
            ));
        }
        answered += 1;
        if answered.is_multiple_of(SLICE_OPS) {
            out.marks.push(t1);
        }
    }
    out
}

/// Starts a server on `inputs`, makes the base sets resident and runs
/// the warm-up requests, so that the clock starts on a steady server:
/// a fresh 2-worker server answers one of its first requests tens of
/// milliseconds late, and the default 50 ms breaker may then shed the
/// next window of low-priority requests. That happens here, is
/// reported, and no default is widened to hide it.
#[must_use]
pub fn start(inputs: &ServeInputs, record_trace: bool) -> Live {
    let pool = ServePool::from(Arc::new(InjectorPool::new(SERVE_WORKERS)));
    let (server, rx) = Server::start_on(server_config(inputs, record_trace), pool);
    let mut live = Live {
        server,
        rx,
        first_request_us: 0.0,
        warmup_failed: 0,
    };
    for phase in [&inputs.prime, &inputs.warmup] {
        if phase.is_empty() {
            continue;
        }
        let d = drive(&live, phase, &Until::Count(phase.len()), false);
        if live.first_request_us == 0.0 {
            live.first_request_us = d.lat_ns[0] as f64 / 1e3;
        }
        live.warmup_failed += d.bad.iter().filter(|&&b| b).count() as u64;
    }
    live
}

/// One complete set-up: generated inputs (with the oracle's answers)
/// and a warmed-up server.
pub struct Prepared {
    /// The generated inputs.
    pub inputs: ServeInputs,
    /// The running server.
    pub live: Live,
}

/// Sets a serve workload up from already-generated inputs.
#[must_use]
pub fn set_up(inputs: ServeInputs) -> Prepared {
    let live = start(&inputs, false);
    Prepared { inputs, live }
}

/// Stops a server and returns its report, checking that it answered
/// nothing beyond what was asked.
fn stop(live: Live, findings: &mut Findings) -> ServeReport {
    let report = live.server.shutdown();
    let extra = live.rx.try_iter().count();
    findings.check(extra == 0, || {
        format!("serve: {extra} response(s) nobody asked for")
    });
    report
}

/// Tears a set-up down without looking at it (repeated set-ups).
pub fn discard(prepared: Prepared) {
    let _ = prepared.live.server.shutdown();
}

/// The measured (untraced) phase of a serve workload, possibly made in
/// several parts, each on a server of its own.
pub struct Measured {
    /// Operations in whole cycles.
    pub attempted: u64,
    /// Of those, failed ones.
    pub failed: u64,
    /// One entry per [`SLICE_OPS`] counted operations.
    pub slices: Vec<Slice>,
    /// Latencies of the counted operations.
    pub latency: Samples,
    /// Latencies by request kind.
    pub by_kind: HashMap<OpKind, Samples>,
    /// Each part's final server report.
    pub reports: Vec<ServeReport>,
    /// Warm-up observations of the last measured server.
    pub first_request_us: f64,
    /// Warm-up requests not answered `admit`/`reject`, all parts.
    pub warmup_failed: u64,
    /// Failed oracle checks.
    pub findings: Findings,
}

impl Measured {
    /// Adds the part measured on another server.
    pub fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.slices.extend(other.slices);
        self.latency.absorb(&other.latency);
        for (kind, samples) in &other.by_kind {
            self.by_kind.entry(*kind).or_default().absorb(samples);
        }
        self.reports.extend(other.reports);
        self.first_request_us = other.first_request_us;
        self.warmup_failed += other.warmup_failed;
        self.findings.extend(other.findings);
    }
}

/// Runs the time-boxed measured phase on a prepared server, then stops
/// it and replays admitted sets through the simulator.
#[must_use]
pub fn measure(prepared: Prepared, phase: Duration) -> (Measured, ServeInputs) {
    let Prepared { inputs, live } = prepared;
    let deadline = Instant::now() + phase;
    let d = drive(&live, &inputs.stream, &Until::Deadline(deadline), false);
    let len = inputs.stream.len();
    assert!(len % SLICE_OPS == 0, "a cycle is a whole number of slices");
    // Whole cycles only: the partial cycle the deadline cut is dropped.
    let kept = whole_cycles(d.marks.len() * SLICE_OPS, len);
    let mut slices = Vec::with_capacity(kept / SLICE_OPS);
    let mut from = d.started;
    for (k, &mark) in d.marks[..kept / SLICE_OPS].iter().enumerate() {
        let ops = k * SLICE_OPS..(k + 1) * SLICE_OPS;
        let failed = d.bad[ops.clone()].iter().filter(|&&b| b).count();
        slices.push(Slice::of(&d.lat_ns[ops], failed, mark - from));
        from = mark;
    }
    let failed = d.bad[..kept].iter().filter(|&&b| b).count();
    let mut by_kind: HashMap<OpKind, Samples> = HashMap::new();
    for (n, &lat) in d.lat_ns[..kept].iter().enumerate() {
        by_kind
            .entry(inputs.stream[n % len].kind)
            .or_default()
            .push_ns(lat);
    }
    let mut findings = d.findings;
    findings.check(kept > 0, || "serve: no whole cycle completed".to_string());
    let (first_request_us, warmup_failed) = (live.first_request_us, live.warmup_failed);
    let report = stop(live, &mut findings);
    findings.extend(oracle::replay_admitted(&inputs.replay));
    let measured = Measured {
        attempted: kept as u64,
        failed: failed as u64,
        slices,
        latency: Samples::from_ns(&d.lat_ns[..kept]),
        by_kind,
        reports: vec![report],
        first_request_us,
        warmup_failed,
        findings,
    };
    (measured, inputs)
}

/// Ledger name of a request kind: inline sources split by whether the
/// interner had the set.
fn ledger_kind(kind: OpKind, miss: bool) -> &'static str {
    match (kind, miss) {
        (OpKind::Source, true) => "source_miss",
        (OpKind::Source, false) => "source_hit",
        (OpKind::Hash, _) => "hash",
        (OpKind::Edit, _) => "edit",
    }
}

const LEDGER_KINDS: [&str; 4] = ["source_miss", "source_hit", "hash", "edit"];

#[derive(Default)]
struct Stages {
    decode: Samples,
    execute: Samples,
    encode: Samples,
    server: Samples,
}

/// The traced pass: replays the head of the stream single-threaded
/// through the public calls of each layer, then once more through a
/// `Server` started with the program's own `record_trace` flag, and
/// closes the stage times against the end-to-end latency.
#[must_use]
pub fn layers(
    inputs: &ServeInputs,
    measured: &mut Measured,
    log: &mut SpanLog,
) -> (Metrics, Findings) {
    let mut m = Metrics::default();
    let mut findings = Findings::default();
    let traced = &inputs.stream[..inputs.stream.len().min(TRACED_OPS)];

    // -- untraced run: tails, counters, interner split ------------------
    for kind in OpKind::ALL {
        if let Some(s) = measured.by_kind.get_mut(&kind) {
            m.put(
                format!("serve.latency_us_p99.{}", kind.name()),
                s.percentile_us(99.0),
                s.len(),
            );
        }
    }
    m.put(
        "serve.latency_us_max",
        measured.latency.max_ns() as f64 / 1e3,
        measured.latency.len(),
    );
    let sum = |f: fn(&ServeReport) -> u64| measured.reports.iter().map(f).sum::<u64>() as f64;
    m.count(
        "failed_share",
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    m.count("serve.server.busy", sum(|r| r.busy));
    m.count("serve.server.shed", sum(|r| r.shed));
    m.count("serve.server.errors", sum(|r| r.errors));
    m.count("serve.server.degraded", sum(|r| r.degraded));
    m.count("serve.server.retries", sum(|r| r.retries));
    m.count("serve.server.breaker_opens", sum(|r| r.breaker.opens));
    m.count(
        "serve.server.queue_peak",
        measured
            .reports
            .iter()
            .map(|r| r.queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    m.put(
        "serve.server.first_request_us",
        measured.first_request_us,
        1,
    );
    m.count("serve.server.warmup_failed", measured.warmup_failed as f64);
    m.count(
        "serve.interner.hit_share",
        sum(|r| r.interner.hits) / (sum(|r| r.interner.hits) + sum(|r| r.interner.misses)).max(1.0),
    );
    m.count(
        "serve.interner.memo_hit_share",
        sum(|r| r.interner.memo_hits) / sum(|r| r.accepted).max(1.0),
    );
    m.count("serve.interner.delta_hits", sum(|r| r.interner.delta_hits));
    m.count("serve.interner.evictions", sum(|r| r.interner.evictions));

    // -- stage replay: decode → execute → encode, one thread ------------
    let config = server_config(inputs, false);
    let interner = Interner::new(config.interner_cap);
    let supervisor = Supervisor::new(config.recovery, config.faults.clone());
    let never = CancelToken::never();
    for (seq, op) in inputs.prime.iter().chain(&inputs.warmup).enumerate() {
        let request = parse_request(&op.line).expect("generated request parses");
        black_box(supervisor.execute(seq as u64, &request, &interner, &never));
    }
    let mut stages: HashMap<&'static str, Stages> = HashMap::new();
    let mut labels = Vec::with_capacity(traced.len());
    let mut decode_all = Samples::default();
    let mut encode_all = Samples::default();
    let (mut decode_ns, mut decode_bytes) = (0u64, 0u64);
    for (n, op) in traced.iter().enumerate() {
        let id = n as u64;
        let root = log.open("op.replay", None, id);
        let (request, d_ns) = log.time("serve.protocol.decode", Some(root), id, || {
            parse_request(&op.line).expect("generated request parses")
        });
        let misses_before = interner.stats().misses;
        let (outcome, x_ns) = log.time("serve.supervisor.execute", Some(root), id, || {
            supervisor.execute(id, &request, &interner, &never)
        });
        let miss = interner.stats().misses > misses_before;
        let response = Response {
            id: request.id,
            verdict: outcome.verdict,
            level: outcome.level,
            degraded: outcome.degraded,
            latency_us: x_ns / 1000,
            hash: outcome.hash,
            detail: outcome.detail,
        };
        let (line, e_ns) = log.time("serve.protocol.encode", Some(root), id, || {
            encode_response(&response)
        });
        black_box(line);
        log.close(root);

        findings.check(
            (response.verdict == VerdictKind::Admit) == op.admit && response.hash == Some(op.hash),
            || {
                format!(
                    "serve replay: op {n}: {} differs from the oracle",
                    response.verdict
                )
            },
        );
        let label = ledger_kind(op.kind, miss);
        labels.push(label);
        let s = stages.entry(label).or_default();
        s.decode.push_ns(d_ns);
        s.execute.push_ns(x_ns);
        s.encode.push_ns(e_ns);
        decode_all.push_ns(d_ns);
        encode_all.push_ns(e_ns);
        decode_ns += d_ns;
        decode_bytes += op.line.len() as u64;
    }
    m.put(
        "serve.protocol.decode_us_p50",
        decode_all.percentile_us(50.0),
        decode_all.len(),
    );
    m.put(
        "serve.protocol.decode_us_p99",
        decode_all.percentile_us(99.0),
        decode_all.len(),
    );
    m.put(
        "serve.protocol.decode_ns_per_byte",
        decode_ns as f64 / decode_bytes.max(1) as f64,
        decode_all.len(),
    );
    m.put(
        "serve.protocol.encode_us_p50",
        encode_all.percentile_us(50.0),
        encode_all.len(),
    );

    // -- the same operations through a server, program trace off then on -
    // Both servers are fresh and warmed up alike, so the difference of
    // their medians is the cost of `record_trace` and of nothing else.
    let plain = start(inputs, false);
    let d = drive(&plain, traced, &Until::Count(traced.len()), false);
    findings.extend(d.findings);
    let _ = stop(plain, &mut findings);
    let plain_p50 = Samples::from_ns(&d.lat_ns).percentile_us(50.0);

    let live = start(inputs, true);
    let d = drive(&live, traced, &Until::Count(traced.len()), true);
    findings.extend(d.findings);
    let base = log.now_ns().saturating_sub(nanos(d.started.elapsed()));
    for (n, (&t0, &lat)) in d.submit_ns.iter().zip(&d.lat_ns).enumerate() {
        log.push(
            "serve.server.request",
            base + t0,
            base + t0 + lat,
            None,
            n as u64,
        );
        stages.entry(labels[n]).or_default().server.push_ns(lat);
    }
    let sent_before = (inputs.prime.len() + inputs.warmup.len()) as u64;
    let traced_report = stop(live, &mut findings);
    let traced_p50 = Samples::from_ns(&d.lat_ns).percentile_us(50.0);
    m.count("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50);
    let (mut hop_weighted, mut server_weighted) = (0.0, 0.0);
    for label in LEDGER_KINDS {
        let Some(s) = stages.get_mut(label) else {
            continue;
        };
        let n = s.server.len();
        let work = s.decode.percentile_us(50.0)
            + s.execute.percentile_us(50.0)
            + s.encode.percentile_us(50.0);
        let server_p50 = s.server.percentile_us(50.0);
        m.put(
            format!("serve.supervisor.execute_us_p50.{label}"),
            s.execute.percentile_us(50.0),
            s.execute.len(),
        );
        m.put(
            format!("serve.server.hop_us_p50.{label}"),
            server_p50 - work,
            n,
        );
        hop_weighted += n as f64 * (server_p50 - work);
        server_weighted += n as f64 * server_p50;
    }
    m.count("serve.server.hop_share", hop_weighted / server_weighted);
    if let Some(trace) = &traced_report.trace {
        // The program's own events: how long an accepted request sat in
        // the ingress queue before a worker picked it up.
        // (`JobReleased` is recorded after the push, so a worker can
        // start first; such a wait counts as zero.)
        let mut released: HashMap<u32, u64> = HashMap::new();
        let mut started: HashMap<u32, u64> = HashMap::new();
        for e in &trace.events {
            match e.kind {
                EventKind::JobReleased { job, .. } => released.insert(job, e.time),
                EventKind::NodeStart { job, .. } => started.insert(job, e.time),
                _ => None,
            };
        }
        let mut wait = Samples::default();
        for (job, t) in &released {
            if let (true, Some(s)) = (u64::from(*job) >= sent_before, started.get(job)) {
                wait.push_ns(s.saturating_sub(*t));
            }
        }
        m.put(
            "serve.server.queue_wait_us_p50",
            wait.percentile_us(50.0),
            wait.len(),
        );
    }

    probe_sublayers(inputs, traced, log, &mut m);
    (m, findings)
}

/// Times the calls below `Supervisor::execute` on the traced operations:
/// `.rtp` parse, interner entry points, ladder, edit script, `Dag::edit`
/// and the warm-started RTA.
fn probe_sublayers(inputs: &ServeInputs, traced: &[ServeOp], log: &mut SpanLog, m: &mut Metrics) {
    let never = CancelToken::never();
    let mut parse = Samples::default();
    let (mut miss, mut hit) = (Samples::default(), Samples::default());
    let (mut lookup, mut memo, mut intern_set) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut climb = Samples::default();
    let mut rungs: BTreeMap<LadderLevel, usize> = BTreeMap::new();
    let (mut script, mut apply, mut warm) =
        (Samples::default(), Samples::default(), Samples::default());
    // Capacity 2: consecutive distinct sources always miss (and evict,
    // as the full interner of `admit-cold` does); the immediate repeat
    // always hits.
    let interner = Interner::new(2);
    const REPEAT: u32 = 16;

    for (n, op) in traced.iter().enumerate() {
        let id = n as u64;
        let request = parse_request(&op.line).expect("generated request parses");
        match &request.body {
            RequestBody::Source(source) => {
                let (set, ns) = log.time("core.textfmt.parse", None, id, || {
                    parse_task_set(source).expect("generated source parses")
                });
                parse.push_ns(ns);
                let (outcome, ns) = log.time("serve.ladder.climb", None, id, || {
                    run_ladder(&set, op.m, &never)
                });
                climb.push_ns(ns);
                *rungs.entry(outcome.level).or_default() += 1;

                let before = interner.stats().misses;
                let (first, ns) = log.time("serve.interner.intern", None, id, || {
                    interner.intern(source).expect("generated source interns")
                });
                if interner.stats().misses > before {
                    miss.push_ns(ns);
                } else {
                    hit.push_ns(ns);
                }
                let (_, ns) = log.time("serve.interner.intern", None, id, || {
                    interner.intern(source).expect("generated source interns")
                });
                hit.push_ns(ns);

                let (hash, shared) = first;
                interner.memoize(
                    hash,
                    op.m,
                    MemoOutcome {
                        admit: outcome.admit,
                        level: outcome.level,
                    },
                );
                // Sub-100 ns calls: time a batch, report the mean call.
                let ((), ns) = log.time("serve.interner.lookup", None, id, || {
                    for _ in 0..REPEAT {
                        black_box(interner.lookup(black_box(hash)).is_ok());
                    }
                });
                lookup.push_ns(ns / u64::from(REPEAT));
                let ((), ns) = log.time("serve.interner.memoized", None, id, || {
                    for _ in 0..REPEAT {
                        black_box(interner.memoized(black_box(hash), op.m));
                    }
                });
                memo.push_ns(ns / u64::from(REPEAT));
                let copy = TaskSet::clone(&shared);
                let (_, ns) = log.time("serve.interner.intern_set", None, id, || {
                    interner.intern_set(copy)
                });
                intern_set.push_ns(ns);
            }
            RequestBody::Edit { script: text, .. } => {
                let (ops, ns) = log.time("serve.protocol.edit_script", None, id, || {
                    parse_edit_script(text).expect("generated script parses")
                });
                script.push_ns(ns);
                black_box(ops);
                let edit = &inputs.edits[op.edit.expect("an edit op names its edit")];
                let base = &inputs.bases[edit.base];
                let models = [ConcurrencyModel::LimitedExact];
                let (_, base_warm) =
                    analyze_many_warm(base, op.m, &models, &never, None).expect("never cancelled");
                let task = &base.as_slice()[edit.task];
                let (patched, ns) = log.time("graph.edit.apply", None, id, || {
                    let mut e = task.dag().edit();
                    e.set_wcet(NodeId::from_index(edit.node), edit.wcet);
                    e.apply().expect("a WCET edit is valid").0
                });
                apply.push_ns(ns);
                let mut tasks = base.as_slice().to_vec();
                tasks[edit.task] =
                    Task::new(patched, task.period(), task.deadline()).expect("timing unchanged");
                let edited = TaskSet::new(tasks);
                let (_, ns) = log.time("core.warm_rta", None, id, || {
                    analyze_many_warm(&edited, op.m, &models, &never, Some(&base_warm))
                        .expect("never cancelled")
                });
                warm.push_ns(ns);
            }
            RequestBody::Hash(_) => {}
        }
    }

    let mut put = |name: &str, s: &mut Samples, p: f64, scale: f64| {
        if !s.is_empty() {
            m.put(name, s.percentile_ns(p) as f64 / scale, s.len());
        }
    };
    put("core.textfmt.parse_us_p50", &mut parse, 50.0, 1e3);
    put("serve.interner.intern_miss_us_p50", &mut miss, 50.0, 1e3);
    put("serve.interner.intern_miss_us_p99", &mut miss, 99.0, 1e3);
    put("serve.interner.intern_hit_us_p50", &mut hit, 50.0, 1e3);
    put("serve.interner.intern_hit_us_p99", &mut hit, 99.0, 1e3);
    put("serve.interner.lookup_ns_p50", &mut lookup, 50.0, 1.0);
    put("serve.interner.memo_ns_p50", &mut memo, 50.0, 1.0);
    put(
        "serve.interner.intern_set_us_p50",
        &mut intern_set,
        50.0,
        1e3,
    );
    put("serve.ladder.climb_us_p50", &mut climb, 50.0, 1e3);
    put("serve.ladder.climb_us_p99", &mut climb, 99.0, 1e3);
    put("serve.protocol.edit_script_us_p50", &mut script, 50.0, 1e3);
    put("graph.edit.apply_us_p50", &mut apply, 50.0, 1e3);
    put("core.warm_rta_us_p50", &mut warm, 50.0, 1e3);
    let climbs = climb.len().max(1) as f64;
    for (level, name) in [
        (LadderLevel::Prefilter, "prefilter"),
        (LadderLevel::Deadlock, "deadlock"),
        (LadderLevel::Limited, "limited"),
        (LadderLevel::Exact, "exact"),
    ] {
        m.count(
            format!("serve.ladder.rung_share.{name}"),
            rungs.get(&level).copied().unwrap_or(0) as f64 / climbs,
        );
    }
}
