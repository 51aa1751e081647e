//! The job lifecycle both dispatch engines share: everything around the
//! paper's executor model that is *not* synchronisation.
//!
//! The model itself is small — workers fetch ready nodes, the worker of a
//! `BF` node waits on a barrier (Listing 1), the pool stalls when every
//! worker waits — and the two engines differ only in how a ready node
//! travels from its producer to a worker and how that worker is woken
//! (`pool.rs`: `VecDeque`s under one mutex and a broadcast condvar;
//! `engine_v2.rs`: lock-free queues, a packed atomic counter, targeted
//! unparks). This module owns the rest, once:
//!
//! * [`JobTracer`] — the per-lane event recorder with one named emitter
//!   per event of the shared `rtpool-trace` schema;
//! * [`Ctl::note_fault`] and [`run_body`] — the fault-injection bookkeeping
//!   and the panic-isolated node body;
//! * [`Ctl`] / [`Status`] / [`into_outcome`] — the lock-guarded
//!   job state, its terminal states, and the report or error they become;
//! * [`stall_decision`] — the exact stall predicate as a pure function of
//!   a [`Snapshot`], applied by [`maybe_stall`];
//! * [`supervise`] with [`drain_executing`], [`barrier_wait`] and
//!   [`fake_suspend`] — the submitter loop (growth, terminal collection,
//!   watchdog), the Listing-1 barrier wait and the injected suspension,
//!   written over the [`JobView`] trait each engine implements on the
//!   guard it holds.

use std::panic;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use rtpool_graph::NodeId;
use rtpool_trace::{assemble, EngineKind, EventKind, LaneRecorder, SeqClock, TimeUnit, Trace};

use crate::config::PoolConfig;
use crate::error::ExecError;
use crate::recovery::{RecoveryEvent, RecoveryPolicy};
use crate::report::{JobReport, NodeSpan};

/// Spin-loop hint iterations between lock re-acquisitions of a
/// busy-waiting worker ([`crate::SyncBackend::Spin`]). Large enough that
/// the guarding mutex is not hammered, small enough that a barrier
/// opening is observed promptly (the whole point of spinning).
const SPIN_BATCH: u32 = 64;

/// How the holder of an engine's lock waits: every variant releases the
/// lock, waits, and re-acquires it.
pub(crate) enum Wait {
    /// Until notified.
    Notified,
    /// Until notified or the timeout elapses.
    AtMost(Duration),
    /// For one bounded batch of busy-waiting.
    SpinBatch,
}

impl Wait {
    /// Waits on `cv` through `guard`; returns whether a timeout elapsed.
    pub(crate) fn on<T>(self, cv: &Condvar, guard: &mut MutexGuard<'_, T>) -> bool {
        match self {
            Wait::Notified => cv.wait(guard),
            Wait::AtMost(t) => return cv.wait_for(guard, t).timed_out(),
            Wait::SpinBatch => MutexGuard::unlocked(guard, || {
                for _ in 0..SPIN_BATCH {
                    std::hint::spin_loop();
                }
            }),
        }
        false
    }
}

/// Saturating index conversion for trace events.
fn u32c(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Simulates `wcet` units of sequential work.
fn busy_work(wcet: u64, time_scale: Duration) {
    if time_scale.is_zero() || wcet == 0 {
        return;
    }
    thread::sleep(time_scale.saturating_mul(u32::try_from(wcet).unwrap_or(u32::MAX)));
}

/// Runs one node body with panic isolation: `wcet` units of work, then
/// the injected panic when the fault plan asked for one. `Err` carries
/// the panic message.
pub(crate) fn run_body(
    wcet: u64,
    time_scale: Duration,
    inject_panic: bool,
    node: NodeId,
) -> Result<(), String> {
    panic::catch_unwind(|| {
        busy_work(wcet, time_scale);
        if inject_panic {
            panic!("injected fault: node body panic at v{}", node.index());
        }
    })
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

/// Spawns a pool thread under the name the panic-hook filters and the
/// chaos suite rely on: permanent workers are `rtpool-worker-<id>`,
/// epoch-bound rescue workers `rtpool-rescuer-<id>-e<epoch>`.
pub(crate) fn spawn_worker(
    id: usize,
    rescue_epoch: Option<u64>,
    body: impl FnOnce() + Send + 'static,
) -> thread::JoinHandle<()> {
    let name = match rescue_epoch {
        None => format!("rtpool-worker-{id}"),
        Some(e) => format!("rtpool-rescuer-{id}-e{e}"),
    };
    thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("failed to spawn worker thread")
}

/// A fetched node plus dispatch metadata for the trace.
pub(crate) struct Fetched {
    pub(crate) node: NodeId,
    /// Depth of the source queue right after this fetch.
    pub(crate) depth: u32,
    /// `Some((victim, count))` when the node was stolen: `victim` is the
    /// robbed worker (`None` = the shared injector), `count` the nodes
    /// taken.
    pub(crate) steal: Option<(Option<u32>, u32)>,
}

impl Fetched {
    /// Node `node` from a queue now `depth` deep, with its steal
    /// provenance `(victim, count)` if it was not the fetcher's own.
    pub(crate) fn new(node: usize, depth: usize, steal: Option<(Option<usize>, usize)>) -> Self {
        Fetched {
            node: NodeId::from_index(node),
            depth: u32c(depth),
            steal: steal.map(|(victim, count)| (victim.map(u32c), u32c(count))),
        }
    }
}

// ---------------------------------------------------------------------
// Event trace.
// ---------------------------------------------------------------------

/// An event of the pool's only task and the one job it runs at a time.
macro_rules! job_event {
    ($variant:ident { $($fields:tt)* }) => {
        EventKind::$variant { task: 0, job: 0, $($fields)* }
    };
}

/// One trace lane plus the park state of the worker it belongs to.
struct Lane {
    rec: LaneRecorder,
    /// Whether the worker was last seen parked (idle in its fetch loop),
    /// so `ThreadPark`/`ThreadUnpark` are emitted only on transitions.
    parked: bool,
}

struct Lanes {
    clock: SeqClock,
    /// Lane 0 carries control-plane events (job lifecycle, stall
    /// detection, recovery actions); lane `w + 1` belongs to worker `w`.
    lanes: Vec<Mutex<Lane>>,
}

/// Per-job event recorder in the shared `rtpool-trace` schema. Every
/// lane sits behind its own mutex (uncontended on the v1 engine, whose
/// workers already hold the pool lock) and all lanes share one sequence
/// clock; timestamps are taken *inside* the lane lock so concurrent
/// writers cannot invert a lane's time order.
///
/// Every emitter is a no-op — no lock, no clock read, no allocation —
/// when [`PoolConfig::record_trace`] is off.
pub(crate) struct JobTracer {
    started: Instant,
    lanes: Option<Lanes>,
}

impl JobTracer {
    /// A recorder for one job attempt released at `started`, with a lane
    /// for every worker slot the attempt can use (permanent workers plus
    /// the growth reserve). Records the job release; permanent workers
    /// start out parked, rescuers are born active.
    pub(crate) fn new(config: &PoolConfig, started: Instant) -> Self {
        let workers = config.workers;
        let lanes = config.record_trace.then(|| {
            let clock = SeqClock::new();
            let lanes = (0..=workers + config.recovery.growth_reserve())
                .map(|lane| {
                    Mutex::new(Lane {
                        rec: LaneRecorder::new(&clock),
                        parked: (1..=workers).contains(&lane),
                    })
                })
                .collect();
            Lanes { clock, lanes }
        });
        let tracer = JobTracer { started, lanes };
        tracer.emit(0, || [job_event!(JobReleased {})]);
        for w in 0..workers {
            let thread = u32c(w);
            tracer.emit(0, || [EventKind::ThreadPark { task: 0, thread }]);
        }
        tracer
    }

    /// Whether events are being recorded.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.lanes.is_some()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `kinds()` on `lane` under one timestamp; the events are
    /// not even built when tracing is off.
    #[inline]
    fn emit<const N: usize>(&self, lane: usize, kinds: impl FnOnce() -> [EventKind; N]) {
        if let Some(tr) = &self.lanes {
            let mut lane = tr.lanes[lane].lock();
            let now = self.now();
            for kind in kinds() {
                lane.rec.record(now, kind);
            }
        }
    }

    /// `worker` starts the body of `node` and occupies its core.
    #[inline]
    pub(crate) fn node_start(&self, worker: usize, node: NodeId) {
        let (node, thread) = (u32c(node.index()), u32c(worker));
        self.emit(worker + 1, || {
            let occupant = Some((0, thread));
            [
                job_event!(NodeStart { node, thread }),
                EventKind::CoreAssign {
                    core: thread,
                    occupant,
                },
            ]
        });
    }

    /// `worker` finished (or panicked in) the body of `node` and
    /// releases its core.
    #[inline]
    pub(crate) fn node_end(&self, worker: usize, node: NodeId) {
        let (node, thread) = (u32c(node.index()), u32c(worker));
        self.emit(worker + 1, || {
            [
                job_event!(NodeEnd { node, thread }),
                EventKind::CoreAssign {
                    core: thread,
                    occupant: None,
                },
            ]
        });
    }

    /// `worker` starts waiting on the barrier of blocking fork `fork`:
    /// busy-waiting under the spin backend, suspended otherwise.
    #[inline]
    pub(crate) fn barrier_enter(&self, worker: usize, fork: NodeId, spin: bool) {
        let (fork, thread) = (u32c(fork.index()), u32c(worker));
        self.emit(worker + 1, || {
            [if spin {
                job_event!(SpinStart { fork, thread })
            } else {
                job_event!(BarrierSuspend { fork, thread })
            }]
        });
    }

    /// The wait `worker` started with [`JobTracer::barrier_enter`] ended
    /// at `join`.
    #[inline]
    pub(crate) fn barrier_exit(&self, worker: usize, join: NodeId, spin: bool) {
        let (join, thread) = (u32c(join.index()), u32c(worker));
        self.emit(worker + 1, || {
            [if spin {
                job_event!(SpinEnd { join, thread })
            } else {
                job_event!(BarrierWake { join, thread })
            }]
        });
    }

    /// `worker` goes idle (`parked`) or resumes to fetch; `ThreadPark` /
    /// `ThreadUnpark` are recorded only when that is a transition.
    pub(crate) fn set_parked(&self, worker: usize, parked: bool) {
        if let Some(tr) = &self.lanes {
            let mut lane = tr.lanes[worker + 1].lock();
            if std::mem::replace(&mut lane.parked, parked) != parked {
                let (task, thread) = (0, u32c(worker));
                let kind = if parked {
                    EventKind::ThreadPark { task, thread }
                } else {
                    EventKind::ThreadUnpark { task, thread }
                };
                lane.rec.record(self.now(), kind);
            }
        }
    }

    /// The dispatch events of one successful fetch: unpark transition,
    /// steal provenance, post-fetch queue depth.
    #[inline]
    pub(crate) fn fetched(&self, worker: usize, f: &Fetched) {
        if !self.enabled() {
            return;
        }
        self.set_parked(worker, false);
        let (task, thread, depth) = (0, u32c(worker), f.depth);
        if let Some((victim, count)) = f.steal {
            let steal = EventKind::StealBatch {
                task,
                thread,
                victim,
                count,
            };
            self.emit(worker + 1, || [steal]);
        }
        let queue_depth = EventKind::QueueDepth {
            task,
            thread,
            depth,
        };
        self.emit(worker + 1, || [queue_depth]);
    }

    /// The exact stall detector fired with `suspended` workers waiting.
    fn stall_detected(&self, suspended: usize) {
        let suspended = u32c(suspended);
        self.emit(0, || [job_event!(StallDetected { suspended })]);
    }

    /// A fault-injection or recovery transition named `label`. The label
    /// is only turned into a `String` when a trace is being recorded.
    fn recovery(&self, label: &'static str, node: Option<NodeId>) {
        self.emit(0, || {
            [EventKind::Recovery {
                task: 0,
                label: label.to_string(),
                node: node.map(|n| u32c(n.index())),
            }]
        });
    }

    /// `GrowPool` recovery added rescue workers.
    fn grow(&self) {
        self.recovery("pool_grown", None);
    }

    /// Finalizes the trace of a finished (or aborted) attempt from lanes
    /// `0..=workers` (unused rescue-slot lanes are left out so
    /// `trace.cores` reflects the pool that served the job).
    pub(crate) fn finish(&self, workers: usize) -> Option<Trace> {
        let tr = self.lanes.as_ref()?;
        let lanes = tr.lanes[..=workers]
            .iter()
            .map(|l| std::mem::replace(&mut l.lock().rec, LaneRecorder::new(&tr.clock)))
            .collect();
        let (cores, end) = (u32c(workers), self.now());
        Some(assemble(
            EngineKind::Exec,
            TimeUnit::Nanos,
            cores,
            1,
            end,
            lanes,
        ))
    }
}

// ---------------------------------------------------------------------
// Lock-guarded job state, terminal states, outcome.
// ---------------------------------------------------------------------

/// Terminal/liveness state of one job attempt.
#[derive(Clone, Debug)]
pub(crate) enum Status {
    Running,
    /// The sink completed after this makespan.
    Finished(Duration),
    Stalled {
        suspended: usize,
        executed: usize,
    },
    Panicked {
        node: usize,
        message: String,
    },
}

/// The job state both engines keep behind their lock (v1: the pool
/// mutex; v2: the per-job `ctl` mutex, never taken on the dispatch hot
/// path): barrier predicates, recovery bookkeeping, terminal status.
pub(crate) struct Ctl {
    /// Retry attempt (0 = first execution); keys fault-plan decisions.
    pub(crate) attempt: usize,
    pub(crate) status: Status,
    /// Joins whose barrier has opened but whose waiter has not resumed.
    pub(crate) join_ready: Vec<bool>,
    /// Smallest observed `workers − suspended` (the pool's available
    /// concurrency `l(t)`).
    pub(crate) min_available: usize,
    /// A stall was detected and the submitter should try to grow the
    /// pool.
    pub(crate) grow_pending: bool,
    /// Extra workers `GrowPool` may still add for this attempt.
    pub(crate) growth_budget: usize,
    /// The pool runs under a `GrowPool` policy: jobs degrade gracefully
    /// rather than aborting while an injected suspension is pending.
    pub(crate) grow_policy: bool,
    pub(crate) events: Vec<RecoveryEvent>,
}

impl Ctl {
    /// State of attempt number `attempt` on an `nodes`-node graph;
    /// `events` carries the recovery log of earlier attempts.
    pub(crate) fn new(
        attempt: usize,
        nodes: usize,
        config: &PoolConfig,
        events: Vec<RecoveryEvent>,
    ) -> Self {
        Ctl {
            attempt,
            status: Status::Running,
            join_ready: vec![false; nodes],
            min_available: config.workers,
            grow_pending: false,
            growth_budget: config.recovery.growth_reserve(),
            grow_policy: matches!(config.recovery, RecoveryPolicy::GrowPool { .. }),
            events,
        }
    }

    pub(crate) fn running(&self) -> bool {
        matches!(self.status, Status::Running)
    }

    /// The sink completed: the job is finished after `makespan`. The
    /// engine then wakes everyone — v2 only after releasing this lock,
    /// so the submitter does not wake up into a held mutex.
    pub(crate) fn job_finished(&mut self, tracer: &JobTracer, makespan: Duration) {
        if self.running() {
            self.status = Status::Finished(makespan);
            tracer.emit(0, || [job_event!(JobCompleted {})]);
        }
    }

    /// Panic isolation: the body of `node` panicked with `message`. The
    /// first panic decides the attempt's error; the engine wakes everyone.
    pub(crate) fn node_panicked(&mut self, tracer: &JobTracer, node: NodeId, message: String) {
        tracer.recovery("node_panicked", Some(node));
        if self.running() {
            let node = node.index();
            self.status = Status::Panicked { node, message };
        }
    }

    /// Records that the planned fault `label` fired while serving `node`:
    /// once in the job's recovery log, once in the trace.
    pub(crate) fn note_fault(&mut self, tracer: &JobTracer, node: NodeId, label: &'static str) {
        self.events.push(RecoveryEvent::FaultInjected {
            attempt: self.attempt,
            node: node.index(),
            fault: label,
        });
        tracer.recovery(label, Some(node));
    }
}

/// Outcome of one failed execution attempt: the error plus the attempt's
/// event trace (when recording was on). Returned by the engines so the
/// retry loop can retain *every* attempt's trace instead of only the
/// last one.
pub(crate) struct FailedAttempt {
    pub(crate) error: ExecError,
    pub(crate) trace: Option<Trace>,
}

/// Detaches the supervised job and turns its state into the report of a
/// finished attempt or the error of a failed one, whose recovery log goes
/// back into `events` for the next attempt. An attempt detached while
/// still `Running` was aborted by the watchdog.
fn into_outcome<V: JobView>(
    mut view: V,
    events: &mut Vec<RecoveryEvent>,
) -> Result<JobReport, FailedAttempt> {
    let workers = view.snapshot().workers;
    let (ctl, tracer) = view.parts().expect("supervised job stays attached");
    let (status, attempt, min_available) = (ctl.status.clone(), ctl.attempt, ctl.min_available);
    let recovery_events = std::mem::take(&mut ctl.events);
    let trace = tracer.finish(workers);
    let spans = view.close();
    let error = match status {
        Status::Finished(makespan) => {
            return Ok(JobReport {
                makespan,
                executed_nodes: spans.len(),
                completion_order: spans.iter().map(|s| s.node).collect(),
                spans,
                min_available_workers: min_available,
                attempts: attempt + 1,
                recovery_events,
                trace,
                attempt_traces: Vec::new(),
            })
        }
        Status::Stalled {
            suspended,
            executed,
        } => ExecError::Stalled {
            suspended_workers: suspended,
            executed_nodes: executed,
        },
        Status::Panicked { node, message } => ExecError::NodePanicked { node, message },
        Status::Running => ExecError::WatchdogTimeout,
    };
    *events = recovery_events;
    Err(FailedAttempt { error, trace })
}

// ---------------------------------------------------------------------
// Exact stall detection.
// ---------------------------------------------------------------------

/// One consistent view of a job's dispatch state, taken under the
/// engine's lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Snapshot {
    /// Workers executing a node body (or a just-woken join).
    pub(crate) executing: usize,
    /// Joins whose barrier has opened but whose waiter has not resumed.
    pub(crate) ready_joins: usize,
    /// Workers waiting on a barrier (real or injected).
    pub(crate) suspended: usize,
    /// Of `suspended`, those suspended by an injected fault — their
    /// deadline is guaranteed to expire, so a stall involving them can be
    /// transient.
    pub(crate) fake: usize,
    /// Some ready node sits in a queue.
    pub(crate) queued_work: bool,
    /// Some queued node is reachable by a worker that is not suspended.
    pub(crate) fetchable: bool,
    /// Nodes completed so far. Engines must read it *after* `executing`:
    /// a completion is counted before its worker stops executing, so
    /// `executing == 0` implies this count is final.
    pub(crate) completed: usize,
    pub(crate) nodes: usize,
    /// Workers serving the job (base + attached rescuers).
    pub(crate) workers: usize,
    pub(crate) growth_budget: usize,
    pub(crate) grow_policy: bool,
}

/// What the stall detector concludes from a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The job can still progress on its own (or is complete).
    Live,
    /// It cannot, but a rescue worker could serve the queued work.
    Grow,
    /// It cannot right now, but an injected suspension is in flight under
    /// a `GrowPool` policy: its deadline is guaranteed to expire and
    /// re-evaluate, so the stall is transient — do not abort a job that
    /// will wake up, even with an exhausted growth budget.
    WaitForInjected,
    /// The deadlock of the paper's Section 3.
    Stalled,
}

/// The exact stall predicate: nobody executing, no join about to wake,
/// and no queued node reachable by a non-suspended worker, while nodes
/// remain.
pub(crate) fn stall_decision(s: &Snapshot) -> Verdict {
    if s.completed == s.nodes || s.executing > 0 || s.ready_joins > 0 || s.fetchable {
        Verdict::Live
    } else if s.growth_budget > 0 && s.queued_work {
        Verdict::Grow
    } else if s.grow_policy && s.fake > 0 {
        Verdict::WaitForInjected
    } else {
        Verdict::Stalled
    }
}

/// Fetchability under the partitioned discipline: an owner that is not
/// suspended has queued work, or a rescue worker is free while a
/// suspended owner's queue holds work (exactly the nodes rescuers serve).
pub(crate) fn partitioned_fetchable(
    base_workers: usize,
    workers: usize,
    suspended: impl Fn(usize) -> bool,
    has_work: impl Fn(usize) -> bool,
) -> bool {
    (0..base_workers).any(|w| !suspended(w) && has_work(w))
        || ((base_workers..workers).any(|w| !suspended(w))
            && (0..base_workers).any(|w| suspended(w) && has_work(w)))
}

// ---------------------------------------------------------------------
// The engine-facing view and the code written over it.
// ---------------------------------------------------------------------

/// One job as seen through the lock an engine guards it with: v1
/// implements this on its `MutexGuard<PoolState>`, v2 on `JobCore` plus
/// its `ctl` guard. Everything here runs with that lock held.
pub(crate) trait JobView {
    /// The lock-guarded job state and the tracer; `None` once the job
    /// was detached (the v1 epoch guard: an aborted job can be replaced
    /// while its workers still sleep).
    fn parts(&mut self) -> Option<(&mut Ctl, &JobTracer)>;
    /// Whether the job is attached and not over. Every waiter's
    /// predicate, so it reads lock-guarded state only: whoever ends the
    /// job does so under the lock and notifies afterwards, and a waiter
    /// that saw `true` is by then in its wait.
    fn alive(&mut self) -> bool {
        self.parts().is_some_and(|(ctl, _)| ctl.running())
    }
    /// The dispatch state of the (attached) job.
    fn snapshot(&self) -> Snapshot;
    /// Marks `worker` suspended (`fake`: by an injected fault), giving
    /// up the executing slot if it still holds one; returns the workers
    /// left available, `l(t)`.
    fn suspend(&mut self, worker: usize, fake: bool) -> usize;
    /// Ends the suspension of `worker`; when `woke` it executes again,
    /// and a real barrier consumes its ready join.
    fn resume(&mut self, worker: usize, fake: bool, woke: bool);
    /// Waits on the lock's condvar; returns whether a timeout elapsed.
    fn wait(&mut self, how: Wait) -> bool;
    /// Wakes everyone waiting on the lock's condvar; when `terminal`
    /// also makes every worker observe that the job is over.
    fn wake(&mut self, terminal: bool);
    /// Puts worker slots `from..to` into service and spawns a rescue
    /// worker on each.
    fn grow(&mut self, from: usize, to: usize);
    /// Detaches the job from the pool; returns its per-node spans in
    /// completion order.
    fn close(self) -> Vec<NodeSpan>;
}

/// Handles the state where the job can never progress on its own:
/// requests pool growth, waits out a pending injected suspension, or
/// declares the stall.
pub(crate) fn maybe_stall(view: &mut impl JobView) {
    let Some((ctl, _)) = view.parts() else {
        return;
    };
    if !ctl.running() || ctl.grow_pending {
        return;
    }
    let snap = view.snapshot();
    let verdict = stall_decision(&snap);
    let (ctl, tracer) = view.parts().expect("attached above");
    match verdict {
        Verdict::Live | Verdict::WaitForInjected => {}
        Verdict::Grow => {
            ctl.grow_pending = true;
            view.wake(false);
        }
        Verdict::Stalled => {
            ctl.status = Status::Stalled {
                suspended: snap.suspended,
                executed: snap.completed,
            };
            tracer.stall_detected(snap.suspended);
            view.wake(true);
        }
    }
}

/// Starts a suspension of `worker` at `node`. Barrier waits and injected
/// suspensions are accounted identically, so the stall detector and
/// recovery reason about both — and backend-independently: a spinner is
/// just as unable to serve other nodes as a suspended worker.
fn suspend(view: &mut impl JobView, worker: usize, node: NodeId, fake: bool, spin: bool) {
    let available = view.suspend(worker, fake);
    let (ctl, tracer) = view.parts().expect("suspending on an attached job");
    ctl.min_available = ctl.min_available.min(available);
    tracer.barrier_enter(worker, node, spin);
}

/// Ends the suspension at `node` (the join for a barrier). An abandoned
/// suspension stays parked and leaves its `BarrierSuspend` dangling; a
/// spinner observes the terminal state and stops burning its core, so
/// its window closes here.
fn resume(
    view: &mut impl JobView,
    worker: usize,
    node: NodeId,
    fake: bool,
    spin: bool,
    woke: bool,
) {
    view.resume(worker, fake, woke);
    if woke || spin {
        if let Some((_, tracer)) = view.parts() {
            tracer.barrier_exit(worker, node, spin);
        }
    }
}

/// The barrier wait of Listing 1: `worker` completed blocking fork
/// `fork` and waits — on the condvar, or busy-waiting under the spin
/// backend — until `join` is ready to run as its continuation. Returns
/// `false` if the job ended (or was replaced) meanwhile.
pub(crate) fn barrier_wait(
    view: &mut impl JobView,
    worker: usize,
    fork: NodeId,
    join: NodeId,
    spin: bool,
) -> bool {
    suspend(view, worker, fork, false, spin);
    let woke = loop {
        maybe_stall(view);
        if !view.alive() {
            break false;
        }
        let (ctl, _) = view.parts().expect("a live job is attached");
        if std::mem::take(&mut ctl.join_ready[join.index()]) {
            break true;
        }
        view.wait(if spin {
            Wait::SpinBatch
        } else {
            Wait::Notified
        });
    };
    resume(view, worker, join, false, spin, woke);
    woke
}

/// Artificially suspends `worker` for `dur` before it serves `node` (an
/// injected fault), traced as a barrier wait on that node. Returns
/// `false` if the job ended (or was replaced) meanwhile.
pub(crate) fn fake_suspend(
    view: &mut impl JobView,
    worker: usize,
    node: NodeId,
    dur: Duration,
) -> bool {
    let deadline = Instant::now() + dur;
    suspend(view, worker, node, true, false);
    let woke = loop {
        maybe_stall(view);
        if !view.alive() {
            break false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break true;
        }
        view.wait(Wait::AtMost(left));
    };
    resume(view, worker, node, true, false, woke);
    if woke {
        view.wake(false);
    }
    woke
}

/// Waits — bounded by one watchdog budget — for workers that are
/// mid-body to record their terminal trace events (`NodeEnd`, core
/// release) before an aborted attempt's job is detached, so the failed
/// attempt's trace never loses events from a sibling that was still
/// executing when the abort condition was observed.
///
/// Polls rather than relying purely on notification: a fault-injected
/// lost wakeup (`swallow_wakeup`) must not turn the drain into a
/// watchdog-length sleep after `executing` has already dropped to 0.
fn drain_executing(view: &mut impl JobView, watchdog: Duration) {
    let deadline = Instant::now() + watchdog;
    while view.snapshot().executing > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        view.wait(Wait::AtMost(left.min(Duration::from_millis(5))));
    }
}

/// The submitter's side of one execution attempt: serves growth
/// requests, collects the terminal state, and runs the watchdog.
/// `events` carries recovery events of earlier attempts out again when
/// this one fails (so a successful retry reports the full history).
pub(crate) fn supervise<V: JobView>(
    mut view: V,
    watchdog: Duration,
    events: &mut Vec<RecoveryEvent>,
) -> Result<JobReport, FailedAttempt> {
    // An injected suspension or a pending growth means a state change is
    // guaranteed; only silent no-progress indicates a runtime bug.
    fn silent(view: &mut impl JobView, last_progress: usize) -> bool {
        let snap = view.snapshot();
        let (ctl, _) = view.parts().expect("supervised job stays attached");
        ctl.running() && !ctl.grow_pending && snap.fake == 0 && snap.completed == last_progress
    }
    let mut last_progress = 0usize;
    loop {
        let snap = view.snapshot();
        let (ctl, tracer) = view.parts().expect("supervised job stays attached");
        if std::mem::take(&mut ctl.grow_pending) {
            // Re-validate under the lock: the stall may have resolved (an
            // injected suspension expired) before we got here.
            if ctl.running()
                && snap.executing == 0
                && snap.ready_joins == 0
                && snap.completed < snap.nodes
                && ctl.growth_budget > 0
            {
                let added = (snap.suspended + 1)
                    .saturating_sub(snap.workers)
                    .clamp(1, ctl.growth_budget);
                ctl.growth_budget -= added;
                let total_workers = snap.workers + added;
                ctl.events.push(RecoveryEvent::PoolGrown {
                    attempt: ctl.attempt,
                    added,
                    total_workers,
                });
                tracer.grow();
                view.grow(snap.workers, total_workers);
            }
            continue;
        }
        if !ctl.running() {
            if matches!(ctl.status, Status::Panicked { .. }) {
                // A sibling may still be mid-body.
                drain_executing(&mut view, watchdog);
            }
            return into_outcome(view, events);
        }
        let timed_out = view.wait(Wait::AtMost(watchdog));
        if timed_out && silent(&mut view, last_progress) {
            drain_executing(&mut view, watchdog);
            // The drain may have surfaced progress; re-dispatch instead
            // of aborting a live job.
            if silent(&mut view, last_progress) {
                view.wake(true);
                return into_outcome(view, events);
            }
        }
        last_progress = snap.completed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1(c) on m = 2: both workers took a blocking fork and wait;
    /// the children sit in the queue with nobody left to fetch them.
    const FIGURE_1C: Snapshot = Snapshot {
        executing: 0,
        ready_joins: 0,
        suspended: 2,
        fake: 0,
        queued_work: true,
        fetchable: false,
        completed: 3,
        nodes: 12,
        workers: 2,
        growth_budget: 0,
        grow_policy: false,
    };

    #[test]
    fn stall_decision_table() {
        let cases = [
            ("figure 1(c)", FIGURE_1C, Verdict::Stalled),
            (
                // The v2 false stall: the sink's completion is counted
                // and its worker gone — nothing queued, nobody executing,
                // and nothing left to do.
                "job end",
                Snapshot {
                    suspended: 0,
                    queued_work: false,
                    completed: 258,
                    nodes: 258,
                    ..FIGURE_1C
                },
                Verdict::Live,
            ),
            (
                "someone executing",
                Snapshot {
                    executing: 1,
                    suspended: 1,
                    ..FIGURE_1C
                },
                Verdict::Live,
            ),
            (
                "a join is about to wake",
                Snapshot {
                    ready_joins: 1,
                    ..FIGURE_1C
                },
                Verdict::Live,
            ),
            (
                "queued work a free worker can reach",
                Snapshot {
                    suspended: 1,
                    fetchable: true,
                    ..FIGURE_1C
                },
                Verdict::Live,
            ),
            (
                "budget left and queued work",
                Snapshot {
                    growth_budget: 1,
                    grow_policy: true,
                    ..FIGURE_1C
                },
                Verdict::Grow,
            ),
            (
                "budget left but nothing a rescuer could serve",
                Snapshot {
                    growth_budget: 1,
                    grow_policy: true,
                    queued_work: false,
                    ..FIGURE_1C
                },
                Verdict::Stalled,
            ),
            (
                "GrowPool, budget spent, injected suspension in flight",
                Snapshot {
                    fake: 1,
                    grow_policy: true,
                    ..FIGURE_1C
                },
                Verdict::WaitForInjected,
            ),
            (
                "injected suspension without a GrowPool policy",
                Snapshot {
                    fake: 1,
                    ..FIGURE_1C
                },
                Verdict::Stalled,
            ),
            (
                "growth wins over waiting",
                Snapshot {
                    fake: 1,
                    growth_budget: 2,
                    grow_policy: true,
                    ..FIGURE_1C
                },
                Verdict::Grow,
            ),
        ];
        for (name, snapshot, expected) in cases {
            assert_eq!(stall_decision(&snapshot), expected, "{name}");
        }
    }

    #[test]
    fn partitioned_fetchability() {
        // Two owners, one rescuer slot; worker 0 suspended with work.
        let suspended = |w: usize| w == 0;
        let has_work = |w: usize| w == 0;
        assert!(!partitioned_fetchable(2, 2, suspended, has_work));
        assert!(partitioned_fetchable(2, 3, suspended, has_work));
        // A free owner with queued work needs no rescuer.
        assert!(partitioned_fetchable(2, 2, suspended, |w| w == 1));
        // A suspended rescuer serves nobody.
        assert!(!partitioned_fetchable(2, 3, |w| w != 1, has_work));
    }

    #[test]
    fn untraced_tracer_records_nothing() {
        use crate::config::QueueDiscipline;
        let config = PoolConfig::new(2, QueueDiscipline::GlobalFifo);
        let tracer = JobTracer::new(&config, Instant::now());
        assert!(!tracer.enabled());
        tracer.node_start(0, NodeId::from_index(0));
        tracer.set_parked(1, true);
        assert!(tracer.finish(2).is_none());
    }

    #[test]
    fn park_events_only_on_transitions() {
        use crate::config::QueueDiscipline;
        let config = PoolConfig::new(1, QueueDiscipline::GlobalFifo).with_trace();
        let tracer = JobTracer::new(&config, Instant::now());
        tracer.set_parked(0, true); // released parked: no event
        tracer.set_parked(0, false);
        tracer.set_parked(0, false);
        tracer.set_parked(0, true);
        let trace = tracer.finish(1).expect("tracing on");
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            ["JobReleased", "ThreadPark", "ThreadUnpark", "ThreadPark"]
        );
    }

    #[test]
    fn run_body_isolates_the_injected_panic() {
        let node = NodeId::from_index(3);
        assert_eq!(run_body(0, Duration::ZERO, false, node), Ok(()));
        let message = run_body(0, Duration::ZERO, true, node).unwrap_err();
        assert!(message.contains("v3"), "{message}");
    }
}
