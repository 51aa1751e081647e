//! The [`ThreadPool`] facade and the v1 dispatch engine: fetch–execute–
//! complete loops over `VecDeque`s behind **one pool mutex**, every wakeup
//! through one broadcast condvar — the Listing-1-faithful reference the
//! differential suites compare the lock-free engine against. Its whole
//! value is that the single lock makes it obviously right, so this file
//! holds only the queues, the fetch/complete steps and the wakes; the job
//! lifecycle around them (supervisor loop, barrier wait, stall detection,
//! fault bookkeeping, tracing, panic isolation) is [`crate::lifecycle`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use rtpool_graph::{Dag, NodeId, NodeKind};
use rtpool_trace::Trace;

use crate::config::{Engine, PoolConfig, QueueDiscipline};
use crate::engine_v2::V2Pool;
use crate::error::ExecError;
use crate::lifecycle::{
    barrier_wait, fake_suspend, maybe_stall, partitioned_fetchable, run_body, spawn_worker,
    supervise, Ctl, FailedAttempt, Fetched, JobTracer, JobView, Snapshot, Wait,
};
use crate::recovery::{RecoveryEvent, RetryCause};
use crate::report::{JobReport, NodeSpan};

/// A pool of native worker threads executing DAG jobs with blocking
/// fork/join semantics.
///
/// Workers are spawned on construction and live until the pool is
/// dropped. Jobs are executed one at a time with [`ThreadPool::run`].
///
/// Failure handling is governed by the configured
/// [`RecoveryPolicy`](crate::RecoveryPolicy):
///
/// * a stalled (deadlocked) job is detected *exactly* and either aborted
///   as [`ExecError::Stalled`] (the pool remains usable), retried with
///   backoff, or resolved by growing the pool with reserve workers;
/// * a panicking node body is isolated with [`std::panic::catch_unwind`]
///   and reported as [`ExecError::NodePanicked`] — pool invariants (the
///   job epoch and the `executing`/`suspended` accounting) stay
///   consistent and subsequent jobs run normally.
///
/// Fault injection for chaos testing is available through
/// [`FaultPlan`](crate::FaultPlan) (see [`PoolConfig::with_faults`]).
///
/// The pool runs on one of two dispatch engines selected by
/// [`PoolConfig::with_engine`](crate::PoolConfig::with_engine): the
/// default mutex/condvar engine ([`Engine::V1Condvar`]) or the lock-free
/// injector/stealer engine ([`Engine::V2LockFree`]). Both expose exactly
/// this API and the same execution semantics.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct ThreadPool {
    imp: PoolImpl,
    /// Event trace of the most recent *failed* attempt (stall, panic, or
    /// watchdog), kept because the failing `run` returns only an error.
    last_trace: Option<Trace>,
    /// Traces of every failed attempt of the current `run` (in attempt
    /// order), retained so retries don't overwrite earlier attempts.
    attempt_traces: Vec<Trace>,
}

/// The engine actually executing jobs behind the [`ThreadPool`] facade.
enum PoolImpl {
    V1(V1Pool),
    V2(V2Pool),
}

/// The v1 engine: all dispatch state behind one mutex, all wakeups
/// through one broadcast condvar.
struct V1Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
}

struct Shared {
    config: PoolConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    shutdown: bool,
    job: Option<Job>,
    steal_rng: u64,
    /// Monotonic job counter: a worker that went to sleep while serving
    /// job `e` must never touch state of job `e+1` (a stalled job can be
    /// aborted and replaced while workers still sleep on its barriers).
    next_epoch: u64,
    /// Epoch-bound rescue workers spawned by `GrowPool` recovery; they
    /// retire when their job ends and are joined on drop.
    rescuers: Vec<thread::JoinHandle<()>>,
}

struct Job {
    epoch: u64,
    dag: Arc<Dag>,
    /// Shared FIFO queue ([`QueueDiscipline::GlobalFifo`]).
    global: VecDeque<NodeId>,
    /// Per-worker queues (partitioned / work stealing); grows when
    /// `GrowPool` recovery adds rescue workers.
    local: Vec<VecDeque<NodeId>>,
    pending: Vec<u32>,
    /// Workers currently executing a node body (or a just-woken join).
    executing: usize,
    /// Workers suspended on a barrier (real or injected).
    suspended: usize,
    /// Of `suspended`, those suspended by an injected fault.
    fake_suspended: usize,
    /// One flag per worker serving the job (base + attached rescuers).
    worker_suspended: Vec<bool>,
    /// Permanent workers (`config.workers`); indices at or above this are
    /// epoch-bound rescue workers added by `GrowPool`.
    base_workers: usize,
    /// Joins whose barrier has opened but whose waiter has not resumed.
    ready_joins: usize,
    /// Per-node spans in completion order.
    spans: Vec<NodeSpan>,
    started: Instant,
    ctl: Ctl,
    tracer: JobTracer,
}

impl Job {
    fn new(
        epoch: u64,
        attempt: usize,
        dag: Arc<Dag>,
        config: &PoolConfig,
        events: Vec<RecoveryEvent>,
    ) -> Self {
        let workers = config.workers;
        let n = dag.node_count();
        let started = Instant::now();
        Job {
            epoch,
            global: VecDeque::new(),
            local: vec![VecDeque::new(); workers],
            pending: dag
                .node_ids()
                .map(|v| u32::try_from(dag.predecessors(v).len()).expect("in-degree fits u32"))
                .collect(),
            executing: 0,
            suspended: 0,
            fake_suspended: 0,
            worker_suspended: vec![false; workers],
            base_workers: workers,
            ready_joins: 0,
            spans: Vec::with_capacity(n),
            started,
            ctl: Ctl::new(attempt, n, config, events),
            tracer: JobTracer::new(config, started),
            dag,
        }
    }
}

/// The v1 side of [`JobView`]: one job (the one of `epoch`) seen through
/// the pool mutex.
struct V1View<'g, 'a> {
    shared: &'a Arc<Shared>,
    st: &'g mut MutexGuard<'a, PoolState>,
    epoch: u64,
}

impl V1View<'_, '_> {
    /// The viewed job, unless it was aborted and detached (or replaced)
    /// while this worker had the lock released.
    fn job(&mut self) -> Option<&mut Job> {
        let epoch = self.epoch;
        self.st.job.as_mut().filter(|j| j.epoch == epoch)
    }
}

impl JobView for V1View<'_, '_> {
    fn parts(&mut self) -> Option<(&mut Ctl, &JobTracer)> {
        self.job().map(|j| (&mut j.ctl, &j.tracer))
    }

    fn snapshot(&self) -> Snapshot {
        let job = self.st.job.as_ref().expect("snapshot of an attached job");
        let workers = job.worker_suspended.len();
        let queued_work = !job.global.is_empty() || job.local.iter().any(|q| !q.is_empty());
        let fetchable = match &self.shared.config.discipline {
            QueueDiscipline::GlobalFifo | QueueDiscipline::WorkStealing { .. } => {
                queued_work && job.suspended < workers
            }
            QueueDiscipline::Partitioned(_) => partitioned_fetchable(
                job.base_workers,
                workers,
                |w| job.worker_suspended[w],
                |w| !job.local[w].is_empty(),
            ),
        };
        Snapshot {
            executing: job.executing,
            ready_joins: job.ready_joins,
            suspended: job.suspended,
            fake: job.fake_suspended,
            queued_work,
            fetchable,
            completed: job.spans.len(),
            nodes: job.dag.node_count(),
            workers,
            growth_budget: job.ctl.growth_budget,
            grow_policy: job.ctl.grow_policy,
        }
    }

    /// `executing` spans node bodies only: an injected suspension
    /// interrupts a worker about to run one, while the worker of a
    /// completed fork has already left it.
    fn suspend(&mut self, worker: usize, fake: bool) -> usize {
        let job = self.job().expect("suspending on an attached job");
        job.executing -= usize::from(fake);
        job.suspended += 1;
        job.fake_suspended += usize::from(fake);
        job.worker_suspended[worker] = true;
        job.worker_suspended.len() - job.suspended
    }

    fn resume(&mut self, worker: usize, fake: bool, woke: bool) {
        let Some(job) = self.job() else {
            return;
        };
        job.suspended -= 1;
        job.fake_suspended -= usize::from(fake);
        job.worker_suspended[worker] = false;
        if woke {
            job.executing += 1;
            job.ready_joins -= usize::from(!fake);
        }
    }

    fn wait(&mut self, how: Wait) -> bool {
        how.on(&self.shared.cv, self.st)
    }

    /// Terminal states live in `ctl.status` under this very lock, so the
    /// broadcast is all a worker needs to observe them.
    fn wake(&mut self, _terminal: bool) {
        self.shared.cv.notify_all();
    }

    fn grow(&mut self, from: usize, to: usize) {
        let epoch = self.epoch;
        let job = self.job().expect("growing an attached job");
        job.local.resize_with(to, VecDeque::new);
        job.worker_suspended.resize(to, false);
        for id in from..to {
            let shared = Arc::clone(self.shared);
            let body = move || worker_loop(&shared, id, Some(epoch));
            self.st.rescuers.push(spawn_worker(id, Some(epoch), body));
        }
        self.shared.cv.notify_all();
    }

    fn close(self) -> Vec<NodeSpan> {
        let job = self.st.job.take().expect("closing an attached job");
        // Wake barrier waiters so they abandon an aborted job, and
        // epoch-bound rescue workers so they retire.
        self.shared.cv.notify_all();
        job.spans
    }
}

impl ThreadPool {
    /// Spawns `config.workers` worker threads on the configured engine.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if `config.workers == 0`, or
    /// if a [`QueueDiscipline::Partitioned`] mapping's pool size differs
    /// from the worker count.
    pub fn try_new(config: PoolConfig) -> Result<Self, ExecError> {
        config.validate()?;
        let imp = match config.engine {
            Engine::V1Condvar => PoolImpl::V1(V1Pool::new(config)),
            Engine::V2LockFree => PoolImpl::V2(V2Pool::new(config)?),
        };
        Ok(ThreadPool {
            imp,
            last_trace: None,
            attempt_traces: Vec::new(),
        })
    }

    /// Spawns `config.workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`ThreadPool::try_new`] rejects.
    #[must_use]
    pub fn new(config: PoolConfig) -> Self {
        ThreadPool::try_new(config).expect("invalid pool configuration")
    }

    fn config(&self) -> &PoolConfig {
        match &self.imp {
            PoolImpl::V1(p) => &p.shared.config,
            PoolImpl::V2(p) => p.config(),
        }
    }

    /// Number of permanent workers (`m`). Rescue workers added by
    /// [`RecoveryPolicy::GrowPool`](crate::RecoveryPolicy::GrowPool) are
    /// job-scoped and not counted.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config().workers
    }

    /// The dispatch engine this pool runs on.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.config().engine
    }

    /// Takes the event trace of the most recent *failed* attempt (stall,
    /// panic, or watchdog timeout), when
    /// [`PoolConfig::record_trace`](crate::PoolConfig::record_trace) is
    /// set. Successful jobs return their trace in
    /// [`JobReport::trace`](crate::JobReport::trace) instead; each call
    /// to [`ThreadPool::run`] clears this slot first.
    #[must_use]
    pub fn take_last_trace(&mut self) -> Option<Trace> {
        self.last_trace.take()
    }

    /// Takes the traces of every *failed* attempt of the most recent
    /// [`ThreadPool::run`], in attempt order, when
    /// [`PoolConfig::record_trace`](crate::PoolConfig::record_trace) is
    /// set. A successful retried run reports the same traces in
    /// [`JobReport::attempt_traces`](crate::JobReport::attempt_traces);
    /// this accessor additionally covers runs whose final attempt failed
    /// (the final attempt's trace is then both the last element here and
    /// in [`ThreadPool::take_last_trace`]). Each call to
    /// [`ThreadPool::run`] clears the backlog first.
    #[must_use]
    pub fn take_attempt_traces(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.attempt_traces)
    }

    /// Executes one job (one instance of `dag`) to completion, applying
    /// the configured [`RecoveryPolicy`](crate::RecoveryPolicy) when the
    /// job stalls or a node
    /// body panics.
    ///
    /// # Errors
    ///
    /// * [`ExecError::IncompatibleJob`] if a partitioned mapping does not
    ///   cover `dag`;
    /// * [`ExecError::Stalled`] when the job deadlocks (exact detection)
    ///   and the policy cannot (or may not) recover it;
    /// * [`ExecError::NodePanicked`] when a node body panics and the
    ///   retry budget (if any) is exhausted;
    /// * [`ExecError::WatchdogTimeout`] if the watchdog fires (runtime
    ///   bug guard, e.g. a lost wakeup).
    pub fn run(&mut self, dag: &Dag) -> Result<JobReport, ExecError> {
        if let QueueDiscipline::Partitioned(mapping) = &self.config().discipline {
            if mapping.node_count() != dag.node_count() {
                return Err(ExecError::IncompatibleJob {
                    message: format!(
                        "mapping covers {} nodes, graph has {}",
                        mapping.node_count(),
                        dag.node_count()
                    ),
                });
            }
        }
        let dag = Arc::new(dag.clone());
        let policy = self.config().recovery.clone();
        self.last_trace = None;
        self.attempt_traces.clear();
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut attempt = 0usize;
        loop {
            let outcome = match &mut self.imp {
                PoolImpl::V1(p) => p.run_attempt(&dag, attempt, &mut events),
                PoolImpl::V2(p) => p.run_attempt(&dag, attempt, &mut events),
            };
            match outcome {
                Ok(mut report) => {
                    report.attempt_traces = std::mem::take(&mut self.attempt_traces);
                    return Ok(report);
                }
                Err(FailedAttempt { error, trace }) => {
                    let cause = match &error {
                        ExecError::Stalled { .. } => RetryCause::Stalled,
                        ExecError::NodePanicked { node, .. } => RetryCause::NodePanicked(*node),
                        ExecError::WatchdogTimeout => RetryCause::WatchdogTimeout,
                        _ => return Err(error),
                    };
                    if attempt >= policy.max_retries() {
                        if let Some(t) = trace {
                            self.attempt_traces.push(t.clone());
                            self.last_trace = Some(t);
                        }
                        return Err(error);
                    }
                    if let Some(t) = trace {
                        self.attempt_traces.push(t);
                    }
                    let delay = policy.backoff_delay(attempt);
                    events.push(RecoveryEvent::Retried {
                        attempt,
                        cause,
                        delay,
                    });
                    thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

impl V1Pool {
    /// Spawns the permanent workers. The configuration was validated by
    /// [`ThreadPool::try_new`].
    fn new(config: PoolConfig) -> Self {
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(PoolState {
                shutdown: false,
                job: None,
                steal_rng: 0x9e37_79b9_7f4a_7c15,
                next_epoch: 0,
                rescuers: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                spawn_worker(id, None, move || worker_loop(&shared, id, None))
            })
            .collect();
        V1Pool { shared, handles }
    }

    /// One execution attempt of the job: installs it under the pool lock
    /// and supervises it to its terminal state.
    fn run_attempt(
        &mut self,
        dag: &Arc<Dag>,
        attempt: usize,
        events: &mut Vec<RecoveryEvent>,
    ) -> Result<JobReport, FailedAttempt> {
        let shared = &self.shared;
        let mut st = shared.state.lock();
        debug_assert!(st.job.is_none(), "runs are serialized by &mut self");
        let epoch = st.next_epoch;
        st.next_epoch += 1;
        let prior = std::mem::take(events);
        let mut job = Job::new(epoch, attempt, Arc::clone(dag), &shared.config, prior);
        enqueue(&shared.config.discipline, &mut job, dag.source(), 0);
        st.job = Some(job);
        shared.cv.notify_all();
        let st = &mut st;
        let view = V1View { shared, st, epoch };
        supervise(view, shared.config.watchdog, events)
    }
}

impl Drop for V1Pool {
    fn drop(&mut self) {
        let rescuers = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            std::mem::take(&mut st.rescuers)
        };
        self.shared.cv.notify_all();
        for h in self.handles.drain(..).chain(rescuers) {
            let _ = h.join();
        }
    }
}

/// Places a ready node in the right queue.
fn enqueue(discipline: &QueueDiscipline, job: &mut Job, node: NodeId, spawner: usize) {
    match discipline {
        QueueDiscipline::GlobalFifo => job.global.push_back(node),
        QueueDiscipline::Partitioned(mapping) => {
            job.local[mapping.thread_of(node).index()].push_back(node);
        }
        QueueDiscipline::WorkStealing { .. } => job.local[spawner].push_back(node),
    }
}

/// Takes the next node for `worker`, if any is reachable.
///
/// Rescue workers (`worker >= job.base_workers`, added by `GrowPool`
/// recovery) under the partitioned discipline serve the queues of
/// *suspended* owners — exactly the nodes that could otherwise strand.
fn fetch(
    discipline: &QueueDiscipline,
    job: &mut Job,
    worker: usize,
    steal_rng: &mut u64,
) -> Option<Fetched> {
    /// Pops `queue` at the front (FIFO) or back (LIFO); `victim` is the
    /// robbed worker when the queue is not the fetcher's own.
    fn pop(queue: &mut VecDeque<NodeId>, lifo: bool, victim: Option<usize>) -> Option<Fetched> {
        let node = if lifo {
            queue.pop_back()
        } else {
            queue.pop_front()
        }?;
        let steal = victim.map(|v| (Some(v), 1));
        Some(Fetched::new(node.index(), queue.len(), steal))
    }
    match discipline {
        QueueDiscipline::GlobalFifo => pop(&mut job.global, false, None),
        QueueDiscipline::Partitioned(_) if worker < job.base_workers => {
            pop(&mut job.local[worker], false, None)
        }
        QueueDiscipline::Partitioned(_) => (0..job.base_workers)
            .find(|&w| job.worker_suspended[w] && !job.local[w].is_empty())
            .and_then(|w| pop(&mut job.local[w], false, Some(w))),
        QueueDiscipline::WorkStealing { .. } => {
            // Local LIFO first (cache-friendly, Eigen-style)...
            if let Some(f) = pop(&mut job.local[worker], true, None) {
                return Some(f);
            }
            // ...then steal the oldest entry of a pseudo-random victim.
            let w = job.local.len();
            *steal_rng ^= *steal_rng << 13;
            *steal_rng ^= *steal_rng >> 7;
            *steal_rng ^= *steal_rng << 17;
            let start = (*steal_rng as usize) % w;
            (0..w)
                .map(|i| (start + i) % w)
                .filter(|&victim| victim != worker)
                .find_map(|victim| pop(&mut job.local[victim], false, Some(victim)))
        }
    }
}

/// Marks `node` (whose body `worker` started at `start`) complete:
/// records its span, resolves successors and opens barriers.
fn complete(
    discipline: &QueueDiscipline,
    job: &mut Job,
    node: NodeId,
    worker: usize,
    start: Duration,
) {
    let dag = Arc::clone(&job.dag);
    job.spans.push(NodeSpan {
        node: node.index(),
        worker,
        start,
        end: job.started.elapsed(),
    });
    for &s in dag.successors(node) {
        job.pending[s.index()] -= 1;
        if job.pending[s.index()] > 0 {
            continue;
        }
        if dag.kind(s) == NodeKind::BlockingJoin {
            job.ctl.join_ready[s.index()] = true;
            job.ready_joins += 1;
        } else {
            enqueue(discipline, job, s, worker);
        }
    }
}

/// The worker body. Permanent workers (`rescue_epoch == None`) serve jobs
/// until shutdown; rescue workers serve exactly the job of their epoch
/// and retire when it ends.
fn worker_loop(shared: &Arc<Shared>, worker: usize, rescue_epoch: Option<u64>) {
    let config = &shared.config;
    let discipline = &config.discipline;
    let faults = config.faults.as_ref();

    let mut st = shared.state.lock();
    'outer: loop {
        // ---- Fetch phase -------------------------------------------------
        let (mut node, epoch, attempt, dag) = loop {
            if st.shutdown {
                return;
            }
            // Split borrows: the steal generator lives beside the job.
            let state = &mut *st;
            match state.job.as_mut() {
                Some(job) => {
                    let epoch = job.epoch;
                    if rescue_epoch.is_some_and(|e| epoch != e) {
                        return; // our job ended; retire
                    }
                    if job.ctl.running() {
                        if let Some(f) = fetch(discipline, job, worker, &mut state.steal_rng) {
                            job.executing += 1;
                            job.tracer.fetched(worker, &f);
                            break (f.node, epoch, job.ctl.attempt, Arc::clone(&job.dag));
                        }
                    }
                    let st = &mut st;
                    maybe_stall(&mut V1View { shared, st, epoch });
                    let job = st.job.as_ref().expect("attached while we hold the lock");
                    job.tracer.set_parked(worker, true);
                }
                None => {
                    if rescue_epoch.is_some() {
                        return; // our job ended; retire
                    }
                }
            }
            shared.cv.wait(&mut st);
        };

        // ---- Execute / barrier / continuation chain ----------------------
        loop {
            let before = faults
                .map(|p| p.before_body(attempt, node.index()))
                .unwrap_or_default();
            let job = st.job.as_mut().expect("executing");
            if let Some(d) = before.suspend {
                job.ctl.note_fault(&job.tracer, node, "suspend_worker");
                let st = &mut st;
                let mut view = V1View { shared, st, epoch };
                if !fake_suspend(&mut view, worker, node, d) {
                    continue 'outer;
                }
            }
            let job = st.job.as_mut().expect("executing");
            if before.panic_body {
                job.ctl.note_fault(&job.tracer, node, "panic_body");
            }
            if before.extra_wcet > 0 {
                job.ctl.note_fault(&job.tracer, node, "jitter_wcet");
            }
            job.tracer.node_start(worker, node);
            let start = job.started.elapsed();
            let wcet = dag.wcet(node) + before.extra_wcet;
            // Run the body without holding the pool lock.
            let body = MutexGuard::unlocked(&mut st, || {
                run_body(wcet, config.time_scale, before.panic_body, node)
            });
            let mut view = V1View {
                shared,
                st: &mut st,
                epoch,
            };
            let Some(job) = view.job() else {
                // The job was aborted (and possibly replaced) while we
                // executed; drop the result.
                continue 'outer;
            };
            job.tracer.node_end(worker, node);
            job.executing -= 1;
            if let Err(message) = body {
                job.ctl.node_panicked(&job.tracer, node, message);
                shared.cv.notify_all();
                continue 'outer;
            }
            complete(discipline, job, node, worker, start);
            if node == dag.sink() {
                job.ctl.job_finished(&job.tracer, job.started.elapsed());
                shared.cv.notify_all();
                continue 'outer;
            }

            let after = faults
                .map(|p| p.after_body(attempt, node.index()))
                .unwrap_or_default();
            if after.swallow_wakeup {
                // Lost-wakeup bug model: successors were resolved but
                // nobody is told. The exact stall detector (rightly) does
                // not cover this; the watchdog must.
                job.ctl.note_fault(&job.tracer, node, "swallow_wakeup");
            } else {
                if let Some(d) = after.delay_wakeup {
                    job.ctl.note_fault(&job.tracer, node, "delay_wakeup");
                    MutexGuard::unlocked(view.st, || thread::sleep(d));
                }
                shared.cv.notify_all();
            }
            // Aborted while the wakeup was delayed, or no barrier to wait on.
            if view.job().is_none() || dag.kind(node) != NodeKind::BlockingFork {
                continue 'outer;
            }
            // Blocking fork: wait on the barrier, then run the join as
            // our continuation.
            let join = dag
                .blocking_join_of(node)
                .expect("validated BF has a paired BJ");
            let spin = config.backend.is_spin();
            if !barrier_wait(&mut view, worker, node, join, spin) {
                continue 'outer;
            }
            node = join; // execute the continuation
        }
    }
}

#[cfg(test)]
mod tests;
