//! The v2 dispatch engine: lock-free injector/stealer queues with atomic
//! sequence-count parking barriers.
//!
//! The v1 engine (`pool.rs`) serializes every dispatch decision under one
//! pool mutex and wakes workers with a broadcast condvar — faithful to
//! Listing 1 of the paper, but every node completion pays a lock
//! round-trip plus an `m`-wide thundering herd. This engine removes both
//! costs from the dispatch hot path:
//!
//! * ready nodes travel through **lock-free queues** (a bounded MPMC
//!   injector for the global discipline, Chase-Lev deques plus an
//!   injector for work stealing, per-worker injectors for partitioned);
//! * all bookkeeping the exact stall detector needs lives in **one packed
//!   `AtomicU64`** (`queued | executing | suspended | fake | ready_joins`)
//!   so a single load yields a consistent snapshot;
//! * idle workers sleep via **atomic parking** (`thread::park`) and are
//!   woken *individually*: a completion that readies one node unparks
//!   exactly one worker instead of broadcasting to all `m`.
//!
//! A condvar (per-job `ctl`) survives in exactly one place: the
//! Listing-1 **blocking-join suspension**. The paper's model *requires*
//! the worker that completed a `BF` node to suspend until the barrier
//! opens and then run the `BJ` continuation itself; that is a
//! wait-for-predicate, not a wait-for-work, and a condvar is the honest
//! primitive for it. Artificial (fault-injected) suspensions and the
//! submitter's watchdog wait share the same condvar — none of them are on
//! the dispatch path.
//!
//! ## What this file owns
//!
//! Only what *is* the engine: the queues ([`QueuesV2`]), the packed
//! counter with the per-discipline fetch protocols that keep it honest,
//! completion with chaining, and parking with ramped wake-ups. The job
//! lifecycle around them — the submitter's supervisor loop, the barrier
//! and injected-suspension wait, the stall decision, fault bookkeeping,
//! panic isolation, tracing, the terminal report — is
//! [`crate::lifecycle`], shared with the v1 engine and reached through
//! [`V2View`]: this engine's [`JobView`] over `JobCore` plus the `ctl`
//! guard.
//!
//! ## Memory ordering
//!
//! Every atomic here uses `SeqCst`, so all reasoning can be done in one
//! total order. The lost-wakeup-freedom argument is Dekker-style:
//!
//! * a producer *pushes* the node (and increments `queued`) **before**
//!   scanning for a parked worker to unpark;
//! * a consumer *publishes* `PARKED` **before** re-checking the queues
//!   one final time and calling `thread::park`.
//!
//! In the `SeqCst` total order either the consumer's publish precedes the
//! producer's scan (the scan sees `PARKED` and unparks — `unpark` before
//! `park` leaves a token, so the park returns immediately) or the
//! producer's push precedes the consumer's re-check (the re-check sees
//! the node and the consumer un-parks itself). There is no interleaving
//! in which the node is pushed, the worker sleeps, and nobody is woken.
//!
//! The stall detector's soundness relies on one invariant: at every
//! instant of a node hand-off, the counter shows the node in `queued`
//! or its worker in `executing` (or both) — never neither. The fetch
//! protocol maintains it per discipline:
//!
//! * **Partitioned** pre-increments — the worker enters `executing`
//!   *before* popping its injector and backs the increment out on
//!   failure (targeted wakes mean a pop can race its own owner);
//! * **Global / work stealing** post-swaps — a successful pop is
//!   followed by one `fetch_add(EXEC_ONE − QUEUED_ONE)`, atomically
//!   moving the node from `queued` to `executing`;
//! * a **completer** publishes all ready successors with a single
//!   folded `fetch_add(n × QUEUED_ONE)` while still counted
//!   `executing`, then either *chains* — pops its next node physically
//!   and converts with `fetch_sub(QUEUED_ONE)`, staying in `executing`
//!   throughout (the steady state costs one counter RMW per node) — or
//!   leaves `executing` once nothing is fetchable.
//!
//! Any in-flight transfer therefore shows `queued ≥ 1` or
//! `executing ≥ 1` to the detector, so "no worker executing, nothing
//! fetchable" can never be observed mid-handoff. What the detector reads
//! *beside* the counter needs its own care (see [`V2View::snapshot`]):
//! the completion ticket is read after the counter, and a scan of the
//! partitioned queues counts only if counter and ticket did not move
//! across it.
//!
//! Wake-ups are **ramped, not broadcast**: a completion unparks at most
//! one worker however many successors it readied, and each worker that
//! subsequently fetches a node while the queues are still non-empty
//! recruits one more. Throughput-neutral for chains (width 1), and for
//! wide fan-outs the recruitment doubles the active set per dispatch
//! round while saving the per-job `m`-wide futex storm that broadcast
//! wakes cost at every fork.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::Instant;

use crossbeam_deque::{Injector, Steal, Stealer, Worker as CbWorker};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rtpool_graph::{Dag, NodeId, NodeKind};

use crate::config::{PoolConfig, QueueDiscipline};
use crate::error::ExecError;
use crate::lifecycle::{
    barrier_wait, fake_suspend, maybe_stall, partitioned_fetchable, run_body, spawn_worker,
    supervise, Ctl, FailedAttempt, Fetched, JobTracer, JobView, Snapshot, Wait,
};
use crate::recovery::RecoveryEvent;
use crate::report::{JobReport, NodeSpan};

// ---------------------------------------------------------------------
// Packed dispatch counter: queued:24 | executing:8 | suspended:8 |
// fake:8 | ready_joins:16. One fetch_add updates any combination; one
// load yields a consistent snapshot for the stall detector.
// ---------------------------------------------------------------------

const QUEUED_ONE: u64 = 1;
const QUEUED_MASK: u64 = (1 << 24) - 1;
const EXEC_ONE: u64 = 1 << 24;
const SUSP_ONE: u64 = 1 << 32;
const FAKE_ONE: u64 = 1 << 40;
const RJ_ONE: u64 = 1 << 48;

/// Decoded snapshot of the packed dispatch counter.
#[derive(Clone, Copy)]
struct Counts {
    queued: usize,
    executing: usize,
    suspended: usize,
    fake: usize,
    ready_joins: usize,
}

fn unpack(v: u64) -> Counts {
    Counts {
        queued: (v & QUEUED_MASK) as usize,
        executing: ((v >> 24) & 0xFF) as usize,
        suspended: ((v >> 32) & 0xFF) as usize,
        fake: ((v >> 40) & 0xFF) as usize,
        ready_joins: (v >> 48) as usize,
    }
}

// Parking protocol states (one AtomicU32 per worker slot).
const ACTIVE: u32 = 0;
const PARKED: u32 = 1;
const NOTIFIED: u32 = 2;

/// The v2 engine's 8-bit `executing`/`suspended` counter fields bound the
/// worker count (permanent plus growth reserve).
const MAX_WORKERS_V2: usize = 255;

/// Largest graph the 16-bit `ready_joins` field can serve.
const MAX_NODES_V2: usize = (1 << 16) - 1;

// ---------------------------------------------------------------------
// Pool shell: permanent workers + a job slot they watch.
// ---------------------------------------------------------------------

/// The v2 engine behind the [`ThreadPool`](crate::ThreadPool) facade.
pub(crate) struct V2Pool {
    shared: Arc<Shared2>,
    handles: Vec<thread::JoinHandle<()>>,
    next_epoch: u64,
}

struct Shared2 {
    config: PoolConfig,
    slot: Mutex<JobSlot>,
    /// Wakes idle permanent workers when a job is installed (or the pool
    /// shuts down). Not on the dispatch path.
    cv: Condvar,
    /// Epoch-bound rescue workers spawned by `GrowPool` recovery; they
    /// retire when their job ends and are joined on drop.
    rescuers: Mutex<Vec<thread::JoinHandle<()>>>,
}

struct JobSlot {
    shutdown: bool,
    job: Option<Arc<JobCore>>,
}

/// The ready-node queues of one job.
enum QueuesV2 {
    /// One shared MPMC injector (global FIFO discipline).
    Global(Injector<usize>),
    /// One injector per worker slot, fed by the node-to-thread mapping.
    Partitioned(Vec<Injector<usize>>),
    /// Chase-Lev deque per worker slot (local LIFO pop, FIFO steals)
    /// plus a shared injector for externally submitted nodes.
    WorkStealing {
        injector: Injector<usize>,
        /// Slot `w` holds worker `w`'s deque until that worker attaches
        /// and takes it (the `Worker` endpoint is single-owner).
        deques: Vec<Mutex<Option<CbWorker<usize>>>>,
        stealers: Vec<Stealer<usize>>,
    },
}

/// All state of one job attempt, shared by the submitter and every
/// serving worker through an `Arc`.
struct JobCore {
    /// Retry attempt, readable without `ctl` (keys fault-plan decisions).
    attempt: usize,
    /// Names this job's rescue workers.
    epoch: u64,
    dag: Arc<Dag>,
    started: Instant,
    /// Permanent workers; indices at or above this are rescue slots.
    base_workers: usize,
    /// Worker slots currently in service (base + attached rescuers).
    active: AtomicUsize,
    /// The packed dispatch counter (see module docs).
    ctr: AtomicU64,
    /// Terminal flag: set (after `ctl.status` leaves `Running`) on
    /// finish, stall, panic, and watchdog abort. The fetch loops poll
    /// it; whoever *waits* on `cv` checks [`JobView::alive`] instead.
    done: AtomicBool,
    pending: Vec<AtomicU32>,
    queues: QueuesV2,
    parking: Vec<AtomicU32>,
    threads: Vec<Mutex<Option<Thread>>>,
    worker_suspended: Vec<AtomicBool>,
    /// Completion tickets: `spans[ticket]` records the node, worker and
    /// timing of the `ticket`-th completion.
    ticket: AtomicUsize,
    spans: Vec<OnceLock<NodeSpan>>,
    /// Rarely-touched job state: barrier predicates, recovery
    /// bookkeeping, and the terminal status. Never locked on the dispatch
    /// hot path.
    ctl: Mutex<Ctl>,
    /// Waits: blocking-join barriers, injected suspensions, watchdog.
    cv: Condvar,
    /// Barrier waits busy-wait instead of sleeping on `cv`
    /// ([`crate::SyncBackend::Spin`]). A spinning worker never enters
    /// the parked set and is traced with `SpinStart`/`SpinEnd`.
    spin: bool,
    tracer: JobTracer,
}

impl JobCore {
    fn new(
        attempt: usize,
        epoch: u64,
        dag: Arc<Dag>,
        config: &PoolConfig,
        events: Vec<RecoveryEvent>,
    ) -> Self {
        let n = dag.node_count();
        let workers = config.workers;
        let capacity = workers + config.recovery.growth_reserve();
        let pending = dag
            .node_ids()
            .map(|v| {
                AtomicU32::new(
                    u32::try_from(dag.predecessors(v).len()).expect("in-degree fits u32"),
                )
            })
            .collect();
        let queue_cap = n + capacity + 2;
        let queues = match &config.discipline {
            QueueDiscipline::GlobalFifo => QueuesV2::Global(Injector::new(queue_cap)),
            QueueDiscipline::Partitioned(_) => {
                QueuesV2::Partitioned((0..capacity).map(|_| Injector::new(queue_cap)).collect())
            }
            QueueDiscipline::WorkStealing { .. } => {
                let owned: Vec<CbWorker<usize>> =
                    (0..capacity).map(|_| CbWorker::new_lifo(n + 2)).collect();
                let stealers = owned.iter().map(CbWorker::stealer).collect();
                QueuesV2::WorkStealing {
                    injector: Injector::new(queue_cap),
                    deques: owned.into_iter().map(|d| Mutex::new(Some(d))).collect(),
                    stealers,
                }
            }
        };
        let started = Instant::now();
        // Every per-slot array is preallocated to `capacity`
        // (base + growth reserve), so growth never reallocates shared state.
        JobCore {
            attempt,
            epoch,
            started,
            base_workers: workers,
            active: AtomicUsize::new(workers),
            ctr: AtomicU64::new(0),
            done: AtomicBool::new(false),
            pending,
            queues,
            parking: (0..capacity).map(|_| AtomicU32::new(ACTIVE)).collect(),
            threads: (0..capacity).map(|_| Mutex::new(None)).collect(),
            worker_suspended: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            ticket: AtomicUsize::new(0),
            spans: (0..n).map(|_| OnceLock::new()).collect(),
            ctl: Mutex::new(Ctl::new(attempt, n, config, events)),
            cv: Condvar::new(),
            spin: config.backend.is_spin(),
            tracer: JobTracer::new(config, started),
            dag,
        }
    }
}

/// The v2 side of [`JobView`]: one job seen through its `ctl` lock.
struct V2View<'g, 'a> {
    shared: &'a Arc<Shared2>,
    core: &'a Arc<JobCore>,
    ctl: &'g mut MutexGuard<'a, Ctl>,
}

impl JobView for V2View<'_, '_> {
    fn parts(&mut self) -> Option<(&mut Ctl, &JobTracer)> {
        Some((&mut **self.ctl, &self.core.tracer))
    }

    /// `ctl.status` is the waiters' predicate — a job end is written
    /// there under `ctl` but published to `done` only after the lock is
    /// released. `done` alone means the watchdog gave up, under `ctl`.
    fn alive(&mut self) -> bool {
        self.ctl.running() && !self.core.done.load(SeqCst)
    }

    /// One consistent snapshot of the packed counter plus the state kept
    /// beside it. All suspension transitions happen under `ctl`, and the
    /// fetch protocols guarantee in-flight dispatches show `queued ≥ 1`
    /// or `executing ≥ 1`.
    ///
    /// * The counter is read *before* the completion ticket: a completer
    ///   bumps the ticket before it releases its executing slot, so
    ///   `executing == 0` implies the ticket read afterwards is final.
    ///   The other order lets the sink's `ticket += 1; ctr −= EXEC_ONE`
    ///   land between the two reads and shows "work remains" next to
    ///   "nobody executing, nothing queued" — a false stall at job end.
    /// * Partitioned fetchability comes from the *physical* queues, read
    ///   after the counter, so an owner's pre-increment-and-pop can land
    ///   in between ("nobody executing", then "queue empty"). Every push
    ///   or pop moves the counter and every push but the source's
    ///   follows a completion, so the scan is valid iff counter and
    ///   ticket read the same after it; otherwise it is retried.
    fn snapshot(&self) -> Snapshot {
        let core = self.core;
        let workers = core.active.load(SeqCst);
        loop {
            let v = core.ctr.load(SeqCst);
            let completed = core.ticket.load(SeqCst);
            let c = unpack(v);
            let queued_work = c.queued > 0;
            let fetchable = match &core.queues {
                QueuesV2::Global(_) | QueuesV2::WorkStealing { .. } => {
                    queued_work && c.suspended < workers
                }
                QueuesV2::Partitioned(qs) => {
                    let fetchable = partitioned_fetchable(
                        core.base_workers,
                        workers,
                        |w| core.worker_suspended[w].load(SeqCst),
                        |w| !qs[w].is_empty(),
                    );
                    if core.ctr.load(SeqCst) != v || core.ticket.load(SeqCst) != completed {
                        continue;
                    }
                    fetchable
                }
            };
            return Snapshot {
                executing: c.executing,
                ready_joins: c.ready_joins,
                suspended: c.suspended,
                fake: c.fake,
                queued_work,
                fetchable,
                completed,
                nodes: core.dag.node_count(),
                workers,
                growth_budget: self.ctl.growth_budget,
                grow_policy: self.ctl.grow_policy,
            };
        }
    }

    /// One update swaps the worker's (still-held) executing slot for a
    /// suspended one, so the counter never shows it unaccounted.
    fn suspend(&mut self, worker: usize, fake: bool) -> usize {
        let core = self.core;
        let delta = SUSP_ONE - EXEC_ONE + if fake { FAKE_ONE } else { 0 };
        let after = unpack(core.ctr.fetch_add(delta, SeqCst).wrapping_add(delta));
        core.worker_suspended[worker].store(true, SeqCst);
        core.active.load(SeqCst).saturating_sub(after.suspended)
    }

    fn resume(&mut self, worker: usize, fake: bool, woke: bool) {
        let mut delta = SUSP_ONE + if fake { FAKE_ONE } else { 0 };
        if woke {
            delta = delta - EXEC_ONE + if fake { 0 } else { RJ_ONE };
        }
        self.core.ctr.fetch_sub(delta, SeqCst);
        self.core.worker_suspended[worker].store(false, SeqCst);
    }

    fn wait(&mut self, how: Wait) -> bool {
        how.on(&self.core.cv, self.ctl)
    }

    fn wake(&mut self, terminal: bool) {
        if terminal {
            terminate(self.core);
        } else {
            self.core.cv.notify_all();
        }
    }

    fn grow(&mut self, from: usize, to: usize) {
        self.core.active.store(to, SeqCst);
        for id in from..to {
            let (shared, core) = (Arc::clone(self.shared), Arc::clone(self.core));
            let body = move || serve(&shared, &core, id);
            let handle = spawn_worker(id, Some(self.core.epoch), body);
            self.shared.rescuers.lock().push(handle);
        }
        self.core.cv.notify_all();
    }

    /// Builds the spans from the lock-free ticket array: every path here
    /// first saw `executing == 0` or a terminal state, so all tickets
    /// below the count are written (the `filter_map` is defensive).
    fn close(self) -> Vec<NodeSpan> {
        self.shared.slot.lock().job = None;
        let spans = &self.core.spans[..self.core.ticket.load(SeqCst)];
        spans.iter().filter_map(|s| s.get().copied()).collect()
    }
}

impl V2Pool {
    /// Spawns the permanent workers. The configuration was validated by
    /// [`ThreadPool::try_new`](crate::ThreadPool::try_new); this adds the
    /// v2-specific counter-width bound.
    pub(crate) fn new(config: PoolConfig) -> Result<Self, ExecError> {
        let capacity = config.workers + config.recovery.growth_reserve();
        if capacity > MAX_WORKERS_V2 {
            return Err(ExecError::InvalidConfig {
                message: format!(
                    "the v2 engine supports at most {MAX_WORKERS_V2} workers \
                     including the growth reserve, got {capacity}"
                ),
            });
        }
        let workers = config.workers;
        let shared = Arc::new(Shared2 {
            config,
            slot: Mutex::new(JobSlot {
                shutdown: false,
                job: None,
            }),
            cv: Condvar::new(),
            rescuers: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|id| {
                let s = Arc::clone(&shared);
                spawn_worker(id, None, move || worker_loop_v2(&s, id))
            })
            .collect();
        Ok(V2Pool {
            shared,
            handles,
            next_epoch: 0,
        })
    }

    pub(crate) fn config(&self) -> &PoolConfig {
        &self.shared.config
    }

    /// One execution attempt: installs the job in the slot and
    /// supervises it to its terminal state.
    pub(crate) fn run_attempt(
        &mut self,
        dag: &Arc<Dag>,
        attempt: usize,
        events: &mut Vec<RecoveryEvent>,
    ) -> Result<JobReport, FailedAttempt> {
        if dag.node_count() > MAX_NODES_V2 {
            return Err(FailedAttempt {
                error: ExecError::IncompatibleJob {
                    message: format!(
                        "the v2 engine supports graphs up to {MAX_NODES_V2} nodes, got {}",
                        dag.node_count()
                    ),
                },
                trace: None,
            });
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let shared = &self.shared;
        let prior = std::mem::take(events);
        let core = &Arc::new(JobCore::new(
            attempt,
            epoch,
            Arc::clone(dag),
            &shared.config,
            prior,
        ));
        core.ctr.fetch_add(QUEUED_ONE, SeqCst);
        push_ready(shared, core, dag.source(), None);
        {
            let mut slot = shared.slot.lock();
            debug_assert!(slot.job.is_none(), "runs are serialized by &mut self");
            slot.job = Some(Arc::clone(core));
        }
        // Lazy attachment: global/stealing jobs start with ONE worker and
        // recruit more from the slot pool as fetches observe leftover
        // depth (see [`serve`] and [`deliver_wakes`]), so a short job on
        // a wide pool never pays an m-wide wake broadcast. Partitioned
        // jobs need every mapped owner attached for targeted wakes, so
        // they keep the broadcast.
        if matches!(shared.config.discipline, QueueDiscipline::Partitioned(_)) {
            shared.cv.notify_all();
        } else {
            shared.cv.notify_one();
        }
        let ctl = &mut core.ctl.lock();
        let view = V2View { shared, core, ctl };
        supervise(view, shared.config.watchdog, events)
    }
}

impl Drop for V2Pool {
    fn drop(&mut self) {
        self.shared.slot.lock().shutdown = true;
        self.shared.cv.notify_all();
        let rescuers = std::mem::take(&mut *self.shared.rescuers.lock());
        for h in self.handles.drain(..).chain(rescuers) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// Permanent-worker body: watch the job slot, serve each installed job
/// to its end, repeat until shutdown.
fn worker_loop_v2(shared: &Arc<Shared2>, id: usize) {
    let mut slot = shared.slot.lock();
    loop {
        if slot.shutdown {
            return;
        }
        let job = slot.job.as_ref().filter(|c| !c.done.load(SeqCst)).cloned();
        match job {
            Some(core) => {
                drop(slot);
                serve(shared, &core, id);
                slot = shared.slot.lock();
            }
            None => shared.cv.wait(&mut slot),
        }
    }
}

/// Serves one job on worker slot `worker` until the job reaches a
/// terminal state. Also the rescue-worker body (rescuers serve exactly
/// one job and retire).
fn serve(shared: &Arc<Shared2>, core: &Arc<JobCore>, worker: usize) {
    *core.threads[worker].lock() = Some(thread::current());
    let local = match &core.queues {
        QueuesV2::WorkStealing { deques, .. } => deques[worker].lock().take(),
        _ => None,
    };
    loop {
        if core.done.load(SeqCst) {
            break;
        }
        if let Some(f) = try_fetch(core, worker, local.as_ref()) {
            // Wake ramp-up: completions wake at most ONE worker (see
            // [`deliver_wakes`]); a fetcher that leaves work behind
            // recruits the next worker here. Awake workers thus grow
            // with observed demand instead of a thundering O(m) futex
            // storm per wide fan-out. The partitioned discipline keeps
            // exact per-owner wakes instead.
            if f.depth > 0 && !matches!(core.queues, QueuesV2::Partitioned(_)) && !unpark_one(core)
            {
                shared.cv.notify_one();
            }
            core.tracer.fetched(worker, &f);
            execute_chain(shared, core, worker, f.node, local.as_ref());
            continue;
        }
        // Idle: publish the intent to sleep, then re-check once — the
        // Dekker handshake with the producer's push-then-scan order (see
        // module docs).
        core.parking[worker].store(PARKED, SeqCst);
        if core.done.load(SeqCst) || has_visible_work(core, worker, local.as_ref()) {
            core.parking[worker].store(ACTIVE, SeqCst);
            continue;
        }
        // Exact stall detection before sleeping: if this park completes a
        // "nobody can make progress" state, declare it now. The lock is
        // skipped while the counter proves a stall impossible (someone is
        // executing or a join is ready): that worker re-evaluates when it
        // goes idle itself, so the last one to park always takes the lock.
        let c = unpack(core.ctr.load(SeqCst));
        let work_remains = core.ticket.load(SeqCst) < core.dag.node_count();
        if c.executing == 0 && c.ready_joins == 0 && work_remains {
            let ctl = &mut core.ctl.lock();
            maybe_stall(&mut V2View { shared, core, ctl });
        }
        if core.done.load(SeqCst) {
            core.parking[worker].store(ACTIVE, SeqCst);
            break;
        }
        core.tracer.set_parked(worker, true);
        while core.parking[worker].load(SeqCst) == PARKED && !core.done.load(SeqCst) {
            thread::park();
        }
        core.parking[worker].store(ACTIVE, SeqCst);
    }
}

/// Fetches one node, keeping the counter protocol the stall detector
/// needs. The protocol differs by discipline:
///
/// * **Partitioned** fetchability is judged from the *physical* queues
///   (the [`JobView::snapshot`] inspects per-owner injectors), so an
///   in-flight pop must be visible as `executing` before the queue is
///   touched — the pre-increment protocol, backed out on failure.
/// * **Global / work stealing** fetchability is judged from the `queued`
///   counter, which stays ≥ 1 until the post-pop settle below (producers
///   count before pushing, consumers decrement only here), so a single
///   combined RMW after a successful pop suffices and a failed fetch
///   costs no atomic write at all.
fn try_fetch(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> Option<Fetched> {
    if matches!(core.queues, QueuesV2::Partitioned(_)) {
        core.ctr.fetch_add(EXEC_ONE, SeqCst);
        match pop_physical(core, worker, local) {
            Some(f) => {
                core.ctr.fetch_sub(QUEUED_ONE, SeqCst);
                Some(f)
            }
            None => {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                None
            }
        }
    } else {
        let f = pop_physical(core, worker, local)?;
        core.ctr.fetch_add(EXEC_ONE - QUEUED_ONE, SeqCst);
        Some(f)
    }
}

/// Runs one steal operation until it stops colliding with a concurrent
/// one; `None` when the queue is empty.
fn steal_from(mut op: impl FnMut() -> Steal<usize>) -> Option<usize> {
    loop {
        match op() {
            Steal::Success(v) => return Some(v),
            Steal::Empty => return None,
            Steal::Retry => std::hint::spin_loop(),
        }
    }
}

/// Canonical lock-free fetch: local pop → injector steal → steal-half
/// from the richest peer (work stealing), or the discipline's queue.
fn pop_physical(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> Option<Fetched> {
    match &core.queues {
        QueuesV2::Global(inj) => {
            steal_from(|| inj.steal()).map(|v| Fetched::new(v, inj.len(), None))
        }
        QueuesV2::Partitioned(qs) if worker < core.base_workers => {
            let q = &qs[worker];
            steal_from(|| q.steal()).map(|v| Fetched::new(v, q.len(), None))
        }
        // Rescue workers serve the queues of *suspended* owners — exactly
        // the nodes that could otherwise strand.
        QueuesV2::Partitioned(qs) => (0..core.base_workers)
            .filter(|&w| core.worker_suspended[w].load(SeqCst))
            .find_map(|w| {
                let v = steal_from(|| qs[w].steal())?;
                Some(Fetched::new(v, qs[w].len(), Some((Some(w), 1))))
            }),
        QueuesV2::WorkStealing {
            injector, stealers, ..
        } => {
            let local = local.expect("work-stealing workers hold their deque");
            if let Some(v) = local.pop() {
                return Some(Fetched::new(v, local.len(), None));
            }
            if let Some(v) = steal_from(|| injector.steal_batch_and_pop(local)) {
                let batch = local.len() + 1;
                return Some(Fetched::new(v, injector.len(), Some((None, batch))));
            }
            loop {
                let (victim, _) = stealers
                    .iter()
                    .enumerate()
                    .filter(|&(w, s)| w != worker && !s.is_empty())
                    .map(|(w, s)| (w, s.len()))
                    .reduce(|best, next| if next.1 > best.1 { next } else { best })?;
                // Empty or Retry: the victim drained (or a steal collided)
                // — rescan for the new richest victim.
                let Steal::Success(v) = stealers[victim].steal_batch_and_pop(local) else {
                    std::hint::spin_loop();
                    continue;
                };
                let (depth, batch) = (stealers[victim].len(), local.len() + 1);
                return Some(Fetched::new(v, depth, Some((Some(victim), batch))));
            }
        }
    }
}

/// The consumer-side re-check of the parking handshake: is any node this
/// worker could fetch physically visible?
fn has_visible_work(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> bool {
    match &core.queues {
        QueuesV2::Global(inj) => !inj.is_empty(),
        QueuesV2::Partitioned(qs) => {
            if worker < core.base_workers {
                !qs[worker].is_empty()
            } else {
                (0..core.base_workers)
                    .any(|w| core.worker_suspended[w].load(SeqCst) && !qs[w].is_empty())
            }
        }
        QueuesV2::WorkStealing {
            injector, stealers, ..
        } => {
            local.is_some_and(|l| !l.is_empty())
                || !injector.is_empty()
                || stealers
                    .iter()
                    .enumerate()
                    .any(|(w, s)| w != worker && !s.is_empty())
        }
    }
}

// ---------------------------------------------------------------------
// Enqueue + targeted wakeups.
// ---------------------------------------------------------------------

/// Physically pushes a node its caller has *already* counted queued (the
/// stall detector and the fetch protocols rely on that order): the
/// submitter for the source, the folded completion update in
/// [`execute_chain`] for everything else. Returns the owning worker under
/// the partitioned discipline so the caller can wake the right thread;
/// wakes nobody itself.
fn push_ready(
    shared: &Shared2,
    core: &JobCore,
    node: NodeId,
    local: Option<&CbWorker<usize>>,
) -> Option<usize> {
    match &core.queues {
        QueuesV2::Global(inj) => {
            inj.push(node.index());
            None
        }
        QueuesV2::Partitioned(qs) => {
            let QueueDiscipline::Partitioned(mapping) = &shared.config.discipline else {
                unreachable!("partitioned queues imply a partitioned discipline");
            };
            let owner = mapping.thread_of(node).index();
            qs[owner].push(node.index());
            Some(owner)
        }
        QueuesV2::WorkStealing { injector, .. } => {
            match local {
                // A worker pushes the nodes it spawns onto its own deque
                // (LIFO pop, Eigen-style); the submitter seeds the
                // injector.
                Some(l) => l.push(node.index()),
                None => injector.push(node.index()),
            }
            None
        }
    }
}

/// Wakes worker `w` iff it is parked. Returns whether a wake was issued.
fn try_unpark(core: &JobCore, w: usize) -> bool {
    if core.parking[w].load(SeqCst) == PARKED
        && core.parking[w]
            .compare_exchange(PARKED, NOTIFIED, SeqCst, SeqCst)
            .is_ok()
    {
        let t = core.threads[w].lock().clone();
        if let Some(t) = t {
            t.unpark();
        }
        return true;
    }
    false
}

/// Wakes one parked worker — the targeted replacement for the v1
/// broadcast `notify_all`. Returns `false` when nobody was parked: by
/// the Dekker handshake, any worker parking *after* this scan re-checks
/// the queues (whose items were pushed before the scan) and stays awake,
/// so the caller may stop issuing wakes for already-pushed work.
fn unpark_one(core: &JobCore) -> bool {
    let active = core.active.load(SeqCst);
    for w in 0..active {
        if try_unpark(core, w) {
            return true;
        }
    }
    false
}

/// Partitioned wake: the queue owner, or — when the owner is suspended —
/// a parked rescue worker that can steal on its behalf.
fn unpark_target(core: &JobCore, target: usize) {
    if try_unpark(core, target) {
        return;
    }
    if core.worker_suspended[target].load(SeqCst) {
        let active = core.active.load(SeqCst);
        for w in core.base_workers..active {
            if try_unpark(core, w) {
                return;
            }
        }
    }
}

/// Delivers a completion's wakeups. Global/stealing wakes ramp up
/// instead of broadcasting: a completion wakes at most ONE parked
/// worker no matter how many nodes it readied, and every worker whose
/// fetch observes leftover depth recruits the next one (see [`serve`]).
/// A wide fan-out therefore costs one futex wake, not `min(ready, m)`,
/// and workers the demand never reaches are never scheduled. Safety is
/// untouched: any worker parking *after* the push re-checks the queues
/// (Dekker), so the single wake can never be the lost one. Partitioned
/// wakes stay exact — one targeted unpark per ready node's owner.
fn deliver_wakes(shared: &Shared2, core: &JobCore, unparks: usize, owner_wakes: &[usize]) {
    if unparks > 0 && !unpark_one(core) {
        // Nobody attached to the job is parked: recruit a worker still
        // waiting on the job slot (no-op once all are attached).
        shared.cv.notify_one();
    }
    for &t in owner_wakes {
        unpark_target(core, t);
    }
}

/// Makes the submitter and every active worker slot observe that the job
/// is over (`ctl.status` left `Running`, or the watchdog gave up).
fn terminate(core: &JobCore) {
    core.done.store(true, SeqCst);
    core.cv.notify_all();
    let active = core.active.load(SeqCst);
    for w in 0..active {
        core.parking[w].store(NOTIFIED, SeqCst);
        let t = core.threads[w].lock().clone();
        if let Some(t) = t {
            t.unpark();
        }
    }
}

// ---------------------------------------------------------------------
// Execution chain: body → completion → (blocking-fork barrier → join)*.
// ---------------------------------------------------------------------

/// Executes `node` and every continuation it chains into (the Listing-1
/// pattern: a completed `BF` suspends this worker until the barrier
/// opens, then the `BJ` runs here). Returns when the chain ends or the
/// job reaches a terminal state.
fn execute_chain(
    shared: &Arc<Shared2>,
    core: &Arc<JobCore>,
    worker: usize,
    mut node: NodeId,
    local: Option<&CbWorker<usize>>,
) {
    let faults = shared.config.faults.as_ref();
    let time_scale = shared.config.time_scale;
    let (attempt, tracer) = (core.attempt, &core.tracer);
    loop {
        let before = faults
            .map(|p| p.before_body(attempt, node.index()))
            .unwrap_or_default();

        if let Some(d) = before.suspend {
            let ctl = &mut core.ctl.lock();
            ctl.note_fault(tracer, node, "suspend_worker");
            let mut view = V2View { shared, core, ctl };
            if !fake_suspend(&mut view, worker, node, d) {
                return;
            }
        }
        if before.panic_body || before.extra_wcet > 0 {
            let mut ctl = core.ctl.lock();
            if before.panic_body {
                ctl.note_fault(tracer, node, "panic_body");
            }
            if before.extra_wcet > 0 {
                ctl.note_fault(tracer, node, "jitter_wcet");
            }
        }

        tracer.node_start(worker, node);
        let start = core.started.elapsed();
        let wcet = core.dag.wcet(node) + before.extra_wcet;
        let body = run_body(wcet, time_scale, before.panic_body, node);
        tracer.node_end(worker, node);
        if let Err(message) = body {
            let mut ctl = core.ctl.lock();
            core.ctr.fetch_sub(EXEC_ONE, SeqCst);
            ctl.node_panicked(tracer, node, message);
            drop(ctl);
            terminate(core);
            return;
        }
        let end = core.started.elapsed();

        // Completion: ticket, then successors — all while still counted
        // executing, so the stall detector never sees a half-completed
        // node.
        let ticket = core.ticket.fetch_add(1, SeqCst);
        let _ = core.spans[ticket].set(NodeSpan {
            node: node.index(),
            worker,
            start,
            end,
        });
        let mut unparks = 0usize;
        let mut owner_wakes: Vec<usize> = Vec::new();
        let mut join_opened = false;
        // The common completion resolves at most one successor; keep it
        // off the heap and spill only wide fan-outs into the vector.
        let mut first_ready: Option<NodeId> = None;
        let mut more_ready: Vec<NodeId> = Vec::new();
        for &s in core.dag.successors(node) {
            if core.pending[s.index()].fetch_sub(1, SeqCst) != 1 {
                continue;
            }
            if core.dag.kind(s) == NodeKind::BlockingJoin {
                let mut ctl = core.ctl.lock();
                ctl.join_ready[s.index()] = true;
                core.ctr.fetch_add(RJ_ONE, SeqCst);
                join_opened = true;
            } else if first_ready.is_none() {
                first_ready = Some(s);
            } else {
                more_ready.push(s);
            }
        }
        if node == core.dag.sink() {
            debug_assert_eq!(ticket + 1, core.dag.node_count(), "sink completes last");
            core.ctr.fetch_sub(EXEC_ONE, SeqCst);
            let makespan = core.started.elapsed();
            core.ctl.lock().job_finished(tracer, makespan);
            terminate(core);
            return;
        }
        // Publish every ready successor with ONE folded counter update
        // (one RMW instead of `ready` on the hottest cache line), counted
        // *before* the physical pushes as the fetch protocol requires.
        // Our own executing slot stays held: the worker remains counted
        // `executing` until it either chains into the next node below,
        // suspends on a blocking barrier, or leaves the loop — so the
        // stall predicate never sees a half-completed dispatch.
        let nready = usize::from(first_ready.is_some()) + more_ready.len();
        if nready > 0 {
            core.ctr.fetch_add(nready as u64 * QUEUED_ONE, SeqCst);
        }
        for s in first_ready.into_iter().chain(more_ready) {
            match push_ready(shared, core, s, local) {
                Some(owner) => owner_wakes.push(owner),
                None => unparks += 1,
            }
        }

        let after = faults
            .map(|p| p.after_body(attempt, node.index()))
            .unwrap_or_default();
        if after.swallow_wakeup {
            // Lost-wakeup bug model: successors were resolved but nobody
            // is told. The exact stall detector (rightly) does not cover
            // this; the watchdog must.
            let mut ctl = core.ctl.lock();
            ctl.note_fault(tracer, node, "swallow_wakeup");
        } else if let Some(d) = after.delay_wakeup {
            core.ctl.lock().note_fault(tracer, node, "delay_wakeup");
            thread::sleep(d);
            deliver_wakes(shared, core, unparks, &owner_wakes);
            core.cv.notify_all();
            if core.done.load(SeqCst) {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                return;
            }
        } else {
            deliver_wakes(shared, core, unparks, &owner_wakes);
            if join_opened {
                core.cv.notify_all();
            }
        }

        if core.dag.kind(node) != NodeKind::BlockingFork {
            // Chain straight into the next ready node while still counted
            // executing: the settle + re-fetch RMW pair of the serve loop
            // collapses into a single `−queued` whenever the pop
            // succeeds. Fault plans and tracing fall back to the serve
            // loop — chaining would mask an injected lost wakeup (the
            // swallowing worker would quietly pick its orphan back up)
            // and skip the per-fetch queue-depth events.
            if faults.is_some() || tracer.enabled() || core.done.load(SeqCst) {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                return;
            }
            match pop_physical(core, worker, local) {
                Some(f) => {
                    core.ctr.fetch_sub(QUEUED_ONE, SeqCst);
                    node = f.node;
                    continue;
                }
                None => {
                    core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                    return;
                }
            }
        }
        // Blocking fork: wait on the barrier, then run the join as our
        // continuation.
        let join = core
            .dag
            .blocking_join_of(node)
            .expect("validated BF has a paired BJ");
        let ctl = &mut core.ctl.lock();
        let mut view = V2View { shared, core, ctl };
        if !barrier_wait(&mut view, worker, node, join, core.spin) {
            return;
        }
        node = join; // execute the continuation
    }
}
