//! The discrete-event simulation engine.
//!
//! Time advances between *quiescent points*: at each point the engine
//! (1) releases due jobs, (2) runs the dispatch/completion cascade until
//! nothing instantaneous remains, (3) checks for stalls, then (4) jumps
//! to the earliest of the next release and the next completion of a
//! thread currently holding a core. Threads preempted from their core
//! keep their residual work. All tie-breaking is by index, so runs are
//! bit-for-bit reproducible.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rtpool_core::partition::NodeMapping;
use rtpool_core::TaskSet;
use rtpool_graph::{NodeId, NodeKind};
use rtpool_trace::{sink, EngineKind, EventKind, LaneRecorder, SeqClock, TimeUnit};

use crate::config::{ExecutionTime, ReleasePattern, SchedulingPolicy, SimConfig};
use crate::outcome::{SimOutcome, StallInfo, TaskOutcome};

/// Narrows an engine-side `usize` index for the shared trace schema.
fn u32c(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// SplitMix64: a tiny deterministic stream for sporadic inter-arrival
/// delays and execution-time variation (the crate deliberately has no
/// `rand` dependency).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The largest platform the simulator takes. The engine keeps, per task,
/// a thread state and a partitioned ready queue for each of the `m`
/// cores (72 bytes), plus a 24-byte core-occupancy entry per core, and
/// each quiescent point scans the threads. At 2²⁰ a global
/// simulation of `workloads/figure1.rtp` (two tasks) takes 2.3 s and
/// 170 MB on two vCPUs (0.07 s at 2¹⁶); 2³² would need some 700 GB, and
/// 2⁶⁴ − 1 overflows the allocation size.
pub const MAX_SIMULATED_CORES: usize = 1 << 20;

/// Errors detected before the simulation starts.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// `m == 0`.
    NoCores,
    /// `m` is past [`MAX_SIMULATED_CORES`].
    TooManyCores {
        /// The requested core count.
        m: usize,
    },
    /// Partitioned policy without (or with too few) node mappings.
    MissingMappings,
    /// A mapping does not match its task's graph or the pool size.
    MappingMismatch {
        /// The offending task index.
        task: usize,
    },
    /// Explicit release times are not sorted ascending.
    UnsortedReleases {
        /// The offending task index.
        task: usize,
    },
    /// Periodic releases require a finite horizon.
    InfiniteHorizon,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoCores => write!(f, "platform must have at least one core"),
            SimError::TooManyCores { m } => write!(
                f,
                "a platform of {m} cores is past MAX_SIMULATED_CORES = {MAX_SIMULATED_CORES}"
            ),
            SimError::MissingMappings => {
                write!(f, "partitioned policy requires one node mapping per task")
            }
            SimError::MappingMismatch { task } => {
                write!(
                    f,
                    "mapping of task {task} does not match its graph or pool size"
                )
            }
            SimError::UnsortedReleases { task } => {
                write!(f, "explicit release times of task {task} are not sorted")
            }
            SimError::InfiniteHorizon => {
                write!(f, "periodic releases require a finite horizon")
            }
        }
    }
}

impl Error for SimError {}

/// A node instance: task, job index, node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeRef {
    task: usize,
    job: usize,
    node: NodeId,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ThreadState {
    Idle,
    Running {
        node: NodeRef,
        remaining: u64,
    },
    Suspended {
        join: NodeRef,
    },
    /// Spin-backend counterpart of `Suspended`: the thread busy-waits on
    /// the barrier, so it keeps competing for (and holding) a core.
    Spinning {
        join: NodeRef,
    },
}

struct JobState {
    release: u64,
    /// Unresolved direct predecessors per node.
    pending: Vec<u32>,
    done: Vec<bool>,
    remaining_nodes: usize,
    completed_at: Option<u64>,
    /// For each join node: the pool thread suspended on its barrier.
    waiter: Vec<Option<usize>>,
}

enum ReleaseSource {
    Once(Option<u64>),
    Periodic {
        next: u64,
        period: u64,
    },
    Sporadic {
        next: u64,
        period: u64,
        rng: u64,
        max_delay_permille: u32,
    },
    List(VecDeque<u64>),
}

impl ReleaseSource {
    fn peek(&self) -> Option<u64> {
        match self {
            ReleaseSource::Once(t) => *t,
            ReleaseSource::Periodic { next, .. } => Some(*next),
            ReleaseSource::Sporadic { next, .. } => Some(*next),
            ReleaseSource::List(l) => l.front().copied(),
        }
    }

    fn pop(&mut self) -> Option<u64> {
        match self {
            ReleaseSource::Once(t) => t.take(),
            ReleaseSource::Periodic { next, period } => {
                let t = *next;
                *next = next.saturating_add(*period);
                Some(t)
            }
            ReleaseSource::Sporadic {
                next,
                period,
                rng,
                max_delay_permille,
            } => {
                let t = *next;
                let bound = u128::from(*period) * u128::from(*max_delay_permille) / 1000;
                let delay = if bound == 0 {
                    0
                } else {
                    (u128::from(splitmix(rng)) % (bound + 1)) as u64
                };
                // Sporadic: inter-arrival at least the period.
                *next = next.saturating_add(*period).saturating_add(delay);
                Some(t)
            }
            ReleaseSource::List(l) => l.pop_front(),
        }
    }

    fn disable(&mut self) {
        *self = ReleaseSource::Once(None);
    }
}

pub(crate) struct Engine<'a> {
    set: &'a TaskSet,
    policy: SchedulingPolicy,
    m: usize,
    horizon: u64,
    mappings: Option<Vec<NodeMapping>>,
    execution_time: ExecutionTime,
    /// Per-instance execution-time stream (Random mode).
    exec_rng: u64,
    /// Event trace in the shared `rtpool-trace` schema: one lane,
    /// sealed by `sink::assemble` as the native pool's lanes are.
    recorder: Option<LaneRecorder>,
    /// Last core occupancy emitted, for `CoreAssign` diffing.
    prev_cores: Vec<Option<(usize, usize)>>,

    time: u64,
    releases: Vec<ReleaseSource>,
    jobs: Vec<Vec<JobState>>,
    /// Global policy: one FIFO queue per pool.
    gqueues: Vec<VecDeque<NodeRef>>,
    /// Partitioned policy: one FIFO queue per (pool, thread).
    pqueues: Vec<Vec<VecDeque<NodeRef>>>,
    threads: Vec<Vec<ThreadState>>,
    dead: Vec<bool>,

    stalls: Vec<Option<StallInfo>>,
    min_avail: Vec<usize>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(config: &SimConfig, set: &'a TaskSet) -> Result<Self, SimError> {
        if config.m == 0 {
            return Err(SimError::NoCores);
        }
        if config.m > MAX_SIMULATED_CORES {
            return Err(SimError::TooManyCores { m: config.m });
        }
        let n = set.len();
        let mappings = match config.policy {
            SchedulingPolicy::Global => None,
            SchedulingPolicy::Partitioned => {
                let maps = config.mappings.clone().ok_or(SimError::MissingMappings)?;
                if maps.len() != n {
                    return Err(SimError::MissingMappings);
                }
                for (i, (_, task)) in set.iter().enumerate() {
                    if maps[i].node_count() != task.dag().node_count()
                        || maps[i].pool_size() != config.m
                    {
                        return Err(SimError::MappingMismatch { task: i });
                    }
                }
                Some(maps)
            }
        };
        let horizon = match config.releases {
            ReleasePattern::SingleJob => config.horizon,
            ReleasePattern::Periodic | ReleasePattern::Sporadic { .. } => {
                if config.horizon == u64::MAX {
                    return Err(SimError::InfiniteHorizon);
                }
                config.horizon
            }
            ReleasePattern::Explicit(_) => config.horizon,
        };
        let releases: Vec<ReleaseSource> = match &config.releases {
            ReleasePattern::SingleJob => (0..n).map(|_| ReleaseSource::Once(Some(0))).collect(),
            ReleasePattern::Periodic => set
                .iter()
                .map(|(_, t)| ReleaseSource::Periodic {
                    next: 0,
                    period: t.period(),
                })
                .collect(),
            ReleasePattern::Sporadic {
                seed,
                max_delay_permille,
            } => set
                .iter()
                .map(|(id, t)| ReleaseSource::Sporadic {
                    next: 0,
                    period: t.period(),
                    rng: seed.wrapping_add(id.index() as u64).wrapping_mul(0x9e37),
                    max_delay_permille: *max_delay_permille,
                })
                .collect(),
            ReleasePattern::Explicit(lists) => {
                let mut out = Vec::with_capacity(n);
                for (i, list) in lists.iter().enumerate() {
                    if list.windows(2).any(|w| w[0] > w[1]) {
                        return Err(SimError::UnsortedReleases { task: i });
                    }
                    out.push(ReleaseSource::List(list.iter().copied().collect()));
                }
                while out.len() < n {
                    out.push(ReleaseSource::Once(None));
                }
                out
            }
        };
        Ok(Engine {
            set,
            policy: config.policy,
            m: config.m,
            horizon,
            mappings,
            execution_time: config.execution_time,
            exec_rng: match config.execution_time {
                ExecutionTime::Random { seed, .. } => seed,
                _ => 0,
            },
            recorder: config
                .record_event_trace
                .then(|| LaneRecorder::new(&SeqClock::new())),
            prev_cores: vec![None; config.m],
            time: 0,
            releases,
            jobs: (0..n).map(|_| Vec::new()).collect(),
            gqueues: (0..n).map(|_| VecDeque::new()).collect(),
            pqueues: (0..n).map(|_| vec![VecDeque::new(); config.m]).collect(),
            threads: (0..n).map(|_| vec![ThreadState::Idle; config.m]).collect(),
            dead: vec![false; n],
            stalls: vec![None; n],
            min_avail: vec![config.m; n],
        })
    }

    pub(crate) fn run(mut self) -> Result<SimOutcome, SimError> {
        loop {
            self.process_releases();
            self.cascade();
            self.detect_stalls();
            self.track_min_concurrency();

            let selected = self.select_cores();
            if self.recorder.is_some() {
                let mut cores: Vec<Option<(usize, usize)>> = vec![None; self.m];
                match self.policy {
                    // Partitioned: the thread index IS the core.
                    SchedulingPolicy::Partitioned => {
                        for &(t, k) in &selected {
                            cores[k] = Some((t, k));
                        }
                    }
                    // Global: cores are interchangeable; render the
                    // selected threads on cores in selection order.
                    SchedulingPolicy::Global => {
                        for (slot, &(t, th)) in selected.iter().enumerate() {
                            cores[slot] = Some((t, th));
                        }
                    }
                }
                for (k, &occ) in cores.iter().enumerate() {
                    if occ != self.prev_cores[k] {
                        self.rec(EventKind::CoreAssign {
                            core: u32c(k),
                            occupant: occ.map(|(t, th)| (u32c(t), u32c(th))),
                        });
                        self.prev_cores[k] = occ;
                    }
                }
            }
            let next_completion = selected
                .iter()
                .filter_map(|&(t, th)| match &self.threads[t][th] {
                    ThreadState::Running { remaining, .. } => {
                        Some(self.time.saturating_add(*remaining))
                    }
                    // A spinner completes nothing: its wake is triggered
                    // by another thread's completion.
                    ThreadState::Spinning { .. } => None,
                    _ => unreachable!("selected threads are running or spinning"),
                })
                .min();
            let next_release = (0..self.set.len())
                .filter(|&t| !self.dead[t])
                .filter_map(|t| self.releases[t].peek())
                .filter(|&r| r < self.horizon)
                .min();
            let next_time = match (next_completion, next_release) {
                (None, None) => break,
                (Some(c), None) => c,
                (None, Some(r)) => r,
                (Some(c), Some(r)) => c.min(r),
            };
            if next_time >= self.horizon {
                self.time = self.horizon;
                break;
            }
            let dt = next_time - self.time;
            for (t, th) in selected {
                if let ThreadState::Running { remaining, .. } = &mut self.threads[t][th] {
                    *remaining -= dt.min(*remaining);
                }
            }
            self.time = next_time;
        }
        Ok(self.finalize())
    }

    /// Records `kind` at the current simulation time (no-op unless the
    /// event trace was requested).
    fn rec(&mut self, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.record(self.time, kind);
        }
    }

    /// Releases every job due at the current time.
    fn process_releases(&mut self) {
        for t in 0..self.set.len() {
            if self.dead[t] {
                continue;
            }
            while self.releases[t].peek() == Some(self.time) && self.time < self.horizon {
                let release = self.releases[t].pop().expect("peeked");
                self.release_job(t, release);
            }
        }
    }

    fn release_job(&mut self, task: usize, release: u64) {
        let dag = self.set.as_slice()[task].dag();
        let n = dag.node_count();
        let pending: Vec<u32> = dag
            .node_ids()
            .map(|v| u32::try_from(dag.predecessors(v).len()).expect("in-degree fits u32"))
            .collect();
        let job_idx = self.jobs[task].len();
        self.jobs[task].push(JobState {
            release,
            pending,
            done: vec![false; n],
            remaining_nodes: n,
            completed_at: None,
            waiter: vec![None; n],
        });
        let source = dag.source();
        self.rec(EventKind::JobReleased {
            task: u32c(task),
            job: u32c(job_idx),
        });
        self.enqueue(NodeRef {
            task,
            job: job_idx,
            node: source,
        });
    }

    fn enqueue(&mut self, nref: NodeRef) {
        match self.policy {
            SchedulingPolicy::Global => self.gqueues[nref.task].push_back(nref),
            SchedulingPolicy::Partitioned => {
                let mapping = &self.mappings.as_ref().expect("validated")[nref.task];
                let thread = mapping.thread_of(nref.node).index();
                self.pqueues[nref.task][thread].push_back(nref);
            }
        }
    }

    /// Dispatch ready nodes to idle threads and perform all
    /// zero-time-remaining completions, repeating until quiescent.
    fn cascade(&mut self) {
        loop {
            let mut progressed = self.dispatch();
            for t in 0..self.set.len() {
                if self.dead[t] {
                    continue;
                }
                for th in 0..self.m {
                    if let ThreadState::Running { node, remaining: 0 } = self.threads[t][th] {
                        self.complete_node(t, th, node);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Assign queued nodes to idle threads (work-conserving FIFO).
    fn dispatch(&mut self) -> bool {
        let mut any = false;
        for t in 0..self.set.len() {
            if self.dead[t] {
                continue;
            }
            match self.policy {
                SchedulingPolicy::Global => {
                    while !self.gqueues[t].is_empty() {
                        let Some(th) =
                            (0..self.m).find(|&th| self.threads[t][th] == ThreadState::Idle)
                        else {
                            break;
                        };
                        let nref = self.gqueues[t].pop_front().expect("non-empty");
                        self.assign(t, th, nref);
                        any = true;
                    }
                }
                SchedulingPolicy::Partitioned => {
                    for th in 0..self.m {
                        while self.threads[t][th] == ThreadState::Idle
                            && !self.pqueues[t][th].is_empty()
                        {
                            let nref = self.pqueues[t][th].pop_front().expect("non-empty");
                            self.assign(t, th, nref);
                            any = true;
                        }
                    }
                }
            }
        }
        any
    }

    /// How long `node` of `task` runs this time: its WCET mapped through
    /// the configured [`ExecutionTime`]. Every node start goes through
    /// here, a woken blocking join's included, so `Random` draws once per
    /// node.
    fn actual_time(&mut self, task: usize, node: NodeId) -> u64 {
        let wcet = self.set.as_slice()[task].dag().wcet(node);
        match self.execution_time {
            ExecutionTime::Wcet => wcet,
            ExecutionTime::Scaled { permille } => scale_permille(wcet, u64::from(permille)),
            ExecutionTime::Random { min_permille, .. } => {
                let span = 1000u64.saturating_sub(u64::from(min_permille));
                let p = u64::from(min_permille)
                    + if span == 0 {
                        0
                    } else {
                        splitmix(&mut self.exec_rng) % (span + 1)
                    };
                scale_permille(wcet, p)
            }
        }
    }

    fn assign(&mut self, task: usize, thread: usize, nref: NodeRef) {
        let remaining = self.actual_time(task, nref.node);
        self.threads[task][thread] = ThreadState::Running {
            node: nref,
            remaining,
        };
        self.rec(EventKind::NodeStart {
            task: u32c(task),
            job: u32c(nref.job),
            node: u32c(nref.node.index()),
            thread: u32c(thread),
        });
    }

    /// Handles the completion of `nref` on `thread` of `task`'s pool.
    fn complete_node(&mut self, task: usize, thread: usize, nref: NodeRef) {
        let dag = self.set.as_slice()[task].dag();
        let kind = dag.kind(nref.node);
        self.rec(EventKind::NodeEnd {
            task: u32c(task),
            job: u32c(nref.job),
            node: u32c(nref.node.index()),
            thread: u32c(thread),
        });

        // The serving thread's next state: blocking forks block on their
        // barrier — suspending (the condition-variable wait of
        // Listing 1) or busy-waiting, per the set's sync backend;
        // everything else frees the thread.
        if kind == NodeKind::BlockingFork {
            let join = dag
                .blocking_join_of(nref.node)
                .expect("validated BF has a paired BJ");
            let join_ref = NodeRef {
                task,
                job: nref.job,
                node: join,
            };
            self.jobs[task][nref.job].waiter[join.index()] = Some(thread);
            if self.set.backend().is_spin() {
                self.threads[task][thread] = ThreadState::Spinning { join: join_ref };
                self.rec(EventKind::SpinStart {
                    task: u32c(task),
                    job: u32c(nref.job),
                    fork: u32c(nref.node.index()),
                    thread: u32c(thread),
                });
            } else {
                self.threads[task][thread] = ThreadState::Suspended { join: join_ref };
                self.rec(EventKind::BarrierSuspend {
                    task: u32c(task),
                    job: u32c(nref.job),
                    fork: u32c(nref.node.index()),
                    thread: u32c(thread),
                });
            }
        } else {
            self.threads[task][thread] = ThreadState::Idle;
        }

        // Bookkeeping for the node itself.
        let is_sink = nref.node == dag.sink();
        {
            let job = &mut self.jobs[task][nref.job];
            debug_assert!(!job.done[nref.node.index()], "node completed twice");
            job.done[nref.node.index()] = true;
            job.remaining_nodes -= 1;
            if is_sink {
                job.completed_at = Some(self.time);
                debug_assert_eq!(job.remaining_nodes, 0, "sink completes last");
            }
        }
        if is_sink {
            self.rec(EventKind::JobCompleted {
                task: u32c(task),
                job: u32c(nref.job),
            });
        }

        // Resolve successors.
        for &s in dag.successors(nref.node) {
            let ready = {
                let job = &mut self.jobs[task][nref.job];
                job.pending[s.index()] -= 1;
                job.pending[s.index()] == 0
            };
            if !ready {
                continue;
            }
            if dag.kind(s) == NodeKind::BlockingJoin {
                // The barrier opens: the suspended thread wakes and runs
                // the join as its continuation (it never visits a queue).
                let waiter = self.jobs[task][nref.job].waiter[s.index()]
                    .expect("fork completed before its join became ready");
                debug_assert!(matches!(
                    self.threads[task][waiter],
                    ThreadState::Suspended { join } | ThreadState::Spinning { join }
                        if join.node == s && join.job == nref.job
                ));
                let was_spinning =
                    matches!(self.threads[task][waiter], ThreadState::Spinning { .. });
                let remaining = self.actual_time(task, s);
                self.threads[task][waiter] = ThreadState::Running {
                    node: NodeRef {
                        task,
                        job: nref.job,
                        node: s,
                    },
                    remaining,
                };
                if was_spinning {
                    self.rec(EventKind::SpinEnd {
                        task: u32c(task),
                        job: u32c(nref.job),
                        join: u32c(s.index()),
                        thread: u32c(waiter),
                    });
                } else {
                    self.rec(EventKind::BarrierWake {
                        task: u32c(task),
                        job: u32c(nref.job),
                        join: u32c(s.index()),
                        thread: u32c(waiter),
                    });
                }
                self.rec(EventKind::NodeStart {
                    task: u32c(task),
                    job: u32c(nref.job),
                    node: u32c(s.index()),
                    thread: u32c(waiter),
                });
            } else {
                self.enqueue(NodeRef {
                    task,
                    job: nref.job,
                    node: s,
                });
            }
        }
    }

    /// A task is stalled when it has an incomplete job but none of its
    /// threads is running: every pending node either waits behind a
    /// suspended thread or behind a barrier that needs such a node, and no
    /// completion can ever occur again (releases cannot help — see the
    /// module docs of `rtpool_core::deadlock`).
    fn detect_stalls(&mut self) {
        for t in 0..self.set.len() {
            if self.dead[t] {
                continue;
            }
            let incomplete = self.jobs[t].iter().position(|j| j.completed_at.is_none());
            let Some(job) = incomplete else { continue };
            let any_running = self.threads[t]
                .iter()
                .any(|s| matches!(s, ThreadState::Running { .. }));
            if any_running {
                continue;
            }
            let suspended = self.threads[t]
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        ThreadState::Suspended { .. } | ThreadState::Spinning { .. }
                    )
                })
                .count();
            self.stalls[t] = Some(StallInfo {
                time: self.time,
                job,
                suspended_threads: suspended,
            });
            self.dead[t] = true;
            self.releases[t].disable();
            self.rec(EventKind::StallDetected {
                task: u32c(t),
                job: u32c(job),
                suspended: u32c(suspended),
            });
        }
    }

    fn track_min_concurrency(&mut self) {
        for t in 0..self.set.len() {
            let suspended = self.threads[t]
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        ThreadState::Suspended { .. } | ThreadState::Spinning { .. }
                    )
                })
                .count();
            let avail = self.m - suspended;
            self.min_avail[t] = self.min_avail[t].min(avail);
        }
    }

    /// The threads holding a core right now. Spinning threads burn
    /// cycles on a core exactly like running ones — that core occupancy
    /// is the busy-wait interference the spin analysis charges to
    /// lower-priority tasks.
    fn select_cores(&self) -> Vec<(usize, usize)> {
        let occupies = |s: &ThreadState| {
            matches!(
                s,
                ThreadState::Running { .. } | ThreadState::Spinning { .. }
            )
        };
        match self.policy {
            SchedulingPolicy::Global => {
                // Priority = task index; ties by thread index. The m
                // highest-priority core-occupying threads hold the cores.
                let mut running: Vec<(usize, usize)> = (0..self.set.len())
                    .flat_map(|t| (0..self.m).map(move |th| (t, th)))
                    .filter(|&(t, th)| occupies(&self.threads[t][th]))
                    .collect();
                running.sort_unstable();
                running.truncate(self.m);
                running
            }
            SchedulingPolicy::Partitioned => {
                // Core k runs the highest-priority occupying thread among
                // the k-th threads of all pools.
                (0..self.m)
                    .filter_map(|k| {
                        (0..self.set.len())
                            .find(|&t| occupies(&self.threads[t][k]))
                            .map(|t| (t, k))
                    })
                    .collect()
            }
        }
    }

    fn finalize(mut self) -> SimOutcome {
        // The trace window is explicit: a finite horizon defines the end
        // of the observation window even if the last event fell earlier
        // (trailing idle time is part of the trace); an unbounded run
        // ends at the last event.
        let trace_end = if self.horizon == u64::MAX {
            self.time
        } else {
            self.horizon
        };
        let event_trace = self.recorder.take().map(|lane| {
            let (m, n) = (u32c(self.m), u32c(self.set.len()));
            sink::assemble(
                EngineKind::Sim,
                TimeUnit::Ticks,
                m,
                n,
                trace_end,
                vec![lane],
            )
        });
        let mut outcomes = Vec::with_capacity(self.set.len());
        for (t, (_, task)) in self.set.iter().enumerate() {
            let jobs = &self.jobs[t];
            let mut responses = Vec::new();
            let mut misses = 0usize;
            for job in jobs {
                match job.completed_at {
                    Some(end) => {
                        let response = end - job.release;
                        if response > task.deadline() {
                            misses += 1;
                        }
                        responses.push(response);
                    }
                    None => {
                        // Incomplete: a miss if its absolute deadline
                        // passed within the simulated window, or if the
                        // task stalled (it will never complete).
                        if self.stalls[t].is_some()
                            || job.release.saturating_add(task.deadline()) <= self.time
                        {
                            misses += 1;
                        }
                    }
                }
            }
            outcomes.push(TaskOutcome {
                released: jobs.len(),
                completed: responses.len(),
                max_response: responses.iter().copied().max(),
                responses,
                deadline_misses: misses,
                stall: self.stalls[t].clone(),
                min_available_concurrency: self.min_avail[t],
            });
        }
        SimOutcome::new(self.time, outcomes, event_trace)
    }
}

/// `value · permille / 1000`, rounded up so positive work never becomes
/// instantaneous.
fn scale_permille(value: u64, permille: u64) -> u64 {
    if value == 0 {
        return 0;
    }
    ((u128::from(value) * u128::from(permille)).div_ceil(1000) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_core::partition::{algorithm1, worst_fit};
    use rtpool_core::Task;
    use rtpool_graph::DagBuilder;

    fn single(dag: rtpool_graph::Dag, period: u64) -> TaskSet {
        TaskSet::new(vec![Task::with_implicit_deadline(dag, period).unwrap()])
    }

    fn chain(wcets: &[u64]) -> rtpool_graph::Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
        b.add_chain(&ids).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_runs_sequentially() {
        let set = single(chain(&[3, 4, 5]), 100);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).completed, 1);
        assert_eq!(out.task(0).responses, vec![12]);
        assert_eq!(out.task(0).min_available_concurrency, 2);
        assert!(out.all_deadlines_met());
    }

    #[test]
    fn parallel_branches_overlap() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[10, 10, 10], 1, false).unwrap();
        let set = single(b.build().unwrap(), 100);
        // 3 cores: branches fully parallel → 1 + 10 + 1.
        let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).responses, vec![12]);
        // 1 core: fully serial → 1 + 10·3 + 1 = 32.
        let out = SimConfig::single_job(SchedulingPolicy::Global, 1)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).responses, vec![32]);
    }

    #[test]
    fn blocking_region_executes_and_join_runs_on_fork_thread() {
        let mut b = DagBuilder::new();
        b.fork_join(2, &[5, 7], 3, true).unwrap();
        let set = single(b.build().unwrap(), 100);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .with_event_trace()
            .run(&set)
            .unwrap();
        // fork 2, children in parallel (max 7), join 3 → 12.
        assert_eq!(out.task(0).responses, vec![12]);
        // While children ran, the fork's thread was suspended: l dropped
        // from 3 to 2 over [2, 9).
        assert_eq!(out.task(0).min_available_concurrency, 2);
        let trace = out.event_trace().expect("event trace recorded");
        let ana = rtpool_trace::TraceAnalysis::new(trace);
        assert_eq!(ana.task(0).concurrency_profile, [(0, 3), (2, 2), (9, 3)]);
    }

    #[test]
    fn figure_1c_deadlock_detected() {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let set = single(b.build().unwrap(), 100_000);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .run(&set)
            .unwrap();
        let stall = out.task(0).stall.as_ref().expect("deadlock expected");
        assert_eq!(stall.suspended_threads, 2);
        assert_eq!(out.task(0).min_available_concurrency, 0);
        assert_eq!(out.task(0).deadline_misses, 1);
        // Three threads break the deadlock.
        let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .run(&set)
            .unwrap();
        assert!(out.task(0).stall.is_none());
        assert_eq!(out.task(0).completed, 1);
    }

    #[test]
    fn partitioned_child_behind_fork_deadlocks() {
        // One blocking region, everything mapped to thread 0 → the
        // children sit behind the suspended fork: Lemma 3's scenario.
        let mut b = DagBuilder::new();
        b.fork_join(2, &[5, 5], 3, true).unwrap();
        let dag = b.build().unwrap();
        let bad = worst_fit(&dag, 1);
        let set = single(dag, 100_000);
        let out = SimConfig::single_job(SchedulingPolicy::Partitioned, 1)
            .with_mappings(vec![bad])
            .run(&set)
            .unwrap();
        assert!(out.task(0).stall.is_some());
    }

    #[test]
    fn partitioned_algorithm1_mapping_completes() {
        let mut b = DagBuilder::new();
        b.fork_join(2, &[5, 5], 3, true).unwrap();
        let dag = b.build().unwrap();
        let mapping = algorithm1(&dag, 2).unwrap();
        let set = single(dag, 100_000);
        let out = SimConfig::single_job(SchedulingPolicy::Partitioned, 2)
            .with_mappings(vec![mapping])
            .run(&set)
            .unwrap();
        assert!(out.task(0).stall.is_none());
        // fork(2) + children serialized on the other thread (5+5) + join(3).
        assert_eq!(out.task(0).responses, vec![15]);
    }

    #[test]
    fn periodic_releases_and_preemption() {
        // High-priority chain task preempts a low-priority one on 1 core.
        let hp = Task::with_implicit_deadline(chain(&[2]), 10).unwrap();
        let lp = Task::with_implicit_deadline(chain(&[12]), 40).unwrap();
        let set = TaskSet::new(vec![hp, lp]);
        let out = SimConfig::periodic(SchedulingPolicy::Global, 1, 40)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).released, 4);
        assert_eq!(out.task(0).completed, 4);
        assert_eq!(out.task(0).max_response, Some(2));
        // lp: 12 units of work, loses 2 per 10-window: finishes at 16.
        assert_eq!(out.task(1).responses, vec![16]);
        assert!(out.all_deadlines_met());
    }

    #[test]
    fn overload_counts_misses() {
        let t = Task::with_implicit_deadline(chain(&[15]), 10).unwrap();
        let set = TaskSet::new(vec![t]);
        let out = SimConfig::periodic(SchedulingPolicy::Global, 1, 100)
            .run(&set)
            .unwrap();
        assert!(out.task(0).deadline_misses > 0);
        assert!(!out.all_deadlines_met());
    }

    #[test]
    fn explicit_releases() {
        let t = Task::with_implicit_deadline(chain(&[5]), 100).unwrap();
        let set = TaskSet::new(vec![t]);
        let out = SimConfig {
            policy: SchedulingPolicy::Global,
            m: 1,
            horizon: 1_000,
            releases: ReleasePattern::Explicit(vec![vec![0, 7, 50]]),
            mappings: None,
            execution_time: ExecutionTime::Wcet,
            record_event_trace: false,
        }
        .run(&set)
        .unwrap();
        assert_eq!(out.task(0).released, 3);
        assert_eq!(out.task(0).responses, vec![5, 5, 5]);
    }

    #[test]
    fn config_errors() {
        let t = Task::with_implicit_deadline(chain(&[1]), 10).unwrap();
        let set = TaskSet::new(vec![t]);
        assert_eq!(
            SimConfig::single_job(SchedulingPolicy::Global, 0)
                .run(&set)
                .unwrap_err(),
            SimError::NoCores
        );
        assert_eq!(
            SimConfig::single_job(SchedulingPolicy::Partitioned, 1)
                .run(&set)
                .unwrap_err(),
            SimError::MissingMappings
        );
        let mut cfg = SimConfig::periodic(SchedulingPolicy::Global, 1, u64::MAX);
        assert_eq!(cfg.run(&set).unwrap_err(), SimError::InfiniteHorizon);
        cfg.releases = ReleasePattern::Explicit(vec![vec![5, 1]]);
        cfg.horizon = 100;
        assert_eq!(
            cfg.run(&set).unwrap_err(),
            SimError::UnsortedReleases { task: 0 }
        );
    }

    #[test]
    fn zero_wcet_dummy_nodes_complete_instantly() {
        // Normalized graph with zero-wcet dummy endpoints.
        let mut b = DagBuilder::new();
        let a = b.add_node(5);
        let c = b.add_node(5);
        let _ = (a, c); // two disconnected nodes -> dummies added
        let dag = b.build_normalized().unwrap();
        let set = single(dag, 100);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).responses, vec![5]);
    }

    #[test]
    fn sporadic_releases_are_spaced_at_least_a_period() {
        let t = Task::with_implicit_deadline(chain(&[2]), 10).unwrap();
        let set = TaskSet::new(vec![t]);
        let mut cfg = SimConfig::periodic(SchedulingPolicy::Global, 1, 200);
        cfg.releases = ReleasePattern::Sporadic {
            seed: 9,
            max_delay_permille: 500,
        };
        let out = cfg.run(&set).unwrap();
        // With up to 50% extra delay, between 200/15 and 200/10 jobs fit.
        assert!(out.task(0).released >= 200 / 15);
        assert!(out.task(0).released <= 200 / 10);
        assert_eq!(out.task(0).completed, out.task(0).released);
        // Determinism: the same seed reproduces the same run.
        let out2 = cfg.run(&set).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn scaled_execution_time_halves_the_chain() {
        let mut b = DagBuilder::new();
        b.fork_join(10, &[10, 10], 10, true).unwrap();
        // A chain on one thread, and a blocking fork-join on two whose
        // join is run by the woken fork thread: both scale alike.
        for (dag, m, full) in [(chain(&[10, 10]), 1, 20), (b.build().unwrap(), 2, 40)] {
            let set = single(dag, 1_000);
            let out = SimConfig::single_job(SchedulingPolicy::Global, m)
                .with_execution_time(ExecutionTime::Scaled { permille: 500 })
                .run(&set)
                .unwrap();
            assert_eq!(out.task(0).responses, vec![full / 2]);
        }
    }

    #[test]
    fn random_execution_time_bounded_by_wcet() {
        let set = single(chain(&[10, 10, 10]), 1_000);
        let wcet_run = SimConfig::single_job(SchedulingPolicy::Global, 1)
            .run(&set)
            .unwrap();
        let varied = SimConfig::single_job(SchedulingPolicy::Global, 1)
            .with_execution_time(ExecutionTime::Random {
                seed: 3,
                min_permille: 200,
            })
            .run(&set)
            .unwrap();
        // On a single chain (no anomalies possible) shorter executions
        // can only shorten the response.
        assert!(varied.task(0).responses[0] <= wcet_run.task(0).responses[0]);
        assert!(varied.task(0).responses[0] >= 6); // at least 20% each
    }

    #[test]
    fn core_trace_records_schedule() {
        let hp = Task::with_implicit_deadline(chain(&[3]), 100).unwrap();
        let lp = Task::with_implicit_deadline(chain(&[3]), 200).unwrap();
        let set = TaskSet::new(vec![hp, lp]);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 1)
            .with_event_trace()
            .run(&set)
            .unwrap();
        let trace = out.event_trace().expect("event trace recorded");
        let art = rtpool_trace::gantt::render(trace, 80);
        assert_eq!(art.lines().next().unwrap(), "core 0: 000111");
    }

    #[test]
    fn event_trace_captures_blocking_lifecycle() {
        // fork(2) -> {5, 7} -> join(3) on 3 cores, single job.
        let mut b = DagBuilder::new();
        b.fork_join(2, &[5, 7], 3, true).unwrap();
        let set = single(b.build().unwrap(), 100);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .with_event_trace()
            .run(&set)
            .unwrap();
        let trace = out.event_trace().expect("event trace recorded");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert_eq!(trace.end_time, 12);
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"JobReleased"));
        assert!(names.contains(&"BarrierSuspend"));
        assert!(names.contains(&"BarrierWake"));
        assert!(names.contains(&"JobCompleted"));
        assert!(names.contains(&"CoreAssign"));
        // The analysis recovers the same quantities the engine reports.
        let ana = rtpool_trace::TraceAnalysis::new(trace);
        assert_eq!(ana.task(0).responses, out.task(0).responses);
        assert_eq!(
            ana.task(0).min_available,
            out.task(0).min_available_concurrency
        );
        assert_eq!(ana.task(0).max_simultaneous_blocking, 1);
    }

    #[test]
    fn event_trace_records_stall() {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let set = single(b.build().unwrap(), 100_000);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .with_event_trace()
            .run(&set)
            .unwrap();
        let trace = out.event_trace().expect("event trace recorded");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        let ana = rtpool_trace::TraceAnalysis::new(trace);
        assert!(ana.any_stall());
        assert_eq!(
            ana.task(0).stalled.map(|_| ()),
            out.task(0).stall.as_ref().map(|_| ())
        );
        assert_eq!(ana.task(0).min_available, 0);
    }

    #[test]
    fn event_trace_covers_finite_horizon() {
        // Periodic run with an idle tail: the trace window extends to
        // the horizon even though the last event falls earlier.
        let t = Task::with_implicit_deadline(chain(&[2]), 10).unwrap();
        let set = TaskSet::new(vec![t]);
        let out = SimConfig::periodic(SchedulingPolicy::Global, 1, 35)
            .with_event_trace()
            .run(&set)
            .unwrap();
        let trace = out.event_trace().unwrap();
        assert!(trace.validate().is_empty());
        assert_eq!(trace.end_time, 35);
        let ana = rtpool_trace::TraceAnalysis::new(trace);
        assert_eq!(ana.task(0).released, 4);
        assert_eq!(ana.task(0).completed, 4);
        assert_eq!(ana.task(0).responses, vec![2, 2, 2, 2]);
    }

    #[test]
    fn spin_backend_single_task_matches_suspend_and_traces_spin() {
        // Intra-task, spin and suspend are operationally identical: the
        // pool has as many threads as cores, so a spinner holds a core
        // no other own thread could have used anyway.
        let mut b = DagBuilder::new();
        b.fork_join(2, &[5, 7], 3, true).unwrap();
        let dag = b.build().unwrap();
        let suspend = single(dag.clone(), 100);
        let spin = single(dag, 100).with_backend(rtpool_core::SyncBackend::Spin);
        let out_su = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .with_event_trace()
            .run(&suspend)
            .unwrap();
        let out_sp = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .with_event_trace()
            .run(&spin)
            .unwrap();
        assert_eq!(out_sp.task(0).responses, out_su.task(0).responses);
        assert_eq!(
            out_sp.task(0).min_available_concurrency,
            out_su.task(0).min_available_concurrency
        );
        let trace = out_sp.event_trace().expect("event trace recorded");
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"));
        assert!(names.contains(&"SpinEnd"));
        assert!(!names.contains(&"BarrierSuspend"));
        assert!(!names.contains(&"BarrierWake"));
        assert!(!names.contains(&"ThreadPark"));
        // The analysis counts a spinner as blocking.
        let ana = rtpool_trace::TraceAnalysis::new(trace);
        assert_eq!(ana.task(0).max_simultaneous_blocking, 1);
    }

    #[test]
    fn spin_backend_holds_core_and_starves_lower_priority() {
        // fork(2) → {5} → join(3) plus a lower-priority 5-unit chain on
        // 2 cores. Under suspend the fork's thread frees its core while
        // the child runs, so the chain proceeds in parallel; under spin
        // the fork's thread burns that core until the barrier opens —
        // the busy-wait interference the spin analysis charges.
        let mk_set = |backend| {
            let mut b = DagBuilder::new();
            b.fork_join(2, &[5], 3, true).unwrap();
            let hp = Task::with_implicit_deadline(b.build().unwrap(), 200).unwrap();
            let lp = Task::with_implicit_deadline(chain(&[5]), 200).unwrap();
            TaskSet::new(vec![hp, lp]).with_backend(backend)
        };
        let out_su = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .run(&mk_set(rtpool_core::SyncBackend::Suspend))
            .unwrap();
        let out_sp = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .run(&mk_set(rtpool_core::SyncBackend::Spin))
            .unwrap();
        // The blocking task itself is indifferent...
        assert_eq!(out_su.task(0).responses, vec![10]);
        assert_eq!(out_sp.task(0).responses, vec![10]);
        // ...but the spinner's held core delays the low-priority task.
        assert_eq!(out_su.task(1).responses, vec![5]);
        assert_eq!(out_sp.task(1).responses, vec![10]);
    }

    #[test]
    fn spin_backend_stall_detected_with_spinning_threads() {
        // Figure 1(c)-style deadlock under the spin backend: every
        // worker ends up busy-waiting, the stall detector still fires
        // and counts the spinners as blocked.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let set = single(b.build().unwrap(), 100_000).with_backend(rtpool_core::SyncBackend::Spin);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
            .with_event_trace()
            .run(&set)
            .unwrap();
        let stall = out.task(0).stall.as_ref().expect("deadlock expected");
        assert_eq!(stall.suspended_threads, 2);
        assert_eq!(out.task(0).min_available_concurrency, 0);
        let trace = out.event_trace().unwrap();
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"));
        assert!(names.contains(&"StallDetected"));
    }

    #[test]
    fn lower_priority_task_preempted_globally() {
        // Two single-node tasks on one core: priority order decides.
        let hp = Task::with_implicit_deadline(chain(&[4]), 100).unwrap();
        let lp = Task::with_implicit_deadline(chain(&[4]), 200).unwrap();
        let set = TaskSet::new(vec![hp, lp]);
        let out = SimConfig::single_job(SchedulingPolicy::Global, 1)
            .run(&set)
            .unwrap();
        assert_eq!(out.task(0).responses, vec![4]);
        assert_eq!(out.task(1).responses, vec![8]);
    }
}
