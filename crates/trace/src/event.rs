//! The shared trace-event schema.
//!
//! Both execution engines — the deterministic discrete-event simulator
//! (`rtpool-sim`) and the native condvar-based thread pool
//! (`rtpool-exec`) — emit the same [`EventKind`]s, so one
//! [`TraceAnalysis`](crate::TraceAnalysis) recovers the paper's runtime
//! quantities (observed `l(t, τᵢ)`, simultaneous-blocking antichains,
//! response times) from either engine.
//!
//! Ordering is by the logical sequence number [`TraceEvent::seq`], which
//! is globally unique and strictly increasing in recording order. The
//! `time` field is engine-relative: simulator ticks
//! ([`TimeUnit::Ticks`]) or nanoseconds since job submission
//! ([`TimeUnit::Nanos`]).

/// Which engine produced a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The deterministic discrete-event simulator (`rtpool-sim`).
    Sim,
    /// The native thread pool (`rtpool-exec`).
    Exec,
}

impl EngineKind {
    /// Stable lower-case name (used by the exporters).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Exec => "exec",
        }
    }

    /// Inverse of [`EngineKind::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(EngineKind::Sim),
            "exec" => Some(EngineKind::Exec),
            _ => None,
        }
    }
}

/// Unit of the [`TraceEvent::time`] field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeUnit {
    /// Simulator ticks (WCET units).
    Ticks,
    /// Nanoseconds since job submission (wall clock).
    Nanos,
}

impl TimeUnit {
    /// Stable lower-case name (used by the exporters).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TimeUnit::Ticks => "ticks",
            TimeUnit::Nanos => "nanos",
        }
    }

    /// Inverse of [`TimeUnit::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ticks" => Some(TimeUnit::Ticks),
            "nanos" => Some(TimeUnit::Nanos),
            _ => None,
        }
    }
}

/// One recorded event: a logical sequence number, an engine-relative
/// timestamp, and what happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally unique, strictly increasing in recording order.
    pub seq: u64,
    /// Engine-relative timestamp (see [`Trace::time_unit`]).
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What happened. Indices are engine-relative: `task` is the priority
/// index within the task set (always 0 for `rtpool-exec`, which runs one
/// graph per job), `thread` is the serving thread within the task's
/// pool, `node` / `fork` / `join` are node indices in the task's graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job of `task` was released (exec: submitted to the pool).
    JobReleased {
        /// Task index.
        task: u32,
        /// Job index within the task (release order).
        job: u32,
    },
    /// The job's sink node completed.
    JobCompleted {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
    },
    /// `thread` started executing `node` (sim: dispatched to the thread;
    /// exec: the body begins — both mark the instant the node starts
    /// occupying its thread).
    NodeStart {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// Node index in the task's graph.
        node: u32,
        /// Serving pool thread.
        thread: u32,
    },
    /// `thread` finished `node` (on a panicked body the interval is
    /// closed here too; a paired [`EventKind::Recovery`] marks the
    /// abnormality).
    NodeEnd {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// Node index in the task's graph.
        node: u32,
        /// Serving pool thread.
        thread: u32,
    },
    /// `thread` completed the blocking fork `fork` and suspended on its
    /// barrier (the condition-variable wait of the paper's Listing 1).
    BarrierSuspend {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// The blocking-fork node whose barrier the thread waits on.
        fork: u32,
        /// The suspended pool thread.
        thread: u32,
    },
    /// The barrier of `join` opened and `thread` resumed to run the join
    /// as its continuation.
    BarrierWake {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// The blocking-join node whose barrier opened.
        join: u32,
        /// The resumed pool thread.
        thread: u32,
    },
    /// `thread` completed the blocking fork `fork` and started
    /// *busy-waiting* on its barrier (the spin backend's counterpart of
    /// [`EventKind::BarrierSuspend`]): the thread keeps its core and
    /// burns it until the barrier opens. A spinning thread never parks —
    /// no [`EventKind::ThreadPark`] may appear for it before the
    /// matching [`EventKind::SpinEnd`].
    SpinStart {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// The blocking-fork node whose barrier the thread spins on.
        fork: u32,
        /// The spinning pool thread.
        thread: u32,
    },
    /// The barrier of `join` opened and the spinning `thread` fell
    /// through to run the join as its continuation (the spin backend's
    /// counterpart of [`EventKind::BarrierWake`]).
    SpinEnd {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// The blocking-join node whose barrier opened.
        join: u32,
        /// The thread that was spinning.
        thread: u32,
    },
    /// `thread` went idle waiting for work (exec: blocked on the pool
    /// condvar; the simulator does not emit park events — idleness is
    /// visible through [`EventKind::CoreAssign`]).
    ThreadPark {
        /// Task index.
        task: u32,
        /// The parked pool thread.
        thread: u32,
    },
    /// `thread` resumed from an idle wait to fetch work.
    ThreadUnpark {
        /// Task index.
        task: u32,
        /// The resumed pool thread.
        thread: u32,
    },
    /// Core occupancy changed: from this instant `core` runs
    /// `occupant` (`None` = idle). Emitted as a *diff*: only when the
    /// occupant actually changes.
    CoreAssign {
        /// Core index (exec: worker index — workers are pinned).
        core: u32,
        /// `(task, thread)` holding the core, or `None` when idle.
        occupant: Option<(u32, u32)>,
    },
    /// The engine's exact stall detector fired: the job can never
    /// progress again (the deadlock of the paper's Section 3).
    StallDetected {
        /// Task index.
        task: u32,
        /// Job index within the task.
        job: u32,
        /// Threads suspended on barriers at the stall point.
        suspended: u32,
    },
    /// A fault-injection or recovery transition (exec only): the label
    /// names the injected fault or recovery action (`"panic_body"`,
    /// `"suspend_worker"`, `"swallow_wakeup"`, `"delay_wakeup"`,
    /// `"jitter_wcet"`, `"node_panicked"`, `"pool_grown"`).
    Recovery {
        /// Task index.
        task: u32,
        /// Stable label of the fault / recovery action.
        label: String,
        /// The node involved, when the action is node-scoped.
        node: Option<u32>,
    },
    /// Depth of the queue `thread` fetched from, sampled right after a
    /// successful fetch (exec only): the remaining backlog the worker
    /// left behind. Observes dispatch pressure per worker.
    QueueDepth {
        /// Task index.
        task: u32,
        /// The fetching pool thread.
        thread: u32,
        /// Entries left in the fetched-from queue after the fetch.
        depth: u32,
    },
    /// `thread` stole work it did not spawn (exec only): from a peer
    /// worker's deque (`victim = Some(peer)`) or from the shared
    /// injector queue (`victim = None`). `count` is the number of nodes
    /// moved by the steal (the v1 engine always moves 1; the v2
    /// lock-free engine steals batches of up to half the victim's
    /// backlog).
    StealBatch {
        /// Task index.
        task: u32,
        /// The stealing pool thread.
        thread: u32,
        /// The victim worker, or `None` for the shared injector.
        victim: Option<u32>,
        /// Nodes moved by this steal.
        count: u32,
    },
    /// A mutated resubmission was answered from a resident base (serve
    /// only): the admission service resolved an `edit` request with
    /// `Dag::edit`, which builds a new graph sharing the base's structural
    /// cells, and ran the ladder on it, instead of parsing a source.
    CacheDeltaHit {
        /// Task index.
        task: u32,
        /// Job index within the task (the resubmission's job number).
        job: u32,
    },
}

impl EventKind {
    /// Stable name of the variant (used by the exporters).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JobReleased { .. } => "JobReleased",
            EventKind::JobCompleted { .. } => "JobCompleted",
            EventKind::NodeStart { .. } => "NodeStart",
            EventKind::NodeEnd { .. } => "NodeEnd",
            EventKind::BarrierSuspend { .. } => "BarrierSuspend",
            EventKind::BarrierWake { .. } => "BarrierWake",
            EventKind::SpinStart { .. } => "SpinStart",
            EventKind::SpinEnd { .. } => "SpinEnd",
            EventKind::ThreadPark { .. } => "ThreadPark",
            EventKind::ThreadUnpark { .. } => "ThreadUnpark",
            EventKind::CoreAssign { .. } => "CoreAssign",
            EventKind::StallDetected { .. } => "StallDetected",
            EventKind::Recovery { .. } => "Recovery",
            EventKind::QueueDepth { .. } => "QueueDepth",
            EventKind::StealBatch { .. } => "StealBatch",
            EventKind::CacheDeltaHit { .. } => "CacheDeltaHit",
        }
    }

    /// The task the event belongs to ([`EventKind::CoreAssign`] reports
    /// its occupant's task, or `None` when the core went idle).
    #[must_use]
    pub fn task(&self) -> Option<u32> {
        match self {
            EventKind::JobReleased { task, .. }
            | EventKind::JobCompleted { task, .. }
            | EventKind::NodeStart { task, .. }
            | EventKind::NodeEnd { task, .. }
            | EventKind::BarrierSuspend { task, .. }
            | EventKind::BarrierWake { task, .. }
            | EventKind::SpinStart { task, .. }
            | EventKind::SpinEnd { task, .. }
            | EventKind::ThreadPark { task, .. }
            | EventKind::ThreadUnpark { task, .. }
            | EventKind::StallDetected { task, .. }
            | EventKind::Recovery { task, .. }
            | EventKind::QueueDepth { task, .. }
            | EventKind::StealBatch { task, .. }
            | EventKind::CacheDeltaHit { task, .. } => Some(*task),
            EventKind::CoreAssign { occupant, .. } => occupant.map(|(t, _)| t),
        }
    }

    /// The pool thread the event is scoped to, when thread-scoped.
    /// [`EventKind::CoreAssign`] is core-scoped and returns `None`.
    #[must_use]
    pub fn thread(&self) -> Option<u32> {
        match self {
            EventKind::NodeStart { thread, .. }
            | EventKind::NodeEnd { thread, .. }
            | EventKind::BarrierSuspend { thread, .. }
            | EventKind::BarrierWake { thread, .. }
            | EventKind::SpinStart { thread, .. }
            | EventKind::SpinEnd { thread, .. }
            | EventKind::ThreadPark { thread, .. }
            | EventKind::ThreadUnpark { thread, .. }
            | EventKind::QueueDepth { thread, .. }
            | EventKind::StealBatch { thread, .. } => Some(*thread),
            _ => None,
        }
    }

    /// Rewrites the event's task index (used when single-task exec
    /// traces are relabeled to their position in a larger set).
    pub fn set_task(&mut self, new: u32) {
        match self {
            EventKind::JobReleased { task, .. }
            | EventKind::JobCompleted { task, .. }
            | EventKind::NodeStart { task, .. }
            | EventKind::NodeEnd { task, .. }
            | EventKind::BarrierSuspend { task, .. }
            | EventKind::BarrierWake { task, .. }
            | EventKind::SpinStart { task, .. }
            | EventKind::SpinEnd { task, .. }
            | EventKind::ThreadPark { task, .. }
            | EventKind::ThreadUnpark { task, .. }
            | EventKind::StallDetected { task, .. }
            | EventKind::Recovery { task, .. }
            | EventKind::QueueDepth { task, .. }
            | EventKind::StealBatch { task, .. }
            | EventKind::CacheDeltaHit { task, .. } => *task = new,
            EventKind::CoreAssign { occupant, .. } => {
                if let Some((t, _)) = occupant {
                    *t = new;
                }
            }
        }
    }
}

/// A completed trace: engine metadata plus the event list in `seq`
/// order.
///
/// The trace covers `[0, end_time]`; a [`EventKind::CoreAssign`]
/// occupant holds its core until the next assignment of that core or
/// `end_time`, whichever comes first (trailing idle time is part of the
/// trace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The engine that produced the trace.
    pub engine: EngineKind,
    /// Unit of every `time` field and of `end_time`.
    pub time_unit: TimeUnit,
    /// Cores / pinned workers covered by core-assign events (for
    /// `rtpool-exec` this includes rescue workers added by `GrowPool`).
    pub cores: u32,
    /// Number of tasks in the traced set (1 for `rtpool-exec` jobs).
    pub tasks: u32,
    /// When the trace ends; at least the largest event time.
    pub end_time: u64,
    /// All events, sorted by `seq`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Rewrites every event's task index and widens `tasks`, so a
    /// single-task `rtpool-exec` trace can be displayed at its position
    /// `task` within a larger set.
    #[must_use]
    pub fn with_task_index(mut self, task: u32) -> Self {
        for e in &mut self.events {
            e.kind.set_task(task);
        }
        self.tasks = self.tasks.max(task + 1);
        self
    }
}

/// Single-threaded trace recorder (used by the simulator; the native
/// pool records through per-worker [`LaneRecorder`](crate::LaneRecorder)
/// lanes instead).
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    engine: EngineKind,
    time_unit: TimeUnit,
    cores: u32,
    tasks: u32,
    next_seq: u64,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder for the given engine and platform.
    #[must_use]
    pub fn new(engine: EngineKind, time_unit: TimeUnit, cores: u32, tasks: u32) -> Self {
        TraceRecorder {
            engine,
            time_unit,
            cores,
            tasks,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    /// Appends an event, assigning the next sequence number.
    pub fn record(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(TraceEvent { seq, time, kind });
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Seals the trace. `end_time` is clamped up to the largest recorded
    /// event time, so the trace always covers its own events.
    #[must_use]
    pub fn finish(self, end_time: u64) -> Trace {
        let last = self.events.iter().map(|e| e.time).max().unwrap_or(0);
        Trace {
            engine: self.engine,
            time_unit: self.time_unit,
            cores: self.cores,
            tasks: self.tasks,
            end_time: end_time.max(last),
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_assigns_monotone_seqs_and_clamps_end() {
        let mut r = TraceRecorder::new(EngineKind::Sim, TimeUnit::Ticks, 2, 1);
        assert!(r.is_empty());
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(5, EventKind::JobCompleted { task: 0, job: 0 });
        assert_eq!(r.len(), 2);
        let t = r.finish(3); // below the last event: clamped up
        assert_eq!(t.end_time, 5);
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].seq, 1);
    }

    #[test]
    fn kind_accessors() {
        let k = EventKind::NodeStart {
            task: 2,
            job: 0,
            node: 7,
            thread: 1,
        };
        assert_eq!(k.task(), Some(2));
        assert_eq!(k.thread(), Some(1));
        assert_eq!(k.name(), "NodeStart");
        let idle = EventKind::CoreAssign {
            core: 0,
            occupant: None,
        };
        assert_eq!(idle.task(), None);
        assert_eq!(idle.thread(), None);
        let busy = EventKind::CoreAssign {
            core: 0,
            occupant: Some((3, 1)),
        };
        assert_eq!(busy.task(), Some(3));
        assert_eq!(busy.thread(), None);
    }

    #[test]
    fn engine_and_unit_names_round_trip() {
        for e in [EngineKind::Sim, EngineKind::Exec] {
            assert_eq!(EngineKind::parse(e.as_str()), Some(e));
        }
        for u in [TimeUnit::Ticks, TimeUnit::Nanos] {
            assert_eq!(TimeUnit::parse(u.as_str()), Some(u));
        }
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(TimeUnit::parse("nope"), None);
    }

    #[test]
    fn with_task_index_relabels_everything() {
        let mut r = TraceRecorder::new(EngineKind::Exec, TimeUnit::Nanos, 2, 1);
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(
            1,
            EventKind::CoreAssign {
                core: 0,
                occupant: Some((0, 0)),
            },
        );
        r.record(
            2,
            EventKind::CoreAssign {
                core: 0,
                occupant: None,
            },
        );
        let t = r.finish(2).with_task_index(3);
        assert_eq!(t.tasks, 4);
        assert_eq!(t.events[0].kind.task(), Some(3));
        assert_eq!(t.events[1].kind.task(), Some(3));
        assert_eq!(t.events[2].kind.task(), None); // idle stays idle
    }
}
