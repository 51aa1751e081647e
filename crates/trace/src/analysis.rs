//! Trace analysis: recovering the paper's runtime quantities from an
//! event stream, and validating traces against the schema's invariants.
//!
//! [`TraceAnalysis`] is engine-agnostic: its one sweep computes
//! observed response times, the observed available-concurrency profile
//! `l(t, τᵢ)`, observed simultaneous-blocking antichains, node latencies
//! and dispatch counts from a simulator trace (ticks) or a native-pool
//! trace (nanoseconds). The
//! differential test suite feeds both through this one type and checks
//! them against the static bounds of `rtpool-core`.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{EventKind, Trace};
use crate::metrics::LatencyHistogram;

/// A violation of the trace schema's invariants, found by
/// [`Trace::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDefect {
    /// Sequence numbers are not strictly increasing at event index `at`.
    NonMonotoneSeq {
        /// Index into `Trace::events`.
        at: usize,
    },
    /// A thread's events go backwards in time.
    ThreadTimeRegression {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `NodeEnd` without a matching open `NodeStart` on the thread.
    UnmatchedNodeEnd {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `NodeStart` while the thread already has an open node.
    NestedNodeStart {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `BarrierSuspend` while the thread is already suspended.
    DoubleSuspend {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `BarrierWake` on a thread that was not suspended.
    WakeWithoutSuspend {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `SpinEnd` on a thread that was not spinning (includes a
    /// `SpinEnd` answering a `BarrierSuspend`: the close must match the
    /// open's backend).
    SpinEndWithoutSpin {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// `ThreadPark` between a thread's `SpinStart` and its `SpinEnd` — a
    /// spinning thread holds its core by definition and must never park.
    ParkWhileSpinning {
        /// Task index.
        task: u32,
        /// Thread index.
        thread: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// A core's assignments go backwards in time (which would make two
    /// occupants overlap on the core).
    CoreTimeRegression {
        /// Core index.
        core: u32,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// A task, thread, or core index exceeds the trace metadata.
    IndexOutOfRange {
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// An event time exceeds the trace's `end_time`.
    TimeBeyondEnd {
        /// Sequence number of the offending event.
        seq: u64,
    },
}

impl fmt::Display for TraceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDefect::NonMonotoneSeq { at } => {
                write!(f, "sequence numbers not strictly increasing at event {at}")
            }
            TraceDefect::ThreadTimeRegression { task, thread, seq } => write!(
                f,
                "time regression on task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::UnmatchedNodeEnd { task, thread, seq } => write!(
                f,
                "NodeEnd without open node on task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::NestedNodeStart { task, thread, seq } => write!(
                f,
                "NodeStart while a node is open on task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::DoubleSuspend { task, thread, seq } => write!(
                f,
                "BarrierSuspend on already-suspended task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::WakeWithoutSuspend { task, thread, seq } => write!(
                f,
                "BarrierWake on non-suspended task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::SpinEndWithoutSpin { task, thread, seq } => write!(
                f,
                "SpinEnd on non-spinning task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::ParkWhileSpinning { task, thread, seq } => write!(
                f,
                "ThreadPark while spinning on task {task} thread {thread} at seq {seq}"
            ),
            TraceDefect::CoreTimeRegression { core, seq } => {
                write!(f, "core {core} assignments go backwards at seq {seq}")
            }
            TraceDefect::IndexOutOfRange { seq } => {
                write!(f, "task/thread/core index out of range at seq {seq}")
            }
            TraceDefect::TimeBeyondEnd { seq } => {
                write!(f, "event time beyond the trace end_time at seq {seq}")
            }
        }
    }
}

impl Trace {
    /// Checks the schema invariants every engine must uphold:
    ///
    /// * sequence numbers strictly increase;
    /// * per `(task, thread)`, event times are monotone;
    /// * per `(task, thread)`, `NodeStart`/`NodeEnd` alternate (an open
    ///   node at the end of the trace is allowed — preemption at the
    ///   horizon or an aborted job);
    /// * per `(task, thread)`, `BarrierSuspend`/`BarrierWake` and
    ///   `SpinStart`/`SpinEnd` pair up with matching backends
    ///   (blocked-at-end is allowed — that is a deadlock / stall), and no
    ///   `ThreadPark` appears between a `SpinStart` and its `SpinEnd`;
    /// * per core, assignment times are monotone, so no two occupants
    ///   ever overlap on one core;
    /// * all indices fit the metadata and no event lies past `end_time`.
    #[must_use]
    pub fn validate(&self) -> Vec<TraceDefect> {
        let mut defects = Vec::new();
        let mut last_seq: Option<u64> = None;
        let mut thread_time: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut open_node: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        // How each (task, thread) is currently blocked, if at all.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Blocked {
            No,
            Suspended,
            Spinning,
        }
        let mut suspended: BTreeMap<(u32, u32), Blocked> = BTreeMap::new();
        let mut core_time: BTreeMap<u32, u64> = BTreeMap::new();

        for (at, e) in self.events.iter().enumerate() {
            if last_seq.is_some_and(|p| e.seq <= p) {
                defects.push(TraceDefect::NonMonotoneSeq { at });
            }
            last_seq = Some(e.seq);
            if e.time > self.end_time {
                defects.push(TraceDefect::TimeBeyondEnd { seq: e.seq });
            }
            if e.kind.task().is_some_and(|t| t >= self.tasks) {
                defects.push(TraceDefect::IndexOutOfRange { seq: e.seq });
            }
            if e.kind.thread().is_some_and(|th| th >= self.cores) {
                defects.push(TraceDefect::IndexOutOfRange { seq: e.seq });
            }
            if let (Some(task), Some(thread)) = (e.kind.task(), e.kind.thread()) {
                let key = (task, thread);
                let last = thread_time.entry(key).or_insert(0);
                if e.time < *last {
                    defects.push(TraceDefect::ThreadTimeRegression {
                        task,
                        thread,
                        seq: e.seq,
                    });
                }
                *last = (*last).max(e.time);
            }
            match &e.kind {
                EventKind::NodeStart {
                    task, node, thread, ..
                } => {
                    let already_open = open_node.insert((*task, *thread), *node).is_some();
                    if already_open {
                        defects.push(TraceDefect::NestedNodeStart {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                }
                EventKind::NodeEnd {
                    task, node, thread, ..
                } => {
                    let closed = open_node.remove(&(*task, *thread));
                    if closed != Some(*node) {
                        defects.push(TraceDefect::UnmatchedNodeEnd {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                }
                EventKind::BarrierSuspend { task, thread, .. } => {
                    let s = suspended.entry((*task, *thread)).or_insert(Blocked::No);
                    if *s != Blocked::No {
                        defects.push(TraceDefect::DoubleSuspend {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                    *s = Blocked::Suspended;
                }
                EventKind::BarrierWake { task, thread, .. } => {
                    let s = suspended.entry((*task, *thread)).or_insert(Blocked::No);
                    if *s != Blocked::Suspended {
                        defects.push(TraceDefect::WakeWithoutSuspend {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                    *s = Blocked::No;
                }
                EventKind::SpinStart { task, thread, .. } => {
                    let s = suspended.entry((*task, *thread)).or_insert(Blocked::No);
                    if *s != Blocked::No {
                        defects.push(TraceDefect::DoubleSuspend {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                    *s = Blocked::Spinning;
                }
                EventKind::SpinEnd { task, thread, .. } => {
                    let s = suspended.entry((*task, *thread)).or_insert(Blocked::No);
                    if *s != Blocked::Spinning {
                        defects.push(TraceDefect::SpinEndWithoutSpin {
                            task: *task,
                            thread: *thread,
                            seq: e.seq,
                        });
                    }
                    *s = Blocked::No;
                }
                EventKind::ThreadPark { task, thread }
                    if suspended.get(&(*task, *thread)) == Some(&Blocked::Spinning) =>
                {
                    defects.push(TraceDefect::ParkWhileSpinning {
                        task: *task,
                        thread: *thread,
                        seq: e.seq,
                    });
                }
                EventKind::CoreAssign { core, occupant } => {
                    if *core >= self.cores
                        || occupant.is_some_and(|(t, th)| t >= self.tasks || th >= self.cores)
                    {
                        defects.push(TraceDefect::IndexOutOfRange { seq: e.seq });
                    }
                    let last = core_time.entry(*core).or_insert(0);
                    if e.time < *last {
                        defects.push(TraceDefect::CoreTimeRegression {
                            core: *core,
                            seq: e.seq,
                        });
                    }
                    *last = (*last).max(e.time);
                }
                _ => {}
            }
        }
        defects
    }
}

/// Everything observed about one task in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskObservation {
    /// Jobs released.
    pub released: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Response time of each completed job, in completion order.
    pub responses: Vec<u64>,
    /// Largest number of this task's threads simultaneously suspended on
    /// barriers — by the paper's Section 3 argument, the size of a
    /// blocking-fork antichain, so it never exceeds `b̄(τᵢ)`.
    pub max_simultaneous_blocking: usize,
    /// The blocking forks suspended at (the first) peak — a witness
    /// antichain of size `max_simultaneous_blocking`.
    pub blocking_witness: Vec<u32>,
    /// Smallest observed `cores − suspended`: the observed available
    /// concurrency floor, never below `l̄(τᵢ) = m − b̄(τᵢ)`.
    pub min_available: usize,
    /// Step function `(time, cores − suspended)`; starts at
    /// `(0, cores)`, one entry per change.
    pub concurrency_profile: Vec<(u64, usize)>,
    /// Time of the stall (deadlock) detection, when the task stalled.
    pub stalled: Option<u64>,
    /// Node executions finished.
    pub nodes_executed: usize,
    /// `NodeStart`→`NodeEnd` latency over all of the task's nodes, each
    /// thread's start paired with its next end.
    pub node_latency: LatencyHistogram,
    /// Depth of the queue each fetch left behind
    /// ([`EventKind::QueueDepth`], exec only).
    pub queue_depth: LatencyHistogram,
    /// Nodes stolen from peers or the shared injector (sum of
    /// [`EventKind::StealBatch`] counts, exec only).
    pub steals: u64,
}

/// Transient pairing state of one task while the events are folded.
#[derive(Clone, Default)]
struct Pairing {
    /// Release time of each job.
    releases: BTreeMap<u32, u64>,
    /// Start time of the node each thread has open.
    open_nodes: BTreeMap<u32, u64>,
    /// The forks currently blocked on, as `(thread, fork)`.
    blocked: Vec<(u32, u32)>,
}

/// Engine-agnostic analysis of one [`Trace`]: per-task observations
/// derived in a single sweep over the event list.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    cores: usize,
    observations: Vec<TaskObservation>,
}

impl TraceAnalysis {
    /// Analyzes `trace` (one pass over its events). Events of a task
    /// outside `0..trace.tasks` are ignored.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        let cores = trace.cores as usize;
        let n = trace.tasks as usize;
        let mut obs: Vec<TaskObservation> = (0..n)
            .map(|_| TaskObservation {
                released: 0,
                completed: 0,
                responses: Vec::new(),
                max_simultaneous_blocking: 0,
                blocking_witness: Vec::new(),
                min_available: cores,
                concurrency_profile: vec![(0, cores)],
                stalled: None,
                nodes_executed: 0,
                node_latency: LatencyHistogram::new(),
                queue_depth: LatencyHistogram::new(),
                steals: 0,
            })
            .collect();
        let mut pairing = vec![Pairing::default(); n];

        for e in &trace.events {
            let Some(i) = e.kind.task().map(|t| t as usize).filter(|&i| i < n) else {
                continue;
            };
            let (o, p, t) = (&mut obs[i], &mut pairing[i], e.time);
            match &e.kind {
                EventKind::JobReleased { job, .. } => {
                    p.releases.insert(*job, t);
                    o.released += 1;
                }
                EventKind::JobCompleted { job, .. } => {
                    o.completed += 1;
                    if let Some(release) = p.releases.get(job) {
                        o.responses.push(t.saturating_sub(*release));
                    }
                }
                EventKind::NodeStart { thread, .. } => {
                    p.open_nodes.insert(*thread, t);
                }
                EventKind::NodeEnd { thread, .. } => {
                    o.nodes_executed += 1;
                    if let Some(start) = p.open_nodes.remove(thread) {
                        o.node_latency.observe(t.saturating_sub(start));
                    }
                }
                EventKind::BarrierSuspend { fork, thread, .. }
                | EventKind::SpinStart { fork, thread, .. } => {
                    let s = &mut p.blocked;
                    s.push((*thread, *fork));
                    let avail = cores.saturating_sub(s.len());
                    o.min_available = o.min_available.min(avail);
                    if s.len() > o.max_simultaneous_blocking {
                        o.max_simultaneous_blocking = s.len();
                        o.blocking_witness = s.iter().map(|&(_, f)| f).collect();
                    }
                    push_step(&mut o.concurrency_profile, t, avail);
                }
                EventKind::BarrierWake { thread, .. } | EventKind::SpinEnd { thread, .. } => {
                    let s = &mut p.blocked;
                    if let Some(pos) = s.iter().position(|&(th, _)| th == *thread) {
                        s.remove(pos);
                    }
                    push_step(&mut o.concurrency_profile, t, cores.saturating_sub(s.len()));
                }
                EventKind::StallDetected { .. } => {
                    o.stalled.get_or_insert(t);
                }
                EventKind::QueueDepth { depth, .. } => o.queue_depth.observe(u64::from(*depth)),
                EventKind::StealBatch { count, .. } => o.steals += u64::from(*count),
                _ => {}
            }
        }
        TraceAnalysis {
            cores,
            observations: obs,
        }
    }

    /// The platform core count of the trace.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Observation of task `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn task(&self, index: usize) -> &TaskObservation {
        &self.observations[index]
    }

    /// All per-task observations in task order.
    #[must_use]
    pub fn tasks(&self) -> &[TaskObservation] {
        &self.observations
    }

    /// `true` if any task stalled.
    #[must_use]
    pub fn any_stall(&self) -> bool {
        self.observations.iter().any(|o| o.stalled.is_some())
    }

    /// Human-readable multi-line summary (used by the CLI).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cores: {}", self.cores);
        for (i, o) in self.observations.iter().enumerate() {
            let _ = writeln!(
                out,
                "task {i}: released={} completed={} nodes={} max_blocking={} min_avail={}{}",
                o.released,
                o.completed,
                o.nodes_executed,
                o.max_simultaneous_blocking,
                o.min_available,
                match o.stalled {
                    Some(t) => format!(" STALLED@{t}"),
                    None => String::new(),
                }
            );
            let mut responses = LatencyHistogram::new();
            for &r in &o.responses {
                responses.observe(r);
            }
            let _ = writeln!(out, "  responses: {}", responses.summary());
            // ROADMAP item 3: per-engine latency comparison lives on top
            // of this line.
            let lat = &o.node_latency;
            if lat.count() > 0 {
                let q = |p| lat.quantile_upper(p).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  node_latency: n={} p50={} p90={} p99={} max={}",
                    lat.count(),
                    q(0.50),
                    q(0.90),
                    q(0.99),
                    lat.max().unwrap_or(0)
                );
            }
            // Dispatch observability (engines emitting QueueDepth /
            // StealBatch events): fetched-queue backlog and steal volume.
            if o.queue_depth.count() > 0 || o.steals > 0 {
                let _ = writeln!(
                    out,
                    "  dispatch: steals={} queue_depth[{}]",
                    o.steals,
                    o.queue_depth.summary()
                );
            }
        }
        out
    }
}

/// Appends `(time, value)` to a step function, collapsing same-time
/// updates and dropping no-ops.
fn push_step(profile: &mut Vec<(u64, usize)>, time: u64, value: usize) {
    match profile.last_mut() {
        Some((t, v)) if *t == time => {
            *v = value;
            // Collapsing may create a no-op step relative to the
            // previous entry; keep it simple and leave it — profiles
            // stay small and remain correct step functions.
        }
        Some((_, v)) if *v == value => {}
        _ => profile.push((time, value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EngineKind, TimeUnit, TraceEvent, TraceRecorder};

    fn base_recorder() -> TraceRecorder {
        TraceRecorder::new(EngineKind::Sim, TimeUnit::Ticks, 3, 1)
    }

    #[test]
    fn analysis_tracks_blocking_and_responses() {
        let mut r = base_recorder();
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(
            2,
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: 1,
                thread: 0,
            },
        );
        r.record(
            3,
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: 4,
                thread: 1,
            },
        );
        r.record(
            7,
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: 3,
                thread: 0,
            },
        );
        r.record(
            8,
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: 6,
                thread: 1,
            },
        );
        r.record(10, EventKind::JobCompleted { task: 0, job: 0 });
        let trace = r.finish(10);
        assert!(trace.validate().is_empty());
        let ana = TraceAnalysis::new(&trace);
        let o = ana.task(0);
        assert_eq!(o.responses, vec![10]);
        assert_eq!(o.max_simultaneous_blocking, 2);
        assert_eq!(o.blocking_witness, vec![1, 4]);
        assert_eq!(o.min_available, 1);
        assert_eq!(
            o.concurrency_profile,
            vec![(0, 3), (2, 2), (3, 1), (7, 2), (8, 3)]
        );
        assert!(o.stalled.is_none());
        assert!(!ana.any_stall());
        assert!(ana.summary().contains("max_blocking=2"));
        assert_eq!(ana.cores(), 3);
    }

    #[test]
    fn analysis_pairs_node_and_dispatch_events() {
        let mut r = base_recorder();
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(
            0,
            EventKind::NodeStart {
                task: 0,
                job: 0,
                node: 0,
                thread: 0,
            },
        );
        r.record(
            1,
            EventKind::QueueDepth {
                task: 0,
                thread: 1,
                depth: 3,
            },
        );
        r.record(
            2,
            EventKind::StealBatch {
                task: 0,
                thread: 1,
                victim: Some(0),
                count: 2,
            },
        );
        r.record(
            4,
            EventKind::NodeEnd {
                task: 0,
                job: 0,
                node: 0,
                thread: 0,
            },
        );
        r.record(
            4,
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: 0,
                thread: 0,
            },
        );
        r.record(
            9,
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: 2,
                thread: 0,
            },
        );
        r.record(12, EventKind::JobCompleted { task: 0, job: 0 });
        let trace = r.finish(12);
        assert!(trace.validate().is_empty());
        let ana = TraceAnalysis::new(&trace);
        let o = ana.task(0);
        assert_eq!(o.released, 1);
        assert_eq!(o.completed, 1);
        assert_eq!(o.responses, vec![12]);
        assert_eq!(o.max_simultaneous_blocking, 1);
        assert_eq!(o.min_available, 2);
        assert_eq!(o.nodes_executed, 1);
        assert!(o.stalled.is_none());
        assert_eq!(o.node_latency.max(), Some(4));
        assert_eq!(o.queue_depth.count(), 1);
        assert_eq!(o.steals, 2);
        let summary = ana.summary();
        assert!(summary.contains("node_latency: n=1 "), "{summary}");
        assert!(
            summary.contains("dispatch: steals=2 queue_depth[n=1 "),
            "{summary}"
        );
    }

    #[test]
    fn validator_accepts_dangling_open_states() {
        // A deadlocked trace legitimately ends with suspended threads
        // and an open node is allowed at the end (aborted job).
        let mut r = base_recorder();
        r.record(
            0,
            EventKind::NodeStart {
                task: 0,
                job: 0,
                node: 0,
                thread: 0,
            },
        );
        r.record(
            1,
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: 2,
                thread: 1,
            },
        );
        r.record(
            2,
            EventKind::StallDetected {
                task: 0,
                job: 0,
                suspended: 1,
            },
        );
        let trace = r.finish(5);
        assert!(trace.validate().is_empty());
        assert_eq!(TraceAnalysis::new(&trace).task(0).stalled, Some(2));
    }

    fn raw(seq: u64, time: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, time, kind }
    }

    #[test]
    fn validator_flags_each_defect() {
        let mk = |events: Vec<TraceEvent>| Trace {
            engine: EngineKind::Sim,
            time_unit: TimeUnit::Ticks,
            cores: 2,
            tasks: 1,
            end_time: 100,
            events,
        };
        // Non-monotone seq.
        let t = mk(vec![
            raw(1, 0, EventKind::JobReleased { task: 0, job: 0 }),
            raw(1, 0, EventKind::JobCompleted { task: 0, job: 0 }),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::NonMonotoneSeq { at: 1 }
        ));
        // Thread time regression.
        let t = mk(vec![
            raw(0, 5, EventKind::ThreadPark { task: 0, thread: 0 }),
            raw(1, 3, EventKind::ThreadUnpark { task: 0, thread: 0 }),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::ThreadTimeRegression { seq: 1, .. }
        ));
        // Unmatched NodeEnd.
        let t = mk(vec![raw(
            0,
            0,
            EventKind::NodeEnd {
                task: 0,
                job: 0,
                node: 3,
                thread: 0,
            },
        )]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::UnmatchedNodeEnd { seq: 0, .. }
        ));
        // Nested NodeStart.
        let start = EventKind::NodeStart {
            task: 0,
            job: 0,
            node: 1,
            thread: 0,
        };
        let t = mk(vec![raw(0, 0, start.clone()), raw(1, 1, start)]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::NestedNodeStart { seq: 1, .. }
        ));
        // Double suspend.
        let susp = EventKind::BarrierSuspend {
            task: 0,
            job: 0,
            fork: 1,
            thread: 0,
        };
        let t = mk(vec![raw(0, 0, susp.clone()), raw(1, 1, susp)]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::DoubleSuspend { seq: 1, .. }
        ));
        // Wake without suspend.
        let t = mk(vec![raw(
            0,
            0,
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: 1,
                thread: 0,
            },
        )]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::WakeWithoutSuspend { seq: 0, .. }
        ));
        // Core time regression.
        let t = mk(vec![
            raw(
                0,
                5,
                EventKind::CoreAssign {
                    core: 0,
                    occupant: Some((0, 0)),
                },
            ),
            raw(
                1,
                2,
                EventKind::CoreAssign {
                    core: 0,
                    occupant: None,
                },
            ),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::CoreTimeRegression { core: 0, seq: 1 }
        ));
        // Index out of range (thread beyond cores).
        let t = mk(vec![raw(
            0,
            0,
            EventKind::ThreadPark { task: 0, thread: 9 },
        )]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::IndexOutOfRange { seq: 0 }
        ));
        // Time beyond end.
        let t = mk(vec![raw(
            0,
            999,
            EventKind::JobReleased { task: 0, job: 0 },
        )]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::TimeBeyondEnd { seq: 0 }
        ));
        // Defects render.
        for d in t.validate() {
            assert!(!d.to_string().is_empty());
        }
    }

    #[test]
    fn spin_events_count_as_blocking() {
        let mut r = base_recorder();
        r.record(0, EventKind::JobReleased { task: 0, job: 0 });
        r.record(
            2,
            EventKind::SpinStart {
                task: 0,
                job: 0,
                fork: 1,
                thread: 0,
            },
        );
        r.record(
            3,
            EventKind::SpinStart {
                task: 0,
                job: 0,
                fork: 4,
                thread: 1,
            },
        );
        r.record(
            7,
            EventKind::SpinEnd {
                task: 0,
                job: 0,
                join: 3,
                thread: 0,
            },
        );
        r.record(
            8,
            EventKind::SpinEnd {
                task: 0,
                job: 0,
                join: 6,
                thread: 1,
            },
        );
        r.record(10, EventKind::JobCompleted { task: 0, job: 0 });
        let trace = r.finish(10);
        assert!(trace.validate().is_empty());
        let ana = TraceAnalysis::new(&trace);
        let o = ana.task(0);
        // Spinning threads hold their workers exactly like suspended
        // ones for blocking accounting, so the profile matches the
        // suspend-backend trace of the same workload.
        assert_eq!(o.max_simultaneous_blocking, 2);
        assert_eq!(o.blocking_witness, vec![1, 4]);
        assert_eq!(o.min_available, 1);
        assert_eq!(
            o.concurrency_profile,
            vec![(0, 3), (2, 2), (3, 1), (7, 2), (8, 3)]
        );
    }

    #[test]
    fn validator_flags_spin_defects() {
        let mk = |events: Vec<TraceEvent>| Trace {
            engine: EngineKind::Sim,
            time_unit: TimeUnit::Ticks,
            cores: 2,
            tasks: 1,
            end_time: 100,
            events,
        };
        let spin_start = EventKind::SpinStart {
            task: 0,
            job: 0,
            fork: 1,
            thread: 0,
        };
        let spin_end = EventKind::SpinEnd {
            task: 0,
            job: 0,
            join: 2,
            thread: 0,
        };
        // SpinEnd with no open spin.
        let t = mk(vec![raw(0, 0, spin_end.clone())]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::SpinEndWithoutSpin { seq: 0, .. }
        ));
        // SpinEnd closing a *suspension* is also flagged: the two
        // blocking modes must pair with their own close events.
        let t = mk(vec![
            raw(
                0,
                0,
                EventKind::BarrierSuspend {
                    task: 0,
                    job: 0,
                    fork: 1,
                    thread: 0,
                },
            ),
            raw(1, 1, spin_end.clone()),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::SpinEndWithoutSpin { seq: 1, .. }
        ));
        // A park while spinning contradicts the spin semantics.
        let t = mk(vec![
            raw(0, 0, spin_start.clone()),
            raw(1, 1, EventKind::ThreadPark { task: 0, thread: 0 }),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::ParkWhileSpinning { seq: 1, .. }
        ));
        // Starting a spin while already blocked is a double suspend.
        let t = mk(vec![raw(0, 0, spin_start.clone()), raw(1, 1, spin_start)]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::DoubleSuspend { seq: 1, .. }
        ));
        // BarrierWake cannot close a spin.
        let t = mk(vec![
            raw(
                0,
                0,
                EventKind::SpinStart {
                    task: 0,
                    job: 0,
                    fork: 1,
                    thread: 0,
                },
            ),
            raw(
                1,
                1,
                EventKind::BarrierWake {
                    task: 0,
                    job: 0,
                    join: 2,
                    thread: 0,
                },
            ),
        ]);
        assert!(matches!(
            t.validate()[0],
            TraceDefect::WakeWithoutSuspend { seq: 1, .. }
        ));
        for d in t.validate() {
            assert!(!d.to_string().is_empty());
        }
    }
}
