//! Lock-free event sink for multi-threaded recording.
//!
//! The native pool (`rtpool-exec`) records from many worker threads.
//! Rather than funnel events through a shared buffer, every thread owns
//! a private [`LaneRecorder`] *lane* — an ordinary `Vec` it alone
//! appends to — and all lanes share one atomic [`SeqClock`] that hands
//! out globally unique sequence numbers. Recording is therefore one
//! `fetch_add` plus a local push: no lock, no contention beyond the
//! counter. [`assemble`] merges the lanes into one [`Trace`] by sorting
//! on `seq`, which reconstructs the true global recording order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{EngineKind, EventKind, TimeUnit, Trace, TraceEvent};

/// A shared, monotonically increasing sequence-number source. Cloning
/// yields a handle to the *same* clock.
#[derive(Clone, Debug, Default)]
pub struct SeqClock {
    next: Arc<AtomicU64>,
}

impl SeqClock {
    /// A fresh clock starting at sequence number 0.
    #[must_use]
    pub fn new() -> Self {
        SeqClock::default()
    }

    /// Claims the next sequence number.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// A single-writer event lane: owned by exactly one recording thread,
/// stamped from a shared [`SeqClock`].
#[derive(Debug)]
pub struct LaneRecorder {
    clock: SeqClock,
    events: Vec<TraceEvent>,
}

impl LaneRecorder {
    /// A new empty lane drawing sequence numbers from `clock`.
    #[must_use]
    pub fn new(clock: &SeqClock) -> Self {
        LaneRecorder {
            clock: clock.clone(),
            events: Vec::new(),
        }
    }

    /// Appends an event stamped with the next global sequence number.
    pub fn record(&mut self, time: u64, kind: EventKind) {
        let seq = self.clock.tick();
        self.events.push(TraceEvent { seq, time, kind });
    }

    /// Appends an event under a sequence number claimed earlier with
    /// [`SeqClock::tick`]: for a cause recorded only once its effect is
    /// known to have happened (a push that may be refused), which must
    /// still sort before what other lanes record because of it.
    pub fn record_at(&mut self, seq: u64, time: u64, kind: EventKind) {
        self.events.push(TraceEvent { seq, time, kind });
    }

    /// Number of events in this lane.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when this lane recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the lane, yielding its events (in recording order).
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Merges per-thread lanes into one [`Trace`], restoring global
/// recording order by sorting on `seq`. `end_time` is clamped up to the
/// largest event time (same contract as
/// [`TraceRecorder::finish`](crate::TraceRecorder::finish)).
#[must_use]
pub fn assemble(
    engine: EngineKind,
    time_unit: TimeUnit,
    cores: u32,
    tasks: u32,
    end_time: u64,
    lanes: Vec<LaneRecorder>,
) -> Trace {
    let mut events: Vec<TraceEvent> = lanes
        .into_iter()
        .flat_map(LaneRecorder::into_events)
        .collect();
    events.sort_unstable_by_key(|e| e.seq);
    let last = events.iter().map(|e| e.time).max().unwrap_or(0);
    Trace {
        engine,
        time_unit,
        cores,
        tasks,
        end_time: end_time.max(last),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_share_one_seq_space() {
        let clock = SeqClock::new();
        let mut a = LaneRecorder::new(&clock);
        let mut b = LaneRecorder::new(&clock);
        a.record(0, EventKind::JobReleased { task: 0, job: 0 });
        b.record(1, EventKind::ThreadPark { task: 0, thread: 1 });
        a.record(2, EventKind::JobCompleted { task: 0, job: 0 });
        assert_eq!(a.len(), 2);
        assert!(!b.is_empty());
        let t = assemble(EngineKind::Exec, TimeUnit::Nanos, 2, 1, 0, vec![a, b]);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.end_time, 2, "clamped to the last event time");
        assert_eq!(t.events[1].kind.name(), "ThreadPark");
    }

    #[test]
    fn record_at_sorts_by_the_claimed_seq() {
        let clock = SeqClock::new();
        let mut control = LaneRecorder::new(&clock);
        let mut worker = LaneRecorder::new(&clock);
        let claimed = clock.tick();
        worker.record(5, EventKind::JobCompleted { task: 0, job: 0 });
        control.record_at(claimed, 3, EventKind::JobReleased { task: 0, job: 0 });
        let t = assemble(
            EngineKind::Exec,
            TimeUnit::Nanos,
            1,
            1,
            0,
            vec![control, worker],
        );
        let names: Vec<&str> = t.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["JobReleased", "JobCompleted"]);
        assert!(t.validate().is_empty());
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let clock = SeqClock::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = clock.clone();
                std::thread::spawn(move || (0..1000).map(|_| c.tick()).collect::<Vec<u64>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
