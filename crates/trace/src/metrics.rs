//! Metrics derived from traces: latency histograms and per-task runtime
//! counters.

use std::collections::BTreeMap;

use crate::event::{EventKind, Trace, TraceEvent};

/// A log₂-bucketed latency histogram: bucket `b` counts values `v` with
/// `⌊log₂ v⌋ + 1 = b` (bucket 0 holds `v == 0`). Cheap to update, exact
/// count/sum/min/max, approximate quantiles (upper bucket bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper
    /// edge of the bucket containing it, clamped to the observed max.
    #[must_use]
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if b == 0 { 0u128 } else { (1u128 << b) - 1 };
                return Some(u64::try_from(upper).unwrap_or(u64::MAX).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one. Equivalent to having
    /// observed every value of `other` here: counts, sums, extremes, and
    /// buckets add exactly, so shard-local histograms (one per worker,
    /// updated without contention) combine into the same aggregate a
    /// single shared histogram would have produced.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The JSON object the serve report and the soak artifact both embed:
    /// `{ "count": 3, "p50": 7, "p90": 15, "p99": 15, "p999": 15, "max": 12 }`,
    /// the quantiles `null` while nothing has been observed.
    #[must_use]
    pub fn to_json(&self) -> String {
        let q = |p: f64| {
            self.quantile_upper(p)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        format!(
            "{{ \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {} }}",
            self.count,
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            self.max().unwrap_or(0),
        )
    }

    /// One-line summary, e.g. `n=12 mean=4.2 p50<=7 p99<=15 max=15`.
    #[must_use]
    pub fn summary(&self) -> String {
        match self.mean() {
            None => "n=0".to_string(),
            Some(mean) => format!(
                "n={} mean={:.1} p50<={} p99<={} max={}",
                self.count,
                mean,
                self.quantile_upper(0.5).unwrap_or(0),
                self.quantile_upper(0.99).unwrap_or(0),
                self.max
            ),
        }
    }
}

/// Per-task counters accumulated from a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Jobs released.
    pub released: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Response time of each completed job, in completion order.
    pub responses: Vec<u64>,
    /// Response-time histogram over `responses`.
    pub response_histogram: LatencyHistogram,
    /// Largest number of threads simultaneously suspended on barriers —
    /// the observed counterpart of the paper's blocking bound `b̄(τᵢ)`.
    pub max_simultaneous_blocking: usize,
    /// Smallest observed `cores − suspended` — the observed counterpart
    /// of the available-concurrency floor `l̄(τᵢ) = m − b̄(τᵢ)`.
    pub min_available: usize,
    /// Stall (deadlock) events observed.
    pub stalls: usize,
    /// Node executions finished (`NodeEnd` events).
    pub nodes_executed: usize,
    /// Mutated resubmissions answered from a delta-patched cache entry
    /// (`CacheDeltaHit` events, serve only).
    pub delta_hits: usize,
}

impl TaskMetrics {
    fn new(cores: usize) -> Self {
        TaskMetrics {
            released: 0,
            completed: 0,
            responses: Vec::new(),
            response_histogram: LatencyHistogram::new(),
            max_simultaneous_blocking: 0,
            min_available: cores,
            stalls: 0,
            nodes_executed: 0,
            delta_hits: 0,
        }
    }
}

/// Incremental metrics accumulator over [`TraceEvent`]s.
///
/// Feed events in `seq` order with [`MetricsRegistry::observe`], or
/// build from a whole trace with [`MetricsRegistry::from_trace`].
/// Per-node latencies pair each thread's `NodeStart` with its next
/// `NodeEnd`; suspension counters pair `BarrierSuspend`/`BarrierWake`
/// and, under the spin backend, `SpinStart`/`SpinEnd` — a spinning
/// worker holds its core, so it counts against availability exactly
/// like a suspended one.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    cores: usize,
    tasks: BTreeMap<u32, TaskMetrics>,
    node_latency: BTreeMap<(u32, u32), LatencyHistogram>,
    queue_depth: BTreeMap<(u32, u32), LatencyHistogram>,
    steal_counts: BTreeMap<(u32, u32), u64>,
    // Transient pairing state.
    open_nodes: BTreeMap<(u32, u32), u64>,
    release_times: BTreeMap<(u32, u32), u64>,
    suspended: BTreeMap<u32, usize>,
}

impl MetricsRegistry {
    /// An empty registry for a platform with `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        MetricsRegistry {
            cores,
            tasks: BTreeMap::new(),
            node_latency: BTreeMap::new(),
            queue_depth: BTreeMap::new(),
            steal_counts: BTreeMap::new(),
            open_nodes: BTreeMap::new(),
            release_times: BTreeMap::new(),
            suspended: BTreeMap::new(),
        }
    }

    /// Builds a registry from every event of `trace`.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut reg = MetricsRegistry::new(trace.cores as usize);
        for e in &trace.events {
            reg.observe(e);
        }
        reg
    }

    fn task_mut(&mut self, task: u32) -> &mut TaskMetrics {
        let cores = self.cores;
        self.tasks
            .entry(task)
            .or_insert_with(|| TaskMetrics::new(cores))
    }

    /// Folds one event into the registry.
    pub fn observe(&mut self, event: &TraceEvent) {
        let t = event.time;
        match &event.kind {
            EventKind::JobReleased { task, job } => {
                self.release_times.insert((*task, *job), t);
                self.task_mut(*task).released += 1;
            }
            EventKind::JobCompleted { task, job } => {
                let release = self.release_times.get(&(*task, *job)).copied();
                let tm = self.task_mut(*task);
                tm.completed += 1;
                if let Some(release) = release {
                    let response = t.saturating_sub(release);
                    tm.responses.push(response);
                    tm.response_histogram.observe(response);
                }
            }
            EventKind::NodeStart { task, thread, .. } => {
                self.open_nodes.insert((*task, *thread), t);
            }
            EventKind::NodeEnd {
                task, node, thread, ..
            } => {
                if let Some(start) = self.open_nodes.remove(&(*task, *thread)) {
                    self.node_latency
                        .entry((*task, *node))
                        .or_default()
                        .observe(t.saturating_sub(start));
                }
                self.task_mut(*task).nodes_executed += 1;
            }
            EventKind::BarrierSuspend { task, .. } | EventKind::SpinStart { task, .. } => {
                let s = self.suspended.entry(*task).or_insert(0);
                *s += 1;
                let s = *s;
                let cores = self.cores;
                let tm = self.task_mut(*task);
                tm.max_simultaneous_blocking = tm.max_simultaneous_blocking.max(s);
                tm.min_available = tm.min_available.min(cores.saturating_sub(s));
            }
            EventKind::BarrierWake { task, .. } | EventKind::SpinEnd { task, .. } => {
                let s = self.suspended.entry(*task).or_insert(0);
                *s = s.saturating_sub(1);
            }
            EventKind::StallDetected { task, .. } => {
                self.task_mut(*task).stalls += 1;
            }
            EventKind::QueueDepth {
                task,
                thread,
                depth,
            } => {
                self.queue_depth
                    .entry((*task, *thread))
                    .or_default()
                    .observe(u64::from(*depth));
            }
            EventKind::StealBatch {
                task,
                thread,
                count,
                ..
            } => {
                *self.steal_counts.entry((*task, *thread)).or_insert(0) += u64::from(*count);
            }
            EventKind::CacheDeltaHit { task, .. } => {
                self.task_mut(*task).delta_hits += 1;
            }
            EventKind::ThreadPark { .. }
            | EventKind::ThreadUnpark { .. }
            | EventKind::CoreAssign { .. }
            | EventKind::Recovery { .. } => {}
        }
    }

    /// The platform core count the registry was built with.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Metrics of `task`, when the trace mentioned it.
    #[must_use]
    pub fn task(&self, task: u32) -> Option<&TaskMetrics> {
        self.tasks.get(&task)
    }

    /// All per-task metrics, by task index.
    pub fn tasks(&self) -> impl Iterator<Item = (u32, &TaskMetrics)> {
        self.tasks.iter().map(|(&t, m)| (t, m))
    }

    /// Latency histogram of `(task, node)` executions, when observed.
    #[must_use]
    pub fn node_latency(&self, task: u32, node: u32) -> Option<&LatencyHistogram> {
        self.node_latency.get(&(task, node))
    }

    /// All per-node latency histograms, by `(task, node)`.
    pub fn node_latencies(&self) -> impl Iterator<Item = ((u32, u32), &LatencyHistogram)> {
        self.node_latency.iter().map(|(&k, h)| (k, h))
    }

    /// Histogram of the queue depths `(task, thread)` observed at its
    /// fetches, when the engine emitted [`EventKind::QueueDepth`].
    #[must_use]
    pub fn queue_depth(&self, task: u32, thread: u32) -> Option<&LatencyHistogram> {
        self.queue_depth.get(&(task, thread))
    }

    /// All per-thread queue-depth histograms, by `(task, thread)`.
    pub fn queue_depths(&self) -> impl Iterator<Item = ((u32, u32), &LatencyHistogram)> {
        self.queue_depth.iter().map(|(&k, h)| (k, h))
    }

    /// Nodes `(task, thread)` stole from peers or the shared injector
    /// (sum of [`EventKind::StealBatch`] counts).
    #[must_use]
    pub fn steals(&self, task: u32, thread: u32) -> u64 {
        self.steal_counts.get(&(task, thread)).copied().unwrap_or(0)
    }

    /// Total nodes stolen across all threads of `task`.
    #[must_use]
    pub fn total_steals(&self, task: u32) -> u64 {
        self.steal_counts
            .iter()
            .filter(|((t, _), _)| *t == task)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper(0.5), None);
        assert_eq!(h.summary(), "n=0");
        assert_eq!(
            h.to_json(),
            r#"{ "count": 0, "p50": null, "p90": null, "p99": null, "p999": null, "max": 0 }"#
        );
        for v in [0, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 110.0 / 6.0).abs() < 1e-9);
        // p50 falls in the bucket of 2..=3.
        assert_eq!(h.quantile_upper(0.5), Some(3));
        // The top quantile is clamped to the observed max.
        assert_eq!(h.quantile_upper(1.0), Some(100));
        assert!(h.summary().starts_with("n=6 "));
        assert_eq!(
            h.to_json(),
            r#"{ "count": 6, "p50": 3, "p90": 100, "p99": 100, "p999": 100, "max": 100 }"#
        );
    }

    #[test]
    fn merge_equals_single_histogram() {
        let values = [0u64, 1, 5, 17, 300, 4096, 9, 2];
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            if i % 2 == 0 { &mut a } else { &mut b }.observe(v);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, whole);
    }

    fn ev(seq: u64, time: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, time, kind }
    }

    #[test]
    fn registry_pairs_events() {
        let mut reg = MetricsRegistry::new(3);
        let events = [
            ev(0, 0, EventKind::JobReleased { task: 0, job: 0 }),
            ev(
                1,
                0,
                EventKind::NodeStart {
                    task: 0,
                    job: 0,
                    node: 0,
                    thread: 0,
                },
            ),
            ev(
                2,
                4,
                EventKind::NodeEnd {
                    task: 0,
                    job: 0,
                    node: 0,
                    thread: 0,
                },
            ),
            ev(
                3,
                4,
                EventKind::BarrierSuspend {
                    task: 0,
                    job: 0,
                    fork: 0,
                    thread: 0,
                },
            ),
            ev(
                4,
                9,
                EventKind::BarrierWake {
                    task: 0,
                    job: 0,
                    join: 2,
                    thread: 0,
                },
            ),
            ev(5, 12, EventKind::JobCompleted { task: 0, job: 0 }),
        ];
        for e in &events {
            reg.observe(e);
        }
        let tm = reg.task(0).unwrap();
        assert_eq!(tm.released, 1);
        assert_eq!(tm.completed, 1);
        assert_eq!(tm.responses, vec![12]);
        assert_eq!(tm.max_simultaneous_blocking, 1);
        assert_eq!(tm.min_available, 2);
        assert_eq!(tm.nodes_executed, 1);
        assert_eq!(tm.stalls, 0);
        assert_eq!(reg.node_latency(0, 0).unwrap().max(), Some(4));
        assert_eq!(reg.tasks().count(), 1);
        assert_eq!(reg.node_latencies().count(), 1);
        assert_eq!(reg.cores(), 3);
    }
}
