//! Partitioned fixed-priority response-time analysis (Section 4.2).
//!
//! Under partitioned scheduling, thread `φ_{i,k}` of every pool is pinned
//! to core `k`, each thread has a FIFO work-queue, and a node-to-thread
//! mapping `T(v)` fixes where every node executes. The paper analyzes
//! this configuration with Fonseca et al.'s partitioned DAG analysis
//! (SIES 2016) combined with the SPLIT treatment of self-suspensions,
//! *after* Algorithm 1 has produced a mapping free of
//! reduced-concurrency delays.
//!
//! This module implements a documented adaptation of that pipeline (see
//! DESIGN.md, "Substitutions"):
//!
//! * nodes are processed in topological order; a node's *ready time* is
//!   the latest finish bound among its predecessors (remote predecessors
//!   thus act as self-suspensions of the serving thread, the SPLIT idea);
//! * each node's *local response time* is a per-core fix-point over the
//!   higher-priority interfering workload on its core, using the
//!   carry-in bound `⌈(x + Jⱼ,ₖ)/Tⱼ⌉·Wⱼ,ₖ` with jitter
//!   `Jⱼ,ₖ = Rⱼ − Wⱼ,ₖ` (all core-`k` work of a job of τⱼ lies within
//!   `[release, release + Rⱼ]` and needs at least `Wⱼ,ₖ` time);
//! * FIFO blocking from same-task nodes that may sit ahead in the same
//!   queue is charged as the summed WCET of concurrent same-core nodes;
//! * blocking joins resume directly on their (suspended, now woken)
//!   thread and therefore skip the FIFO-blocking charge.
//!
//! Like the original, the analysis is **oblivious to reduced-concurrency
//! delays**: it assumes a queued node is served as soon as the core is
//! free, which only holds when no blocking fork can suspend the thread
//! ahead of it. On Algorithm 1 mappings that assumption is discharged by
//! construction; on arbitrary mappings (e.g. plain worst-fit) the result
//! can be optimistic — exactly the unsafety the paper's experiments
//! expose. Use [`BlockingAwareness::Checked`] to reject unsafe mappings
//! instead.

use std::borrow::Borrow;
use std::ops::ControlFlow;

use rtpool_graph::{BitSet, Dag, NodeId, NodeKind};

use crate::analysis::interference::interfering_workload;
use crate::analysis::{SchedResult, TaskVerdict, UnschedulableReason};
use crate::deadlock;
use crate::partition::{algorithm1, worst_fit, NodeMapping};
use crate::task::{Task, TaskId, TaskSet};

/// Whether the analysis audits mappings for blocking hazards first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockingAwareness {
    /// Analyze the mapping as-is (the state-of-the-art behavior; results
    /// are optimistic/unsafe on mappings with reduced-concurrency
    /// delays).
    Oblivious,
    /// First check Lemma 3 (deadlock freedom of the mapping); tasks whose
    /// mapping is unsafe are rejected with
    /// [`UnschedulableReason::MappingDeadlock`].
    Checked,
}

/// How [`partition_and_analyze`] obtains the node-to-thread mappings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// The paper's Algorithm 1 with worst-fit tie-breaking: mappings are
    /// free of reduced-concurrency delays by construction; failures are
    /// counted as unschedulable.
    Algorithm1,
    /// Blocking-oblivious worst-fit (the baseline): always succeeds, but
    /// the subsequent analysis is potentially optimistic.
    WorstFit,
}

impl PartitionStrategy {
    /// `task`'s mapping onto `m` threads, or `None` where partitioning
    /// fails.
    fn partition(self, task: &Task, m: usize) -> Option<NodeMapping> {
        match self {
            PartitionStrategy::Algorithm1 => algorithm1(task.dag(), m).ok(),
            PartitionStrategy::WorstFit => Some(worst_fit(task.dag(), m)),
        }
    }
}

/// Partitions every task with `strategy` and analyzes the result.
///
/// Returns the schedulability result together with the mappings that were
/// produced (`None` where partitioning failed).
///
/// # Panics
///
/// Panics if `m == 0` or `m` is past
/// [`MAX_PARTITIONED_THREADS`](crate::partition::MAX_PARTITIONED_THREADS).
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
/// use rtpool_core::{Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20], 10, true)?;
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(b.build()?, 500)?]);
/// let (result, mappings) = partition_and_analyze(&set, 4, PartitionStrategy::Algorithm1);
/// assert!(result.is_schedulable());
/// assert!(mappings[0].is_some());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn partition_and_analyze(
    set: &TaskSet,
    m: usize,
    strategy: PartitionStrategy,
) -> (SchedResult, Vec<Option<NodeMapping>>) {
    assert!(m > 0, "platform must have at least one processor");
    let mappings: Vec<Option<NodeMapping>> = set
        .iter()
        .map(|(_, task)| strategy.partition(task, m))
        .collect();
    let result = all_verdicts(set, m, BlockingAwareness::Oblivious, |i, _| {
        mappings[i].as_ref()
    });
    (result, mappings)
}

/// Whether every task of `set`, partitioned with `strategy`, passes the
/// analysis: exactly `partition_and_analyze(set, m, strategy).0
/// .is_schedulable()`, answered by the same per-task loop, which
/// partitions a task only when it reaches it and stops at the first task
/// that misses. The tasks below it are never mapped.
///
/// # Panics
///
/// Panics if `m == 0` or `m` is past
/// [`MAX_PARTITIONED_THREADS`](crate::partition::MAX_PARTITIONED_THREADS).
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::partitioned::{accepts, partition_and_analyze, PartitionStrategy};
/// use rtpool_core::{Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20], 10, true)?;
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(b.build()?, 500)?]);
/// for m in 1..=4 {
///     let strategy = PartitionStrategy::Algorithm1;
///     let full = partition_and_analyze(&set, m, strategy).0;
///     assert_eq!(accepts(&set, m, strategy), full.is_schedulable());
/// }
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn accepts(set: &TaskSet, m: usize, strategy: PartitionStrategy) -> bool {
    let mut schedulable = true;
    analyze_tasks(
        set,
        m,
        BlockingAwareness::Oblivious,
        |_, task| strategy.partition(task, m),
        |verdict| {
            schedulable = verdict.is_schedulable();
            if schedulable {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        },
    );
    schedulable
}

/// Analyzes `set` under partitioned scheduling with one mapping per task.
///
/// Tasks are in priority order (index 0 highest); every mapping must have
/// `pool_size() == m` and cover its task's graph.
///
/// # Panics
///
/// Panics if `m == 0`, if `m` is past
/// [`MAX_PARTITIONED_THREADS`](crate::partition::MAX_PARTITIONED_THREADS),
/// if `mappings.len() != set.len()`, or if a mapping
/// does not match its task's graph or pool size.
#[must_use]
pub fn analyze(
    set: &TaskSet,
    m: usize,
    mappings: &[NodeMapping],
    awareness: BlockingAwareness,
) -> SchedResult {
    assert!(m > 0, "platform must have at least one processor");
    assert_eq!(mappings.len(), set.len(), "one mapping per task required");
    all_verdicts(set, m, awareness, |i, _| Some(&mappings[i]))
}

/// Every task's verdict, from [`analyze_tasks`] run to the end.
fn all_verdicts<M: Borrow<NodeMapping>>(
    set: &TaskSet,
    m: usize,
    awareness: BlockingAwareness,
    mapping: impl FnMut(usize, &Task) -> Option<M>,
) -> SchedResult {
    let mut verdicts = Vec::with_capacity(set.len());
    analyze_tasks(set, m, awareness, mapping, |verdict| {
        verdicts.push(verdict);
        ControlFlow::Continue(())
    });
    SchedResult::new(verdicts)
}

/// The per-task loop of the analysis, in priority order: the one loop
/// behind [`partition_and_analyze`], [`analyze`] and [`accepts`].
///
/// `mapping(i, task)` yields task `i`'s mapping when the loop reaches it
/// (`None`: partitioning failed); `record` receives each verdict in turn,
/// and a `Break` from it ends the loop.
fn analyze_tasks<M: Borrow<NodeMapping>>(
    set: &TaskSet,
    m: usize,
    awareness: BlockingAwareness,
    mut mapping: impl FnMut(usize, &Task) -> Option<M>,
    mut record: impl FnMut(TaskVerdict) -> ControlFlow<()>,
) {
    assert!(m > 0, "platform must have at least one processor");
    crate::partition::assert_partitioned_pool(m);
    // The highest-priority unschedulable task so far: no task below it
    // has a bound on its interference.
    let mut first_miss: Option<usize> = None;
    let mut hp = HpTables::default();
    // Scratch buffers shared by every per-task kernel in this pass.
    let mut scratch = Scratch::default();

    for (i, (_, task)) in set.iter().enumerate() {
        let mapped = mapping(i, task);
        let verdict = match mapped.as_ref().map(<M as Borrow<NodeMapping>>::borrow) {
            None => TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed,
            },
            Some(mapping) => {
                assert_eq!(mapping.pool_size(), m, "mapping pool size must equal m");
                assert_eq!(
                    mapping.node_count(),
                    task.dag().node_count(),
                    "mapping must cover the task graph"
                );
                if awareness == BlockingAwareness::Checked
                    && !deadlock::check_partitioned(task.dag(), m, mapping).is_deadlock_free()
                {
                    TaskVerdict::Unschedulable {
                        reason: UnschedulableReason::MappingDeadlock,
                    }
                } else if let Some(bad) = first_miss {
                    TaskVerdict::Unschedulable {
                        reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(bad) },
                    }
                } else {
                    let verdict = analyze_task(task, mapping, m, &hp, &mut scratch);
                    // Only a task that a lower-priority one will read is
                    // recorded.
                    if let (Some(response), true) = (verdict.response_time(), i + 1 < set.len()) {
                        hp.push(task, mapping, m, response, set.len() - 1);
                    }
                    verdict
                }
            }
        };
        if !verdict.is_schedulable() {
            first_miss.get_or_insert(i);
        }
        if record(verdict).is_break() {
            break;
        }
    }
}

/// One higher-priority activity as a carry-in term: at most
/// `⌈(x + jitter)/period⌉ · work` of it lands in a window of length `x`.
#[derive(Clone, Copy, Debug, Default)]
struct Load {
    period: u64,
    work: u64,
    jitter: u64,
}

/// What the higher-priority tasks charge the task being analyzed, grown
/// once per schedulable task that a lower-priority task will read.
#[derive(Default)]
struct HpTables {
    /// Per core `k`, `(Tⱼ, Wⱼ,ₖ, Rⱼ − Wⱼ,ₖ)` for each higher-priority task
    /// with `Wⱼ,ₖ > 0`, in priority order: `used[k]` loads from slot
    /// `k · stride` on.
    per_core: Vec<Load>,
    used: Vec<usize>,
    /// Slots per core: the most tasks one pass records.
    stride: usize,
    /// `(Tⱼ, volⱼ, Rⱼ)` per higher-priority task, for the holistic bound.
    whole: Vec<Load>,
}

impl HpTables {
    /// Records `task`, mapped by `mapping` onto `m` cores and bounded by
    /// `response`, for the tasks below it; a pass records at most
    /// `slots` tasks. The first call allocates the tables, once.
    fn push(&mut self, task: &Task, mapping: &NodeMapping, m: usize, response: u64, slots: usize) {
        if self.used.is_empty() {
            self.stride = slots;
            self.per_core = vec![Load::default(); m * slots];
            self.used = vec![0; m];
            self.whole.reserve_exact(slots);
        }
        // Fewer than `stride` tasks are recorded before this one, so each
        // core's next slot is in its own row and still zero.
        let dag = task.dag();
        for v in dag.node_ids() {
            let k = mapping.thread_of(v).index();
            self.per_core[k * self.stride + self.used[k]].work += dag.wcet(v);
        }
        for (k, used) in self.used.iter_mut().enumerate() {
            let load = &mut self.per_core[k * self.stride + *used];
            if load.work > 0 {
                load.period = task.period();
                load.jitter = response.saturating_sub(load.work);
                *used += 1;
            }
        }
        self.whole.push(Load {
            period: task.period(),
            work: dag.volume(),
            jitter: response,
        });
    }

    /// The loads on core `k`.
    fn on_core(&self, k: usize) -> &[Load] {
        match self.used.get(k) {
            Some(&used) => &self.per_core[k * self.stride..][..used],
            None => &[],
        }
    }
}

/// Reusable per-pass scratch buffers for the per-task kernels, so the
/// FIFO-blocking and longest-path sweeps allocate once per analysis call
/// instead of once per task.
#[derive(Default)]
struct Scratch {
    /// One bitset of node indices per core: the nodes mapped there.
    core_masks: Vec<BitSet>,
    /// Per-node FIFO-blocking charge.
    fifo: Vec<u64>,
    /// Per-node finish bounds (node-level sweep).
    finish: Vec<u64>,
    /// Per-node inflated longest-path distances (holistic sweep).
    dist: Vec<u64>,
}

impl Scratch {
    /// Prepares the buffers for `dag` mapped by `mapping` onto `m` cores
    /// and fills in every node's FIFO-blocking charge. Every buffer keeps
    /// its heap block and allocates only to grow, so a pass over tasks of
    /// different sizes allocates the `m` masks once.
    fn prepare(&mut self, dag: &Dag, mapping: &NodeMapping, m: usize) {
        let n = dag.node_count();
        self.core_masks.resize_with(m, BitSet::default);
        for mask in &mut self.core_masks {
            mask.reset(n);
        }
        for buffer in [&mut self.fifo, &mut self.finish, &mut self.dist] {
            buffer.clear();
            buffer.resize(n, 0);
        }
        for v in dag.node_ids() {
            self.core_masks[mapping.thread_of(v).index()].insert(v.index());
        }
        // FIFO blocking by same-task nodes that can be ahead of v in its
        // thread's queue: the concurrent nodes mapped to the same thread,
        // core_mask(v) − desc(v) − anc(v) − {v}, summed in one word pass
        // over the three rows. v is in its own core's mask and in neither
        // row, so its WCET is taken off the sum. Blocking joins resume
        // directly on the woken thread and bypass the queue.
        let reach = dag.reachability();
        for v in dag.node_ids() {
            if dag.kind(v) == NodeKind::BlockingJoin {
                continue; // fifo charge stays 0
            }
            let mask = self.core_masks[mapping.thread_of(v).index()].as_row();
            let queued: u64 = mask
                .minus(reach.descendants(v), reach.ancestors(v))
                .map(|u| dag.wcet(NodeId::from_index(u)))
                .sum();
            self.fifo[v.index()] = queued - dag.wcet(v);
        }
    }
}

fn analyze_task(
    task: &Task,
    mapping: &NodeMapping,
    m: usize,
    hp: &HpTables,
    scratch: &mut Scratch,
) -> TaskVerdict {
    let deadline = task.deadline();
    scratch.prepare(task.dag(), mapping, m);

    // Two incomparable sound bounds; the task's response time is their
    // minimum. The sweeps borrow disjoint scratch fields, so split them
    // out of the struct here.
    let Scratch {
        fifo, finish, dist, ..
    } = scratch;
    let node_level = node_level_bound(task, mapping, hp, fifo, deadline, finish);
    let holistic = holistic_bound(task, hp, fifo, deadline, dist);
    match (node_level, holistic) {
        (Some(a), Some(b)) => TaskVerdict::Schedulable {
            response_time: a.min(b),
        },
        (Some(a), None) => TaskVerdict::Schedulable { response_time: a },
        (None, Some(b)) => TaskVerdict::Schedulable { response_time: b },
        (None, None) => TaskVerdict::Unschedulable {
            reason: UnschedulableReason::ResponseTimeExceedsDeadline {
                bound: deadline.saturating_add(1),
            },
        },
    }
}

/// Bound 1 — node-level propagation: each node's finish time is its
/// ready time plus a per-core fix-point over higher-priority carry-in.
/// Tight for short chains; pessimistic for long paths (one carry-in per
/// node).
fn node_level_bound(
    task: &Task,
    mapping: &NodeMapping,
    hp: &HpTables,
    fifo_blocking: &[u64],
    deadline: u64,
    finish: &mut [u64],
) -> Option<u64> {
    let dag = task.dag();
    for v in dag.topological_order().iter() {
        let ready = dag
            .predecessors(v)
            .iter()
            .map(|p| finish[p.index()])
            .max()
            .unwrap_or(0);
        let loads = hp.on_core(mapping.thread_of(v).index());
        let local = fixpoint(dag.wcet(v) + fifo_blocking[v.index()], loads, deadline)?;
        let f = ready.saturating_add(local);
        if f > deadline {
            return None;
        }
        finish[v.index()] = f;
    }
    Some(finish[dag.sink().index()])
}

/// Bound 2 — holistic: the longest path (with FIFO blocking folded into
/// the node costs) plus, per higher-priority task, its *total* workload
/// in the window counted once. Sound because whenever the analyzed
/// path is delayed by higher-priority work, that work executes on the
/// path's current core, so the total delay is at most the total
/// higher-priority work released into the window across all cores.
/// Tight for long paths; pessimistic when hp work is concentrated on
/// cores the task barely uses.
fn holistic_bound(
    task: &Task,
    hp: &HpTables,
    fifo_blocking: &[u64],
    deadline: u64,
    dist: &mut [u64],
) -> Option<u64> {
    let dag = task.dag();
    // Longest path under inflated node costs.
    for v in dag.topological_order().iter() {
        let best = dag
            .predecessors(v)
            .iter()
            .map(|p| dist[p.index()])
            .max()
            .unwrap_or(0);
        dist[v.index()] = best + dag.wcet(v) + fifo_blocking[v.index()];
    }
    fixpoint(dist[dag.sink().index()], &hp.whole, deadline)
}

/// Least fix-point of `x = base + Σ ⌈(x + jitter)/period⌉ · work` over
/// `loads`, or `None` if it exceeds `cap`. The sum is exact in `u128`,
/// so the order of the loads cannot change the bound.
fn fixpoint(base: u64, loads: &[Load], cap: u64) -> Option<u64> {
    let mut x = base;
    loop {
        let mut next = u128::from(base);
        for load in loads {
            next += u128::from(interfering_workload(x, load.period, load.work, load.jitter));
        }
        let next = u64::try_from(next).unwrap_or(u64::MAX);
        if next > cap {
            return None;
        }
        if next == x {
            return Some(x);
        }
        debug_assert!(next > x);
        x = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtpool_graph::DagBuilder;

    fn fork_join_task(branches: &[u64], blocking: bool, period: u64) -> Task {
        let mut b = DagBuilder::new();
        b.fork_join(10, branches, 10, blocking).unwrap();
        Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn single_task_response_follows_mapping() {
        // Fork(10) -> {20, 20} -> Join(10) on 2 threads via Algorithm 1:
        // fork+join on one thread, both children on the other (they must
        // avoid the fork's thread). Children serialize: R = 10+20+20+10.
        let t = fork_join_task(&[20, 20], true, 500);
        let set = TaskSet::new(vec![t]);
        let (r, mappings) = partition_and_analyze(&set, 2, PartitionStrategy::Algorithm1);
        assert!(r.is_schedulable());
        assert!(mappings[0].is_some());
        let resp = r.verdict(TaskId(0)).response_time().unwrap();
        assert_eq!(resp, 60);
    }

    #[test]
    fn wider_pool_lets_children_run_in_parallel() {
        let t = fork_join_task(&[20, 20], true, 500);
        let set = TaskSet::new(vec![t]);
        let (r, _) = partition_and_analyze(&set, 3, PartitionStrategy::Algorithm1);
        let resp = r.verdict(TaskId(0)).response_time().unwrap();
        // Children on distinct threads: R = 10 + 20 + 10 = 40.
        assert_eq!(resp, 40);
    }

    #[test]
    fn algorithm1_failure_counts_as_unschedulable() {
        // Two concurrent blocking regions need 3 threads; with m = 2
        // Algorithm 1 fails and the verdict says so.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let t = Task::with_implicit_deadline(b.build().unwrap(), 10_000).unwrap();
        let set = TaskSet::new(vec![t]);
        let (r, mappings) = partition_and_analyze(&set, 2, PartitionStrategy::Algorithm1);
        assert!(mappings[0].is_none());
        assert!(matches!(
            r.verdict(TaskId(0)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed
            }
        ));
        // Worst-fit "succeeds" (obliviously).
        let (r_wf, _) = partition_and_analyze(&set, 2, PartitionStrategy::WorstFit);
        assert!(r_wf.is_schedulable(), "baseline is optimistic here");
    }

    #[test]
    fn checked_awareness_rejects_unsafe_mapping() {
        let t = fork_join_task(&[20, 20], true, 500);
        let dag_nodes = t.dag().node_count();
        let set = TaskSet::new(vec![t]);
        // Everything on thread 0: children behind their suspended fork.
        let mapping =
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 2, vec![0; dag_nodes]).unwrap();
        let r = analyze(
            &set,
            2,
            std::slice::from_ref(&mapping),
            BlockingAwareness::Checked,
        );
        assert!(matches!(
            r.verdict(TaskId(0)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::MappingDeadlock
            }
        ));
        // The oblivious analysis accepts the same mapping — the unsafety
        // the paper warns about.
        let r2 = analyze(&set, 2, &[mapping], BlockingAwareness::Oblivious);
        assert!(r2.is_schedulable());
    }

    #[test]
    fn hp_interference_on_shared_core_delays_lp() {
        // Both tasks are single nodes mapped to core 0.
        let mk = |wcet: u64, period: u64| {
            let mut b = DagBuilder::new();
            b.add_node(wcet);
            Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
        };
        let set = TaskSet::new(vec![mk(30, 100), mk(10, 200)]);
        let maps = vec![
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 2, vec![0]).unwrap(),
            NodeMapping::from_threads(set.task(TaskId(1)).dag(), 2, vec![0]).unwrap(),
        ];
        let r = analyze(&set, 2, &maps, BlockingAwareness::Oblivious);
        assert_eq!(r.verdict(TaskId(0)).response_time(), Some(30));
        // lp sees one hp activation: 10 + 30 = 40.
        assert_eq!(r.verdict(TaskId(1)).response_time(), Some(40));
        // On distinct cores there is no interference.
        let maps2 = vec![
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 2, vec![0]).unwrap(),
            NodeMapping::from_threads(set.task(TaskId(1)).dag(), 2, vec![1]).unwrap(),
        ];
        let r2 = analyze(&set, 2, &maps2, BlockingAwareness::Oblivious);
        assert_eq!(r2.verdict(TaskId(1)).response_time(), Some(10));
    }

    #[test]
    fn overload_reports_deadline_violation() {
        let mk = |wcet: u64, period: u64| {
            let mut b = DagBuilder::new();
            b.add_node(wcet);
            Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
        };
        let set = TaskSet::new(vec![mk(80, 100), mk(80, 100)]);
        let maps = vec![
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 1, vec![0]).unwrap(),
            NodeMapping::from_threads(set.task(TaskId(1)).dag(), 1, vec![0]).unwrap(),
        ];
        let r = analyze(&set, 1, &maps, BlockingAwareness::Oblivious);
        assert!(!r.is_schedulable());
        assert!(matches!(
            r.verdict(TaskId(1)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::ResponseTimeExceedsDeadline { .. }
            }
        ));
    }

    #[test]
    fn lp_behind_failed_partitioning_reports_dependency() {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let hp = Task::with_implicit_deadline(b.build().unwrap(), 100).unwrap();
        let lp = fork_join_task(&[1, 1], false, 10_000);
        let set = TaskSet::new(vec![hp, lp]);
        let (r, _) = partition_and_analyze(&set, 2, PartitionStrategy::Algorithm1);
        assert!(matches!(
            r.verdict(TaskId(1)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(0) }
            }
        ));
    }

    #[test]
    fn fifo_blocking_serializes_same_core_siblings() {
        // Non-blocking fork-join where both children share core 1: each
        // child's bound charges the sibling's WCET.
        let t = fork_join_task(&[20, 20], false, 500);
        let nodes = t.dag().node_count();
        assert_eq!(nodes, 4);
        let set = TaskSet::new(vec![t]);
        // fork=0, join=1, children=2,3 (builder order).
        let mapping =
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 2, vec![0, 0, 1, 1]).unwrap();
        let r = analyze(&set, 2, &[mapping], BlockingAwareness::Oblivious);
        // R = 10 (fork) + [20 + 20] (children serialized) + 10 (join) = 60.
        assert_eq!(r.verdict(TaskId(0)).response_time(), Some(60));
    }

    /// Source → `regions` parallel chains of one or two fork-joins →
    /// sink, drawn from `seed` (up to 370 nodes, so rows of up to six
    /// words), with every node on a random one of `m` threads.
    fn random_mapped_dag(seed: u64, regions: usize, m: usize) -> (Dag, NodeMapping) {
        let mut rng = rtpool_oracle::shapes::Lcg(seed | 1);
        let mut next = move |bound: u64| rng.below(bound as usize) as u64;
        let mut b = DagBuilder::new();
        let src = b.add_node(1 + next(50));
        let snk = b.add_node(1 + next(50));
        for _ in 0..regions {
            let mut tail = src;
            for _ in 0..1 + next(2) {
                let kids: Vec<u64> = (0..1 + next(6)).map(|_| 1 + next(100)).collect();
                let (fork, join) = b
                    .fork_join(1 + next(50), &kids, 1 + next(50), next(2) == 0)
                    .unwrap();
                b.add_edge(tail, fork).unwrap();
                tail = join;
            }
            b.add_edge(tail, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let threads = (0..dag.node_count())
            .map(|_| next(m as u64) as usize)
            .collect();
        let mapping = NodeMapping::from_threads(&dag, m, threads).unwrap();
        (dag, mapping)
    }

    proptest! {
        /// The fused word pass charges each node exactly the summed WCET
        /// of the same-core nodes concurrent with it, and blocking joins
        /// nothing.
        #[test]
        fn fused_fifo_charge_equals_the_pairwise_sum(
            seed in any::<u64>(),
            regions in 1usize..24,
            m in 1usize..5,
        ) {
            let (dag, mapping) = random_mapped_dag(seed, regions, m);
            let mut scratch = Scratch::default();
            scratch.prepare(&dag, &mapping, m);
            let reach = dag.reachability();
            for v in dag.node_ids() {
                let expected: u64 = if dag.kind(v) == NodeKind::BlockingJoin {
                    0
                } else {
                    dag.node_ids()
                        .filter(|&u| mapping.thread_of(u) == mapping.thread_of(v))
                        .filter(|&u| reach.are_concurrent(u, v))
                        .map(|u| dag.wcet(u))
                        .sum()
                };
                prop_assert_eq!(scratch.fifo[v.index()], expected, "node {:?}", v);
            }
        }
    }
}
