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
//! expose. To reject an unsafe mapping, check it first with
//! [`check_partitioned`](crate::deadlock::check_partitioned) (Lemma 3).

use std::ops::ControlFlow;

use rtpool_graph::{BitRow, Dag, NodeId, NodeKind};

use crate::analysis::interference::{Demand, Load};
use crate::analysis::{SchedResult, TaskVerdict, UnschedulableReason};
use crate::cancel::CancelToken;
use crate::partition::{algorithm1_in, worst_fit_in, NodeMapping, ThreadId, Workspace, WorstFit};
use crate::task::{Task, TaskId, TaskSet};

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
    /// Maps `dag` onto `m` threads into `workspace`; `false` where
    /// partitioning fails.
    fn partition(self, dag: &Dag, m: usize, workspace: &mut Workspace) -> bool {
        match self {
            PartitionStrategy::Algorithm1 => {
                algorithm1_in(dag, m, &mut WorstFit, workspace).is_ok()
            }
            PartitionStrategy::WorstFit => {
                worst_fit_in(dag, m, workspace);
                true
            }
        }
    }
}

/// Where [`analyze_tasks`] takes each task's mapping from.
#[derive(Clone, Copy)]
enum Mappings<'a> {
    /// The caller's, one per task.
    Given(&'a [NodeMapping]),
    /// Made by the strategy when the loop reaches the task.
    Made(PartitionStrategy),
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
    let mut verdicts = Vec::with_capacity(set.len());
    let mut mappings = Vec::with_capacity(set.len());
    analyze_tasks(set, m, Mappings::Made(strategy), |verdict, threads| {
        verdicts.push(verdict);
        mappings.push(threads.map(|t| NodeMapping::from_ids(t.to_vec(), m)));
        ControlFlow::Continue(())
    });
    (SchedResult::new(verdicts), mappings)
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
    analyze_tasks(set, m, Mappings::Made(strategy), |verdict, _| {
        schedulable = verdict.is_schedulable();
        if schedulable {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
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
pub fn analyze(set: &TaskSet, m: usize, mappings: &[NodeMapping]) -> SchedResult {
    assert!(m > 0, "platform must have at least one processor");
    assert_eq!(mappings.len(), set.len(), "one mapping per task required");
    let mut verdicts = Vec::with_capacity(set.len());
    analyze_tasks(set, m, Mappings::Given(mappings), |verdict, _| {
        verdicts.push(verdict);
        ControlFlow::Continue(())
    });
    SchedResult::new(verdicts)
}

/// The per-task loop of the analysis, in priority order: the one loop
/// behind [`partition_and_analyze`], [`analyze`] and [`accepts`].
///
/// Each task's mapping comes from `mappings` when the loop reaches it
/// (`None`: partitioning failed); `record` receives each verdict in turn
/// with that mapping, and a `Break` from it ends the loop. Every buffer
/// the loop uses is sized for the whole set before the first task, so a
/// pass allocates the same whether it stops at the first task or the
/// last.
fn analyze_tasks(
    set: &TaskSet,
    m: usize,
    mappings: Mappings<'_>,
    mut record: impl FnMut(TaskVerdict, Option<&[ThreadId]>) -> ControlFlow<()>,
) {
    assert!(m > 0, "platform must have at least one processor");
    crate::partition::assert_partitioned_pool(m);
    let most_nodes = set.iter().map(|(_, t)| t.dag().node_count()).max();
    let most_nodes = most_nodes.unwrap_or(0);
    // The highest-priority unschedulable task so far: no task below it
    // has a bound on its interference.
    let mut first_miss: Option<usize> = None;
    let mut hp = HpTables::new(m, set.len());
    let mut scratch = Scratch::new(m, most_nodes);
    let mut workspace = match mappings {
        Mappings::Given(_) => Workspace::default(),
        Mappings::Made(_) => Workspace::with_capacity(most_nodes),
    };

    for (i, (_, task)) in set.iter().enumerate() {
        let threads = match mappings {
            Mappings::Given(given) => {
                let mapping = &given[i];
                assert_eq!(mapping.pool_size(), m, "mapping pool size must equal m");
                assert_eq!(
                    mapping.node_count(),
                    task.dag().node_count(),
                    "mapping must cover the task graph"
                );
                Some(mapping.threads())
            }
            Mappings::Made(strategy) => {
                let mapped = strategy.partition(task.dag(), m, &mut workspace);
                mapped.then(|| workspace.threads())
            }
        };
        let verdict = match (threads, first_miss) {
            (None, _) => TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed,
            },
            (Some(_), Some(bad)) => TaskVerdict::Unschedulable {
                reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(bad) },
            },
            (Some(threads), None) => {
                let verdict = analyze_task(task, threads, m, &hp, &mut scratch);
                // Only a task that a lower-priority one will read is
                // recorded.
                if let (Some(response), true) = (verdict.response_time(), i + 1 < set.len()) {
                    hp.push(task, threads, response);
                }
                verdict
            }
        };
        if !verdict.is_schedulable() {
            first_miss.get_or_insert(i);
        }
        if record(verdict, threads).is_break() {
            break;
        }
    }
}

/// What the higher-priority tasks charge the task being analyzed, grown
/// once per schedulable task that a lower-priority task will read.
struct HpTables {
    /// Per core `k`, `(Tⱼ, Wⱼ,ₖ, Rⱼ − Wⱼ,ₖ)` for each higher-priority task
    /// with `Wⱼ,ₖ > 0`, in priority order: `used[k]` loads from slot
    /// `k · stride` on.
    per_core: Vec<Load>,
    used: Vec<usize>,
    /// Slots per core: the tasks of the set.
    stride: usize,
    /// `(Tⱼ, volⱼ, Rⱼ)` per higher-priority task, for the holistic bound.
    whole: Vec<Load>,
}

impl HpTables {
    /// Empty tables for a pass over `tasks` tasks on `m` cores, allocated
    /// here once: a slot per task, so the blocks are made whatever the
    /// number of tasks the pass reaches.
    fn new(m: usize, tasks: usize) -> Self {
        HpTables {
            per_core: vec![Load::default(); m * tasks],
            used: vec![0; m],
            stride: tasks,
            whole: Vec::with_capacity(tasks),
        }
    }

    /// Records `task`, mapped by `threads` and bounded by `response`,
    /// for the tasks below it.
    fn push(&mut self, task: &Task, threads: &[ThreadId], response: u64) {
        // Fewer than `stride` tasks are recorded before this one, so each
        // core's next slot is in its own row and still zero.
        let dag = task.dag();
        for v in dag.node_ids() {
            let k = threads[v.index()].index();
            self.per_core[k * self.stride + self.used[k]].work += u128::from(dag.wcet(v));
        }
        for (k, used) in self.used.iter_mut().enumerate() {
            let load = &mut self.per_core[k * self.stride + *used];
            if load.work > 0 {
                load.period = task.period();
                // At most `vol ≤ u64::MAX`: the graph's WCETs.
                let work = u64::try_from(load.work).expect("a core's share of one graph fits");
                load.jitter = response.saturating_sub(work);
                *used += 1;
            }
        }
        self.whole.push(Load {
            period: task.period(),
            work: u128::from(dag.volume()),
            jitter: response,
        });
    }

    /// The loads on core `k`.
    fn on_core(&self, k: usize) -> &[Load] {
        &self.per_core[k * self.stride..][..self.used[k]]
    }
}

/// Per-pass scratch buffers for the per-task kernels, sized for the
/// pass's largest graph when it starts, so the FIFO-blocking and
/// longest-path sweeps allocate once per analysis call instead of once
/// per task.
struct Scratch {
    /// `m` rows of `⌈n/64⌉` words in one block: row `k` holds the nodes
    /// mapped to core `k`.
    core_masks: Vec<u64>,
    /// Per-node FIFO-blocking charge.
    fifo: Vec<u64>,
    /// Per-node finish bounds (node-level sweep).
    finish: Vec<u64>,
    /// Per-node inflated longest-path distances (holistic sweep).
    dist: Vec<u64>,
}

impl Scratch {
    /// Buffers for graphs of up to `nodes` nodes on `m` cores.
    fn new(m: usize, nodes: usize) -> Self {
        Scratch {
            core_masks: Vec::with_capacity(m * nodes.div_ceil(64)),
            fifo: Vec::with_capacity(nodes),
            finish: Vec::with_capacity(nodes),
            dist: Vec::with_capacity(nodes),
        }
    }

    /// Prepares the buffers for `dag` mapped by `threads` onto `m` cores
    /// and fills in every node's FIFO-blocking charge.
    fn prepare(&mut self, dag: &Dag, threads: &[ThreadId], m: usize) {
        let n = dag.node_count();
        let stride = n.div_ceil(64);
        self.core_masks.clear();
        self.core_masks.resize(m * stride, 0);
        for buffer in [&mut self.fifo, &mut self.finish, &mut self.dist] {
            buffer.clear();
            buffer.resize(n, 0);
        }
        for (v, t) in threads.iter().enumerate() {
            self.core_masks[t.index() * stride + v / 64] |= 1 << (v % 64);
        }
        // FIFO blocking by same-task nodes that can be ahead of v in its
        // thread's queue: the concurrent nodes mapped to the same thread,
        // core_mask(v) − desc(v) − anc(v) − {v}, summed in one word pass
        // over the three rows. v is in its own core's mask and in neither
        // row, so its WCET is taken off the sum; the sum is of distinct
        // nodes, so it stays within the graph's volume. Blocking joins
        // resume directly on the woken thread and bypass the queue.
        let reach = dag.reachability();
        for v in dag.node_ids() {
            if dag.kind(v) == NodeKind::BlockingJoin {
                continue; // fifo charge stays 0
            }
            let core = threads[v.index()].index();
            let mask = BitRow::from_words(&self.core_masks[core * stride..][..stride], n);
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
    threads: &[ThreadId],
    m: usize,
    hp: &HpTables,
    scratch: &mut Scratch,
) -> TaskVerdict {
    let deadline = task.deadline();
    scratch.prepare(task.dag(), threads, m);

    // Two incomparable sound bounds; the task's response time is their
    // minimum. The sweeps borrow disjoint scratch fields, so split them
    // out of the struct here.
    let Scratch {
        fifo, finish, dist, ..
    } = scratch;
    let node_level = node_level_bound(task, threads, hp, fifo, deadline, finish);
    let holistic = holistic_bound(task, hp, fifo, deadline, dist);
    match node_level.into_iter().chain(holistic).min() {
        Some(response_time) => TaskVerdict::Schedulable { response_time },
        None => TaskVerdict::Unschedulable {
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
    threads: &[ThreadId],
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
        let loads = hp.on_core(threads[v.index()].index());
        // The WCET and the FIFO charge are of distinct nodes: within the
        // volume. A finish past `u64::MAX` is past every deadline.
        let local = within(dag.wcet(v) + fifo_blocking[v.index()], loads, deadline)?;
        finish[v.index()] = ready.checked_add(local).filter(|&f| f <= deadline)?;
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
    // Longest path under inflated node costs. The FIFO charges count a
    // node once per node it may delay, so the sum can pass the volume
    // and `u64::MAX`; every node reaches the sink, so a prefix past
    // `u64::MAX` makes the whole path longer than any deadline.
    for v in dag.topological_order().iter() {
        let best = dag
            .predecessors(v)
            .iter()
            .map(|p| dist[p.index()])
            .max()
            .unwrap_or(0);
        let cost = dag.wcet(v) + fifo_blocking[v.index()];
        dist[v.index()] = best.checked_add(cost)?;
    }
    within(dist[dag.sink().index()], &hp.whole, deadline)
}

/// The least fix-point of `base` plus the carry-in of `loads`, if at
/// most `cap`.
fn within(base: u64, loads: &[Load], cap: u64) -> Option<u64> {
    let demand = Demand {
        base,
        own: 0,
        loads,
        denom: 1,
    };
    demand
        .least_fixpoint(cap, &CancelToken::never())
        .expect("a never-cancelling token cannot cancel")
        .ok()
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
    fn oblivious_analysis_admits_a_mapping_lemma3_rejects() {
        let t = fork_join_task(&[20, 20], true, 500);
        let dag_nodes = t.dag().node_count();
        let set = TaskSet::new(vec![t]);
        // Everything on thread 0: children behind their suspended fork.
        let dag = set.task(TaskId(0)).dag();
        let mapping = NodeMapping::from_threads(dag, 2, vec![0; dag_nodes]).unwrap();
        assert!(!crate::deadlock::check_partitioned(dag, 2, &mapping).is_deadlock_free());
        // The analysis accepts the same mapping — the unsafety the paper
        // warns about.
        assert!(analyze(&set, 2, &[mapping]).is_schedulable());
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
        let r = analyze(&set, 2, &maps);
        assert_eq!(r.verdict(TaskId(0)).response_time(), Some(30));
        // lp sees one hp activation: 10 + 30 = 40.
        assert_eq!(r.verdict(TaskId(1)).response_time(), Some(40));
        // On distinct cores there is no interference.
        let maps2 = vec![
            NodeMapping::from_threads(set.task(TaskId(0)).dag(), 2, vec![0]).unwrap(),
            NodeMapping::from_threads(set.task(TaskId(1)).dag(), 2, vec![1]).unwrap(),
        ];
        let r2 = analyze(&set, 2, &maps2);
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
        let r = analyze(&set, 1, &maps);
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
        let r = analyze(&set, 2, &[mapping]);
        // R = 10 (fork) + [20 + 20] (children serialized) + 10 (join) = 60.
        assert_eq!(r.verdict(TaskId(0)).response_time(), Some(60));
    }

    #[test]
    fn an_inflated_path_past_u64_max_is_past_the_deadline() {
        // src → fork → {a → b, c → d} → join → snk on one core: a and b
        // each queue behind c and d (and the other way round), so the
        // inflated path src, fork, a, b, join, snk is 6x + 4 with
        // 4x + 4 = vol < u64::MAX < 6x. The sum used to wrap to a bound
        // below the critical path, and R = 5764607523034234884 was
        // accepted against D = 10^19 at utilisation 1.61.
        let x = 4_035_225_266_123_964_416;
        let mut b = DagBuilder::new();
        let (src, snk) = (b.add_node(1), b.add_node(1));
        let (fork, join) = (b.add_node(1), b.add_node(1));
        let [a, bb, c, d] = [x; 4].map(|w| b.add_node(w));
        for (from, to) in [(src, fork), (fork, a), (a, bb), (bb, join)] {
            b.add_edge(from, to).unwrap();
        }
        for (from, to) in [(fork, c), (c, d), (d, join), (join, snk)] {
            b.add_edge(from, to).unwrap();
        }
        let dag = b.build().unwrap();
        assert!(dag.volume() < u64::MAX);
        let period = 10_000_000_000_000_000_000;
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, period).unwrap()]);
        for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
            let (result, mappings) = partition_and_analyze(&set, 1, strategy);
            assert!(mappings[0].is_some());
            assert!(
                matches!(
                    result.verdict(TaskId(0)),
                    TaskVerdict::Unschedulable {
                        reason: UnschedulableReason::ResponseTimeExceedsDeadline { .. }
                    }
                ),
                "{strategy:?}: {result:?}"
            );
            assert!(!accepts(&set, 1, strategy));
        }

        // One core shared with a task of period 2: τ1 gets every other
        // time unit, so its 2^63 units finish at 2^64, one past a deadline
        // of u64::MAX. The iterate clamped to u64::MAX used to meet it.
        let unit = |wcet: u64, period: u64| {
            let mut b = DagBuilder::new();
            b.add_node(wcet);
            Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
        };
        let set = TaskSet::new(vec![unit(1, 2), unit(1 << 63, u64::MAX)]);
        for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
            let (result, _) = partition_and_analyze(&set, 1, strategy);
            assert_eq!(result.verdict(TaskId(0)).response_time(), Some(1));
            assert!(
                matches!(
                    result.verdict(TaskId(1)),
                    TaskVerdict::Unschedulable {
                        reason: UnschedulableReason::ResponseTimeExceedsDeadline { .. }
                    }
                ),
                "{strategy:?}: {result:?}"
            );
            assert!(!accepts(&set, 1, strategy));
        }
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
            let mut scratch = Scratch::new(m, dag.node_count());
            scratch.prepare(&dag, mapping.threads(), m);
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
