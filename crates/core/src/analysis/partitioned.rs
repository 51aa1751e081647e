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

use rtpool_graph::{BitSet, NodeId, NodeKind};

use crate::analysis::interference::interfering_workload;
use crate::analysis::{SchedResult, TaskVerdict, UnschedulableReason};
use crate::concurrency::ConcurrencyAnalysis;
use crate::deadlock;
use crate::partition::{algorithm1, worst_fit, NodeMapping};
use crate::task::{TaskId, TaskSet};

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

/// Partitions every task with `strategy` and analyzes the result.
///
/// Returns the schedulability result together with the mappings that were
/// produced (`None` where partitioning failed).
///
/// # Panics
///
/// Panics if `m == 0`.
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
        .map(|(_, task)| match strategy {
            PartitionStrategy::Algorithm1 => algorithm1(task.dag(), m).ok(),
            PartitionStrategy::WorstFit => Some(worst_fit(task.dag(), m)),
        })
        .collect();
    let result = analyze_partial(set, m, &mappings, BlockingAwareness::Oblivious);
    (result, mappings)
}

/// Analyzes `set` under partitioned scheduling with one mapping per task.
///
/// Tasks are in priority order (index 0 highest); every mapping must have
/// `pool_size() == m` and cover its task's graph.
///
/// # Panics
///
/// Panics if `m == 0`, if `mappings.len() != set.len()`, or if a mapping
/// does not match its task's graph or pool size.
#[must_use]
pub fn analyze(
    set: &TaskSet,
    m: usize,
    mappings: &[NodeMapping],
    awareness: BlockingAwareness,
) -> SchedResult {
    let partial: Vec<Option<NodeMapping>> = mappings.iter().cloned().map(Some).collect();
    analyze_partial(set, m, &partial, awareness)
}

fn analyze_partial(
    set: &TaskSet,
    m: usize,
    mappings: &[Option<NodeMapping>],
    awareness: BlockingAwareness,
) -> SchedResult {
    assert!(m > 0, "platform must have at least one processor");
    assert_eq!(mappings.len(), set.len(), "one mapping per task required");

    let mut verdicts: Vec<TaskVerdict> = Vec::with_capacity(set.len());
    // Per analyzed hp task: response time and per-core workloads.
    let mut hp_state: Vec<Option<HpTask>> = Vec::with_capacity(set.len());
    // Scratch buffers shared by every per-task kernel in this pass.
    let mut scratch = Scratch::default();

    for (i, (_, task)) in set.iter().enumerate() {
        let Some(mapping) = &mappings[i] else {
            verdicts.push(TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed,
            });
            hp_state.push(None);
            continue;
        };
        assert_eq!(mapping.pool_size(), m, "mapping pool size must equal m");
        assert_eq!(
            mapping.node_count(),
            task.dag().node_count(),
            "mapping must cover the task graph"
        );
        if awareness == BlockingAwareness::Checked {
            let ca = ConcurrencyAnalysis::new(task.dag());
            if !deadlock::check_partitioned(&ca, m, mapping).is_deadlock_free() {
                verdicts.push(TaskVerdict::Unschedulable {
                    reason: UnschedulableReason::MappingDeadlock,
                });
                hp_state.push(None);
                continue;
            }
        }
        if let Some(bad) = (0..i).find(|&j| hp_state[j].is_none()) {
            verdicts.push(TaskVerdict::Unschedulable {
                reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(bad) },
            });
            hp_state.push(None);
            continue;
        }
        let hp: Vec<&HpTask> = hp_state[..i]
            .iter()
            .map(|s| s.as_ref().expect("checked above"))
            .collect();
        let verdict = analyze_task(task, mapping, m, &hp, &mut scratch);
        match &verdict {
            TaskVerdict::Schedulable { response_time } => {
                hp_state.push(Some(HpTask {
                    period: task.period(),
                    response: *response_time,
                    core_work: per_core_work(task, mapping, m),
                }));
            }
            TaskVerdict::Unschedulable { .. } => hp_state.push(None),
        }
        verdicts.push(verdict);
    }
    SchedResult::new(verdicts)
}

struct HpTask {
    period: u64,
    response: u64,
    core_work: Vec<u64>,
}

/// Reusable per-pass scratch buffers for the per-task kernels, so the
/// FIFO-blocking and longest-path sweeps allocate once per analysis call
/// instead of once per task.
#[derive(Default)]
struct Scratch {
    /// One bitset of node indices per core: the nodes mapped there.
    core_masks: Vec<BitSet>,
    /// Working row for the FIFO-blocking difference kernel.
    tmp: BitSet,
    /// Per-node FIFO-blocking charge.
    fifo: Vec<u64>,
    /// Per-node finish bounds (node-level sweep).
    finish: Vec<u64>,
    /// Per-node inflated longest-path distances (holistic sweep).
    dist: Vec<u64>,
}

impl Scratch {
    /// Prepares the buffers for a task of `n` nodes on `m` cores. Every
    /// buffer keeps its heap block and allocates only to grow, so a
    /// pass over tasks of different sizes allocates the `m` masks once.
    fn reset(&mut self, n: usize, m: usize) {
        self.tmp.reset(n);
        self.core_masks.resize_with(m, BitSet::default);
        for mask in &mut self.core_masks {
            mask.reset(n);
        }
        self.fifo.clear();
        self.fifo.resize(n, 0);
        self.finish.clear();
        self.finish.resize(n, 0);
        self.dist.clear();
        self.dist.resize(n, 0);
    }
}

fn per_core_work(task: &crate::task::Task, mapping: &NodeMapping, m: usize) -> Vec<u64> {
    let dag = task.dag();
    let mut work = vec![0u64; m];
    for v in dag.node_ids() {
        work[mapping.thread_of(v).index()] += dag.wcet(v);
    }
    work
}

fn analyze_task(
    task: &crate::task::Task,
    mapping: &NodeMapping,
    m: usize,
    hp: &[&HpTask],
    scratch: &mut Scratch,
) -> TaskVerdict {
    let dag = task.dag();
    let deadline = task.deadline();
    let reach = dag.reachability();
    scratch.reset(dag.node_count(), m);

    // FIFO blocking by same-task nodes that can be ahead of v in its
    // thread's queue: concurrent nodes mapped to the same thread, found
    // word-parallel as core_mask(v) − desc(v) − anc(v) − {v}. Blocking
    // joins resume directly on the woken thread and bypass the queue.
    for v in dag.node_ids() {
        scratch.core_masks[mapping.thread_of(v).index()].insert(v.index());
    }
    for v in dag.node_ids() {
        if dag.kind(v) == NodeKind::BlockingJoin {
            continue; // fifo charge stays 0
        }
        let core = mapping.thread_of(v).index();
        scratch.tmp.copy_from(&scratch.core_masks[core]);
        scratch.tmp.difference_with(reach.descendants(v));
        scratch.tmp.difference_with(reach.ancestors(v));
        scratch.tmp.remove(v.index());
        scratch.fifo[v.index()] = scratch
            .tmp
            .iter()
            .map(|u| dag.wcet(NodeId::from_index(u)))
            .sum();
    }

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
    task: &crate::task::Task,
    mapping: &NodeMapping,
    hp: &[&HpTask],
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
        let core = mapping.thread_of(v).index();
        let local = local_response(dag.wcet(v) + fifo_blocking[v.index()], core, hp, deadline)?;
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
    task: &crate::task::Task,
    hp: &[&HpTask],
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
    let path_bound = dist[dag.sink().index()];
    let mut r = path_bound;
    loop {
        let mut next = u128::from(path_bound);
        for t in hp {
            let vol: u64 = t.core_work.iter().sum();
            if vol == 0 {
                continue;
            }
            next += u128::from(interfering_workload(r, t.period, vol, t.response));
        }
        let next = u64::try_from(next).unwrap_or(u64::MAX);
        if next > deadline {
            return None;
        }
        if next == r {
            return Some(r);
        }
        debug_assert!(next > r);
        r = next;
    }
}

/// Least fix-point of `x = base + Σⱼ ⌈(x + Jⱼ,ₖ)/Tⱼ⌉·Wⱼ,ₖ`, or `None` if
/// it exceeds `cap`.
fn local_response(base: u64, core: usize, hp: &[&HpTask], cap: u64) -> Option<u64> {
    let mut x = base;
    loop {
        let mut next = u128::from(base);
        for t in hp {
            let w = t.core_work[core];
            if w == 0 {
                continue;
            }
            let jitter = t.response.saturating_sub(w);
            next += u128::from(interfering_workload(x, t.period, w, jitter));
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
    use crate::task::Task;
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
}
