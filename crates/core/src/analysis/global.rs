//! Global fixed-priority response-time analysis (Section 4.1).
//!
//! The baseline is the DAG response-time analysis of Melani et al.
//! (*Schedulability Analysis of Conditional Parallel Task Graphs in
//! Multicore Systems*, IEEE TC 2017), restricted to unconditional DAGs:
//!
//! `Rᵢ = len(λᵢ*) + ⌊ (1/m) · ( vol(τᵢ) − len(λᵢ*) + Σ_{j ∈ hp(i)} Iⱼ,ᵢ(Rᵢ) ) ⌋`
//!
//! with `Iⱼ,ᵢ(L) = ⌈(L + Rⱼ − vol(τⱼ)/m)/Tⱼ⌉ · vol(τⱼ)`, solved by
//! fix-point iteration from `Rᵢ⁰ = len(λᵢ*)`.
//!
//! The paper's **limited-concurrency** adaptation (Lemma 4) replaces the
//! divisor `m` by `l̄(τᵢ) = m − b̄(τᵢ)` — the lower bound on the number of
//! threads of τᵢ's pool that are not suspended on blocking barriers — and
//! keeps the (still valid) `m`-based jitter in the carry-in term. If
//! `l̄(τᵢ) ≤ 0` the analysis rejects the task (the bound cannot even
//! exclude a deadlock).
//!
//! # Spin backend
//!
//! When the task set runs its barriers on
//! [`SyncBackend::Spin`](rtpool_graph::SyncBackend) (carried by the
//! [`TaskSet`] itself), the delay model changes per the busy-wait
//! analysis of Jiang et al. (arXiv 2003.08233):
//!
//! * **Intra-task**, the divisor is unchanged: at any instant at most
//!   `b̄(τᵢ)` of the pool's workers can be spinning, so at least
//!   `l̄ = m − b̄` cores are executing τᵢ's (or higher-priority) work —
//!   the same floor as the suspension model, reached by a different
//!   argument (cores burned instead of threads parked). The exact
//!   antichain refinement is **not** ported:
//!   [`ConcurrencyModel::LimitedExact`] falls back to the `b̄`-based
//!   floor under spin, because the antichain relief relies on suspended
//!   workers *freeing* their cores, which a spinner never does.
//! * **Inter-task**, spinning burns cores that lower-priority tasks
//!   could otherwise use, so each higher-priority task interferes with
//!   its *spin-inflated* volume `vol(τⱼ) + SpinVol(τⱼ)`, where
//!   `SpinVol` sums, over its `BF` nodes, the work that can run while
//!   each one spins, while the carry-in jitter keeps the real `vol(τⱼ)`
//!   (pushing the first release as early as possible stays an upper
//!   bound).
//!
//! Consequently a single spin task gets exactly the suspend-Limited
//! bound, `b̄ = 0` sets are backend-indifferent, and multi-task spin
//! sets are never easier to schedule than their suspend twins — the
//! schedulability cliffs at high `b̄` in the head-to-head study.
//! [`ConcurrencyModel::Full`] stays backend-oblivious by design: it is
//! the baseline that models no blocking at all.

use std::ops::ControlFlow;

use crate::analysis::interference::{Demand, Load};
use crate::analysis::{SchedResult, TaskVerdict, UnschedulableReason};
use crate::cancel::{CancelToken, Cancelled};
use crate::deadlock::available_concurrency;
use crate::task::{Task, TaskId, TaskSet};
use rtpool_graph::{Dag, NodeId, NodeKind, SyncBackend};

/// How many threads the interference is divided among.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConcurrencyModel {
    /// All `m` pool threads are always available — the state-of-the-art
    /// assumption (Melani et al.), **unsafe** for tasks with blocking
    /// forks but the paper's comparison baseline.
    Full,
    /// Only `l̄(τᵢ) = m − b̄(τᵢ)` threads are guaranteed available
    /// (Lemma 4): the paper's contribution.
    Limited,
    /// Extension beyond the paper: divide by `m − A(τᵢ)` where `A(τᵢ)`
    /// is the **exact** maximum number of simultaneously-suspended
    /// threads (the maximum antichain among `BF` nodes). Still sound —
    /// `l(t) = m − #suspended(t) ≥ m − A(τᵢ)` at every `t` — and never
    /// more pessimistic than [`ConcurrencyModel::Limited`], since
    /// `A(τᵢ) ≤ b̄(τᵢ)`. Realizes the paper's future-work direction of
    /// sharper concurrency accounting.
    LimitedExact,
}

/// One task's side of the fix-point for one concurrency model.
struct TaskParams {
    len: u64,
    /// `vol − len`: the task's own work off its critical path.
    own: u64,
    deadline: u64,
    /// Divisor for the interference term.
    denom: u64,
    /// `l̄` as computed (for error reporting).
    floor: i64,
    /// `(Tᵢ, ivolᵢ, ⌊volᵢ/m⌋)`: [`load`](Self::load) makes the last the
    /// jitter `Rᵢ − ⌊volᵢ/m⌋` once `Rᵢ` is known.
    carry: Load,
}

impl TaskParams {
    /// The fix-point parameters of one task for one concurrency model,
    /// built when the per-task loop reaches the task.
    ///
    /// The model-independent quantities (critical path, volume) are
    /// memoized on the task's [`Dag`](rtpool_graph::Dag), so building them
    /// once per model does not repeat the underlying graph work.
    fn new(task: &Task, m: usize, model: ConcurrencyModel, backend: SyncBackend) -> Self {
        let dag = task.dag();
        let suspended = match (model, backend) {
            (ConcurrencyModel::Full, _) => 0,
            (ConcurrencyModel::Limited, _)
            // The antichain refinement needs suspended workers to free
            // their cores; a spinner never does, so spin mode falls back
            // to the b̄-based floor (see module docs).
            | (ConcurrencyModel::LimitedExact, SyncBackend::Spin) => {
                dag.delay_profile().max_delay_count()
            }
            (ConcurrencyModel::LimitedExact, SyncBackend::Suspend) => {
                dag.max_blocking_antichain().len()
            }
        };
        // The divisor is `m − suspended` in `u64`: the `i64` floor
        // saturates at `i64::MAX`, which would divide a pool past 2⁶³ by
        // less than its size.
        let denom = (m as u64).saturating_sub(suspended as u64);
        let floor = available_concurrency(m, suspended);
        let vol = dag.volume();
        // Charged to lower priorities: the real volume under suspension
        // and in the blocking-oblivious `Full`, plus `SpinVol` under spin
        // (a spinning worker occupies a core like an executing one).
        let ivol = match (model, backend) {
            (ConcurrencyModel::Full, _) | (_, SyncBackend::Suspend) => u128::from(vol),
            (_, SyncBackend::Spin) => u128::from(vol) + spin_volume(dag),
        };
        let len = dag.critical_path_length();
        TaskParams {
            len,
            own: vol - len,
            deadline: task.deadline(),
            denom,
            floor,
            // The jitter is `Rᵢ − vol(τᵢ)/m`, charged against the real
            // volume: the paper notes the m-based term remains a valid
            // upper bound under limited concurrency.
            carry: Load {
                period: task.period(),
                work: ivol,
                jitter: vol / m as u64,
            },
        }
    }

    /// The carry-in row of this task once its response time is known.
    fn load(&self, response: u64) -> Load {
        Load {
            jitter: response.saturating_sub(self.carry.jitter),
            ..self.carry
        }
    }
}

/// Spin-wait work bound for a single `BF` node `f` under
/// [`SyncBackend::Spin`]: the volume of the nodes of the same task that
/// can be runnable while `f`'s worker busy-waits on its barrier.
///
/// While `f` waits, every ancestor of `f` has completed and every node
/// reachable from `f` (its join and everything behind it) is
/// precedence-blocked, so the runnable own-task work is contained in
/// `conc(f) ∪ children(f)` — the nodes concurrent with `f` plus the inner
/// nodes of `f`'s own blocking region. The wait ends no later than when
/// that work (plus any higher-priority interference, which the RTA
/// accounts separately) is exhausted, so the worker burns at most this
/// many time units per activation of `f`. This is the per-fork term of
/// the holistic busy-wait interference bound of Jiang et al. (arXiv
/// 2003.08233), under the same isolated-wait simplification: waits
/// prolonged purely by higher-priority execution are charged to the
/// interference term, not double-counted here.
fn spin_bound(dag: &Dag, f: NodeId) -> u64 {
    debug_assert_eq!(dag.kind(f), NodeKind::BlockingFork);
    let reach = dag.reachability();
    let region = dag
        .region_of(f)
        .expect("every BF node heads a blocking region");
    dag.node_ids()
        .filter(|&v| reach.are_concurrent(f, v) || region.inner().binary_search(&v).is_ok())
        .map(|v| dag.wcet(v))
        .sum()
}

/// Total spin-wait volume `SpinVol(τᵢ) = Σ_{f ∈ BF} spin_bound(f)`: an
/// upper bound on the busy-wait time all workers of the task burn across
/// one job under [`SyncBackend::Spin`]. Zero iff the graph has no
/// blocking forks (`b̄ = 0`), which is why spin and suspend analyses
/// coincide exactly on non-blocking sets. Summed in `u128`, where it
/// cannot overflow: each bound is at most `vol ≤ u64::MAX`, and there are
/// fewer than 2³² forks.
fn spin_volume(dag: &Dag) -> u128 {
    dag.blocking_forks()
        .iter()
        .map(|&f| u128::from(spin_bound(dag, f)))
        .sum()
}

/// Runs the analysis on `set` (tasks in priority order, index 0 highest)
/// for pools of `m` threads on `m` processors.
///
/// Returns a per-task [`SchedResult`]; a task below an unschedulable
/// higher-priority task is reported as
/// [`UnschedulableReason::DependsOnUnschedulable`] since its carry-in
/// bound needs the higher-priority response time.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::global::{analyze, ConcurrencyModel};
/// use rtpool_core::{Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20, 20], 10, true)?;
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(b.build()?, 200)?]);
/// let result = analyze(&set, 4, ConcurrencyModel::Limited);
/// assert!(result.is_schedulable());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn analyze(set: &TaskSet, m: usize, model: ConcurrencyModel) -> SchedResult {
    analyze_many(set, m, &[model])
        .pop()
        .expect("one model in, one result out")
}

/// Runs the analysis once per requested concurrency model, returning
/// every task's verdict under each, in the order of `models`. The
/// model-independent per-task work (critical path, volume) is memoized
/// on each task's graph, so the models share it. A caller that needs
/// only a yes/no per model asks [`accepts`] instead.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn analyze_many(set: &TaskSet, m: usize, models: &[ConcurrencyModel]) -> Vec<SchedResult> {
    analyze_many_cancellable(set, m, models, &CancelToken::never())
        .expect("a never-cancelling token cannot cancel")
}

/// [`analyze_many`] with cooperative cancellation: the token is polled
/// between tasks and once per fix-point iteration, so a deadline-bounded
/// caller (the `rtpool-serve` degradation ladder) regains control within
/// one iteration of wall-clock work.
///
/// # Errors
///
/// Returns [`Cancelled`] when `token` fires at a checkpoint; no partial
/// results are produced.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn analyze_many_cancellable(
    set: &TaskSet,
    m: usize,
    models: &[ConcurrencyModel],
    token: &CancelToken,
) -> Result<Vec<SchedResult>, Cancelled> {
    assert!(m > 0, "platform must have at least one processor");
    models
        .iter()
        .map(|&model| {
            let mut verdicts = Vec::with_capacity(set.len());
            analyze_tasks(set, m, model, token, |verdict| {
                verdicts.push(verdict);
                ControlFlow::Continue(())
            })?;
            Ok(SchedResult::new(verdicts))
        })
        .collect()
}

/// Whether the whole set passes the analysis under `model`: exactly
/// `analyze(set, m, model).is_schedulable()`, answered by the same
/// per-task loop, which stops at the first task that misses. The tasks
/// below it never have their parameters (or, for the limited models,
/// their delay profiles) built.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::global::{accepts, analyze, ConcurrencyModel};
/// use rtpool_core::{Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20, 20], 10, true)?;
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(b.build()?, 200)?]);
/// for m in 1..=4 {
///     let model = ConcurrencyModel::Limited;
///     assert_eq!(accepts(&set, m, model), analyze(&set, m, model).is_schedulable());
/// }
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn accepts(set: &TaskSet, m: usize, model: ConcurrencyModel) -> bool {
    assert!(m > 0, "platform must have at least one processor");
    let mut schedulable = true;
    analyze_tasks(set, m, model, &CancelToken::never(), |verdict| {
        schedulable = verdict.is_schedulable();
        if schedulable {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    })
    .expect("a never-cancelling token cannot cancel");
    schedulable
}

/// The per-task loop of the analysis, in priority order: the one loop
/// behind [`analyze_many_cancellable`] and [`accepts`].
///
/// A task's [`TaskParams`] are built when the loop reaches it, its
/// fix-point iterates from the cold start `len(λᵢ*)`, and its carry-in
/// [`Load`] is pushed once its response time is known. `record` receives
/// each task's verdict in turn, and a `Break` from it ends the loop.
fn analyze_tasks(
    set: &TaskSet,
    m: usize,
    model: ConcurrencyModel,
    token: &CancelToken,
    mut record: impl FnMut(TaskVerdict) -> ControlFlow<()>,
) -> Result<(), Cancelled> {
    let backend = set.backend();
    let mut hp: Vec<Load> = Vec::with_capacity(set.len());
    // The highest-priority unschedulable task so far: no task below it
    // has a bound on its interference.
    let mut first_miss: Option<usize> = None;

    for (i, (_, task)) in set.iter().enumerate() {
        token.checkpoint()?;
        let p = TaskParams::new(task, m, model, backend);
        let verdict = if p.denom == 0 {
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::NonPositiveConcurrency { floor: p.floor },
            }
        } else if let Some(bad) = first_miss {
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(bad) },
            }
        } else {
            let demand = Demand {
                base: p.len,
                own: p.own,
                loads: &hp,
                denom: p.denom,
            };
            match demand.least_fixpoint(p.deadline, token)? {
                Ok(response_time) => TaskVerdict::Schedulable { response_time },
                Err(bound) => TaskVerdict::Unschedulable {
                    reason: UnschedulableReason::ResponseTimeExceedsDeadline { bound },
                },
            }
        };
        match verdict.response_time() {
            Some(response) => hp.push(p.load(response)),
            None => {
                first_miss.get_or_insert(i);
            }
        }
        if record(verdict).is_break() {
            break;
        }
    }
    Ok(())
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

    /// `replicas` parallel blocking regions, used to force b̄ > 1.
    fn replicated_task(replicas: usize, period: u64) -> Task {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(10, &[5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn without_blocking_forks_limited_is_full_on_the_largest_pool() {
        // b̄ = 0, so l̄ = m: past 2⁶³ the divisor is still m, not i64::MAX.
        let chain = |wcets: &[u64], period: u64, deadline: u64| {
            let mut b = DagBuilder::new();
            let nodes: Vec<_> = wcets.iter().map(|&w| b.add_node(w)).collect();
            for pair in nodes.windows(2) {
                b.add_edge(pair[0], pair[1]).unwrap();
            }
            Task::new(b.build().unwrap(), period, deadline).unwrap()
        };
        let set = TaskSet::new(vec![
            chain(&[1 << 62], 1 << 62, 1 << 62),
            chain(&[1, 1 << 63], u64::MAX / 3, 1 << 32),
        ]);
        let [full, limited] = [ConcurrencyModel::Full, ConcurrencyModel::Limited]
            .map(|model| analyze(&set, usize::MAX, model));
        assert_eq!(limited, full);
    }

    #[test]
    fn single_task_response_is_critical_path_plus_share() {
        // One task, no hp interference: R = len + floor((vol-len)/m).
        let t = fork_join_task(&[20, 20, 20], false, 1000);
        let set = TaskSet::new(vec![t]);
        let r = analyze(&set, 4, ConcurrencyModel::Full);
        // len = 40, vol = 80: R = 40 + 40/4 = 50.
        assert_eq!(r.verdict(TaskId(0)).response_time(), Some(50));
    }

    #[test]
    fn limited_model_divides_by_floor() {
        // One blocking region: b̄ = 1, l̄(4) = 3.
        let t = fork_join_task(&[20, 20, 20], true, 1000);
        let set = TaskSet::new(vec![t]);
        let full = analyze(&set, 4, ConcurrencyModel::Full);
        let limited = analyze(&set, 4, ConcurrencyModel::Limited);
        // Full: 40 + 40/4 = 50; Limited: 40 + 40/3 = 53.
        assert_eq!(full.verdict(TaskId(0)).response_time(), Some(50));
        assert_eq!(limited.verdict(TaskId(0)).response_time(), Some(53));
    }

    #[test]
    fn limited_model_rejects_exhausted_concurrency() {
        // Four parallel regions on m = 4: b̄ = 4, l̄ = 0.
        let t = replicated_task(4, 10_000);
        let set = TaskSet::new(vec![t]);
        let r = analyze(&set, 4, ConcurrencyModel::Limited);
        assert!(matches!(
            r.verdict(TaskId(0)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::NonPositiveConcurrency { floor: 0 }
            }
        ));
        // The oblivious baseline happily accepts it.
        assert!(analyze(&set, 4, ConcurrencyModel::Full).is_schedulable());
    }

    #[test]
    fn interference_from_higher_priority_tasks() {
        // High-priority task with volume 40 (len 40: a chain) and period 100
        // steals whole-processor time from the low-priority task.
        let mut b = DagBuilder::new();
        let chain: Vec<_> = (0..4).map(|_| b.add_node(10)).collect();
        b.add_chain(&chain).unwrap();
        let hp = Task::with_implicit_deadline(b.build().unwrap(), 100).unwrap();
        let lp = fork_join_task(&[30, 30], false, 1000);
        let set = TaskSet::new(vec![hp, lp]);
        let r = analyze(&set, 2, ConcurrencyModel::Full);
        assert!(r.is_schedulable());
        let r_lp = r.verdict(TaskId(1)).response_time().unwrap();
        // Without interference R = 50 + 30/2 = 65; with it strictly more.
        assert!(
            r_lp > 65,
            "hp interference must increase the bound, got {r_lp}"
        );
    }

    #[test]
    fn lower_priority_depends_on_unschedulable() {
        // hp task with utilization > m is unschedulable; lp must report
        // the dependency.
        let hp = fork_join_task(&[500, 500, 500, 500], false, 100);
        let lp = fork_join_task(&[1, 1], false, 10_000);
        let set = TaskSet::new(vec![hp, lp]);
        let r = analyze(&set, 2, ConcurrencyModel::Full);
        assert!(!r.is_schedulable());
        assert!(matches!(
            r.verdict(TaskId(1)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(0) }
            }
        ));
    }

    #[test]
    fn limited_never_accepts_what_full_rejects() {
        // The limited model only shrinks the divisor, so it is uniformly
        // more pessimistic (same jitter terms).
        for replicas in 1..=3 {
            for period in [200u64, 400, 800] {
                let set = TaskSet::new(vec![replicated_task(replicas, period)]);
                for m in 2..=8 {
                    let full = analyze(&set, m, ConcurrencyModel::Full);
                    let limited = analyze(&set, m, ConcurrencyModel::Limited);
                    if limited.is_schedulable() {
                        assert!(
                            full.is_schedulable(),
                            "limited accepted but full rejected (replicas={replicas}, m={m})"
                        );
                        let rf = full.verdict(TaskId(0)).response_time().unwrap();
                        let rl = limited.verdict(TaskId(0)).response_time().unwrap();
                        assert!(rf <= rl);
                    }
                }
            }
        }
    }

    #[test]
    fn exact_model_between_full_and_limited() {
        // Two *sequential* blocking regions in each of two parallel
        // branches: b̄ over-counts (a child sees both forks of the other
        // branch) while at most 2 forks suspend simultaneously.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f1, j1) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            let (f2, j2) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            b.add_edge(src, f1).unwrap();
            b.add_edge(j1, f2).unwrap();
            b.add_edge(j2, snk).unwrap();
        }
        let t = Task::with_implicit_deadline(b.build().unwrap(), 5_000).unwrap();
        let set = TaskSet::new(vec![t]);
        let m = 4;
        let full = analyze(&set, m, ConcurrencyModel::Full)
            .verdict(TaskId(0))
            .response_time()
            .unwrap();
        let exact = analyze(&set, m, ConcurrencyModel::LimitedExact)
            .verdict(TaskId(0))
            .response_time()
            .unwrap();
        // b̄ = 3 (own fork + the two sequential forks of the sibling
        // branch) → l̄ = 1; antichain = 2 → floor 2.
        let limited = analyze(&set, m, ConcurrencyModel::Limited)
            .verdict(TaskId(0))
            .response_time()
            .unwrap();
        assert!(full <= exact, "{full} <= {exact}");
        assert!(exact <= limited, "{exact} <= {limited}");
        assert!(exact < limited, "the exact floor must help here");
    }

    #[test]
    fn exact_model_never_worse_than_limited() {
        for replicas in 1..=3 {
            for m in 2..=8 {
                let set = TaskSet::new(vec![replicated_task(replicas, 5_000)]);
                let limited = analyze(&set, m, ConcurrencyModel::Limited);
                let exact = analyze(&set, m, ConcurrencyModel::LimitedExact);
                if limited.is_schedulable() {
                    assert!(exact.is_schedulable());
                    assert!(
                        exact.verdict(TaskId(0)).response_time()
                            <= limited.verdict(TaskId(0)).response_time()
                    );
                }
            }
        }
    }

    #[test]
    fn spin_single_task_matches_suspend() {
        // Intra-task the spin floor equals the suspend floor and there is
        // no lower-priority task to inflate, so the bounds coincide.
        let t = fork_join_task(&[20, 20, 20], true, 1000);
        let suspend = TaskSet::new(vec![t]);
        let spin = suspend.clone().with_backend(SyncBackend::Spin);
        for m in 2..=8 {
            for model in [ConcurrencyModel::Full, ConcurrencyModel::Limited] {
                assert_eq!(analyze(&suspend, m, model), analyze(&spin, m, model));
            }
        }
    }

    #[test]
    fn spin_agrees_with_suspend_when_nothing_blocks() {
        // b̄ = 0 everywhere: SpinVol = 0 and the floors equal m, so the
        // analyses must agree exactly under every model.
        let set = TaskSet::new(vec![
            fork_join_task(&[20, 20, 20], false, 300),
            fork_join_task(&[30, 30], false, 900),
        ]);
        let spin = set.clone().with_backend(SyncBackend::Spin);
        for m in 1..=6 {
            for model in [
                ConcurrencyModel::Full,
                ConcurrencyModel::Limited,
                ConcurrencyModel::LimitedExact,
            ] {
                assert_eq!(analyze(&set, m, model), analyze(&spin, m, model));
            }
        }
    }

    #[test]
    fn spin_inflates_interference_on_lower_priority() {
        // hp blocks, lp does not: under spin the hp task's busy-waits
        // burn cores the lp task needs, so the lp bound must grow while
        // the hp bound (no one above it) is unchanged.
        let hp = fork_join_task(&[20, 20, 20], true, 200);
        let lp = fork_join_task(&[30, 30], false, 1000);
        let suspend = TaskSet::new(vec![hp, lp]);
        let spin = suspend.clone().with_backend(SyncBackend::Spin);
        let m = 4;
        let rs = analyze(&suspend, m, ConcurrencyModel::Limited);
        let rp = analyze(&spin, m, ConcurrencyModel::Limited);
        assert_eq!(rs.verdict(TaskId(0)), rp.verdict(TaskId(0)));
        let lp_suspend = rs.verdict(TaskId(1)).response_time().unwrap();
        let lp_spin = rp.verdict(TaskId(1)).response_time().unwrap();
        assert!(
            lp_spin > lp_suspend,
            "spin must inflate lp interference: {lp_spin} vs {lp_suspend}"
        );
    }

    #[test]
    fn spin_rejects_exhausted_concurrency_like_suspend() {
        let set = TaskSet::new(vec![replicated_task(4, 10_000)]).with_backend(SyncBackend::Spin);
        let r = analyze(&set, 4, ConcurrencyModel::Limited);
        assert!(matches!(
            r.verdict(TaskId(0)),
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::NonPositiveConcurrency { floor: 0 }
            }
        ));
    }

    #[test]
    fn spin_exact_model_falls_back_to_delay_floor() {
        // Under spin the antichain refinement is not ported, so the
        // LimitedExact results must equal plain Limited on a graph where
        // the two floors differ under suspension.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f1, j1) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            let (f2, j2) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            b.add_edge(src, f1).unwrap();
            b.add_edge(j1, f2).unwrap();
            b.add_edge(j2, snk).unwrap();
        }
        let t = Task::with_implicit_deadline(b.build().unwrap(), 5_000).unwrap();
        let suspend = TaskSet::new(vec![t]);
        let spin = suspend.clone().with_backend(SyncBackend::Spin);
        let m = 4;
        assert_ne!(
            analyze(&suspend, m, ConcurrencyModel::LimitedExact),
            analyze(&suspend, m, ConcurrencyModel::Limited),
            "precondition: the exact floor must matter under suspension"
        );
        assert_eq!(
            analyze(&spin, m, ConcurrencyModel::LimitedExact),
            analyze(&spin, m, ConcurrencyModel::Limited)
        );
    }

    #[test]
    fn spin_never_beats_suspend() {
        // Mixed two-task sets across platforms: whenever the spin set is
        // schedulable the suspend set must be too, with bounds no larger.
        for replicas in 1..=2 {
            for m in 2..=8 {
                let suspend = TaskSet::new(vec![
                    replicated_task(replicas, 400),
                    fork_join_task(&[15, 15], true, 2_000),
                ]);
                let spin = suspend.clone().with_backend(SyncBackend::Spin);
                let rs = analyze(&suspend, m, ConcurrencyModel::Limited);
                let rp = analyze(&spin, m, ConcurrencyModel::Limited);
                if rp.is_schedulable() {
                    assert!(rs.is_schedulable(), "spin ok but suspend not (m={m})");
                    for i in 0..2 {
                        assert!(
                            rs.verdict(TaskId(i)).response_time()
                                <= rp.verdict(TaskId(i)).response_time()
                        );
                    }
                }
            }
        }
    }

    /// `replicas` parallel blocking regions of three 5-unit children.
    fn replicated_dag(replicas: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn spin_bound_counts_children_and_concurrent_region() {
        // One region: while the fork spins, only its own children can
        // run, so the bound is the 3 x 5 children volume.
        let dag = replicated_dag(1);
        assert_eq!(spin_bound(&dag, dag.blocking_forks()[0]), 15);
        assert_eq!(spin_volume(&dag), 15);

        // Two parallel regions: each spinning fork can additionally wait
        // out the sibling region (fork 10 + children 15 + join 10).
        let dag2 = replicated_dag(2);
        for &f in dag2.blocking_forks() {
            assert_eq!(spin_bound(&dag2, f), 15 + 10 + 15 + 10);
        }
        assert_eq!(spin_volume(&dag2), 100);
    }

    /// τ0 of the two spin-volume probes: two parallel regions of one
    /// 2^62 child each. A fork spins while its own child and the whole
    /// other region run, 2^63 + 2, so `SpinVol` is 2^64 + 4 and the
    /// inflated work `vol + SpinVol` is 3·2^63 + 10.
    fn spin_past_u64_max(period: u64) -> Task {
        let mut b = DagBuilder::new();
        let (src, snk) = (b.add_node(1), b.add_node(1));
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1 << 62], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    /// `τ0` above a one-node task of period `lp_period`, under spin.
    fn spin_probe(hp_period: u64, lp_period: u64) -> TaskSet {
        let mut b = DagBuilder::new();
        b.add_node(1);
        let lp = Task::with_implicit_deadline(b.build().unwrap(), lp_period).unwrap();
        TaskSet::new(vec![spin_past_u64_max(hp_period), lp]).with_backend(SyncBackend::Spin)
    }

    #[test]
    fn a_spin_volume_past_u64_max_is_summed_exactly() {
        // The sum used to wrap to 4, and the task below was accepted with
        // R = 3074457345618258607, 2 above its suspend twin's. Exact, its
        // first iterate is 1 + ⌊(3·2^63 + 10)/3⌋ = 2^63 + 4, past D.
        let spin = spin_probe(11_529_215_046_068_469_760, 5_000_000_000_000_000_000);
        assert_eq!(spin_volume(spin.task(TaskId(0)).dag()), (1 << 64) + 4);
        let suspend = spin.clone().with_backend(SyncBackend::Suspend);
        for model in [ConcurrencyModel::Limited, ConcurrencyModel::LimitedExact] {
            let result = analyze(&spin, 3, model);
            assert_eq!(
                result.verdict(TaskId(0)).response_time(),
                Some(9_223_372_036_854_775_814)
            );
            assert_eq!(
                result.verdict(TaskId(1)),
                &TaskVerdict::Unschedulable {
                    reason: UnschedulableReason::ResponseTimeExceedsDeadline {
                        bound: 9_223_372_036_854_775_812
                    }
                },
                "{model:?}"
            );
            // The suspend twin charges no spin and keeps its bound.
            assert_eq!(
                analyze(&suspend, 3, model)
                    .verdict(TaskId(1))
                    .response_time(),
                Some(3_074_457_345_618_258_605)
            );
        }
        // Full models no blocking and charges no spin either.
        assert_eq!(
            analyze(&spin, 3, ConcurrencyModel::Full),
            analyze(&suspend, 3, ConcurrencyModel::Full)
        );
    }

    #[test]
    fn a_spin_inflated_work_past_u64_max_is_not_saturated() {
        // τ1's deadline 7·10^18 lies between the saturated first iterate,
        // 1 + ⌊(2^64 − 1)/3⌋ = 6148914691236517206, which admitted it,
        // and the exact one, 1 + ⌊(3·2^63 + 10)/3⌋ = 9223372036854775812.
        let spin = spin_probe(u64::MAX, 7_000_000_000_000_000_000);
        let suspend = spin.clone().with_backend(SyncBackend::Suspend);
        for model in [ConcurrencyModel::Limited, ConcurrencyModel::LimitedExact] {
            let result = analyze(&spin, 3, model);
            assert_eq!(
                result.verdict(TaskId(0)).response_time(),
                Some(9_223_372_036_854_775_814)
            );
            assert_eq!(
                result.verdict(TaskId(1)),
                &TaskVerdict::Unschedulable {
                    reason: UnschedulableReason::ResponseTimeExceedsDeadline {
                        bound: 9_223_372_036_854_775_812
                    }
                },
                "{model:?}"
            );
            assert_eq!(
                analyze(&suspend, 3, model)
                    .verdict(TaskId(1))
                    .response_time(),
                Some(3_074_457_345_618_258_605)
            );
        }
        assert_eq!(
            analyze(&spin, 3, ConcurrencyModel::Full),
            analyze(&suspend, 3, ConcurrencyModel::Full)
        );
    }

    #[test]
    fn a_carry_in_term_past_u64_max_is_not_clamped() {
        // τ0 (four parallel 2^61 nodes, period 2^62) charges τ1 three
        // activations of 2^63 + 2 once τ1's window reaches 2^63: past
        // u64::MAX before the division by m = 4. Clamped to u64::MAX, the
        // term gave τ1 the fix-point 2^63 - 1 below D = 10^19; exactly,
        // the iterate after it is 2^62 + ⌊3·(2^63 + 2)/4⌋, past D.
        let mut b = DagBuilder::new();
        let (src, snk) = (b.add_node(1), b.add_node(1));
        for _ in 0..4 {
            let v = b.add_node(1 << 61);
            b.add_edge(src, v).unwrap();
            b.add_edge(v, snk).unwrap();
        }
        let hp = Task::with_implicit_deadline(b.build().unwrap(), 1 << 62).unwrap();
        let mut b = DagBuilder::new();
        b.add_node(1 << 62);
        let lp =
            Task::with_implicit_deadline(b.build().unwrap(), 10_000_000_000_000_000_000).unwrap();
        let set = TaskSet::new(vec![hp, lp]);
        for model in [ConcurrencyModel::Full, ConcurrencyModel::Limited] {
            let result = analyze(&set, 4, model);
            assert!(result.verdict(TaskId(0)).is_schedulable());
            assert_eq!(
                result.verdict(TaskId(1)),
                &TaskVerdict::Unschedulable {
                    reason: UnschedulableReason::ResponseTimeExceedsDeadline {
                        bound: 11_529_215_046_068_469_761
                    }
                },
                "{model:?}"
            );
        }
    }

    #[test]
    fn spin_volume_zero_without_blocking() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1, 1, 1], 1, false).unwrap();
        assert_eq!(spin_volume(&b.build().unwrap()), 0);
    }

    #[test]
    fn sequential_regions_spin_bound_excludes_ordered_region() {
        // Two regions in series: neither fork can spin-wait on the
        // other's work (they are precedence-ordered), so each bound is
        // just its own two children.
        let mut b = DagBuilder::new();
        let (f1, j1) = b.fork_join(1, &[2, 3], 1, true).unwrap();
        let (f2, _j2) = b.fork_join(1, &[4, 5], 1, true).unwrap();
        b.add_edge(j1, f2).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(spin_bound(&dag, f1), 5);
        assert_eq!(spin_bound(&dag, f2), 9);
        assert_eq!(spin_volume(&dag), 14);
    }

    #[test]
    fn expired_token_cancels_before_any_result() {
        let set = TaskSet::new(vec![fork_join_task(&[20, 20, 20], true, 1000)]);
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let r = analyze_many_cancellable(&set, 4, &[ConcurrencyModel::Limited], &expired);
        assert_eq!(r, Err(Cancelled));
        // The never token reproduces the plain entry point bit-for-bit.
        let live =
            analyze_many_cancellable(&set, 4, &[ConcurrencyModel::Limited], &CancelToken::never())
                .unwrap();
        assert_eq!(live, analyze_many(&set, 4, &[ConcurrencyModel::Limited]));
    }

    #[test]
    fn deadline_violation_reported_with_bound() {
        // Utilization 1.0 chain task on m=1 with an interfering twin.
        let mk = || {
            let mut b = DagBuilder::new();
            b.add_node(80);
            Task::with_implicit_deadline(b.build().unwrap(), 100).unwrap()
        };
        let set = TaskSet::new(vec![mk(), mk()]);
        let r = analyze(&set, 1, ConcurrencyModel::Full);
        assert!(r.verdict(TaskId(0)).is_schedulable());
        match r.verdict(TaskId(1)) {
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::ResponseTimeExceedsDeadline { bound },
            } => assert!(*bound > 100),
            v => panic!("expected deadline violation, got {v:?}"),
        }
    }
}
