//! Warm-started (incremental) response-time analysis.
//!
//! After a small edit to a task set — a WCET re-estimate, an extra edge,
//! a toggled blocking pair — re-running the global analysis from scratch
//! discards the previous response-time vector. The global fix-point
//! `Rᵢ = F(Rᵢ)` is monotone in every input (volumes, critical paths,
//! higher-priority response times) and *anti*tone in the concurrency
//! divisor. Whenever the edit moved every input in the pessimistic
//! direction, the old response time is still an under-approximation of
//! the new least fixed point, so the iteration may resume from it
//! instead of from `len(λᵢ*)` and converge in a handful of steps —
//! often exactly one. See [`analyze_many_warm`].
//!
//! The warm pass is a *bit-identical fallback*: whenever the
//! monotonicity guard cannot be established the affected task is simply
//! analyzed cold, and a warm iteration that trips the deadline is rerun
//! cold so the reported [`ResponseTimeExceedsDeadline`] bound — which
//! depends on the iteration's starting point — matches the from-scratch
//! analysis exactly.
//!
//! # Why resuming is sound
//!
//! Let `F_old`/`F_new` be the fix-point right-hand sides before and after
//! the edit, and `R_old = lfp(F_old)` the previous response time. The
//! seed guard checks, per task `i` (and numerically, using the values at
//! hand rather than a conservative structural argument):
//!
//! * `len′ ≥ len` and `vol′ − len′ ≥ vol − len` (both terms of the
//!   self-interference grew),
//! * `denom′ ≤ denom` (the concurrency divisor shrank or held),
//! * for every higher-priority task `j`, its carry-in row
//!   `(Tⱼ, ivolⱼ, Rⱼ − ⌊volⱼ/m⌋)` (the interfering volume spin-inflated
//!   under the spin backend): `T′ⱼ = Tⱼ`, `ivol′ⱼ ≥ ivolⱼ` and a jitter
//!   no smaller.
//!
//! Under these conditions `F_new(x) ≥ F_old(x)` for every window `x`.
//! Every `F_old`-iterate from `len` is then bounded by `lfp(F_new)` (by
//! induction: `x ≤ lfp(F_new)` gives `F_old(x) ≤ F_new(x) ≤ lfp(F_new)`),
//! hence `R_old ≤ lfp(F_new)` and the monotone iteration restarted at
//! `max(R_old, len′)` converges to exactly `lfp(F_new)` — the same value
//! the cold iteration reaches from `len′`.

use std::ops::ControlFlow;

use crate::analysis::global::{analyze_tasks, ConcurrencyModel, TaskParams};
use crate::analysis::interference::Load;
use crate::analysis::SchedResult;
use crate::cancel::{CancelToken, Cancelled};
use crate::task::TaskSet;

#[cfg(doc)]
use crate::analysis::UnschedulableReason::ResponseTimeExceedsDeadline;

/// What the next warm pass reads of one task the previous pass found
/// schedulable: the parameters its response time was computed *from*
/// (for the monotonicity guard), the response time itself (the seed),
/// and the carry-in row it charged the tasks below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TaskSnapshot {
    len: u64,
    own: u64,
    denom: u64,
    response: u64,
    load: Load,
}

/// Snapshot of a completed global analysis pass, used to warm-start the
/// next one via [`analyze_many_warm`].
///
/// Opaque by design: it is only meaningful when fed back to the same
/// analysis with the same platform. A snapshot taken for a different
/// `m` or model list is silently ignored (the pass runs cold).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmStart {
    m: usize,
    models: Vec<ConcurrencyModel>,
    /// Per model, the tasks above the pass's first miss.
    snaps: Vec<Vec<TaskSnapshot>>,
    seeded: usize,
}

impl WarmStart {
    /// How many per-task fix-points of the pass that produced this
    /// snapshot were warm-started from a previous response time (summed
    /// over all models). Zero for a cold pass.
    #[must_use]
    pub fn seeded_tasks(&self) -> usize {
        self.seeded
    }
}

/// [`analyze_many`](crate::analysis::global::analyze_many) with
/// warm-started fix-points: each task's iteration resumes from the
/// previous pass's response time whenever the monotonicity guard holds
/// (see the [module docs](self)), and falls back to the cold start
/// otherwise. Verdicts are **bit-identical** to the from-scratch
/// analysis in every case.
///
/// Returns the per-model results together with a [`WarmStart`] snapshot
/// for the next pass. Pass `prev: None` for the first (cold) pass.
///
/// # Errors
///
/// Returns [`Cancelled`] when `token` fires at a checkpoint; no partial
/// results are produced.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::global::{analyze_many, ConcurrencyModel};
/// use rtpool_core::analysis::incremental::analyze_many_warm;
/// use rtpool_core::{CancelToken, Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let (_, _) = b.fork_join(10, &[20, 20, 20], 10, true)?;
/// let dag = b.build()?;
/// let models = [ConcurrencyModel::Full, ConcurrencyModel::Limited];
/// let token = CancelToken::never();
///
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(dag.clone(), 200)?]);
/// let (_, warm) = analyze_many_warm(&set, 4, &models, &token, None)?;
///
/// // Re-estimate one branch WCET upward and resubmit: the fix-points
/// // resume from the previous response times instead of starting over.
/// let mut e = dag.edit();
/// e.set_wcet(rtpool_graph::NodeId::from_index(2), 25);
/// let (edited, _delta) = e.apply()?;
/// let set = TaskSet::new(vec![Task::with_implicit_deadline(edited, 200)?]);
/// let (warm_results, next) = analyze_many_warm(&set, 4, &models, &token, Some(&warm))?;
/// assert_eq!(warm_results, analyze_many(&set, 4, &models));
/// assert!(next.seeded_tasks() > 0);
/// # Ok(())
/// # }
/// ```
pub fn analyze_many_warm(
    set: &TaskSet,
    m: usize,
    models: &[ConcurrencyModel],
    token: &CancelToken,
    prev: Option<&WarmStart>,
) -> Result<(Vec<SchedResult>, WarmStart), Cancelled> {
    assert!(m > 0, "platform must have at least one processor");
    let mut results = Vec::with_capacity(models.len());
    let mut snaps = Vec::with_capacity(models.len());
    let mut seeded = 0;
    for (mi, &model) in models.iter().enumerate() {
        let prev_snaps = prev.and_then(|w| {
            (w.m == m && w.models.get(mi).copied() == Some(model)).then(|| w.snaps[mi].as_slice())
        });
        let mut verdicts = Vec::with_capacity(set.len());
        let mut snap = Vec::with_capacity(set.len());
        analyze_tasks(
            set,
            m,
            model,
            token,
            |p, hp| {
                let seed = fixpoint_seed(p, hp, prev_snaps?)?;
                if seed > p.len {
                    seeded += 1;
                }
                Some(seed)
            },
            |p, verdict| {
                if let Some(response) = verdict.response_time() {
                    snap.push(TaskSnapshot {
                        len: p.len,
                        own: p.own,
                        denom: p.denom,
                        response,
                        load: p.load(response),
                    });
                }
                verdicts.push(verdict);
                ControlFlow::Continue(())
            },
        )?;
        results.push(SchedResult::new(verdicts));
        snaps.push(snap);
    }
    let warm = WarmStart {
        m,
        models: models.to_vec(),
        snaps,
        seeded,
    };
    Ok((results, warm))
}

/// Decides whether the fix-point of the task with parameters `p`, below
/// the tasks whose carry-in rows are `hp`, may resume from its previous
/// response time, returning the seed if so.
///
/// All conditions are checked numerically against the snapshot (see the
/// [module docs](self) for why they imply `F_new ≥ F_old` pointwise and
/// hence that the old response time under-approximates the new least
/// fixed point).
fn fixpoint_seed(p: &TaskParams, hp: &[Load], snaps: &[TaskSnapshot]) -> Option<u64> {
    // The snapshots are of the previous pass's schedulable prefix, so
    // the task's own implies one for every task above it.
    let old = snaps.get(hp.len())?;
    let dominated = p.len >= old.len
        && p.own >= old.own
        && p.denom <= old.denom
        && hp.iter().zip(snaps).all(|(new, old)| {
            new.period == old.load.period
                && new.work >= old.load.work
                && new.jitter >= old.load.jitter
        });
    dominated.then_some(old.response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::global::analyze_many;
    use crate::task::Task;
    use rtpool_graph::{Dag, DagBuilder, NodeId};

    const ALL_MODELS: [ConcurrencyModel; 3] = [
        ConcurrencyModel::Full,
        ConcurrencyModel::Limited,
        ConcurrencyModel::LimitedExact,
    ];

    fn chain_task(wcets: &[u64], period: u64) -> Task {
        let mut b = DagBuilder::new();
        let nodes: Vec<_> = wcets.iter().map(|&w| b.add_node(w)).collect();
        b.add_chain(&nodes).unwrap();
        Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    fn fork_join_task(branches: &[u64], blocking: bool, period: u64) -> Task {
        let mut b = DagBuilder::new();
        b.fork_join(10, branches, 10, blocking).unwrap();
        Task::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    /// `replicas` parallel blocking regions, to exercise b̄ > 1.
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

    fn mixed_set() -> TaskSet {
        TaskSet::new(vec![
            chain_task(&[10, 10, 10], 200),
            fork_join_task(&[20, 20, 20], true, 600),
            replicated_task(2, 4_000),
        ])
    }

    fn edit_wcet(task: &Task, node: usize, wcet: u64) -> Task {
        let mut e = task.dag().edit();
        e.set_wcet(NodeId::from_index(node), wcet);
        let (dag, delta) = e.apply().unwrap();
        assert!(delta.is_wcet_only());
        Task::new(dag, task.period(), task.deadline()).unwrap()
    }

    fn replace_task(set: &TaskSet, i: usize, task: Task) -> TaskSet {
        let mut tasks: Vec<Task> = set.iter().map(|(_, t)| t.clone()).collect();
        tasks[i] = task;
        TaskSet::new(tasks)
    }

    /// Warm results must be bit-identical to the cold analysis of the
    /// same set; returns the snapshot for chaining.
    fn assert_warm_matches_cold(set: &TaskSet, m: usize, prev: Option<&WarmStart>) -> WarmStart {
        let (warm_results, next) =
            analyze_many_warm(set, m, &ALL_MODELS, &CancelToken::never(), prev).unwrap();
        assert_eq!(warm_results, analyze_many(set, m, &ALL_MODELS));
        next
    }

    #[test]
    fn cold_pass_matches_analyze_many() {
        let set = mixed_set();
        let warm = assert_warm_matches_cold(&set, 4, None);
        assert_eq!(warm.seeded_tasks(), 0);
    }

    #[test]
    fn identical_resubmission_seeds_every_schedulable_task() {
        let set = mixed_set();
        let warm = assert_warm_matches_cold(&set, 4, None);
        let next = assert_warm_matches_cold(&set, 4, Some(&warm));
        // Every task schedulable under every model re-converges in one
        // seeded iteration from its old (still exact) response time.
        assert!(next.seeded_tasks() > 0, "resubmission must warm-start");
    }

    #[test]
    fn wcet_increase_seeds_and_matches_cold() {
        let set = mixed_set();
        let warm = assert_warm_matches_cold(&set, 4, None);
        // Bump a branch WCET of the middle task: len/vol grow, structure
        // (and thus every denom) unchanged — the guard holds.
        let edited = replace_task(&set, 1, edit_wcet(set.iter().nth(1).unwrap().1, 1, 35));
        let next = assert_warm_matches_cold(&edited, 4, Some(&warm));
        assert!(next.seeded_tasks() > 0, "wcet increase must warm-start");
    }

    #[test]
    fn wcet_decrease_falls_back_to_cold_start() {
        let set = TaskSet::new(vec![chain_task(&[10, 10, 10], 200)]);
        let warm = assert_warm_matches_cold(&set, 4, None);
        // Shrinking a WCET shrinks len: the old response time may now
        // overshoot the new fix-point, so the guard must refuse the seed.
        let edited = replace_task(&set, 0, edit_wcet(set.iter().next().unwrap().1, 1, 2));
        let next = assert_warm_matches_cold(&edited, 4, Some(&warm));
        assert_eq!(next.seeded_tasks(), 0);
    }

    #[test]
    fn seeded_deadline_violation_reruns_for_bit_identical_bound() {
        // Two 80% tasks on m=1: schedulable at first, then the low task's
        // WCET grows until its fix-point blows past the deadline. The
        // warm pass must report the exact same over-deadline bound as the
        // cold pass even though its iteration started further along.
        let hp = chain_task(&[30], 100);
        let lp = chain_task(&[40], 200);
        let set = TaskSet::new(vec![hp, lp]);
        let warm = assert_warm_matches_cold(&set, 1, None);
        for wcet in [60, 90, 140, 200] {
            let edited = replace_task(&set, 1, edit_wcet(set.iter().nth(1).unwrap().1, 0, wcet));
            let _ = assert_warm_matches_cold(&edited, 1, Some(&warm));
        }
    }

    #[test]
    fn unschedulable_prerequisites_match_cold() {
        // NonPositiveConcurrency (limited, b̄ = m) and the dependent
        // DependsOnUnschedulable verdict must flow through the warm pass
        // untouched, on both the cold and the seeded path.
        let set = TaskSet::new(vec![replicated_task(4, 10_000), chain_task(&[5], 100)]);
        let warm = assert_warm_matches_cold(&set, 4, None);
        let _ = assert_warm_matches_cold(&set, 4, Some(&warm));
    }

    #[test]
    fn structural_edit_matches_cold() {
        // An extra precedence edge grows the critical path while the
        // volume is unchanged, violating `vol − len ≥` old — the guard
        // must fall back to a cold start and still agree bit-for-bit.
        let mut b = DagBuilder::new();
        let s = b.add_node(5);
        let a = b.add_node(20);
        let c = b.add_node(20);
        let t = b.add_node(5);
        for v in [a, c] {
            b.add_edge(s, v).unwrap();
            b.add_edge(v, t).unwrap();
        }
        let task = Task::with_implicit_deadline(b.build().unwrap(), 500).unwrap();
        let set = TaskSet::new(vec![task]);
        let warm = assert_warm_matches_cold(&set, 4, None);
        let base = set.iter().next().unwrap().1.clone();
        let mut e = base.dag().edit();
        e.insert_edge(a, c);
        let (dag, delta) = e.apply().unwrap();
        assert!(!delta.is_wcet_only());
        let edited = replace_task(
            &set,
            0,
            Task::new(dag, base.period(), base.deadline()).unwrap(),
        );
        let next = assert_warm_matches_cold(&edited, 4, Some(&warm));
        assert_eq!(next.seeded_tasks(), 0);
    }

    #[test]
    fn mismatched_snapshot_is_ignored() {
        let set = mixed_set();
        let warm = assert_warm_matches_cold(&set, 4, None);
        // Different platform width: the snapshot must not seed anything.
        let next = assert_warm_matches_cold(&set, 8, Some(&warm));
        assert_eq!(next.seeded_tasks(), 0);
        // Different model list: same story.
        let (results, next) = analyze_many_warm(
            &set,
            4,
            &[ConcurrencyModel::Limited, ConcurrencyModel::Full],
            &CancelToken::never(),
            Some(&warm),
        )
        .unwrap();
        assert_eq!(
            results,
            analyze_many(
                &set,
                4,
                &[ConcurrencyModel::Limited, ConcurrencyModel::Full]
            )
        );
        assert_eq!(next.seeded_tasks(), 0);
    }

    #[test]
    fn grown_task_set_seeds_the_unchanged_prefix() {
        let set = TaskSet::new(vec![chain_task(&[10, 10], 100), chain_task(&[15], 300)]);
        let warm = assert_warm_matches_cold(&set, 2, None);
        let mut tasks: Vec<Task> = set.iter().map(|(_, t)| t.clone()).collect();
        tasks.push(fork_join_task(&[10, 10], false, 2_000));
        let grown = TaskSet::new(tasks);
        let next = assert_warm_matches_cold(&grown, 2, Some(&warm));
        // The two existing tasks still seed; the appended one runs cold.
        assert!(next.seeded_tasks() > 0);
    }

    #[test]
    fn cancellation_propagates() {
        let set = mixed_set();
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let r = analyze_many_warm(&set, 4, &ALL_MODELS, &expired, None);
        assert_eq!(r, Err(Cancelled));
    }

    /// Two light chain tasks ahead of a `layers × width` layered DAG
    /// (source → rows of wcet-1 nodes, each wired to two nodes of the next
    /// row → sink), so a warm start on the big graph also passes the
    /// hp-interference guard.
    fn layered_set(layers: usize, width: usize) -> TaskSet {
        let mut b = DagBuilder::new();
        let source = b.add_node(1);
        let rows: Vec<Vec<NodeId>> = (0..layers)
            .map(|_| (0..width).map(|_| b.add_node(1)).collect())
            .collect();
        let sink = b.add_node(1);
        for (&first, &last) in rows[0].iter().zip(&rows[layers - 1]) {
            b.add_edge(source, first).unwrap();
            b.add_edge(last, sink).unwrap();
        }
        for pair in rows.windows(2) {
            for (i, &v) in pair[0].iter().enumerate() {
                b.add_edge(v, pair[1][i]).unwrap();
                b.add_edge(v, pair[1][(i + 1) % width]).unwrap();
            }
        }
        let period = 4 * (layers * width + 2) as u64;
        TaskSet::new(vec![
            chain_task(&[40, 40], 4_000),
            chain_task(&[60, 60, 60], 9_000),
            Task::with_implicit_deadline(b.build().unwrap(), period).unwrap(),
        ])
    }

    #[test]
    fn warm_matches_cold_across_random_wcet_ramps() {
        // Monotone WCET ramps: seeds chain pass-to-pass and must stay
        // bit-identical at every step. First over every task of a small
        // set, then as scattered single-node edits of a 1,002-node DAG.
        let small = mixed_set();
        let small_edits: Vec<(usize, usize)> = (0..6)
            .map(|step| {
                let i = step % small.len();
                let nodes = small.iter().nth(i).unwrap().1.dag().node_count();
                (i, 1 + step % (nodes - 1))
            })
            .collect();
        let (layers, width) = (25, 40);
        let big_edits: Vec<(usize, usize)> = (0..4)
            .map(|k| (2, 1 + k * 7919 % (layers * width)))
            .collect();
        for (mut set, m, edits) in [
            (small, 4, small_edits),
            (layered_set(layers, width), 8, big_edits),
        ] {
            let mut warm = assert_warm_matches_cold(&set, m, None);
            let mut bump = 11u64;
            for (i, node) in edits {
                let task = set.iter().nth(i).unwrap().1.clone();
                let old = task.dag().wcet(NodeId::from_index(node));
                set = replace_task(&set, i, edit_wcet(&task, node, old + bump));
                bump = bump.wrapping_mul(3).wrapping_add(7) % 40 + 1;
                warm = assert_warm_matches_cold(&set, m, Some(&warm));
                assert!(warm.seeded_tasks() > 0, "a WCET increase must warm-start");
            }
        }
    }

    #[test]
    fn doc_invariant_edit_preserves_dag_type() {
        // `edit_wcet` goes through the public Dag::edit() path; make sure
        // the resulting task still validates as a model instance.
        let t = fork_join_task(&[20, 20], true, 500);
        let t2 = edit_wcet(&t, 1, 33);
        t2.dag().validate_model().unwrap();
        let _: &Dag = t2.dag();
    }
}
