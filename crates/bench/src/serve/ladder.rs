//! The graceful-degradation analysis ladder.
//!
//! An admission request climbs four rungs of increasing cost, each a
//! *sound* screen for the next:
//!
//! 1. **Prefilter** — pure arithmetic: total utilization vs `m`, each
//!    task's critical path vs its deadline. Rejections here agree with
//!    the exact analysis (a diverging fix-point / a chain longer than
//!    the deadline), so they are never marked degraded.
//! 2. **Deadlock** — the cheap Lemma 1/3 certificate first, then the
//!    exact maximum `BF` antichain. A possible deadlock means the exact
//!    RTA's concurrency floor `m − A(τᵢ)` is non-positive, so this
//!    rejection agrees with the definitive rung too.
//! 3. **Limited** — the paper's Lemma 4 limited-concurrency RTA
//!    (divisor `m − b̄`). Its *admit* is sound versus the definitive
//!    rung: `m − A ≥ m − b̄` shrinks interference monotonically, so a
//!    set schedulable under `Limited` is schedulable under
//!    `LimitedExact` (pinned by the core crate's model-dominance test).
//!    Its *reject* may be pessimism.
//! 4. **Exact** — the `LimitedExact` RTA (divisor `m − A(τᵢ)`, the
//!    exact antichain): the definitive answer.
//!
//! A [`CancelToken`] threads the per-request deadline budget through
//! every rung (the cancellable fix-points of `rtpool-core` checkpoint
//! each iteration). When the budget runs out the ladder answers with
//! what the deepest *completed* rung established, marked `degraded`:
//!
//! * a **degraded admit** only ever comes from rung 3, so it implies
//!   the exact rung would also admit — degradation never admits a set
//!   the full analysis would reject;
//! * a **degraded reject** may be pessimistic (the full ladder might
//!   admit); clients can resubmit with a larger budget.

use rtpool_core::analysis::global::{analyze_many_cancellable, ConcurrencyModel};
use rtpool_core::analysis::{SchedResult, TaskVerdict};
use rtpool_core::deadlock::{self, GlobalVerdict};
use rtpool_core::{CancelToken, TaskSet};

use super::protocol::LadderLevel;

/// The ladder's answer for one `(set, m)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LadderOutcome {
    /// Whether the set is admitted.
    pub admit: bool,
    /// The rung that produced the answer.
    pub level: LadderLevel,
    /// Whether the budget cut the climb short of the definitive rung.
    pub degraded: bool,
    /// Human-readable reason.
    pub detail: String,
}

impl LadderOutcome {
    fn degraded_reject(level: LadderLevel, detail: impl Into<String>) -> Self {
        LadderOutcome {
            admit: false,
            level,
            degraded: true,
            detail: detail.into(),
        }
    }
}

/// Climbs the full ladder under `token`'s budget.
#[must_use]
pub fn run_ladder(set: &TaskSet, m: usize, token: &CancelToken) -> LadderOutcome {
    run_ladder_capped(set, m, token, LadderLevel::Exact)
}

/// Climbs the ladder no deeper than `cap`.
///
/// The server always climbs the full ladder ([`run_ladder`]); the test
/// suite uses `cap` to pin the degradation semantics deterministically
/// (a capped climb is exactly "the budget ran out after rung `cap`").
/// Any answer from a rung shallower than [`LadderLevel::Exact`] that is
/// not a sound rejection or a sound admission for the definitive rung is
/// marked degraded.
#[must_use]
pub fn run_ladder_capped(
    set: &TaskSet,
    m: usize,
    token: &CancelToken,
    cap: LadderLevel,
) -> LadderOutcome {
    // Rung 1: prefilter.
    let util = set.total_utilization();
    #[allow(clippy::cast_precision_loss)]
    if util > m as f64 {
        return LadderOutcome {
            admit: false,
            level: LadderLevel::Prefilter,
            degraded: false,
            detail: format!("total utilization {util:.3} exceeds m={m}"),
        };
    }
    for (id, task) in set.iter() {
        if task.critical_path_length() > task.deadline() {
            return LadderOutcome {
                admit: false,
                level: LadderLevel::Prefilter,
                degraded: false,
                detail: format!(
                    "task {}: critical path {} exceeds deadline {}",
                    id.index(),
                    task.critical_path_length(),
                    task.deadline()
                ),
            };
        }
    }
    if cap == LadderLevel::Prefilter {
        return LadderOutcome::degraded_reject(
            LadderLevel::Prefilter,
            "budget exhausted before analysis",
        );
    }
    if token.is_cancelled() {
        return LadderOutcome::degraded_reject(
            LadderLevel::Prefilter,
            "budget exhausted before analysis",
        );
    }

    // Rung 2: deadlock screens.
    for (id, task) in set.iter() {
        let dag = task.dag();
        // The Lemma 1 bound `l̄ = m − b̄ > 0` is a cheap sufficient
        // certificate of freedom; the exact antichain decides the rest
        // (and lands in the DAG's DerivedCache, where the exact RTA
        // reuses it).
        let certified_free = deadlock::concurrency_floor(dag, m) > 0;
        let deadlocky = !certified_free
            && matches!(
                deadlock::check_global(dag, m),
                GlobalVerdict::DeadlockPossible { .. }
            );
        if deadlocky {
            return LadderOutcome {
                admit: false,
                level: LadderLevel::Deadlock,
                degraded: false,
                detail: format!(
                    "task {}: {m} threads can deadlock (BF antichain ≥ m)",
                    id.index()
                ),
            };
        }
    }
    if cap == LadderLevel::Deadlock || token.is_cancelled() {
        return LadderOutcome::degraded_reject(
            LadderLevel::Deadlock,
            "budget exhausted after deadlock screen",
        );
    }

    // Rung 3: limited-concurrency RTA.
    let limited = match analyze_many_cancellable(set, m, &[ConcurrencyModel::Limited], token) {
        Err(_) => {
            return LadderOutcome::degraded_reject(
                LadderLevel::Deadlock,
                "budget exhausted during limited RTA",
            );
        }
        Ok(mut results) => results.remove(0),
    };
    let limited_admit = limited.is_schedulable();
    if cap == LadderLevel::Limited {
        return rung3_outcome(limited_admit, &limited);
    }

    // Rung 4: exact-antichain RTA (definitive).
    match analyze_many_cancellable(set, m, &[ConcurrencyModel::LimitedExact], token) {
        Err(_) => rung3_outcome(limited_admit, &limited),
        Ok(mut results) => {
            let exact = results.remove(0);
            LadderOutcome {
                admit: exact.is_schedulable(),
                level: LadderLevel::Exact,
                degraded: false,
                detail: reject_detail(&exact).unwrap_or_default(),
            }
        }
    }
}

/// The ladder's answer when rung 3 is the deepest completed rung.
fn rung3_outcome(limited_admit: bool, limited: &SchedResult) -> LadderOutcome {
    if limited_admit {
        LadderOutcome {
            admit: true,
            level: LadderLevel::Limited,
            degraded: true,
            detail: "admitted by limited RTA (sound under-approximation)".to_string(),
        }
    } else {
        LadderOutcome {
            admit: false,
            level: LadderLevel::Limited,
            degraded: true,
            detail: reject_detail(limited).map_or_else(String::new, |d| {
                format!("{d} (limited RTA; may be pessimistic)")
            }),
        }
    }
}

/// The first unschedulable task's reason, if any.
fn reject_detail(result: &SchedResult) -> Option<String> {
    result.iter().find_map(|(id, v)| match v {
        TaskVerdict::Schedulable { .. } => None,
        TaskVerdict::Unschedulable { reason } => Some(format!("task {}: {reason}", id.index())),
    })
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use rtpool_core::textfmt::parse_task_set;

    use super::*;

    fn blocking_pair_set() -> TaskSet {
        // Two two-replica blocking fork-joins: deadlock-free on m ≥ 3.
        parse_task_set(
            "task period=1000\n\
             \x20 node src 1\n\
             \x20 node f1 10\n\
             \x20 node a 5\n\
             \x20 node b 5\n\
             \x20 node j1 10\n\
             \x20 node snk 1\n\
             \x20 edge src f1\n\
             \x20 edge f1 a\n\
             \x20 edge f1 b\n\
             \x20 edge a j1\n\
             \x20 edge b j1\n\
             \x20 edge j1 snk\n\
             \x20 blocking f1 j1\n\
             end\n",
        )
        .expect("fixture parses")
    }

    #[test]
    fn utilization_overload_rejects_at_prefilter() {
        let set = parse_task_set("task period=10\n  node a 100\nend\n").unwrap();
        let out = run_ladder(&set, 2, &CancelToken::never());
        assert!(!out.admit);
        assert_eq!(out.level, LadderLevel::Prefilter);
        assert!(!out.degraded);
    }

    #[test]
    fn long_chain_rejects_at_prefilter() {
        let set = parse_task_set(
            "task period=100 deadline=15\n  node a 10\n  node b 10\n  edge a b\nend\n",
        )
        .unwrap();
        let out = run_ladder(&set, 8, &CancelToken::never());
        assert!(!out.admit);
        assert_eq!(out.level, LadderLevel::Prefilter);
        assert!(!out.degraded);
    }

    #[test]
    fn deadlock_rejects_at_deadlock_rung() {
        // One replica needs 2 suspended forks; two tasks' worth of BF
        // pressure on m=1 deadlocks trivially.
        let set = parse_task_set(
            "task period=1000\n\
             \x20 node f 1\n\
             \x20 node c 1\n\
             \x20 node j 1\n\
             \x20 edge f c\n\
             \x20 edge c j\n\
             \x20 blocking f j\n\
             end\n",
        )
        .unwrap();
        let out = run_ladder(&set, 1, &CancelToken::never());
        assert!(!out.admit);
        assert_eq!(out.level, LadderLevel::Deadlock);
        assert!(!out.degraded);
    }

    #[test]
    fn healthy_set_admits_at_exact() {
        let set = blocking_pair_set();
        let out = run_ladder(&set, 4, &CancelToken::never());
        assert!(out.admit, "detail: {}", out.detail);
        assert_eq!(out.level, LadderLevel::Exact);
        assert!(!out.degraded);
    }

    #[test]
    fn expired_budget_degrades_without_admitting() {
        let set = blocking_pair_set();
        let token = CancelToken::with_deadline(Instant::now());
        let out = run_ladder(&set, 4, &token);
        assert!(out.degraded);
        assert!(!out.admit, "an exhausted budget must never admit blindly");
    }

    #[test]
    fn capped_climb_is_degraded_and_sound() {
        let set = blocking_pair_set();
        let never = CancelToken::never();
        for cap in [
            LadderLevel::Prefilter,
            LadderLevel::Deadlock,
            LadderLevel::Limited,
        ] {
            let out = run_ladder_capped(&set, 4, &never, cap);
            assert!(out.degraded, "cap {cap:?}");
            assert!(out.level <= cap, "cap {cap:?}");
            if out.admit {
                // Degraded admits must agree with the definitive rung.
                let full = run_ladder(&set, 4, &never);
                assert!(full.admit, "cap {cap:?} admitted, exact rejected");
            }
        }
        // The Limited cap does admit this healthy set — the degraded
        // admit path is exercised, not vacuous.
        let limited = run_ladder_capped(&set, 4, &never, LadderLevel::Limited);
        assert!(limited.admit && limited.degraded);
    }
}
