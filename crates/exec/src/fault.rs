//! Deterministic, seedable fault injection for the thread pool.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a job: node bodies
//! that panic, workers that lose their share of the pool's available
//! concurrency `l(t)` for a while (artificial suspensions), completion
//! wakeups that arrive late or never, and WCET jitter. Faults fire at
//! named [injection points](InjectionPoint) inside the worker loop.
//!
//! Every decision is a pure function of `(seed, rule, attempt, node)`, so
//! a plan injects exactly the same faults on every run regardless of
//! thread interleaving — chaos tests are reproducible from their seed
//! alone, and a retried job attempt can be given a *different* fault mix
//! than its first attempt (rules can be filtered by attempt index).
//!
//! Faults model the hazard of the paper's Section 3 — blocking
//! synchronization silently eating available concurrency until the pool
//! stalls — plus classic runtime bugs (lost wakeups) that the watchdog
//! must catch. The recovery half lives in
//! [`recovery`](crate::recovery).

use std::time::Duration;

/// Where in the worker loop a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// After a node is fetched, before its body runs. Panics,
    /// suspensions, and WCET jitter fire here.
    BeforeBody,
    /// After a node's body has completed, when its successors are
    /// resolved and sleeping workers would be notified. Wakeup delay and
    /// wakeup swallowing fire here.
    AfterBody,
}

/// What a firing fault does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The node body panics. The pool isolates the panic and reports the
    /// job as [`ExecError::NodePanicked`](crate::ExecError::NodePanicked)
    /// while staying usable.
    PanicBody,
    /// The executing worker is artificially suspended for the duration:
    /// it is accounted exactly like a worker sleeping on a blocking
    /// barrier, so it reduces the available concurrency `l(t)` the stall
    /// detector and `GrowPool` recovery reason about.
    SuspendWorker(Duration),
    /// The completion wakeup is delivered late by the given duration.
    DelayWakeup(Duration),
    /// The completion wakeup is dropped entirely (lost-wakeup runtime
    /// bug). The exact stall detector intentionally does not cover this
    /// state; the watchdog must.
    SwallowWakeup,
    /// Up to the given number of extra WCET units are added to the body
    /// (the exact amount is drawn deterministically).
    JitterWcet(u64),
}

impl FaultKind {
    /// The injection point this kind fires at.
    #[must_use]
    pub fn point(&self) -> InjectionPoint {
        match self {
            FaultKind::PanicBody | FaultKind::SuspendWorker(_) | FaultKind::JitterWcet(_) => {
                InjectionPoint::BeforeBody
            }
            FaultKind::DelayWakeup(_) | FaultKind::SwallowWakeup => InjectionPoint::AfterBody,
        }
    }

    /// Short stable name, used in recovery-event records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::PanicBody => "panic_body",
            FaultKind::SuspendWorker(_) => "suspend_worker",
            FaultKind::DelayWakeup(_) => "delay_wakeup",
            FaultKind::SwallowWakeup => "swallow_wakeup",
            FaultKind::JitterWcet(_) => "jitter_wcet",
        }
    }
}

/// One injection rule of a [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Restrict the rule to one node index (`None` = every node).
    pub node: Option<usize>,
    /// Restrict the rule to one retry attempt (`None` = every attempt;
    /// attempt 0 is the first execution of a job).
    pub attempt: Option<usize>,
    /// Probability in `[0, 1]` that the rule fires where it matches.
    /// Use `1.0` for deterministic always-fire rules.
    pub probability: f64,
    /// The injected fault.
    pub kind: FaultKind,
}

impl FaultRule {
    /// An always-firing rule for `kind` on every node and attempt.
    #[must_use]
    pub fn always(kind: FaultKind) -> Self {
        FaultRule {
            node: None,
            attempt: None,
            probability: 1.0,
            kind,
        }
    }
}

/// Faults selected for one node execution at
/// [`InjectionPoint::BeforeBody`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct BeforeBodyFaults {
    /// Panic inside the body.
    pub panic_body: bool,
    /// Artificially suspend the worker first.
    pub suspend: Option<Duration>,
    /// Extra WCET units added to the body.
    pub extra_wcet: u64,
}

/// Faults selected for one node completion at
/// [`InjectionPoint::AfterBody`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AfterBodyFaults {
    /// Delay the completion wakeup.
    pub delay_wakeup: Option<Duration>,
    /// Drop the completion wakeup.
    pub swallow_wakeup: bool,
}

/// A deterministic, seedable plan of injected faults.
///
/// Build one with the explicit helpers (deterministic single-node
/// faults) or the probabilistic helpers (chaos mixes), then install it
/// with [`PoolConfig::with_faults`](crate::PoolConfig::with_faults).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use rtpool_exec::FaultPlan;
///
/// // Node 2 panics on the first attempt only; every body gets up to
/// // 3 extra WCET units with probability 0.25.
/// let plan = FaultPlan::seeded(42)
///     .panic_on_attempt(0, 2)
///     .jitter_prob(0.25, 3);
/// # let _ = plan;
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan whose probabilistic rules draw from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends an arbitrary rule.
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Node `node`'s body always panics.
    #[must_use]
    pub fn panic_on(self, node: usize) -> Self {
        self.with_rule(FaultRule {
            node: Some(node),
            attempt: None,
            probability: 1.0,
            kind: FaultKind::PanicBody,
        })
    }

    /// Node `node`'s body panics on retry attempt `attempt` only.
    #[must_use]
    pub fn panic_on_attempt(self, attempt: usize, node: usize) -> Self {
        self.with_rule(FaultRule {
            node: Some(node),
            attempt: Some(attempt),
            probability: 1.0,
            kind: FaultKind::PanicBody,
        })
    }

    /// The worker serving `node` is suspended for `for_` on retry
    /// attempt `attempt` only.
    #[must_use]
    pub fn suspend_on_attempt(self, attempt: usize, node: usize, for_: Duration) -> Self {
        self.with_rule(FaultRule {
            node: Some(node),
            attempt: Some(attempt),
            probability: 1.0,
            kind: FaultKind::SuspendWorker(for_),
        })
    }

    /// The completion wakeup of `node` is always dropped.
    #[must_use]
    pub fn swallow_wakeup_on(self, node: usize) -> Self {
        self.with_rule(FaultRule {
            node: Some(node),
            attempt: None,
            probability: 1.0,
            kind: FaultKind::SwallowWakeup,
        })
    }

    /// The completion wakeup of `node` is always delayed by `by`.
    #[must_use]
    pub fn delay_wakeup_on(self, node: usize, by: Duration) -> Self {
        self.with_rule(FaultRule {
            node: Some(node),
            attempt: None,
            probability: 1.0,
            kind: FaultKind::DelayWakeup(by),
        })
    }

    /// Every body panics with probability `p`.
    #[must_use]
    pub fn panic_prob(self, p: f64) -> Self {
        self.with_rule(FaultRule {
            node: None,
            attempt: None,
            probability: p,
            kind: FaultKind::PanicBody,
        })
    }

    /// Every worker is suspended for `for_` with probability `p` before
    /// serving a node.
    #[must_use]
    pub fn suspend_prob(self, p: f64, for_: Duration) -> Self {
        self.with_rule(FaultRule {
            node: None,
            attempt: None,
            probability: p,
            kind: FaultKind::SuspendWorker(for_),
        })
    }

    /// Every completion wakeup is delayed by `by` with probability `p`.
    #[must_use]
    pub fn delay_wakeup_prob(self, p: f64, by: Duration) -> Self {
        self.with_rule(FaultRule {
            node: None,
            attempt: None,
            probability: p,
            kind: FaultKind::DelayWakeup(by),
        })
    }

    /// Every body gains up to `max_units` extra WCET units with
    /// probability `p`.
    #[must_use]
    pub fn jitter_prob(self, p: f64, max_units: u64) -> Self {
        self.with_rule(FaultRule {
            node: None,
            attempt: None,
            probability: p,
            kind: FaultKind::JitterWcet(max_units),
        })
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rules.
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Whether `rule` fires for `(attempt, node)` — a pure function of
    /// the plan seed, so identical across runs and interleavings.
    fn fires(&self, rule_idx: usize, rule: &FaultRule, attempt: usize, node: usize) -> bool {
        if rule.node.is_some_and(|n| n != node) {
            return false;
        }
        if rule.attempt.is_some_and(|a| a != attempt) {
            return false;
        }
        let draw = mix(self.seed, rule_idx as u64, attempt as u64, node as u64);
        chance(rule.probability, draw)
    }

    /// Selects the faults firing before `node`'s body on `attempt`.
    pub(crate) fn before_body(&self, attempt: usize, node: usize) -> BeforeBodyFaults {
        let mut out = BeforeBodyFaults::default();
        for (i, rule) in self.rules.iter().enumerate() {
            if !self.fires(i, rule, attempt, node) {
                continue;
            }
            match rule.kind {
                FaultKind::PanicBody => out.panic_body = true,
                FaultKind::SuspendWorker(d) => {
                    // First matching suspension wins.
                    out.suspend.get_or_insert(d);
                }
                FaultKind::JitterWcet(max) => {
                    if max > 0 {
                        let draw = mix(
                            self.seed ^ 0x6a09_e667,
                            i as u64,
                            attempt as u64,
                            node as u64,
                        );
                        out.extra_wcet += draw % (max + 1);
                    }
                }
                FaultKind::DelayWakeup(_) | FaultKind::SwallowWakeup => {}
            }
        }
        out
    }

    /// Selects the faults firing after `node`'s body on `attempt`.
    pub(crate) fn after_body(&self, attempt: usize, node: usize) -> AfterBodyFaults {
        let mut out = AfterBodyFaults::default();
        for (i, rule) in self.rules.iter().enumerate() {
            if !self.fires(i, rule, attempt, node) {
                continue;
            }
            match rule.kind {
                FaultKind::DelayWakeup(d) => {
                    out.delay_wakeup.get_or_insert(d);
                }
                FaultKind::SwallowWakeup => out.swallow_wakeup = true,
                FaultKind::PanicBody | FaultKind::SuspendWorker(_) | FaultKind::JitterWcet(_) => {}
            }
        }
        out
    }
}

/// Whether a rule of probability `p` fires on `draw`: always at `p ≥ 1`,
/// never at `p ≤ 0`, else by comparing `draw` in the unit interval with
/// 53-bit precision.
fn chance(p: f64, draw: u64) -> bool {
    p >= 1.0 || (p > 0.0 && ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p)
}

/// splitmix64 finalizer over the xor-folded inputs.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_rules_are_deterministic() {
        let plan =
            FaultPlan::seeded(1)
                .panic_on(3)
                .suspend_on_attempt(0, 1, Duration::from_millis(5));
        assert!(plan.before_body(0, 3).panic_body);
        assert!(plan.before_body(7, 3).panic_body);
        assert!(!plan.before_body(0, 2).panic_body);
        assert_eq!(
            plan.before_body(0, 1).suspend,
            Some(Duration::from_millis(5))
        );
        assert_eq!(plan.before_body(1, 1).suspend, None, "attempt filter");
    }

    #[test]
    fn probabilistic_rules_are_stable_across_calls() {
        let plan = FaultPlan::seeded(99).panic_prob(0.5).jitter_prob(0.5, 7);
        for node in 0..64 {
            let a = plan.before_body(0, node);
            let b = plan.before_body(0, node);
            assert_eq!(a, b, "decision for node {node} must be stable");
            assert!(a.extra_wcet <= 7);
        }
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let plan = FaultPlan::seeded(7).panic_prob(0.5);
        let hits = (0..1000)
            .filter(|&n| plan.before_body(0, n).panic_body)
            .count();
        assert!((350..650).contains(&hits), "p=0.5 hit {hits}/1000");
    }

    #[test]
    fn different_attempts_draw_differently() {
        let plan = FaultPlan::seeded(11).suspend_prob(0.5, Duration::from_millis(1));
        let per_attempt: Vec<bool> = (0..32)
            .map(|attempt| plan.before_body(attempt, 0).suspend.is_some())
            .collect();
        assert!(per_attempt.iter().any(|&x| x) && per_attempt.iter().any(|&x| !x));
    }

    #[test]
    fn after_body_faults() {
        let plan = FaultPlan::seeded(1)
            .swallow_wakeup_on(4)
            .delay_wakeup_on(2, Duration::from_millis(3));
        assert!(plan.after_body(0, 4).swallow_wakeup);
        assert!(!plan.after_body(0, 2).swallow_wakeup);
        assert_eq!(
            plan.after_body(0, 2).delay_wakeup,
            Some(Duration::from_millis(3))
        );
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(FaultKind::PanicBody.point(), InjectionPoint::BeforeBody);
        assert_eq!(FaultKind::SwallowWakeup.point(), InjectionPoint::AfterBody);
        assert_eq!(FaultKind::JitterWcet(1).name(), "jitter_wcet");
        let r = FaultRule::always(FaultKind::PanicBody);
        assert!(r.node.is_none() && r.attempt.is_none());
    }
}
