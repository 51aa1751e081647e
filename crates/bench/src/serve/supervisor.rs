//! Per-request supervision: panic isolation, retry, one last try.
//!
//! Every request attempt runs inside [`std::panic::catch_unwind`] on the
//! server's worker thread, so a crashing analysis never unwinds out of
//! it (which would end that worker for good). A panicked attempt is
//! retried under the configured [`RecoveryPolicy`] — the same policy
//! type, with the same `max_retries`/`backoff_delay` semantics, that
//! governs the executor's worker recovery. When the retries are spent
//! the supervisor makes one last try, a
//! [`RescueAttempt`](ServiceEvent::RescueAttempt), as one more turn of
//! the same loop, before it answers `error`: a request that panics on
//! every try is tried `1 + max_retries + 1` times, and each panic is
//! counted. A poisoned cache entry is evicted and retried even under a
//! policy that grants no retries, since evict-and-reparse needs one try
//! more; the last try bounds repeated poisoning too. Whatever happens,
//! **every request gets exactly one response**, and it names what
//! failed last — supervision converts crashes into verdicts, never into
//! silence.
//!
//! Service faults ([`ServiceFaultPlan`]) are injected here, keyed by the
//! request's arrival sequence number and the attempt index, so chaos
//! runs are reproducible.

use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use rtpool_core::{CancelToken, Task, TaskSet};
use rtpool_exec::RecoveryPolicy;

use super::interner::{InternError, Interned, Interner, MemoOutcome};
use super::ladder::{run_ladder, LadderOutcome};
use super::protocol::{
    parse_edit_script, EditScript, LadderLevel, Request, RequestBody, VerdictKind,
};

/// Something the supervisor did while serving a request, for the trace
/// and the metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceEvent {
    /// An attempt panicked and was caught.
    WorkerPanicked,
    /// A panicked attempt was retried under the policy.
    Retried,
    /// The retries were spent and the last try followed.
    RescueAttempt,
    /// A poisoned cache entry was observed and evicted.
    PoisonedEntry,
    /// An injected slowdown delayed the attempt.
    SlowRequest,
    /// An `edit` request was answered from a delta-patched cache entry:
    /// the base set was resident, so the patched set was made from it
    /// by `Dag::edit` instead of parsed — or, from the third sending of
    /// the same edit on, was not built at all
    /// ([`Interner::recall_edit`]).
    CacheDeltaHit,
}

impl ServiceEvent {
    /// Trace `Recovery` label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServiceEvent::WorkerPanicked => "serve_worker_panicked",
            ServiceEvent::Retried => "serve_retried",
            ServiceEvent::RescueAttempt => "serve_rescue_attempt",
            ServiceEvent::PoisonedEntry => "serve_poisoned_entry",
            ServiceEvent::SlowRequest => "serve_slow_request",
            ServiceEvent::CacheDeltaHit => "serve_cache_delta_hit",
        }
    }
}

/// The supervised outcome of one request.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Final verdict class (`Admit`/`Reject`/`Error`).
    pub verdict: VerdictKind,
    /// Ladder rung, when analysis ran.
    pub level: Option<LadderLevel>,
    /// Whether the answer is degraded.
    pub degraded: bool,
    /// Content hash, when the workload resolved.
    pub hash: Option<u64>,
    /// Reason / detail text.
    pub detail: String,
    /// Attempts consumed (1 = clean first try).
    pub attempts: usize,
    /// Supervision events, in order.
    pub events: Vec<ServiceEvent>,
}

/// What one attempt produced internally.
enum AttemptError {
    /// Caught panic, with its message.
    Panicked(String),
    /// Poisoned cache entry (retryable).
    Poisoned,
    /// Terminal resolution failure (parse error, unknown hash).
    Terminal(String),
}

/// The per-request supervisor. Stateless between requests; share one
/// per server.
pub struct Supervisor {
    policy: RecoveryPolicy,
    faults: ServiceFaultPlan,
}

impl Supervisor {
    /// Creates a supervisor applying `policy` to panicked attempts and
    /// injecting `faults`.
    #[must_use]
    pub fn new(policy: RecoveryPolicy, faults: ServiceFaultPlan) -> Self {
        Supervisor { policy, faults }
    }

    /// Serves one request to a verdict. `seq` is the server's arrival
    /// sequence number (the fault plan's request key); `token` carries
    /// the request's deadline budget.
    #[must_use]
    pub fn execute(
        &self,
        seq: u64,
        request: &Request,
        interner: &Interner,
        token: &CancelToken,
    ) -> ServiceOutcome {
        let mut events = Vec::new();
        let max_retries = self.policy.max_retries();
        let last = max_retries.saturating_add(1);
        let mut attempt = 0usize;
        loop {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                self.attempt(seq, attempt, request, interner, token, &mut events)
            }))
            .unwrap_or_else(|payload| Err(AttemptError::Panicked(panic_message(&*payload))));
            match result {
                Ok(outcome) => return finish(outcome, attempt + 1, events),
                Err(AttemptError::Terminal(detail)) => {
                    return refuse(detail, attempt + 1, events);
                }
                Err(AttemptError::Poisoned) => {
                    events.push(ServiceEvent::PoisonedEntry);
                    if attempt == last {
                        let detail = "cache entry repeatedly poisoned".to_string();
                        return refuse(detail, attempt + 1, events);
                    }
                }
                Err(AttemptError::Panicked(message)) => {
                    events.push(ServiceEvent::WorkerPanicked);
                    if attempt == last {
                        let detail = format!(
                            "analysis worker panicked on {} attempts (last: {message})",
                            attempt + 1
                        );
                        return refuse(detail, attempt + 1, events);
                    }
                    if attempt == max_retries {
                        // Retries spent: the last try follows at once.
                        events.push(ServiceEvent::RescueAttempt);
                        attempt += 1;
                        continue;
                    }
                }
            }
            events.push(ServiceEvent::Retried);
            let delay = self.policy.backoff_delay(attempt);
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            attempt += 1;
        }
    }

    /// One attempt: inject faults, resolve the workload, run (or recall)
    /// the ladder.
    fn attempt(
        &self,
        seq: u64,
        attempt: usize,
        request: &Request,
        interner: &Interner,
        token: &CancelToken,
        events: &mut Vec<ServiceEvent>,
    ) -> Result<LadderVerdict, AttemptError> {
        let faults = self.faults.faults(seq, attempt);
        if let Some(d) = faults.slow_request {
            events.push(ServiceEvent::SlowRequest);
            thread::sleep(d);
        }
        let Interned {
            hash,
            set,
            resident,
        } = match &request.body {
            RequestBody::Source(src) => interner.resolve(src).map_err(attempt_error)?,
            RequestBody::Hash(h) => Interned {
                hash: *h,
                set: interner.lookup(*h).map_err(attempt_error)?,
                resident: true,
            },
            RequestBody::Edit { base, script } => {
                let resolved = match interner.recall_edit(*base, script) {
                    Some(resolved) => resolved,
                    None => {
                        let ops = parse_edit_script(script).map_err(AttemptError::Terminal)?;
                        let base_set = interner.lookup(*base).map_err(attempt_error)?;
                        let patched =
                            apply_edit_script(&base_set, &ops).map_err(AttemptError::Terminal)?;
                        interner.intern_edited(*base, script, patched)
                    }
                };
                events.push(ServiceEvent::CacheDeltaHit);
                resolved
            }
        };
        if faults.poison_cache {
            interner.poison(hash);
            // Observe our own poison, as any other worker would: the
            // entry is evicted and this attempt fails retryably.
            return Err(attempt_error(
                interner.lookup(hash).err().unwrap_or(InternError::Poisoned),
            ));
        }
        if faults.panic_worker {
            panic!("injected service fault: worker panic (request {seq}, attempt {attempt})");
        }
        // A set that is not the resident one under its hash neither
        // reads nor writes that entry's memo.
        if let Some(memo) = resident
            .then(|| interner.memoized(hash, request.m))
            .flatten()
        {
            return Ok(LadderVerdict {
                hash,
                outcome: LadderOutcome {
                    admit: memo.admit,
                    level: memo.level,
                    degraded: false,
                    detail: "memoized verdict".to_string(),
                },
            });
        }
        let outcome = run_ladder(&set, request.m, token);
        if resident && !outcome.degraded {
            interner.memoize(
                hash,
                request.m,
                MemoOutcome {
                    admit: outcome.admit,
                    level: outcome.level,
                },
            );
        }
        Ok(LadderVerdict { hash, outcome })
    }
}

/// Applies a parsed edit script to a resident base set, producing the
/// patched set. Each edited task's graph goes through [`Dag::edit`]: a
/// WCET-only script shares the base's topology and derived cells, any
/// other is rebuilt and validated as its final graph; untouched tasks
/// share their `Task` wholesale.
///
/// [`Dag::edit`]: rtpool_graph::Dag::edit
fn apply_edit_script(base: &TaskSet, ops: &[EditScript]) -> Result<TaskSet, String> {
    let tasks: Vec<&Task> = base.iter().map(|(_, t)| t).collect();
    for op in ops {
        if op.task >= tasks.len() {
            return Err(format!(
                "edit addresses task {} but the base set has {}",
                op.task,
                tasks.len()
            ));
        }
    }
    let mut out = Vec::with_capacity(tasks.len());
    for (ti, task) in tasks.iter().enumerate() {
        let mut mine = ops.iter().filter(|op| op.task == ti).peekable();
        if mine.peek().is_none() {
            out.push((*task).clone());
            continue;
        }
        let mut edit = task.dag().edit();
        for op in mine {
            edit.push(op.op.clone());
        }
        let (dag, _delta) = edit
            .apply()
            .map_err(|e| format!("edit rejected on task {ti}: {e}"))?;
        out.push(
            Task::new(dag, task.period(), task.deadline())
                .map_err(|e| format!("edited task {ti} is invalid: {e}"))?,
        );
    }
    Ok(TaskSet::new(out).with_backend(base.backend()))
}

/// A resolved workload plus its ladder answer.
struct LadderVerdict {
    hash: u64,
    outcome: LadderOutcome,
}

fn finish(v: LadderVerdict, attempts: usize, events: Vec<ServiceEvent>) -> ServiceOutcome {
    ServiceOutcome {
        verdict: if v.outcome.admit {
            VerdictKind::Admit
        } else {
            VerdictKind::Reject
        },
        level: Some(v.outcome.level),
        degraded: v.outcome.degraded,
        hash: Some(v.hash),
        detail: v.outcome.detail,
        attempts,
        events,
    }
}

fn refuse(detail: String, attempts: usize, events: Vec<ServiceEvent>) -> ServiceOutcome {
    ServiceOutcome {
        verdict: VerdictKind::Error,
        level: None,
        degraded: false,
        hash: None,
        detail,
        attempts,
        events,
    }
}

fn attempt_error(e: InternError) -> AttemptError {
    match e {
        InternError::Poisoned => AttemptError::Poisoned,
        other => AttemptError::Terminal(other.to_string()),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// A deterministic, seedable plan of faults injected into the admission
/// service: analysis workers that panic, cache entries that are
/// poisoned, requests that are slowed. The unit of failure is a whole
/// request attempt, not a node body; the executor's node faults are
/// [`rtpool_exec::FaultPlan`].
///
/// Every decision is a pure function of `(seed, rule, request,
/// attempt)`, so a plan injects the same faults on every run, whatever
/// the interleaving of the server's workers.
#[derive(Clone, Debug)]
pub struct ServiceFaultPlan {
    seed: u64,
    rules: Vec<ServiceFaultRule>,
}

/// One rule of a [`ServiceFaultPlan`]: a half-open window of request
/// sequence numbers (`None` = every request; windows model storms), one
/// attempt (`None` = every attempt; 0 is the first), the probability in
/// `[0, 1]` that the rule fires where it matches, and the fault.
#[derive(Clone, Debug)]
struct ServiceFaultRule {
    requests: Option<(u64, u64)>,
    attempt: Option<usize>,
    probability: f64,
    kind: ServiceFaultKind,
}

/// What a firing service fault does.
#[derive(Clone, Copy, Debug)]
enum ServiceFaultKind {
    /// The analysis worker panics mid-request.
    PanicWorker,
    /// The request's cache entry is poisoned: its first use fails, and
    /// the supervisor must evict and re-parse.
    PoisonCacheEntry,
    /// The attempt is slowed by the duration, the building block of the
    /// slow-request storms that trip the breaker.
    SlowRequest(Duration),
}

/// The faults selected for one `(request, attempt)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ServiceFaults {
    panic_worker: bool,
    poison_cache: bool,
    slow_request: Option<Duration>,
}

/// Salts the seed, so that a service plan and an executor plan built
/// from the same seed draw unrelated faults.
const SERVICE_SALT: u64 = 0x5e27_1ce5;

impl ServiceFaultPlan {
    /// An empty plan whose probabilistic rules draw from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        ServiceFaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    fn rule(
        mut self,
        requests: Option<(u64, u64)>,
        attempt: Option<usize>,
        probability: f64,
        kind: ServiceFaultKind,
    ) -> Self {
        self.rules.push(ServiceFaultRule {
            requests,
            attempt,
            probability,
            kind,
        });
        self
    }

    /// Request `request` panics on its first attempt (a transient fault:
    /// the retry succeeds).
    #[must_use]
    pub fn panic_on(self, request: u64) -> Self {
        let only = Some((request, request + 1));
        self.rule(only, Some(0), 1.0, ServiceFaultKind::PanicWorker)
    }

    /// Request `request` panics on *every* attempt (a persistent fault:
    /// the supervisor spends its retries and its last try, and answers
    /// `error`).
    #[must_use]
    pub fn panic_always(self, request: u64) -> Self {
        let only = Some((request, request + 1));
        self.rule(only, None, 1.0, ServiceFaultKind::PanicWorker)
    }

    /// Every request's first attempt panics with probability `p`.
    #[must_use]
    pub fn panic_prob(self, p: f64) -> Self {
        self.rule(None, Some(0), p, ServiceFaultKind::PanicWorker)
    }

    /// Request `request` resolves to a poisoned cache entry on its first
    /// attempt (the supervisor must evict and re-parse).
    #[must_use]
    pub fn poison_on(self, request: u64) -> Self {
        let only = Some((request, request + 1));
        self.rule(only, Some(0), 1.0, ServiceFaultKind::PoisonCacheEntry)
    }

    /// Every request's first attempt poisons its cache entry with
    /// probability `p`.
    #[must_use]
    pub fn poison_prob(self, p: f64) -> Self {
        self.rule(None, Some(0), p, ServiceFaultKind::PoisonCacheEntry)
    }

    /// Slow-request storm: every attempt of the requests with sequence
    /// numbers in `[from, to)` is slowed by `by`.
    #[must_use]
    pub fn slow_storm(self, from: u64, to: u64, by: Duration) -> Self {
        let slow = ServiceFaultKind::SlowRequest(by);
        self.rule(Some((from, to)), None, 1.0, slow)
    }

    /// Every attempt is slowed by `by` with probability `p`.
    #[must_use]
    pub fn slow_prob(self, p: f64, by: Duration) -> Self {
        self.rule(None, None, p, ServiceFaultKind::SlowRequest(by))
    }

    /// The faults firing for `(request, attempt)`; the first matching
    /// slowdown wins.
    fn faults(&self, request: u64, attempt: usize) -> ServiceFaults {
        let mut out = ServiceFaults::default();
        for (i, rule) in self.rules.iter().enumerate() {
            if rule
                .requests
                .is_some_and(|(a, b)| request < a || request >= b)
            {
                continue;
            }
            if rule.attempt.is_some_and(|a| a != attempt) {
                continue;
            }
            let draw = mix(self.seed ^ SERVICE_SALT, i as u64, attempt as u64, request);
            if !chance(rule.probability, draw) {
                continue;
            }
            match rule.kind {
                ServiceFaultKind::PanicWorker => out.panic_worker = true,
                ServiceFaultKind::PoisonCacheEntry => out.poison_cache = true,
                ServiceFaultKind::SlowRequest(d) => {
                    out.slow_request.get_or_insert(d);
                }
            }
        }
        out
    }
}

/// Whether a rule of probability `p` fires on `draw`: always at `p ≥ 1`,
/// never at `p ≤ 0`, else by comparing `draw` in the unit interval with
/// 53-bit precision. The executor's node faults draw the same way.
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
    use rtpool_core::SyncBackend;

    use super::super::interner::tests::SUSPEND_TWIN;
    use super::*;

    const SRC: &str = "task period=100\n  node a 10\n  node b 5\n  edge a b\nend\n";

    fn request(id: u64, m: usize) -> Request {
        Request {
            id,
            m,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Source(SRC.to_string()),
        }
    }

    fn retrying(faults: ServiceFaultPlan) -> Supervisor {
        Supervisor::new(
            RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                base_delay: Duration::ZERO,
            },
            faults,
        )
    }

    #[test]
    fn clean_request_admits_first_try() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let out = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Admit);
        assert_eq!(out.attempts, 1);
        assert!(out.events.is_empty());
        assert!(out.hash.is_some());
        // A second identical request hits the memo.
        let out2 = sup.execute(1, &request(2, 4), &interner, &CancelToken::never());
        assert_eq!(out2.verdict, VerdictKind::Admit);
        assert_eq!(out2.detail, "memoized verdict");
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1).panic_on(0));
        let out = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Admit);
        assert_eq!(out.attempts, 2);
        assert_eq!(
            out.events,
            vec![ServiceEvent::WorkerPanicked, ServiceEvent::Retried]
        );
    }

    /// Every try panics: 1 + 2 retries + the last try. Each try's panic
    /// is counted and each try's events kept, the last one's too.
    #[test]
    fn persistent_panic_exhausts_into_error() {
        use ServiceEvent::{RescueAttempt as Last, Retried as Retry};
        use ServiceEvent::{SlowRequest as Slow, WorkerPanicked as Panic};
        let interner = Interner::new(8);
        let plan = ServiceFaultPlan::seeded(1)
            .panic_always(0)
            .slow_prob(1.0, Duration::from_micros(10));
        let out = retrying(plan).execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Error);
        assert_eq!(out.attempts, 4);
        let each_try = [
            Slow, Panic, Retry, Slow, Panic, Retry, Slow, Panic, Last, Slow, Panic,
        ];
        assert_eq!(out.events, each_try);
        // The last panic's own text survives the catch.
        let last = "panicked on 4 attempts (last: injected service fault: worker panic";
        assert!(out.detail.contains(last), "{}", out.detail);
    }

    #[test]
    fn abort_policy_goes_straight_to_rescue() {
        let interner = Interner::new(8);
        let sup = Supervisor::new(
            RecoveryPolicy::Abort,
            ServiceFaultPlan::seeded(1).panic_on(0),
        );
        // The transient fault only fires on attempt 0; Abort grants no
        // retries, so the last try (index 1) succeeds.
        let out = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Admit);
        assert!(out.events.contains(&ServiceEvent::RescueAttempt));
    }

    /// A last try that meets a poisoned entry is answered for the poison,
    /// not for the panic before it.
    #[test]
    fn a_poisoned_last_try_is_answered_as_poisoned() {
        use ServiceEvent::{PoisonedEntry, RescueAttempt, WorkerPanicked};
        // No retries: attempt 0 panics, attempt 1 is the last and poisoned.
        let poison = ServiceFaultKind::PoisonCacheEntry;
        let plan = ServiceFaultPlan::seeded(1)
            .panic_on(0)
            .rule(None, Some(1), 1.0, poison);
        let sup = Supervisor::new(RecoveryPolicy::Abort, plan);
        let out = sup.execute(0, &request(1, 4), &Interner::new(8), &CancelToken::never());
        assert_eq!(out.detail, "cache entry repeatedly poisoned");
        assert_eq!(out.events, [WorkerPanicked, RescueAttempt, PoisonedEntry]);
        assert_eq!((out.verdict, out.attempts), (VerdictKind::Error, 2));
    }

    #[test]
    fn poisoned_entry_is_evicted_and_retried() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1).poison_on(0));
        let out = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Admit, "detail: {}", out.detail);
        assert_eq!(out.attempts, 2);
        assert!(out.events.contains(&ServiceEvent::PoisonedEntry));
    }

    #[test]
    fn largest_pools_are_admitted() {
        // `m as i64` wrapped in the deadlock floor: Figure 1, admitted on
        // m = 3, was refused on m = 2⁶³ and on m = u64::MAX.
        const FIGURE1: &str = include_str!("../../../../workloads/figure1.rtp");
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        for m in [3, 1 << 63, u64::MAX] {
            let mut line = format!("{{\"id\":1,\"m\":{m},\"source\":\"");
            rtpool_trace::json::escape_into(FIGURE1, &mut line);
            line.push_str("\"}");
            let req = super::super::protocol::parse_request(&line).expect("well-formed line");
            let out = sup.execute(0, &req, &interner, &CancelToken::never());
            assert_eq!(out.verdict, VerdictKind::Admit, "m = {m}: {}", out.detail);
        }
    }

    #[test]
    fn parse_error_is_terminal() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let req = Request {
            body: RequestBody::Source("task period=\nend".to_string()),
            ..request(1, 4)
        };
        let out = sup.execute(0, &req, &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Error);
        assert_eq!(out.attempts, 1);
        assert!(out.detail.contains("parse error"));
    }

    #[test]
    fn unknown_hash_is_terminal() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let req = Request {
            body: RequestBody::Hash(0xdead_beef),
            ..request(1, 4)
        };
        let out = sup.execute(0, &req, &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Error);
        assert!(out.detail.contains("unknown content hash"));
    }

    fn edit_request(id: u64, m: usize, base: u64, script: &str) -> Request {
        Request {
            id,
            m,
            priority: 4,
            deadline_us: 0,
            body: RequestBody::Edit {
                base,
                script: script.to_string(),
            },
        }
    }

    #[test]
    fn edit_request_answers_from_patched_entry() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let first = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        let base = first.hash.expect("base interned");
        let out = sup.execute(
            1,
            &edit_request(2, 4, base, "wcet:0.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(out.verdict, VerdictKind::Admit, "detail: {}", out.detail);
        assert!(out.events.contains(&ServiceEvent::CacheDeltaHit));
        let patched = out.hash.expect("patched hash");
        assert_ne!(patched, base, "the edit changes the content hash");
        assert_eq!(interner.stats().delta_hits, 1);
        // The delta-patched answer equals the cold-path answer for the
        // equivalent inline source.
        let cold_interner = Interner::new(8);
        let cold = sup.execute(
            2,
            &Request {
                body: RequestBody::Source(SRC.replace("node a 10", "node a 12")),
                ..request(3, 4)
            },
            &cold_interner,
            &CancelToken::never(),
        );
        assert_eq!(cold.verdict, out.verdict);
        assert_eq!(cold.level, out.level);
        assert_eq!(
            cold.hash, out.hash,
            "structural hash agrees with cold parse"
        );
        // Resubmitting the same edit hits the patched entry's memo.
        let again = sup.execute(
            3,
            &edit_request(4, 4, base, "wcet:0.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(again.detail, "memoized verdict");
        assert_eq!(interner.stats().delta_hits, 2);
        // Sent a third time it is not applied at all, and reads the same.
        let third = sup.execute(
            4,
            &edit_request(5, 4, base, "wcet:0.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(
            (third.hash, third.verdict, third.level, &third.events),
            (again.hash, again.verdict, again.level, &again.events)
        );
        let stats = interner.stats();
        assert_eq!((stats.delta_hits, stats.recalled), (3, 1));
    }

    #[test]
    fn an_edit_of_a_spin_base_stays_spin() {
        let spin = format!("backend spin\n{SUSPEND_TWIN}");
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let source = |text: &str| Request {
            body: RequestBody::Source(text.to_string()),
            ..request(0, 3)
        };
        let base = sup.execute(0, &source(&spin), &interner, &CancelToken::never());
        assert_eq!(base.verdict, VerdictKind::Reject, "{}", base.detail);
        let edited = sup.execute(
            1,
            &edit_request(1, 3, base.hash.unwrap(), "wcet:1.3=11"),
            &interner,
            &CancelToken::never(),
        );
        let patched = interner.lookup(edited.hash.unwrap()).unwrap();
        assert_eq!(patched.backend(), SyncBackend::Spin);
        // The edited set sent whole, to a fresh interner, is answered
        // the same: verdict, rung, detail and hash.
        let cold = sup.execute(
            2,
            &source(&spin.replace("node z 10", "node z 11")),
            &Interner::new(8),
            &CancelToken::never(),
        );
        assert_eq!(cold.verdict, VerdictKind::Reject, "{}", cold.detail);
        assert_eq!(
            (edited.hash, edited.verdict, edited.level, &edited.detail),
            (cold.hash, cold.verdict, cold.level, &cold.detail)
        );
    }

    #[test]
    fn edit_errors_are_terminal() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let first = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        let base = first.hash.expect("base interned");
        // Unknown base hash.
        let out = sup.execute(
            1,
            &edit_request(2, 4, base ^ 1, "wcet:0.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(out.verdict, VerdictKind::Error);
        assert!(out.detail.contains("unknown content hash"));
        // Malformed script.
        let out = sup.execute(
            2,
            &edit_request(3, 4, base, "warp:0.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(out.verdict, VerdictKind::Error);
        assert!(out.detail.contains("unknown edit verb"));
        // Script addressing a task the set does not have.
        let out = sup.execute(
            3,
            &edit_request(4, 4, base, "wcet:9.0=12"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(out.verdict, VerdictKind::Error);
        assert!(out.detail.contains("addresses task 9"));
        // Graph-level rejection (self-loop edge).
        let out = sup.execute(
            4,
            &edit_request(5, 4, base, "edge:0.0>0"),
            &interner,
            &CancelToken::never(),
        );
        assert_eq!(out.verdict, VerdictKind::Error);
        assert!(
            out.detail.contains("edit rejected on task 0"),
            "{}",
            out.detail
        );
        assert_eq!(interner.stats().delta_hits, 0, "failed edits are not hits");
    }

    #[test]
    fn a_wcet_sum_past_u64_is_an_error_on_the_first_attempt() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let refused = |out: &ServiceOutcome| {
            assert_eq!(out.verdict, VerdictKind::Error, "detail: {}", out.detail);
            assert_eq!(out.attempts, 1);
            assert!(!out.events.contains(&ServiceEvent::WorkerPanicked));
            assert!(out.detail.contains("volume overflow"), "{}", out.detail);
        };
        // True utilisation 2.5 on m = 2; the wrapped sum read 0.5.
        let branches: String = (0..5)
            .map(|i| format!("node b{i} 4611686018427387904\nedge s b{i}\nedge b{i} t\n"))
            .collect();
        let set = format!("task period=9223372036854775808\nnode s 1\nnode t 1\n{branches}end\n");
        let req = Request {
            body: RequestBody::Source(set),
            ..request(1, 2)
        };
        refused(&sup.execute(0, &req, &interner, &CancelToken::never()));
        // The same sum reached by retiming a resident set.
        let base = sup.execute(1, &request(2, 2), &interner, &CancelToken::never());
        let script = "wcet:0.0=18446744073709551615;wcet:0.1=18446744073709551615";
        let edit = edit_request(3, 2, base.hash.expect("base interned"), script);
        refused(&sup.execute(2, &edit, &interner, &CancelToken::never()));
    }

    #[test]
    fn an_edit_naming_a_node_past_u32_is_an_error_on_the_first_attempt() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1));
        let base = sup.execute(0, &request(1, 2), &interner, &CancelToken::never());
        let edit = edit_request(
            2,
            2,
            base.hash.expect("base interned"),
            "wcet:0.4294967296=5",
        );
        let out = sup.execute(1, &edit, &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Error, "detail: {}", out.detail);
        assert_eq!(out.attempts, 1);
        assert!(!out.events.contains(&ServiceEvent::WorkerPanicked));
        assert!(out.detail.contains("invalid index"), "{}", out.detail);
    }

    #[test]
    fn slow_faults_delay_but_answer() {
        let interner = Interner::new(8);
        let sup = retrying(ServiceFaultPlan::seeded(1).slow_prob(1.0, Duration::from_millis(10)));
        let t0 = std::time::Instant::now();
        let out = sup.execute(0, &request(1, 4), &interner, &CancelToken::never());
        assert_eq!(out.verdict, VerdictKind::Admit);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(out.events.contains(&ServiceEvent::SlowRequest));
    }

    /// Targeted rules fire in their window and on their attempt only.
    #[test]
    fn rules_fire_in_their_window_and_attempt() {
        let slow = Duration::from_millis(2);
        let plan = ServiceFaultPlan::seeded(3)
            .panic_on(5)
            .panic_always(2)
            .poison_on(1)
            .slow_storm(10, 20, slow);
        let f = |request, attempt| plan.faults(request, attempt);
        assert!(f(5, 0).panic_worker && !f(5, 1).panic_worker && !f(4, 0).panic_worker);
        assert!((0..8).all(|attempt| f(2, attempt).panic_worker));
        assert!(f(1, 0).poison_cache && !f(1, 1).poison_cache);
        // The storm window is half-open and attempt-independent.
        let slowed = (f(10, 0).slow_request, f(19, 3).slow_request);
        assert_eq!(slowed, (Some(slow), Some(slow)));
        assert_eq!((f(9, 0).slow_request, f(20, 0).slow_request), (None, None));
    }

    /// Every decision of one plan that uses all seven builders, over
    /// seeds 0–7, requests 0–1 023 and attempts 0–3, folded into one
    /// FNV-1a digest: `(panic, poison)` as two bytes, then the slowdown
    /// in nanoseconds (`u64::MAX` for none), little-endian. The digest
    /// and counts were computed when these rules lived in `rtpool-exec`'s
    /// `FaultPlan`; a change that moves one decision fails here.
    #[test]
    fn fault_decisions_match_the_pinned_digest() {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut fired = [0usize; 3];
        for seed in 0..8 {
            let plan = ServiceFaultPlan::seeded(seed)
                .panic_prob(0.15)
                .poison_prob(0.1)
                .slow_prob(0.15, Duration::from_micros(700))
                .panic_on(5)
                .panic_always(9)
                .poison_on(3)
                .slow_storm(100, 200, Duration::from_millis(2));
            for request in 0..1024 {
                for attempt in 0..4 {
                    let f = plan.faults(request, attempt);
                    fired[0] += usize::from(f.panic_worker);
                    fired[1] += usize::from(f.poison_cache);
                    fired[2] += usize::from(f.slow_request.is_some());
                    feed(&[u8::from(f.panic_worker), u8::from(f.poison_cache)]);
                    let slow = f.slow_request.map_or(u64::MAX, |d| d.as_nanos() as u64);
                    feed(&slow.to_le_bytes());
                }
            }
        }
        assert_eq!(fired, [1252, 794, 7703]);
        assert_eq!(digest, 0xfcca_7b69_49cf_576f);
    }
}
