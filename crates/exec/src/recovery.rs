//! Recovery policies: what the pool does when a job goes wrong.
//!
//! The paper's Section 3 shows that blocking synchronization can eat the
//! pool's available concurrency `l(t, τᵢ)` until no worker can serve the
//! nodes the suspended workers wait for — a deadlock. The seed runtime
//! *detected* that state exactly and aborted. A [`RecoveryPolicy`] decides
//! what happens instead:
//!
//! * [`Abort`](RecoveryPolicy::Abort) — report the failure
//!   ([`ExecError::Stalled`](crate::ExecError::Stalled) /
//!   [`ExecError::NodePanicked`](crate::ExecError::NodePanicked)) and keep
//!   the pool usable for the next job. This is the seed behavior.
//! * [`RetryWithBackoff`](RecoveryPolicy::RetryWithBackoff) — abort the
//!   attempt, wait an exponentially growing delay, and re-run the whole
//!   job. Useful against transient faults (a panicking body, an injected
//!   or environmental suspension) that do not recur deterministically.
//! * [`GrowPool`](RecoveryPolicy::GrowPool) — when the exact stall
//!   detector fires, spawn reserve workers instead of aborting, restoring
//!   available concurrency toward the paper's lower bound
//!   `l̄(τᵢ) = m − b̄(τᵢ) ≥ 1` and letting the job complete (graceful
//!   degradation). Size the reserve with
//!   [`sizing::reserve_for`](../../rtpool_core/sizing/fn.reserve_for.html)
//!   from `rtpool-core`, which derives it from the maximum number of
//!   simultaneously blocked workers.
//!
//! Whatever the policy does is recorded in
//! [`JobReport::recovery_events`](crate::JobReport::recovery_events), so
//! callers (and the chaos suite) can audit every fault and every recovery
//! action after the fact.

use std::time::Duration;

/// What the pool does when a job stalls or a node body panics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort the job, report the error, keep the pool usable (seed
    /// behavior).
    #[default]
    Abort,
    /// Re-run an aborted job with exponential backoff: attempt `k`
    /// (0-based) waits `base_delay × 2ᵏ` before re-submitting, up to
    /// `max_retries` retries after the initial attempt.
    RetryWithBackoff {
        /// Retries after the initial attempt (0 behaves like `Abort`).
        max_retries: usize,
        /// Backoff delay before the first retry.
        base_delay: Duration,
    },
    /// On a detected stall, spawn up to `reserve` additional workers over
    /// the job's lifetime instead of aborting; abort only once the
    /// reserve is exhausted and the stall persists.
    GrowPool {
        /// Maximum extra workers to spawn per job attempt.
        reserve: usize,
    },
}

impl RecoveryPolicy {
    /// Retry budget of the policy (0 unless `RetryWithBackoff`).
    #[must_use]
    pub fn max_retries(&self) -> usize {
        match self {
            RecoveryPolicy::RetryWithBackoff { max_retries, .. } => *max_retries,
            _ => 0,
        }
    }

    /// Backoff delay before retry attempt `attempt` (0-based): `base ×
    /// 2^attempt`, saturating.
    #[must_use]
    pub fn backoff_delay(&self, attempt: usize) -> Duration {
        match self {
            RecoveryPolicy::RetryWithBackoff { base_delay, .. } => {
                let factor = 1u32.checked_shl(attempt as u32).unwrap_or(u32::MAX);
                base_delay.saturating_mul(factor)
            }
            _ => Duration::ZERO,
        }
    }

    /// Extra-worker budget of the policy (0 unless `GrowPool`).
    #[must_use]
    pub fn growth_reserve(&self) -> usize {
        match self {
            RecoveryPolicy::GrowPool { reserve } => *reserve,
            _ => 0,
        }
    }
}

/// Why an attempt was aborted and retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryCause {
    /// The exact stall detector fired.
    Stalled,
    /// A node body panicked (the node index is recorded).
    NodePanicked(usize),
    /// The watchdog aborted a silently non-progressing attempt.
    WatchdogTimeout,
}

/// One fault-handling action, recorded in
/// [`JobReport::recovery_events`](crate::JobReport::recovery_events) in
/// the order it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A planned fault fired.
    FaultInjected {
        /// Retry attempt the fault fired on (0 = first execution).
        attempt: usize,
        /// Node being served when the fault fired.
        node: usize,
        /// Stable name of the fault kind (see [`FaultKind::name`](crate::FaultKind::name)).
        fault: &'static str,
    },
    /// An attempt was aborted and the job re-submitted after `delay`.
    Retried {
        /// The aborted attempt (0-based).
        attempt: usize,
        /// Why the attempt was aborted.
        cause: RetryCause,
        /// Backoff slept before re-submitting.
        delay: Duration,
    },
    /// The stall detector fired and the pool grew instead of aborting.
    PoolGrown {
        /// Attempt during which the pool grew.
        attempt: usize,
        /// Workers added by this growth event.
        added: usize,
        /// Workers serving the job after growth.
        total_workers: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_abort() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Abort);
        assert_eq!(RecoveryPolicy::Abort.max_retries(), 0);
        assert_eq!(RecoveryPolicy::Abort.growth_reserve(), 0);
    }

    #[test]
    fn backoff_doubles() {
        let p = RecoveryPolicy::RetryWithBackoff {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(p.max_retries(), 3);
        // Saturates instead of overflowing for absurd attempts.
        assert!(p.backoff_delay(200) >= p.backoff_delay(2));
    }

    #[test]
    fn grow_pool_reserve() {
        let p = RecoveryPolicy::GrowPool { reserve: 4 };
        assert_eq!(p.growth_reserve(), 4);
        assert_eq!(p.backoff_delay(1), Duration::ZERO);
    }

    #[test]
    fn fault_event_records_name() {
        let e = RecoveryEvent::FaultInjected {
            attempt: 1,
            node: 5,
            fault: crate::fault::FaultKind::SwallowWakeup.name(),
        };
        assert!(matches!(
            e,
            RecoveryEvent::FaultInjected {
                fault: "swallow_wakeup",
                ..
            }
        ));
    }
}
