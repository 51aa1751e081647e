//! Thread-pool configuration.

use std::time::Duration;

use rtpool_core::partition::NodeMapping;
use rtpool_core::SyncBackend;

use crate::fault::FaultPlan;
use crate::recovery::RecoveryPolicy;

/// How ready nodes are queued and fetched by workers.
#[derive(Clone, Debug)]
pub enum QueueDiscipline {
    /// One shared FIFO queue for the whole pool (the paper's global
    /// intra-pool scheduling). Idle workers take the oldest ready node.
    GlobalFifo,
    /// One FIFO queue per worker, fed by a node-to-thread mapping (the
    /// paper's partitioned intra-pool scheduling). The mapping must cover
    /// the graphs submitted to the pool and its pool size must equal the
    /// worker count.
    Partitioned(NodeMapping),
    /// Eigen-style randomized work stealing: a worker pushes the nodes it
    /// spawns onto its own deque (LIFO pop), and steals the oldest entry
    /// from a pseudo-randomly chosen victim when its own deque is empty.
    /// Deterministically seeded so runs are reproducible.
    WorkStealing {
        /// Seed of the per-pool steal-order generator.
        seed: u64,
    },
}

/// Which dispatch engine a [`ThreadPool`](crate::ThreadPool) runs on.
///
/// Both engines implement the same execution model — identical queue
/// disciplines, Listing-1 blocking-join semantics, exact stall
/// detection, fault injection, and recovery — and are asserted
/// equivalent by the differential trace suite. They differ only in how
/// dispatch is synchronized, so the paper's `l(t)` / `b̄` accounting is
/// engine-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The v1 engine: every dispatch, completion, and wakeup goes
    /// through one pool mutex with a broadcast condvar (the seed
    /// behavior, and the default).
    #[default]
    V1Condvar,
    /// The v2 engine: lock-free injector/stealer queues
    /// (Chase-Lev deques + an MPMC injector) with atomic
    /// sequence-count parking; a condvar is used only for the
    /// Listing-1 blocking-join suspensions the paper's model requires.
    V2LockFree,
}

impl Engine {
    /// Stable lower-case name (CLI / benchmark labels).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::V1Condvar => "v1-condvar",
            Engine::V2LockFree => "v2-lockfree",
        }
    }
}

/// Configuration of a [`ThreadPool`](crate::ThreadPool).
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (the paper's `m`).
    pub workers: usize,
    /// Queue discipline.
    pub discipline: QueueDiscipline,
    /// Dispatch engine (default: [`Engine::V1Condvar`]).
    pub engine: Engine,
    /// Wall-clock duration of one WCET unit; node bodies sleep for
    /// `wcet × time_scale`. `Duration::ZERO` runs bodies instantaneously
    /// (useful in tests — synchronization behavior is unaffected).
    pub time_scale: Duration,
    /// Safety-net watchdog: if a job makes no progress for this long the
    /// run is aborted even if the exact stall detector did not trigger
    /// (it always should; the watchdog guards against runtime bugs).
    pub watchdog: Duration,
    /// What the pool does when a job stalls or a node body panics
    /// (default: [`RecoveryPolicy::Abort`], the seed behavior).
    pub recovery: RecoveryPolicy,
    /// Fault-injection plan, for chaos testing. `None` (the default)
    /// injects nothing.
    pub faults: Option<FaultPlan>,
    /// How a worker that reaches a blocking fork waits for the barrier
    /// (default: [`SyncBackend::Suspend`], the Listing-1
    /// condition-variable wait). Under [`SyncBackend::Spin`] the worker
    /// busy-waits instead: it never parks, stays hot on its core, and is
    /// traced with `SpinStart`/`SpinEnd` events. Injected *fault*
    /// suspensions are unaffected — they model external preemption and
    /// always suspend.
    pub backend: SyncBackend,
    /// Record a full event trace of each job in the shared
    /// `rtpool-trace` schema (node lifecycles, barrier suspensions, core
    /// occupancy, recovery actions). The trace of a successful job is
    /// returned in [`JobReport::trace`](crate::JobReport::trace); the
    /// trace of a failed attempt is kept in
    /// [`ThreadPool::take_last_trace`](crate::ThreadPool::take_last_trace).
    pub record_trace: bool,
}

impl PoolConfig {
    /// A configuration with the given worker count and discipline,
    /// `time_scale` of 200 µs per WCET unit, a 5 s watchdog, the
    /// [`RecoveryPolicy::Abort`] policy, and no fault injection.
    #[must_use]
    pub fn new(workers: usize, discipline: QueueDiscipline) -> Self {
        PoolConfig {
            workers,
            discipline,
            engine: Engine::default(),
            time_scale: Duration::from_micros(200),
            watchdog: Duration::from_secs(5),
            recovery: RecoveryPolicy::default(),
            faults: None,
            backend: SyncBackend::Suspend,
            record_trace: false,
        }
    }

    /// Selects the barrier-wait backend.
    ///
    /// ```
    /// use rtpool_exec::{PoolConfig, QueueDiscipline, SyncBackend};
    ///
    /// let config = PoolConfig::new(4, QueueDiscipline::GlobalFifo)
    ///     .with_backend(SyncBackend::Spin);
    /// assert_eq!(config.backend, SyncBackend::Spin);
    /// ```
    #[must_use]
    pub fn with_backend(mut self, backend: SyncBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables event-trace recording in the shared `rtpool-trace`
    /// schema.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Selects the dispatch engine.
    ///
    /// ```
    /// use rtpool_exec::{Engine, PoolConfig, QueueDiscipline};
    ///
    /// let config = PoolConfig::new(4, QueueDiscipline::GlobalFifo)
    ///     .with_engine(Engine::V2LockFree);
    /// assert_eq!(config.engine, Engine::V2LockFree);
    /// ```
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the per-WCET-unit duration.
    #[must_use]
    pub fn with_time_scale(mut self, time_scale: Duration) -> Self {
        self.time_scale = time_scale;
        self
    }

    /// Overrides the watchdog timeout.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the recovery policy.
    ///
    /// ```
    /// use rtpool_exec::{PoolConfig, QueueDiscipline, RecoveryPolicy};
    ///
    /// let config = PoolConfig::new(2, QueueDiscipline::GlobalFifo)
    ///     .with_recovery(RecoveryPolicy::GrowPool { reserve: 2 });
    /// assert_eq!(config.recovery.growth_reserve(), 2);
    /// ```
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Checks that this configuration can run at least one job: a
    /// non-empty pool, and — under [`QueueDiscipline::Partitioned`] — a
    /// mapping whose pool size equals the worker count.
    ///
    /// [`ThreadPool::try_new`](crate::ThreadPool::try_new) applies this
    /// check before spawning workers; diagnostic tooling (`rtlint`'s
    /// `lint_config`) applies it without constructing a pool.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`](crate::ExecError::InvalidConfig)
    /// describing the first problem found.
    pub fn validate(&self) -> Result<(), crate::ExecError> {
        if self.workers == 0 {
            return Err(crate::ExecError::InvalidConfig {
                message: "pool needs at least one worker".into(),
            });
        }
        if let QueueDiscipline::Partitioned(mapping) = &self.discipline {
            if mapping.pool_size() != self.workers {
                return Err(crate::ExecError::InvalidConfig {
                    message: format!(
                        "partitioned mapping pool size {} must equal the worker count {}",
                        mapping.pool_size(),
                        self.workers
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = PoolConfig::new(4, QueueDiscipline::GlobalFifo)
            .with_time_scale(Duration::from_millis(1))
            .with_watchdog(Duration::from_secs(1));
        assert_eq!(c.workers, 4);
        assert_eq!(c.time_scale, Duration::from_millis(1));
        assert_eq!(c.watchdog, Duration::from_secs(1));
        assert!(matches!(c.discipline, QueueDiscipline::GlobalFifo));
        assert_eq!(c.recovery, RecoveryPolicy::Abort);
        assert!(c.faults.is_none());
        assert!(!c.record_trace);
        assert_eq!(c.backend, SyncBackend::Suspend);
        assert_eq!(
            c.clone().with_backend(SyncBackend::Spin).backend,
            SyncBackend::Spin
        );
        assert_eq!(c.engine, Engine::V1Condvar);
        assert_eq!(
            c.clone().with_engine(Engine::V2LockFree).engine,
            Engine::V2LockFree
        );
        assert_eq!(Engine::V1Condvar.as_str(), "v1-condvar");
        assert_eq!(Engine::V2LockFree.as_str(), "v2-lockfree");
        assert!(c.with_trace().record_trace);
    }

    #[test]
    fn validate_rejects_unusable_configs() {
        assert!(PoolConfig::new(1, QueueDiscipline::GlobalFifo)
            .validate()
            .is_ok());
        assert!(matches!(
            PoolConfig::new(0, QueueDiscipline::GlobalFifo).validate(),
            Err(crate::ExecError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn recovery_and_fault_builders() {
        let c = PoolConfig::new(2, QueueDiscipline::GlobalFifo)
            .with_recovery(RecoveryPolicy::RetryWithBackoff {
                max_retries: 2,
                base_delay: Duration::from_millis(5),
            })
            .with_faults(FaultPlan::seeded(9).panic_on(1));
        assert_eq!(c.recovery.max_retries(), 2);
        // The installed plan is the one built: node 1's body panics on
        // every attempt, and nothing else fires.
        let plan = c.faults.as_ref().unwrap();
        for attempt in 0..3 {
            assert!(plan.before_body(attempt, 1).panic_body);
            assert!(!plan.before_body(attempt, 0).panic_body);
            assert_eq!(plan.after_body(attempt, 1), Default::default());
        }
    }
}
