//! Simulation configuration.

use rtpool_core::partition::NodeMapping;
use rtpool_core::TaskSet;

use crate::engine::{Engine, SimError};
use crate::outcome::SimOutcome;

/// Scheduling policy, applied at both levels as the paper assumes
/// ("whenever global or partitioned scheduling is adopted for scheduling
/// threads, the same policy is also adopted for intra-pool scheduling").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Threads migrate freely: the `m` highest-priority ready threads run;
    /// each pool has one shared FIFO work-queue.
    Global,
    /// Thread `j` of every pool is pinned to core `j`; each thread has its
    /// own FIFO work-queue fed by a node-to-thread mapping.
    Partitioned,
}

/// When jobs of each task are released.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReleasePattern {
    /// One job per task, released synchronously at time 0 — the
    /// configuration used to validate structural properties.
    SingleJob,
    /// Strictly periodic synchronous releases at `0, Tᵢ, 2Tᵢ, …` below
    /// the horizon.
    Periodic,
    /// Sporadic releases: each inter-arrival time is `Tᵢ` plus a
    /// deterministic pseudo-random delay of up to `max_delay_permille‰`
    /// of `Tᵢ` (derived from `seed`, so runs are reproducible).
    Sporadic {
        /// Seed for the inter-arrival stream.
        seed: u64,
        /// Maximum extra delay in thousandths of the period.
        max_delay_permille: u32,
    },
    /// Explicit release times per task (must be sorted ascending).
    Explicit(Vec<Vec<u64>>),
}

/// How long a node actually executes relative to its WCET. The analyses
/// bound the worst case; these knobs explore sustainability (note that
/// work-conserving FIFO dispatch is a list scheduler, so *shorter*
/// executions can occasionally *lengthen* a schedule — Graham's timing
/// anomalies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionTime {
    /// Every node runs for exactly its WCET (the default; all safety
    /// properties in the test suite use this mode).
    Wcet,
    /// Every node runs for `permille‰` of its WCET (rounded up; zero-WCET
    /// nodes stay instantaneous).
    Scaled {
        /// Thousandths of the WCET (e.g. `500` = half).
        permille: u32,
    },
    /// Each node instance runs for a deterministic pseudo-random fraction
    /// of its WCET in `[min_permille, 1000]`, derived from `seed` and the
    /// node instance.
    Random {
        /// Seed for the per-instance stream.
        seed: u64,
        /// Lower bound of the fraction, in thousandths.
        min_permille: u32,
    },
}

/// Configuration of one simulation run.
///
/// Construct with [`SimConfig::single_job`] or [`SimConfig::periodic`],
/// add mappings with [`SimConfig::with_mappings`] when the policy is
/// [`SchedulingPolicy::Partitioned`], then call [`SimConfig::run`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Scheduling policy for threads and intra-pool dispatch.
    pub policy: SchedulingPolicy,
    /// Number of cores, and threads per pool.
    pub m: usize,
    /// Simulation horizon (events past it are not processed).
    pub horizon: u64,
    /// Release pattern.
    pub releases: ReleasePattern,
    /// Node-to-thread mappings, one per task (partitioned policy only).
    pub mappings: Option<Vec<NodeMapping>>,
    /// Actual execution time of node instances (default: full WCET).
    pub execution_time: ExecutionTime,
    /// Record the full event trace in the shared `rtpool-trace` schema
    /// (job/node lifecycles, barrier suspensions, core occupancy); see
    /// [`SimOutcome::event_trace`](crate::SimOutcome::event_trace).
    pub record_event_trace: bool,
}

impl SimConfig {
    /// One synchronous job per task on `m` cores; the horizon is sized
    /// generously by the engine (sum of volumes).
    #[must_use]
    pub fn single_job(policy: SchedulingPolicy, m: usize) -> Self {
        SimConfig {
            policy,
            m,
            horizon: u64::MAX,
            releases: ReleasePattern::SingleJob,
            mappings: None,
            execution_time: ExecutionTime::Wcet,
            record_event_trace: false,
        }
    }

    /// Synchronous periodic releases up to `horizon`.
    #[must_use]
    pub fn periodic(policy: SchedulingPolicy, m: usize, horizon: u64) -> Self {
        SimConfig {
            policy,
            m,
            horizon,
            releases: ReleasePattern::Periodic,
            mappings: None,
            execution_time: ExecutionTime::Wcet,
            record_event_trace: false,
        }
    }

    /// Sets the per-task node-to-thread mappings (required for
    /// [`SchedulingPolicy::Partitioned`]).
    #[must_use]
    pub fn with_mappings(mut self, mappings: Vec<NodeMapping>) -> Self {
        self.mappings = Some(mappings);
        self
    }

    /// Sets how long node instances actually execute.
    #[must_use]
    pub fn with_execution_time(mut self, execution_time: ExecutionTime) -> Self {
        self.execution_time = execution_time;
        self
    }

    /// Enables recording of the full event trace in the shared
    /// `rtpool-trace` schema.
    #[must_use]
    pub fn with_event_trace(mut self) -> Self {
        self.record_event_trace = true;
        self
    }

    /// Runs the simulation on `set`.
    ///
    /// # Errors
    ///
    /// [`SimError`] when the configuration is inconsistent with the task
    /// set (missing/mismatched mappings, zero cores or more than
    /// [`MAX_SIMULATED_CORES`](crate::MAX_SIMULATED_CORES), unsorted
    /// explicit releases).
    pub fn run(&self, set: &TaskSet) -> Result<SimOutcome, SimError> {
        Engine::new(self, set)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let c = SimConfig::single_job(SchedulingPolicy::Global, 4);
        assert_eq!(c.m, 4);
        assert_eq!(c.releases, ReleasePattern::SingleJob);
        assert!(c.mappings.is_none());
        let c = SimConfig::periodic(SchedulingPolicy::Partitioned, 2, 1000).with_event_trace();
        assert_eq!(c.horizon, 1000);
        assert!(c.record_event_trace);
    }
}
