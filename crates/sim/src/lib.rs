//! # rtpool-sim
//!
//! Deterministic discrete-event simulation of the DAC 2019 execution
//! model: `n` parallel DAG tasks, each served by a dedicated pool of `m`
//! threads on `m` identical cores, with fixed-priority preemptive thread
//! scheduling (global or partitioned), FIFO work-conserving intra-pool
//! dispatch, and *blocking* fork/join semantics — completing a `BF` node
//! suspends its thread until the paired `BJ` node's predecessors finish,
//! exactly like a condition-variable barrier.
//!
//! The simulator is the empirical oracle of the workspace: it measures
//! response times (to validate the analytic bounds of `rtpool-core`),
//! records the available-concurrency profile `l(t, τᵢ)` (to validate the
//! `l̄(τᵢ)` lower bound), and detects *stalls* — reachable states where a
//! job can never progress because every serving thread is suspended or
//! every pending node sits behind a suspended thread (the deadlocks of
//! Section 3).
//!
//! ## Example: the Figure 1(c) deadlock, reproduced deterministically
//!
//! ```
//! use rtpool_core::{Task, TaskSet};
//! use rtpool_graph::DagBuilder;
//! use rtpool_sim::{SchedulingPolicy, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two replicas of a blocking fork-join, served by a 2-thread pool.
//! let mut b = DagBuilder::new();
//! let src = b.add_node(1);
//! let snk = b.add_node(1);
//! for _ in 0..2 {
//!     let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true)?;
//!     b.add_edge(src, f)?;
//!     b.add_edge(j, snk)?;
//! }
//! let set = TaskSet::new(vec![Task::with_implicit_deadline(b.build()?, 10_000)?]);
//!
//! let stalled = SimConfig::single_job(SchedulingPolicy::Global, 2).run(&set)?;
//! assert!(stalled.task(0).stall.is_some(), "both threads suspend: deadlock");
//!
//! let fine = SimConfig::single_job(SchedulingPolicy::Global, 3).run(&set)?;
//! assert!(fine.task(0).stall.is_none());
//! assert_eq!(fine.task(0).completed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod outcome;

pub use config::{ExecutionTime, ReleasePattern, SchedulingPolicy, SimConfig};
pub use engine::{SimError, MAX_SIMULATED_CORES};
pub use outcome::{SimOutcome, StallInfo, TaskOutcome};
