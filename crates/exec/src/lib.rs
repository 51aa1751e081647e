//! # rtpool-exec
//!
//! A *real* thread pool executing parallel DAG jobs on native OS threads,
//! faithfully implementing the execution model the paper studies:
//!
//! * a pool of worker threads serves the nodes of a task graph;
//! * precedence constraints of blocking regions are realized with
//!   **condition-variable barriers** (Listing 1 of the paper): a worker
//!   that completes a `BF` node spawns the children and then *sleeps on a
//!   condvar* until they finish, upon which the same worker runs the `BJ`
//!   continuation;
//! * three queue disciplines: a single shared FIFO queue (global
//!   scheduling), per-worker FIFO queues driven by a node-to-thread
//!   mapping (partitioned scheduling), and Eigen-style randomized work
//!   stealing (local LIFO + steal-from-random-victim FIFO);
//! * exact stall detection: the pool detects — without timeouts — the
//!   states in which no worker executes, no join is about to wake, and no
//!   queued node is reachable by a non-suspended worker; that is
//!   precisely the deadlock of Section 3;
//! * **fault injection & graceful degradation**: a deterministic, seedable
//!   [`FaultPlan`] injects node-body panics, artificial worker
//!   suspensions, lost/delayed wakeups, and WCET jitter at named points of
//!   the worker loop; panicking bodies are isolated with `catch_unwind`
//!   ([`ExecError::NodePanicked`], pool stays usable); a
//!   [`RecoveryPolicy`] decides whether a failed job aborts, retries with
//!   exponential backoff, or resolves an exact-detected stall by growing
//!   the pool with reserve workers (restoring the available concurrency
//!   `l̄(τᵢ) = m − b̄(τᵢ)` of Section 4). Recovery actions are recorded in
//!   [`JobReport::recovery_events`];
//! * **two dispatch engines** behind one API: the default
//!   [`Engine::V1Condvar`] serializes every dispatch under one pool mutex
//!   with a broadcast condvar; [`Engine::V2LockFree`] dispatches through
//!   lock-free Chase-Lev deques and an MPMC injector with atomic
//!   sequence-count parking, keeping a condvar only for the Listing-1
//!   blocking-join suspensions the paper's model requires (select with
//!   [`PoolConfig::with_engine`]). An engine owns only its queues and
//!   its wakes: the job lifecycle around them (supervisor loop, barrier
//!   wait, stall decision, fault bookkeeping, panic isolation, tracing)
//!   is one private module both call.
//!
//! This crate is the demonstration substrate for the paper's Figure 1:
//! the suspension-induced slowdown (inset b) and the two-replica deadlock
//! (inset c) both reproduce deterministically on real condvars; see the
//! crate tests and `examples/deadlock_demo.rs` at the workspace root.
//!
//! ## Example
//!
//! ```
//! use rtpool_exec::{PoolConfig, QueueDiscipline, ThreadPool};
//! use rtpool_graph::DagBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! b.fork_join(1, &[2, 2, 2], 1, true)?;
//! let dag = b.build()?;
//! let mut pool = ThreadPool::new(PoolConfig::new(3, QueueDiscipline::GlobalFifo));
//! let report = pool.run(&dag)?;
//! assert_eq!(report.executed_nodes, 5);
//! assert!(report.min_available_workers < 3, "the fork suspended a worker");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certified;
mod config;
mod engine_v2;
mod error;
mod fault;
mod lifecycle;
mod pool;
mod recovery;
mod report;

pub use certified::{CertifiedConfig, DeadlockFree, StaticNode, StaticTask};
pub use config::{Engine, PoolConfig, QueueDiscipline};
pub use error::ExecError;
pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use pool::ThreadPool;
pub use recovery::{RecoveryEvent, RecoveryPolicy, RetryCause};
pub use report::{JobReport, NodeSpan};
pub use rtpool_core::SyncBackend;
