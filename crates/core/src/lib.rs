//! # rtpool-core
//!
//! Deadlock and schedulability analysis of parallel real-time tasks
//! implemented with *thread pools* and blocking synchronization
//! (condition variables), reproducing Casini, Biondi, Buttazzo,
//! *"Analyzing Parallel Real-Time Tasks Implemented with Thread Pools"*,
//! DAC 2019.
//!
//! The crate implements, on top of the [`rtpool_graph`] DAG substrate:
//!
//! * the task model `τᵢ = {Gᵢ, Dᵢ, Tᵢ, Φᵢ, πᵢ}` ([`Task`], [`TaskSet`]);
//! * the bound `l̄(τᵢ) = m − b̄(τᵢ)` of Section 3.1 over the delay sets
//!   `X(v)` the graph memoizes, and the deadlock conditions of
//!   Lemmas 1–3 ([`deadlock`]);
//! * **Algorithm 1**, the reduced-concurrency-delay-free node-to-thread
//!   partitioning, plus the worst-fit baseline ([`partition`]);
//! * global fixed-priority response-time analysis — both the
//!   state-of-the-art baseline (Melani et al., *IEEE TC* 2017) and the
//!   paper's limited-concurrency adaptation (Lemma 4) —
//!   ([`analysis::global`]);
//! * partitioned fixed-priority response-time analysis in the style of
//!   Fonseca et al. (SIES 2016) with self-suspension-aware per-core
//!   interference ([`analysis::partitioned`]).
//!
//! ## Quick start
//!
//! Check a two-replica blocking fork–join (the paper's Figure 1(c)
//! deadlock scenario) for deadlock freedom:
//!
//! ```
//! use rtpool_core::deadlock::{self, GlobalVerdict};
//! use rtpool_graph::DagBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let src = b.add_node(1);
//! let snk = b.add_node(1);
//! for _ in 0..2 {
//!     let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true)?;
//!     b.add_edge(src, f)?;
//!     b.add_edge(j, snk)?;
//! }
//! let dag = b.build()?;
//! // Two BF nodes can suspend simultaneously: 2 threads deadlock...
//! assert!(matches!(
//!     deadlock::check_global(&dag, 2),
//!     GlobalVerdict::DeadlockPossible { .. }
//! ));
//! // ...3 threads are safe.
//! assert!(matches!(
//!     deadlock::check_global(&dag, 3),
//!     GlobalVerdict::DeadlockFree { .. }
//! ));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cancel;
pub mod deadlock;
mod error;
pub mod partition;
pub mod sizing;
mod task;
pub mod textfmt;

pub use cancel::{CancelToken, Cancelled};
pub use error::CoreError;
pub use rtpool_graph::SyncBackend;
pub use task::{Task, TaskId, TaskSet};
pub use textfmt::{SourceSpans, Span, TaskSpans};
