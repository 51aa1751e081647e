//! # rtpool-graph
//!
//! Typed directed-acyclic-graph (DAG) substrate for modeling parallel
//! real-time tasks executed by *thread pools*, following the task model of
//! Casini, Biondi, and Buttazzo, *"Analyzing Parallel Real-Time Tasks
//! Implemented with Thread Pools"*, DAC 2019.
//!
//! A task is a DAG whose nodes are sequential computations with a
//! worst-case execution time (WCET) and a [`NodeKind`]:
//!
//! * [`NodeKind::NonBlocking`] (`NB`) — ordinary node; precedence realized
//!   without suspending the serving thread.
//! * [`NodeKind::BlockingFork`] (`BF`) — executes, spawns children, then
//!   *suspends its thread* on a synchronization barrier (e.g., a condition
//!   variable) until the children complete.
//! * [`NodeKind::BlockingJoin`] (`BJ`) — the continuation executed by the
//!   same thread when the paired `BF` node is resumed.
//! * [`NodeKind::BlockingChild`] (`BC`) — a node inside a `BF`/`BJ`
//!   delimited sub-graph.
//!
//! The crate provides construction ([`DagBuilder`]), validation of the
//! structural restrictions imposed by the paper's Section 2
//! ([`Dag::validate_model`]), transitive reachability ([`Reachability`]),
//! the critical path and volume, blocking-region bookkeeping
//! ([`Region`]), maximum-antichain computation ([`max_antichain_of`]), and DOT
//! export for visualization.
//!
//! ## Example
//!
//! Build the fork–join task of the paper's Figure 1(a): `v1` forks
//! `v2, v3, v4` and blocks until they complete, then `v5` runs.
//!
//! ```
//! use rtpool_graph::{DagBuilder, NodeKind};
//!
//! # fn main() -> Result<(), rtpool_graph::GraphError> {
//! let mut b = DagBuilder::new();
//! let v1 = b.add_node(10);
//! let v2 = b.add_node(20);
//! let v3 = b.add_node(20);
//! let v4 = b.add_node(20);
//! let v5 = b.add_node(10);
//! for c in [v2, v3, v4] {
//!     b.add_edge(v1, c)?;
//!     b.add_edge(c, v5)?;
//! }
//! b.blocking_pair(v1, v5)?;
//! let dag = b.build()?;
//! assert_eq!(dag.kind(v1), NodeKind::BlockingFork);
//! assert_eq!(dag.kind(v2), NodeKind::BlockingChild);
//! assert_eq!(dag.kind(v5), NodeKind::BlockingJoin);
//! assert_eq!(dag.volume(), 80);
//! assert_eq!(dag.critical_path_length(), 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod antichain;
mod backend;
mod bitset;
mod builder;
mod cache;
mod csr;
mod dag;
mod dot;
mod edit;
mod error;
mod hash;
mod node;
mod paths;
mod reach;
mod regions;
mod topo;
mod validate;

pub use antichain::{max_antichain_of, MinChainCover};
pub use backend::SyncBackend;
pub use bitset::BitRow;
pub use builder::DagBuilder;
pub use cache::DelayProfile;
pub use dag::Dag;
pub use edit::{DagDelta, DagEdit, EditOp};
pub use error::GraphError;
pub use hash::WordHash;
pub use node::{NodeId, NodeKind};
pub use reach::Reachability;
pub use regions::Region;
pub use topo::TopologicalOrder;
