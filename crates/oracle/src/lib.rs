//! # rtpool-oracle
//!
//! Reference models for the agreement tests, written from the
//! definitions of Casini, Biondi and Buttazzo, *"Analyzing Parallel
//! Real-Time Tasks Implemented with Thread Pools"* (DAC 2019), and not
//! from any optimised code.
//!
//! The crate depends on nothing and shares no type with the workspace:
//! nodes are `usize` indices, adjacency is one `Vec` per node, a closure
//! is `Vec<Vec<bool>>`. It is only ever a `[dev-dependencies]` entry, so
//! no library reaches it and no release build compiles it. A test builds
//! the same input both ways and compares through the library's public
//! API.
//!
//! * [`graph`]: the task graph of Section 2 (a DAG with a unique source
//!   and sink, blocking pairs under restrictions (i)–(iii), no nesting,
//!   no overlap) and Section 3.1's `X(v)` and `b̄`;
//! * [`shapes`]: seeded graph shapes and the mutations that break them;
//! * [`interference`]: the carry-in workload bound and the response-time
//!   fix-point over it, in `u128`;
//! * [`partition`]: Section 4.2's worst-fit baseline, Algorithm 1, the
//!   FIFO charge and the inflated longest path, in `u128`.
//!
//! A faster implementation adds cases to these models' agreement tests;
//! it does not freeze its parent as a second reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod interference;
pub mod partition;
pub mod shapes;
