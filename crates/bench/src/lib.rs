//! # rtpool-bench
//!
//! Experiment harness reproducing the evaluation of Casini, Biondi,
//! Buttazzo (DAC 2019): the six schedulability-ratio studies of
//! Figure 2, plus supporting machinery (parallel sample evaluation, text
//! and CSV output).
//!
//! Every experiment runs through the `fig2` binary: Figure 2 by default,
//! and with `--study` the concurrency-floor and Algorithm 1 tie-breaking
//! ablations, the bound-tightness study and the suspend-vs-spin study
//! ([`fig2::Study`]):
//!
//! ```text
//! cargo run --release -p rtpool-bench --bin fig2 -- --inset all --sets 500
//! cargo run --release -p rtpool-bench --bin fig2 -- --study all --csv results
//! ```
//!
//! The per-inset generation parameters (the paper's figure captions are
//! not legible in the available scan) are documented on the [`fig2`]
//! module and in the workspace's DESIGN.md / EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
pub mod cli;
pub mod fig2;
pub mod pipeline;
pub mod serve;
mod spin_study;
pub mod sweep;
mod table;
mod tightness;
