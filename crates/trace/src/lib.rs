//! Unified execution-trace observability for `rtpool`.
//!
//! Both execution engines — the deterministic simulator (`rtpool-sim`)
//! and the native condvar thread pool (`rtpool-exec`) — emit the one
//! event schema defined here, so a single [`TraceAnalysis`] recovers the
//! paper's runtime quantities (observed available concurrency
//! `l(t, τᵢ)`, simultaneous-blocking antichains, response times) from
//! either engine, and the differential test suite can compare them
//! event-for-event against the static bounds of `rtpool-core`.
//!
//! Layout:
//!
//! * [`event`] — the schema: [`TraceEvent`], [`EventKind`], [`Trace`].
//! * [`sink`] — the one recorder: [`LaneRecorder`] lanes sharing one
//!   atomic [`SeqClock`], sealed into a [`Trace`] by [`assemble`]. The
//!   native pool records one lane per worker, the simulator and the
//!   admission service one lane each.
//! * [`analysis`] — [`Trace::validate`] (schema invariants) and
//!   [`TraceAnalysis`], the one fold of a trace's events into per-task
//!   observations.
//! * [`metrics`] — the log₂ [`LatencyHistogram`].
//! * [`export`] — Chrome trace-event JSON (lossless round-trip via
//!   [`from_chrome_json`]) and CSV timelines.
//! * [`gantt`] — ASCII Gantt rendering of a trace's core occupancy.
//! * [`json`] — the workspace's one JSON reader and string escaper, used
//!   by the Chrome import here and by the crates above this one.
//!
//! This crate is deliberately dependency-free: it sits *below* both
//! engines in the workspace graph (they depend on it to record), while
//! its integration tests depend on the engines as dev-dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod export;
pub mod gantt;
pub mod json;
pub mod metrics;
pub mod sink;

pub use analysis::{TaskObservation, TraceAnalysis, TraceDefect};
pub use event::{EngineKind, EventKind, TimeUnit, Trace, TraceEvent};
pub use export::{from_chrome_json, to_chrome_json, to_csv, ExportError};
pub use metrics::LatencyHistogram;
pub use sink::{assemble, LaneRecorder, SeqClock};
