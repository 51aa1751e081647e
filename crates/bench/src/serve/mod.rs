//! `rtpool-serve`: an overload-resilient schedulability admission
//! service.
//!
//! A long-lived server that accepts JSON-lines admission requests
//! (inline `.rtp` sources or content hashes of previously seen sets),
//! analyzes them with the paper's schedulability machinery, and answers
//! admit/reject verdicts — engineered to stay predictable *under
//! overload and partial failure* rather than just fast on the happy
//! path:
//!
//! * **Backpressure, not buffering** ([`queue`]): the ingress queue is
//!   strictly bounded; overflow is answered `busy` immediately.
//! * **Deadline budgets & graceful degradation** ([`ladder`]): each
//!   request carries a service budget from arrival; when it runs out
//!   the analysis ladder answers with its deepest completed rung,
//!   marked `degraded` — and a degraded *admit* is always sound.
//! * **Load shedding** ([`breaker`]): a latency-SLO circuit breaker
//!   sheds low-priority traffic while p99 is out of budget, and
//!   re-closes once it is back under half the budget.
//! * **Supervision** ([`supervisor`]): panicking analysis workers are
//!   caught on the worker's own thread, retried under the executor's
//!   [`RecoveryPolicy`] semantics and given one last try — every
//!   request gets exactly one verdict. Seeded service faults
//!   ([`ServiceFaultPlan`]) live here too.
//! * **Structural reuse** ([`interner`]): content-hashed interning
//!   shares parsed sets (and their `DerivedCache`s) across
//!   structurally identical submissions, with bounded LRU capacity; a
//!   source or edit re-sent byte for byte is recognised by its bytes
//!   and answered without being parsed or applied again.
//! * **Incremental resubmission** ([`protocol`]'s `edit` verb): a
//!   request can name a resident set by hash plus an edit script
//!   (WCET changes, edge/node inserts, blocking toggles); the server
//!   applies it to the resident graphs via `Dag::edit` (a WCET-only
//!   script shares the base's `DerivedCache` cells, any other rebuilds
//!   the task it touches) instead of reparsing the set, records a
//!   `CacheDeltaHit`, and memoizes under the patched set's own hash.
//! * **Observability** ([`server`]): request lifecycles are recorded
//!   as `rtpool-trace` events and latencies as log₂ histograms.
//! * **Workers that fetch their own work** ([`server`]): the server
//!   spawns its own `rtpool-serve-{i}` threads, each popping the
//!   ingress queue until shutdown (the paper's Listing 1), and joins
//!   them at shutdown. What one worker alone touches — its latency
//!   histogram, its trace lane — lives in its thread and comes back
//!   through the join.
//!
//! The `rtpool_serve` binary wraps [`server::Server`] over
//! stdin/stdout or a Unix socket; the `serve_overload` test storms it
//! from the outside and checks that it recovers.
//!
//! [`RecoveryPolicy`]: rtpool_exec::RecoveryPolicy

pub mod breaker;
pub mod interner;
pub mod ladder;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod supervisor;

pub use breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
pub use interner::{InternError, Interned, Interner, InternerStats, MemoOutcome};
pub use ladder::{run_ladder, run_ladder_capped, LadderOutcome};
pub use protocol::{
    parse_edit_script, EditScript, LadderLevel, Request, RequestBody, Response, VerdictKind,
};
pub use queue::IngressQueue;
pub use server::{InjectorPool, ServeConfig, ServePool, ServeReport, Server};
pub use supervisor::{ServiceEvent, ServiceFaultPlan, ServiceOutcome, Supervisor};
