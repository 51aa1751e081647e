//! Stable rule codes and the rule registry.
//!
//! Codes are grouped in families, mirroring the sections of the paper:
//!
//! * **RT0xx** — parse and structural errors (the model restrictions of
//!   Section 2, surfaced from `graph::validate` and the `.rtp` parser);
//! * **RT1xx** — deadlock risk (Section 3, Lemmas 1–3 and the
//!   concurrency floor `l̄ = m − b̄`);
//! * **RT2xx** — schedulability smells (Section 4 preconditions:
//!   utilization, density, degenerate WCETs);
//! * **RT3xx** — partitioning and pool sizing (Algorithm 1 feasibility,
//!   reserve-worker sizing against a `PoolConfig`).
//!
//! Every [`GraphError`] and [`CoreError`] variant maps to exactly one
//! code ([`rule_for_graph_error`], [`rule_for_core_error`]); a proptest
//! in `tests/proptests.rs` enforces the bijection onto distinct codes.

use std::fmt;

use rtpool_core::textfmt::ParseTaskError;
use rtpool_core::CoreError;
use rtpool_graph::GraphError;

use crate::diag::Severity;

/// A stable diagnostic code, rendered as `RT` plus three digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleCode(pub u16);

impl RuleCode {
    /// Parses a code of the form `RT123` (case-insensitive prefix).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleCode> {
        let digits = s.strip_prefix("RT").or_else(|| s.strip_prefix("rt"))?;
        let n: u16 = digits.parse().ok()?;
        Some(RuleCode(n))
    }

    /// The registry entry for this code, if it is a known rule.
    #[must_use]
    pub fn info(&self) -> Option<&'static RuleInfo> {
        RULES.iter().find(|r| r.code == *self)
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RT{:03}", self.0)
    }
}

// ---- RT0xx: parse / structural ------------------------------------------
/// Malformed directive or directive outside a `task … end` block.
pub const RT001: RuleCode = RuleCode(1);
/// A node name was referenced before being declared.
pub const RT002: RuleCode = RuleCode(2);
/// A node name was declared twice within one task.
pub const RT003: RuleCode = RuleCode(3);
/// Unrecognized structural error (forward-compatibility fallback).
pub const RT009: RuleCode = RuleCode(9);
/// The task graph has no nodes.
pub const RT010: RuleCode = RuleCode(10);
/// An edge endpoint does not belong to the graph.
pub const RT011: RuleCode = RuleCode(11);
/// A self-loop `v -> v`.
pub const RT012: RuleCode = RuleCode(12);
/// The same edge was declared twice.
pub const RT013: RuleCode = RuleCode(13);
/// The edge set contains a cycle.
pub const RT014: RuleCode = RuleCode(14);
/// More than one source node.
pub const RT015: RuleCode = RuleCode(15);
/// More than one sink node.
pub const RT016: RuleCode = RuleCode(16);
/// A blocking pair whose fork does not reach its join.
pub const RT017: RuleCode = RuleCode(17);
/// A node participates in more than one blocking pair.
pub const RT018: RuleCode = RuleCode(18);
/// Restriction (i): an inner node has an edge crossing its region.
pub const RT019: RuleCode = RuleCode(19);
/// Restriction (ii): an edge leaving the fork ends outside the region.
pub const RT020: RuleCode = RuleCode(20);
/// Restriction (iii): an edge entering the join starts outside.
pub const RT021: RuleCode = RuleCode(21);
/// Two blocking regions are nested.
pub const RT022: RuleCode = RuleCode(22);
/// The source or sink node is typed `BF`/`BJ`/`BC`.
pub const RT023: RuleCode = RuleCode(23);
/// The node WCETs sum past `u64::MAX`.
pub const RT024: RuleCode = RuleCode(24);
/// The task period is zero.
pub const RT030: RuleCode = RuleCode(30);
/// The task deadline is zero.
pub const RT031: RuleCode = RuleCode(31);
/// Unrecognized model error (forward-compatibility fallback).
pub const RT039: RuleCode = RuleCode(39);

// ---- RT1xx: deadlock risk ------------------------------------------------
/// The task can deadlock on the given pool (Lemmas 1–2).
pub const RT101: RuleCode = RuleCode(101);
/// `b̄ ≥ m`: the `l̄` certificate is inconclusive (exact check decides).
pub const RT102: RuleCode = RuleCode(102);
/// A blocking region is wider than the concurrency floor.
pub const RT103: RuleCode = RuleCode(103);
/// A load-balancing node placement violates Lemma 3.
pub const RT104: RuleCode = RuleCode(104);

// ---- RT2xx: schedulability smells ---------------------------------------
/// Total utilization exceeds the pool size.
pub const RT201: RuleCode = RuleCode(201);
/// A node has zero WCET.
pub const RT202: RuleCode = RuleCode(202);
/// The relative deadline exceeds the period (unconstrained deadline).
pub const RT203: RuleCode = RuleCode(203);
/// The critical path is longer than the deadline (density > 1).
pub const RT204: RuleCode = RuleCode(204);
/// The limited-concurrency RTA reports a deadline miss.
pub const RT205: RuleCode = RuleCode(205);

// ---- RT3xx: partitioning / sizing ---------------------------------------
/// Algorithm 1 cannot produce a delay-free mapping at this pool size.
pub const RT301: RuleCode = RuleCode(301);
/// The pool is smaller than the deadlock-free minimum and has no reserve.
pub const RT302: RuleCode = RuleCode(302);
/// The pool configuration can never run a job.
pub const RT303: RuleCode = RuleCode(303);
/// A node-to-thread mapping references a thread outside the pool.
pub const RT304: RuleCode = RuleCode(304);
/// A node-to-thread mapping does not cover the graph.
pub const RT305: RuleCode = RuleCode(305);
/// The configured mapping admits a deadlock (Lemma 3).
pub const RT306: RuleCode = RuleCode(306);

/// Registry entry describing one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// The stable code.
    pub code: RuleCode,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Severity before `--allow` / `--deny` adjustments.
    pub default_severity: Severity,
    /// One-line description shown by `rtlint --rules`.
    pub summary: &'static str,
}

/// All registered rules in code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: RT001,
        name: "syntax",
        default_severity: Severity::Error,
        summary: "malformed directive in a .rtp file",
    },
    RuleInfo {
        code: RT002,
        name: "unknown-name",
        default_severity: Severity::Error,
        summary: "reference to an undeclared node name",
    },
    RuleInfo {
        code: RT003,
        name: "duplicate-name",
        default_severity: Severity::Error,
        summary: "node name declared twice within one task",
    },
    RuleInfo {
        code: RT009,
        name: "unknown-structural",
        default_severity: Severity::Error,
        summary: "unrecognized structural error",
    },
    RuleInfo {
        code: RT010,
        name: "empty-graph",
        default_severity: Severity::Error,
        summary: "task graph has no nodes",
    },
    RuleInfo {
        code: RT011,
        name: "unknown-node",
        default_severity: Severity::Error,
        summary: "edge endpoint outside the graph",
    },
    RuleInfo {
        code: RT012,
        name: "self-loop",
        default_severity: Severity::Error,
        summary: "self-loop edge v -> v",
    },
    RuleInfo {
        code: RT013,
        name: "duplicate-edge",
        default_severity: Severity::Error,
        summary: "edge declared twice",
    },
    RuleInfo {
        code: RT014,
        name: "cycle",
        default_severity: Severity::Error,
        summary: "precedence constraints contain a cycle",
    },
    RuleInfo {
        code: RT015,
        name: "multiple-sources",
        default_severity: Severity::Error,
        summary: "more than one source node",
    },
    RuleInfo {
        code: RT016,
        name: "multiple-sinks",
        default_severity: Severity::Error,
        summary: "more than one sink node",
    },
    RuleInfo {
        code: RT017,
        name: "unreachable-join",
        default_severity: Severity::Error,
        summary: "blocking fork does not reach its join",
    },
    RuleInfo {
        code: RT018,
        name: "overlapping-regions",
        default_severity: Severity::Error,
        summary: "node in more than one blocking pair",
    },
    RuleInfo {
        code: RT019,
        name: "region-leak",
        default_severity: Severity::Error,
        summary: "edge crossing a blocking region boundary (restriction i)",
    },
    RuleInfo {
        code: RT020,
        name: "fork-escape",
        default_severity: Severity::Error,
        summary: "fork edge leaving its region (restriction ii)",
    },
    RuleInfo {
        code: RT021,
        name: "join-intrusion",
        default_severity: Severity::Error,
        summary: "external edge into a blocking join (restriction iii)",
    },
    RuleInfo {
        code: RT022,
        name: "nested-regions",
        default_severity: Severity::Error,
        summary: "nested blocking regions",
    },
    RuleInfo {
        code: RT023,
        name: "blocking-endpoint",
        default_severity: Severity::Warning,
        summary: "graph source/sink is blocking-typed (generation convention)",
    },
    RuleInfo {
        code: RT024,
        name: "volume-overflow",
        default_severity: Severity::Error,
        summary: "node WCETs sum past u64::MAX",
    },
    RuleInfo {
        code: RT030,
        name: "zero-period",
        default_severity: Severity::Error,
        summary: "task period must be positive",
    },
    RuleInfo {
        code: RT031,
        name: "zero-deadline",
        default_severity: Severity::Error,
        summary: "task deadline must be positive",
    },
    RuleInfo {
        code: RT039,
        name: "unknown-model",
        default_severity: Severity::Error,
        summary: "unrecognized task-model error",
    },
    RuleInfo {
        code: RT101,
        name: "deadlock",
        default_severity: Severity::Error,
        summary: "task can deadlock: m blocking forks can suspend every worker (Lemma 1)",
    },
    RuleInfo {
        code: RT102,
        name: "floor-inconclusive",
        default_severity: Severity::Warning,
        summary: "b̄ ≥ m: the l̄ certificate cannot prove deadlock freedom",
    },
    RuleInfo {
        code: RT103,
        name: "region-wider-than-floor",
        default_severity: Severity::Warning,
        summary: "blocking region wider than the concurrency floor (children may serialize)",
    },
    RuleInfo {
        code: RT104,
        name: "naive-mapping-unsafe",
        default_severity: Severity::Info,
        summary: "load-balancing placement violates Lemma 3; Algorithm 1 is required",
    },
    RuleInfo {
        code: RT201,
        name: "overutilized",
        default_severity: Severity::Error,
        summary: "total utilization exceeds the pool size",
    },
    RuleInfo {
        code: RT202,
        name: "zero-wcet",
        default_severity: Severity::Warning,
        summary: "node with zero WCET",
    },
    RuleInfo {
        code: RT203,
        name: "unconstrained-deadline",
        default_severity: Severity::Error,
        summary: "relative deadline exceeds the period",
    },
    RuleInfo {
        code: RT204,
        name: "path-exceeds-deadline",
        default_severity: Severity::Error,
        summary: "critical path longer than the deadline (density > 1)",
    },
    RuleInfo {
        code: RT205,
        name: "unschedulable",
        default_severity: Severity::Warning,
        summary: "limited-concurrency RTA reports a deadline miss",
    },
    RuleInfo {
        code: RT301,
        name: "partition-infeasible",
        default_severity: Severity::Warning,
        summary: "Algorithm 1 cannot find a delay-free mapping",
    },
    RuleInfo {
        code: RT302,
        name: "pool-undersized",
        default_severity: Severity::Warning,
        summary: "pool below the deadlock-free minimum without a growth reserve",
    },
    RuleInfo {
        code: RT303,
        name: "invalid-pool-config",
        default_severity: Severity::Error,
        summary: "pool configuration can never run a job",
    },
    RuleInfo {
        code: RT304,
        name: "thread-out-of-range",
        default_severity: Severity::Error,
        summary: "mapping references a thread outside the pool",
    },
    RuleInfo {
        code: RT305,
        name: "incomplete-mapping",
        default_severity: Severity::Error,
        summary: "mapping does not cover every node",
    },
    RuleInfo {
        code: RT306,
        name: "mapping-deadlock",
        default_severity: Severity::Error,
        summary: "configured mapping admits a deadlock (Lemma 3)",
    },
];

/// The rule code for a structural graph error.
///
/// Total and deterministic: unknown future variants fall back to
/// [`RT009`].
#[must_use]
pub fn rule_for_graph_error(e: &GraphError) -> RuleCode {
    match e {
        GraphError::Empty => RT010,
        GraphError::UnknownNode(_) => RT011,
        GraphError::SelfLoop(_) => RT012,
        GraphError::DuplicateEdge(_, _) => RT013,
        GraphError::Cycle(_) => RT014,
        GraphError::MultipleSources(_) => RT015,
        GraphError::MultipleSinks(_) => RT016,
        GraphError::UnreachableJoin { .. } => RT017,
        GraphError::OverlappingPairs(_) => RT018,
        GraphError::RegionLeak { .. } => RT019,
        GraphError::ForkEscape { .. } => RT020,
        GraphError::JoinIntrusion { .. } => RT021,
        GraphError::NestedRegions { .. } => RT022,
        GraphError::BlockingEndpoint(_) => RT023,
        GraphError::VolumeOverflow => RT024,
        _ => RT009,
    }
}

/// The rule code for a task-model error.
///
/// Total and deterministic: unknown future variants fall back to
/// [`RT039`].
#[must_use]
pub fn rule_for_core_error(e: &CoreError) -> RuleCode {
    match e {
        CoreError::ZeroPeriod => RT030,
        CoreError::ZeroDeadline => RT031,
        CoreError::DeadlineExceedsPeriod { .. } => RT203,
        CoreError::ThreadOutOfRange { .. } => RT304,
        CoreError::IncompleteMapping => RT305,
        _ => RT039,
    }
}

/// The rule code for a `.rtp` parse error, delegating to the graph /
/// model mappings for wrapped sources.
#[must_use]
pub fn rule_for_parse_error(e: &ParseTaskError) -> RuleCode {
    match e {
        ParseTaskError::Syntax { .. } => RT001,
        ParseTaskError::UnknownName { .. } => RT002,
        ParseTaskError::DuplicateName { .. } => RT003,
        ParseTaskError::Graph { source, .. } => rule_for_graph_error(source),
        ParseTaskError::Timing { source, .. } => rule_for_core_error(source),
        _ => RT001,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_and_parse() {
        assert_eq!(RT101.to_string(), "RT101");
        assert_eq!(RT009.to_string(), "RT009");
        assert_eq!(RuleCode::parse("RT101"), Some(RT101));
        assert_eq!(RuleCode::parse("rt009"), Some(RT009));
        assert_eq!(RuleCode::parse("X1"), None);
        assert_eq!(RuleCode::parse("RTx"), None);
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in RULES.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "{} vs {}",
                pair[0].code,
                pair[1].code
            );
        }
    }

    #[test]
    fn every_registered_code_resolves() {
        for r in RULES {
            assert_eq!(r.code.info().map(|i| i.name), Some(r.name));
        }
        assert!(RuleCode(999).info().is_none());
    }
}
