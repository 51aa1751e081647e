//! Property-based tests for the lint crate: the error-to-rule-code
//! mapping is total and injective, and the engine agrees with the
//! underlying analyses on randomized task sets.

use proptest::prelude::*;
use rtpool_core::{deadlock, textfmt, CoreError, Task, TaskSet};
use rtpool_graph::{Dag, GraphError, NodeId};
use rtpool_lint::{code, lint_source, lint_task_set, render_json, LintOptions, RuleCode};
use rtpool_oracle::shapes::fork_join_star;

fn v(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Every `GraphError` variant the graph crate ships today.
fn all_graph_errors() -> Vec<GraphError> {
    vec![
        GraphError::Empty,
        GraphError::UnknownNode(v(0)),
        GraphError::SelfLoop(v(0)),
        GraphError::DuplicateEdge(v(0), v(1)),
        GraphError::Cycle(v(0)),
        GraphError::MultipleSources(vec![v(0), v(1)]),
        GraphError::MultipleSinks(vec![v(0), v(1)]),
        GraphError::UnreachableJoin {
            fork: v(0),
            join: v(1),
        },
        GraphError::OverlappingPairs(v(0)),
        GraphError::RegionLeak {
            fork: v(0),
            inner: v(1),
            outside: v(2),
        },
        GraphError::ForkEscape {
            fork: v(0),
            outside: v(1),
        },
        GraphError::JoinIntrusion {
            join: v(0),
            outside: v(1),
        },
        GraphError::NestedRegions {
            outer_fork: v(0),
            inner_fork: v(1),
        },
        GraphError::BlockingEndpoint(v(0)),
        GraphError::VolumeOverflow,
    ]
}

/// Every `CoreError` variant the core crate ships today.
fn all_core_errors() -> Vec<CoreError> {
    vec![
        CoreError::ZeroPeriod,
        CoreError::ZeroDeadline,
        CoreError::DeadlineExceedsPeriod {
            deadline: 20,
            period: 10,
        },
        CoreError::ThreadOutOfRange {
            thread: 5,
            pool_size: 2,
        },
        CoreError::IncompleteMapping,
    ]
}

#[test]
fn graph_errors_map_to_distinct_registered_codes() {
    let errors = all_graph_errors();
    let codes: Vec<RuleCode> = errors.iter().map(code::rule_for_graph_error).collect();
    for (e, c) in errors.iter().zip(&codes) {
        assert_ne!(
            *c,
            code::RT009,
            "{e}: a shipped GraphError variant must not hit the fallback code"
        );
        assert!(c.info().is_some(), "{c} for {e} is not in the registry");
    }
    let mut unique = codes.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        codes.len(),
        "every GraphError variant maps to exactly one rule code"
    );
}

#[test]
fn core_errors_map_to_distinct_registered_codes() {
    let errors = all_core_errors();
    let codes: Vec<RuleCode> = errors.iter().map(code::rule_for_core_error).collect();
    for (e, c) in errors.iter().zip(&codes) {
        assert_ne!(
            *c,
            code::RT039,
            "{e}: a shipped CoreError variant must not hit the fallback code"
        );
        assert!(c.info().is_some(), "{c} for {e} is not in the registry");
    }
    let mut unique = codes.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        codes.len(),
        "every CoreError variant maps to exactly one rule code"
    );
}

#[test]
fn graph_and_core_codes_do_not_collide() {
    let mut codes: Vec<RuleCode> = all_graph_errors()
        .iter()
        .map(code::rule_for_graph_error)
        .chain(all_core_errors().iter().map(code::rule_for_core_error))
        .collect();
    let len = codes.len();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), len);
}

/// `rtpool_oracle::shapes::fork_join_star` as a `Dag`: parallel
/// fork-joins between a source and a sink, each blocking with
/// probability one half when `blocking` is set.
fn star_dag(seed: u64, max_regions: usize, blocking: bool) -> Dag {
    let s = fork_join_star(seed, max_regions, blocking);
    let ids = |l: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
        let v = NodeId::from_index;
        l.iter().map(|&(a, b)| (v(a), v(b))).collect()
    };
    Dag::from_lists(&s.wcets, &ids(&s.edges), &ids(&s.pairs)).unwrap()
}

proptest! {
    /// The engine's RT101 verdict coincides exactly with the deadlock
    /// analysis: fires iff `check_global` reports a possible
    /// deadlock, and is always accompanied by a fix suggestion.
    #[test]
    fn rt101_agrees_with_deadlock_analysis(
        seed in any::<u64>(), regions in 1usize..6, m in 1usize..8
    ) {
        let dag = star_dag(seed, regions, true);
        let deadlocks = {
            !deadlock::check_global(&dag, m).is_deadlock_free()
        };
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, 1_000_000).unwrap()]);
        let report = lint_task_set(&set, &LintOptions::with_m(m));
        let fired = report.codes().contains(&code::RT101);
        prop_assert_eq!(fired, deadlocks);
        if fired {
            let d = report.diagnostics.iter().find(|d| d.code == code::RT101).unwrap();
            prop_assert!(d.suggestion.is_some());
        }
    }

    /// Linting never panics, every emitted code is registered, and the
    /// JSON rendering stays single-line (the JSON-Lines contract).
    #[test]
    fn lint_is_total_and_json_is_one_line(
        seed in any::<u64>(), regions in 1usize..6, m in 1usize..8
    ) {
        let dag = star_dag(seed, regions, true);
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, 1_000_000).unwrap()]);
        let report = lint_task_set(&set, &LintOptions::with_m(m));
        for d in &report.diagnostics {
            prop_assert!(d.code.info().is_some(), "unregistered code {} emitted", d.code);
        }
        prop_assert_eq!(render_json(&report).lines().count(), 1);
    }

    /// Round-trip: a random task set serialized to `.rtp` text and run
    /// through the source linter fires the same codes as the in-memory
    /// path, with a span on every finding.
    #[test]
    fn source_and_task_set_paths_agree(
        seed in any::<u64>(), regions in 1usize..5, m in 1usize..8
    ) {
        let dag = star_dag(seed, regions, true);
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, 1_000_000).unwrap()]);
        let text = textfmt::write_task_set(&set);
        let opts = LintOptions::with_m(m);
        let from_source = lint_source("roundtrip.rtp", &text, &opts);
        let in_memory = lint_task_set(&set, &opts);
        prop_assert_eq!(from_source.codes(), in_memory.codes());
        for d in &from_source.diagnostics {
            prop_assert!(d.span.is_some(), "{}: source-backed finding lacks a span", d.code);
        }
    }
}
