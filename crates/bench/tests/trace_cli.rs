//! The `rtpool-trace` binary from the outside: `run --pool both` prints
//! one latency row per engine for every task, counting each of the
//! task's nodes once, and a single-engine summary prints the node
//! latency and dispatch lines its trace analysis computes.

use std::process::Command;

const TRACE: &str = env!("CARGO_BIN_EXE_rtpool-trace");
const FIGURE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads/figure1.rtp");

/// Runs `rtpool-trace run figure1.rtp --engine exec --m 3` with `args`
/// appended and returns its stdout, asserting exit 0.
fn run_figure1(args: &[&str]) -> String {
    let out = Command::new(TRACE)
        .args(["run", FIGURE1, "--engine", "exec", "--m", "3"])
        .args(["--time-scale-us", "0"])
        .args(args)
        .output()
        .expect("rtpool-trace runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn pool_both_prints_one_row_per_engine_with_every_node() {
    let stdout = run_figure1(&["--pool", "both"]);
    // Figure 1's tasks have 12 and 5 nodes.
    for (task, nodes) in [(0, 12u64), (1, 5)] {
        let header = format!("task {task}: NodeStart→NodeEnd latency (ns) by engine");
        let table = stdout
            .split_once(&header)
            .unwrap_or_else(|| panic!("no table for task {task}:\n{stdout}"))
            .1;
        let table = table.split("\ntask ").next().expect("table body");
        for engine in ["v1_condvar", "v2_lockfree"] {
            let rows: Vec<&str> = table
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(engine))
                .collect();
            assert_eq!(rows.len(), 1, "task {task} {engine} rows:\n{stdout}");
            let count: u64 = rows[0]
                .split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .expect("a count column");
            assert_eq!(count, nodes, "task {task} {engine} count:\n{stdout}");
        }
    }
}

#[test]
fn v2_summary_prints_node_latency_and_dispatch() {
    let stdout = run_figure1(&["--pool", "v2", "--format", "summary"]);
    assert!(stdout.contains("  node_latency: n=12 "), "{stdout}");
    assert!(stdout.contains("  node_latency: n=5 "), "{stdout}");
    assert!(stdout.contains("  dispatch: steals="), "{stdout}");
}
