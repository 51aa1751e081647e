//! The `m` law through the binaries: on every `workloads/*.rtp`, growing
//! the pool never hurts. Each global model's response bound printed by
//! `analyze` never rises or turns into `-` as `m` grows, and no deadlock
//! (RT101), overload (RT201) or deadline-miss (RT205) finding of `rtlint`
//! appears at a larger pool that was absent at a smaller one.
//!
//! The pools run from one thread past `MAX_PARTITIONED_THREADS` (4096)
//! and 2³² to `u64::MAX`, where a floor computed as `m as i64` wrapped
//! negative. RT104 and RT301 are not held to the law: worst-fit and
//! Algorithm 1 are heuristics, and a larger pool may place nodes worse.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use rtpool_trace::json::{Reader, Value};

mod common;
use common::rtlint;

const POOLS: [u64; 11] = [1, 2, 3, 4, 6, 8, 64, 4096, 4097, 1 << 32, u64::MAX];

/// The codes whose findings may only disappear as `m` grows.
const MONOTONE_CODES: [&str; 3] = ["RT101", "RT201", "RT205"];

fn workloads() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("workloads directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rtp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no workloads in {dir}");
    files
}

/// Runs `bin` with `args` and returns its stdout. The exit code is not
/// checked (both tools exit 1 on error findings), but the process must
/// exit rather than die on a signal.
fn stdout_of(bin: &Path, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.code().is_some(),
        "{} {args:?} died: {:?}\nstderr:\n{}",
        bin.display(),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Per line of `analyze`'s global section (one per model, in printed
/// order): the line's label and each task's `R`, `None` for `-`.
type Responses = Vec<(String, Vec<Option<u64>>)>;

fn global_responses(stdout: &str) -> Responses {
    let rows: Vec<_> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("== Global schedulability"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|line| {
            let (label, list) = line
                .split_once("R = [")
                .unwrap_or_else(|| panic!("no `R = [` in {line:?}"));
            let responses = list
                .trim_end_matches(']')
                .split(", ")
                .map(|r| (r != "-").then(|| r.parse().expect("a response bound")))
                .collect();
            // `{label:35} {verdict}`: the label ends at the padding.
            let label = label.trim().split("  ").next().unwrap_or_default();
            (label.to_owned(), responses)
        })
        .collect();
    assert_eq!(rows.len(), 3, "three global models:\n{stdout}");
    rows
}

/// `rtlint --format json`'s findings under [`MONOTONE_CODES`], keyed by
/// code and the finding's own span (`line:col+len`, or none).
fn monotone_findings(stdout: &str) -> BTreeSet<String> {
    let doc = Reader::new(stdout).value().expect("rtlint prints JSON");
    let Some(Value::Array(diagnostics)) = doc.get("diagnostics") else {
        panic!("no diagnostics array:\n{stdout}");
    };
    diagnostics
        .iter()
        .filter_map(|d| {
            let code = d.get("code")?.as_str()?;
            if !MONOTONE_CODES.contains(&code) {
                return None;
            }
            let span = d.get("span").and_then(|s| {
                let field = |k| s.get(k).and_then(Value::as_u64);
                Some(format!(
                    "{}:{}+{}",
                    field("line")?,
                    field("col")?,
                    field("len")?
                ))
            });
            Some(format!("{code}@{}", span.unwrap_or_default()))
        })
        .collect()
}

#[test]
fn analyze_response_bounds_never_rise_as_the_pool_grows() {
    for file in workloads() {
        let path = file.to_str().expect("utf-8 path");
        let mut last: Option<(u64, Responses)> = None;
        for m in POOLS {
            let m_arg = m.to_string();
            let analyze = Path::new(env!("CARGO_BIN_EXE_analyze"));
            let rows = global_responses(&stdout_of(analyze, &[path, "--m", &m_arg]));
            if let Some((prev_m, prev)) = &last {
                for ((label, before), (_, after)) in prev.iter().zip(&rows) {
                    assert_eq!(before.len(), after.len(), "{path}: task count changed");
                    for (task, (b, a)) in before.iter().zip(after).enumerate() {
                        if let Some(b) = b {
                            assert!(
                                a.is_some_and(|a| a <= *b),
                                "{path}, {label}, τ{task}: R = {b} at m = {prev_m} \
                                 but {a:?} at m = {m}"
                            );
                        }
                    }
                }
            }
            last = Some((m, rows));
        }
    }
}

#[test]
fn rtlint_deadlock_and_overload_findings_never_appear_as_the_pool_grows() {
    let rtlint = rtlint();
    for file in workloads() {
        let path = file.to_str().expect("utf-8 path");
        let mut last: Option<(u64, BTreeSet<String>)> = None;
        for m in POOLS {
            let m_arg = m.to_string();
            let found = monotone_findings(&stdout_of(
                &rtlint,
                &["--format", "json", "--m", &m_arg, path],
            ));
            if let Some((prev_m, prev)) = &last {
                let new: Vec<_> = found.difference(prev).collect();
                assert!(
                    new.is_empty(),
                    "{path}: {new:?} absent at m = {prev_m}, present at m = {m}"
                );
            }
            last = Some((m, found));
        }
    }
}
