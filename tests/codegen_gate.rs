//! Compile-fail suite for the `rtpool-codegen` build gate.
//!
//! Each fixture under `tests/compile-fail/` is an `.rtp` workload plus a
//! first-line `# codegen:` directive giving the gate's pool size and
//! deny policy; "building" a fixture means running the exact
//! certification step a `build.rs` runs, so a fixture that fails here
//! fails `cargo build` of any crate certifying it (see
//! `tests/compile-fail/bad_crate/` for the cargo-level twin, exercised
//! by CI). The failure text is pinned by a `.stderr` golden next to each
//! fixture — re-bless with `UPDATE_GOLDEN=1 cargo test --test
//! codegen_gate`.
//!
//! Fixtures under `tests/compile-pass/` must certify cleanly.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use rtpool_codegen::{Codegen, CodegenError};

/// The `# codegen: m=N [deny_warnings] [deny=..] [allow=..] [expect=..]`
/// first-line directive of a fixture.
struct Directive {
    m: usize,
    deny_warnings: bool,
    deny: Vec<String>,
    allow: Vec<String>,
    expect: Vec<String>,
}

fn parse_directive(path: &Path, text: &str) -> Directive {
    let first = text.lines().next().unwrap_or_default();
    let body = first
        .strip_prefix("# codegen:")
        .unwrap_or_else(|| panic!("{}: missing `# codegen:` directive", path.display()));
    let mut d = Directive {
        m: 0,
        deny_warnings: false,
        deny: Vec::new(),
        allow: Vec::new(),
        expect: Vec::new(),
    };
    let csv = |v: &str| v.split(',').map(str::to_owned).collect::<Vec<_>>();
    for word in body.split_whitespace() {
        if let Some(m) = word.strip_prefix("m=") {
            d.m = m.parse().expect("m=<int>");
        } else if word == "deny_warnings" {
            d.deny_warnings = true;
        } else if let Some(v) = word.strip_prefix("deny=") {
            d.deny = csv(v);
        } else if let Some(v) = word.strip_prefix("allow=") {
            d.allow = csv(v);
        } else if let Some(v) = word.strip_prefix("expect=") {
            d.expect = csv(v);
        } else {
            panic!("{}: unknown directive word `{word}`", path.display());
        }
    }
    assert!(d.m > 0, "{}: directive must set m", path.display());
    d
}

/// Runs the gate over a fixture exactly as a `build.rs` would: `None`
/// when it certifies, otherwise the build failure's text.
fn drive(path: &Path) -> Option<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let d = parse_directive(path, &text);
    let mut gate = Codegen::new(path, d.m);
    if d.deny_warnings {
        gate = gate.deny_warnings();
    }
    for code in &d.deny {
        gate = gate.deny(code);
    }
    for code in &d.allow {
        gate = gate.allow(code);
    }
    // Certify from the in-memory text with the repo-relative path so the
    // rendered spans (and thus the .stderr goldens) are host-independent.
    match gate.certify_source(path.display().to_string(), text) {
        Ok(certified) => {
            // A passing fixture must also emit a loadable module; emission
            // itself must not panic.
            let module = rtpool_codegen::certified_module_source(&certified);
            assert!(
                module.contains("DeadlockFree"),
                "{}: emitted module misses the proof token",
                path.display()
            );
            None
        }
        Err(e @ CodegenError::Rejected { .. }) => {
            let stderr = e.to_string();
            for code in &d.expect {
                assert!(
                    stderr.contains(code.as_str()),
                    "{}: expected {code} in the build failure, got:\n{stderr}",
                    path.display()
                );
            }
            Some(stderr)
        }
        Err(e) => panic!("{}: unexpected I/O failure: {e}", path.display()),
    }
}

/// The `.rtp` fixtures under `dir`, sorted.
fn fixtures(dir: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtp"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixture under {dir}");
    paths
}

#[test]
fn compile_fail_fixtures() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let mut failures = String::new();
    for path in fixtures("tests/compile-fail") {
        let name = path.display();
        let Some(stderr) = drive(&path) else {
            let _ = writeln!(failures, "{name}: expected to fail to build, but passed\n");
            continue;
        };
        let golden_path = path.with_extension("stderr");
        let golden = fs::read_to_string(&golden_path).ok();
        if golden.as_deref() == Some(stderr.as_str()) {
            continue;
        }
        if bless {
            fs::write(&golden_path, &stderr)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", golden_path.display()));
        } else {
            let _ = writeln!(
                failures,
                "{name}: stderr differs from {} (set UPDATE_GOLDEN=1 to bless)\n\
                 --- expected\n{}\n--- actual\n{stderr}\n",
                golden_path.display(),
                golden.as_deref().unwrap_or("<golden file missing>"),
            );
        }
    }
    assert!(
        failures.is_empty(),
        "compile-fail mismatches:\n\n{failures}"
    );
}

#[test]
fn compile_pass_fixtures() {
    let mut failures = String::new();
    for path in fixtures("tests/compile-pass") {
        if let Some(stderr) = drive(&path) {
            let _ = writeln!(
                failures,
                "{}: expected to build, but failed with:\n{stderr}\n",
                path.display()
            );
        }
    }
    assert!(failures.is_empty(), "compile-pass failures:\n\n{failures}");
}

#[test]
fn fixture_floor() {
    let count = fs::read_dir("tests/compile-fail")
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "rtp"))
        .count();
    assert!(count >= 6, "compile-fail suite shrank to {count} fixtures");
}
