//! Helpers shared by the test targets that drive the binaries.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The `rtlint` binary. It belongs to another package, so Cargo names
/// no path for it here: it is built into the directory that holds
/// `analyze`, through the same Cargo and profile, so it is never stale.
pub fn rtlint() -> PathBuf {
    let analyze = Path::new(env!("CARGO_BIN_EXE_analyze"));
    let profile = analyze.parent().expect("a profile directory");
    let mut build = Command::new(env!("CARGO"));
    build.args([
        "build",
        "-q",
        "-p",
        "rtpool-lint",
        "--bin",
        "rtlint",
        "--target-dir",
    ]);
    build.arg(profile.parent().expect("a target directory"));
    if profile.ends_with("release") {
        build.arg("--release");
    }
    assert!(
        build.status().expect("cargo runs").success(),
        "rtlint builds"
    );
    analyze.with_file_name(format!("rtlint{}", std::env::consts::EXE_SUFFIX))
}
