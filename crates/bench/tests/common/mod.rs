//! Helpers shared by the test targets: the `rtlint` binary for those
//! that drive the binaries, and the seeded request streams of the
//! service suites. Each target uses part of this.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_bench::serve::protocol::{encode_request, Request, RequestBody, MAX_PRIORITY};
use rtpool_core::textfmt::write_task_set;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

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

/// Core count each request asks to be admitted on.
const M: usize = 8;
/// Tasks per generated set.
const N_TASKS: usize = 3;
/// Utilization range sampled per request. Spanning values above `M`
/// guarantees a mix of admits and rejects.
const UTILIZATION: (f64, f64) = (1.0, 12.0);
/// Fraction of requests that resubmit an earlier request's source
/// verbatim (exercises the content-hash interner).
const REPEAT_FRACTION: f64 = 0.25;
/// Per-request service budget in microseconds; 0 leaves each request
/// the server's default.
const DEADLINE_US: u64 = 0;

/// Generates `requests` encoded request lines: a mix of admissible,
/// infeasible and structurally repeated task sets.
///
/// Generation is deterministic in `seed`. Request ids are the stream
/// indices `0..requests`; priorities cycle through the full
/// `0..=MAX_PRIORITY` range so shedding under overload is observable.
#[must_use]
pub fn gen_request_lines(requests: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sources: Vec<String> = Vec::new();
    let mut lines = Vec::with_capacity(requests);
    for i in 0..requests {
        let repeat = !sources.is_empty() && rng.gen_bool(REPEAT_FRACTION);
        let source = if repeat {
            let pick = rng.gen_range(0..sources.len());
            sources[pick].clone()
        } else {
            let util = rng.gen_range(UTILIZATION.0..=UTILIZATION.1);
            let set = TaskSetConfig::new(N_TASKS, util, DagGenConfig::default())
                .generate(&mut rng)
                .expect("workload generation cannot fail for these parameters");
            let text = write_task_set(&set);
            sources.push(text.clone());
            text
        };
        let request = Request {
            id: i as u64,
            m: M,
            priority: (i % (MAX_PRIORITY as usize + 1)) as u8,
            deadline_us: DEADLINE_US,
            body: RequestBody::Source(source),
        };
        lines.push(encode_request(&request));
    }
    lines
}
