//! The `analyze` and `rtpool-trace` binaries on pools at and past the
//! partitioned bound and the simulator's. Past the first, `analyze` still
//! prints the global verdicts and `rtpool-trace` still runs a global
//! simulation, and both refuse the partitioned paths by the bound's name,
//! where a pool of `u64::MAX` threads used to panic on a capacity
//! overflow, one of 2³² to abort on allocation, and one of 5 000 to run.
//! Past the second, `rtpool-trace` refuses to simulate by its name, where
//! the simulator panicked and aborted at the same two sizes. At the other
//! end, `analyze` refuses `--m 0` by the flag's name, where the global
//! analysis panicked.

use std::process::{Command, Output};

use rtpool_core::partition::MAX_PARTITIONED_THREADS;
use rtpool_sim::MAX_SIMULATED_CORES;

const FIGURE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads/figure1.rtp");

/// Runs `bin` with `args` and returns its exit code, stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(bin).args(args).output().expect("binary runs");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (status.code(), text(stdout), text(stderr))
}

#[test]
fn analyze_refuses_the_partitioned_sections_past_the_bound_by_name() {
    let named = format!("MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
    for (m, refused) in [
        (u64::MAX.to_string(), true),
        ((1u64 << 32).to_string(), true),
        (MAX_PARTITIONED_THREADS.to_string(), false),
        ((MAX_PARTITIONED_THREADS + 1).to_string(), true),
    ] {
        let args = [FIGURE1, "--m", &m];
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_analyze"), &args);
        let context = format!("{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert_eq!(code, Some(i32::from(refused)), "{context}");
        assert!(stdout.contains("limited concurrency (paper)"), "{context}");
        assert_eq!(stderr.contains(&named), refused, "{context}");
        let partitioned = stdout.contains("Algorithm 1 (delay-free)");
        assert_eq!(partitioned, !refused, "{context}");
    }
}

#[test]
fn analyze_refuses_an_empty_pool_by_name() {
    let args = [FIGURE1, "--m", "0"];
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_analyze"), &args);
    let context = format!("{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert_eq!(code, Some(1), "{context}");
    assert!(stderr.contains("error: --m must be positive"), "{context}");
    assert!(!stderr.contains("panicked"), "{context}");
}

#[test]
fn rtpool_trace_refuses_a_pool_past_either_bound_by_name() {
    let past = (MAX_PARTITIONED_THREADS + 1).to_string();
    let partitioned = format!("past MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
    let simulated = format!("past MAX_SIMULATED_CORES = {MAX_SIMULATED_CORES}");
    let (huge, wide) = (u64::MAX.to_string(), (1u64 << 32).to_string());
    for (args, code, named) in [
        (
            &["--policy", "partitioned", "--m", &past][..],
            2,
            &partitioned,
        ),
        (&["--m", &huge], 1, &simulated),
        (&["--m", &wide], 1, &simulated),
        // A global simulation runs past the partitioned bound.
        (&["--m", &past], 0, &String::new()),
    ] {
        let args = [&["run", FIGURE1][..], args].concat();
        let (status, stdout, stderr) = run(env!("CARGO_BIN_EXE_rtpool-trace"), &args);
        assert_eq!(status, Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(named.as_str()), "{args:?}: {stderr}");
        assert_eq!(
            stdout.contains("deadline_misses: [0, 0]"),
            code == 0,
            "{args:?}: {stdout}"
        );
    }
}
