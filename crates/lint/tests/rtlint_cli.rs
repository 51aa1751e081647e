//! The `rtlint` binary on pools past the partitioned bound: the set is
//! linted, and Algorithm 1's rule says by the bound's name, as an info
//! diagnostic that fails no run, that it was not run, where a pool of
//! `u64::MAX` threads used to panic on a capacity overflow.

use std::process::Command;

use rtpool_core::partition::MAX_PARTITIONED_THREADS;

const RTLINT: &str = env!("CARGO_BIN_EXE_rtlint");
const FIGURE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads/figure1.rtp");

#[test]
fn a_pool_past_the_partitioned_bound_is_linted_without_partitioning() {
    for m in [u64::MAX, 1 << 32] {
        let out = Command::new(RTLINT)
            .args(["--deny", "warnings", "--m", &m.to_string(), FIGURE1])
            .output()
            .expect("rtlint runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let context = format!("m = {m}\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(0), "{context}");
        let named = format!("MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
        assert!(
            stdout.contains("info[RT301]") && stdout.contains(&named),
            "{context}"
        );
    }
}
