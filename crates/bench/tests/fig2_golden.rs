//! Figure 2 reproduces from a seed: all six insets at 8 sets per point
//! and the default seed, rendered as CSV, must equal the committed
//! `goldens/fig2_spp8.csv` byte for byte. Anything that moves a sample's
//! RNG stream, a generated graph or a verdict fails here.
//!
//! After an intended change to the series, regenerate the file with the
//! `fig2` binary, whose `--csv` writes the same rendering per inset:
//!
//! ```text
//! cargo run --release -p rtpool-bench --bin fig2 -- --sets 8 --csv /tmp/fig2
//! cat /tmp/fig2/fig2{a,b,c,d,e,f}.csv > crates/bench/tests/goldens/fig2_spp8.csv
//! ```

use rtpool_bench::fig2::{run_insets, Fig2Params, Inset};
use rtpool_bench::sweep::SweepPool;
use rtpool_bench::table::render_csv;

#[test]
fn figure2_series_match_the_committed_csv() {
    let params = Fig2Params {
        sets_per_point: 8,
        ..Fig2Params::default()
    };
    let rendered: String = run_insets(&SweepPool::new(2), &Inset::ALL, &params)
        .iter()
        .map(|(inset, series)| render_csv(*inset, series))
        .collect();
    let golden = include_str!("goldens/fig2_spp8.csv");
    for (n, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "fig2_spp8.csv line {}", n + 1);
    }
    assert!(rendered == golden, "fig2_spp8.csv differs in length");
}
