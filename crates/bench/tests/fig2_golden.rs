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

use rtpool_bench::fig2::{Fig2Params, Inset, Study};
use rtpool_bench::sweep::SweepPool;

#[test]
fn figure2_series_match_the_committed_csv() {
    let params = Fig2Params {
        sets_per_point: 8,
        ..Study::Figure.params()
    };
    let rendered: String = Study::Figure
        .run(&SweepPool::new(2), &params, &Inset::ALL)
        .csv
        .into_iter()
        .map(|(_, csv)| csv)
        .collect();
    let golden = include_str!("goldens/fig2_spp8.csv");
    for (n, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "fig2_spp8.csv line {}", n + 1);
    }
    assert!(rendered == golden, "fig2_spp8.csv differs in length");
}
