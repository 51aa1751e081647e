//! Whole-run determinism of the sweep: the entire multi-inset Figure 2
//! grid — all six insets as one flat work queue — must produce
//! bit-identical series (including skipped and error counts) for any
//! worker count.

use rtpool_bench::fig2::{run_insets, Fig2Params, Inset};
use rtpool_bench::sweep::SweepPool;

#[test]
fn whole_multi_inset_run_is_thread_count_independent() {
    let params = Fig2Params {
        sets_per_point: 2,
        seed: 0x5eed_f00d,
        threads: 8,
    };
    let serial_pool = SweepPool::new(1);
    let wide_pool = SweepPool::new(8);

    let serial = run_insets(&serial_pool, &Inset::ALL, &params);
    let wide = run_insets(&wide_pool, &Inset::ALL, &params);

    assert_eq!(serial.len(), wide.len());
    for ((inset_s, series_s), (inset_w, series_w)) in serial.iter().zip(&wide) {
        assert_eq!(inset_s, inset_w);
        assert_eq!(series_s.len(), inset_s.x_values().len());
        // Bit-identical: ratios, samples, skipped, and error counts.
        assert_eq!(
            series_s,
            series_w,
            "inset ({}) diverged between 1 and 8 workers",
            inset_s.letter()
        );
    }
}
