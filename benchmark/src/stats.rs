//! Exact-sample timing statistics.
//!
//! Every timing the benchmark reports comes from a sorted `Vec<u64>` of
//! raw nanosecond samples taken with the benchmark's own `Instant`
//! clock — never from `rtpool_trace::LatencyHistogram`, whose log₂
//! buckets report `2^k − 1` for anything in `[2^(k−1), 2^k)` and so
//! cannot see a change smaller than 2× (see the unit test below).

use std::time::Duration;

/// Percentiles the benchmark may quote, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// A duration in whole nanoseconds (saturating).
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Raw samples of one timing, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty recorder with room for `cap` samples.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// A recorder holding `ns` (nanoseconds, any order).
    #[must_use]
    pub fn from_ns(ns: &[u64]) -> Self {
        Samples {
            ns: ns.to_vec(),
            sorted: false,
        }
    }

    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.push_ns(nanos(d));
    }

    /// Records one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Adds every sample of `other`.
    pub fn absorb(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The exact `p`-th percentile (nearest rank) in nanoseconds, or 0
    /// with no samples.
    #[must_use]
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        self.sort();
        if self.ns.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1]
    }

    /// The `p`-th percentile in microseconds.
    #[must_use]
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e3
    }

    /// Largest sample in nanoseconds.
    #[must_use]
    pub fn max_ns(&mut self) -> u64 {
        self.sort();
        self.ns.last().copied().unwrap_or(0)
    }

    /// Sum of all samples in nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u128 {
        self.ns.iter().map(|&v| u128::from(v)).sum()
    }
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(usize::from(n > 0), n))
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` below 20 samples.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Operations of a time-boxed phase that fall in whole stream cycles:
/// the phase stops wherever the clock says, and everything after the
/// last completed cycle is dropped, so two commits are scored on the
/// identical operation mix however far each one got.
#[must_use]
pub fn whole_cycles(done: usize, cycle_len: usize) -> usize {
    done / cycle_len * cycle_len
}

/// Throughput and latency of one slice of a measured phase. A phase is
/// cut into slices and reports the median slice, which a burst of
/// scheduler noise or a slow start-up mode of the host cannot move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Successful operations per second.
    pub throughput: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
}

impl Slice {
    /// Summarises the operations of one slice: their latencies, how
    /// many of them failed, and the wall time the slice took.
    #[must_use]
    pub fn of(lat_ns: &[u64], failed: usize, wall: Duration) -> Slice {
        let mut s = Samples::from_ns(lat_ns);
        Slice {
            throughput: (lat_ns.len() - failed) as f64 / wall.as_secs_f64(),
            p50_us: s.percentile_us(50.0),
            p95_us: s.percentile_us(95.0),
        }
    }

    /// The field-wise median of `slices`.
    #[must_use]
    pub fn median_of(slices: &[Slice]) -> Slice {
        let field = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        Slice {
            throughput: field(|s| s.throughput),
            p50_us: field(|s| s.p50_us),
            p95_us: field(|s| s.p95_us),
        }
    }
}

/// Median of a small set of values (mean of the middle two when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point). `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_trace::LatencyHistogram;

    #[test]
    fn exact_percentiles_see_what_the_log2_histogram_cannot() {
        // 300 µs and 450 µs land in the same log₂ bucket: with one slow
        // request in the window the histogram reports 511 for both
        // medians, the exact recorder tells them apart.
        for us in [300u64, 450] {
            let mut h = LatencyHistogram::new();
            let mut s = Samples::default();
            for v in std::iter::repeat_n(us, 100).chain([2_000]) {
                h.observe(v);
                s.push(Duration::from_micros(v));
            }
            assert_eq!(h.quantile_upper(0.5), Some(511));
            assert_eq!(s.percentile_us(50.0), us as f64);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push_ns(v);
        }
        assert_eq!(s.percentile_ns(50.0), 50);
        assert_eq!(s.percentile_ns(95.0), 95);
        assert_eq!(s.percentile_ns(100.0), 100);
        assert_eq!(s.max_ns(), 100);
        assert_eq!(s.sum_ns(), 5050);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.0));
        assert_eq!(highest_supported(10_001), Some(99.9));
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn cycle_truncation_keeps_the_mix_for_any_run_length() {
        // A cycle of 10 operations with a 5/3/2 kind mix.
        let cycle = [0u8, 1, 0, 2, 0, 1, 0, 2, 0, 1];
        let mix = |n: usize| {
            let mut counts = [0usize; 3];
            for i in 0..n {
                counts[cycle[i % cycle.len()] as usize] += 1;
            }
            counts
        };
        for done in 10..200 {
            let kept = whole_cycles(done, cycle.len());
            let [a, b, c] = mix(kept);
            assert_eq!((a * 3, a * 2), (b * 5, c * 5), "done = {done}");
        }
        assert_eq!(whole_cycles(9, 10), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
