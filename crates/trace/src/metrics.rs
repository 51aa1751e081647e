//! The log₂ [`LatencyHistogram`] that [`TraceAnalysis`](crate::TraceAnalysis)
//! fills per task in its one fold over a trace, and that the admission
//! service and its load generator fill per request.

/// A log₂-bucketed latency histogram: bucket `b` counts values `v` with
/// `⌊log₂ v⌋ + 1 = b` (bucket 0 holds `v == 0`). Cheap to update, exact
/// count/sum/min/max, approximate quantiles (upper bucket bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper
    /// edge of the bucket containing it, clamped to the observed max.
    #[must_use]
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if b == 0 { 0u128 } else { (1u128 << b) - 1 };
                return Some(u64::try_from(upper).unwrap_or(u64::MAX).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one. Equivalent to having
    /// observed every value of `other` here: counts, sums, extremes, and
    /// buckets add exactly, so shard-local histograms (one per worker,
    /// updated without contention) combine into the same aggregate a
    /// single shared histogram would have produced.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The JSON object the serve report embeds:
    /// `{ "count": 3, "p50": 7, "p90": 15, "p99": 15, "p999": 15, "max": 12 }`,
    /// the quantiles `null` while nothing has been observed.
    #[must_use]
    pub fn to_json(&self) -> String {
        let q = |p: f64| {
            self.quantile_upper(p)
                .map_or_else(|| "null".to_string(), |v| v.to_string())
        };
        format!(
            "{{ \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {} }}",
            self.count,
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            self.max().unwrap_or(0),
        )
    }

    /// One-line summary, e.g. `n=12 mean=4.2 p50<=7 p99<=15 max=15`.
    #[must_use]
    pub fn summary(&self) -> String {
        match self.mean() {
            None => "n=0".to_string(),
            Some(mean) => format!(
                "n={} mean={:.1} p50<={} p99<={} max={}",
                self.count,
                mean,
                self.quantile_upper(0.5).unwrap_or(0),
                self.quantile_upper(0.99).unwrap_or(0),
                self.max
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper(0.5), None);
        assert_eq!(h.summary(), "n=0");
        assert_eq!(
            h.to_json(),
            r#"{ "count": 0, "p50": null, "p90": null, "p99": null, "p999": null, "max": 0 }"#
        );
        for v in [0, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 110.0 / 6.0).abs() < 1e-9);
        // p50 falls in the bucket of 2..=3.
        assert_eq!(h.quantile_upper(0.5), Some(3));
        // The top quantile is clamped to the observed max.
        assert_eq!(h.quantile_upper(1.0), Some(100));
        assert!(h.summary().starts_with("n=6 "));
        assert_eq!(
            h.to_json(),
            r#"{ "count": 6, "p50": 3, "p90": 100, "p99": 100, "p999": 100, "max": 100 }"#
        );
    }

    #[test]
    fn merge_equals_single_histogram() {
        let values = [0u64, 1, 5, 17, 300, 4096, 9, 2];
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            if i % 2 == 0 { &mut a } else { &mut b }.observe(v);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merging an empty histogram is the identity.
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, whole);
    }
}
