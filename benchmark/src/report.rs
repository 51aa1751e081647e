//! Metric names, units and the two output forms: a table for people and
//! the one-line JSON object the benchmark contract asks for.

use std::fmt::Write as _;

use crate::stats::{beyond, highest_supported, MIN_BEYOND};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as registered in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (`0` for counters and ratios of counters).
    pub n: usize,
}

/// End-to-end metrics `(name, unit)`, the order they are printed in.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`. A workload reports 0 for a layer
/// it does not enter.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    // serve path
    ("serve.protocol.decode_us_p50", "us"),
    ("serve.protocol.decode_us_p99", "us"),
    ("serve.protocol.decode_ns_per_byte", "ns/B"),
    ("serve.protocol.encode_us_p50", "us"),
    ("serve.protocol.edit_script_us_p50", "us"),
    ("core.textfmt.parse_us_p50", "us"),
    ("serve.interner.intern_miss_us_p50", "us"),
    ("serve.interner.intern_miss_us_p99", "us"),
    ("serve.interner.intern_hit_us_p50", "us"),
    ("serve.interner.intern_hit_us_p99", "us"),
    ("serve.interner.lookup_ns_p50", "ns"),
    ("serve.interner.memo_ns_p50", "ns"),
    ("serve.interner.intern_set_us_p50", "us"),
    ("serve.interner.hit_share", "ratio"),
    ("serve.interner.memo_hit_share", "ratio"),
    ("serve.interner.delta_hits", "count"),
    ("serve.interner.evictions", "count"),
    ("serve.ladder.climb_us_p50", "us"),
    ("serve.ladder.climb_us_p99", "us"),
    ("serve.ladder.rung_share.prefilter", "ratio"),
    ("serve.ladder.rung_share.deadlock", "ratio"),
    ("serve.ladder.rung_share.limited", "ratio"),
    ("serve.ladder.rung_share.exact", "ratio"),
    ("serve.supervisor.execute_us_p50.source_miss", "us"),
    ("serve.supervisor.execute_us_p50.source_hit", "us"),
    ("serve.supervisor.execute_us_p50.hash", "us"),
    ("serve.supervisor.execute_us_p50.edit", "us"),
    ("serve.server.hop_us_p50.source_miss", "us"),
    ("serve.server.hop_us_p50.source_hit", "us"),
    ("serve.server.hop_us_p50.hash", "us"),
    ("serve.server.hop_us_p50.edit", "us"),
    ("serve.server.hop_share", "ratio"),
    ("serve.server.queue_wait_us_p50", "us"),
    ("serve.latency_us_p99.source", "us"),
    ("serve.latency_us_p99.hash", "us"),
    ("serve.latency_us_p99.edit", "us"),
    ("serve.latency_us_max", "us"),
    ("serve.server.busy", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.errors", "count"),
    ("serve.server.degraded", "count"),
    ("serve.server.retries", "count"),
    ("serve.server.queue_peak", "count"),
    ("serve.server.breaker_opens", "count"),
    ("serve.server.first_request_us", "us"),
    ("serve.server.warmup_failed", "count"),
    ("graph.edit.apply_us_p50", "us"),
    ("core.warm_rta_us_p50", "us"),
    // exec path
    ("exec.v1.flat.job_us_p50", "us"),
    ("exec.v1.flat.job_us_p99", "us"),
    ("exec.v2.flat.job_us_p50", "us"),
    ("exec.v2.flat.job_us_p99", "us"),
    ("exec.v1.blocking.job_us_p50", "us"),
    ("exec.v1.blocking.job_us_p99", "us"),
    ("exec.v2.blocking.job_us_p50", "us"),
    ("exec.v2.blocking.job_us_p99", "us"),
    ("exec.v1.flat.ns_per_node", "ns"),
    ("exec.v2.flat.ns_per_node", "ns"),
    ("exec.v2.flat.fetch_gap_ns_p50", "ns"),
    ("exec.v2.flat.steals_per_job", "count"),
    ("exec.v1.blocking.barrier_wait_us_p50", "us"),
    ("exec.v1.blocking.wake_us_p50", "us"),
    ("exec.v1.blocking.wake_us_p99", "us"),
    ("exec.v2.blocking.wake_us_p50", "us"),
    ("exec.v2.blocking.wake_us_p99", "us"),
    ("exec.v1.blocking.spin_over_suspend", "ratio"),
    ("exec.v2.blocking.spin_over_suspend", "ratio"),
    ("exec.submit_overhead_us_p50", "us"),
    ("exec.pool.spawn_us", "us"),
    ("exec.retried_jobs", "count"),
    ("exec.blocking.min_available_workers", "count"),
    // fig2 path
    ("gen.generate_us_p50.window", "us"),
    ("gen.generate_us_p50.plain", "us"),
    ("core.battery_cold_us_p50.global", "us"),
    ("core.battery_cold_us_p50.partitioned", "us"),
    ("core.battery_warm_us_p50.global", "us"),
    ("core.battery_warm_us_p50.partitioned", "us"),
    ("graph.derive_us_p50", "us"),
    ("core.global_rta_us_p50", "us"),
    ("core.partitioned.worstfit_us_p50", "us"),
    ("core.partitioned.algorithm1_us_p50", "us"),
    ("sweep.speedup_2t", "ratio"),
    ("sweep.cell_overhead_ns", "ns"),
    ("sweep.closure_share", "ratio"),
    ("sweep.skipped_share", "ratio"),
    ("sweep.errors", "count"),
    ("sweep.call_us_p50", "us"),
];

/// Measured metrics of one pass, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records a value backed by `n` samples.
    pub fn put(&mut self, name: impl Into<String>, value: f64, n: usize) {
        self.0.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            n,
        });
    }

    /// Records a counter or a ratio of counters.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.put(name, value, 0);
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Lays the measured values over a registered table: every
    /// registered name appears once, in table order, with 0 where this
    /// pass did not enter the layer.
    ///
    /// # Panics
    ///
    /// Panics when a measured name is not registered — a bug in the
    /// benchmark, caught by its own tests.
    #[must_use]
    pub fn over(&self, table: &[(&'static str, &'static str)]) -> Vec<(Metric, &'static str)> {
        for m in &self.0 {
            assert!(
                table.iter().any(|(name, _)| *name == m.name),
                "metric {} is not registered",
                m.name
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let metric = self.get(name).cloned().unwrap_or(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    n: 0,
                });
                (metric, unit)
            })
            .collect()
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Every oracle passed.
    pub correct: bool,
    /// Operations attempted in the counted cycles of the measured phase.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced pass), when one was made.
    pub per_layer: Option<Metrics>,
}

/// The percentile a metric name quotes (`…_p95_us`, `…_us_p50.hash`).
fn quoted_percentile(name: &str) -> Option<f64> {
    name.split(['_', '.'])
        .find_map(|part| part.strip_prefix('p')?.parse().ok())
}

/// Prints the measured metrics in registered order; a registered name
/// this pass did not measure is left out. Every timing carries its
/// sample count, and a percentile with fewer than ten samples beyond it
/// is marked with the highest one its samples do support.
fn table(out: &mut String, metrics: &Metrics, registered: &[(&str, &str)]) {
    for &(name, unit) in registered {
        let Some(m) = metrics.get(name) else { continue };
        let mut n = String::new();
        if m.n > 0 {
            let _ = write!(n, "n={}", m.n);
            if quoted_percentile(name).is_some_and(|p| beyond(m.n, p) < MIN_BEYOND) {
                match highest_supported(m.n) {
                    Some(p) => _ = write!(n, " (supports p{p} at most)"),
                    None => n.push_str(" (supports no percentile)"),
                }
            }
        }
        let _ = writeln!(out, "  {name:<46} {:>16.4} {unit:<6} {n}", m.value);
    }
}

impl RunResult {
    /// The human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} == correct={} attempted={} failed={} failed_share={:.6}",
            self.workload,
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        table(&mut out, &self.end_to_end, END_TO_END);
        if let Some(layers) = &self.per_layer {
            let _ = writeln!(
                out,
                "  -- per layer (layers this workload does not enter are left out)"
            );
            table(&mut out, layers, PER_LAYER);
        }
        out
    }

    /// The contract's result object for one pass: `per_layer` metrics
    /// when `traced`, the end-to-end ones otherwise.
    #[must_use]
    pub fn json(&self, traced: bool) -> String {
        let rows = match (&self.per_layer, traced) {
            (Some(layers), true) => layers.over(PER_LAYER),
            _ => self.end_to_end.over(END_TO_END),
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (m, unit)) in rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} registered twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_it_is_marked() {
        assert_eq!(quoted_percentile("latency_p95_us"), Some(95.0));
        assert_eq!(
            quoted_percentile("serve.supervisor.execute_us_p50.hash"),
            Some(50.0)
        );
        assert_eq!(quoted_percentile("peak_rss_mb"), None);
        assert_eq!(
            quoted_percentile("core.partitioned.worstfit_us_p50"),
            Some(50.0)
        );
        let mut m = Metrics::default();
        m.put("serve.ladder.climb_us_p99", 1.0, 400);
        m.put("serve.ladder.climb_us_p50", 1.0, 400);
        let mut out = String::new();
        table(&mut out, &m, PER_LAYER);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].ends_with("n=400"), "{out}");
        assert!(lines[1].ends_with("n=400 (supports p95 at most)"), "{out}");
    }

    #[test]
    fn json_lists_every_registered_metric_once() {
        let mut e2e = Metrics::default();
        e2e.put("latency_p50_us", 12.5, 100);
        let mut layers = Metrics::default();
        layers.count("sweep.errors", 0.0);
        let result = RunResult {
            workload: "fig2-sweep",
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: e2e,
            per_layer: Some(layers),
        };
        let line = result.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert_eq!(
            result.json(true).matches("\"unit\"").count(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn an_unregistered_name_is_a_bug() {
        let mut m = Metrics::default();
        m.count("no.such.metric", 1.0);
        let _ = m.over(PER_LAYER);
    }
}
