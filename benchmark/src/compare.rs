//! `compare A.json B.json`: two sets of runs, judged metric by metric
//! against the bounds registered in `BENCHMARK.json`.
//!
//! Each input holds one result record per line, as `run --append`
//! writes them. Per workload and end-to-end metric the medians of the
//! two sets are compared; a set whose own spread (interquartile range
//! over median) exceeds the bound cannot resolve a difference of that
//! size, and the metric is labelled *unresolved* — unless every run of
//! one side beats every run of the other.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// `failed ÷ attempted` may grow by this much (absolute).
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// A registered end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Registered {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the first set's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end metrics out of `BENCHMARK.json`.
///
/// # Errors
///
/// A description of what is missing or malformed.
pub fn registry(text: &str) -> Result<Vec<Registered>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str);
            let better = entry.get("better").and_then(Value::as_str);
            let bound = entry.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Registered {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {entry:?}"
                )),
            }
        })
        .collect()
}

/// Untraced runs of one set, by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// Per workload, per metric: one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Per workload: `(attempted, failed)` summed over the runs.
    counts: BTreeMap<String, (f64, f64)>,
}

impl RunSet {
    /// Parses a file of result records (one JSON object per line).
    /// Records of traced runs are skipped.
    ///
    /// # Errors
    ///
    /// The first line that is not a result record.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = RunSet::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("line {}: {what}", n + 1);
            let record = json::parse(line).map_err(|e| bad(&e))?;
            if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
                continue;
            }
            let workload = record
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("no workload"))?;
            let metrics = record
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| bad("no metrics"))?;
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("metric without a value"))?;
                set.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
            let count = |key| record.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let sums = set.counts.entry(workload.to_string()).or_default();
            sums.0 += count("attempted");
            sums.1 += count("failed");
        }
        Ok(set)
    }
}

/// How one metric of one workload compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the first set by more than the bound.
    Regression,
    /// A set's own spread exceeds the bound.
    Unresolved,
}

/// Interquartile range over median; `None` below two runs.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn judge(a: &[f64], b: &[f64], metric: &Registered) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (mb - ma) / ma.abs();
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    // Set-up time is the median of several set-ups inside each run and
    // is judged on medians alone, as the benchmark contract does.
    let noisy = metric.name != "setup_s"
        && [a, b]
            .iter()
            .any(|v| spread(v).is_some_and(|s| s > metric.bound));
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compares two run sets. Returns the report and the worst verdict.
#[must_use]
pub fn compare(a: &RunSet, b: &RunSet, metrics: &[Registered]) -> (String, Verdict) {
    let mut out = String::new();
    let mut worst = Verdict::Ok;
    let mut note = |v: Verdict| {
        if v == Verdict::Regression || (v == Verdict::Unresolved && worst == Verdict::Ok) {
            worst = v;
        }
    };
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "B spread"
    );
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            let _ = writeln!(out, "{workload:<15} missing from the second set");
            note(Verdict::Regression);
            continue;
        };
        for metric in metrics {
            let (Some(va), Some(vb)) = (a_metrics.get(&metric.name), b_metrics.get(&metric.name))
            else {
                let _ = writeln!(out, "{workload:<15} {:<18} missing from a set", metric.name);
                note(Verdict::Regression);
                continue;
            };
            let (worse, verdict) = judge(va, vb, metric);
            note(verdict);
            let pct = |s: Option<f64>| {
                s.map_or_else(|| "n/a".to_string(), |s| format!("{:.2}%", s * 100.0))
            };
            let _ = writeln!(
                out,
                "{workload:<15} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>8} {:>8}  {}",
                metric.name,
                median(va),
                median(vb),
                worse * 100.0,
                metric.bound * 100.0,
                pct(spread(va)),
                pct(spread(vb)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |set: &RunSet| {
            let (attempted, failed) = set.counts.get(workload).copied().unwrap_or_default();
            failed / attempted.max(1.0)
        };
        let (sa, sb) = (share(a), share(b));
        let verdict = if sb - sa > FAILED_SHARE_BOUND {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        note(verdict);
        let _ = writeln!(
            out,
            "{workload:<15} {:<18} {sa:>14.6} {sb:>14.6} {:>+9.6} {:>7} {:>8} {:>8}  {}",
            "failed_share",
            sb - sa,
            FAILED_SHARE_BOUND,
            "",
            "",
            if verdict == Verdict::Ok {
                "ok"
            } else {
                "REGRESSION"
            }
        );
    }
    (out, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGISTRY: &str = r#"{"end_to_end": [
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    fn runs(latency: &[f64], throughput: f64, failed: u64) -> RunSet {
        let text: String = latency
            .iter()
            .map(|l| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                     \"attempted\": 1000, \"failed\": {failed}, \"metrics\": {{\
                     \"latency_p50_us\": {{\"value\": {l}, \"unit\": \"us\"}}, \
                     \"throughput_ops_s\": {{\"value\": {throughput}, \"unit\": \"ops/s\"}}, \
                     \"setup_s\": {{\"value\": 1.0, \"unit\": \"s\"}}}}}}\n"
                )
            })
            .collect();
        RunSet::parse(&text).unwrap()
    }

    #[test]
    fn same_numbers_agree_and_a_slowdown_is_a_regression() {
        let metrics = registry(REGISTRY).unwrap();
        assert_eq!(metrics.len(), 3);
        let base = runs(&[100.0, 101.0, 99.0, 100.5], 5000.0, 0);
        assert_eq!(compare(&base, &base, &metrics).1, Verdict::Ok);
        let slower = runs(&[115.0, 116.0, 114.0, 115.5], 5000.0, 0);
        let (report, verdict) = compare(&base, &slower, &metrics);
        assert_eq!(verdict, Verdict::Regression);
        assert!(report.contains("REGRESSION"));
        // Direction: lower throughput is worse, higher is not.
        assert_eq!(
            compare(&base, &runs(&[100.0; 4], 4000.0, 0), &metrics).1,
            Verdict::Regression
        );
        assert_eq!(
            compare(&base, &runs(&[100.0; 4], 9000.0, 0), &metrics).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_noisy_set_is_unresolved_unless_one_side_always_wins() {
        let metrics = registry(REGISTRY).unwrap();
        let noisy = runs(&[80.0, 100.0, 120.0, 140.0], 5000.0, 0);
        let base = runs(&[100.0, 101.0, 99.0, 100.5], 5000.0, 0);
        assert_eq!(compare(&base, &noisy, &metrics).1, Verdict::Unresolved);
        let faster = runs(&[40.0, 50.0, 60.0, 70.0], 5000.0, 0);
        assert_eq!(compare(&base, &faster, &metrics).1, Verdict::Ok);
    }

    #[test]
    fn more_failures_are_a_regression() {
        let metrics = registry(REGISTRY).unwrap();
        let base = runs(&[100.0; 4], 5000.0, 0);
        assert_eq!(
            compare(&base, &runs(&[100.0; 4], 5000.0, 5), &metrics).1,
            Verdict::Regression
        );
    }
}
