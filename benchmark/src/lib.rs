//! # rtpool-benchmark
//!
//! The benchmark registered in `BENCHMARK.json`: five workloads over the
//! three paths a user of `rtpool` waits on — request bytes in → verdict
//! bytes out (`serve`), job release → sink completion (`exec`), seed →
//! Figure 2 series (`fig2`) — each reporting the same end-to-end metrics
//! from an untraced pass and a per-layer ledger from a traced pass.
//!
//! The program is measured **from outside**: every number comes from the
//! benchmark's own `Instant` clock around calls into public functions,
//! plus the `record_trace` / `with_trace` flags the program already has.
//! See `README.md` for the metric glossary and the workload rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod exec_wl;
pub mod fig2_wl;
pub mod inputs;
pub mod json;
pub mod oracle;
pub mod report;
pub mod serve_wl;
pub mod spans;
pub mod stats;

use std::path::Path;
use std::time::{Duration, Instant};

use inputs::ExecShape;
use oracle::Findings;
use report::{Metrics, RunResult};
use spans::SpanLog;
use stats::Slice;

/// Set-ups made by a run that reports `setup_s` (their median is
/// reported).
pub const SETUP_REPEATS: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serve path, every request misses the interner.
    AdmitCold,
    /// Serve path, reads by hash beside edits beside re-parsed hits.
    AdmitResident,
    /// Exec path, dispatch only (v2 engine, work stealing).
    ExecFlat,
    /// Exec path, barrier suspend → wake (v1 engine, global FIFO).
    ExecBlocking,
    /// Fig2 path: generate, derive, analyse, partition.
    Fig2Sweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::AdmitCold,
        Workload::AdmitResident,
        Workload::ExecFlat,
        Workload::ExecBlocking,
        Workload::Fig2Sweep,
    ];

    /// The name registered in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdmitCold => "admit-cold",
            Workload::AdmitResident => "admit-resident",
            Workload::ExecFlat => "exec-flat",
            Workload::ExecBlocking => "exec-blocking",
            Workload::Fig2Sweep => "fig2-sweep",
        }
    }

    /// Parses a registered name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which passes a run makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Passes {
    /// The untraced pass only: end-to-end metrics, set-up repeated.
    Untraced,
    /// The untraced pass (one set-up) and the traced pass.
    Traced,
    /// Both, with the set-up repeated: the full report.
    Both,
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(typical: Slice, n: usize, setup_s: &[f64], rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("throughput_ops_s", typical.throughput, n);
    m.put("latency_p50_us", typical.p50_us, n);
    m.put("latency_p95_us", typical.p95_us, n);
    m.put("setup_s", stats::median(setup_s), setup_s.len());
    m.put("peak_rss_mb", rss_mb, 1);
    m
}

/// How the measured phase is laid out: a run that reports `setup_s`
/// sets up [`SETUP_REPEATS`] times and measures a share of the phase on
/// each set-up, so that the run's numbers are a median over several
/// freshly spawned pools or servers (and several thread placements)
/// rather than whatever one of them happened to get.
fn parts(passes: Passes, seconds: u64) -> (usize, Duration) {
    let parts = if passes == Passes::Traced {
        1
    } else {
        SETUP_REPEATS
    };
    (parts, Duration::from_secs(seconds) / parts as u32)
}

/// Times one set-up.
fn timed<T>(setup_s: &mut Vec<f64>, set_up: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let prepared = set_up();
    setup_s.push(t0.elapsed().as_secs_f64());
    prepared
}

/// Sets up and measures `parts` times, merging the parts; returns the
/// whole with the inputs of the last part.
fn measure_in_parts<P, M, I>(
    parts: usize,
    setup_s: &mut Vec<f64>,
    set_up: impl Fn() -> P,
    measure: impl Fn(P) -> (M, I),
    absorb: impl Fn(&mut M, M),
) -> (M, I) {
    let (mut whole, mut inputs) = measure(timed(setup_s, &set_up));
    for _ in 1..parts {
        let (part, last) = measure(timed(setup_s, &set_up));
        absorb(&mut whole, part);
        inputs = last;
    }
    (whole, inputs)
}

/// Runs one workload: set-up from the seed, the time-boxed untraced
/// pass, the oracles, and — if asked — the traced pass, whose spans are
/// written to `<out_dir>/<workload>.trace.json`.
#[must_use]
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    passes: Passes,
    out_dir: &Path,
) -> (RunResult, Findings) {
    let traced = passes != Passes::Untraced;
    let (parts, phase) = parts(passes, seconds);
    let mut log = SpanLog::default();
    let mut findings = Findings::default();
    let mut setup_s = Vec::with_capacity(parts);
    let (attempted, failed, typical, n, rss, per_layer);
    match workload {
        Workload::AdmitCold | Workload::AdmitResident => {
            let generate = match workload {
                Workload::AdmitCold => inputs::admit_cold,
                _ => inputs::admit_resident,
            };
            let (mut measured, inputs) = measure_in_parts(
                parts,
                &mut setup_s,
                || serve_wl::set_up(generate(seed)),
                |prepared| serve_wl::measure(prepared, phase),
                serve_wl::Measured::absorb,
            );
            rss = peak_rss_mb();
            findings.extend(std::mem::take(&mut measured.findings));
            (attempted, failed) = (measured.attempted, measured.failed);
            (typical, n) = (Slice::median_of(&measured.slices), measured.latency.len());
            per_layer = traced.then(|| {
                let (m, f) = serve_wl::layers(&inputs, &mut measured, &mut log);
                findings.extend(f);
                m
            });
        }
        Workload::ExecFlat | Workload::ExecBlocking => {
            let shape = if workload == Workload::ExecFlat {
                ExecShape::Flat
            } else {
                ExecShape::Blocking
            };
            let (mut measured, inputs) = measure_in_parts(
                parts,
                &mut setup_s,
                || exec_wl::set_up(inputs::exec(shape, seed)),
                |prepared| exec_wl::measure(prepared, phase),
                exec_wl::Measured::absorb,
            );
            rss = peak_rss_mb();
            findings.extend(std::mem::take(&mut measured.findings));
            (attempted, failed) = (measured.attempted, measured.failed);
            (typical, n) = (Slice::median_of(&measured.slices), measured.latency.len());
            per_layer = traced.then(|| {
                let (m, f) = exec_wl::layers(&inputs, &mut measured, &mut log);
                findings.extend(f);
                m
            });
        }
        Workload::Fig2Sweep => {
            // The parts share one stream of sweep seeds, so they add to
            // one `Measured` instead of being merged afterwards.
            let mut measured = fig2_wl::Measured::empty();
            let mut prepared = timed(&mut setup_s, || fig2_wl::set_up(seed));
            fig2_wl::measure(&mut prepared, phase, &mut measured);
            for _ in 1..parts {
                prepared = timed(&mut setup_s, || fig2_wl::set_up(seed));
                fig2_wl::measure(&mut prepared, phase, &mut measured);
            }
            rss = peak_rss_mb();
            findings.extend(std::mem::take(&mut measured.findings));
            if seed == inputs::DEFAULT_SEED {
                findings.extend(oracle::check_golden(&prepared.expected));
            }
            (attempted, failed) = (measured.attempted, measured.failed);
            (typical, n) = (measured.whole_run(), measured.latency.len());
            per_layer = traced.then(|| {
                let (m, f) = fig2_wl::layers(&prepared, &mut measured, &mut log);
                findings.extend(f);
                m
            });
        }
    }
    if traced {
        if let Err(e) = log.write_json(out_dir, workload.name()) {
            findings.fail(format!(
                "cannot write the span log under {}: {e}",
                out_dir.display()
            ));
        }
    }
    let result = RunResult {
        workload: workload.name(),
        correct: findings.is_empty(),
        attempted,
        failed,
        end_to_end: end_to_end(typical, n, &setup_s, rss),
        per_layer,
    };
    (result, findings)
}
