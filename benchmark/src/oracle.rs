//! Independent checks of the program's outputs, computed from the
//! generated inputs and run outside every timed region. Any failure
//! makes the run incorrect and the command exit non-zero.

use rtpool_bench::fig2::{Inset, SeriesPoint};
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::{deadlock, TaskSet};
use rtpool_exec::JobReport;
use rtpool_graph::Dag;
use rtpool_sim::{SchedulingPolicy, SimConfig};

/// Failed checks, as human-readable lines. Empty means correct.
#[derive(Debug, Default)]
pub struct Findings(Vec<String>);

impl Findings {
    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.0.push(what.into());
    }

    /// Records `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The failed checks.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.0
    }

    /// Appends another set of findings.
    pub fn extend(&mut self, other: Findings) {
        self.0.extend(other.0);
    }
}

/// The verdict the admission service must give for `set` on `m`
/// threads: no task can deadlock, and the exact-antichain RTA finds
/// every task schedulable.
#[must_use]
pub fn admits(set: &TaskSet, m: usize) -> bool {
    set.iter()
        .all(|(_, task)| deadlock::check_global(task.dag(), m).is_deadlock_free())
        && global::analyze(set, m, ConcurrencyModel::LimitedExact).is_schedulable()
}

/// Longest simulated horizon of a replay, in WCET units.
const SIM_HORIZON_CAP: u64 = 100_000;

/// Replays admitted sets through the simulator: an admitted set must
/// neither stall nor miss a deadline under synchronous periodic release
/// (jobs still running when the horizon ends are not misses).
#[must_use]
pub fn replay_admitted(sets: &[(TaskSet, usize)]) -> Findings {
    let mut findings = Findings::default();
    for (k, (set, m)) in sets.iter().enumerate() {
        // Three of the longest periods, capped: UUniFast now and then
        // hands a task a vanishing utilization and so an enormous period.
        let longest = set.iter().map(|(_, t)| t.period()).max().unwrap_or(1);
        let horizon = longest.saturating_mul(3).min(SIM_HORIZON_CAP);
        match SimConfig::periodic(SchedulingPolicy::Global, *m, horizon).run(set) {
            Err(e) => findings.fail(format!("sim: admitted set {k} on m={m}: {e}")),
            Ok(out) => {
                findings.check(!out.any_stall(), || {
                    format!("sim: admitted set {k} stalls on m={m}")
                });
                let misses: usize = out.tasks().iter().map(|t| t.deadline_misses).sum();
                findings.check(misses == 0, || {
                    format!("sim: admitted set {k} misses {misses} deadline(s) on m={m}")
                });
            }
        }
    }
    findings
}

/// Checks one job report against its graph: every node ran once, in an
/// order that respects every edge, and the pool never had fewer than
/// `floor` workers available.
#[must_use]
pub fn check_job(dag: &Dag, report: &JobReport, floor: usize) -> Findings {
    let mut findings = Findings::default();
    let n = dag.node_count();
    findings.check(report.executed_nodes == n, || {
        format!("exec: executed {} of {n} nodes", report.executed_nodes)
    });
    let mut position = vec![usize::MAX; n];
    for (pos, &v) in report.completion_order.iter().enumerate() {
        if v >= n || position[v] != usize::MAX {
            findings.fail(format!("exec: node {v} completed twice or is unknown"));
            return findings;
        }
        position[v] = pos;
    }
    findings.check(position.iter().all(|&p| p != usize::MAX), || {
        "exec: completion order misses a node".to_string()
    });
    if findings.is_empty() {
        for v in dag.node_ids() {
            for &s in dag.successors(v) {
                findings.check(position[v.index()] < position[s.index()], || {
                    format!(
                        "exec: {} completed after its successor {}",
                        v.index(),
                        s.index()
                    )
                });
            }
        }
    }
    findings.check(report.min_available_workers >= floor, || {
        format!(
            "exec: available workers fell to {} (< m - b = {floor})",
            report.min_available_workers
        )
    });
    findings
}

/// One fig2 run's series.
pub type Series = Vec<(Inset, Vec<SeriesPoint>)>;

/// A stable digest of a series (FNV-1a over every point's fields; the
/// ratios by their bit patterns).
#[must_use]
pub fn series_digest(series: &Series) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (inset, points) in series {
        mix(u64::from(inset.letter().as_bytes()[0]));
        for p in points {
            mix(p.x as u64);
            mix(p.proposed.to_bits());
            mix(p.baseline.to_bits());
            mix(p.samples as u64);
            mix(p.skipped as u64);
            mix(p.errors as u64);
        }
    }
    h
}

/// Insets a, c and e analyse global scheduling.
#[must_use]
pub fn is_global(inset: Inset) -> bool {
    matches!(inset, Inset::A | Inset::C | Inset::E)
}

/// Checks a series for shape and order: every point accounts for all
/// of its `sets_per_point` samples, and on every global point (insets
/// a, c, e) the limited-concurrency test admits no more than the
/// oblivious one.
#[must_use]
pub fn check_series(series: &Series, sets_per_point: usize) -> Findings {
    let mut findings = Findings::default();
    for (inset, points) in series {
        findings.check(points.len() == inset.x_values().len(), || {
            format!(
                "fig2: inset ({}) has {} points",
                inset.letter(),
                points.len()
            )
        });
        for p in points {
            findings.check(p.samples + p.skipped + p.errors == sets_per_point, || {
                format!("fig2: inset ({}) x={} lost samples", inset.letter(), p.x)
            });
            let global = is_global(*inset);
            findings.check(!global || p.proposed <= p.baseline + 1e-12, || {
                format!(
                    "fig2: inset ({}) x={}: limited {} > full {}",
                    inset.letter(),
                    p.x,
                    p.proposed,
                    p.baseline
                )
            });
        }
    }
    findings
}

/// Series digests of the default seed's eight sweeps, as committed.
const GOLDEN: &str = include_str!("../golden/fig2_default_seed.txt");

/// The golden file's content for `digests` (one per sweep of the cycle).
#[must_use]
pub fn golden_text(digests: &[u64]) -> String {
    let mut out = format!("sets_per_point {}\n", crate::inputs::FIG2_SETS_PER_POINT);
    for (k, d) in digests.iter().enumerate() {
        out.push_str(&format!("sweep {k} digest {d:016x}\n"));
    }
    out
}

/// For the default seed the series must equal the committed ones:
/// Figure 2 stays reproducible across commits, not only across threads.
#[must_use]
pub fn check_golden(digests: &[u64]) -> Findings {
    let mut findings = Findings::default();
    let text = golden_text(digests);
    findings.check(text.trim() == GOLDEN.trim(), || {
        format!(
            "fig2: default-seed series differ from golden/fig2_default_seed.txt; computed:\n{text}"
        )
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, ExecShape};
    use rtpool_exec::{PoolConfig, QueueDiscipline, ThreadPool};
    use std::time::Duration;

    #[test]
    fn job_check_accepts_a_real_run_and_rejects_a_reordered_one() {
        let dag = inputs::exec(ExecShape::Blocking, 3).dag;
        let mut pool = ThreadPool::new(
            PoolConfig::new(4, QueueDiscipline::GlobalFifo).with_time_scale(Duration::ZERO),
        );
        let mut report = pool.run(&dag).expect("m = 4 > b = 2 cannot stall");
        assert!(check_job(&dag, &report, 2).is_empty());
        report.completion_order.reverse();
        assert!(!check_job(&dag, &report, 2).is_empty());
        report.completion_order.reverse();
        assert!(!check_job(&dag, &report, 5).is_empty());
    }
}
