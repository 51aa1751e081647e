//! The lint engine: runs the rule registry over `.rtp` sources,
//! in-memory task sets, and pool configurations.

use std::collections::BTreeSet;

use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::{TaskVerdict, UnschedulableReason};
use rtpool_core::deadlock::{self, GlobalVerdict};
use rtpool_core::partition::{algorithm1_with, worst_fit, WorstFit, MAX_PARTITIONED_THREADS};
use rtpool_core::textfmt::{
    parse_task_set_with_spans, ParseTaskError, SourceSpans, Span, TaskSpans,
};
use rtpool_core::{sizing, SyncBackend, Task, TaskId, TaskSet};
use rtpool_exec::{PoolConfig, QueueDiscipline};
use rtpool_graph::{Dag, GraphError, NodeId};

use crate::code::{self, RuleCode};
use crate::diag::{Diagnostic, Fix, LintReport, Severity};

/// Options of one lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// The pool size `m` the deadlock / schedulability rules analyze
    /// against.
    pub m: usize,
    /// Codes to suppress entirely.
    pub allow: BTreeSet<RuleCode>,
    /// Codes to promote to [`Severity::Error`].
    pub deny: BTreeSet<RuleCode>,
    /// Promote every warning to an error (`--deny warnings`).
    pub deny_warnings: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            m: 4,
            allow: BTreeSet::new(),
            deny: BTreeSet::new(),
            deny_warnings: false,
        }
    }
}

impl LintOptions {
    /// Options analyzing against a pool of `m` workers.
    #[must_use]
    pub fn with_m(m: usize) -> Self {
        LintOptions {
            m,
            ..LintOptions::default()
        }
    }

    /// Applies the allow/deny policy to a finding: `None` when allowed
    /// away, otherwise the finding with its effective severity.
    fn admit(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        if self.allow.contains(&d.code) {
            return None;
        }
        if self.deny.contains(&d.code) || (self.deny_warnings && d.severity == Severity::Warning) {
            d.severity = Severity::Error;
        }
        Some(d)
    }
}

/// Lints `.rtp` source text and returns the parsed set alongside the
/// report, so callers (the `analyze` CLI) do not parse twice.
///
/// The second component is `None` exactly when parsing failed; the
/// parse failure is then the report's single diagnostic.
#[must_use]
pub fn check_source(
    file: impl Into<String>,
    text: &str,
    opts: &LintOptions,
) -> (LintReport, Option<(TaskSet, SourceSpans)>) {
    let file = file.into();
    match parse_task_set_with_spans(text) {
        Err(e) => {
            let mut report = LintReport {
                file: Some(file),
                diagnostics: Vec::new(),
            };
            if let Some(d) = opts.admit(parse_diagnostic(&e)) {
                report.diagnostics.push(d);
            }
            (report, None)
        }
        Ok((set, spans)) => {
            let report = LintReport {
                file: Some(file),
                diagnostics: semantic_diagnostics(&set, Some(&spans), opts),
            };
            (report, Some((set, spans)))
        }
    }
}

/// Lints `.rtp` source text: parse diagnostics (RT0xx) when the text is
/// malformed, semantic rules (RT1xx–RT3xx) otherwise.
#[must_use]
pub fn lint_source(file: impl Into<String>, text: &str, opts: &LintOptions) -> LintReport {
    check_source(file, text, opts).0
}

/// Lints an in-memory task set (no source spans: diagnostics carry no
/// locations, only messages, notes, and suggestions).
#[must_use]
pub fn lint_task_set(set: &TaskSet, opts: &LintOptions) -> LintReport {
    LintReport {
        file: None,
        diagnostics: semantic_diagnostics(set, None, opts),
    }
}

/// Pre-run validation of a [`PoolConfig`] against the job it is about to
/// execute, as diagnostics: RT303 (unusable config), RT305/RT306
/// (partitioned-mapping coverage and Lemma 3), RT302 (pool below the
/// deadlock-free minimum without a sufficient growth reserve).
///
/// This is the entry point the executor-facing tooling routes pre-run
/// checks through; an empty vector means the configuration is safe for
/// `dag` as far as static analysis can tell.
#[must_use]
pub fn lint_config(config: &PoolConfig, dag: &Dag) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e) = config.validate() {
        let suggested_workers = match &config.discipline {
            QueueDiscipline::Partitioned(mapping) => mapping.pool_size().max(1),
            _ => config.workers.max(1),
        };
        out.push(
            Diagnostic::new(code::RT303, Severity::Error, e.to_string())
                .with_note("ThreadPool::try_new rejects this configuration before any node runs")
                .with_fix(
                    Fix::new(format!("set PoolConfig.workers = {suggested_workers}"))
                        .with_data("suggested_workers", suggested_workers as u64),
                ),
        );
        return out;
    }
    if let QueueDiscipline::Partitioned(mapping) = &config.discipline {
        if mapping.node_count() != dag.node_count() {
            out.push(
                Diagnostic::new(
                    code::RT305,
                    Severity::Error,
                    format!(
                        "partitioned mapping covers {} nodes but the job graph has {}",
                        mapping.node_count(),
                        dag.node_count()
                    ),
                )
                .with_note("the pool rejects the job as incompatible before any node runs"),
            );
            return out;
        }
        let verdict = deadlock::check_partitioned(dag, config.workers, mapping);
        if !verdict.is_deadlock_free() {
            out.push(
                Diagnostic::new(
                    code::RT306,
                    Severity::Error,
                    format!(
                        "the configured node-to-thread mapping admits a deadlock on {} workers (Lemma 3)",
                        config.workers
                    ),
                )
                .with_note(format!("verdict: {verdict:?}"))
                .with_suggestion(
                    "partition with Algorithm 1 (partition::algorithm1), which is delay-free by construction",
                ),
            );
        }
    }
    let min_safe = sizing::min_threads_deadlock_free(dag);
    let reserve = sizing::reserve_for(dag, config.workers);
    if reserve > 0 && config.recovery.growth_reserve() < reserve {
        let suspended = dag.max_blocking_antichain().len();
        out.push(
            Diagnostic::new(
                code::RT302,
                Severity::Warning,
                format!(
                    "pool of {} workers is below the deadlock-free minimum of {min_safe} for this graph",
                    config.workers
                ),
            )
            .with_note(format!(
                "{suspended} blocking forks can be suspended simultaneously (maximum antichain), \
                 eating every worker"
            ))
            .with_suggestion(format!(
                "configure RecoveryPolicy::GrowPool {{ reserve: {reserve} }}, or run on m >= {min_safe} workers"
            ))
            .with_fix(
                Fix::new(format!(
                    "set PoolConfig.recovery = GrowPool {{ reserve: {reserve} }} or PoolConfig.workers = {min_safe}"
                ))
                .with_data("suggested_reserve", reserve as u64)
                .with_data("suggested_workers", min_safe as u64),
            ),
        );
    }
    out
}

/// Renders a parse failure as a diagnostic (RT0xx family).
fn parse_diagnostic(e: &ParseTaskError) -> Diagnostic {
    let code = code::rule_for_parse_error(e);
    let message = match e {
        ParseTaskError::Syntax { message, .. } => message.clone(),
        ParseTaskError::UnknownName { name, .. } => format!("unknown node name `{name}`"),
        ParseTaskError::DuplicateName { name, .. } => {
            format!("node name `{name}` declared twice")
        }
        ParseTaskError::Graph { source, .. } => format!("invalid task graph: {source}"),
        ParseTaskError::Timing { source, .. } => format!("invalid timing parameters: {source}"),
        other => other.to_string(),
    };
    let mut d = Diagnostic::new(code, Severity::Error, message).with_span(e.span());
    if let ParseTaskError::Graph { source, .. } = e {
        // The message already embeds the witness nodes.
        d = d.with_note(match source {
            GraphError::VolumeOverflow => {
                "every path length and per-core load is bounded by the volume, so the \
                 analyses need the WCETs of one task to sum within u64"
            }
            _ => {
                "the DAC 2019 model restricts task graphs to single-source, single-sink DAGs \
                 with non-crossing blocking regions (Section 2)"
            }
        });
    }
    d
}

/// Runs every semantic rule over the set.
fn semantic_diagnostics(
    set: &TaskSet,
    spans: Option<&SourceSpans>,
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let m = opts.m.max(1);
    let mut out = Vec::new();
    let emit = |d: Diagnostic, out: &mut Vec<Diagnostic>| {
        if let Some(d) = opts.admit(d) {
            out.push(d);
        }
    };

    for (id, task) in set.iter() {
        let t_spans = spans.map(|s| s.task(id));
        for d in deadlock_rules(id, task, m, set.backend(), t_spans) {
            emit(d, &mut out);
        }
        for d in structure_rules(id, task, t_spans) {
            emit(d, &mut out);
        }
        for d in partition_rules(id, task.dag(), m, t_spans) {
            emit(d, &mut out);
        }
    }
    for d in set_rules(set, m, spans) {
        emit(d, &mut out);
    }
    out
}

/// RT101 / RT102 / RT103 / RT104: Section 3 deadlock analysis,
/// re-derived per sync backend.
///
/// Under [`SyncBackend::Spin`] two suspend-mode reliefs are *not*
/// available, so RT101 widens:
///
/// * the exact antichain certificate relies on suspended workers freeing
///   their cores for the remaining work — a spinner never does, so only
///   the `l\u{304} = m − b\u{304} ≥ 1` floor certifies a spin pool;
/// * a `GrowPool` rescue cannot resolve a spin stall — the spinners keep
///   their cores, so rescue workers have nowhere to run.
///
/// Consequently a floor-exhausted task (`b\u{304} >= m`) is an RT101
/// *error* under spin even when the antichain is smaller than `m`
/// (suspend mode keeps it an RT102 warning), and spin-mode RT101 never
/// suggests `GrowPool`.
fn deadlock_rules(
    id: TaskId,
    task: &Task,
    m: usize,
    backend: SyncBackend,
    spans: Option<&TaskSpans>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let dag = task.dag();
    if dag.blocking_forks().is_empty() {
        return out;
    }
    let b_bar = dag.delay_profile().max_delay_count();
    let floor = deadlock::concurrency_floor(dag, m);
    match deadlock::check_global(dag, m) {
        GlobalVerdict::DeadlockPossible {
            suspended_antichain,
        } => {
            let (min_safe, verb) = if backend.is_spin() {
                (sizing::min_threads_spin(dag), "busy-wait on")
            } else {
                (sizing::min_threads_deadlock_free(dag), "suspend")
            };
            let mut d = Diagnostic::new(
                code::RT101,
                Severity::Error,
                format!(
                    "task {id} can deadlock on a pool of {m} workers ({} backend): {} blocking \
                     forks can {verb} every thread (Lemma 1)",
                    backend.as_str(),
                    suspended_antichain.len()
                ),
            );
            d = with_span(d, spans.map(TaskSpans::header));
            for &f in &suspended_antichain {
                if let Some(s) = spans.and_then(|t| t.blocking_decl(f).or_else(|| t.node(f))) {
                    d = d.with_label(s, "this fork's barrier can block a worker");
                }
            }
            d = d.with_note(format!(
                "concurrency floor l\u{304} = m \u{2212} b\u{304} = {m} \u{2212} {b_bar} = \
                 {floor}: no worker is guaranteed available while the barriers are pending \
                 (Section 3.1)"
            ));
            if backend.is_spin() {
                d = d
                    .with_note(
                        "a spin stall cannot be recovered by growing the pool: the spinning \
                         workers keep their cores, so rescue workers have nowhere to run",
                    )
                    .with_suggestion(format!(
                        "run on m >= {min_safe} workers (the smallest spin-certifiable pool for \
                         this task), or switch to the suspend backend"
                    ))
                    .with_fix(
                        Fix::new(format!("analyze and run with m = {min_safe}"))
                            .with_data("suggested_m", min_safe as u64),
                    );
            } else {
                let reserve = sizing::reserve_for(dag, m);
                d = d
                    .with_suggestion(format!(
                        "run on m >= {min_safe} workers (the smallest deadlock-free pool for \
                         this task), or configure RecoveryPolicy::GrowPool {{ reserve: {reserve} \
                         }} to recover at runtime"
                    ))
                    .with_fix(
                        Fix::new(format!("analyze and run with m = {min_safe}"))
                            .with_data("suggested_m", min_safe as u64)
                            .with_data("suggested_reserve", reserve as u64),
                    );
            }
            out.push(d);
        }
        GlobalVerdict::DeadlockFree { max_suspended, .. } => {
            if floor <= 0 && backend.is_spin() {
                // The antichain certificate does not transfer to spin:
                // this is a certification failure, not a proved deadlock.
                let min_safe = sizing::min_threads_spin(dag);
                let d = Diagnostic::new(
                    code::RT101,
                    Severity::Error,
                    format!(
                        "task {id} cannot be certified deadlock-free on {m} workers under the \
                         spin backend (b\u{304} = {b_bar} >= m = {m})"
                    ),
                )
                .with_note(format!(
                    "the exact antichain check (at most {max_suspended} simultaneously blocked \
                     workers) certifies the suspend backend only: it relies on suspended \
                     workers freeing their cores, which a spinner never does"
                ))
                .with_note(
                    "a spin stall cannot be recovered by growing the pool: the spinning \
                     workers keep their cores, so rescue workers have nowhere to run",
                )
                .with_suggestion(format!(
                    "run on m >= {min_safe} workers (l\u{304} >= 1 under the spin floor), or \
                     switch to the suspend backend"
                ))
                .with_fix(
                    Fix::new(format!("analyze and run with m = {min_safe}"))
                        .with_data("suggested_m", min_safe as u64),
                );
                out.push(with_span(d, spans.map(TaskSpans::header)));
            } else if floor <= 0 {
                let d = Diagnostic::new(
                    code::RT102,
                    Severity::Warning,
                    format!(
                        "the l\u{304} certificate cannot prove task {id} deadlock-free on {m} \
                         workers (b\u{304} = {b_bar} >= m = {m})"
                    ),
                )
                .with_note(format!(
                    "the exact antichain check certifies freedom: at most {max_suspended} of {m} \
                     workers can be suspended simultaneously"
                ))
                .with_note(
                    "the limited-concurrency schedulability test of Section 4.1 still rejects \
                     this task; consider more workers",
                );
                out.push(with_span(d, spans.map(TaskSpans::header)));
            }
            if floor > 0 {
                for region in dag.blocking_regions() {
                    let width = region.inner().len();
                    if width > floor as usize {
                        let fork = region.fork();
                        let d = Diagnostic::new(
                            code::RT103,
                            Severity::Warning,
                            format!(
                                "blocking region at `{}` of task {id} spawns {width} children \
                                 but only l\u{304} = {floor} workers are guaranteed available",
                                node_name(spans, fork)
                            ),
                        )
                        .with_note(
                            "children in excess of the floor serialize behind the suspended \
                             fork (the Figure 1(b) slowdown)",
                        );
                        out.push(with_span(
                            d,
                            spans.and_then(|t| t.blocking_decl(fork).or_else(|| t.node(fork))),
                        ));
                    }
                }
            }
            // RT104: a naive load-balancing placement deadlocks even
            // though the pool size is safe under global scheduling (so
            // m >= 1, as fewer suspended forks than m were found). No
            // placement is made for a pool past the partitioned bound.
            if m <= MAX_PARTITIONED_THREADS && algorithm1_with(dag, m, &mut WorstFit).is_ok() {
                let naive = worst_fit(dag, m);
                if !deadlock::check_partitioned(dag, m, &naive).is_deadlock_free() {
                    let d = Diagnostic::new(
                        code::RT104,
                        Severity::Info,
                        format!(
                            "a load-balancing (worst-fit) node placement of task {id} can \
                             deadlock under partitioned FIFO queues (Lemma 3)"
                        ),
                    )
                    .with_suggestion(
                        "partition with Algorithm 1 (PartitionStrategy::Algorithm1), which is \
                         delay-free by construction",
                    );
                    out.push(with_span(d, spans.map(TaskSpans::header)));
                }
            }
        }
    }
    out
}

/// RT023 / RT202 / RT204: per-task structural smells.
fn structure_rules(id: TaskId, task: &Task, spans: Option<&TaskSpans>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let dag = task.dag();
    // The model accepts blocking-typed endpoints (build() does not run
    // this check), but the paper's generation convention forbids them,
    // so the linter surfaces it as a warning.
    if let Err(e) = dag.validate_endpoints_non_blocking() {
        if let Some(&v) = e.nodes().first() {
            let d = Diagnostic::new(
                code::RT023,
                Severity::Warning,
                format!(
                    "the {} node `{}` of task {id} is part of a blocking region",
                    if v == dag.source() { "source" } else { "sink" },
                    node_name(spans, v)
                ),
            )
            .with_note(
                "the paper's generation convention keeps graph endpoints non-blocking (type \
                 NB); the analyses accept this graph, but generated workloads never look like it",
            );
            out.push(with_span(d, spans.and_then(|t| t.node(v))));
        }
    }
    for v in dag.node_ids() {
        if dag.wcet(v) == 0 {
            let mut fix =
                Fix::new("give the node a minimal one-unit WCET").with_data("suggested_wcet", 1);
            if let Some(span) = spans.and_then(|t| t.node(v)) {
                fix = fix.with_edit(span, format!("node {} 1", node_name(spans, v)));
            }
            let d = Diagnostic::new(
                code::RT202,
                Severity::Warning,
                format!("node `{}` of task {id} has zero WCET", node_name(spans, v)),
            )
            .with_note(
                "zero-WCET nodes contribute nothing to volume or critical path; if the node \
                 is structural only, this is fine",
            )
            .with_fix(fix);
            out.push(with_span(d, spans.and_then(|t| t.node(v))));
        }
    }
    if task.critical_path_length() > task.deadline() {
        // The smallest feasible header: D = len(τ), stretching T with it
        // when the critical path also exceeds the period (D ≤ T must keep
        // holding for the patched file to parse).
        let cp = task.critical_path_length();
        let period = task.period().max(cp);
        let mut fix = Fix::new(format!(
            "relax the deadline to the critical-path length {cp}"
        ))
        .with_data("suggested_deadline", cp)
        .with_data("suggested_period", period);
        if let Some(header) = spans.map(TaskSpans::header) {
            fix = fix.with_edit(header, format!("task period={period} deadline={cp}"));
        }
        let d = Diagnostic::new(
            code::RT204,
            Severity::Error,
            format!(
                "task {id} cannot meet its deadline: critical path {} exceeds deadline {}",
                task.critical_path_length(),
                task.deadline()
            ),
        )
        .with_note("no pool, however large, can shorten the critical path (density > 1)")
        .with_fix(fix);
        out.push(with_span(d, spans.map(TaskSpans::header)));
    }
    out
}

/// RT301: Algorithm 1 feasibility at the analyzed pool size. Past
/// [`MAX_PARTITIONED_THREADS`] Algorithm 1 is not run, and an info
/// diagnostic says so without failing the run.
fn partition_rules(id: TaskId, dag: &Dag, m: usize, spans: Option<&TaskSpans>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if dag.blocking_forks().is_empty() {
        return out;
    }
    if m > MAX_PARTITIONED_THREADS {
        let d = Diagnostic::new(
            code::RT301,
            Severity::Info,
            format!(
                "Algorithm 1 is not run for task {id} on {m} threads: the partitioned \
                 analysis refuses a pool past MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}"
            ),
        );
        out.push(with_span(d, spans.map(TaskSpans::header)));
        return out;
    }
    if let Err(failure) = algorithm1_with(dag, m, &mut WorstFit) {
        let mut d = Diagnostic::new(
            code::RT301,
            Severity::Warning,
            format!("Algorithm 1 cannot partition task {id} onto {m} threads"),
        );
        d = with_span(d, spans.map(TaskSpans::header));
        if let Some(s) = spans.and_then(|t| t.node(failure.node)) {
            d = d.with_label(s, "no safe thread remains for this node");
        }
        d = d.with_note(format!("{failure}")).with_note(
            "the paper counts a task without a delay-free mapping as unschedulable under \
                 partitioned scheduling (Section 4.2)",
        );
        out.push(d);
    }
    out
}

/// RT201 / RT205: set-level schedulability smells.
fn set_rules(set: &TaskSet, m: usize, spans: Option<&SourceSpans>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if set.is_empty() {
        return out;
    }
    let total_u = set.total_utilization();
    if total_u > m as f64 {
        out.push(
            Diagnostic::new(
                code::RT201,
                Severity::Error,
                format!("total utilization {total_u:.3} exceeds the pool size m = {m}"),
            )
            .with_note("long-run demand exceeds capacity: backlog grows without bound"),
        );
    }
    let result = global::analyze(set, m, ConcurrencyModel::Limited);
    for (i, verdict) in result.verdicts().iter().enumerate() {
        let id = TaskId(i);
        let task = set.task(id);
        if task.critical_path_length() > task.deadline() {
            continue; // RT204 already explains this task.
        }
        if let TaskVerdict::Unschedulable {
            reason: UnschedulableReason::ResponseTimeExceedsDeadline { bound },
        } = verdict
        {
            // The bound is clamped to u64::MAX, which a deadline of
            // u64::MAX equals.
            let deadline = task.deadline();
            let versus = if *bound > deadline {
                format!("bound {bound} > D = {deadline}")
            } else {
                format!("bound past {bound} = D")
            };
            let d = Diagnostic::new(
                code::RT205,
                Severity::Warning,
                format!(
                    "task {id} misses its deadline under the limited-concurrency RTA on {m} \
                     workers ({versus})"
                ),
            )
            .with_note(
                "Section 4.1 test: interference divided by l\u{304} = m \u{2212} b\u{304} \
                 instead of m",
            );
            out.push(with_span(d, spans.map(|s| s.task(id).header())));
        }
    }
    out
}

fn with_span(d: Diagnostic, span: Option<Span>) -> Diagnostic {
    match span {
        Some(s) => d.with_span(s),
        None => d,
    }
}

fn node_name(spans: Option<&TaskSpans>, v: NodeId) -> String {
    spans
        .and_then(|t| t.name(v))
        .map(str::to_owned)
        .unwrap_or_else(|| format!("v{}", v.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_exec::RecoveryPolicy;
    use rtpool_graph::DagBuilder;

    fn replicated(replicas: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(1, &[1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn deadlock_rule_fires_on_figure_1c() {
        let set = TaskSet::new(vec![
            Task::with_implicit_deadline(replicated(2), 1_000).unwrap()
        ]);
        let report = lint_task_set(&set, &LintOptions::with_m(2));
        assert!(report.codes().contains(&code::RT101));
        assert!(report.has_failures());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, code::RT101);
        assert!(d.suggestion.as_deref().unwrap().contains("m >= 3"));
        let fix = d.fix.as_ref().expect("RT101 carries a fix payload");
        assert!(fix.data.contains(&("suggested_m", 3)));
        assert!(fix.data.contains(&("suggested_reserve", 1)));
        assert!(fix.edits.is_empty(), "no source edit can fix pool sizing");
        // Safe pool: RT101 gone.
        let report = lint_task_set(&set, &LintOptions::with_m(3));
        assert!(!report.codes().contains(&code::RT101));
    }

    #[test]
    fn spin_backend_flips_floor_exhaustion_to_rt101() {
        // Two sequential blocking regions per branch, two branches:
        // antichain 2 < delay count 3. On 3 workers the suspend backend
        // warns (RT102, antichain certificate holds); spin errors
        // (RT101, no certificate transfers).
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f1, j1) = b.fork_join(2, &[5, 5], 2, true).unwrap();
            let (f2, j2) = b.fork_join(2, &[5, 5], 2, true).unwrap();
            b.add_edge(src, f1).unwrap();
            b.add_edge(j1, f2).unwrap();
            b.add_edge(j2, snk).unwrap();
        }
        let task = Task::with_implicit_deadline(b.build().unwrap(), 10_000).unwrap();
        let suspend = TaskSet::new(vec![task.clone()]);
        let spin = TaskSet::new(vec![task]).with_backend(SyncBackend::Spin);

        let report = lint_task_set(&suspend, &LintOptions::with_m(3));
        assert!(report.codes().contains(&code::RT102));
        assert!(!report.codes().contains(&code::RT101));

        let report = lint_task_set(&spin, &LintOptions::with_m(3));
        assert!(report.codes().contains(&code::RT101));
        assert!(!report.codes().contains(&code::RT102));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == code::RT101)
            .unwrap();
        assert!(d.message.contains("spin backend"));
        assert!(d.suggestion.as_deref().unwrap().contains("m >= 4"));
        let fix = d.fix.as_ref().unwrap();
        assert!(fix.data.contains(&("suggested_m", 4)));
        // No GrowPool rescue exists for a spin stall.
        assert!(!fix.data.iter().any(|(k, _)| *k == "suggested_reserve"));

        // The spin floor satisfied: no RT101 either way.
        let report = lint_task_set(&spin, &LintOptions::with_m(4));
        assert!(!report.codes().contains(&code::RT101));
    }

    #[test]
    fn spin_backend_rt101_on_symmetric_deadlock_drops_growpool() {
        let set = TaskSet::new(vec![
            Task::with_implicit_deadline(replicated(2), 1_000).unwrap()
        ])
        .with_backend(SyncBackend::Spin);
        let report = lint_task_set(&set, &LintOptions::with_m(2));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == code::RT101)
            .expect("Lemma 1 deadlock fires under spin too");
        assert!(d.message.contains("spin backend"));
        assert!(d.message.contains("busy-wait"));
        assert!(!d.suggestion.as_deref().unwrap().contains("GrowPool"));
        assert!(!d
            .fix
            .as_ref()
            .unwrap()
            .data
            .iter()
            .any(|(k, _)| *k == "suggested_reserve"));
    }

    #[test]
    fn allow_suppresses_and_deny_promotes() {
        let set = TaskSet::new(vec![
            Task::with_implicit_deadline(replicated(2), 1_000).unwrap()
        ]);
        let mut opts = LintOptions::with_m(2);
        opts.allow.insert(code::RT101);
        opts.allow.insert(code::RT301);
        let report = lint_task_set(&set, &opts);
        assert!(!report.codes().contains(&code::RT101));
        assert!(!report.codes().contains(&code::RT301));

        // Deny a warning-level rule: it becomes an error.
        let mut opts = LintOptions::with_m(3);
        let before = lint_task_set(&set, &opts);
        if let Some(w) = before
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Warning)
        {
            opts.deny.insert(w.code);
            let after = lint_task_set(&set, &opts);
            assert!(after
                .diagnostics
                .iter()
                .any(|d| d.code == w.code && d.severity == Severity::Error));
        }
    }

    #[test]
    fn deny_warnings_promotes_all_warnings() {
        let set = TaskSet::new(vec![
            Task::with_implicit_deadline(replicated(2), 1_000).unwrap()
        ]);
        let mut opts = LintOptions::with_m(3);
        opts.deny_warnings = true;
        let report = lint_task_set(&set, &opts);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.severity != Severity::Warning));
    }

    #[test]
    fn source_lint_carries_spans() {
        let text = "task period=100\n  node a 1\n  node b 0\n  edge a b\nend\n";
        let report = lint_source("mem.rtp", text, &LintOptions::with_m(2));
        let zero = report
            .diagnostics
            .iter()
            .find(|d| d.code == code::RT202)
            .expect("zero-wcet warning");
        assert_eq!(zero.span.unwrap().line, 3);
    }

    #[test]
    fn parse_failure_is_reported_with_span() {
        let (report, parsed) = check_source(
            "bad.rtp",
            "task period=10\n  node a 1\n  edge a b\nend\n",
            &LintOptions::default(),
        );
        assert!(parsed.is_none());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, code::RT002);
        assert_eq!(report.diagnostics[0].span.unwrap().line, 3);
    }

    #[test]
    fn lint_config_flags_undersized_pool_and_accepts_reserve() {
        let dag = replicated(2);
        let config = PoolConfig::new(2, QueueDiscipline::GlobalFifo);
        let diags = lint_config(&config, &dag);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, code::RT302);
        assert!(diags[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("reserve: 1"));
        let fix = diags[0].fix.as_ref().expect("RT302 carries a fix payload");
        assert!(fix.data.contains(&("suggested_reserve", 1)));
        assert!(fix.data.contains(&("suggested_workers", 3)));
        // A sufficient growth reserve silences the finding.
        let config = config.with_recovery(RecoveryPolicy::GrowPool { reserve: 1 });
        assert!(lint_config(&config, &dag).is_empty());
        // So does a safe pool size.
        let config = PoolConfig::new(3, QueueDiscipline::GlobalFifo);
        assert!(lint_config(&config, &dag).is_empty());
    }

    #[test]
    fn lint_config_flags_invalid_and_unsafe_mappings() {
        let dag = replicated(1);
        let config = PoolConfig::new(0, QueueDiscipline::GlobalFifo);
        let diags = lint_config(&config, &dag);
        assert_eq!(diags[0].code, code::RT303);

        // All nodes on one thread of a two-thread pool: Lemma 3 violation.
        let mapping =
            rtpool_core::partition::NodeMapping::from_threads(&dag, 2, vec![0; dag.node_count()])
                .unwrap();
        let config = PoolConfig::new(2, QueueDiscipline::Partitioned(mapping));
        let codes: Vec<RuleCode> = lint_config(&config, &dag).iter().map(|d| d.code).collect();
        assert!(codes.contains(&code::RT306));
    }
}
