//! The arithmetic boundary, searched instead of sampled: sets of one or
//! two tasks whose WCETs, periods and deadlines are drawn from the values
//! at which past overflows lived, on pools from one thread to
//! `usize::MAX`, through the library and through the binaries.
//!
//! Each graph is one of the four shapes of Section 2: one node, a chain
//! of two, a non-blocking fork-join of two, and BF → 2 BC → BJ. The
//! slots of a row are per task its shape, four WCETs (a shape uses the
//! first as many as it has nodes), T and D. Their full product is far
//! too big, so the rows are a covering array of strength 3, built here by
//! a fixed greedy construction: every three slots take every combination
//! of their values in some row. Each row runs on every pool and both
//! backends, as each of its tasks alone and as the two in either order,
//! and so does its implicit-deadline twin (D = T in both tasks, the
//! model of the paper's experiments).
//!
//! The library must agree with `rtpool-oracle`, which shares no code
//! with it: a graph the oracle refuses is refused by the same
//! `GraphError`, a deadline past the period by `DeadlineExceedsPeriod`,
//! l̄ = m − b̄ is `deadlock::concurrency_floor`'s, and every verdict of
//! `global::analyze` (three models) and of
//! `partitioned::partition_and_analyze` (both strategies) is recomputed
//! from the oracle's vol, len, b̄, mappings and FIFO charges through its
//! `u128` fix-point. The partitioned library asserts its bound, so it gets
//! pools up to `MAX_PARTITIONED_THREADS` only. A fix-point that does not
//! settle within `STEPS` iterates is not compared (the library would
//! iterate as long); the count is printed.
//!
//! A fixed sample of the accepted sets, written as `.rtp`, then goes
//! through `analyze`, `rtlint --format json` and `rtpool-trace run
//! --engine sim`: each exits with the code the library predicts, prints
//! the library's verdict rows, and never `panicked`; `analyze` prints
//! each task's l̄ as the oracle's m − b̄, in full; an empty pool and a
//! partitioned pool past the bound are refused by name, and the empty
//! set gets one answer everywhere.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rtpool_bench::cli::verdict_row;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
use rtpool_core::analysis::{SchedResult, TaskVerdict, UnschedulableReason};
use rtpool_core::partition::MAX_PARTITIONED_THREADS;
use rtpool_core::textfmt::write_task_set;
use rtpool_core::{deadlock, CancelToken, Task, TaskId, TaskSet};
use rtpool_graph::{Dag, NodeId, SyncBackend};
use rtpool_lint::{lint_source, LintOptions};
use rtpool_oracle::graph::{self, Graph, Shape};
use rtpool_oracle::interference::least_fixpoint;
use rtpool_oracle::partition::{self as model, least_loaded};

mod common;

/// WCETs, periods and deadlines.
const VALUES: [u64; 10] = [
    1,
    2,
    3,
    1 << 32,
    1 << 61,
    1 << 62,
    u64::MAX / 3,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

const POOLS: [usize; 8] = [1, 2, 3, 4, 4096, 4097, 1 << 32, usize::MAX];

const BACKENDS: [SyncBackend; 2] = [SyncBackend::Suspend, SyncBackend::Spin];

const MODELS: [ConcurrencyModel; 3] = [
    ConcurrencyModel::Full,
    ConcurrencyModel::Limited,
    ConcurrencyModel::LimitedExact,
];

const STRATEGIES: [PartitionStrategy; 2] =
    [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1];

/// Iterates a fix-point may take before its row is left uncompared.
const STEPS: usize = 2_000;

/// The slots of a row: per task its shape, four WCETs, T and D.
const SLOTS: [usize; 14] = [4, 10, 10, 10, 10, 10, 10, 4, 10, 10, 10, 10, 10, 10];

/// Rows in which every three slots take every combination of their
/// values. Each row starts from the first combination no row covers yet;
/// each other slot, in order, takes the value that covers the most new
/// combinations with the slots already set (the lowest on a tie).
fn covering_array(levels: &[usize]) -> Vec<Vec<usize>> {
    let n = levels.len();
    let mut triples = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                triples.push([a, b, c]);
            }
        }
    }
    let mut offsets = Vec::with_capacity(triples.len());
    let mut total = 0;
    for t in &triples {
        offsets.push(total);
        total += t.iter().map(|&s| levels[s]).product::<usize>();
    }
    // The triples each slot is in.
    let with: Vec<Vec<usize>> = (0..n)
        .map(|s| {
            (0..triples.len())
                .filter(|&k| triples[k].contains(&s))
                .collect()
        })
        .collect();
    let index = |k: usize, row: &[usize]| {
        let [a, b, c] = triples[k];
        offsets[k] + (row[a] * levels[b] + row[b]) * levels[c] + row[c]
    };
    let mut covered = vec![false; total];
    let mut left = total;
    let mut rows = Vec::new();
    let mut first = 0;
    while left > 0 {
        while covered[first] {
            first += 1;
        }
        let k = offsets.partition_point(|&o| o <= first) - 1;
        let mut code = first - offsets[k];
        let mut row = vec![0; n];
        let mut set = vec![false; n];
        for &s in triples[k].iter().rev() {
            row[s] = code % levels[s];
            code /= levels[s];
            set[s] = true;
        }
        for s in 0..n {
            if set[s] {
                continue;
            }
            let fixed: Vec<usize> = with[s]
                .iter()
                .copied()
                .filter(|&k| triples[k].iter().all(|&x| x == s || set[x]))
                .collect();
            let mut best = (0, 0);
            for v in 0..levels[s] {
                row[s] = v;
                let gain = fixed.iter().filter(|&&k| !covered[index(k, &row)]).count();
                if gain > best.0 {
                    best = (gain, v);
                }
            }
            row[s] = best.1;
            set[s] = true;
        }
        for k in 0..triples.len() {
            let i = index(k, &row);
            if !covered[i] {
                covered[i] = true;
                left -= 1;
            }
        }
        rows.push(row);
    }
    rows
}

/// The lattice's rows, built once for both tests.
fn lattice() -> &'static [Vec<usize>] {
    static ROWS: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    ROWS.get_or_init(|| covering_array(&SLOTS))
}

/// One task of a row: its graph in the oracle's terms, T and D.
#[derive(Clone, Debug)]
struct Spec {
    shape: Shape,
    period: u64,
    deadline: u64,
}

fn spec(slots: &[usize]) -> Spec {
    let w = |i: usize| VALUES[slots[1 + i]];
    let fork_join = vec![(0, 1), (0, 2), (1, 3), (2, 3)];
    let (wcets, edges, pairs) = match slots[0] {
        0 => (vec![w(0)], vec![], vec![]),
        1 => (vec![w(0), w(1)], vec![(0, 1)], vec![]),
        2 => (vec![w(0), w(1), w(2), w(3)], fork_join, vec![]),
        _ => (vec![w(0), w(1), w(2), w(3)], fork_join, vec![(0, 3)]),
    };
    Spec {
        shape: Shape {
            wcets,
            edges,
            pairs,
        },
        period: VALUES[slots[5]],
        deadline: VALUES[slots[6]],
    }
}

/// The variant name of an error's `Debug` form.
fn variant(e: &impl std::fmt::Debug) -> String {
    format!("{e:?}")
        .chars()
        .take_while(char::is_ascii_alphabetic)
        .collect()
}

/// Builds the task through the library, checking each refusal against
/// the oracle's: the graph's rule, then `DeadlineExceedsPeriod`.
fn build(spec: &Spec) -> Result<Option<Task>, String> {
    let ids = |l: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
        l.iter()
            .map(|&(a, b)| (NodeId::from_index(a), NodeId::from_index(b)))
            .collect()
    };
    let s = &spec.shape;
    let dag = Dag::from_lists(&s.wcets, &ids(&s.edges), &ids(&s.pairs));
    let dag = match (dag, graph::build(s)) {
        (Ok(dag), Ok(_)) => dag,
        (Err(e), Err((rule, _))) if variant(&e) == rule => return Ok(None),
        (dag, g) => {
            return Err(format!(
                "graph: library {:?}, oracle {:?}",
                dag.err(),
                g.err()
            ))
        }
    };
    match Task::new(dag, spec.period, spec.deadline) {
        Ok(task) if spec.deadline <= spec.period => Ok(Some(task)),
        Err(e) if spec.deadline > spec.period && variant(&e) == "DeadlineExceedsPeriod" => Ok(None),
        other => Err(format!("task: {:?}", other.err())),
    }
}

/// `SpinVol`: per blocking fork, the WCETs of the nodes concurrent with
/// it and of its region's inner nodes.
fn spin_volume(shape: &Shape, g: &Graph) -> u128 {
    let n = shape.wcets.len();
    let f_concurrent = |f: usize, v: usize| v != f && !g.descendants[f][v] && !g.ancestors[f][v];
    g.regions
        .iter()
        .map(|r| {
            (0..n)
                .filter(|&v| f_concurrent(r.fork, v) || r.inner.contains(&v))
                .map(|v| u128::from(shape.wcets[v]))
                .sum::<u128>()
        })
        .sum()
}

fn exceeds(bound: u64) -> TaskVerdict {
    TaskVerdict::Unschedulable {
        reason: UnschedulableReason::ResponseTimeExceedsDeadline { bound },
    }
}

fn below(first_miss: Option<usize>) -> Option<TaskVerdict> {
    first_miss.map(|task| TaskVerdict::Unschedulable {
        reason: UnschedulableReason::DependsOnUnschedulable { task: TaskId(task) },
    })
}

/// The global verdicts of Section 4.1 from the oracle's vol, len and b̄
/// (each shape has at most one blocking fork, so its antichain of forks
/// is b̄ too), or `None` if a fix-point does not settle within `STEPS`.
fn global_model(
    tasks: &[(&Spec, &Graph)],
    m: usize,
    model: ConcurrencyModel,
    backend: SyncBackend,
) -> Option<Vec<TaskVerdict>> {
    let m64 = m as u64;
    let mut hp: Vec<(u64, u128, u64)> = Vec::new();
    let mut first_miss = None;
    let mut verdicts = Vec::new();
    for (i, (spec, g)) in tasks.iter().enumerate() {
        let (vol, len) = (g.volume, g.critical_path);
        let suspended = match model {
            ConcurrencyModel::Full => 0,
            _ => g.b_bar as u64,
        };
        let ivol = match (model, backend) {
            (ConcurrencyModel::Full, _) | (_, SyncBackend::Suspend) => u128::from(vol),
            (_, SyncBackend::Spin) => u128::from(vol) + spin_volume(&spec.shape, g),
        };
        let verdict = if m64 <= suspended {
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::NonPositiveConcurrency {
                    floor: m64 as i64 - suspended as i64,
                },
            }
        } else if let Some(v) = below(first_miss) {
            v
        } else {
            let denom = m64 - suspended;
            match least_fixpoint(len, vol - len, &hp, denom, spec.deadline, STEPS)? {
                Ok(response_time) => TaskVerdict::Schedulable { response_time },
                Err(past) => exceeds(u64::try_from(past).unwrap_or(u64::MAX)),
            }
        };
        match verdict.response_time() {
            Some(r) => hp.push((spec.period, ivol, r.saturating_sub(vol / m64))),
            None => {
                first_miss.get_or_insert(i);
            }
        }
        verdicts.push(verdict);
    }
    Some(verdicts)
}

/// Per task its verdict and its mapping, one thread per node.
type Partitioned = (Vec<TaskVerdict>, Vec<Option<Vec<usize>>>);

/// The model's mappings of the graphs of one row (WCETs, pairs), by pool
/// and strategy: a mapping depends on nothing else, and at 4 096 threads
/// it is most of the model's work.
type Maps = HashMap<(Vec<u64>, Vec<(usize, usize)>, usize, PartitionStrategy), Option<Vec<usize>>>;

/// The least fix-point of `base` plus the carry-in of `loads`, if at
/// most `cap`; the outer `None` when it does not settle within `STEPS`.
fn within(base: u128, loads: &[(u64, u128, u64)], cap: u64) -> Option<Option<u64>> {
    let Ok(base) = u64::try_from(base) else {
        return Some(None);
    };
    Some(least_fixpoint(base, 0, loads, 1, cap, STEPS)?.ok())
}

/// The verdicts and mappings of Section 4.2 from the oracle's mappings
/// and FIFO charges: per task the smaller of the node-level bound (each
/// node's WCET and charge against its core's carry-in, along the order)
/// and the holistic one (the inflated longest path against all carry-in).
fn partitioned_model(
    tasks: &[(&Spec, &Graph)],
    m: usize,
    strategy: PartitionStrategy,
    maps: &mut Maps,
) -> Option<Partitioned> {
    // Only the cores a task uses carry load: at 4 096 threads, most none.
    let mut per_core: BTreeMap<usize, Vec<(u64, u128, u64)>> = BTreeMap::new();
    let mut whole = Vec::new();
    let mut first_miss = None;
    let (mut verdicts, mut mappings) = (Vec::new(), Vec::new());
    for (i, (spec, g)) in tasks.iter().enumerate() {
        let shape = &spec.shape;
        let key = (shape.wcets.clone(), shape.pairs.clone(), m, strategy);
        let thread = maps.entry(key).or_insert_with(|| match strategy {
            PartitionStrategy::WorstFit => Some(model::worst_fit(shape, g, m)),
            PartitionStrategy::Algorithm1 => model::algorithm1(shape, g, m, |_, allowed, loads| {
                least_loaded(allowed, loads)
            })
            .ok(),
        });
        let thread = thread.clone();
        let verdict = match (&thread, below(first_miss)) {
            (None, _) => TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed,
            },
            (Some(_), Some(v)) => v,
            (Some(thread), None) => {
                let fifo = model::fifo_charges(shape, g, thread);
                let mut finish = vec![0u64; g.order.len()];
                let mut node_level = None;
                'nodes: {
                    for &v in &g.order {
                        let ready = g.pred[v].iter().map(|&p| finish[p]).max().unwrap_or(0);
                        let cost = u128::from(shape.wcets[v]) + fifo[v];
                        let Some(local) = within(
                            cost,
                            per_core.get(&thread[v]).map_or(&[], Vec::as_slice),
                            spec.deadline,
                        )?
                        else {
                            break 'nodes;
                        };
                        match ready.checked_add(local).filter(|&f| f <= spec.deadline) {
                            Some(f) => finish[v] = f,
                            None => break 'nodes,
                        }
                    }
                    node_level = Some(finish[g.sink]);
                }
                let path = model::inflated_longest_path(shape, g, thread);
                let holistic = within(path, &whole, spec.deadline)?;
                match node_level.into_iter().chain(holistic).min() {
                    Some(response_time) => TaskVerdict::Schedulable { response_time },
                    None => exceeds(spec.deadline.saturating_add(1)),
                }
            }
        };
        if let (Some(thread), Some(r)) = (&thread, verdict.response_time()) {
            let mut work = BTreeMap::new();
            for (v, &t) in thread.iter().enumerate() {
                *work.entry(t).or_insert(0u128) += u128::from(shape.wcets[v]);
            }
            for (k, w) in work.into_iter().filter(|&(_, w)| w > 0) {
                let w64 = u64::try_from(w).expect("within the volume");
                let load = (spec.period, w, r.saturating_sub(w64));
                per_core.entry(k).or_default().push(load);
            }
            whole.push((spec.period, u128::from(g.volume), r));
        }
        if !verdict.is_schedulable() {
            first_miss.get_or_insert(i);
        }
        verdicts.push(verdict);
        mappings.push(thread);
    }
    Some((verdicts, mappings))
}

/// What the checks counted: rows, library analyses compared with the
/// model, and analyses left uncompared.
#[derive(Default, Debug)]
struct Tally {
    rows: usize,
    compared: usize,
    unsettled: usize,
}

/// Compares every analysis of `set` with the model, or says which
/// differs.
fn check_set(
    set: &TaskSet,
    tasks: &[(&Spec, &Graph)],
    m: usize,
    tally: &mut Tally,
    maps: &mut Maps,
) -> Result<(), String> {
    // l̄ = m − b̄, exact wherever it fits an `i64` and positive exactly
    // when m > b̄.
    for ((_, task), (_, g)) in set.iter().zip(tasks) {
        let floor = deadlock::concurrency_floor(task.dag(), m);
        let exact = m as i128 - g.b_bar as i128;
        if (floor > 0) != (exact > 0)
            || (exact <= i128::from(i64::MAX) && i128::from(floor) != exact)
        {
            return Err(format!("l̄ = {floor}, m − b̄ = {exact}"));
        }
    }
    for model in MODELS {
        let Some(want) = global_model(tasks, m, model, set.backend()) else {
            tally.unsettled += 1;
            continue;
        };
        // The model settled within `STEPS` iterates and the library takes
        // as many; one that runs for seconds is looping where it did not.
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(10));
        let Ok(mut got) = global::analyze_many_cancellable(set, m, &[model], &token) else {
            return Err(format!(
                "{model:?}: the library did not settle; the model did"
            ));
        };
        let got = got.remove(0);
        if got.verdicts() != want {
            return Err(format!("{model:?}: library {got:?}, oracle {want:?}"));
        }
        tally.compared += 1;
    }
    // The partitioned analysis charges no spin, so the suspend twin
    // stands for both backends.
    if m > MAX_PARTITIONED_THREADS || set.backend() == SyncBackend::Spin {
        return Ok(());
    }
    for strategy in STRATEGIES {
        let Some((want, want_maps)) = partitioned_model(tasks, m, strategy, maps) else {
            tally.unsettled += 1;
            continue;
        };
        let (got, maps) = partition_and_analyze(set, m, strategy);
        let maps: Vec<Option<Vec<usize>>> = maps
            .iter()
            .map(|t| {
                t.as_ref()
                    .map(|t| t.iter().map(|(_, k)| k.index()).collect())
            })
            .collect();
        if got.verdicts() != want || maps != want_maps {
            return Err(format!(
                "{strategy:?}: library {got:?} {maps:?}, oracle {want:?} {want_maps:?}"
            ));
        }
        tally.compared += 1;
    }
    Ok(())
}

/// The two tasks of a row.
fn specs(row: &[usize]) -> [Spec; 2] {
    [spec(&row[..7]), spec(&row[7..])]
}

/// The sets of one row that the library accepts: each task alone, and
/// both in either order when neither is refused.
fn sets_of(row: &[usize], backend: SyncBackend) -> Result<Vec<(TaskSet, Vec<Spec>)>, String> {
    let specs = specs(row);
    let tasks = [build(&specs[0])?, build(&specs[1])?];
    let set = |picked: &[usize]| {
        let tasks = picked.iter().map(|&i| tasks[i].clone().expect("accepted"));
        let specs = picked.iter().map(|&i| specs[i].clone()).collect();
        (TaskSet::new(tasks.collect()).with_backend(backend), specs)
    };
    let accepted: Vec<usize> = (0..2).filter(|&i| tasks[i].is_some()).collect();
    let mut sets: Vec<_> = accepted.iter().map(|&i| set(&[i])).collect();
    if accepted.len() == 2 {
        sets.extend([set(&[0, 1]), set(&[1, 0])]);
    }
    Ok(sets)
}

/// Checks `sets` on a pool of `m` through the library.
fn check_sets(
    sets: &[(TaskSet, Vec<Spec>)],
    m: usize,
    tally: &mut Tally,
    maps: &mut Maps,
) -> Result<(), String> {
    for (set, specs) in sets {
        let graphs: Vec<Graph> = specs
            .iter()
            .map(|s| graph::build(&s.shape).expect("accepted above"))
            .collect();
        let tasks: Vec<(&Spec, &Graph)> = specs.iter().zip(&graphs).collect();
        check_set(set, &tasks, m, tally, maps).map_err(|e| {
            let backend = set.backend();
            format!("m = {m}, {backend:?}, {} tasks: {e}", set.len())
        })?;
    }
    Ok(())
}

/// Runs `check`, naming the row when it fails or panics.
fn checked<T>(name: &str, row: &[usize], check: impl FnOnce() -> Result<T, String>) -> T {
    let describe = || format!("{name}: {:?}", specs(row));
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(Ok(value)) => value,
        Ok(Err(e)) => panic!("{}: {e}", describe()),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            panic!("{}: panicked: {msg}", describe())
        }
    }
}

#[test]
fn the_library_agrees_with_the_oracle_on_the_boundary_lattice() {
    let rows = lattice();
    let mut tally = Tally::default();
    for (i, row) in rows.iter().enumerate() {
        let mut maps = Maps::new();
        // The implicit-deadline twin: D = T in both tasks.
        let mut twin = row.clone();
        (twin[6], twin[13]) = (twin[5], twin[12]);
        for (name, row) in [
            (format!("row {i}"), row),
            (format!("row {i}, D = T"), &twin),
        ] {
            checked(&name, row, || {
                for backend in BACKENDS {
                    let sets = sets_of(row, backend)?;
                    for m in POOLS {
                        check_sets(&sets, m, &mut tally, &mut maps)?;
                    }
                }
                Ok(())
            });
            tally.rows += 1;
        }
    }
    println!("{tally:?}");
    assert!(tally.compared > 10 * tally.unsettled, "{tally:?}");
}

/// Exit code, stdout and stderr of `bin` on `args`; none may say
/// `panicked`.
fn run(bin: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    let context = format!("{} {args:?}\n{stdout}{stderr}", bin.display());
    assert!(
        !stdout.contains("panicked") && !stderr.contains("panicked"),
        "{context}"
    );
    (
        out.status
            .code()
            .unwrap_or_else(|| panic!("killed: {context}")),
        stdout,
        stderr,
    )
}

/// Runs `set` on pool `m` through the three binaries and checks each
/// against the library, and `analyze`'s structural l̄ against the
/// oracle's `b_bars`.
fn check_binaries(
    dir: &Path,
    name: &str,
    (set, b_bars): (&TaskSet, &[usize]),
    m: usize,
    rtlint: &Path,
) {
    let path = dir.join(format!("{name}.rtp"));
    let text = write_task_set(set);
    std::fs::write(&path, &text).expect("scratch file");
    let file = path.to_str().expect("utf-8 path");
    let m_arg = m.to_string();
    let lint = lint_source(file, &text, &LintOptions::with_m(m));
    let partitioned = m <= MAX_PARTITIONED_THREADS;
    let at = format!("{name} at m = {m}:\n{text}");

    let analyze = Path::new(env!("CARGO_BIN_EXE_analyze"));
    let (code, stdout, stderr) = run(analyze, &[file, "--m", &m_arg]);
    let clean = !lint.has_failures() && partitioned;
    assert_eq!(code, i32::from(!clean), "{at}{stdout}{stderr}");
    let header = format!(
        "{} tasks, m = {m}, total utilization {:.3}\n",
        set.len(),
        set.total_utilization()
    );
    assert!(stdout.contains(&header), "{at}{stdout}");
    // One structural line per task, in order, with m − b̄ in full.
    let floors: Vec<&str> = stdout.lines().filter(|l| l.contains("l̄(")).collect();
    assert_eq!(floors.len(), b_bars.len(), "{at}{stdout}");
    for (line, &b) in floors.iter().zip(b_bars) {
        let want = format!("b̄={b} l̄({m})={} ", m as i128 - b as i128);
        assert!(line.trim_start().starts_with(&want), "{at}{want}\n{stdout}");
    }
    let mut rows: Vec<SchedResult> = MODELS
        .iter()
        .map(|&model| global::analyze(set, m, model))
        .collect();
    if partitioned {
        rows.extend(STRATEGIES.map(|s| partition_and_analyze(set, m, s).0));
    }
    let labels = [
        "Melani et al. [14] (oblivious)",
        "limited concurrency (paper)",
        "exact antichain (extension)",
        "worst-fit (oblivious baseline)",
        "Algorithm 1 (delay-free)",
    ];
    for (label, result) in labels.iter().zip(&rows) {
        let row = verdict_row(label, result);
        assert!(stdout.lines().any(|l| l == row), "{at}{row}\n{stdout}");
    }
    let named = format!("MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
    assert_eq!(stderr.contains(&named), !partitioned, "{at}{stderr}");

    let (code, stdout, _) = run(rtlint, &["--format", "json", "--m", &m_arg, file]);
    assert_eq!(code, i32::from(lint.has_failures()), "{at}{stdout}");
    assert!(
        rtpool_trace::json::Reader::new(&stdout).value().is_ok(),
        "{at}{stdout}"
    );

    let trace = Path::new(env!("CARGO_BIN_EXE_rtpool-trace"));
    let (code, _, stderr) = run(trace, &["run", file, "--engine", "sim", "--m", &m_arg]);
    let simulated = m <= rtpool_sim::MAX_SIMULATED_CORES;
    assert_eq!(code, i32::from(!simulated), "{at}{stderr}");
    if partitioned {
        let args = ["run", file, "--engine", "sim", "--policy", "partitioned"];
        let (code, _, stderr) = run(trace, &[&args[..], &["--m", &m_arg]].concat());
        assert!(
            code == 0 || stderr.contains("Algorithm 1 found no safe mapping"),
            "{at}{stderr}"
        );
    }
}

#[test]
fn the_binaries_answer_as_the_library_on_a_sample_of_the_lattice() {
    let rtlint = common::rtlint();
    // This run's `.rtp` files, under Cargo's scratch directory for tests.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = tmp.join(format!("lattice-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let rows = lattice();
    let mut tally = Tally::default();
    let mut sampled = 0;
    // Every 23rd row, on the pools and backends in turn.
    for (k, (i, row)) in rows.iter().enumerate().step_by(23).enumerate() {
        let (m, backend) = (POOLS[k % POOLS.len()], BACKENDS[k / POOLS.len() % 2]);
        let before = tally.unsettled;
        let sets = checked(&format!("row {i}"), row, || {
            let sets = sets_of(row, backend)?;
            check_sets(&sets, m, &mut tally, &mut Maps::new()).map(|()| sets)
        });
        if tally.unsettled > before {
            continue;
        }
        for (j, (set, specs)) in sets.iter().enumerate() {
            let b_bars: Vec<usize> = specs
                .iter()
                .map(|s| graph::build(&s.shape).expect("accepted above").b_bar)
                .collect();
            check_binaries(&dir, &format!("row{i}-{j}"), (set, &b_bars), m, &rtlint);
            sampled += 1;
        }
    }
    println!("{sampled} sets through the binaries");
    assert!(sampled >= 40, "{sampled}");

    // The degenerate inputs: an empty pool, a partitioned pool past the
    // bound, and the empty set.
    let one = dir.join("one.rtp");
    // A blocking fork-join: Algorithm 1 has a fork to place.
    let source = "task period=100\nnode f 1\nnode a 1\nnode b 1\nnode j 1\n\
                  edge f a\nedge f b\nedge a j\nedge b j\nblocking f j\nend\n";
    std::fs::write(&one, source).expect("scratch file");
    let one = one.to_str().expect("utf-8 path");
    let analyze = Path::new(env!("CARGO_BIN_EXE_analyze"));
    let trace = Path::new(env!("CARGO_BIN_EXE_rtpool-trace"));
    let (code, _, stderr) = run(analyze, &[one, "--m", "0"]);
    assert!(
        code == 1 && stderr.contains("--m must be positive"),
        "{stderr}"
    );
    let (code, _, stderr) = run(&rtlint, &["--m", "0", one]);
    assert!(
        code == 2 && stderr.contains("`--m 0` is not a positive integer"),
        "{stderr}"
    );
    let (code, _, stderr) = run(trace, &["run", one, "--m", "0"]);
    assert!(
        code == 2 && stderr.contains("--m must be positive"),
        "{stderr}"
    );
    let past = (MAX_PARTITIONED_THREADS + 1).to_string();
    let named = format!("past MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
    let (code, _, stderr) = run(
        trace,
        &["run", one, "--policy", "partitioned", "--m", &past],
    );
    assert!(code == 2 && stderr.contains(&named), "{stderr}");
    let (code, stdout, _) = run(&rtlint, &["--m", &past, one]);
    let bound = format!("MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}");
    assert!(
        code == 0 && stdout.contains("RT301") && stdout.contains(&bound),
        "{stdout}"
    );

    let empty = TaskSet::default();
    assert!(MODELS
        .iter()
        .all(|&m| global::analyze(&empty, 2, m).verdicts().is_empty()));
    assert!(
        partition_and_analyze(&empty, 2, PartitionStrategy::Algorithm1)
            .0
            .is_schedulable()
    );
    let path = dir.join("empty.rtp");
    std::fs::write(&path, "# no task\n").expect("scratch file");
    let file = path.to_str().expect("utf-8 path");
    let (code, stdout, _) = run(analyze, &[file, "--m", "2"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.starts_with("0 tasks, m = 2, total utilization 0.000\n"),
        "{stdout}"
    );
    assert!(!stdout.contains("unschedulable"), "{stdout}");
    let (code, stdout, _) = run(&rtlint, &["--format", "json", "--m", "2", file]);
    assert!(
        code == 0 && stdout.contains("\"diagnostics\":[]"),
        "{stdout}"
    );
    let (code, stdout, _) = run(trace, &["run", file, "--engine", "sim", "--m", "2"]);
    assert!(
        code == 0 && stdout.contains("deadline_misses: []"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
}
