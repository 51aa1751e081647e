//! The allocator budgets of the ingest path and the Figure 2 path,
//! committed as tests so the numbers cannot rot: that decoding a request
//! line allocates its escaped source once, sized by the literal and not
//! by the document; how many times `parse_task_set`, the first
//! derivations and a WCET-only edit call the allocator, per node; that
//! names on the parser's `v0 v1 …` numbering cost fewer calls than the
//! same set's names off it (no name map is built); that assembling a
//! 35-node graph calls it at most five times plus once per blocking
//! region, and its first delay profile and critical path three times;
//! that assembly's calls do not grow with the node count; that a
//! rejected window attempt calls it not at all, and the accepted graph's
//! build at most five times plus once per region; that Algorithm
//! 1's calls do not grow with the graph; that the partitioned RTA
//! allocates the same at 16 cores as at 8; that `partitioned::accepts`
//! maps no task below the first one that misses; that it allocates
//! the same whether it reaches one task or four; and that writing a
//! set's `.rtp` text and encoding a request line are each one allocation
//! of the final length.
//!
//! `work_ledger` adds up calls and bytes for graph assembly, derivation
//! and content hashing (none), for parsing, writing and encoding the
//! corpus and for three Figure 2-shaped passes per seed, and compares
//! the table with `tests/goldens/work_ledger.txt` exactly; bless an
//! intended change with `UPDATE_GOLDEN=1 cargo test --test alloc_budget
//! work_ledger`.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]`; the `unsafe impl` below and the block-keeping
//! allocator of `crates/bench/benches/scaling.rs` are the only unsafe
//! code in the workspace (every library crate is `#![forbid(unsafe_code)]`).
//! A *call* is an `alloc`, `alloc_zeroed` or `realloc`; frees are not
//! counted (every block made is freed once). Counts are kept per thread,
//! so tests running side by side do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::Path;

use rand::{Rng, SeedableRng};
use rtpool::core::analysis::global::{self, ConcurrencyModel};
use rtpool::core::analysis::partitioned::{accepts, partition_and_analyze, PartitionStrategy};
use rtpool::core::partition::algorithm1;
use rtpool::core::{textfmt, Task, TaskSet};
use rtpool::gen::{
    BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, GenError, TaskSetConfig,
};
use rtpool::graph::{Dag, DagBuilder, NodeId};
use rtpool::trace::json::{self, Reader, Value};
use rtpool_bench::serve::protocol::{encode_request, Request, RequestBody};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one call asking for `bytes`.
fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as
        // the caller vouched for them.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocator calls it made on
/// this thread.
fn calls_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, calls, _) = work_of(f);
    (out, calls)
}

/// Runs `f` and returns its result with the allocator calls it made on
/// this thread and the bytes they asked for (a `realloc` counts its new
/// size).
fn work_of<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    (out, calls - before.0, bytes - before.1)
}

fn node_count(set: &TaskSet) -> u64 {
    set.iter().map(|(_, t)| t.dag().node_count() as u64).sum()
}

/// The shipped workloads plus one generated 8-task set (~330 nodes, the
/// size class `admit-cold` sends), each as `(name, .rtp source)`.
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
    let mut inputs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("workloads/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rtp"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let source = std::fs::read_to_string(&path).expect("workload is readable");
            (name.into_owned(), source)
        })
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 3, "workloads/*.rtp went missing");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x00A1_10C8);
    let generated = TaskSetConfig::new(8, 2.0, DagGenConfig::default())
        .generate(&mut rng)
        .expect("plain generation cannot fail");
    inputs.push(("generated-8".into(), textfmt::write_task_set(&generated)));
    inputs
}

#[test]
fn parse_and_first_derivations_stay_within_budget() {
    let (mut nodes, mut parse_calls, mut derive_calls) = (0u64, 0u64, 0u64);
    for (name, source) in corpus() {
        let (set, parsed) = calls_of(|| textfmt::parse_task_set(&source).expect("corpus parses"));
        let ((), derived) = calls_of(|| {
            for (_, task) in set.iter() {
                let dag = task.dag();
                let _ = dag.delay_profile();
                let _ = dag.critical_path_length();
                let _ = dag.max_blocking_antichain();
            }
        });
        let n = node_count(&set);
        println!(
            "{name}: {n} nodes, {parsed} calls to parse ({:.2}/node), +{derived} to derive ({:.2}/node)",
            parsed as f64 / n as f64,
            (parsed + derived) as f64 / n as f64,
        );
        if name == "generated-8" {
            assert!(n >= 150, "the generated set shrank to {n} nodes");
            assert!(
                2 * parsed <= n,
                "{parsed} allocator calls to parse {n} generated nodes (budget 0.5 per node)"
            );
        }
        nodes += n;
        parse_calls += parsed;
        derive_calls += derived;
    }
    assert!(
        5 * parse_calls <= 4 * nodes,
        "{parse_calls} allocator calls to parse {nodes} nodes (budget 0.8 per node)"
    );
    assert!(
        parse_calls + derive_calls <= 2 * nodes,
        "{} allocator calls to parse and derive {nodes} nodes (budget 2.0 per node)",
        parse_calls + derive_calls
    );
}

/// `text` with every `v<digits>` name renamed `v<digits>x`: the same
/// set, its names off the `v0 v1 …` numbering.
fn unnumbered(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let words: Vec<String> = line
            .split(' ')
            .map(|word| match word.strip_prefix('v') {
                Some(digits)
                    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) =>
                {
                    format!("{word}x")
                }
                _ => word.to_owned(),
            })
            .collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn numbered_names_are_resolved_without_a_map() {
    let (name, source) = corpus()
        .pop()
        .expect("the corpus ends with the generated set");
    assert_eq!(name, "generated-8");
    let renamed = unnumbered(&source);
    let (set, numbered) = calls_of(|| textfmt::parse_task_set(&source).expect("corpus parses"));
    let (same, keyed) = calls_of(|| textfmt::parse_task_set(&renamed).expect("renamed parses"));
    assert_eq!(
        textfmt::write_task_set(&same),
        textfmt::write_task_set(&set)
    );
    println!(
        "generated-8: {numbered} calls to parse as written, {keyed} with its names off the numbering"
    );
    assert!(
        numbered < keyed,
        "numbered names cost {numbered} allocator calls, names off the numbering {keyed}: the name map is built for both"
    );
}

/// Reads `line` the way the admission wire does — one flat object, every
/// member through `Reader::scalar`, only `source` kept — and returns the
/// source's body.
fn decode_source(line: &str) -> Option<String> {
    let mut source = None;
    Reader::new(line)
        .document(|reader, key| {
            let keep = key == "source";
            if let Value::Str(body) = reader.scalar(keep)? {
                if keep {
                    source = Some(body.into_owned());
                }
            }
            Ok(())
        })
        .expect("the line is well-formed");
    source
}

#[test]
fn decoding_a_request_allocates_its_source_once() {
    let (name, source) = corpus().pop().expect("the corpus has a generated set");
    let mut line = String::from("{\"id\":7,\"m\":8,\"priority\":4,\"deadline_us\":0,\"source\":\"");
    json::escape_into(&source, &mut line);
    line.push_str("\"}");
    let (body, calls) = calls_of(|| decode_source(&line));
    let body = body.expect("the line has a source");
    println!(
        "{name}: {} B request line, {} B source, {calls} calls to decode",
        line.len(),
        source.len()
    );
    assert!(
        (4_000..16_000).contains(&line.len()),
        "the request line is no longer admit-cold sized: {} B",
        line.len()
    );
    assert_eq!(body, source);
    assert!(source.contains('\n'), "the source needs escapes to test");
    assert_eq!(calls, 1, "decoding an escaped source must allocate once");
}

/// A `source` request carrying `source`, as `admit-cold` sends it.
fn source_request(source: String) -> Request {
    Request {
        id: 7,
        m: 8,
        priority: 4,
        deadline_us: 0,
        body: RequestBody::Source(source),
    }
}

#[test]
fn a_written_line_is_one_allocation_of_its_final_size() {
    for (name, source) in corpus() {
        let set = textfmt::parse_task_set(&source).expect("corpus parses");
        let (text, calls, bytes) = work_of(|| textfmt::write_task_set(&set));
        println!(
            "write_task_set {name}: {calls} calls, {bytes} B for {} B",
            text.len()
        );
        assert_eq!(
            (calls, bytes),
            (1, text.len() as u64),
            "write_task_set {name}"
        );
        let request = source_request(source);
        let (line, calls, bytes) = work_of(|| encode_request(&request));
        println!(
            "encode_request {name}: {calls} calls, {bytes} B for {} B",
            line.len()
        );
        assert_eq!(
            (calls, bytes),
            (1, line.len() as u64),
            "encode_request {name}"
        );
    }
}

#[test]
fn an_escaped_body_is_not_sized_by_the_rest_of_the_document() {
    // A trace import reads multi-megabyte documents; the body of an early
    // string must not reserve what follows it.
    let first = format!("{}\\n{}", "a".repeat(500), "b".repeat(500));
    let text = format!("[\"{first}\", \"{}\"]", "c".repeat(4 << 20));
    let root = Reader::new(&text).value().expect("the document reads");
    let Value::Array(items) = root else {
        panic!("the document is an array");
    };
    let Value::Str(body) = &items[0] else {
        panic!("the first item is a string");
    };
    let body = body.clone().into_owned();
    println!(
        "{} B document: first body {} B, capacity {} B",
        text.len(),
        body.len(),
        body.capacity()
    );
    assert_eq!(body.len(), 1001);
    assert!(
        body.capacity() <= 2 * body.len(),
        "a {} B body kept {} B",
        body.len(),
        body.capacity()
    );
}

/// A chain of `stages` three-way fork–joins (5 nodes each) with every
/// derived artifact filled.
fn warm_pipeline(stages: usize) -> Dag {
    let mut b = DagBuilder::new();
    let mut tail: Option<NodeId> = None;
    for stage in 0..stages {
        let (fork, join) = b
            .fork_join(1, &[2, 3, 4], 1, stage % 2 == 0)
            .expect("fresh nodes");
        if let Some(prev) = tail {
            b.add_edge(prev, fork).expect("fresh edge");
        }
        tail = Some(join);
    }
    let dag = b.build().expect("valid pipeline");
    let _ = dag.volume();
    let _ = dag.delay_profile();
    let _ = dag.critical_path_length();
    let _ = dag.max_blocking_antichain();
    let _ = dag.content_hash();
    dag
}

#[test]
fn wcet_only_edit_cost_does_not_grow_with_the_graph() {
    let retime = |dag: &Dag| {
        let target = dag.sink();
        calls_of(|| {
            let mut edit = dag.edit();
            edit.set_wcet(target, 9);
            edit.apply().expect("WCET edits always apply")
        })
    };
    let (small, large) = (warm_pipeline(4), warm_pipeline(64));
    assert_eq!((small.node_count(), large.node_count()), (20, 320));
    let ((small_v2, delta), small_calls) = retime(&small);
    let ((large_v2, _), large_calls) = retime(&large);
    assert!(delta.is_wcet_only());
    assert_eq!(small_v2.wcet(small.sink()), 9);
    assert_eq!(large_v2.volume(), large.volume() + 8);
    println!("WCET-only edit: {small_calls} calls at 20 nodes, {large_calls} at 320");
    assert_eq!(
        small_calls, large_calls,
        "a WCET-only edit's allocator calls depend on the node count"
    );
    assert!(
        small_calls <= 2,
        "a WCET-only edit made {small_calls} allocator calls"
    );
}

#[test]
fn rejected_window_attempts_allocate_nothing() {
    // A Figure 2(a)-style narrow window: b̄ ∈ [6, 7] of m = 8, so most
    // attempts are rejected on the b̄ their draw pass returns, a pass
    // that writes nothing.
    let config = |max_attempts| {
        let dag = DagGenConfig {
            blocking: BlockingPolicy::Fixed(0.9),
        };
        TaskSetConfig::new(1, 1.0, dag).with_concurrency_window(ConcurrencyWindow {
            max_attempts,
            ..ConcurrencyWindow::around(8, 2)
        })
    };
    let rng = |seed| rand::rngs::StdRng::seed_from_u64(seed);
    let mut scratch = DagScratch::new();
    for seed in 0..50 {
        config(20_000)
            .generate_dag_with(&mut rng(seed), &mut scratch)
            .expect("the window is reachable");
    }
    let mut rejected = 0;
    for seed in 0x00F1_6000..0x00F1_6008 {
        // The attempt that is accepted, counted from 1: all before it
        // are rejected.
        let accepted_at = (1..)
            .find(|&k| config(k).generate_dag(&mut rng(seed)).is_ok())
            .expect("some attempt is accepted");
        let (dag, generate_calls) =
            calls_of(|| config(20_000).generate_dag_with(&mut rng(seed), &mut scratch));
        let dag = dag.expect("the window is reachable");
        let (rebuilt, build_calls) = calls_of(|| scratch.build());
        assert_eq!(rebuilt.content_hash(), dag.content_hash());
        let regions = dag.blocking_regions().len() as u64;
        println!(
            "window sample {seed:#x}: accepted at attempt {accepted_at}, \
             {generate_calls} allocator calls, {build_calls} of them the accepted build \
             ({} nodes, {regions} blocking regions)",
            dag.node_count()
        );
        assert_eq!(
            generate_calls, build_calls,
            "rejected window attempts called the allocator (seed {seed:#x})"
        );
        assert!(
            build_calls <= 5 + regions,
            "building the accepted {}-node graph made {build_calls} allocator calls \
             (budget 5 + one per region, {regions} regions)",
            dag.node_count()
        );
        rejected += accepted_at - 1;
    }
    assert!(
        rejected >= 40,
        "only {rejected} rejected attempts: pick seeds that reject"
    );
}

#[test]
fn assembling_a_graph_stays_within_budget() {
    // Figure 2's plain graphs at 35 nodes, the size a task of
    // `admit-cold` has: one `Dag::from_lists` each, through the
    // generator's scratch, then its first delay profile and critical
    // path.
    let config = DagGenConfig::default();
    let mut scratch = DagScratch::new();
    let (mut graphs, mut calls, mut most, mut derived) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0.. {
        config.generate_into(&mut rand::rngs::StdRng::seed_from_u64(seed), &mut scratch);
        if scratch.node_count() != 35 {
            continue;
        }
        let (dag, built) = calls_of(|| scratch.build());
        assert_eq!(dag.node_count(), 35);
        let regions = dag.blocking_regions().len() as u64;
        assert!(
            built <= 5 + regions,
            "assembling a 35-node graph of {regions} blocking regions made {built} allocator calls \
             (budget 5 + one per region)"
        );
        let ((), derive) = calls_of(|| {
            let _ = dag.delay_profile();
            let _ = dag.critical_path_length();
        });
        assert!(
            derive <= 3,
            "a first delay profile and critical path made {derive} allocator calls (budget 3)"
        );
        graphs += 1;
        calls += built;
        most = most.max(built);
        derived += derive;
        if graphs == 40 {
            break;
        }
    }
    println!(
        "Dag::from_lists at 35 nodes: {:.2} allocator calls on average over {graphs} graphs, {most} at most; \
         {:.2} more for the first delay profile and critical path",
        calls as f64 / graphs as f64,
        derived as f64 / graphs as f64
    );
}

/// Node WCETs, edges and blocking pairs, as `Dag::from_lists` takes them.
type Lists = (Vec<u64>, Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// The lists of a chain of `stages` three-way fork–joins (5 nodes
/// each), the first one blocking.
fn pipeline_lists(stages: usize) -> Lists {
    let v = NodeId::from_index;
    let (mut wcets, mut edges) = (Vec::new(), Vec::new());
    for stage in 0..stages {
        let fork = 5 * stage;
        wcets.extend([1, 2, 3, 4, 1]);
        for child in fork + 1..fork + 4 {
            edges.push((v(fork), v(child)));
            edges.push((v(child), v(fork + 4)));
        }
        if stage > 0 {
            edges.push((v(fork - 1), v(fork)));
        }
    }
    (wcets, edges, vec![(v(0), v(4))])
}

#[test]
fn assembly_allocations_do_not_grow_with_the_graph() {
    let counts: Vec<(usize, u64)> = [7, 70, 700]
        .into_iter()
        .map(|stages| {
            let (wcets, edges, pairs) = pipeline_lists(stages);
            let (dag, calls) = calls_of(|| Dag::from_lists(&wcets, &edges, &pairs));
            (dag.expect("a valid pipeline").node_count(), calls)
        })
        .collect();
    println!("Dag::from_lists of a pipeline with one blocking region: {counts:?} (nodes, allocator calls)");
    assert_eq!(
        counts.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        [35, 350, 3500]
    );
    assert!(
        counts.iter().all(|&(_, calls)| calls == counts[0].1),
        "assembly's allocator calls grow with the node count: {counts:?}"
    );
}

#[test]
fn partitioned_pass_allocates_its_core_masks_once() {
    // Four tasks of different sizes: a scratch that is rebuilt whenever
    // the node count changes pays for all `m` masks once per task.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let set = TaskSetConfig::new(4, 1.0, DagGenConfig::default())
        .generate(&mut rng)
        .expect("plain generation cannot fail");
    let sizes: Vec<usize> = set.iter().map(|(_, t)| t.dag().node_count()).collect();
    let pass = |m| calls_of(|| partition_and_analyze(&set, m, PartitionStrategy::WorstFit)).1;
    // Fill the graphs' derived caches first, so both counts are of the
    // pass alone.
    let _ = pass(8);
    let (at8, at16) = (pass(8), pass(16));
    println!("worst-fit partitioned pass over {sizes:?} nodes: {at8} allocator calls at m = 8, {at16} at m = 16");
    assert_eq!(
        at16,
        at8,
        "8 more cores cost more allocator calls over {} tasks: the core masks are made per core",
        sizes.len()
    );
}

/// One node of WCET 100 against a deadline of 50: rejected under either
/// strategy, so nothing below it needs a mapping or a bound.
fn missing_task() -> Task {
    let mut b = DagBuilder::new();
    b.add_node(100);
    Task::with_implicit_deadline(b.build().expect("one node"), 50).expect("valid task")
}

#[test]
fn partitioned_accepts_never_maps_the_tasks_below_a_miss() {
    let missing = missing_task();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let below = TaskSetConfig::new(3, 1.0, DagGenConfig::default())
        .generate(&mut rng)
        .expect("plain generation cannot fail");
    let alone = TaskSet::new(vec![missing.clone()]);
    let ahead = TaskSet::new(
        std::iter::once(missing)
            .chain(below.iter().map(|(_, task)| task.clone()))
            .collect(),
    );
    for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
        let pass = |set: &TaskSet| calls_of(|| accepts(set, 8, strategy));
        // Fill the graphs' derived caches first, so both counts are of
        // the pass alone.
        let _ = (pass(&ahead), pass(&alone));
        let ((ahead_ok, ahead_calls), (alone_ok, alone_calls)) = (pass(&ahead), pass(&alone));
        assert!(!ahead_ok && !alone_ok, "the first task must miss");
        println!(
            "{strategy:?} accepts, first of 4 tasks missing: {ahead_calls} allocator calls, \
             {alone_calls} with the missing task alone"
        );
        assert_eq!(
            ahead_calls, alone_calls,
            "{strategy:?}: the tasks below the first miss were mapped or analyzed"
        );
    }
}

#[test]
fn partitioned_accepts_allocates_per_call_not_per_task() {
    // Four tasks Algorithm 1 maps and the analysis accepts, and the same
    // set behind a first task that misses: one pass maps and bounds all
    // four, the other only the first.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let plain = DagGenConfig {
        blocking: BlockingPolicy::Fixed(0.0),
    };
    let reached = TaskSetConfig::new(4, 0.5, plain)
        .generate(&mut rng)
        .expect("plain generation cannot fail");
    let stopped = TaskSet::new(
        std::iter::once(missing_task())
            .chain(reached.iter().skip(1).map(|(_, task)| task.clone()))
            .collect(),
    );
    let pass = |set: &TaskSet| calls_of(|| accepts(set, 8, PartitionStrategy::Algorithm1));
    // Fill the graphs' derived caches first, so both counts are of the
    // pass alone.
    let _ = (pass(&reached), pass(&stopped));
    let ((all_ok, all_calls), (first_ok, first_calls)) = (pass(&reached), pass(&stopped));
    assert!(
        all_ok && !first_ok,
        "one set must pass and the other miss at its first task"
    );
    println!(
        "Algorithm1 accepts: {all_calls} allocator calls through 4 tasks, {first_calls} stopping at the first"
    );
    assert_eq!(
        all_calls, first_calls,
        "each task reached cost allocator calls: the working buffers are made per task"
    );
}

#[test]
fn algorithm1_allocations_do_not_grow_with_the_graph() {
    let (small, large) = (warm_pipeline(7), warm_pipeline(70));
    assert_eq!((small.node_count(), large.node_count()), (35, 350));
    let (small_mapping, small_calls) = calls_of(|| algorithm1(&small, 4));
    let (large_mapping, large_calls) = calls_of(|| algorithm1(&large, 4));
    assert!(small_mapping.is_ok() && large_mapping.is_ok());
    println!("Algorithm 1: {small_calls} allocator calls at 35 nodes, {large_calls} at 350");
    assert_eq!(
        small_calls, large_calls,
        "Algorithm 1's allocator calls depend on the node count"
    );
}

/// One ledger row: what `f` cost the allocator, as `label calls bytes`.
fn ledger_row<T>(table: &mut String, label: &str, f: impl FnOnce() -> T) -> T {
    let (out, calls, bytes) = work_of(f);
    writeln!(table, "{label:<52} {calls:>8} {bytes:>10}").expect("writing to a String");
    out
}

/// A Figure 2 inset (a) sample at `l_max = 3` on 8 cores: blocking
/// probabilities drawn until a 4-task set at U = 4 lands in the window
/// `[2, 3]` within 60 attempts per draw.
fn windowed_set(rng: &mut rand::rngs::StdRng) -> TaskSet {
    let window = ConcurrencyWindow {
        m: 8,
        l_min: 2,
        l_max: 3,
        max_attempts: 60,
    };
    let mut scratch = DagScratch::new();
    loop {
        let dag = DagGenConfig {
            blocking: BlockingPolicy::Fixed(rng.gen()),
        };
        let config = TaskSetConfig::new(4, 4.0, dag).with_concurrency_window(window);
        match config.generate_with(rng, &mut scratch) {
            Ok(set) => return set,
            Err(GenError::WindowUnsatisfiable { .. }) => continue,
            Err(e) => panic!("windowed generation failed: {e}"),
        }
    }
}

#[test]
fn work_ledger() {
    let mut table =
        String::from("# stage                                               calls      bytes\n");

    // The 40 generated 35-node graphs of `assembling_a_graph_stays_within_budget`.
    let config = DagGenConfig::default();
    let mut scratch = DagScratch::new();
    let mut graphs = Vec::new();
    let mut assembled = (0, 0);
    for seed in 0.. {
        config.generate_into(&mut rand::rngs::StdRng::seed_from_u64(seed), &mut scratch);
        if scratch.node_count() != 35 {
            continue;
        }
        let (dag, calls, bytes) = work_of(|| scratch.build());
        graphs.push(dag);
        assembled = (assembled.0 + calls, assembled.1 + bytes);
        if graphs.len() == 40 {
            break;
        }
    }
    let (calls, bytes) = assembled;
    writeln!(
        table,
        "{:<52} {calls:>8} {bytes:>10}",
        "assemble 40 graphs of 35 nodes"
    )
    .expect("write");
    ledger_row(
        &mut table,
        "derive them: delay profile + critical path",
        || {
            for dag in &graphs {
                let _ = dag.delay_profile();
                let _ = dag.critical_path_length();
            }
        },
    );

    ledger_row(&mut table, "content hash of them", || {
        graphs
            .iter()
            .map(Dag::content_hash)
            .fold(0, u64::wrapping_add)
    });

    for (name, source) in corpus() {
        let set = ledger_row(&mut table, &format!("parse_task_set {name}"), || {
            textfmt::parse_task_set(&source).expect("corpus parses")
        });
        ledger_row(&mut table, &format!("write_task_set {name}"), || {
            textfmt::write_task_set(&set)
        });
        let request = source_request(source);
        ledger_row(&mut table, &format!("encode_request {name}"), || {
            encode_request(&request)
        });
    }

    for seed in 1..=3u64 {
        let rng = &mut rand::rngs::StdRng::seed_from_u64(seed);
        ledger_row(
            &mut table,
            &format!("seed {seed}: U = 2 set, global Full + Limited, m = 8"),
            || {
                let set = TaskSetConfig::new(4, 2.0, DagGenConfig::default())
                    .generate_with(rng, &mut DagScratch::new())
                    .expect("plain generation cannot fail");
                global::accepts(&set, 8, ConcurrencyModel::Full)
                    ^ global::accepts(&set, 8, ConcurrencyModel::Limited)
            },
        );
        ledger_row(
            &mut table,
            &format!("seed {seed}: U = 1 set, worst-fit + Algorithm 1, m = 8"),
            || {
                let set = TaskSetConfig::new(4, 1.0, DagGenConfig::default())
                    .generate_with(rng, &mut DagScratch::new())
                    .expect("plain generation cannot fail");
                accepts(&set, 8, PartitionStrategy::WorstFit)
                    ^ accepts(&set, 8, PartitionStrategy::Algorithm1)
            },
        );
        ledger_row(
            &mut table,
            &format!("seed {seed}: windowed set, l_max = 3, m = 8"),
            || windowed_set(rng),
        );
    }
    print!("{table}");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/work_ledger.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &table).expect("the golden is writable");
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden missing: bless with UPDATE_GOLDEN=1 cargo test --test alloc_budget work_ledger",
    );
    assert_eq!(
        golden, table,
        "the work ledger moved: bless an intended change with UPDATE_GOLDEN=1"
    );
}
