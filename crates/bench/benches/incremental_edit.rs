//! What does one WCET edit cost on a big graph?
//!
//! A 10,002-node layered DAG sits behind two light chain tasks. Eight
//! times, one interior node's WCET is raised and the set is re-analyzed
//! under all three concurrency models, two ways:
//!
//! * **edit**: `Dag::edit` patches the resident graph, sharing its
//!   topology and derived cells, and `analyze_many` runs on it;
//! * **rebuild**: the graph is built again from its edge list, as a
//!   client without `edit` would re-send it, and `analyze_many` runs on
//!   it.
//!
//! Both run the same analysis, so the ratio is what sharing the derived
//! cells saves.
//!
//! Prints both per-edit medians and their ratio, and fails when any edit's
//! verdicts differ between the two or the ratio is below [`MIN_RATIO`].
//!
//! One more row times what is *not* a WCET edit — one inserted edge and
//! one inserted node through `Dag::edit`, then cold RTA. `Dag::edit`
//! rebuilds such a graph itself, so the row reads like the rebuild's and
//! carries no gate; only its verdicts and content hash must be those of
//! the same graph built client-side.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtpool_core::analysis::global::{analyze_many, ConcurrencyModel};
use rtpool_core::{Task, TaskSet};
use rtpool_graph::{Dag, DagBuilder, NodeId};

const M: usize = 8;
const LAYERS: usize = 100;
const WIDTH: usize = 100;
const NODES: usize = LAYERS * WIDTH + 2;
const PERIOD: u64 = 4 * NODES as u64;
const EDITS: usize = 8;
const MODELS: [ConcurrencyModel; 3] = [
    ConcurrencyModel::Full,
    ConcurrencyModel::Limited,
    ConcurrencyModel::LimitedExact,
];
/// The edit path must be at least this many times faster than the rebuild
/// (89–100 measured on two cores: 0.12–0.17 ms against 11.8–15.1 ms).
const MIN_RATIO: f64 = 10.0;

/// Index of node `i` (mod `WIDTH`) of row `layer`.
fn at(layer: usize, i: usize) -> usize {
    1 + layer * WIDTH + i % WIDTH
}

/// Source (node 0) → `LAYERS` rows of `WIDTH` nodes, each wired to two
/// nodes of the next row → sink (node `NODES - 1`), with the given
/// per-node WCETs; then `extra` edges by node index, which may name the
/// nodes `wcets` lists beyond the sink.
fn layered_dag(wcets: &[u64], extra: &[(usize, usize)]) -> Dag {
    let mut b = DagBuilder::with_capacities(wcets.len(), 2 * NODES + extra.len());
    let ids: Vec<NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
    let at = |layer: usize, i: usize| ids[at(layer, i)];
    for i in 0..WIDTH {
        b.add_edge(ids[0], at(0, i)).expect("source edge");
        b.add_edge(at(LAYERS - 1, i), ids[NODES - 1])
            .expect("sink edge");
    }
    for layer in 0..LAYERS - 1 {
        for i in 0..WIDTH {
            b.add_edge(at(layer, i), at(layer + 1, i))
                .expect("straight edge");
            b.add_edge(at(layer, i), at(layer + 1, i + 1))
                .expect("diagonal edge");
        }
    }
    for &(from, to) in extra {
        b.add_edge(ids[from], ids[to]).expect("extra edge");
    }
    b.build().expect("layered dag is valid")
}

fn chain_task(wcets: &[u64], period: u64) -> Task {
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
    b.add_chain(&ids).expect("chain");
    Task::new(b.build().expect("chain dag"), period, period).expect("chain task")
}

/// The two light tasks, then `dag` as the lowest-priority task.
fn with_big(light: &[Task], dag: Dag) -> TaskSet {
    let mut tasks = light.to_vec();
    tasks.push(Task::new(dag, PERIOD, PERIOD).expect("big task"));
    TaskSet::new(tasks)
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    let mid = samples.len() / 2;
    (samples[mid - 1] + samples[mid]).as_secs_f64() * 1e3 / 2.0
}

fn main() -> ExitCode {
    let mut wcets = vec![1u64; NODES];
    let light = [
        chain_task(&[40, 40], 4_000),
        chain_task(&[60, 60, 60], 9_000),
    ];
    let mut set = with_big(&light, layered_dag(&wcets, &[]));
    // The base set is resident and analyzed before the first edit arrives.
    black_box(analyze_many(&set, M, &MODELS));

    let (mut edit, mut rebuild) = (Vec::new(), Vec::new());
    let mut differing = 0;
    for k in 0..EDITS {
        let node = 1 + k * 7919 % (NODES - 2);
        wcets[node] = 2 + k as u64 % 5;

        let start = Instant::now();
        let mut e = set.as_slice()[2].dag().edit();
        e.set_wcet(NodeId::from_index(node), wcets[node]);
        let (dag, _) = e.apply().expect("WCET edit is valid");
        let edited = with_big(&light, dag);
        let edit_verdicts = analyze_many(&edited, M, &MODELS);
        edit.push(start.elapsed());

        let start = Instant::now();
        let rebuilt = with_big(&light, layered_dag(black_box(&wcets), &[]));
        let rebuild_verdicts = analyze_many(&rebuilt, M, &MODELS);
        rebuild.push(start.elapsed());

        differing += usize::from(edit_verdicts != rebuild_verdicts);
        set = edited;
    }

    // What is not a WCET edit — a mid-graph edge two columns over and a
    // node bridging three rows — is a rebuild inside `Dag::edit` too.
    let (edge, bridge) = ((at(40, 10), at(41, 12)), (at(60, 3), at(62, 3)));
    let id = NodeId::from_index;
    let mut structural = Vec::new();
    let mut structural_differing = 0;
    wcets.push(3);
    let client = layered_dag(&wcets, &[edge, (bridge.0, NODES), (NODES, bridge.1)]);
    let client_hash = client.content_hash();
    let client_verdicts = analyze_many(&with_big(&light, client), M, &MODELS);
    for _ in 0..EDITS {
        let start = Instant::now();
        let mut e = set.as_slice()[2].dag().edit();
        e.insert_edge(id(edge.0), id(edge.1));
        e.insert_node(3, &[id(bridge.0)], &[id(bridge.1)]);
        let (dag, _) = e.apply().expect("structural edit is valid");
        let hash = dag.content_hash();
        let verdicts = analyze_many(&with_big(&light, dag), M, &MODELS);
        structural.push(start.elapsed());
        structural_differing += usize::from(verdicts != client_verdicts || hash != client_hash);
    }

    let (edit_ms, rebuild_ms) = (median_ms(edit), median_ms(rebuild));
    let ratio = rebuild_ms / edit_ms;
    println!("incremental_edit/dag_edit_plus_rta: {edit_ms:.3} ms per edit");
    println!("incremental_edit/rebuild_plus_cold_rta: {rebuild_ms:.3} ms per edit");
    println!("incremental_edit/rebuild_over_edit: {ratio:.1}");
    println!(
        "incremental_edit/structural_edit_plus_cold_rta: {:.3} ms per script (a rebuild, no gate)",
        median_ms(structural)
    );
    if differing > 0 {
        eprintln!(
            "error: {differing} of {EDITS} edits: `Dag::edit` verdicts differ from the rebuild's"
        );
        return ExitCode::FAILURE;
    }
    if structural_differing > 0 {
        eprintln!(
            "error: {structural_differing} of {EDITS} structural scripts: `Dag::edit` and the \
             client rebuild disagree on verdicts or content hash"
        );
        return ExitCode::FAILURE;
    }
    if ratio < MIN_RATIO {
        eprintln!("error: rebuild_over_edit = {ratio:.1} < {MIN_RATIO}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
