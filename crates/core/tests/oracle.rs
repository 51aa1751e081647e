//! The partitioned pipeline agrees with the model written from the
//! paper's definitions (`rtpool_oracle::partition`), through public API
//! only: worst-fit's mapping, Algorithm 1's mapping or its failing node
//! and line under each placement heuristic, and a lone task's
//! partitioned bound, which is the longest path under WCET plus FIFO
//! charge when nothing interferes.
//!
//! Graphs are the oracle's shapes (lanes with shuffled ids, parallel
//! fork–joins, the generator's nested recursion) and the Figure 2
//! generator's own, on pools of 1 to 16, 64 and 4096 threads. One graph
//! in four has its WCETs scaled so that the volume nears `u64::MAX`, where
//! the inflated path can pass it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtpool_core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
use rtpool_core::analysis::{TaskVerdict, UnschedulableReason};
use rtpool_core::partition::{
    algorithm1_with, worst_fit, Algorithm1Error, BestFit, FirstFit, NodeMapping,
    PlacementHeuristic, WorstFit, MAX_PARTITIONED_THREADS,
};
use rtpool_core::{Task, TaskId, TaskSet};
use rtpool_gen::{BlockingPolicy, DagGenConfig};
use rtpool_graph::{Dag, NodeId};
use rtpool_oracle::graph::{self, Graph, Shape};
use rtpool_oracle::partition::{self as model, least_loaded, Failure};
use rtpool_oracle::shapes::{fork_join_star, nested_shape, random_shape, Blocking, Lcg};

/// The pools graph `i` is partitioned onto: 1 to 16 threads and 64, and
/// for one graph in eight the largest pool the partitioned paths take
/// (a debug build spends most of the test there otherwise).
fn pools(i: u64) -> impl Iterator<Item = usize> {
    let largest = i.is_multiple_of(8).then_some(MAX_PARTITIONED_THREADS);
    (1..=16).chain([64]).chain(largest)
}

fn threads(mapping: &NodeMapping) -> Vec<usize> {
    mapping.iter().map(|(_, t)| t.index()).collect()
}

/// `dag` as the model's lists: successor rows in id order, pairs in
/// region order.
fn shape_of(dag: &Dag) -> Shape {
    let edges = dag
        .node_ids()
        .flat_map(|v| {
            dag.successors(v)
                .iter()
                .map(move |w| (v.index(), w.index()))
        })
        .collect();
    let pairs = dag.blocking_regions().iter();
    Shape {
        wcets: dag.node_ids().map(|v| dag.wcet(v)).collect(),
        edges,
        pairs: pairs
            .map(|r| (r.fork().index(), r.join().index()))
            .collect(),
    }
}

fn dag_of(shape: &Shape) -> Dag {
    let ids = |l: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
        let v = NodeId::from_index;
        l.iter().map(|&(a, b)| (v(a), v(b))).collect()
    };
    Dag::from_lists(&shape.wcets, &ids(&shape.edges), &ids(&shape.pairs)).expect("a valid shape")
}

/// Multiplies every WCET by the largest factor that keeps the volume
/// within `u64::MAX`.
fn scaled(mut shape: Shape) -> Shape {
    let volume: u64 = shape.wcets.iter().sum();
    let factor = u64::MAX / volume;
    for w in &mut shape.wcets {
        *w *= factor;
    }
    shape
}

/// The `i`-th graph: one of the oracle's three shape families or a
/// generated Figure 2 graph, its WCETs scaled for one `i` in four.
fn case(i: u64) -> Shape {
    let policies = [Blocking::DepthWeighted, Blocking::Fixed];
    let shape = match i % 4 {
        0 => random_shape(i),
        1 => fork_join_star(i, 5, true),
        2 => nested_shape(i, 1 + (i / 4 % 3) as u32, policies[(i / 4 % 2) as usize]),
        _ => {
            let p = (i / 4 % 11) as f64 / 10.0;
            let config = DagGenConfig {
                blocking: BlockingPolicy::Fixed(p),
            };
            shape_of(&config.generate(&mut StdRng::seed_from_u64(i)))
        }
    };
    if i % 16 >= 12 {
        scaled(shape)
    } else {
        shape
    }
}

/// The library's Algorithm 1 outcome in the model's terms.
fn outcome<H: PlacementHeuristic>(dag: &Dag, m: usize, mut h: H) -> Result<Vec<usize>, Failure> {
    match algorithm1_with(dag, m, &mut h) {
        Ok(mapping) => Ok(threads(&mapping)),
        Err(failure) => {
            let node = failure.node.index();
            Err(match failure.error {
                Algorithm1Error::ConflictingPreassignment { thread } => (node, 7, thread.index()),
                Algorithm1Error::SaturatedByBlockingForks { blocked_threads } => {
                    (node, 9, blocked_threads)
                }
                Algorithm1Error::NoThreadForFork { fork } => (node, 17, fork.index()),
                other => panic!("unknown failure {other:?}"),
            })
        }
    }
}

/// A lone task's partitioned verdict against the model's: `R` is the
/// inflated longest path when it is within the deadline.
fn same_bound(
    shape: &Shape,
    g: &Graph,
    set: &TaskSet,
    m: usize,
    strategy: PartitionStrategy,
) -> Result<(), String> {
    let (result, mappings) = partition_and_analyze(set, m, strategy);
    let verdict = result.verdict(TaskId(0));
    let Some(mapping) = &mappings[0] else {
        return match verdict {
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::PartitioningFailed,
            } => Ok(()),
            other => Err(format!("no mapping, but {other:?}")),
        };
    };
    let path = model::inflated_longest_path(shape, g, &threads(mapping));
    let deadline = u128::from(set.task(TaskId(0)).deadline());
    let expected = (path <= deadline).then_some(path);
    let got = verdict.response_time().map(u128::from);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{strategy:?}: R {got:?}, inflated path {path}, D {deadline}"
        ))
    }
}

#[test]
fn partitioning_and_lone_bounds_agree_with_the_model() {
    let mut runs = [0usize; 4];
    let mut failed = [0usize; 3];
    for i in 0..240u64 {
        let shape = case(i);
        let g = graph::build(&shape).expect("a valid shape");
        let dag = dag_of(&shape);
        let order: Vec<usize> = dag.topological_order().iter().map(|v| v.index()).collect();
        assert_eq!(order, g.order, "graph {i}: the model visits another order");
        // A deadline between the critical path and twice the volume, so
        // that some bounds fit and some do not.
        let (len, volume) = (dag.critical_path_length(), dag.volume());
        let mut rng = Lcg(i | 1);
        let slack = (volume / 1024)
            .max(1)
            .saturating_mul(rng.below(2048) as u64);
        let deadline = len.saturating_add(slack);
        let set = TaskSet::new(vec![
            Task::with_implicit_deadline(dag.clone(), deadline).unwrap()
        ]);
        for m in pools(i) {
            let at = format!("graph {i}, m = {m}");
            assert_eq!(
                threads(&worst_fit(&dag, m)),
                model::worst_fit(&shape, &g, m),
                "{at}: worst-fit"
            );
            let mut lightest = |_, allowed: &[usize], loads: &[u64]| least_loaded(allowed, loads);
            let mut lowest = |_, allowed: &[usize], _: &[u64]| allowed[0];
            let mut heaviest = |_, allowed: &[usize], loads: &[u64]| {
                let most = allowed.iter().map(|&t| loads[t]).max().expect("a thread");
                *allowed
                    .iter()
                    .find(|&&t| loads[t] == most)
                    .expect("a thread")
            };
            let expected = [
                model::algorithm1(&shape, &g, m, &mut lightest),
                model::algorithm1(&shape, &g, m, &mut lowest),
                model::algorithm1(&shape, &g, m, &mut heaviest),
            ];
            let got = [
                outcome(&dag, m, WorstFit),
                outcome(&dag, m, FirstFit),
                outcome(&dag, m, BestFit),
            ];
            for (h, (got, expected)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(got, expected, "{at}: Algorithm 1, heuristic {h}");
                if let Err((_, line, _)) = expected {
                    failed[[7, 9, 17].iter().position(|l| l == line).unwrap()] += 1;
                }
            }
            for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
                same_bound(&shape, &g, &set, m, strategy).unwrap_or_else(|e| panic!("{at}: {e}"));
            }
            runs[0] += 1;
            runs[1] += 3;
            runs[2] += 2;
        }
        runs[3] += 1;
    }
    println!(
        "{} graphs: {} worst-fit mappings, {} Algorithm 1 runs (failures at lines 7/9/17: {failed:?}), \
         {} lone bounds",
        runs[3], runs[0], runs[1], runs[2]
    );
    assert!(
        failed[1] > 0 && failed[2] > 0,
        "the graphs lost a failure: {failed:?}"
    );
}
