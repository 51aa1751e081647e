//! Test-only reference for `Dag::assemble`: the multi-pass assembly it
//! replaced — a check loop over the lists, one counting sort per
//! direction, the stand-alone Kahn order with its stamp pass, a scan per
//! endpoint, one pass per closure — and a property test holding the
//! fused assembly to it.
//!
//! The test draws lists two ways — the lanes of
//! [`random_shape`](crate::reference) with shuffled ids, and a replica of
//! the task-set generator's nested fork–join recursion under each of its
//! blocking policies at depths 1 to 3 — and then breaks some of them: a
//! repeated, reversed or extra edge, a self-loop, an id out of range, a
//! dropped edge or pair, a random pair, a WCET sum past `u64::MAX`. Both
//! assemblies must build the same graph, down to its rows, order,
//! endpoints, kinds, regions, closure, volume and content hash, or fail
//! with the same [`GraphError`].

use std::sync::Arc;

use proptest::prelude::*;

use crate::cache::DerivedCache;
use crate::csr::Csr;
use crate::dag::{Dag, Topology};
use crate::error::GraphError;
use crate::node::{NodeData, NodeId};
use crate::reach::Reachability;
use crate::reference::{random_shape, Lcg, Shape};
use crate::topo::TopologicalOrder;
use crate::validate;

/// `Dag::from_lists` as it was before its passes were fused.
fn assemble_reference(
    wcets: &[u64],
    edges: &[(NodeId, NodeId)],
    pairs: &[(NodeId, NodeId)],
) -> Result<Dag, GraphError> {
    let n = wcets.len();
    for &(from, to) in edges.iter().chain(pairs) {
        if let Some(&v) = [from, to].iter().find(|v| v.index() >= n) {
            return Err(GraphError::UnknownNode(v));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
    }
    let succ = Csr::from_edges(n, edges.iter().copied());
    let pred = Csr::from_edges(n, edges.iter().map(|&(from, to)| (to, from)));
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let order = TopologicalOrder::compute(&succ)?;
    let source = unique_endpoint(&pred).map_err(GraphError::MultipleSources)?;
    let sink = unique_endpoint(&succ).map_err(GraphError::MultipleSinks)?;
    let reach = Reachability::from_parts(&succ, &pred, &order);
    let (region_of, regions) = validate::regions(&succ, &pred, &reach, pairs)?;
    let volume = wcets
        .iter()
        .try_fold(0u64, |sum, &wcet| sum.checked_add(wcet))
        .ok_or(GraphError::VolumeOverflow)?;
    let nodes = wcets
        .iter()
        .enumerate()
        .map(|(v, &wcet)| NodeData {
            wcet,
            kind: validate::kind_in(&regions, region_of[v], v),
        })
        .collect();
    Ok(Dag {
        nodes,
        topology: Arc::new(Topology {
            succ,
            pred,
            order,
            source,
            sink,
            region_of,
            regions,
        }),
        cache: DerivedCache {
            volume: volume.into(),
            reach: Arc::new(reach).into(),
            ..DerivedCache::default()
        },
    })
}

/// The one node with an empty row in `adj`, or all such nodes in id
/// order.
fn unique_endpoint(adj: &Csr) -> Result<NodeId, Vec<NodeId>> {
    let ends: Vec<NodeId> = (0..adj.node_count())
        .filter(|&v| adj.row(v).is_empty())
        .map(NodeId::from_index)
        .collect();
    match ends.as_slice() {
        &[only] => Ok(only),
        _ => Err(ends),
    }
}

/// The generator's region-promotion policies.
#[derive(Clone, Copy, Debug)]
enum Blocking {
    /// A region at depth `d` is blocking with probability `d/(d+1)`.
    DepthWeighted,
    /// Every region is blocking with probability one half.
    Fixed,
    /// No region is blocking.
    Never,
}

/// One region of [`nested_shape`]'s tree.
struct Block {
    fork: usize,
    join: usize,
    depth: u32,
    parent: Option<usize>,
    has_marked_descendant: bool,
}

/// The task-set generator's shape: a source, one nested fork–join block
/// (2–4 branches of 1–2 sub-blocks each; a sub-block is a single node
/// past the depth cap, and with probability 2/5 below the top) and a
/// sink, nodes numbered in
/// creation order; regions are promoted deepest first, skipping any
/// with a promoted region below it.
fn nested_shape(seed: u64, max_depth: u32, policy: Blocking) -> Shape {
    fn block(
        rng: &mut Lcg,
        shape: &mut Shape,
        tree: &mut Vec<Block>,
        max_depth: u32,
        depth: u32,
        parent: Option<usize>,
    ) -> (usize, usize) {
        let node = |rng: &mut Lcg, shape: &mut Shape| {
            shape.wcets.push(1 + rng.below(100) as u64);
            shape.wcets.len() - 1
        };
        if depth > max_depth || (depth > 1 && rng.below(5) < 2) {
            let v = node(rng, shape);
            return (v, v);
        }
        let (fork, join) = (node(rng, shape), node(rng, shape));
        tree.push(Block {
            fork,
            join,
            depth,
            parent,
            has_marked_descendant: false,
        });
        let me = tree.len() - 1;
        for _ in 0..2 + rng.below(3) {
            let mut prev = fork;
            for _ in 0..1 + rng.below(2) {
                let (entry, exit) = block(rng, shape, tree, max_depth, depth + 1, Some(me));
                shape.edges.push((id(prev), id(entry)));
                prev = exit;
            }
            shape.edges.push((id(prev), id(join)));
        }
        (fork, join)
    }
    fn id(v: usize) -> NodeId {
        NodeId::from_index(v)
    }

    let mut rng = Lcg(seed);
    let mut shape = Shape {
        wcets: vec![1 + rng.below(100) as u64],
        edges: Vec::new(),
        pairs: Vec::new(),
    };
    let mut tree = Vec::new();
    let (entry, exit) = block(&mut rng, &mut shape, &mut tree, max_depth, 1, None);
    shape.wcets.push(1 + rng.below(100) as u64);
    let sink = shape.wcets.len() - 1;
    shape.edges.push((id(0), id(entry)));
    shape.edges.push((id(exit), id(sink)));
    for depth in (1..=max_depth).rev() {
        // Probability as a share of 12.
        let p = match policy {
            Blocking::DepthWeighted => 12 * depth as usize / (depth as usize + 1),
            Blocking::Fixed => 6,
            Blocking::Never => 0,
        };
        for i in 0..tree.len() {
            if tree[i].depth != depth || tree[i].has_marked_descendant || rng.below(12) >= p {
                continue;
            }
            shape.pairs.push((id(tree[i].fork), id(tree[i].join)));
            let mut up = tree[i].parent;
            while let Some(a) = up {
                tree[a].has_marked_descendant = true;
                up = tree[a].parent;
            }
        }
    }
    shape
}

/// Applies one of the mutation classes to `shape`, most of which make
/// its lists invalid.
fn mutate(rng: &mut Lcg, shape: &mut Shape) {
    let n = shape.wcets.len();
    let m = shape.edges.len();
    let node = |rng: &mut Lcg| NodeId::from_index(rng.below(n));
    match rng.below(11) {
        0 => {
            let copy = shape.edges[rng.below(m)];
            shape.edges.insert(rng.below(m + 1), copy);
        }
        1 => {
            let k = rng.below(m);
            let (from, to) = shape.edges[k];
            shape.edges[k] = (to, from);
        }
        2 => {
            let v = node(rng);
            shape.edges.insert(rng.below(m + 1), (v, v));
        }
        3 => {
            let v = node(rng);
            shape.pairs.push((v, v));
        }
        4 => {
            let k = rng.below(m);
            let ghost = NodeId::from_index(n + rng.below(3));
            if rng.below(2) == 0 {
                shape.edges[k].0 = ghost;
            } else {
                shape.edges[k].1 = ghost;
            }
        }
        5 => {
            let ghost = NodeId::from_index(n + rng.below(3));
            shape.pairs.push((node(rng), ghost));
        }
        6 => {
            shape.edges.remove(rng.below(m));
        }
        7 if !shape.pairs.is_empty() => {
            shape.pairs.remove(rng.below(shape.pairs.len()));
        }
        8 => {
            let pair = (node(rng), node(rng));
            shape.pairs.insert(rng.below(shape.pairs.len() + 1), pair);
        }
        9 => {
            let edge = (node(rng), node(rng));
            shape.edges.insert(rng.below(m + 1), edge);
        }
        _ => {
            let v = rng.below(n);
            shape.wcets[v] = u64::MAX - rng.below(50) as u64;
        }
    }
}

/// Everything a built graph holds, compared field by field.
fn same_graph(dag: &Dag, reference: &Dag) -> Result<(), String> {
    let (t, r) = (&*dag.topology, &*reference.topology);
    prop_assert_eq!(&dag.nodes, &reference.nodes);
    prop_assert_eq!(t.order.as_slice(), r.order.as_slice());
    prop_assert_eq!((t.source, t.sink), (r.source, r.sink));
    prop_assert_eq!(&t.region_of, &r.region_of);
    prop_assert_eq!(&t.regions, &r.regions);
    prop_assert_eq!(dag.cache.volume.get(), reference.cache.volume.get());
    let (reach, expected) = (
        dag.cache.reach.get().expect("assembly seeds the closure"),
        reference
            .cache
            .reach
            .get()
            .expect("assembly seeds the closure"),
    );
    prop_assert_eq!(reach.node_count(), expected.node_count());
    for v in dag.node_ids() {
        prop_assert_eq!(dag.successors(v), reference.successors(v));
        prop_assert_eq!(dag.predecessors(v), reference.predecessors(v));
        prop_assert_eq!(reach.descendants(v), expected.descendants(v));
        prop_assert_eq!(reach.ancestors(v), expected.ancestors(v));
    }
    prop_assert_eq!(dag.content_hash(), reference.content_hash());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]
    #[test]
    fn fused_assembly_agrees_with_the_multi_pass_reference(
        seed in any::<u64>(),
        draw in 0usize..4,
        depth in 1u32..4,
        mutations in 0usize..3,
    ) {
        let policy = [Blocking::DepthWeighted, Blocking::Fixed, Blocking::Never];
        let mut shape = match draw {
            0 => random_shape(seed),
            d => nested_shape(seed, depth, policy[d - 1]),
        };
        let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        for _ in 0..mutations {
            mutate(&mut rng, &mut shape);
        }
        let fused = Dag::from_lists(&shape.wcets, &shape.edges, &shape.pairs);
        let reference = assemble_reference(&shape.wcets, &shape.edges, &shape.pairs);
        match (&fused, &reference) {
            (Ok(dag), Ok(expected)) => same_graph(dag, expected)?,
            _ => prop_assert_eq!(fused.err(), reference.err()),
        }
    }
}

#[test]
fn every_mutation_class_meets_its_error() {
    // One mutation per generated graph: both assemblies agree on every
    // seed, and between them the seeds meet every error an edge list or
    // a pair list can earn.
    let mut seen = std::collections::HashSet::new();
    for seed in 0..4000u64 {
        let mut shape = nested_shape(seed, 1 + (seed % 3) as u32, Blocking::DepthWeighted);
        mutate(&mut Lcg(seed), &mut shape);
        let fused = Dag::from_lists(&shape.wcets, &shape.edges, &shape.pairs);
        let reference = assemble_reference(&shape.wcets, &shape.edges, &shape.pairs);
        match (&fused, &reference) {
            (Ok(dag), Ok(expected)) => same_graph(dag, expected).unwrap(),
            _ => assert_eq!(fused.as_ref().err(), reference.as_ref().err()),
        }
        if let Err(e) = fused {
            seen.insert(std::mem::discriminant(&e));
        }
    }
    let v = NodeId::from_index(0);
    for e in [
        GraphError::UnknownNode(v),
        GraphError::SelfLoop(v),
        GraphError::DuplicateEdge(v, v),
        GraphError::Cycle(v),
        GraphError::MultipleSources(Vec::new()),
        GraphError::MultipleSinks(Vec::new()),
        GraphError::UnreachableJoin { fork: v, join: v },
        GraphError::OverlappingPairs(v),
        GraphError::RegionLeak {
            fork: v,
            inner: v,
            outside: v,
        },
        GraphError::ForkEscape {
            fork: v,
            outside: v,
        },
        GraphError::JoinIntrusion {
            join: v,
            outside: v,
        },
        GraphError::NestedRegions {
            outer_fork: v,
            inner_fork: v,
        },
        GraphError::VolumeOverflow,
    ] {
        assert!(
            seen.contains(&std::mem::discriminant(&e)),
            "{e:?} never met"
        );
    }
}
