//! Every graph the library assembles agrees with the model written from
//! the paper's definitions (`rtpool_oracle::graph`), through public API
//! only.
//!
//! Shapes are the lanes of `random_shape` (shuffled ids and edge order)
//! and the generator's nested fork–join recursion (`nested_shape`) under
//! each blocking policy at depths 1 to 3, some broken by `mutate`. Where
//! the model accepts a shape, the graphs `Dag::from_lists` and
//! `DagBuilder` build must equal it in every row, order, kind, region,
//! closure, delay set, volume, critical path and content hash; where it
//! rejects one, `Dag::from_lists` must fail with the same `GraphError`
//! variant and witnesses. An accepted graph is also grown by one node
//! from its source to its sink through `Dag::edit`, a rebuild from its
//! rows, which must meet the model's verdict on the lists with those two
//! edges appended.

use std::collections::HashSet;

use proptest::prelude::*;
use rtpool_graph::{BitRow, Dag, DagBuilder, GraphError, NodeId};
use rtpool_oracle::graph::{self, members, Graph, Shape};
use rtpool_oracle::shapes::{mutate, nested_shape, random_shape, Blocking, Lcg};

fn ids(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|v| v.index()).collect()
}

/// The variant name of `e`, as the model names its rules.
fn variant(e: &GraphError) -> String {
    format!("{e:?}")
        .chars()
        .take_while(char::is_ascii_alphabetic)
        .collect()
}

/// Everything the library derives for `dag`, against the model's `g`.
fn same_graph(dag: &Dag, g: &Graph) -> Result<(), String> {
    let n = g.kinds.len();
    let edges: usize = g.succ.iter().map(Vec::len).sum();
    prop_assert_eq!(
        (dag.node_count(), dag.edge_count(), dag.volume()),
        (n, edges, g.volume)
    );
    prop_assert_eq!(
        (dag.source().index(), dag.sink().index()),
        (g.source, g.sink)
    );
    prop_assert_eq!(ids(dag.topological_order().as_slice()), g.order.clone());
    for (r, expected) in dag.blocking_regions().iter().zip(&g.regions) {
        prop_assert_eq!(
            (r.fork().index(), r.join().index()),
            (expected.fork, expected.join)
        );
        prop_assert_eq!(ids(r.inner()), expected.inner.clone());
    }
    prop_assert_eq!(dag.blocking_regions().len(), g.regions.len());
    let (reach, delays) = (dag.reachability(), dag.delay_profile());
    prop_assert_eq!(delays.max_delay_count(), g.b_bar);
    let row = |r: BitRow<'_>| (r.capacity(), r.iter().collect::<Vec<_>>());
    for v in dag.node_ids() {
        let i = v.index();
        prop_assert_eq!(format!("{:?}", dag.kind(v)), g.kinds[i]);
        let region = dag.region_of(v).map(|r| r.fork().index());
        prop_assert_eq!(region, g.region_of[i].map(|r| g.regions[r].fork));
        prop_assert_eq!(ids(dag.successors(v)), g.succ[i].clone());
        prop_assert_eq!(ids(dag.predecessors(v)), g.pred[i].clone());
        prop_assert_eq!(row(reach.descendants(v)), (n, members(&g.descendants[i])));
        prop_assert_eq!(row(reach.ancestors(v)), (n, members(&g.ancestors[i])));
        let x = members(&g.delays[i]);
        prop_assert_eq!(delays.delay_count(v), x.len());
        prop_assert_eq!(row(delays.delay_row(v)), (n, x));
    }
    prop_assert_eq!(dag.critical_path_length(), g.critical_path);
    prop_assert_eq!(dag.content_hash(), g.content_hash);
    Ok(())
}

/// The library's and the model's verdicts on one shape agree: the same
/// graph, or the same rule with the same witnesses. Returns the rule.
fn same_verdict(
    library: Result<Dag, GraphError>,
    model: Result<Graph, graph::Rejection>,
) -> Result<Option<&'static str>, String> {
    match (library, model) {
        (Ok(dag), Ok(g)) => same_graph(&dag, &g).map(|()| None),
        (Err(e), Err((rule, nodes))) => {
            let name = variant(&e);
            prop_assert_eq!((name.as_str(), ids(&e.nodes())), (rule, nodes));
            Ok(Some(rule))
        }
        (dag, model) => Err(format!("library {:?}, model {:?}", dag.err(), model.err())),
    }
}

/// `dag` grown by one node of WCET 7 from its source to its sink through
/// `Dag::edit`, against the model on `shape` with those edges appended.
fn grow_agrees(dag: &Dag, g: &Graph, shape: &Shape) -> Result<(), String> {
    let mut grown = shape.clone();
    let new = grown.wcets.len();
    grown.wcets.push(7);
    grown.edges.extend([(g.source, new), (new, g.sink)]);
    let mut edit = dag.edit();
    edit.insert_node(7, &[dag.source()], &[dag.sink()]);
    same_verdict(edit.apply().map(|(dag, _)| dag), graph::build(&grown)).map(|_| ())
}

/// Builds `shape` through the library and the model and compares them;
/// the rule the model rejects it under, if any.
fn agree(shape: &Shape) -> Result<Option<&'static str>, String> {
    let node = |&(a, b): &(usize, usize)| (NodeId::from_index(a), NodeId::from_index(b));
    let edges: Vec<_> = shape.edges.iter().map(node).collect();
    let pairs: Vec<_> = shape.pairs.iter().map(node).collect();
    let (library, model) = (
        Dag::from_lists(&shape.wcets, &edges, &pairs),
        graph::build(shape),
    );
    if let (Ok(dag), Ok(g)) = (&library, &model) {
        dag.validate_model().map_err(|e| e.to_string())?;
        if g.source != g.sink {
            grow_agrees(dag, g, shape)?;
        }
        let mut b = DagBuilder::new();
        for &w in &shape.wcets {
            b.add_node(w);
        }
        for &(from, to) in &edges {
            b.add_edge(from, to).map_err(|e| e.to_string())?;
        }
        for &(fork, join) in &pairs {
            b.blocking_pair(fork, join).map_err(|e| e.to_string())?;
        }
        same_graph(&b.build().map_err(|e| e.to_string())?, g)?;
    }
    same_verdict(library, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2304))]
    #[test]
    fn every_assembled_graph_agrees_with_the_model(
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
        agree(&shape)?;
    }
}

/// `shape` through `Dag::from_lists`, when it builds.
fn lists(shape: &Shape) -> Option<Dag> {
    let node = |&(a, b): &(usize, usize)| (NodeId::from_index(a), NodeId::from_index(b));
    let edges: Vec<_> = shape.edges.iter().map(node).collect();
    let pairs: Vec<_> = shape.pairs.iter().map(node).collect();
    Dag::from_lists(&shape.wcets, &edges, &pairs).ok()
}

/// `other` hashes apart from `dag` and compares unequal to it.
fn apart(dag: &Dag, other: &Dag, what: &str) -> Result<(), String> {
    prop_assert!(dag.content_hash() != other.content_hash(), "{}", what);
    prop_assert!(dag != other, "{}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Every step of the hash kernel is a bijection, so one changed word
    /// changes the hash: a changed WCET, a dropped pair and two swapped
    /// successor rows (or two swapped edges of one row) each hash apart,
    /// and `==` tells each apart too. A cold copy and a WCET edit back to
    /// the same WCETs hash and compare equal.
    #[test]
    fn one_changed_word_hashes_apart(
        seed in any::<u64>(),
        depth in 1u32..4,
        bump in 1u64..1000,
    ) {
        let shape = nested_shape(seed, depth, Blocking::DepthWeighted);
        let dag = lists(&shape).expect("a nested shape builds");
        prop_assert!(dag.clone_uncached() == dag);
        prop_assert_eq!(dag.clone_uncached().content_hash(), dag.content_hash());
        for v in dag.node_ids() {
            let mut changed = shape.clone();
            changed.wcets[v.index()] = changed.wcets[v.index()].wrapping_add(bump) % (1 << 40);
            if let Some(other) = lists(&changed) {
                apart(&dag, &other, &format!("WCET of {v:?}"))?;
                let mut edit = other.edit();
                edit.set_wcet(v, dag.wcet(v));
                let (back, _) = edit.apply().expect("a WCET edit applies");
                prop_assert_eq!(back.content_hash(), dag.content_hash());
                prop_assert!(back == dag);
            }
        }
        for k in 0..shape.pairs.len() {
            let mut dropped = shape.clone();
            dropped.pairs.remove(k);
            let other = lists(&dropped).expect("dropping a pair keeps the graph valid");
            apart(&dag, &other, &format!("pair {k} dropped"))?;
        }
        let rows: Vec<Vec<usize>> = dag.node_ids().map(|v| ids(dag.successors(v))).collect();
        for a in 0..rows.len() {
            if let Some(row) = rows[a].get(..2) {
                let mut swapped = shape.clone();
                let at = |e: (usize, usize)| swapped.edges.iter().position(|&x| x == e).unwrap();
                let (i, j) = (at((a, row[0])), at((a, row[1])));
                swapped.edges.swap(i, j);
                let other = lists(&swapped).expect("reordering a row keeps the graph valid");
                apart(&dag, &other, &format!("row {a} reordered"))?;
            }
            let b = (a + 1 + seed as usize % rows.len()) % rows.len();
            if rows[a] == rows[b] {
                continue;
            }
            let mut swapped = shape.clone();
            for e in &mut swapped.edges {
                e.0 = if e.0 == a { b } else if e.0 == b { a } else { e.0 };
            }
            if let Some(other) = lists(&swapped) {
                apart(&dag, &other, &format!("rows {a} and {b} swapped"))?;
            }
        }
    }
}

#[test]
fn every_mutation_class_meets_its_error() {
    // One mutation per generated graph: the library and the model agree
    // on every seed, and between them the seeds meet every rule an edge
    // list or a pair list can break.
    let mut seen = HashSet::new();
    for seed in 0..4000u64 {
        let mut shape = nested_shape(seed, 1 + (seed % 3) as u32, Blocking::DepthWeighted);
        mutate(&mut Lcg(seed), &mut shape);
        seen.extend(agree(&shape).unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    for rule in [
        "UnknownNode",
        "SelfLoop",
        "DuplicateEdge",
        "Cycle",
        "MultipleSources",
        "MultipleSinks",
        "UnreachableJoin",
        "OverlappingPairs",
        "RegionLeak",
        "ForkEscape",
        "JoinIntrusion",
        "NestedRegions",
        "VolumeOverflow",
    ] {
        assert!(seen.contains(rule), "{rule} never met");
    }
}
