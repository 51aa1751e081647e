//! Test-only reference model: the graph as nested per-node vectors and
//! one owned bit set per closure row — the representation the crate used
//! before its adjacency became CSR and its closures flat matrices.
//!
//! The property test at the bottom builds the same random shape through
//! [`DagBuilder`] and through this model and demands equality of
//! everything order-sensitive: neighbour slices, topological order,
//! content hash, critical-path witness, and every reachability and
//! delay row.

use std::collections::VecDeque;

use proptest::prelude::*;

use crate::bitset::BitSet;
use crate::builder::DagBuilder;
use crate::node::NodeId;

/// A shape to build both ways: WCETs, edges in insertion order, pairs.
#[derive(Clone, Debug)]
pub(crate) struct Shape {
    pub(crate) wcets: Vec<u64>,
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) pairs: Vec<(NodeId, NodeId)>,
}

struct Nested {
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    topo: Vec<NodeId>,
    descendants: Vec<BitSet>,
    ancestors: Vec<BitSet>,
}

impl Nested {
    fn new(shape: &Shape) -> Self {
        let n = shape.wcets.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(from, to) in &shape.edges {
            succ[from.index()].push(to);
            pred[to.index()].push(from);
        }

        // Kahn with an explicit FIFO frontier seeded in id order.
        let mut indegree: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut frontier: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = frontier.pop_front() {
            topo.push(NodeId::from_index(v));
            for &w in &succ[v] {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    frontier.push_back(w.index());
                }
            }
        }
        assert_eq!(topo.len(), n, "generated shapes are acyclic");

        let closure = |adj: &[Vec<NodeId>], order: &mut dyn Iterator<Item = NodeId>| {
            let mut rows = vec![BitSet::new(n); n];
            for v in order {
                let mut row = BitSet::new(n);
                for &w in &adj[v.index()] {
                    row.insert(w.index());
                    row.union_with(&rows[w.index()]);
                }
                rows[v.index()] = row;
            }
            rows
        };
        let descendants = closure(&succ, &mut topo.iter().rev().copied());
        let ancestors = closure(&pred, &mut topo.iter().copied());
        Nested {
            succ,
            pred,
            topo,
            descendants,
            ancestors,
        }
    }

    /// `X(v)`: forks unordered with `v`, plus the fork `v` sits inside.
    fn delay_row(&self, shape: &Shape, v: usize) -> BitSet {
        let mut row = BitSet::new(shape.wcets.len());
        for &(fork, join) in &shape.pairs {
            let f = fork.index();
            let unordered =
                f != v && !self.descendants[v].contains(f) && !self.ancestors[v].contains(f);
            let inside =
                self.descendants[f].contains(v) && self.ancestors[join.index()].contains(v);
            if unordered || inside {
                row.insert(f);
            }
        }
        row
    }

    /// FNV-1a over node count, WCETs, edges row by row, pairs by lower id.
    fn content_hash(&self, shape: &Shape) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(shape.wcets.len() as u64);
        for &w in &shape.wcets {
            mix(w);
        }
        for (from, succs) in self.succ.iter().enumerate() {
            for to in succs {
                mix(((from as u64) << 32) | to.index() as u64);
            }
        }
        let mut pairs: Vec<(usize, usize)> = shape
            .pairs
            .iter()
            .map(|&(f, j)| (f.index().min(j.index()), f.index().max(j.index())))
            .collect();
        pairs.sort_unstable();
        for (lo, hi) in pairs {
            mix(((lo as u64) << 32) | hi as u64);
        }
        h
    }

    /// Longest path by WCET; among equally long prefixes the predecessor
    /// with the smaller id wins.
    fn critical_path(&self, shape: &Shape) -> (u64, Vec<NodeId>) {
        let n = shape.wcets.len();
        let mut dist = vec![0u64; n];
        let mut best_pred: Vec<Option<NodeId>> = vec![None; n];
        for &v in &self.topo {
            let mut best: Option<(u64, NodeId)> = None;
            for &p in &self.pred[v.index()] {
                let d = dist[p.index()];
                if best.is_none_or(|(bd, bp)| d > bd || (d == bd && p < bp)) {
                    best = Some((d, p));
                }
            }
            dist[v.index()] = best.map_or(0, |(d, _)| d) + shape.wcets[v.index()];
            best_pred[v.index()] = best.map(|(_, p)| p);
        }
        let sink = (0..n)
            .find(|&v| self.succ[v].is_empty())
            .expect("a sink exists");
        let mut nodes = vec![NodeId::from_index(sink)];
        while let Some(p) = best_pred[nodes.last().expect("non-empty").index()] {
            nodes.push(p);
        }
        nodes.reverse();
        (dist[sink], nodes)
    }
}

/// Minimal LCG so a `(u64 seed)` strategy drives the whole shape.
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % bound
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Parallel lanes between a source and a sink; each lane is a series of
/// plain nodes and fork–joins (some blocking), with forward skip edges
/// between the lane's own connection points. Node ids and the edge
/// insertion order are both shuffled, so rows list larger ids before
/// smaller ones and the FIFO frontier differs from id order.
pub(crate) fn random_shape(seed: u64) -> Shape {
    let mut rng = Lcg(seed);
    // Logical nodes first; ids are assigned by a shuffle afterwards.
    let mut count = 2usize; // 0 = source, 1 = sink
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for _ in 0..1 + rng.below(4) {
        // (entry, exit) of each element of the lane.
        let mut elements: Vec<(usize, usize)> = Vec::new();
        for _ in 0..1 + rng.below(4) {
            if rng.below(2) == 0 {
                elements.push((count, count));
                count += 1;
            } else {
                let (fork, join) = (count, count + 1);
                count += 2;
                for _ in 0..1 + rng.below(3) {
                    edges.push((fork, count));
                    edges.push((count, join));
                    count += 1;
                }
                if rng.below(2) == 0 {
                    pairs.push((fork, join));
                }
                elements.push((fork, join));
            }
        }
        edges.push((0, elements[0].0));
        edges.push((elements[elements.len() - 1].1, 1));
        for w in elements.windows(2) {
            edges.push((w[0].1, w[1].0));
        }
        // Skip edges exit -> later entry: legal for every node kind (a
        // join's out-edges and a fork's in-edges are unrestricted).
        for i in 0..elements.len() {
            for j in i + 2..elements.len() {
                if rng.below(3) == 0 {
                    edges.push((elements[i].1, elements[j].0));
                }
            }
        }
    }
    let mut id_of: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut id_of);
    rng.shuffle(&mut edges);
    let node = |logical: usize| NodeId::from_index(id_of[logical]);
    Shape {
        wcets: (0..count).map(|_| 1 + rng.below(50) as u64).collect(),
        edges: edges.iter().map(|&(a, b)| (node(a), node(b))).collect(),
        pairs: pairs.iter().map(|&(f, j)| (node(f), node(j))).collect(),
    }
}

proptest! {
    #[test]
    fn csr_graph_equals_nested_vector_reference(seed in any::<u64>()) {
        let shape = random_shape(seed);
        let mut b = DagBuilder::new();
        for &w in &shape.wcets {
            b.add_node(w);
        }
        for &(from, to) in &shape.edges {
            b.add_edge(from, to).unwrap();
        }
        for &(fork, join) in &shape.pairs {
            b.blocking_pair(fork, join).unwrap();
        }
        let dag = b.build().unwrap();
        let reference = Nested::new(&shape);

        prop_assert_eq!(dag.edge_count(), shape.edges.len());
        prop_assert_eq!(dag.topological_order().as_slice(), reference.topo.as_slice());
        prop_assert_eq!(dag.content_hash(), reference.content_hash(&shape));
        let (length, witness) = reference.critical_path(&shape);
        prop_assert_eq!(dag.critical_path().length, length);
        prop_assert_eq!(&dag.critical_path().nodes, &witness);
        let (reach, delays) = (dag.reachability(), dag.delay_profile());
        for v in dag.node_ids() {
            let i = v.index();
            prop_assert_eq!(dag.successors(v), reference.succ[i].as_slice());
            prop_assert_eq!(dag.predecessors(v), reference.pred[i].as_slice());
            prop_assert_eq!(reach.descendants(v), reference.descendants[i].as_row());
            prop_assert_eq!(reach.ancestors(v), reference.ancestors[i].as_row());
            let row = reference.delay_row(&shape, i);
            prop_assert_eq!(delays.delay_row(v), row.as_row());
            prop_assert_eq!(delays.delay_count(v), row.len());
        }
    }
}
