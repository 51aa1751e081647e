//! Seeded graph shapes for the agreement tests, and the mutations that
//! break them.
//!
//! Every shape is a function of one `u64` seed through [`Lcg`], so a
//! property test that draws seeds draws shapes, and a failing case is
//! reproduced from its seed alone.

use crate::graph::Shape;

/// A 64-bit linear congruential generator (Knuth's MMIX constants); the
/// draw is the high 31 bits of the state, reduced modulo the bound.
#[derive(Clone, Debug)]
pub struct Lcg(pub u64);

impl Lcg {
    /// A draw in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % bound
    }

    /// Fisher–Yates, from the back.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Parallel lanes between a source and a sink; each lane is a series of
/// plain nodes and fork–joins (some declared blocking), with forward skip
/// edges between the lane's own connection points. Node ids and the
/// edge insertion order are both shuffled, so rows list larger ids before
/// smaller ones and the FIFO frontier differs from id order.
#[must_use]
pub fn random_shape(seed: u64) -> Shape {
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
    Shape {
        wcets: (0..count).map(|_| 1 + rng.below(50) as u64).collect(),
        edges: edges.iter().map(|&(a, b)| (id_of[a], id_of[b])).collect(),
        pairs: pairs.iter().map(|&(f, j)| (id_of[f], id_of[j])).collect(),
    }
}

/// Parallel fork–joins between a source (node 0) and a sink (node 1):
/// 1 to `max_regions` of them, each numbered and wired as
/// `DagBuilder::fork_join` lays one out (fork, join, then its 1–4
/// children), and each blocking with probability one half when
/// `blocking` is set.
#[must_use]
pub fn fork_join_star(seed: u64, max_regions: usize, blocking: bool) -> Shape {
    let mut rng = Lcg(seed | 1);
    let wcet = |rng: &mut Lcg, bound| 1 + rng.below(bound) as u64;
    let mut shape = Shape {
        wcets: vec![wcet(&mut rng, 50), wcet(&mut rng, 50)],
        ..Shape::default()
    };
    for _ in 0..1 + rng.below(max_regions.max(1)) {
        let kids: Vec<u64> = (0..1 + rng.below(4)).map(|_| wcet(&mut rng, 100)).collect();
        let blocking = blocking && rng.below(2) == 0;
        let (fork, join) = (shape.wcets.len(), shape.wcets.len() + 1);
        shape.wcets.extend([wcet(&mut rng, 50), wcet(&mut rng, 50)]);
        for (c, w) in (join + 1..).zip(kids) {
            shape.wcets.push(w);
            shape.edges.extend([(fork, c), (c, join)]);
        }
        if blocking {
            shape.pairs.push((fork, join));
        }
        shape.edges.extend([(0, fork), (join, 1)]);
    }
    shape
}

/// The task-set generator's region-promotion policies.
#[derive(Clone, Copy, Debug)]
pub enum Blocking {
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
/// sink, nodes numbered in creation order; regions are promoted deepest
/// first, skipping any with a promoted region below it.
#[must_use]
pub fn nested_shape(seed: u64, max_depth: u32, policy: Blocking) -> Shape {
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
                shape.edges.push((prev, entry));
                prev = exit;
            }
            shape.edges.push((prev, join));
        }
        (fork, join)
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
    shape.edges.push((0, entry));
    shape.edges.push((exit, sink));
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
            shape.pairs.push((tree[i].fork, tree[i].join));
            let mut up = tree[i].parent;
            while let Some(a) = up {
                tree[a].has_marked_descendant = true;
                up = tree[a].parent;
            }
        }
    }
    shape
}

/// Applies one of thirteen mutation classes to `shape`, most of which
/// break a rule of the model: a repeated, reversed or extra edge; a
/// self-loop edge or pair; an edge or pair end past the last node; a
/// dropped edge or pair; a random pair; a WCET near `u64::MAX`; a pair
/// that reuses an earlier pair's fork or join; and an inner node given
/// an outside successor and an outside predecessor. A class that needs
/// a pair falls back to the WCET class on a shape with none.
///
/// # Panics
///
/// Panics if `shape` has no node or no edge.
pub fn mutate(rng: &mut Lcg, shape: &mut Shape) {
    let n = shape.wcets.len();
    let m = shape.edges.len();
    match rng.below(13) {
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
            let v = rng.below(n);
            shape.edges.insert(rng.below(m + 1), (v, v));
        }
        3 => {
            let v = rng.below(n);
            shape.pairs.push((v, v));
        }
        4 => {
            let k = rng.below(m);
            let ghost = n + rng.below(3);
            if rng.below(2) == 0 {
                shape.edges[k].0 = ghost;
            } else {
                shape.edges[k].1 = ghost;
            }
        }
        5 => {
            let ghost = n + rng.below(3);
            shape.pairs.push((rng.below(n), ghost));
        }
        6 => {
            shape.edges.remove(rng.below(m));
        }
        7 if !shape.pairs.is_empty() => {
            shape.pairs.remove(rng.below(shape.pairs.len()));
        }
        8 => {
            let pair = (rng.below(n), rng.below(n));
            shape.pairs.insert(rng.below(shape.pairs.len() + 1), pair);
        }
        9 => {
            let edge = (rng.below(n), rng.below(n));
            shape.edges.insert(rng.below(m + 1), edge);
        }
        11 if !shape.pairs.is_empty() => {
            // The new end is a successor of the pair's join (when the fork
            // is reused) or a predecessor of it (when the join is), so the
            // new fork still reaches its join and the overlap is what
            // fails.
            let (fork, join) = shape.pairs[rng.below(shape.pairs.len())];
            let pair = if rng.below(2) == 0 {
                let after = shape.edges.iter().find(|e| e.0 == join);
                (fork, after.map_or(join, |e| e.1))
            } else {
                let before = shape.edges.iter().find(|e| e.1 == join && e.0 != fork);
                (before.map_or(fork, |e| e.0), join)
            };
            shape.pairs.push(pair);
        }
        12 if !shape.pairs.is_empty() => {
            // A successor of a fork other than its join is inner; an edge
            // to a node with no successor and one from a node with no
            // predecessor both leave its region.
            let (fork, join) = shape.pairs[rng.below(shape.pairs.len())];
            let inner = shape.edges.iter().find(|e| e.0 == fork && e.1 != join);
            let sink = (0..n).find(|&v| shape.edges.iter().all(|e| e.0 != v));
            let source = (0..n).find(|&v| shape.edges.iter().all(|e| e.1 != v));
            if let (Some(&(_, inner)), Some(sink), Some(source)) = (inner, sink, source) {
                shape.edges.push((inner, sink));
                shape.edges.push((source, inner));
            }
        }
        _ => {
            let v = rng.below(n);
            shape.wcets[v] = u64::MAX - rng.below(50) as u64;
        }
    }
}
