//! The task graph of the paper's Section 2 and the delay sets of its
//! Section 3.1, built from the definitions.
//!
//! [`build`] either rejects a [`Shape`] with the first rule it breaks
//! ([`Rejection`]) or returns every quantity a [`Graph`] is compared on.
//! Nothing here is fast: rows are `Vec`s, the closure is one search from
//! each node, and each rule is a scan of its definition. Rules are
//! checked in this order; each is named as `rtpool_graph::GraphError`
//! names it, followed by its witnesses:
//!
//! 1. each edge, then each pair, in list order: an end past the last
//!    node (`UnknownNode`: that end, `from` first), then both ends equal
//!    (`SelfLoop`: the node);
//! 2. no node at all (`Empty`);
//! 3. a target listed twice in one successor row, rows in id order
//!    (`DuplicateEdge`: from, to); then a cycle (`Cycle`: the lowest id
//!    Kahn's algorithm never emits);
//! 4. not one source (`MultipleSources`: all, by id), then not one sink
//!    (`MultipleSinks`: all, by id);
//! 5. per pair `(f, j)` in declaration order, with
//!    `V' = succ*(f) ∩ pred*(j) ∪ {f, j}`: `f` does not reach `j`
//!    (`UnreachableJoin`: f, j); `f`, else `j`, delimits an earlier pair
//!    (`OverlappingPairs`: that node); a node of `V'` (`f`, `j`, then the
//!    inner nodes by id) lies in an earlier region (`NestedRegions`: f,
//!    that region's fork); (ii) a successor of `f` is outside `V'`
//!    (`ForkEscape`: f, the first one); (iii) a predecessor of `j` is
//!    outside `V'` (`JoinIntrusion`: j, the first one); (i) an inner node,
//!    by id, has a neighbour outside `V'`, its successor row read before
//!    its predecessor row (`RegionLeak`: the inner node, f, the first
//!    neighbour);
//! 6. the WCETs sum past `u64::MAX` (`VolumeOverflow`).

use std::collections::VecDeque;

/// A graph to build: node `i` has WCET `wcets[i]`; edges in insertion
/// order; blocking pairs `(fork, join)` in declaration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Shape {
    /// WCET of each node.
    pub wcets: Vec<u64>,
    /// Edges `(from, to)`.
    pub edges: Vec<(usize, usize)>,
    /// Blocking pairs `(fork, join)`.
    pub pairs: Vec<(usize, usize)>,
}

/// Why [`build`] refused a shape: the rule broken, as `GraphError` names
/// the variant, and its witnesses, primary first (see the module docs).
pub type Rejection = (&'static str, Vec<usize>);

/// A blocking region: a pair and `succ*(fork) ∩ pred*(join)`, by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// The `BF` node.
    pub fork: usize,
    /// The `BJ` node.
    pub join: usize,
    /// The `BC` nodes, by id.
    pub inner: Vec<usize>,
}

/// A shape the model accepts, and everything derived from it.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Successors of each node, in edge insertion order.
    pub succ: Vec<Vec<usize>>,
    /// Predecessors of each node, in edge insertion order.
    pub pred: Vec<Vec<usize>>,
    /// Kahn's order with a FIFO queue: the sources enter in id order, a
    /// node enters when its last predecessor leaves, successor rows are
    /// scanned in insertion order.
    pub order: Vec<usize>,
    /// The one node without a predecessor.
    pub source: usize,
    /// The one node without a successor.
    pub sink: usize,
    /// `descendants[v][w]`: a non-empty path leads from `v` to `w`.
    pub descendants: Vec<Vec<bool>>,
    /// `ancestors[v][w]`: a non-empty path leads from `w` to `v`.
    pub ancestors: Vec<Vec<bool>>,
    /// The type of each node of Section 2, named as `NodeKind` names it:
    /// `NonBlocking` (in no region), `BlockingFork`, `BlockingJoin`, or
    /// `BlockingChild` (strictly between a fork and its join).
    pub kinds: Vec<&'static str>,
    /// The blocking regions, in declaration order.
    pub regions: Vec<Region>,
    /// The index in `regions` of each node's region, if any.
    pub region_of: Vec<Option<usize>>,
    /// `vol`: the sum of the WCETs.
    pub volume: u64,
    /// `delays[v][f]`: `f ∈ X(v) = C(v) ∪ F'(v)`, where `C(v)` holds the
    /// `BF` nodes other than `v` neither before nor after `v`, and
    /// `F'(v)` the fork that waits for a `BC` node `v`.
    pub delays: Vec<Vec<bool>>,
    /// `b̄ = max_v |X(v)|`.
    pub b_bar: usize,
    /// The length of the longest path by WCET, `len(λ*)`.
    pub critical_path: u64,
    /// [`content_hash`] of the shape.
    pub content_hash: u64,
}

/// The indices of the `true` entries of `row`, ascending.
#[must_use]
pub fn members(row: &[bool]) -> Vec<usize> {
    (0..row.len()).filter(|&v| row[v]).collect()
}

fn reject<T>(rule: &'static str, nodes: &[usize]) -> Result<T, Rejection> {
    Err((rule, nodes.to_vec()))
}

/// Checks `shape` against the model and derives everything a [`Graph`]
/// holds.
///
/// # Errors
///
/// The first rule `shape` breaks, in the order of the module docs.
pub fn build(shape: &Shape) -> Result<Graph, Rejection> {
    let n = shape.wcets.len();
    for &(a, b) in shape.edges.iter().chain(&shape.pairs) {
        if let Some(&v) = [a, b].iter().find(|&&v| v >= n) {
            return reject("UnknownNode", &[v]);
        }
        if a == b {
            return reject("SelfLoop", &[a]);
        }
    }
    if n == 0 {
        return reject("Empty", &[]);
    }
    let (mut succ, mut pred) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for &(a, b) in &shape.edges {
        succ[a].push(b);
        pred[b].push(a);
    }
    for (v, row) in succ.iter().enumerate() {
        if let Some(i) = (0..row.len()).find(|&i| row[..i].contains(&row[i])) {
            return reject("DuplicateEdge", &[v, row[i]]);
        }
    }
    let order = kahn(&succ, &pred)?;
    let sources: Vec<usize> = (0..n).filter(|&v| pred[v].is_empty()).collect();
    if sources.len() != 1 {
        return reject("MultipleSources", &sources);
    }
    let sinks: Vec<usize> = (0..n).filter(|&v| succ[v].is_empty()).collect();
    if sinks.len() != 1 {
        return reject("MultipleSinks", &sinks);
    }
    let (descendants, ancestors) = (closure(&succ), closure(&pred));
    let (regions, region_of) = regions(&shape.pairs, &succ, &pred, &descendants, &ancestors)?;
    let Some(volume) = shape.wcets.iter().try_fold(0u64, |s, &c| s.checked_add(c)) else {
        return reject("VolumeOverflow", &[]);
    };

    let kinds = (0..n)
        .map(|v| match region_of[v].map(|r: usize| &regions[r]) {
            None => "NonBlocking",
            Some(r) if r.fork == v => "BlockingFork",
            Some(r) if r.join == v => "BlockingJoin",
            Some(_) => "BlockingChild",
        })
        .collect();
    let delays: Vec<Vec<bool>> = (0..n)
        .map(|v| {
            let mut row = vec![false; n];
            for r in &regions {
                let f = r.fork;
                row[f] = (f != v && !descendants[v][f] && !ancestors[v][f]) || r.inner.contains(&v);
            }
            row
        })
        .collect();
    let b_bar = delays.iter().map(|row| members(row).len()).max();
    Ok(Graph {
        critical_path: critical_path(&shape.wcets, &pred, &order, sinks[0]),
        content_hash: content_hash(shape),
        source: sources[0],
        sink: sinks[0],
        volume,
        succ,
        pred,
        order,
        descendants,
        ancestors,
        kinds,
        regions,
        region_of,
        delays,
        b_bar: b_bar.unwrap_or(0),
    })
}

/// Kahn's algorithm with a FIFO queue seeded with the sources in id
/// order.
fn kahn(succ: &[Vec<usize>], pred: &[Vec<usize>]) -> Result<Vec<usize>, Rejection> {
    let n = succ.len();
    let mut indegree: Vec<usize> = pred.iter().map(Vec::len).collect();
    let mut queue: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in &succ[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                queue.push_back(w);
            }
        }
    }
    match (0..n).find(|v| order.len() < n && !order.contains(v)) {
        Some(v) => reject("Cycle", &[v]),
        None => Ok(order),
    }
}

/// `rows[v][w]`: `w` is reached from `v` through `adj` by a non-empty
/// path. One depth-first search from each node.
fn closure(adj: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let mut rows = vec![vec![false; adj.len()]; adj.len()];
    for (v, row) in rows.iter_mut().enumerate() {
        let mut stack = adj[v].clone();
        while let Some(w) = stack.pop() {
            if !row[w] {
                row[w] = true;
                stack.extend(&adj[w]);
            }
        }
    }
    rows
}

/// Rule 5 of the module docs: the regions and each node's region.
fn regions(
    pairs: &[(usize, usize)],
    succ: &[Vec<usize>],
    pred: &[Vec<usize>],
    descendants: &[Vec<bool>],
    ancestors: &[Vec<bool>],
) -> Result<(Vec<Region>, Vec<Option<usize>>), Rejection> {
    let mut regions: Vec<Region> = Vec::new();
    let mut region_of: Vec<Option<usize>> = vec![None; succ.len()];
    for &(f, j) in pairs {
        let in_region = |v: usize| v == f || v == j || (descendants[f][v] && ancestors[j][v]);
        if !descendants[f][j] {
            return reject("UnreachableJoin", &[f, j]);
        }
        if let Some(v) = [f, j]
            .into_iter()
            .find(|&v| regions.iter().any(|r| r.fork == v || r.join == v))
        {
            return reject("OverlappingPairs", &[v]);
        }
        let inner: Vec<usize> = (0..succ.len())
            .filter(|&v| v != f && v != j && in_region(v))
            .collect();
        for &v in [f, j].iter().chain(&inner) {
            if let Some(r) = region_of[v] {
                return reject("NestedRegions", &[f, regions[r].fork]);
            }
            region_of[v] = Some(regions.len());
        }
        if let Some(&w) = succ[f].iter().find(|&&w| !in_region(w)) {
            return reject("ForkEscape", &[f, w]);
        }
        if let Some(&w) = pred[j].iter().find(|&&w| !in_region(w)) {
            return reject("JoinIntrusion", &[j, w]);
        }
        for &x in &inner {
            if let Some(&w) = succ[x].iter().chain(&pred[x]).find(|&&w| !in_region(w)) {
                return reject("RegionLeak", &[x, f, w]);
            }
        }
        regions.push(Region {
            fork: f,
            join: j,
            inner,
        });
    }
    Ok((regions, region_of))
}

/// The length of the longest path by WCET ending at `sink`, nodes
/// visited in `order`.
fn critical_path(wcets: &[u64], pred: &[Vec<usize>], order: &[usize], sink: usize) -> u64 {
    let mut dist = vec![0u64; wcets.len()];
    for &v in order {
        dist[v] = pred[v].iter().map(|&p| dist[p]).max().unwrap_or(0) + wcets[v];
    }
    dist[sink]
}

/// The four-lane multiply-rotate hash over `u64` words: the node count;
/// each WCET, by node; each edge as `from << 32 | to`, successor rows in
/// id order, each row in insertion order; each pair as `low << 32 |
/// high` of its two ends, ascending. Word `k` goes into lane `k mod 4`
/// as `lane = rotl((lane ^ word) * P1, 29)`; the lanes start at `P1,
/// P2, P3, 0`, are folded into the word count, and the result is
/// avalanched.
#[must_use]
pub fn content_hash(shape: &Shape) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    let word = |a: usize, b: usize| ((a as u64) << 32) | b as u64;
    let n = shape.wcets.len();
    let mut words = vec![n as u64];
    words.extend(&shape.wcets);
    for from in 0..n {
        let row = shape.edges.iter().filter(|e| e.0 == from);
        words.extend(row.map(|&(a, b)| word(a, b)));
    }
    let mut pairs: Vec<u64> = shape
        .pairs
        .iter()
        .map(|&(f, j)| word(f.min(j), f.max(j)))
        .collect();
    pairs.sort_unstable();
    words.extend(pairs);
    let mut lanes = [P1, P2, P3, 0];
    for (k, &w) in words.iter().enumerate() {
        lanes[k % 4] = (lanes[k % 4] ^ w).wrapping_mul(P1).rotate_left(29);
    }
    let mut h = words.len() as u64;
    for lane in lanes {
        h = (h.rotate_left(27) ^ lane).wrapping_mul(P2);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1a_is_one_region() {
        // Figure 1(a): `v0` forks `v1..v3` and waits for them; `v4` joins.
        let g = build(&Shape {
            wcets: vec![10, 20, 30, 20, 10],
            edges: vec![(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)],
            pairs: vec![(0, 4)],
        })
        .unwrap();
        assert_eq!(
            (g.order, g.source, g.sink, g.volume),
            (vec![0, 1, 2, 3, 4], 0, 4, 90)
        );
        assert_eq!(g.kinds[..2], ["BlockingFork", "BlockingChild"]);
        assert_eq!(
            (g.kinds[4], &g.regions[0].inner),
            ("BlockingJoin", &vec![1, 2, 3])
        );
        // A child is delayed by the fork that waits for it, and only by it.
        assert_eq!((members(&g.delays[2]), g.b_bar), (vec![0], 1));
        assert_eq!(g.critical_path, 50);
    }
}
