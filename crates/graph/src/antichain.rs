//! Maximum antichain computation (Dilworth's theorem via bipartite
//! matching).
//!
//! An *antichain* is a set of pairwise-concurrent nodes (no precedence
//! constraint between any two). The size of the maximum antichain among
//! the `BF` nodes of a task is exactly the maximum number of threads that
//! can simultaneously be suspended on blocking barriers (see
//! `rtpool-core::deadlock`), which sharpens the paper's `b̄(τᵢ)` bound.
//!
//! By Dilworth's theorem, the maximum antichain of a finite poset equals
//! its minimum chain cover, which on the transitive closure of a DAG is
//! `n − |M|` for a maximum bipartite matching `M`; the antichain witness is
//! recovered with Kőnig's construction.

use crate::node::NodeId;
use crate::reach::Reachability;

/// A minimum chain cover of a node subset: the fewest chains (totally
/// ordered sequences under reachability) covering every selected node.
///
/// By Dilworth's theorem the number of chains equals the maximum antichain
/// size, so this doubles as a certificate for [`max_antichain_of`].
///
/// # Examples
///
/// ```
/// use rtpool_graph::{DagBuilder, MinChainCover, Reachability};
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let (_f, _j) = b.fork_join(1, &[1, 1, 1], 1, false)?;
/// let dag = b.build()?;
/// let reach = Reachability::new(&dag);
/// let nodes: Vec<_> = dag.node_ids().collect();
/// let cover = MinChainCover::compute(&reach, &nodes);
/// assert_eq!(cover.chains().len(), 3); // the three parallel branches
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MinChainCover {
    chains: Vec<Vec<NodeId>>,
}

impl MinChainCover {
    /// Computes a minimum chain cover of `subset` under the (transitive)
    /// reachability order `reach`.
    ///
    /// # Panics
    ///
    /// Panics if `subset` contains ids out of range for `reach`.
    #[must_use]
    pub fn compute(reach: &Reachability, subset: &[NodeId]) -> Self {
        let matching = Matching::solve(reach, subset);
        // Follow matched edges to stitch chains together: `match_left[u]`
        // links u to its successor in the chain.
        let mut is_chain_head = vec![true; subset.len()];
        for u in 0..subset.len() {
            if let Some(v) = matching.match_left[u] {
                is_chain_head[v] = false;
            }
        }
        let mut chains = Vec::new();
        for start in 0..subset.len() {
            if !is_chain_head[start] {
                continue;
            }
            let mut chain = vec![subset[start]];
            let mut cur = start;
            while let Some(next) = matching.match_left[cur] {
                chain.push(subset[next]);
                cur = next;
            }
            chains.push(chain);
        }
        // Order chains deterministically by their first node id.
        chains.sort_by_key(|c| c[0]);
        MinChainCover { chains }
    }

    /// The chains, each a reachability-ordered node sequence.
    #[must_use]
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }
}

/// Returns a maximum antichain restricted to `subset` (e.g. the `BF` nodes
/// when bounding simultaneous thread suspensions).
///
/// Runs in `O(k³)` for `k = subset.len()`: Kuhn's algorithm, one
/// augmenting search per left vertex, each over at most `k²` `reaches`
/// lookups of the transitive-closure bipartite graph.
///
/// # Panics
///
/// Panics if `subset` contains ids out of range for `reach`.
#[must_use]
pub fn max_antichain_of(reach: &Reachability, subset: &[NodeId]) -> Vec<NodeId> {
    if subset.is_empty() {
        return Vec::new();
    }
    let matching = Matching::solve(reach, subset);
    // Kőnig: Z = vertices reachable from unmatched left vertices via
    // alternating paths (left->right on non-matching edges, right->left on
    // matching edges). Min vertex cover = (L \ Z_L) ∪ (R ∩ Z_R).
    // Max antichain = { x : x_L ∉ cover and x_R ∉ cover }
    //               = { x : x_L ∈ Z_L and x_R ∉ Z_R }.
    let k = subset.len();
    let mut z_left = vec![false; k];
    let mut z_right = vec![false; k];
    let mut stack: Vec<usize> = (0..k)
        .filter(|&u| matching.match_left[u].is_none())
        .collect();
    for &u in &stack {
        z_left[u] = true;
    }
    while let Some(u) = stack.pop() {
        for v in 0..k {
            // Edge u -> v exists iff subset[u] strictly precedes subset[v].
            if !reach.reaches(subset[u], subset[v]) {
                continue;
            }
            if matching.match_left[u] == Some(v) {
                continue; // only non-matching edges left->right
            }
            if !z_right[v] {
                z_right[v] = true;
                if let Some(u2) = matching.match_right[v] {
                    if !z_left[u2] {
                        z_left[u2] = true;
                        stack.push(u2);
                    }
                }
            }
        }
    }
    let mut antichain: Vec<NodeId> = (0..k)
        .filter(|&x| z_left[x] && !z_right[x])
        .map(|x| subset[x])
        .collect();
    antichain.sort_unstable();
    debug_assert!(antichain
        .iter()
        .enumerate()
        .all(|(i, &a)| antichain[i + 1..]
            .iter()
            .all(|&b| reach.are_concurrent(a, b))));
    antichain
}

/// Maximum bipartite matching on the transitive-closure graph of `subset`
/// (left copy -> right copy, edge iff strict reachability), via Kuhn's
/// augmenting-path algorithm.
struct Matching {
    /// `match_left[u] = Some(v)`: chain edge `subset[u] -> subset[v]`.
    match_left: Vec<Option<usize>>,
    match_right: Vec<Option<usize>>,
}

impl Matching {
    fn solve(reach: &Reachability, subset: &[NodeId]) -> Matching {
        let k = subset.len();
        let mut m = Matching {
            match_left: vec![None; k],
            match_right: vec![None; k],
        };
        let mut visited = vec![false; k];
        for u in 0..k {
            visited.fill(false);
            m.try_augment(reach, subset, u, &mut visited);
        }
        m
    }

    fn try_augment(
        &mut self,
        reach: &Reachability,
        subset: &[NodeId],
        u: usize,
        visited: &mut [bool],
    ) -> bool {
        for v in 0..subset.len() {
            if visited[v] || !reach.reaches(subset[u], subset[v]) {
                continue;
            }
            visited[v] = true;
            let free = match self.match_right[v] {
                None => true,
                Some(u2) => self.try_augment(reach, subset, u2, visited),
            };
            if free {
                self.match_left[u] = Some(v);
                self.match_right[v] = Some(u);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::dag::Dag;

    /// `A(τ)` over every node of `dag`.
    fn whole_antichain(dag: &Dag, reach: &Reachability) -> Vec<NodeId> {
        max_antichain_of(reach, &dag.node_ids().collect::<Vec<_>>())
    }

    fn build_parallel(branches: usize) -> Dag {
        let mut b = DagBuilder::new();
        let wcets = vec![1u64; branches];
        b.fork_join(1, &wcets, 1, false).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_has_antichain_one() {
        let mut b = DagBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(1)).collect();
        b.add_chain(&n).unwrap();
        let dag = b.build().unwrap();
        let reach = Reachability::new(&dag);
        assert_eq!(whole_antichain(&dag, &reach).len(), 1);
        let cover = MinChainCover::compute(&reach, &n);
        assert_eq!(cover.chains().len(), 1);
        assert_eq!(cover.chains()[0], n);
    }

    #[test]
    fn parallel_branches_form_antichain() {
        let dag = build_parallel(4);
        let reach = Reachability::new(&dag);
        let ac = whole_antichain(&dag, &reach);
        assert_eq!(ac.len(), 4);
        for (i, &a) in ac.iter().enumerate() {
            for &b in &ac[i + 1..] {
                assert!(reach.are_concurrent(a, b));
            }
        }
    }

    #[test]
    fn restricted_subset() {
        let dag = build_parallel(3);
        let reach = Reachability::new(&dag);
        // Restrict to fork + one branch node: they are ordered, antichain 1.
        let fork = dag.source();
        let branch = dag.successors(fork)[0];
        let ac = max_antichain_of(&reach, &[fork, branch]);
        assert_eq!(ac.len(), 1);
    }

    #[test]
    fn empty_subset() {
        let dag = build_parallel(2);
        let reach = Reachability::new(&dag);
        assert!(max_antichain_of(&reach, &[]).is_empty());
    }

    #[test]
    fn dilworth_duality_holds() {
        // Antichain size == number of chains in a minimum chain cover.
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let (f1, j1) = b.fork_join(1, &[1, 1], 1, false).unwrap();
        let (f2, j2) = b.fork_join(1, &[1, 1, 1], 1, false).unwrap();
        let t = b.add_node(1);
        b.add_edge(s, f1).unwrap();
        b.add_edge(s, f2).unwrap();
        b.add_edge(j1, t).unwrap();
        b.add_edge(j2, t).unwrap();
        let dag = b.build().unwrap();
        let reach = Reachability::new(&dag);
        let nodes: Vec<NodeId> = dag.node_ids().collect();
        let ac = whole_antichain(&dag, &reach);
        let cover = MinChainCover::compute(&reach, &nodes);
        assert_eq!(ac.len(), cover.chains().len());
        assert_eq!(ac.len(), 5); // 2 + 3 parallel branches
                                 // Every node appears in exactly one chain.
        let mut seen = vec![false; dag.node_count()];
        for chain in cover.chains() {
            for &v in chain {
                assert!(!seen[v.index()], "node {v} covered twice");
                seen[v.index()] = true;
            }
            // Chains are reachability-ordered.
            for w in chain.windows(2) {
                assert!(reach.reaches(w[0], w[1]));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
