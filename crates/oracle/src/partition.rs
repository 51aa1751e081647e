//! Section 4.2's partitioned pipeline, from its definitions: the
//! worst-fit baseline, Algorithm 1 (lines 4–18), the FIFO charge of a
//! mapped node, and the inflated longest path that a lone task's
//! partitioned bound reduces to when nothing interferes with it.
//!
//! Threads are `usize` indices below `m`; a mapping is one thread per
//! node. Nodes are visited in the graph's `order` (Kahn's, FIFO), which
//! is the library's topological order; the paper leaves the order open.

use crate::graph::{members, Graph, Shape};

/// Why Algorithm 1 stopped: the node being processed, the pseudocode
/// line that failed (7, 9 or 17), and that line's witness: the thread
/// the node was pinned to (7), `|Φ_BF|` (9), or the fork with no thread
/// left (17).
pub type Failure = (usize, u32, usize);

/// The least-loaded thread of `allowed`; of equally loaded ones, the
/// lowest id.
///
/// # Panics
///
/// Panics if `allowed` is empty.
#[must_use]
pub fn least_loaded(allowed: &[usize], loads: &[u64]) -> usize {
    let lightest = allowed.iter().map(|&t| loads[t]).min().expect("a thread");
    let ids = allowed.iter().copied().filter(|&t| loads[t] == lightest);
    ids.min().expect("a thread")
}

/// The join paired with `fork`.
fn join_of(g: &Graph, fork: usize) -> usize {
    g.regions
        .iter()
        .find(|r| r.fork == fork)
        .expect("a fork")
        .join
}

/// `C(v)`: the blocking forks other than `v` that neither precede nor
/// follow `v`.
fn concurrent_forks(g: &Graph, v: usize) -> Vec<usize> {
    let forks = g.regions.iter().map(|r| r.fork);
    forks
        .filter(|&f| f != v && !g.descendants[v][f] && !g.ancestors[v][f])
        .collect()
}

/// The threads not in `taken`, ascending.
fn outside(m: usize, taken: &[usize]) -> Vec<usize> {
    (0..m).filter(|t| !taken.contains(t)).collect()
}

/// The blocking-oblivious baseline: each node but a blocking join, in
/// order, goes to the least-loaded of all `m` threads; a blocking fork
/// takes its join along (the two halves of one function), so both WCETs
/// load that thread at once.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn worst_fit(shape: &Shape, g: &Graph, m: usize) -> Vec<usize> {
    let mut thread = vec![usize::MAX; g.order.len()];
    let mut loads = vec![0u64; m];
    let all: Vec<usize> = (0..m).collect();
    for &v in &g.order {
        if g.kinds[v] == "BlockingJoin" {
            continue;
        }
        let t = least_loaded(&all, &loads);
        let mut unit = vec![v];
        if g.kinds[v] == "BlockingFork" {
            unit.push(join_of(g, v));
        }
        for u in unit {
            thread[u] = t;
            loads[t] += shape.wcets[u];
        }
    }
    thread
}

/// Algorithm 1, lines 4–18. Each free choice among admissible threads
/// (lines 11 and 18) is `choose(node, allowed, loads)`, with `allowed`
/// ascending and non-empty.
///
/// For each node `v` but a blocking join, in order: `Φ_BF` holds the
/// threads of the placed forks of `X(v)` (line 5). A `v` already placed
/// on a thread of `Φ_BF` fails at line 7; an unplaced `v` fails at line 9
/// when `Φ_BF` is all `m` threads, else is placed outside it (line 11).
/// A fork's join goes to the fork's thread (lines 12–13). Then each
/// unplaced fork `f` of `X(v)`, by id, is placed outside the threads of
/// the placed forks of `C(f)` and outside `v`'s thread (lines 14–18), or
/// fails at line 17 when no thread is left.
///
/// # Errors
///
/// The node, line and witness of the first failure ([`Failure`]).
pub fn algorithm1(
    shape: &Shape,
    g: &Graph,
    m: usize,
    mut choose: impl FnMut(usize, &[usize], &[u64]) -> usize,
) -> Result<Vec<usize>, Failure> {
    let mut thread: Vec<Option<usize>> = vec![None; g.order.len()];
    let mut loads = vec![0u64; m];
    for &v in &g.order {
        if g.kinds[v] == "BlockingJoin" {
            continue;
        }
        let delaying = members(&g.delays[v]);
        let mut phi_bf: Vec<usize> = delaying.iter().filter_map(|&x| thread[x]).collect();
        phi_bf.sort_unstable();
        phi_bf.dedup();
        let t = match thread[v] {
            Some(t) if phi_bf.contains(&t) => return Err((v, 7, t)),
            Some(t) => t,
            None if phi_bf.len() == m => return Err((v, 9, m)),
            None => {
                let t = choose(v, &outside(m, &phi_bf), &loads);
                loads[t] += shape.wcets[v];
                t
            }
        };
        thread[v] = Some(t);
        if g.kinds[v] == "BlockingFork" {
            let j = join_of(g, v);
            thread[j] = Some(t);
            loads[t] += shape.wcets[j];
        }
        for f in delaying {
            if thread[f].is_some() {
                continue;
            }
            let mut taken: Vec<usize> = concurrent_forks(g, f)
                .into_iter()
                .filter_map(|x| thread[x])
                .collect();
            taken.push(t);
            let allowed = outside(m, &taken);
            if allowed.is_empty() {
                return Err((v, 17, f));
            }
            let tf = choose(f, &allowed, &loads);
            thread[f] = Some(tf);
            loads[tf] += shape.wcets[f];
        }
    }
    Ok(thread.into_iter().map(|t| t.expect("placed")).collect())
}

/// The FIFO charge of each node under the mapping `thread`: the summed
/// WCET of the other nodes on its thread that neither precede nor follow
/// it, any of which may sit ahead of it in the thread's queue. A blocking
/// join resumes on its own woken thread without queueing, so it is
/// charged nothing.
#[must_use]
pub fn fifo_charges(shape: &Shape, g: &Graph, thread: &[usize]) -> Vec<u128> {
    let n = g.order.len();
    (0..n)
        .map(|v| {
            if g.kinds[v] == "BlockingJoin" {
                return 0;
            }
            let ahead = (0..n).filter(|&u| {
                u != v && thread[u] == thread[v] && !g.descendants[v][u] && !g.ancestors[v][u]
            });
            ahead.map(|u| u128::from(shape.wcets[u])).sum()
        })
        .collect()
}

/// The longest path through the graph when each node costs its WCET
/// plus its FIFO charge under `thread`, exactly, in `u128`.
#[must_use]
pub fn inflated_longest_path(shape: &Shape, g: &Graph, thread: &[usize]) -> u128 {
    let fifo = fifo_charges(shape, g, thread);
    let mut finish = vec![0u128; g.order.len()];
    for &v in &g.order {
        let ready = g.pred[v].iter().map(|&p| finish[p]).max().unwrap_or(0);
        finish[v] = ready + u128::from(shape.wcets[v]) + fifo[v];
    }
    finish[g.sink]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;

    /// Figure 1(c): `v0` forks `v1..v3` and waits for them in `v4`.
    fn figure1c() -> (Shape, Graph) {
        let shape = Shape {
            wcets: vec![10, 20, 30, 20, 10],
            edges: vec![(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)],
            pairs: vec![(0, 4)],
        };
        let g = build(&shape).unwrap();
        (shape, g)
    }

    #[test]
    fn one_thread_is_the_papers_hazard_for_worst_fit_and_a_failure_for_algorithm1() {
        let (shape, g) = figure1c();
        assert_eq!(worst_fit(&shape, &g, 1), vec![0; 5]);
        let mut lightest = |_, allowed: &[usize], loads: &[u64]| least_loaded(allowed, loads);
        // Line 18 pins nothing (the fork has no delaying fork); the first
        // child finds the fork on the only thread.
        assert_eq!(algorithm1(&shape, &g, 1, &mut lightest), Err((1, 9, 1)));
        let mapping = algorithm1(&shape, &g, 2, &mut lightest).unwrap();
        assert_eq!(mapping, vec![0, 1, 1, 1, 0]);
        // The children queue behind one another on thread 1: each waits
        // for the other two, and the join for nothing.
        let fifo = fifo_charges(&shape, &g, &mapping);
        assert_eq!(fifo, vec![0, 50, 40, 50, 0]);
        assert_eq!(
            inflated_longest_path(&shape, &g, &mapping),
            10 + 30 + 40 + 10
        );
    }

    #[test]
    fn ties_go_to_the_lowest_id_in_any_order() {
        assert_eq!(least_loaded(&[2, 0, 1], &[5, 9, 5]), 0);
        assert_eq!(least_loaded(&[2, 1], &[5, 9, 5]), 2);
    }
}
