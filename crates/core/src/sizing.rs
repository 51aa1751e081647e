//! Pool-sizing utilities: the smallest pool that is deadlock-free.
//!
//! The paper fixes the pool size at `m` (one thread per core); in
//! practice a designer often asks the converse question — *how many
//! workers does this workload need?* These helpers answer it with the
//! Section 3 machinery.

use rtpool_graph::Dag;

/// The smallest pool size under which the task cannot deadlock under
/// global work-conserving scheduling: one more thread than the maximum
/// number of simultaneously-suspended blocking forks.
///
/// # Examples
///
/// ```
/// use rtpool_core::sizing::min_threads_deadlock_free;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let src = b.add_node(1);
/// let snk = b.add_node(1);
/// for _ in 0..3 {
///     let (f, j) = b.fork_join(1, &[1, 1], 1, true)?;
///     b.add_edge(src, f)?;
///     b.add_edge(j, snk)?;
/// }
/// // Three concurrent blocking forks: four threads needed.
/// assert_eq!(min_threads_deadlock_free(&b.build()?), 4);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn min_threads_deadlock_free(dag: &Dag) -> usize {
    min_threads_for_blocking(dag.max_blocking_antichain().len())
}

/// The smallest certifiable pool size for a graph whose blocking bound
/// is `b_bar`: `b̄ + 1`, so the concurrency floor `l̄ = m − b̄` stays ≥ 1.
///
/// Which bound `b_bar` is depends on the sync backend. Under
/// **suspension** it is the maximum simultaneously-suspended-forks
/// antichain. Under **spin** it is the Section 3.1 delay count
/// `b̄ = max_v |X(v)|`: the antichain relief relies on suspended workers
/// freeing their cores, which a spinner never does, and a spin stall
/// cannot be rescued by growing the pool (the new workers have no core
/// to run on). Since the antichain never exceeds the delay count, the
/// spin floor is never below the suspension floor — and strictly above
/// it exactly when the antichain is sharper, which is the codegen
/// compile-fail asymmetry: an `m` the suspend gate accepts can be
/// rejected by the spin gate.
///
/// `const`-evaluable on purpose: `rtpool-codegen` emits it (and
/// [`deadlock_free_floor`]) into compile-time assertions of generated
/// modules, so an undersized statically-declared pool is a *build*
/// error, not a runtime verdict.
#[must_use]
pub const fn min_threads_for_blocking(b_bar: usize) -> usize {
    b_bar + 1
}

/// Whether a pool of `m` workers satisfies the paper's Lemma 1 floor
/// `l̄ = m − b̄ ≥ 1` for a blocking bound of `b_bar`.
/// `const`-evaluable; see [`min_threads_for_blocking`] for which bound
/// each backend passes.
#[must_use]
pub const fn deadlock_free_floor(m: usize, b_bar: usize) -> bool {
    m >= min_threads_for_blocking(b_bar)
}

/// The smallest pool size certifiable for `dag` under the spin backend:
/// [`min_threads_for_blocking`] over the graph's maximum delay count.
#[must_use]
pub fn min_threads_spin(dag: &Dag) -> usize {
    min_threads_for_blocking(dag.delay_profile().max_delay_count())
}

/// The reserve workers a `GrowPool` recovery policy needs so that a
/// stall of `dag` on an `m`-worker pool can always be resolved by
/// growing: enough extra workers to restore the pool's available
/// concurrency to the paper's lower bound `l̄(τᵢ) = m − b̄(τᵢ) ≥ 1`, i.e.
/// to reach [`min_threads_deadlock_free`] workers in total.
///
/// Returns 0 when `workers` is already statically safe — with a safe
/// pool size the exact stall detector cannot fire on fault-free runs, so
/// no reserve is needed (injected faults that *additionally* suspend
/// workers need a correspondingly larger reserve: one extra worker per
/// concurrently injected suspension).
///
/// # Examples
///
/// ```
/// use rtpool_core::sizing::reserve_for;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let src = b.add_node(1);
/// let snk = b.add_node(1);
/// for _ in 0..3 {
///     let (f, j) = b.fork_join(1, &[1, 1], 1, true)?;
///     b.add_edge(src, f)?;
///     b.add_edge(j, snk)?;
/// }
/// let dag = b.build()?;
/// // Three concurrent blocking forks: a 2-worker pool needs 2 spares.
/// assert_eq!(reserve_for(&dag, 2), 2);
/// assert_eq!(reserve_for(&dag, 4), 0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn reserve_for(dag: &Dag, workers: usize) -> usize {
    min_threads_deadlock_free(dag).saturating_sub(workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    fn replicated(replicas: usize) -> Dag {
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..replicas {
            let (f, j) = b.fork_join(10, &[5, 5], 10, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn deadlock_free_size_tracks_antichain() {
        for replicas in 1..=4 {
            let dag = replicated(replicas);
            assert_eq!(min_threads_deadlock_free(&dag), replicas + 1);
        }
        // The const helpers agree with the graph-level functions and are
        // usable in const contexts (this is what codegen relies on).
        const SAFE: bool = deadlock_free_floor(3, 2);
        const UNSAFE: bool = deadlock_free_floor(2, 2);
        const _: () = assert!(SAFE && !UNSAFE);
        assert_eq!(min_threads_for_blocking(2), 3);
        // A non-blocking graph needs just one thread.
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1, 1], 1, false).unwrap();
        assert_eq!(min_threads_deadlock_free(&b.build().unwrap()), 1);
    }

    #[test]
    fn spin_floor_keyed_on_delay_count_not_antichain() {
        // Two sequential regions per branch, two branches: the antichain
        // is 2 but a child sees three forks in its delay set (b̄ = 3), so
        // the spin floor must demand one more worker than suspend.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f1, j1) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            let (f2, j2) = b.fork_join(5, &[5, 5], 5, true).unwrap();
            b.add_edge(src, f1).unwrap();
            b.add_edge(j1, f2).unwrap();
            b.add_edge(j2, snk).unwrap();
        }
        let dag = b.build().unwrap();
        assert_eq!(min_threads_deadlock_free(&dag), 3);
        assert_eq!(min_threads_spin(&dag), 4);
        // The const forms are usable at compile time (codegen relies on
        // this for the spin-mode generated assertion).
        const SPIN_OK: bool = deadlock_free_floor(4, 3);
        const SPIN_BAD: bool = deadlock_free_floor(3, 3);
        const _: () = assert!(SPIN_OK && !SPIN_BAD);
        assert_eq!(min_threads_for_blocking(3), 4);
    }
}
