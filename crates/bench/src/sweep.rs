//! The sweep queue of the experiment harness: one shared cursor over
//! scoped threads.
//!
//! Every study in this crate evaluates a large grid of independent
//! *cells* — `(inset × x × sample)` for Figure 2 and the studies that
//! share its sweep, `(analysis × sample)` for the tightness study. The
//! original harness spawned and joined one scope of OS threads *per
//! point*, which serializes points behind a barrier. [`SweepPool::run`]
//! takes the whole coordinate space as **one flat queue**: every worker
//! claims the next cell index from one `AtomicUsize` with `fetch_add`
//! until the index passes the end, so the last cell of one point and the
//! first cell of the next run concurrently and nobody idles while cells
//! remain.
//!
//! The workers are the calling thread plus `threads − 1`
//! [`std::thread::scope`] threads that live for the one sweep; a
//! 1-thread pool spawns nothing and is literally serial. The scope lets
//! the cell closure borrow its caller's tables, joins every worker
//! before `run` returns, and re-raises a cell's panic in the caller.
//!
//! Why no persistent workers and no stealing: a cell costs tens of
//! microseconds to milliseconds (`fig2-sweep` is 368 cells per 33–40 ms
//! call, ≈ 100 µs a cell on two threads; `fig2 --inset all --sets 500`
//! is 23 000 cells in ~2 s) against 105–170 ns to hand one out (two
//! workers contending on the cursor) and one thread spawn per extra
//! worker per sweep. Persistent workers with per-worker ranges and
//! back-half stealing were measured against this over ten alternating
//! pairs of the registered `fig2-sweep` workload and no end-to-end
//! metric told the two apart, so the lock, condvars and CAS protocol
//! they need are not paid for.
//!
//! Determinism: cells are pure functions of their index (each derives
//! its own RNG stream from the coordinate), and results land in a
//! per-cell slot, so the returned vector is identical regardless of
//! worker count or interleaving. `tests/sweep_determinism.rs` pins this
//! across the whole multi-inset Figure 2 run.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sweeps shorter than this never print progress (keeps tests and quick
/// runs silent).
const PROGRESS_AFTER: Duration = Duration::from_millis(2500);
/// Interval between progress lines once reporting has started.
const PROGRESS_EVERY: Duration = Duration::from_millis(1000);

/// A worker count to run sweeps on. Creating one spawns nothing:
/// [`SweepPool::run`] borrows its threads for the length of one sweep.
///
/// # Examples
///
/// ```
/// use rtpool_bench::sweep::SweepPool;
///
/// let pool = SweepPool::new(4);
/// let offset = 1;
/// let squares = pool.run(10, "squares", |i| i * i + offset);
/// assert_eq!(squares[7], 50);
/// ```
pub struct SweepPool {
    threads: usize,
}

impl SweepPool {
    /// A pool of `threads` workers (clamped to at least 1), the calling
    /// thread included.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SweepPool {
            threads: threads.max(1),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f` for every cell index in `0..cells` across the pool
    /// and returns the results in index order.
    ///
    /// The output is independent of the worker count and of the
    /// interleaving: cell `i`'s result always lands in slot `i`. Long
    /// sweeps (> ~2.5 s) report throughput and ETA for `label` on stderr;
    /// short ones are silent.
    ///
    /// # Panics
    ///
    /// Panics if the closure panics for any cell, once every worker has
    /// stopped.
    pub fn run<T, F>(&self, cells: usize, label: &str, f: F) -> Vec<T>
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<OnceLock<T>> = (0..cells).map(|_| OnceLock::new()).collect();
        // Relaxed: the cursor hands out indices and publishes nothing;
        // results reach the caller through the scope's join.
        let cursor = AtomicUsize::new(0);
        let started = Instant::now();
        let work = |narrate: bool| {
            let mut next_line = PROGRESS_AFTER;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells {
                    return;
                }
                slots[i]
                    .set(f(i))
                    .unwrap_or_else(|_| panic!("cell {i} executed twice"));
                if !narrate {
                    continue;
                }
                let elapsed = started.elapsed();
                if elapsed < next_line {
                    continue;
                }
                next_line = elapsed + PROGRESS_EVERY;
                // Every cell up to `i` is claimed and at most
                // `threads - 1` of them are still running.
                let done = i + 1;
                let rate = done as f64 / elapsed.as_secs_f64();
                let eta = (cells - done) as f64 / rate;
                let _ = writeln!(
                    std::io::stderr().lock(),
                    "  [{label}] {done}/{cells} cells ({rate:.1} cells/s, ETA {eta:.0}s)"
                );
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..self.threads.min(cells) {
                scope.spawn(|| work(false));
            }
            work(true);
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("cell {i} was never executed"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_cells_in_order() {
        let pool = SweepPool::new(3);
        let out = pool.run(100, "t", |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_cells_is_empty() {
        let pool = SweepPool::new(2);
        let out: Vec<usize> = pool.run(0, "t", |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = SweepPool::new(1);
        let out = pool.run(17, "t", |i| i + 1);
        assert_eq!(out.len(), 17);
        assert_eq!(out[16], 17);
    }

    #[test]
    fn pool_is_reusable_across_sweeps() {
        let pool = SweepPool::new(4);
        for round in 0..20 {
            let out = pool.run(round * 7 + 1, "t", move |i| i + round);
            assert_eq!(out.len(), round * 7 + 1);
            assert_eq!(out[0], round);
        }
    }

    #[test]
    fn results_independent_of_worker_count() {
        let serial: Vec<usize> = SweepPool::new(1).run(523, "t", |i| i.wrapping_mul(0x9e37));
        let wide: Vec<usize> = SweepPool::new(8).run(523, "t", |i| i.wrapping_mul(0x9e37));
        assert_eq!(serial, wide);
    }

    #[test]
    fn more_workers_than_cells_cover_every_cell() {
        let pool = SweepPool::new(8);
        let out = pool.run(3, "t", |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn a_panicking_cell_fails_the_sweep() {
        let pool = SweepPool::new(3);
        let _ = pool.run(64, "t", |i| {
            assert_ne!(i, 5, "cell 5 fails");
            i
        });
    }
}
