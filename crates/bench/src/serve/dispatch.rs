//! Lock-free job dispatch for the admission server.
//!
//! [`InjectorPool`] hands cell indices to its workers through one
//! global lock-free [`Injector`] FIFO, the queue the executor's
//! `Engine::V2LockFree` feeds ready nodes through: every worker takes
//! the next cell with a single atomic steal until the FIFO is empty.
//! The only lock a job takes is the one `Mutex` acquire that publishes
//! it to the workers. There are no per-worker deques: a cell is claimed
//! by the worker that runs it, never parked behind another cell.
//!
//! [`ServePool`] lets [`Server`](super::server::Server) run on either
//! engine: the classic [`SweepPool`] (shared packed-range queue under
//! its own CAS protocol, v1 of the serve path) or an `InjectorPool`.
//! Both expose the same `run_indexed` contract — results land in index
//! order regardless of worker count or steal interleaving. The server
//! submits a single job of one cell per worker, each cell a loop that
//! fetches requests from the ingress queue until shutdown; requests
//! themselves never pass through the pool's queues. What the server
//! needs from the pool is therefore that **a job of `threads()` cells
//! puts one cell on every worker**: `SweepPool` seeds each worker's
//! range with its own cell, and an `InjectorPool` worker claims one cell
//! at a time and comes back for another only when that one has ended.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crossbeam_deque::{Injector, Steal};

use crate::sweep::SweepPool;

/// Injector capacity: an upper bound on the cells of one job. The
/// server's job has one cell per worker, so this is generous;
/// [`InjectorPool::run_indexed`] rejects larger jobs up front rather
/// than risking the shim's overflow panic mid-flight.
const INJECTOR_CAP: usize = 1 << 16;

/// Type-erased job: workers only need "run cell `i` (as worker
/// `w`)".
trait DispatchJob: Send + Sync {
    fn run_cell(&self, index: usize, worker: usize);
}

/// Concrete job: the cell closure plus one result slot per cell.
struct Job<T, F> {
    f: F,
    slots: Vec<OnceLock<T>>,
}

impl<T, F> DispatchJob for Job<T, F>
where
    T: Send + Sync,
    F: Fn(usize, usize) -> T + Send + Sync,
{
    fn run_cell(&self, index: usize, worker: usize) {
        let value = (self.f)(index, worker);
        self.slots[index]
            .set(value)
            .unwrap_or_else(|_| panic!("cell {index} executed twice"));
    }
}

struct State {
    /// Bumped once per job; workers participate in each generation
    /// exactly once.
    generation: u64,
    job: Option<Arc<dyn DispatchJob>>,
    shutdown: bool,
}

struct Shared {
    /// Global FIFO the submitter feeds; workers take one cell at a
    /// time.
    injector: Injector<u64>,
    state: Mutex<State>,
    /// Signals workers that a new job was published (or shutdown).
    work_cv: Condvar,
    /// Signals the submitter that a worker finished its part.
    done_cv: Condvar,
    /// Workers still draining the current job. The submitter only reads
    /// results once this hits zero, which guarantees every cell has
    /// executed and no worker still holds the job `Arc`.
    active: AtomicUsize,
}

/// A persistent pool of dispatch workers fanning jobs out through a
/// lock-free injector FIFO. Same `run_indexed` contract as
/// [`SweepPool`]: create once per process, submit any number of jobs.
///
/// # Examples
///
/// ```
/// use rtpool_bench::serve::dispatch::InjectorPool;
///
/// let pool = InjectorPool::new(4);
/// let squares = pool.run_indexed(10, "squares", |i, _worker| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub struct InjectorPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Serializes jobs: one in flight at a time.
    submit: Mutex<()>,
}

impl InjectorPool {
    /// Creates a pool with `threads` long-lived workers (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Injector::new(INJECTOR_CAP),
            state: Mutex::new(State {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            active: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dispatch-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning dispatch worker")
            })
            .collect();
        InjectorPool {
            shared,
            workers,
            submit: Mutex::new(()),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Executes `f` for every cell index in `0..cells` across the pool
    /// and returns the results in index order. `f` also receives the
    /// executing worker's index (`0..threads()`) for per-worker
    /// bookkeeping (shard histograms, trace lanes); cell `i` may run on
    /// any worker, so the worker index must not influence the result.
    ///
    /// # Panics
    ///
    /// Panics if `cells` exceeds the injector capacity (65 536) or if
    /// the closure panics in a worker.
    pub fn run_indexed<T, F>(&self, cells: usize, _label: &str, f: F) -> Vec<T>
    where
        T: Send + Sync + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        if cells == 0 {
            return Vec::new();
        }
        assert!(
            cells <= INJECTOR_CAP,
            "InjectorPool job of {cells} cells exceeds injector capacity {INJECTOR_CAP}"
        );

        let _job_guard = self.submit.lock().expect("submit lock not poisoned");
        let job = Arc::new(Job {
            f,
            slots: (0..cells).map(|_| OnceLock::new()).collect(),
        });

        // Feed every cell before publishing the job: a worker that sees
        // the new generation must already see the whole job, so an
        // empty injector means every cell has been claimed.
        for i in 0..cells {
            self.shared.injector.push(i as u64);
        }
        self.shared
            .active
            .store(self.workers.len(), Ordering::Release);
        {
            let mut st = self.shared.state.lock().expect("pool state not poisoned");
            st.generation += 1;
            st.job = Some(Arc::clone(&job) as Arc<dyn DispatchJob>);
            self.shared.work_cv.notify_all();
        }

        // Wait for every worker to bow out of this generation.
        {
            let mut st = self.shared.state.lock().expect("pool state not poisoned");
            while self.shared.active.load(Ordering::Acquire) > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .expect("pool state not poisoned");
            }
            // Drop the pool's reference so the submitter's Arc is unique.
            st.job = None;
        }

        let job = Arc::try_unwrap(job)
            .unwrap_or_else(|_| unreachable!("workers release the job before finishing"));
        job.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("cell {i} was never executed"))
            })
            .collect()
    }
}

impl Drop for InjectorPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state not poisoned");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut seen_generation = 0u64;
    loop {
        // Wait for a job we have not participated in yet (the job stays
        // published until *every* worker has, so none is missed).
        let job = {
            let mut st = shared.state.lock().expect("pool state not poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    if let Some(job) = &st.job {
                        seen_generation = st.generation;
                        break Arc::clone(job);
                    }
                }
                st = shared.work_cv.wait(st).expect("pool state not poisoned");
            }
        };

        // All cells are fed before the generation is published, so an
        // empty injector means this worker's part is done (cells claimed
        // by other workers finish on those workers).
        while let Some(cell) = next_cell(&shared.injector) {
            job.run_cell(cell as usize, me);
        }

        // Release the job before announcing completion: once `active`
        // hits zero the submitter unwraps its Arc.
        drop(job);
        if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _st = shared.state.lock().expect("pool state not poisoned");
            shared.done_cv.notify_all();
        }
    }
}

/// Claims the injector's next cell, retrying lost steal races until it
/// conclusively reads `Empty`.
fn next_cell(injector: &Injector<u64>) -> Option<u64> {
    loop {
        match injector.steal() {
            Steal::Success(cell) => return Some(cell),
            Steal::Empty => return None,
            // A steal CAS lost: let the winning thread run rather than
            // spinning — this host may have a single hardware thread.
            Steal::Retry => std::thread::yield_now(),
        }
    }
}

/// The pool a [`Server`](super::server::Server) fans analysis out on:
/// the classic locked-range [`SweepPool`] or the lock-free
/// [`InjectorPool`]. A server takes its pool over for as long as it
/// lives, so the `Arc` handed in must be the only one.
pub enum ServePool {
    /// v1 serve path: shared packed-range queue (`SweepPool`).
    Sweep(Arc<SweepPool>),
    /// v2 serve path: lock-free injector dispatch (`InjectorPool`).
    Injector(Arc<InjectorPool>),
}

impl ServePool {
    /// Number of analysis workers.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            ServePool::Sweep(p) => p.threads(),
            ServePool::Injector(p) => p.threads(),
        }
    }

    /// Whether no other handle to the pool exists, that is, nobody else
    /// can submit a job to it.
    pub(super) fn is_sole_handle(&self) -> bool {
        match self {
            ServePool::Sweep(p) => Arc::strong_count(p) == 1,
            ServePool::Injector(p) => Arc::strong_count(p) == 1,
        }
    }

    /// Engine label for logs and summaries.
    #[must_use]
    pub fn engine_label(&self) -> &'static str {
        match self {
            ServePool::Sweep(_) => "sweep",
            ServePool::Injector(_) => "injector",
        }
    }

    /// Fans `0..cells` across the pool, returning results in index
    /// order; see [`InjectorPool::run_indexed`] /
    /// [`SweepPool::run_indexed`].
    pub fn run_indexed<T, F>(&self, cells: usize, label: &str, f: F) -> Vec<T>
    where
        T: Send + Sync + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        match self {
            ServePool::Sweep(p) => p.run_indexed(cells, label, f),
            ServePool::Injector(p) => p.run_indexed(cells, label, f),
        }
    }
}

impl From<Arc<SweepPool>> for ServePool {
    fn from(pool: Arc<SweepPool>) -> Self {
        ServePool::Sweep(pool)
    }
}

impl From<Arc<InjectorPool>> for ServePool {
    fn from(pool: Arc<InjectorPool>) -> Self {
        ServePool::Injector(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_cells_in_order() {
        let pool = InjectorPool::new(3);
        let out = pool.run_indexed(100, "t", |i, _w| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_cells_is_empty() {
        let pool = InjectorPool::new(2);
        let out: Vec<usize> = pool.run_indexed(0, "t", |i, _w| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_index_is_in_range() {
        let pool = InjectorPool::new(4);
        let workers = pool.run_indexed(64, "t", |_i, w| w);
        assert!(workers.iter().all(|&w| w < 4));
    }

    #[test]
    fn reusable_across_jobs() {
        let pool = InjectorPool::new(2);
        for round in 0..20usize {
            let out = pool.run_indexed(17, "t", move |i, _w| i + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_worker_pool_completes() {
        let pool = InjectorPool::new(1);
        let out = pool.run_indexed(32, "t", |i, _w| i);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn serve_pool_dispatches_both_engines() {
        let engines = [
            ServePool::from(Arc::new(SweepPool::new(2))),
            ServePool::from(Arc::new(InjectorPool::new(2))),
        ];
        for pool in engines {
            let out = pool.run_indexed(25, "t", |i, _w| i * i);
            assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(pool.threads(), 2);
        }
    }
}
