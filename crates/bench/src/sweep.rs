//! Persistent work-stealing sweep engine for the experiment harness.
//!
//! Every study in this crate evaluates a large grid of independent
//! *cells* — `(inset × x × sample)` for Figure 2, `(variant × sample)`
//! for the ablation, `(point × sample)` for the tightness study. The
//! original harness spawned and joined one scope of OS threads *per
//! point*, which serializes points behind a barrier and pays thread
//! startup ~50 times per run.
//!
//! [`SweepPool`] replaces that: a pool of long-lived workers created
//! once per process, executing whole coordinate spaces as single
//! chunked work queues. The initial cell range is split evenly across
//! workers; a worker that drains its own range steals the back half of
//! the richest remaining range, so there is no barrier anywhere between
//! cells — the last cell of one point and the first cell of the next
//! run concurrently.
//!
//! Determinism: cells are pure functions of their index (each derives
//! its own RNG stream from the coordinate), and results land in a
//! per-cell slot, so the returned vector is identical regardless of
//! worker count or steal interleaving. `tests/sweep_determinism.rs`
//! pins this across the whole multi-inset Figure 2 run.
//!
//! The queue is an array of packed `(start, end)` ranges, one
//! `AtomicU64` per worker: the owner pops from the front with a CAS,
//! thieves CAS the victim's back half away. The packed value fully
//! describes the range, so the classic ABA concern is benign: a
//! successful CAS always transfers exactly the cells the slot currently
//! holds. Cells are never duplicated (every insertion into a slot is
//! paired with a CAS-removal from another) and never lost (a worker
//! executes everything it popped or stole before exiting, and the pool
//! waits for *all* workers to finish each sweep).

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Sweeps shorter than this never print progress (keeps tests and quick
/// runs silent).
const PROGRESS_AFTER: Duration = Duration::from_millis(2500);
/// Interval between progress lines once reporting has started.
const PROGRESS_EVERY: Duration = Duration::from_millis(1000);
/// How often the waiting submitter wakes to look at the clock.
const PROGRESS_TICK: Duration = Duration::from_millis(200);

/// One cell range `[start, end)` packed into an `AtomicU64`
/// (`start` in the high half, `end` in the low half).
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Type-erased sweep job: workers only need "run cell `i`".
trait SweepJob: Send + Sync {
    fn run_cell(&self, index: usize);
}

/// Concrete job: the cell closure plus one result slot per cell.
struct Job<T, F> {
    f: F,
    slots: Vec<OnceLock<T>>,
    /// Cells not yet executed (progress reporting only; completion is
    /// detected via [`Shared::active`]).
    remaining: AtomicUsize,
}

impl<T, F> SweepJob for Job<T, F>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Send + Sync,
{
    fn run_cell(&self, index: usize) {
        let value = (self.f)(index);
        self.slots[index]
            .set(value)
            .unwrap_or_else(|_| panic!("cell {index} executed twice"));
        self.remaining.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker-visible pool state.
struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new sweep was published (or shutdown).
    work_cv: Condvar,
    /// Signals the submitter that a worker finished its part.
    done_cv: Condvar,
    /// One packed work range per worker.
    ranges: Vec<AtomicU64>,
    /// Workers still participating in the current sweep. The submitter
    /// only reads results once this hits zero, which guarantees every
    /// cell has executed and no worker still holds the job `Arc`.
    active: AtomicUsize,
}

struct State {
    /// Bumped once per sweep; workers participate in each generation
    /// exactly once.
    generation: u64,
    job: Option<Arc<dyn SweepJob>>,
    shutdown: bool,
}

/// A persistent pool of sweep workers. Create one per process (thread
/// spawn happens here and only here), then [`SweepPool::run`] any
/// number of sweeps through it.
///
/// # Examples
///
/// ```
/// use rtpool_bench::sweep::SweepPool;
///
/// let pool = SweepPool::new(4);
/// let squares = pool.run(10, "squares", |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub struct SweepPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Serializes sweeps: one job in flight at a time.
    submit: Mutex<()>,
}

impl SweepPool {
    /// Creates a pool with `threads` long-lived workers (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            ranges: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            active: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning sweep worker")
            })
            .collect();
        SweepPool {
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
    /// and returns the results in index order.
    ///
    /// The output is independent of the worker count and of steal
    /// interleaving: cell `i`'s result always lands in slot `i`. Long
    /// sweeps (> ~2.5 s) report throughput and ETA for `label` on stderr;
    /// short ones are silent.
    ///
    /// # Panics
    ///
    /// Panics if `cells` exceeds `u32::MAX` (the packed-range queue
    /// limit) or if the closure panics in a worker.
    pub fn run<T, F>(&self, cells: usize, label: &str, f: F) -> Vec<T>
    where
        T: Send + Sync + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if cells == 0 {
            return Vec::new();
        }
        let n = u32::try_from(cells).expect("cell count fits the packed range queue");

        let _sweep = self.submit.lock().expect("submit lock not poisoned");
        let job = Arc::new(Job {
            f,
            slots: (0..cells).map(|_| OnceLock::new()).collect(),
            remaining: AtomicUsize::new(cells),
        });

        // Publish the work ranges before the job itself: a worker that
        // sees the new generation must already see its range.
        let threads = self.shared.ranges.len();
        let chunk = cells.div_ceil(threads) as u32;
        for (w, range) in self.shared.ranges.iter().enumerate() {
            let start = (w as u32).saturating_mul(chunk).min(n);
            let end = start.saturating_add(chunk).min(n);
            range.store(pack(start, end), Ordering::Release);
        }
        self.shared.active.store(threads, Ordering::Release);
        {
            let mut st = self.shared.state.lock().expect("pool state not poisoned");
            st.generation += 1;
            st.job = Some(Arc::clone(&job) as Arc<dyn SweepJob>);
            self.shared.work_cv.notify_all();
        }

        // Wait for every worker to finish, narrating progress on slow
        // sweeps.
        let started = Instant::now();
        let mut last_line = started;
        {
            let mut st = self.shared.state.lock().expect("pool state not poisoned");
            while self.shared.active.load(Ordering::Acquire) > 0 {
                (st, _) = self
                    .shared
                    .done_cv
                    .wait_timeout(st, PROGRESS_TICK)
                    .expect("pool state not poisoned");
                let elapsed = started.elapsed();
                if elapsed > PROGRESS_AFTER && last_line.elapsed() > PROGRESS_EVERY {
                    last_line = Instant::now();
                    let left = job.remaining.load(Ordering::Relaxed);
                    let done = cells - left;
                    let rate = done as f64 / elapsed.as_secs_f64();
                    let eta = if rate > 0.0 {
                        left as f64 / rate
                    } else {
                        f64::INFINITY
                    };
                    let mut err = std::io::stderr().lock();
                    let _ = writeln!(
                        err,
                        "  [{label}] {done}/{cells} cells ({rate:.1} cells/s, ETA {eta:.0}s)"
                    );
                }
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

impl Drop for SweepPool {
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
        // Wait for a sweep we have not participated in yet (the job
        // stays published until *every* worker has, so none is missed).
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

        loop {
            if let Some(cell) = pop_front(&shared.ranges[me]) {
                job.run_cell(cell as usize);
            } else if !steal(&shared.ranges, me) {
                break;
            }
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

/// Claims the front cell of `range`, if any.
fn pop_front(range: &AtomicU64) -> Option<u32> {
    let mut cur = range.load(Ordering::Acquire);
    loop {
        let (start, end) = unpack(cur);
        if start >= end {
            return None;
        }
        match range.compare_exchange_weak(
            cur,
            pack(start + 1, end),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(start),
            Err(now) => cur = now,
        }
    }
}

/// Steals the back half of the richest other range into `ranges[me]`.
/// Returns `false` when every other range is empty.
fn steal(ranges: &[AtomicU64], me: usize) -> bool {
    loop {
        let mut best: Option<(usize, u64, u32)> = None;
        for (w, range) in ranges.iter().enumerate() {
            if w == me {
                continue;
            }
            let cur = range.load(Ordering::Acquire);
            let (start, end) = unpack(cur);
            let len = end.saturating_sub(start);
            if len > 0 && best.is_none_or(|(_, _, b)| len > b) {
                best = Some((w, cur, len));
            }
        }
        let Some((victim, cur, len)) = best else {
            return false;
        };
        let (start, end) = unpack(cur);
        let mid = end - len.div_ceil(2);
        if ranges[victim]
            .compare_exchange(cur, pack(start, mid), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // Our own range is empty (we only steal after draining it),
            // so this store cannot clobber live cells.
            ranges[me].store(pack(mid, end), Ordering::Release);
            return true;
        }
        // Lost the race; rescan.
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
    fn uneven_partitions_cover_every_cell() {
        // cells < workers leaves most initial ranges empty; stealing and
        // completion must still work.
        let pool = SweepPool::new(8);
        let out = pool.run(3, "t", |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (s, e) in [(0, 0), (0, 1), (7, 1000), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(s, e)), (s, e));
        }
    }
}
