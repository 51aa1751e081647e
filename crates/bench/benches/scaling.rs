//! How does the graph stage grow with the graph?
//!
//! Two shapes at n = 2⁶ … 2¹³ nodes: `k` parallel blocking fork–joins
//! (source → k forks of two children each → sink, n = 4k + 2) and the
//! layered graph of `incremental_edit` (a source, rows of nodes each
//! wired to two of the next row, a sink). For each, three stages are
//! timed, the fastest of five runs (each run visits every size) on a
//! freshly assembled graph: `Dag::from_lists`, the first
//! `delay_profile()` with its `b̄`, and `critical_path_length()` on a
//! copy whose length cell is empty.
//!
//! Each timed run follows an untimed build of the same graph, and the
//! bench's allocator keeps every freed block of a MiB or more for the
//! next request of the same layout until the shape is done. So a timed
//! run works on the memory that build has just touched, whether or not
//! the system allocator would have handed it back to the OS, and
//! whatever else the runs before it held: the stages are timed, not
//! page faults or the cache lines of other sizes.
//!
//! The closure and the delay sets are `O(|V|²/64)` words, the critical
//! path one pass over the edges, so the log-log slope of time against
//! node count, fitted over the top five octaves, must be at most
//! [`MAX_QUADRATIC_SLOPE`] for the first two stages and
//! [`MAX_LINEAR_SLOPE`] for the third; the bench exits non-zero above
//! either. Well under a second in release, no flags.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use rtpool_graph::{Dag, NodeId};

/// Largest slope allowed for assembly and the delay profile.
const MAX_QUADRATIC_SLOPE: f64 = 2.3;
/// Largest slope allowed for the critical path.
const MAX_LINEAR_SLOPE: f64 = 1.3;
/// Octaves timed: n = 2^6 … 2^13.
const OCTAVES: std::ops::RangeInclusive<u32> = 6..=13;
/// The slope is fitted over this many of the largest sizes.
const FITTED: usize = 5;
const RUNS: usize = 5;

/// Freed blocks of at least this many bytes are kept for reuse.
const KEPT_BYTES: usize = 1 << 20;

/// `(address, size, align)` of every kept block; address 0 marks a free
/// slot. A block freed while every slot is taken goes to the system.
static KEPT: Mutex<[(usize, usize, usize); 16]> = Mutex::new([(0, 0, 0); 16]);

/// The system allocator, but for blocks of [`KEPT_BYTES`] or more, which
/// it keeps when freed and hands out again for the same layout.
struct KeepLarge;

// SAFETY: every block comes from `System` for the layout it is freed
// with: a kept block is handed out again only for its own size and
// alignment, and once, because taking it empties its slot. The lock
// neither allocates nor panics.
unsafe impl GlobalAlloc for KeepLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= KEPT_BYTES {
            let mut kept = KEPT.lock().unwrap_or_else(PoisonError::into_inner);
            let want = (layout.size(), layout.align());
            if let Some(slot) = kept
                .iter_mut()
                .find(|slot| slot.0 != 0 && (slot.1, slot.2) == want)
            {
                return std::mem::take(&mut slot.0) as *mut u8;
            }
        }
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= KEPT_BYTES {
            let mut kept = KEPT.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = kept.iter_mut().find(|slot| slot.0 == 0) {
                *slot = (ptr as usize, layout.size(), layout.align());
                return;
            }
        }
        // SAFETY: `ptr` came from `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: KeepLarge = KeepLarge;

/// Hands every kept block back to the system.
fn release_kept() {
    let mut kept = KEPT.lock().unwrap_or_else(PoisonError::into_inner);
    for (at, size, align) in kept.iter_mut().map(std::mem::take) {
        if at != 0 {
            let layout = Layout::from_size_align(size, align).expect("a kept block's layout");
            // SAFETY: the block came from `System` for this layout and
            // left its slot, so it is freed once.
            unsafe { System.dealloc(at as *mut u8, layout) };
        }
    }
}

/// A shape's lists at about `n` nodes.
type Shape = fn(usize) -> Lists;

/// Node WCETs, edges and blocking pairs, as `Dag::from_lists` takes them.
struct Lists {
    wcets: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
    pairs: Vec<(NodeId, NodeId)>,
}

/// Source → `k` blocking fork–joins of two children each → sink.
fn parallel_fork_joins(n: usize) -> Lists {
    let k = (n - 2) / 4;
    let v = NodeId::from_index;
    let sink = v(4 * k + 1);
    let (mut edges, mut pairs) = (Vec::new(), Vec::new());
    for i in 0..k {
        let (fork, join) = (v(1 + 4 * i), v(4 + 4 * i));
        edges.push((v(0), fork));
        for child in [v(2 + 4 * i), v(3 + 4 * i)] {
            edges.push((fork, child));
            edges.push((child, join));
        }
        edges.push((join, sink));
        pairs.push((fork, join));
    }
    let wcets = (0..4 * k + 2).map(|i| 1 + i as u64 % 7).collect();
    Lists {
        wcets,
        edges,
        pairs,
    }
}

/// Source → rows of `width` nodes, node `i` of a row wired to nodes `i`
/// and `i + 1` (mod `width`) of the next → sink: `incremental_edit`'s
/// graph, with about `n` nodes in rows about as many as they are wide.
fn layered(n: usize) -> Lists {
    let width = 1 << (n.trailing_zeros() / 2);
    let layers = (n - 2) / width;
    let v = NodeId::from_index;
    let at = |layer: usize, i: usize| v(1 + layer * width + i % width);
    let sink = v(1 + layers * width);
    let mut edges = Vec::new();
    for i in 0..width {
        edges.push((v(0), at(0, i)));
        edges.push((at(layers - 1, i), sink));
    }
    for layer in 0..layers - 1 {
        for i in 0..width {
            edges.push((at(layer, i), at(layer + 1, i)));
            edges.push((at(layer, i), at(layer + 1, i + 1)));
        }
    }
    let wcets = (0..layers * width + 2).map(|i| 1 + i as u64 % 7).collect();
    Lists {
        wcets,
        edges,
        pairs: Vec::new(),
    }
}

/// The three stages on a graph assembled afresh from `lists`, in
/// seconds, after an untimed build of the same graph.
fn time_stages(lists: &Lists) -> [f64; 3] {
    let build = || Dag::from_lists(&lists.wcets, &lists.edges, &lists.pairs);
    let warm = build().expect("the shape is valid");
    black_box(warm.delay_profile().max_delay_count());
    drop(black_box(warm));
    let start = Instant::now();
    let dag = build().expect("the shape is valid");
    let assembled = start.elapsed();
    let start = Instant::now();
    black_box(dag.delay_profile().max_delay_count());
    let delays = start.elapsed();
    // Timed on a copy cloned while its length cell is still empty, after
    // one untimed run on the original, so the distance table's memory is
    // warm.
    let copy = dag.clone();
    black_box(dag.critical_path_length());
    let start = Instant::now();
    black_box(copy.critical_path_length());
    let path = start.elapsed();
    drop(black_box((dag, copy)));
    [assembled, delays, path].map(|t| t.as_secs_f64())
}

/// Least-squares slope of `ln t` against `ln n`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(n, t)| (n.ln(), t.ln())).collect();
    let count = logs.len() as f64;
    let (mx, my) = logs
        .iter()
        .fold((0.0, 0.0), |(x, y), &(a, b)| (x + a / count, y + b / count));
    let (sxy, sxx) = logs.iter().fold((0.0, 0.0), |(sxy, sxx), &(x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    sxy / sxx
}

fn main() -> ExitCode {
    const STAGES: [(&str, f64); 3] = [
        ("Dag::from_lists", MAX_QUADRATIC_SLOPE),
        ("delay_profile", MAX_QUADRATIC_SLOPE),
        ("critical_path", MAX_LINEAR_SLOPE),
    ];
    let shapes: [(&str, Shape); 2] = [
        ("parallel blocking fork-joins", parallel_fork_joins),
        ("layered", layered),
    ];
    let mut failed = false;
    for (shape, lists_of) in shapes {
        println!("{shape}:");
        println!(
            "  {:>6} {:>7} {:>16} {:>14} {:>14}",
            "nodes", "edges", STAGES[0].0, STAGES[1].0, STAGES[2].0
        );
        // Every size once per run, so that a slow spell of the machine
        // meets all sizes alike; each size keeps its fastest run.
        let sizes: Vec<Lists> = OCTAVES.map(|octave| lists_of(1 << octave)).collect();
        let mut best = vec![[f64::INFINITY; 3]; sizes.len()];
        for _ in 0..RUNS {
            for (lists, best) in sizes.iter().zip(&mut best) {
                for (b, t) in best.iter_mut().zip(time_stages(lists)) {
                    *b = b.min(t);
                }
            }
        }
        release_kept();
        let mut points: [Vec<(f64, f64)>; 3] = Default::default();
        for (lists, times) in sizes.iter().zip(&best) {
            let n = lists.wcets.len();
            println!(
                "  {n:>6} {:>7} {:>13.1} us {:>11.1} us {:>11.1} us",
                lists.edges.len(),
                times[0] * 1e6,
                times[1] * 1e6,
                times[2] * 1e6
            );
            for (series, &t) in points.iter_mut().zip(times) {
                series.push((n as f64, t));
            }
        }
        for ((stage, bound), series) in STAGES.iter().zip(&points) {
            let fitted = slope(&series[series.len() - FITTED..]);
            let verdict = if fitted <= *bound { "ok" } else { "TOO STEEP" };
            println!("  {stage}: slope {fitted:.2} over the top {FITTED} octaves (bound {bound}) {verdict}");
            failed |= fitted > *bound;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
