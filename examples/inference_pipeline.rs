//! A TensorFlow/Eigen-inspired workload: a deep-network inference task
//! whose layers are parallelized internally with *blocking* fork–joins —
//! the design the paper's introduction motivates (the Eigen thread pool
//! suspends the forking thread on a condition variable until the layer's
//! parallel shards finish).
//!
//! The example builds a synthetic N-layer pipeline with many small
//! shards per layer, computes how many pool threads are needed for
//! deadlock freedom and schedulability, and measures the blocking
//! penalty on a real thread pool.
//!
//! ```text
//! cargo run --release --example inference_pipeline
//! ```

use std::time::Duration;

use rtpool::core::analysis::global::{self, ConcurrencyModel};
use rtpool::core::{sizing, Task, TaskSet};
use rtpool::exec::{PoolConfig, QueueDiscipline, ThreadPool};
use rtpool::gen::presets;

/// WCET of one shard operation.
const SHARD_WCET: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `towers` independent towers run concurrently (like parallel heads),
    // so several layer barriers can be in flight at once.
    let (towers, layers, shards) = (3, 4, 12);
    let dag = presets::inference(towers, layers, shards, SHARD_WCET, true)?;
    println!(
        "inference task: {} towers × {} layers × {} shards = {} nodes, vol {}, len {}",
        towers,
        layers,
        shards,
        dag.node_count(),
        dag.volume(),
        dag.critical_path_length()
    );

    // How many threads until the blocking barriers cannot deadlock?
    println!(
        "b̄ = {}, exact max concurrent suspended forks = {}",
        dag.delay_profile().max_delay_count(),
        dag.max_blocking_antichain().len()
    );
    let safe_m = sizing::min_threads_deadlock_free(&dag);
    println!("smallest deadlock-free pool: m = {safe_m}");

    // Schedulability with a 25% utilization budget.
    let period = dag.volume() * 4;
    let set = TaskSet::new(vec![Task::with_implicit_deadline(dag.clone(), period)?]);
    for m in [safe_m, safe_m + 2, safe_m + 4] {
        let full = global::analyze(&set, m, ConcurrencyModel::Full);
        let limited = global::analyze(&set, m, ConcurrencyModel::Limited);
        println!(
            "m = {m}: baseline R = {:?}, limited-concurrency R = {:?}",
            full.verdicts()[0].response_time(),
            limited.verdicts()[0].response_time(),
        );
    }

    // Measured blocking penalty on real threads.
    let plain = presets::inference(towers, layers, shards, SHARD_WCET, false)?;
    let m = safe_m + 1;
    let scale = Duration::from_micros(100);
    let mut pool =
        ThreadPool::new(PoolConfig::new(m, QueueDiscipline::GlobalFifo).with_time_scale(scale));
    let blocking_report = pool.run(&dag)?;
    let plain_report = pool.run(&plain)?;
    println!(
        "\nreal pool, m = {m}: blocking {:.2?} (min avail {}), non-blocking {:.2?} (min avail {})",
        blocking_report.makespan,
        blocking_report.min_available_workers,
        plain_report.makespan,
        plain_report.min_available_workers,
    );
    println!(
        "blocking slowdown: {:.1}%",
        100.0
            * (blocking_report.makespan.as_secs_f64() / plain_report.makespan.as_secs_f64() - 1.0)
    );
    Ok(())
}
