//! Quickstart: model the paper's Figure 1(a) task, analyze it, and run
//! it on a real condvar-based thread pool.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rtpool::core::analysis::global::{self, ConcurrencyModel};
use rtpool::core::{deadlock, Task, TaskSet};
use rtpool::exec::{PoolConfig, QueueDiscipline, ThreadPool};
use rtpool::graph::DagBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Model: v1 forks {v2, v3, v4}, blocks until they finish, v5 runs.
    let mut b = DagBuilder::new();
    let v1 = b.add_node(10);
    let v2 = b.add_node(20);
    let v3 = b.add_node(30);
    let v4 = b.add_node(20);
    let v5 = b.add_node(10);
    for c in [v2, v3, v4] {
        b.add_edge(v1, c)?;
        b.add_edge(c, v5)?;
    }
    b.blocking_pair(v1, v5)?; // v1 becomes BF, v5 BJ, children BC
    let dag = b.build()?;

    println!("Figure 1(a) task graph:");
    println!("{}", dag.to_dot("fig1a"));
    println!(
        "volume = {}, critical path = {}",
        dag.volume(),
        dag.critical_path_length()
    );

    // --- Concurrency bounds (Section 3.1).
    let m = 4;
    println!(
        "b̄ = {}, l̄({m}) = {} (exact max suspended forks: {})",
        dag.delay_profile().max_delay_count(),
        deadlock::concurrency_floor(&dag, m),
        dag.max_blocking_antichain().len(),
    );
    println!(
        "deadlock check on {m} threads: {:?}",
        deadlock::check_global(&dag, m)
    );

    // --- Schedulability (Section 4.1): baseline vs limited concurrency.
    let set = TaskSet::new(vec![Task::with_implicit_deadline(dag.clone(), 200)?]);
    for model in [ConcurrencyModel::Full, ConcurrencyModel::Limited] {
        let result = global::analyze(&set, m, model);
        println!(
            "{model:?} analysis: schedulable = {}, R = {:?}",
            result.is_schedulable(),
            result.verdicts()[0].response_time()
        );
    }

    // --- Execute on a real thread pool with condition-variable barriers.
    let mut pool = ThreadPool::new(PoolConfig::new(m, QueueDiscipline::GlobalFifo));
    let report = pool.run(&dag)?;
    println!(
        "executed {} nodes in {:.2?}; min available workers = {}",
        report.executed_nodes, report.makespan, report.min_available_workers
    );
    Ok(())
}
