//! The paper's Figure 1(c): two replicas of a blocking fork–join
//! deadlock a 2-thread pool. The demo (1) predicts the deadlock with the
//! Section 3 analysis, (2) reproduces it deterministically in the
//! discrete-event simulator, (3) reproduces it on *real* condition
//! variables, and (4) shows that one more thread — or an Algorithm 1
//! partitioned mapping — removes it.
//!
//! ```text
//! cargo run --example deadlock_demo
//! ```

use rtpool::core::partition::algorithm1;
use rtpool::core::{deadlock, Task, TaskSet};
use rtpool::exec::{ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool::graph::{Dag, DagBuilder};
use rtpool::sim::{SchedulingPolicy, SimConfig};

fn two_replicas() -> Result<Dag, Box<dyn std::error::Error>> {
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true)?;
        b.add_edge(src, f)?;
        b.add_edge(j, snk)?;
    }
    Ok(b.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dag = two_replicas()?;

    // (1) Prediction.
    println!("== Analysis (Section 3) ==");
    for m in [2, 3] {
        println!("  m = {m}: {:?}", deadlock::check_global(&dag, m));
    }

    // (2) Deterministic simulation.
    println!("\n== Discrete-event simulation ==");
    let set = TaskSet::new(vec![Task::with_implicit_deadline(dag.clone(), 100_000)?]);
    for m in [2, 3] {
        let out = SimConfig::single_job(SchedulingPolicy::Global, m).run(&set)?;
        match &out.task(0).stall {
            Some(stall) => println!(
                "  m = {m}: STALLED at t = {} with {} suspended threads",
                stall.time, stall.suspended_threads
            ),
            None => println!(
                "  m = {m}: completed, response = {:?}, min l(t) = {}",
                out.task(0).max_response,
                out.task(0).min_available_concurrency
            ),
        }
    }

    // (3) Real condition variables.
    println!("\n== Native thread pool (real condvars) ==");
    for m in [2, 3] {
        let mut pool = ThreadPool::new(PoolConfig::new(m, QueueDiscipline::GlobalFifo));
        match pool.run(&dag) {
            Ok(report) => println!(
                "  m = {m}: completed {} nodes in {:.2?}",
                report.executed_nodes, report.makespan
            ),
            Err(ExecError::Stalled {
                suspended_workers,
                executed_nodes,
            }) => println!(
                "  m = {m}: DEADLOCK — {suspended_workers} workers suspended after {executed_nodes} nodes"
            ),
            Err(e) => println!("  m = {m}: unexpected error: {e}"),
        }
    }

    // (4) Partitioned rescue with Algorithm 1 (needs 3 threads here: the
    // two forks must avoid each other's and the children's threads).
    println!("\n== Partitioned scheduling with Algorithm 1 ==");
    match algorithm1(&dag, 2) {
        Ok(_) => println!("  m = 2: unexpectedly partitioned"),
        Err(e) => println!("  m = 2: Algorithm 1 fails as predicted ({e})"),
    }
    let mapping = algorithm1(&dag, 3)?;
    let mut pool = ThreadPool::new(PoolConfig::new(3, QueueDiscipline::Partitioned(mapping)));
    let report = pool.run(&dag)?;
    println!(
        "  m = 3: delay-free mapping completed {} nodes in {:.2?}",
        report.executed_nodes, report.makespan
    );
    Ok(())
}
