//! The paper's Figure 1 scenarios, cross-validated through all three
//! layers: static analysis (`rtpool-core`), deterministic simulation
//! (`rtpool-sim`), and real condition variables (`rtpool-exec`).

use rtpool::core::partition::{algorithm1, worst_fit};
use rtpool::core::{deadlock, Task, TaskSet};
use rtpool::exec::{ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool::graph::{Dag, DagBuilder};
use rtpool::sim::{SchedulingPolicy, SimConfig};

/// Figure 1(a): one blocking fork-join (v1 BF; v2..v4 BC; v5 BJ).
fn figure_1a() -> Dag {
    let mut b = DagBuilder::new();
    b.fork_join(10, &[20, 30, 20], 10, true).unwrap();
    b.build().unwrap()
}

/// Figure 1(c): two replicas of the fork-join behind a common source.
fn figure_1c() -> Dag {
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(10, &[5, 5, 5], 10, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    b.build().unwrap()
}

fn single(dag: Dag) -> TaskSet {
    TaskSet::new(vec![Task::with_implicit_deadline(dag, 1_000_000).unwrap()])
}

#[test]
fn figure_1b_suspension_reduces_concurrency_in_all_layers() {
    let dag = figure_1a();
    let m = 3;
    // Analysis: one fork can suspend, so l >= m - 1 and no deadlock.
    assert_eq!(dag.delay_profile().max_delay_count(), 1);
    assert!(deadlock::check_global(&dag, m).is_deadlock_free());
    // Simulation: the trace dips to exactly m - 1.
    let out = SimConfig::single_job(SchedulingPolicy::Global, m)
        .run(&single(dag.clone()))
        .unwrap();
    assert_eq!(out.task(0).min_available_concurrency, m - 1);
    assert!(out.task(0).stall.is_none());
    // Real pool: one worker observed suspended.
    let mut pool = ThreadPool::new(PoolConfig::new(m, QueueDiscipline::GlobalFifo));
    let report = pool.run(&dag).unwrap();
    assert_eq!(report.min_available_workers, m - 1);
    assert_eq!(report.executed_nodes, dag.node_count());
}

#[test]
fn figure_1c_deadlock_agrees_across_layers() {
    let dag = figure_1c();
    // Analysis predicts: deadlock possible on 2 threads, free on 3.
    assert!(!deadlock::check_global(&dag, 2).is_deadlock_free());
    assert!(deadlock::check_global(&dag, 3).is_deadlock_free());
    // Simulator confirms both.
    let stalled = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&single(dag.clone()))
        .unwrap();
    assert!(stalled.task(0).stall.is_some());
    assert_eq!(stalled.task(0).min_available_concurrency, 0);
    let fine = SimConfig::single_job(SchedulingPolicy::Global, 3)
        .run(&single(dag.clone()))
        .unwrap();
    assert!(fine.task(0).stall.is_none());
    // Real pool confirms both.
    let mut pool2 = ThreadPool::new(PoolConfig::new(2, QueueDiscipline::GlobalFifo));
    assert!(matches!(
        pool2.run(&dag),
        Err(ExecError::Stalled {
            suspended_workers: 2,
            ..
        })
    ));
    let mut pool3 = ThreadPool::new(PoolConfig::new(3, QueueDiscipline::GlobalFifo));
    assert_eq!(pool3.run(&dag).unwrap().executed_nodes, dag.node_count());
}

#[test]
fn lemma3_violation_stalls_partitioned_execution_everywhere() {
    let dag = figure_1a();
    let m = 2;
    // Map everything to thread 0: the children sit behind the suspended
    // fork (Lemma 3 violated).
    let bad =
        rtpool::core::partition::NodeMapping::from_threads(&dag, m, vec![0; dag.node_count()])
            .unwrap();
    assert!(!deadlock::check_partitioned(&dag, m, &bad).is_deadlock_free());
    // Simulator stalls.
    let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
        .with_mappings(vec![bad.clone()])
        .run(&single(dag.clone()))
        .unwrap();
    assert!(out.task(0).stall.is_some());
    // Real pool stalls.
    let mut pool = ThreadPool::new(PoolConfig::new(m, QueueDiscipline::Partitioned(bad)));
    assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
}

#[test]
fn algorithm1_mapping_rescues_partitioned_execution_everywhere() {
    let dag = figure_1a();
    let m = 2;
    let mapping = algorithm1(&dag, m).unwrap();
    assert!(deadlock::check_partitioned(&dag, m, &mapping).is_deadlock_free());
    let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
        .with_mappings(vec![mapping.clone()])
        .run(&single(dag.clone()))
        .unwrap();
    assert!(out.task(0).stall.is_none());
    assert_eq!(out.task(0).completed, 1);
    let mut pool = ThreadPool::new(PoolConfig::new(m, QueueDiscipline::Partitioned(mapping)));
    assert_eq!(pool.run(&dag).unwrap().executed_nodes, dag.node_count());
}

#[test]
fn worst_fit_on_figure_1c_is_the_papers_hazard() {
    // With m = 3 the task is globally safe, but a careless worst-fit
    // node placement can still deadlock partitioned execution.
    let dag = figure_1c();
    let m = 3;
    assert!(deadlock::check_global(&dag, m).is_deadlock_free());
    let wf = worst_fit(&dag, m);
    let wf_safe = deadlock::check_partitioned(&dag, m, &wf).is_deadlock_free();
    let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
        .with_mappings(vec![wf.clone()])
        .run(&single(dag.clone()))
        .unwrap();
    // The simulator may or may not hit the hazard for this concrete
    // interleaving, but it must never stall when Lemma 3 certifies the
    // mapping.
    if wf_safe {
        assert!(out.task(0).stall.is_none());
    }
    // Algorithm 1 is always safe here.
    let a1 = algorithm1(&dag, m).unwrap();
    let out = SimConfig::single_job(SchedulingPolicy::Partitioned, m)
        .with_mappings(vec![a1])
        .run(&single(dag))
        .unwrap();
    assert!(out.task(0).stall.is_none());
}
