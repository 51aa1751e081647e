//! Hand-computed scheduling scenarios: each test pins down the exact
//! schedule the engine must produce, the way one would verify a
//! real-time scheduling example on paper.

use rtpool_core::partition::NodeMapping;
use rtpool_core::{Task, TaskSet};
use rtpool_graph::{Dag, DagBuilder, NodeId};
use rtpool_sim::{ExecutionTime, ReleasePattern, SchedulingPolicy, SimConfig};
use rtpool_trace::{gantt, TraceAnalysis};

fn chain(wcets: &[u64]) -> Dag {
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
    b.add_chain(&ids).unwrap();
    b.build().unwrap()
}

fn task(dag: Dag, period: u64) -> Task {
    Task::with_implicit_deadline(dag, period).unwrap()
}

/// Classic two-task preemption staircase on one core:
/// τ0 = (C=2, T=5), τ1 = (C=4, T=14). τ1's first job runs at
/// [2,5)∪[7,10) → response 8? Let's derive: τ0 jobs at 0,5,10 each run
/// 2 units first. τ1: needs 4 units: gets [2,5) = 3 units, [7,8) = 1
/// unit → finishes at 8.
#[test]
fn staircase_preemption_single_core() {
    let set = TaskSet::new(vec![task(chain(&[2]), 5), task(chain(&[4]), 14)]);
    let out = SimConfig::periodic(SchedulingPolicy::Global, 1, 14)
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![2, 2, 2]);
    assert_eq!(out.task(1).responses, vec![8]);
}

/// The response-time recurrence's textbook fixpoint: τ0=(1,4), τ1=(1,5),
/// τ2=(3,9) on one core → R2 = 3 + ⌈R2/4⌉ + ⌈R2/5⌉ … = 7? Simulate the
/// synchronous (critical-instant) release: τ2 runs in the gaps:
/// t=0: τ0, t=1: τ1, t=2,3: τ2(2), t=4: τ0, t=5: τ1, t=6: τ2(1 left)
/// → finishes at 7.
#[test]
fn rate_monotonic_textbook_example() {
    let set = TaskSet::new(vec![
        task(chain(&[1]), 4),
        task(chain(&[1]), 5),
        task(chain(&[3]), 9),
    ]);
    let out = SimConfig::periodic(SchedulingPolicy::Global, 1, 9)
        .run(&set)
        .unwrap();
    assert_eq!(out.task(2).responses, vec![7]);
}

/// Two cores, three equal single-node tasks released together: the two
/// high-priority ones run immediately, the third waits for the first
/// completion.
#[test]
fn two_cores_three_tasks() {
    let set = TaskSet::new(vec![
        task(chain(&[6]), 100),
        task(chain(&[6]), 200),
        task(chain(&[6]), 300),
    ]);
    let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![6]);
    assert_eq!(out.task(1).responses, vec![6]);
    assert_eq!(out.task(2).responses, vec![12]);
}

/// Blocking fork-join, exact timeline on m=2 (worked out by hand):
/// fork f(2) runs on thread A [0,2), children c1(4), c2(4) are queued;
/// A suspends; B runs c1 [2,6) then c2 [6,10); barrier opens at 10; A
/// runs join j(1) [10,11). Response = 11, l(t) dips to 1 during [2,10).
#[test]
fn blocking_fork_join_exact_timeline() {
    let mut b = DagBuilder::new();
    b.fork_join(2, &[4, 4], 1, true).unwrap();
    let set = TaskSet::new(vec![task(b.build().unwrap(), 1_000)]);
    let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .with_event_trace()
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![11]);
    let ana = TraceAnalysis::new(out.event_trace().expect("event trace recorded"));
    assert_eq!(ana.task(0).concurrency_profile, [(0, 2), (2, 1), (10, 2)]);
}

/// Nested non-blocking region inside a blocking one is forbidden by the
/// model, but a *sequence* of blocking regions works: the second region
/// only starts after the first completes, so one thread suffices to
/// avoid deadlock... with m = 2: region1 f(1)+c(2)+j(1), region2 same.
/// Timeline: f1 [0,1) on A; c [1,3) on B; j1 [3,4) on A; f2 [4,5) on A;
/// c [5,7) on B; j2 [7,8) on A. Response 8.
#[test]
fn sequential_blocking_regions_exact_timeline() {
    let mut b = DagBuilder::new();
    let (f1, j1) = b.fork_join(1, &[2], 1, true).unwrap();
    let (f2, j2) = b.fork_join(1, &[2], 1, true).unwrap();
    b.add_edge(j1, f2).unwrap();
    let _ = (f1, j2);
    let set = TaskSet::new(vec![task(b.build().unwrap(), 1_000)]);
    let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![8]);
}

/// Partitioned FIFO ordering: two concurrent same-thread nodes execute
/// in enqueue order. Diamond a(1) -> {b(3), c(5)} -> d(1); b and c both
/// mapped to thread 1, a and d to thread 0. b and c enqueue together at
/// a's completion (id order: b first): thread 1 runs b [1,4), c [4,9);
/// d at 9 → response 10.
#[test]
fn partitioned_fifo_order_is_by_enqueue() {
    let mut b = DagBuilder::new();
    let a = b.add_node(1);
    let nb = b.add_node(3);
    let nc = b.add_node(5);
    let d = b.add_node(1);
    b.add_edge(a, nb).unwrap();
    b.add_edge(a, nc).unwrap();
    b.add_edge(nb, d).unwrap();
    b.add_edge(nc, d).unwrap();
    let dag = b.build().unwrap();
    let mapping = NodeMapping::from_threads(&dag, 2, vec![0, 1, 1, 0]).unwrap();
    let set = TaskSet::new(vec![task(dag, 1_000)]);
    let out = SimConfig::single_job(SchedulingPolicy::Partitioned, 2)
        .with_mappings(vec![mapping])
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![10]);
}

/// Priority inversion is impossible at thread level: a higher-priority
/// task released mid-flight preempts immediately (global, one core).
#[test]
fn newly_released_hp_task_preempts() {
    let hp = task(chain(&[2]), 1_000);
    let lp = task(chain(&[10]), 1_000);
    let set = TaskSet::new(vec![hp, lp]);
    let out = SimConfig {
        policy: SchedulingPolicy::Global,
        m: 1,
        horizon: 13,
        releases: ReleasePattern::Explicit(vec![vec![4], vec![0]]),
        mappings: None,
        execution_time: ExecutionTime::Wcet,
        record_event_trace: true,
    }
    .run(&set)
    .unwrap();
    // lp runs [0,4), hp preempts [4,6), lp resumes [6,12).
    assert_eq!(out.task(0).responses, vec![2]);
    assert_eq!(out.task(1).responses, vec![12]);
    // One column per tick up to the horizon; the last tick is idle.
    let art = gantt::render(out.event_trace().expect("event trace recorded"), 80);
    assert_eq!(art.lines().next().unwrap(), "core 0: 111100111111.");
}

/// A blocking join wakes exactly when its last child finishes, even if
/// the children finish out of id order.
#[test]
fn barrier_waits_for_slowest_child() {
    let mut b = DagBuilder::new();
    b.fork_join(1, &[9, 2, 5], 1, true).unwrap();
    let set = TaskSet::new(vec![task(b.build().unwrap(), 1_000)]);
    // 4 threads: all children parallel; barrier opens at 1 + 9 = 10;
    // join runs [10, 11).
    let out = SimConfig::single_job(SchedulingPolicy::Global, 4)
        .run(&set)
        .unwrap();
    assert_eq!(out.task(0).responses, vec![11]);
}

/// Under scaled execution times a *blocking* schedule can exhibit a
/// timing anomaly on a multiprocessor (finish later than predicted by
/// naive intuition), but the engine must still terminate and never
/// stall when the structure is deadlock-free.
#[test]
fn scaled_execution_never_stalls_deadlock_free_graphs() {
    let mut b = DagBuilder::new();
    let src = b.add_node(3);
    let snk = b.add_node(3);
    for _ in 0..2 {
        let (f, j) = b.fork_join(2, &[7, 4], 2, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    let set = TaskSet::new(vec![task(b.build().unwrap(), 10_000)]);
    for permille in [100, 300, 500, 700, 900, 1000] {
        let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
            .with_execution_time(ExecutionTime::Scaled { permille })
            .run(&set)
            .unwrap();
        assert!(out.task(0).stall.is_none(), "stall at permille {permille}");
        assert_eq!(out.task(0).completed, 1);
    }
}

/// Sporadic releases with zero extra delay degenerate to periodic.
#[test]
fn sporadic_with_zero_jitter_is_periodic() {
    let set = TaskSet::new(vec![task(chain(&[2]), 10)]);
    let mut sporadic = SimConfig::periodic(SchedulingPolicy::Global, 1, 50);
    sporadic.releases = ReleasePattern::Sporadic {
        seed: 1,
        max_delay_permille: 0,
    };
    let periodic = SimConfig::periodic(SchedulingPolicy::Global, 1, 50);
    assert_eq!(
        sporadic.run(&set).unwrap().task(0).responses,
        periodic.run(&set).unwrap().task(0).responses
    );
}
