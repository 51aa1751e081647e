//! The workload files shipped in `workloads/` stay parseable and behave
//! as their comments promise.

use rtpool::core::analysis::global::{self, ConcurrencyModel};
use rtpool::core::{deadlock, textfmt, TaskId};
use rtpool::sim::{SchedulingPolicy, SimConfig};

const FIGURE1: &str = include_str!("../workloads/figure1.rtp");

#[test]
fn figure1_workload_parses() {
    let set = textfmt::parse_task_set(FIGURE1).unwrap();
    assert_eq!(set.len(), 2);
    let blocking_task = set.task(TaskId(0));
    assert_eq!(blocking_task.dag().blocking_regions().len(), 2);
    assert_eq!(set.task(TaskId(1)).dag().blocking_regions().len(), 0);
}

#[test]
fn figure1_workload_behaves_as_documented() {
    let set = textfmt::parse_task_set(FIGURE1).unwrap();
    let dag = set.task(TaskId(0)).dag();
    // The file promises: deadlock possible on m = 2, safe on m >= 3.
    assert!(!deadlock::check_global(dag, 2).is_deadlock_free());
    assert!(deadlock::check_global(dag, 3).is_deadlock_free());
    // And the oblivious analysis accepts the m = 2 configuration that
    // the simulator then deadlocks — the CLI's headline demo.
    assert!(global::analyze(&set, 2, ConcurrencyModel::Full).is_schedulable());
    let out = SimConfig::single_job(SchedulingPolicy::Global, 2)
        .run(&set)
        .unwrap();
    assert!(out.task(0).stall.is_some());
    // On m = 3 everything completes.
    let out = SimConfig::single_job(SchedulingPolicy::Global, 3)
        .run(&set)
        .unwrap();
    assert!(!out.any_stall());
    assert!(out.all_deadlines_met());
}

#[test]
fn figure1_workload_roundtrips() {
    let set = textfmt::parse_task_set(FIGURE1).unwrap();
    let back = textfmt::parse_task_set(&textfmt::write_task_set(&set)).unwrap();
    assert_eq!(back.len(), set.len());
    for ((_, a), (_, b)) in set.iter().zip(back.iter()) {
        assert_eq!(a.volume(), b.volume());
        assert_eq!(a.period(), b.period());
    }
}

#[test]
fn figure1_workload_stays_schedulable_on_the_largest_pools() {
    // `m as i64` wrapped: on 2⁶³ threads or more the floor went negative
    // and a set admitted on m = 3 was refused.
    let set = textfmt::parse_task_set(FIGURE1).unwrap();
    assert!(global::analyze(&set, 3, ConcurrencyModel::LimitedExact).is_schedulable());
    for m in [usize::MAX / 2 + 1, usize::MAX] {
        for model in [ConcurrencyModel::LimitedExact, ConcurrencyModel::Limited] {
            assert!(
                global::analyze(&set, m, model).is_schedulable(),
                "{model:?} on m = {m}"
            );
        }
        assert!(deadlock::check_global(set.task(TaskId(0)).dag(), m).is_deadlock_free());
    }
}
