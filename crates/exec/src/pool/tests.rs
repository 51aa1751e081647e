//! Facade tests. Everything here that does not name an engine runs on
//! both: the engines must be indistinguishable through [`ThreadPool`].

use super::*;
use crate::FaultPlan;
use rtpool_core::partition::{algorithm1, worst_fit};
use rtpool_graph::DagBuilder;
use rtpool_trace::EventKind;

const ENGINES: [Engine; 2] = [Engine::V1Condvar, Engine::V2LockFree];

fn fast(engine: Engine, workers: usize, discipline: QueueDiscipline) -> ThreadPool {
    ThreadPool::new(
        PoolConfig::new(workers, discipline)
            .with_engine(engine)
            .with_time_scale(Duration::from_micros(50))
            .with_watchdog(Duration::from_secs(10)),
    )
}

fn fork_join(blocking: bool) -> Dag {
    let mut b = DagBuilder::new();
    b.fork_join(1, &[2, 2, 2], 1, blocking).unwrap();
    b.build().unwrap()
}

#[test]
fn executes_all_nodes_global() {
    for engine in ENGINES {
        let mut pool = fast(engine, 3, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5);
        assert_eq!(report.completion_order.len(), 5);
        assert!(report.min_available_workers <= 2);
        assert_eq!(report.attempts, 1);
        assert!(report.recovery_events.is_empty());
    }
}

#[test]
fn completion_order_respects_precedence() {
    for engine in ENGINES {
        let mut pool = fast(engine, 4, QueueDiscipline::GlobalFifo);
        let dag = fork_join(false);
        let report = pool.run(&dag).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.node_count()];
            for (i, &n) in report.completion_order.iter().enumerate() {
                p[n] = i;
            }
            p
        };
        for v in dag.node_ids() {
            for &s in dag.successors(v) {
                assert!(pos[v.index()] < pos[s.index()]);
            }
        }
    }
}

#[test]
fn figure_1c_deadlock_on_real_condvars() {
    for engine in ENGINES {
        // Two blocking replicas on a 2-worker pool: both workers fetch
        // the forks (they are the only queued nodes), suspend on their
        // barriers, and the pool stalls — detected without timeouts.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let mut pool = fast(engine, 2, QueueDiscipline::GlobalFifo);
        match pool.run(&dag) {
            Err(ExecError::Stalled {
                suspended_workers, ..
            }) => assert_eq!(suspended_workers, 2),
            other => panic!("expected stall, got {other:?}"),
        }
        // The pool survives the stall and completes the job with a third
        // worker.
        let mut pool3 = fast(engine, 3, QueueDiscipline::GlobalFifo);
        let report = pool3.run(&dag).unwrap();
        assert_eq!(report.executed_nodes, dag.node_count());
    }
}

#[test]
fn pool_reusable_after_stall() {
    for engine in ENGINES {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1], 1, true).unwrap();
        let dag = b.build().unwrap();
        let mut pool = fast(engine, 1, QueueDiscipline::GlobalFifo);
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
        // A non-blocking job still completes on the same pool.
        let plain = {
            let mut b = DagBuilder::new();
            b.fork_join(1, &[1], 1, false).unwrap();
            b.build().unwrap()
        };
        let report = pool.run(&plain).unwrap();
        assert_eq!(report.executed_nodes, 3);
    }
}

#[test]
fn workers_recover_after_aborted_stall() {
    for engine in ENGINES {
        // Regression test for the job-epoch guard: a stalled job leaves
        // workers asleep on its barriers; when the next job is installed
        // before they wake, they must abandon the stale barrier and serve
        // the new job — otherwise the pool silently loses workers.
        let mut deadlocker = DagBuilder::new();
        let src = deadlocker.add_node(1);
        let snk = deadlocker.add_node(1);
        for _ in 0..2 {
            let (f, j) = deadlocker.fork_join(1, &[1], 1, true).unwrap();
            deadlocker.add_edge(src, f).unwrap();
            deadlocker.add_edge(j, snk).unwrap();
        }
        let deadlocker = deadlocker.build().unwrap();
        // The follow-up job needs both workers to finish (one blocking
        // fork: the children can only run on the second worker).
        let needs_both = fork_join(true);
        let mut pool = fast(engine, 2, QueueDiscipline::GlobalFifo);
        for round in 0..10 {
            assert!(
                matches!(pool.run(&deadlocker), Err(ExecError::Stalled { .. })),
                "round {round}: expected stall"
            );
            let report = pool
                .run(&needs_both)
                .unwrap_or_else(|e| panic!("round {round}: follow-up job failed: {e}"));
            assert_eq!(report.executed_nodes, needs_both.node_count());
        }
    }
}

#[test]
fn partitioned_discipline_follows_mapping() {
    for engine in ENGINES {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let mut pool = fast(engine, 2, QueueDiscipline::Partitioned(mapping));
        let report = pool.run(&dag).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }
}

#[test]
fn partitioned_unsafe_mapping_stalls() {
    for engine in ENGINES {
        let dag = fork_join(true);
        // Everything on worker 0: children behind the suspended fork.
        let mapping = worst_fit(&dag, 1);
        // Single worker, single queue.
        let mut pool = fast(engine, 1, QueueDiscipline::Partitioned(mapping));
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
    }
}

#[test]
fn partitioned_rejects_mismatched_graph() {
    for engine in ENGINES {
        let dag = fork_join(true);
        let mapping = worst_fit(&dag, 2);
        let mut pool = fast(engine, 2, QueueDiscipline::Partitioned(mapping));
        let mut b = DagBuilder::new();
        b.add_node(1);
        let tiny = b.build().unwrap();
        assert!(matches!(
            pool.run(&tiny),
            Err(ExecError::IncompatibleJob { .. })
        ));
    }
}

#[test]
fn try_new_rejects_zero_workers() {
    match ThreadPool::try_new(PoolConfig::new(0, QueueDiscipline::GlobalFifo)) {
        Err(ExecError::InvalidConfig { message }) => {
            assert!(message.contains("at least one worker"));
        }
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn try_new_rejects_mismatched_mapping() {
    let dag = fork_join(true);
    let mapping = worst_fit(&dag, 2);
    assert!(matches!(
        ThreadPool::try_new(PoolConfig::new(3, QueueDiscipline::Partitioned(mapping))),
        Err(ExecError::InvalidConfig { .. })
    ));
}

#[test]
fn work_stealing_completes_blocking_jobs() {
    for engine in ENGINES {
        let mut pool = fast(engine, 3, QueueDiscipline::WorkStealing { seed: 42 });
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }
}

#[test]
fn zero_time_scale_is_instant() {
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_time_scale(Duration::ZERO),
        );
        let report = pool.run(&fork_join(false)).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }
}

#[test]
fn sequential_jobs_on_same_pool() {
    for engine in ENGINES {
        let mut pool = fast(engine, 2, QueueDiscipline::GlobalFifo);
        for _ in 0..5 {
            let report = pool.run(&fork_join(true)).unwrap();
            assert_eq!(report.executed_nodes, 5);
        }
    }
}

#[test]
fn spans_cover_every_node_and_respect_workers() {
    for engine in ENGINES {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let fork_thread = mapping.thread_of(dag.blocking_forks()[0]);
        let mut pool = fast(engine, 2, QueueDiscipline::Partitioned(mapping.clone()));
        let report = pool.run(&dag).unwrap();
        assert_eq!(report.spans.len(), dag.node_count());
        // Under the partitioned discipline every node ran on its mapped
        // worker.
        for span in &report.spans {
            let node = rtpool_graph::NodeId::from_index(span.node);
            assert_eq!(span.worker, mapping.thread_of(node).index());
            assert!(span.start <= span.end);
        }
        // The join ran on the fork's worker (the continuation).
        let join = dag.blocking_regions()[0].join();
        assert_eq!(
            report.span_of(join.index()).unwrap().worker,
            fork_thread.index()
        );
    }
}

#[test]
fn workers_accessor() {
    for engine in ENGINES {
        let pool = fast(engine, 4, QueueDiscipline::GlobalFifo);
        assert_eq!(pool.workers(), 4);
    }
}

fn fast_traced(engine: Engine, workers: usize, discipline: QueueDiscipline) -> ThreadPool {
    ThreadPool::new(
        PoolConfig::new(workers, discipline)
            .with_engine(engine)
            .with_time_scale(Duration::from_micros(50))
            .with_watchdog(Duration::from_secs(10))
            .with_trace(),
    )
}

#[test]
fn traced_run_produces_valid_trace() {
    for engine in ENGINES {
        let mut pool = fast_traced(engine, 3, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        let trace = report.trace.expect("tracing was enabled");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        assert_eq!(trace.engine, rtpool_trace::EngineKind::Exec);
        assert_eq!(trace.cores, 3);
        assert_eq!(trace.tasks, 1);
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        for required in [
            "JobReleased",
            "ThreadUnpark",
            "NodeStart",
            "CoreAssign",
            "BarrierSuspend",
            "BarrierWake",
            "NodeEnd",
            "JobCompleted",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        let obs = ana.task(0);
        assert_eq!(obs.released, 1);
        assert_eq!(obs.completed, 1);
        assert_eq!(obs.nodes_executed, 5);
        assert_eq!(obs.max_simultaneous_blocking, 1);
        assert_eq!(obs.min_available, report.min_available_workers);
        // A successful run leaves no failure trace behind.
        assert!(pool.take_last_trace().is_none());
    }
}

#[test]
fn spin_backend_runs_and_traces_spin_on_both_engines() {
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(3, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_backend(crate::SyncBackend::Spin)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10))
                .with_trace(),
        );
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5, "{engine:?}");
        let trace = report.trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "{engine:?} defects: {:?}",
            trace.validate()
        );
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"), "{engine:?}");
        assert!(names.contains(&"SpinEnd"), "{engine:?}");
        assert!(!names.contains(&"BarrierSuspend"), "{engine:?}");
        assert!(!names.contains(&"BarrierWake"), "{engine:?}");
        // The spinner counts as blocking, exactly like a suspension.
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert_eq!(ana.task(0).max_simultaneous_blocking, 1, "{engine:?}");
    }
}

#[test]
fn spin_backend_stall_detected_on_both_engines() {
    // Figure 1(c): two blocking replicas wedge two workers — under
    // spin they busy-wait, but the exact detector still fires.
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    let dag = b.build().unwrap();
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_backend(crate::SyncBackend::Spin)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10))
                .with_trace(),
        );
        assert!(
            matches!(
                pool.run(&dag),
                Err(ExecError::Stalled {
                    suspended_workers: 2,
                    ..
                })
            ),
            "{engine:?}"
        );
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "{engine:?} defects: {:?}",
            trace.validate()
        );
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"), "{engine:?}");
        assert!(names.contains(&"StallDetected"), "{engine:?}");
    }
}

#[test]
fn stalled_run_trace_is_kept_on_the_pool() {
    for engine in ENGINES {
        // Figure 1(c): two blocking replicas deadlock two workers.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let mut pool = fast_traced(engine, 2, QueueDiscipline::GlobalFifo);
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert!(ana.any_stall());
        assert_eq!(ana.task(0).min_available, 0);
        assert_eq!(ana.task(0).completed, 0);
        // The slot is consumed by the take.
        assert!(pool.take_last_trace().is_none());
    }
}

#[test]
fn panicked_run_trace_records_recovery() {
    for engine in ENGINES {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_engine(engine)
                .with_time_scale(Duration::ZERO)
                .with_watchdog(Duration::from_secs(10))
                .with_faults(FaultPlan::seeded(7).panic_on(1))
                .with_trace(),
        );
        assert!(matches!(
            pool.run(&fork_join(false)),
            Err(ExecError::NodePanicked { node: 1, .. })
        ));
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let labels: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Recovery { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"panic_body"));
        assert!(labels.contains(&"node_panicked"));
    }
}

#[test]
fn traced_partitioned_run_is_schema_clean() {
    for engine in ENGINES {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let mut pool = fast_traced(engine, 2, QueueDiscipline::Partitioned(mapping));
        let report = pool.run(&dag).unwrap();
        let trace = report.trace.expect("tracing was enabled");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert_eq!(ana.task(0).nodes_executed, dag.node_count());
        assert_eq!(ana.task(0).min_available, report.min_available_workers);
    }
}

#[test]
fn untraced_run_reports_no_trace() {
    for engine in ENGINES {
        let mut pool = fast(engine, 2, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        assert!(report.trace.is_none());
        assert!(pool.take_last_trace().is_none());
    }
}
