//! Visualizing the schedule: simulate the Figure 1(a) task next to an
//! interfering higher-priority task and print the per-core Gantt chart
//! and the available-concurrency profile, both read off the one event
//! trace, under both semantics.
//!
//! ```text
//! cargo run --example gantt
//! ```

use rtpool::core::{Task, TaskSet};
use rtpool::graph::DagBuilder;
use rtpool::sim::{SchedulingPolicy, SimConfig};
use rtpool::trace::{gantt, TraceAnalysis};

fn build_set(blocking: bool) -> Result<TaskSet, Box<dyn std::error::Error>> {
    // τ0: a short high-priority chain.
    let mut b = DagBuilder::new();
    let chain: Vec<_> = (0..2).map(|_| b.add_node(4)).collect();
    b.add_chain(&chain)?;
    let hp = Task::with_implicit_deadline(b.build()?, 40)?;
    // τ1: the Figure 1(a) fork-join.
    let mut b = DagBuilder::new();
    b.fork_join(3, &[8, 8, 8], 3, blocking)?;
    let fj = Task::with_implicit_deadline(b.build()?, 120)?;
    Ok(TaskSet::new(vec![hp, fj]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for blocking in [false, true] {
        let set = build_set(blocking)?;
        let out = SimConfig::periodic(SchedulingPolicy::Global, 2, 120)
            .with_event_trace()
            .run(&set)?;
        let trace = out.event_trace().expect("event trace recorded");
        println!(
            "== {} fork-join (m = 2, digits = task index, '.' = idle) ==",
            if blocking { "blocking" } else { "non-blocking" }
        );
        print!("{}", gantt::render(trace, 120));
        println!(
            "τ1 response: {:?}, min l(t) = {}",
            out.task(1).max_response,
            out.task(1).min_available_concurrency
        );
        let analysis = TraceAnalysis::new(trace);
        let profile = &analysis.task(1).concurrency_profile;
        let steps: Vec<String> = profile.iter().map(|(t, l)| format!("t={t}:{l}")).collect();
        println!("l(t) trace: {}", steps.join(" "));
        println!();
    }
    Ok(())
}
