//! Partitioned scheduling end-to-end: generate a random task set,
//! partition it with Algorithm 1 and with blocking-oblivious worst-fit,
//! analyze both, and validate the verdicts against the discrete-event
//! simulator (including the deadlock that worst-fit can introduce).
//!
//! ```text
//! cargo run --release --example partitioned_pipeline [seed]
//! ```

use rand::SeedableRng;
use rtpool::core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
use rtpool::core::{deadlock, TaskId};
use rtpool::gen::{DagGenConfig, TaskSetConfig};
use rtpool::sim::{SchedulingPolicy, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2024);
    let m = 4;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let set = TaskSetConfig::new(3, 1.0, DagGenConfig::default()).generate(&mut rng)?;

    println!("task set (seed {seed}, m = {m}):");
    for (id, task) in set.iter() {
        println!(
            "  {id}: |V| = {}, vol = {}, len = {}, T = {}, b̄ = {}, l̄ = {}",
            task.dag().node_count(),
            task.volume(),
            task.critical_path_length(),
            task.period(),
            task.dag().delay_profile().max_delay_count(),
            deadlock::concurrency_floor(task.dag(), m),
        );
    }

    for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
        println!("\n== {strategy:?} ==");
        let (result, mappings) = partition_and_analyze(&set, m, strategy);
        for (id, task) in set.iter() {
            print!(
                "  {id}: analysis = {:?}",
                result.verdict(id).response_time()
            );
            match &mappings[id.index()] {
                None => println!(" (partitioning failed)"),
                Some(mapping) => {
                    let verdict = deadlock::check_partitioned(task.dag(), m, mapping);
                    println!(
                        ", loads = {:?}, deadlock-free = {}",
                        mapping.loads(task.dag()),
                        verdict.is_deadlock_free()
                    );
                }
            }
        }
        // Validate with the simulator when every task was partitioned.
        if mappings.iter().all(Option::is_some) {
            let maps: Vec<_> = mappings.into_iter().map(Option::unwrap).collect();
            let horizon = set.iter().map(|(_, t)| t.period()).max().unwrap() * 3;
            let out = SimConfig::periodic(SchedulingPolicy::Partitioned, m, horizon)
                .with_mappings(maps)
                .run(&set)?;
            for (i, t) in out.tasks().iter().enumerate() {
                let bound = result.verdict(TaskId(i)).response_time();
                println!(
                    "  sim {i}: max response = {:?} (bound {:?}), misses = {}, stall = {}",
                    t.max_response,
                    bound,
                    t.deadline_misses,
                    t.stall.is_some()
                );
            }
        }
    }
    Ok(())
}
