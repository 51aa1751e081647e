//! Synthetic admission workloads.
//!
//! Produces seeded JSON-lines request streams (a mix of admissible,
//! infeasible, and structurally repeated task sets) for the
//! `serve_chaos` and `serve_overload` suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_core::textfmt::write_task_set;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

use super::protocol::{encode_request, Request, RequestBody, MAX_PRIORITY};

/// Core count each request asks to be admitted on.
const M: usize = 8;
/// Tasks per generated set.
const N_TASKS: usize = 3;
/// Utilization range sampled per request. Spanning values above `M`
/// guarantees a mix of admits and rejects.
const UTILIZATION: (f64, f64) = (1.0, 12.0);
/// Fraction of requests that resubmit an earlier request's source
/// verbatim (exercises the content-hash interner).
const REPEAT_FRACTION: f64 = 0.25;
/// Per-request service budget in microseconds; 0 leaves each request
/// the server's default.
const DEADLINE_US: u64 = 0;

/// Generates `requests` encoded request lines.
///
/// Generation is deterministic in `seed`. Request ids are the stream
/// indices `0..requests`; priorities cycle through the full
/// `0..=MAX_PRIORITY` range so shedding under overload is observable.
#[must_use]
pub fn gen_request_lines(requests: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sources: Vec<String> = Vec::new();
    let mut lines = Vec::with_capacity(requests);
    for i in 0..requests {
        let repeat = !sources.is_empty() && rng.gen_bool(REPEAT_FRACTION);
        let source = if repeat {
            let pick = rng.gen_range(0..sources.len());
            sources[pick].clone()
        } else {
            let util = rng.gen_range(UTILIZATION.0..=UTILIZATION.1);
            let set = TaskSetConfig::new(N_TASKS, util, DagGenConfig::default())
                .generate(&mut rng)
                .expect("workload generation cannot fail for these parameters");
            let text = write_task_set(&set);
            sources.push(text.clone());
            text
        };
        let request = Request {
            id: i as u64,
            m: M,
            priority: (i % (MAX_PRIORITY as usize + 1)) as u8,
            deadline_us: DEADLINE_US,
            body: RequestBody::Source(source),
        };
        lines.push(encode_request(&request));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_mixed() {
        let a = gen_request_lines(24, 0x10ad);
        let b = gen_request_lines(24, 0x10ad);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        // Repeats mean strictly fewer distinct sources than requests
        // (the full lines always differ — ids are unique).
        let sources: Vec<String> = a
            .iter()
            .map(|l| {
                match super::super::protocol::parse_request(l)
                    .expect("valid line")
                    .body
                {
                    RequestBody::Source(s) => s,
                    _ => unreachable!("loadgen emits sources"),
                }
            })
            .collect();
        let distinct: std::collections::HashSet<&String> = sources.iter().collect();
        assert!(distinct.len() < sources.len());
    }

    #[test]
    fn ids_and_priorities_cycle() {
        let lines = gen_request_lines(10, 0x10ad);
        for (i, line) in lines.iter().enumerate() {
            let req = super::super::protocol::parse_request(line).expect("valid line");
            assert_eq!(req.id, i as u64);
            assert_eq!(req.priority, (i % 8) as u8);
        }
    }
}
