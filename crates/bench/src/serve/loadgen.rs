//! Synthetic admission workloads.
//!
//! Produces seeded JSON-lines request streams (a mix of admissible,
//! infeasible, and structurally repeated task sets) for the
//! `rtpool_loadgen` binary and the `serve_chaos` suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_core::textfmt::write_task_set;
use rtpool_gen::{DagGenConfig, TaskSetConfig};

use super::protocol::{encode_request, Request, RequestBody, MAX_PRIORITY};

/// Shape of a synthetic admission workload.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Base seed; request `i` derives its own stream from `seed + i`.
    pub seed: u64,
    /// Core count each request asks to be admitted on.
    pub m: usize,
    /// Tasks per generated set.
    pub n_tasks: usize,
    /// Utilization range sampled per request. Spanning values above
    /// `m` guarantees a mix of admits and rejects.
    pub utilization: (f64, f64),
    /// Fraction of requests that resubmit an earlier request's source
    /// verbatim (exercises the content-hash interner).
    pub repeat_fraction: f64,
    /// Per-request service budget in microseconds (0 = server default).
    pub deadline_us: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 64,
            seed: 0x10ad,
            m: 8,
            n_tasks: 4,
            utilization: (1.0, 12.0),
            repeat_fraction: 0.25,
            deadline_us: 0,
        }
    }
}

/// Generates `cfg.requests` encoded request lines.
///
/// Generation is deterministic in `cfg.seed`. Request ids are the
/// stream indices `0..requests`; priorities cycle through the full
/// `0..=MAX_PRIORITY` range so shedding under overload is observable.
#[must_use]
pub fn gen_request_lines(cfg: &LoadConfig) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sources: Vec<String> = Vec::new();
    let mut lines = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let repeat = !sources.is_empty() && rng.gen_bool(cfg.repeat_fraction.clamp(0.0, 1.0));
        let source = if repeat {
            let pick = rng.gen_range(0..sources.len());
            sources[pick].clone()
        } else {
            let util = rng.gen_range(cfg.utilization.0..=cfg.utilization.1);
            let set = TaskSetConfig::new(cfg.n_tasks, util, DagGenConfig::default())
                .generate(&mut rng)
                .expect("workload generation cannot fail for these parameters");
            let text = write_task_set(&set);
            sources.push(text.clone());
            text
        };
        let request = Request {
            id: i as u64,
            m: cfg.m,
            priority: (i % (MAX_PRIORITY as usize + 1)) as u8,
            deadline_us: cfg.deadline_us,
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
        let cfg = LoadConfig {
            requests: 24,
            ..LoadConfig::default()
        };
        let a = gen_request_lines(&cfg);
        let b = gen_request_lines(&cfg);
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
        let cfg = LoadConfig {
            requests: 10,
            ..LoadConfig::default()
        };
        let lines = gen_request_lines(&cfg);
        for (i, line) in lines.iter().enumerate() {
            let req = super::super::protocol::parse_request(line).expect("valid line");
            assert_eq!(req.id, i as u64);
            assert_eq!(req.priority, (i % 8) as u8);
        }
    }
}
