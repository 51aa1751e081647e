//! The front end of the bench binaries: `analyze`, `fig2`,
//! `rtpool-trace` and `rtpool-serve` read flags, bound
//! pools, load `.rtp` files, map tasks with Algorithm 1 and run traced
//! simulations here, so each refuses the same input in the same words.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use rtpool_core::analysis::SchedResult;
use rtpool_core::partition::{algorithm1, NodeMapping, MAX_PARTITIONED_THREADS};
use rtpool_core::textfmt::parse_task_set;
use rtpool_core::{Task, TaskId, TaskSet};
use rtpool_sim::{SchedulingPolicy, SimConfig, SimOutcome};
use rtpool_trace::Trace;

/// The value that follows `flag`, or `missing value for <flag>`.
pub fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("missing value for {flag}"))
}

/// The value that follows `flag` as a `T`, or `invalid <flag>: <reason>`.
pub fn number<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value(args, flag)?
        .parse()
        .map_err(|e| format!("invalid {flag}: {e}"))
}

/// What a pool named on the command line is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolUse {
    /// Analysed or simulated: any positive size (the simulator refuses
    /// a pool past `rtpool_sim::MAX_SIMULATED_CORES` itself).
    Modelled,
    /// Partitioned, which the library asserts within the bound.
    Partitioned,
    /// Started as one OS thread per worker.
    Started,
}

/// `m` if it is positive and, for a pool that is partitioned or
/// started, at most [`MAX_PARTITIONED_THREADS`]; else the refusal,
/// naming `flag`. Started threads share the partitioned bound so that
/// the binaries know one: 4 096 threads is 256 times the paper's largest
/// pool, and a count past it would spawn threads until the process or
/// the machine runs out.
pub fn pool_size(flag: &str, m: usize, pool: PoolUse) -> Result<usize, String> {
    if m == 0 {
        return Err(format!("{flag} must be positive"));
    }
    if pool != PoolUse::Modelled && m > MAX_PARTITIONED_THREADS {
        return Err(format!(
            "{flag} = {m} is past MAX_PARTITIONED_THREADS = {MAX_PARTITIONED_THREADS}"
        ));
    }
    Ok(m)
}

/// The thread count that follows `flag`: 0 keeps the binary's default,
/// any other count is checked as a pool of [`PoolUse::Started`] threads.
pub fn thread_count(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    match number(args, flag)? {
        0 => Ok(0),
        n => pool_size(flag, n, PoolUse::Started),
    }
}

/// The text of the file at `path`, or `cannot read <path>: <reason>`.
pub fn read_source(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The task set of the `.rtp` file at `path`, or `<path>: <parse error>`.
pub fn load_set(path: &Path) -> Result<TaskSet, String> {
    parse_task_set(&read_source(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Algorithm 1's mapping of task `id` onto `m` threads, or the refusal
/// naming the task.
pub fn map_task(id: TaskId, task: &Task, m: usize) -> Result<NodeMapping, String> {
    algorithm1(task.dag(), m)
        .map_err(|e| format!("task {id}: Algorithm 1 found no safe mapping: {e}"))
}

/// Simulates `set` on `m` cores with event tracing, one synchronous job
/// per task or periodic releases up to `horizon`, each task mapped by
/// [`map_task`] under the partitioned policy. The caller reports the
/// outcome's stalls and misses its own way.
pub fn traced_simulation(
    set: &TaskSet,
    policy: SchedulingPolicy,
    m: usize,
    horizon: Option<u64>,
) -> Result<(Trace, SimOutcome), String> {
    let mut config = match horizon {
        None => SimConfig::single_job(policy, m),
        Some(h) => SimConfig::periodic(policy, m, h),
    }
    .with_event_trace();
    if policy == SchedulingPolicy::Partitioned {
        let mappings = set.iter().map(|(id, task)| map_task(id, task, m));
        config = config.with_mappings(mappings.collect::<Result<_, _>>()?);
    }
    let mut outcome = config.run(set).map_err(|e| e.to_string())?;
    let trace = outcome
        .take_event_trace()
        .expect("event tracing was enabled");
    Ok((trace, outcome))
}

/// A row of `analyze`'s schedulability sections: the set's verdict and
/// each task's response bound, `-` where there is none.
#[must_use]
pub fn verdict_row(label: &str, result: &SchedResult) -> String {
    let verdict = if result.is_schedulable() {
        "SCHEDULABLE  "
    } else {
        "unschedulable"
    };
    let responses: Vec<String> = result
        .verdicts()
        .iter()
        .map(|v| v.response_time().map_or("-".into(), |r| r.to_string()))
        .collect();
    format!("  {label:35} {verdict}  R = [{}]", responses.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(words: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        words.iter().map(|w| (*w).to_owned())
    }

    #[test]
    fn number_names_the_flag_it_could_not_read() {
        assert_eq!(number::<u64>(&mut args(&["12"]), "--seed"), Ok(12));
        assert_eq!(
            number::<u64>(&mut args(&[]), "--seed"),
            Err("missing value for --seed".to_owned())
        );
        let err = number::<usize>(&mut args(&["-1"]), "--m").unwrap_err();
        assert!(err.starts_with("invalid --m: "), "{err}");
        let huge = u64::MAX.to_string() + "0";
        assert!(number::<u64>(&mut args(&[&huge]), "--m").is_err());
    }

    #[test]
    fn number_reads_non_finite_floats_for_the_caller_to_refuse() {
        for word in ["inf", "NaN", "-inf"] {
            let x: f64 = number(&mut args(&[word]), "--overload").unwrap();
            assert!(!x.is_finite(), "{word}");
        }
    }

    #[test]
    fn a_thread_count_is_zero_for_the_default_or_a_started_pool() {
        assert_eq!(thread_count(&mut args(&["0"]), "--workers"), Ok(0));
        assert_eq!(thread_count(&mut args(&["4096"]), "--workers"), Ok(4096));
        assert_eq!(
            thread_count(&mut args(&["4097"]), "--threads"),
            Err("--threads = 4097 is past MAX_PARTITIONED_THREADS = 4096".to_owned())
        );
    }

    #[test]
    fn every_pool_must_be_positive() {
        for pool in [PoolUse::Modelled, PoolUse::Partitioned, PoolUse::Started] {
            assert_eq!(
                pool_size("--m", 0, pool),
                Err("--m must be positive".to_owned())
            );
            assert_eq!(pool_size("--m", 1, pool), Ok(1));
            let bound = MAX_PARTITIONED_THREADS;
            assert_eq!(pool_size("--m", bound, pool), Ok(bound));
        }
    }

    #[test]
    fn partitioned_and_started_pools_stop_at_the_partitioned_bound() {
        for m in [MAX_PARTITIONED_THREADS + 1, 1 << 32, usize::MAX] {
            assert_eq!(pool_size("--m", m, PoolUse::Modelled), Ok(m));
            for pool in [PoolUse::Partitioned, PoolUse::Started] {
                assert_eq!(
                    pool_size("--workers", m, pool),
                    Err(format!(
                        "--workers = {m} is past MAX_PARTITIONED_THREADS = 4096"
                    ))
                );
            }
        }
    }
}
