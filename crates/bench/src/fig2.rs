//! The six schedulability-ratio experiments of the paper's Figure 2.
//!
//! | Inset | Scheduling  | Varied | Fixed (defaults) | Discard rule |
//! |-------|-------------|--------|------------------|--------------|
//! | (a)   | global      | `l_max ∈ 1..=8` | `m = 8`, `n = 4`, `U = 4.0` | sets must be schedulable under the Melani baseline |
//! | (b)   | partitioned | `l_max ∈ 1..=8` | `m = 8`, `n = 4`, `U = 1.0` | sets must be schedulable under worst-fit + partitioned RTA |
//! | (c)   | global      | `m ∈ {2,3,4,6,8,12,16}` | `n = 4`, `U = 2.0` | none |
//! | (d)   | partitioned | `m` (same values) | `n = 4`, `U = 1.0` | none |
//! | (e)   | global      | `n ∈ {2,4,…,16}` | `m = 8`, `U = 0.4·n` | none |
//! | (f)   | partitioned | `n` (same values) | `m = 8`, `U = 0.15·n` | none |
//!
//! For (a)/(b) the generator enforces the available-concurrency window
//! `l̄(τᵢ) ∈ [max(1, l_max − 1), l_max]` on every task, as the paper
//! prescribes; the blocking-promotion probability is resampled per
//! attempt so every window is reachable (the paper's exact enforcement
//! mechanism is unspecified). Discarded sets are regenerated; samples
//! whose attempt budget runs out are counted separately and excluded
//! from the ratio.

use rand::{Rng, SeedableRng};
use rtpool_core::TaskSet;
use rtpool_gen::{
    BlockingPolicy, ConcurrencyWindow, DagGenConfig, DagScratch, GenError, TaskSetConfig,
};

use crate::pipeline;
use crate::sweep::SweepPool;

/// Which Figure 2 inset to reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inset {
    /// (a): global scheduling, `l_max` varied.
    A,
    /// (b): partitioned scheduling, `l_max` varied.
    B,
    /// (c): global scheduling, `m` varied.
    C,
    /// (d): partitioned scheduling, `m` varied.
    D,
    /// (e): global scheduling, `n` varied.
    E,
    /// (f): partitioned scheduling, `n` varied.
    F,
}

impl Inset {
    /// All insets in paper order.
    pub const ALL: [Inset; 6] = [Inset::A, Inset::B, Inset::C, Inset::D, Inset::E, Inset::F];

    /// Parses `"a"`–`"f"` (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Inset> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Inset::A),
            "b" => Some(Inset::B),
            "c" => Some(Inset::C),
            "d" => Some(Inset::D),
            "e" => Some(Inset::E),
            "f" => Some(Inset::F),
            _ => None,
        }
    }

    /// Lower-case letter of the inset.
    #[must_use]
    pub fn letter(self) -> &'static str {
        match self {
            Inset::A => "a",
            Inset::B => "b",
            Inset::C => "c",
            Inset::D => "d",
            Inset::E => "e",
            Inset::F => "f",
        }
    }

    /// Human-readable description (matches the paper's captions in
    /// intent).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Inset::A => {
                "global: schedulability vs l_max (m=8, n=4, U=4.0; baseline-schedulable sets)"
            }
            Inset::B => {
                "partitioned: schedulability vs l_max (m=8, n=4, U=1.0; baseline-schedulable sets)"
            }
            Inset::C => "global: schedulability vs m (n=4, U=2.0)",
            Inset::D => "partitioned: schedulability vs m (n=4, U=1.0)",
            Inset::E => "global: schedulability vs n (m=8, U=0.4n)",
            Inset::F => "partitioned: schedulability vs n (m=8, U=0.15n)",
        }
    }

    /// Label of the swept parameter.
    #[must_use]
    pub fn x_label(self) -> &'static str {
        match self {
            Inset::A | Inset::B => "l_max",
            Inset::C | Inset::D => "m",
            Inset::E | Inset::F => "n",
        }
    }

    /// The swept x values.
    #[must_use]
    pub fn x_values(self) -> Vec<i64> {
        match self {
            Inset::A | Inset::B => (1..=8).collect(),
            Inset::C | Inset::D => vec![2, 3, 4, 6, 8, 12, 16],
            Inset::E | Inset::F => (1..=8).map(|k| 2 * k).collect(),
        }
    }

    /// Name of the proposed (concurrency-aware) test in this inset.
    #[must_use]
    pub fn proposed_label(self) -> &'static str {
        match self {
            Inset::A | Inset::C | Inset::E => "limited-concurrency RTA (Sec. 4.1)",
            Inset::B | Inset::D | Inset::F => "Algorithm 1 + partitioned RTA",
        }
    }

    /// Name of the baseline test in this inset.
    #[must_use]
    pub fn baseline_label(self) -> &'static str {
        match self {
            Inset::A | Inset::C | Inset::E => "Melani et al. [14] (oblivious)",
            Inset::B | Inset::D | Inset::F => "worst-fit + partitioned RTA (oblivious)",
        }
    }
}

/// Harness parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Params {
    /// Task sets per x value (paper: 500).
    pub sets_per_point: usize,
    /// Base seed; every `(inset, x, sample)` derives its own stream.
    pub seed: u64,
    /// Worker count the binaries size their [`SweepPool`] with; the series
    /// do not depend on it.
    pub threads: usize,
}

impl Default for Fig2Params {
    fn default() -> Self {
        Fig2Params {
            sets_per_point: 500,
            seed: 0x5eed_f00d,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// One point of a schedulability-ratio series.
///
/// A point with `samples == 0` is *empty*: no sample survived the
/// discard/window budgets (or all errored). Its ratio fields are `0.0`
/// placeholders — never `NaN` — and carry no meaning; the table and CSV
/// renderers skip empty points instead of printing a `baseline = 0`
/// that would contradict the "baseline ≡ 1 by construction" invariant
/// of insets (a)/(b).
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter's value.
    pub x: i64,
    /// Fraction of evaluated sets schedulable under the proposed test.
    pub proposed: f64,
    /// Fraction schedulable under the baseline test (1.0 by construction
    /// in insets (a)/(b)).
    pub baseline: f64,
    /// Sets actually evaluated at this point.
    pub samples: usize,
    /// Samples skipped because generation/discard budgets ran out.
    pub skipped: usize,
    /// Samples dropped by a generation *error* (not a budget); the
    /// harness prints the first few error messages to stderr.
    pub errors: usize,
}

impl SeriesPoint {
    /// `true` when no sample was evaluated (see the type-level docs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

const N_TASKS_SMALL: usize = 4;
const M_DEFAULT: usize = 8;
/// Attempts to find a baseline-schedulable, window-satisfying set for one
/// sample of insets (a)/(b).
const DISCARD_BUDGET: usize = 400;
/// Inner attempts of the concurrency-window rejection sampler per outer
/// attempt (the blocking probability is resampled between outer
/// attempts).
const WINDOW_BUDGET: usize = 60;

/// Outcome of one `(inset, x, sample)` sweep cell.
enum SampleOutcome {
    /// The sample survived the discard rule and was analyzed.
    Evaluated {
        /// Proposed (concurrency-aware) test verdict.
        proposed: bool,
        /// Baseline (oblivious) test verdict.
        baseline: bool,
    },
    /// The discard/window budget ran out — excluded from the ratio.
    Skipped,
    /// Generation failed outright.
    Error(String),
}

/// Runs every x value of every requested inset as **one** flat sweep
/// over the pool's workers: no per-point spawn/join, no barrier
/// between points. Returns one series per inset, in `insets` order.
///
/// Determinism: each `(inset, x, sample)` coordinate derives its own
/// RNG stream ([`derive_seed`]) and lands in its own result slot, so
/// the series are bit-identical for any worker count.
#[must_use]
pub fn run_insets(
    pool: &SweepPool,
    insets: &[Inset],
    params: &Fig2Params,
) -> Vec<(Inset, Vec<SeriesPoint>)> {
    let coords: Vec<(Inset, i64)> = insets
        .iter()
        .flat_map(|&inset| inset.x_values().into_iter().map(move |x| (inset, x)))
        .collect();
    let points = run_points(pool, &coords, params);

    let mut by_inset: Vec<(Inset, Vec<SeriesPoint>)> =
        insets.iter().map(|&inset| (inset, Vec::new())).collect();
    for (&(inset, _), point) in coords.iter().zip(points) {
        by_inset
            .iter_mut()
            .find(|(i, _)| *i == inset)
            .expect("coordinate instigated by an entry of `insets`")
            .1
            .push(point);
    }
    by_inset
}

/// Runs one inset through the pool. Convenience wrapper over
/// [`run_insets`]; prefer the batched form when running several insets
/// so the whole grid forms a single work queue.
#[must_use]
pub fn run_inset(pool: &SweepPool, inset: Inset, params: &Fig2Params) -> Vec<SeriesPoint> {
    run_insets(pool, &[inset], params)
        .pop()
        .expect("one series per requested inset")
        .1
}

/// Runs a single point through the pool.
#[must_use]
pub fn run_point(pool: &SweepPool, inset: Inset, x: i64, params: &Fig2Params) -> SeriesPoint {
    run_points(pool, &[(inset, x)], params)
        .pop()
        .expect("one point per coordinate")
}

/// Shared driver: evaluates `sets_per_point` samples for every
/// coordinate as one cell queue, then folds outcomes into
/// per-point tallies (printing the first few generation errors).
fn run_points(pool: &SweepPool, coords: &[(Inset, i64)], params: &Fig2Params) -> Vec<SeriesPoint> {
    let spp = params.sets_per_point;
    let seed = params.seed;
    let outcomes = pool.run(coords.len() * spp, "fig2", |i| {
        let (inset, x) = coords[i / spp];
        let sample = i % spp;
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, inset, x, sample));
        let mut scratch = DagScratch::new();
        match sample_with_verdicts(inset, x, &mut rng, &mut scratch) {
            Ok(Some((_, _, proposed, baseline))) => SampleOutcome::Evaluated { proposed, baseline },
            Ok(None) => SampleOutcome::Skipped,
            Err(e) => SampleOutcome::Error(e),
        }
    });

    let mut printed = 0usize;
    coords
        .iter()
        .enumerate()
        .map(|(p, &(inset, x))| {
            fold_point(inset, x, &outcomes[p * spp..(p + 1) * spp], &mut printed)
        })
        .collect()
}

/// Maximum generation-error messages echoed to stderr per run.
const MAX_PRINTED_ERRORS: usize = 5;

/// Folds one point's sample outcomes into a [`SeriesPoint`], surfacing
/// the first few error messages on stderr.
fn fold_point(
    inset: Inset,
    x: i64,
    outcomes: &[SampleOutcome],
    printed: &mut usize,
) -> SeriesPoint {
    let mut evaluated = 0usize;
    let mut proposed_ok = 0usize;
    let mut baseline_ok = 0usize;
    let mut skipped = 0usize;
    let mut errors = 0usize;
    for outcome in outcomes {
        match outcome {
            SampleOutcome::Evaluated { proposed, baseline } => {
                evaluated += 1;
                proposed_ok += usize::from(*proposed);
                baseline_ok += usize::from(*baseline);
            }
            SampleOutcome::Skipped => skipped += 1,
            SampleOutcome::Error(message) => {
                errors += 1;
                if *printed < MAX_PRINTED_ERRORS {
                    *printed += 1;
                    eprintln!(
                        "fig2: generation error at inset ({}), {} = {x}: {message}",
                        inset.letter(),
                        inset.x_label()
                    );
                }
            }
        }
    }
    // `evaluated == 0` yields an explicitly empty point (see the
    // `SeriesPoint` docs): 0.0 placeholders, never NaN, skipped by the
    // renderers.
    let ratio = |count: usize| {
        if evaluated == 0 {
            0.0
        } else {
            count as f64 / evaluated as f64
        }
    };
    SeriesPoint {
        x,
        proposed: ratio(proposed_ok),
        baseline: ratio(baseline_ok),
        samples: evaluated,
        skipped,
        errors,
    }
}

pub(crate) fn derive_seed(base: u64, inset: Inset, x: i64, sample: usize) -> u64 {
    // SplitMix-style mixing of the coordinates.
    let mut z = base
        ^ (inset.letter().as_bytes()[0] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ (sample as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Regenerates the task set that sample 0 of the `(inset, x)` sweep cell
/// evaluates, together with its core count `m` — the replay hook behind
/// `fig2 --trace` and the `rtpool-trace` CLI, which run the sample under
/// the simulator or the native pool to produce an event trace.
///
/// # Errors
///
/// Returns the generation error, or a budget message when no set
/// survived the inset's discard/window budgets.
pub fn sample_for_trace(inset: Inset, x: i64, seed: u64) -> Result<(TaskSet, usize), String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, inset, x, 0));
    let mut scratch = DagScratch::new();
    match sample_with_verdicts(inset, x, &mut rng, &mut scratch)? {
        Some((set, m, _, _)) => Ok((set, m)),
        None => Err(format!(
            "no sample survived the discard budget at inset ({}), {} = {x}",
            inset.letter(),
            inset.x_label()
        )),
    }
}

/// Shared sample driver: generates (with the inset's discard rule) and
/// evaluates one sample, returning the surviving set, its core count,
/// and the `(proposed, baseline)` verdicts; `Ok(None)` means the
/// discard/window budget ran out. `scratch`'s buffers are reused across
/// all rejection attempts of the sample.
pub(crate) fn sample_with_verdicts(
    inset: Inset,
    x: i64,
    rng: &mut rand::rngs::StdRng,
    scratch: &mut DagScratch,
) -> Result<Option<(TaskSet, usize, bool, bool)>, String> {
    match inset {
        Inset::A | Inset::B => {
            // The partitioned RTA adaptation is substantially more
            // pessimistic than the global one (see DESIGN.md), so inset
            // (b) uses a lighter load to keep the discard rule (baseline
            // must accept the set) satisfiable.
            let m = M_DEFAULT;
            let u = if inset == Inset::A {
                0.5 * m as f64
            } else {
                1.0
            };
            let window = ConcurrencyWindow {
                m,
                l_min: (x - 1).max(1),
                l_max: x,
                max_attempts: WINDOW_BUDGET,
            };
            for _ in 0..DISCARD_BUDGET {
                // Resample the blocking-promotion probability so every
                // window is reachable.
                let p: f64 = rng.gen();
                let dag_cfg = DagGenConfig {
                    blocking: BlockingPolicy::Fixed(p),
                    ..DagGenConfig::default()
                };
                let cfg =
                    TaskSetConfig::new(N_TASKS_SMALL, u, dag_cfg).with_concurrency_window(window);
                let set = match cfg.generate_with(rng, scratch) {
                    Ok(set) => set,
                    Err(GenError::WindowUnsatisfiable { .. }) => continue,
                    Err(e) => return Err(e.to_string()),
                };
                // One batched battery per generated set: the discard rule
                // (the concurrency-oblivious state of the art must accept
                // the set) and the measured proposed test share the
                // per-task base parameters and the memoized derived
                // artifacts of each DAG.
                let (prop, base) = evaluate_set(inset, &set, m);
                if !base {
                    continue;
                }
                return Ok(Some((set, m, prop, true)));
            }
            Ok(None)
        }
        Inset::C | Inset::D => {
            // Fixed total utilization while m grows: the penalty of
            // reduced concurrency should vanish for m ≥ 8 (the paper's
            // reading of insets (c)/(d)).
            let m = usize::try_from(x).expect("positive m");
            let u = if inset == Inset::C { 2.0 } else { 1.0 };
            let cfg = TaskSetConfig::new(N_TASKS_SMALL, u, DagGenConfig::default());
            let set = cfg.generate_with(rng, scratch).map_err(|e| e.to_string())?;
            let (prop, base) = evaluate_set(inset, &set, m);
            Ok(Some((set, m, prop, base)))
        }
        Inset::E | Inset::F => {
            // Constant per-task utilization (0.4 each): adding tasks adds
            // load *and* raises the chance that some task has a
            // largely-reduced available concurrency, so schedulability
            // decreases with n — with the concurrency-aware tests
            // declining faster (the paper's reading of insets (e)/(f)).
            let m = M_DEFAULT;
            let n = usize::try_from(x).expect("positive n");
            let per_task = if inset == Inset::E { 0.4 } else { 0.15 };
            let cfg = TaskSetConfig::new(n, per_task * n as f64, DagGenConfig::default());
            let set = cfg.generate_with(rng, scratch).map_err(|e| e.to_string())?;
            let (prop, base) = evaluate_set(inset, &set, m);
            Ok(Some((set, m, prop, base)))
        }
    }
}

pub(crate) fn is_global(inset: Inset) -> bool {
    matches!(inset, Inset::A | Inset::C | Inset::E)
}

/// Evaluates `(proposed, baseline)` schedulability for one set through
/// the shared [`pipeline::battery`], so every inset's analysis pass goes
/// through the same (cached) call path.
pub(crate) fn evaluate_set(inset: Inset, set: &TaskSet, m: usize) -> (bool, bool) {
    pipeline::battery(set, m, is_global(inset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig2Params {
        Fig2Params {
            sets_per_point: 12,
            seed: 1,
            threads: 4,
        }
    }

    #[test]
    fn inset_parsing_and_metadata() {
        for inset in Inset::ALL {
            assert_eq!(Inset::parse(inset.letter()), Some(inset));
            assert!(!inset.description().is_empty());
            assert!(!inset.x_values().is_empty());
            assert!(!inset.proposed_label().is_empty());
            assert!(!inset.baseline_label().is_empty());
        }
        assert_eq!(Inset::parse("z"), None);
        assert_eq!(Inset::parse("A"), Some(Inset::A));
    }

    #[test]
    fn seeds_are_distinct_per_coordinate() {
        let a = derive_seed(7, Inset::A, 3, 0);
        let b = derive_seed(7, Inset::A, 3, 1);
        let c = derive_seed(7, Inset::A, 4, 0);
        let d = derive_seed(7, Inset::B, 3, 0);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn inset_c_point_produces_ratios() {
        // m = 8 keeps generation cheap and acceptance high.
        let pool = SweepPool::new(4);
        let point = run_point(&pool, Inset::C, 8, &tiny_params());
        assert_eq!(point.samples + point.skipped + point.errors, 12);
        assert!(point.samples > 0);
        assert!((0.0..=1.0).contains(&point.proposed));
        assert!((0.0..=1.0).contains(&point.baseline));
        // The proposed (concurrency-aware) test is never more accepting.
        assert!(point.proposed <= point.baseline + 1e-12);
    }

    #[test]
    fn inset_a_baseline_is_one_by_construction() {
        let pool = SweepPool::new(4);
        let point = run_point(&pool, Inset::A, 6, &tiny_params());
        if point.samples > 0 {
            assert!((point.baseline - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn determinism() {
        let pool = SweepPool::new(4);
        let p1 = run_point(&pool, Inset::E, 4, &tiny_params());
        let p2 = run_point(&pool, Inset::E, 4, &tiny_params());
        assert_eq!(p1, p2);
    }

    #[test]
    fn results_independent_of_thread_count() {
        // Every (inset, x, sample) coordinate derives its own RNG stream
        // and lands in its own result slot, so the worker count must not
        // leak into the series. (tests/sweep_determinism.rs pins the
        // whole multi-inset run; this is the quick per-point check.)
        let serial_pool = SweepPool::new(1);
        let wide_pool = SweepPool::new(8);
        for inset in [Inset::C, Inset::E] {
            let serial = run_point(&serial_pool, inset, 4, &tiny_params());
            let wide = run_point(&wide_pool, inset, 4, &tiny_params());
            assert_eq!(serial, wide, "inset {} diverged", inset.letter());
        }
    }

    #[test]
    fn sample_for_trace_is_deterministic_and_nonempty() {
        let (set, m) = sample_for_trace(Inset::C, 8, 1).expect("inset (c) always yields a set");
        assert_eq!(m, 8);
        assert_eq!(set.iter().count(), N_TASKS_SMALL);
        let (again, m2) = sample_for_trace(Inset::C, 8, 1).unwrap();
        assert_eq!(m2, 8);
        let volumes =
            |s: &TaskSet| -> Vec<u64> { s.iter().map(|(_, t)| t.dag().volume()).collect() };
        assert_eq!(volumes(&set), volumes(&again));
    }

    #[test]
    fn run_insets_matches_per_inset_runs() {
        let pool = SweepPool::new(4);
        let params = tiny_params();
        let batched = run_insets(&pool, &[Inset::C, Inset::E], &params);
        assert_eq!(batched.len(), 2);
        for (inset, series) in &batched {
            assert_eq!(series.len(), inset.x_values().len());
            let alone = run_inset(&pool, *inset, &params);
            assert_eq!(&alone, series, "inset {} diverged", inset.letter());
        }
    }
}
