//! Every experiment of the reproduction: the six schedulability-ratio
//! insets of the paper's Figure 2, and the four studies beside them
//! ([`Study`]), all run by the `fig2` binary.
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

use crate::sweep::SweepPool;
use crate::{ablation, pipeline, spin_study, table, tightness};

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

/// An experiment `fig2 --study` runs. Each keeps its own grid, seed
/// derivation and generation; all but [`Study::Tightness`] fold their
/// samples through the one sweep of this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// Figure 2: the proposed against the baseline test, per inset.
    Figure,
    /// The oblivious, `b̄`-floor (paper) and exact-antichain-floor
    /// (extension) global RTAs on Figure 2(e)'s sets.
    Floor,
    /// Algorithm 1 with worst-fit (the paper's), first-fit and best-fit
    /// placement on Figure 2(d)'s sets.
    Heuristic,
    /// Analytic bound over simulated worst response on the sets each
    /// analysis accepts, counting the oblivious baseline's violations.
    Tightness,
    /// Insets (a) and (c) with every set analyzed as generated (suspend)
    /// and again with its backend flipped to spin.
    Spin,
}

impl Study {
    /// Every study, in the order `--study all` runs them.
    pub const ALL: [Study; 5] = [
        Study::Figure,
        Study::Floor,
        Study::Heuristic,
        Study::Tightness,
        Study::Spin,
    ];

    /// Parses a study's [`name`](Study::name).
    #[must_use]
    pub fn parse(s: &str) -> Option<Study> {
        Study::ALL.into_iter().find(|study| study.name() == s)
    }

    /// The study's name; the others' CSV is `<name>.csv`, the figure's
    /// one `fig2<letter>.csv` per inset.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Study::Figure => "figure",
            Study::Floor => "floor",
            Study::Heuristic => "heuristic",
            Study::Tightness => "tightness",
            Study::Spin => "spin",
        }
    }

    /// The sample count and seed the study's committed CSVs in
    /// `results/` were written with.
    #[must_use]
    pub fn params(self) -> Fig2Params {
        let (sets_per_point, seed) = match self {
            Study::Figure => (500, 0x5eed_f00d),
            Study::Floor | Study::Heuristic => (300, 0xab1a),
            // Sample 382 alone simulates for about 4 s, so 380 is the
            // largest round count that keeps the study under 5 s on
            // two cores.
            Study::Tightness => (380, 0x715e),
            Study::Spin => (150, 0x5eed_f00d),
        };
        Fig2Params {
            sets_per_point,
            seed,
            ..Fig2Params::default()
        }
    }

    /// Runs the study on `pool`. `insets` selects the insets of
    /// [`Study::Figure`]; the other studies have fixed grids.
    ///
    /// # Panics
    ///
    /// [`Study::Spin`] panics when its suspend column is not Figure 2's
    /// or a set is schedulable under spin but not under suspend.
    #[must_use]
    pub fn run(self, pool: &SweepPool, params: &Fig2Params, insets: &[Inset]) -> Report {
        let caption =
            |inset: Inset| format!("Figure 2({}) — {}", inset.letter(), inset.description());
        // The studies beside the figure reuse one inset's sets.
        let on = |heading: &'static str| {
            move |inset| format!("{heading}, on the sets of {}", caption(inset))
        };
        match self {
            Study::Figure => self.report(
                &figure(pool, insets, params),
                &["proposed", "baseline"],
                |inset| {
                    let (proposed, baseline) = (inset.proposed_label(), inset.baseline_label());
                    format!(
                        "{}\n  proposed: {proposed}\n  baseline: {baseline}",
                        caption(inset)
                    )
                },
            ),
            Study::Floor => self.report(
                &ablation::floor(pool, params),
                &["full", "limited", "limited_exact"],
                on("Concurrency floor: global RTA per model"),
            ),
            Study::Heuristic => self.report(
                &ablation::heuristic(pool, params),
                &["worst_fit", "first_fit", "best_fit"],
                on("Algorithm 1 tie-breaking: partitioned RTA per placement"),
            ),
            Study::Spin => self.report(
                &spin_study::run(pool, params),
                &["suspend", "spin", "baseline"],
                on("Spin vs suspend: the proposed test per barrier backend"),
            ),
            Study::Tightness => {
                let (m, n, u, sets) = (8, 4, 2.0, params.sets_per_point);
                let rows = tightness::measure(pool, sets, m, n, u, params.seed);
                let title = format!(
                    "Bound tightness: {sets} sets, m={m}, n={n}, U={u:.1}; periodic simulation"
                );
                Report {
                    text: table::render_tightness_text(&rows, &title),
                    csv: vec![(
                        "tightness.csv".to_owned(),
                        table::render_tightness_csv(&rows, sets),
                    )],
                }
            }
        }
    }

    /// The report of a `K`-verdict study: a table per inset under
    /// `title(inset)`, and the CSV `<name>.csv` — for the figure one
    /// `fig2<letter>.csv` per inset, as the paper has one plot per inset.
    fn report<const K: usize>(
        self,
        series: &[(Inset, Vec<Tally<K>>)],
        columns: &[&str; K],
        title: impl Fn(Inset) -> String,
    ) -> Report {
        let csv = if self == Study::Figure {
            series
                .iter()
                .map(|s| {
                    let name = format!("fig2{}.csv", s.0.letter());
                    (name, table::render_csv(std::slice::from_ref(s), columns))
                })
                .collect()
        } else {
            let name = format!("{}.csv", self.name());
            vec![(name, table::render_csv(series, columns))]
        };
        Report {
            text: table::render_text(series, columns, title),
            csv,
        }
    }
}

/// What a study prints and the CSV files it writes.
#[derive(Debug, PartialEq, Eq)]
pub struct Report {
    /// The study's text tables.
    pub text: String,
    /// `(file name, contents)` of each CSV the study writes.
    pub csv: Vec<(String, String)>,
}

/// One point of a `K`-verdict sweep: how many of its evaluated samples
/// each verdict accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Tally<const K: usize> {
    /// The swept parameter's value.
    pub x: i64,
    /// Samples each verdict accepted.
    pub accepted: [usize; K],
    /// Samples evaluated.
    pub samples: usize,
    /// Samples the discard/window budget dropped.
    pub skipped: usize,
    /// Samples a generation error dropped.
    pub errors: usize,
}

impl<const K: usize> Tally<K> {
    /// Each verdict's share of the evaluated samples; `None` for an
    /// empty point, which has no ratio to print.
    pub fn ratios(&self) -> Option<[f64; K]> {
        (self.samples > 0).then(|| self.accepted.map(|a| a as f64 / self.samples as f64))
    }
}

/// What one sample yields: its `K` verdicts, `Ok(None)` when the
/// discard/window budget ran out, or a generation error.
pub(crate) type Verdicts<const K: usize> = Result<Option<[bool; K]>, String>;

/// Maximum generation-error messages echoed to stderr per sweep.
const MAX_PRINTED_ERRORS: usize = 5;

/// The sweep every study but tightness runs: `samples` cells for each
/// `(inset, x)` point of `insets`' grids, as **one** queue on `pool` (no
/// barrier between points), folded into one [`Tally`] per point; the
/// first few generation errors go to stderr. `cell(inset, x, sample)`
/// must derive everything from its coordinates, so the tallies are
/// identical for any worker count.
pub(crate) fn sweep<const K: usize>(
    pool: &SweepPool,
    label: &str,
    insets: &[Inset],
    samples: usize,
    cell: impl Fn(Inset, i64, usize) -> Verdicts<K> + Sync,
) -> Vec<(Inset, Vec<Tally<K>>)> {
    let coords: Vec<(Inset, i64)> = insets
        .iter()
        .flat_map(|&inset| inset.x_values().into_iter().map(move |x| (inset, x)))
        .collect();
    let cells = pool.run(coords.len() * samples, label, |i| {
        let (inset, x) = coords[i / samples];
        cell(inset, x, i % samples)
    });

    let mut printed = 0usize;
    let mut tallies = coords.iter().enumerate().map(|(p, &(inset, x))| {
        let mut tally = Tally {
            x,
            accepted: [0; K],
            samples: 0,
            skipped: 0,
            errors: 0,
        };
        for outcome in &cells[p * samples..(p + 1) * samples] {
            match outcome {
                Ok(Some(verdicts)) => {
                    tally.samples += 1;
                    for (count, &verdict) in tally.accepted.iter_mut().zip(verdicts) {
                        *count += usize::from(verdict);
                    }
                }
                Ok(None) => tally.skipped += 1,
                Err(message) => {
                    tally.errors += 1;
                    if printed < MAX_PRINTED_ERRORS {
                        printed += 1;
                        eprintln!(
                            "{label}: generation error at inset ({}), {} = {x}: {message}",
                            inset.letter(),
                            inset.x_label()
                        );
                    }
                }
            }
        }
        tally
    });
    insets
        .iter()
        .map(|&inset| {
            let points = tallies.by_ref().take(inset.x_values().len()).collect();
            (inset, points)
        })
        .collect()
}

/// Figure 2 over `insets`: per point, how many sets the proposed and the
/// baseline test accept.
pub(crate) fn figure(
    pool: &SweepPool,
    insets: &[Inset],
    params: &Fig2Params,
) -> Vec<(Inset, Vec<Tally<2>>)> {
    sweep(
        pool,
        "fig2",
        insets,
        params.sets_per_point,
        |inset, x, sample| {
            let evaluated = sample_with_verdicts(inset, x, params.seed, sample)?;
            Ok(evaluated.map(|(_, _, proposed, baseline)| [proposed, baseline]))
        },
    )
}

/// Runs every x value of every requested inset as **one** flat sweep
/// over the pool's workers and returns one series per inset, in
/// `insets` order.
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
    figure(pool, insets, params)
        .into_iter()
        .map(|(inset, tallies)| {
            let points = tallies
                .iter()
                .map(|t| {
                    let [proposed, baseline] = t.ratios().unwrap_or([0.0; 2]);
                    SeriesPoint {
                        x: t.x,
                        proposed,
                        baseline,
                        samples: t.samples,
                        skipped: t.skipped,
                        errors: t.errors,
                    }
                })
                .collect();
            (inset, points)
        })
        .collect()
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
/// `fig2 --trace`, which runs the sample under the simulator to produce
/// an event trace.
///
/// # Errors
///
/// Returns the generation error, or a budget message when no set
/// survived the inset's discard/window budgets.
pub fn sample_for_trace(inset: Inset, x: i64, seed: u64) -> Result<(TaskSet, usize), String> {
    match sample_with_verdicts(inset, x, seed, 0)? {
        Some((set, m, _, _)) => Ok((set, m)),
        None => Err(format!(
            "no sample survived the discard budget at inset ({}), {} = {x}",
            inset.letter(),
            inset.x_label()
        )),
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

/// Generates (with the inset's discard rule) and evaluates sample
/// `sample` of the `(inset, x)` point from its own RNG stream, returning
/// the surviving set, its core count, and the `(proposed, baseline)`
/// verdicts; `Ok(None)` means the discard/window budget ran out. One
/// [`DagScratch`] serves all rejection attempts of the sample.
pub(crate) fn sample_with_verdicts(
    inset: Inset,
    x: i64,
    seed: u64,
    sample: usize,
) -> Result<Option<(TaskSet, usize, bool, bool)>, String> {
    let rng = &mut rand::rngs::StdRng::seed_from_u64(derive_seed(seed, inset, x, sample));
    let scratch = &mut DagScratch::new();
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
                // The discard rule first (the concurrency-oblivious state
                // of the art must accept the set); the proposed test is
                // asked only about a set that is kept.
                if !pipeline::baseline(&set, m, is_global(inset)) {
                    continue;
                }
                let prop = pipeline::proposed(&set, m, is_global(inset));
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
            let (prop, base) = pipeline::battery(&set, m, is_global(inset));
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
            let (prop, base) = pipeline::battery(&set, m, is_global(inset));
            Ok(Some((set, m, prop, base)))
        }
    }
}

pub(crate) fn is_global(inset: Inset) -> bool {
    matches!(inset, Inset::A | Inset::C | Inset::E)
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
    fn sweep_folds_verdicts_skips_and_errors() {
        let cell = |_, x: i64, sample: usize| -> Verdicts<2> {
            match sample % 4 {
                0 | 1 => Ok(Some([sample < 4, x > 4])),
                2 => Ok(None),
                _ => Err("no set".to_owned()),
            }
        };
        let series = &sweep(&SweepPool::new(3), "t", &[Inset::C], 8, cell)[0].1;
        let fold = |t: &Tally<2>| (t.x, t.accepted, t.samples, t.skipped, t.errors);
        assert_eq!(fold(&series[2]), (4, [2, 0], 4, 2, 2));
        assert_eq!(fold(&series[3]), (6, [2, 4], 4, 2, 2));
        assert_eq!(series[2].ratios(), Some([0.5, 0.0]));
        let empty = &sweep(&SweepPool::new(2), "t", &[Inset::C], 0, cell)[0].1;
        assert!(empty.iter().all(|t| t.ratios().is_none()));
    }

    #[test]
    fn inset_c_produces_ratios() {
        // n = 4 at m ≥ 2 keeps generation cheap.
        let series = run_insets(&SweepPool::new(4), &[Inset::C], &tiny_params());
        for point in &series[0].1 {
            assert_eq!(point.samples + point.skipped + point.errors, 12);
            assert!(point.samples > 0);
            assert!((0.0..=1.0).contains(&point.proposed));
            // The proposed (concurrency-aware) test is never more accepting.
            assert!(point.proposed <= point.baseline + 1e-12);
        }
    }

    #[test]
    fn inset_a_baseline_is_one_by_construction() {
        for sample in 0..12 {
            if let Some((_, _, _, baseline)) = sample_with_verdicts(Inset::A, 6, 1, sample).unwrap()
            {
                assert!(baseline);
            }
        }
    }

    #[test]
    fn every_study_is_independent_of_worker_count() {
        // Every cell derives its RNG stream from its coordinates and lands
        // in its own slot, so the worker count must not reach the output.
        let (serial, wide) = (SweepPool::new(1), SweepPool::new(8));
        for study in Study::ALL {
            let params = Fig2Params {
                sets_per_point: 2,
                ..study.params()
            };
            assert_eq!(
                study.run(&serial, &params, &Inset::ALL),
                study.run(&wide, &params, &Inset::ALL),
                "{} diverged between 1 and 8 workers",
                study.name()
            );
        }
    }

    #[test]
    fn every_study_renders_an_empty_point_as_skipped() {
        // At 0 sets every point is empty: no ratio may print, neither NaN
        // nor a placeholder 0.
        let pool = SweepPool::new(2);
        for study in Study::ALL {
            let params = Fig2Params {
                sets_per_point: 0,
                ..study.params()
            };
            let report = study.run(&pool, &params, &Inset::ALL);
            let text = &report.text;
            assert!(
                !text.contains("NaN") && !text.contains("0.000") && text.contains("(no "),
                "{}:\n{text}",
                study.name()
            );
            for (name, csv) in &report.csv {
                assert_eq!(csv.lines().count(), 1, "{name} has rows at 0 sets:\n{csv}");
            }
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
            let alone = run_insets(&pool, &[*inset], &params);
            assert_eq!(&alone[0].1, series, "inset {} diverged", inset.letter());
        }
    }
}
