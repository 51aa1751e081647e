//! Assembly of complete task sets (utilizations, periods, priorities).

use rand::Rng;
use rtpool_core::deadlock::available_concurrency;
use rtpool_core::{Task, TaskSet};
use rtpool_graph::Dag;

use crate::error::GenError;
use crate::forkjoin::DagGenConfig;
use crate::scratch::DagScratch;
use crate::uunifast::uunifast;

/// Constraint on the available-concurrency floor of generated tasks:
/// every task must satisfy `l̄(τᵢ) = m − b̄(τᵢ) ∈ [l_min, l_max]`,
/// enforced by rejection sampling (regenerating the task graph). This is
/// how the paper's Figure 2(a)/(b) controls the reduction of concurrency
/// ("the generation enforced that the number of nodes of type BF of a
/// task that may be concurrently executed is included in
/// `[b_min, b_max]`", with `l = m − b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConcurrencyWindow {
    /// Pool size `m` against which the floor is evaluated.
    pub m: usize,
    /// Inclusive lower end of the admissible `l̄` range.
    pub l_min: i64,
    /// Inclusive upper end of the admissible `l̄` range.
    pub l_max: i64,
    /// Maximum regeneration attempts per task before giving up.
    pub max_attempts: usize,
}

impl ConcurrencyWindow {
    /// A window `[max(1, l_max − 1), l_max]` for pool size `m`, with a
    /// generous attempt budget — the configuration used by the Figure 2
    /// experiment harness.
    #[must_use]
    pub fn around(m: usize, l_max: i64) -> Self {
        ConcurrencyWindow {
            m,
            l_min: (l_max - 1).max(1),
            l_max,
            max_attempts: 20_000,
        }
    }

    /// Returns `true` if `floor` lies in the window.
    #[must_use]
    pub fn contains(&self, floor: i64) -> bool {
        (self.l_min..=self.l_max).contains(&floor)
    }
}

/// Parameters for generating a complete task set (Section 5).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtpool_gen::{ConcurrencyWindow, DagGenConfig, TaskSetConfig};
///
/// # fn main() -> Result<(), rtpool_gen::GenError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let config = TaskSetConfig::new(3, 1.5, DagGenConfig::default())
///     .with_concurrency_window(ConcurrencyWindow::around(8, 6));
/// let set = config.generate(&mut rng)?;
/// assert_eq!(set.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSetConfig {
    n_tasks: usize,
    total_utilization: f64,
    dag: DagGenConfig,
    window: Option<ConcurrencyWindow>,
}

impl TaskSetConfig {
    /// Creates a configuration for `n_tasks` tasks with the given total
    /// utilization and per-task graph generator.
    #[must_use]
    pub fn new(n_tasks: usize, total_utilization: f64, dag: DagGenConfig) -> Self {
        TaskSetConfig {
            n_tasks,
            total_utilization,
            dag,
            window: None,
        }
    }

    /// Adds a rejection-sampling constraint on every task's concurrency
    /// floor.
    #[must_use]
    pub fn with_concurrency_window(mut self, window: ConcurrencyWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Generates one task set: UUniFast utilizations, one graph per task
    /// (rejection-sampled into the concurrency window when configured),
    /// periods `Tᵢ = ⌈Cᵢ/Uᵢ⌉`, implicit deadlines, deadline-monotonic
    /// priority order.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidParameter`] for an invalid configuration;
    /// * [`GenError::WindowUnsatisfiable`] if a task graph inside the
    ///   concurrency window cannot be found within the attempt budget.
    pub fn generate<R: Rng + Clone>(&self, rng: &mut R) -> Result<TaskSet, GenError> {
        // One scratch for the whole set: every rejected window attempt
        // of every task reuses the same buffers and skips the full
        // graph build.
        let mut scratch = DagScratch::new();
        self.generate_with(rng, &mut scratch)
    }

    /// [`TaskSetConfig::generate`] with caller-provided scratch, for
    /// rejection-sampling harnesses that generate many sets in a row:
    /// the buffers warm up once and are reused across every attempt of
    /// every task of every set.
    ///
    /// # Errors
    ///
    /// Same as [`TaskSetConfig::generate`].
    pub fn generate_with<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> Result<TaskSet, GenError> {
        if self.n_tasks == 0 {
            return Err(GenError::InvalidParameter {
                name: "n_tasks",
                message: "must be at least 1".into(),
            });
        }
        if !(self.total_utilization.is_finite() && self.total_utilization > 0.0) {
            return Err(GenError::InvalidParameter {
                name: "total_utilization",
                message: "must be positive and finite".into(),
            });
        }
        self.dag.validate()?;

        let utilizations = uunifast(rng, self.n_tasks, self.total_utilization);
        let mut tasks = Vec::with_capacity(self.n_tasks);
        for u in utilizations {
            let dag = self.draw_dag(rng, scratch)?;
            let volume = dag.volume();
            // Tᵢ = ⌈Cᵢ/Uᵢ⌉ (integer time), at least 1.
            let period = ((volume as f64 / u).ceil() as u64).max(1);
            tasks.push(
                Task::with_implicit_deadline(dag, period)
                    .expect("period >= 1 always satisfies the model"),
            );
        }
        let mut set = TaskSet::new(tasks);
        set.sort_deadline_monotonic();
        Ok(set)
    }

    /// Generates a single task graph honoring the concurrency window.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidParameter`] for an invalid graph
    ///   configuration;
    /// * [`GenError::WindowUnsatisfiable`] when the attempt budget runs
    ///   out.
    pub fn generate_dag<R: Rng + Clone>(&self, rng: &mut R) -> Result<Dag, GenError> {
        let mut scratch = DagScratch::new();
        self.generate_dag_with(rng, &mut scratch)
    }

    /// [`TaskSetConfig::generate_dag`] with caller-provided scratch. Each
    /// attempt is judged on the exact `b̄` its draw pass returns
    /// ([`DagGenConfig::probe_max_delay_count`]), which writes nothing: a
    /// rejected attempt leaves the RNG where the next one begins. Only
    /// the accepted attempt is drawn again, from a copy of the RNG taken
    /// before its probe (hence `R: Clone`), into `scratch`, and promoted
    /// to a full [`Dag`].
    ///
    /// # Errors
    ///
    /// Same as [`TaskSetConfig::generate_dag`].
    pub fn generate_dag_with<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> Result<Dag, GenError> {
        self.dag.validate()?;
        self.draw_dag(rng, scratch)
    }

    /// [`TaskSetConfig::generate_dag_with`] for a validated graph
    /// configuration.
    fn draw_dag<R: Rng + Clone>(
        &self,
        rng: &mut R,
        scratch: &mut DagScratch,
    ) -> Result<Dag, GenError> {
        let Some(window) = self.window else {
            self.dag.shape::<R, true>(rng, scratch);
            return Ok(scratch.build());
        };
        for _ in 0..window.max_attempts {
            let start = rng.clone();
            let b_bar = self.dag.shape::<R, false>(rng, &mut DagScratch::new());
            if window.contains(available_concurrency(window.m, b_bar)) {
                *rng = start;
                self.dag.shape::<R, true>(rng, scratch);
                return Ok(scratch.build());
            }
        }
        Err(GenError::WindowUnsatisfiable {
            l_min: window.l_min,
            l_max: window.l_max,
            attempts: window.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rtpool_core::deadlock::concurrency_floor;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn utilization_matches_target() {
        let config = TaskSetConfig::new(6, 3.0, DagGenConfig::default());
        for seed in 0..10 {
            let set = config.generate(&mut rng(seed)).unwrap();
            assert_eq!(set.len(), 6);
            // Integer period rounding perturbs utilization slightly.
            assert!((set.total_utilization() - 3.0).abs() < 0.05);
        }
    }

    #[test]
    fn priorities_are_deadline_monotonic() {
        let config = TaskSetConfig::new(5, 2.0, DagGenConfig::default());
        let set = config.generate(&mut rng(4)).unwrap();
        let deadlines: Vec<u64> = set.iter().map(|(_, t)| t.deadline()).collect();
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        assert_eq!(deadlines, sorted);
    }

    #[test]
    fn implicit_deadlines() {
        let config = TaskSetConfig::new(3, 1.0, DagGenConfig::default());
        let set = config.generate(&mut rng(9)).unwrap();
        for (_, t) in set.iter() {
            assert_eq!(t.deadline(), t.period());
        }
    }

    #[test]
    fn concurrency_window_is_honored() {
        let window = ConcurrencyWindow {
            m: 8,
            l_min: 6,
            l_max: 7,
            max_attempts: 20_000,
        };
        let config =
            TaskSetConfig::new(3, 2.0, DagGenConfig::default()).with_concurrency_window(window);
        let set = config.generate(&mut rng(2)).unwrap();
        for (_, t) in set.iter() {
            let floor = concurrency_floor(t.dag(), 8);
            assert!(window.contains(floor), "floor {floor} outside window");
        }
    }

    #[test]
    fn impossible_window_errors() {
        // l̄ can never exceed m.
        let window = ConcurrencyWindow {
            m: 4,
            l_min: 10,
            l_max: 12,
            max_attempts: 50,
        };
        let config =
            TaskSetConfig::new(1, 1.0, DagGenConfig::default()).with_concurrency_window(window);
        assert!(matches!(
            config.generate(&mut rng(0)),
            Err(GenError::WindowUnsatisfiable { attempts: 50, .. })
        ));
    }

    #[test]
    fn invalid_counts_rejected() {
        let config = TaskSetConfig::new(0, 1.0, DagGenConfig::default());
        assert!(matches!(
            config.generate(&mut rng(0)),
            Err(GenError::InvalidParameter {
                name: "n_tasks",
                ..
            })
        ));
        let config = TaskSetConfig::new(2, -1.0, DagGenConfig::default());
        assert!(matches!(
            config.generate(&mut rng(0)),
            Err(GenError::InvalidParameter {
                name: "total_utilization",
                ..
            })
        ));
    }

    #[test]
    fn window_around_helper() {
        let w = ConcurrencyWindow::around(8, 5);
        assert_eq!((w.l_min, w.l_max), (4, 5));
        assert!(w.contains(4) && w.contains(5));
        assert!(!w.contains(3) && !w.contains(6));
        // l_max = 1 clamps l_min to 1.
        let w1 = ConcurrencyWindow::around(8, 1);
        assert_eq!((w1.l_min, w1.l_max), (1, 1));
    }

    #[test]
    fn periods_keep_utilization_close() {
        let config = TaskSetConfig::new(1, 0.1, DagGenConfig::default());
        let set = config.generate(&mut rng(5)).unwrap();
        let t = set.task(rtpool_core::TaskId(0));
        assert!(t.utilization() <= 0.1 + 1e-9, "ceil rounding only lowers U");
    }
}
