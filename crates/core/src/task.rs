//! The sporadic thread-pool DAG task model `τᵢ = {Gᵢ, Dᵢ, Tᵢ, Φᵢ, πᵢ}`.

use std::fmt;

use rtpool_graph::{Dag, SyncBackend};

use crate::error::CoreError;

/// Index of a task within its [`TaskSet`]; doubles as the task's priority
/// level (index 0 is the **highest** priority, matching the fixed distinct
/// priority `πᵢ` shared by all threads of the task's pool `Φᵢ`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl TaskId {
    /// Dense index of the task in its set.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// A sporadic parallel real-time task: a validated DAG `Gᵢ`, a minimum
/// inter-arrival time `Tᵢ`, and a constrained relative deadline
/// `Dᵢ ≤ Tᵢ`.
///
/// The task is served by a dedicated thread pool `Φᵢ` of `m` threads (one
/// per processor), all at the task's priority — the pool size is a
/// platform parameter passed to the analyses, not stored here.
///
/// Two tasks are `==` when their graphs are (WCETs, successor rows and
/// blocking pairs) and so are their periods and deadlines.
///
/// # Examples
///
/// ```
/// use rtpool_core::Task;
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// b.fork_join(10, &[20, 20], 10, false)?;
/// let task = Task::new(b.build()?, 200, 150)?;
/// assert_eq!(task.volume(), 60);
/// assert!((task.utilization() - 0.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    dag: Dag,
    period: u64,
    deadline: u64,
}

impl Task {
    /// Creates a task with the given graph, period `Tᵢ`, and deadline `Dᵢ`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ZeroPeriod`] / [`CoreError::ZeroDeadline`] for
    ///   non-positive timing parameters;
    /// * [`CoreError::DeadlineExceedsPeriod`] if `deadline > period` (the
    ///   model requires constrained deadlines).
    pub fn new(dag: Dag, period: u64, deadline: u64) -> Result<Self, CoreError> {
        if period == 0 {
            return Err(CoreError::ZeroPeriod);
        }
        if deadline == 0 {
            return Err(CoreError::ZeroDeadline);
        }
        if deadline > period {
            return Err(CoreError::DeadlineExceedsPeriod { deadline, period });
        }
        Ok(Task {
            dag,
            period,
            deadline,
        })
    }

    /// Creates an implicit-deadline task (`Dᵢ = Tᵢ`), the configuration
    /// used throughout the paper's experiments.
    ///
    /// # Errors
    ///
    /// [`CoreError::ZeroPeriod`] if `period == 0`.
    pub fn with_implicit_deadline(dag: Dag, period: u64) -> Result<Self, CoreError> {
        Task::new(dag, period, period)
    }

    /// The task graph `Gᵢ`.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Minimum inter-arrival time `Tᵢ`.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Relative deadline `Dᵢ`.
    #[must_use]
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Task volume `vol(τᵢ) = Σ C_{i,j}` (also written `Cᵢ` in Section 5).
    #[must_use]
    pub fn volume(&self) -> u64 {
        self.dag.volume()
    }

    /// Critical-path length `len(λᵢ*)`.
    #[must_use]
    pub fn critical_path_length(&self) -> u64 {
        self.dag.critical_path_length()
    }

    /// Utilization `Uᵢ = vol(τᵢ) / Tᵢ`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.volume() as f64 / self.period as f64
    }

    /// Density `vol(τᵢ) / Dᵢ`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.volume() as f64 / self.deadline as f64
    }
}

/// An ordered set of tasks `Γ`; the position of a task is its priority
/// level (index 0 = highest), as required by fixed-priority scheduling
/// with distinct per-task priorities. Two sets are `==` when their
/// tasks are, in priority order, and so are their backends.
///
/// # Examples
///
/// ```
/// use rtpool_core::{Task, TaskSet};
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = |wcet: u64, period: u64| -> Result<Task, Box<dyn std::error::Error>> {
///     let mut b = DagBuilder::new();
///     b.add_node(wcet);
///     Ok(Task::with_implicit_deadline(b.build()?, period)?)
/// };
/// let mut ts = TaskSet::new(vec![mk(10, 1000)?, mk(10, 100)?]);
/// ts.sort_deadline_monotonic();
/// assert_eq!(ts.task(rtpool_core::TaskId(0)).period(), 100);
/// assert!((ts.total_utilization() - 0.11).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskSet {
    tasks: Vec<Task>,
    backend: SyncBackend,
}

impl TaskSet {
    /// Creates a task set with the given priority order (index 0 highest).
    ///
    /// The set's blocking barriers default to [`SyncBackend::Suspend`],
    /// the paper's model; use [`TaskSet::with_backend`] for the spin
    /// variant.
    #[must_use]
    pub fn new(tasks: Vec<Task>) -> Self {
        TaskSet {
            tasks,
            backend: SyncBackend::Suspend,
        }
    }

    /// Sets the synchronization backend the set's barriers run on and
    /// returns the set (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: SyncBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The synchronization backend the set's blocking barriers run on.
    #[must_use]
    pub fn backend(&self) -> SyncBackend {
        self.backend
    }

    /// Sets the synchronization backend in place.
    pub fn set_backend(&mut self, backend: SyncBackend) {
        self.backend = backend;
    }

    /// Number of tasks `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the set contains no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task at priority level `id` (0 = highest).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Iterates over `(id, task)` pairs in priority order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// The tasks as a slice, in priority order.
    #[must_use]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Adds a task at the lowest priority and returns its id.
    pub fn push(&mut self, task: Task) -> TaskId {
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }

    /// Total utilization `U = Σ vol(τᵢ)/Tᵢ`; `0.0` for an empty set.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        // Folded from `0.0`: `f64`'s `Sum` starts at `-0.0`, which an
        // empty set would return and print as `-0.000`.
        self.tasks
            .iter()
            .map(Task::utilization)
            .fold(0.0, |u, t| u + t)
    }

    /// Re-orders tasks by deadline-monotonic priority (shorter deadline =
    /// higher priority), breaking ties by period then original position so
    /// the order is deterministic. With implicit deadlines this is
    /// rate-monotonic.
    pub fn sort_deadline_monotonic(&mut self) {
        // Stable sort keeps original position as the final tie-breaker.
        self.tasks.sort_by_key(|t| (t.deadline(), t.period()));
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<T: IntoIterator<Item = Task>>(iter: T) -> Self {
        TaskSet::new(iter.into_iter().collect())
    }
}

impl Extend<Task> for TaskSet {
    fn extend<T: IntoIterator<Item = Task>>(&mut self, iter: T) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_graph::DagBuilder;

    fn simple_task(wcet: u64, period: u64, deadline: u64) -> Result<Task, CoreError> {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        Task::new(b.build().unwrap(), period, deadline)
    }

    #[test]
    fn constrained_deadline_enforced() {
        assert!(simple_task(1, 10, 10).is_ok());
        assert!(simple_task(1, 10, 5).is_ok());
        assert_eq!(
            simple_task(1, 10, 11).unwrap_err(),
            CoreError::DeadlineExceedsPeriod {
                deadline: 11,
                period: 10
            }
        );
        assert!(matches!(simple_task(1, 0, 1), Err(CoreError::ZeroPeriod)));
        assert!(matches!(
            simple_task(1, 10, 0),
            Err(CoreError::ZeroDeadline)
        ));
    }

    #[test]
    fn metrics_and_accessors() {
        let t = simple_task(25, 100, 50).unwrap();
        assert_eq!(t.volume(), 25);
        assert_eq!(t.critical_path_length(), 25);
        assert!((t.utilization() - 0.25).abs() < 1e-12);
        assert!((t.density() - 0.5).abs() < 1e-12);
        assert_eq!(t.period(), 100);
        assert_eq!(t.deadline(), 50);
        assert_eq!(t.dag().node_count(), 1);
    }

    #[test]
    fn implicit_deadline() {
        let mut b = DagBuilder::new();
        b.add_node(1);
        let t = Task::with_implicit_deadline(b.build().unwrap(), 42).unwrap();
        assert_eq!(t.deadline(), t.period());
    }

    #[test]
    fn an_empty_set_has_positive_zero_utilization() {
        assert_eq!(
            TaskSet::default().total_utilization().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn deadline_monotonic_sort() {
        let mut ts = TaskSet::new(vec![
            simple_task(1, 300, 300).unwrap(),
            simple_task(1, 100, 100).unwrap(),
            simple_task(1, 200, 150).unwrap(),
        ]);
        ts.sort_deadline_monotonic();
        let deadlines: Vec<u64> = ts.iter().map(|(_, t)| t.deadline()).collect();
        assert_eq!(deadlines, vec![100, 150, 300]);
    }

    #[test]
    fn backend_defaults_to_suspend() {
        let ts = TaskSet::new(vec![simple_task(1, 10, 10).unwrap()]);
        assert_eq!(ts.backend(), SyncBackend::Suspend);
        let spun = ts.with_backend(SyncBackend::Spin);
        assert_eq!(spun.backend(), SyncBackend::Spin);
        let mut ts2 = TaskSet::default();
        assert_eq!(ts2.backend(), SyncBackend::Suspend);
        ts2.set_backend(SyncBackend::Spin);
        assert_eq!(ts2.backend(), SyncBackend::Spin);
        let collected: TaskSet = std::iter::once(simple_task(1, 10, 10).unwrap()).collect();
        assert_eq!(collected.backend(), SyncBackend::Suspend);
    }

    #[test]
    fn task_set_collection_api() {
        let mut ts: TaskSet = (1..4)
            .map(|i| simple_task(i, 100 * i, 100 * i).unwrap())
            .collect();
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        let id = ts.push(simple_task(5, 500, 500).unwrap());
        assert_eq!(id, TaskId(3));
        assert_eq!(format!("{id}"), "τ3");
        ts.extend(std::iter::once(simple_task(6, 600, 600).unwrap()));
        assert_eq!(ts.len(), 5);
        let total: f64 = ts.total_utilization();
        assert!(total > 0.0);
        assert_eq!(ts.into_iter().count(), 5);
    }
}
