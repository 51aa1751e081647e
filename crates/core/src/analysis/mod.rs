//! Schedulability analyses (Section 4 of the paper).
//!
//! * [`global`] — response-time analysis under global fixed-priority
//!   scheduling: the Melani et al. baseline (`ConcurrencyModel::Full`)
//!   and the paper's limited-concurrency adaptation
//!   (`ConcurrencyModel::Limited`, Lemma 4).
//! * [`partitioned`] — response-time analysis under partitioned
//!   fixed-priority scheduling for a given node-to-thread mapping, in the
//!   style of Fonseca et al. (SIES 2016) with SPLIT-like self-suspension
//!   handling (see the crate-level docs and DESIGN.md for the exact
//!   adaptation).
//!
//! Both solve their fix-points with one kernel, from the cold start. An
//! edited set is analyzed like any other: `Dag::edit` shares the base
//! graph's derived cells, so the analysis finds them computed.

pub mod global;
#[doc(hidden)]
pub mod incremental;
mod interference;
pub mod partitioned;

use std::fmt;

use crate::task::TaskId;

/// Outcome of a response-time analysis for one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskVerdict {
    /// A response-time bound `Rᵢ ≤ Dᵢ` was established.
    Schedulable {
        /// The computed upper bound on the response time.
        response_time: u64,
    },
    /// No bound at or below the deadline exists (or the fix-point
    /// diverged / a precondition failed).
    Unschedulable {
        /// Why the task was rejected.
        reason: UnschedulableReason,
    },
}

impl TaskVerdict {
    /// Returns `true` for [`TaskVerdict::Schedulable`].
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        matches!(self, TaskVerdict::Schedulable { .. })
    }

    /// The response-time bound, if one was established.
    #[must_use]
    pub fn response_time(&self) -> Option<u64> {
        match self {
            TaskVerdict::Schedulable { response_time } => Some(*response_time),
            TaskVerdict::Unschedulable { .. } => None,
        }
    }
}

/// Why a task failed its schedulability test.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnschedulableReason {
    /// The response-time fix-point exceeded the deadline.
    ResponseTimeExceedsDeadline {
        /// The first fix-point iterate observed past the deadline,
        /// clamped to `u64::MAX` (which a deadline of `u64::MAX` equals).
        bound: u64,
    },
    /// The available-concurrency floor `l̄(τᵢ)` is not positive, so the
    /// limited-concurrency analysis cannot bound interference (and the
    /// task risks a deadlock, Lemma 1).
    NonPositiveConcurrency {
        /// The computed `l̄(τᵢ) = m − b̄(τᵢ)`.
        floor: i64,
    },
    /// A higher-priority task is unschedulable, so no valid response time
    /// exists to bound its interference with.
    DependsOnUnschedulable {
        /// The offending higher-priority task.
        task: TaskId,
    },
    /// The node-to-thread partitioning failed (e.g., Algorithm 1 returned
    /// an error), which the paper counts as unschedulable.
    PartitioningFailed,
}

impl fmt::Display for UnschedulableReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnschedulableReason::ResponseTimeExceedsDeadline { bound } => {
                write!(f, "response-time bound {bound} exceeds the deadline")
            }
            UnschedulableReason::NonPositiveConcurrency { floor } => {
                write!(f, "available-concurrency floor {floor} is not positive")
            }
            UnschedulableReason::DependsOnUnschedulable { task } => {
                write!(f, "higher-priority task {task} is unschedulable")
            }
            UnschedulableReason::PartitioningFailed => write!(f, "partitioning failed"),
        }
    }
}

/// Result of analyzing a whole task set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedResult {
    per_task: Vec<TaskVerdict>,
}

impl SchedResult {
    pub(crate) fn new(per_task: Vec<TaskVerdict>) -> Self {
        SchedResult { per_task }
    }

    /// Returns `true` if every task is schedulable.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.per_task.iter().all(TaskVerdict::is_schedulable)
    }

    /// The verdict for task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn verdict(&self, id: TaskId) -> &TaskVerdict {
        &self.per_task[id.index()]
    }

    /// Per-task verdicts in priority order.
    #[must_use]
    pub fn verdicts(&self) -> &[TaskVerdict] {
        &self.per_task
    }

    /// Iterates over `(task, verdict)` pairs in priority order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TaskId, &TaskVerdict)> {
        self.per_task
            .iter()
            .enumerate()
            .map(|(i, v)| (TaskId(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let s = TaskVerdict::Schedulable { response_time: 42 };
        assert!(s.is_schedulable());
        assert_eq!(s.response_time(), Some(42));
        let u = TaskVerdict::Unschedulable {
            reason: UnschedulableReason::PartitioningFailed,
        };
        assert!(!u.is_schedulable());
        assert_eq!(u.response_time(), None);
    }

    #[test]
    fn sched_result_aggregates() {
        let r = SchedResult::new(vec![
            TaskVerdict::Schedulable { response_time: 1 },
            TaskVerdict::Unschedulable {
                reason: UnschedulableReason::ResponseTimeExceedsDeadline { bound: 99 },
            },
        ]);
        assert!(!r.is_schedulable());
        assert!(r.verdict(TaskId(0)).is_schedulable());
        assert_eq!(r.verdicts().len(), 2);
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn reasons_display() {
        for reason in [
            UnschedulableReason::ResponseTimeExceedsDeadline { bound: 5 },
            UnschedulableReason::NonPositiveConcurrency { floor: -1 },
            UnschedulableReason::DependsOnUnschedulable { task: TaskId(2) },
            UnschedulableReason::PartitioningFailed,
        ] {
            assert!(!reason.to_string().is_empty());
        }
    }
}
