//! Simulation results.

/// Where and when a task's execution stalled (deadlock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallInfo {
    /// Simulation time at which the stall was detected.
    pub time: u64,
    /// Index of the stalled job (0-based within the task).
    pub job: usize,
    /// Number of suspended threads at the stall point.
    pub suspended_threads: usize,
}

/// Per-task simulation outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskOutcome {
    /// Jobs released within the horizon.
    pub released: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Observed response time of each completed job, in release order.
    pub responses: Vec<u64>,
    /// Largest observed response time.
    pub max_response: Option<u64>,
    /// Completed or incomplete-at-horizon jobs whose response exceeded
    /// the deadline (incomplete jobs past their absolute deadline count).
    pub deadline_misses: usize,
    /// Set when the task deadlocked.
    pub stall: Option<StallInfo>,
    /// Minimum observed available concurrency `l(t, τᵢ)` — the number of
    /// pool threads not suspended on a barrier.
    pub min_available_concurrency: usize,
}

/// Result of one simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// Time at which the simulation stopped (all work done, or horizon).
    pub end_time: u64,
    tasks: Vec<TaskOutcome>,
    event_trace: Option<rtpool_trace::Trace>,
}

impl SimOutcome {
    pub(crate) fn new(
        end_time: u64,
        tasks: Vec<TaskOutcome>,
        event_trace: Option<rtpool_trace::Trace>,
    ) -> Self {
        SimOutcome {
            end_time,
            tasks,
            event_trace,
        }
    }

    /// The full event trace in the shared `rtpool-trace` schema, when
    /// [`SimConfig::with_event_trace`](crate::SimConfig::with_event_trace)
    /// was enabled.
    #[must_use]
    pub fn event_trace(&self) -> Option<&rtpool_trace::Trace> {
        self.event_trace.as_ref()
    }

    /// Takes ownership of the event trace, leaving `None` behind.
    #[must_use]
    pub fn take_event_trace(&mut self) -> Option<rtpool_trace::Trace> {
        self.event_trace.take()
    }

    /// Outcome of task `index` (priority order, as in the input set).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn task(&self, index: usize) -> &TaskOutcome {
        &self.tasks[index]
    }

    /// All per-task outcomes in priority order.
    #[must_use]
    pub fn tasks(&self) -> &[TaskOutcome] {
        &self.tasks
    }

    /// Returns `true` if any task stalled.
    #[must_use]
    pub fn any_stall(&self) -> bool {
        self.tasks.iter().any(|t| t.stall.is_some())
    }

    /// Returns `true` if every released job completed within its deadline
    /// and nothing stalled.
    #[must_use]
    pub fn all_deadlines_met(&self) -> bool {
        !self.any_stall()
            && self
                .tasks
                .iter()
                .all(|t| t.deadline_misses == 0 && t.completed == t.released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(stall: Option<StallInfo>, misses: usize) -> TaskOutcome {
        TaskOutcome {
            released: 1,
            completed: if stall.is_some() { 0 } else { 1 },
            responses: vec![],
            max_response: None,
            deadline_misses: misses,
            stall,
            min_available_concurrency: 2,
        }
    }

    #[test]
    fn aggregation_helpers() {
        let mut ok = SimOutcome::new(10, vec![outcome(None, 0)], None);
        assert!(!ok.any_stall());
        assert!(ok.all_deadlines_met());
        assert!(ok.event_trace().is_none());
        assert!(ok.take_event_trace().is_none());
        let stalled = SimOutcome::new(
            10,
            vec![outcome(
                Some(StallInfo {
                    time: 5,
                    job: 0,
                    suspended_threads: 2,
                }),
                0,
            )],
            None,
        );
        assert!(stalled.any_stall());
        assert!(!stalled.all_deadlines_met());
        let missed = SimOutcome::new(10, vec![outcome(None, 1)], None);
        assert!(!missed.all_deadlines_met());
        assert_eq!(missed.tasks().len(), 1);
        assert_eq!(missed.task(0).deadline_misses, 1);
    }
}
