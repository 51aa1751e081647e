//! Cooperative cancellation for long-running analyses.
//!
//! The admission service (`rtpool-serve` in `rtpool-bench`) gives every
//! request a deadline budget: when the budget runs out mid-analysis the
//! service must stop the current rung of its degradation ladder and
//! answer with the deepest *completed* rung instead of blowing its SLO.
//! [`CancelToken`] is the mechanism: analyses accept a token and poll it
//! at checkpoints (between tasks, once per fix-point iteration), bailing
//! out with [`Cancelled`] once the deadline has passed.
//!
//! Checkpoint granularity is deliberately coarse — one wall-clock read
//! per fix-point iteration — so the uncancellable fast path stays fast:
//! [`CancelToken::never`] short-circuits to `false` without touching the
//! clock.

use std::time::Instant;

/// The analysis was cancelled at a checkpoint before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analysis cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// A cheap cancellation signal: an optional wall-clock deadline.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
///
/// use rtpool_core::cancel::{CancelToken, Cancelled};
///
/// let never = CancelToken::never();
/// assert!(!never.is_cancelled());
///
/// let later = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
/// assert!(later.checkpoint().is_ok());
///
/// let expired = CancelToken::with_deadline(Instant::now());
/// assert_eq!(expired.checkpoint(), Err(Cancelled));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels (the default for batch analysis).
    #[must_use]
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A token that cancels once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
        }
    }

    /// `true` once the deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Checkpoint: `Err(Cancelled)` once cancelled, `Ok(())` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the deadline passed.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// The remaining deadline, when one was set and has not yet passed.
    #[must_use]
    pub fn remaining(&self) -> Option<std::time::Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_never_cancels() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert!(t.checkpoint().is_ok());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn deadline_token_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.checkpoint(), Err(Cancelled));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_not_yet_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancelled_displays() {
        assert_eq!(
            Cancelled.to_string(),
            "analysis cancelled before completion"
        );
    }
}
