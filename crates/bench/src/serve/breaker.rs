//! Latency-driven load-shedding circuit breaker.
//!
//! The server feeds every served request's latency into the breaker.
//! Latencies accumulate into a window of exact values; when the window
//! fills, its nearest-rank p99 is compared against the configured SLO
//! (a log₂ histogram's bucket bound would read one 33 ms response as
//! 65.5 ms and open a 50 ms breaker on it). The nearest rank of a window
//! of `n` is `ceil(99n/100)`, which is `n` for every `n` under 100: with
//! the default 64-response window, or any window of 99 or fewer, the
//! "p99" is the window's **maximum**, and one response over the SLO —
//! a single preempted worker — opens the breaker:
//!
//! * p99 above the SLO → the breaker **opens**: requests whose priority
//!   is below the shed threshold are answered `shed` immediately at
//!   ingress, so capacity drains to the traffic the operator cares
//!   about;
//! * a full window at or under **half** the SLO (`RECLOSE_DIVISOR`)
//!   → the breaker **re-closes**. A window between half the SLO and the
//!   SLO changes nothing: re-closing on the first window under the SLO
//!   let a sustained storm's low-priority half flood the queue again
//!   and re-open it, several times per storm.
//!
//! Windows are sized in responses, not wall time, so the breaker is
//! deterministic under test (drive N latencies, observe the
//! transition). While open, windows keep filling from the traffic that
//! still flows — the breaker needs fresh evidence to close, and
//! high-priority traffic provides it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// An open breaker re-closes only on a window whose p99 is at most
/// `slo_p99_us / RECLOSE_DIVISOR`.
const RECLOSE_DIVISOR: u64 = 2;

/// Breaker configuration.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// p99 service-latency objective, microseconds. It is compared with
    /// the window's nearest-rank p99, `ceil(99n/100)`: for a window of
    /// 99 responses or fewer (the default is 64) that is the window's
    /// maximum, so one response over the objective opens the breaker.
    /// An open breaker re-closes on a window at or under half of it.
    pub slo_p99_us: u64,
    /// Responses per evaluation window (clamped to at least 8).
    pub window: usize,
    /// While open, requests with priority strictly below this are shed.
    pub shed_below_priority: u8,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            slo_p99_us: 50_000,
            window: 64,
            shed_below_priority: 4,
        }
    }
}

/// Point-in-time breaker statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Whether the breaker is currently open.
    pub open: bool,
    /// Closed → open transitions so far.
    pub opens: u64,
    /// Open → closed transitions so far.
    pub closes: u64,
    /// Requests shed while open.
    pub shed: u64,
    /// Nearest-rank p99 of the last *completed* window, microseconds.
    pub last_window_p99_us: Option<u64>,
}

struct State {
    /// Latencies of the window being filled (at most `config.window`).
    window: Vec<u64>,
    stats: BreakerStats,
}

/// The breaker itself; cheap to share behind an `Arc`.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
    /// Mirrors `stats.open`, written under the `state` lock, so that
    /// admitting on a closed breaker — every `submit` of a healthy
    /// server — takes no lock. It publishes nothing but itself.
    open: AtomicBool,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        let config = BreakerConfig {
            window: config.window.max(8),
            ..config
        };
        CircuitBreaker {
            config,
            state: Mutex::new(State {
                window: Vec::with_capacity(config.window),
                stats: BreakerStats::default(),
            }),
            open: AtomicBool::new(false),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Admission check at ingress. Returns `false` when the request
    /// must be shed (breaker open and priority below the threshold);
    /// the shed is counted.
    #[must_use]
    pub fn admit(&self, priority: u8) -> bool {
        if !self.open.load(Ordering::Relaxed) {
            return true;
        }
        let mut st = self.state.lock().expect("breaker lock not poisoned");
        if st.stats.open && priority < self.config.shed_below_priority {
            st.stats.shed += 1;
            false
        } else {
            true
        }
    }

    /// Feeds one served request's latency; evaluates the window when it
    /// fills.
    pub fn observe(&self, latency_us: u64) {
        let mut st = self.state.lock().expect("breaker lock not poisoned");
        st.window.push(latency_us);
        let n = st.window.len();
        if n < self.config.window {
            return;
        }
        // Nearest rank: the smallest value with at least 99 % of the
        // window at or below it.
        let rank = (n * 99).div_ceil(100);
        let (_, &mut p99, _) = st.window.select_nth_unstable(rank - 1);
        st.window.clear();
        st.stats.last_window_p99_us = Some(p99);
        let slo = self.config.slo_p99_us;
        if !st.stats.open && p99 > slo {
            st.stats.open = true;
            st.stats.opens += 1;
        } else if st.stats.open && p99 <= slo / RECLOSE_DIVISOR {
            st.stats.open = false;
            st.stats.closes += 1;
        }
        self.open.store(st.stats.open, Ordering::Relaxed);
    }

    /// Whether the breaker is currently open.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Current statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        self.state.lock().expect("breaker lock not poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(slo: u64, window: usize) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            slo_p99_us: slo,
            window,
            shed_below_priority: 4,
        })
    }

    #[test]
    fn opens_on_slow_window_and_recloses() {
        let b = breaker(100, 8);
        assert!(!b.is_open());
        for _ in 0..8 {
            b.observe(10_000);
        }
        assert!(b.is_open());
        assert_eq!(b.stats().opens, 1);
        // While open, low-priority traffic is shed, high flows.
        assert!(!b.admit(0));
        assert!(b.admit(7));
        assert_eq!(b.stats().shed, 1);
        // A healthy window re-closes it.
        for _ in 0..8 {
            b.observe(10);
        }
        assert!(!b.is_open());
        assert_eq!(b.stats().closes, 1);
        assert!(b.admit(0));
    }

    /// The nearest-rank p99 of 64 responses is their largest. A single
    /// 40 ms straggler is under a 50 ms objective and must be read as
    /// 40 ms — a log₂ bucket bound reads it as 65.5 ms and opens.
    #[test]
    fn one_straggler_under_the_slo_keeps_the_breaker_closed() {
        let b = breaker(50_000, 64);
        for _ in 0..63 {
            b.observe(1_000);
        }
        b.observe(40_000);
        assert!(!b.is_open());
        assert_eq!(b.stats().opens, 0);
        assert_eq!(b.stats().last_window_p99_us, Some(40_000));
        // In a window of 200 the two largest are beyond the rank.
        let b = breaker(50_000, 200);
        for latency in [900_000, 800_000].into_iter().chain((0..198).rev()) {
            b.observe(latency);
        }
        assert_eq!(b.stats().last_window_p99_us, Some(197));
        assert!(!b.is_open());
    }

    /// Under 100 responses the nearest rank is the last: one response
    /// over the SLO among 64 is the window's "p99" and opens it.
    #[test]
    fn one_response_over_the_slo_in_a_small_window_opens_the_breaker() {
        let b = breaker(50_000, 64);
        for _ in 0..63 {
            b.observe(1_000);
        }
        b.observe(50_001);
        assert!(b.is_open());
        assert_eq!(b.stats().opens, 1);
        assert_eq!(b.stats().last_window_p99_us, Some(50_001));
    }

    /// An open breaker stays open on a window whose maximum lies in
    /// (SLO/2, SLO], and closes on one at or under SLO/2.
    #[test]
    fn an_open_breaker_recloses_only_under_half_the_slo() {
        let b = breaker(50_000, 64);
        let window = |top| {
            for latency in [1_000; 63].into_iter().chain([top]) {
                b.observe(latency);
            }
        };
        window(60_000);
        for top in [60_000, 50_000, 25_001] {
            window(top);
            assert!(b.is_open(), "a window topped at {top} us re-closed it");
        }
        window(25_000);
        assert!(!b.is_open());
        let stats = b.stats();
        assert_eq!((stats.opens, stats.closes), (1, 1));
    }

    #[test]
    fn closed_breaker_sheds_nothing() {
        let b = breaker(100, 8);
        for p in 0..=7 {
            assert!(b.admit(p));
        }
        assert_eq!(b.stats().shed, 0);
    }

    #[test]
    fn partial_windows_do_not_transition() {
        let b = breaker(100, 8);
        for _ in 0..7 {
            b.observe(1_000_000);
        }
        assert!(!b.is_open(), "window not full yet");
        assert_eq!(b.stats().last_window_p99_us, None);
        b.observe(1_000_000);
        assert!(b.is_open());
        assert!(b.stats().last_window_p99_us.unwrap() > 100);
    }
}
