//! The interfering-workload bound of the global and partitioned
//! analyses, evaluated exactly.

/// `⌈(window + jitter) / period⌉ · volume` over `u128`, clamped to
/// `u64::MAX`; zero when the window or the volume is zero.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn workload(window: u64, period: u64, volume: u64, jitter: u64) -> u64 {
    if volume == 0 || window == 0 {
        return 0;
    }
    let activations = (u128::from(window) + u128::from(jitter)).div_ceil(u128::from(period));
    u64::try_from(activations.saturating_mul(u128::from(volume))).unwrap_or(u64::MAX)
}
