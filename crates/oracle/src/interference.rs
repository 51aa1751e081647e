//! The interfering-workload bound of the global and partitioned
//! analyses and the response-time fix-point over it, evaluated exactly.

/// `⌈(window + jitter) / period⌉ · volume` over `u128`, saturated past
/// `u128::MAX`; zero when the window or the volume is zero.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn workload(window: u64, period: u64, volume: u128, jitter: u64) -> u128 {
    if volume == 0 || window == 0 {
        return 0;
    }
    let activations = (u128::from(window) + u128::from(jitter)).div_ceil(u128::from(period));
    activations.saturating_mul(volume)
}

/// The least fix-point of `x = base + ⌊(own + Σ workload(x, T, W, J)) /
/// denom⌋` over `loads` (`(T, W, J)` rows), iterated from `base` in
/// `u128` (saturated past `u128::MAX`, clamped nowhere): `Some(Ok(x))`
/// when an iterate at or below `cap` repeats, `Some(Err(next))` for the
/// first iterate past `cap`, and `None` when neither happens within
/// `steps` iterates.
///
/// # Panics
///
/// Panics if `denom == 0` or a period is zero.
#[must_use]
pub fn least_fixpoint(
    base: u64,
    own: u64,
    loads: &[(u64, u128, u64)],
    denom: u64,
    cap: u64,
    steps: usize,
) -> Option<Result<u64, u128>> {
    let mut x = base;
    for _ in 0..steps {
        let demand = loads
            .iter()
            .fold(u128::from(own), |sum, &(period, work, jitter)| {
                sum.saturating_add(workload(x, period, work, jitter))
            });
        let next = u128::from(base) + demand / u128::from(denom);
        if next > u128::from(cap) {
            return Some(Err(next));
        }
        if next == u128::from(x) {
            return Some(Ok(x));
        }
        x = u64::try_from(next).expect("at or below cap");
    }
    None
}
