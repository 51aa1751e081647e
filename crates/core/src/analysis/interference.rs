//! Interfering-workload bounds shared by the analyses.

/// Upper bound on the workload of a sporadic activity with period
/// `period`, per-activation work `volume`, and release jitter `jitter`,
/// inside any window of length `window`:
///
/// `⌈(window + jitter) / period⌉ · volume`
///
/// This is the standard carry-in bound used by Melani et al. (with
/// `jitter = Rⱼ − vol(τⱼ)/m`) and by per-core partitioned analyses (with
/// `jitter = Rⱼ − Wⱼ,ₖ`). Saturated to `u64::MAX` so pathological
/// parameter combinations degrade to "unschedulable" rather than
/// wrapping: the result is the exact `u128` value clamped to `u64`, but
/// the division runs in `u64` unless `window + jitter` overflows it.
///
/// # Panics
///
/// Panics if `period == 0`.
///
/// # Examples
///
/// ```
/// use rtpool_core::analysis::interfering_workload;
///
/// // Two full activations fit in a 150-long window with jitter 60.
/// assert_eq!(interfering_workload(150, 100, 40, 60), 120);
/// // Zero-volume tasks never interfere.
/// assert_eq!(interfering_workload(1000, 10, 0, 5), 0);
/// ```
#[must_use]
pub fn interfering_workload(window: u64, period: u64, volume: u64, jitter: u64) -> u64 {
    assert!(period > 0, "period must be positive");
    if volume == 0 || window == 0 {
        return 0;
    }
    let activations = match window.checked_add(jitter) {
        Some(span) => span.div_ceil(period),
        // Past u64::MAX only for huge windows; a clamped count still
        // saturates the product below, since volume ≥ 1.
        None => {
            let span = u128::from(window) + u128::from(jitter);
            u64::try_from(span.div_ceil(u128::from(period))).unwrap_or(u64::MAX)
        }
    };
    activations.saturating_mul(volume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtpool_oracle::interference::workload as reference;

    /// Small, 32-bit, full-range and near-`u64::MAX` values alike.
    fn operand() -> impl Strategy<Value = u64> {
        (0u32..4, any::<u64>()).prop_map(|(kind, x)| match kind {
            0 => x % 1_000,
            1 => x >> 32,
            2 => x,
            _ => u64::MAX - x % 4,
        })
    }

    proptest! {
        #[test]
        fn u64_path_equals_u128_formula(
            window in operand(),
            period in operand(),
            volume in operand(),
            jitter in operand(),
        ) {
            let period = period.max(1);
            prop_assert_eq!(
                interfering_workload(window, period, volume, jitter),
                reference(window, period, volume, jitter)
            );
        }
    }

    #[test]
    fn u64_path_equals_u128_formula_on_the_edges() {
        const EDGES: [u64; 9] = [0, 1, 2, 3, 1_000, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
        for window in EDGES {
            for jitter in EDGES {
                for volume in EDGES {
                    for period in EDGES.into_iter().filter(|&p| p > 0) {
                        assert_eq!(
                            interfering_workload(window, period, volume, jitter),
                            reference(window, period, volume, jitter),
                            "window {window}, period {period}, volume {volume}, jitter {jitter}"
                        );
                    }
                }
            }
        }
        // window + jitter past u64::MAX, yet the count fits.
        assert_eq!(
            interfering_workload(u64::MAX, 4, 2, 4),
            (u64::MAX / 4 + 2) * 2
        );
        // Period 1 with the span past u64::MAX.
        assert_eq!(interfering_workload(u64::MAX, 1, 1, 1), u64::MAX);
        // activations × volume past u64::MAX.
        assert_eq!(interfering_workload(1 << 40, 1, 1 << 30, 0), u64::MAX);
    }

    #[test]
    fn matches_hand_computation() {
        // window 100, period 40, volume 7, jitter 0: ceil(100/40)=3 jobs.
        assert_eq!(interfering_workload(100, 40, 7, 0), 21);
        // jitter pushes one more job in: ceil(139/40) = 4? (100+39)/40 = 3.475 → 4.
        assert_eq!(interfering_workload(100, 40, 7, 39), 28);
    }

    #[test]
    fn zero_window_is_zero() {
        assert_eq!(interfering_workload(0, 10, 5, 100), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        assert_eq!(
            interfering_workload(u64::MAX, 1, u64::MAX, u64::MAX),
            u64::MAX
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = interfering_workload(10, 0, 1, 0);
    }

    #[test]
    fn monotone_in_window_and_jitter() {
        let base = interfering_workload(100, 30, 9, 10);
        assert!(interfering_workload(200, 30, 9, 10) >= base);
        assert!(interfering_workload(100, 30, 9, 50) >= base);
    }
}
