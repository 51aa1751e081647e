//! The one response-time fix-point of both analyses, Lemma 4's global
//! bound and Section 4.2's node-level and holistic bounds:
//! `x = base + ⌊(own + Σⱼ ⌈(x + Jⱼ)/Tⱼ⌉·Wⱼ) / denom⌋` over one [`Load`]
//! row per interfering activity. Each iterate is exact and is compared
//! with the cap before it is narrowed to `u64`; the sum is divided in
//! `u64` whenever it fits, and not at all when `denom == 1`.

use crate::cancel::{CancelToken, Cancelled};

/// One interfering activity as a carry-in term: at most
/// `⌈(x + jitter)/period⌉ · work` of it lands in a window of length `x`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Load {
    pub(crate) period: u64,
    /// Past `u64::MAX` only for a spin-inflated volume, which is carried
    /// exactly.
    pub(crate) work: u128,
    pub(crate) jitter: u64,
}

/// The right-hand side of the fix-point: `base` is charged whole, and
/// `own` plus the carry-in of `loads` is shared among `denom` cores.
pub(crate) struct Demand<'a> {
    pub(crate) base: u64,
    pub(crate) own: u64,
    pub(crate) loads: &'a [Load],
    /// Positive.
    pub(crate) denom: u64,
}

impl Demand<'_> {
    /// The least fix-point iterated from `base`, if it is at most `cap`,
    /// else the first iterate past `cap` clamped to `u64::MAX`; `token`
    /// is polled once per iterate.
    pub(crate) fn least_fixpoint(
        &self,
        cap: u64,
        token: &CancelToken,
    ) -> Result<Result<u64, u64>, Cancelled> {
        let mut x = self.base;
        loop {
            token.checkpoint()?;
            let next = self.at(x);
            if next > u128::from(cap) {
                return Ok(Err(u64::try_from(next).unwrap_or(u64::MAX)));
            }
            // At most `cap`, so it fits.
            let next = next as u64;
            if next == x {
                return Ok(Ok(x));
            }
            debug_assert!(next > x, "fix-point must be monotone");
            x = next;
        }
    }

    /// The right-hand side at window `x`, exactly: a sum past `u128::MAX`
    /// saturates, still past every cap after the division.
    fn at(&self, x: u64) -> u128 {
        let mut sum = u128::from(self.own);
        for load in self.loads {
            sum = sum.saturating_add(interfering_workload(x, load.period, load.work, load.jitter));
        }
        let share = match u64::try_from(sum) {
            Ok(sum) if self.denom == 1 => u128::from(sum),
            Ok(sum) => u128::from(sum / self.denom),
            Err(_) => sum / u128::from(self.denom),
        };
        u128::from(self.base) + share
    }
}

/// `⌈(window + jitter) / period⌉ · volume`: the carry-in of one
/// activity in a window, zero for an empty window or volume. Exact, with
/// the division in `u64` and one widening multiply unless `window +
/// jitter` or `volume` is past `u64::MAX`, and past `u128::MAX` (only
/// then) saturated.
///
/// # Panics
///
/// Panics if `period == 0`.
// With a `u128` volume LLVM stopped inlining this into `Demand::at`, and
// the tightness study ran ~20 % slower.
#[inline]
fn interfering_workload(window: u64, period: u64, volume: u128, jitter: u64) -> u128 {
    assert!(period > 0, "period must be positive");
    if volume == 0 || window == 0 {
        return 0;
    }
    match (window.checked_add(jitter), u64::try_from(volume)) {
        (Some(span), Ok(volume)) => u128::from(span.div_ceil(period)) * u128::from(volume),
        _ => (u128::from(window) + u128::from(jitter))
            .div_ceil(u128::from(period))
            .saturating_mul(volume),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtpool_oracle::interference::{least_fixpoint, workload as reference};

    /// Small, 32-bit, full-range and near-`u64::MAX` values alike.
    fn operand() -> impl Strategy<Value = u64> {
        (0u32..4, any::<u64>()).prop_map(|(kind, x)| match kind {
            0 => x % 1_000,
            1 => x >> 32,
            2 => x,
            _ => u64::MAX - x % 4,
        })
    }

    /// A carry-in volume: an operand, or one time in four one past
    /// `u64::MAX` as far again (a spin-inflated volume).
    fn work() -> impl Strategy<Value = u128> {
        (0u32..4, operand()).prop_map(|(kind, x)| {
            let x = u128::from(x);
            if kind == 0 {
                x + (1 << 64)
            } else {
                x
            }
        })
    }

    /// A cap: `u64::MAX` one time in four, else an operand.
    fn cap() -> impl Strategy<Value = u64> {
        (0u32..4, operand()).prop_map(|(kind, x)| if kind == 0 { u64::MAX } else { x })
    }

    /// Iterates the oracle may take before a case is skipped as too slow
    /// to decide (a utilisation just below `denom` converges slowly).
    const STEPS: usize = 10_000;

    proptest! {
        /// The kernel is the formula: the same least fix-point, or the
        /// same first iterate past the cap (clamped to `u64::MAX`), from
        /// the cold start, with operands near `u64::MAX` and caps that
        /// include it.
        #[test]
        fn least_fixpoint_equals_the_u128_formula(
            (base, own) in (operand(), operand()),
            rows in prop::collection::vec((operand(), work(), operand()), 0..4),
            denom in 1u64..65,
            cap in cap(),
        ) {
            let rows: Vec<(u64, u128, u64)> =
                rows.into_iter().map(|(t, w, j)| (t.max(1), w, j)).collect();
            let loads: Vec<Load> = rows
                .iter()
                .map(|&(period, work, jitter)| Load { period, work, jitter })
                .collect();
            let demand = Demand { base, own, loads: &loads, denom };
            let Some(want) = least_fixpoint(base, own, &rows, denom, cap, STEPS) else {
                return Ok(());
            };
            let want = want.map_err(|past| u64::try_from(past).unwrap_or(u64::MAX));
            let got = demand.least_fixpoint(cap, &CancelToken::never()).unwrap();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn u64_path_equals_u128_formula(
            window in operand(),
            period in operand(),
            volume in work(),
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
        let volumes =
            EDGES
                .map(u128::from)
                .into_iter()
                .chain([1 << 64, (1 << 64) + 4, 3 << 63, u128::MAX]);
        for window in EDGES {
            for jitter in EDGES {
                for volume in volumes.clone() {
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
            u128::from(u64::MAX / 4 + 2) * 2
        );
        // Period 1 with the span past u64::MAX.
        assert_eq!(interfering_workload(u64::MAX, 1, 1, 1), 1 << 64);
        // activations × volume past u64::MAX.
        assert_eq!(interfering_workload(1 << 40, 1, 1 << 30, 0), 1 << 70);
        // A volume past u64::MAX is carried whole, not clamped.
        assert_eq!(interfering_workload(3, 2, 3 << 63, 0), 3 << 64);
    }

    #[test]
    fn matches_hand_computation() {
        // window 100, period 40, volume 7, jitter 0: ceil(100/40)=3 jobs.
        assert_eq!(interfering_workload(100, 40, 7, 0), 21);
        // jitter pushes one more job in: ceil(139/40) = 4? (100+39)/40 = 3.475 → 4.
        assert_eq!(interfering_workload(100, 40, 7, 39), 28);
        // Two full activations fit in a 150-long window with jitter 60.
        assert_eq!(interfering_workload(150, 100, 40, 60), 120);
        // Zero-volume tasks never interfere.
        assert_eq!(interfering_workload(1000, 10, 0, 5), 0);
    }

    #[test]
    fn zero_window_is_zero() {
        assert_eq!(interfering_workload(0, 10, 5, 100), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        assert_eq!(
            interfering_workload(u64::MAX, 1, u64::MAX.into(), u64::MAX),
            u128::MAX
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
