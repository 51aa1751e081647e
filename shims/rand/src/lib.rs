//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of the `rand 0.8` API the repo actually uses:
//! [`Rng::gen_range`] / [`Rng::gen_bool`] / [`Rng::gen`],
//! [`SeedableRng::seed_from_u64`], and [`rngs::StdRng`]. The generator is
//! deterministic (xoshiro256** seeded via splitmix64), so seeded
//! experiments stay reproducible — but streams differ from upstream
//! `StdRng`, which is fine because nothing in the repo depends on the
//! exact stream, only on determinism.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range.
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with a "standard" distribution for [`Rng::gen`]:
/// floats in `[0, 1)`, integers over their full domain, fair bools.
pub trait Standard: Sized {
    /// Samples one value from the standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0,1]"
        );
        f64::sample_standard(self) < p
    }

    /// Samples from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits -> uniform in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        ((rng.next_u32() >> 8) as f32) * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*}
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Unbiased sample from `[0, bound)` by rejection (Lemire-style).
/// Inlined with its callers, so a constant range folds `zone` to a
/// constant instead of dividing on every draw.
#[inline]
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection zone keeps the multiply-shift reduction unbiased.
    let zone = bound.wrapping_neg() % bound;
    loop {
        let v = rng.next_u64();
        let (hi, lo) = {
            let wide = u128::from(v) * u128::from(bound);
            ((wide >> 64) as u64, wide as u64)
        };
        if lo >= zone || zone == 0 {
            return hi;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*}
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let v = self.start + unit_f64(rng) * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample from empty range");
        start + unit_f64(rng) * (end - start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator, the stand-in for
    /// `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..=17);
            assert!((3..=17).contains(&v));
            let w = rng.gen_range(5usize..9);
            assert!((5..9).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let p: f64 = rng.gen();
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }
}
