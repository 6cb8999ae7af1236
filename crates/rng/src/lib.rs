//! A self-contained, deterministic PRNG exposing the *subset* of the
//! `rand` crate API this workspace uses (`StdRng`, `SeedableRng`,
//! `Rng::random_range`, `Rng::random_bool`).
//!
//! The workspace aliases this crate as `rand` (see
//! `[workspace.dependencies]`), so call sites keep the idiomatic `rand`
//! spelling while builds stay fully offline / air-gapped. The generator is
//! SplitMix64 feeding xoshiro256**-style mixing — more than adequate for
//! seeded mapping heuristics and test-case generation, and stable across
//! platforms, which is what the determinism suite actually relies on.

#![warn(missing_docs)]

/// Named RNG engines (mirrors `rand::rngs`).
pub mod rngs {
    /// The standard seeded generator (SplitMix64 stream).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) state: u64,
    }

    impl StdRng {
        /// Advances the stream and returns 64 fresh bits.
        pub fn next_u64(&mut self) -> u64 {
            let out = crate::splitmix64(self.state);
            self.state = self.state.wrapping_add(crate::GAMMA);
            out
        }
    }
}

use rngs::StdRng;

/// The SplitMix64 stream increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of SplitMix64: a statistically solid 64-bit mixer. Besides
/// driving [`StdRng`], it is the hash every seeded-but-stateless decision
/// in the workspace flows through (fault-plan drops, workload samples,
/// fuzz seed derivation).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction of seedable generators (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Pre-whiten the seed so adjacent seeds give unrelated streams.
        let mut rng = StdRng { state: seed };
        let _ = rng.next_u64();
        StdRng {
            state: seed ^ rng.next_u64(),
        }
    }
}

/// A type that can be sampled uniformly from by [`Rng::random_range`]
/// (mirrors `rand::distr::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_from(self, rng: &mut StdRng) -> f32 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (self.start as f64 + u * (self.end as f64 - self.start as f64)) as f32
    }
}

/// Random-value methods (mirrors `rand::Rng`).
pub trait Rng {
    /// Uniform draw from `range`.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_reproduce() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: i64 = rng.random_range(-5..=5);
            assert!((-5..=5).contains(&y));
            let f: f64 = rng.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn random_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2000..4000).contains(&hits), "got {hits}");
    }

    #[test]
    fn full_width_inclusive_range_works() {
        let mut rng = StdRng::seed_from_u64(11);
        let _: u64 = rng.random_range(0..=u64::MAX);
        let _: u8 = rng.random_range(0..=u8::MAX);
    }
}
