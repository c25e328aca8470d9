//! Offline stand-in for `rand` 0.8.
//!
//! The container has no registry, and the repository's root
//! `.cargo/config.toml` patches `rand` to a directory outside the
//! checkout, so the benchmark carries the small part of the API the
//! simulator calls: a seeded [`rngs::SmallRng`], [`Rng::gen`],
//! [`Rng::gen_range`], [`Rng::gen_bool`] and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++ seeded
//! through SplitMix64, as in the published crate; the range and shuffle
//! algorithms are simpler than the published ones, so simulated values
//! are this stand-in's, and repeat exactly for a given seed.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen`] can produce.
pub trait Generate {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! generate_int {
    ($($t:ty),*) => {$(
        impl Generate for $t {
            fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                // The high bits of xoshiro256++ are the better ones.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
generate_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Generate for bool {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Generate for f64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`Rng::gen_range`] can sample from. One generic impl per range
/// type, as in the published crate, so that `x + rng.gen_range(0..16)`
/// infers the literal's type from `x`.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types of a [`SampleRange`].
pub trait SampleUniform: Sized {
    /// Uniform in `lo..hi`, or in `lo..=hi` when `inclusive`.
    fn uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::uniform(lo, hi, true, rng)
    }
}

/// Uniform value in `0..span` by widening multiply with rejection.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let wide = rng.next_u64() as u128 * span as u128;
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self {
                let width = (hi as i128 - lo as i128) + inclusive as i128;
                assert!(width > 0, "cannot sample an empty range");
                match u64::try_from(width) {
                    Ok(span) => (lo as i128 + below(rng, span) as i128) as $t,
                    // Only the full 64-bit inclusive range is wider than u64.
                    Err(_) => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn uniform<R: RngCore + ?Sized>(lo: Self, hi: Self, _inclusive: bool, rng: &mut R) -> Self {
        assert!(lo < hi, "cannot sample an empty range");
        lo + (hi - lo) * f64::generate(rng)
    }
}

/// The user-facing methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Generate>(&mut self) -> T {
        T::generate(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::generate(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice helpers.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
