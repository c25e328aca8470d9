//! Deterministic random numbers: the repository's one generator.
//!
//! Every stochastic element of the simulator draws from a seeded
//! [`SmallRng`] so that two runs with the same [`SystemConfig`] are
//! bit-identical (verified by an integration test). The algorithms are
//! pinned: every stats digest, figure and test expectation is a function
//! of these exact streams, so changing one is a count-changing change.
//!
//! [`SystemConfig`]: crate::SystemConfig

use std::io::Write;
use std::ops::Range;

/// xoshiro256++, seeded through SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

// `#[inline]` throughout: the workload generators draw a value per chase
// node, and without inlining across the crate boundary `build` measured
// about a fifth slower (`build` is about a third of a budget-1 000
// `fig12_cold` cell).
impl SmallRng {
    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `0..span` by widening multiply with rejection.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if (wide as u64) <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform value in `range`, which must not be empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + self.below(range.end - range.start)
    }

    /// `true` with probability `p` (53 random bits against `p`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Fisher–Yates shuffle, from the top down.
    #[inline]
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Create a deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use emc_types::seeded_rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn seeded_rng(mut seed: u64) -> SmallRng {
    let mut s = [0u64; 4];
    for word in &mut s {
        // SplitMix64.
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *word = z ^ (z >> 31);
    }
    SmallRng { s }
}

/// Mix a stream identifier into a seed so that independent components
/// (per-core generators, predictors, workloads) get decorrelated but
/// reproducible streams.
pub fn substream(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `property` on `cases` generators, the `case`-th seeded with
/// `substream(seed, case)`; a failure names its case on stderr. This is
/// how the property tests of every crate draw their inputs.
pub fn for_each_case(seed: u64, cases: u64, mut property: impl FnMut(&mut SmallRng)) {
    struct NameOnPanic(u64, u64);
    impl Drop for NameOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // Not `eprintln!`: a drop must not panic in its turn.
                let _ = writeln!(
                    std::io::stderr(),
                    "property failed at case {} of seed {:#x}",
                    self.1,
                    self.0
                );
            }
        }
    }
    for case in 0..cases {
        let _guard = NameOnPanic(seed, case);
        property(&mut seeded_rng(substream(seed, case)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    /// Known answers, taken from the generator every committed digest
    /// and figure was produced with.
    #[test]
    fn streams_are_pinned() {
        let mut r = seeded_rng(1);
        assert_eq!(r.next_u64(), 0xcfc5_d07f_6f03_c29b);
        assert_eq!(r.next_u64(), 0xbf42_4132_963f_e08d);
        assert_eq!(r.gen_range(0..1000), 100);
        assert!(!r.gen_bool(0.5));
        let mut v: Vec<u64> = (0..8).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [6, 7, 3, 0, 2, 5, 4, 1]);
    }

    #[test]
    fn substreams_decorrelate() {
        assert_ne!(substream(1, 0), substream(1, 1));
        assert_eq!(substream(9, 3), substream(9, 3));
    }
}
