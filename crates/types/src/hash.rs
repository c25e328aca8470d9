//! The Fx hash for maps keyed by simulated addresses.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A rotate, an xor and one multiply per word (the Fx scheme) where the
/// default SipHash spends tens of nanoseconds per lookup. It is for keys
/// that come from the simulated program (page numbers, line addresses,
/// request ids, miss deltas), not from outside the process: there is
/// nobody to craft collisions. Use it only for maps nothing iterates, so
/// that their order cannot reach a result.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; the table indexes with the low bits.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`]; build one with `default()`.
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spreads_strided_keys_over_buckets() {
        // Heaps, stacks and spill areas sit at large power-of-two
        // strides; the low bits of the hash pick the bucket.
        for stride in [1u64, 1 << 8, 1 << 12, 1 << 20] {
            let mut buckets = [false; 1024];
            for key in 0..1024u64 {
                let mut h = FxHasher::default();
                h.write_u64(key * stride);
                buckets[(h.finish() % 1024) as usize] = true;
            }
            let used = buckets.iter().filter(|&&b| b).count();
            // 1024 random keys would fill about 650.
            assert!(used > 1024 / 3, "stride {stride}: {used} of 1024 buckets");
        }
    }
}
