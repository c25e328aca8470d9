//! Property-based tests for the cache building blocks.

use emc_cache::{MshrOutcome, Mshrs, SetAssocCache};
use emc_types::rng::for_each_case;
use emc_types::{CacheConfig, LineAddr};
use std::collections::HashSet;

/// Occupancy never exceeds capacity and a line is present iff it was
/// filled after its last invalidation/eviction (tracked by an oracle).
#[test]
fn cache_matches_reference_set() {
    for_each_case(0x5eed_c001, 256, |rng| {
        let cfg = CacheConfig {
            bytes: 1024,
            ways: 4,
            latency: 1,
            mshrs: 4,
        }; // 4 sets x 4 ways
        let mut c = SetAssocCache::new(&cfg);
        let mut oracle: HashSet<u64> = HashSet::new();
        let capacity = 16;
        for _ in 0..rng.gen_range(1..500) {
            let (line, is_fill) = (rng.gen_range(0..64), rng.gen_bool(0.5));
            let l = LineAddr(line);
            if is_fill {
                if let Some(ev) = c.fill(l, false, false) {
                    oracle.remove(&ev.line.0);
                }
                oracle.insert(line);
            } else {
                let hit = c.access(l, false).is_some();
                assert_eq!(
                    hit,
                    oracle.contains(&line),
                    "hit/miss mismatch for line {line}"
                );
            }
            assert!(c.occupancy() <= capacity);
            assert_eq!(c.occupancy(), oracle.len());
        }
    });
}

/// Every filled line is immediately hittable, and its set never holds
/// two copies (fills are idempotent).
#[test]
fn fill_is_idempotent() {
    for_each_case(0x5eed_c002, 256, |rng| {
        let cfg = CacheConfig {
            bytes: 512,
            ways: 2,
            latency: 1,
            mshrs: 4,
        };
        let mut c = SetAssocCache::new(&cfg);
        for _ in 0..rng.gen_range(1..200) {
            let line = rng.gen_range(0..32);
            c.fill(LineAddr(line), false, false);
            c.fill(LineAddr(line), false, false);
            assert!(c.access(LineAddr(line), false).is_some());
            let copies = c.resident_lines().filter(|l| l.0 == line).count();
            assert_eq!(copies, 1);
        }
    });
}

/// MSHRs: the file never tracks more lines than its capacity, and
/// completing returns exactly the waiters that were merged.
#[test]
fn mshr_waiter_conservation() {
    for_each_case(0x5eed_c003, 256, |rng| {
        let mut m = Mshrs::new(4);
        let mut oracle: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for _ in 0..rng.gen_range(1..200) {
            let (line, waiter) = (rng.gen_range(0..8), rng.gen_range(0..1000));
            match m.alloc(LineAddr(line), waiter) {
                MshrOutcome::Full => {
                    assert!(!oracle.contains_key(&line));
                    assert!(oracle.len() >= 4);
                }
                MshrOutcome::NewMiss => {
                    assert!(!oracle.contains_key(&line));
                    oracle.entry(line).or_default().push(waiter);
                }
                MshrOutcome::Merged => {
                    assert!(oracle.contains_key(&line));
                    oracle.entry(line).or_default().push(waiter);
                }
            }
            assert!(m.len() <= 4);
        }
        for (line, waiters) in oracle {
            assert_eq!(m.complete(LineAddr(line)), waiters);
        }
        assert!(m.is_empty());
    });
}

/// Dirty bit survives until eviction and is reported exactly once.
#[test]
fn dirty_lines_report_on_eviction() {
    for_each_case(0x5eed_c004, 256, |rng| {
        let cfg = CacheConfig {
            bytes: 256,
            ways: 2,
            latency: 1,
            mshrs: 4,
        }; // 2 sets x 2 ways
        let mut c = SetAssocCache::new(&cfg);
        let mut dirty: HashSet<u64> = HashSet::new();
        for _ in 0..rng.gen_range(1..100) {
            let line = rng.gen_range(0..16);
            let l = LineAddr(line);
            if c.access(l, true).is_none() {
                if let Some(ev) = c.fill(l, true, false) {
                    // The model's view of dirty must match ours.
                    assert_eq!(ev.flags.dirty, dirty.remove(&ev.line.0));
                }
            }
            dirty.insert(line);
        }
    });
}
