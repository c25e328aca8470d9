//! A counting global allocator.
//!
//! Two programs install [`CountingAlloc`] as their `#[global_allocator]`:
//! `benchmark/`'s `trace`, behind `sim.allocs_per_kcycle` and
//! `sim.alloc_bytes_per_kcycle`, and `tests/build_once.rs`, which holds
//! the bytes building a cell allocates to one copy of its memory images:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: emc_bench::alloc::CountingAlloc = emc_bench::alloc::CountingAlloc;
//! ```
//!
//! and bracket measured regions with [`counters`] snapshots. The
//! counters are process-global relaxed atomics — an add per allocation,
//! which is noise next to the allocation itself. When the allocator is
//! *not* installed (library tests, other bins) the counters simply stay
//! at zero; [`AllocCounters::since`] then reports empty deltas, so code
//! reading them degrades gracefully rather than lying.
//!
//! This is the one module in the workspace allowed to use `unsafe`: the
//! `GlobalAlloc` contract requires it. Each method only forwards to
//! [`std::alloc::System`] under the exact contract it was called with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwarding allocator over [`std::alloc::System`] that counts every
/// allocation (and reallocation) and the bytes requested.
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method forwards verbatim to `System`, which satisfies
// the `GlobalAlloc` contract; the counter updates are lock- and
// allocation-free (relaxed atomics), so no re-entrancy is possible.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounters {
    /// Allocations (plus reallocations) since process start.
    pub allocs: u64,
    /// Deallocations since process start.
    pub frees: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

impl AllocCounters {
    /// The counter movement since an `earlier` snapshot (saturating, so
    /// snapshots taken across threads can never underflow).
    pub fn since(self, earlier: AllocCounters) -> AllocCounters {
        AllocCounters {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }

    /// Allocations per simulated kilocycle (0 when nothing simulated).
    pub fn allocs_per_kilocycle(&self, cycles: u64) -> f64 {
        per_kilocycle(self.allocs, cycles)
    }

    /// Bytes per simulated kilocycle (0 when nothing simulated).
    pub fn bytes_per_kilocycle(&self, cycles: u64) -> f64 {
        per_kilocycle(self.bytes, cycles)
    }
}

fn per_kilocycle(count: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    count as f64 / (cycles as f64 / 1e3)
}

/// Read the current counters. Zero everywhere unless [`CountingAlloc`]
/// is installed as the process's global allocator.
pub fn counters() -> AllocCounters {
    AllocCounters {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let early = AllocCounters {
            allocs: 10,
            frees: 5,
            bytes: 1000,
        };
        let late = AllocCounters {
            allocs: 14,
            frees: 6,
            bytes: 1600,
        };
        let d = late.since(early);
        assert_eq!(
            d,
            AllocCounters {
                allocs: 4,
                frees: 1,
                bytes: 600
            }
        );
        assert_eq!(early.since(late), AllocCounters::default(), "saturates");
    }

    #[test]
    fn per_kilocycle_rates() {
        let d = AllocCounters {
            allocs: 500,
            frees: 0,
            bytes: 2_000_000,
        };
        assert!((d.allocs_per_kilocycle(10_000) - 50.0).abs() < 1e-9);
        assert!((d.bytes_per_kilocycle(10_000) - 200_000.0).abs() < 1e-9);
        assert_eq!(d.allocs_per_kilocycle(0), 0.0);
    }

    #[test]
    fn counters_are_monotone() {
        // Whether or not the test harness installed the allocator, two
        // reads must never go backwards.
        let a = counters();
        let _v: Vec<u64> = (0..100).collect();
        let b = counters();
        assert!(b.allocs >= a.allocs);
        assert!(b.bytes >= a.bytes);
    }
}
