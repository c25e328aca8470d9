//! The EMC's per-core circular TLB (paper §4.1.4).
//!
//! "Virtual memory translation at the EMC occurs through a small 32 entry
//! TLB for each core. The TLBs act as a circular buffer and cache the page
//! table entries of the last pages accessed by the EMC for each core."
//!
//! The corresponding core-side bookkeeping (a bit per PTE tracking whether
//! the translation is resident at the EMC, used to skip re-sending PTEs)
//! is modeled by the owner of this structure querying
//! [`CircularTlb::contains`]. The paper also uses that bit to invalidate
//! EMC entries on TLB shootdowns; the simulator issues none, so no
//! invalidation path is modeled.

use emc_types::PageAddr;

/// A fixed-capacity circular-buffer TLB with FIFO replacement.
///
/// # Example
///
/// ```
/// use emc_cache::CircularTlb;
/// use emc_types::PageAddr;
///
/// let mut tlb = CircularTlb::new(2);
/// tlb.insert(PageAddr(1));
/// tlb.insert(PageAddr(2));
/// tlb.insert(PageAddr(3)); // evicts page 1 (FIFO)
/// assert!(!tlb.contains(PageAddr(1)));
/// assert!(tlb.contains(PageAddr(3)));
/// ```
#[derive(Debug, Clone)]
pub struct CircularTlb {
    slots: Vec<Option<PageAddr>>,
    head: usize,
}

impl CircularTlb {
    /// Create a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        CircularTlb {
            slots: vec![None; capacity],
            head: 0,
        }
    }

    /// Whether `page`'s translation is resident.
    pub fn contains(&self, page: PageAddr) -> bool {
        self.slots.contains(&Some(page))
    }

    /// Insert `page`, overwriting the oldest slot (no-op if already
    /// present).
    pub fn insert(&mut self, page: PageAddr) {
        if self.contains(page) {
            return;
        }
        self.slots[self.head] = Some(page);
        self.head = (self.head + 1) % self.slots.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_replacement() {
        let mut t = CircularTlb::new(3);
        for p in 1..=3 {
            t.insert(PageAddr(p));
        }
        assert!((1..=3).all(|p| t.contains(PageAddr(p))));
        t.insert(PageAddr(4));
        assert!(!t.contains(PageAddr(1)), "oldest evicted");
        assert!(t.contains(PageAddr(2)));
        assert!(t.contains(PageAddr(4)));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut t = CircularTlb::new(2);
        t.insert(PageAddr(1));
        t.insert(PageAddr(1));
        t.insert(PageAddr(2));
        // If the duplicate had consumed a slot, page 1 would be gone.
        assert!(t.contains(PageAddr(1)));
        assert!(t.contains(PageAddr(2)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        CircularTlb::new(0);
    }
}
