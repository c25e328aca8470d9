//! Set-associative cache with LRU replacement and per-line metadata.

use emc_types::{CacheConfig, LineAddr};

/// Per-line metadata bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFlags {
    /// Line has been written and must be written back on eviction.
    pub dirty: bool,
    /// Line was filled by a prefetch and has not yet been demanded
    /// (used for FDP accuracy tracking and Figures 3/21).
    pub prefetched: bool,
    /// Directory bit: a copy of this line lives in the EMC data cache
    /// (paper §4.1.3). Only meaningful in the inclusive LLC.
    pub emc_resident: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    last_used: u64,
    flags: LineFlags,
}

/// Information about a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The hit consumed a prefetched line for the first time (the
    /// prefetch was *useful*).
    pub first_use_of_prefetch: bool,
    /// Flags after the access.
    pub flags: LineFlags,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Address of the victim line.
    pub line: LineAddr,
    /// Victim metadata at eviction time (dirty ⇒ write back;
    /// prefetched ⇒ the prefetch was useless; emc_resident ⇒ the EMC
    /// data cache must be invalidated to preserve inclusion).
    pub flags: LineFlags,
}

/// A set-associative, LRU, write-back cache directory (tags + metadata;
/// data values live in the functional [`MemoryImage`]).
///
/// [`MemoryImage`]: emc_types::MemoryImage
///
/// # Example
///
/// ```
/// use emc_cache::SetAssocCache;
/// use emc_types::{CacheConfig, LineAddr};
///
/// let mut c = SetAssocCache::new(&CacheConfig::l1());
/// assert!(c.access(LineAddr(1), false).is_none()); // cold miss
/// c.fill(LineAddr(1), false, false);
/// assert!(c.access(LineAddr(1), false).is_some()); // hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    entries: Vec<Option<Entry>>,
    /// Valid ways in `entries`, kept by `fill` and `invalidate`.
    valid: usize,
    tick: u64,
    /// Access latency in cycles (exposed for the timing model).
    pub latency: u64,
}

impl SetAssocCache {
    /// Build a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or ways.
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.ways > 0, "degenerate cache geometry: zero ways");
        let sets = cfg.sets();
        assert!(sets > 0, "degenerate cache geometry: zero sets");
        SetAssocCache {
            sets,
            ways: cfg.ways,
            entries: vec![None; sets * cfg.ways],
            valid: 0,
            tick: 0,
            latency: cfg.latency,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let tag = line.0;
        self.slot_range(set)
            .find(|&i| self.entries[i].is_some_and(|e| e.tag == tag))
    }

    /// Probe without updating replacement state. Returns current flags on
    /// a hit.
    pub fn probe(&self, line: LineAddr) -> Option<LineFlags> {
        self.find(line)
            .map(|i| self.entries[i].expect("found").flags)
    }

    /// Demand access. On a hit, updates LRU, applies `is_write` to the
    /// dirty bit, clears the prefetched bit, and returns [`HitInfo`].
    /// Returns `None` on a miss (the caller allocates an MSHR and fills
    /// later).
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> Option<HitInfo> {
        self.tick += 1;
        let idx = self.find(line)?;
        let e = self.entries[idx].as_mut().expect("found");
        e.last_used = self.tick;
        let first_use_of_prefetch = e.flags.prefetched;
        e.flags.prefetched = false;
        e.flags.dirty |= is_write;
        Some(HitInfo {
            first_use_of_prefetch,
            flags: e.flags,
        })
    }

    /// Fill `line` into the cache (end of a miss or a prefetch fill),
    /// evicting the LRU way of its set if necessary. Filling a line that
    /// is already present just updates its flags.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<Eviction> {
        self.tick += 1;
        if let Some(idx) = self.find(line) {
            let e = self.entries[idx].as_mut().expect("found");
            e.last_used = self.tick;
            e.flags.dirty |= dirty;
            // A demand fill of a previously prefetched line consumes it.
            e.flags.prefetched &= prefetched;
            return None;
        }
        let set = self.set_of(line);
        let range = self.slot_range(set);
        // Prefer an invalid way; otherwise evict true-LRU.
        let mut victim = range.start;
        let mut best = u64::MAX;
        for i in range {
            match &self.entries[i] {
                None => {
                    victim = i;
                    break;
                }
                Some(e) if e.last_used < best => {
                    victim = i;
                    best = e.last_used;
                }
                _ => {}
            }
        }
        let evicted = self.entries[victim].map(|e| Eviction {
            line: LineAddr(e.tag),
            flags: e.flags,
        });
        self.valid += usize::from(evicted.is_none());
        self.entries[victim] = Some(Entry {
            tag: line.0,
            last_used: self.tick,
            flags: LineFlags {
                dirty,
                prefetched,
                emc_resident: false,
            },
        });
        evicted
    }

    /// Fill `line` at the LRU position of its set: the line becomes the
    /// set's next victim unless demanded first (FDP's low-accuracy
    /// insertion policy for prefetches).
    pub fn fill_lru(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<Eviction> {
        let ev = self.fill(line, dirty, prefetched);
        if let Some(idx) = self.find(line) {
            self.entries[idx].as_mut().expect("just filled").last_used = 0;
        }
        ev
    }

    /// Invalidate `line` if present, returning its flags (caller handles
    /// any required write-back).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineFlags> {
        let idx = self.find(line)?;
        let e = self.entries[idx].take().expect("found");
        self.valid -= 1;
        Some(e.flags)
    }

    /// Set or clear the EMC-resident directory bit of `line`.
    /// Returns false if the line is not present.
    pub fn set_emc_resident(&mut self, line: LineAddr, resident: bool) -> bool {
        match self.find(line) {
            Some(idx) => {
                self.entries[idx]
                    .as_mut()
                    .expect("found")
                    .flags
                    .emc_resident = resident;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    /// Total line capacity (`sets * ways`). Together with
    /// [`occupancy`](Self::occupancy) this gives the fill fraction the
    /// time-series sampler reports per LLC slice.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Occupancy as parts-per-thousand of capacity (integer-friendly for
    /// the metrics sampler; 1000 = completely full).
    pub fn occupancy_permille(&self) -> u32 {
        (self.occupancy() * 1000 / self.capacity()) as u32
    }

    /// Iterate over all resident line addresses (diagnostics; order is
    /// unspecified).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.iter().flatten().map(|e| LineAddr(e.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::CacheConfig;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways of 64B lines = 256 B.
        SetAssocCache::new(&CacheConfig {
            bytes: 256,
            ways: 2,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn occupancy_fraction_tracks_fills() {
        let mut c = tiny();
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.occupancy_permille(), 0);
        c.fill(LineAddr(0), false, false);
        c.fill(LineAddr(1), false, false);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.occupancy_permille(), 500);
        c.fill(LineAddr(2), false, false);
        c.fill(LineAddr(3), false, false);
        assert_eq!(c.occupancy_permille(), 1000);
        // Evictions replace in place: still full.
        c.fill(LineAddr(4), false, false);
        assert_eq!(c.occupancy_permille(), 1000);
    }

    #[test]
    fn occupancy_counts_what_a_scan_finds() {
        emc_types::rng::for_each_case(0x0cc0, 64, |rng| {
            let mut c = tiny();
            for _ in 0..200 {
                let line = LineAddr(rng.gen_range(0..12));
                match rng.gen_range(0..3) {
                    0 => _ = c.fill(line, false, false),
                    1 => _ = c.fill_lru(line, false, true),
                    _ => _ = c.invalidate(line),
                }
                let scan = c.entries.iter().filter(|e| e.is_some()).count();
                assert_eq!(c.occupancy(), scan);
            }
        });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.access(LineAddr(0), false).is_none());
        assert!(c.fill(LineAddr(0), false, false).is_none());
        let hit = c.access(LineAddr(0), false).unwrap();
        assert!(!hit.first_use_of_prefetch);
        assert!(!hit.flags.dirty);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, false);
        c.access(LineAddr(0), true).unwrap();
        // Lines 0,2,4 map to set 0 (2 sets). Fill two more to evict line 0.
        c.fill(LineAddr(2), false, false);
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.flags.dirty);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, false);
        c.fill(LineAddr(2), false, false);
        // Touch 0 so 2 becomes LRU.
        c.access(LineAddr(0), false).unwrap();
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.probe(LineAddr(0)).is_some());
    }

    #[test]
    fn prefetch_first_use_detected_once() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, true);
        assert!(c.probe(LineAddr(0)).unwrap().prefetched);
        let h1 = c.access(LineAddr(0), false).unwrap();
        assert!(h1.first_use_of_prefetch);
        let h2 = c.access(LineAddr(0), false).unwrap();
        assert!(!h2.first_use_of_prefetch, "flag cleared after first use");
    }

    #[test]
    fn useless_prefetch_reported_on_eviction() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, true);
        c.fill(LineAddr(2), false, false);
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.flags.prefetched, "evicted unused prefetch");
    }

    #[test]
    fn emc_resident_bit_round_trip() {
        let mut c = tiny();
        assert!(!c.set_emc_resident(LineAddr(0), true), "absent line");
        c.fill(LineAddr(0), false, false);
        assert!(c.set_emc_resident(LineAddr(0), true));
        assert!(c.probe(LineAddr(0)).unwrap().emc_resident);
        // Eviction carries the bit so the sim can invalidate the EMC copy.
        c.fill(LineAddr(2), false, false);
        c.access(LineAddr(2), false).unwrap();
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.flags.emc_resident);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(LineAddr(0), true, false);
        let f = c.invalidate(LineAddr(0)).unwrap();
        assert!(f.dirty);
        assert!(c.probe(LineAddr(0)).is_none());
        assert!(c.invalidate(LineAddr(0)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        // Lines 0 and 1 map to different sets; filling one set never
        // evicts the other.
        c.fill(LineAddr(0), false, false);
        c.fill(LineAddr(1), false, false);
        c.fill(LineAddr(2), false, false);
        c.fill(LineAddr(4), false, false);
        assert!(c.probe(LineAddr(1)).is_some());
    }

    #[test]
    fn refill_merges_flags() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, true);
        assert!(c.fill(LineAddr(0), true, false).is_none());
        let f = c.probe(LineAddr(0)).unwrap();
        assert!(f.dirty);
        assert!(!f.prefetched, "demand fill consumes the prefetch flag");
    }

    #[test]
    fn fill_lru_makes_line_next_victim() {
        let mut c = tiny();
        c.fill(LineAddr(0), false, false);
        c.access(LineAddr(0), false).unwrap();
        // LRU-inserted prefetch into the same set: it must be evicted
        // before the demand-resident line 0.
        c.fill_lru(LineAddr(2), false, true);
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(2), "LRU-inserted line evicted first");
        assert!(c.probe(LineAddr(0)).is_some());
    }

    #[test]
    fn fill_lru_promoted_by_demand_hit() {
        let mut c = tiny();
        c.fill_lru(LineAddr(0), false, true);
        c.fill(LineAddr(2), false, false);
        // A demand access promotes the LRU-inserted line to MRU.
        assert!(c.access(LineAddr(0), false).unwrap().first_use_of_prefetch);
        let ev = c.fill(LineAddr(4), false, false).expect("eviction");
        assert_eq!(ev.line, LineAddr(2), "promoted line survives");
    }

    #[test]
    fn geometry_matches_config() {
        let c = SetAssocCache::new(&CacheConfig::llc_slice());
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.latency, 18);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_way_cache_rejected() {
        SetAssocCache::new(&CacheConfig {
            bytes: 0,
            ways: 0,
            latency: 1,
            mshrs: 1,
        });
    }
}
