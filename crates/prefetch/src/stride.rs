//! PC-indexed stride prefetcher (Baer & Chen, Supercomputing 1991 — the
//! classic reference-prediction-table design the paper cites among the
//! simple hardware prefetchers \[6, 20, 26\]).
//!
//! Each load PC gets a reference-prediction-table entry tracking its last
//! address, last stride, and a 2-bit confidence state. Two consecutive
//! equal strides make the entry steady; steady entries prefetch
//! `degree` strides ahead. Like the stream prefetcher it covers regular
//! (independent) misses only — dependent chases defeat it, which is the
//! gap the EMC fills.

use emc_types::LineAddr;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    last_line: u64,
    stride: i64,
    state: State,
    lru: u64,
}

/// A PC-indexed stride prefetcher (reference prediction table).
///
/// # Example
///
/// ```
/// use emc_prefetch::StridePrefetcher;
/// use emc_types::LineAddr;
///
/// let mut pf = StridePrefetcher::new(64);
/// pf.train(0x40, LineAddr(10));
/// pf.train(0x40, LineAddr(14)); // stride 4 observed
/// pf.train(0x40, LineAddr(18)); // confirmed: steady
/// let reqs = pf.take_requests(2);
/// assert_eq!(reqs, vec![LineAddr(22), LineAddr(26)]);
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Option<Entry>>,
    tick: u64,
    pending: VecDeque<LineAddr>,
}

impl StridePrefetcher {
    /// Create a table with `entries` slots (rounded up to a power of
    /// two), direct-mapped by PC with tag checks.
    pub fn new(entries: usize) -> Self {
        StridePrefetcher {
            table: vec![None; entries.next_power_of_two().max(16)],
            tick: 0,
            pending: VecDeque::new(),
        }
    }

    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }

    /// Train on a demand miss from the load at `pc`.
    pub fn train(&mut self, pc: u64, line: LineAddr) {
        self.tick += 1;
        let i = self.idx(pc);
        let l = line.0 as i64;
        match &mut self.table[i] {
            Some(e) if e.tag == pc => {
                let observed = l - e.last_line as i64;
                e.lru = self.tick;
                e.last_line = line.0;
                if observed == 0 {
                    return;
                }
                match e.state {
                    State::Initial => {
                        e.stride = observed;
                        e.state = State::Transient;
                    }
                    State::Transient | State::Steady => {
                        if observed == e.stride {
                            e.state = State::Steady;
                        } else {
                            e.stride = observed;
                            e.state = State::Transient;
                        }
                    }
                }
                if e.state == State::Steady {
                    // Queue up to 4 strides ahead; the engine's degree
                    // limit does the final throttling.
                    let mut addr = l;
                    for _ in 0..4 {
                        addr += e.stride;
                        if addr < 0 {
                            break;
                        }
                        self.pending.push_back(LineAddr(addr as u64));
                    }
                }
            }
            slot => {
                *slot = Some(Entry {
                    tag: pc,
                    last_line: line.0,
                    stride: 0,
                    state: State::Initial,
                    lru: self.tick,
                });
            }
        }
    }

    /// Whether any candidate is queued.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Move up to `degree` queued candidates, oldest first, to the back
    /// of `out`.
    pub fn drain_into(&mut self, degree: usize, out: &mut Vec<LineAddr>) {
        out.extend(self.pending.drain(..degree.min(self.pending.len())));
    }

    /// [`drain_into`](Self::drain_into) a fresh `Vec`.
    pub fn take_requests(&mut self, degree: usize) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.drain_into(degree, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_requires_two_confirmations() {
        let mut pf = StridePrefetcher::new(16);
        pf.train(0x100, LineAddr(10));
        assert!(pf.take_requests(8).is_empty(), "initial");
        pf.train(0x100, LineAddr(13));
        assert!(pf.take_requests(8).is_empty(), "transient");
        pf.train(0x100, LineAddr(16));
        let reqs = pf.take_requests(3);
        assert_eq!(reqs, vec![LineAddr(19), LineAddr(22), LineAddr(25)]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::new(16);
        for l in [10u64, 12, 14] {
            pf.train(0x40, LineAddr(l));
        }
        pf.take_requests(64);
        // New stride: must not prefetch until reconfirmed.
        pf.train(0x40, LineAddr(21));
        assert!(pf.take_requests(8).is_empty());
        pf.train(0x40, LineAddr(28));
        assert!(!pf.take_requests(8).is_empty());
    }

    #[test]
    fn pcs_are_tracked_independently() {
        let mut pf = StridePrefetcher::new(64);
        for k in 0..3 {
            pf.train(0x40, LineAddr(10 + 2 * k));
            pf.train(0x84, LineAddr(1000 + 7 * k));
        }
        let reqs = pf.take_requests(64);
        assert!(reqs.contains(&LineAddr(16)), "pc 0x40 stride 2: {reqs:?}");
        assert!(reqs.contains(&LineAddr(1021)), "pc 0x84 stride 7: {reqs:?}");
    }

    #[test]
    fn conflicting_pcs_evict_by_tag() {
        let mut pf = StridePrefetcher::new(16);
        // Same index (table is 16 entries; pc >> 2 & 15): 0x40 and 0x440.
        pf.train(0x40, LineAddr(10));
        pf.train(0x440, LineAddr(500));
        pf.train(0x40, LineAddr(12)); // restarts at Initial after eviction
        assert!(pf.take_requests(8).is_empty());
    }

    #[test]
    fn random_addresses_never_go_steady() {
        let mut pf = StridePrefetcher::new(16);
        for l in [5u64, 900, 13, 70000, 42] {
            pf.train(0x40, LineAddr(l));
        }
        assert!(pf.take_requests(16).is_empty());
    }

    #[test]
    fn zero_stride_ignored() {
        let mut pf = StridePrefetcher::new(16);
        for _ in 0..5 {
            pf.train(0x40, LineAddr(7));
        }
        assert!(pf.take_requests(8).is_empty());
    }
}
