//! Global History Buffer prefetcher with global delta correlation
//! (GHB G/DC, Nesbit & Smith HPCA 2004; paper Table 1: "GHB G/DC:
//! 1k-entry buffer, 12KB total size").
//!
//! The GHB is a circular buffer of recent miss addresses whose entries are
//! chained by an index table. G/DC indexes on the last two *deltas* of the
//! global miss stream; on a hit, the prefetcher walks the history from the
//! matched position and replays the deltas that followed it.

use emc_types::{FxHashMap, LineAddr};
use std::collections::VecDeque;

/// Deltas replayed per index hit.
const REPLAY: usize = 8;

/// A per-core GHB G/DC prefetcher.
///
/// # Example
///
/// ```
/// use emc_prefetch::GhbPrefetcher;
/// use emc_types::LineAddr;
///
/// let (mut pf, mut reqs) = (GhbPrefetcher::new(1024, 512), Vec::new());
/// // Train a repeating delta pattern: +1, +2, +1, +2 ...
/// for l in [10u64, 11, 13, 14, 16] {
///     pf.train(LineAddr(l));
///     pf.drain_into(64, &mut reqs); // predictions for seen misses
/// }
/// reqs.clear();
/// pf.train(LineAddr(17));
/// pf.drain_into(2, &mut reqs);
/// assert_eq!(reqs, vec![LineAddr(19), LineAddr(20)]);
/// ```
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    /// Circular buffer of miss line addresses.
    buffer: Vec<u64>,
    head: usize,
    filled: usize,
    /// Delta-pair -> most recent global position (monotonic sequence id).
    /// Nothing iterates it.
    index: FxHashMap<(i64, i64), u64>,
    index_capacity: usize,
    /// Monotonic count of misses trained.
    seq: u64,
    /// Candidates not yet drained, oldest first. Unbounded: what one
    /// cycle's degree leaves behind issues on later cycles.
    pending: VecDeque<LineAddr>,
}

impl GhbPrefetcher {
    /// Create a GHB with `buffer_entries` history slots and an index table
    /// bounded at `index_entries`.
    pub fn new(buffer_entries: usize, index_entries: usize) -> Self {
        GhbPrefetcher {
            buffer: vec![0; buffer_entries.max(4)],
            head: 0,
            filled: 0,
            index: FxHashMap::default(),
            index_capacity: index_entries.max(16),
            seq: 0,
            pending: VecDeque::new(),
        }
    }

    /// The miss with 1-based sequence number `s`, if still in the buffer.
    fn at(&self, s: u64) -> Option<u64> {
        if s == 0 || s > self.seq {
            return None;
        }
        let age = (self.seq - s) as usize; // 0 = newest
        if age >= self.filled {
            return None;
        }
        let idx = (self.head + self.buffer.len() - 1 - age) % self.buffer.len();
        Some(self.buffer[idx])
    }

    /// Train on a demand miss and queue prefetch candidates if the current
    /// delta pair has been seen before.
    pub fn train(&mut self, line: LineAddr) {
        // Push into the circular buffer.
        self.buffer[self.head] = line.0;
        self.head = (self.head + 1) % self.buffer.len();
        self.filled = (self.filled + 1).min(self.buffer.len());
        self.seq += 1;

        // Need three misses for two deltas.
        let (Some(prev), Some(prev2)) = (self.at(self.seq - 1), self.at(self.seq.wrapping_sub(2)))
        else {
            return;
        };
        let d1 = prev as i64 - prev2 as i64;
        let d2 = line.0 as i64 - prev as i64;
        let key = (d1, d2);
        let hit = self.index.get(&key).copied();
        // Update the index to the newest occurrence of this delta pair.
        if self.index.len() >= self.index_capacity && !self.index.contains_key(&key) {
            // Cheap bounded-table policy: drop the whole table when full
            // (the real structure is a small set-associative SRAM; what
            // matters for the evaluation is bounded capacity).
            self.index.clear();
        }
        self.index.insert(key, self.seq);

        let Some(pos) = hit else { return };
        // Replay the deltas that followed the previous occurrence of this
        // pair, then extrapolate the pair cyclically (covers periodic
        // patterns whose last occurrence is too recent to walk far).
        let mut deltas = [0i64; REPLAY];
        let mut walked = 0;
        while walked < REPLAY {
            let (Some(a), Some(b)) = (
                self.at(pos + walked as u64),
                self.at(pos + walked as u64 + 1),
            ) else {
                break;
            };
            deltas[walked] = b as i64 - a as i64;
            walked += 1;
        }
        for (i, delta) in deltas[walked..].iter_mut().enumerate() {
            *delta = if i % 2 == 0 { d1 } else { d2 };
        }
        let mut addr = line.0 as i64;
        for delta in deltas {
            addr += delta;
            if addr < 0 {
                break;
            }
            self.pending.push_back(LineAddr(addr as u64));
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
    #[cfg(test)]
    fn take_requests(&mut self, degree: usize) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.drain_into(degree, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeating_delta_pattern_predicted() {
        let mut pf = GhbPrefetcher::new(64, 64);
        // Deltas: +3, +5 repeating.
        for l in [0u64, 3, 8, 11, 16] {
            pf.train(LineAddr(l));
            pf.take_requests(100); // drain predictions for already-seen misses
        }
        pf.train(LineAddr(19));
        let reqs = pf.take_requests(4);
        // After ...16,19 the (+5,+3) pair matched at position of 11: the
        // following deltas were +5,+3,... so predictions are 24, 27, ...
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0], LineAddr(24));
    }

    #[test]
    fn unit_stride_predicted() {
        let mut pf = GhbPrefetcher::new(64, 64);
        for l in 100..105u64 {
            pf.train(LineAddr(l));
            pf.take_requests(100);
        }
        pf.train(LineAddr(105));
        let reqs = pf.take_requests(3);
        assert_eq!(reqs, vec![LineAddr(106), LineAddr(107), LineAddr(108)]);
    }

    #[test]
    fn random_stream_is_mostly_silent() {
        let mut pf = GhbPrefetcher::new(64, 64);
        for l in [7u64, 1000, 13, 90000, 42, 777777, 3] {
            pf.train(LineAddr(l));
        }
        assert!(pf.take_requests(16).len() <= 1);
    }

    #[test]
    fn degree_respected_and_queue_drains() {
        let mut pf = GhbPrefetcher::new(64, 64);
        for l in 0..10u64 {
            pf.train(LineAddr(l));
        }
        let first = pf.take_requests(2);
        assert_eq!(first.len(), 2);
        let rest = pf.take_requests(100);
        assert!(!rest.is_empty(), "remaining candidates preserved");
        assert!(pf.take_requests(100).is_empty());
    }

    #[test]
    fn history_wraps_without_panic() {
        let mut pf = GhbPrefetcher::new(8, 8);
        for l in 0..100u64 {
            pf.train(LineAddr(l * 2));
        }
        let _ = pf.take_requests(64);
    }

    #[test]
    fn negative_predictions_dropped() {
        let mut pf = GhbPrefetcher::new(64, 64);
        // Strongly descending pattern toward zero.
        for l in [20u64, 13, 6, 20, 13, 6] {
            pf.train(LineAddr(l));
        }
        for r in pf.take_requests(16) {
            assert!(r.0 < 1 << 40, "sane address {r:?}");
        }
    }
}
