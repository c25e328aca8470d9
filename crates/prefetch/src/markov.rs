//! Markov prefetcher (Joseph & Grunwald, ISCA 1997; paper Table 1:
//! "Markov: 1MB correlation table, 4 addresses per entry").
//!
//! The correlation table maps a miss address to the addresses that have
//! historically followed it in the miss stream. On a miss, the successors
//! of the current address are issued as prefetch candidates (most recent
//! first). This is the classic correlation prefetcher the paper shows to
//! be the most bandwidth-hungry of the three.

use emc_types::{FxHashMap, LineAddr};
use std::collections::VecDeque;

#[derive(Debug, Clone, Default)]
struct EntrySucc {
    /// Successor lines, most recently observed first.
    succ: Vec<u64>,
}

/// A per-core Markov correlation prefetcher.
///
/// # Example
///
/// ```
/// use emc_prefetch::MarkovPrefetcher;
/// use emc_types::LineAddr;
///
/// let mut pf = MarkovPrefetcher::new(1024, 4);
/// pf.train(LineAddr(1));
/// pf.train(LineAddr(50)); // records 1 -> 50
/// pf.train(LineAddr(1));
/// let mut reqs = Vec::new();
/// pf.drain_into(4, &mut reqs);
/// assert_eq!(reqs, vec![LineAddr(50)]);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    /// Keyed by miss line. Nothing iterates it; `order` holds the
    /// eviction order.
    table: FxHashMap<u64, EntrySucc>,
    capacity: usize,
    fanout: usize,
    last_miss: Option<u64>,
    pending: VecDeque<LineAddr>,
    /// Insertion order for crude FIFO eviction when the table fills.
    order: VecDeque<u64>,
}

impl MarkovPrefetcher {
    /// Create a table with `capacity` entries of `fanout` successors each.
    pub fn new(capacity: usize, fanout: usize) -> Self {
        MarkovPrefetcher {
            table: FxHashMap::default(),
            capacity: capacity.max(4),
            fanout: fanout.max(1),
            last_miss: None,
            pending: VecDeque::new(),
            order: VecDeque::new(),
        }
    }

    /// Train on a demand miss: record the transition from the previous
    /// miss and queue this miss's known successors as candidates.
    pub fn train(&mut self, line: LineAddr) {
        if let Some(prev) = self.last_miss {
            if !self.table.contains_key(&prev) {
                if self.table.len() >= self.capacity {
                    if let Some(victim) = self.order.pop_front() {
                        self.table.remove(&victim);
                    }
                }
                self.order.push_back(prev);
            }
            let e = self.table.entry(prev).or_default();
            // MRU insertion with dedup, truncated to fanout.
            e.succ.retain(|&s| s != line.0);
            e.succ.insert(0, line.0);
            e.succ.truncate(self.fanout);
        }
        self.last_miss = Some(line.0);
        if let Some(e) = self.table.get(&line.0) {
            for &s in &e.succ {
                self.pending.push_back(LineAddr(s));
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
    fn pointer_chain_learned_after_one_pass() {
        let mut pf = MarkovPrefetcher::new(64, 4);
        let chain = [100u64, 250, 37, 900];
        for &l in &chain {
            pf.train(LineAddr(l));
        }
        pf.take_requests(64);
        // Second traversal: each miss predicts the next node.
        pf.train(LineAddr(100));
        assert_eq!(pf.take_requests(4), vec![LineAddr(250)]);
        pf.train(LineAddr(250));
        assert_eq!(pf.take_requests(4), vec![LineAddr(37)]);
    }

    #[test]
    fn mru_successor_first() {
        let mut pf = MarkovPrefetcher::new(64, 4);
        // 1 -> 10 then 1 -> 20: 20 is now MRU.
        for &l in &[1u64, 10, 1, 20] {
            pf.train(LineAddr(l));
        }
        pf.take_requests(100); // drain stale candidates
        pf.train(LineAddr(1));
        let reqs = pf.take_requests(4);
        assert_eq!(reqs[0], LineAddr(20));
        assert!(reqs.contains(&LineAddr(10)));
    }

    #[test]
    fn fanout_bounds_successors() {
        let mut pf = MarkovPrefetcher::new(64, 2);
        for succ in [10u64, 20, 30, 40] {
            pf.train(LineAddr(1));
            pf.train(LineAddr(succ));
        }
        pf.take_requests(100);
        pf.train(LineAddr(1));
        let reqs = pf.take_requests(100);
        assert_eq!(reqs.len(), 2, "fanout 2 caps candidates");
        assert_eq!(reqs[0], LineAddr(40), "most recent first");
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut pf = MarkovPrefetcher::new(4, 4);
        for l in 0..40u64 {
            pf.train(LineAddr(l * 100));
        }
        assert!(pf.table.len() <= 4);
    }

    #[test]
    fn cold_table_is_silent() {
        let mut pf = MarkovPrefetcher::new(16, 4);
        pf.train(LineAddr(5));
        assert!(pf.take_requests(8).is_empty());
    }
}
