//! Miss-status holding registers: track outstanding misses and merge
//! secondary misses to the same line.

use emc_types::LineAddr;
use std::collections::HashMap;

/// Result of requesting an MSHR for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this line: a new request must be sent downstream.
    NewMiss,
    /// An earlier miss to the same line is already outstanding; this
    /// waiter was merged onto it.
    Merged,
    /// No MSHR available: the requester must stall and retry.
    Full,
}

/// An MSHR file. Waiters are opaque `u64` tokens chosen by the caller
/// (e.g. ROB indices or EMC load-queue slots).
///
/// # Example
///
/// ```
/// use emc_cache::{MshrOutcome, Mshrs};
/// use emc_types::LineAddr;
///
/// let mut m = Mshrs::new(2);
/// assert_eq!(m.alloc(LineAddr(1), 100), MshrOutcome::NewMiss);
/// assert_eq!(m.alloc(LineAddr(1), 101), MshrOutcome::Merged);
/// assert_eq!(m.complete(LineAddr(1)), vec![100, 101]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mshrs {
    entries: HashMap<LineAddr, Vec<u64>>,
    capacity: usize,
}

impl Mshrs {
    /// Create an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Mshrs {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Number of distinct outstanding lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Try to allocate (or merge into) an MSHR for `line` with `waiter`.
    pub fn alloc(&mut self, line: LineAddr, waiter: u64) -> MshrOutcome {
        if let Some(ws) = self.entries.get_mut(&line) {
            ws.push(waiter);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.insert(line, vec![waiter]);
        MshrOutcome::NewMiss
    }

    /// Complete the miss to `line`, returning its waiters in arrival
    /// order. Returns an empty vector if the line was not outstanding.
    pub fn complete(&mut self, line: LineAddr) -> Vec<u64> {
        self.entries.remove(&line).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_complete_order() {
        let mut m = Mshrs::new(4);
        assert_eq!(m.alloc(LineAddr(7), 1), MshrOutcome::NewMiss);
        assert_eq!(m.alloc(LineAddr(7), 2), MshrOutcome::Merged);
        assert_eq!(m.alloc(LineAddr(7), 3), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(LineAddr(7)), vec![1, 2, 3]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_blocks_new_lines_but_not_merges() {
        let mut m = Mshrs::new(1);
        assert_eq!(m.alloc(LineAddr(1), 10), MshrOutcome::NewMiss);
        assert_eq!(m.alloc(LineAddr(2), 11), MshrOutcome::Full);
        assert_eq!(m.alloc(LineAddr(1), 12), MshrOutcome::Merged);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = Mshrs::new(1);
        assert!(m.complete(LineAddr(9)).is_empty());
    }
}
