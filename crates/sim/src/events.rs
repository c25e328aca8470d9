//! Scheduled-event plumbing for the system simulator.
//!
//! A message carries what is known about the request it moves — the EMC
//! load it serves ([`EmcLoad`]), its stamps and latency components (the
//! [`MemReq`]'s timeline), on the last leg the loads waiting for it — so
//! no table beside the queue is keyed by request. A handler reads what it
//! needs from the event and writes what it learns into the event it
//! schedules next (DESIGN.md §3, "Where a request's state lives").

use emc_core::{Chain, ChainResult};
use emc_cpu::RobId;
use emc_types::{Addr, CoreId, Cycle, LineAddr, MemReq};

/// One load of a chain executing at an EMC: uop `uop` of the chain in
/// context `ctx` of the EMC at controller `mc`. The context is reused
/// chain after chain, so the handle names the generation `tag` it was
/// made under, and whoever completes it checks the tag is still the
/// context's (`EmcEngine::generation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmcLoad {
    /// Issuing EMC.
    pub mc: usize,
    /// Context index.
    pub ctx: usize,
    /// Context generation (staleness guard).
    pub tag: u64,
    /// Uop index within the chain.
    pub uop: usize,
    /// Home core of the chain.
    pub core: CoreId,
    /// Virtual address loaded from.
    pub vaddr: Addr,
}

/// A scheduled simulator event.
#[derive(Debug)]
pub enum Ev {
    /// An L1 hit completes at the core.
    L1Done {
        /// Core.
        core: CoreId,
        /// Load's ROB id.
        rob: RobId,
    },
    /// A core demand request arrives at its home LLC slice.
    LlcReq {
        /// Requesting core.
        core: CoreId,
        /// Load's ROB id.
        rob: RobId,
        /// Physical line.
        pline: LineAddr,
        /// Load PC.
        pc: u64,
        /// Cycle the request left the core (for latency attribution).
        created: Cycle,
        /// Ring cycles spent so far.
        ring_cycles: Cycle,
    },
    /// LLC-hit data arrives back at the requesting core.
    LlcDone {
        /// Core.
        core: CoreId,
        /// Load's ROB id.
        rob: RobId,
        /// Physical line (fills L1).
        pline: LineAddr,
    },
    /// A memory request arrives at a memory controller.
    McArrive {
        /// Target MC index.
        mc: usize,
        /// The request.
        req: MemReq,
    },
    /// DRAM fill data arrives at the home LLC slice: install + forward.
    FillAtLlc {
        /// The completed request.
        req: MemReq,
    },
    /// Data delivered to the first waiter's core: complete the waiters.
    CoreDeliver {
        /// The completed request.
        req: MemReq,
        /// The loads that waited for the line.
        waiters: Vec<(CoreId, RobId)>,
    },
    /// An EMC load (route = LLC) arrives at the home LLC slice.
    EmcLlcReq {
        /// The load.
        load: EmcLoad,
        /// PC.
        pc: u64,
        /// Ring cycles spent so far.
        ring_cycles: Cycle,
    },
    /// Data for an EMC load is available at its EMC.
    EmcLoadDone {
        /// The load.
        load: EmcLoad,
        /// Loaded value.
        value: u64,
    },
    /// Chain live-outs arrive back at the home core.
    ChainResults {
        /// Home core.
        core: CoreId,
        /// Per-uop results.
        results: Vec<ChainResult>,
    },
    /// The aborted chain arrives back at its home core, which returns its
    /// uops to local execution.
    ChainAbortAtCore {
        /// The chain (its buffers go back to the pool afterwards).
        chain: Chain,
    },
}

/// Heap wrapper ordered by (cycle, sequence).
#[derive(Debug)]
pub struct Scheduled {
    /// Fire cycle.
    pub at: Cycle,
    /// Tie-break sequence (FIFO among same-cycle events).
    pub seq: u64,
    /// Payload.
    pub ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(core: usize) -> Ev {
        Ev::L1Done { core, rob: 0 }
    }

    #[test]
    fn heap_pops_earliest_cycle_first() {
        let mut h = BinaryHeap::new();
        h.push(Scheduled {
            at: 30,
            seq: 0,
            ev: ev(0),
        });
        h.push(Scheduled {
            at: 10,
            seq: 1,
            ev: ev(1),
        });
        h.push(Scheduled {
            at: 20,
            seq: 2,
            ev: ev(2),
        });
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|s| s.at)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_cycle_events_pop_fifo() {
        let mut h = BinaryHeap::new();
        for seq in [5u64, 1, 3] {
            h.push(Scheduled {
                at: 7,
                seq,
                ev: ev(seq as usize),
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|s| s.seq)).collect();
        assert_eq!(order, vec![1, 3, 5], "ties break by insertion sequence");
    }
}
