//! Scheduled events of the system simulator, and the queue they wait in.
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
use std::collections::BinaryHeap;

/// One load of a chain executing at an EMC: uop `uop` of the chain in
/// context `ctx` of the EMC at controller `mc`. The context is reused
/// chain after chain, so the handle names the generation `tag` it was
/// made under, and whoever completes it checks the tag is still the
/// context's (`EmcEngine::generation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EmcLoad {
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

/// A scheduled simulator event. A core load is named by its core and
/// ROB id (`core`, `rob`), a line by its physical address (`pline`), and
/// `ring_cycles` is what the request has spent on the ring so far.
#[derive(Debug)]
pub(crate) enum Ev {
    /// An L1 hit completes at the core.
    L1Done { core: CoreId, rob: RobId },
    /// A core's demand request, from a load at `pc` that left the core at
    /// `created`, arrives at its home LLC slice.
    LlcReq {
        core: CoreId,
        rob: RobId,
        pline: LineAddr,
        pc: u64,
        created: Cycle,
        ring_cycles: Cycle,
    },
    /// LLC-hit data arrives back at the requesting core, filling its L1.
    LlcDone {
        core: CoreId,
        rob: RobId,
        pline: LineAddr,
    },
    /// A memory request arrives at memory controller `mc`.
    McArrive { mc: usize, req: MemReq },
    /// DRAM fill data arrives at the home LLC slice: install + forward.
    FillAtLlc { req: MemReq },
    /// Data delivered to the first waiter's core: complete the loads that
    /// waited for the line.
    CoreDeliver {
        req: MemReq,
        waiters: Vec<(CoreId, RobId)>,
    },
    /// An EMC load (route = LLC) from `pc` arrives at the home LLC slice.
    EmcLlcReq {
        load: EmcLoad,
        pc: u64,
        ring_cycles: Cycle,
    },
    /// The `value` an EMC load reads is available at its EMC.
    EmcLoadDone { load: EmcLoad, value: u64 },
    /// Chain live-outs from the EMC at controller `mc` arrive back at the
    /// home core; the buffer goes back to that EMC.
    ChainResults {
        mc: usize,
        core: CoreId,
        results: Vec<ChainResult>,
    },
    /// The aborted chain arrives back at its home core, which returns its
    /// uops to local execution and the chain's buffers to its unit.
    ChainAbortAtCore { chain: Chain },
}

/// The events scheduled for later cycles. Events fire in cycle order,
/// and those due in the same cycle in the order they were scheduled:
/// `seq`, minted here, is simulated state (DESIGN.md §3).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

/// Heap entry ordered by (cycle, sequence).
#[derive(Debug)]
struct Scheduled {
    at: Cycle,
    seq: u64,
    ev: Ev,
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

impl EventQueue {
    /// Fire `ev` at cycle `at`, and never before the cycle after `now`.
    pub fn schedule(&mut self, now: Cycle, at: Cycle, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at: at.max(now + 1),
            seq,
            ev,
        });
    }

    /// The next event due at or before `now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<Ev> {
        if self.heap.peek()?.at > now {
            return None;
        }
        self.heap.pop().map(|s| s.ev)
    }

    /// The cycle the earliest scheduled event fires, if there is one.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|s| s.at)
    }

    /// How many events are scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: usize) -> Ev {
        Ev::L1Done { core, rob: 0 }
    }

    fn drain(q: &mut EventQueue, now: Cycle) -> Vec<usize> {
        std::iter::from_fn(|| match q.pop_due(now)? {
            Ev::L1Done { core, .. } => Some(core),
            _ => unreachable!(),
        })
        .collect()
    }

    #[test]
    fn queue_pops_earliest_cycle_first() {
        let mut q = EventQueue::default();
        for (core, at) in [(0, 30), (1, 10), (2, 20)] {
            q.schedule(0, at, ev(core));
        }
        assert_eq!(q.next_at(), Some(10));
        assert_eq!(drain(&mut q, 19), [1], "nothing before its cycle");
        assert_eq!(drain(&mut q, 30), [2, 0]);
        assert_eq!((q.len(), q.next_at()), (0, None));
    }

    #[test]
    fn same_cycle_events_pop_fifo() {
        let mut q = EventQueue::default();
        for core in [5, 1, 3] {
            q.schedule(0, 7, ev(core));
        }
        // Due in the past or this cycle: the next cycle, behind the rest.
        q.schedule(6, 2, ev(4));
        assert_eq!(
            drain(&mut q, 7),
            [5, 1, 3, 4],
            "ties break by schedule order"
        );
    }
}
