//! Memory-system request types and per-request latency timelines.
//!
//! A [`MemReq`] is created when a load misses the private caches (or when a
//! prefetcher or the EMC issues a request) and flows through the ring, the
//! LLC, the memory-controller queue and DRAM. Its [`ReqTimeline`] records
//! when it crossed each boundary so the figure harnesses can attribute
//! latency exactly as the paper does (Figures 1, 18 and 19).

use crate::addr::LineAddr;
use crate::{CoreId, Cycle};
use std::fmt;

/// Unique identifier for a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Who issued a memory request. Latency attribution and several figures
/// (15, 18, 21) distinguish core-issued, EMC-issued and prefetch requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// A demand request issued by a core pipeline.
    Core(CoreId),
    /// A demand request issued by the EMC on behalf of `home_core`
    /// (the chain's owner), from the EMC at memory controller `mc`.
    Emc {
        /// Core whose dependence chain generated the request.
        home_core: CoreId,
        /// Which enhanced memory controller issued it (multi-MC systems).
        mc: usize,
    },
    /// A prefetch request trained by core `CoreId`'s miss stream.
    Prefetcher(CoreId),
}

impl Requester {
    /// The core whose execution this request serves (prefetches train on a
    /// particular core's stream; EMC requests belong to their home core).
    pub fn home_core(self) -> CoreId {
        match self {
            Requester::Core(c) | Requester::Prefetcher(c) => c,
            Requester::Emc { home_core, .. } => home_core,
        }
    }

    /// Whether this request was issued by the EMC.
    pub fn is_emc(self) -> bool {
        matches!(self, Requester::Emc { .. })
    }
}

/// The type of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand read (load miss or instruction fetch miss).
    Read,
    /// Write-back of a dirty line evicted from the LLC.
    Write,
    /// Prefetch read (fills into the LLC per Table 1 / FDP).
    Prefetch,
}

/// Cycle stamps recorded as a request crosses each subsystem boundary.
///
/// All stamps are in core-clock cycles. `None` means the request has not
/// reached that boundary (or skipped it: EMC requests predicted to miss
/// bypass the LLC entirely, §4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqTimeline {
    /// Cycle the request was created by its requester.
    pub created: Cycle,
    /// Cycle it arrived at the LLC slice (after ring traversal), if it
    /// accessed the LLC.
    pub llc_arrive: Option<Cycle>,
    /// Cycle it entered the memory-controller queue.
    pub mc_enqueue: Option<Cycle>,
    /// Cycle the first DRAM command for it was issued.
    pub dram_issue: Option<Cycle>,
    /// Cycle its data returned from DRAM to the memory controller.
    pub dram_done: Option<Cycle>,
    /// Cycle the data became consumable by the requester (back at the core
    /// through the fill path, or at the EMC immediately on `dram_done`).
    pub delivered: Option<Cycle>,
    /// Whether the DRAM access hit the open row buffer (None until issued;
    /// also None for LLC hits that never touched DRAM).
    pub row_hit: Option<bool>,
    /// Cycles spent on the ring so far: each hop adds its own as the
    /// request makes it (the ring component of Figures 18 and 19).
    pub ring_cycles: Cycle,
    /// Cycles spent in cache arrays so far (their cache component).
    pub cache_cycles: Cycle,
}

impl ReqTimeline {
    /// Start a timeline at `created`.
    pub fn start(created: Cycle) -> Self {
        ReqTimeline {
            created,
            ..Default::default()
        }
    }

    /// Pure DRAM service latency (command issue to data return), if the
    /// request went to DRAM.
    pub fn dram_latency(&self) -> Option<Cycle> {
        Some(self.dram_done?.saturating_sub(self.dram_issue?))
    }

    /// Total latency from creation to delivery, if delivered.
    pub fn total_latency(&self) -> Option<Cycle> {
        Some(self.delivered?.saturating_sub(self.created))
    }

    /// Queueing delay at the memory controller (enqueue to first DRAM
    /// command), if it reached DRAM.
    pub fn mc_queue_delay(&self) -> Option<Cycle> {
        Some(self.dram_issue?.saturating_sub(self.mc_enqueue?))
    }
}

/// A memory request flowing through the simulated memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemReq {
    /// Unique id.
    pub id: ReqId,
    /// The cache line being accessed.
    pub line: LineAddr,
    /// Access type.
    pub kind: AccessKind,
    /// Who issued it.
    pub requester: Requester,
    /// PC of the instruction that caused it (0 for write-backs), used by
    /// prefetcher training and the EMC miss predictor.
    pub pc: u64,
    /// Latency stamps.
    pub timeline: ReqTimeline,
}

impl MemReq {
    /// Create a demand read request.
    pub fn read(id: ReqId, line: LineAddr, requester: Requester, pc: u64, now: Cycle) -> Self {
        MemReq {
            id,
            line,
            kind: AccessKind::Read,
            requester,
            pc,
            timeline: ReqTimeline::start(now),
        }
    }

    /// Create a write-back request.
    pub fn writeback(id: ReqId, line: LineAddr, requester: Requester, now: Cycle) -> Self {
        MemReq {
            id,
            line,
            kind: AccessKind::Write,
            requester,
            pc: 0,
            timeline: ReqTimeline::start(now),
        }
    }

    /// Create a prefetch request.
    pub fn prefetch(id: ReqId, line: LineAddr, core: CoreId, now: Cycle) -> Self {
        MemReq {
            id,
            line,
            kind: AccessKind::Prefetch,
            requester: Requester::Prefetcher(core),
            pc: 0,
            timeline: ReqTimeline::start(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_decomposition() {
        let mut t = ReqTimeline::start(100);
        t.mc_enqueue = Some(150);
        t.dram_issue = Some(180);
        t.dram_done = Some(250);
        t.delivered = Some(300);
        assert_eq!(t.dram_latency(), Some(70));
        assert_eq!(t.total_latency(), Some(200));
        assert_eq!(t.mc_queue_delay(), Some(30));
    }

    #[test]
    fn llc_hit_has_no_dram_component() {
        let mut t = ReqTimeline::start(10);
        t.llc_arrive = Some(20);
        t.delivered = Some(40);
        assert_eq!(t.dram_latency(), None);
        assert_eq!(t.total_latency(), Some(30));
    }

    #[test]
    fn requester_classification() {
        let c = Requester::Core(2);
        let e = Requester::Emc {
            home_core: 1,
            mc: 0,
        };
        let p = Requester::Prefetcher(3);
        assert_eq!(c.home_core(), 2);
        assert_eq!(e.home_core(), 1);
        assert_eq!(p.home_core(), 3);
        assert!(e.is_emc() && !c.is_emc() && !p.is_emc());
    }

    #[test]
    fn constructors_set_kind() {
        let r = MemReq::read(ReqId(1), LineAddr(5), Requester::Core(0), 0x40, 7);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.timeline.created, 7);
        let w = MemReq::writeback(ReqId(2), LineAddr(5), Requester::Core(0), 9);
        assert_eq!(w.kind, AccessKind::Write);
        let p = MemReq::prefetch(ReqId(3), LineAddr(6), 1, 11);
        assert_eq!(p.kind, AccessKind::Prefetch);
        assert_eq!(p.requester, Requester::Prefetcher(1));
    }

    #[test]
    fn incomplete_timeline_is_none() {
        let t = ReqTimeline::start(5);
        assert_eq!(t.total_latency(), None);
        assert_eq!(t.dram_latency(), None);
        assert_eq!(t.mc_queue_delay(), None);
    }
}
