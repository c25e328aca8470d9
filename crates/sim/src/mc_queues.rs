//! The memory controllers' queues and the requests waiting to get in.
//!
//! One admission policy holds on arrival and on every retry: a prefetch
//! that a demand load merged onto is a read now; any other prefetch is
//! dropped once the queue is ¾ full, so prefetches never back-pressure
//! demands, and is never retried. A dropped prefetch's line is no longer
//! in flight. The rest of what a full queue rejects retries every cycle,
//! oldest first.

use crate::inflight::InFlight;
use emc_memctrl::{Completion, MemoryController};
use emc_types::rng::substream;
use emc_types::{AccessKind, Cycle, MemReq, MemStats, SystemConfig};

/// Fault-injection RNG stream of controller 0; controller `m` draws
/// from the `m`-th after it.
const FAULT_STREAM_MC_BASE: u64 = 0xF100;

/// Every memory controller, each with the requests its queue rejected.
pub(crate) struct McQueues {
    mcs: Vec<MemoryController>,
    /// Per controller, the rejected requests, oldest first.
    retry: Vec<Vec<MemReq>>,
    /// Per controller, its `next_wake` as its last tick left it: only an
    /// arrival or a tick changes the controller.
    wake: Vec<Cycle>,
}

/// Offer `req` to `mc`'s queue at `now` under the admission policy,
/// `retried` if it was rejected before. Hands back the request if the
/// full queue rejects it.
fn admit(
    mc: &mut MemoryController,
    mut req: MemReq,
    now: Cycle,
    in_flight: &mut InFlight,
    retried: bool,
) -> Option<MemReq> {
    if req.kind == AccessKind::Prefetch {
        if in_flight.demand_merged(req.line) {
            req.kind = AccessKind::Read;
        } else if retried || mc.queue_len() >= 3 * mc.capacity() / 4 {
            in_flight.untrack(req.line);
            return None;
        }
    }
    mc.enqueue(req, now).err()
}

impl McQueues {
    /// The controllers `cfg` asks for, each over its own channels, with
    /// its fault stream and escalation threshold.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mcs = (0..cfg.memory_controllers)
            .map(|m| {
                let mut mc = MemoryController::new(&cfg.dram, cfg.channels_of_mc(m).collect());
                let stream = substream(cfg.seed, FAULT_STREAM_MC_BASE + m as u64);
                mc.set_fault_plan(&cfg.faults, stream);
                if cfg.liveness.enabled {
                    mc.set_escalation_threshold(Some(cfg.liveness.mc_escalation_age));
                }
                mc
            })
            .collect();
        McQueues {
            mcs,
            retry: vec![Vec::new(); cfg.memory_controllers],
            wake: vec![0; cfg.memory_controllers],
        }
    }

    /// The controllers, in index order.
    pub fn controllers(&self) -> &[MemoryController] {
        &self.mcs
    }

    /// `req` arrives at controller `mc` at `now`.
    pub fn arrive(&mut self, mc: usize, req: MemReq, now: Cycle, in_flight: &mut InFlight) {
        self.wake[mc] = now;
        if let Some(req) = admit(&mut self.mcs[mc], req, now, in_flight, false) {
            self.retry[mc].push(req);
        }
    }

    /// Whether a [`tick`](Self::tick) of controller `mc` at `now` could
    /// act: a rejected request waits, or the controller's `next_wake`
    /// has come. A tick it is not due for changes nothing but, on an
    /// empty queue, the escalation scan's next cycle, which the next
    /// enqueue and tick set again.
    pub fn due(&self, mc: usize, now: Cycle) -> bool {
        !self.retry[mc].is_empty() || self.wake[mc] <= now
    }

    /// One cycle of controller `mc`: retry what its queue rejected, then
    /// tick it. Returns the completions, to be handed back through
    /// [`recycle`](Self::recycle).
    pub fn tick(
        &mut self,
        mc: usize,
        now: Cycle,
        in_flight: &mut InFlight,
        stats: &mut MemStats,
    ) -> Vec<Completion> {
        let ctrl = &mut self.mcs[mc];
        self.retry[mc].retain_mut(|req| match admit(ctrl, *req, now, in_flight, true) {
            Some(rejected) => {
                *req = rejected;
                true
            }
            None => false,
        });
        let done = ctrl.tick(now, stats);
        self.wake[mc] = ctrl.next_wake(now + 1);
        done
    }

    /// Hand controller `mc`'s drained completion list back.
    pub fn recycle(&mut self, mc: usize, done: Vec<Completion>) {
        self.mcs[mc].recycle(done);
    }

    /// How many rejected requests wait at each controller.
    pub fn retry_depths(&self) -> Vec<u32> {
        self.retry.iter().map(|r| r.len() as u32).collect()
    }

    /// The first cycle from `now` at which a [`tick`](Self::tick) of some
    /// controller could act: `now` while a rejected request waits.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        if self.retry.iter().any(|r| !r.is_empty()) {
            return now;
        }
        self.wake.iter().fold(Cycle::MAX, |a, &b| a.min(b)).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{LineAddr, ReqId, Requester};

    /// One controller over one channel with an 8-entry queue: pure
    /// prefetches drop from 6 entries on.
    fn queues() -> (McQueues, InFlight) {
        let mut cfg = SystemConfig::quad_core();
        (
            cfg.dram.channels,
            cfg.dram.queue_entries,
            cfg.memory_controllers,
        ) = (1, 8, 1);
        (McQueues::new(&cfg), InFlight::default())
    }

    fn read(line: u64) -> MemReq {
        MemReq::read(ReqId(line), LineAddr(line), Requester::Core(0), 0, 0)
    }

    fn prefetch(line: u64) -> MemReq {
        MemReq::prefetch(ReqId(line), LineAddr(line), 0, 0)
    }

    /// `req` arrives with its line in flight, as the simulator tracks it.
    fn arrive(q: &mut McQueues, t: &mut InFlight, req: MemReq) {
        t.track(req.line, None, None);
        q.arrive(0, req, 0, t);
    }

    /// Tick until everything queued is served; what DRAM saw.
    fn serve(q: &mut McQueues, t: &mut InFlight) -> MemStats {
        let mut stats = MemStats::default();
        for now in 0..2_000 {
            q.tick(0, now, t, &mut stats);
        }
        stats
    }

    fn queue_len(q: &McQueues) -> usize {
        q.controllers()[0].queue_len()
    }

    #[test]
    fn a_prefetch_a_demand_merged_onto_is_a_read() {
        let (mut q, mut t) = queues();
        (0..6).for_each(|l| arrive(&mut q, &mut t, read(l)));
        t.track(LineAddr(9), None, None);
        t.merge_core(LineAddr(9), (0, 1));
        q.arrive(0, prefetch(9), 0, &mut t);
        assert_eq!(queue_len(&q), 7, "admitted past the prefetch limit");
        let stats = serve(&mut q, &mut t);
        assert_eq!((stats.dram_reads, stats.dram_prefetches), (7, 0));
    }

    #[test]
    fn a_pure_prefetch_drops_at_three_quarters_of_the_queue() {
        let (mut q, mut t) = queues();
        (0..5).for_each(|l| arrive(&mut q, &mut t, read(l)));
        arrive(&mut q, &mut t, prefetch(8));
        assert_eq!(queue_len(&q), 6, "admitted below ¾");
        arrive(&mut q, &mut t, prefetch(9));
        assert_eq!(queue_len(&q), 6, "dropped at ¾");
        assert!(t.contains(LineAddr(8)) && !t.contains(LineAddr(9)));
        arrive(&mut q, &mut t, read(10));
        assert_eq!((queue_len(&q), q.retry_depths()), (7, vec![0]));
    }

    #[test]
    fn a_rejected_prefetch_is_not_retried_unless_a_demand_merged() {
        // Only a backpressure storm, which shrinks the queue below the
        // prefetch limit, rejects a prefetch: put two in the list as one
        // would.
        let (mut q, mut t) = queues();
        for line in [8, 9] {
            t.track(LineAddr(line), None, None);
            q.retry[0].push(prefetch(line));
        }
        t.merge_core(LineAddr(9), (0, 1));
        let stats = serve(&mut q, &mut t);
        assert_eq!((stats.dram_reads, stats.dram_prefetches), (1, 0));
        assert!(!t.contains(LineAddr(8)), "the pure one is dropped");
        assert!(t.contains(LineAddr(9)), "the merged one is served");
    }

    #[test]
    fn rejected_demands_retry_oldest_first() {
        let (mut q, mut t) = queues();
        let rejected = [10, 11, 12];
        (0..8)
            .chain(rejected)
            .for_each(|l| arrive(&mut q, &mut t, read(l)));
        assert_eq!(q.retry_depths(), [3]);
        let mut stats = MemStats::default();
        for now in 0..2_000 {
            q.tick(0, now, &mut t, &mut stats);
            let waiting: Vec<u64> = q.retry[0].iter().map(|r| r.line.0).collect();
            assert!(rejected.ends_with(&waiting), "{waiting:?} at cycle {now}");
        }
        assert_eq!(stats.dram_reads, 11, "every request served once");
    }
}
