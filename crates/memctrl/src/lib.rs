//! Memory controller with parallelism-aware batch scheduling (PAR-BS).
//!
//! Implements the paper's baseline scheduler (Table 1: "Batch Scheduling
//! \[42\]", Mutlu & Moscibroda, ISCA 2008). Requests are grouped into
//! batches: when no marked requests remain, the scheduler marks up to
//! `MARKING_CAP` oldest requests per (core, bank) pair. Marked requests are
//! serviced before unmarked ones; within a priority class the scheduler is
//! row-hit-first, then oldest-first (FR-FCFS order), which preserves both
//! the fairness of batching and the bank-level parallelism the paper's
//! DRAM contention analysis depends on.
//!
//! The controller owns one or more DDR3 [`Channel`]s. The EMC enqueues its
//! requests directly here — skipping the ring and the LLC — which is
//! exactly the latency advantage quantified in Figures 18 and 19.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emc_dram::{map_line, Channel, Location, RowOutcome};
use emc_types::rng::{seeded_rng, SmallRng};
use emc_types::{AccessKind, Cycle, DramConfig, FaultPlan, FxHashMap, MemReq, MemStats};
use std::collections::BinaryHeap;

/// PAR-BS marking cap: maximum marked requests per (core, bank) per batch.
pub const MARKING_CAP: usize = 5;

/// One queued request together with its decoded DRAM location.
#[derive(Debug, Clone)]
struct QueueEntry {
    req: MemReq,
    loc: Location,
    marked: bool,
    /// Anti-starvation escalation: set once the request's queue age
    /// crosses the controller's escalation threshold. Escalated requests
    /// outrank every PAR-BS priority class, including row hits.
    escalated: bool,
    seq: u64,
}

/// A serviced request, returned by [`MemoryController::tick`] once its
/// DRAM data burst has completed. The embedded request's timeline carries
/// `dram_issue`, `dram_done` and `row_hit` stamps.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The serviced request.
    pub req: MemReq,
}

#[derive(Debug, Clone)]
struct InFlight {
    data_at: Cycle,
    seq: u64,
    req: MemReq,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.data_at == other.data_at && self.seq == other.seq
    }
}

impl Eq for InFlight {}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on completion time (BinaryHeap is a max-heap).
        other
            .data_at
            .cmp(&self.data_at)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One channel's PAR-BS winner, kept between ticks. Enqueue, issue,
/// escalation and batch formation are the only events that can change
/// it; time alone cannot, so a blocked channel costs one comparison a
/// cycle.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// One of those events happened: scan the queue again.
    Stale,
    /// Nothing is queued for the channel.
    Idle,
    /// The winner's queue index and the first cycle at which its bank
    /// and the data bus accept it.
    Ready { qi: usize, at: Cycle },
}

/// Injected-fault state for one controller (ECC re-issues and
/// backpressure storms), armed by [`MemoryController::set_fault_plan`].
#[derive(Debug)]
struct McFaults {
    reissue_prob: f64,
    reissue_penalty: u64,
    storm_prob: f64,
    storm_cycles: u64,
    rng: SmallRng,
}

/// A (possibly enhanced) memory controller servicing a set of channels.
#[derive(Debug)]
pub struct MemoryController {
    cfg: DramConfig,
    /// Global channel indices owned by this MC.
    owned_channels: Vec<usize>,
    channels: Vec<Channel>,
    queue: Vec<QueueEntry>,
    /// Per owned channel, in `channels` order.
    picks: Vec<Pick>,
    /// Marked requests in the queue: the current batch's remainder.
    marked: usize,
    /// Unmarked reads and prefetches in the queue: what the next batch
    /// could mark.
    markable: usize,
    /// Batch formation's scratch space, kept for its capacity.
    batch_order: Vec<usize>,
    batch_counts: FxHashMap<(usize, usize, usize), usize>,
    in_flight: BinaryHeap<InFlight>,
    /// The list the next `tick` returns its completions in.
    done: Vec<Completion>,
    next_seq: u64,
    queue_entries: usize,
    /// Queue age (cycles since `mc_enqueue`) beyond which a request is
    /// escalated ahead of row-hit preference. `None` disables aging.
    escalation_threshold: Option<Cycle>,
    /// No queued request crosses the threshold before this cycle. A
    /// request that issued first can leave it early, never late.
    next_escalation: Cycle,
    faults: Option<McFaults>,
    /// End cycle of the current backpressure storm (0 = none).
    storm_until: Cycle,
    /// Whether the last `tick` observed an active storm; enqueues
    /// between ticks see this flag.
    storm_active: bool,
}

impl MemoryController {
    /// Create a controller owning the global channels in `owned_channels`.
    ///
    /// # Panics
    ///
    /// Panics if `owned_channels` is empty.
    pub fn new(cfg: &DramConfig, owned_channels: Vec<usize>) -> Self {
        assert!(
            !owned_channels.is_empty(),
            "an MC must own at least one channel"
        );
        let channels: Vec<Channel> = owned_channels.iter().map(|_| Channel::new(cfg)).collect();
        MemoryController {
            cfg: *cfg,
            owned_channels,
            picks: vec![Pick::Idle; channels.len()],
            channels,
            queue: Vec::new(),
            marked: 0,
            markable: 0,
            batch_order: Vec::new(),
            batch_counts: FxHashMap::default(),
            in_flight: BinaryHeap::new(),
            done: Vec::new(),
            next_seq: 0,
            queue_entries: cfg.queue_entries,
            escalation_threshold: None,
            next_escalation: Cycle::MAX,
            faults: None,
            storm_until: 0,
            storm_active: false,
        }
    }

    /// Arm deterministic fault injection for this controller: DRAM
    /// accesses are re-issued with a latency penalty (ECC-style) with
    /// probability `plan.dram_reissue_prob` per issue, and queue-full
    /// backpressure storms start with probability `plan.mc_storm_prob`
    /// per cycle, shrinking the advertised queue capacity for
    /// `plan.mc_storm_cycles`. Both are pure timing perturbations: the
    /// data always arrives and rejected enqueues retry through the
    /// existing back-pressure path. `seed` should be a
    /// [`substream`](emc_types::rng::substream) of the system seed.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        if plan.enabled && (plan.dram_reissue_prob > 0.0 || plan.mc_storm_prob > 0.0) {
            self.faults = Some(McFaults {
                reissue_prob: plan.dram_reissue_prob,
                reissue_penalty: plan.dram_reissue_penalty,
                storm_prob: plan.mc_storm_prob,
                storm_cycles: plan.mc_storm_cycles,
                rng: seeded_rng(seed),
            });
        } else {
            self.faults = None;
            self.storm_until = 0;
            self.storm_active = false;
        }
    }

    /// Arm (or disarm) request aging: once a queued request has waited
    /// `threshold` cycles it is escalated ahead of row-hit preference and
    /// batch boundaries, bounding worst-case queueing delay. Escalation
    /// is deterministic (pure function of queue ages) and timing-only:
    /// it never drops or reorders data, only the service order.
    pub fn set_escalation_threshold(&mut self, threshold: Option<Cycle>) {
        self.escalation_threshold = threshold;
        // Unknown under the new threshold: the next tick scans.
        self.next_escalation = 0;
    }

    /// Liveness probe: for each owned channel, the age in cycles of the
    /// oldest queued request (`0` for an empty channel queue), as
    /// `(global_channel, oldest_age)` pairs.
    pub fn oldest_queue_ages(&self, now: Cycle) -> Vec<(usize, Cycle)> {
        self.owned_channels
            .iter()
            .map(|&global| {
                let oldest = self
                    .queue
                    .iter()
                    .filter(|e| e.loc.channel == global)
                    .filter_map(|e| e.req.timeline.mc_enqueue)
                    .min()
                    .map(|enq| now.saturating_sub(enq))
                    .unwrap_or(0);
                (global, oldest)
            })
            .collect()
    }

    /// Whether this MC services the given global channel index.
    pub fn owns_channel(&self, ch: usize) -> bool {
        self.owned_channels.contains(&ch)
    }

    /// The channels this MC owns, as `(global_channel, &Channel)` pairs,
    /// for observability (per-bank row-buffer state sampling and DRAM
    /// bank trace tracks).
    pub fn channels(&self) -> impl Iterator<Item = (usize, &Channel)> + '_ {
        self.owned_channels
            .iter()
            .copied()
            .zip(self.channels.iter())
    }

    /// DRAM banks holding a row open, summed over owned channels.
    pub fn open_bank_count(&self) -> usize {
        self.channels.iter().map(|c| c.open_bank_count()).sum()
    }

    /// Number of requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queue capacity (Table 1: 128 quad-core, 256 eight-core).
    pub fn capacity(&self) -> usize {
        self.queue_entries
    }

    /// Whether the queue is full (new requests must be retried later, a
    /// real source of back-pressure in contended systems). During an
    /// injected backpressure storm the advertised capacity shrinks to a
    /// quarter, forcing the retry path to absorb the burst.
    pub fn is_full(&self) -> bool {
        let cap = if self.storm_active {
            (self.queue_entries / 4).max(1)
        } else {
            self.queue_entries
        };
        self.queue.len() >= cap
    }

    /// Enqueue a request at cycle `now`, stamping `mc_enqueue`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full (the caller retries;
    /// boxing would add allocator traffic on the hot path).
    #[allow(clippy::result_large_err)]
    pub fn enqueue(&mut self, mut req: MemReq, now: Cycle) -> Result<(), MemReq> {
        if self.is_full() {
            return Err(req);
        }
        req.timeline.mc_enqueue = Some(now);
        let loc = map_line(req.line, &self.cfg);
        let seq = self.next_seq;
        self.next_seq += 1;
        if req.kind != AccessKind::Write {
            self.markable += 1;
        }
        if let Some(threshold) = self.escalation_threshold {
            self.next_escalation = self.next_escalation.min(now.saturating_add(threshold));
        }
        let ci = self.local_channel(loc.channel);
        self.picks[ci] = Pick::Stale;
        self.queue.push(QueueEntry {
            req,
            loc,
            marked: false,
            escalated: false,
            seq,
        });
        Ok(())
    }

    /// Index into `channels` of global channel `global`.
    fn local_channel(&self, global: usize) -> usize {
        self.owned_channels
            .iter()
            .position(|&g| g == global)
            .expect("request routed to wrong MC")
    }

    /// Form a new PAR-BS batch if no marked requests remain: mark up to
    /// [`MARKING_CAP`] oldest demand requests per (core, bank).
    fn form_batch(&mut self) {
        // Writes are drained opportunistically outside batches, so a
        // queue of nothing else has nothing to mark.
        if self.marked > 0 || self.markable == 0 {
            return;
        }
        // Oldest-first marking.
        let mut order = std::mem::take(&mut self.batch_order);
        order.clear();
        order.extend(0..self.queue.len());
        order.sort_unstable_by_key(|&i| self.queue[i].seq);
        self.batch_counts.clear();
        for &i in &order {
            let e = &mut self.queue[i];
            if e.req.kind == AccessKind::Write {
                continue;
            }
            let key = (e.req.requester.home_core(), e.loc.channel, e.loc.bank);
            let c = self.batch_counts.entry(key).or_insert(0);
            if *c < MARKING_CAP {
                *c += 1;
                e.marked = true;
                self.marked += 1;
                self.markable -= 1;
            }
        }
        self.batch_order = order;
        self.picks.fill(Pick::Stale);
    }

    /// Escalate requests whose queue age crossed the aging threshold.
    /// The scan is a pure function of `(queue ages, now)`, so it is
    /// seed-stable and independent of scheduler history; it runs only
    /// on a cycle at which some request can cross.
    fn escalate_aged(&mut self, now: Cycle, stats: &mut MemStats) {
        let Some(threshold) = self.escalation_threshold else {
            return;
        };
        if now < self.next_escalation {
            return;
        }
        self.next_escalation = Cycle::MAX;
        let before = stats.escalated_requests;
        for e in &mut self.queue {
            if e.escalated {
                continue;
            }
            let enqueued = e.req.timeline.mc_enqueue.unwrap_or(now);
            if now.saturating_sub(enqueued) >= threshold {
                e.escalated = true;
                stats.escalated_requests += 1;
            } else {
                self.next_escalation = self.next_escalation.min(enqueued.saturating_add(threshold));
            }
        }
        if stats.escalated_requests != before {
            self.picks.fill(Pick::Stale);
        }
    }

    /// Scan for the best request of local channel `ci`, by PAR-BS
    /// priority: escalated > non-escalated; marked > unmarked; demand >
    /// prefetch > write; row-hit > row-miss; oldest first. Escalated
    /// requests ignore row-hit preference so an open-row stream cannot
    /// keep starving them. The channel issues the winner or nothing: a
    /// winner whose bank is busy holds back requests to idle banks.
    fn pick(&self, ci: usize) -> Pick {
        /// PAR-BS priority key: (escalated, marked, kind rank, row hit,
        /// inverted seq). Higher compares greater.
        type Priority = (bool, bool, u8, bool, u64);
        let global = self.owned_channels[ci];
        let ch = &self.channels[ci];
        let mut best: Option<(usize, Priority)> = None;
        for (i, e) in self.queue.iter().enumerate() {
            if e.loc.channel != global {
                continue;
            }
            let kind_rank = match e.req.kind {
                AccessKind::Read => 2u8,
                AccessKind::Prefetch => 1,
                AccessKind::Write => 0,
            };
            let row_hit = ch.open_row(e.loc) == Some(e.loc.row);
            // Higher tuple = higher priority; seq inverted for oldest-first.
            let key = (
                e.escalated,
                e.marked,
                kind_rank,
                row_hit && !e.escalated,
                u64::MAX - e.seq,
            );
            if best.is_none_or(|(_, bk)| key > bk) {
                best = Some((i, key));
            }
        }
        match best {
            Some((qi, _)) => Pick::Ready {
                qi,
                at: ch.ready_at(self.queue[qi].loc),
            },
            None => Pick::Idle,
        }
    }

    /// Advance the controller by one cycle: form batches, issue at most one
    /// request per owned channel whose bank is ready, and return every
    /// request whose data burst completed by `now`.
    pub fn tick(&mut self, now: Cycle, stats: &mut MemStats) -> Vec<Completion> {
        if let Some(f) = &mut self.faults {
            if f.storm_prob > 0.0 && now >= self.storm_until && f.rng.gen_bool(f.storm_prob) {
                self.storm_until = now + f.storm_cycles;
                stats.backpressure_storms += 1;
            }
            self.storm_active = now < self.storm_until;
        }
        self.escalate_aged(now, stats);
        self.form_batch();
        for ci in 0..self.channels.len() {
            if matches!(self.picks[ci], Pick::Stale) {
                self.picks[ci] = self.pick(ci);
            }
            let Pick::Ready { qi, at } = self.picks[ci] else {
                continue;
            };
            if now < at {
                continue;
            }
            let entry = self.queue.swap_remove(qi);
            // The last entry moved into the hole; another channel's
            // winner may be the one that moved.
            let moved_from = self.queue.len();
            for p in &mut self.picks {
                if let Pick::Ready { qi: q, .. } = p {
                    if *q == moved_from {
                        *q = qi;
                    }
                }
            }
            if entry.marked {
                self.marked -= 1;
            } else if entry.req.kind != AccessKind::Write {
                self.markable -= 1;
            }
            let mut req = entry.req;
            let is_write = req.kind == AccessKind::Write;
            let issue = self.channels[ci].issue(entry.loc, is_write, now);
            // Injected ECC fault: the burst is detected corrupt and
            // re-issued, so the same data arrives a penalty later.
            let mut data_at = issue.data_at;
            if let Some(f) = &mut self.faults {
                if f.reissue_prob > 0.0 && f.rng.gen_bool(f.reissue_prob) {
                    data_at += f.reissue_penalty;
                    stats.ecc_reissues += 1;
                }
            }
            req.timeline.dram_issue = Some(now);
            req.timeline.dram_done = Some(data_at);
            req.timeline.row_hit = Some(issue.outcome == RowOutcome::Hit);
            match issue.outcome {
                RowOutcome::Hit => stats.row_hits += 1,
                RowOutcome::Empty => {
                    stats.row_empties += 1;
                    stats.activates += 1;
                }
                RowOutcome::Conflict => {
                    stats.row_conflicts += 1;
                    stats.activates += 1;
                    stats.precharges += 1;
                }
            }
            match req.kind {
                AccessKind::Read => stats.dram_reads += 1,
                AccessKind::Write => stats.dram_writes += 1,
                AccessKind::Prefetch => stats.dram_prefetches += 1,
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.in_flight.push(InFlight { data_at, seq, req });
            // The channel's next winner, against the bank and bus as the
            // issue left them: known now, the controller can say when it
            // next has something to do.
            self.picks[ci] = self.pick(ci);
        }
        let mut out = std::mem::take(&mut self.done);
        while let Some(top) = self.in_flight.peek() {
            if top.data_at > now {
                break;
            }
            let top = self.in_flight.pop().expect("peeked");
            out.push(Completion { req: top.req });
        }
        out
    }

    /// Hand back a drained completion list for a later [`tick`](Self::tick)
    /// to fill: most cycles complete nothing, and the ones that do
    /// need not allocate for it.
    pub fn recycle(&mut self, mut done: Vec<Completion>) {
        done.clear();
        self.done = done;
    }

    /// The first cycle at or after `now` at which [`tick`](Self::tick)
    /// can do anything, given no enqueue before then: a burst completes,
    /// a channel's winner finds its bank and the bus ready, a request
    /// ages past the escalation threshold, a batch forms, or the storm
    /// generator draws (every cycle while armed). `Cycle::MAX` when only
    /// an enqueue can give the controller work.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        let per_cycle_draw = self.faults.as_ref().is_some_and(|f| f.storm_prob > 0.0);
        if per_cycle_draw || (self.marked == 0 && self.markable > 0) {
            return now;
        }
        let mut wake = self.in_flight.peek().map_or(Cycle::MAX, |f| f.data_at);
        if self.escalation_threshold.is_some() && !self.queue.is_empty() {
            wake = wake.min(self.next_escalation);
        }
        for p in &self.picks {
            match *p {
                Pick::Stale => return now,
                Pick::Idle => {}
                Pick::Ready { at, .. } => wake = wake.min(at),
            }
        }
        wake.max(now)
    }

    /// Whether the controller has any queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{LineAddr, ReqId, Requester};

    fn read(id: u64, line: u64, core: usize, now: Cycle) -> MemReq {
        MemReq::read(ReqId(id), LineAddr(line), Requester::Core(core), 0x40, now)
    }

    fn drain(mc: &mut MemoryController, stats: &mut MemStats, until: Cycle) -> Vec<Completion> {
        let mut all = Vec::new();
        for t in 0..until {
            all.extend(mc.tick(t, stats));
        }
        all
    }

    /// One channel for deterministic single-channel tests.
    fn one_channel_cfg() -> DramConfig {
        DramConfig {
            channels: 1,
            ..DramConfig::default()
        }
    }

    #[test]
    fn channel_observability_tracks_open_banks() {
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let mut stats = MemStats::default();
        assert_eq!(mc.open_bank_count(), 0);
        let pairs: Vec<usize> = mc.channels().map(|(g, _)| g).collect();
        assert_eq!(pairs, vec![0], "owned global channel indices");
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap();
        drain(&mut mc, &mut stats, 500);
        assert_eq!(mc.open_bank_count(), 1, "the serviced bank holds its row");
        let per_channel: usize = mc.channels().map(|(_, c)| c.open_bank_count()).sum();
        assert_eq!(per_channel, mc.open_bank_count());
    }

    #[test]
    fn single_request_round_trip() {
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let mut stats = MemStats::default();
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap();
        let done = drain(&mut mc, &mut stats, 500);
        assert_eq!(done.len(), 1);
        let t = done[0].req.timeline;
        assert_eq!(t.mc_enqueue, Some(0));
        assert_eq!(t.dram_issue, Some(0));
        assert_eq!(t.dram_done, Some(cfg.t_rcd + cfg.t_cas + cfg.t_burst));
        assert_eq!(t.row_hit, Some(false));
        assert_eq!(stats.dram_reads, 1);
        assert_eq!(stats.row_empties, 1);
        assert!(mc.is_idle());
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut cfg = one_channel_cfg();
        cfg.queue_entries = 2;
        let mut mc = MemoryController::new(&cfg, vec![0]);
        assert!(mc.enqueue(read(1, 0, 0, 0), 0).is_ok());
        assert!(mc.enqueue(read(2, 1, 0, 0), 0).is_ok());
        let rejected = mc.enqueue(read(3, 2, 0, 0), 0);
        assert!(rejected.is_err());
        assert_eq!(rejected.unwrap_err().id, ReqId(3));
    }

    #[test]
    fn row_hits_preferred_within_batch() {
        let cfg = one_channel_cfg();
        let lines_per_row = cfg.row_bytes / 64;
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let mut stats = MemStats::default();
        // Open row 0 with request A.
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap();
        let mut done = drain(&mut mc, &mut stats, 200);
        assert_eq!(done.len(), 1);
        // Now enqueue a conflicting row (older) and a row-hit (younger) for
        // the same core: row-hit-first should service the younger first.
        mc.enqueue(read(2, lines_per_row * 8, 0, 200), 200).unwrap(); // bank 0, row 1 (conflict)
        mc.enqueue(read(3, 1, 0, 201), 201).unwrap(); // bank 0, row 0 (hit)
        done = drain(&mut mc, &mut stats, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].req.id, ReqId(3), "row hit serviced first");
        assert_eq!(done[0].req.timeline.row_hit, Some(true));
        assert_eq!(done[1].req.id, ReqId(2));
    }

    #[test]
    fn marking_cap_bounds_a_hog() {
        // Core 0 floods the queue; core 1 has one old-ish request. After
        // batch formation, core 0 gets at most MARKING_CAP marked requests
        // per bank, so core 1's request is marked too and is serviced
        // within the first batch rather than starving.
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let mut stats = MemStats::default();
        let lines_per_row = cfg.row_bytes / 64;
        // 10 requests from core 0 all to bank 0, alternating rows (no free
        // row hits), enqueued first.
        for i in 0..10 {
            mc.enqueue(read(i, (i % 2) * lines_per_row * 8, 0, 0), 0)
                .unwrap();
        }
        // One request from core 1 to the same bank, yet another row.
        mc.enqueue(read(100, 2 * lines_per_row * 8 + 2, 1, 0), 0)
            .unwrap();
        let done = drain(&mut mc, &mut stats, 5000);
        assert_eq!(done.len(), 11);
        let pos = done.iter().position(|c| c.req.id == ReqId(100)).unwrap();
        assert!(
            pos <= MARKING_CAP + 1,
            "core 1's request finished at position {pos}, starved by the hog"
        );
    }

    #[test]
    fn writes_yield_to_reads() {
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let mut stats = MemStats::default();
        let wb = MemReq::writeback(ReqId(1), LineAddr(0), Requester::Core(0), 0);
        mc.enqueue(wb, 0).unwrap();
        mc.enqueue(read(2, 64, 0, 0), 0).unwrap();
        let done = drain(&mut mc, &mut stats, 1000);
        assert_eq!(done[0].req.id, ReqId(2), "read before write");
        assert_eq!(stats.dram_writes, 1);
    }

    #[test]
    fn channels_split_across_mcs() {
        let cfg = DramConfig::default(); // 2 channels
        let mc0 = MemoryController::new(&cfg, vec![0]);
        let mc1 = MemoryController::new(&cfg, vec![1]);
        assert!(mc0.owns_channel(0) && !mc0.owns_channel(1));
        assert!(mc1.owns_channel(1) && !mc1.owns_channel(0));
    }

    #[test]
    fn two_channels_service_in_parallel() {
        let cfg = DramConfig::default(); // 2 channels, line-interleaved
        let mut mc = MemoryController::new(&cfg, vec![0, 1]);
        let mut stats = MemStats::default();
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap(); // channel 0
        mc.enqueue(read(2, 1, 0, 0), 0).unwrap(); // channel 1
        let done = drain(&mut mc, &mut stats, 300);
        assert_eq!(done.len(), 2);
        // Both complete at the same cycle: true channel parallelism.
        assert_eq!(
            done[0].req.timeline.dram_done,
            done[1].req.timeline.dram_done
        );
    }

    #[test]
    fn next_wake_names_the_cycle_of_the_next_change() {
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        mc.set_escalation_threshold(Some(5_000));
        let mut stats = MemStats::default();
        assert_eq!(mc.next_wake(0), Cycle::MAX, "only an enqueue gives it work");
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap();
        assert_eq!(mc.next_wake(0), 0, "a batch is due");
        mc.tick(0, &mut stats);
        let done = cfg.t_rcd + cfg.t_cas + cfg.t_burst;
        assert_eq!(mc.next_wake(1), done, "the burst in flight");
        // A second request to the busy bank waits for it, not for `now`.
        mc.enqueue(read(2, 1, 0, 1), 1).unwrap();
        mc.tick(1, &mut stats);
        let ready = mc.channels[0].ready_at(mc.queue[0].loc);
        assert!(ready > 2 && ready < done);
        assert_eq!(mc.next_wake(2), ready);
        for t in 2..ready {
            assert!(mc.tick(t, &mut stats).is_empty());
            assert_eq!(mc.queue_len(), 1, "nothing issues before {ready}");
        }
        mc.tick(ready, &mut stats);
        assert_eq!(mc.queue_len(), 0);
    }

    // ------------------------------------------------------------------
    // The scheduler as it was before the winner, the batch counts and
    // the escalation cycle were kept between ticks: every tick scans
    // for all three. The oracle the cached scheduler is held to.
    // ------------------------------------------------------------------

    struct ScanningMc(MemoryController);

    impl ScanningMc {
        fn form_batch(&mut self) {
            let queue = &mut self.0.queue;
            if queue.iter().any(|e| e.marked) {
                return;
            }
            let mut order: Vec<usize> = (0..queue.len()).collect();
            order.sort_by_key(|&i| queue[i].seq);
            let mut counts = std::collections::HashMap::new();
            for i in order {
                let e = &mut queue[i];
                if e.req.kind == AccessKind::Write {
                    continue;
                }
                let key = (e.req.requester.home_core(), e.loc.channel, e.loc.bank);
                let c = counts.entry(key).or_insert(0);
                if *c < MARKING_CAP {
                    *c += 1;
                    e.marked = true;
                }
            }
        }

        fn escalate_aged(&mut self, now: Cycle, stats: &mut MemStats) {
            let Some(threshold) = self.0.escalation_threshold else {
                return;
            };
            for e in &mut self.0.queue {
                let enqueued = e.req.timeline.mc_enqueue.unwrap_or(now);
                if !e.escalated && now.saturating_sub(enqueued) >= threshold {
                    e.escalated = true;
                    stats.escalated_requests += 1;
                }
            }
        }

        /// The cycle's issues as `ReqId`s, storms and re-issues drawn
        /// as `MemoryController::tick` draws them.
        fn tick(&mut self, now: Cycle, stats: &mut MemStats) -> Vec<ReqId> {
            let mc = &mut self.0;
            if let Some(f) = &mut mc.faults {
                if f.storm_prob > 0.0 && now >= mc.storm_until && f.rng.gen_bool(f.storm_prob) {
                    mc.storm_until = now + f.storm_cycles;
                    stats.backpressure_storms += 1;
                }
                mc.storm_active = now < mc.storm_until;
            }
            self.escalate_aged(now, stats);
            self.form_batch();
            let mc = &mut self.0;
            let mut issued = Vec::new();
            for ci in 0..mc.channels.len() {
                let Pick::Ready { qi, .. } = mc.pick(ci) else {
                    continue;
                };
                let loc = mc.queue[qi].loc;
                if !mc.channels[ci].can_issue(loc, now) {
                    continue;
                }
                let entry = mc.queue.swap_remove(qi);
                mc.channels[ci].issue(loc, entry.req.kind == AccessKind::Write, now);
                if let Some(f) = &mut mc.faults {
                    if f.reissue_prob > 0.0 && f.rng.gen_bool(f.reissue_prob) {
                        stats.ecc_reissues += 1;
                    }
                }
                issued.push(entry.req.id);
            }
            issued
        }
    }

    #[test]
    fn cached_scheduler_issues_what_the_scanning_one_does() {
        let mut rng = seeded_rng(0x5eed_0016);
        let (mut issues, mut escalations, mut storms, mut write_only_ticks) = (0, 0, 0, 0);
        for stream in 0..200u64 {
            let cfg = DramConfig {
                queue_entries: 8 + rng.gen_range(0..56) as usize,
                ..DramConfig::default() // two channels
            };
            let threshold = (stream % 2 == 0).then(|| 50 + rng.gen_range(0..400));
            let plan = FaultPlan {
                enabled: stream % 4 == 3,
                dram_reissue_prob: 0.05,
                dram_reissue_penalty: 80,
                mc_storm_prob: 0.01,
                mc_storm_cycles: 60,
                ..FaultPlan::default()
            };
            let build = || {
                let mut mc = MemoryController::new(&cfg, vec![0, 1]);
                mc.set_escalation_threshold(threshold);
                mc.set_fault_plan(&plan, stream);
                mc
            };
            let (mut cached, mut oracle) = (build(), ScanningMc(build()));
            let (mut cs, mut os) = (MemStats::default(), MemStats::default());
            // Some streams are writes only, some bursty, all random in
            // bank, row, core and kind.
            let writes_only = stream % 5 == 4;
            let burst = 1 + rng.gen_range(0..6);
            let mut id = 0;
            let mut now = 0;
            while now < 600 || !cached.is_idle() {
                assert!(now < 20_000, "stream {stream} never drains");
                if now < 600 && rng.gen_range(0..8) < burst {
                    for _ in 0..1 + rng.gen_range(0..3) {
                        id += 1;
                        let line = LineAddr(rng.gen_range(0..4) * 1024 + rng.gen_range(0..64));
                        let core = rng.gen_range(0..4) as usize;
                        let req = match (writes_only, rng.gen_range(0..6)) {
                            (true, _) | (false, 0) => {
                                MemReq::writeback(ReqId(id), line, Requester::Core(core), now)
                            }
                            (false, 1) => MemReq::prefetch(ReqId(id), line, core, now),
                            _ => read(id, line.0, core, now),
                        };
                        assert_eq!(
                            cached.enqueue(req, now).is_ok(),
                            oracle.0.enqueue(req, now).is_ok(),
                            "stream {stream}, cycle {now}: the same back-pressure"
                        );
                    }
                }
                let due = cached.next_wake(now);
                let state = |mc: &MemoryController, s: &MemStats| {
                    let counted = s.escalated_requests + s.backpressure_storms;
                    (mc.queue_len(), mc.in_flight.len(), mc.marked, counted)
                };
                let before = state(&cached, &cs);
                let issued: Vec<ReqId> = {
                    let was: Vec<ReqId> = cached.queue.iter().map(|e| e.req.id).collect();
                    cached.tick(now, &mut cs);
                    let is: Vec<ReqId> = cached.queue.iter().map(|e| e.req.id).collect();
                    was.into_iter().filter(|r| !is.contains(r)).collect()
                };
                let mut expect = oracle.tick(now, &mut os);
                expect.sort();
                let mut got = issued.clone();
                got.sort();
                assert_eq!(got, expect, "stream {stream}, cycle {now}");
                assert_eq!(cs.escalated_requests, os.escalated_requests);
                assert_eq!(cs.backpressure_storms, os.backpressure_storms);
                assert_eq!(cs.ecc_reissues, os.ecc_reissues);
                assert_eq!(cached.is_full(), oracle.0.is_full());
                if due > now {
                    let after = state(&cached, &cs);
                    assert_eq!(
                        after, before,
                        "stream {stream}: asleep at {now}, yet it moved"
                    );
                }
                issues += issued.len();
                if cached.queue_len() > 0 && cached.markable == 0 && cached.marked == 0 {
                    write_only_ticks += 1;
                }
                now += 1;
            }
            escalations += cs.escalated_requests;
            storms += cs.backpressure_storms;
        }
        assert!(issues > 10_000, "{issues} issues");
        assert!(escalations > 100, "{escalations} escalations");
        assert!(storms > 50, "{storms} storms");
        assert!(
            write_only_ticks > 1_000,
            "{write_only_ticks} write-only ticks"
        );
    }

    #[test]
    fn ecc_reissue_delays_completion_but_still_delivers() {
        let cfg = one_channel_cfg();
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let plan = FaultPlan {
            enabled: true,
            dram_reissue_prob: 1.0, // every access re-issued
            dram_reissue_penalty: 100,
            ..FaultPlan::default()
        };
        mc.set_fault_plan(&plan, 3);
        let mut stats = MemStats::default();
        mc.enqueue(read(1, 0, 0, 0), 0).unwrap();
        let done = drain(&mut mc, &mut stats, 500);
        assert_eq!(done.len(), 1, "faulted access must still complete");
        let nominal = cfg.t_rcd + cfg.t_cas + cfg.t_burst;
        assert_eq!(done[0].req.timeline.dram_done, Some(nominal + 100));
        assert_eq!(stats.ecc_reissues, 1);
        assert!(mc.is_idle());
    }

    #[test]
    fn backpressure_storm_shrinks_capacity_then_recovers() {
        let mut cfg = one_channel_cfg();
        cfg.queue_entries = 16;
        let mut mc = MemoryController::new(&cfg, vec![0]);
        let plan = FaultPlan {
            enabled: true,
            mc_storm_prob: 1.0, // a storm starts immediately
            mc_storm_cycles: 50,
            ..FaultPlan::default()
        };
        mc.set_fault_plan(&plan, 9);
        let mut stats = MemStats::default();
        // Before any tick no storm has been observed yet.
        assert!(!mc.is_full());
        mc.tick(0, &mut stats);
        assert!(stats.backpressure_storms >= 1);
        // Storm active: effective capacity is 16/4 = 4.
        for i in 0..4 {
            assert!(
                mc.enqueue(read(i, i, 0, 1), 1).is_ok(),
                "req {i} within storm capacity"
            );
        }
        assert!(
            mc.enqueue(read(9, 9, 0, 1), 1).is_err(),
            "storm rejects the 5th"
        );
        // Full nominal capacity never shrinks for already-queued work,
        // and normal capacity returns once storms stop re-arming: run
        // far past the storm window with injections disabled.
        mc.set_fault_plan(&FaultPlan::default(), 0);
        mc.tick(60, &mut stats);
        assert!(!mc.is_full(), "capacity restored after the storm");
    }

    #[test]
    fn fault_free_plan_leaves_controller_untouched() {
        let cfg = one_channel_cfg();
        let mk = |armed: bool| {
            let mut mc = MemoryController::new(&cfg, vec![0]);
            if armed {
                mc.set_fault_plan(&FaultPlan::default(), 5);
            }
            let mut stats = MemStats::default();
            for i in 0..8 {
                mc.enqueue(read(i, i * 3, (i % 2) as usize, 0), 0).unwrap();
            }
            let done = drain(&mut mc, &mut stats, 2_000);
            (
                done.iter()
                    .map(|c| (c.req.id, c.req.timeline.dram_done))
                    .collect::<Vec<_>>(),
                stats.ecc_reissues,
                stats.backpressure_storms,
            )
        };
        let (clean, r0, s0) = mk(false);
        let (armed, r1, s1) = mk(true);
        assert_eq!(clean, armed);
        assert_eq!((r0, s0), (0, 0));
        assert_eq!((r1, s1), (0, 0));
    }
}
