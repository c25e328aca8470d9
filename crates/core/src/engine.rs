//! The EMC execution engine (paper §4.1, Figure 8).
//!
//! Two (quad-core) or four (eight-core) issue contexts each hold one
//! dependence chain: a 16-entry uop buffer, a 16-entry physical register
//! file and a live-in vector. A shared 2-wide back-end issues ready uops
//! out of order; loads check the per-context store buffer (LSQ), then the
//! 4 KB EMC data cache, then either the LLC or — when the PC-hashed miss
//! predictor says the LLC would miss — DRAM directly. Branches are checked
//! against the fetch-time predicted direction and abort the chain on a
//! mismatch; TLB misses abort the chain (the home core re-executes it).
//!
//! The engine is driven by the system simulator: it emits [`EmcEvent`]s
//! (load requests with their chosen route, chain completion/abort) and
//! receives load data via [`EmcEngine::complete_load`].
//!
//! The engine owns no counters. [`EmcEngine::start_chain`] and
//! [`EmcEngine::tick`] count into the caller's [`EmcStats`], the way the
//! memory controller and the ring count into theirs: a `System` passes
//! its one `Stats::emc`, shared by every memory controller's engine. An
//! engine driven on its own keeps its counters beside it in an [`Emc`].

mod context;
mod standalone;

pub use standalone::Emc;

use crate::chain::Chain;
use crate::predictor::MissPredictor;
use context::{Context, UopState};
use emc_cache::{CircularTlb, SetAssocCache};
use emc_types::{
    physical_line, Addr, CacheConfig, CoreId, Cycle, EmcConfig, EmcStats, LineAddr, PageAddr,
    UopKind,
};

/// EMC TLB translation granularity: 2 MB superpages.
///
/// SPEC-class workloads run with large pages on real systems; tracking
/// 4 KB pages at the EMC would abort nearly every pointer-chase chain
/// (the dependent load almost always leaves the source's 4 KB page),
/// which contradicts the paper's reported EMC coverage. With 2 MB
/// entries a 32-entry TLB covers a 64 MB footprint — misses still occur
/// and still abort chains (§4.1.4), just at a realistic rate.
pub const EMC_TLB_PAGE_BITS: u32 = 21;

fn tlb_page(addr: Addr) -> PageAddr {
    PageAddr(addr.0 >> EMC_TLB_PAGE_BITS)
}

/// Why a chain was aborted (the home core re-executes it locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A load's page translation was absent from the EMC TLB (§4.1.4).
    TlbMiss,
    /// The chain contained a mispredicted branch (§4.3).
    BranchMispredict,
    /// The simulator detected a memory-disambiguation conflict with an
    /// older store at the home core (§4.3).
    Disambiguation,
    /// The fault-injection layer killed the context mid-chain (timing-only
    /// fault; the home core re-executes the chain exactly as for a TLB
    /// miss, so architectural state is unaffected).
    Injected,
    /// The context's forward-progress lease expired: the chain made no
    /// progress (no source delivery, load completion, or results leaving)
    /// for the configured lease window, so the EMC reclaimed the context
    /// ([`EmcEngine::expire_leases`]) and the home core re-executes the
    /// chain.
    LeaseExpired,
}

/// Where an EMC load was routed (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRoute {
    /// Hit in the 4 KB EMC data cache (2-cycle access).
    DcacheHit,
    /// Predicted LLC hit: query the LLC over the on-chip path.
    Llc,
    /// Predicted LLC miss: issue directly to DRAM, skipping the LLC.
    DirectDram,
}

/// Events emitted by [`EmcEngine::tick`] for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmcEvent {
    /// A load issued; the simulator must supply data via
    /// [`EmcEngine::complete_load`] after modeling `route`'s latency.
    Load {
        /// Issue context.
        ctx: usize,
        /// Index of the load within the chain.
        uop: usize,
        /// Chain's home core (whose memory image holds the data).
        home_core: CoreId,
        /// Virtual byte address.
        vaddr: Addr,
        /// Load PC (for predictor training by the sim).
        pc: u64,
        /// Route chosen by the EMC.
        route: LoadRoute,
    },
    /// Results of uops completed this cycle in `ctx`, to be shipped back
    /// to the home core as one data-ring message (live-outs stream back
    /// incrementally; a multi-indirection chain must not hold its early
    /// results hostage to its last miss).
    Results {
        /// Issue context.
        ctx: usize,
    },
    /// Every uop of the chain in `ctx` completed; collect it with
    /// [`EmcEngine::take_finished`].
    ChainDone {
        /// Issue context.
        ctx: usize,
    },
    /// The chain in `ctx` aborted; collect it with
    /// [`EmcEngine::take_finished`] and re-execute at the core.
    ChainAborted {
        /// Issue context.
        ctx: usize,
        /// Why.
        reason: AbortReason,
    },
}

/// Result of one chain uop, for retirement at the home core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainResult {
    /// Home-core ROB id.
    pub rob: emc_cpu::RobId,
    /// Destination value (branch direction for branches).
    pub value: u64,
    /// For stores: (address, data) to commit at retirement.
    pub store: Option<(Addr, u64)>,
}

/// A finished (completed or aborted) chain handed back to the simulator.
#[derive(Debug, Clone)]
pub struct FinishedChain {
    /// The original chain (for ROB ids and accounting).
    pub chain: Chain,
    /// The cycle the chain reached the EMC (its context's `active_at`).
    pub active_at: Cycle,
}

/// The enhanced memory controller's compute engine (counts into the
/// caller's [`EmcStats`]).
#[derive(Clone)]
pub struct EmcEngine {
    cfg: EmcConfig,
    contexts: Vec<Option<Context>>,
    /// How many of `contexts` hold a chain.
    busy: usize,
    /// Per context: how many chains it has finished.
    generations: Vec<u64>,
    /// Cycles without progress that reclaim a busy context (MAX: never).
    lease: Cycle,
    /// [`tick`](EmcEngine::tick) does nothing before this cycle: 0 while
    /// awake, the arrival of a chain in flight on the ring, or
    /// `Cycle::MAX` until a caller hands the engine something.
    sleep_until: Cycle,
    /// The uops one context issues in a cycle, kept for its capacity.
    ready: Vec<usize>,
    /// The list [`tick`](EmcEngine::tick) fills, kept for its capacity.
    events: Vec<EmcEvent>,
    /// Contexts whose chains finished, kept for their buffers.
    spare: Vec<Context>,
    /// Result lists handed back for a context's outbox to reuse.
    spare_outboxes: Vec<Vec<ChainResult>>,
    dcache: SetAssocCache,
    tlbs: Vec<CircularTlb>,
    miss_pred: Vec<MissPredictor>,
}

impl EmcEngine {
    /// Build an EMC for `cores` home cores.
    pub fn new(cfg: &EmcConfig, cores: usize) -> Self {
        let dcache_cfg = CacheConfig {
            bytes: cfg.dcache_bytes,
            ways: cfg.dcache_ways,
            latency: cfg.dcache_latency,
            mshrs: 8,
        };
        EmcEngine {
            cfg: *cfg,
            contexts: (0..cfg.contexts).map(|_| None).collect(),
            busy: 0,
            generations: vec![0; cfg.contexts],
            lease: Cycle::MAX,
            sleep_until: Cycle::MAX,
            ready: Vec::new(),
            events: Vec::new(),
            spare: Vec::new(),
            spare_outboxes: Vec::new(),
            dcache: SetAssocCache::new(&dcache_cfg),
            tlbs: (0..cores)
                .map(|_| CircularTlb::new(cfg.tlb_entries))
                .collect(),
            miss_pred: (0..cores)
                .map(|_| MissPredictor::new(cfg.miss_pred_entries, cfg.miss_pred_threshold))
                .collect(),
        }
    }

    /// Reclaim a busy context after `lease` cycles without progress
    /// ([`expire_leases`](EmcEngine::expire_leases)); `None`: never.
    pub fn set_lease(&mut self, lease: Option<Cycle>) {
        self.lease = lease.unwrap_or(Cycle::MAX);
    }

    /// Whether any issue context is free.
    pub fn has_free_context(&self) -> bool {
        self.contexts.iter().any(|c| c.is_none())
    }

    /// Number of issue contexts currently occupied by a chain. The
    /// time-series sampler reads this each epoch as EMC occupancy.
    #[inline]
    pub fn busy_contexts(&self) -> usize {
        self.busy
    }

    /// Total number of issue contexts (occupied or free).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The chain currently occupying `ctx`, if any (the simulator uses
    /// this to map load events back to home-core ROB ids).
    pub fn context_chain(&self, ctx: usize) -> Option<&Chain> {
        self.contexts.get(ctx)?.as_ref().map(|c| &c.chain)
    }

    /// How many chains `ctx` has finished ([`EmcEngine::take_finished`]).
    pub fn generation(&self, ctx: usize) -> u64 {
        self.generations[ctx]
    }

    /// The context whose chain from `core` still waits for the data of
    /// source miss `rob`, and the source's address.
    pub fn awaiting_source(&self, core: CoreId, rob: emc_cpu::RobId) -> Option<(usize, Addr)> {
        self.contexts.iter().enumerate().find_map(|(ctx, c)| {
            let ch = &c.as_ref().filter(|c| !c.source_delivered)?.chain;
            (ch.home_core == core && ch.source_rob == rob).then_some((ctx, ch.source_addr))
        })
    }

    /// Accept a chain into a free context, reserved immediately; the
    /// chain's uops are still in flight on the ring until `active_at`,
    /// before which no uop issues and the lease clock does not run. The
    /// source miss's PTE travels with the chain into the home core's EMC
    /// TLB (§4.1.4), and so does its data if `Chain::source_value` has it.
    ///
    /// # Errors
    ///
    /// Returns the chain back if every context is busy (the caller drops
    /// it; the core simply executes normally), counted in `stats`.
    pub fn start_chain(
        &mut self,
        chain: Chain,
        active_at: Cycle,
        stats: &mut EmcStats,
    ) -> Result<usize, Chain> {
        let Some(slot) = self.contexts.iter().position(|c| c.is_none()) else {
            stats.chains_rejected_busy += 1;
            return Err(chain);
        };
        self.tlbs[chain.home_core].insert(tlb_page(chain.source_addr));
        let spare = self.spare.pop();
        let context = Context::new(chain, self.cfg.prf_entries, active_at, spare);
        self.contexts[slot] = Some(context);
        self.busy += 1;
        self.sleep_until = 0;
        Ok(slot)
    }

    /// Deliver the source miss's data (the DRAM fill reached the memory
    /// controller): execution of the chain can begin next tick (progress).
    pub fn deliver_source(&mut self, ctx: usize, value: u64) {
        self.sleep_until = 0;
        if let Some(c) = self.contexts[ctx].as_mut() {
            c.set_source(value);
            c.progressed = true;
        }
    }

    /// Supply data for a load previously emitted as [`EmcEvent::Load`]
    /// (progress).
    pub fn complete_load(&mut self, ctx: usize, uop: usize, value: u64) {
        self.sleep_until = 0;
        let Some(c) = self.contexts[ctx].as_mut() else {
            return;
        };
        c.progressed = true;
        if c.states[uop] != UopState::Issued {
            return;
        }
        let u = c.chain.uops[uop];
        c.states[uop] = UopState::Done;
        if let Some(d) = u.dst {
            c.prf[d as usize] = value;
            c.prf_ready[d as usize] = true;
        }
        c.outbox.push(ChainResult {
            rob: u.rob,
            value,
            store: None,
        });
    }

    /// Abort a chain from the outside (memory-disambiguation conflict
    /// detected by the simulator, §4.3).
    pub fn force_abort(&mut self, ctx: usize, reason: AbortReason) {
        self.sleep_until = 0;
        if let Some(c) = self.contexts[ctx].as_mut() {
            c.aborted.get_or_insert(reason);
        }
    }

    /// Collect a finished context announced via [`EmcEvent::ChainDone`] /
    /// [`EmcEvent::ChainAborted`], freeing it and advancing its
    /// generation. Results not yet drained are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the context is empty.
    pub fn take_finished(&mut self, ctx: usize) -> FinishedChain {
        self.sleep_until = 0;
        let mut c = self.contexts[ctx].take().expect("context not empty");
        self.busy -= 1;
        self.generations[ctx] += 1;
        let fin = FinishedChain {
            chain: std::mem::take(&mut c.chain),
            active_at: c.active_at,
        };
        self.spare.push(c);
        fin
    }

    /// The once-per-cycle lease pass, before [`tick`](EmcEngine::tick): progress
    /// since the last pass restarts a context's clock at `now`; a lease
    /// run out aborts the chain ([`AbortReason::LeaseExpired`]) and
    /// re-arms the clock, so the abort can drain.
    pub fn expire_leases(&mut self, now: Cycle) {
        for c in self.contexts.iter_mut().flatten() {
            if std::mem::take(&mut c.progressed) {
                c.progress_at = now;
            }
            if now.saturating_sub(c.progress_at) >= self.lease {
                c.aborted.get_or_insert(AbortReason::LeaseExpired);
                c.progress_at = now;
                self.sleep_until = 0;
            }
        }
    }

    /// `(ctx, cycles since its last progress)` of each busy context.
    pub fn context_ages(&self, now: Cycle) -> impl Iterator<Item = (usize, Cycle)> + '_ {
        let busy = self.contexts.iter().enumerate();
        busy.filter_map(move |(ctx, c)| Some((ctx, now.saturating_sub(c.as_ref()?.progress_at))))
    }

    /// Drain the results completed in `ctx` since the last drain (called
    /// by the simulator on [`EmcEvent::Results`]). The buffer may be
    /// handed back through [`recycle_results`](EmcEngine::recycle_results)
    /// once they are consumed.
    pub fn drain_results(&mut self, ctx: usize) -> Vec<ChainResult> {
        self.sleep_until = 0;
        let Some(c) = self.contexts[ctx].as_mut() else {
            return Vec::new();
        };
        let spare = self.spare_outboxes.pop().unwrap_or_default();
        std::mem::replace(&mut c.outbox, spare)
    }

    /// Hand back a buffer [`drain_results`](EmcEngine::drain_results)
    /// returned, for a later drain to reuse.
    pub fn recycle_results(&mut self, mut results: Vec<ChainResult>) {
        results.clear();
        self.spare_outboxes.push(results);
    }

    /// A line arrived from DRAM at this memory controller: fill the EMC
    /// data cache (§4.1.3 — it "holds the most recent lines that have
    /// been transmitted from DRAM to the chip"). Returns the evicted
    /// line, whose LLC directory bit the simulator must clear.
    pub fn on_dram_fill(&mut self, phys_line: LineAddr) -> Option<LineAddr> {
        self.dcache.fill(phys_line, false, false).map(|ev| ev.line)
    }

    /// Coherence: invalidate a line (LLC eviction of a line whose
    /// directory bit is set, or a conflicting store).
    pub fn invalidate_line(&mut self, phys_line: LineAddr) {
        self.dcache.invalidate(phys_line);
    }

    /// Train the per-core LLC miss predictor with an observed outcome.
    pub fn train_miss_predictor(&mut self, core: CoreId, pc: u64, was_miss: bool) {
        self.miss_pred[core].train(pc, was_miss);
    }

    /// The first cycle from `now` at which [`expire_leases`](EmcEngine::expire_leases)
    /// or [`tick`](EmcEngine::tick) may do anything, unless one of
    /// `start_chain`, `deliver_source`, `complete_load`, `force_abort`,
    /// `drain_results` or `take_finished` is called first: the earlier of
    /// the engine's sleep (`Cycle::MAX` when only those calls can give it
    /// work, as for an engine that never held a chain; `now` while it is
    /// awake) and the first lease to run out.
    #[inline]
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        let expiry = |c: &Context| c.progress_at.saturating_add(self.lease);
        let first = self.contexts.iter().flatten().map(expiry).min();
        self.sleep_until.min(first.unwrap_or(Cycle::MAX)).max(now)
    }

    /// Advance one EMC cycle: issue up to `issue_width` ready uops across
    /// all contexts (oldest context first) and announce finished chains.
    ///
    /// Every transition here happens within the cycle that enables it, so
    /// a tick that issued nothing and announced nothing would repeat
    /// unchanged until a caller hands the engine something or a chain in
    /// flight on the ring arrives; the engine sleeps until then. What
    /// executes is counted in `stats`. The list may be handed back
    /// through [`recycle`](EmcEngine::recycle), as most ticks fill none.
    pub fn tick(&mut self, now: Cycle, stats: &mut EmcStats) -> Vec<EmcEvent> {
        let mut events = std::mem::take(&mut self.events);
        if now < self.sleep_until {
            return events;
        }
        let mut issued = 0;
        let mut next_arrival = Cycle::MAX;
        let mut ready = std::mem::take(&mut self.ready);
        for ctx in 0..self.contexts.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let Some(c) = self.contexts[ctx].as_ref() else {
                continue;
            };
            if !c.source_delivered || c.aborted.is_some() {
                continue;
            }
            if now < c.active_at {
                next_arrival = next_arrival.min(c.active_at);
                continue;
            }
            // The cycle's issue set is fixed before any of it executes:
            // a result written this cycle wakes its consumers next cycle.
            ready.clear();
            ready.extend(
                (0..c.chain.uops.len())
                    .filter(|&i| c.uop_ready(i))
                    .take(self.cfg.issue_width - issued),
            );
            for &i in &ready {
                issued += 1;
                self.issue_uop(ctx, i, &mut events, stats);
                if self.contexts[ctx]
                    .as_ref()
                    .is_none_or(|c| c.aborted.is_some())
                {
                    break;
                }
            }
        }
        self.ready = ready;
        // Stream back results completed this cycle, then announce
        // terminal states.
        for ctx in 0..self.contexts.len() {
            let Some(c) = self.contexts[ctx].as_mut() else {
                continue;
            };
            if !c.outbox.is_empty() && c.aborted.is_none() {
                // Results leaving for the home core are progress.
                c.progress_at = now;
                events.push(EmcEvent::Results { ctx });
            }
            if c.announced {
                continue;
            }
            if let Some(reason) = c.aborted {
                c.announced = true;
                events.push(EmcEvent::ChainAborted { ctx, reason });
            } else if c.all_done() {
                c.announced = true;
                stats.chains_executed += 1;
                // Chain latency: ship departure to last uop done here.
                let latency = now.saturating_sub(c.chain.shipped_at);
                stats.chain_latency.record(latency);
                events.push(EmcEvent::ChainDone { ctx });
            }
        }
        if issued == 0 && events.is_empty() {
            self.sleep_until = next_arrival;
        }
        events
    }

    /// Hand back an event list [`tick`](EmcEngine::tick) returned, for a
    /// later tick to fill.
    pub fn recycle(&mut self, mut events: Vec<EmcEvent>) {
        events.clear();
        self.events = events;
    }

    fn issue_uop(
        &mut self,
        ctx: usize,
        i: usize,
        events: &mut Vec<EmcEvent>,
        stats: &mut EmcStats,
    ) {
        let c = self.contexts[ctx].as_mut().expect("context exists");
        let u = c.chain.uops[i];
        stats.uops_executed += 1;
        match u.kind {
            UopKind::Branch(cond) => {
                let v = u.srcs[0].and_then(|s| c.src_value(s)).unwrap_or(0);
                let taken = emc_types::StaticUop::branch_taken(cond, v);
                c.states[i] = UopState::Done;
                if taken != u.predicted_taken {
                    // The core must re-execute the branch locally to
                    // redirect fetch: no result is returned.
                    stats.branch_mispredicts_detected += 1;
                    c.aborted = Some(AbortReason::BranchMispredict);
                } else {
                    c.outbox.push(ChainResult {
                        rob: u.rob,
                        value: u64::from(taken),
                        store: None,
                    });
                }
            }
            UopKind::Store => {
                let (base, value) = {
                    let b = u.srcs[0].and_then(|s| c.src_value(s)).unwrap_or(0);
                    let v = u.srcs[1].and_then(|s| c.src_value(s)).unwrap_or(0);
                    (b, v)
                };
                let addr = Addr(base.wrapping_add(u.imm));
                c.store_buffer.push((addr, value));
                c.states[i] = UopState::Done;
                c.outbox.push(ChainResult {
                    rob: u.rob,
                    value,
                    store: Some((addr, value)),
                });
                stats.stores_executed += 1;
            }
            UopKind::Load => {
                let base = u.srcs[0].and_then(|s| c.src_value(s)).unwrap_or(0);
                let addr = Addr(base.wrapping_add(u.imm));
                let home = c.chain.home_core;
                stats.loads_executed += 1;
                // 1. Virtual address translation (§4.1.4).
                let page = tlb_page(addr);
                if !self.tlbs[home].contains(page) {
                    stats.tlb_misses += 1;
                    // Model the core sending the PTE along with the
                    // re-execution notification, so the next chain to
                    // this page succeeds.
                    self.tlbs[home].insert(page);
                    c.states[i] = UopState::Done;
                    c.aborted = Some(AbortReason::TlbMiss);
                    return;
                }
                stats.tlb_hits += 1;
                // 2. In-chain store forwarding (register fills).
                if let Some(&(_, v)) = c.store_buffer.iter().rev().find(|&&(a, _)| a == addr) {
                    c.states[i] = UopState::Done;
                    if let Some(d) = u.dst {
                        c.prf[d as usize] = v;
                        c.prf_ready[d as usize] = true;
                    }
                    c.outbox.push(ChainResult {
                        rob: u.rob,
                        value: v,
                        store: None,
                    });
                    return;
                }
                // 3. EMC data cache.
                let pline = physical_line(home, addr.line());
                stats.dcache_accesses += 1;
                let route = if self.dcache.access(pline, false).is_some() {
                    stats.dcache_hits += 1;
                    LoadRoute::DcacheHit
                } else if self.miss_pred[home].predict_miss(u.pc) {
                    // 4. Predicted LLC miss: straight to DRAM.
                    stats.direct_to_dram += 1;
                    LoadRoute::DirectDram
                } else {
                    stats.llc_lookups += 1;
                    LoadRoute::Llc
                };
                c.states[i] = UopState::Issued;
                events.push(EmcEvent::Load {
                    ctx,
                    uop: i,
                    home_core: home,
                    vaddr: addr,
                    pc: u.pc,
                    route,
                });
            }
            kind => {
                let (a, b) = c.operands(&u);
                let value = kind.alu(a, b);
                c.states[i] = UopState::Done;
                if let Some(d) = u.dst {
                    c.prf[d as usize] = value;
                    c.prf_ready[d as usize] = true;
                }
                c.outbox.push(ChainResult {
                    rob: u.rob,
                    value,
                    store: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainSrc, ChainUop};
    use emc_types::rng::{seeded_rng, SmallRng};
    use emc_types::BranchCond;

    fn cfg() -> EmcConfig {
        EmcConfig::default()
    }

    /// Chain: E0 = source; add E1 = E0 + 8; ld E2 <- [E1].
    fn simple_chain() -> Chain {
        Chain {
            home_core: 0,
            source_rob: 10,
            source_epr: 0,
            source_addr: Addr(0x100),
            uops: vec![
                ChainUop {
                    rob: 11,
                    kind: UopKind::IntAdd,
                    srcs: [Some(ChainSrc::Epr(0)), None],
                    dst: Some(1),
                    imm: 8,
                    pc: 0x44,
                    predicted_taken: false,
                },
                ChainUop {
                    rob: 12,
                    kind: UopKind::Load,
                    srcs: [Some(ChainSrc::Epr(1)), None],
                    dst: Some(2),
                    imm: 0,
                    pc: 0x48,
                    predicted_taken: false,
                },
            ],
            live_ins: vec![],
            imm_live_ins: 1,
            ..Default::default()
        }
    }

    fn drive_until_event(
        emc: &mut EmcEngine,
        stats: &mut EmcStats,
        pred: impl Fn(&EmcEvent) -> bool,
        max: u64,
    ) -> EmcEvent {
        for now in 0..max {
            for ev in emc.tick(now, stats) {
                if pred(&ev) {
                    return ev;
                }
            }
        }
        panic!("event not produced within {max} ticks");
    }

    /// Drive until the chain in `ctx` completes, draining streamed
    /// results along the way.
    fn drive_collect(
        emc: &mut EmcEngine,
        stats: &mut EmcStats,
        ctx: usize,
        max: u64,
    ) -> Vec<ChainResult> {
        let mut results = Vec::new();
        for now in 0..max {
            for ev in emc.tick(now, stats) {
                match ev {
                    EmcEvent::Results { ctx: c } if c == ctx => {
                        results.extend(emc.drain_results(ctx));
                    }
                    EmcEvent::ChainDone { ctx: c } if c == ctx => {
                        emc.take_finished(ctx);
                        return results;
                    }
                    _ => {}
                }
            }
        }
        panic!("chain did not complete within {max} ticks");
    }

    #[test]
    fn chain_executes_after_source_delivery() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        // No source data yet: nothing happens.
        assert!(emc.tick(0, &mut stats).is_empty());
        emc.deliver_source(ctx, 0x4000);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::Load { .. }),
            10,
        );
        let EmcEvent::Load {
            vaddr, route, uop, ..
        } = ev
        else {
            unreachable!()
        };
        assert_eq!(vaddr, Addr(0x4008), "address = source value + 8");
        assert_eq!(route, LoadRoute::Llc, "cold predictor assumes LLC hit");
        let mut results = emc.drain_results(ctx); // the ADD's result
        emc.complete_load(ctx, uop, 777);
        results.extend(emc.drain_results(ctx));
        let _ = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::ChainDone { .. }),
            10,
        );
        emc.take_finished(ctx);
        results.sort_by_key(|r| r.rob);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0],
            ChainResult {
                rob: 11,
                value: 0x4008,
                store: None
            }
        );
        assert_eq!(
            results[1],
            ChainResult {
                rob: 12,
                value: 777,
                store: None
            }
        );
        assert!(emc.has_free_context());
        assert_eq!(stats.chains_executed, 1);
        assert_eq!(stats.loads_executed, 1);
    }

    #[test]
    fn miss_predictor_routes_direct_to_dram() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        for _ in 0..8 {
            emc.train_miss_predictor(0, 0x48, true);
        }
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::Load { .. }),
            10,
        );
        let EmcEvent::Load { route, .. } = ev else {
            unreachable!()
        };
        assert_eq!(route, LoadRoute::DirectDram);
        assert_eq!(stats.direct_to_dram, 1);
    }

    #[test]
    fn dcache_hit_routes_locally() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        // The line containing 0x4008 arrived from DRAM earlier.
        emc.on_dram_fill(physical_line(0, Addr(0x4008).line()));
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::Load { .. }),
            10,
        );
        let EmcEvent::Load { route, .. } = ev else {
            unreachable!()
        };
        assert_eq!(route, LoadRoute::DcacheHit);
        assert_eq!(stats.dcache_hit_rate(), 1.0);
    }

    #[test]
    fn coherence_invalidation_blocks_dcache_hit() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let pline = physical_line(0, Addr(0x4008).line());
        emc.on_dram_fill(pline);
        emc.invalidate_line(pline);
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::Load { .. }),
            10,
        );
        let EmcEvent::Load { route, .. } = ev else {
            unreachable!()
        };
        assert_ne!(route, LoadRoute::DcacheHit);
    }

    #[test]
    fn tlb_miss_aborts_chain() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let mut chain = simple_chain();
        // Dependent load lands on a far page; source page (0x100) is
        // installed by start_chain but 0x4008's page is not.
        chain.source_addr = Addr(0x100);
        let ctx = emc.start_chain(chain, 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4_0000_0000);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::ChainAborted { .. }),
            10,
        );
        let EmcEvent::ChainAborted { reason, .. } = ev else {
            unreachable!()
        };
        assert_eq!(reason, AbortReason::TlbMiss);
        assert_eq!(stats.tlb_misses, 1);
        // The ADD executed before the load's TLB miss; its residual
        // result is discarded with the context (the core re-executes the
        // whole chain, §4.1.4).
        emc.take_finished(ctx);
        assert!(emc.has_free_context());
    }

    #[test]
    fn branch_mispredict_detected_and_aborts() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let chain = Chain {
            home_core: 1,
            source_rob: 20,
            source_epr: 0,
            source_addr: Addr(0x100),
            uops: vec![ChainUop {
                rob: 21,
                kind: UopKind::Branch(BranchCond::Zero),
                srcs: [Some(ChainSrc::Epr(0)), None],
                dst: None,
                imm: 0,
                pc: 0x80,
                predicted_taken: false, // predicted not-taken
            }],
            live_ins: vec![],
            imm_live_ins: 0,
            ..Default::default()
        };
        let ctx = emc.start_chain(chain, 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0); // value 0 → brz taken → mispredict
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::ChainAborted { .. }),
            10,
        );
        let EmcEvent::ChainAborted { reason, .. } = ev else {
            unreachable!()
        };
        assert_eq!(reason, AbortReason::BranchMispredict);
        assert_eq!(stats.branch_mispredicts_detected, 1);
    }

    #[test]
    fn correctly_predicted_branch_passes() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let chain = Chain {
            home_core: 0,
            source_rob: 20,
            source_epr: 0,
            source_addr: Addr(0x100),
            uops: vec![ChainUop {
                rob: 21,
                kind: UopKind::Branch(BranchCond::NotZero),
                srcs: [Some(ChainSrc::Epr(0)), None],
                dst: None,
                imm: 0,
                pc: 0x80,
                predicted_taken: true,
            }],
            live_ins: vec![],
            imm_live_ins: 0,
            ..Default::default()
        };
        let ctx = emc.start_chain(chain, 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 5);
        let results = drive_collect(&mut emc, &mut stats, ctx, 10);
        assert_eq!(results[0].value, 1);
    }

    #[test]
    fn store_forwarding_within_chain() {
        // st [E0 + 0x10] = E0 ; ld E1 <- [E0 + 0x10]: the fill must
        // forward from the chain LSQ without a memory request.
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let chain = Chain {
            home_core: 0,
            source_rob: 30,
            source_epr: 0,
            source_addr: Addr(0x100),
            uops: vec![
                ChainUop {
                    rob: 31,
                    kind: UopKind::Store,
                    srcs: [Some(ChainSrc::Epr(0)), Some(ChainSrc::Epr(0))],
                    dst: None,
                    imm: 0x10,
                    pc: 0x90,
                    predicted_taken: false,
                },
                ChainUop {
                    rob: 32,
                    kind: UopKind::Load,
                    srcs: [Some(ChainSrc::Epr(0)), None],
                    dst: Some(1),
                    imm: 0x10,
                    pc: 0x94,
                    predicted_taken: false,
                },
            ],
            live_ins: vec![],
            imm_live_ins: 0,
            ..Default::default()
        };
        let ctx = emc.start_chain(chain, 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x2000);
        let mut saw_load_event = false;
        let mut results = Vec::new();
        for now in 0..10 {
            for ev in emc.tick(now, &mut stats) {
                match ev {
                    EmcEvent::Load { .. } => saw_load_event = true,
                    EmcEvent::Results { ctx: c } if c == ctx => {
                        results.extend(emc.drain_results(ctx));
                    }
                    EmcEvent::ChainDone { .. } => {
                        emc.take_finished(ctx);
                        assert!(!saw_load_event, "fill must forward, not issue");
                        results.sort_by_key(|r| r.rob);
                        assert_eq!(results[0].store, Some((Addr(0x2010), 0x2000)));
                        assert_eq!(results[1].value, 0x2000);
                        assert_eq!(stats.stores_executed, 1);
                        return;
                    }
                    _ => {}
                }
            }
        }
        panic!("chain did not finish");
    }

    #[test]
    fn contexts_fill_and_reject() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        assert_eq!(emc.busy_contexts(), 0);
        assert!(emc.start_chain(simple_chain(), 0, &mut stats).is_ok());
        assert_eq!(emc.busy_contexts(), 1);
        assert!(emc.start_chain(simple_chain(), 0, &mut stats).is_ok());
        assert!(!emc.has_free_context(), "default EMC has 2 contexts");
        assert_eq!(emc.busy_contexts(), emc.context_count());
        assert!(emc.start_chain(simple_chain(), 0, &mut stats).is_err());
        assert_eq!(stats.chains_rejected_busy, 1);
    }

    #[test]
    fn issue_width_throttles_alu_throughput() {
        // A chain of 6 independent ALU uops (all read E0): with a 2-wide
        // back-end they need 3 ticks.
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let uops: Vec<ChainUop> = (0..6)
            .map(|k| ChainUop {
                rob: 40 + k as u64,
                kind: UopKind::IntAdd,
                srcs: [Some(ChainSrc::Epr(0)), None],
                dst: Some(1 + k as u8),
                imm: k as u64,
                pc: 0x100 + 4 * k as u64,
                predicted_taken: false,
            })
            .collect();
        let chain = Chain {
            home_core: 0,
            source_rob: 39,
            source_epr: 0,
            source_addr: Addr(0x100),
            uops,
            live_ins: vec![],
            imm_live_ins: 6,
            ..Default::default()
        };
        let ctx = emc.start_chain(chain, 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 100);
        let mut done_tick = None;
        for now in 0..10 {
            for ev in emc.tick(now, &mut stats) {
                if matches!(ev, EmcEvent::ChainDone { .. }) {
                    done_tick = Some(now);
                }
            }
            if done_tick.is_some() {
                break;
            }
        }
        assert_eq!(done_tick, Some(2), "6 uops / 2-wide = 3 ticks (0,1,2)");
    }

    #[test]
    fn force_abort_for_disambiguation() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        emc.force_abort(ctx, AbortReason::Disambiguation);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::ChainAborted { .. }),
            10,
        );
        let EmcEvent::ChainAborted { reason, .. } = ev else {
            unreachable!()
        };
        assert_eq!(reason, AbortReason::Disambiguation);
    }

    // ------------------------------------------------------------------
    // A context's own books: lease clock, generation, awaited source,
    // chain latency.
    // ------------------------------------------------------------------

    /// The lease-clock age of each busy context at `now`.
    fn ages(emc: &EmcEngine, now: Cycle) -> Vec<Cycle> {
        emc.context_ages(now).map(|(_, age)| age).collect()
    }

    #[test]
    fn arrival_starts_the_lease_clock_and_an_early_delivery_moves_it_back() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 50, &mut stats).unwrap();
        emc.expire_leases(20);
        assert_eq!(ages(&emc, 60), [10], "the clock starts at arrival");
        emc.deliver_source(ctx, 0x4000);
        emc.expire_leases(30);
        assert_eq!(ages(&emc, 60), [30], "delivered before arrival");
    }

    #[test]
    fn a_source_shipped_with_the_chain_does_not_restart_the_clock() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let chain = Chain {
            source_value: Some(0x4000),
            ..simple_chain()
        };
        emc.start_chain(chain, 5, &mut stats).unwrap();
        assert_eq!(emc.awaiting_source(0, 10), None, "nothing left to wait for");
        emc.expire_leases(40);
        assert_eq!(ages(&emc, 40), [35]);
        let ev = drive_until_event(
            &mut emc,
            &mut stats,
            |e| matches!(e, EmcEvent::Load { .. }),
            10,
        );
        assert!(matches!(
            ev,
            EmcEvent::Load {
                vaddr: Addr(0x4008),
                ..
            }
        ));
    }

    #[test]
    fn load_completions_and_results_leaving_restart_the_clock() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        emc.expire_leases(0);
        assert_eq!(
            emc.tick(3, &mut stats),
            [EmcEvent::Results { ctx }],
            "the ADD's"
        );
        assert_eq!(ages(&emc, 10), [7]);
        emc.drain_results(ctx);
        let [EmcEvent::Load { uop, .. }] = emc.tick(4, &mut stats)[..] else {
            panic!("the dependent load issues")
        };
        emc.complete_load(ctx, uop, 777);
        emc.expire_leases(9);
        assert_eq!(ages(&emc, 10), [1]);
    }

    #[test]
    fn an_expired_lease_aborts_the_chain_and_rearms_the_clock() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        emc.set_lease(Some(100));
        let ctx = emc.start_chain(simple_chain(), 10, &mut stats).unwrap();
        assert!(emc.tick(0, &mut stats).is_empty());
        assert_eq!(emc.next_wake(1), 110, "asleep until the lease runs out");
        emc.expire_leases(109);
        assert_eq!(emc.next_wake(109), 110);
        emc.expire_leases(110);
        assert_eq!((ages(&emc, 110), emc.next_wake(110)), (vec![0], 110));
        let reason = AbortReason::LeaseExpired;
        assert_eq!(
            emc.tick(110, &mut stats),
            [EmcEvent::ChainAborted { ctx, reason }]
        );
    }

    #[test]
    fn without_a_lease_no_context_is_reclaimed() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        emc.set_lease(Some(100));
        emc.set_lease(None);
        emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        assert!(emc.tick(0, &mut stats).is_empty());
        assert_eq!(emc.next_wake(1), Cycle::MAX);
        emc.expire_leases(1 << 40);
        assert_eq!(ages(&emc, 1 << 40), [1 << 40]);
        assert!(emc.tick(1 << 40, &mut stats).is_empty());
    }

    #[test]
    fn an_engine_that_never_held_a_chain_never_wakes() {
        let emc = EmcEngine::new(&cfg(), 4);
        assert_eq!(emc.next_wake(0), Cycle::MAX);
    }

    #[test]
    fn next_wake_is_the_engines_sleep_when_that_comes_first() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        emc.set_lease(Some(100));
        let ctx = emc.start_chain(simple_chain(), 10, &mut stats).unwrap();
        emc.deliver_source(ctx, 0x4000);
        assert!(emc.tick(0, &mut stats).is_empty());
        assert_eq!(emc.next_wake(1), 10, "the chain arrives before 110");
    }

    #[test]
    fn take_finished_advances_the_generation() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 7, &mut stats).unwrap();
        assert_eq!(emc.generation(ctx), 0);
        emc.force_abort(ctx, AbortReason::Injected);
        let fin = emc.take_finished(ctx);
        assert_eq!((emc.generation(ctx), fin.active_at), (1, 7));
        assert_eq!(emc.generation(1 - ctx), 0, "the other context's is its own");
    }

    #[test]
    fn awaiting_source_stops_matching_once_the_source_is_delivered() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let ctx = emc.start_chain(simple_chain(), 0, &mut stats).unwrap();
        assert_eq!(emc.awaiting_source(0, 10), Some((ctx, Addr(0x100))));
        assert_eq!(emc.awaiting_source(1, 10), None, "another core's");
        assert_eq!(emc.awaiting_source(0, 11), None, "not the source");
        emc.deliver_source(ctx, 0x4000);
        assert_eq!(emc.awaiting_source(0, 10), None);
    }

    #[test]
    fn chain_latency_runs_from_shipping_to_the_last_uop() {
        let mut emc = EmcEngine::new(&cfg(), 4);
        let mut stats = EmcStats::default();
        let mut chain = Chain {
            shipped_at: 3,
            source_value: Some(0x4000),
            ..simple_chain()
        };
        chain.uops.truncate(1); // the ADD alone: done the cycle it arrives
        let ctx = emc.start_chain(chain, 8, &mut stats).unwrap();
        assert_eq!(drive_collect(&mut emc, &mut stats, ctx, 10).len(), 1);
        assert_eq!(stats.chain_latency.mean(), 5.0);
    }

    #[test]
    fn engines_sharing_one_stats_count_what_standalone_emcs_add_up_to() {
        // A System's memory controllers all count into its one `Stats::emc`.
        let chain = |shipped_at| {
            let mut chain = Chain {
                shipped_at,
                source_value: Some(0x4000),
                ..simple_chain()
            };
            chain.uops.truncate(1); // the ADD alone: done the cycle it arrives
            chain
        };
        let mut shared = EmcStats::default();
        let mut engines = [EmcEngine::new(&cfg(), 4), EmcEngine::new(&cfg(), 4)];
        let mut alone = [Emc::new(&cfg(), 4), Emc::new(&cfg(), 4)];
        for (i, shipped_at) in [1, 6].into_iter().enumerate() {
            engines[i]
                .start_chain(chain(shipped_at), 8, &mut shared)
                .unwrap();
            alone[i].start_chain(chain(shipped_at), 8).unwrap();
        }
        for now in 0..10 {
            for (engine, emc) in engines.iter_mut().zip(&mut alone) {
                assert_eq!(engine.tick(now, &mut shared), emc.tick(now));
            }
        }
        let [a, b] = alone.map(|emc| emc.stats);
        assert_eq!(a.chains_executed + b.chains_executed, 2);
        assert_eq!(shared.chains_executed, 2);
        assert_eq!(shared.uops_executed, a.uops_executed + b.uops_executed);
        let mut latency = a.chain_latency;
        latency.merge(&b.chain_latency);
        assert_eq!(shared.chain_latency, latency, "one histogram = the merge");
        assert_eq!(shared.chain_latency.mean(), 4.5);
    }

    // ------------------------------------------------------------------
    // Sleeping: seeded random chains driven with random latencies, an
    // engine ticked only when due against a twin woken before every tick.
    // ------------------------------------------------------------------

    /// 1 to 12 uops over E0 (the source) and the registers earlier uops
    /// wrote; loads stay within the source's 2 MB page most of the time.
    fn random_chain(rng: &mut SmallRng, home_core: CoreId) -> Chain {
        let n = 1 + rng.gen_range(0..12) as usize;
        let mut written = 1u8; // E0
        let uops = (0..n)
            .map(|k| {
                let mut src = || Some(ChainSrc::Epr(rng.gen_range(0..u64::from(written)) as u8));
                let (s0, s1) = (src(), src());
                let roll = rng.gen_range(0..10);
                let (kind, srcs, dst) = match roll {
                    0..=3 => (UopKind::IntAdd, [s0, None], Some(written)),
                    4..=6 => (UopKind::Load, [s0, None], Some(written)),
                    7 => (UopKind::Store, [s0, s1], None),
                    8 => (UopKind::Branch(BranchCond::NotZero), [s0, None], None),
                    _ => (UopKind::Xor, [s0, s1], Some(written)),
                };
                if dst.is_some() {
                    written += 1;
                }
                ChainUop {
                    rob: 100 + k as u64,
                    kind,
                    srcs,
                    dst,
                    imm: if rng.gen_range(0..20) == 0 {
                        1 << 30
                    } else {
                        rng.gen_range(0..64) * 8
                    },
                    pc: 0x400 + 4 * rng.gen_range(0..32),
                    predicted_taken: rng.gen_range(0..8) != 0,
                }
            })
            .collect();
        Chain {
            home_core,
            source_rob: 99,
            source_epr: 0,
            source_addr: Addr(0x10_0000),
            uops,
            live_ins: vec![],
            imm_live_ins: 0,
            ..Default::default()
        }
    }

    #[test]
    fn an_engine_ticked_only_when_due_matches_one_ticked_every_cycle() {
        // A system may leave out the lease pass and the tick of an engine
        // whose `next_wake` has not come: nothing it emits or counts may
        // move. `gated` is driven only when due; its twin every cycle,
        // with its sleep cleared first. The simulator's side acts on both
        // alike: new chains, deliveries, kills and fills. Some loads never
        // come back, so leases run out.
        let mut rng = seeded_rng(0x5eed_0c16);
        let mut gated = EmcEngine::new(&cfg(), 4);
        gated.set_lease(Some(80));
        let mut every = gated.clone();
        let (mut stats, mut every_stats) = (EmcStats::default(), EmcStats::default());
        // (cycle, ctx, what) deliveries still on their way.
        enum Due {
            Source,
            Load { uop: usize },
        }
        let mut due: Vec<(Cycle, usize, Due)> = Vec::new();
        let (mut asleep, mut in_flight_sleeps) = (0u64, 0u64);
        let (mut events_seen, mut expired) = (0u64, 0u64);
        for now in 0..60_000 {
            if rng.gen_range(0..25) == 0 && gated.has_free_context() {
                let home = rng.gen_range(0..4) as usize;
                let chain = random_chain(&mut rng, home);
                let active_at = now + rng.gen_range(0..30);
                let started = gated.start_chain(chain.clone(), active_at, &mut stats);
                let ctx = started.expect("a context is free");
                assert_eq!(
                    every.start_chain(chain, active_at, &mut every_stats).ok(),
                    Some(ctx)
                );
                due.push((now + rng.gen_range(0..100), ctx, Due::Source));
            }
            if rng.gen_range(0..2_000) == 0 {
                let ctx = rng.gen_range(0..gated.context_count() as u64) as usize;
                gated.force_abort(ctx, AbortReason::Injected);
                every.force_abort(ctx, AbortReason::Injected);
            }
            if rng.gen_range(0..50) == 0 {
                let line = physical_line(0, Addr(0x10_0000 + rng.gen_range(0..64) * 8).line());
                assert_eq!(gated.on_dram_fill(line), every.on_dram_fill(line));
            }
            let mut k = 0;
            while k < due.len() {
                if due[k].0 > now {
                    k += 1;
                    continue;
                }
                match due.swap_remove(k) {
                    (_, ctx, Due::Source) => {
                        gated.deliver_source(ctx, 0x10_0000);
                        every.deliver_source(ctx, 0x10_0000);
                    }
                    (_, ctx, Due::Load { uop }) => {
                        let v = 0x10_0000 + rng.gen_range(0..4096) * 8;
                        gated.complete_load(ctx, uop, v);
                        every.complete_load(ctx, uop, v);
                    }
                }
            }
            every.sleep_until = 0;
            every.expire_leases(now);
            let events = every.tick(now, &mut every_stats);
            let wake = gated.next_wake(now);
            if wake <= now {
                gated.expire_leases(now);
                assert_eq!(gated.tick(now, &mut stats), events, "cycle {now}");
            } else {
                assert!(events.is_empty(), "asleep at {now}, yet {events:?}");
                asleep += 1;
                in_flight_sleeps += u64::from(wake != Cycle::MAX);
            }
            assert_eq!(stats.uops_executed, every_stats.uops_executed);
            events_seen += events.len() as u64;
            for ev in events {
                match ev {
                    EmcEvent::Load { ctx, uop, .. } if rng.gen_range(0..25) > 0 => {
                        due.push((now + 1 + rng.gen_range(0..60), ctx, Due::Load { uop }));
                    }
                    EmcEvent::Load { .. } => {}
                    EmcEvent::Results { ctx } => {
                        assert_eq!(gated.drain_results(ctx), every.drain_results(ctx));
                    }
                    EmcEvent::ChainDone { ctx } | EmcEvent::ChainAborted { ctx, .. } => {
                        let lease = AbortReason::LeaseExpired;
                        expired += u64::from(ev == EmcEvent::ChainAborted { ctx, reason: lease });
                        due.retain(|d| d.1 != ctx);
                        let (a, b) = (gated.take_finished(ctx), every.take_finished(ctx));
                        assert_eq!((a.chain.uops, a.active_at), (b.chain.uops, b.active_at));
                    }
                }
            }
        }
        assert_eq!(format!("{stats:?}"), format!("{every_stats:?}"));
        assert!(stats.chains_executed > 200, "chains ran to completion");
        assert!(expired > 20, "{expired} leases ran out");
        assert!(events_seen > 5_000, "{events_seen} events");
        assert!(asleep > 30_000, "{asleep} of 60 000 ticks left out");
        assert!(
            in_flight_sleeps > 100,
            "slept {in_flight_sleeps} cycles toward an arrival"
        );
    }
}
