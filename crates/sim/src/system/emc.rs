//! The EMC path: chains shipped from their home core to the EMC of the
//! controller that owns their source miss, the loads they issue there
//! (to the EMC's data cache, the LLC or straight to DRAM), data returned
//! to them, and their results or aborts sent home (paper §4).

use super::{Stop, System};
use crate::events::{EmcLoad, Ev};
use emc_core::{AbortReason, EmcEngine, EmcEvent, LoadRoute};
use emc_cpu::{EntryState, RobId};
use emc_ring::RingKind::{Control, Data};
use emc_types::{
    physical_line, Addr, CoreId, Cycle, LineAddr, MemReq, Requester, TraceTrack, UopKind,
    CACHE_LINE_BYTES,
};

impl System {
    /// If the chain `core` has in flight still waits for load `rob` as
    /// its source miss, hand the data to its EMC context.
    pub(super) fn deliver_awaited_source(&mut self, core: CoreId, rob: RobId) {
        for mc in 0..self.emcs.len() {
            if let Some((ctx, addr)) = self.emcs[mc].awaiting_source(core, rob) {
                let value = self.source_value(core, rob, addr);
                self.emcs[mc].deliver_source(ctx, value);
                return;
            }
        }
    }

    /// Return data that reached the chip at controller `from_mc` to the
    /// EMC running `load`: the next cycle if that is the same controller,
    /// else over the ring (a cross-channel dependency, §4.4). Returns
    /// the cycle the load completes.
    pub(super) fn data_to_emc(&mut self, from_mc: usize, load: EmcLoad) -> Cycle {
        let value = self.cores[load.core].mem.read_u64(load.vaddr);
        let at = if load.mc == from_mc {
            self.now + 1
        } else {
            self.hop(Data, Stop::Mc(from_mc), Stop::Mc(load.mc), self.now, true)
        };
        self.schedule(at, Ev::EmcLoadDone { load, value });
        at
    }

    /// Value of a chain's source miss `rob`, loading from `addr`: the home
    /// core's entry result if the entry is still in flight, else re-read
    /// from the functional image.
    fn source_value(&self, core: CoreId, rob: RobId, addr: Addr) -> u64 {
        if let Some(e) = self.cores[core].entry(rob) {
            if e.uop().kind == UopKind::Load && e.state() != EntryState::Waiting {
                return e.result();
            }
        }
        self.cores[core].mem.read_u64(addr)
    }

    pub(super) fn tick_emcs(&mut self) {
        if !self.cfg.emc.enabled {
            return;
        }
        // Nothing to do while every engine sleeps. A sleeping engine's
        // lease pass is due no sooner either: `next_wake` counts the first
        // lease to run out, and every call that marks a context's progress
        // (which the pass dates at `now`) also wakes the engine.
        let now = self.now;
        let idle = |emc: &EmcEngine| emc.next_wake(now) > now;
        if self.emc_fault.is_none() && self.emcs.iter().all(idle) {
            return;
        }
        // Context leases, on every EMC before anything else: a shipped
        // chain that has made no progress for the whole lease window is
        // deterministically killed; the abort rides the normal chain-abort
        // path, so the home core re-executes the chain locally and
        // architectural state is unaffected. The quiesce machinery then
        // backs chain generation off on repeats.
        for emc in &mut self.emcs {
            emc.expire_leases(self.now);
        }
        // Fault injection: kill busy contexts mid-chain. The abort rides
        // the normal chain-abort path (home core re-executes locally), so
        // only timing is perturbed.
        if let Some((prob, mut rng)) = self.emc_fault.take() {
            for mc in 0..self.emcs.len() {
                for ctx in 0..self.cfg.emc.contexts {
                    if self.emcs[mc].context_chain(ctx).is_some() && rng.gen_bool(prob) {
                        self.emcs[mc].force_abort(ctx, AbortReason::Injected);
                    }
                }
            }
            self.emc_fault = Some((prob, rng));
        }
        for mc in 0..self.emcs.len() {
            let mut events = self.emcs[mc].tick(self.now, &mut self.stats.emc);
            for ev in events.drain(..) {
                match ev {
                    EmcEvent::Load {
                        ctx,
                        uop,
                        home_core,
                        vaddr,
                        pc,
                        route,
                    } => {
                        // `tag` is the context's generation as this
                        // event is handled, whatever the batch's order.
                        let load = EmcLoad {
                            mc,
                            ctx,
                            tag: self.emcs[mc].generation(ctx),
                            uop,
                            core: home_core,
                            vaddr,
                        };
                        self.on_emc_load(load, pc, route);
                    }
                    EmcEvent::Results { ctx } => self.on_emc_results(mc, ctx),
                    EmcEvent::ChainDone { ctx } => self.on_chain_done(mc, ctx),
                    EmcEvent::ChainAborted { ctx, reason } => {
                        self.on_chain_aborted(mc, ctx, reason)
                    }
                }
            }
            self.emcs[mc].recycle(events);
        }
    }

    fn on_emc_load(&mut self, load: EmcLoad, pc: u64, route: LoadRoute) {
        let (mc, ctx, core, vaddr) = (load.mc, load.ctx, load.core, load.vaddr);
        // Memory disambiguation against the home core's older stores
        // (§4.3): conflicting or unresolved older store → cancel.
        let rob = self.emcs[mc]
            .context_chain(ctx)
            .map(|c| c.uops[load.uop].rob)
            .expect("chain present");
        let conflict = self.cores[core].rob_iter().any(|e| {
            e.id() < rob
                && e.uop().kind == UopKind::Store
                && !e.remote()
                && (e.addr().is_none() || e.addr() == Some(vaddr))
        });
        if conflict {
            self.cores[core].stats.chains_cancelled_disambiguation += 1;
            self.emcs[mc].force_abort(ctx, AbortReason::Disambiguation);
            return;
        }
        let pline = physical_line(core, vaddr.line());
        let slice = self.slice_of(pline);
        let via_llc = match route {
            LoadRoute::DcacheHit => {
                let value = self.cores[core].mem.read_u64(vaddr);
                let lat = self.cfg.emc.dcache_latency;
                self.schedule(self.now + lat, Ev::EmcLoadDone { load, value });
                return;
            }
            LoadRoute::Llc => true,
            LoadRoute::DirectDram => {
                // The MC's home agent consults the coherence directory
                // before touching DRAM; a mispredicted bypass of an
                // LLC-resident line is redirected to the LLC instead of
                // wasting a DRAM fetch (and risking staleness).
                let was_present = self.llc[slice].probe(pline).is_some();
                self.emcs[mc].train_miss_predictor(core, pc, !was_present);
                was_present
            }
        };
        if via_llc {
            let arrive = self.hop(Control, Stop::Mc(mc), Stop::Llc(slice), self.now, true);
            let ring_cycles = arrive - self.now;
            self.schedule(
                arrive,
                Ev::EmcLlcReq {
                    load,
                    pc,
                    ring_cycles,
                },
            );
        } else {
            self.stats.emc.llc_misses_generated += 1;
            self.send_emc_req_to_dram(load, pline, pc, 0, 0);
        }
    }

    /// Fetch `pline` from DRAM for `load`, which has spent `ring_cycles`
    /// and `cache_cycles` finding out that it must.
    fn send_emc_req_to_dram(
        &mut self,
        load: EmcLoad,
        pline: LineAddr,
        pc: u64,
        ring_cycles: Cycle,
        cache_cycles: Cycle,
    ) {
        // Merge onto any outstanding fetch of the same line (the MC
        // snoops its own queue; chain loads often share a node line).
        if self.in_flight.merge_emc(pline, load) {
            return;
        }
        let id = self.new_req_id();
        let requester = Requester::Emc {
            home_core: load.core,
            mc: load.mc,
        };
        let mut req = MemReq::read(id, pline, requester, pc, self.now);
        req.timeline.ring_cycles = ring_cycles;
        req.timeline.cache_cycles = cache_cycles;
        self.in_flight.track(pline, None, Some(load));
        let owner = self.mc_of_line(pline);
        let arrive = if owner == load.mc {
            // The EMC is colocated with the memory queue: no ring hop.
            self.now + 1
        } else {
            // Cross-channel dependency: EMC→EMC direct (§4.4).
            self.hop(Control, Stop::Mc(load.mc), Stop::Mc(owner), self.now, true)
        };
        self.schedule(arrive, Ev::McArrive { mc: owner, req });
    }

    pub(super) fn on_emc_llc_req(&mut self, load: EmcLoad, pc: u64, ring_cycles: Cycle) {
        let (mc, core, vaddr) = (load.mc, load.core, load.vaddr);
        if self.emcs[mc].generation(load.ctx) != load.tag {
            return; // chain finished/aborted while the request was in flight
        }
        let pline = physical_line(core, vaddr.line());
        let slice = self.slice_of(pline);
        let lat = self.llc[slice].latency;
        if let Some(hit) = self.llc[slice].access(pline, false) {
            self.emcs[mc].train_miss_predictor(core, pc, false);
            if hit.first_use_of_prefetch {
                self.credit_prefetch(core, None);
                self.stats.emc.requests_covered_by_prefetch += 1;
            }
            let value = self.cores[core].mem.read_u64(vaddr);
            let back = self.hop(Data, Stop::Llc(slice), Stop::Mc(mc), self.now + lat, true);
            self.schedule(back, Ev::EmcLoadDone { load, value });
            return;
        }
        self.emcs[mc].train_miss_predictor(core, pc, true);
        self.stats.emc.llc_misses_generated += 1;
        self.send_emc_req_to_dram(load, pline, pc, ring_cycles, lat);
    }

    /// Ship the results completed this cycle back to the home core as
    /// one data-ring message (incremental live-out return).
    fn on_emc_results(&mut self, mc: usize, ctx: usize) {
        let core = (self.emcs[mc].context_chain(ctx))
            .expect("a context with results holds a chain")
            .home_core;
        let results = self.emcs[mc].drain_results(ctx);
        self.cores[core].stats.chain_live_outs += results.len() as u64;
        let arrive = self.hop(Data, Stop::Mc(mc), Stop::Core(core), self.now, true);
        self.schedule(arrive, Ev::ChainResults { mc, core, results });
    }

    /// Free a finished context. Its last results left in the same tick,
    /// ahead of this event (`EmcEngine::tick` announces `Results` first).
    fn on_chain_done(&mut self, mc: usize, ctx: usize) {
        let fin = self.emcs[mc].take_finished(ctx);
        if self.trace.is_enabled() {
            self.trace.span(
                TraceTrack::EmcCtx { mc, ctx },
                "chain execute",
                fin.active_at.min(self.now),
                self.now,
                vec![("uops", fin.chain.uops.len() as u64)],
            );
        }
        self.units[fin.chain.home_core].done(fin.chain);
    }

    fn on_chain_aborted(&mut self, mc: usize, ctx: usize, reason: AbortReason) {
        let fin = self.emcs[mc].take_finished(ctx);
        self.trace.span(
            TraceTrack::EmcCtx { mc, ctx },
            "chain aborted",
            fin.active_at.min(self.now),
            self.now,
            vec![],
        );
        let core = fin.chain.home_core;
        self.units[core].aborted(self.now, reason, &mut self.cores[core].stats);
        let arrive = self.hop(Control, Stop::Mc(mc), Stop::Core(core), self.now, true);
        self.schedule(arrive, Ev::ChainAbortAtCore { chain: fin.chain });
    }

    /// Ship the chain each core's unit generates this cycle, if any, to
    /// the EMC of the controller that owns its source miss's line.
    pub(super) fn ship_chains(&mut self) {
        for core in 0..self.cfg.cores {
            if self.units[core].next_wake(&self.cores[core], self.now) > self.now {
                continue;
            }
            let any_free = || self.emcs.iter().any(EmcEngine::has_free_context);
            let Some((mut chain, gen_cycles)) =
                self.units[core].generate(&self.cores[core], core, self.now, any_free)
            else {
                continue;
            };
            let source_pline = physical_line(core, chain.source_addr.line());
            let dest_mc = self.mc_of_line(source_pline);
            // The EMC advertises context availability on the control
            // ring; the context is reserved at generation time and the
            // chain's arrival over the data ring gates execution.
            if !self.emcs[dest_mc].has_free_context() {
                self.units[core].busy(self.now, chain);
                continue;
            }
            let (source_rob, uops) = (chain.source_rob, chain.uops.len());
            // Source data may already be on chip (or the load done): then
            // it ships with the chain.
            let already = (self.cores[core].entry(source_rob))
                .is_none_or(|e| e.on_chip() || e.state() == EntryState::Done);
            chain.source_value =
                already.then(|| self.source_value(core, source_rob, chain.source_addr));
            let stats = &mut self.cores[core].stats;
            self.units[core].shipped(&chain, self.now, gen_cycles, stats);
            self.cores[core].mark_remote(chain.uops.iter().map(|u| u.rob));
            // Ship: 6 B/uop + live-ins, over the data ring (§6.5).
            let msgs = chain.transfer_bytes().div_ceil(CACHE_LINE_BYTES).max(1);
            let start = self.now + gen_cycles;
            let mut arrive = start;
            for _ in 0..msgs {
                arrive = self.hop(Data, Stop::Core(core), Stop::Mc(dest_mc), start, true);
            }
            chain.shipped_at = start;
            let ctx = (self.emcs[dest_mc].start_chain(chain, arrive, &mut self.stats.emc))
                .expect("a context is free");
            if self.trace.is_enabled() {
                self.trace.span(
                    TraceTrack::EmcCtx { mc: dest_mc, ctx },
                    "chain ship",
                    start,
                    arrive,
                    vec![("core", core as u64), ("uops", uops as u64)],
                );
            }
        }
    }
}
