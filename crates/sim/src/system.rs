//! The full-system cycle simulator: cores, private L1s, a sliced shared
//! LLC on a bi-directional ring, one or two (enhanced) memory controllers
//! with PAR-BS scheduling over DDR3 channels, per-core prefetch engines
//! with FDP throttling, and the EMC chain-generation/remote-execution
//! flow (paper Figures 7 and 11).
//!
//! This file holds the machine, its one static schedule in
//! [`System::tick`], and the core-side miss path: core → L1 → LLC slice
//! → memory controller → DRAM → LLC fill → core. The rest of `System`
//! lives beside it, one concern per file:
//!
//! - `system/emc.rs`: the EMC path, chain shipping to the loads a chain
//!   issues and the results or aborts it sends home;
//! - `system/run.rs`: the run loop and skip-ahead, sampling, and the
//!   report and post-mortem of a run that stops.

mod emc;
mod run;

use crate::events::{Ev, EventQueue};
use crate::inflight::InFlight;
use crate::mc_queues::McQueues;
use crate::measure::Measure;
use crate::metrics::Sampler;
use crate::profile::{Phase, ProfileReport, TickProfiler};
use emc_cache::SetAssocCache;
use emc_core::{ChainUnit, EmcEngine};
use emc_cpu::{Core, CoreEvent, RobId};
use emc_dram::map_line;
use emc_prefetch::PrefetchEngine;
use emc_ring::RingKind::{self, Control, Data};
use emc_ring::{Ring, Topology};
use emc_types::rng::{seeded_rng, substream, SmallRng};
use emc_types::{
    line_owner, physical_line, AccessKind, Addr, CoreId, Cycle, LineAddr, MemReq, MetricSample,
    MissJourney, PrefetcherKind, ReqId, Requester, Stats, SystemConfig, TraceSink,
};
use emc_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Fault-injection RNG stream identifiers (decorrelated from the
/// workload streams, which use small indices `0..cores`).
const FAULT_STREAM_RING: u64 = 0xF001;
const FAULT_STREAM_EMC_KILL: u64 = 0xF200;

/// Why a [`System`] could not be constructed from its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The [`SystemConfig`] failed validation (the message names the
    /// offending field).
    InvalidConfig(String),
    /// The number of workloads does not match `cfg.cores`.
    WorkloadMismatch {
        /// Workloads supplied by the caller.
        workloads: usize,
        /// Cores the configuration asks for.
        cores: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            BuildError::WorkloadMismatch { workloads, cores } => write!(
                f,
                "workload count ({workloads}) does not match configured cores ({cores}); \
                 supply exactly one workload per core"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// A ring stop, named by what sits at it.
#[derive(Clone, Copy)]
enum Stop {
    Core(CoreId),
    Llc(usize),
    Mc(usize),
}

/// The simulated system.
pub struct System {
    /// Configuration this system was built with, read once by
    /// [`new`](Self::new) and by the run loop: private, so that it cannot
    /// be changed after the build and only half apply.
    cfg: SystemConfig,
    now: Cycle,
    cores: Vec<Core>,
    /// Benchmark names per core (reporting).
    pub bench_names: Vec<String>,
    l1d: Vec<SetAssocCache>,
    llc: Vec<SetAssocCache>,
    ring: Ring,
    /// The memory controllers and the requests their queues rejected.
    mc_queues: McQueues,
    emcs: Vec<EmcEngine>,
    prefetchers: Vec<PrefetchEngine>,
    /// Each core's chain generation unit.
    units: Vec<ChainUnit>,
    /// EMC context-kill fault stream, armed iff the fault plan enables
    /// `emc_kill_prob`.
    emc_fault: Option<(f64, SmallRng)>,
    /// The messages on their way, each due at the cycle it arrives.
    pending: EventQueue,
    /// Lines on their way to or from DRAM, and the loads waiting for them.
    in_flight: InFlight,
    next_req: u64,
    /// Accumulated system statistics (cores filled at snapshot time).
    pub stats: Stats,
    trace: TraceSink,
    sampler: Sampler,
    profiler: TickProfiler,
    /// Where measurement started, each core's budget snapshot, and the
    /// watchdog.
    measure: Measure,
    scratch_events: Vec<CoreEvent>,
    scratch_lines: Vec<LineAddr>,
    /// Cycles `run` and `run_with_warmup` jumped over instead of ticking.
    skipped_cycles: u64,
}

impl System {
    /// Build a system running one workload per core. Each workload's
    /// program and memory image move into its core; neither is copied.
    ///
    /// Returns a [`BuildError`] (rather than panicking) if the config
    /// fails validation or the workload count differs from `cfg.cores`.
    pub fn new(cfg: SystemConfig, workloads: Vec<Workload>) -> Result<Self, BuildError> {
        cfg.validate()
            .map_err(|e| BuildError::InvalidConfig(e.to_string()))?;
        if workloads.len() != cfg.cores {
            return Err(BuildError::WorkloadMismatch {
                workloads: workloads.len(),
                cores: cfg.cores,
            });
        }
        let topo = Topology {
            cores: cfg.cores,
            mcs: cfg.memory_controllers,
        };
        let (bench_names, cores): (Vec<String>, Vec<Core>) = workloads
            .into_iter()
            .map(|w| {
                let core = Core::new(&cfg.core, Arc::new(w.program), w.memory);
                (w.bench.name().to_string(), core)
            })
            .unzip();
        let mut emc = EmcEngine::new(&cfg.emc, cfg.cores);
        emc.set_lease(cfg.liveness.enabled.then_some(cfg.liveness.emc_lease));
        let emcs = vec![emc; cfg.memory_controllers];
        let mut ring = Ring::new(topo, cfg.ring);
        ring.set_fault_plan(&cfg.faults, substream(cfg.seed, FAULT_STREAM_RING));
        let emc_fault = (cfg.faults.enabled && cfg.faults.emc_kill_prob > 0.0).then(|| {
            let rng = seeded_rng(substream(cfg.seed, FAULT_STREAM_EMC_KILL));
            (cfg.faults.emc_kill_prob, rng)
        });
        Ok(System {
            now: 0,
            l1d: (0..cfg.cores)
                .map(|_| SetAssocCache::new(&cfg.l1))
                .collect(),
            llc: (0..cfg.cores)
                .map(|_| SetAssocCache::new(&cfg.llc_slice))
                .collect(),
            ring,
            mc_queues: McQueues::new(&cfg),
            emcs,
            prefetchers: (0..cfg.cores)
                .map(|_| PrefetchEngine::new(cfg.prefetcher, &cfg.prefetch))
                .collect(),
            units: vec![ChainUnit::new(&cfg.emc); cfg.cores],
            emc_fault,
            pending: EventQueue::default(),
            in_flight: InFlight::default(),
            next_req: 0,
            stats: Stats::new(cfg.cores),
            trace: TraceSink::disabled(),
            sampler: Sampler::default(),
            profiler: TickProfiler::disabled(),
            measure: Measure::new(cfg.cores),
            scratch_events: Vec::new(),
            scratch_lines: Vec::new(),
            skipped_cycles: 0,
            cores,
            bench_names,
            cfg,
        })
    }

    /// The configuration this system was built with.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// How many of the cycles up to [`now`](Self::now) were jumped over
    /// by `run`/`run_with_warmup` rather than ticked, because no
    /// component could act in them.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Read access to a core (final architectural state, statistics).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn core(&self, idx: CoreId) -> &Core {
        &self.cores[idx]
    }

    // ==================================================================
    // Observability
    // ==================================================================

    /// Enable miss-journey tracing with the default event cap. Until
    /// this is called the sink is disabled and every trace call site
    /// costs one predictable branch.
    pub fn enable_tracing(&mut self) {
        self.trace = TraceSink::enabled();
    }

    /// The trace sink: journey records, buffered events, drop count,
    /// and the Chrome-trace exporter.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Set the time-series sampling interval in cycles. 0 disables
    /// sampling entirely; the default is one sample per 10 k cycles
    /// (which feeds wedge-report history at negligible cost).
    pub fn set_sample_interval(&mut self, interval: Cycle) {
        self.sampler.set_interval(interval);
    }

    /// Captured time-series samples, oldest first.
    pub fn samples(&self) -> &[MetricSample] {
        self.sampler.samples()
    }

    /// Enable the host-side per-phase tick profiler, measuring one tick
    /// in every `stride` (0 disables again). Until this is called every
    /// phase boundary costs one predictable branch and no clock read;
    /// the profiler never touches simulated state, so enabling it
    /// cannot change results (see `crate::profile`).
    pub fn enable_profiling(&mut self, stride: u32) {
        self.profiler = TickProfiler::with_stride(stride);
    }

    /// Snapshot the host-side phase breakdown (all zeros unless
    /// [`enable_profiling`](Self::enable_profiling) was called).
    pub fn profile_report(&self) -> ProfileReport {
        self.profiler.report()
    }

    /// Fire `ev` at cycle `at`, and never in the current one.
    fn schedule(&mut self, at: Cycle, ev: Ev) {
        self.pending.schedule(self.now, at, ev);
    }

    /// Send one message over the ring, `emc` saying whether it is EMC
    /// traffic; the cycle it arrives. The only caller of [`Ring::send`].
    fn hop(&mut self, kind: RingKind, from: Stop, to: Stop, at: Cycle, emc: bool) -> Cycle {
        let topo = self.ring.topology();
        let stop = |s| match s {
            Stop::Core(c) => topo.core_stop(c),
            Stop::Llc(slice) => topo.llc_stop(slice),
            Stop::Mc(m) => topo.mc_stop(m),
        };
        self.ring
            .send(kind, stop(from), stop(to), at, emc, &mut self.stats.ring)
    }

    fn new_req_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    fn mc_of_line(&self, pline: LineAddr) -> usize {
        self.cfg
            .mc_of_channel(map_line(pline, &self.cfg.dram).channel)
    }

    fn slice_of(&self, pline: LineAddr) -> usize {
        self.ring.topology().llc_slice_of(pline)
    }

    /// Credit `core`'s prefetcher with the first demand use of a line it
    /// prefetched, training it on `line` if given.
    fn credit_prefetch(&mut self, core: CoreId, line: Option<LineAddr>) {
        self.prefetchers[core].on_useful();
        if let Some(line) = line {
            self.prefetchers[core].train_on_prefetch_hit(line);
        }
        self.stats.prefetch.useful += 1;
    }

    /// One simulation cycle. Each sub-phase is bracketed by the host
    /// profiler (one branch per boundary when profiling is off; a
    /// single clock read per boundary on sampled ticks when on).
    pub fn tick(&mut self, budget: u64) {
        self.profiler.begin_tick();
        let t = self.profiler.phase_start();
        self.drain_events();
        let t = self.profiler.phase_mark(Phase::Events, t);
        self.tick_mcs();
        let t = self.profiler.phase_mark(Phase::Mcs, t);
        self.tick_emcs();
        let t = self.profiler.phase_mark(Phase::Emcs, t);
        self.ship_chains();
        let t = self.profiler.phase_mark(Phase::ChainGen, t);
        self.drain_prefetchers();
        let t = self.profiler.phase_mark(Phase::Prefetch, t);
        self.tick_cores();
        let t = self.profiler.phase_mark(Phase::Cores, t);
        self.observe();
        self.measure.take(self.now, budget, &self.cores);
        self.profiler.phase_end(Phase::Observe, t);
        self.now += 1;
    }

    // ==================================================================
    // Cores
    // ==================================================================

    fn tick_cores(&mut self) {
        for c in 0..self.cfg.cores {
            self.cores[c].tick(self.now, &mut self.scratch_events);
            // Events are `Copy`: read them in place, then clear.
            for i in 0..self.scratch_events.len() {
                match self.scratch_events[i] {
                    CoreEvent::LoadIssued { rob, addr, pc } => self.on_core_load(c, rob, addr, pc),
                    CoreEvent::StoreRetired { addr } => self.on_store_retired(c, addr),
                }
            }
            self.scratch_events.clear();
        }
    }

    fn on_core_load(&mut self, core: CoreId, rob: RobId, vaddr: Addr, pc: u64) {
        let pline = physical_line(core, vaddr.line());
        self.cores[core].stats.l1d_accesses += 1;
        if self.l1d[core].access(pline, false).is_some() {
            let lat = self.l1d[core].latency;
            self.schedule(self.now + lat, Ev::L1Done { core, rob });
            return;
        }
        self.cores[core].stats.l1d_misses += 1;
        // Merge into an outstanding DRAM-bound miss if one exists (an
        // MSHR merge: it waits like a miss but is not a new one).
        if self.in_flight.merge_core(pline, (core, rob)) {
            self.cores[core].mark_llc_miss_merged(rob);
            return;
        }
        let slice = self.slice_of(pline);
        let start = self.now + self.l1d[core].latency;
        let arrive = self.hop(Control, Stop::Core(core), Stop::Llc(slice), start, false);
        self.schedule(
            arrive,
            Ev::LlcReq {
                core,
                rob,
                pline,
                pc,
                created: self.now,
                ring_cycles: arrive - start,
            },
        );
    }

    fn on_store_retired(&mut self, core: CoreId, vaddr: Addr) {
        let pline = physical_line(core, vaddr.line());
        // L1 is write-through (Table 1): update if present, no allocate.
        self.l1d[core].access(pline, true);
        // Write-through traffic updates the LLC copy (write-allocate).
        let slice = self.slice_of(pline);
        if let Some(hit) = self.llc[slice].access(pline, true) {
            if hit.flags.emc_resident {
                let mc = self.mc_of_line(pline);
                self.emcs[mc].invalidate_line(pline);
                self.llc[slice].set_emc_resident(pline, false);
            }
        } else if let Some(ev) = self.llc[slice].fill(pline, true, false) {
            self.handle_llc_eviction(ev);
        }
    }

    // ==================================================================
    // Event handlers
    // ==================================================================

    fn drain_events(&mut self) {
        while let Some(ev) = self.pending.pop_due(self.now) {
            self.handle_event(ev);
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::L1Done { core, rob } => self.cores[core].complete_load(rob, self.now),
            Ev::LlcReq {
                core,
                rob,
                pline,
                pc,
                created,
                ring_cycles,
            } => self.on_llc_req(core, rob, pline, pc, created, ring_cycles),
            Ev::LlcDone { core, rob, pline } => {
                self.l1d[core].fill(pline, false, false);
                self.cores[core].complete_load(rob, self.now);
            }
            Ev::McArrive { mc, req } => {
                (self.mc_queues).arrive(mc, req, self.now, &mut self.in_flight)
            }
            Ev::FillAtLlc { req } => self.on_fill_at_llc(req),
            Ev::CoreDeliver { req, waiters } => self.on_core_deliver(req, waiters),
            Ev::EmcLlcReq {
                load,
                pc,
                ring_cycles,
            } => self.on_emc_llc_req(load, pc, ring_cycles),
            Ev::EmcLoadDone { load, value } => {
                let emc = &mut self.emcs[load.mc];
                if emc.generation(load.ctx) == load.tag {
                    emc.complete_load(load.ctx, load.uop, value);
                }
            }
            Ev::ChainResults { mc, core, results } => {
                for r in results.iter() {
                    self.cores[core].complete_remote(r.rob, r.value, r.store, self.now);
                }
                self.emcs[mc].recycle_results(results);
            }
            Ev::ChainAbortAtCore { chain } => {
                let core = chain.home_core;
                self.cores[core].unmark_remote(chain.uops.iter().map(|u| u.rob));
                self.units[core].returned(chain);
            }
        }
    }

    fn on_llc_req(
        &mut self,
        core: CoreId,
        rob: RobId,
        pline: LineAddr,
        pc: u64,
        created: Cycle,
        ring_cycles: Cycle,
    ) {
        self.cores[core].stats.llc_accesses += 1;
        let slice = self.slice_of(pline);
        let lat = self.llc[slice].latency;
        let depart = self.now + lat;
        let hit = self.llc[slice].access(pline, false);
        if hit.is_some_and(|h| h.first_use_of_prefetch) {
            // Keep streams advancing once prefetches start covering
            // the demand stream (train on prefetched hits, as FDP's
            // L2-access training does).
            self.credit_prefetch(core, Some(pline));
            self.cores[core].stats.prefetch_covered_misses += 1;
            self.cores[core].note_dependent_covered_by_prefetch(rob);
        }
        // Another request to the same line may have raced us here.
        if hit.is_none() && self.in_flight.merge_core(pline, (core, rob)) {
            self.cores[core].mark_llc_miss_merged(rob);
            return;
        }
        // Figure 2 limit study: dependent misses become LLC hits.
        let ideal = self.cfg.ideal_dependent_hits && self.cores[core].load_is_dependent(rob);
        if hit.is_some() || ideal {
            let back = self.hop(Data, Stop::Llc(slice), Stop::Core(core), depart, false);
            self.schedule(back, Ev::LlcDone { core, rob, pline });
            return;
        }
        self.cores[core].stats.llc_misses += 1;
        self.cores[core].mark_llc_miss(rob);
        let dependent = self.cores[core].load_is_dependent(rob);
        self.units[core].on_llc_miss(dependent);
        self.prefetchers[core].train(pline, pc);
        let id = self.new_req_id();
        let mut req = MemReq::read(id, pline, Requester::Core(core), pc, created);
        req.timeline.llc_arrive = Some(self.now);
        self.in_flight.track(pline, Some((core, rob)), None);
        let mc = self.mc_of_line(pline);
        let arrive = self.hop(Control, Stop::Llc(slice), Stop::Mc(mc), depart, false);
        req.timeline.ring_cycles = ring_cycles + (arrive - depart);
        req.timeline.cache_cycles = lat;
        self.schedule(arrive, Ev::McArrive { mc, req });
    }

    fn handle_llc_eviction(&mut self, ev: emc_cache::Eviction) {
        if ev.flags.prefetched {
            // A core only prefetches lines of its own address space.
            self.stats.prefetch.useless += 1;
            self.prefetchers[line_owner(ev.line)].on_useless();
        }
        if ev.flags.emc_resident {
            let mc = self.mc_of_line(ev.line);
            self.emcs[mc].invalidate_line(ev.line);
        }
        if ev.flags.dirty {
            let id = self.new_req_id();
            let req = MemReq::writeback(id, ev.line, Requester::Core(0), self.now);
            let mc = self.mc_of_line(ev.line);
            let slice = self.slice_of(ev.line);
            let arrive = self.hop(Data, Stop::Llc(slice), Stop::Mc(mc), self.now, false);
            self.schedule(arrive, Ev::McArrive { mc, req });
        }
    }

    fn on_fill_at_llc(&mut self, mut req: MemReq) {
        let pline = req.line;
        let slice = self.slice_of(pline);
        let prefetched = req.kind == AccessKind::Prefetch;
        // Low-confidence prefetches insert at LRU (FDP) so they cannot
        // pollute the LLC; everything else inserts at MRU.
        let lru_insert = prefetched && self.prefetchers[req.requester.home_core()].low_confidence();
        let evicted = if lru_insert {
            self.llc[slice].fill_lru(pline, false, prefetched)
        } else {
            self.llc[slice].fill(pline, false, prefetched)
        };
        if let Some(ev) = evicted {
            self.handle_llc_eviction(ev);
        }
        if self.cfg.emc.enabled {
            // The line also sits in the servicing EMC's data cache now.
            self.llc[slice].set_emc_resident(pline, true);
        }
        let waiters = self.in_flight.fill(pline);
        // A prefetch that demand loads merged onto is a *late* prefetch:
        // it still delivers data to its waiters like a demand fill, and
        // it counts as useful for FDP (the right response to lateness is
        // a higher degree, not throttling).
        if prefetched && !waiters.is_empty() {
            self.credit_prefetch(waiters[0].0, Some(pline));
            // The demand consumed the prefetched line.
            self.llc[slice].access(pline, false);
        }
        if waiters.is_empty() {
            return;
        }
        let core = waiters[0].0;
        // The fill pays the LLC array access before continuing up the
        // hierarchy, and the L1 fill at the core — the part of the fill
        // path the EMC bypasses entirely (§6.3, Figure 19).
        let llc_lat = self.llc[slice].latency;
        let depart = self.now + llc_lat;
        let back = self.hop(Data, Stop::Llc(slice), Stop::Core(core), depart, false);
        let l1_lat = self.l1d[core].latency;
        req.timeline.ring_cycles += back - depart;
        req.timeline.cache_cycles += llc_lat + l1_lat;
        self.schedule(back + l1_lat, Ev::CoreDeliver { req, waiters });
    }

    fn on_core_deliver(&mut self, mut req: MemReq, waiters: Vec<(CoreId, RobId)>) {
        req.timeline.delivered = Some(self.now);
        for &(c, rob) in &waiters {
            self.l1d[c].fill(req.line, false, false);
            self.cores[c].complete_load(rob, self.now);
            // A chain may be waiting on this load as its source miss and
            // have missed the MC-time interception (the load merged onto
            // an already-completed request): deliver at fill time.
            self.deliver_awaited_source(c, rob);
        }
        self.in_flight.recycle(waiters);
        // Latency attribution (Figures 1, 18, 19) — core-issued demand
        // requests only (EMC-issued ones are recorded at the MC).
        let t = req.timeline;
        if req.requester.is_emc() {
            return;
        }
        if let (Some(total), Some(dl)) = (t.total_latency(), t.dram_latency()) {
            let m = &mut self.stats.mem;
            m.core_miss_latency.record(total);
            m.dram_service_latency.record(dl);
            m.on_chip_delay.record(total.saturating_sub(dl));
            m.core_ring_component.record(t.ring_cycles);
            m.core_cache_component.record(t.cache_cycles);
            m.core_queue_component
                .record(t.mc_queue_delay().unwrap_or(0));
            self.trace.journey(MissJourney::new(&req, self.now));
        }
    }

    // ==================================================================
    // Memory controllers
    // ==================================================================

    fn tick_mcs(&mut self) {
        for mc in 0..self.mc_queues.controllers().len() {
            if !self.mc_queues.due(mc, self.now) {
                continue;
            }
            let mem = &mut self.stats.mem;
            let mut done = (self.mc_queues).tick(mc, self.now, &mut self.in_flight, mem);
            for comp in done.drain(..) {
                self.on_mc_completion(mc, comp.req);
            }
            self.mc_queues.recycle(mc, done);
        }
    }

    fn on_mc_completion(&mut self, mc: usize, mut req: MemReq) {
        if req.kind == AccessKind::Write {
            return;
        }
        let pline = req.line;
        if self.trace.is_enabled() {
            // One span per DRAM access on the serviced bank's track.
            let loc = map_line(pline, &self.cfg.dram);
            let bank = loc.rank * self.cfg.dram.banks_per_rank + loc.bank;
            self.trace.dram_access(mc, loc.channel, bank, &req);
        }
        if self.cfg.emc.enabled {
            // Every line from DRAM passes through this EMC's data cache
            // (§4.1.3).
            if let Some(evicted) = self.emcs[mc].on_dram_fill(pline) {
                let s = self.slice_of(evicted);
                self.llc[s].set_emc_resident(evicted, false);
            }
        }
        // Merged EMC loads get their data the moment it reaches the chip,
        // ahead of the load the fetch was issued for (served below): each
        // return occupies ring links, so the order is simulated state.
        let ret = self.in_flight.dram_return(pline);
        for &w in &ret.emc {
            self.data_to_emc(mc, w);
        }
        // Source-data interception for waiting chains (§4.3): any read
        // completion can carry a chain's source line, regardless of who
        // issued it (the source load may have merged onto an EMC- or
        // prefetcher-issued fetch of the same line). Nothing in the walk
        // touches the in-flight table.
        for &(c, rob) in &ret.cores {
            self.cores[c].mark_on_chip(rob);
            self.deliver_awaited_source(c, rob);
        }
        let issuer = ret.issuer;
        self.in_flight.returned(pline, ret);
        let emc = req.requester.is_emc();
        if emc {
            let load = issuer.expect("an EMC's fetch remembers the load it was issued for");
            let deliver_at = self.data_to_emc(mc, load);
            // Record EMC-issued miss latency (Figure 18/19): the ring and
            // cache components are the ones the request was created
            // with; what the fill below adds to them is never read.
            let t = req.timeline;
            let m = &mut self.stats.mem;
            m.emc_miss_latency
                .record(deliver_at.saturating_sub(t.created));
            m.emc_ring_component.record(t.ring_cycles);
            m.emc_cache_component.record(t.cache_cycles);
            m.emc_queue_component
                .record(t.mc_queue_delay().unwrap_or(0));
            self.trace.journey(MissJourney::new(&req, deliver_at));
        }
        // The line goes on to its LLC slice (EMC fills install there
        // too), scheduled after the issuing load's data.
        let slice = self.slice_of(pline);
        let arrive = self.hop(Data, Stop::Mc(mc), Stop::Llc(slice), self.now, emc);
        req.timeline.ring_cycles += arrive - self.now;
        self.schedule(arrive, Ev::FillAtLlc { req });
    }

    // ==================================================================
    // Prefetch
    // ==================================================================

    fn drain_prefetchers(&mut self) {
        if self.cfg.prefetcher == PrefetcherKind::None {
            return;
        }
        let mut candidates = std::mem::take(&mut self.scratch_lines);
        for core in 0..self.cfg.cores {
            if self.prefetchers[core].next_wake(self.now) > self.now {
                continue;
            }
            self.prefetchers[core].drain_into(&mut candidates);
            // Trained on physical lines; one outside the core's own
            // address space is no line of its program.
            for &pline in &candidates {
                if line_owner(pline) != core || self.in_flight.contains(pline) {
                    continue;
                }
                let slice = self.slice_of(pline);
                if self.llc[slice].probe(pline).is_some() {
                    continue;
                }
                self.stats.prefetch.issued += 1;
                let id = self.new_req_id();
                let req = MemReq::prefetch(id, pline, core, self.now);
                self.in_flight.track(pline, None, None);
                let mc = self.mc_of_line(pline);
                let arrive = self.hop(Control, Stop::Core(core), Stop::Mc(mc), self.now, false);
                self.schedule(arrive, Ev::McArrive { mc, req });
            }
        }
        self.scratch_lines = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_error_messages_name_the_problem() {
        let e = BuildError::WorkloadMismatch {
            workloads: 3,
            cores: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('4'), "{msg}");
        let e = BuildError::InvalidConfig("faults.ring_delay_prob must be in [0, 1]".into());
        assert!(e.to_string().contains("ring_delay_prob"));
    }
}
