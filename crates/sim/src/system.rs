//! The full-system cycle simulator: cores, private L1s, a sliced shared
//! LLC on a bi-directional ring, one or two (enhanced) memory controllers
//! with PAR-BS scheduling over DDR3 channels, per-core prefetch engines
//! with FDP throttling, and the EMC chain-generation/remote-execution
//! flow (paper Figures 7 and 11).

use crate::events::{EmcLoad, Ev, Scheduled};
use crate::inflight::InFlight;
use crate::metrics::Sampler;
use crate::profile::{Phase, ProfileReport, TickProfiler};
use emc_cache::SetAssocCache;
use emc_core::{AbortReason, ChainUnit, EmcEngine, EmcEvent, LoadRoute};
use emc_cpu::{Core, CoreEvent, EntryState, RobId};
use emc_dram::map_line;
use emc_memctrl::MemoryController;
use emc_prefetch::PrefetchEngine;
use emc_ring::RingKind::{self, Control, Data};
use emc_ring::{Ring, Topology};
use emc_types::rng::{seeded_rng, substream, SmallRng};
use emc_types::{
    line_owner, physical_line, AccessKind, Addr, ContextRow, CoreId, CoreRow, CoreStats, Cycle,
    LineAddr, MemReq, MetricSample, MissJourney, PostMortem, PrefetcherKind, ReqId, Requester,
    RunOutcome, RunReport, Stats, SystemConfig, TraceSink, TraceTrack, UopKind, WedgeClass,
    CACHE_LINE_BYTES,
};
use emc_workloads::Workload;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Fault-injection RNG stream identifiers (decorrelated from the
/// workload streams, which use small indices `0..cores`).
const FAULT_STREAM_RING: u64 = 0xF001;
const FAULT_STREAM_MC_BASE: u64 = 0xF100;
const FAULT_STREAM_EMC_KILL: u64 = 0xF200;

/// How many of the sampler's samples a [`PostMortem`] carries as the
/// queue-depth history leading up to the stop, ahead of the one taken
/// at the stop cycle.
const POST_MORTEM_HISTORY: usize = 8;

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

/// In-loop forward-progress watchdog: samples total retirement every
/// `interval` cycles and fires once the zero-retirement window reaches
/// `threshold`. Both come from `LivenessConfig` (`probe_interval` /
/// `core_stall_age`).
struct Watchdog {
    last_retired: u64,
    last_progress_at: Cycle,
    next_check: Cycle,
    interval: Cycle,
    threshold: Cycle,
}

impl Watchdog {
    fn new(now: Cycle, retired: u64, interval: Cycle, threshold: Cycle) -> Self {
        let interval = interval.max(1);
        Watchdog {
            last_retired: retired,
            last_progress_at: now,
            next_check: now + interval,
            interval,
            threshold,
        }
    }

    /// Whether no uop has retired anywhere for at least the configured
    /// threshold.
    fn check(&mut self, now: Cycle, retired: u64) -> bool {
        if now < self.next_check {
            return false;
        }
        self.next_check = now + self.interval;
        if retired != self.last_retired {
            self.last_retired = retired;
            self.last_progress_at = now;
            return false;
        }
        now - self.last_progress_at >= self.threshold
    }
}

/// A ring stop, named by what sits at it.
#[derive(Clone, Copy)]
enum Stop {
    Core(CoreId),
    Llc(usize),
    Mc(usize),
}

/// The simulated system.
pub struct System {
    /// Configuration this system was built with.
    pub cfg: SystemConfig,
    now: Cycle,
    seq: u64,
    cores: Vec<Core>,
    /// Benchmark names per core (reporting).
    pub bench_names: Vec<String>,
    l1d: Vec<SetAssocCache>,
    llc: Vec<SetAssocCache>,
    ring: Ring,
    mcs: Vec<MemoryController>,
    mc_retry: Vec<Vec<MemReq>>,
    emcs: Vec<EmcEngine>,
    prefetchers: Vec<PrefetchEngine>,
    /// Each core's chain generation unit.
    units: Vec<ChainUnit>,
    /// EMC context-kill fault stream, armed iff the fault plan enables
    /// `emc_kill_prob`.
    emc_fault: Option<(f64, SmallRng)>,
    events: BinaryHeap<Scheduled>,
    /// Lines on their way to or from DRAM, and the loads waiting for them.
    in_flight: InFlight,
    next_req: u64,
    /// Accumulated system statistics (cores filled at snapshot time).
    pub stats: Stats,
    trace: TraceSink,
    sampler: Sampler,
    profiler: TickProfiler,
    snapshots: Vec<Option<CoreStats>>,
    scratch_events: Vec<CoreEvent>,
    scratch_lines: Vec<LineAddr>,
    measure_start: Cycle,
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
        let mut mcs: Vec<MemoryController> = (0..cfg.memory_controllers)
            .map(|m| MemoryController::new(&cfg.dram, cfg.channels_of_mc(m).collect()))
            .collect();
        let mut emc = EmcEngine::new(&cfg.emc, cfg.cores);
        emc.set_lease(cfg.liveness.enabled.then_some(cfg.liveness.emc_lease));
        let emcs = vec![emc; cfg.memory_controllers];
        let mut ring = Ring::new(topo, cfg.ring);
        ring.set_fault_plan(&cfg.faults, substream(cfg.seed, FAULT_STREAM_RING));
        for (m, mc) in mcs.iter_mut().enumerate() {
            mc.set_fault_plan(
                &cfg.faults,
                substream(cfg.seed, FAULT_STREAM_MC_BASE + m as u64),
            );
            if cfg.liveness.enabled {
                mc.set_escalation_threshold(Some(cfg.liveness.mc_escalation_age));
            }
        }
        let emc_fault = (cfg.faults.enabled && cfg.faults.emc_kill_prob > 0.0).then(|| {
            let rng = seeded_rng(substream(cfg.seed, FAULT_STREAM_EMC_KILL));
            (cfg.faults.emc_kill_prob, rng)
        });
        Ok(System {
            now: 0,
            seq: 0,
            l1d: (0..cfg.cores)
                .map(|_| SetAssocCache::new(&cfg.l1))
                .collect(),
            llc: (0..cfg.cores)
                .map(|_| SetAssocCache::new(&cfg.llc_slice))
                .collect(),
            ring,
            mc_retry: vec![Vec::new(); cfg.memory_controllers],
            mcs,
            emcs,
            prefetchers: (0..cfg.cores)
                .map(|_| PrefetchEngine::new(cfg.prefetcher, &cfg.prefetch))
                .collect(),
            units: vec![ChainUnit::new(&cfg.emc); cfg.cores],
            emc_fault,
            events: BinaryHeap::new(),
            in_flight: InFlight::default(),
            next_req: 0,
            stats: Stats::new(cfg.cores),
            trace: TraceSink::disabled(),
            sampler: Sampler::default(),
            profiler: TickProfiler::disabled(),
            snapshots: vec![None; cfg.cores],
            scratch_events: Vec::new(),
            scratch_lines: Vec::new(),
            measure_start: 0,
            skipped_cycles: 0,
            cores,
            bench_names,
            cfg,
        })
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

    fn schedule(&mut self, at: Cycle, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Scheduled {
            at: at.max(self.now + 1),
            seq,
            ev,
        });
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
        let ch = map_line(pline, &self.cfg.dram).channel;
        (0..self.cfg.memory_controllers)
            .find(|&m| self.cfg.channels_of_mc(m).contains(&ch))
            .expect("every channel has an owner")
    }

    fn slice_of(&self, pline: LineAddr) -> usize {
        self.ring.topology().llc_slice_of(pline)
    }

    // ==================================================================
    // Run control
    // ==================================================================

    /// Run until every core has retired `budget_uops` (or finished its
    /// program), or `max_cycles` elapse. Returns a [`RunReport`] whose
    /// statistics snapshot each core at its budget crossing, as in the
    /// paper's multiprogrammed methodology (§5).
    ///
    /// The report's [`RunOutcome`] says *how* the run ended: reaching
    /// the cycle cap yields [`RunOutcome::CapHit`] (truncated stats,
    /// never silently passed off as a measurement), and a forward-
    /// progress watchdog aborts runs where no core retires anything for
    /// `LivenessConfig::core_stall_age` cycles. A run that does not
    /// complete carries its [`PostMortem`], root-cause class included.
    pub fn run(&mut self, budget_uops: u64, max_cycles: u64) -> RunReport {
        let wedged = self.run_until(budget_uops, budget_uops, max_cycles);
        self.ended(wedged, budget_uops)
    }

    /// Run with a warmup phase: execute `warmup_uops` per core with
    /// statistics discarded (caches, predictors, DRAM row buffers and
    /// prefetcher state all warm up), then measure `budget_uops` per
    /// core. This mirrors the paper's SimPoint methodology (§5), where
    /// measurement starts from a warmed representative region.
    ///
    /// The watchdog covers the warmup phase too: a wedge during warmup
    /// is reported exactly like one during measurement.
    pub fn run_with_warmup(
        &mut self,
        warmup_uops: u64,
        budget_uops: u64,
        max_cycles: u64,
    ) -> RunReport {
        // No snapshots during warmup.
        let wedged = self.run_until(warmup_uops, u64::MAX, max_cycles);
        if wedged || !self.all_cores_done(warmup_uops) {
            return self.ended(wedged, warmup_uops); // stopped inside warmup
        }
        self.reset_statistics();
        let wedged = self.run_until(budget_uops, budget_uops, max_cycles);
        self.ended(wedged, budget_uops)
    }

    /// Tick until every core has retired `budget` uops or `max_cycles`
    /// elapse, snapshotting cores at `snapshot_at`; true if the watchdog
    /// fires first. Between ticks, cycles in which no component can act
    /// are jumped over ([`next_wake`](Self::next_wake)), never past a
    /// cycle the watchdog or the cap would have looked at.
    fn run_until(&mut self, budget: u64, snapshot_at: u64, max_cycles: u64) -> bool {
        let mut watch = self.new_watchdog();
        // The first tick of a phase is never jumped to: it snapshots
        // cores that finished in an earlier phase at this very cycle.
        let mut ticked = false;
        while self.now < max_cycles && !self.all_cores_done(budget) {
            if ticked {
                let wake = self.next_wake((max_cycles - 1).min(watch.next_check - 1));
                let n = wake - self.now;
                if n > 0 {
                    self.cores.iter_mut().for_each(|c| c.credit_stall(n));
                    self.skipped_cycles += n;
                    self.now = wake;
                }
            }
            self.tick(snapshot_at);
            ticked = true;
            if watch.check(self.now, self.total_retired()) {
                return true;
            }
        }
        false
    }

    /// The first cycle from `now` to `limit` whose tick could be more
    /// than a no-op that counts a cycle; every earlier one may be left
    /// out: the earliest of every component's `next_wake` and of the
    /// state `System` owns (DESIGN.md §3, "Who wakes whom"). Anything it
    /// cannot bound keeps the system awake.
    fn next_wake(&self, limit: Cycle) -> Cycle {
        let now = self.now;
        let mut wake = limit;
        // Cores first: one that is awake settles it, and on a busy
        // system one is.
        for (core, unit) in self.cores.iter().zip(&self.units) {
            wake = wake.min(core.next_wake(now));
            if wake > now {
                wake = wake.min(unit.next_wake(core, now));
            }
            if wake <= now {
                return now;
            }
        }
        // Per-cycle fault draws, and enqueues waiting for queue space.
        if self.emc_fault.is_some() || self.mc_retry.iter().any(|r| !r.is_empty()) {
            return now;
        }
        if let Some(ev) = self.events.peek() {
            wake = wake.min(ev.at);
        }
        let mcs = self.mcs.iter().map(|mc| mc.next_wake(now));
        let emcs = self.emcs.iter().map(|emc| emc.next_wake(now));
        let prefetchers = self.prefetchers.iter().map(|p| p.next_wake(now));
        let components = mcs.chain(emcs).chain(prefetchers);
        let wake = components.fold(wake.min(self.sampler.next_wake(now)), Cycle::min);
        wake.max(now)
    }

    fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.retired_uops).sum()
    }

    fn new_watchdog(&self) -> Watchdog {
        Watchdog::new(
            self.now,
            self.total_retired(),
            self.cfg.liveness.probe_interval,
            self.cfg.liveness.core_stall_age,
        )
    }

    /// The report of a run that stopped, `wedged` if the watchdog stopped
    /// it: one that did not complete carries its post-mortem.
    fn ended(&mut self, wedged: bool, budget_uops: u64) -> RunReport {
        let outcome = match (wedged, self.all_cores_done(budget_uops)) {
            (true, _) => RunOutcome::Wedged,
            (false, true) => RunOutcome::Completed,
            (false, false) => RunOutcome::CapHit,
        };
        RunReport {
            outcome,
            post_mortem: (outcome != RunOutcome::Completed).then(|| self.post_mortem()),
            stats: self.finalize(),
        }
    }

    /// What the system looks like now, as the post-mortem of a run that
    /// stops here: one row per core and per busy EMC context, every
    /// liveness probe, the sample history ending with one taken now, and
    /// the class they add up to. Pure observation.
    pub fn post_mortem(&self) -> PostMortem {
        let now = self.now;
        let cores = (self.cores.iter().zip(&self.units).zip(&self.bench_names))
            .map(|((c, unit), bench)| CoreRow {
                bench: bench.clone(),
                retired_uops: c.stats.retired_uops,
                retire_age: now - c.last_retired_at().max(self.measure_start),
                finished: c.finished_at().is_some(),
                rob_len: c.rob_len(),
                rob_head: c.rob_iter().next().map(|e| {
                    format!(
                        "id={} {:?} state={:?} remote={} llc_miss={} addr={:?}",
                        e.id, e.uop.kind, e.state, e.remote, e.llc_miss, e.addr
                    )
                }),
                active_chain_uops: unit.in_flight(),
            })
            .collect();
        let contexts = (self.emcs.iter().enumerate())
            .flat_map(|(mc, emc)| {
                emc.context_ages(now).map(move |(ctx, age)| {
                    let ch = emc.context_chain(ctx).expect("an aged context is busy");
                    ContextRow {
                        mc,
                        ctx,
                        home_core: ch.home_core,
                        chain_uops: ch.uops.len(),
                        awaiting_source: emc.awaiting_source(ch.home_core, ch.source_rob).is_some(),
                        age,
                    }
                })
            })
            .collect();
        let mc_oldest_age = (self.mcs.iter().enumerate())
            .flat_map(|(m, mc)| {
                (mc.oldest_queue_ages(now).into_iter()).map(move |(ch, age)| (m, ch, age))
            })
            .collect();
        let mut recent_samples = self.sampler.recent(POST_MORTEM_HISTORY).to_vec();
        recent_samples.push(self.capture_sample());
        let mut pm = PostMortem {
            cycle: now,
            class: WedgeClass::SlowButLive, // classified below, from the rest
            cores,
            contexts,
            mc_oldest_age,
            ring_backlog: self.ring.max_backlog(now),
            pending_events: self.events.len(),
            recent_samples,
        };
        pm.class = pm.classify(&self.cfg.liveness);
        pm
    }

    /// Zero all statistics counters, keeping microarchitectural state.
    fn reset_statistics(&mut self) {
        self.measure_start = self.now;
        self.stats = Stats::new(self.cfg.cores);
        for c in &mut self.cores {
            c.stats = CoreStats::default();
        }
        self.snapshots = vec![None; self.cfg.cores];
        // Warmup-phase samples are discarded like every other statistic.
        self.sampler.clear();
    }

    fn all_cores_done(&self, budget: u64) -> bool {
        (0..self.cfg.cores).all(|c| {
            self.snapshots[c].is_some()
                || self.cores[c].stats.retired_uops >= budget
                || self.cores[c].finished_at().is_some()
        })
    }

    fn finalize(&mut self) -> Stats {
        let mut stats = self.stats.clone();
        stats.cycles = self.now - self.measure_start;
        for c in 0..self.cfg.cores {
            let snap = self.snapshots[c].clone().unwrap_or_else(|| {
                let mut s = self.cores[c].stats.clone();
                s.cycles =
                    (self.cores[c].finished_at().unwrap_or(self.now) - self.measure_start).max(1);
                s
            });
            stats.cores[c] = snap;
        }
        stats.prefetch.degree = self
            .prefetchers
            .iter()
            .map(|p| p.degree() as u64)
            .max()
            .unwrap_or(0);
        stats
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
        self.take_snapshots(budget);
        self.profiler.phase_end(Phase::Observe, t);
        self.now += 1;
    }

    /// Per-cycle observability hook: close finished ROB-stall spans and
    /// capture a time-series sample when one is due. With tracing off
    /// and sampling between epochs this is a branch per core plus one
    /// comparison.
    fn observe(&mut self) {
        if self.trace.is_enabled() {
            for c in 0..self.cfg.cores {
                if let Some((start, end)) = self.cores[c].take_finished_stall() {
                    self.trace
                        .span(TraceTrack::Core(c), "full-window stall", start, end, vec![]);
                }
            }
        }
        if self.sampler.next_wake(self.now) == self.now {
            let s = self.capture_sample();
            if self.trace.is_enabled() {
                self.emit_sample_counters(&s);
            }
            self.sampler.push(s);
        }
    }

    /// Read every scheduler-visible queue occupancy at `now`.
    fn capture_sample(&self) -> MetricSample {
        MetricSample {
            cycle: self.now,
            mc_queue_depth: self.mcs.iter().map(|m| m.queue_len() as u32).collect(),
            mc_retry_depth: self.mc_retry.iter().map(|r| r.len() as u32).collect(),
            banks_open: self
                .mcs
                .iter()
                .map(|m| m.open_bank_count() as u32)
                .collect(),
            emc_busy_contexts: self.emcs.iter().map(|e| e.busy_contexts() as u32).collect(),
            ring_busy_links: self.ring.busy_links(self.now) as u32,
            outstanding_misses: self.in_flight.len() as u32,
            llc_occupancy: self.llc.iter().map(|c| c.occupancy_permille()).collect(),
            rob_occupancy: self.cores.iter().map(|c| c.rob_len() as u32).collect(),
        }
    }

    /// Mirror a sample onto counter tracks in the Chrome trace.
    fn emit_sample_counters(&mut self, s: &MetricSample) {
        let trace = &mut self.trace;
        let per_mc = [
            ("mc queue depth", &s.mc_queue_depth),
            ("banks open", &s.banks_open),
            ("emc busy contexts", &s.emc_busy_contexts),
        ];
        for (name, depths) in per_mc {
            for (m, &d) in depths.iter().enumerate() {
                trace.counter(TraceTrack::Mc(m), name, s.cycle, u64::from(d));
            }
        }
        for (name, n) in [
            ("busy links", s.ring_busy_links),
            ("outstanding misses", s.outstanding_misses),
        ] {
            trace.counter(TraceTrack::Ring, name, s.cycle, u64::from(n));
        }
        for (sl, &occ) in s.llc_occupancy.iter().enumerate() {
            let track = TraceTrack::LlcSlice(sl);
            trace.counter(track, "occupancy permille", s.cycle, u64::from(occ));
        }
    }

    fn take_snapshots(&mut self, budget: u64) {
        for c in 0..self.cfg.cores {
            if self.snapshots[c].is_none()
                && (self.cores[c].stats.retired_uops >= budget
                    || self.cores[c].finished_at().is_some())
            {
                let mut s = self.cores[c].stats.clone();
                s.cycles = (self.now - self.measure_start).max(1);
                self.snapshots[c] = Some(s);
            }
        }
    }

    // ==================================================================
    // Cores
    // ==================================================================

    fn tick_cores(&mut self) {
        for c in 0..self.cfg.cores {
            let mut events = std::mem::take(&mut self.scratch_events);
            self.cores[c].tick(self.now, &mut events);
            for ev in events.drain(..) {
                match ev {
                    CoreEvent::LoadIssued { rob, addr, pc } => self.on_core_load(c, rob, addr, pc),
                    CoreEvent::StoreRetired { addr } => self.on_store_retired(c, addr),
                }
            }
            self.scratch_events = events;
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
        while let Some(top) = self.events.peek() {
            if top.at > self.now {
                break;
            }
            let ev = self.events.pop().expect("peeked").ev;
            self.handle_event(ev);
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::L1Done { core, rob } => {
                self.cores[core].complete_load(rob, self.now);
            }
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
            Ev::McArrive { mc, mut req } => {
                if req.kind == AccessKind::Prefetch {
                    if self.in_flight.demand_merged(req.line) {
                        // A demand merged onto this prefetch while it was
                        // in flight: it is a demand request now.
                        req.kind = AccessKind::Read;
                    } else if self.mcs[mc].queue_len() >= 3 * self.mcs[mc].capacity() / 4 {
                        // Prefetches are dropped when the memory queue
                        // runs hot: they must never back-pressure demands.
                        self.in_flight.untrack(req.line);
                        return;
                    }
                }
                if let Err(req) = self.mcs[mc].enqueue(req, self.now) {
                    self.mc_retry[mc].push(req);
                }
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
            Ev::ChainResults { core, results } => {
                for r in results.iter() {
                    self.cores[core].complete_remote(r.rob, r.value, r.store, self.now);
                }
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
            self.prefetchers[core].on_useful();
            // Keep streams advancing once prefetches start covering
            // the demand stream (train on prefetched hits, as FDP's
            // L2-access training does).
            self.prefetchers[core].train_on_prefetch_hit(pline);
            self.stats.prefetch.useful += 1;
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
            let trainer = waiters[0].0;
            self.prefetchers[trainer].on_useful();
            self.prefetchers[trainer].train_on_prefetch_hit(pline);
            self.stats.prefetch.useful += 1;
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
            self.stats.mem.core_miss_latency.record(total);
            self.stats.mem.dram_service_latency.record(dl);
            self.stats
                .mem
                .on_chip_delay
                .record(total.saturating_sub(dl));
            self.stats.mem.core_ring_component.record(t.ring_cycles);
            self.stats.mem.core_cache_component.record(t.cache_cycles);
            self.stats
                .mem
                .core_queue_component
                .record(t.mc_queue_delay().unwrap_or(0));
            self.record_journey(&req, self.now);
        }
    }

    /// Trace the journey of a request whose data is consumable at
    /// `delivered`: its timeline, under its own `ReqId`.
    fn record_journey(&mut self, req: &MemReq, delivered: Cycle) {
        if !self.trace.is_enabled() {
            return;
        }
        let t = req.timeline;
        self.trace.journey(MissJourney {
            req: req.id,
            core: req.requester.home_core(),
            emc: req.requester.is_emc(),
            line: req.line.0,
            created: t.created,
            llc_arrive: t.llc_arrive,
            mc_enqueue: t.mc_enqueue,
            dram_issue: t.dram_issue,
            dram_done: t.dram_done,
            delivered,
            row_hit: t.row_hit,
        });
    }

    /// If the chain `core` has in flight still waits for load `rob` as
    /// its source miss, hand the data to its EMC context.
    fn deliver_awaited_source(&mut self, core: CoreId, rob: RobId) {
        for mc in 0..self.emcs.len() {
            if let Some((ctx, addr)) = self.emcs[mc].awaiting_source(core, rob) {
                let value = self.source_value(core, rob, addr);
                self.emcs[mc].deliver_source(ctx, value);
                return;
            }
        }
    }

    // ==================================================================
    // Memory controllers
    // ==================================================================

    fn tick_mcs(&mut self) {
        for mc in 0..self.mcs.len() {
            // Retry rejected enqueues first (FIFO), keeping in place the
            // ones the queue still has no room for.
            if !self.mc_retry[mc].is_empty() {
                let mut retry = std::mem::take(&mut self.mc_retry[mc]);
                retry.retain_mut(|req| {
                    if req.kind == AccessKind::Prefetch {
                        if !self.in_flight.demand_merged(req.line) {
                            // Never retry pure prefetches into a full queue.
                            self.in_flight.untrack(req.line);
                            return false;
                        }
                        req.kind = AccessKind::Read; // promoted by a merge
                    }
                    self.mcs[mc].is_full() || self.mcs[mc].enqueue(*req, self.now).is_err()
                });
                self.mc_retry[mc] = retry;
            }

            let mut completions = self.mcs[mc].tick(self.now, &mut self.stats.mem);
            for comp in completions.drain(..) {
                self.on_mc_completion(mc, comp.req);
            }
            self.mcs[mc].recycle(completions);
        }
    }

    fn on_mc_completion(&mut self, mc: usize, mut req: MemReq) {
        if req.kind == AccessKind::Write {
            return;
        }
        let pline = req.line;
        if self.trace.is_enabled() {
            // One span per DRAM access on the serviced bank's track.
            let t = req.timeline;
            if let (Some(issue), Some(done)) = (t.dram_issue, t.dram_done) {
                let loc = map_line(pline, &self.cfg.dram);
                let bank = loc.rank * self.cfg.dram.banks_per_rank + loc.bank;
                self.trace.span(
                    TraceTrack::Bank {
                        mc,
                        channel: loc.channel,
                        bank,
                    },
                    if t.row_hit == Some(true) {
                        "dram row hit"
                    } else {
                        "dram access"
                    },
                    issue,
                    done,
                    vec![
                        ("req", req.id.0),
                        ("row_hit", t.row_hit.map(u64::from).unwrap_or(0)),
                    ],
                );
            }
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
            let total = deliver_at.saturating_sub(t.created);
            self.stats.mem.emc_miss_latency.record(total);
            self.stats.mem.emc_ring_component.record(t.ring_cycles);
            self.stats.mem.emc_cache_component.record(t.cache_cycles);
            self.stats
                .mem
                .emc_queue_component
                .record(t.mc_queue_delay().unwrap_or(0));
            self.record_journey(&req, deliver_at);
        }
        // The line goes on to its LLC slice (EMC fills install there
        // too), scheduled after the issuing load's data.
        let slice = self.slice_of(pline);
        let arrive = self.hop(Data, Stop::Mc(mc), Stop::Llc(slice), self.now, emc);
        req.timeline.ring_cycles += arrive - self.now;
        self.schedule(arrive, Ev::FillAtLlc { req });
    }

    /// Return data that reached the chip at controller `from_mc` to the
    /// EMC running `load`: the next cycle if that is the same controller,
    /// else over the ring (a cross-channel dependency, §4.4). Returns
    /// the cycle the load completes.
    fn data_to_emc(&mut self, from_mc: usize, load: EmcLoad) -> Cycle {
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
            if e.uop.kind == UopKind::Load && e.state != EntryState::Waiting {
                return e.result;
            }
        }
        self.cores[core].mem.read_u64(addr)
    }

    // ==================================================================
    // EMC
    // ==================================================================

    fn tick_emcs(&mut self) {
        if !self.cfg.emc.enabled {
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
            for ev in self.emcs[mc].tick(self.now, &mut self.stats.emc) {
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
        }
    }

    fn on_emc_load(&mut self, load: EmcLoad, pc: u64, route: LoadRoute) {
        let EmcLoad {
            mc,
            ctx,
            uop,
            core,
            vaddr,
            ..
        } = load;
        // Memory disambiguation against the home core's older stores
        // (§4.3): conflicting or unresolved older store → cancel.
        let rob = self.emcs[mc]
            .context_chain(ctx)
            .map(|c| c.uops[uop].rob)
            .expect("chain present");
        let conflict = self.cores[core].rob_iter().any(|e| {
            e.id < rob
                && e.uop.kind == UopKind::Store
                && !e.remote
                && (e.addr.is_none() || e.addr == Some(vaddr))
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

    fn on_emc_llc_req(&mut self, load: EmcLoad, pc: u64, ring_cycles: Cycle) {
        let EmcLoad {
            mc, core, vaddr, ..
        } = load;
        if self.emcs[mc].generation(load.ctx) != load.tag {
            return; // chain finished/aborted while the request was in flight
        }
        let pline = physical_line(core, vaddr.line());
        let slice = self.slice_of(pline);
        let lat = self.llc[slice].latency;
        if let Some(hit) = self.llc[slice].access(pline, false) {
            self.emcs[mc].train_miss_predictor(core, pc, false);
            if hit.first_use_of_prefetch {
                self.prefetchers[core].on_useful();
                self.stats.prefetch.useful += 1;
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
        self.schedule(arrive, Ev::ChainResults { core, results });
    }

    /// Free a finished context. Its last results left in the same tick,
    /// ahead of this event (`EmcEngine::tick` announces `Results` first).
    fn on_chain_done(&mut self, mc: usize, ctx: usize) {
        let fin = self.emcs[mc].take_finished(ctx);
        self.trace.span(
            TraceTrack::EmcCtx { mc, ctx },
            "chain execute",
            fin.active_at.min(self.now),
            self.now,
            vec![("uops", fin.chain.uops.len() as u64)],
        );
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
    fn ship_chains(&mut self) {
        for core in 0..self.cfg.cores {
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
                .is_none_or(|e| e.on_chip || e.state == EntryState::Done);
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

    // ==================================================================
    // Prefetch
    // ==================================================================

    fn drain_prefetchers(&mut self) {
        if self.cfg.prefetcher == PrefetcherKind::None {
            return;
        }
        let mut candidates = std::mem::take(&mut self.scratch_lines);
        for core in 0..self.cfg.cores {
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

    /// `LivenessConfig`'s default `probe_interval` and `core_stall_age`.
    const WATCHDOG_INTERVAL: Cycle = 10_000;
    const WEDGE_THRESHOLD: Cycle = 250_000;

    #[test]
    fn watchdog_stays_quiet_while_retirement_advances() {
        let mut w = Watchdog::new(0, 0, WATCHDOG_INTERVAL, WEDGE_THRESHOLD);
        let mut retired = 0;
        for now in (WATCHDOG_INTERVAL..10 * WEDGE_THRESHOLD).step_by(WATCHDOG_INTERVAL as usize) {
            retired += 1;
            assert!(!w.check(now, retired));
        }
    }

    #[test]
    fn watchdog_fires_after_threshold_of_zero_retirement() {
        let mut w = Watchdog::new(0, 42, WATCHDOG_INTERVAL, WEDGE_THRESHOLD);
        let mut now = 0;
        while !w.check(now, 42) {
            now += WATCHDOG_INTERVAL;
            assert!(
                now <= WEDGE_THRESHOLD + WATCHDOG_INTERVAL,
                "watchdog never fired"
            );
        }
        assert!(now >= WEDGE_THRESHOLD);
    }

    #[test]
    fn watchdog_resets_on_any_progress() {
        let mut w = Watchdog::new(0, 0, WATCHDOG_INTERVAL, WEDGE_THRESHOLD);
        // Stall almost to the threshold, then retire one uop.
        let mut now = 0;
        while now + WATCHDOG_INTERVAL < WEDGE_THRESHOLD {
            now += WATCHDOG_INTERVAL;
            assert!(!w.check(now, 0));
        }
        now += WATCHDOG_INTERVAL;
        assert!(!w.check(now, 1), "progress must reset the stall window");
        now += WATCHDOG_INTERVAL;
        assert!(!w.check(now, 1), "fresh window has not expired yet");
    }

    #[test]
    fn watchdog_checks_are_interval_gated() {
        let mut w = Watchdog::new(0, 0, WATCHDOG_INTERVAL, WEDGE_THRESHOLD);
        // Off-interval calls never fire, no matter how stalled.
        for now in 1..WATCHDOG_INTERVAL {
            assert!(!w.check(now, 0));
        }
    }

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
