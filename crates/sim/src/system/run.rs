//! Running the system: the run loop, which jumps over the cycles in which
//! no component can act (DESIGN.md §3, "Who wakes whom"), the per-cycle
//! observation hook and its time-series samples, and the report of a run
//! that stopped, with its post-mortem.

use super::System;
use emc_types::{
    ContextRow, CoreRow, Cycle, MetricSample, PostMortem, RunOutcome, RunReport, TraceTrack,
    WedgeClass,
};

/// How many of the sampler's samples a [`PostMortem`] carries as the
/// queue-depth history leading up to the stop, ahead of the one taken
/// at the stop cycle.
const POST_MORTEM_HISTORY: usize = 8;

impl System {
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
        if wedged || !self.measure.all_done(warmup_uops, &self.cores) {
            return self.ended(wedged, warmup_uops); // stopped inside warmup
        }
        self.measure.reset(
            self.now,
            &mut self.cores,
            &mut self.stats,
            &mut self.sampler,
        );
        let wedged = self.run_until(budget_uops, budget_uops, max_cycles);
        self.ended(wedged, budget_uops)
    }

    /// Tick until every core has retired `budget` uops or `max_cycles`
    /// elapse, snapshotting cores at `snapshot_at`; true if the watchdog
    /// fires first. Between ticks, cycles in which no component can act
    /// are jumped over ([`next_wake`](Self::next_wake)), never past a
    /// cycle the watchdog or the cap would have looked at.
    fn run_until(&mut self, budget: u64, snapshot_at: u64, max_cycles: u64) -> bool {
        (self.measure).arm_watchdog(self.now, &self.cores, &self.cfg.liveness);
        // The first tick of a phase is never jumped to: it snapshots
        // cores that finished in an earlier phase at this very cycle.
        let mut ticked = false;
        while self.now < max_cycles && !self.measure.all_done(budget, &self.cores) {
            if ticked {
                let limit = (max_cycles - 1).min(self.measure.next_check() - 1);
                let wake = self.next_wake(limit);
                let n = wake - self.now;
                if n > 0 {
                    self.cores.iter_mut().for_each(|c| c.credit_stall(n));
                    self.skipped_cycles += n;
                    self.now = wake;
                }
            }
            self.tick(snapshot_at);
            ticked = true;
            if self.measure.wedged(self.now, &self.cores) {
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
        // Per-cycle fault draws.
        if self.emc_fault.is_some() {
            return now;
        }
        if let Some(at) = self.pending.next_at() {
            wake = wake.min(at);
        }
        wake = wake.min(self.mc_queues.next_wake(now));
        let emcs = self.emcs.iter().map(|emc| emc.next_wake(now));
        let prefetchers = self.prefetchers.iter().map(|p| p.next_wake(now));
        let components = emcs.chain(prefetchers);
        let wake = components.fold(wake.min(self.sampler.next_wake(now)), Cycle::min);
        wake.max(now)
    }

    /// The report of a run that stopped, `wedged` if the watchdog stopped
    /// it: one that did not complete carries its post-mortem.
    fn ended(&self, wedged: bool, budget_uops: u64) -> RunReport {
        let outcome = match (wedged, self.measure.all_done(budget_uops, &self.cores)) {
            (true, _) => RunOutcome::Wedged,
            (false, true) => RunOutcome::Completed,
            (false, false) => RunOutcome::CapHit,
        };
        let mut stats = self.measure.stats(self.now, &self.stats, &self.cores);
        stats.prefetch.degree = (self.prefetchers.iter())
            .map(|p| p.degree() as u64)
            .max()
            .unwrap_or(0);
        RunReport {
            outcome,
            post_mortem: (outcome != RunOutcome::Completed).then(|| self.post_mortem()),
            stats,
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
                retire_age: now - c.last_retired_at().max(self.measure.start),
                finished: c.finished_at().is_some(),
                rob_len: c.rob_len(),
                rob_head: c.rob_iter().next().map(|e| {
                    format!(
                        "id={} {:?} state={:?} remote={} llc_miss={} addr={:?}",
                        e.id(),
                        e.uop().kind,
                        e.state(),
                        e.remote(),
                        e.llc_miss(),
                        e.addr()
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
        let mc_oldest_age = (self.mc_queues.controllers().iter().enumerate())
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
            pending_events: self.pending.len(),
            recent_samples,
        };
        pm.class = pm.classify(&self.cfg.liveness);
        pm
    }

    /// Per-cycle observability hook: close finished ROB-stall spans and
    /// capture a time-series sample when one is due. With tracing off
    /// and sampling between epochs this is a branch per core plus one
    /// comparison.
    pub(super) fn observe(&mut self) {
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
            self.trace.sample_counters(&s);
            self.sampler.push(s);
        }
    }

    /// Read every scheduler-visible queue occupancy at `now`.
    fn capture_sample(&self) -> MetricSample {
        let mcs = self.mc_queues.controllers();
        MetricSample {
            cycle: self.now,
            mc_queue_depth: mcs.iter().map(|m| m.queue_len() as u32).collect(),
            mc_retry_depth: self.mc_queues.retry_depths(),
            banks_open: mcs.iter().map(|m| m.open_bank_count() as u32).collect(),
            emc_busy_contexts: self.emcs.iter().map(|e| e.busy_contexts() as u32).collect(),
            ring_busy_links: self.ring.busy_links(self.now) as u32,
            outstanding_misses: self.in_flight.len() as u32,
            llc_occupancy: self.llc.iter().map(|c| c.occupancy_permille()).collect(),
            rob_occupancy: self.cores.iter().map(|c| c.rob_len() as u32).collect(),
        }
    }
}
