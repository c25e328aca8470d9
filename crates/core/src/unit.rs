//! The dependence-chain generation unit of one core (paper §4.2): when
//! to walk the window, which chain to ship, when to back off. It counts
//! what it decides into the `CoreStats` it is handed.

use crate::chain::{generate_chain_into, Chain};
use crate::engine::AbortReason;
use crate::predictor::DepMissCounter;
use emc_cpu::{Core, EntryState};
use emc_types::{CoreId, CoreStats, Cycle, EmcConfig, UopKind};

/// One core's chain generation unit.
#[derive(Debug, Clone)]
pub struct ChainUnit {
    cfg: EmcConfig,
    counter: DepMissCounter,
    /// The uops of the chain in flight, 0 if there is none (a core has
    /// at most one).
    uops: usize,
    /// No chain is generated before this cycle.
    cooldown: Cycle,
    /// Consecutive chain aborts.
    fail_streak: u32,
    /// The quiesce window: doubles (up to `quiesce_backoff_max`) on each
    /// quiesce, resets when a chain completes.
    backoff: Cycle,
    /// Chains that finished, aborted or were never shipped, kept for
    /// their buffers: generation writes into one of these.
    spare: Vec<Chain>,
}

impl ChainUnit {
    /// A unit generating chains under `cfg` (none unless `cfg.enabled`).
    pub fn new(cfg: &EmcConfig) -> Self {
        ChainUnit {
            cfg: *cfg,
            counter: DepMissCounter::new(cfg.dep_counter_trigger),
            uops: 0,
            cooldown: 0,
            fail_streak: 0,
            backoff: cfg.quiesce_backoff,
            spare: Vec::new(),
        }
    }

    /// Train on an LLC miss of the core: is the missing load dependent?
    pub fn on_llc_miss(&mut self, dependent: bool) {
        self.counter.on_llc_miss(dependent);
    }

    /// The uops of the chain this unit has in flight, if it has one.
    pub fn in_flight(&self) -> Option<usize> {
        Some(self.uops).filter(|&n| n > 0)
    }

    /// The first cycle from `now` at which [`generate`](Self::generate)
    /// walks `core`'s window: the cooldown while there is an EMC, no
    /// chain of the unit's own is in flight, and `core` is stalled on a
    /// full window (not in runahead) with the counter armed; else
    /// `Cycle::MAX`.
    #[inline]
    pub fn next_wake(&self, core: &Core, now: Cycle) -> Cycle {
        // Cheapest questions first: on a cache-resident program the
        // counter never arms, and `full_window_stall` is never asked.
        let wants = self.cfg.enabled
            && self.uops == 0
            && self.counter.should_generate()
            && !core.in_runahead()
            && core.full_window_stall().is_some();
        if wants {
            self.cooldown.max(now)
        } else {
            Cycle::MAX
        }
    }

    /// If [`next_wake`](Self::next_wake) says so at `now`, walk the first
    /// `chain_candidates` outstanding LLC-miss loads of `core`'s stalled
    /// window, oldest first, and return the chain that reaches the most
    /// dependent loads (then the longest) with the cycles its walk took.
    /// `any_free`, asked only if the unit walks, says whether some EMC
    /// has a free context; while none has, the first chain found is all
    /// that matters and the walk ends there. With no chain found the unit
    /// backs off 8 cycles.
    pub fn generate(
        &mut self,
        core: &Core,
        home: CoreId,
        now: Cycle,
        any_free: impl FnOnce() -> bool,
    ) -> Option<(Chain, u64)> {
        if self.next_wake(core, now) > now {
            return None;
        }
        // The head miss blocks retirement, but the chain worth
        // accelerating may hang off any outstanding miss (e.g. the next
        // pointer-chase hop, issued together with the head's): a stalled
        // window usually holds both the payload-pointer load (whose chain
        // is one payload miss) and the node load (whose chain carries the
        // entire pointer chase).
        let candidates = core
            .rob_iter()
            .filter(|e| {
                e.uop().kind == UopKind::Load
                    && e.llc_miss()
                    && e.state() == EntryState::Issued
                    && !e.remote()
                    && e.addr().is_some()
            })
            .take(self.cfg.chain_candidates.max(1))
            .map(|e| e.id());
        let any_free = any_free();
        let mut chain = self.spare.pop().unwrap_or_default();
        let mut cur = self.spare.pop().unwrap_or_default();
        // (loads reached, gen cycles) of `chain`.
        let mut best: Option<(usize, u64)> = None;
        for src in candidates {
            let Some(gen_cycles) = generate_chain_into(core, home, src, &self.cfg, &mut cur) else {
                continue;
            };
            let loads = cur.uops.iter().filter(|u| u.kind == UopKind::Load).count();
            let better = best.is_none_or(|(best_loads, _)| {
                loads > best_loads || (loads == best_loads && cur.uops.len() > chain.uops.len())
            });
            if better {
                std::mem::swap(&mut chain, &mut cur);
                best = Some((loads, gen_cycles));
            }
            if !any_free {
                break;
            }
        }
        self.spare.push(cur);
        let Some((_, gen_cycles)) = best else {
            self.spare.push(chain);
            self.cooldown = now + 8;
            return None;
        };
        Some((chain, gen_cycles))
    }

    /// The EMC `chain` was generated for has no free context: the chain
    /// is dropped and the unit backs off 32 cycles.
    pub fn busy(&mut self, now: Cycle, chain: Chain) {
        self.spare.push(chain);
        self.cooldown = now + 32;
    }

    /// `chain`, whose walk took `gen_cycles`, leaves for the EMC, counted
    /// in `stats`; it is in flight until [`done`](Self::done) or
    /// [`returned`](Self::returned).
    pub fn shipped(&mut self, chain: &Chain, now: Cycle, gen_cycles: u64, stats: &mut CoreStats) {
        let uops = chain.uops.len();
        self.uops = uops;
        self.cooldown = now + gen_cycles;
        stats.chains_sent += 1;
        stats.chain_uops_sent += uops as u64;
        stats.record_chain_length(uops);
        stats.chain_live_ins += chain.live_in_count();
    }

    /// The chain in flight completed: that ends any failure streak and
    /// resets the quiesce window.
    pub fn done(&mut self, chain: Chain) {
        self.fail_streak = 0;
        self.backoff = self.cfg.quiesce_backoff;
        self.returned(chain);
    }

    /// The chain in flight was aborted at the EMC at `now`, counted in
    /// `stats` by cause. After `quiesce_threshold` consecutive aborts the
    /// unit quiesces: no chain before `now` plus the quiesce window,
    /// which then doubles. The chain is in flight until it is
    /// [`returned`](Self::returned).
    pub fn aborted(&mut self, now: Cycle, reason: AbortReason, stats: &mut CoreStats) {
        match reason {
            AbortReason::TlbMiss => stats.chains_aborted_tlb += 1,
            AbortReason::BranchMispredict => stats.chains_aborted_branch += 1,
            // Counted where the conflict is found.
            AbortReason::Disambiguation => {}
            AbortReason::Injected => stats.chains_aborted_injected += 1,
            AbortReason::LeaseExpired => stats.chains_aborted_lease += 1,
        }
        self.fail_streak += 1;
        if self.fail_streak >= self.cfg.quiesce_threshold {
            self.fail_streak = 0;
            self.cooldown = self.cooldown.max(now + self.backoff);
            self.backoff = (self.backoff.saturating_mul(2)).min(self.cfg.quiesce_backoff_max);
            stats.emc_quiesce_events += 1;
        }
    }

    /// The chain in flight is back at the core: completed, or aborted
    /// and its uops to execute there.
    pub fn returned(&mut self, chain: Chain) {
        self.uops = 0;
        self.spare.push(chain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_cpu::CoreEvent;
    use emc_types::program::{Program, StaticUop};
    use emc_types::{Addr, CoreConfig, MemoryImage, Reg};
    use std::sync::Arc;

    /// A core stalled on a full window behind `window`'s loads, every
    /// one of which missed the LLC and never returns; the window is
    /// filled with independent adds.
    fn stalled_core(window: Vec<StaticUop>) -> Core {
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x4000);
        let mut uops = vec![StaticUop::mov_imm(Reg(0), 0x100)];
        uops.extend(window);
        uops.extend((0..300).map(|_| StaticUop::alu(UopKind::IntAdd, Reg(9), Reg(9), None, 1)));
        let program = Program::new(uops, 0x7000);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(program), mem);
        let mut events = Vec::new();
        for now in 0..600 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    core.mark_llc_miss(rob);
                }
            }
        }
        assert!(core.full_window_stall().is_some(), "the window filled");
        core
    }

    /// Two misses: the older one's chain is one add, the younger one's
    /// reaches a dependent load.
    fn two_candidates() -> Core {
        stalled_core(vec![
            StaticUop::load(Reg(1), Reg(0), 0),
            StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 8),
            StaticUop::load(Reg(3), Reg(0), 8),
            StaticUop::alu(UopKind::IntAdd, Reg(4), Reg(3), None, 8),
            StaticUop::load(Reg(5), Reg(4), 0),
        ])
    }

    /// One miss, and nothing depends on it.
    fn no_dependents() -> Core {
        stalled_core(vec![StaticUop::load(Reg(1), Reg(0), 0)])
    }

    fn armed(cfg: &EmcConfig) -> ChainUnit {
        let mut unit = ChainUnit::new(cfg);
        for _ in 0..cfg.dep_counter_trigger {
            unit.on_llc_miss(true);
        }
        unit
    }

    /// Ship a chain from `core` at `now`.
    fn ship(unit: &mut ChainUnit, core: &Core, now: Cycle) -> Chain {
        let (chain, gen_cycles) = unit.generate(core, 0, now, || true).expect("a chain");
        unit.shipped(&chain, now, gen_cycles, &mut CoreStats::default());
        chain
    }

    #[test]
    fn quiesces_after_threshold_aborts_and_doubles_the_backoff_to_its_max() {
        let cfg = EmcConfig {
            quiesce_threshold: 3,
            quiesce_backoff: 100,
            quiesce_backoff_max: 300,
            ..EmcConfig::default()
        };
        let core = two_candidates();
        let mut unit = armed(&cfg);
        let mut stats = CoreStats::default();
        let mut now = 1_000;
        for (quiesce, window) in [100, 200, 300, 300].into_iter().enumerate() {
            for abort in 1..=cfg.quiesce_threshold {
                let chain = ship(&mut unit, &core, now);
                unit.aborted(now, AbortReason::Injected, &mut stats);
                unit.returned(chain);
                let quiesced = abort == cfg.quiesce_threshold;
                assert_eq!(
                    stats.emc_quiesce_events,
                    (quiesce + usize::from(quiesced)) as u64
                );
                if !quiesced {
                    now = unit.next_wake(&core, now);
                }
            }
            assert_eq!(
                unit.next_wake(&core, now),
                now + window,
                "quiesce {quiesce}"
            );
            now += window;
        }
        assert_eq!(stats.chains_aborted_injected, 12);
    }

    #[test]
    fn a_completed_chain_resets_the_streak_and_the_backoff() {
        let cfg = EmcConfig {
            quiesce_threshold: 2,
            quiesce_backoff: 100,
            ..EmcConfig::default()
        };
        let core = two_candidates();
        let mut unit = armed(&cfg);
        let mut stats = CoreStats::default();
        for now in [0, 10] {
            let chain = ship(&mut unit, &core, now);
            unit.aborted(now, AbortReason::TlbMiss, &mut stats);
            unit.returned(chain);
        }
        assert_eq!(unit.next_wake(&core, 10), 110, "quiesced");
        // The backoff is 200 now; one abort and one completion later the
        // streak is 0 and the backoff 100 again.
        let chain = ship(&mut unit, &core, 110);
        unit.aborted(110, AbortReason::TlbMiss, &mut stats);
        unit.returned(chain);
        let chain = ship(&mut unit, &core, 120);
        unit.done(chain);
        for now in [200, 210] {
            let chain = ship(&mut unit, &core, now);
            unit.aborted(now, AbortReason::TlbMiss, &mut stats);
            unit.returned(chain);
        }
        assert_eq!(unit.next_wake(&core, 210), 310, "a fresh 100-cycle window");
        assert_eq!((stats.chains_aborted_tlb, stats.emc_quiesce_events), (5, 2));
    }

    #[test]
    fn with_no_free_context_the_walk_stops_at_the_first_chain() {
        let cfg = EmcConfig::default();
        let core = two_candidates();
        let mut unit = armed(&cfg);
        let (chain, _) = unit.generate(&core, 0, 0, || true).unwrap();
        let reaches_a_load = |c: &Chain| c.uops.iter().any(|u| u.kind == UopKind::Load);
        assert!(reaches_a_load(&chain), "the younger miss's chain wins");
        let younger = chain.source_rob;
        unit.busy(0, chain);
        assert_eq!(unit.next_wake(&core, 0), 32);

        let (chain, _) = unit.generate(&core, 0, 32, || false).unwrap();
        assert!(chain.source_rob < younger && !reaches_a_load(&chain));
        unit.busy(32, chain);
        assert_eq!(unit.next_wake(&core, 32), 64, "32 cycles");

        let core = no_dependents();
        assert!(unit.generate(&core, 0, 64, || false).is_none());
        assert_eq!(unit.next_wake(&core, 64), 72, "8 cycles when none yields");
    }

    #[test]
    fn next_wake_is_never_without_an_emc_a_chain_in_flight_or_a_stall() {
        let core = two_candidates();
        let off = EmcConfig {
            enabled: false,
            ..EmcConfig::default()
        };
        assert_eq!(armed(&off).next_wake(&core, 5), Cycle::MAX, "no EMC");

        let cfg = EmcConfig::default();
        let mut unit = armed(&cfg);
        assert_eq!(unit.next_wake(&core, 5), 5);
        let chain = ship(&mut unit, &core, 5);
        assert_eq!(unit.in_flight(), Some(chain.uops.len()));
        assert_eq!(unit.next_wake(&core, 6), Cycle::MAX, "a chain in flight");
        unit.done(chain);
        assert_eq!(unit.in_flight(), None);

        let program = Program::new(vec![StaticUop::mov_imm(Reg(0), 1)], 0);
        let idle = Core::new(
            &CoreConfig::default(),
            Arc::new(program),
            MemoryImage::new(),
        );
        assert_eq!(unit.next_wake(&idle, 6), Cycle::MAX, "no full-window stall");
        assert_eq!(
            ChainUnit::new(&cfg).next_wake(&core, 6),
            Cycle::MAX,
            "unarmed"
        );
    }
}
