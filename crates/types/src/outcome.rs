//! Typed run outcomes: every full-system run reports *how* it ended,
//! not just its statistics. A run that hits the cycle cap or wedges
//! (no core retires anything for a long window) can no longer be
//! mistaken for a completed measurement — harnesses must inspect the
//! [`RunOutcome`] (or call [`RunReport::expect_completed`], which fails
//! loudly with the run's [`PostMortem`]).

use std::fmt;

use crate::config::LivenessConfig;
use crate::sample::MetricSample;
use crate::stats::Stats;
use crate::Cycle;

/// Root-cause classification of a run that failed to complete, derived
/// from the per-component liveness probes of a [`PostMortem`]. Each
/// variant names the implicated components so a harness (or a human)
/// can act on the diagnosis instead of a bare "wedged".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WedgeClass {
    /// One or more memory controllers held a request past the
    /// escalation age: the scheduler starved it. Carries the implicated
    /// MC indices.
    McStarvation {
        /// Memory controllers with a starved request.
        mcs: Vec<usize>,
    },
    /// One or more EMC issue contexts were occupied without any
    /// progress event past the lease: a chain leaked its context.
    /// Carries `(mc, ctx)` pairs.
    EmcContextLeak {
        /// Occupied `(mc, ctx)` slots past their lease.
        contexts: Vec<(usize, usize)>,
    },
    /// A ring link's occupancy backlog exceeded the backpressure
    /// threshold: the interconnect, not DRAM, is the bottleneck.
    RingBackpressure {
        /// Worst link backlog observed, in cycles.
        backlog: Cycle,
    },
    /// Every unfinished core stopped retiring while no memory-system
    /// probe is pathological: the stall is in the cores themselves.
    CoreDeadlock {
        /// Cores that stopped retiring.
        cores: Vec<usize>,
    },
    /// Forward progress continues on at least one core and no probe is
    /// pathological — the run is slow, not stuck (the usual diagnosis
    /// for a cycle-cap hit).
    SlowButLive,
}

impl WedgeClass {
    /// Stable machine-readable label (used for exit codes and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            WedgeClass::McStarvation { .. } => "mc-starvation",
            WedgeClass::EmcContextLeak { .. } => "emc-context-leak",
            WedgeClass::RingBackpressure { .. } => "ring-backpressure",
            WedgeClass::CoreDeadlock { .. } => "core-deadlock",
            WedgeClass::SlowButLive => "slow-but-live",
        }
    }

    /// Whether more cycles may clear the condition: starvation and
    /// backpressure are load-dependent and bounded by the enforcement
    /// mechanisms, while a leaked context or a deadlocked core stays
    /// stuck however long the run goes on. (A re-run with the same seed
    /// and cap clears nothing: the simulator is deterministic.)
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            WedgeClass::McStarvation { .. }
                | WedgeClass::RingBackpressure { .. }
                | WedgeClass::SlowButLive
        )
    }
}

impl fmt::Display for WedgeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())?;
        match self {
            WedgeClass::McStarvation { mcs } => write!(f, " (mcs {mcs:?})"),
            WedgeClass::EmcContextLeak { contexts } => write!(f, " (mc/ctx {contexts:?})"),
            WedgeClass::RingBackpressure { backlog } => write!(f, " (backlog {backlog} cycles)"),
            WedgeClass::CoreDeadlock { cores } => write!(f, " (cores {cores:?})"),
            WedgeClass::SlowButLive => Ok(()),
        }
    }
}

/// What a run that did not complete looked like where it stopped: one row
/// per core and one per busy EMC context, the probes the classifier reads
/// beside them, and the queue history leading up to the stop. Built once,
/// by `System`, for every run that does not complete.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Cycle at which the run stopped.
    pub cycle: Cycle,
    /// Root cause: [`classify`](Self::classify)'s reading of this record.
    pub class: WedgeClass,
    /// One row per core, by core index.
    pub cores: Vec<CoreRow>,
    /// One row per occupied EMC context.
    pub contexts: Vec<ContextRow>,
    /// Oldest queued-request age per MC channel: `(mc, global channel,
    /// age in cycles)`, `0` for an empty queue.
    pub mc_oldest_age: Vec<(usize, usize, Cycle)>,
    /// Worst ring link backlog: queued occupancy beyond `cycle`, in
    /// cycles, across every link of both rings.
    pub ring_backlog: Cycle,
    /// Events still queued in the scheduler.
    pub pending_events: usize,
    /// The queue-depth/occupancy history leading up to the stop, oldest
    /// first: the last samples the sampler captured, if it was enabled,
    /// then one taken at `cycle`.
    pub recent_samples: Vec<MetricSample>,
}

/// One core where a run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRow {
    /// Benchmark running on the core.
    pub bench: String,
    /// Uops retired so far (measurement window).
    pub retired_uops: u64,
    /// Cycles since the core last retired a uop.
    pub retire_age: Cycle,
    /// Whether the core's program had run to completion (a finished core
    /// legitimately stops retiring).
    pub finished: bool,
    /// ROB occupancy.
    pub rob_len: usize,
    /// The ROB head entry (kind, state, remote/llc-miss flags, address),
    /// if the ROB is non-empty.
    pub rob_head: Option<String>,
    /// Uops in the chain the core has in flight at an EMC, if any.
    pub active_chain_uops: Option<usize>,
}

/// One occupied EMC issue context where a run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextRow {
    /// Which memory controller's EMC.
    pub mc: usize,
    /// Context slot index.
    pub ctx: usize,
    /// Home core of the chain occupying the slot.
    pub home_core: usize,
    /// Chain length in uops.
    pub chain_uops: usize,
    /// Whether the chain is still waiting for its source miss data.
    pub awaiting_source: bool,
    /// Cycles since the last progress event: ship arrival, source
    /// delivery, load completion or result drain.
    pub age: Cycle,
}

impl PostMortem {
    /// Classify a non-completed run by its probe readings, most
    /// *upstream* cause first: a starved MC queue also starves every
    /// EMC chain load queued behind it, so when both probes fire the
    /// starvation is the root cause and the pinned contexts are its
    /// symptom (the mix8-2MC post-mortem confirmed exactly this — MC
    /// aging alone unwedged a run whose contexts looked leaked). A
    /// context stalled while the MC queues drain normally really is a
    /// leak; both explain a stall better than "cores stopped", and only
    /// a run where some unfinished core still retires is merely slow.
    pub fn classify(&self, cfg: &LivenessConfig) -> WedgeClass {
        let mut starved: Vec<usize> = (self.mc_oldest_age.iter())
            .filter(|&&(_, _, age)| age >= cfg.mc_escalation_age)
            .map(|&(mc, _, _)| mc)
            .collect();
        starved.dedup();
        if !starved.is_empty() {
            return WedgeClass::McStarvation { mcs: starved };
        }
        let leaked: Vec<(usize, usize)> = (self.contexts.iter())
            .filter(|c| c.age >= cfg.emc_lease)
            .map(|c| (c.mc, c.ctx))
            .collect();
        if !leaked.is_empty() {
            return WedgeClass::EmcContextLeak { contexts: leaked };
        }
        if self.ring_backlog >= cfg.ring_backlog_threshold {
            return WedgeClass::RingBackpressure {
                backlog: self.ring_backlog,
            };
        }
        let unfinished = self.cores.iter().filter(|c| !c.finished).count();
        let stalled: Vec<usize> = (self.cores.iter().enumerate())
            .filter(|(_, c)| !c.finished && c.retire_age >= cfg.core_stall_age)
            .map(|(core, _)| core)
            .collect();
        if unfinished > 0 && stalled.len() == unfinished {
            return WedgeClass::CoreDeadlock { cores: stalled };
        }
        WedgeClass::SlowButLive
    }
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "post-mortem at cycle {}: {}", self.cycle, self.class)?;
        for (i, c) in self.cores.iter().enumerate() {
            write!(
                f,
                "  core {i} ({}): retired={} last_retired={} cycles ago rob_len={}{}",
                c.bench,
                c.retired_uops,
                c.retire_age,
                c.rob_len,
                if c.finished { " finished" } else { "" },
            )?;
            if let Some(n) = c.active_chain_uops {
                write!(f, " active_chain={n}uops")?;
            }
            match &c.rob_head {
                Some(h) => writeln!(f, " head[{h}]")?,
                None => writeln!(f)?,
            }
        }
        for c in &self.contexts {
            writeln!(
                f,
                "  emc {} ctx {}: home_core={} chain={}uops awaiting_source={} \
                 {} cycles since progress",
                c.mc, c.ctx, c.home_core, c.chain_uops, c.awaiting_source, c.age
            )?;
        }
        for &(mc, ch, age) in &self.mc_oldest_age {
            writeln!(f, "  mc {mc} ch {ch}: oldest queued request age {age}")?;
        }
        writeln!(f, "  ring: worst link backlog {} cycles", self.ring_backlog)?;
        write!(f, "  pending events: {}", self.pending_events)?;
        if !self.recent_samples.is_empty() {
            write!(f, "\n  queue history leading up to the stop:")?;
            for s in &self.recent_samples {
                write!(f, "\n    {}", s.summary_line())?;
            }
        }
        Ok(())
    }
}

crate::json_struct! {
    /// How a simulation run terminated. Its label (`completed`,
    /// `cap-hit`, `wedged`) is its value in the exported JSON documents.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RunOutcome {
        /// Every core reached its retired-uop budget (or finished its
        /// program). The statistics are a valid measurement.
        Completed = "completed",
        /// The cycle cap elapsed before every core reached its budget. The
        /// statistics cover a truncated window and must not be published
        /// as a completed measurement.
        CapHit = "cap-hit",
        /// The forward-progress watchdog fired: no core retired a single
        /// uop for the whole watchdog window. The run was aborted, and its
        /// [`PostMortem`] records the state at the wedge point.
        Wedged = "wedged",
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::CapHit => f.write_str("cycle-cap hit"),
            RunOutcome::Wedged => f.write_str("wedged"),
        }
    }
}

/// The result of a full-system run: final statistics plus a typed
/// outcome, and a post-mortem when the run did not complete.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run terminated.
    pub outcome: RunOutcome,
    /// Statistics accumulated over the measurement window. For
    /// [`RunOutcome::CapHit`] and [`RunOutcome::Wedged`] these cover a
    /// truncated window.
    pub stats: Stats,
    /// What the system looked like where it stopped, and why: present iff
    /// the run did not complete (for `CapHit` its class tells a slow run
    /// from a real pathology).
    pub post_mortem: Option<PostMortem>,
}

impl RunReport {
    /// The root-cause class of a run that did not complete.
    pub fn class(&self) -> Option<&WedgeClass> {
        self.post_mortem.as_ref().map(|p| &p.class)
    }

    /// Unwrap the statistics of a completed run.
    ///
    /// # Panics
    ///
    /// Panics with the class and the full [`PostMortem`] if the run did
    /// not complete — a truncated run can never silently pass as a
    /// measurement.
    pub fn expect_completed(self) -> Stats {
        let class = self
            .class()
            .map_or("unclassified".into(), |c| c.to_string());
        let report =
            (self.post_mortem.as_ref()).map_or("(no post-mortem)".into(), |p| p.to_string());
        match self.outcome {
            RunOutcome::Completed => self.stats,
            RunOutcome::Wedged => panic!("simulation wedged, classified {class}:\n{report}"),
            RunOutcome::CapHit => panic!(
                "simulation hit the cycle cap after {} cycles before every core reached \
                 its budget, classified {class}:\n{report}",
                self.stats.cycles
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{JsonValue, ToJson};

    fn core(bench: &str, retire_age: Cycle, finished: bool) -> CoreRow {
        CoreRow {
            bench: bench.into(),
            retired_uops: 42,
            retire_age,
            finished,
            rob_len: 256,
            rob_head: Some("Load Issued remote=false llc_miss=true".into()),
            active_chain_uops: Some(5),
        }
    }

    fn context(mc: usize, ctx: usize, age: Cycle) -> ContextRow {
        ContextRow {
            mc,
            ctx,
            home_core: 0,
            chain_uops: 5,
            awaiting_source: true,
            age,
        }
    }

    /// A record no probe fires on: core 0 still retires, core 1 finished.
    fn quiet() -> PostMortem {
        PostMortem {
            cycle: 1_000_000,
            class: WedgeClass::SlowButLive,
            cores: vec![core("mcf", 40, false), core("lbm", 900_000, true)],
            contexts: vec![context(0, 0, 500)],
            mc_oldest_age: vec![(0, 0, 120), (0, 1, 0)],
            ring_backlog: 12,
            pending_events: 4,
            recent_samples: vec![MetricSample {
                cycle: 120_000,
                mc_queue_depth: vec![64],
                mc_retry_depth: vec![3],
                banks_open: vec![2],
                emc_busy_contexts: vec![1],
                ring_busy_links: 0,
                outstanding_misses: 17,
                llc_occupancy: vec![512],
                rob_occupancy: vec![256],
            }],
        }
    }

    fn report(outcome: RunOutcome, post_mortem: Option<PostMortem>) -> RunReport {
        RunReport {
            outcome,
            stats: Stats::new(2),
            post_mortem,
        }
    }

    #[test]
    fn post_mortem_display_names_every_row_and_the_class_once() {
        let s = quiet().to_string();
        for row in [
            "post-mortem at cycle 1000000: slow-but-live",
            "core 0 (mcf): retired=42 last_retired=40 cycles ago rob_len=256 active_chain=5uops",
            "core 1 (lbm): retired=42 last_retired=900000 cycles ago rob_len=256 finished",
            "emc 0 ctx 0: home_core=0 chain=5uops awaiting_source=true 500 cycles since progress",
            "mc 0 ch 0: oldest queued request age 120",
            "ring: worst link backlog 12 cycles",
            "pending events: 4",
            "queue history leading up to the stop",
            "cycle 120000: mcq=[64] retry=[3]",
            "outstanding=17",
        ] {
            assert!(s.contains(row), "{row:?} missing from:\n{s}");
        }
        assert_eq!(s.matches("slow-but-live").count(), 1, "{s}");
        let mut bare = quiet();
        bare.recent_samples.clear();
        assert!(!bare.to_string().contains("queue history"));
    }

    #[test]
    #[should_panic(expected = "simulation wedged, classified emc-context-leak")]
    fn expect_completed_panics_on_wedge_with_report() {
        let mut pm = quiet();
        pm.class = WedgeClass::EmcContextLeak {
            contexts: vec![(0, 1)],
        };
        let _ = report(RunOutcome::Wedged, Some(pm)).expect_completed();
    }

    #[test]
    #[should_panic(expected = "classified slow-but-live")]
    fn expect_completed_panics_on_cap_hit() {
        let _ = report(RunOutcome::CapHit, Some(quiet())).expect_completed();
    }

    #[test]
    fn completed_run_unwraps() {
        let report = report(RunOutcome::Completed, None);
        assert!(report.class().is_none());
        assert_eq!(report.expect_completed().cores.len(), 2);
    }

    #[test]
    fn classifier_prefers_specific_causes() {
        let cfg = LivenessConfig::default();
        let mut pm = quiet();
        assert_eq!(pm.classify(&cfg), WedgeClass::SlowButLive);

        // A stalled core while everything else is quiet: deadlock.
        (pm.cores[0].retire_age, pm.cores[1].retire_age) = (400_000, 0);
        assert_eq!(
            pm.classify(&cfg),
            WedgeClass::CoreDeadlock { cores: vec![0] }
        );

        // Ring backlog outranks the core diagnosis.
        pm.ring_backlog = 5_000;
        assert_eq!(
            pm.classify(&cfg),
            WedgeClass::RingBackpressure { backlog: 5_000 }
        );

        // A leaked EMC context outranks the ring: the contexts stalled
        // while the MC queues drained normally.
        pm.contexts = vec![context(0, 0, 500), context(1, 1, 100_000)];
        assert_eq!(
            pm.classify(&cfg),
            WedgeClass::EmcContextLeak {
                contexts: vec![(1, 1)]
            }
        );

        // A starved MC queue is the most upstream cause of all: chain
        // loads queued behind it pin their contexts, so the starvation
        // explains the "leaked" contexts too.
        pm.mc_oldest_age = vec![(0, 0, 120), (1, 2, 50_000)];
        assert_eq!(pm.classify(&cfg), WedgeClass::McStarvation { mcs: vec![1] });
    }

    #[test]
    fn finished_cores_do_not_count_as_deadlocked() {
        let cfg = LivenessConfig::default();
        let mut pm = quiet();
        // Core 1 finished long ago; only core 0 matters, and it retires.
        pm.cores[0].retire_age = 10;
        assert_eq!(pm.classify(&cfg), WedgeClass::SlowButLive);
        // All cores finished: nothing can be deadlocked.
        pm.cores = vec![core("mcf", 900_000, true), core("lbm", 900_000, true)];
        assert_eq!(pm.classify(&cfg), WedgeClass::SlowButLive);
    }

    #[test]
    fn class_labels_and_transience() {
        let cases = [
            (
                WedgeClass::McStarvation { mcs: vec![0] },
                "mc-starvation",
                true,
            ),
            (
                WedgeClass::EmcContextLeak {
                    contexts: vec![(0, 0)],
                },
                "emc-context-leak",
                false,
            ),
            (
                WedgeClass::RingBackpressure { backlog: 9 },
                "ring-backpressure",
                true,
            ),
            (
                WedgeClass::CoreDeadlock { cores: vec![2] },
                "core-deadlock",
                false,
            ),
            (WedgeClass::SlowButLive, "slow-but-live", true),
        ];
        for (class, label, transient) in cases {
            assert_eq!(class.label(), label);
            assert_eq!(class.is_transient(), transient, "{label}");
        }
    }

    #[test]
    fn outcome_display() {
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        assert_eq!(RunOutcome::CapHit.to_string(), "cycle-cap hit");
        assert_eq!(RunOutcome::Wedged.to_string(), "wedged");
    }

    #[test]
    fn run_outcomes_encode_as_their_labels() {
        for (outcome, label) in [
            (RunOutcome::Completed, "completed"),
            (RunOutcome::CapHit, "cap-hit"),
            (RunOutcome::Wedged, "wedged"),
        ] {
            assert_eq!(outcome.to_json_value(), JsonValue::from(label));
            assert_eq!(RunOutcome::from_label(label), Some(outcome));
        }
    }
}
