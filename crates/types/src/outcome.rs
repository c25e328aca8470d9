//! Typed run outcomes: every full-system run reports *how* it ended,
//! not just its statistics. A run that hits the cycle cap or wedges
//! (no core retires anything for a long window) can no longer be
//! mistaken for a completed measurement — harnesses must inspect the
//! [`RunOutcome`] (or call [`RunReport::expect_completed`], which fails
//! loudly with the full [`WedgeReport`] diagnosis).

use std::fmt;

use crate::config::LivenessConfig;
use crate::sample::MetricSample;
use crate::stats::Stats;
use crate::Cycle;

/// Root-cause classification of a run that failed to complete, derived
/// from the per-component liveness probes ([`LivenessSnapshot`]). Each
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
        match self {
            WedgeClass::McStarvation { mcs } => write!(f, "mc-starvation (mcs {mcs:?})"),
            WedgeClass::EmcContextLeak { contexts } => {
                write!(f, "emc-context-leak (mc/ctx {contexts:?})")
            }
            WedgeClass::RingBackpressure { backlog } => {
                write!(f, "ring-backpressure (backlog {backlog} cycles)")
            }
            WedgeClass::CoreDeadlock { cores } => write!(f, "core-deadlock (cores {cores:?})"),
            WedgeClass::SlowButLive => f.write_str("slow-but-live"),
        }
    }
}

/// Point-in-time reading of every per-component liveness probe. The
/// simulator captures one whenever a run ends without completing (and
/// the watchdog samples them at `probe_interval`); the classifier turns
/// it into a [`WedgeClass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessSnapshot {
    /// Cycle at which the probes were read.
    pub cycle: Cycle,
    /// Oldest queued-request age per MC channel: `(mc, global channel,
    /// age in cycles)`, `0` for an empty queue.
    pub mc_oldest_age: Vec<(usize, usize, Cycle)>,
    /// Occupied EMC contexts: `(mc, ctx, cycles since the last progress
    /// event)` — ship arrival, source delivery, load completion or
    /// result drain.
    pub emc_ctx_age: Vec<(usize, usize, Cycle)>,
    /// Worst ring link backlog: queued occupancy beyond `cycle`, in
    /// cycles, across every link of both rings.
    pub ring_backlog: Cycle,
    /// Per-core cycles since the last retirement.
    pub core_retire_age: Vec<Cycle>,
    /// Per-core program-finished flags (a finished core legitimately
    /// stops retiring).
    pub cores_finished: Vec<bool>,
}

impl LivenessSnapshot {
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
        let mut starved: Vec<usize> = self
            .mc_oldest_age
            .iter()
            .filter(|&&(_, _, age)| age >= cfg.mc_escalation_age)
            .map(|&(mc, _, _)| mc)
            .collect();
        starved.dedup();
        if !starved.is_empty() {
            return WedgeClass::McStarvation { mcs: starved };
        }
        let leaked: Vec<(usize, usize)> = self
            .emc_ctx_age
            .iter()
            .filter(|&&(_, _, age)| age >= cfg.emc_lease)
            .map(|&(mc, ctx, _)| (mc, ctx))
            .collect();
        if !leaked.is_empty() {
            return WedgeClass::EmcContextLeak { contexts: leaked };
        }
        if self.ring_backlog >= cfg.ring_backlog_threshold {
            return WedgeClass::RingBackpressure {
                backlog: self.ring_backlog,
            };
        }
        let stalled: Vec<usize> = (0..self.core_retire_age.len())
            .filter(|&core| {
                let finished = self.cores_finished.get(core).copied().unwrap_or(false);
                !finished && self.core_retire_age[core] >= cfg.core_stall_age
            })
            .collect();
        let unfinished = self.cores_finished.iter().filter(|&&fin| !fin).count();
        if unfinished > 0 && stalled.len() == unfinished {
            return WedgeClass::CoreDeadlock { cores: stalled };
        }
        WedgeClass::SlowButLive
    }

    /// One probe reading per line, for `--liveness` dumps and wedge
    /// report displays.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("liveness probes at cycle {}:\n", self.cycle);
        for &(mc, ch, age) in &self.mc_oldest_age {
            let _ = writeln!(s, "  mc {mc} ch {ch}: oldest queued request age {age}");
        }
        for &(mc, ctx, age) in &self.emc_ctx_age {
            let _ = writeln!(s, "  emc {mc} ctx {ctx}: {age} cycles since progress");
        }
        let _ = writeln!(s, "  ring: worst link backlog {} cycles", self.ring_backlog);
        for (core, (&age, &finished)) in self
            .core_retire_age
            .iter()
            .zip(&self.cores_finished)
            .enumerate()
        {
            let _ = writeln!(
                s,
                "  core {core}: {age} cycles since retirement{}",
                if finished { " (finished)" } else { "" }
            );
        }
        s.pop();
        s
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
        /// uop for the whole watchdog window. The run was aborted and a
        /// [`WedgeReport`] captured the scheduler state at the wedge point.
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

/// Per-core state captured when the watchdog declares a wedge.
#[derive(Debug, Clone, PartialEq)]
pub struct WedgeCoreState {
    /// Core index.
    pub core: usize,
    /// Benchmark running on this core.
    pub bench: String,
    /// Uops retired so far (measurement window).
    pub retired_uops: u64,
    /// ROB occupancy at the wedge point.
    pub rob_len: usize,
    /// Whether the core's program had already run to completion.
    pub finished: bool,
    /// Number of uops in the chain this core has in flight at an EMC,
    /// if any.
    pub active_chain_uops: Option<usize>,
    /// Formatted description of the ROB head entry (kind, state,
    /// remote/llc-miss flags, address), if the ROB is non-empty.
    pub rob_head: Option<String>,
}

/// EMC issue-context occupancy captured at the wedge point.
#[derive(Debug, Clone, PartialEq)]
pub struct WedgeEmcContext {
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
}

/// Structured diagnosis of a wedged run: what every scheduler-visible
/// queue looked like when forward progress stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct WedgeReport {
    /// Cycle at which the wedge was declared.
    pub cycle: Cycle,
    /// How many cycles passed with zero retirement before declaring it.
    pub stalled_for: Cycle,
    /// Per-core progress and ROB head state.
    pub cores: Vec<WedgeCoreState>,
    /// Occupied EMC issue contexts.
    pub emc_contexts: Vec<WedgeEmcContext>,
    /// Events still queued in the scheduler.
    pub pending_events: usize,
    /// The queue-depth/occupancy history leading up to the stall, oldest
    /// first: the last samples the sampler captured, if it was enabled,
    /// then one taken at the wedge cycle.
    pub recent_samples: Vec<MetricSample>,
}

impl fmt::Display for WedgeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WEDGE at cycle {}: no core retired a uop for {} cycles",
            self.cycle, self.stalled_for
        )?;
        for c in &self.cores {
            write!(
                f,
                "  core {} ({}): retired={} rob_len={}{}{}",
                c.core,
                c.bench,
                c.retired_uops,
                c.rob_len,
                if c.finished { " finished" } else { "" },
                match c.active_chain_uops {
                    Some(n) => format!(" active_chain={n}uops"),
                    None => String::new(),
                },
            )?;
            match &c.rob_head {
                Some(h) => writeln!(f, " head[{h}]")?,
                None => writeln!(f)?,
            }
        }
        for e in &self.emc_contexts {
            writeln!(
                f,
                "  emc {} ctx {}: home_core={} chain={}uops awaiting_source={}",
                e.mc, e.ctx, e.home_core, e.chain_uops, e.awaiting_source
            )?;
        }
        write!(f, "  pending events: {}", self.pending_events)?;
        if !self.recent_samples.is_empty() {
            write!(f, "\n  queue history leading up to the wedge:")?;
            for s in &self.recent_samples {
                write!(f, "\n    {}", s.summary_line())?;
            }
        }
        Ok(())
    }
}

/// The result of a full-system run: final statistics plus a typed
/// outcome, and the wedge diagnosis when the watchdog fired.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run terminated.
    pub outcome: RunOutcome,
    /// Statistics accumulated over the measurement window. For
    /// [`RunOutcome::CapHit`] and [`RunOutcome::Wedged`] these cover a
    /// truncated window.
    pub stats: Stats,
    /// Scheduler-state diagnosis, present iff `outcome` is `Wedged`.
    pub wedge: Option<WedgeReport>,
    /// Root-cause classification, present for every non-completed
    /// outcome (for `CapHit` it distinguishes slow-but-live from a real
    /// pathology).
    pub class: Option<WedgeClass>,
    /// Liveness probe readings at termination, present for every
    /// non-completed outcome.
    pub liveness: Option<LivenessSnapshot>,
}

impl RunReport {
    /// True iff every core reached its budget.
    pub fn is_completed(&self) -> bool {
        self.outcome == RunOutcome::Completed
    }

    /// Unwrap the statistics of a completed run.
    ///
    /// # Panics
    ///
    /// Panics with the full diagnosis (including the [`WedgeReport`]
    /// for wedged runs, or per-core progress for cap-hit runs) if the
    /// run did not complete — a truncated run can never silently pass
    /// as a measurement.
    pub fn expect_completed(self) -> Stats {
        match self.outcome {
            RunOutcome::Completed => self.stats,
            RunOutcome::Wedged => {
                let report = self
                    .wedge
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "(no wedge report captured)".into());
                let class = self.class.map_or("unclassified".into(), |c| c.to_string());
                panic!("simulation wedged, classified {class}:\n{report}");
            }
            RunOutcome::CapHit => {
                let progress: Vec<u64> = self.stats.cores.iter().map(|c| c.retired_uops).collect();
                let class = self
                    .class
                    .map(|c| format!("; classified {c}"))
                    .unwrap_or_default();
                panic!(
                    "simulation hit the cycle cap after {} cycles before every core \
                     reached its budget; per-core retired uops: {:?}{}",
                    self.stats.cycles, progress, class
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{JsonValue, ToJson};

    fn sample_wedge() -> WedgeReport {
        WedgeReport {
            cycle: 123_456,
            stalled_for: 250_000,
            cores: vec![WedgeCoreState {
                core: 0,
                bench: "mcf".into(),
                retired_uops: 42,
                rob_len: 256,
                finished: false,
                active_chain_uops: Some(5),
                rob_head: Some("Load Issued remote=false llc_miss=true".into()),
            }],
            emc_contexts: vec![WedgeEmcContext {
                mc: 0,
                ctx: 1,
                home_core: 0,
                chain_uops: 5,
                awaiting_source: true,
            }],
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

    #[test]
    fn wedge_report_display_names_every_queue() {
        let s = sample_wedge().to_string();
        assert!(s.contains("WEDGE at cycle 123456"));
        assert!(s.contains("core 0 (mcf)"));
        assert!(s.contains("emc 0 ctx 1"));
        assert!(s.contains("pending events: 4"));
        assert!(s.contains("mcq=[64] retry=[3]"));
        assert!(s.contains("outstanding=17"));
    }

    #[test]
    fn wedge_report_display_includes_sample_history() {
        let s = sample_wedge().to_string();
        assert!(s.contains("queue history leading up to the wedge"));
        assert!(s.contains("cycle 120000: mcq=[64]"));
        let mut bare = sample_wedge();
        bare.recent_samples.clear();
        assert!(!bare.to_string().contains("queue history"));
    }

    #[test]
    #[should_panic(expected = "simulation wedged, classified emc-context-leak")]
    fn expect_completed_panics_on_wedge_with_report() {
        let report = RunReport {
            outcome: RunOutcome::Wedged,
            stats: Stats::new(1),
            wedge: Some(sample_wedge()),
            class: Some(WedgeClass::EmcContextLeak {
                contexts: vec![(0, 1)],
            }),
            liveness: None,
        };
        let _ = report.expect_completed();
    }

    #[test]
    #[should_panic(expected = "classified slow-but-live")]
    fn expect_completed_panics_on_cap_hit() {
        let report = RunReport {
            outcome: RunOutcome::CapHit,
            stats: Stats::new(2),
            wedge: None,
            class: Some(WedgeClass::SlowButLive),
            liveness: None,
        };
        let _ = report.expect_completed();
    }

    #[test]
    fn completed_run_unwraps() {
        let report = RunReport {
            outcome: RunOutcome::Completed,
            stats: Stats::new(2),
            wedge: None,
            class: None,
            liveness: None,
        };
        assert!(report.is_completed());
        assert_eq!(report.expect_completed().cores.len(), 2);
    }

    fn quiet_snapshot() -> LivenessSnapshot {
        LivenessSnapshot {
            cycle: 1_000_000,
            mc_oldest_age: vec![(0, 0, 120), (0, 1, 0)],
            emc_ctx_age: vec![(0, 0, 500)],
            ring_backlog: 12,
            core_retire_age: vec![40, 900_000],
            cores_finished: vec![false, true],
        }
    }

    #[test]
    fn classifier_prefers_specific_causes() {
        let cfg = LivenessConfig::default();
        let mut snap = quiet_snapshot();
        assert_eq!(snap.classify(&cfg), WedgeClass::SlowButLive);

        // A stalled core while everything else is quiet: deadlock.
        snap.core_retire_age = vec![400_000, 0];
        assert_eq!(
            snap.classify(&cfg),
            WedgeClass::CoreDeadlock { cores: vec![0] }
        );

        // Ring backlog outranks the core diagnosis.
        snap.ring_backlog = 5_000;
        assert_eq!(
            snap.classify(&cfg),
            WedgeClass::RingBackpressure { backlog: 5_000 }
        );

        // A leaked EMC context outranks the ring: the contexts stalled
        // while the MC queues drained normally.
        snap.emc_ctx_age = vec![(0, 0, 500), (1, 1, 100_000)];
        assert_eq!(
            snap.classify(&cfg),
            WedgeClass::EmcContextLeak {
                contexts: vec![(1, 1)]
            }
        );

        // A starved MC queue is the most upstream cause of all: chain
        // loads queued behind it pin their contexts, so the starvation
        // explains the "leaked" contexts too.
        snap.mc_oldest_age = vec![(0, 0, 120), (1, 2, 50_000)];
        assert_eq!(
            snap.classify(&cfg),
            WedgeClass::McStarvation { mcs: vec![1] }
        );
    }

    #[test]
    fn finished_cores_do_not_count_as_deadlocked() {
        let cfg = LivenessConfig::default();
        let mut snap = quiet_snapshot();
        // Core 1 finished long ago; only core 0 matters, and it retires.
        snap.core_retire_age = vec![10, 900_000];
        assert_eq!(snap.classify(&cfg), WedgeClass::SlowButLive);
        // All cores finished: nothing can be deadlocked.
        snap.cores_finished = vec![true, true];
        snap.core_retire_age = vec![900_000, 900_000];
        assert_eq!(snap.classify(&cfg), WedgeClass::SlowButLive);
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
    fn snapshot_summary_names_every_probe() {
        let s = quiet_snapshot().summary();
        assert!(s.contains("mc 0 ch 0: oldest queued request age 120"));
        assert!(s.contains("emc 0 ctx 0: 500 cycles since progress"));
        assert!(s.contains("ring: worst link backlog 12 cycles"));
        assert!(s.contains("core 1: 900000 cycles since retirement (finished)"));
    }

    #[test]
    fn wedge_report_display_leaves_the_root_cause_to_the_run_report() {
        // `RunReport::class` carries it: printed once, by whoever prints
        // the run's outcome.
        assert!(!sample_wedge().to_string().contains("root cause"));
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
