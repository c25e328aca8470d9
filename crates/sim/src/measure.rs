//! What a run measures: the cycle measurement started, each core's
//! statistics frozen when it reached its budget, and the watchdog that
//! stops a run in which nothing retires.
//!
//! `System::run` measures from wherever the system stands, statistics
//! included; only `run_with_warmup` [resets](Measure::reset) them after
//! its warmup phase.

use crate::metrics::Sampler;
use emc_cpu::Core;
use emc_types::{CoreStats, Cycle, LivenessConfig, Stats};

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

/// A run's measurement window over the cores it reads.
pub(crate) struct Measure {
    /// The cycle measurement started.
    pub start: Cycle,
    /// Each core's statistics as of the cycle it reached its budget.
    snapshots: Vec<Option<CoreStats>>,
    watchdog: Watchdog,
}

fn total_retired(cores: &[Core]) -> u64 {
    cores.iter().map(|c| c.stats.retired_uops).sum()
}

/// Whether `core` has retired `budget` uops or finished its program.
fn reached(core: &Core, budget: u64) -> bool {
    core.stats.retired_uops >= budget || core.finished_at().is_some()
}

impl Measure {
    /// Measurement from cycle 0 over `cores` cores; the watchdog is armed
    /// by each run phase.
    pub fn new(cores: usize) -> Self {
        Measure {
            start: 0,
            snapshots: vec![None; cores],
            watchdog: Watchdog::new(0, 0, 1, Cycle::MAX),
        }
    }

    /// Start measuring at `now`: zero every statistic, the system's
    /// `stats` and each core's (keeping microarchitectural state), forget
    /// the snapshots, and discard the samples taken so far.
    pub fn reset(
        &mut self,
        now: Cycle,
        cores: &mut [Core],
        stats: &mut Stats,
        samples: &mut Sampler,
    ) {
        self.start = now;
        *stats = Stats::new(cores.len());
        cores
            .iter_mut()
            .for_each(|c| c.stats = CoreStats::default());
        self.snapshots.fill(None);
        samples.clear();
    }

    /// Arm the watchdog for a run phase starting at `now`, with the
    /// probe interval and stall window `liveness` sets.
    pub fn arm_watchdog(&mut self, now: Cycle, cores: &[Core], liveness: &LivenessConfig) {
        let (interval, stall) = (liveness.probe_interval, liveness.core_stall_age);
        self.watchdog = Watchdog::new(now, total_retired(cores), interval, stall);
    }

    /// The next cycle the watchdog looks at retirement.
    pub fn next_check(&self) -> Cycle {
        self.watchdog.next_check
    }

    /// Whether nothing has retired anywhere for the whole stall window.
    pub fn wedged(&mut self, now: Cycle, cores: &[Core]) -> bool {
        now >= self.watchdog.next_check && self.watchdog.check(now, total_retired(cores))
    }

    /// Freeze the statistics of every core that has reached `budget` by
    /// `now` and has none frozen yet.
    pub fn take(&mut self, now: Cycle, budget: u64, cores: &[Core]) {
        for (snap, core) in self.snapshots.iter_mut().zip(cores) {
            if reached(core, budget) && snap.is_none() {
                let mut s = core.stats.clone();
                s.cycles = (now - self.start).max(1);
                *snap = Some(s);
            }
        }
    }

    /// Whether every core has reached `budget` or has frozen statistics.
    pub fn all_done(&self, budget: u64, cores: &[Core]) -> bool {
        (self.snapshots.iter().zip(cores))
            .all(|(snap, core)| reached(core, budget) || snap.is_some())
    }

    /// The measured statistics at `now`: `stats` over the window, each
    /// core's frozen at its budget, or as it stands if it never got there.
    pub fn stats(&self, now: Cycle, stats: &Stats, cores: &[Core]) -> Stats {
        let mut stats = stats.clone();
        stats.cycles = now - self.start;
        for ((out, snap), core) in stats.cores.iter_mut().zip(&self.snapshots).zip(cores) {
            *out = snap.clone().unwrap_or_else(|| {
                let mut s = core.stats.clone();
                s.cycles = (core.finished_at().unwrap_or(now) - self.start).max(1);
                s
            });
        }
        stats
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
}
