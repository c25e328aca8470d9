//! Host-performance profiling: where does the simulator's *wall-clock*
//! time go?
//!
//! Everything else in this workspace measures *simulated* time; this
//! module measures the host. [`TickProfiler`] attributes wall-time
//! across the sub-phases of [`System::tick`](crate::System::tick) —
//! event drain, memory controllers, EMCs, chain generation, prefetch,
//! cores, observability — and [`ThroughputMeter`] turns a whole run
//! into simulated-cycles-per-second and retired-uops-per-second.
//! `emcsim --profile` prints both; `benchmark/`'s `trace` binary turns
//! the profiler's report into the `sim.phase.*` metrics.
//!
//! # Overhead model
//!
//! Profiling is **off by default** and costs one predictable branch per
//! phase boundary when off (a `None` check — no clock read, no atomic).
//! When on, clock reads are amortized by *stride sampling*: only one
//! tick in every `stride` is measured, and within a measured tick each
//! phase boundary is a single monotonic-clock read (`phase_mark` reuses
//! the end of phase *n* as the start of phase *n+1*). At the default
//! stride of 64 that is ⅛ of a clock read per tick. Sampled phase
//! intervals are disjoint sub-intervals of the run's wall time, so
//! their sum can never exceed it
//! (`sampled_phase_time_is_bounded_by_wall_time` below).
//!
//! The profiler reads the clock and nothing else: it never touches
//! simulator state, so enabling it cannot perturb simulated results
//! (asserted by `profiling_does_not_perturb_results` below).

use std::time::Instant;

/// Number of [`Phase`]s (sizes the accumulator arrays).
pub const PHASE_COUNT: usize = 7;

/// Default sampling stride for [`TickProfiler::with_stride`]: measure
/// one tick in 64.
pub const DEFAULT_PROFILE_STRIDE: u32 = 64;

/// The sub-phases of one [`System::tick`](crate::System::tick), in
/// execution order, which is also their index (`phase as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-queue drain: ring deliveries, DRAM completions, L1 fills.
    Events,
    /// PAR-BS memory-controller scheduling (`tick_mcs`).
    Mcs,
    /// Enhanced-memory-controller contexts (`tick_emcs`).
    Emcs,
    /// Dependence-chain generation at full-window stalls.
    ChainGen,
    /// Prefetch-engine drains.
    Prefetch,
    /// Out-of-order core pipelines (`tick_cores`).
    Cores,
    /// Observability: retirement probe, sampler, tracing, snapshots.
    Observe,
}

impl Phase {
    /// Every phase, in tick order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Events,
        Phase::Mcs,
        Phase::Emcs,
        Phase::ChainGen,
        Phase::Prefetch,
        Phase::Cores,
        Phase::Observe,
    ];

    /// Stable label: the table row, and `benchmark/`'s metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Events => "events",
            Phase::Mcs => "tick_mcs",
            Phase::Emcs => "tick_emcs",
            Phase::ChainGen => "chain_gen",
            Phase::Prefetch => "prefetch",
            Phase::Cores => "tick_cores",
            Phase::Observe => "observe",
        }
    }
}

/// Stride-sampling scoped phase timer for `System::tick`.
///
/// Construct with [`TickProfiler::disabled`] (the default inside
/// [`System`](crate::System)) or [`TickProfiler::with_stride`]; read
/// results with [`report`](TickProfiler::report). See the module docs
/// for the overhead model.
#[derive(Debug, Clone)]
pub struct TickProfiler {
    /// Sampling stride (0 = disabled; 1 = every tick).
    stride: u32,
    /// Ticks until the next sampled one.
    countdown: u32,
    /// Whether the tick currently in flight is being measured.
    sampling: bool,
    /// Accumulated nanoseconds per phase, sampled ticks only.
    nanos: [u64; PHASE_COUNT],
    /// Number of sampled intervals per phase.
    samples: [u64; PHASE_COUNT],
    /// Ticks measured so far.
    sampled_ticks: u64,
    /// Ticks seen so far (measured or not).
    total_ticks: u64,
}

impl Default for TickProfiler {
    fn default() -> Self {
        TickProfiler::disabled()
    }
}

impl TickProfiler {
    /// A profiler that never samples (the zero-overhead default).
    pub fn disabled() -> Self {
        TickProfiler {
            stride: 0,
            countdown: 0,
            sampling: false,
            nanos: [0; PHASE_COUNT],
            samples: [0; PHASE_COUNT],
            sampled_ticks: 0,
            total_ticks: 0,
        }
    }

    /// A profiler measuring one tick in every `stride` (0 disables,
    /// 1 measures every tick). The first tick is always sampled, so
    /// short runs still produce a breakdown.
    pub fn with_stride(stride: u32) -> Self {
        TickProfiler {
            stride,
            ..TickProfiler::disabled()
        }
    }

    /// Called once at the top of each tick: decides whether this tick
    /// is sampled. One branch when disabled.
    #[inline]
    pub fn begin_tick(&mut self) {
        if self.stride == 0 {
            return;
        }
        self.total_ticks += 1;
        if self.countdown == 0 {
            self.countdown = self.stride - 1;
            self.sampling = true;
            self.sampled_ticks += 1;
        } else {
            self.countdown -= 1;
            self.sampling = false;
        }
    }

    /// Start of the first phase: a clock read iff this tick is sampled.
    #[inline]
    pub fn phase_start(&self) -> Option<Instant> {
        if self.sampling {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close `phase` and open the next one with a *single* clock read:
    /// the end of one phase is the start of its successor.
    #[inline]
    pub fn phase_mark(&mut self, phase: Phase, start: Option<Instant>) -> Option<Instant> {
        start.map(|t| {
            let now = Instant::now();
            self.record(phase, now.saturating_duration_since(t).as_nanos() as u64);
            now
        })
    }

    /// Close the final phase of a sampled tick (no successor to open).
    #[inline]
    pub fn phase_end(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(t) = start {
            self.record(phase, t.elapsed().as_nanos() as u64);
        }
    }

    /// Credit `nanos` to `phase` directly (the measurement core;
    /// public so tests can synthesize known distributions).
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let i = phase as usize;
        self.nanos[i] = self.nanos[i].saturating_add(nanos);
        self.samples[i] = self.samples[i].saturating_add(1);
    }

    /// Snapshot the accumulated breakdown.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    name: p.name(),
                    nanos: self.nanos[p as usize],
                    samples: self.samples[p as usize],
                })
                .collect(),
            sampled_ticks: self.sampled_ticks,
            total_ticks: self.total_ticks,
        }
    }
}

/// One phase's share of the sampled wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// [`Phase::name`] label.
    pub name: &'static str,
    /// Nanoseconds accumulated over sampled ticks.
    pub nanos: u64,
    /// Sampled intervals contributing to `nanos`.
    pub samples: u64,
}

/// Snapshot of a [`TickProfiler`]: per-phase sampled nanoseconds plus
/// the sampling coverage needed to extrapolate run-wide totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Per-phase statistics, in tick order.
    pub phases: Vec<PhaseStat>,
    /// Ticks that were measured.
    pub sampled_ticks: u64,
    /// Ticks that ran (measured or not).
    pub total_ticks: u64,
}

impl ProfileReport {
    /// Total sampled nanoseconds across all phases.
    pub fn sampled_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// `phase`'s fraction of the sampled wall time (0 when nothing was
    /// sampled). Shares over all phases sum to ≤ 1.
    pub fn share(&self, name: &str) -> f64 {
        let total = self.sampled_nanos();
        if total == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.nanos as f64 / total as f64)
    }

    /// A human-readable table (one line per phase), widest share first.
    pub fn table(&self) -> String {
        let mut rows: Vec<&PhaseStat> = self.phases.iter().collect();
        rows.sort_by_key(|p| std::cmp::Reverse(p.nanos));
        let mut out = String::new();
        for p in rows {
            out.push_str(&format!(
                "{:<12} {:>6.1}%  {:>12} ns over {} samples\n",
                p.name,
                100.0 * self.share(p.name),
                p.nanos,
                p.samples
            ));
        }
        out.push_str(&format!(
            "(sampled {} of {} ticks)\n",
            self.sampled_ticks, self.total_ticks
        ));
        out
    }
}

/// Wall-clock throughput of one run: how fast the host simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Host nanoseconds between [`ThroughputMeter::start`] and
    /// [`finish`](ThroughputMeter::finish).
    pub wall_nanos: u64,
    /// Simulated cycles covered by that wall time.
    pub cycles: u64,
    /// Retired uops covered by that wall time (summed over cores).
    pub uops: u64,
}

impl Throughput {
    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        per_sec(self.cycles, self.wall_nanos)
    }

    /// Retired uops per host second.
    pub fn uops_per_sec(&self) -> f64 {
        per_sec(self.uops, self.wall_nanos)
    }
}

fn per_sec(count: u64, wall_nanos: u64) -> f64 {
    if wall_nanos == 0 {
        return 0.0;
    }
    count as f64 / (wall_nanos as f64 / 1e9)
}

/// Measures a run's [`Throughput`]: two clock reads total.
#[derive(Debug)]
pub struct ThroughputMeter {
    start: Instant,
}

impl ThroughputMeter {
    /// Start the meter (reads the clock once).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        ThroughputMeter {
            start: Instant::now(),
        }
    }

    /// Stop the meter and bind the wall time to what was simulated.
    pub fn finish(self, cycles: u64, uops: u64) -> Throughput {
        Throughput {
            wall_nanos: self.start.elapsed().as_nanos() as u64,
            cycles,
            uops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_never_samples() {
        let mut p = TickProfiler::disabled();
        for _ in 0..100 {
            p.begin_tick();
            assert_eq!(p.phase_start(), None, "no clock reads when disabled");
        }
        let r = p.report();
        assert_eq!(r.sampled_ticks, 0);
        assert_eq!(r.sampled_nanos(), 0);
        assert_eq!(p.stride, 0);
    }

    #[test]
    fn stride_samples_one_tick_in_n() {
        let mut p = TickProfiler::with_stride(4);
        let mut sampled = 0;
        for _ in 0..17 {
            p.begin_tick();
            if p.phase_start().is_some() {
                sampled += 1;
            }
        }
        // Ticks 0, 4, 8, 12, 16.
        assert_eq!(sampled, 5);
        let r = p.report();
        assert_eq!(r.sampled_ticks, 5);
        assert_eq!(r.total_ticks, 17);
    }

    #[test]
    fn phase_mark_chains_and_attributes() {
        let mut p = TickProfiler::with_stride(1);
        p.begin_tick();
        let t = p.phase_start();
        assert!(t.is_some());
        let t = p.phase_mark(Phase::Events, t);
        let t = p.phase_mark(Phase::Cores, t);
        p.phase_end(Phase::Observe, t);
        let r = p.report();
        let by_name = |n: &str| r.phases.iter().find(|p| p.name == n).unwrap();
        assert_eq!(by_name("events").samples, 1);
        assert_eq!(by_name("tick_cores").samples, 1);
        assert_eq!(by_name("observe").samples, 1);
        assert_eq!(by_name("tick_mcs").samples, 0);
    }

    #[test]
    fn sampled_phase_time_is_bounded_by_wall_time() {
        // Phases are disjoint sub-intervals of the run: their sum can
        // never exceed the wall time bracketing them.
        let mut p = TickProfiler::with_stride(2);
        let meter = ThroughputMeter::new();
        for _ in 0..200 {
            p.begin_tick();
            let t = p.phase_start();
            let t = p.phase_mark(Phase::Events, t);
            std::hint::black_box((0..50).sum::<u64>());
            let t = p.phase_mark(Phase::Cores, t);
            p.phase_end(Phase::Observe, t);
        }
        let tp = meter.finish(200, 0);
        let r = p.report();
        assert!(r.sampled_ticks == 100);
        assert!(
            r.sampled_nanos() <= tp.wall_nanos,
            "sampled {} > wall {}",
            r.sampled_nanos(),
            tp.wall_nanos
        );
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let mut p = TickProfiler::with_stride(1);
        p.record(Phase::Cores, 600);
        p.record(Phase::Mcs, 300);
        p.record(Phase::Observe, 100);
        let r = p.report();
        let sum: f64 = Phase::ALL.iter().map(|ph| r.share(ph.name())).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        assert!((r.share("tick_cores") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn throughput_rates() {
        let tp = Throughput {
            wall_nanos: 2_000_000_000,
            cycles: 5_000_000,
            uops: 1_000_000,
        };
        assert!((tp.cycles_per_sec() - 2_500_000.0).abs() < 1e-6);
        assert!((tp.uops_per_sec() - 500_000.0).abs() < 1e-6);
        let zero = Throughput {
            wall_nanos: 0,
            cycles: 1,
            uops: 1,
        };
        assert_eq!(zero.cycles_per_sec(), 0.0, "zero wall never divides");
    }
}
