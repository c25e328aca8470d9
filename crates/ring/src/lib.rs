//! Bi-directional ring interconnect model.
//!
//! Table 1 of the paper: "2 Bi-directional rings: control (8 bytes) / data
//! (64 bytes). 1 cycle core to LLC slice bypass. 1 cycle ring links." Each
//! core shares a ring stop with its LLC slice; the memory controller(s)
//! occupy additional stops (Figures 7 and 11).
//!
//! Messages pick the shorter direction and occupy each link they traverse,
//! so ring contention — a component of the on-chip delay the EMC avoids —
//! is modeled, not assumed. The EMC's traffic overhead statistics (§6.5)
//! fall out of the [`RingStats`] counters updated on every send.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emc_types::rng::{seeded_rng, SmallRng};
use emc_types::{Cycle, FaultPlan, RingConfig, RingStats};

/// Which of the two rings a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingKind {
    /// 8-byte control ring (requests, snoops, acks).
    Control,
    /// 64-byte data ring (cache lines, uop chains, live-in/out registers).
    Data,
}

/// Ring-stop topology: cores first, then one stop per memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of cores (each owns one stop, shared with its LLC slice).
    pub cores: usize,
    /// Number of memory-controller stops.
    pub mcs: usize,
}

impl Topology {
    /// Total ring stops.
    pub fn stops(&self) -> usize {
        self.cores + self.mcs
    }

    /// Stop index of core `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn core_stop(&self, c: usize) -> usize {
        assert!(c < self.cores, "core {c} out of range");
        c
    }

    /// Stop index of memory controller `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn mc_stop(&self, m: usize) -> usize {
        assert!(m < self.mcs, "MC {m} out of range");
        self.cores + m
    }

    /// Stop index of the LLC slice co-located with core `c`.
    pub fn llc_stop(&self, c: usize) -> usize {
        self.core_stop(c)
    }

    /// Home LLC slice of a line: the line number modulo the slice count,
    /// so consecutive lines go to consecutive slices. There is no address
    /// hash. Since each slice also picks its set from the low line bits,
    /// slice `s` only ever uses the sets whose index is `s` modulo the
    /// slice count (ROADMAP item 2).
    pub fn llc_slice_of(&self, line: emc_types::LineAddr) -> usize {
        (line.0 % self.cores as u64) as usize
    }
}

/// The pair of bi-directional rings.
///
/// # Example
///
/// ```
/// use emc_ring::{Ring, RingKind, Topology};
/// use emc_types::{RingConfig, RingStats};
///
/// let topo = Topology { cores: 4, mcs: 1 };
/// let mut ring = Ring::new(topo, RingConfig::default());
/// let mut stats = RingStats::default();
/// // Core 0 sends a request to the MC stop.
/// let arrive = ring.send(RingKind::Control, 0, topo.mc_stop(0), 100, false, &mut stats);
/// assert!(arrive > 100);
/// assert_eq!(stats.control_msgs, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    topo: Topology,
    cfg: RingConfig,
    // free_at[kind][direction][link]; link i connects stop i -> i+1 (cw).
    free_at: [[Vec<Cycle>; 2]; 2],
    // Injected-delay fault state: (probability, extra cycles, rng).
    faults: Option<(f64, u64, SmallRng)>,
}

impl Ring {
    /// Build the rings for a topology.
    pub fn new(topo: Topology, cfg: RingConfig) -> Self {
        let links = vec![0; topo.stops()];
        Ring {
            topo,
            cfg,
            free_at: [[links.clone(), links.clone()], [links.clone(), links]],
            faults: None,
        }
    }

    /// Arm deterministic fault injection: with probability
    /// `plan.ring_delay_prob`, each message is delayed by
    /// `plan.ring_delay_cycles` extra cycles (modeling a link-level
    /// retry). `seed` should be a [`substream`](emc_types::rng::substream)
    /// of the system seed so faulty runs are reproducible.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        if plan.enabled && plan.ring_delay_prob > 0.0 {
            self.faults = Some((
                plan.ring_delay_prob,
                plan.ring_delay_cycles,
                seeded_rng(seed),
            ));
        } else {
            self.faults = None;
        }
    }

    /// The topology this ring was built for.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Number of links (across both rings and both directions) still
    /// occupied by in-flight messages at cycle `now` — the sampler's
    /// ring-utilization metric. The maximum is `4 * stops()`.
    pub fn busy_links(&self, now: Cycle) -> usize {
        self.free_at
            .iter()
            .flat_map(|dirs| dirs.iter())
            .flat_map(|links| links.iter())
            .filter(|&&free| free > now)
            .count()
    }

    /// Liveness probe: the worst link backlog across both rings and
    /// directions — how far beyond `now` the busiest link is already
    /// committed, in cycles (`0` when every link is free). A backlog
    /// that keeps growing means senders are queueing faster than links
    /// drain: interconnect backpressure, not DRAM latency.
    pub fn max_backlog(&self, now: Cycle) -> Cycle {
        self.free_at
            .iter()
            .flat_map(|dirs| dirs.iter())
            .flat_map(|links| links.iter())
            .map(|&free| free.saturating_sub(now))
            .max()
            .unwrap_or(0)
    }

    /// Hop distance and direction (0 = clockwise) of the shorter path.
    fn route(&self, from: usize, to: usize) -> (usize, usize) {
        let n = self.topo.stops();
        let cw = (to + n - from) % n;
        let ccw = (from + n - to) % n;
        if cw <= ccw {
            (cw, 0)
        } else {
            (ccw, 1)
        }
    }

    /// Send a message at cycle `now` from stop `from` to stop `to`,
    /// returning its arrival cycle. Links are occupied store-and-forward,
    /// so concurrent traffic on the same links queues up. `emc` attributes
    /// the message to the EMC for the §6.5 overhead statistics.
    pub fn send(
        &mut self,
        kind: RingKind,
        from: usize,
        to: usize,
        now: Cycle,
        emc: bool,
        stats: &mut RingStats,
    ) -> Cycle {
        match kind {
            RingKind::Control => {
                stats.control_msgs += 1;
                if emc {
                    stats.emc_control_msgs += 1;
                }
            }
            RingKind::Data => {
                stats.data_msgs += 1;
                if emc {
                    stats.emc_data_msgs += 1;
                }
            }
        }
        // Injected link-retry fault: the message re-traverses after a
        // CRC-style error, costing extra cycles but always delivering —
        // a pure timing perturbation.
        let injected = self.faults.as_mut().map_or(0, |(prob, delay, rng)| {
            if rng.gen_bool(*prob) {
                stats.injected_delays += 1;
                *delay
            } else {
                0
            }
        });
        if from == to {
            // Same-stop bypass (core to its own LLC slice).
            return now + self.cfg.stop_cycles + injected;
        }
        let (hops, dir) = self.route(from, to);
        stats.total_hops += hops as u64;
        let ki = match kind {
            RingKind::Control => 0,
            RingKind::Data => 1,
        };
        let n = self.topo.stops();
        let mut t = now;
        let mut stop = from;
        for _ in 0..hops {
            let link = if dir == 0 { stop } else { (stop + n - 1) % n };
            let free = &mut self.free_at[ki][dir][link];
            t = t.max(*free) + self.cfg.link_cycles;
            *free = t;
            stop = if dir == 0 {
                (stop + 1) % n
            } else {
                (stop + n - 1) % n
            };
        }
        t + self.cfg.stop_cycles + injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> (Ring, RingStats) {
        let topo = Topology { cores: 4, mcs: 1 };
        (Ring::new(topo, RingConfig::default()), RingStats::default())
    }

    #[test]
    fn same_stop_bypass_is_one_cycle() {
        let (mut r, mut s) = quad();
        let t = r.send(RingKind::Control, 2, 2, 10, false, &mut s);
        assert_eq!(t, 11);
        assert_eq!(s.total_hops, 0);
    }

    #[test]
    fn shorter_direction_chosen() {
        let (mut r, mut s) = quad();
        // 5 stops: 0 -> 4 is 1 hop counter-clockwise, 4 clockwise.
        let t = r.send(RingKind::Control, 0, 4, 0, false, &mut s);
        assert_eq!(s.total_hops, 1);
        assert_eq!(t, 2); // 1 link + 1 stop cycle
    }

    #[test]
    fn distance_scales_latency() {
        let (mut r, mut s) = quad();
        let near = r.send(RingKind::Data, 0, 1, 0, false, &mut s);
        let far = r.send(RingKind::Data, 0, 2, 100, false, &mut s);
        assert!(
            far - 100 > near,
            "2 hops beat 1 hop: {near} vs {}",
            far - 100
        );
    }

    #[test]
    fn contention_queues_messages() {
        let (mut r, mut s) = quad();
        let a = r.send(RingKind::Data, 0, 2, 0, false, &mut s);
        let b = r.send(RingKind::Data, 0, 2, 0, false, &mut s);
        assert!(b > a, "second message must queue behind the first");
    }

    #[test]
    fn rings_are_independent() {
        let (mut r, mut s) = quad();
        let a = r.send(RingKind::Data, 0, 2, 0, false, &mut s);
        // Control ring sees no contention from the data message.
        let c = r.send(RingKind::Control, 0, 2, 0, false, &mut s);
        assert_eq!(a, c, "control and data rings have separate links");
    }

    #[test]
    fn directions_are_independent() {
        let (mut r, mut s) = quad();
        let a = r.send(RingKind::Data, 0, 1, 0, false, &mut s);
        let b = r.send(RingKind::Data, 1, 0, 0, false, &mut s);
        assert_eq!(a, b, "cw and ccw links are separate");
    }

    #[test]
    fn emc_attribution() {
        let (mut r, mut s) = quad();
        r.send(RingKind::Data, 0, 4, 0, true, &mut s);
        r.send(RingKind::Data, 0, 4, 0, false, &mut s);
        r.send(RingKind::Control, 1, 4, 0, true, &mut s);
        assert_eq!(s.data_msgs, 2);
        assert_eq!(s.emc_data_msgs, 1);
        assert_eq!(s.control_msgs, 1);
        assert_eq!(s.emc_control_msgs, 1);
    }

    #[test]
    fn busy_links_tracks_in_flight_messages() {
        let (mut r, mut s) = quad();
        assert_eq!(r.busy_links(0), 0, "idle ring has no busy links");
        let arrive = r.send(RingKind::Data, 0, 2, 0, false, &mut s);
        assert!(r.busy_links(0) > 0, "links occupied while in flight");
        assert_eq!(
            r.busy_links(arrive),
            0,
            "links free once the message arrives"
        );
    }

    #[test]
    fn topology_stops() {
        let t = Topology { cores: 8, mcs: 2 };
        assert_eq!(t.stops(), 10);
        assert_eq!(t.core_stop(7), 7);
        assert_eq!(t.mc_stop(0), 8);
        assert_eq!(t.mc_stop(1), 9);
        assert_eq!(t.llc_stop(3), 3);
    }

    #[test]
    fn llc_slice_hashing_covers_all_slices() {
        let t = Topology { cores: 4, mcs: 1 };
        let mut seen = [false; 4];
        for l in 0..16u64 {
            seen[t.llc_slice_of(emc_types::LineAddr(l))] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_stop_panics() {
        Topology { cores: 4, mcs: 1 }.core_stop(4);
    }

    #[test]
    fn fault_delays_are_additive_and_counted() {
        let (mut clean, mut s0) = quad();
        let (mut faulty, mut s1) = quad();
        let plan = FaultPlan {
            enabled: true,
            ring_delay_prob: 1.0, // every message delayed
            ring_delay_cycles: 7,
            ..FaultPlan::default()
        };
        faulty.set_fault_plan(&plan, 42);
        for (from, to) in [(0usize, 2usize), (3, 3), (1, 4)] {
            let a = clean.send(RingKind::Data, from, to, 0, false, &mut s0);
            let b = faulty.send(RingKind::Data, from, to, 0, false, &mut s1);
            assert_eq!(b, a + 7, "{from}->{to}: delay must be exactly the penalty");
        }
        assert_eq!(s1.injected_delays, 3);
        assert_eq!(s0.injected_delays, 0);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let plan = FaultPlan {
            enabled: true,
            ring_delay_prob: 0.3,
            ring_delay_cycles: 11,
            ..FaultPlan::default()
        };
        let run = || {
            let (mut r, mut s) = quad();
            r.set_fault_plan(&plan, 7);
            let times: Vec<Cycle> = (0..100)
                .map(|i| {
                    r.send(
                        RingKind::Control,
                        i % 5,
                        (i + 2) % 5,
                        i as u64 * 10,
                        false,
                        &mut s,
                    )
                })
                .collect();
            (times, s.injected_delays)
        };
        let (t0, d0) = run();
        let (t1, d1) = run();
        assert_eq!(t0, t1);
        assert_eq!(d0, d1);
        assert!(d0 > 0, "with p=0.3 over 100 sends some faults must fire");
        assert!(d0 < 100, "and not all of them");
    }

    #[test]
    fn disabled_plan_leaves_timing_untouched() {
        let (mut clean, mut s0) = quad();
        let (mut armed, mut s1) = quad();
        // enabled=false ⇒ set_fault_plan is a no-op even with prob set.
        let plan = FaultPlan {
            ring_delay_prob: 1.0,
            ring_delay_cycles: 50,
            ..FaultPlan::default()
        };
        armed.set_fault_plan(&plan, 1);
        for i in 0..20u64 {
            let a = clean.send(RingKind::Data, 0, 2, i * 3, false, &mut s0);
            let b = armed.send(RingKind::Data, 0, 2, i * 3, false, &mut s1);
            assert_eq!(a, b);
        }
        assert_eq!(s1.injected_delays, 0);
    }
}
