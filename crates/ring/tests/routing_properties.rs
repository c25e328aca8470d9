//! Property-based tests for the ring interconnect.

use emc_ring::{Ring, RingKind, Topology};
use emc_types::rng::for_each_case;
use emc_types::{RingConfig, RingStats};

/// Arrival is causal and bounded: at least one cycle, at most the
/// whole ring's diameter plus the queueing of previously sent
/// messages.
#[test]
fn latency_bounds() {
    for_each_case(0x5eed_4101, 256, |rng| {
        let topo = Topology { cores: 8, mcs: 2 };
        let mut ring = Ring::new(topo, RingConfig::default());
        let mut stats = RingStats::default();
        let mut now = 0;
        for _ in 0..rng.gen_range(1..100) {
            let (from, to) = (rng.gen_range(0..10) as usize, rng.gen_range(0..10) as usize);
            now += rng.gen_range(0..100);
            let t = ring.send(RingKind::Data, from, to, now, false, &mut stats);
            assert!(t > now, "arrival must be in the future");
            // Worst case: half the ring in hops, each queued behind every
            // earlier message on the worst link.
            let diameter = topo.stops() as u64 / 2 + 1;
            assert!(
                t <= now + diameter * (1 + stats.data_msgs),
                "arrival {t} unreasonable at cycle {now}"
            );
        }
    });
}

/// Hop counts are symmetric: a->b costs the same hops as b->a on an
/// idle ring.
#[test]
fn symmetric_distances() {
    for_each_case(0x5eed_4102, 256, |rng| {
        let (a, b) = (rng.gen_range(0..10) as usize, rng.gen_range(0..10) as usize);
        let topo = Topology { cores: 8, mcs: 2 };
        let cfg = RingConfig::default();
        let mut r1 = Ring::new(topo, cfg);
        let mut r2 = Ring::new(topo, cfg);
        let mut s1 = RingStats::default();
        let mut s2 = RingStats::default();
        let t1 = r1.send(RingKind::Control, a, b, 0, false, &mut s1);
        let t2 = r2.send(RingKind::Control, b, a, 0, false, &mut s2);
        assert_eq!(t1, t2);
        assert_eq!(s1.total_hops, s2.total_hops);
    });
}
