//! Property-based tests over the workload generators.

use emc_types::program::run_reference;
use emc_types::rng::for_each_case;
use emc_workloads::{build, Benchmark};

/// Every benchmark, under any seed, builds a valid terminating
/// program whose loop counter reaches zero.
#[test]
fn any_seed_builds_valid_programs() {
    for_each_case(0x5eed_3001, 24, |rng| {
        let seed = rng.next_u64();
        let bench = Benchmark::all()[rng.gen_range(0..29) as usize];
        let w = build(bench, seed, 30);
        assert!(w.program.validate().is_ok());
        let mut mem = w.memory.clone();
        let st = run_reference(&w.program, &mut mem, 5_000_000);
        assert!(!st.capped, "{bench} did not terminate");
        assert_eq!(st.regs[15], 0, "loop counter must reach zero");
    });
}

/// The chase structure is consistent for any seed: following next
/// pointers stays inside the node region and payload pointers inside
/// the payload region.
#[test]
fn chase_regions_are_closed() {
    for_each_case(0x5eed_3002, 24, |rng| {
        let w = build(Benchmark::Omnetpp, rng.next_u64(), 1);
        let p = Benchmark::Omnetpp.profile();
        let mut node = emc_workloads::CHASE_BASE;
        for _ in 0..200 {
            let next = w.memory.read_u64(emc_types::Addr(node));
            let payload = w.memory.read_u64(emc_types::Addr(node + 8));
            assert!(next >= emc_workloads::CHASE_BASE);
            assert!(next < emc_workloads::CHASE_BASE + p.chase_lines * 64);
            assert_eq!(next % 64, 0);
            assert!(payload >= emc_workloads::PAYLOAD_BASE);
            assert!(payload < emc_workloads::PAYLOAD_BASE + p.payload_lines.max(64) * 64);
            node = next;
        }
    });
}
