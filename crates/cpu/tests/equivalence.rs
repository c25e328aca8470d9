//! Architectural-state equivalence: the out-of-order core (with wrong-path
//! speculation, store forwarding, flushes and variable memory latency)
//! must compute exactly what the sequential reference interpreter
//! computes, on the workload generators' programs. Seeded random programs
//! are checked the same way, with the window's bookkeeping, in
//! `core.rs`'s unit tests.

use emc_cpu::{Core, CoreEvent};
use emc_types::program::{run_reference, Program};
use emc_types::rng::seeded_rng;
use emc_types::{CoreConfig, MemoryImage};
use std::sync::Arc;

/// Run the core to completion with a deterministic pseudo-random memory
/// latency schedule derived from `lat_seed`.
fn run_core(program: &Program, mem: &MemoryImage, lat_seed: u64, max_cycles: u64) -> Option<Core> {
    let mut core = Core::new(
        &CoreConfig::default(),
        Arc::new(program.clone()),
        mem.clone(),
    );
    let mut events = Vec::new();
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut rng = seeded_rng(lat_seed);
    for now in 0..max_cycles {
        core.tick(now, &mut events);
        for ev in events.drain(..) {
            if let CoreEvent::LoadIssued { rob, .. } = ev {
                // Latency in [5, 260): misses and hits mixed.
                let r = rng.next_u64();
                let lat = 5 + (r % 256);
                // Mark roughly half the loads as LLC misses to exercise
                // taint tracking.
                if r & 1 == 0 {
                    core.mark_llc_miss(rob);
                }
                pending.push((now + lat, rob));
            }
        }
        pending.retain(|&(t, rob)| {
            if t <= now {
                core.complete_load(rob, now);
                false
            } else {
                true
            }
        });
        if core.finished_at().is_some() {
            return Some(core);
        }
    }
    None
}

#[test]
fn workload_programs_match_reference() {
    use emc_workloads::{build, Benchmark};
    for bench in [
        Benchmark::Mcf,
        Benchmark::Libquantum,
        Benchmark::Omnetpp,
        Benchmark::Lbm,
        Benchmark::Gcc,
        Benchmark::Povray,
    ] {
        let w = build(bench, 42, 40);
        let mut ref_mem = w.memory.clone();
        let expect = run_reference(&w.program, &mut ref_mem, 10_000_000);
        assert!(!expect.capped, "{bench}");
        let core = run_core(&w.program, &w.memory, 0xabcd, 20_000_000)
            .unwrap_or_else(|| panic!("{bench}: core did not finish"));
        assert_eq!(
            core.committed_regs(),
            &expect.regs,
            "{bench} register mismatch"
        );
        assert_eq!(
            core.stats.retired_uops, expect.dyn_uops,
            "{bench} uop count"
        );
        // Memory effects must match too: compare the pages the reference
        // run touched.
        for page in 0..16u64 {
            let a = emc_types::Addr(emc_workloads::SPILL_BASE + page * 8);
            assert_eq!(
                core.mem.read_u64(a),
                ref_mem.read_u64(a),
                "{bench} mem at {a}"
            );
        }
    }
}
