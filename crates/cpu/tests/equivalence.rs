//! Architectural-state equivalence: the out-of-order core (with wrong-path
//! speculation, store forwarding, flushes and variable memory latency)
//! must compute exactly what the sequential reference interpreter
//! computes.

use emc_cpu::{Core, CoreEvent};
use emc_types::program::{run_reference, Program, StaticUop};
use emc_types::rng::{for_each_case, seeded_rng, SmallRng};
use emc_types::{BranchCond, CoreConfig, MemoryImage, Reg, UopKind};
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

/// One random uop; branches come back aimed at `target`.
fn arb_uop(rng: &mut SmallRng, target: u32) -> StaticUop {
    let mut reg = || Reg(rng.gen_range(0..16) as u8);
    let (d, a, b) = (reg(), reg(), reg());
    match rng.gen_range(0..6) {
        // ALU reg-imm
        0 => {
            let kind = [
                UopKind::IntAdd,
                UopKind::IntSub,
                UopKind::And,
                UopKind::Or,
                UopKind::Xor,
                UopKind::Shl,
                UopKind::Shr,
            ][rng.gen_range(0..7) as usize];
            StaticUop::alu(kind, d, a, None, rng.gen_range(0..1024) % 64)
        }
        // ALU reg-reg
        1 => StaticUop::alu(UopKind::IntAdd, d, a, Some(b), 0),
        // mov imm
        2 => StaticUop::mov_imm(d, rng.next_u64() % (1 << 20)),
        // load (address masked into a small window by construction: the
        // base register values stay small because immediates are small)
        3 => StaticUop::load(d, a, rng.gen_range(0..512) * 8),
        // store
        4 => StaticUop::store(a, b, rng.gen_range(0..512) * 8),
        // forward conditional branch
        _ => {
            let cond = [BranchCond::Zero, BranchCond::NotZero][rng.gen_range(0..2) as usize];
            StaticUop::branch(cond, Some(a), target)
        }
    }
}

/// Random straight-line-with-forward-branches programs: the OoO core
/// and the reference interpreter agree on every register and on the
/// load/store/uop counts that survive speculation.
#[test]
fn ooo_matches_reference() {
    for_each_case(0x5eed_e901, 64, |rng| {
        // Branches get valid strictly-forward targets (guarantees
        // termination regardless of data values).
        let len = rng.gen_range(1..60) as u32;
        let program_uops = (0..len)
            .map(|i| {
                let target = rng.gen_range(u64::from(i) + 1..u64::from(len) + 1) as u32;
                arb_uop(rng, target)
            })
            .collect();
        let program = Program::new(program_uops, 0x9000);
        assert!(program.validate().is_ok());

        let mem = MemoryImage::new();
        let mut ref_mem = mem.clone();
        let expect = run_reference(&program, &mut ref_mem, 1_000_000);
        assert!(!expect.capped);

        let core = run_core(&program, &mem, rng.next_u64(), 2_000_000).expect("core finished");
        assert_eq!(core.committed_regs(), &expect.regs);
        assert_eq!(core.stats.retired_uops, expect.dyn_uops);
        assert_eq!(core.stats.retired_loads, expect.loads);
        assert_eq!(core.stats.retired_stores, expect.stores);
    });
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
