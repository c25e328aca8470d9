//! Property-based tests for dependence-chain generation: for random
//! dependence structures stalled behind a source miss, every generated
//! chain must satisfy the paper's hardware constraints.

use emc_core::{generate_chain, ChainSrc};
use emc_cpu::{Core, CoreEvent};
use emc_types::program::{Program, StaticUop};
use emc_types::rng::{for_each_case, SmallRng};
use emc_types::{Addr, CoreConfig, EmcConfig, MemoryImage, Reg, UopKind};
use std::sync::Arc;

/// Build a core stalled on a source miss followed by a random mix of
/// dependent/independent uops, then fillers to fill the window.
fn stalled_core(body: Vec<StaticUop>) -> Option<(Core, u64)> {
    let mut mem = MemoryImage::new();
    mem.write_u64(Addr(0x100), 0x9000);
    let mut uops = vec![
        StaticUop::mov_imm(Reg(0), 0x100),
        StaticUop::load(Reg(1), Reg(0), 0),
    ];
    uops.extend(body);
    for _ in 0..300 {
        uops.push(StaticUop::alu(UopKind::IntAdd, Reg(15), Reg(15), None, 1));
    }
    let p = Program::new(uops, 0x5000);
    p.validate().ok()?;
    let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
    let mut events = Vec::new();
    let mut src = None;
    for now in 0..400 {
        core.tick(now, &mut events);
        for ev in events.drain(..) {
            if let CoreEvent::LoadIssued { rob, .. } = ev {
                if src.is_none() {
                    src = Some(rob);
                    core.mark_llc_miss(rob);
                }
            }
        }
    }
    src.map(|s| (core, s))
}

/// `1..max_len` random body uops.
fn arb_body(rng: &mut SmallRng, max_len: u64) -> Vec<StaticUop> {
    (0..rng.gen_range(1..max_len))
        .map(|_| {
            // r0 reserved as base, r15 as filler
            let mut reg = || Reg(rng.gen_range(1..8) as u8);
            let (d, a) = (reg(), reg());
            match rng.gen_range(0..4) {
                0 => {
                    let kind = [
                        UopKind::IntAdd,
                        UopKind::Xor,
                        UopKind::Or,
                        UopKind::And,
                        UopKind::Shl,
                        UopKind::IntMul, // not EMC-allowed: must be filtered
                    ][rng.gen_range(0..6) as usize];
                    StaticUop::alu(kind, d, a, None, rng.gen_range(0..64))
                }
                1 => StaticUop::load(d, a, 8),
                2 => StaticUop::alu(UopKind::FpAdd, d, a, None, 0),
                _ => StaticUop::store(d, a, 16),
            }
        })
        .collect()
}

#[test]
fn generated_chains_respect_hardware_limits() {
    for_each_case(0x5eed_c4a1, 48, |rng| {
        let Some((core, src)) = stalled_core(arb_body(rng, 40)) else {
            return;
        };
        let cfg = EmcConfig::default();
        let Some(g) = generate_chain(&core, 0, src, &cfg) else {
            return;
        };
        let chain = &g.chain;

        // 1. Buffer limit.
        assert!(chain.uops.len() <= cfg.uop_buffer);
        // 2. Only EMC-executable operation classes.
        for u in &chain.uops {
            assert!(u.kind.emc_allowed(), "{:?} not allowed", u.kind);
        }
        // 3. Register file limit and closed dataflow: every EPR source is
        //    the source miss's register or a destination written by an
        //    EARLIER chain uop.
        let mut defined = vec![false; cfg.prf_entries];
        defined[chain.source_epr as usize] = true;
        let mut mem_ops = 0;
        for u in &chain.uops {
            for s in u.srcs.iter().flatten() {
                match s {
                    ChainSrc::Epr(e) => {
                        assert!((*e as usize) < cfg.prf_entries);
                        assert!(defined[*e as usize], "EPR {e} read before any definition");
                    }
                    ChainSrc::LiveIn(i) => {
                        assert!((*i as usize) < chain.live_ins.len());
                    }
                }
            }
            if let Some(d) = u.dst {
                assert!((d as usize) < cfg.prf_entries);
                defined[d as usize] = true;
            }
            if u.kind.is_mem() {
                mem_ops += 1;
            }
        }
        // 4. LSQ limit.
        assert!(mem_ops <= cfg.lsq_entries);
        // 5. Live-in vector limit (register values + immediates).
        assert!(chain.live_in_count() <= cfg.live_in_entries as u64);
        // 6. Generation latency grows with the walk.
        assert!(g.gen_cycles > chain.uops.len() as u64);
        // 7. All chain uops are real ROB entries, younger than the source.
        for u in &chain.uops {
            assert!(u.rob > src);
            assert!(core.entry(u.rob).is_some());
        }
    });
}

/// The chain's uops always form a set reachable from the source miss
/// through register dataflow: marking them remote never strands an
/// independent uop.
#[test]
fn chain_members_depend_on_the_source() {
    for_each_case(0x5eed_c4a2, 48, |rng| {
        let Some((core, src)) = stalled_core(arb_body(rng, 30)) else {
            return;
        };
        let cfg = EmcConfig::default();
        let Some(g) = generate_chain(&core, 0, src, &cfg) else {
            return;
        };
        // Transitive dependence check via producer links in the ROB.
        let in_chain: std::collections::HashSet<u64> = g.chain.uops.iter().map(|u| u.rob).collect();
        for u in &g.chain.uops {
            let e = core.entry(u.rob).expect("in ROB");
            let depends = e.srcs().iter().any(|s| {
                s.producer()
                    .is_some_and(|p| p == src || in_chain.contains(&p))
            });
            assert!(depends, "uop {} is not dependent on the chain", u.rob);
        }
    });
}
