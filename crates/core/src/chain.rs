//! Dependence-chain generation (paper §4.2, Algorithm 1, Figure 9).
//!
//! When the home core hits a full-window stall on an LLC-miss load and the
//! dependent-miss counter predicts a dependent miss is likely, the core
//! walks its ROB with a *pseudo-wakeup* dataflow pass: the source miss's
//! destination tag is broadcast on the (modeled) CDB, waking dependents;
//! each woken uop that the EMC can execute is renamed through the Register
//! Remapping Table (RRT) onto the EMC's 16-entry physical register file,
//! its ready source values are shifted into the live-in vector, and its
//! own destination tag is broadcast in turn — until the chain reaches 16
//! uops or the dataflow frontier is exhausted.

use emc_cpu::{Core, EntryState, RobId};
use emc_types::{Addr, CoreId, Cycle, EmcConfig, UopKind};

/// A chain operand after RRT renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainSrc {
    /// An EMC physical register (written by an earlier chain uop or by
    /// the arriving source-miss data).
    Epr(u8),
    /// An index into the chain's live-in vector (value captured at
    /// generation time).
    LiveIn(u8),
}

/// One renamed micro-op of a dependence chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainUop {
    /// The home-core ROB entry this uop retires through.
    pub rob: RobId,
    /// Operation class (always [`UopKind::emc_allowed`]).
    pub kind: UopKind,
    /// Renamed sources (None = no register operand in that slot; the
    /// immediate is used per the ISA's operand conventions).
    pub srcs: [Option<ChainSrc>; 2],
    /// Destination EMC physical register.
    pub dst: Option<u8>,
    /// Immediate / memory displacement.
    pub imm: u64,
    /// PC (EMC miss-predictor index for loads).
    pub pc: u64,
    /// Fetch-time predicted direction (branches; the EMC checks this,
    /// §4.3).
    pub predicted_taken: bool,
}

/// A complete dependence chain ready to ship to the EMC.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    /// The core whose window this chain came from.
    pub home_core: CoreId,
    /// The source miss (its data arrival starts execution).
    pub source_rob: RobId,
    /// EPR that receives the source miss's data.
    pub source_epr: u8,
    /// Virtual address of the source miss (TLB/PTE handling).
    pub source_addr: Addr,
    /// The renamed uops, in dataflow (wakeup) order.
    pub uops: Vec<ChainUop>,
    /// Live-in register values, indexed by [`ChainSrc::LiveIn`].
    pub live_ins: Vec<u64>,
    /// Immediates shifted into the live-in vector (counted for the §6.5
    /// transfer-overhead statistics; values ride inline in the uops).
    pub imm_live_ins: u64,
    /// Cycle the chain left the home core (chain latency runs from here).
    pub shipped_at: Cycle,
    /// The source miss's data, if it was already on chip when the chain
    /// shipped: it travels with the chain instead of following it.
    pub source_value: Option<u64>,
}

impl Chain {
    /// The Register Remapping Table, read off the chain itself: the EPR
    /// that holds home-core producer `rob`'s value — the source miss's
    /// data, or the destination of a chain uop. At most
    /// `EmcConfig::uop_buffer` entries, so a scan.
    fn epr_of(&self, rob: RobId) -> Option<u8> {
        if rob == self.source_rob {
            return Some(self.source_epr);
        }
        self.uops.iter().find(|u| u.rob == rob)?.dst
    }

    /// Total live-in slots consumed (register values + immediates),
    /// matching the paper's "6.4 live-ins on average" metric.
    pub fn live_in_count(&self) -> u64 {
        self.live_ins.len() as u64 + self.imm_live_ins
    }

    /// Number of live-out registers (destination EPRs returned to the
    /// core).
    pub fn live_out_count(&self) -> u64 {
        self.uops.iter().filter(|u| u.dst.is_some()).count() as u64
    }

    /// Transfer size in bytes: 6 bytes per uop (Table 1) plus 8 per
    /// live-in value.
    pub fn transfer_bytes(&self) -> u64 {
        6 * self.uops.len() as u64 + 8 * self.live_in_count()
    }

    /// Render the chain as a Figure-9-style text table: each uop with its
    /// renamed EMC registers and live-in operands.
    ///
    /// # Example
    ///
    /// ```
    /// # use emc_core::{Chain, ChainSrc, ChainUop};
    /// # use emc_types::{Addr, UopKind};
    /// let chain = Chain {
    ///     home_core: 0, source_rob: 1, source_epr: 0,
    ///     source_addr: Addr(0x100),
    ///     uops: vec![ChainUop {
    ///         rob: 2, kind: UopKind::IntAdd,
    ///         srcs: [Some(ChainSrc::Epr(0)), None],
    ///         dst: Some(1), imm: 0x18, pc: 0x40, predicted_taken: false,
    ///     }],
    ///     live_ins: vec![], imm_live_ins: 1, shipped_at: 0, source_value: None,
    /// };
    /// let text = chain.render();
    /// assert!(text.contains("E1 <- add E0"));
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chain from core {} (source rob {} -> E{}, addr {}):",
            self.home_core, self.source_rob, self.source_epr, self.source_addr
        );
        for u in &self.uops {
            let dst = match u.dst {
                Some(d) => format!("E{d}"),
                None => "--".to_string(),
            };
            let mut srcs = Vec::new();
            for s in u.srcs.iter().flatten() {
                srcs.push(match s {
                    ChainSrc::Epr(e) => format!("E{e}"),
                    ChainSrc::LiveIn(i) => format!("L{i}={:#x}", self.live_ins[*i as usize]),
                });
            }
            if srcs.len() < 2 && !matches!(u.kind, UopKind::Branch(_)) {
                srcs.push(format!("{:#x}", u.imm));
            }
            let _ = writeln!(
                out,
                "  [rob {:>4}] {} <- {} {}",
                u.rob,
                dst,
                u.kind,
                srcs.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "  ({} uops, {} live-ins, {} live-outs, {} B transfer)",
            self.uops.len(),
            self.live_in_count(),
            self.live_out_count(),
            self.transfer_bytes()
        );
        out
    }
}

/// Result of a chain-generation walk.
#[derive(Debug, Clone)]
pub struct GeneratedChain {
    /// The chain to ship.
    pub chain: Chain,
    /// Cycles the pseudo-wakeup walk occupied the core (one broadcast per
    /// cycle, Figure 9).
    pub gen_cycles: u64,
}

/// Run Algorithm 1 against `core`'s ROB starting from the stalled source
/// miss. Returns `None` when no EMC-eligible dependent uops exist.
///
/// The walk:
/// 1. allocates an EPR for the source load's destination and broadcasts
///    its tag;
/// 2. each broadcast wakes the waiters recorded in the ROB (the same
///    wakeup metadata the real issue logic uses);
/// 3. a woken uop joins the chain iff the EMC can execute it, every
///    source is ready (→ live-in) or already renamed in the RRT, the
///    16-uop / 16-EPR / live-in-vector / LSQ limits hold, and — for
///    stores — a matching fill exists in the window (register spill,
///    §4.3);
/// 4. the new uop's destination is renamed and broadcast.
pub fn generate_chain(
    core: &Core,
    home_core: CoreId,
    source: RobId,
    cfg: &EmcConfig,
) -> Option<GeneratedChain> {
    let mut chain = Chain::default();
    let gen_cycles = generate_chain_into(core, home_core, source, cfg, &mut chain)?;
    Some(GeneratedChain { chain, gen_cycles })
}

/// [`generate_chain`] into a chain the caller owns, reusing its buffers:
/// most generated chains are thrown away (no free context, or a sibling
/// candidate reached more loads). Returns the walk's cycles; on `None`
/// what `chain` holds is meaningless.
pub(crate) fn generate_chain_into(
    core: &Core,
    home_core: CoreId,
    source: RobId,
    cfg: &EmcConfig,
    chain: &mut Chain,
) -> Option<u64> {
    let src_entry = core.entry(source)?;
    if src_entry.uop().kind != UopKind::Load || src_entry.state() == EntryState::Done {
        return None;
    }
    let source_addr = src_entry.addr()?;

    // EPRs are handed out in order; the source miss's data takes the
    // first.
    let mut next_epr: u8 = 0;
    let mut alloc_epr = || {
        let e = next_epr;
        if e as usize >= cfg.prf_entries {
            return None;
        }
        next_epr += 1;
        Some(e)
    };
    chain.home_core = home_core;
    chain.source_rob = source;
    chain.source_epr = alloc_epr()?;
    chain.source_addr = source_addr;
    chain.uops.clear();
    chain.live_ins.clear();
    chain.imm_live_ins = 0;
    let mut gen_cycles: u64 = 1; // the source broadcast
    let mut mem_ops: usize = 0;

    // Broadcast in wakeup order: the source, then every chain uop that
    // wrote an EPR. `next` is the first chain uop not yet considered.
    let mut producer = source;
    let mut next = 0;
    'broadcast: while chain.uops.len() < cfg.uop_buffer {
        // Waiters of this producer, oldest first; an uop waiting on it
        // with both operands is listed twice in a row.
        debug_assert!(core.waiters_of(producer).map(|w| w.0).is_sorted());
        let mut prev = None;
        for (cid, _) in core.waiters_of(producer) {
            if chain.uops.len() >= cfg.uop_buffer {
                break;
            }
            if prev.replace(cid) == Some(cid) || chain.epr_of(cid).is_some() {
                continue;
            }
            let Some(c) = core.entry(cid) else { continue };
            if c.state() != EntryState::Waiting || c.remote() {
                continue;
            }
            let (uop, ops) = (c.uop(), c.srcs());
            let kind = uop.kind;
            if !kind.emc_allowed() {
                continue;
            }
            if kind.is_mem() && mem_ops >= cfg.lsq_entries {
                continue;
            }
            if kind == UopKind::Store && !is_register_spill(core, cid) {
                continue;
            }
            // All sources must be renamed in the RRT or ready (live-in).
            let has_src = [uop.srcs[0].is_some(), uop.srcs[1].is_some()];
            let eprs = [0, 1].map(|i| ops[i].producer().and_then(|pid| chain.epr_of(pid)));
            if (0..2).any(|i| has_src[i] && eprs[i].is_none() && !ops[i].ready()) {
                continue;
            }
            // Live-in capacity check: register values AND immediates are
            // shifted into the 16-entry live-in vector (Figure 9).
            let new_live_ins = (0..2).filter(|&i| has_src[i] && eprs[i].is_none()).count();
            let uses_imm = !has_src[1] && !kind.is_branch();
            let occupied = chain.live_ins.len() + chain.imm_live_ins as usize;
            if occupied + new_live_ins + usize::from(uses_imm) > cfg.live_in_entries {
                continue;
            }
            // Rename sources.
            let mut srcs: [Option<ChainSrc>; 2] = [None, None];
            for i in (0..2).filter(|&i| has_src[i]) {
                srcs[i] = Some(match eprs[i] {
                    Some(epr) => ChainSrc::Epr(epr),
                    None => {
                        chain.live_ins.push(ops[i].value().expect("checked ready"));
                        ChainSrc::LiveIn(chain.live_ins.len() as u8 - 1)
                    }
                });
            }
            // Immediates are shifted into the live-in vector (Figure 9).
            chain.imm_live_ins += u64::from(uses_imm);
            // Rename destination.
            let dst = match uop.dst {
                Some(_) => match alloc_epr() {
                    Some(e) => Some(e),
                    None => continue, // out of EPRs: cannot include this uop
                },
                None => None,
            };
            if kind.is_mem() {
                mem_ops += 1;
            }
            chain.uops.push(ChainUop {
                rob: cid,
                kind,
                srcs,
                dst,
                imm: uop.imm,
                pc: c.pc(),
                predicted_taken: c.predicted_taken(),
            });
            gen_cycles += 1;
        }
        // The next destination tag to broadcast.
        producer = loop {
            let Some(u) = chain.uops.get(next) else {
                break 'broadcast;
            };
            next += 1;
            if u.dst.is_some() {
                break u.rob;
            }
        };
    }

    (!chain.uops.is_empty()).then_some(gen_cycles)
}

/// §4.3: "A store is included in the dependence chain only if it is a
/// register spill. This is determined by searching the home core LSQ for
/// a corresponding load with the same address (fill)". We search the
/// window for a younger load with the same base register operand (same
/// producer or same committed register) and displacement.
fn is_register_spill(core: &Core, store_id: RobId) -> bool {
    let Some(store) = core.entry(store_id) else {
        return false;
    };
    core.rob_iter().any(|e| {
        e.id() > store_id
            && e.uop().kind == UopKind::Load
            && e.uop().imm == store.uop().imm
            && e.uop().srcs[0] == store.uop().srcs[0]
            && e.srcs()[0].producer() == store.srcs()[0].producer()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_cpu::CoreEvent;
    use emc_types::program::{Program, StaticUop};
    use emc_types::{BranchCond, CoreConfig, MemoryImage, Reg};
    use std::sync::Arc;

    /// Build a core stalled on a source miss with a dependent chain
    /// behind it: ld r1<-[r0]; add r2=r1+8; ld r3<-[r2]; filler.
    fn stalled_core(extra: Vec<StaticUop>) -> (Core, RobId) {
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x4000);
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
            StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 8),
            StaticUop::load(Reg(3), Reg(2), 0),
        ];
        uops.extend(extra);
        for _ in 0..300 {
            uops.push(StaticUop::alu(UopKind::IntAdd, Reg(4), Reg(4), None, 1));
        }
        let p = Program::new(uops, 0x7000);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut src = None;
        for now in 0..600 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    if src.is_none() {
                        src = Some(rob);
                        core.mark_llc_miss(rob);
                    }
                    // Dependent load never issues (its operand waits).
                }
            }
        }
        (core, src.expect("source miss issued"))
    }

    #[test]
    fn basic_chain_includes_dependents() {
        let (core, src) = stalled_core(vec![]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        // ADD + dependent LD.
        assert_eq!(g.chain.uops.len(), 2);
        assert_eq!(g.chain.uops[0].kind, UopKind::IntAdd);
        assert_eq!(g.chain.uops[1].kind, UopKind::Load);
        assert_eq!(g.chain.source_epr, 0);
        // ADD reads E0 (the source's data) and writes E1; LD reads E1.
        assert_eq!(g.chain.uops[0].srcs[0], Some(ChainSrc::Epr(0)));
        assert_eq!(g.chain.uops[0].dst, Some(1));
        assert_eq!(g.chain.uops[1].srcs[0], Some(ChainSrc::Epr(1)));
        assert!(g.gen_cycles >= 3, "source + 2 broadcasts");
        // The immediate 8 counts as a live-in (Figure 9's 0x18).
        assert!(g.chain.live_in_count() >= 1);
    }

    #[test]
    fn fp_uops_are_excluded() {
        // fmul between the loads: the chain must skip it AND anything
        // reachable only through it.
        let (core, src) = stalled_core(vec![StaticUop::alu(
            UopKind::FpMul,
            Reg(5),
            Reg(1),
            None,
            0,
        )]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        assert!(g.chain.uops.iter().all(|u| u.kind.emc_allowed()));
        assert!(g.chain.uops.iter().all(|u| u.kind != UopKind::FpMul));
    }

    #[test]
    fn chain_capped_at_uop_buffer() {
        // A long serial dependent chain: 30 adds after the load.
        let mut extra = Vec::new();
        for _ in 0..30 {
            extra.push(StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(2), None, 1));
        }
        let (core, src) = stalled_core(extra);
        let cfg = EmcConfig::default();
        let g = generate_chain(&core, 0, src, &cfg).expect("chain");
        assert!(g.chain.uops.len() <= cfg.uop_buffer);
        // EPR allocation never exceeds the PRF.
        for u in &g.chain.uops {
            if let Some(d) = u.dst {
                assert!((d as usize) < cfg.prf_entries);
            }
        }
    }

    #[test]
    fn non_spill_store_excluded_spill_included() {
        // Store to [r1+0] with no matching fill: excluded.
        let (core, src) = stalled_core(vec![StaticUop::store(Reg(1), Reg(0), 0x40)]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        assert!(g.chain.uops.iter().all(|u| u.kind != UopKind::Store));

        // Spill/fill pair on the dependent value: included.
        let (core, src) = stalled_core(vec![
            StaticUop::store(Reg(1), Reg(3), 0x40),
            StaticUop::load(Reg(5), Reg(1), 0x40),
        ]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        assert!(
            g.chain.uops.iter().any(|u| u.kind == UopKind::Store),
            "spill store should join the chain: {:?}",
            g.chain.uops
        );
    }

    #[test]
    fn no_dependents_yields_none() {
        // A load with no consumers: nothing to accelerate.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 7);
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
        ];
        for _ in 0..300 {
            uops.push(StaticUop::alu(UopKind::IntAdd, Reg(4), Reg(4), None, 1));
        }
        let p = Program::new(uops, 0);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut src = None;
        for now in 0..300 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    src.get_or_insert(rob);
                    core.mark_llc_miss(rob);
                }
            }
        }
        assert!(generate_chain(&core, 0, src.unwrap(), &EmcConfig::default()).is_none());
    }

    #[test]
    fn live_ins_capture_ready_values() {
        // add r5 = r1 + r6 where r6 = 99 is committed: 99 must ride in
        // the live-in vector.
        let (core, src) = stalled_core(vec![StaticUop::alu(
            UopKind::IntAdd,
            Reg(7),
            Reg(1),
            Some(Reg(0)),
            0,
        )]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        let with_livein = g
            .chain
            .uops
            .iter()
            .find(|u| {
                u.srcs
                    .iter()
                    .any(|s| matches!(s, Some(ChainSrc::LiveIn(_))))
            })
            .expect("some uop uses a live-in");
        let li = with_livein
            .srcs
            .iter()
            .find_map(|s| match s {
                Some(ChainSrc::LiveIn(i)) => Some(*i),
                _ => None,
            })
            .unwrap();
        assert_eq!(g.chain.live_ins[li as usize], 0x100, "r0's committed value");
    }

    #[test]
    fn transfer_accounting() {
        let (core, src) = stalled_core(vec![]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        assert_eq!(g.chain.live_out_count(), 2);
        assert!(g.chain.transfer_bytes() >= 6 * g.chain.uops.len() as u64);
    }

    #[test]
    fn golden_pointer_chase_chain() {
        // One window: the chase hop (r1 -> r2 -> r3 -> r5), an uop fed by
        // two chain producers, a spill/fill pair, a branch, an excluded
        // FP uop and a committed-register live-in. The walk's contract
        // is the exact chain, uop for uop, in wakeup order.
        let (core, src) = stalled_core(vec![
            StaticUop::load(Reg(5), Reg(3), 8),
            StaticUop::alu(UopKind::IntAdd, Reg(6), Reg(5), Some(Reg(1)), 0),
            StaticUop::store(Reg(1), Reg(3), 0x40),
            StaticUop::load(Reg(7), Reg(1), 0x40),
            StaticUop::branch(BranchCond::NotZero, Some(Reg(6)), 12),
            StaticUop::alu(UopKind::FpMul, Reg(9), Reg(1), None, 0),
            StaticUop::alu(UopKind::And, Reg(8), Reg(2), Some(Reg(0)), 0),
        ]);
        let g = generate_chain(&core, 0, src, &EmcConfig::default()).expect("chain");
        let epr = |e| Some(ChainSrc::Epr(e));
        let uop = |rob, kind, srcs, dst, imm, pc| ChainUop {
            rob,
            kind,
            srcs,
            dst,
            imm,
            pc,
            predicted_taken: false,
        };
        let branch = UopKind::Branch(BranchCond::NotZero);
        let expect = [
            uop(2, UopKind::IntAdd, [epr(0), None], Some(1), 8, 0x7008),
            uop(7, UopKind::Load, [epr(0), None], Some(2), 0x40, 0x701c),
            uop(3, UopKind::Load, [epr(1), None], Some(3), 0, 0x700c),
            uop(
                10,
                UopKind::And,
                [epr(1), Some(ChainSrc::LiveIn(0))],
                Some(4),
                0,
                0x7028,
            ),
            uop(4, UopKind::Load, [epr(3), None], Some(5), 8, 0x7010),
            uop(6, UopKind::Store, [epr(0), epr(3)], None, 0x40, 0x7018),
            uop(5, UopKind::IntAdd, [epr(5), epr(0)], Some(6), 0, 0x7014),
            uop(8, branch, [epr(6), None], None, 0, 0x7020),
        ];
        assert_eq!(g.chain.uops, expect);
        assert_eq!((g.chain.source_rob, g.chain.source_epr), (src, 0));
        assert_eq!(g.chain.source_addr, Addr(0x100));
        assert_eq!(g.chain.live_ins, [0x100], "r0's committed value");
        assert_eq!(g.chain.imm_live_ins, 4);
        assert_eq!(g.gen_cycles, 9, "the source broadcast plus one per uop");
    }
}
