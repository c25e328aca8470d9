//! Static programs: sequences of micro-ops with register dependencies and
//! control flow, plus a sequential reference interpreter.
//!
//! Workload generators (the `emc-workloads` crate) produce a [`Program`]
//! and an initialized [`MemoryImage`]; the out-of-order core
//! model and the EMC execute the same uops, so architectural-state
//! equivalence between any two timing configurations is checkable against
//! the reference interpreter defined here.

use crate::mem_image::MemoryImage;
use crate::uop::{BranchCond, Reg, UopKind, NUM_ARCH_REGS};
use crate::Addr;

/// One static micro-op in a [`Program`].
///
/// Operand conventions (see [`StaticUop::resolve_alu_operands`]):
/// - ALU ops: `dst = op(srcs[0], srcs[1] or imm)`.
/// - `Mov`: `dst = srcs[0]` if present, else `dst = imm`.
/// - `Load`: `dst = mem[srcs[0] + imm]` (8 bytes; `srcs[0]` optional).
/// - `Store`: `mem[srcs[0] + imm] = srcs[1]`.
/// - `Branch(cond)`: tests `srcs[0]`; jumps to `target` when taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticUop {
    /// Operation class.
    pub kind: UopKind,
    /// Destination architectural register, if the uop produces a value.
    pub dst: Option<Reg>,
    /// Up to two source architectural registers.
    pub srcs: [Option<Reg>; 2],
    /// Immediate operand (displacement for memory ops).
    pub imm: u64,
    /// Static branch target (index into [`Program::uops`]).
    pub target: Option<u32>,
}

impl StaticUop {
    /// An ALU uop `dst = kind(a, b)`.
    pub fn alu(kind: UopKind, dst: Reg, a: Reg, b: Option<Reg>, imm: u64) -> Self {
        StaticUop {
            kind,
            dst: Some(dst),
            srcs: [Some(a), b],
            imm,
            target: None,
        }
    }

    /// A register-immediate move `dst = imm`.
    pub fn mov_imm(dst: Reg, imm: u64) -> Self {
        StaticUop {
            kind: UopKind::Mov,
            dst: Some(dst),
            srcs: [None, None],
            imm,
            target: None,
        }
    }

    /// A register move `dst = src`.
    pub fn mov(dst: Reg, src: Reg) -> Self {
        StaticUop {
            kind: UopKind::Mov,
            dst: Some(dst),
            srcs: [Some(src), None],
            imm: 0,
            target: None,
        }
    }

    /// A load `dst = mem[base + disp]`.
    pub fn load(dst: Reg, base: Reg, disp: u64) -> Self {
        StaticUop {
            kind: UopKind::Load,
            dst: Some(dst),
            srcs: [Some(base), None],
            imm: disp,
            target: None,
        }
    }

    /// A store `mem[base + disp] = value`.
    pub fn store(base: Reg, value: Reg, disp: u64) -> Self {
        StaticUop {
            kind: UopKind::Store,
            dst: None,
            srcs: [Some(base), Some(value)],
            imm: disp,
            target: None,
        }
    }

    /// A conditional branch on `cond(reg)` to `target`.
    pub fn branch(cond: BranchCond, reg: Option<Reg>, target: u32) -> Self {
        StaticUop {
            kind: UopKind::Branch(cond),
            dst: None,
            srcs: [reg, None],
            imm: 0,
            target: Some(target),
        }
    }

    /// Resolve the two ALU inputs for this uop given a register-read
    /// closure. Only meaningful for non-memory, non-branch uops.
    pub fn resolve_alu_operands(&self, mut read: impl FnMut(Reg) -> u64) -> (u64, u64) {
        match self.kind {
            UopKind::Mov => {
                let a = match self.srcs[0] {
                    Some(r) => read(r),
                    None => self.imm,
                };
                (a, 0)
            }
            UopKind::Not | UopKind::SignExtend => (self.srcs[0].map(&mut read).unwrap_or(0), 0),
            _ => {
                let a = self.srcs[0].map(&mut read).unwrap_or(0);
                let b = match self.srcs[1] {
                    Some(r) => read(r),
                    None => self.imm,
                };
                (a, b)
            }
        }
    }

    /// Effective address of a memory uop given the base register value.
    pub fn effective_address(&self, base: u64) -> Addr {
        Addr(base.wrapping_add(self.imm))
    }

    /// Whether a branch with condition `cond` is taken for source value `v`.
    pub fn branch_taken(cond: BranchCond, v: u64) -> bool {
        match cond {
            BranchCond::Zero => v == 0,
            BranchCond::NotZero => v != 0,
            BranchCond::Always => true,
        }
    }
}

/// A static program: straight-line uops with branch edges.
///
/// Execution begins at uop 0 and terminates when control flow runs past the
/// last uop. The synthetic PC of uop `i` is `pc_base + 4*i` (used by branch
/// predictors and the EMC miss predictor, which hash on PC).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The micro-ops, in static program order.
    pub uops: Vec<StaticUop>,
    /// Base synthetic PC (distinct per benchmark so predictor state does
    /// not alias across cores running different programs).
    pub pc_base: u64,
}

impl Program {
    /// Create a program from uops with the given PC base.
    pub fn new(uops: Vec<StaticUop>, pc_base: u64) -> Self {
        Program { uops, pc_base }
    }

    /// Synthetic PC of uop index `idx`.
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.pc_base + 4 * idx as u64
    }

    /// Validate internal consistency: branch targets in range, register
    /// indices in range, stores have a value operand.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed uop.
    pub fn validate(&self) -> Result<(), String> {
        for (i, u) in self.uops.iter().enumerate() {
            if let Some(t) = u.target {
                if t as usize > self.uops.len() {
                    return Err(format!("uop {i}: branch target {t} out of range"));
                }
                if !u.kind.is_branch() {
                    return Err(format!("uop {i}: non-branch has a target"));
                }
            } else if u.kind.is_branch() {
                return Err(format!("uop {i}: branch lacks a target"));
            }
            for r in u.srcs.iter().flatten().chain(u.dst.iter()) {
                if r.idx() >= NUM_ARCH_REGS {
                    return Err(format!("uop {i}: register {r} out of range"));
                }
            }
            if u.kind == UopKind::Store && u.srcs[1].is_none() {
                return Err(format!("uop {i}: store lacks a value operand"));
            }
            if u.kind == UopKind::Load && u.dst.is_none() {
                return Err(format!("uop {i}: load lacks a destination"));
            }
        }
        Ok(())
    }
}

/// Final architectural state produced by [`run_reference`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Final register values.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Number of dynamic uops executed.
    pub dyn_uops: u64,
    /// Number of dynamic loads executed.
    pub loads: u64,
    /// Number of dynamic stores executed.
    pub stores: u64,
    /// Whether execution hit the dynamic-uop cap before terminating.
    pub capped: bool,
}

/// Sequentially execute `program` against `mem`, mutating it, and return
/// the final architectural state. This is the reference semantics that the
/// out-of-order core and the EMC must match.
///
/// `max_dyn_uops` bounds runaway programs; hitting the cap sets
/// [`ArchState::capped`].
///
/// # Example
///
/// ```
/// use emc_types::program::{run_reference, Program, StaticUop};
/// use emc_types::{MemoryImage, Reg, UopKind};
///
/// let p = Program::new(vec![
///     StaticUop::mov_imm(Reg(0), 7),
///     StaticUop::alu(UopKind::IntAdd, Reg(1), Reg(0), None, 35),
/// ], 0x1000);
/// let mut mem = MemoryImage::new();
/// let st = run_reference(&p, &mut mem, 100);
/// assert_eq!(st.regs[1], 42);
/// ```
pub fn run_reference(program: &Program, mem: &mut MemoryImage, max_dyn_uops: u64) -> ArchState {
    let mut regs = [0u64; NUM_ARCH_REGS];
    let mut pc = 0usize;
    let mut st = ArchState {
        regs,
        dyn_uops: 0,
        loads: 0,
        stores: 0,
        capped: false,
    };
    while pc < program.uops.len() {
        if st.dyn_uops >= max_dyn_uops {
            st.capped = true;
            break;
        }
        let u = &program.uops[pc];
        st.dyn_uops += 1;
        let mut next = pc + 1;
        match u.kind {
            UopKind::Load => {
                let base = u.srcs[0].map(|r| regs[r.idx()]).unwrap_or(0);
                let addr = u.effective_address(base);
                let v = mem.read_u64(addr);
                if let Some(d) = u.dst {
                    regs[d.idx()] = v;
                }
                st.loads += 1;
            }
            UopKind::Store => {
                let base = u.srcs[0].map(|r| regs[r.idx()]).unwrap_or(0);
                let addr = u.effective_address(base);
                let v = u.srcs[1].map(|r| regs[r.idx()]).unwrap_or(0);
                mem.write_u64(addr, v);
                st.stores += 1;
            }
            UopKind::Branch(cond) => {
                let v = u.srcs[0].map(|r| regs[r.idx()]).unwrap_or(0);
                if StaticUop::branch_taken(cond, v) {
                    next = u.target.expect("validated branch has target") as usize;
                }
            }
            UopKind::Nop => {}
            kind => {
                let (a, b) = u.resolve_alu_operands(|r| regs[r.idx()]);
                if let Some(d) = u.dst {
                    regs[d.idx()] = kind.alu(a, b);
                }
            }
        }
        pc = next;
    }
    st.regs = regs;
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_loop(n: u64) -> Program {
        // r0 = n; loop: r0 -= 1; r1 += 2; brnz r0 -> loop
        Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), n),
                StaticUop::alu(UopKind::IntSub, Reg(0), Reg(0), None, 1),
                StaticUop::alu(UopKind::IntAdd, Reg(1), Reg(1), None, 2),
                StaticUop::branch(BranchCond::NotZero, Some(Reg(0)), 1),
            ],
            0x4000,
        )
    }

    #[test]
    fn loop_executes_n_times() {
        let p = counting_loop(10);
        p.validate().unwrap();
        let mut mem = MemoryImage::new();
        let st = run_reference(&p, &mut mem, 10_000);
        assert_eq!(st.regs[0], 0);
        assert_eq!(st.regs[1], 20);
        assert!(!st.capped);
        assert_eq!(st.dyn_uops, 1 + 3 * 10);
    }

    #[test]
    fn cap_stops_infinite_loop() {
        let p = Program::new(vec![StaticUop::branch(BranchCond::Always, None, 0)], 0);
        let mut mem = MemoryImage::new();
        let st = run_reference(&p, &mut mem, 100);
        assert!(st.capped);
        assert_eq!(st.dyn_uops, 100);
    }

    #[test]
    fn load_store_round_trip() {
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x1000),
                StaticUop::mov_imm(Reg(1), 0xdead),
                StaticUop::store(Reg(0), Reg(1), 8),
                StaticUop::load(Reg(2), Reg(0), 8),
            ],
            0,
        );
        p.validate().unwrap();
        let mut mem = MemoryImage::new();
        let st = run_reference(&p, &mut mem, 100);
        assert_eq!(st.regs[2], 0xdead);
        assert_eq!(st.loads, 1);
        assert_eq!(st.stores, 1);
    }

    #[test]
    fn pointer_chase_follows_links() {
        // mem[0x100] = 0x200, mem[0x200] = 0x300; two dependent loads.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x200);
        mem.write_u64(Addr(0x200), 0x300);
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::load(Reg(2), Reg(1), 0),
            ],
            0,
        );
        let st = run_reference(&p, &mut mem, 100);
        assert_eq!(st.regs[1], 0x200);
        assert_eq!(st.regs[2], 0x300);
    }

    #[test]
    fn validation_catches_bad_target() {
        let p = Program::new(vec![StaticUop::branch(BranchCond::Always, None, 99)], 0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_store() {
        let p = Program::new(
            vec![StaticUop {
                kind: UopKind::Store,
                dst: None,
                srcs: [Some(Reg(0)), None],
                imm: 0,
                target: None,
            }],
            0,
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn pc_of_is_distinct_per_uop() {
        let p = counting_loop(1);
        assert_eq!(p.pc_of(0), 0x4000);
        assert_eq!(p.pc_of(3), 0x400c);
    }

    #[test]
    fn mov_imm_and_mov_reg_resolution() {
        let u = StaticUop::mov_imm(Reg(0), 77);
        let (a, _) = u.resolve_alu_operands(|_| panic!("no reg read expected"));
        assert_eq!(a, 77);
        let u = StaticUop::mov(Reg(0), Reg(5));
        let (a, _) = u.resolve_alu_operands(|r| if r == Reg(5) { 123 } else { 0 });
        assert_eq!(a, 123);
    }
}
