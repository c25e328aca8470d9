//! The micro-op ISA.
//!
//! The simulator executes a RISC-like integer micro-op ISA that covers every
//! operation class the EMC is allowed to execute (Table 1 of the paper:
//! integer add/subtract/move/load/store; logical and/or/xor/not/shift/
//! sign-extend) plus floating-point and multiply placeholders that the core
//! can execute but the EMC must reject, and conditional branches.

use std::fmt;

/// Number of architectural integer registers in the simulated ISA.
///
/// Sixteen matches x86-64's general-purpose register count; the core renames
/// these onto its 256-entry physical register file (modeled via ROB slots)
/// and the chain-generation unit re-renames them onto the EMC's 16-entry
/// physical register file.
pub const NUM_ARCH_REGS: usize = 16;

/// An architectural register index (`0..NUM_ARCH_REGS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Index as a usize for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Condition tested by a branch micro-op against its first source register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken if the source register equals zero.
    Zero,
    /// Taken if the source register is non-zero.
    NotZero,
    /// Unconditionally taken (direct jump).
    Always,
}

/// The operation class of a micro-op.
///
/// # Example
///
/// ```
/// use emc_types::UopKind;
/// // The EMC back-end only has integer ALUs (paper §4.1.2).
/// assert!(UopKind::IntAdd.emc_allowed());
/// assert!(UopKind::Shl.emc_allowed());
/// assert!(!UopKind::IntMul.emc_allowed());
/// assert!(!UopKind::FpMul.emc_allowed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Integer addition: `dst = src0 + src1/imm`.
    IntAdd,
    /// Integer subtraction: `dst = src0 - src1/imm`.
    IntSub,
    /// Integer multiply (core only, 3-cycle): `dst = src0 * src1/imm`.
    IntMul,
    /// Register/immediate move: `dst = src0` or `dst = imm`.
    Mov,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not of `src0`.
    Not,
    /// Logical shift left by immediate (or `src1 & 63`).
    Shl,
    /// Logical shift right by immediate (or `src1 & 63`).
    Shr,
    /// Sign-extend the low 32 bits of `src0` to 64 bits.
    SignExtend,
    /// Memory load: `dst = mem[src0 + imm]` (8-byte).
    Load,
    /// Memory store: `mem[src0 + imm] = src1` (8-byte).
    Store,
    /// Conditional branch on `src0` with a static target.
    Branch(BranchCond),
    /// Floating-point add placeholder (core only, 4-cycle).
    FpAdd,
    /// Floating-point multiply placeholder (core only, 5-cycle).
    FpMul,
    /// No-op (pipeline filler).
    Nop,
}

impl UopKind {
    /// Whether the EMC back-end may execute this operation class
    /// (paper §4.1.2 and Table 1: integer and logical ops, loads, stores;
    /// branches travel with the chain so the EMC can check directions,
    /// §4.3).
    pub fn emc_allowed(self) -> bool {
        !matches!(
            self,
            UopKind::IntMul | UopKind::FpAdd | UopKind::FpMul | UopKind::Nop
        )
    }

    /// Whether this is a memory operation.
    pub fn is_mem(self) -> bool {
        matches!(self, UopKind::Load | UopKind::Store)
    }

    /// Whether this is a conditional or unconditional branch.
    pub fn is_branch(self) -> bool {
        matches!(self, UopKind::Branch(_))
    }

    /// Core execution latency in cycles once issued (result broadcast on
    /// the CDB `latency` cycles later). Loads add memory latency on top.
    pub fn exec_latency(self) -> u64 {
        match self {
            UopKind::IntMul => 3,
            UopKind::FpAdd => 4,
            UopKind::FpMul => 5,
            _ => 1,
        }
    }

    /// Evaluate the ALU function of this uop. `a` is the first source,
    /// `b` the second source or immediate. Memory ops and branches are
    /// handled by the pipeline, not here.
    ///
    /// # Panics
    ///
    /// Panics if called on `Load`, `Store`, or `Branch` — those have
    /// dedicated execution paths.
    #[inline]
    pub fn alu(self, a: u64, b: u64) -> u64 {
        match self {
            UopKind::IntAdd => a.wrapping_add(b),
            UopKind::IntSub => a.wrapping_sub(b),
            UopKind::IntMul => a.wrapping_mul(b),
            UopKind::Mov => a,
            UopKind::And => a & b,
            UopKind::Or => a | b,
            UopKind::Xor => a ^ b,
            UopKind::Not => !a,
            UopKind::Shl => a.wrapping_shl((b & 63) as u32),
            UopKind::Shr => a.wrapping_shr((b & 63) as u32),
            UopKind::SignExtend => a as u32 as i32 as i64 as u64,
            UopKind::FpAdd => a.wrapping_add(b) ^ 0x5555,
            UopKind::FpMul => a.wrapping_mul(b | 1) ^ 0xaaaa,
            UopKind::Nop => 0,
            UopKind::Load | UopKind::Store | UopKind::Branch(_) => {
                panic!("alu() called on non-ALU uop {self:?}")
            }
        }
    }
}

impl fmt::Display for UopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UopKind::IntAdd => "add",
            UopKind::IntSub => "sub",
            UopKind::IntMul => "mul",
            UopKind::Mov => "mov",
            UopKind::And => "and",
            UopKind::Or => "or",
            UopKind::Xor => "xor",
            UopKind::Not => "not",
            UopKind::Shl => "shl",
            UopKind::Shr => "shr",
            UopKind::SignExtend => "sext",
            UopKind::Load => "ld",
            UopKind::Store => "st",
            UopKind::Branch(BranchCond::Zero) => "brz",
            UopKind::Branch(BranchCond::NotZero) => "brnz",
            UopKind::Branch(BranchCond::Always) => "jmp",
            UopKind::FpAdd => "fadd",
            UopKind::FpMul => "fmul",
            UopKind::Nop => "nop",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emc_allowed_matches_table1() {
        // Table 1: Integer add/subtract/move/load/store;
        // logical and/or/xor/not/shift/sign-extend.
        for k in [
            UopKind::IntAdd,
            UopKind::IntSub,
            UopKind::Mov,
            UopKind::Load,
            UopKind::Store,
            UopKind::And,
            UopKind::Or,
            UopKind::Xor,
            UopKind::Not,
            UopKind::Shl,
            UopKind::Shr,
            UopKind::SignExtend,
        ] {
            assert!(k.emc_allowed(), "{k} must be EMC-allowed");
        }
        for k in [
            UopKind::IntMul,
            UopKind::FpAdd,
            UopKind::FpMul,
            UopKind::Nop,
        ] {
            assert!(!k.emc_allowed(), "{k} must not be EMC-allowed");
        }
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(UopKind::IntAdd.alu(2, 3), 5);
        assert_eq!(UopKind::IntSub.alu(2, 3), u64::MAX);
        assert_eq!(UopKind::And.alu(0b1100, 0b1010), 0b1000);
        assert_eq!(UopKind::Or.alu(0b1100, 0b1010), 0b1110);
        assert_eq!(UopKind::Xor.alu(0b1100, 0b1010), 0b0110);
        assert_eq!(UopKind::Not.alu(0, 99), u64::MAX);
        assert_eq!(UopKind::Shl.alu(1, 4), 16);
        assert_eq!(UopKind::Shr.alu(16, 4), 1);
        assert_eq!(
            UopKind::Shl.alu(1, 64),
            1,
            "shift amount is masked to 6 bits"
        );
        assert_eq!(UopKind::SignExtend.alu(0xffff_ffff, 0), u64::MAX);
        assert_eq!(UopKind::SignExtend.alu(0x7fff_ffff, 0), 0x7fff_ffff);
    }

    #[test]
    #[should_panic(expected = "non-ALU")]
    fn alu_rejects_load() {
        UopKind::Load.alu(0, 0);
    }

    #[test]
    fn latencies() {
        assert_eq!(UopKind::IntAdd.exec_latency(), 1);
        assert_eq!(UopKind::IntMul.exec_latency(), 3);
        assert_eq!(UopKind::FpMul.exec_latency(), 5);
    }

    #[test]
    fn classification() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::IntAdd.is_mem());
        assert!(UopKind::Branch(BranchCond::Zero).is_branch());
        assert!(!UopKind::Load.is_branch());
    }

    #[test]
    fn display_nonempty() {
        for k in [
            UopKind::IntAdd,
            UopKind::Branch(BranchCond::Always),
            UopKind::Nop,
        ] {
            assert!(!format!("{k}").is_empty());
            assert!(!format!("{k:?}").is_empty());
        }
        assert_eq!(format!("{}", Reg(3)), "r3");
    }
}
