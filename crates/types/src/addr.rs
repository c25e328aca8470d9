//! Address newtypes: byte addresses, cache-line addresses, page addresses.

use std::fmt;

/// Size of a cache line in bytes (Table 1: 64-byte lines).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Size of a virtual-memory page in bytes (4 KB).
pub const PAGE_BYTES: u64 = 4096;

/// A byte address in the simulated (virtual = physical, identity-mapped)
/// address space.
///
/// The simulator identity-maps virtual to physical addresses; the TLB
/// machinery still models translation *timing* (EMC TLB misses halt chain
/// execution per §4.1.4 of the paper) while the functional image is indexed
/// by the same numeric address.
///
/// # Example
///
/// ```
/// use emc_types::Addr;
/// let a = Addr(0x1234);
/// assert_eq!(a.line().base().0, 0x1200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A cache-line-aligned address, stored as `byte_address / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// A page-aligned address, stored as `byte_address / 4096`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

/// Fold a core id into a (per-core virtual) line address to form the
/// global physical line used by the shared LLC, the EMC data cache and
/// DRAM mapping.
///
/// The paper's workloads are multiprogrammed SPEC mixes: each core has a
/// private address space, so identical virtual addresses on different
/// cores must map to distinct physical lines (otherwise homogeneous mixes
/// would alias in the shared caches). Only the low 40 bits of the
/// virtual line are kept, so [`line_owner`] can always recover `core`.
pub fn physical_line(core: usize, line: LineAddr) -> LineAddr {
    LineAddr((line.0 & ((1 << OWNER_SHIFT) - 1)) | ((core as u64 + 1) << OWNER_SHIFT))
}

/// The core whose address space a physical line belongs to: the inverse
/// of [`physical_line`] in its `core` argument. A line outside every
/// core's space (high bits zero) has no owner and gives `usize::MAX`.
pub fn line_owner(line: LineAddr) -> usize {
    ((line.0 >> OWNER_SHIFT) as usize).wrapping_sub(1)
}

/// Where [`physical_line`] puts the owning core.
const OWNER_SHIFT: u32 = 40;

impl Addr {
    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / CACHE_LINE_BYTES)
    }
}

impl LineAddr {
    /// First byte address of this line.
    pub fn base(self) -> Addr {
        Addr(self.0 * CACHE_LINE_BYTES)
    }
}

impl PageAddr {
    /// First byte address of this page.
    pub fn base(self) -> Addr {
        Addr(self.0 * PAGE_BYTES)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.base().0)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.base().0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_an_address() {
        let a = Addr(0xdead_beef);
        assert_eq!(a.line().base().0, 0xdead_beef & !63);
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(4096).line(), LineAddr(64));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{:?}", Addr::default()).is_empty());
        assert_eq!(format!("{}", Addr(16)), "0x10");
        assert_eq!(format!("{}", LineAddr(1)), "L0x40");
        assert_eq!(format!("{}", PageAddr(1)), "P0x1000");
    }

    #[test]
    fn physical_lines_are_per_core_disjoint() {
        let l = LineAddr(0x1234);
        let a = physical_line(0, l);
        let b = physical_line(1, l);
        assert_ne!(a, b);
        assert_ne!(a, l, "physicalization moves even core 0");
        // Low bits (set index, row locality) are preserved.
        assert_eq!(a.0 & 0xffff_ffff, l.0);
    }

    #[test]
    fn line_owner_inverts_physical_line() {
        for core in 0..8 {
            for line in [0, (1 << 40) - 1, (1 << 40) + 0x1234] {
                assert_eq!(line_owner(physical_line(core, LineAddr(line))), core);
            }
        }
        assert_eq!(line_owner(LineAddr(0x1234)), usize::MAX, "no core owns it");
    }
}
