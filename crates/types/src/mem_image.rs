//! Paged sparse functional memory image.
//!
//! Each simulated core owns one [`MemoryImage`] (the paper's workloads are
//! multiprogrammed SPEC mixes with disjoint address spaces). The image holds
//! the *values* that loads and stores actually read and write; all timing
//! comes from the cache/interconnect/DRAM models, which see only addresses.

use crate::addr::{Addr, PAGE_BYTES};
use crate::hash::FxHashMap;

/// A sparse, demand-allocated byte-addressable memory. Unwritten memory
/// reads as zero.
///
/// # Example
///
/// ```
/// use emc_types::{Addr, MemoryImage};
///
/// let mut m = MemoryImage::new();
/// m.write_u64(Addr(0x1000), 42);
/// assert_eq!(m.read_u64(Addr(0x1000)), 42);
/// assert_eq!(m.read_u64(Addr(0x2000)), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    /// Keyed by page number. Nothing iterates it.
    pages: FxHashMap<u64, Box<[u8; PAGE_BYTES as usize]>>,
}

impl MemoryImage {
    /// Create an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of demand-allocated pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let page = addr.0 / PAGE_BYTES;
        let off = (addr.0 % PAGE_BYTES) as usize;
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Write one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.page_mut(addr)[(addr.0 % PAGE_BYTES) as usize] = v;
    }

    /// The page that holds `addr`, allocated zero-filled on first use
    /// (every write allocates through here). Byte `i` of it is the byte
    /// at `addr - addr % PAGE_BYTES + i`. A caller that fills memory page
    /// by page pays one map probe per page, not one per word.
    pub fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_BYTES as usize] {
        self.pages
            .entry(addr.0 / PAGE_BYTES)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES as usize]))
    }

    /// Read a little-endian u64 (handles page-straddling addresses).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let page = addr.0 / PAGE_BYTES;
        let off = (addr.0 % PAGE_BYTES) as usize;
        if off + 8 <= PAGE_BYTES as usize {
            match self.pages.get(&page) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(Addr(addr.0 + i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Write a little-endian u64 (handles page-straddling addresses).
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        let off = (addr.0 % PAGE_BYTES) as usize;
        let bytes = v.to_le_bytes();
        if off + 8 <= PAGE_BYTES as usize {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(Addr(addr.0 + i as u64), *b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MemoryImage::new();
        assert_eq!(m.read_u64(Addr(0)), 0);
        assert_eq!(m.read_u8(Addr(u64::MAX - 8)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = MemoryImage::new();
        m.write_u64(Addr(16), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(Addr(16)), 0x0123_4567_89ab_cdef);
        // Little-endian byte order.
        assert_eq!(m.read_u8(Addr(16)), 0xef);
        assert_eq!(m.read_u8(Addr(23)), 0x01);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn page_straddling_u64() {
        let mut m = MemoryImage::new();
        let addr = Addr(PAGE_BYTES - 3);
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overlapping_writes() {
        let mut m = MemoryImage::new();
        m.write_u64(Addr(0), u64::MAX);
        m.write_u8(Addr(3), 0);
        assert_eq!(m.read_u64(Addr(0)), 0xffff_ffff_00ff_ffff);
    }

    #[test]
    fn page_mut_is_the_page_words_address() {
        let mut m = MemoryImage::new();
        let addr = Addr(PAGE_BYTES * 7 + 40);
        let page = m.page_mut(addr);
        assert!(page.iter().all(|&b| b == 0), "allocated zero-filled");
        page[40..48].copy_from_slice(&0xdead_beef_u64.to_le_bytes());
        page[0] = 0x5a;
        assert_eq!(m.read_u64(addr), 0xdead_beef);
        assert_eq!(m.read_u8(Addr(PAGE_BYTES * 7)), 0x5a);
        m.write_u64(Addr(PAGE_BYTES * 8 - 8), 3);
        assert_eq!(m.resident_pages(), 1, "one page, allocated once");
        let page = m.page_mut(Addr(PAGE_BYTES * 7));
        assert_eq!(page[0], 0x5a, "the same page, not a fresh one");
        assert_eq!(page[PAGE_BYTES as usize - 8], 3);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut m = MemoryImage::new();
        m.write_u64(Addr(0), 1);
        m.write_u64(Addr(PAGE_BYTES * 10), 2);
        assert_eq!(m.read_u64(Addr(0)), 1);
        assert_eq!(m.read_u64(Addr(PAGE_BYTES * 10)), 2);
        assert_eq!(m.resident_pages(), 2);
    }
}
