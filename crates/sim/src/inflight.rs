//! Lines on their way to or from DRAM and the loads waiting for them: the
//! LLC's miss table, with no entry limit (DESIGN.md §5 item 13).
//!
//! A line is tracked from the cycle its fetch leaves for DRAM until its
//! data is installed in its LLC slice, and a load to it — a core's or an
//! EMC's — merges onto that fetch instead of issuing its own. Nothing
//! iterates the table. The waiter lists borrow their buffers from two
//! pools and go back to them, so a run in steady state allocates none.
//!
//! One hole is kept on purpose, because closing it moves counts: an EMC
//! load that merges onto a line after the line's DRAM return is never
//! served. [`InFlight::dram_return`] has already handed the EMC waiters
//! over, and [`InFlight::fill`] drops the late ones (ROADMAP item 9).

use crate::events::EmcLoad;
use emc_cpu::RobId;
use emc_types::{CoreId, FxHashMap, LineAddr};

/// A core load waiting for a line.
pub(crate) type CoreWaiter = (CoreId, RobId);

/// The loads waiting for one line. At the line's DRAM return the merged
/// EMC loads are served first and the issuing one after them (DESIGN.md
/// §3, order 1).
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    /// Core loads, in merge order.
    pub cores: Vec<CoreWaiter>,
    /// The EMC load the fetch was issued for, if an EMC issued it.
    pub issuer: Option<EmcLoad>,
    /// EMC loads merged onto the fetch, in merge order.
    pub emc: Vec<EmcLoad>,
}

/// The in-flight line table.
#[derive(Debug, Default)]
pub(crate) struct InFlight {
    lines: FxHashMap<LineAddr, Waiters>,
    core_pool: Vec<Vec<CoreWaiter>>,
    emc_pool: Vec<Vec<EmcLoad>>,
}

/// Append `item` to `list`, which borrows a buffer from `pool` first if
/// it has none.
fn push<T>(pool: &mut Vec<Vec<T>>, list: &mut Vec<T>, item: T) {
    if list.capacity() == 0 {
        *list = pool.pop().unwrap_or_default();
    }
    list.push(item);
}

/// Hand a waiter buffer back to the pool it was borrowed from.
fn recycle<T>(pool: &mut Vec<Vec<T>>, mut buf: Vec<T>) {
    if buf.capacity() > 0 {
        buf.clear();
        pool.push(buf);
    }
}

impl InFlight {
    /// How many lines are in flight.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether a fetch of `line` is under way.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains_key(&line)
    }

    /// Track a fetch of `line` that is not under way yet: a core's demand
    /// miss (`first` waits for it), an EMC's (`issuer`) or a prefetch
    /// (neither).
    pub fn track(&mut self, line: LineAddr, first: Option<CoreWaiter>, issuer: Option<EmcLoad>) {
        let mut entry = Waiters {
            issuer,
            ..Waiters::default()
        };
        if let Some(first) = first {
            push(&mut self.core_pool, &mut entry.cores, first);
        }
        self.lines.insert(line, entry);
    }

    /// Make core load `waiter` wait for the fetch of `line`, if one is
    /// under way.
    pub fn merge_core(&mut self, line: LineAddr, waiter: CoreWaiter) -> bool {
        let Some(e) = self.lines.get_mut(&line) else {
            return false;
        };
        push(&mut self.core_pool, &mut e.cores, waiter);
        true
    }

    /// Make EMC load `load` wait for the fetch of `line`, if one is under
    /// way.
    pub fn merge_emc(&mut self, line: LineAddr, load: EmcLoad) -> bool {
        let Some(e) = self.lines.get_mut(&line) else {
            return false;
        };
        push(&mut self.emc_pool, &mut e.emc, load);
        true
    }

    /// Whether a demand load, a core's or an EMC's, has merged onto the
    /// fetch of `line`: a prefetch it merged onto is a demand now.
    pub fn demand_merged(&self, line: LineAddr) -> bool {
        (self.lines.get(&line)).is_some_and(|e| !e.cores.is_empty() || !e.emc.is_empty())
    }

    /// Stop tracking a line whose prefetch was dropped short of DRAM.
    pub fn untrack(&mut self, line: LineAddr) {
        if let Some(e) = self.lines.remove(&line) {
            recycle(&mut self.core_pool, e.cores);
            recycle(&mut self.emc_pool, e.emc);
        }
    }

    /// `line`'s data reached the chip: hand over its EMC loads and lend
    /// out its core list, which goes back through
    /// [`returned`](Self::returned). The line stays tracked until
    /// [`fill`](Self::fill).
    pub fn dram_return(&mut self, line: LineAddr) -> Waiters {
        (self.lines.get_mut(&line)).map_or_else(Waiters::default, std::mem::take)
    }

    /// Give back what [`dram_return`](Self::dram_return) handed over once
    /// it has been served: the core list to its line, the rest to the pool.
    pub fn returned(&mut self, line: LineAddr, ret: Waiters) {
        recycle(&mut self.emc_pool, ret.emc);
        match self.lines.get_mut(&line) {
            Some(e) => e.cores = ret.cores,
            None => recycle(&mut self.core_pool, ret.cores),
        }
    }

    /// `line` is installed in its LLC slice: stop tracking it and hand its
    /// core list on, to come back through [`recycle`](Self::recycle) once
    /// delivered. EMC loads merged since the DRAM return are dropped.
    pub fn fill(&mut self, line: LineAddr) -> Vec<CoreWaiter> {
        let Some(e) = self.lines.remove(&line) else {
            return Vec::new();
        };
        recycle(&mut self.emc_pool, e.emc);
        e.cores
    }

    /// Hand back a core list that [`fill`](Self::fill) handed on.
    pub fn recycle(&mut self, cores: Vec<CoreWaiter>) {
        recycle(&mut self.core_pool, cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::Addr;

    const LINE: LineAddr = LineAddr(7);

    fn load(uop: usize) -> EmcLoad {
        EmcLoad {
            mc: 0,
            ctx: 1,
            tag: 2,
            uop,
            core: 3,
            vaddr: Addr(0x40),
        }
    }

    #[test]
    fn loads_merge_in_order_and_only_onto_a_fetch_under_way() {
        let mut t = InFlight::default();
        assert!(!t.merge_core(LINE, (0, 1)) && !t.merge_emc(LINE, load(0)));
        t.track(LINE, Some((0, 1)), None);
        assert!(t.merge_core(LINE, (2, 5)) && t.merge_core(LINE, (1, 3)));
        assert!(t.merge_emc(LINE, load(4)) && t.merge_emc(LINE, load(1)));
        assert_eq!((t.len(), t.contains(LINE)), (1, true));
        let ret = t.dram_return(LINE);
        assert_eq!(ret.emc, [load(4), load(1)]);
        t.returned(LINE, ret);
        assert_eq!(t.fill(LINE), [(0, 1), (2, 5), (1, 3)]);
        assert_eq!((t.len(), t.contains(LINE)), (0, false));
    }

    #[test]
    fn the_return_hands_over_merged_emc_loads_then_the_issuer() {
        let mut t = InFlight::default();
        t.track(LINE, None, Some(load(9)));
        t.merge_emc(LINE, load(4));
        let ret = t.dram_return(LINE);
        assert_eq!((&ret.emc[..], ret.issuer), (&[load(4)][..], Some(load(9))));
        t.returned(LINE, ret);
        let again = t.dram_return(LINE);
        assert!(again.emc.is_empty() && again.issuer.is_none(), "once");
    }

    #[test]
    fn the_core_list_is_lent_at_the_return_and_handed_on_at_the_fill() {
        let mut t = InFlight::default();
        t.track(LINE, Some((0, 1)), None);
        let ret = t.dram_return(LINE);
        assert_eq!(ret.cores, [(0, 1)]);
        assert!(t.contains(LINE), "tracked until the fill");
        t.returned(LINE, ret);
        t.merge_core(LINE, (1, 8));
        assert_eq!(t.fill(LINE), [(0, 1), (1, 8)]);
    }

    #[test]
    fn a_merged_demand_promotes_a_prefetch() {
        let mut t = InFlight::default();
        t.track(LINE, None, None);
        assert!(!t.demand_merged(LINE));
        t.merge_core(LINE, (0, 1));
        assert!(t.demand_merged(LINE));
        t.track(LineAddr(8), None, None);
        t.merge_emc(LineAddr(8), load(0));
        assert!(t.demand_merged(LineAddr(8)));
        t.untrack(LINE);
        assert!(!t.contains(LINE) && !t.demand_merged(LINE));
    }

    #[test]
    fn an_emc_load_merged_after_the_return_is_dropped_at_the_fill() {
        let mut t = InFlight::default();
        t.track(LINE, Some((0, 1)), Some(load(9)));
        let ret = t.dram_return(LINE);
        t.returned(LINE, ret);
        assert!(t.merge_emc(LINE, load(5)), "merged, but after the return");
        assert_eq!(t.fill(LINE), [(0, 1)]);
        assert!(t.dram_return(LINE).emc.is_empty(), "and never handed over");
    }

    #[test]
    fn pooled_buffers_are_reused() {
        let mut t = InFlight::default();
        t.track(LINE, Some((0, 1)), None);
        let cores = t.fill(LINE);
        let ptr = cores.as_ptr();
        t.recycle(cores);
        t.track(LineAddr(8), Some((1, 2)), None);
        let reused = t.fill(LineAddr(8));
        assert_eq!(reused.as_ptr(), ptr, "core list");
        t.track(LINE, None, None);
        t.merge_emc(LINE, load(0));
        let ret = t.dram_return(LINE);
        let ptr = ret.emc.as_ptr();
        t.returned(LINE, ret);
        t.merge_emc(LINE, load(1));
        let reused = t.dram_return(LINE);
        assert_eq!(reused.emc.as_ptr(), ptr, "EMC list");
    }
}
