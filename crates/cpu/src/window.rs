//! The instruction window's storage (DESIGN.md §3, "The instruction
//! window"): a ring of slots, each entry's state in three records split
//! by who reads them, the wakeup lists, and the ordered sets the
//! scheduler keeps: ids, completions by cycle, and the store queue as a
//! slot bitmask. The pipeline that moves uops through it is
//! [`Core`](crate::Core).

use crate::bpred::PredictInfo;
use emc_types::program::StaticUop;
use emc_types::{Addr, Cycle, Reg, UopKind};
use std::collections::VecDeque;

/// Identifier of a dynamic uop: unique, increasing in dispatch order,
/// never reused within a run. Its low bits are its slot in the window,
/// as a hardware ROB tag is (DESIGN.md §3, "The instruction window"), so
/// consecutive uops have consecutive ids except across a flush.
pub type RobId = u64;

/// A source operand as captured at rename, as the chain walk reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcOp {
    value: Option<u64>,
    producer: Option<RobId>,
}

impl SrcOp {
    /// The value, once available. An absent operand of an ALU uop holds
    /// the value the ALU reads in its place: the immediate where the uop
    /// has one, else 0.
    pub fn value(&self) -> Option<u64> {
        self.value
    }

    /// The in-flight producer at rename time (`None`: a committed
    /// register, or no operand).
    pub fn producer(&self) -> Option<RobId> {
        self.producer
    }

    /// Whether the operand's value is available.
    pub fn ready(&self) -> bool {
        self.value.is_some()
    }
}

/// What issue and wakeup read of a source operand; its producer is in
/// the entry's [`Links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operand {
    pub value: u64,
    /// Dependence-chain depth (ALU ops since the source miss).
    pub depth: u16,
    pub ready: bool,
    /// The value derives from an in-flight LLC miss.
    pub taint: bool,
    /// Runahead INV bit: the value descends from the runahead-entry miss
    /// and is architecturally meaningless.
    pub inv: bool,
}

impl Operand {
    /// An absent operand, or a committed register's `value`.
    pub fn committed(value: u64, inv: bool) -> Self {
        Operand {
            value,
            depth: 0,
            ready: true,
            taint: false,
            inv,
        }
    }

    /// An operand that waits for an in-flight producer.
    pub fn waiting() -> Self {
        Operand {
            ready: false,
            ..Operand::committed(0, false)
        }
    }
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched, waiting for operands or issue bandwidth.
    Waiting,
    /// Issued to an execution unit (or the memory system).
    Issued,
    /// Completed; result (if any) is valid.
    Done,
}

/// What dispatch, issue, wakeup and retirement read and write of an
/// entry every cycle: one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Hot {
    pub id: RobId,
    /// Valid when `Done` and the uop has a destination.
    pub result: u64,
    pub srcs: [Operand; 2],
    pub kind: UopKind,
    pub dst: Option<Reg>,
    pub state: EntryState,
    /// Output chain depth (ALU ops since the source miss).
    pub depth: u16,
    /// Shipped to the EMC: the core must not issue it locally.
    pub remote: bool,
    /// This load went past the LLC to memory (set by the owning sim).
    pub llc_miss: bool,
    /// Output taint: the value derives from an in-flight LLC miss.
    pub tainted: bool,
    /// Runahead INV bit (result is meaningless).
    pub inv: bool,
    /// This load holds an in-flight memory slot.
    pub mem_pending: bool,
}

/// What rename, a flush and the chain walk read of an entry: one cache
/// line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Links {
    /// The entry's first waiters, `consumer << 1 | source slot`; the
    /// rest spill to [`Window::spill`].
    waiters: [u64; INLINE_WAITERS],
    waiter_count: u32,
    /// Index of the static uop in the program.
    pub prog_idx: u32,
    /// Each source operand's in-flight producer at rename time (`NONE`:
    /// a committed register, or no operand).
    producers: [RobId; 2],
    /// The rename-table mapping of the destination before this uop
    /// renamed it (`NONE`: none), what a flush that squashes it puts
    /// back.
    renamed_over: RobId,
}

const INLINE_WAITERS: usize = 4;
const NONE: RobId = RobId::MAX;

impl Links {
    pub fn new(
        prog_idx: usize,
        producers: [Option<RobId>; 2],
        renamed_over: Option<RobId>,
    ) -> Self {
        Links {
            waiters: [0; INLINE_WAITERS],
            waiter_count: 0,
            prog_idx: prog_idx as u32,
            producers: producers.map(|p| p.unwrap_or(NONE)),
            renamed_over: renamed_over.unwrap_or(NONE),
        }
    }

    pub fn producer(&self, src: usize) -> Option<RobId> {
        Some(self.producers[src]).filter(|&p| p != NONE)
    }

    pub fn renamed_over(&self) -> Option<RobId> {
        Some(self.renamed_over).filter(|&p| p != NONE)
    }
}

/// A waiter's `(consumer, source slot)`.
fn waiter(w: u64) -> (RobId, usize) {
    (w >> 1, (w & 1) as usize)
}

/// A wakeup list taken out of its entry by [`Window::take_waiters`].
pub(crate) struct Waiters {
    inline: [u64; INLINE_WAITERS],
    len: usize,
    spill: Vec<u64>,
}

impl Waiters {
    /// `(consumer, source slot)` in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = (RobId, usize)> + '_ {
        let inline = &self.inline[..self.len.min(INLINE_WAITERS)];
        inline.iter().chain(&self.spill).map(|&w| waiter(w))
    }
}

/// What only a memory op or a branch has: written at its dispatch, and
/// meaningless for an entry of another kind.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Cold {
    /// Resolved memory address (mem ops, once issued).
    pub addr: Option<Addr>,
    /// Store data (stores, once issued).
    pub store_value: Option<u64>,
    /// Branch-prediction checkpoint.
    pub bp: Option<PredictInfo>,
    /// Predicted direction at fetch.
    pub predicted_taken: bool,
    /// The load's line reached the chip from memory but not yet the core.
    pub on_chip: bool,
}

/// A read-only view of one in-flight entry.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry<'a> {
    pub(crate) hot: &'a Hot,
    pub(crate) links: &'a Links,
    pub(crate) cold: &'a Cold,
    pub(crate) uop: &'a StaticUop,
    pub(crate) pc: u64,
}

impl<'a> RobEntry<'a> {
    /// Dynamic uop id.
    pub fn id(&self) -> RobId {
        self.hot.id
    }

    /// The static uop.
    pub fn uop(&self) -> &'a StaticUop {
        self.uop
    }

    /// Synthetic PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Execution state.
    pub fn state(&self) -> EntryState {
        self.hot.state
    }

    /// Captured source operands.
    pub fn srcs(&self) -> [SrcOp; 2] {
        [0, 1].map(|i| SrcOp {
            value: self.hot.srcs[i].ready.then_some(self.hot.srcs[i].value),
            producer: self.links.producer(i),
        })
    }

    /// Result value (valid when `Done` and the uop has a destination).
    pub fn result(&self) -> u64 {
        self.hot.result
    }

    /// Resolved memory address (mem ops, once issued).
    pub fn addr(&self) -> Option<Addr> {
        self.cold.addr.filter(|_| self.hot.kind.is_mem())
    }

    /// Shipped to the EMC: the core does not issue it locally.
    pub fn remote(&self) -> bool {
        self.hot.remote
    }

    /// This load went past the LLC to memory.
    pub fn llc_miss(&self) -> bool {
        self.hot.llc_miss
    }

    /// This load's line has reached the chip from memory but not yet the
    /// core: a chain sourced at it can ship with the value.
    pub fn on_chip(&self) -> bool {
        matches!(self.hot.kind, UopKind::Load) && self.cold.on_chip
    }

    /// Predicted direction at fetch (branches only).
    pub fn predicted_taken(&self) -> bool {
        self.hot.kind.is_branch() && self.cold.predicted_taken
    }
}

/// The window proper: `slots` entries in a ring, allocated whole; the
/// entry with id `i` sits in slot `i & mask`. Retired and squashed
/// entries stay where they are until a dispatch overwrites them.
pub(crate) struct Window {
    pub hot: Box<[Hot]>,
    pub links: Box<[Links]>,
    pub cold: Box<[Cold]>,
    /// Per slot, the waiters beyond the first `INLINE_WAITERS`, in a
    /// buffer borrowed from `spill_pool` at the first spill and handed
    /// back when the list empties.
    spill: Box<[Vec<u64>]>,
    spill_pool: Vec<Vec<u64>>,
    pub mask: usize,
    /// Live entries: the `len` slots up to and excluding `next_id`'s.
    pub len: usize,
    /// The id of the next dispatch; its slot is the one after the
    /// youngest live entry.
    pub next_id: RobId,
}

impl Window {
    /// A ring of `entries.next_power_of_two()` slots.
    pub fn new(entries: usize) -> Self {
        let slots = entries.next_power_of_two();
        let hot = Hot {
            id: NONE,
            result: 0,
            srcs: [Operand::committed(0, false); 2],
            kind: UopKind::Nop,
            dst: None,
            state: EntryState::Done,
            depth: 0,
            remote: false,
            llc_miss: false,
            tainted: false,
            inv: false,
            mem_pending: false,
        };
        let cold = Cold {
            addr: None,
            store_value: None,
            bp: None,
            predicted_taken: false,
            on_chip: false,
        };
        Window {
            hot: vec![hot; slots].into(),
            links: vec![Links::new(0, [None; 2], None); slots].into(),
            cold: vec![cold; slots].into(),
            spill: vec![Vec::new(); slots].into(),
            spill_pool: Vec::new(),
            mask: slots - 1,
            len: 0,
            next_id: 0,
        }
    }

    /// Add `consumer`'s source operand `src` to the wakeup list of the
    /// entry in `slot`.
    pub fn push_waiter(&mut self, slot: usize, consumer: RobId, src: usize) {
        let links = &mut self.links[slot];
        let waiter = consumer << 1 | src as u64;
        match links.waiters.get_mut(links.waiter_count as usize) {
            Some(w) => *w = waiter,
            None => {
                let spill = &mut self.spill[slot];
                if spill.capacity() == 0 {
                    *spill = self.spill_pool.pop().unwrap_or_default();
                }
                spill.push(waiter);
            }
        }
        links.waiter_count += 1;
    }

    /// The wakeup list of the entry in `slot`: `(consumer, source slot)`
    /// in dispatch order.
    pub fn waiters(&self, slot: usize) -> impl Iterator<Item = (RobId, usize)> + '_ {
        let n = self.links[slot].waiter_count as usize;
        let inline = &self.links[slot].waiters[..n.min(INLINE_WAITERS)];
        let spilled = if n > INLINE_WAITERS {
            &self.spill[slot][..]
        } else {
            &[]
        };
        (inline.iter().chain(spilled)).map(|&w| waiter(w))
    }

    /// Take the wakeup list of the entry in `slot` out, emptying it; hand
    /// it back through [`recycle_waiters`](Self::recycle_waiters) once
    /// read.
    pub fn take_waiters(&mut self, slot: usize) -> Waiters {
        let links = &mut self.links[slot];
        let len = std::mem::take(&mut links.waiter_count) as usize;
        let spill = match len > INLINE_WAITERS {
            true => std::mem::take(&mut self.spill[slot]),
            false => Vec::new(),
        };
        Waiters {
            inline: links.waiters,
            len,
            spill,
        }
    }

    /// Hand back the spill buffer of a list
    /// [`take_waiters`](Self::take_waiters) took out.
    pub fn recycle_waiters(&mut self, waiters: Waiters) {
        self.recycle_spill(waiters.spill);
    }

    /// Empty the wakeup list of the entry in `slot`.
    pub fn clear_waiters(&mut self, slot: usize) {
        let links = &mut self.links[slot];
        if std::mem::take(&mut links.waiter_count) as usize > INLINE_WAITERS {
            let spill = std::mem::take(&mut self.spill[slot]);
            self.recycle_spill(spill);
        }
    }

    fn recycle_spill(&mut self, mut spill: Vec<u64>) {
        if spill.capacity() > 0 {
            spill.clear();
            self.spill_pool.push(spill);
        }
    }

    /// The window slot of `id`: its low bits.
    pub fn slot(&self, id: RobId) -> usize {
        id as usize & self.mask
    }

    /// The slot of the oldest live entry (of the next dispatch, while
    /// the window is empty).
    pub fn head(&self) -> usize {
        self.slot(self.next_id.wrapping_sub(self.len as u64))
    }

    /// The slot `age` entries younger than the head.
    pub fn at(&self, age: usize) -> usize {
        (self.head() + age) & self.mask
    }

    /// How many entries older than the one in `slot` are live.
    pub fn age(&self, slot: usize) -> usize {
        slot.wrapping_sub(self.head()) & self.mask
    }

    /// The slot of in-flight entry `id`. A retired, squashed or future id
    /// either has a slot outside the live range or shares its slot with
    /// a live uop of another id, and misses.
    pub fn index_of(&self, id: RobId) -> Option<usize> {
        let slot = self.slot(id);
        let age = self.slot(self.next_id.wrapping_sub(1).wrapping_sub(id));
        (age < self.len && self.hot[slot].id == id).then_some(slot)
    }
}

/// A set of window slots as a bitmask, scanned by age from the head:
/// live slots from the head hold ascending ids.
#[derive(Debug)]
pub(crate) struct SlotSet {
    words: Box<[u64]>,
    mask: usize,
    len: usize,
}

impl SlotSet {
    /// An empty set over `window`'s slots.
    pub fn new(window: &Window) -> Self {
        let slots = window.mask + 1;
        SlotSet {
            words: vec![0; slots.div_ceil(64)].into(),
            mask: window.mask,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & 1 << (slot % 64) != 0
    }

    pub fn insert(&mut self, slot: usize) {
        let w = &mut self.words[slot / 64];
        self.len += usize::from(*w & 1 << (slot % 64) == 0);
        *w |= 1 << (slot % 64);
    }

    pub fn remove(&mut self, slot: usize) {
        let w = &mut self.words[slot / 64];
        self.len -= usize::from(*w & 1 << (slot % 64) != 0);
        *w &= !(1 << (slot % 64));
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The age of the youngest member before age `end`, ages counted
    /// from slot `head`.
    pub fn prev(&self, head: usize, end: usize) -> Option<usize> {
        let mut age = end;
        while age > 0 {
            let slot = (head + age - 1) & self.mask;
            let bit = slot % 64;
            // The word's bits from this slot down, and not past the head.
            let (top, bottom) = (
                u64::MAX >> (63 - bit),
                u64::MAX << bit.saturating_sub(age - 1),
            );
            let bits = self.words[slot / 64] & top & bottom;
            if bits != 0 {
                return Some(age - 1 - (bit - (63 - bits.leading_zeros() as usize)));
            }
            age = age.saturating_sub(bit + 1);
        }
        None
    }
}

/// A small ordered set of ids in a ring buffer: the scheduler's ids
/// arrive nearly in order, so an insert lands at or near the back, and
/// the oldest leave from the front.
#[derive(Debug, Default)]
pub(crate) struct Ids(pub VecDeque<RobId>);

impl Ids {
    pub fn insert(&mut self, id: RobId) {
        if self.0.back().is_none_or(|&last| last < id) {
            self.0.push_back(id);
        } else if let Err(i) = self.0.binary_search(&id) {
            self.0.insert(i, id);
        }
    }

    pub fn remove(&mut self, id: RobId) {
        if let Ok(i) = self.0.binary_search(&id) {
            self.remove_at(i);
        }
    }

    pub fn remove_at(&mut self, i: usize) {
        if i == 0 {
            self.0.pop_front();
        } else {
            self.0.remove(i);
        }
    }
}

/// Execution completions, in `(cycle, id)` order: every one lands 1 to 5
/// cycles after the cycle that schedules it (`UopKind::exec_latency` is
/// at most 5), so an insert lands at or near the back, and the due ones
/// are taken from the front.
#[derive(Debug, Default)]
pub(crate) struct Completions {
    pending: Vec<(Cycle, RobId)>,
    /// How many of `pending` were taken.
    taken: usize,
}

impl Completions {
    pub fn len(&self) -> usize {
        self.pending.len() - self.taken
    }

    pub fn clear(&mut self) {
        self.pending.clear();
        self.taken = 0;
    }

    /// `id` completes at cycle `at`.
    pub fn insert(&mut self, at: Cycle, id: RobId) {
        let key = (at, id);
        let mut i = self.pending.len();
        while i > self.taken && self.pending[i - 1] > key {
            i -= 1;
        }
        if i == self.pending.len() {
            self.pending.push(key);
        } else {
            self.pending.insert(i, key);
        }
    }

    /// The earliest cycle a completion is due, if one is.
    pub fn first(&self) -> Option<Cycle> {
        self.pending.get(self.taken).map(|&(at, _)| at)
    }

    /// The next completion due by `now`, taken out.
    pub fn pop_due(&mut self, now: Cycle) -> Option<RobId> {
        let &(at, id) = self.pending.get(self.taken)?;
        if at > now {
            return None;
        }
        self.taken += 1;
        if self.taken == self.pending.len() {
            self.clear();
        } else if self.taken >= 32 {
            self.pending.drain(..self.taken);
            self.taken = 0;
        }
        Some(id)
    }

    /// Every pending `(cycle, id)`, in order.
    #[cfg(test)]
    pub fn entries(&self) -> Vec<(Cycle, RobId)> {
        self.pending[self.taken..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_sets_scan_back_from_any_age_across_the_wrap() {
        for entries in [24, 256] {
            let w = Window::new(entries);
            let slots = w.mask + 1;
            let mut set = SlotSet::new(&w);
            let head = slots - 3;
            let members: Vec<usize> = [0, 1, 2, 5, 63, 64, 70, slots - 1]
                .into_iter()
                .filter(|&a| a < slots)
                .collect();
            for &age in &members {
                set.insert((head + age) & w.mask);
            }
            let mut back = Vec::new();
            let mut end = slots;
            while let Some(a) = set.prev(head, end) {
                back.push(a);
                end = a;
            }
            back.reverse();
            assert_eq!(back, members, "{slots} slots");
            assert_eq!(set.prev(head, 5), Some(2), "bounded by the end");
            assert_eq!(set.len(), members.len());
            set.remove((head + 2) & w.mask);
            assert_eq!((set.prev(head, 5), set.len()), (Some(1), members.len() - 1));
        }
    }

    #[test]
    fn completions_drain_by_cycle_then_id() {
        let mut done = Completions::default();
        for (at, id) in [(12, 7), (10, 9), (10, 3), (14, 1)] {
            done.insert(at, id);
        }
        assert_eq!((done.len(), done.first()), (4, Some(10)));
        assert!(done.pop_due(9).is_none());
        let drained: Vec<RobId> = std::iter::from_fn(|| done.pop_due(13)).collect();
        assert_eq!(drained, [3, 9, 7]);
        assert_eq!(done.entries(), [(14, 1)]);
    }
}
