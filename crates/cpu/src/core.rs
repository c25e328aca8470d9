//! The out-of-order core pipeline: fetch with branch prediction, rename,
//! a ROB-based instruction window with reservation-station and LSQ
//! capacity limits, oldest-first issue, store-to-load forwarding,
//! speculative wrong-path execution with flush-on-mispredict, and in-order
//! retirement (Table 1: 4-wide, 256-entry ROB, 92-entry RS).
//!
//! The core is *execution-driven*: uop results are computed when they
//! issue, so dependent-load addresses are real data values from the
//! workload's memory image. Timing for loads comes from the owning
//! simulator, which drains [`CoreEvent`]s and later calls
//! [`Core::complete_load`].
//!
//! Everything the EMC's chain-generation unit needs — the ROB contents,
//! per-entry wakeup (waiter) lists that implement the paper's
//! pseudo-wakeup dataflow walk, source-operand readiness and values — is
//! exposed read-only here and consumed by the `emc-core` crate.

use crate::bpred::{HybridPredictor, PredictInfo};
use emc_types::program::{Program, StaticUop};
use emc_types::{Addr, CoreConfig, CoreStats, Cycle, MemoryImage, UopKind, NUM_ARCH_REGS};
use std::sync::Arc;

/// Identifier of a dynamic uop: unique, increasing in dispatch order,
/// never reused within a run. Its low bits are its slot in the window,
/// as a hardware ROB tag is (DESIGN.md §3, "The instruction window"), so
/// consecutive uops have consecutive ids except across a flush.
pub type RobId = u64;

/// A source operand as captured at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcOp {
    /// The value, once available.
    pub value: Option<u64>,
    /// The in-flight producer at rename time (None = committed register
    /// or immediate-only).
    pub producer: Option<RobId>,
    /// Whether the value derives from an in-flight LLC miss.
    pub taint: bool,
    /// Dependence-chain depth (ALU ops since the source miss).
    pub depth: u16,
    /// Runahead INV bit: the value descends from the runahead-entry miss
    /// and is architecturally meaningless.
    pub inv: bool,
}

impl SrcOp {
    fn absent() -> Self {
        SrcOp {
            value: Some(0),
            producer: None,
            taint: false,
            depth: 0,
            inv: false,
        }
    }

    /// Whether the operand's value is available.
    pub fn ready(&self) -> bool {
        self.value.is_some()
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

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Dynamic uop id.
    pub id: RobId,
    /// Index of the static uop in the program.
    pub prog_idx: usize,
    /// The static uop.
    pub uop: StaticUop,
    /// Synthetic PC.
    pub pc: u64,
    /// Execution state.
    pub state: EntryState,
    /// Captured source operands.
    pub srcs: [SrcOp; 2],
    /// Result value (valid when `Done` and the uop has a destination).
    pub result: u64,
    /// Resolved memory address (mem ops, once issued).
    pub addr: Option<Addr>,
    /// Store data (stores, once issued).
    pub store_value: Option<u64>,
    /// Shipped to the EMC: the core must not issue it locally.
    pub remote: bool,
    /// This load went past the LLC to memory (set by the owning sim).
    pub llc_miss: bool,
    /// This load's line has reached the chip from memory but not yet
    /// the core (set by the owning sim through [`Core::mark_on_chip`]):
    /// a chain sourced at it can ship with the value.
    pub on_chip: bool,
    /// Output taint: this value derives from an in-flight LLC miss.
    pub tainted: bool,
    /// Output chain depth (ALU ops since the source miss).
    pub chain_depth: u16,
    /// Consumers waiting for this entry's result, read through
    /// [`Core::waiters_of`]. The buffer is borrowed from the core's pool
    /// at the first registration and handed back when the entry
    /// completes or is squashed.
    waiters: Vec<(RobId, u8)>,
    /// Branch-prediction checkpoint (branches only).
    pub bp: Option<PredictInfo>,
    /// Predicted direction at fetch (branches only).
    pub predicted_taken: bool,
    /// Whether this load's value was forwarded from an older store.
    pub forwarded: bool,
    /// Whether this load currently holds an in-flight memory slot.
    mem_pending: bool,
    /// Runahead INV bit (result is meaningless, §2's runahead contrast).
    pub inv: bool,
    /// The rename-table mapping of this uop's destination before it
    /// renamed it: what a flush that squashes it puts back.
    renamed_over: Option<RobId>,
}

/// Events emitted by the core for the owning simulator to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// A load left the pipeline toward the cache hierarchy.
    LoadIssued {
        /// The load's ROB id (echoed back via [`Core::complete_load`]).
        rob: RobId,
        /// The load's byte address.
        addr: Addr,
        /// PC for prefetcher training / miss prediction.
        pc: u64,
    },
    /// A store retired and its data was committed to the memory image;
    /// the simulator should mark caches dirty.
    StoreRetired {
        /// The store's byte address.
        addr: Addr,
    },
}

/// A small ordered set in a `Vec`. The scheduler's keys (ROB ids,
/// completion times) arrive nearly in order, so an insert lands at or
/// near the back; the sets stay a few dozen keys long, so taking the
/// oldest is a short `memmove`; and nothing allocates once the buffer has
/// grown to its working size.
#[derive(Debug, Default)]
struct SortedQueue<T>(Vec<T>);

impl<T: Ord + Copy> SortedQueue<T> {
    fn first(&self) -> Option<T> {
        self.0.first().copied()
    }

    fn insert(&mut self, key: T) {
        let mut i = self.0.len();
        while i > 0 && self.0[i - 1] > key {
            i -= 1;
        }
        if i == 0 || self.0[i - 1] != key {
            self.0.insert(i, key);
        }
    }

    fn remove(&mut self, key: T) {
        if let Ok(i) = self.0.binary_search(&key) {
            self.0.remove(i);
        }
    }

    /// Drop every key above `max`: a flush squashes the youngest ids.
    fn truncate_above(&mut self, max: T) {
        while self.0.last().is_some_and(|b| *b > max) {
            self.0.pop();
        }
    }
}

/// Hand a waiter buffer back to the pool it was borrowed from.
fn recycle(pool: &mut Vec<Vec<(RobId, u8)>>, mut waiters: Vec<(RobId, u8)>) {
    if waiters.capacity() > 0 {
        waiters.clear();
        pool.push(waiters);
    }
}

/// The out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    /// The core's private functional memory image.
    pub mem: MemoryImage,
    /// Pipeline statistics.
    pub stats: CoreStats,

    // --- front end ---
    bpred: HybridPredictor,
    fetch_idx: usize,
    fetch_resume_at: Cycle,
    program_done: bool,

    // --- window (DESIGN.md §3, "The instruction window") ---
    /// A ring of `rob_entries.next_power_of_two()` slots, allocated
    /// whole and filled in order by the first dispatches; the entry with
    /// id `i` sits in slot `i & slot_mask`. Retired and squashed entries
    /// stay where they are until a dispatch overwrites them.
    rob: Vec<RobEntry>,
    slot_mask: usize,
    /// Live entries: the `rob_len` slots up to and excluding `next_id`'s.
    rob_len: usize,
    /// The id of the next dispatch; its slot is the one after the
    /// youngest live entry.
    next_id: RobId,
    rename: [Option<RobId>; NUM_ARCH_REGS],
    committed: [u64; NUM_ARCH_REGS],
    ready: SortedQueue<RobId>,
    completing: SortedQueue<(Cycle, RobId)>,
    unresolved_stores: SortedQueue<RobId>,
    store_ids: SortedQueue<RobId>,
    waiter_pool: Vec<Vec<(RobId, u8)>>,
    /// The last load that issue found waiting for an older store's data,
    /// and that store.
    data_wait: Option<(RobId, RobId)>,
    waiting_count: usize,
    mem_inflight: usize,

    finished_at: Option<Cycle>,
    /// The cycle of the last retirement counted in `stats.retired_uops`.
    last_retired_at: Cycle,
    /// [`tick`](Core::tick) only counts the cycle before this one: what
    /// [`inert_until`](Core::inert_until) answered after a tick that
    /// moved nothing. Every call from outside that can end the wait
    /// zeroes it.
    asleep_until: Cycle,

    // --- observability ---
    stall_since: Option<Cycle>,
    finished_stall: Option<(Cycle, Cycle)>,

    // --- runahead execution (optional baseline, HPCA 2003) ---
    runahead: Option<Runahead>,
    committed_inv: [bool; NUM_ARCH_REGS],
}

/// Checkpoint taken when entering runahead mode.
#[derive(Debug, Clone)]
struct Runahead {
    /// The blocking miss whose return ends the episode.
    source_rob: RobId,
    /// Program index to resume fetch from.
    resume_idx: usize,
    /// Architectural registers at entry (the head was the oldest
    /// un-retired uop, so the committed file is precise here).
    checkpoint: [u64; NUM_ARCH_REGS],
}

impl Core {
    /// Create a core executing `program` against `mem`.
    pub fn new(cfg: &CoreConfig, program: Arc<Program>, mem: MemoryImage) -> Self {
        Core {
            cfg: *cfg,
            bpred: HybridPredictor::new(cfg.bp_table_entries),
            program,
            mem,
            stats: CoreStats::default(),
            fetch_idx: 0,
            fetch_resume_at: 0,
            program_done: false,
            rob: Vec::with_capacity(cfg.rob_entries.next_power_of_two()),
            slot_mask: cfg.rob_entries.next_power_of_two() - 1,
            rob_len: 0,
            next_id: 0,
            rename: [None; NUM_ARCH_REGS],
            committed: [0; NUM_ARCH_REGS],
            ready: SortedQueue::default(),
            completing: SortedQueue::default(),
            unresolved_stores: SortedQueue::default(),
            store_ids: SortedQueue::default(),
            waiter_pool: Vec::new(),
            data_wait: None,
            waiting_count: 0,
            mem_inflight: 0,
            finished_at: None,
            last_retired_at: 0,
            asleep_until: 0,
            stall_since: None,
            finished_stall: None,
            runahead: None,
            committed_inv: [false; NUM_ARCH_REGS],
        }
    }

    /// The cycle the program finished (fetch past the end and ROB empty).
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// The cycle of the core's most recent retirement (0 before the
    /// first); runahead pseudo-retirement does not count. The liveness
    /// probe's per-core retirement age is measured from it.
    pub fn last_retired_at(&self) -> Cycle {
        self.last_retired_at
    }

    /// Committed architectural register values.
    pub fn committed_regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.committed
    }

    /// The window slot of `id`: its low bits.
    fn slot(&self, id: RobId) -> usize {
        id as usize & self.slot_mask
    }

    /// The slot of the oldest live entry (of the next dispatch, while
    /// the window is empty).
    fn head_slot(&self) -> usize {
        self.slot(self.next_id.wrapping_sub(self.rob_len as u64))
    }

    /// The slot of in-flight entry `id`. A retired, squashed or future id
    /// either has a slot outside the live range or shares its slot with
    /// a live uop of another id, and misses.
    fn index_of(&self, id: RobId) -> Option<usize> {
        let slot = self.slot(id);
        let age = self.slot(self.next_id.wrapping_sub(1).wrapping_sub(id));
        (age < self.rob_len && self.rob[slot].id == id).then_some(slot)
    }

    /// Look up an in-flight entry by id.
    pub fn entry(&self, id: RobId) -> Option<&RobEntry> {
        self.index_of(id).map(|i| &self.rob[i])
    }

    /// The wakeup list of in-flight entry `id`: `(consumer, source slot)`
    /// for every operand renamed to it while it was incomplete, in
    /// dispatch order (ascending consumer id; squashed consumers stay
    /// listed). Empty once the entry completes.
    pub fn waiters_of(&self, id: RobId) -> &[(RobId, u8)] {
        self.entry(id).map_or(&[], |e| &e.waiters)
    }

    /// Iterate the ROB from oldest to youngest.
    pub fn rob_iter(&self) -> impl Iterator<Item = &RobEntry> {
        let head = self.head_slot();
        (head..head + self.rob_len).map(|i| &self.rob[i & self.slot_mask])
    }

    /// The oldest in-flight entry.
    fn head(&self) -> Option<&RobEntry> {
        (self.rob_len > 0).then(|| &self.rob[self.head_slot()])
    }

    /// Current ROB occupancy.
    pub fn rob_len(&self) -> usize {
        self.rob_len
    }

    /// The window is completely full.
    pub fn rob_full(&self) -> bool {
        self.rob_len >= self.cfg.rob_entries
    }

    /// If the core is in a full-window stall whose head is an outstanding
    /// LLC-miss load, return the head's id (the EMC trigger, §4.2).
    ///
    /// "Full window" means dispatch is blocked by any window resource —
    /// ROB, reservation stations, or LSQ — while an LLC miss blocks
    /// retirement. Dependence-heavy code (mcf-style chains) fills the
    /// 92-entry RS with waiting uops long before the 256-entry ROB.
    pub fn full_window_stall(&self) -> Option<RobId> {
        let blocked = self.rob_full()
            || self.waiting_count >= self.cfg.rs_entries
            || self.mem_ops_in_rob() >= self.cfg.lsq_entries;
        if !blocked {
            return None;
        }
        let head = self.head()?;
        (head.uop.kind == UopKind::Load && head.llc_miss && head.state != EntryState::Done)
            .then_some(head.id)
    }

    /// The `(start, end)` of a full-window stall episode that ended this
    /// cycle, if any — consumed by the tracing layer to emit one span
    /// per episode. At most one episode can end per tick, so a one-slot
    /// mailbox is lossless when polled every cycle.
    pub fn take_finished_stall(&mut self) -> Option<(Cycle, Cycle)> {
        self.finished_stall.take()
    }

    /// Whether the core is currently in a runahead episode.
    pub fn in_runahead(&self) -> bool {
        self.runahead.is_some()
    }

    /// Enter runahead mode at the blocking head miss `source`: checkpoint
    /// the architectural state, invalidate the miss's destination, and
    /// keep (pseudo-)executing to prefetch independent misses.
    fn enter_runahead(&mut self, source: RobId, now: Cycle) {
        debug_assert!(self.runahead.is_none());
        let Some(idx) = self.index_of(source) else {
            return;
        };
        self.runahead = Some(Runahead {
            source_rob: source,
            resume_idx: self.rob[idx].prog_idx,
            checkpoint: self.committed,
        });
        self.stats.runahead_entries += 1;
        // Pseudo-complete the blocking load with an INV result so the
        // window can drain past it.
        let e = &mut self.rob[idx];
        if e.state == EntryState::Issued {
            e.inv = true;
            e.result = 0;
            self.finish_entry(idx, now);
        }
    }

    /// The blocking miss returned: throw away all runahead state and
    /// resume from the checkpoint. In-flight runahead memory requests
    /// keep filling the caches (the prefetch benefit).
    fn exit_runahead(&mut self, now: Cycle) {
        let ra = self.runahead.take().expect("in runahead");
        let head = self.head_slot();
        for i in head..head + self.rob_len {
            let e = &mut self.rob[i & self.slot_mask];
            recycle(&mut self.waiter_pool, std::mem::take(&mut e.waiters));
        }
        self.rob_len = 0;
        self.ready.0.clear();
        self.completing.0.clear();
        self.unresolved_stores.0.clear();
        self.store_ids.0.clear();
        self.waiting_count = 0;
        self.mem_inflight = 0;
        self.rename = [None; NUM_ARCH_REGS];
        self.committed = ra.checkpoint;
        self.committed_inv = [false; NUM_ARCH_REGS];
        self.fetch_idx = ra.resume_idx;
        self.program_done = false;
        self.fetch_resume_at = now + self.cfg.mispredict_penalty;
    }

    /// Mark a load that merged onto an already-outstanding miss: it
    /// experiences the miss latency (and carries miss taint for
    /// dependence tracking) but is not a distinct LLC miss for MPKI or
    /// dependent-miss statistics.
    pub fn mark_llc_miss_merged(&mut self, id: RobId) {
        self.asleep_until = 0;
        if let Some(idx) = self.index_of(id) {
            self.rob[idx].llc_miss = true;
        }
    }

    /// Mark a load as having missed the LLC (called by the simulator as
    /// soon as the miss is known, always before completion).
    pub fn mark_llc_miss(&mut self, id: RobId) {
        self.asleep_until = 0;
        let Some(idx) = self.index_of(id) else { return };
        let e = &mut self.rob[idx];
        e.llc_miss = true;
        let tainted = e.srcs.iter().filter(|s| s.taint);
        if let Some(depth) = tainted.map(|s| s.depth).max() {
            self.stats.dependent_llc_misses += 1;
            self.stats.dep_chain_pairs += 1;
            self.stats.dep_chain_uop_sum += depth as u64;
        }
    }

    /// Mark a load whose line has reached the chip from memory (called
    /// by the simulator at the memory controller's completion). Ignored
    /// if the load was flushed.
    pub fn mark_on_chip(&mut self, id: RobId) {
        if let Some(idx) = self.index_of(id) {
            self.rob[idx].on_chip = true;
        }
    }

    /// Record that this load's (would-be dependent) miss was covered by a
    /// prefetched line (Figure 3 / 21 accounting, called by the sim).
    pub fn note_dependent_covered_by_prefetch(&mut self, id: RobId) {
        if self.load_is_dependent(id) {
            self.stats.dependent_misses_prefetched += 1;
        }
    }

    /// Whether this load is data-dependent on an in-flight LLC miss.
    pub fn load_is_dependent(&self, id: RobId) -> bool {
        self.entry(id)
            .is_some_and(|e| e.srcs.iter().any(|s| s.taint))
    }

    /// Complete an outstanding load issued to the memory system. Ignored
    /// if the load was flushed (the memory request outlives the squash).
    pub fn complete_load(&mut self, id: RobId, now: Cycle) {
        self.asleep_until = 0;
        if self.runahead.as_ref().is_some_and(|ra| ra.source_rob == id) {
            self.exit_runahead(now);
            return;
        }
        let Some(idx) = self.index_of(id) else { return };
        let e = &mut self.rob[idx];
        if e.uop.kind != UopKind::Load {
            return;
        }
        if std::mem::take(&mut e.mem_pending) {
            self.mem_inflight = self.mem_inflight.saturating_sub(1);
        }
        // Otherwise already completed (e.g. remotely by the EMC), and
        // releasing the slot was all there was to do.
        if e.state == EntryState::Issued {
            self.finish_entry(idx, now);
        }
    }

    // ------------------------------------------------------------------
    // Remote (EMC) execution interface
    // ------------------------------------------------------------------

    /// Mark chain entries as executing remotely at the EMC: the local
    /// scheduler will not issue them.
    pub fn mark_remote(&mut self, ids: impl IntoIterator<Item = RobId>) {
        self.asleep_until = 0;
        for id in ids {
            self.ready.remove(id);
            if let Some(idx) = self.index_of(id) {
                self.rob[idx].remote = true;
            }
        }
    }

    /// Abort remote execution (EMC TLB miss, branch misprediction inside
    /// the chain, disambiguation conflict): entries return to normal
    /// scheduling and re-execute locally.
    pub fn unmark_remote(&mut self, ids: impl IntoIterator<Item = RobId>) {
        self.asleep_until = 0;
        for id in ids {
            let Some(idx) = self.index_of(id) else {
                continue;
            };
            let e = &mut self.rob[idx];
            if !e.remote {
                continue;
            }
            e.remote = false;
            if e.state == EntryState::Waiting && e.srcs.iter().all(|s| s.ready()) {
                self.ready.insert(id);
            }
        }
    }

    /// Complete a chain uop executed at the EMC: the returned physical
    /// register value is broadcast on the core's CDB (§4.3: "Physical
    /// register tags are broadcast on the home core CDB"). For stores,
    /// pass the EMC-computed address and data so retirement can commit
    /// them in program order.
    pub fn complete_remote(
        &mut self,
        id: RobId,
        result: u64,
        store: Option<(Addr, u64)>,
        now: Cycle,
    ) {
        self.asleep_until = 0;
        let Some(idx) = self.index_of(id) else { return };
        let e = &mut self.rob[idx];
        if e.state == EntryState::Done {
            return;
        }
        // Note: the entry may have been unmarked by a racing chain
        // abort and even begun local execution; the remote value is
        // functionally identical, so completing it early is safe.
        if e.state == EntryState::Waiting {
            self.waiting_count = self.waiting_count.saturating_sub(1);
        }
        e.state = EntryState::Issued;
        e.result = result;
        if e.uop.kind == UopKind::Load {
            e.addr = Some(Addr(result)); // informational; value is `result`
        }
        if let Some((addr, value)) = store {
            e.addr = Some(addr);
            e.store_value = Some(value);
            self.unresolved_stores.remove(id);
        }
        // It may sit in the ready set after an abort re-enabled it.
        self.ready.remove(id);
        self.finish_entry(idx, now);
    }

    // ------------------------------------------------------------------
    // Pipeline
    // ------------------------------------------------------------------

    /// Advance one cycle. Emits memory-system events into `events`.
    pub fn tick(&mut self, now: Cycle, events: &mut Vec<CoreEvent>) {
        if self.finished_at.is_some() {
            return;
        }
        self.stats.cycles = now;
        if now < self.asleep_until {
            self.stats.full_window_stall_cycles += u64::from(self.stall_since.is_some());
            return;
        }
        // Cheap signs of a tick that moved something.
        let signs = |c: &Core| (c.rob_len, c.next_id, c.ready.0.len(), c.completing.0.len());
        let before = signs(self);
        let stall_head = self.full_window_stall();
        if stall_head.is_some() {
            self.stats.full_window_stall_cycles += 1;
            // Episode tracking: one histogram sample (and one trace
            // span, via take_finished_stall) per contiguous stall.
            if self.stall_since.is_none() {
                self.stall_since = Some(now);
            }
        } else if let Some(start) = self.stall_since.take() {
            self.stats.stall_episodes.record(now - start);
            self.finished_stall = Some((start, now));
        }
        if self.cfg.runahead && self.runahead.is_none() {
            if let Some(h) = stall_head {
                self.enter_runahead(h, now);
            }
        }
        self.retire(now, events);
        self.drain_completions(now);
        self.issue(now, events);
        self.dispatch(now);
        if self.program_done
            && self.rob_len == 0
            && self.finished_at.is_none()
            && self.runahead.is_none()
        {
            self.finished_at = Some(now);
        }
        // Nothing moved and nothing is executing: likely nothing will
        // until a load comes back. (With uops in flight the wait is a
        // few cycles, and asking costs more than ticking through it.)
        if signs(self) == before && self.completing.0.is_empty() {
            self.asleep_until = self.inert_until(now + 1).unwrap_or(0);
        }
    }

    /// If [`tick`](Core::tick) at `now` would change nothing but the
    /// cycle and stall counters, the first cycle at which that may stop
    /// being so without a call from outside (`Cycle::MAX`: never). The
    /// core is then waiting for a load or a remote result, and the owner
    /// may leave the ticks in between out and
    /// [`credit_stall`](Core::credit_stall) them.
    pub fn inert_until(&self, now: Cycle) -> Option<Cycle> {
        if self.finished_at.is_some() {
            return Some(Cycle::MAX);
        }
        if now < self.asleep_until {
            return Some(self.asleep_until);
        }
        // Retire: the head is not done, and an empty window is not the
        // end of the program. (The cheap ways out come first: a busy
        // core takes one of them.)
        match self.head() {
            Some(head) if head.state == EntryState::Done => return None,
            None if self.program_done => return None,
            _ => {}
        }
        let mut until = Cycle::MAX;
        if let Some((t, _)) = self.completing.first() {
            if t <= now {
                return None;
            }
            until = t;
        }
        // The stall bookkeeping is settled and no episode is about to
        // open or close; runahead never sits still, and a stall is
        // where it starts.
        let stalled = self.full_window_stall().is_some();
        if stalled != self.stall_since.is_some()
            || self.runahead.is_some()
            || (stalled && self.cfg.runahead)
        {
            return None;
        }
        // Issue: every ready uop is a load held behind an older store's
        // address, up to the load that waits for an older store's data.
        let oldest_unresolved = self.unresolved_stores.first();
        for &id in &self.ready.0 {
            let e = self.entry(id)?;
            if e.uop.kind == UopKind::Load && oldest_unresolved.is_some_and(|s| s < id) {
                continue;
            }
            let waits_for_data = self.data_wait.is_some_and(|(load, store)| {
                load == id && self.entry(store).is_some_and(|s| s.store_value.is_none())
            });
            if !waits_for_data {
                return None;
            }
            break;
        }
        // Dispatch: redirect penalty running, or the window has no room
        // for the next uop.
        if !self.program_done {
            if now < self.fetch_resume_at {
                until = until.min(self.fetch_resume_at);
            } else {
                let uop = self.program.uops.get(self.fetch_idx)?;
                let room = self.rob_len < self.cfg.rob_entries
                    && self.waiting_count < self.cfg.rs_entries
                    && !(uop.kind.is_mem() && self.mem_ops_in_rob() >= self.cfg.lsq_entries);
                if room {
                    return None;
                }
            }
        }
        Some(until)
    }

    /// The first cycle from `now` at which [`tick`](Core::tick) does more
    /// than count: the end of the sleep the core fell into when it found
    /// itself inert (nothing has called on it since), `now` while awake,
    /// `Cycle::MAX` once the program has finished.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        match self.finished_at {
            Some(_) => Cycle::MAX,
            None => self.asleep_until.max(now),
        }
    }

    /// Account for `n` ticks left out while [`inert_until`](Core::inert_until)
    /// held: what they would have counted, and nothing else.
    pub fn credit_stall(&mut self, n: u64) {
        if self.finished_at.is_some() {
            return;
        }
        self.stats.cycles += n;
        if self.stall_since.is_some() {
            self.stats.full_window_stall_cycles += n;
        }
    }

    fn retire(&mut self, now: Cycle, events: &mut Vec<CoreEvent>) {
        let in_runahead = self.runahead.is_some();
        for _ in 0..self.cfg.retire_width {
            if self.rob_len == 0 {
                break;
            }
            let slot = self.head_slot();
            let head = &mut self.rob[slot];
            // Runahead never waits at a miss: an issued-but-incomplete
            // load at the head pseudo-completes with an INV result.
            if in_runahead
                && head.uop.kind == UopKind::Load
                && head.state == EntryState::Issued
                && head.mem_pending
            {
                head.inv = true;
                head.result = 0;
                self.finish_entry(slot, now);
            }
            if self.rob[slot].state != EntryState::Done {
                break;
            }
            // The entry stays in its slot; it is out of the live range.
            self.rob_len -= 1;
            let e = &self.rob[slot];
            if e.uop.kind == UopKind::Store {
                self.store_ids.0.remove(0);
            }
            if let Some(dst) = e.uop.dst {
                self.committed[dst.idx()] = e.result;
                self.committed_inv[dst.idx()] = in_runahead && e.inv;
                if self.rename[dst.idx()] == Some(e.id) {
                    self.rename[dst.idx()] = None;
                }
            }
            if in_runahead {
                // Pseudo-retirement: the register state advanced above is
                // restored at exit; never touch memory, count separately.
                self.stats.runahead_uops += 1;
                continue;
            }
            self.stats.retired_uops += 1;
            self.last_retired_at = now;
            match e.uop.kind {
                UopKind::Load => self.stats.retired_loads += 1,
                UopKind::Store => {
                    self.stats.retired_stores += 1;
                    let addr = e.addr.expect("retired store has address");
                    let value = e.store_value.expect("retired store has data");
                    self.mem.write_u64(addr, value);
                    events.push(CoreEvent::StoreRetired { addr });
                }
                UopKind::Branch(_) => self.stats.retired_branches += 1,
                _ => {}
            }
        }
    }

    fn drain_completions(&mut self, now: Cycle) {
        while let Some((t, id)) = self.completing.first() {
            if t > now {
                break;
            }
            self.completing.0.remove(0);
            // The entry may have been flushed, or finished remotely.
            if let Some(idx) = self.index_of(id) {
                let e = &self.rob[idx];
                if e.state == EntryState::Issued && e.uop.kind != UopKind::Load {
                    self.finish_entry(idx, now);
                }
            }
        }
    }

    /// Transition the Issued entry at `idx` to Done and wake its
    /// consumers.
    fn finish_entry(&mut self, idx: usize, now: Cycle) {
        let e = &mut self.rob[idx];
        debug_assert_eq!(e.state, EntryState::Issued);
        e.state = EntryState::Done;
        match e.uop.kind {
            UopKind::Load => {
                e.tainted = e.llc_miss;
                e.chain_depth = 0;
                // e.inv stays as set (runahead INV loads).
            }
            UopKind::Store | UopKind::Branch(_) => {
                e.tainted = false;
                e.chain_depth = 0;
            }
            _ => {
                // ALU: taint/depth were computed at issue.
            }
        }
        let (id, result, taint, depth, inv) = (e.id, e.result, e.tainted, e.chain_depth, e.inv);
        let waiters = std::mem::take(&mut e.waiters);
        for &(consumer, slot) in &waiters {
            // Squashed consumers stay on the list and miss here.
            let Some(ci) = self.index_of(consumer) else {
                continue;
            };
            let c = &mut self.rob[ci];
            let s = &mut c.srcs[slot as usize];
            if s.producer != Some(id) || s.value.is_some() {
                continue;
            }
            s.value = Some(result);
            s.taint = taint;
            s.depth = depth;
            s.inv = inv;
            if c.state == EntryState::Waiting && !c.remote {
                let ready = if c.uop.kind == UopKind::Store {
                    c.srcs[0].ready()
                } else {
                    c.srcs.iter().all(|s| s.ready())
                };
                if ready {
                    self.ready.insert(consumer);
                }
            } else if c.uop.kind == UopKind::Store
                && c.state == EntryState::Issued
                && slot == 1
                && c.store_value.is_none()
            {
                // Split store: address already resolved, data just
                // arrived.
                c.store_value = Some(result);
                self.completing.insert((now + 1, consumer));
            }
        }
        recycle(&mut self.waiter_pool, waiters);
    }

    fn issue(&mut self, now: Cycle, events: &mut Vec<CoreEvent>) {
        let mut issued = 0;
        // Loads held behind an older unresolved store stay ready for next
        // cycle; `held` counts them at the front of the queue. Everything
        // an issue inserts or squashes is younger than the uop issuing,
        // so the queue only changes at or after position `held`.
        let mut held = 0;
        while issued < self.cfg.issue_width {
            let Some(&id) = self.ready.0.get(held) else {
                break;
            };
            let Some(idx) = self.index_of(id) else {
                self.ready.0.remove(held);
                continue;
            };
            debug_assert_eq!(self.rob[idx].state, EntryState::Waiting);
            let kind = self.rob[idx].uop.kind;
            // Memory ordering: wait for all older stores' addresses.
            if kind == UopKind::Load && self.unresolved_stores.first().is_some_and(|s| s < id) {
                held += 1;
                continue;
            }
            // A load waiting for an older store's data spends its issue
            // slot and is at once the oldest ready uop again: it takes
            // every slot left this cycle (DESIGN.md §5, "Known modelling
            // deviations"). While that store still has no data, skip
            // finding it again.
            if let Some((_, store)) = self.data_wait.filter(|w| w.0 == id) {
                if self.entry(store).is_some_and(|s| s.store_value.is_none()) {
                    break;
                }
            }
            self.ready.0.remove(held);
            issued += 1;
            self.waiting_count -= 1;
            match kind {
                UopKind::Load => self.issue_load(idx, now, events),
                UopKind::Store => self.issue_store(idx, now),
                UopKind::Branch(_) => self.issue_branch(idx, now),
                _ => self.issue_alu(idx, now),
            }
        }
    }

    fn issue_alu(&mut self, idx: usize, now: Cycle) {
        let e = &mut self.rob[idx];
        e.state = EntryState::Issued;
        let a = e.srcs[0].value.expect("ready");
        let b = e.srcs[1].value.expect("ready");
        let (ra, rb) = resolve_operands(&e.uop, a, b);
        e.result = e.uop.kind.alu(ra, rb);
        e.tainted = e.srcs.iter().any(|s| s.taint);
        e.inv = e.srcs.iter().any(|s| s.inv);
        e.chain_depth = e
            .srcs
            .iter()
            .filter(|s| s.taint)
            .map(|s| s.depth)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let done = now + e.uop.kind.exec_latency();
        self.completing.insert((done, e.id));
    }

    fn issue_store(&mut self, idx: usize, now: Cycle) {
        let e = &mut self.rob[idx];
        e.state = EntryState::Issued;
        let base = e.srcs[0].value.expect("address operand ready");
        e.addr = Some(e.uop.effective_address(base));
        e.inv = e.srcs.iter().any(|s| s.inv);
        e.store_value = e.srcs[1].value;
        // The address is resolved: younger loads may now disambiguate.
        self.unresolved_stores.remove(e.id);
        // Without its data the store completes when the operand arrives
        // (see finish_entry's wakeup path).
        if e.store_value.is_some() {
            self.completing.insert((now + 1, e.id));
        }
    }

    fn issue_branch(&mut self, idx: usize, now: Cycle) {
        let e = &mut self.rob[idx];
        e.state = EntryState::Issued;
        let v = e.srcs[0].value.expect("ready");
        let UopKind::Branch(cond) = e.uop.kind else {
            unreachable!("issue_branch on non-branch")
        };
        let taken = if e.srcs[0].inv {
            // Runahead: a branch on an INV value cannot be resolved;
            // follow the prediction.
            e.predicted_taken
        } else {
            StaticUop::branch_taken(cond, v)
        };
        e.result = u64::from(taken);
        let (id, predicted, pc) = (e.id, e.predicted_taken, e.pc);
        let redirect = if taken {
            e.uop.target.expect("branch has target") as usize
        } else {
            e.prog_idx + 1
        };
        self.bpred
            .resolve(pc, e.bp.expect("branch has checkpoint"), taken);
        if taken != predicted {
            self.stats.branch_mispredicts += 1;
            self.flush_younger_than(id);
            self.fetch_idx = redirect;
            self.program_done = false;
            self.fetch_resume_at = now + self.cfg.mispredict_penalty;
        }
        self.completing.insert((now + 1, id));
    }

    fn issue_load(&mut self, idx: usize, now: Cycle, events: &mut Vec<CoreEvent>) {
        let e = &self.rob[idx];
        let (id, pc) = (e.id, e.pc);
        let base = e.srcs[0];
        let addr = e.uop.effective_address(base.value.expect("ready"));
        // Store-to-load forwarding: youngest older store to the same
        // address wins.
        let mut forwarded: Option<u64> = None;
        for &sid in self.store_ids.0.iter().rev() {
            if sid >= id {
                continue;
            }
            let Some(s) = self.entry(sid) else { continue };
            if s.addr == Some(addr) {
                forwarded = s.store_value;
                if forwarded.is_none() {
                    // Matching older store whose data is not yet known:
                    // the load must wait, and the issue slot is spent
                    // (DESIGN.md §5, "Known modelling deviations").
                    self.ready.insert(id);
                    self.waiting_count += 1;
                    self.data_wait = Some((id, sid));
                    return;
                }
                break;
            }
        }
        let mem_value = self.mem.read_u64(addr);
        let e = &mut self.rob[idx];
        e.state = EntryState::Issued;
        e.addr = Some(addr);
        if base.inv {
            // Runahead: a load whose address descends from the INV miss
            // has no meaningful address — drop it (no memory request).
            e.inv = true;
            e.result = 0;
            self.finish_entry(idx, now);
        } else if let Some(v) = forwarded {
            // Forwarded loads complete within the issue cycle (LSQ
            // bypass).
            e.result = v;
            e.forwarded = true;
            self.finish_entry(idx, now);
        } else {
            e.result = mem_value;
            e.mem_pending = true;
            self.mem_inflight += 1;
            if self.runahead.is_some() {
                self.stats.runahead_requests += 1;
            }
            events.push(CoreEvent::LoadIssued { rob: id, addr, pc });
        }
    }

    /// Squash every entry younger than `id`, which stays in the window.
    fn flush_younger_than(&mut self, id: RobId) {
        let head_id = self.head().expect("the flushing branch is in flight").id;
        let mut squashed = 0;
        // Youngest first, so that each register ends at the mapping its
        // oldest squashed writer renamed over. That mapping names an
        // older entry, in flight still or retired since (then `None`).
        while squashed < self.rob_len {
            let slot = self.slot(self.next_id.wrapping_sub(1 + squashed as u64));
            let e = &mut self.rob[slot];
            if e.id <= id {
                break;
            }
            squashed += 1;
            if e.state == EntryState::Waiting {
                self.waiting_count -= 1;
            }
            if e.mem_pending {
                self.mem_inflight = self.mem_inflight.saturating_sub(1);
            }
            if let Some(d) = e.uop.dst {
                self.rename[d.idx()] = e.renamed_over.filter(|&p| p >= head_id);
            }
            recycle(&mut self.waiter_pool, std::mem::take(&mut e.waiters));
        }
        self.rob_len -= squashed;
        // Skip the counter forward to the next id whose slot is the one
        // after `id`'s: ids stay unique and increasing.
        self.next_id += (squashed as u64).wrapping_neg() & self.slot_mask as u64;
        self.ready.truncate_above(id);
        self.unresolved_stores.truncate_above(id);
        self.store_ids.truncate_above(id);
    }

    fn dispatch(&mut self, now: Cycle) {
        if now < self.fetch_resume_at || self.program_done {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_idx >= self.program.uops.len() {
                self.program_done = true;
                break;
            }
            if self.rob_len >= self.cfg.rob_entries || self.waiting_count >= self.cfg.rs_entries {
                break;
            }
            let uop = self.program.uops[self.fetch_idx];
            if uop.kind.is_mem() && self.mem_ops_in_rob() >= self.cfg.lsq_entries {
                break;
            }
            let prog_idx = self.fetch_idx;
            let pc = self.program.pc_of(prog_idx);
            let id = self.next_id;

            // Branch prediction steers fetch.
            let (bp, predicted_taken) = if uop.kind.is_branch() {
                let info = self.bpred.predict(pc);
                let taken = match uop.kind {
                    UopKind::Branch(emc_types::BranchCond::Always) => true,
                    _ => info.taken,
                };
                self.fetch_idx = if taken {
                    uop.target.expect("branch has target") as usize
                } else {
                    prog_idx + 1
                };
                (Some(info), taken)
            } else {
                self.fetch_idx = prog_idx + 1;
                (None, false)
            };

            // Rename: capture operands, or join the producer's wakeup
            // list.
            let mut srcs = [SrcOp::absent(), SrcOp::absent()];
            for (i, src) in uop.srcs.iter().enumerate() {
                let Some(r) = src else { continue };
                srcs[i] = match self.rename[r.idx()] {
                    None => SrcOp {
                        value: Some(self.committed[r.idx()]),
                        inv: self.committed_inv[r.idx()],
                        ..SrcOp::absent()
                    },
                    Some(pid) => {
                        let pi = self.index_of(pid).expect("renamed producer in ROB");
                        let p = &mut self.rob[pi];
                        if p.state == EntryState::Done {
                            SrcOp {
                                value: Some(p.result),
                                producer: Some(pid),
                                taint: p.tainted,
                                depth: p.chain_depth,
                                inv: p.inv,
                            }
                        } else {
                            if p.waiters.capacity() == 0 {
                                p.waiters = self.waiter_pool.pop().unwrap_or_default();
                            }
                            p.waiters.push((id, i as u8));
                            SrcOp {
                                value: None,
                                producer: Some(pid),
                                ..SrcOp::absent()
                            }
                        }
                    }
                };
            }
            let renamed_over = uop.dst.and_then(|d| self.rename[d.idx()].replace(id));
            // Stores issue (resolve their address) as soon as the address
            // operand is ready; data may arrive later (split
            // store-address / store-data uops).
            let is_store = uop.kind == UopKind::Store;
            let all_ready = srcs[0].ready() && (is_store || srcs[1].ready());
            let entry = RobEntry {
                id,
                prog_idx,
                uop,
                pc,
                state: EntryState::Waiting,
                srcs,
                result: 0,
                addr: None,
                store_value: None,
                remote: false,
                llc_miss: false,
                on_chip: false,
                tainted: false,
                chain_depth: 0,
                waiters: Vec::new(),
                bp,
                predicted_taken,
                forwarded: false,
                mem_pending: false,
                inv: false,
                renamed_over,
            };
            // The slot after the youngest live entry: one filled before,
            // or the first not yet filled.
            let slot = self.slot(id);
            if slot < self.rob.len() {
                self.rob[slot] = entry;
            } else {
                debug_assert_eq!(slot, self.rob.len());
                self.rob.push(entry);
            }
            self.next_id += 1;
            self.rob_len += 1;
            self.waiting_count += 1;
            if is_store {
                self.store_ids.insert(id);
                self.unresolved_stores.insert(id);
            }
            if all_ready {
                self.ready.insert(id);
            }
        }
    }

    fn mem_ops_in_rob(&self) -> usize {
        self.mem_inflight + self.store_ids.0.len()
    }
}

/// Resolve ALU operand selection (Mov immediate special case) given the
/// two captured source values.
fn resolve_operands(uop: &StaticUop, a: u64, b: u64) -> (u64, u64) {
    match uop.kind {
        UopKind::Mov => {
            if uop.srcs[0].is_some() {
                (a, 0)
            } else {
                (uop.imm, 0)
            }
        }
        UopKind::Not | UopKind::SignExtend => (a, 0),
        _ => {
            if uop.srcs[1].is_some() {
                (a, b)
            } else {
                (a, uop.imm)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::program::{run_reference, Program};
    use emc_types::rng::{seeded_rng, SmallRng};
    use emc_types::{BranchCond, Reg};

    /// Drive a core to completion with a fixed memory latency, answering
    /// loads after `mem_lat` cycles.
    fn run_core(program: Program, mem: MemoryImage, mem_lat: u64, max_cycles: u64) -> Core {
        let mut core = Core::new(&CoreConfig::default(), Arc::new(program), mem);
        let mut events = Vec::new();
        let mut pending: Vec<(Cycle, RobId)> = Vec::new();
        for now in 0..max_cycles {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    pending.push((now + mem_lat, rob));
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
                break;
            }
        }
        core
    }

    fn check_against_reference(program: Program, mem: MemoryImage, mem_lat: u64) -> Core {
        let mut ref_mem = mem.clone();
        let expect = run_reference(&program, &mut ref_mem, 10_000_000);
        assert!(!expect.capped);
        let core = run_core(program, mem, mem_lat, 10_000_000);
        assert!(core.finished_at().is_some(), "core did not finish");
        assert_eq!(
            core.committed_regs(),
            &expect.regs,
            "architectural mismatch"
        );
        core
    }

    #[test]
    fn straight_line_alu() {
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 7),
                StaticUop::alu(UopKind::IntAdd, Reg(1), Reg(0), None, 35),
                StaticUop::alu(UopKind::Shl, Reg(2), Reg(1), None, 1),
            ],
            0x1000,
        );
        let core = check_against_reference(p, MemoryImage::new(), 10);
        assert_eq!(core.committed_regs()[2], 84);
        assert_eq!(core.stats.retired_uops, 3);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x2000),
                StaticUop::mov_imm(Reg(1), 99),
                StaticUop::store(Reg(0), Reg(1), 0),
                StaticUop::load(Reg(2), Reg(0), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(2), None, 1),
            ],
            0x1000,
        );
        let core = check_against_reference(p, MemoryImage::new(), 50);
        assert_eq!(core.committed_regs()[3], 100);
        assert_eq!(core.stats.retired_stores, 1);
        assert_eq!(core.stats.retired_loads, 1);
        assert_eq!(core.mem.read_u64(Addr(0x2000)), 99);
    }

    #[test]
    fn store_forwarding_supplies_value() {
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x3000),
                StaticUop::mov_imm(Reg(1), 42),
                StaticUop::store(Reg(0), Reg(1), 8),
                StaticUop::load(Reg(2), Reg(0), 8),
            ],
            0,
        );
        // Forwarded loads never go to memory: finish even with absurd
        // memory latency.
        let core = run_core(p, MemoryImage::new(), 1_000_000, 100_000);
        assert!(core.finished_at().is_some());
        assert_eq!(core.committed_regs()[2], 42);
    }

    #[test]
    fn loop_with_predictable_branch() {
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 100),
                StaticUop::alu(UopKind::IntSub, Reg(0), Reg(0), None, 1),
                StaticUop::alu(UopKind::IntAdd, Reg(1), Reg(1), None, 2),
                StaticUop::branch(BranchCond::NotZero, Some(Reg(0)), 1),
            ],
            0x4000,
        );
        let core = check_against_reference(p, MemoryImage::new(), 10);
        assert_eq!(core.committed_regs()[1], 200);
        assert!(
            core.stats.branch_mispredicts <= 5,
            "loop branch should be learned: {} mispredicts",
            core.stats.branch_mispredicts
        );
    }

    #[test]
    fn pointer_chase_matches_reference() {
        let mut mem = MemoryImage::new();
        // A 4-node cycle.
        let nodes = [0x1000u64, 0x5000, 0x9000, 0xd000];
        for i in 0..4 {
            mem.write_u64(Addr(nodes[i]), nodes[(i + 1) % 4]);
            mem.write_u64(Addr(nodes[i] + 8), 0x1_0000 + i as u64 * 64);
        }
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x1000),
                StaticUop::mov_imm(Reg(15), 12),
                // loop:
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::load(Reg(2), Reg(0), 8),
                StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(2), None, 0x18),
                StaticUop::load(Reg(4), Reg(3), 0),
                StaticUop::mov(Reg(0), Reg(1)),
                StaticUop::alu(UopKind::IntSub, Reg(15), Reg(15), None, 1),
                StaticUop::branch(BranchCond::NotZero, Some(Reg(15)), 2),
            ],
            0x8000,
        );
        let core = check_against_reference(p, mem, 200);
        assert_eq!(
            core.committed_regs()[0],
            0x1000,
            "12 steps returns to start"
        );
    }

    #[test]
    fn wrong_path_execution_is_squashed() {
        // Branch on a loaded value: predicted not-taken path writes r2;
        // actual taken path skips it. Final r2 must be 0.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0); // brz taken
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::branch(BranchCond::Zero, Some(Reg(1)), 4),
                StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(2), None, 77),
                StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(3), None, 1),
            ],
            0x2000,
        );
        let core = check_against_reference(p, mem.clone(), 100);
        assert_eq!(core.committed_regs()[2], 0, "wrong-path write must squash");
        assert_eq!(core.committed_regs()[3], 1);
    }

    #[test]
    fn squashed_load_completing_into_a_reused_slot_changes_nothing() {
        // The branch is taken but predicted not taken: the wrong-path
        // load right behind it issues, is squashed, and the first load
        // of the right path is dispatched into its slot.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 11);
        mem.write_u64(Addr(0x108), 22);
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::mov_imm(Reg(3), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(3), None, 1),
                StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(3), None, 1),
                StaticUop::branch(BranchCond::NotZero, Some(Reg(3)), 8),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(4), Reg(1), None, 1),
                StaticUop::branch(BranchCond::Always, None, 9),
                StaticUop::load(Reg(2), Reg(0), 8),
                StaticUop::alu(UopKind::IntAdd, Reg(5), Reg(5), None, 1),
            ],
            0,
        );
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut loads = Vec::new();
        let mut now = 0;
        while loads.len() < 2 {
            assert!(now < 100, "both loads issue");
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    loads.push(rob);
                }
            }
            now += 1;
        }
        let (squashed, reused) = (loads[0], loads[1]);
        assert_eq!(core.stats.branch_mispredicts, 1);
        assert!(core.entry(squashed).is_none());
        assert!(reused > squashed && core.slot(reused) == core.slot(squashed));
        let before = window_state(&core);
        core.complete_load(squashed, now);
        core.mark_llc_miss(squashed);
        core.mark_on_chip(squashed);
        assert_eq!(window_state(&core), before);
        let e = core
            .entry(reused)
            .expect("the right-path load is in flight");
        assert!(e.mem_pending && !e.llc_miss && !e.on_chip);
        core.complete_load(reused, now);
        for now in now..now + 20 {
            core.tick(now, &mut events);
        }
        assert!(core.finished_at().is_some());
        let regs = core.committed_regs();
        assert_eq!((regs[1], regs[2], regs[4]), (0, 22, 0));
    }

    #[test]
    fn full_window_stall_detected_on_miss_at_head() {
        // A load at the head with a huge latency plus enough filler to
        // fill the 256-entry ROB.
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
        ];
        for _ in 0..300 {
            uops.push(StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(2), None, 1));
        }
        let p = Program::new(uops, 0);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), MemoryImage::new());
        let mut events = Vec::new();
        let mut load_id = None;
        for now in 0..2000 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    load_id = Some(rob);
                    core.mark_llc_miss(rob);
                }
            }
        }
        assert!(core.rob_full());
        assert_eq!(core.full_window_stall(), load_id);
        assert!(core.stats.full_window_stall_cycles > 0);
        // Resolving the load releases the stall.
        core.complete_load(load_id.unwrap(), 2000);
        let mut events = Vec::new();
        core.tick(2001, &mut events);
        assert!(core.full_window_stall().is_none());
    }

    #[test]
    fn stall_episodes_recorded_once_per_contiguous_stall() {
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
        ];
        for _ in 0..300 {
            uops.push(StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(2), None, 1));
        }
        let p = Program::new(uops, 0);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), MemoryImage::new());
        let mut events = Vec::new();
        let mut load_id = None;
        for now in 0..2000 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    load_id = Some(rob);
                    core.mark_llc_miss(rob);
                }
            }
            assert_eq!(
                core.take_finished_stall(),
                None,
                "no episode ends while the stall persists"
            );
        }
        assert_eq!(core.stats.stall_episodes.count, 0, "episode still open");
        core.complete_load(load_id.unwrap(), 2000);
        for now in 2000..2100 {
            core.tick(now, &mut events);
            events.clear();
        }
        assert_eq!(
            core.stats.stall_episodes.count, 1,
            "one contiguous stall = one histogram sample"
        );
        let (start, end) = core
            .take_finished_stall()
            .expect("the finished episode is handed to the tracer once");
        assert!(end > start);
        assert_eq!(core.stats.stall_episodes.max, end - start);
        assert_eq!(
            core.stats.stall_episodes.sum, core.stats.full_window_stall_cycles,
            "episode cycles and per-cycle counter agree"
        );
        assert_eq!(core.take_finished_stall(), None, "mailbox is consumed");
    }

    #[test]
    fn dependent_miss_tracking() {
        // ld r1 <- [r0]; add r2 = r1 + 8; ld r3 <- [r2]: if both loads
        // miss, the second is a dependent miss at depth 1.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x4000);
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 8),
                StaticUop::load(Reg(3), Reg(2), 0),
            ],
            0,
        );
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut pending: Vec<(Cycle, RobId)> = Vec::new();
        for now in 0..5000 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    core.mark_llc_miss(rob); // everything misses
                    pending.push((now + 200, rob));
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
                break;
            }
        }
        assert!(core.finished_at().is_some());
        assert_eq!(core.stats.dependent_llc_misses, 1);
        assert_eq!(
            core.stats.dep_chain_uop_sum, 1,
            "one ALU op (the ADD) between the loads"
        );
    }

    #[test]
    fn remote_execution_completes_chain() {
        // The dependent chain executes "at the EMC": mark entries remote,
        // then complete them with the correct values.
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x4000);
        mem.write_u64(Addr(0x4008), 1234);
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 8),
                StaticUop::load(Reg(3), Reg(2), 0),
            ],
            0,
        );
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut source = None;
        for now in 0..10 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    source = Some(rob);
                    core.mark_llc_miss(rob);
                }
            }
        }
        let src = source.expect("source load issued");
        // Entries 2 (ADD) and 3 (dependent load) go remote.
        core.mark_remote([src + 1, src + 2]);
        // Source data arrives; EMC executes the chain and returns values.
        core.complete_load(src, 10);
        core.complete_remote(src + 1, 0x4008, None, 11);
        core.complete_remote(src + 2, 1234, None, 12);
        let mut events = Vec::new();
        for now in 13..30 {
            core.tick(now, &mut events);
        }
        assert!(core.finished_at().is_some());
        assert_eq!(core.committed_regs()[3], 1234);
    }

    #[test]
    fn remote_abort_falls_back_to_local_execution() {
        let mut mem = MemoryImage::new();
        mem.write_u64(Addr(0x100), 0x4000);
        mem.write_u64(Addr(0x4008), 777);
        let p = Program::new(
            vec![
                StaticUop::mov_imm(Reg(0), 0x100),
                StaticUop::load(Reg(1), Reg(0), 0),
                StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 8),
                StaticUop::load(Reg(3), Reg(2), 0),
            ],
            0,
        );
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), mem);
        let mut events = Vec::new();
        let mut pending: Vec<(Cycle, RobId)> = Vec::new();
        let mut source = None;
        let mut marked = false;
        for now in 0..5000 {
            core.tick(now, &mut events);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    if source.is_none() {
                        source = Some(rob);
                        core.mark_remote([rob + 1, rob + 2]);
                        marked = true;
                    }
                    pending.push((now + 100, rob));
                }
            }
            if marked && now == 300 {
                // EMC aborts (e.g. TLB miss): chain re-executes locally.
                let s = source.unwrap();
                core.unmark_remote([s + 1, s + 2]);
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
                break;
            }
        }
        assert!(core.finished_at().is_some());
        assert_eq!(core.committed_regs()[3], 777);
    }

    #[test]
    fn rs_capacity_limits_window() {
        // With a 4-entry RS, no more than 4 unissued uops may be in
        // flight even though the ROB is large.
        let cfg = CoreConfig {
            rs_entries: 4,
            ..CoreConfig::default()
        };
        // A long chain of dependent adds behind a slow load keeps
        // everything unissued.
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
        ];
        for _ in 0..50 {
            uops.push(StaticUop::alu(UopKind::IntAdd, Reg(1), Reg(1), None, 1));
        }
        let p = Program::new(uops, 0);
        let mut core = Core::new(&cfg, Arc::new(p), MemoryImage::new());
        let mut events = Vec::new();
        for now in 0..100 {
            core.tick(now, &mut events);
            events.clear();
        }
        assert!(core.rob_len() <= 4 + 2, "RS limit must throttle dispatch");
    }

    // ------------------------------------------------------------------
    // Seeded random programs against the reference interpreter, as in
    // `tests/equivalence.rs::ooo_matches_reference` but as loops, plus
    // checks of the window's own bookkeeping.
    // ------------------------------------------------------------------

    /// `mov r15, iters; body; sub r15, 1; brnz r15 -> body`. The body is
    /// random ALU/load/store uops over r0..r14 and conditional branches
    /// to strictly later body positions, so every program terminates.
    fn random_program(rng: &mut SmallRng) -> Program {
        const ALU: [UopKind; 7] = [
            UopKind::IntAdd,
            UopKind::IntSub,
            UopKind::And,
            UopKind::Or,
            UopKind::Xor,
            UopKind::Shl,
            UopKind::Shr,
        ];
        let body = 1 + rng.gen_range(0..60) as u32;
        let mut uops = vec![StaticUop::mov_imm(Reg(15), 1 + rng.gen_range(0..5))];
        for i in 1..=body {
            let mut reg = || Reg(rng.gen_range(0..15) as u8);
            let (d, a, b) = (reg(), reg(), reg());
            uops.push(match rng.gen_range(0..6) {
                0 => StaticUop::alu(
                    ALU[rng.gen_range(0..7) as usize],
                    d,
                    a,
                    None,
                    rng.gen_range(0..64),
                ),
                1 => StaticUop::alu(UopKind::IntAdd, d, a, Some(b), 0),
                2 => StaticUop::mov_imm(d, rng.gen_range(0..1 << 20)),
                3 => StaticUop::load(d, a, rng.gen_range(0..512) * 8),
                4 => StaticUop::store(a, b, rng.gen_range(0..512) * 8),
                _ => {
                    let cond =
                        [BranchCond::Zero, BranchCond::NotZero][rng.gen_range(0..2) as usize];
                    let target = i + 1 + rng.gen_range(0..u64::from(body - i) + 1) as u32;
                    StaticUop::branch(cond, Some(a), target)
                }
            });
        }
        uops.push(StaticUop::alu(UopKind::IntSub, Reg(15), Reg(15), None, 1));
        uops.push(StaticUop::branch(BranchCond::NotZero, Some(Reg(15)), 1));
        let program = Program::new(uops, 0x9000);
        program.validate().expect("generated program is valid");
        program
    }

    /// What a `complete_load` for a squashed id must leave untouched.
    fn window_state(core: &Core) -> impl PartialEq + std::fmt::Debug {
        let entries: Vec<_> = core
            .rob_iter()
            .map(|e| (e.id, e.state, e.mem_pending, e.result))
            .collect();
        (
            entries,
            core.ready.0.clone(),
            core.completing.0.clone(),
            core.waiting_count,
            core.mem_inflight,
        )
    }

    /// What the random runs exercised, summed so the test can insist
    /// that the interesting cases happened.
    #[derive(Default)]
    struct Coverage {
        /// Lookups of a squashed id whose slot a younger live uop holds.
        stale_slot_lookups: u64,
        squashed_completions: u64,
        runahead_entries: u64,
        inert_ticks: u64,
        asleep_ticks: u64,
        inert_stalled_ticks: u64,
        inert_data_wait_ticks: u64,
    }

    /// Everything a tick may touch except the statistics, in a form that
    /// compares. The predictor's tables are thousands of counters, so
    /// they are in one snapshot in 64.
    fn everything_but_stats(core: &Core, now: Cycle) -> impl PartialEq + std::fmt::Debug {
        let entries: Vec<_> = core
            .rob_iter()
            .map(|e| {
                (
                    (e.id, e.state, e.srcs, e.result, e.addr, e.store_value),
                    (e.remote, e.llc_miss, e.tainted, e.chain_depth, e.inv),
                    (
                        e.forwarded,
                        e.mem_pending,
                        e.waiters.clone(),
                        e.renamed_over,
                    ),
                )
            })
            .collect();
        (
            (entries, core.next_id),
            (core.rename, core.committed, core.committed_inv),
            (core.ready.0.clone(), core.completing.0.clone()),
            (core.unresolved_stores.0.clone(), core.store_ids.0.clone()),
            (core.data_wait, core.waiting_count, core.mem_inflight),
            (core.fetch_idx, core.fetch_resume_at, core.program_done),
            (core.finished_at, core.stall_since, core.finished_stall),
            (core.runahead.is_some(), core.waiter_pool.len()),
            now.is_multiple_of(64).then(|| format!("{:?}", core.bpred)),
        )
    }

    /// Tick `core` at `now`; where `inert_until` had promised an inert
    /// tick, hold it to that: no event, no state touched, and the
    /// statistics moved exactly as `credit_stall(1)` moves them. A
    /// sleeping core is that promise remembered: a fresh look must make
    /// it again. `sleepless` cores are woken before every tick, so that
    /// each inert tick runs the whole pipeline.
    fn tick_checking_inertness(
        core: &mut Core,
        now: Cycle,
        events: &mut Vec<CoreEvent>,
        sleepless: bool,
        cov: &mut Coverage,
    ) {
        let asleep_until = std::mem::take(&mut core.asleep_until);
        let fresh = core.inert_until(now);
        if now < asleep_until {
            assert_eq!(fresh, Some(asleep_until), "a wake-up was missed by {now}");
            cov.asleep_ticks += u64::from(!sleepless);
        }
        if !sleepless {
            core.asleep_until = asleep_until;
        }
        let Some(until) = fresh else {
            core.tick(now, events);
            return;
        };
        assert!(until > now);
        let (state, stats) = (everything_but_stats(core, now), core.stats.clone());
        core.tick(now, events);
        assert!(events.is_empty(), "inert tick at {now} emitted {events:?}");
        assert_eq!(
            everything_but_stats(core, now),
            state,
            "inert tick at {now}"
        );
        let ticked = std::mem::replace(&mut core.stats, stats);
        core.credit_stall(1);
        assert_eq!(format!("{:?}", core.stats), format!("{ticked:?}"));
        cov.inert_ticks += 1;
        cov.inert_stalled_ticks += u64::from(core.stall_since.is_some());
        cov.inert_data_wait_ticks += u64::from(!core.ready.0.is_empty());
    }

    /// Run `program` to completion with random load latencies in
    /// [5, 260), half the loads marked LLC misses, checking every cycle
    /// that `entry(id)` agrees with a scan of the ROB and that the rename
    /// table maps each register to its youngest writer in the window.
    fn run_checked(cfg: &CoreConfig, program: &Program, seed: u64, cov: &mut Coverage) -> Core {
        let mut core = Core::new(cfg, Arc::new(program.clone()), MemoryImage::new());
        let mut rng = seeded_rng(seed);
        let mut events = Vec::new();
        let mut pending: Vec<(Cycle, RobId)> = Vec::new();
        // Last cycle's window, the retirements counted by then, and the
        // ids that have left the window other than by retiring.
        let (mut window, mut retired_before) = (Vec::new(), 0);
        let mut squashed = std::collections::BTreeSet::new();
        // Misses are known a few cycles after issue, as the LLC's answer
        // is, and always before the data.
        let mut misses: Vec<(Cycle, RobId)> = Vec::new();
        for now in 0..2_000_000 {
            tick_checking_inertness(&mut core, now, &mut events, seed.is_multiple_of(2), cov);
            for ev in events.drain(..) {
                if let CoreEvent::LoadIssued { rob, .. } = ev {
                    let r = rng.next_u64();
                    if r & 1 == 0 {
                        misses.push((now + (r >> 8) % 5, rob));
                    }
                    pending.push((now + 5 + r % 256, rob));
                }
            }
            misses.retain(|&(t, rob)| {
                if t <= now {
                    core.mark_llc_miss(rob);
                }
                t > now
            });
            pending.retain(|&(t, rob)| {
                if t > now {
                    return true;
                }
                let ends_runahead = core.runahead.as_ref().is_some_and(|r| r.source_rob == rob);
                if ends_runahead || core.rob_iter().any(|e| e.id == rob) {
                    core.complete_load(rob, now);
                } else {
                    // The request outlived a squash (or a runahead
                    // episode): its completion must be ignored.
                    let before = window_state(&core);
                    core.complete_load(rob, now);
                    assert_eq!(window_state(&core), before, "squashed id {rob} completed");
                    cov.squashed_completions += 1;
                }
                false
            });
            // Retirement took the oldest of last cycle's entries; the
            // rest of those gone were squashed.
            let retired = core.stats.retired_uops + core.stats.runahead_uops;
            let live: Vec<RobId> = core.rob_iter().map(|e| e.id).collect();
            let gone = window.drain(..).skip((retired - retired_before) as usize);
            squashed.extend(gone.filter(|id| live.binary_search(id).is_err()));
            (window, retired_before) = (live, retired);
            let first = window.first().copied().unwrap_or(core.next_id);
            squashed.retain(|&id| id + 2 >= first);
            // entry(id) against a scan, for every id around the window.
            let mut holder = vec![None; core.slot_mask + 1];
            for e in core.rob_iter() {
                holder[core.slot(e.id)] = Some(e.id);
            }
            {
                let mut scan = core.rob_iter().peekable();
                for id in first.saturating_sub(2)..=core.next_id {
                    let expect = scan.next_if(|e| e.id == id).map(|e| e as *const RobEntry);
                    assert_eq!(
                        core.entry(id).map(|e| e as *const RobEntry),
                        expect,
                        "entry({id}) at cycle {now}"
                    );
                    if squashed.contains(&id) {
                        if let Some(younger) = holder[core.slot(id)] {
                            assert!(younger > id, "slot of {id} holds {younger}");
                            cov.stale_slot_lookups += 1;
                        }
                    }
                }
                assert!(scan.next().is_none(), "ROB ids ascend");
            }
            let mut rebuilt = [None; NUM_ARCH_REGS];
            for e in core.rob_iter() {
                if let Some(d) = e.uop.dst {
                    rebuilt[d.idx()] = Some(e.id);
                }
            }
            assert_eq!(core.rename, rebuilt, "rename table at cycle {now}");
            if core.finished_at().is_some() {
                cov.runahead_entries += core.stats.runahead_entries;
                return core;
            }
        }
        panic!("core did not finish");
    }

    fn random_programs_match_reference(cfg: &CoreConfig, seed: u64) -> Coverage {
        let mut rng = seeded_rng(seed);
        let mut cov = Coverage::default();
        for _ in 0..96 {
            let program = random_program(&mut rng);
            let expect = run_reference(&program, &mut MemoryImage::new(), 1_000_000);
            assert!(!expect.capped);
            let core = run_checked(cfg, &program, rng.next_u64(), &mut cov);
            assert_eq!(core.committed_regs(), &expect.regs);
            assert_eq!(core.stats.retired_uops, expect.dyn_uops);
            assert_eq!(core.stats.retired_loads, expect.loads);
            assert_eq!(core.stats.retired_stores, expect.stores);
        }
        cov
    }

    #[test]
    fn random_programs_match_reference_across_flushes() {
        let cov = random_programs_match_reference(&CoreConfig::default(), 0x5eed_0001);
        assert!(cov.inert_ticks > 10_000, "{} inert ticks", cov.inert_ticks);
        assert!(
            cov.asleep_ticks > 3_000,
            "{} ticks asleep",
            cov.asleep_ticks
        );
        assert!(
            cov.inert_ticks - cov.asleep_ticks > 5_000,
            "{} of {} inert ticks ran the pipeline",
            cov.inert_ticks - cov.asleep_ticks,
            cov.inert_ticks
        );
        assert!(
            cov.stale_slot_lookups > 0,
            "some squashed id's slot was taken by a younger uop"
        );
        assert!(
            cov.squashed_completions > 0,
            "some load outlived its squash"
        );
    }

    #[test]
    fn every_call_that_can_end_the_wait_wakes_a_sleeping_core() {
        let mut uops = vec![
            StaticUop::mov_imm(Reg(0), 0x100),
            StaticUop::load(Reg(1), Reg(0), 0),
            StaticUop::alu(UopKind::IntAdd, Reg(2), Reg(1), None, 1),
        ];
        uops.resize(
            300,
            StaticUop::alu(UopKind::IntAdd, Reg(3), Reg(3), None, 1),
        );
        let p = Program::new(uops, 0);
        let mut core = Core::new(&CoreConfig::default(), Arc::new(p), MemoryImage::new());
        let mut events = Vec::new();
        let mut now = 0;
        let mut fall_asleep = |core: &mut Core| {
            for _ in 0..2_000 {
                core.tick(now, &mut events);
                now += 1;
                if now < core.asleep_until {
                    return;
                }
            }
            panic!("the core never fell asleep");
        };
        fall_asleep(&mut core);
        let load = core.head().expect("the load blocks retirement").id;
        type Call = fn(&mut Core, RobId);
        let calls: [(&str, Call); 6] = [
            ("mark_llc_miss", |c, load| c.mark_llc_miss(load)),
            ("mark_llc_miss_merged", |c, load| {
                c.mark_llc_miss_merged(load)
            }),
            ("mark_remote", |c, load| c.mark_remote([load + 1])),
            ("unmark_remote", |c, load| c.unmark_remote([load + 1])),
            ("complete_remote", |c, load| {
                c.complete_remote(load + 1, 7, None, 5_000)
            }),
            ("complete_load", |c, load| c.complete_load(load, 5_000)),
        ];
        for (name, call) in calls {
            call(&mut core, load);
            assert_eq!(core.asleep_until, 0, "{name} left the core asleep");
            if name != "complete_load" {
                fall_asleep(&mut core);
            }
        }
    }

    #[test]
    fn inert_ticks_in_a_small_window_change_nothing() {
        // A window small enough to fill behind a miss, and no runahead to
        // drain it: the stalled, inert core skip-ahead is built on.
        let cfg = CoreConfig {
            rob_entries: 24,
            rs_entries: 12,
            lsq_entries: 6,
            ..CoreConfig::default()
        };
        let cov = random_programs_match_reference(&cfg, 0x5eed_0016);
        assert!(
            cov.inert_stalled_ticks > 5_000,
            "{} inert ticks in a full-window stall",
            cov.inert_stalled_ticks
        );
        assert!(
            cov.inert_data_wait_ticks > 0,
            "some inert tick had loads held in the ready queue"
        );
    }

    #[test]
    fn random_programs_match_reference_under_runahead() {
        // A small window, so that full-window stalls (and with them
        // runahead episodes) happen in sixty-uop programs.
        let cfg = CoreConfig {
            runahead: true,
            rob_entries: 24,
            rs_entries: 12,
            lsq_entries: 6,
            ..CoreConfig::default()
        };
        let cov = random_programs_match_reference(&cfg, 0x5eed_0002);
        assert!(cov.runahead_entries > 0, "runahead was entered");
        assert!(
            cov.squashed_completions > 0,
            "some load outlived its episode"
        );
    }
}
