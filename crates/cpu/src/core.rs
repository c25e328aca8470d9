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
//! exposed read-only here and consumed by the `emc-core` crate. The
//! window's storage is in [`crate::window`].

use crate::bpred::HybridPredictor;
use crate::window::{
    Cold, Completions, EntryState, Hot, Ids, Links, Operand, RobEntry, RobId, SlotSet, Window,
};
use emc_types::program::{Program, StaticUop};
use emc_types::{Addr, CoreConfig, CoreStats, Cycle, MemoryImage, UopKind, NUM_ARCH_REGS};
use std::sync::Arc;

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
    rob: Window,
    rename: [Option<RobId>; NUM_ARCH_REGS],
    committed: [u64; NUM_ARCH_REGS],
    /// Waiting, local uops whose operands are ready.
    ready: Ids,
    completing: Completions,
    /// Stores whose address is not yet known.
    unresolved_stores: Ids,
    /// Every store in the window.
    stores: SlotSet,
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
        let rob = Window::new(cfg.rob_entries);
        Core {
            cfg: *cfg,
            bpred: HybridPredictor::new(cfg.bp_table_entries),
            program,
            mem,
            stats: CoreStats::default(),
            fetch_idx: 0,
            fetch_resume_at: 0,
            program_done: false,
            rename: [None; NUM_ARCH_REGS],
            committed: [0; NUM_ARCH_REGS],
            ready: Ids::default(),
            completing: Completions::default(),
            unresolved_stores: Ids::default(),
            stores: SlotSet::new(&rob),
            rob,
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

    /// The entry in `slot`, read-only.
    fn view(&self, slot: usize) -> RobEntry<'_> {
        let links = &self.rob.links[slot];
        let prog_idx = links.prog_idx as usize;
        RobEntry {
            hot: &self.rob.hot[slot],
            links,
            cold: &self.rob.cold[slot],
            uop: &self.program.uops[prog_idx],
            pc: self.program.pc_of(prog_idx),
        }
    }

    /// Look up an in-flight entry by id.
    pub fn entry(&self, id: RobId) -> Option<RobEntry<'_>> {
        self.rob.index_of(id).map(|slot| self.view(slot))
    }

    /// The wakeup list of in-flight entry `id`: `(consumer, source slot)`
    /// for every operand renamed to it while it was incomplete, in
    /// dispatch order (ascending consumer id; squashed consumers stay
    /// listed). Empty once the entry completes.
    pub fn waiters_of(&self, id: RobId) -> impl Iterator<Item = (RobId, usize)> + '_ {
        (self.rob.index_of(id).into_iter()).flat_map(|slot| self.rob.waiters(slot))
    }

    /// Iterate the ROB from oldest to youngest.
    pub fn rob_iter(&self) -> impl Iterator<Item = RobEntry<'_>> {
        (0..self.rob.len).map(|age| self.view(self.rob.at(age)))
    }

    /// Current ROB occupancy.
    pub fn rob_len(&self) -> usize {
        self.rob.len
    }

    /// The window is completely full.
    pub fn rob_full(&self) -> bool {
        self.rob.len >= self.cfg.rob_entries
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
        if !blocked || self.rob.len == 0 {
            return None;
        }
        let head = &self.rob.hot[self.rob.head()];
        let miss = matches!(head.kind, UopKind::Load) && head.llc_miss;
        (miss && head.state != EntryState::Done).then_some(head.id)
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
        let Some(idx) = self.rob.index_of(source) else {
            return;
        };
        self.runahead = Some(Runahead {
            source_rob: source,
            resume_idx: self.rob.links[idx].prog_idx as usize,
            checkpoint: self.committed,
        });
        self.stats.runahead_entries += 1;
        // Pseudo-complete the blocking load with an INV result so the
        // window can drain past it.
        let e = &mut self.rob.hot[idx];
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
        for age in 0..self.rob.len {
            self.rob.clear_waiters(self.rob.at(age));
        }
        self.rob.len = 0;
        self.ready.0.clear();
        self.completing.clear();
        self.unresolved_stores.0.clear();
        self.stores.clear();
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
        if let Some(idx) = self.rob.index_of(id) {
            self.rob.hot[idx].llc_miss = true;
        }
    }

    /// Mark a load as having missed the LLC (called by the simulator as
    /// soon as the miss is known, always before completion).
    pub fn mark_llc_miss(&mut self, id: RobId) {
        self.asleep_until = 0;
        let Some(idx) = self.rob.index_of(id) else {
            return;
        };
        let e = &mut self.rob.hot[idx];
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
        if let Some(idx) = self.rob.index_of(id) {
            self.rob.cold[idx].on_chip = true;
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
        (self.rob.index_of(id)).is_some_and(|i| self.rob.hot[i].srcs.iter().any(|s| s.taint))
    }

    /// Complete an outstanding load issued to the memory system. Ignored
    /// if the load was flushed (the memory request outlives the squash).
    pub fn complete_load(&mut self, id: RobId, now: Cycle) {
        self.asleep_until = 0;
        if self.runahead.as_ref().is_some_and(|ra| ra.source_rob == id) {
            self.exit_runahead(now);
            return;
        }
        let Some(idx) = self.rob.index_of(id) else {
            return;
        };
        let e = &mut self.rob.hot[idx];
        if !matches!(e.kind, UopKind::Load) {
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
            if let Some(idx) = self.rob.index_of(id) {
                self.rob.hot[idx].remote = true;
            }
        }
    }

    /// Abort remote execution (EMC TLB miss, branch misprediction inside
    /// the chain, disambiguation conflict): entries return to normal
    /// scheduling and re-execute locally.
    pub fn unmark_remote(&mut self, ids: impl IntoIterator<Item = RobId>) {
        self.asleep_until = 0;
        for id in ids {
            let Some(idx) = self.rob.index_of(id) else {
                continue;
            };
            let e = &mut self.rob.hot[idx];
            if !e.remote {
                continue;
            }
            e.remote = false;
            if e.state == EntryState::Waiting && e.srcs.iter().all(|s| s.ready) {
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
        let Some(idx) = self.rob.index_of(id) else {
            return;
        };
        let (e, cold) = (&mut self.rob.hot[idx], &mut self.rob.cold[idx]);
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
        if matches!(e.kind, UopKind::Load) {
            cold.addr = Some(Addr(result)); // informational; value is `result`
        }
        if let Some((addr, value)) = store {
            cold.addr = Some(addr);
            cold.store_value = Some(value);
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
        let signs = |c: &Core| {
            (
                c.rob.len,
                c.rob.next_id,
                c.ready.0.len(),
                c.completing.len(),
            )
        };
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
            && self.rob.len == 0
            && self.finished_at.is_none()
            && self.runahead.is_none()
        {
            self.finished_at = Some(now);
        }
        // Nothing moved and nothing is executing: likely nothing will
        // until a load comes back. (With uops in flight the wait is a
        // few cycles, and asking costs more than ticking through it.)
        if signs(self) == before && self.completing.len() == 0 {
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
        let head = self.rob.head();
        if (self.rob.len > 0 && self.rob.hot[head].state == EntryState::Done)
            || (self.rob.len == 0 && self.program_done)
        {
            return None;
        }
        let mut until = Cycle::MAX;
        if let Some(t) = self.completing.first() {
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
        for &id in &self.ready.0 {
            let kind = self.rob.hot[self.rob.index_of(id)?].kind;
            if self.held_behind_a_store(id, kind) {
                continue;
            }
            if !self.waits_for_store_data(id) {
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
                let room = self.rob.len < self.cfg.rob_entries
                    && self.waiting_count < self.cfg.rs_entries
                    && !(uop.kind.is_mem() && self.mem_ops_in_rob() >= self.cfg.lsq_entries);
                if room {
                    return None;
                }
            }
        }
        Some(until)
    }

    /// Whether `id`, of kind `kind`, is a load that must wait for every
    /// older store's address.
    fn held_behind_a_store(&self, id: RobId, kind: UopKind) -> bool {
        matches!(kind, UopKind::Load) && self.unresolved_stores.0.front().is_some_and(|&s| s < id)
    }

    /// Whether `id` is the load issue last found waiting for an older
    /// store's data, and that store still has none.
    fn waits_for_store_data(&self, id: RobId) -> bool {
        self.data_wait.is_some_and(|(load, store)| {
            let store = self.rob.index_of(store);
            load == id && store.is_some_and(|s| self.rob.cold[s].store_value.is_none())
        })
    }

    /// The first cycle from `now` at which [`tick`](Core::tick) does more
    /// than count: the end of the sleep the core fell into when it found
    /// itself inert (nothing has called on it since), `now` while awake,
    /// `Cycle::MAX` once the program has finished.
    #[inline]
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
            if self.rob.len == 0 {
                break;
            }
            let slot = self.rob.head();
            let head = &mut self.rob.hot[slot];
            // Runahead never waits at a miss: an issued-but-incomplete
            // load at the head pseudo-completes with an INV result.
            if in_runahead
                && matches!(head.kind, UopKind::Load)
                && head.state == EntryState::Issued
                && head.mem_pending
            {
                head.inv = true;
                head.result = 0;
                self.finish_entry(slot, now);
            }
            let e = &self.rob.hot[slot];
            if e.state != EntryState::Done {
                break;
            }
            // The entry stays in its slot; it is out of the live range.
            self.rob.len -= 1;
            if let Some(dst) = e.dst {
                self.committed[dst.idx()] = e.result;
                self.committed_inv[dst.idx()] = in_runahead && e.inv;
                if self.rename[dst.idx()] == Some(e.id) {
                    self.rename[dst.idx()] = None;
                }
            }
            let kind = e.kind;
            if matches!(kind, UopKind::Store) {
                self.stores.remove(slot);
            }
            if in_runahead {
                // Pseudo-retirement: the register state advanced above is
                // restored at exit; never touch memory, count separately.
                self.stats.runahead_uops += 1;
                continue;
            }
            self.stats.retired_uops += 1;
            self.last_retired_at = now;
            match kind {
                UopKind::Load => self.stats.retired_loads += 1,
                UopKind::Store => {
                    self.stats.retired_stores += 1;
                    let cold = &self.rob.cold[slot];
                    let addr = cold.addr.expect("retired store has address");
                    let value = cold.store_value.expect("retired store has data");
                    self.mem.write_u64(addr, value);
                    events.push(CoreEvent::StoreRetired { addr });
                }
                UopKind::Branch(_) => self.stats.retired_branches += 1,
                _ => {}
            }
        }
    }

    fn drain_completions(&mut self, now: Cycle) {
        while let Some(id) = self.completing.pop_due(now) {
            // The entry may have been flushed, or finished remotely.
            if let Some(idx) = self.rob.index_of(id) {
                let e = &self.rob.hot[idx];
                if e.state == EntryState::Issued && !matches!(e.kind, UopKind::Load) {
                    self.finish_entry(idx, now);
                }
            }
        }
    }

    /// Transition the Issued entry at `idx` to Done and wake its
    /// consumers.
    fn finish_entry(&mut self, idx: usize, now: Cycle) {
        let e = &mut self.rob.hot[idx];
        debug_assert_eq!(e.state, EntryState::Issued);
        e.state = EntryState::Done;
        match e.kind {
            UopKind::Load => {
                e.tainted = e.llc_miss;
                e.depth = 0;
                // e.inv stays as set (runahead INV loads).
            }
            UopKind::Store | UopKind::Branch(_) => {
                e.tainted = false;
                e.depth = 0;
            }
            _ => {
                // ALU: taint/depth were computed at issue.
            }
        }
        let (id, result, taint, depth, inv) = (e.id, e.result, e.tainted, e.depth, e.inv);
        let waiters = self.rob.take_waiters(idx);
        for (consumer, slot) in waiters.iter() {
            // Squashed consumers stay on the list and miss here.
            let Some(ci) = self.rob.index_of(consumer) else {
                continue;
            };
            let c = &mut self.rob.hot[ci];
            let s = &mut c.srcs[slot];
            debug_assert_eq!(self.rob.links[ci].producer(slot), Some(id));
            if s.ready {
                continue;
            }
            (s.value, s.ready, s.taint, s.depth, s.inv) = (result, true, taint, depth, inv);
            let store = matches!(c.kind, UopKind::Store);
            if c.state == EntryState::Waiting && !c.remote {
                // A store issues once its address operand is ready.
                if c.srcs[0].ready && (store || c.srcs[1].ready) {
                    self.ready.insert(consumer);
                }
            } else if store && c.state == EntryState::Issued && slot == 1 {
                let data = &mut self.rob.cold[ci].store_value;
                if data.is_none() {
                    // Split store: address already resolved, data just
                    // arrived.
                    *data = Some(result);
                    self.completing.insert(now + 1, consumer);
                }
            }
        }
        self.rob.recycle_waiters(waiters);
    }

    fn issue(&mut self, now: Cycle, events: &mut Vec<CoreEvent>) {
        let mut issued = 0;
        // Loads held behind an older unresolved store stay ready for next
        // cycle; `held` counts them at the front of the set. Everything an
        // issue inserts or squashes is younger than the uop issuing, so
        // the set only changes at or after position `held`.
        let mut held = 0;
        while issued < self.cfg.issue_width {
            let Some(&id) = self.ready.0.get(held) else {
                break;
            };
            // A ready uop is live: its slot is its id's.
            let idx = self.rob.slot(id);
            let kind = self.rob.hot[idx].kind;
            debug_assert_eq!(self.rob.hot[idx].id, id);
            debug_assert_eq!(self.rob.hot[idx].state, EntryState::Waiting);
            // Memory ordering: wait for all older stores' addresses.
            if self.held_behind_a_store(id, kind) {
                held += 1;
                continue;
            }
            // A load waiting for an older store's data spends its issue
            // slot and is at once the oldest ready uop again: it takes
            // every slot left this cycle (DESIGN.md §5, "Known modelling
            // deviations"). While that store still has no data, skip
            // finding it again.
            if self.waits_for_store_data(id) {
                break;
            }
            self.ready.remove_at(held);
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
        let e = &mut self.rob.hot[idx];
        e.state = EntryState::Issued;
        let [a, b] = e.srcs;
        debug_assert!(a.ready && b.ready);
        e.result = e.kind.alu(a.value, b.value);
        e.tainted = a.taint || b.taint;
        e.inv = a.inv || b.inv;
        let depth = |s: Operand| if s.taint { s.depth } else { 0 };
        e.depth = depth(a).max(depth(b)).saturating_add(1);
        self.completing.insert(now + e.kind.exec_latency(), e.id);
    }

    fn issue_store(&mut self, idx: usize, now: Cycle) {
        let (e, cold) = (&mut self.rob.hot[idx], &mut self.rob.cold[idx]);
        e.state = EntryState::Issued;
        let [base, data] = e.srcs;
        debug_assert!(base.ready, "address operand ready");
        let uop = &self.program.uops[self.rob.links[idx].prog_idx as usize];
        cold.addr = Some(uop.effective_address(base.value));
        e.inv = base.inv || data.inv;
        cold.store_value = data.ready.then_some(data.value);
        // The address is resolved: younger loads may now disambiguate.
        self.unresolved_stores.remove(e.id);
        // Without its data the store completes when the operand arrives
        // (see finish_entry's wakeup path).
        if data.ready {
            self.completing.insert(now + 1, e.id);
        }
    }

    fn issue_branch(&mut self, idx: usize, now: Cycle) {
        let (e, cold) = (&mut self.rob.hot[idx], &self.rob.cold[idx]);
        let prog_idx = self.rob.links[idx].prog_idx as usize;
        e.state = EntryState::Issued;
        let UopKind::Branch(cond) = e.kind else {
            unreachable!("issue_branch on non-branch")
        };
        let src = e.srcs[0];
        debug_assert!(src.ready);
        let taken = if src.inv {
            // Runahead: a branch on an INV value cannot be resolved;
            // follow the prediction.
            cold.predicted_taken
        } else {
            StaticUop::branch_taken(cond, src.value)
        };
        e.result = u64::from(taken);
        let id = e.id;
        let redirect = if taken {
            let target = self.program.uops[prog_idx].target;
            target.expect("branch has target") as usize
        } else {
            prog_idx + 1
        };
        let pc = self.program.pc_of(prog_idx);
        (self.bpred).resolve(pc, cold.bp.expect("branch has checkpoint"), taken);
        if taken != cold.predicted_taken {
            self.stats.branch_mispredicts += 1;
            self.flush_younger_than(id);
            self.fetch_idx = redirect;
            self.program_done = false;
            self.fetch_resume_at = now + self.cfg.mispredict_penalty;
        }
        self.completing.insert(now + 1, id);
    }

    fn issue_load(&mut self, idx: usize, now: Cycle, events: &mut Vec<CoreEvent>) {
        let id = self.rob.hot[idx].id;
        let base = self.rob.hot[idx].srcs[0];
        let prog_idx = self.rob.links[idx].prog_idx as usize;
        let addr = self.program.uops[prog_idx].effective_address(base.value);
        // Store-to-load forwarding: youngest older store to the same
        // address wins.
        let (head, mut end) = (self.rob.head(), self.rob.age(idx));
        let mut forwarded: Option<u64> = None;
        while let Some(age) = self.stores.prev(head, end) {
            let s = self.rob.at(age);
            if self.rob.cold[s].addr == Some(addr) {
                forwarded = self.rob.cold[s].store_value;
                if forwarded.is_none() {
                    // Matching older store whose data is not yet known:
                    // the load must wait, and the issue slot is spent
                    // (DESIGN.md §5, "Known modelling deviations").
                    self.ready.insert(id);
                    self.waiting_count += 1;
                    self.data_wait = Some((id, self.rob.hot[s].id));
                    return;
                }
                break;
            }
            end = age;
        }
        let (e, cold) = (&mut self.rob.hot[idx], &mut self.rob.cold[idx]);
        e.state = EntryState::Issued;
        cold.addr = Some(addr);
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
            self.finish_entry(idx, now);
        } else {
            e.result = self.mem.read_u64(addr);
            e.mem_pending = true;
            self.mem_inflight += 1;
            if self.runahead.is_some() {
                self.stats.runahead_requests += 1;
            }
            let pc = self.program.pc_of(prog_idx);
            events.push(CoreEvent::LoadIssued { rob: id, addr, pc });
        }
    }

    /// Squash every entry younger than `id`, which stays in the window.
    fn flush_younger_than(&mut self, id: RobId) {
        let head_id = self.rob.hot[self.rob.head()].id;
        let mut squashed = 0;
        // Youngest first, so that each register ends at the mapping its
        // oldest squashed writer renamed over. That mapping names an
        // older entry, in flight still or retired since (then `None`).
        while squashed < self.rob.len {
            let slot = self
                .rob
                .slot(self.rob.next_id.wrapping_sub(1 + squashed as u64));
            let e = &self.rob.hot[slot];
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
            if let Some(d) = e.dst {
                let over = self.rob.links[slot].renamed_over();
                self.rename[d.idx()] = over.filter(|&p| p >= head_id);
            }
            self.rob.clear_waiters(slot);
            self.stores.remove(slot);
        }
        self.rob.len -= squashed;
        for ids in [&mut self.ready, &mut self.unresolved_stores] {
            while ids.0.back().is_some_and(|&r| r > id) {
                ids.0.pop_back();
            }
        }
        // Skip the counter forward to the next id whose slot is the one
        // after `id`'s: ids stay unique and increasing.
        self.rob.next_id += (squashed as u64).wrapping_neg() & self.rob.mask as u64;
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
            if self.rob.len >= self.cfg.rob_entries || self.waiting_count >= self.cfg.rs_entries {
                break;
            }
            let prog_idx = self.fetch_idx;
            let uop = self.program.uops[prog_idx];
            if uop.kind.is_mem() && self.mem_ops_in_rob() >= self.cfg.lsq_entries {
                break;
            }
            let id = self.rob.next_id;

            // Branch prediction steers fetch.
            let (bp, predicted_taken) = if let UopKind::Branch(cond) = uop.kind {
                let info = self.bpred.predict(self.program.pc_of(prog_idx));
                let taken = matches!(cond, emc_types::BranchCond::Always) || info.taken;
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
            let mut srcs = [Operand::committed(0, false); 2];
            let mut producers = [None; 2];
            for (i, src) in uop.srcs.iter().enumerate() {
                let Some(r) = src else { continue };
                producers[i] = self.rename[r.idx()];
                srcs[i] = match producers[i] {
                    None => {
                        Operand::committed(self.committed[r.idx()], self.committed_inv[r.idx()])
                    }
                    Some(pid) => {
                        let pi = self.rob.index_of(pid).expect("renamed producer in ROB");
                        let p = &self.rob.hot[pi];
                        if p.state == EntryState::Done {
                            Operand {
                                value: p.result,
                                depth: p.depth,
                                ready: true,
                                taint: p.tainted,
                                inv: p.inv,
                            }
                        } else {
                            self.rob.push_waiter(pi, id, i);
                            Operand::waiting()
                        }
                    }
                };
            }
            // An absent operand of an ALU uop holds what the ALU reads in
            // its place: a move's immediate, or the second operand's.
            match uop.kind {
                UopKind::Mov if uop.srcs[0].is_none() => srcs[0].value = uop.imm,
                UopKind::Mov | UopKind::Not | UopKind::SignExtend => {}
                UopKind::Load | UopKind::Store | UopKind::Branch(_) => {}
                _ if uop.srcs[1].is_none() => srcs[1].value = uop.imm,
                _ => {}
            }
            let renamed_over = uop.dst.and_then(|d| self.rename[d.idx()].replace(id));
            // Stores issue (resolve their address) as soon as the address
            // operand is ready; data may arrive later (split
            // store-address / store-data uops).
            let kind = uop.kind;
            let is_store = matches!(kind, UopKind::Store);
            let all_ready = srcs[0].ready && (is_store || srcs[1].ready);
            // The slot after the youngest live entry, written in place.
            let slot = self.rob.slot(id);
            self.rob.hot[slot] = Hot {
                id,
                result: 0,
                srcs,
                kind,
                dst: uop.dst,
                state: EntryState::Waiting,
                depth: 0,
                remote: false,
                llc_miss: false,
                tainted: false,
                inv: false,
                mem_pending: false,
            };
            self.rob.links[slot] = Links::new(prog_idx, producers, renamed_over);
            if kind.is_mem() || kind.is_branch() {
                self.rob.cold[slot] = Cold {
                    addr: None,
                    store_value: None,
                    bp,
                    predicted_taken,
                    on_chip: false,
                };
            }
            self.rob.next_id += 1;
            self.rob.len += 1;
            self.waiting_count += 1;
            if is_store {
                self.stores.insert(slot);
                self.unresolved_stores.insert(id);
            }
            if all_ready {
                self.ready.insert(id);
            }
        }
    }

    fn mem_ops_in_rob(&self) -> usize {
        self.mem_inflight + self.stores.len()
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
        assert!(reused > squashed && core.rob.slot(reused) == core.rob.slot(squashed));
        let before = window_state(&core);
        core.complete_load(squashed, now);
        core.mark_llc_miss(squashed);
        core.mark_on_chip(squashed);
        assert_eq!(window_state(&core), before);
        let e = core
            .entry(reused)
            .expect("the right-path load is in flight");
        assert!(e.hot.mem_pending && !e.llc_miss() && !e.on_chip());
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
    // Seeded random programs, as loops, against the reference
    // interpreter, plus checks of the window's own bookkeeping.
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

    /// The ids of the live entries in `set`, oldest first.
    fn members(core: &Core, set: &SlotSet) -> Vec<RobId> {
        let live = (0..core.rob.len).map(|age| core.rob.at(age));
        live.filter(|&slot| set.contains(slot))
            .map(|slot| core.rob.hot[slot].id)
            .collect()
    }

    /// What a `complete_load` for a squashed id must leave untouched.
    fn window_state(core: &Core) -> impl PartialEq + std::fmt::Debug {
        let entries: Vec<_> = core
            .rob_iter()
            .map(|e| (e.id(), e.state(), e.hot.mem_pending, e.result()))
            .collect();
        (
            entries,
            core.ready.0.clone(),
            core.completing.entries(),
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
                let h = e.hot;
                (
                    (h.id, h.state, h.srcs, e.srcs(), h.result, e.addr()),
                    (e.cold.store_value, e.on_chip(), e.predicted_taken()),
                    (h.remote, h.llc_miss, h.tainted, h.depth, h.inv),
                    (h.mem_pending, core.waiters_of(h.id).collect::<Vec<_>>()),
                    e.links.renamed_over(),
                )
            })
            .collect();
        (
            (entries, core.rob.next_id),
            (core.rename, core.committed, core.committed_inv),
            (core.ready.0.clone(), core.completing.entries()),
            (
                core.unresolved_stores.0.clone(),
                members(core, &core.stores),
            ),
            (core.data_wait, core.waiting_count, core.mem_inflight),
            (core.fetch_idx, core.fetch_resume_at, core.program_done),
            (core.finished_at, core.stall_since, core.finished_stall),
            core.runahead.is_some(),
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
                if ends_runahead || core.rob_iter().any(|e| e.id() == rob) {
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
            let live: Vec<RobId> = core.rob_iter().map(|e| e.id()).collect();
            let gone = window.drain(..).skip((retired - retired_before) as usize);
            squashed.extend(gone.filter(|id| live.binary_search(id).is_err()));
            (window, retired_before) = (live, retired);
            let first = window.first().copied().unwrap_or(core.rob.next_id);
            squashed.retain(|&id| id + 2 >= first);
            // entry(id) against a scan, for every id around the window.
            let mut holder = vec![None; core.rob.mask + 1];
            for e in core.rob_iter() {
                holder[core.rob.slot(e.id())] = Some(e.id());
            }
            {
                let mut scan = core.rob_iter().peekable();
                for id in first.saturating_sub(2)..=core.rob.next_id {
                    let expect = scan.next_if(|e| e.id() == id).map(|e| e.hot as *const Hot);
                    assert_eq!(
                        core.entry(id).map(|e| e.hot as *const Hot),
                        expect,
                        "entry({id}) at cycle {now}"
                    );
                    if squashed.contains(&id) {
                        if let Some(younger) = holder[core.rob.slot(id)] {
                            assert!(younger > id, "slot of {id} holds {younger}");
                            cov.stale_slot_lookups += 1;
                        }
                    }
                }
                assert!(scan.next().is_none(), "ROB ids ascend");
            }
            let mut rebuilt = [None; NUM_ARCH_REGS];
            for e in core.rob_iter() {
                if let Some(d) = e.uop().dst {
                    rebuilt[d.idx()] = Some(e.id());
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
        let load = (core.rob_iter().next())
            .expect("the load blocks retirement")
            .id();
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
