//! One issue context's hold on a chain: its uops' states, the
//! physical registers they write, the results on their way home, the
//! in-chain store buffer and the lease clock.

use super::{AbortReason, ChainResult};
use crate::chain::{Chain, ChainSrc, ChainUop};
use emc_types::{Addr, Cycle, UopKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum UopState {
    Waiting,
    Issued,
    Done,
}

#[derive(Debug, Clone)]
pub(super) struct Context {
    pub(super) chain: Chain,
    pub(super) prf: Vec<u64>,
    pub(super) prf_ready: Vec<bool>,
    pub(super) states: Vec<UopState>,
    pub(super) outbox: Vec<ChainResult>,
    pub(super) store_buffer: Vec<(Addr, u64)>,
    pub(super) source_delivered: bool,
    /// The chain is still in flight on the data ring until this cycle
    /// (the context is reserved at generation time; execution may not
    /// begin before the uops physically arrive).
    pub(super) active_at: Cycle,
    /// The lease clock: the chain's last progress, from its arrival on.
    pub(super) progress_at: Cycle,
    /// Progress since the last [`EmcEngine::expire_leases`], which dates
    /// it.
    pub(super) progressed: bool,
    pub(super) aborted: Option<AbortReason>,
    pub(super) announced: bool,
}

impl Context {
    /// A context holding `chain`, which arrives at `active_at`, in the
    /// buffers of `spare` (a context that held an earlier chain) if given.
    pub(super) fn new(
        chain: Chain,
        prf_entries: usize,
        active_at: Cycle,
        spare: Option<Context>,
    ) -> Self {
        let mut c = spare.unwrap_or_else(|| Context {
            chain: Chain::default(),
            prf: vec![0; prf_entries],
            prf_ready: vec![false; prf_entries],
            states: Vec::new(),
            outbox: Vec::new(),
            store_buffer: Vec::new(),
            source_delivered: false,
            active_at,
            progress_at: active_at,
            progressed: false,
            aborted: None,
            announced: false,
        });
        c.prf.fill(0);
        c.prf_ready.fill(false);
        c.states.clear();
        c.states.resize(chain.uops.len(), UopState::Waiting);
        c.outbox.clear();
        c.store_buffer.clear();
        (c.source_delivered, c.progressed, c.announced) = (false, false, false);
        (c.active_at, c.progress_at, c.aborted) = (active_at, active_at, None);
        c.chain = chain;
        // Data shipped with the chain is no progress of the chain's own.
        if let Some(value) = c.chain.source_value {
            c.set_source(value);
        }
        c
    }

    pub(super) fn set_source(&mut self, value: u64) {
        let epr = self.chain.source_epr as usize;
        self.prf[epr] = value;
        self.prf_ready[epr] = true;
        self.source_delivered = true;
    }

    pub(super) fn src_value(&self, s: ChainSrc) -> Option<u64> {
        match s {
            ChainSrc::Epr(e) => self.prf_ready[e as usize].then(|| self.prf[e as usize]),
            ChainSrc::LiveIn(i) => Some(self.chain.live_ins[i as usize]),
        }
    }

    pub(super) fn uop_ready(&self, i: usize) -> bool {
        self.states[i] == UopState::Waiting
            && self.chain.uops[i]
                .srcs
                .iter()
                .flatten()
                .all(|&s| self.src_value(s).is_some())
    }

    /// Resolve the two ALU inputs per the ISA operand conventions.
    pub(super) fn operands(&self, u: &ChainUop) -> (u64, u64) {
        let s0 = u.srcs[0].and_then(|s| self.src_value(s));
        let s1 = u.srcs[1].and_then(|s| self.src_value(s));
        match u.kind {
            UopKind::Mov => (s0.unwrap_or(u.imm), 0),
            UopKind::Not | UopKind::SignExtend => (s0.unwrap_or(0), 0),
            _ => (s0.unwrap_or(0), s1.unwrap_or(u.imm)),
        }
    }

    pub(super) fn all_done(&self) -> bool {
        self.states.iter().all(|&s| s == UopState::Done)
    }
}
