//! The Enhanced Memory Controller (EMC) — the paper's core contribution.
//!
//! This crate implements both halves of the mechanism from
//! *"Accelerating Dependent Cache Misses with an Enhanced Memory
//! Controller"* (ISCA 2016):
//!
//! 1. **Chain generation at the core** ([`ChainUnit`], the paper's
//!    per-core dependence-chain generation unit, §4.2): on a full-window
//!    stall whose head is an LLC-miss load, and when its
//!    [`DepMissCounter`] predicts a dependent miss, the unit performs a
//!    pseudo-wakeup dataflow walk over the core's ROB
//!    ([`chain::generate_chain`], Algorithm 1), renaming the EMC-eligible
//!    dependents of the miss through a Register Remapping Table onto the
//!    EMC's 16-register file and capturing ready values in a live-in
//!    vector. It also picks the chain to ship and when to back off.
//! 2. **Remote execution at the memory controller** ([`EmcEngine`],
//!    §4.1/§4.3): per-chain issue contexts, a 2-wide out-of-order
//!    back-end, a 4 KB data cache fed by DRAM fills and kept coherent via
//!    LLC directory bits, per-core circular TLBs, a PC-hashed LLC
//!    hit/miss predictor that lets dependent misses skip the LLC and go
//!    straight to DRAM, branch-direction checking, and spill-store
//!    support with in-chain forwarding.
//!
//! An issue context is its own record: [`EmcEngine`] keeps each
//! context's generation, its lease clock (what counts as progress, when
//! the lease runs out), which chain still waits for its source miss
//! ([`EmcEngine::awaiting_source`]) and the chain latency it measures
//! from [`Chain::shipped_at`]; [`EmcEngine::next_wake`] answers for the
//! engine's sleep and the leases alike. Neither it nor the unit keeps
//! counters: they count into the caller's `EmcStats` ([`Emc`] pairs an
//! engine driven on its own with the counters it writes) and `CoreStats`.
//!
//! The system simulator (`emc-sim`) wires these to the cores, ring, LLC
//! and DRAM; this crate is pure mechanism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod engine;
pub mod predictor;
pub mod unit;

pub use chain::{generate_chain, Chain, ChainSrc, ChainUop, GeneratedChain};
pub use engine::{AbortReason, ChainResult, Emc, EmcEngine, EmcEvent, FinishedChain, LoadRoute};
pub use predictor::{DepMissCounter, MissPredictor};
pub use unit::ChainUnit;
