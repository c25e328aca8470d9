//! Out-of-order core model for the EMC reproduction.
//!
//! Implements the paper's Table 1 core: 4-wide issue, 256-entry ROB,
//! 92-entry reservation station, hybrid branch predictor, load/store
//! queue with store-to-load forwarding, speculative wrong-path execution,
//! and in-order retirement. The core executes real uop semantics over the
//! workload's memory image; memory *timing* comes from the owning
//! simulator through the [`CoreEvent`] / [`Core::complete_load`]
//! interface.
//!
//! The `emc-core` crate builds the paper's dependence-chain generation on
//! top of the read-only ROB view ([`Core::rob_iter`], [`RobEntry`]): the
//! per-entry waiter lists are exactly the wakeup metadata the paper's
//! pseudo-wakeup dataflow walk broadcasts on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod core;
pub mod window;

pub use crate::core::{Core, CoreEvent};
pub use crate::window::{EntryState, RobEntry, RobId, SrcOp};
pub use bpred::{HybridPredictor, PredictInfo};
