//! Common types for the EMC reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: the micro-op ISA ([`Uop`](uop), [`UopKind`]), static programs
//! ([`Program`]), physical/line/page addresses ([`Addr`], [`LineAddr`],
//! [`PageAddr`]), the paged functional memory image ([`MemoryImage`]),
//! memory-system requests ([`MemReq`]) with their latency timelines,
//! system configuration ([`SystemConfig`]) mirroring Table 1 of the paper,
//! and the statistics counters ([`Stats`]) that the figure harnesses read.
//!
//! # Example
//!
//! ```
//! use emc_types::{SystemConfig, UopKind};
//!
//! let cfg = SystemConfig::quad_core();
//! assert_eq!(cfg.cores, 4);
//! assert!(UopKind::Load.emc_allowed());
//! assert!(!UopKind::FpAdd.emc_allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod hash;
pub mod hist;
pub mod json;
pub mod mem_image;
pub mod outcome;
pub mod program;
pub mod req;
pub mod rng;
pub mod sample;
pub mod stats;
pub mod svc;
pub mod trace;
pub mod uop;

pub use addr::{line_owner, physical_line, Addr, LineAddr, PageAddr, CACHE_LINE_BYTES, PAGE_BYTES};
pub use config::{
    CacheConfig, CoreConfig, DramConfig, EmcConfig, FaultPlan, LivenessConfig, PrefetchConfig,
    PrefetcherKind, RingConfig, SystemConfig,
};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use hist::{HistSummary, Histogram, HISTOGRAM_BUCKETS};
pub use json::{FromJson, JsonValue, ToJson};
pub use mem_image::MemoryImage;
pub use outcome::{ContextRow, CoreRow, PostMortem, RunOutcome, RunReport, WedgeClass};
pub use program::{Program, StaticUop};
pub use req::{AccessKind, MemReq, ReqId, ReqTimeline, Requester};
pub use rng::{seeded_rng, substream};
pub use sample::MetricSample;
pub use stats::{CoreStats, EmcStats, MemStats, PrefetchStats, RingStats, Stats, StatsView};
pub use svc::{
    EventBatch, JobState, JobStatusView, ProgressEvent, Rejection, ServiceStats, SubmitAck,
    SubmitRequest, TenantStats, SVC_SCHEMA,
};
pub use trace::{MissJourney, TraceEvent, TraceSink, TraceTrack, DEFAULT_TRACE_CAP};
pub use uop::{BranchCond, Reg, UopKind, NUM_ARCH_REGS};

/// A simulation cycle count (core clock domain unless stated otherwise).
pub type Cycle = u64;

/// Identifier of a core in the simulated chip (0-based).
pub type CoreId = usize;
