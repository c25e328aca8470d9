//! Full-system cycle-level simulator for the EMC reproduction.
//!
//! [`System`] wires together every substrate in the workspace — the
//! out-of-order cores (`emc-cpu`), private L1s and the sliced shared LLC
//! (`emc-cache`), the bi-directional control/data rings (`emc-ring`),
//! PAR-BS memory controllers over DDR3 channels (`emc-memctrl` /
//! `emc-dram`), the prefetch engines (`emc-prefetch`) — and the paper's
//! contribution, the Enhanced Memory Controller (`emc-core`): dependence
//! chains are generated at full-window stalls, shipped over the data
//! ring, executed at the EMC when the source data arrives from DRAM, and
//! their live-outs returned for in-order retirement.
//!
//! # Example
//!
//! ```no_run
//! use emc_sim::{run_mix, DEFAULT_BUDGET};
//! use emc_types::SystemConfig;
//! use emc_workloads::mix_by_name;
//!
//! let mix = mix_by_name("H4").unwrap();
//! let stats = run_mix(SystemConfig::quad_core(), &mix, DEFAULT_BUDGET).expect_completed();
//! println!("IPC sum: {:.2}", stats.ipc_sum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events; // `EventQueue`: scheduled messages, by cycle, then FIFO
mod inflight; // `InFlight`: lines on their way to or from DRAM
mod mc_queues; // `McQueues`: the memory controllers and their admission
mod measure; // `Measure`: measurement window, budget snapshots, watchdog
pub mod metrics;
pub mod profile;
pub mod runner;
pub mod system; // `System`: the machine and its schedule; `system/` the rest

pub use emc_types::{PostMortem, RunOutcome, RunReport};
pub use metrics::{metrics_json, Sampler, DEFAULT_SAMPLE_INTERVAL};
pub use profile::{
    Phase, PhaseStat, ProfileReport, Throughput, ThroughputMeter, TickProfiler,
    DEFAULT_PROFILE_STRIDE,
};
pub use runner::{
    build_system, cycle_cap, eight_core_mix, run_homogeneous, run_mix, run_mix_capped,
    DEFAULT_BUDGET,
};
pub use system::{BuildError, System};
