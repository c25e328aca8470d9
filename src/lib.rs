//! Reproduction of *"Accelerating Dependent Cache Misses with an Enhanced
//! Memory Controller"* (Hashemi, Khubaib, Ebrahimi, Mutlu, Patt — ISCA
//! 2016).
//!
//! This meta-crate re-exports the workspace's public surface so examples
//! and downstream users need a single dependency:
//!
//! - [`emc_sim`] — the full-system cycle simulator ([`System`], [`run_mix`]).
//! - [`emc_core`] — the EMC mechanism (chain generation + remote execution).
//! - [`emc_workloads`] — synthetic SPEC CPU2006-like workloads.
//! - [`emc_types`] — configuration ([`SystemConfig`]) and statistics.
//! - [`emc_energy`] — the McPAT/CACTI-style energy model.
//! - [`emc_campaign`] — deterministic experiment orchestration with a
//!   content-addressed result cache and resumable manifests.
//!
//! # Quickstart
//!
//! ```
//! use emc_repro::{run_mix, Benchmark, SystemConfig};
//!
//! // The paper's H4 mix on the Table-1 quad-core, EMC enabled.
//! let mix = [Benchmark::Mcf, Benchmark::Sphinx3, Benchmark::Soplex, Benchmark::Libquantum];
//! let stats = run_mix(SystemConfig::quad_core(), &mix, 2_000).expect_completed();
//! assert_eq!(stats.cores.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emc_campaign;
pub use emc_core;
pub use emc_cpu;
pub use emc_energy;
pub use emc_sim;
pub use emc_types;
pub use emc_workloads;

pub use emc_energy::{estimate_default, EnergyBreakdown, EnergyParams};
pub use emc_sim::{build_system, run_homogeneous, run_mix, BuildError, System, DEFAULT_BUDGET};
pub use emc_types::{
    FaultPlan, PostMortem, PrefetcherKind, RunOutcome, RunReport, Stats, SystemConfig,
};
pub use emc_workloads::{build, mix_by_name, Benchmark, QUAD_MIXES};
