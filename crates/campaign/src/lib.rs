//! Deterministic experiment orchestration for the EMC simulator.
//!
//! The figure grid (Figs. 1–24 + ablations) re-simulates the same
//! baseline configurations over and over, and a serial `figures all`
//! run that wedges or is interrupted throws away everything it already
//! computed. This crate turns ad-hoc figure runs into declarative,
//! cached, resumable **campaigns**:
//!
//! - [`JobSpec`] — one workload mix × [`SystemConfig`] × budget, hashed
//!   (with a code-version fingerprint) into a content-addressed
//!   [`JobKey`]. Two specs share a key exactly when they would produce
//!   byte-identical results. [`config_json`], [`stats_to_json`],
//!   [`run_result_to_json`] and [`run_result_from_json`] name the
//!   documents that code outside the crates asks for.
//! - [`ResultCache`] — completed [`RunResult`]s stored once under
//!   `results/cache/<shard>/<key>.json`; every re-run or cross-figure
//!   duplicate is a cache hit with byte-identical output. Writes are
//!   atomic (temp file + rename); corrupt entries degrade to misses.
//! - [`Manifest`] — per-job status journaled after every job, so an
//!   interrupted campaign resumes without re-running completed work.
//!   [`ManifestEntry::record`] is the one rule for what a resolved job
//!   writes into its row and [`Tally`] the one count of done / hits /
//!   executed / failed; the engine and `campaignd` both keep their books
//!   with them.
//! - [`Campaign`] / [`CampaignOptions`] — the engine: a work-stealing
//!   executor ([`parallel_map`]) across all cores, structured failure
//!   for wedged runs on the first attempt, one extended-cap re-run for a
//!   cap hit that is still live, and live progress lines (done/total,
//!   hit rate, ETA).
//! - [`CampaignReport`] — per-job provenance (hit / executed / skipped /
//!   deferred) plus host-perf histograms over the jobs it executed.
//!
//! The `campaign` binary exposes the same engine on the command line;
//! the `emc-bench` figure harnesses are thin layers over this crate.

pub mod cache;
pub mod client;
pub mod engine;
pub mod exec;
pub mod hash;
pub mod http;
pub mod manifest;
pub mod spec;
pub mod suite;

pub use cache::{write_atomic, ResultCache, CACHE_SCHEMA, DEFAULT_CACHE_DIR};
pub use client::{Client, ClientError, DEFAULT_ADDR};
pub use engine::{
    eta, retry_decision, Campaign, CampaignOptions, CampaignReport, Executor, JobRecord, JobSource,
    RetryDecision, CAP_EXTENSION_FACTOR, REPORT_SCHEMA,
};
pub use exec::{parallel_map, worker_count};
pub use hash::{digest128, digest128_hex};
pub use manifest::{
    JobStatus, Manifest, ManifestEntry, Tally, CACHE_HIT, COMPLETED, MANIFEST_SCHEMA,
};
pub use spec::{
    benchmark_by_name, code_fingerprint, config_json, run_result_from_json, run_result_to_json,
    stats_to_json, JobKey, JobSpec, RunResult, CACHE_EPOCH,
};
pub use suite::{config_grid, figure_budget, homog_jobs, mix8_jobs, quad_jobs, suite_jobs, SUITES};
