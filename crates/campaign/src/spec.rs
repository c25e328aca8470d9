//! Declarative job specifications and their content-addressed keys.
//!
//! A [`JobSpec`] is everything needed to reproduce one simulation run:
//! the per-core workload list, the full [`SystemConfig`], and the
//! retired-uop budget (the seed lives inside the config). Its
//! [`key`](JobSpec::key) hashes a *canonical* encoding of all of that
//! plus a code-version fingerprint, so two specs collide exactly when
//! they would produce byte-identical results — which is what lets the
//! result cache deduplicate the same baseline run across figures.
//!
//! The canonical encoding ([`config_json`]) is generated from the config
//! structs' own definitions ([`emc_types::json_struct!`]): a field added
//! to [`SystemConfig`] (or any nested config) is in the key by being
//! declared, so the fingerprint can never silently go stale.

use emc_energy::{estimate_default, EnergyBreakdown};
use emc_sim::{eight_core_mix, run_mix};
use emc_types::json::Source;
use emc_types::{FromJson, JsonValue, RunReport, Stats, SystemConfig, ToJson};
use emc_workloads::Benchmark;

pub(crate) use emc_types::json::u;

use crate::hash::digest128_hex;

/// Bump when a change anywhere in the simulator alters results without
/// touching any [`SystemConfig`] field — stale cache entries are then
/// unreachable because every key embeds this value.
pub const CACHE_EPOCH: u32 = 3;

/// The code-version fingerprint mixed into every job key. CI (or any
/// caller wanting exact provenance) can set `EMC_CODE_FINGERPRINT` at
/// *compile* time to a git SHA; otherwise the crate version plus
/// [`CACHE_EPOCH`] stand in.
pub fn code_fingerprint() -> String {
    match option_env!("EMC_CODE_FINGERPRINT") {
        Some(sha) => format!("emc-campaign-e{CACHE_EPOCH}+{sha}"),
        None => format!("emc-campaign-e{CACHE_EPOCH}+v{}", env!("CARGO_PKG_VERSION")),
    }
}

/// One simulated configuration of one workload — the unit the campaign
/// engine schedules, caches, and retries. Mirrors what the bench
/// harness's former `run_one_mix` / `run_one_homog` / `run_one_mix8`
/// trio each rebuilt by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display label ("H4", "mcfx4", "contexts=2", ...). Not part of
    /// the content key: relabeling a job must still hit the cache.
    pub label: String,
    /// Benchmark per core (`benches.len() == cfg.cores`).
    pub benches: Vec<Benchmark>,
    /// Full system configuration (includes the seed).
    pub cfg: SystemConfig,
    /// Per-core retired-uop budget — the *resolved* value, never an
    /// environment-variable name, so the key is environment-independent.
    pub budget: u64,
}

impl JobSpec {
    /// A heterogeneous quad-core mix (the former `run_one_mix`).
    pub fn mix(name: &str, mix: [Benchmark; 4], cfg: SystemConfig, budget: u64) -> Self {
        JobSpec {
            label: name.to_string(),
            benches: mix.to_vec(),
            cfg,
            budget,
        }
    }

    /// A homogeneous workload: `cfg.cores` copies of `bench` (the former
    /// `run_one_homog`).
    pub fn homog(bench: Benchmark, cfg: SystemConfig, budget: u64) -> Self {
        JobSpec {
            label: format!("{}x{}", bench.name(), cfg.cores),
            benches: vec![bench; cfg.cores],
            cfg,
            budget,
        }
    }

    /// An eight-core mix: two copies of a quad mix (the former
    /// `run_one_mix8`, §5 of the paper).
    pub fn mix8(name: &str, mix: [Benchmark; 4], cfg: SystemConfig, budget: u64) -> Self {
        JobSpec {
            label: name.to_string(),
            benches: eight_core_mix(mix),
            cfg,
            budget,
        }
    }

    /// Replace the display label (ablation harnesses name jobs after the
    /// swept parameter, not the workload).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The content-addressed cache key: a 128-bit digest of the
    /// canonical spec encoding (workloads, every config field, budget)
    /// plus the [`code_fingerprint`].
    pub fn key(&self) -> JobKey {
        JobKey(digest128_hex(self.canonical_json().to_json().as_bytes()))
    }

    /// Canonical JSON encoding of everything that identifies this job.
    /// Insertion-ordered and exhaustive (see module docs), so equal
    /// specs encode byte-identically.
    pub fn canonical_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("fingerprint", code_fingerprint().into()),
            (
                "benches",
                JsonValue::Arr(self.benches.iter().map(|b| b.name().into()).collect()),
            ),
            ("budget", u(self.budget)),
            ("config", config_json(&self.cfg)),
        ])
    }

    /// Execute the job (half-budget warmup then measurement, exactly as
    /// the figure harnesses always did) and report how the run ended.
    pub fn execute(&self) -> RunReport {
        run_mix(self.cfg.clone(), &self.benches, self.budget)
    }

    /// [`execute`](Self::execute) with an explicit cycle cap — the
    /// engine's one extended re-run for cap hits classified
    /// slow-but-live.
    pub fn execute_capped(&self, cycle_cap: u64) -> RunReport {
        emc_sim::run_mix_capped(
            self.cfg.clone(),
            &self.benches,
            self.budget,
            Some(cycle_cap),
        )
    }

    /// The default cycle cap [`execute`](Self::execute) runs under.
    pub fn default_cycle_cap(&self) -> u64 {
        emc_sim::cycle_cap(self.budget)
    }

    /// Package completed statistics as a [`RunResult`] for this spec.
    pub fn to_result(&self, stats: Stats) -> RunResult {
        let energy = estimate_default(&stats, &self.cfg);
        let ipcs = stats.cores.iter().map(|c| c.ipc()).collect();
        RunResult {
            workload: self.label.clone(),
            prefetcher: self.cfg.prefetcher.label().to_string(),
            emc: self.cfg.emc.enabled,
            stats,
            energy,
            ipcs,
        }
    }
}

/// A job's content-addressed identity: 32 lowercase hex characters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobKey(pub String);

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl ToJson for JobKey {
    fn to_json_value(&self) -> JsonValue {
        self.0.to_json_value()
    }
}

impl FromJson for JobKey {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        String::read(src).map(JobKey)
    }
}

emc_types::json_struct! {
    /// One simulated configuration's measured outcome (moved here from
    /// `emc-bench` so figures and campaigns share a single result type).
    #[derive(Debug, Clone)]
    pub struct RunResult {
        /// Workload label ("H4", "mcf x4", ...).
        pub workload: String,
        /// Prefetcher configuration.
        pub prefetcher: String,
        /// Whether the EMC was enabled.
        pub emc: bool,
        /// Full statistics.
        pub stats: Stats,
        /// Energy estimate.
        pub energy: EnergyBreakdown,
        /// Per-core IPCs (for weighted speedup against a baseline run).
        pub ipcs: Vec<f64>,
    }
}

/// Canonical encoding of a [`SystemConfig`], the document the cache key
/// hashes. Every field of every nested struct (including the liveness
/// layer) enters it by being declared, so it can never silently fall out
/// of the key.
pub fn config_json(cfg: &SystemConfig) -> JsonValue {
    cfg.to_json_value()
}

/// Encode full run statistics.
pub fn stats_to_json(s: &Stats) -> JsonValue {
    s.to_json_value()
}

/// Encode a full [`RunResult`], as the cache stores it.
pub fn run_result_to_json(r: &RunResult) -> JsonValue {
    r.to_json_value()
}

/// Decode a full [`RunResult`].
///
/// # Errors
///
/// Returns the path to the first missing or malformed field.
pub fn run_result_from_json(v: &JsonValue) -> Result<RunResult, String> {
    RunResult::from_json_value(v)
}

/// Look up a [`Benchmark`] by its printed name (inverse of
/// [`Benchmark::name`]), used when decoding cached spec echoes.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::mix(
            "H1",
            emc_workloads::mix_by_name("H1").unwrap(),
            SystemConfig::quad_core(),
            30_000,
        )
    }

    #[test]
    fn key_is_stable_and_label_independent() {
        let a = spec();
        let b = spec().with_label("renamed");
        assert_eq!(a.key(), b.key(), "label is presentation, not identity");
        assert_eq!(a.key().to_string().len(), 32);
    }

    #[test]
    fn key_separates_budget_seed_config_and_workload() {
        let base = spec();
        let mut budget = spec();
        budget.budget += 1;
        let mut seed = spec();
        seed.cfg.seed ^= 1;
        let mut cfgd = spec();
        cfgd.cfg.emc.enabled = false;
        let mut wl = spec();
        wl.benches[0] = Benchmark::Lbm;
        for (what, s) in [
            ("budget", &budget),
            ("seed", &seed),
            ("config", &cfgd),
            ("workload", &wl),
        ] {
            assert_ne!(base.key(), s.key(), "{what} must change the key");
        }
    }

    #[test]
    fn homog_and_mix8_constructors() {
        let h = JobSpec::homog(Benchmark::Mcf, SystemConfig::quad_core(), 100);
        assert_eq!(h.label, "mcfx4");
        assert_eq!(h.benches.len(), 4);
        let m8 = JobSpec::mix8(
            "H1",
            emc_workloads::mix_by_name("H1").unwrap(),
            SystemConfig::eight_core_1mc(),
            100,
        );
        assert_eq!(m8.benches.len(), 8);
        assert_eq!(m8.benches[0], m8.benches[4]);
        assert_ne!(h.key(), m8.key());
    }

    #[test]
    fn canonical_json_parses_and_names_fingerprint() {
        let doc = spec().canonical_json();
        let text = doc.to_json();
        let back = JsonValue::parse(&text).expect("canonical encoding is valid JSON");
        assert_eq!(
            back.get("fingerprint").and_then(|v| v.as_str()),
            Some(code_fingerprint().as_str())
        );
        assert!(back.get("config").and_then(|c| c.get("emc")).is_some());
    }

    #[test]
    fn u64_above_double_grid_encodes_as_string() {
        assert_eq!(u(42), JsonValue::Num(42.0));
        assert_eq!(u(u64::MAX), JsonValue::Str(u64::MAX.to_string()));
    }

    #[test]
    fn benchmark_round_trips_by_name() {
        for bench in Benchmark::all() {
            assert_eq!(benchmark_by_name(bench.name()), Some(bench));
        }
        assert_eq!(benchmark_by_name("notabench"), None);
    }
}
