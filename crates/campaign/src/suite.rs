//! Standard job suites: the paper's evaluation grids as [`JobSpec`]
//! lists, and the budget they run at.
//!
//! These are the job lists behind the `campaign` CLI, `campaignd` and
//! the `figures` harness, so a `campaign run quad` pre-populates exactly
//! the cache entries `figures fig12` will look up.

use emc_types::{PrefetcherKind, SystemConfig};
use emc_workloads::{Benchmark, QUAD_MIXES};

use crate::spec::JobSpec;

/// Default per-core retired-uop budget for figure and `campaign run`
/// jobs.
const DEFAULT_FIGURE_BUDGET: u64 = 30_000;

/// Resolve a figure budget from an explicit source string (the
/// injectable core of [`figure_budget`] — tests pass values directly
/// instead of mutating process-global environment).
fn budget_from(source: Option<&str>) -> u64 {
    source
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_FIGURE_BUDGET)
}

/// Per-core retired-uop budget for figure runs. Override with the
/// `EMC_FIGURE_BUDGET` environment variable. Campaign job keys embed the
/// value this *resolves to*, never the variable itself, so cached
/// results are immune to later environment changes.
pub fn figure_budget() -> u64 {
    budget_from(std::env::var("EMC_FIGURE_BUDGET").ok().as_deref())
}

/// The standard suites, by name, in the order `campaign run all` runs
/// them.
pub const SUITES: [&str; 4] = ["quad", "homog", "mix8-1mc", "mix8-2mc"];

/// The job list of the suite called `name` (one of [`SUITES`]) at
/// `budget`, or `None` for any other name.
pub fn suite_jobs(name: &str, budget: u64) -> Option<Vec<JobSpec>> {
    Some(match name {
        "quad" => quad_jobs(budget),
        "homog" => homog_jobs(budget),
        "mix8-1mc" => mix8_jobs(SystemConfig::eight_core_1mc(), budget),
        "mix8-2mc" => mix8_jobs(SystemConfig::eight_core_2mc(), budget),
        _ => return None,
    })
}

/// The eight (prefetcher × EMC) configurations of Figures 12–14.
pub fn config_grid(base: SystemConfig) -> Vec<SystemConfig> {
    let mut v = Vec::new();
    for pf in PrefetcherKind::ALL {
        for emc in [false, true] {
            let mut c = base.clone().with_prefetcher(pf);
            c.emc.enabled = emc;
            v.push(c);
        }
    }
    v
}

/// H1–H10 × the 8-config grid on the quad-core system (80 jobs): the
/// input to Figures 12, 15–19 and 21–23.
pub fn quad_jobs(budget: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (name, mix) in QUAD_MIXES {
        for cfg in config_grid(SystemConfig::quad_core()) {
            jobs.push(JobSpec::mix(name, mix, cfg, budget));
        }
    }
    jobs
}

/// High-intensity homogeneous workloads × the 8-config grid (64 jobs):
/// the input to Figures 13 and 24.
pub fn homog_jobs(budget: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for b in Benchmark::HIGH_INTENSITY {
        for cfg in config_grid(SystemConfig::quad_core()) {
            jobs.push(JobSpec::homog(b, cfg, budget));
        }
    }
    jobs
}

/// H1–H10 (doubled to eight cores) × the 8-config grid on `base`
/// (80 jobs): the input to Figure 14, for
/// [`SystemConfig::eight_core_1mc`] or [`SystemConfig::eight_core_2mc`].
pub fn mix8_jobs(base: SystemConfig, budget: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (name, mix) in QUAD_MIXES {
        for cfg in config_grid(base.clone()) {
            jobs.push(JobSpec::mix8(name, mix, cfg, budget));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grid_has_eight_distinct_configs() {
        let g = config_grid(SystemConfig::quad_core());
        assert_eq!(g.len(), 8);
        assert_eq!(g.iter().filter(|c| c.emc.enabled).count(), 4);
        let labels: HashSet<_> = g.iter().map(|c| c.prefetcher.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn suites_have_expected_sizes_and_unique_keys() {
        for (name, n) in SUITES.into_iter().zip([80, 64, 80, 80]) {
            let jobs = suite_jobs(name, 1000).expect("a standard suite");
            assert_eq!(jobs.len(), n, "{name}");
            let keys: HashSet<_> = jobs.iter().map(|j| j.key().0).collect();
            assert_eq!(keys.len(), n, "every job in a suite is distinct");
        }
        assert!(suite_jobs("octo", 1000).is_none());
    }

    #[test]
    fn mc_count_separates_mix8_suites() {
        let a = mix8_jobs(SystemConfig::eight_core_1mc(), 1000);
        let b = mix8_jobs(SystemConfig::eight_core_2mc(), 1000);
        assert_ne!(a[0].key(), b[0].key());
    }

    #[test]
    fn budget_resolution_is_injectable() {
        // No process-global env mutation: budget_from takes its source
        // directly, so this can't race parallel tests.
        assert_eq!(budget_from(None), DEFAULT_FIGURE_BUDGET);
        assert_eq!(budget_from(Some("123")), 123);
        assert_eq!(budget_from(Some(" 456 ")), 456, "whitespace tolerated");
        assert_eq!(budget_from(Some("junk")), DEFAULT_FIGURE_BUDGET);
        assert_eq!(budget_from(Some("")), DEFAULT_FIGURE_BUDGET);
    }
}
