//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6). See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The `figures` binary (`cargo run -p emc-bench --release --bin figures
//! -- <id>`) prints each figure's rows; `all` regenerates everything.
//! Since the campaign engine landed, every grid run goes through
//! `emc-campaign`: jobs are content-addressed, results are cached under
//! `results/cache/`, and an interrupted `figures all` resumes instead of
//! starting over. Host performance is not measured here: that is
//! `benchmark/` at the repository root, which borrows [`alloc`].

// `deny`, not `forbid`: the one sanctioned exception is the counting
// global allocator in `alloc`, which must implement `GlobalAlloc`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;

use std::path::PathBuf;

use emc_campaign::{Campaign, CampaignOptions};
use emc_types::{JsonValue, PrefetcherKind, ToJson};

pub use emc_campaign::{
    config_grid, config_json, homog_jobs, mix8_jobs, parallel_map, quad_jobs, JobSpec, RunResult,
};

/// Default per-core retired-uop budget for figure runs.
pub const DEFAULT_FIGURE_BUDGET: u64 = 30_000;

/// Schema tag stamped into every figure sidecar.
pub const FIGURES_SCHEMA: &str = "emc-figures-v1";

/// Resolve a figure budget from an explicit source string (the
/// injectable core of [`figure_budget`] — tests pass values directly
/// instead of mutating process-global environment).
pub fn budget_from(source: Option<&str>) -> u64 {
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

/// Campaign options for figure harnesses: default cache under
/// `results/cache`, resume on, progress on stderr.
pub fn figure_campaign_options() -> CampaignOptions {
    CampaignOptions::default()
}

/// Run a named set of jobs through the campaign engine (cache +
/// manifest + all cores) and unwrap every result, in job order.
pub fn run_jobs(name: &str, jobs: Vec<JobSpec>) -> Vec<RunResult> {
    Campaign::new(name, jobs)
        .run(&figure_campaign_options())
        .expect_completed()
}

/// Weighted speedup of `run` against per-core baseline IPCs, normalized
/// per core (1.0 = baseline performance).
pub fn norm_weighted_speedup(run: &RunResult, baseline_ipcs: &[f64]) -> f64 {
    run.stats.weighted_speedup(baseline_ipcs) / baseline_ipcs.len() as f64
}

/// Order-preserving parallel map across all cores (kept for harness
/// code that runs ad-hoc job lists; campaign grids use [`run_jobs`]).
pub fn par_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map(jobs, 0, |_, job| f(job))
}

/// All quad-core heterogeneous grid runs (H1–H10 × 8 configs), the input
/// to Figures 12, 15, 16, 17, 18, 19, 21, 22 and 23. Campaign-cached.
pub fn quad_grid(budget: u64) -> Vec<RunResult> {
    run_jobs("quad-grid", quad_jobs(budget))
}

/// All homogeneous grid runs (8 high-intensity benchmarks × 8 configs),
/// the input to Figures 13 and 24. Campaign-cached.
pub fn homog_grid(budget: u64) -> Vec<RunResult> {
    run_jobs("homog-grid", homog_jobs(budget))
}

/// Find the run for (workload, prefetcher label, emc) in a grid.
pub fn find<'a>(
    grid: &'a [RunResult],
    workload: &str,
    pf: PrefetcherKind,
    emc: bool,
) -> &'a RunResult {
    grid.iter()
        .find(|r| r.workload == workload && r.prefetcher == pf.label() && r.emc == emc)
        .unwrap_or_else(|| panic!("missing run {workload}/{}/{emc}", pf.label()))
}

/// Write a JSON sidecar next to the textual figure output: creates
/// `results/` explicitly, stamps the `emc-figures-v1` schema, and
/// returns the path written — or an error naming the path that failed.
/// (The pre-campaign version swallowed every I/O error silently.)
pub fn write_json<T: ToJson>(name: &str, value: &T) -> Result<PathBuf, String> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let doc = JsonValue::obj(vec![
        ("schema", FIGURES_SCHEMA.into()),
        ("name", name.into()),
        ("data", value.to_json_value()),
    ]);
    let mut text = doc.to_json_pretty();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Fixed-width bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let frac = (value / max).clamp(0.0, 1.0);
    let n = (frac * width as f64).round() as usize;
    format!("{}{}", "#".repeat(n), " ".repeat(width - n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{Stats, SystemConfig};

    #[test]
    fn config_grid_has_eight_entries() {
        let g = config_grid(SystemConfig::quad_core());
        assert_eq!(g.len(), 8);
        assert_eq!(g.iter().filter(|c| c.emc.enabled).count(), 4);
        let labels: std::collections::HashSet<_> = g.iter().map(|c| c.prefetcher.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn par_map_preserves_order() {
        let jobs: Vec<u64> = (0..6).collect();
        let out = par_map(jobs, |&i| RunResult {
            workload: format!("w{i}"),
            prefetcher: "No-PF".into(),
            emc: false,
            stats: Stats::new(1),
            energy: Default::default(),
            ipcs: vec![i as f64],
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.workload, format!("w{i}"));
            assert_eq!(r.ipcs[0], i as f64);
        }
    }

    #[test]
    fn bar_renders_bounded() {
        assert_eq!(bar(0.0, 1.0, 10).trim(), "");
        assert_eq!(bar(1.0, 1.0, 10), "##########");
        assert_eq!(bar(2.0, 1.0, 4), "####", "clamped");
        assert_eq!(bar(0.5, 1.0, 10).matches('#').count(), 5);
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

    #[test]
    fn write_json_stamps_schema_and_reports_path() {
        let rows = vec![("w0", 1.5f64), ("w1", 2.5)];
        let path = write_json("bench_selftest", &rows).expect("writable results dir");
        let text = std::fs::read_to_string(&path).expect("file exists at reported path");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(FIGURES_SCHEMA)
        );
        assert_eq!(
            doc.get("data")
                .and_then(|d| d.idx(0))
                .and_then(|r| r.idx(0))
                .and_then(|v| v.as_str()),
            Some("w0")
        );
        let _ = std::fs::remove_file(path);
    }
}
