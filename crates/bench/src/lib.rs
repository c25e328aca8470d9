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
    config_grid, config_json, figure_budget, homog_jobs, mix8_jobs, quad_jobs, JobSpec, RunResult,
};

/// Schema tag stamped into every figure sidecar.
pub const FIGURES_SCHEMA: &str = "emc-figures-v1";

/// Run a named set of jobs through the campaign engine (default cache
/// under `results/cache`, manifest resume, all cores, progress on
/// stderr) and unwrap every result, in job order.
pub fn run_jobs(name: &str, jobs: Vec<JobSpec>) -> Vec<RunResult> {
    Campaign::new(name, jobs)
        .run(&CampaignOptions::default())
        .expect_completed()
}

/// Weighted speedup of `run` against per-core baseline IPCs, normalized
/// per core (1.0 = baseline performance).
pub fn norm_weighted_speedup(run: &RunResult, baseline_ipcs: &[f64]) -> f64 {
    run.stats.weighted_speedup(baseline_ipcs) / baseline_ipcs.len() as f64
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

    #[test]
    fn bar_renders_bounded() {
        assert_eq!(bar(0.0, 1.0, 10).trim(), "");
        assert_eq!(bar(1.0, 1.0, 10), "##########");
        assert_eq!(bar(2.0, 1.0, 4), "####", "clamped");
        assert_eq!(bar(0.5, 1.0, 10).matches('#').count(), 5);
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
