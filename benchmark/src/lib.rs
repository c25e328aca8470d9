//! Shared parts of the performance gate: command line, the metric
//! registry that mirrors `/BENCHMARK.json`, the result line, the five
//! workloads' inputs, and the in-process `campaignd` harness.
//!
//! The `e2e` binary is the gate and stays on a narrow API
//! (`build_system`, `run_with_warmup`, `Service`, `Client`,
//! `ResultCache`); everything that reaches into single crates lives in
//! the `trace` binary, so a refactor of a layer's signature can break
//! `trace` without taking the gate down.

pub mod metrics;
pub mod stat;
pub mod svc;
pub mod workload;

use std::path::{Path, PathBuf};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The arguments both binaries take.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: workload::Workload,
    pub seed: u64,
    /// Length of the timed section, seconds.
    pub seconds: f64,
    /// 1/20 of every budget and a one-second run: same code paths, for
    /// a smoke test.
    pub quick: bool,
}

impl Args {
    /// Parse `--workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]`.
    /// `--trace` is accepted and ignored: `run.sh` picks the binary.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = None;
        let mut quick = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        workload::Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds {v} is outside (0, 60]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    value()?;
                }
                "--quick" => quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.unwrap_or(if quick { 1.0 } else { 20.0 }),
            quick,
        })
    }

    /// Parse the process arguments, or print the error and exit with 2.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`; say why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# CHECK FAILED: {}", what());
        }
    }
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the binaries write: spans, and the scratch directories below.
/// Relative to the repository root, which `run.sh` makes the working
/// directory; the benchmark writes nowhere else.
pub const OUT_DIR: &str = "benchmark/out";

/// A scratch directory under [`OUT_DIR`], keyed by pid, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
