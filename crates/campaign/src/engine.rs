//! The campaign engine: schedule jobs, consult the cache, extend the
//! cycle cap of live runs, record progress.
//!
//! A [`Campaign`] is a named, ordered list of [`JobSpec`]s. Running it
//! walks every job through one policy: known-failed jobs are skipped
//! (unless retries are requested), cached results are hits, everything
//! else executes on the work-stealing pool under the class-driven
//! retry policy ([`retry_decision`]). A wedge fails on its first
//! attempt, whatever its [`WedgeClass`]: a spec fixes its seed and the
//! simulator is deterministic, so a re-run would wedge at the same
//! cycle. A [`RunOutcome::CapHit`] whose liveness probes show the run
//! still making progress is re-run exactly once under a 10× extended
//! cycle cap (a different cap makes it a different run); a cap hit with
//! a deterministic root cause fails immediately. Every completed job is stored in the cache and
//! journaled in the manifest before the campaign moves on, so an
//! interrupt loses at most the jobs still in flight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use emc_types::{HistSummary, Histogram, JsonValue, RunOutcome, ToJson, WedgeClass};

use crate::cache::ResultCache;
use crate::exec::parallel_map;
use crate::manifest::{JobStatus, Manifest, CACHE_HIT, COMPLETED};
use crate::spec::{JobKey, JobSpec, RunResult};

/// Schema tag stamped into campaign report JSON.
pub const REPORT_SCHEMA: &str = "emc-campaign-report-v1";

/// Cycle-cap multiplier for the one extended re-run a slow-but-live cap
/// hit earns.
pub const CAP_EXTENSION_FACTOR: u64 = 10;

/// What the engine does after a non-`Completed` attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Run once more under an extended cycle cap: the run hit the cap
    /// while its liveness probes showed forward progress.
    ExtendCap,
    /// Record the failure: a wedge, a cap hit with a deterministic root
    /// cause, or one whose extended cap was already granted.
    Fail,
}

/// The pure class-driven retry policy, separated from the execution
/// loop so every (outcome, class) cell is unit-testable.
///
/// - [`RunOutcome::Wedged`] fails, whatever its class: the simulator is
///   deterministic, so the re-run would wedge identically.
/// - [`RunOutcome::CapHit`] whose class says the run was still live
///   earns exactly one re-run under an extended cap; a cap hit that is
///   itself deadlocked (or already extended) fails immediately.
/// - [`RunOutcome::Completed`] never reaches this policy.
pub fn retry_decision(
    outcome: RunOutcome,
    class: Option<&WedgeClass>,
    cap_extended: bool,
) -> RetryDecision {
    let live = class.is_some_and(WedgeClass::is_transient);
    if outcome == RunOutcome::CapHit && live && !cap_extended {
        RetryDecision::ExtendCap
    } else {
        RetryDecision::Fail
    }
}

/// The reentrant core of the engine: consult the cache, execute with
/// the class-driven retry policy, store the result. Detached from
/// campaign bookkeeping (manifests, deferral, progress) so a
/// long-running service can share one `Executor` across a resident
/// worker pool — every method takes `&self`, and the type is
/// `Send + Sync`, so concurrent [`resolve`](Executor::resolve) calls
/// from many threads are safe. Two executors (even in different
/// processes) racing on the same spec converge on one cache entry via
/// the cache's atomic temp+rename writes.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Result cache to consult and fill; `None` executes every job.
    pub cache: Option<ResultCache>,
    /// Prefix for diagnostic stderr lines ("campaign NAME", "worker 3").
    pub tag: String,
}

impl Executor {
    /// An executor over `cache`.
    pub fn new(cache: Option<ResultCache>) -> Self {
        Executor {
            cache,
            tag: "engine".into(),
        }
    }

    /// Rename the diagnostic tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Resolve one spec, whose key the caller hashed once
    /// ([`Manifest::rows_of`]): a cache hit, else an execution under the
    /// class-driven retry policy whose result is stored. Sets the
    /// record's `wall` to the time spent in this call (microseconds for
    /// hits, the full simulation for executions).
    pub fn resolve(&self, spec: &JobSpec, key: &JobKey) -> JobRecord {
        // A wrong key would file the result under another job's entry.
        debug_assert_eq!(*key, spec.key(), "{}: key is not the spec's", spec.label);
        let start = Instant::now();
        let mut record = self
            .lookup(spec, key)
            .unwrap_or_else(|| self.execute(spec, key));
        record.wall = start.elapsed();
        record
    }

    /// The cache-hit record of `spec`, if the cache holds its result.
    pub(crate) fn lookup(&self, spec: &JobSpec, key: &JobKey) -> Option<JobRecord> {
        let result = self.cache.as_ref()?.load_keyed(spec, key)?;
        let mut record = JobRecord::new(spec, key, JobSource::CacheHit, CACHE_HIT.into());
        record.result = Some(result);
        Some(record)
    }

    /// Simulate `spec` under the class-driven retry policy — a wedge
    /// fails on sight, and a live cap hit earns one extended cap — and
    /// store a completed result in the cache. Never reads the cache.
    pub(crate) fn execute(&self, spec: &JobSpec, key: &JobKey) -> JobRecord {
        let mut record = JobRecord::new(spec, key, JobSource::Executed, String::new());
        let mut next_cap: Option<u64> = None;
        loop {
            record.attempts += 1;
            let report = match next_cap {
                Some(cap) => spec.execute_capped(cap),
                None => spec.execute(),
            };
            if report.outcome == RunOutcome::Completed {
                let result = spec.to_result(report.stats);
                if let Some(cache) = &self.cache {
                    if let Err(e) = cache.store_keyed(spec, key, &result) {
                        eprintln!("# {}: {e}", self.tag);
                    }
                }
                record.outcome = if record.attempts > 1 {
                    format!("{COMPLETED} (attempt {})", record.attempts)
                } else {
                    COMPLETED.into()
                };
                record.result = Some(result);
                return record;
            }

            let class_label = (report.class()).map_or("unclassified".into(), |c| c.to_string());
            match retry_decision(report.outcome, report.class(), next_cap.is_some()) {
                RetryDecision::ExtendCap => {
                    let cap = spec
                        .default_cycle_cap()
                        .saturating_mul(CAP_EXTENSION_FACTOR);
                    eprintln!(
                        "# {}: {} hit the cycle cap while live ({class_label}), \
                         re-running once at {CAP_EXTENSION_FACTOR}x cap",
                        self.tag, spec.label
                    );
                    next_cap = Some(cap);
                }
                RetryDecision::Fail => {
                    record.outcome = match report.outcome {
                        RunOutcome::Wedged => {
                            let diag = (report.post_mortem.as_ref())
                                .map(|p| format!(" at cycle {}", p.cycle))
                                .unwrap_or_default();
                            format!(
                                "wedged{diag} after {} attempts — root cause: {class_label}",
                                record.attempts
                            )
                        }
                        _ => format!(
                            "cycle-cap hit after {} cycles — root cause: {class_label}{}",
                            report.stats.cycles,
                            if next_cap.is_some() {
                                " (extended cap exhausted)"
                            } else {
                                " (not retried: deterministic)"
                            }
                        ),
                    };
                    return record;
                }
            }
        }
    }
}

/// Policy knobs for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Result cache to consult and fill; `None` disables caching (every
    /// job executes).
    pub cache: Option<ResultCache>,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Load the prior manifest and skip already-`done` bookkeeping. When
    /// false a fresh manifest overwrites any prior one (the result cache
    /// still deduplicates actual simulation work).
    pub resume: bool,
    /// Re-execute jobs the manifest recorded as failed.
    pub retry_failed: bool,
    /// Execute at most this many cache misses, deferring the rest as
    /// pending. This is the interrupt: CI's resume test and `--max-jobs`
    /// stop a campaign mid-flight without killing the process.
    pub max_fresh_runs: Option<usize>,
    /// Emit live progress lines to stderr.
    pub progress: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            cache: Some(ResultCache::default_dir()),
            workers: 0,
            resume: true,
            retry_failed: false,
            max_fresh_runs: None,
            progress: true,
        }
    }
}

impl CampaignOptions {
    /// Options for tests and library callers: explicit cache root, no
    /// progress chatter.
    pub fn quiet(cache: Option<ResultCache>) -> Self {
        CampaignOptions {
            cache,
            progress: false,
            ..CampaignOptions::default()
        }
    }
}

/// Where a job's result (or absence of one) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Loaded from the result cache.
    CacheHit,
    /// Freshly simulated this run.
    Executed,
    /// Skipped: the manifest says it already failed and `retry_failed`
    /// is off.
    SkippedFailed,
    /// Deferred: the `max_fresh_runs` interrupt budget ran out.
    Deferred,
}

impl JobSource {
    fn as_str(self) -> &'static str {
        match self {
            JobSource::CacheHit => CACHE_HIT,
            JobSource::Executed => "executed",
            JobSource::SkippedFailed => "skipped-failed",
            JobSource::Deferred => "deferred",
        }
    }
}

/// One job's outcome within a campaign run.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Display label.
    pub label: String,
    /// Content-addressed key.
    pub key: JobKey,
    /// How the engine resolved this job.
    pub source: JobSource,
    /// Human-readable outcome ("completed", "cache-hit", "wedged after
    /// 3 attempts", ...).
    pub outcome: String,
    /// Simulation attempts spent this run (0 for hits/skips).
    pub attempts: u32,
    /// The result, when the job completed or hit.
    pub result: Option<RunResult>,
    /// Host wall-clock spent resolving this job (includes cache lookup
    /// and retries; microseconds for hits, the full simulation for
    /// executions).
    pub wall: Duration,
}

impl JobRecord {
    /// A record of `spec` (keyed `key`) with no result, attempts or wall
    /// time yet.
    fn new(spec: &JobSpec, key: &JobKey, source: JobSource, outcome: String) -> JobRecord {
        JobRecord {
            label: spec.label.clone(),
            key: key.clone(),
            source,
            outcome,
            attempts: 0,
            result: None,
            wall: Duration::ZERO,
        }
    }

    /// Simulated cycles this record carries (0 when unresolved).
    pub fn sim_cycles(&self) -> u64 {
        self.result.as_ref().map_or(0, |r| r.stats.cycles)
    }

    /// Host throughput while resolving: simulated cycles per second.
    /// Only meaningful for executed jobs — a cache hit's "throughput"
    /// measures deserialization, not simulation.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.sim_cycles() as f64 / secs
    }
}

/// Everything a finished campaign run knows about itself.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Per-job records, in campaign order.
    pub records: Vec<JobRecord>,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
}

impl CampaignReport {
    /// Jobs resolved from the cache.
    pub fn hits(&self) -> usize {
        self.count(JobSource::CacheHit)
    }

    /// Jobs simulated this run.
    pub fn executed(&self) -> usize {
        self.count(JobSource::Executed)
    }

    /// Jobs with no result (failed, skipped, or deferred).
    pub fn unresolved(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_none()).count()
    }

    /// Jobs deferred by the `max_fresh_runs` interrupt budget.
    pub fn deferred(&self) -> usize {
        self.count(JobSource::Deferred)
    }

    fn count(&self, s: JobSource) -> usize {
        self.records.iter().filter(|r| r.source == s).count()
    }

    /// Fraction of all jobs resolved from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.hits() as f64 / self.records.len() as f64
    }

    /// Unwrap every job's result, in campaign order.
    ///
    /// # Panics
    ///
    /// Panics listing every unresolved job (label and outcome) if any
    /// job failed, was skipped, or was deferred — partial grids must
    /// never silently become figures.
    pub fn expect_completed(&self) -> Vec<RunResult> {
        let missing: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.result.is_none())
            .map(|r| format!("  {} [{}]: {}", r.label, r.source.as_str(), r.outcome))
            .collect();
        if !missing.is_empty() {
            panic!(
                "campaign {:?}: {} of {} jobs unresolved:\n{}",
                self.name,
                missing.len(),
                self.records.len(),
                missing.join("\n")
            );
        }
        self.records
            .iter()
            .map(|r| r.result.clone().expect("checked above"))
            .collect()
    }

    /// Host-perf distributions over the jobs *executed* this run:
    /// per-job wall milliseconds and simulated cycles per host second.
    /// Both empty when everything came from the cache.
    pub fn host_perf(&self) -> (Histogram, Histogram) {
        let mut wall_ms = Histogram::new();
        let mut cps = Histogram::new();
        for r in self
            .records
            .iter()
            .filter(|r| r.source == JobSource::Executed)
        {
            wall_ms.record(r.wall.as_millis() as u64);
            cps.record(r.cycles_per_sec() as u64);
        }
        (wall_ms, cps)
    }

    /// The report as a JSON document (`emc-campaign-report-v1`).
    pub fn to_json(&self) -> JsonValue {
        let (wall_ms, cps) = self.host_perf();
        JsonValue::obj(vec![
            ("schema", REPORT_SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("total", (self.records.len() as u64).into()),
            ("cache_hits", (self.hits() as u64).into()),
            ("executed", (self.executed() as u64).into()),
            ("deferred", (self.deferred() as u64).into()),
            ("unresolved", (self.unresolved() as u64).into()),
            ("hit_rate", self.hit_rate().into()),
            ("wall_ms", (self.wall.as_millis() as u64).into()),
            (
                "host_perf",
                JsonValue::obj(vec![
                    ("job_wall_ms", HistSummary::of(&wall_ms).to_json_value()),
                    ("job_cycles_per_sec", HistSummary::of(&cps).to_json_value()),
                ]),
            ),
            (
                "jobs",
                JsonValue::Arr(
                    self.records
                        .iter()
                        .map(|r| {
                            JsonValue::obj(vec![
                                ("label", r.label.as_str().into()),
                                ("key", r.key.0.as_str().into()),
                                ("source", r.source.as_str().into()),
                                ("outcome", r.outcome.as_str().into()),
                                ("attempts", (r.attempts as u64).into()),
                                ("wall_ms", (r.wall.as_millis() as u64).into()),
                                ("cycles_per_sec", r.cycles_per_sec().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A named, ordered set of jobs to resolve.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Name — also the manifest file stem.
    pub name: String,
    /// The jobs, in presentation order.
    pub jobs: Vec<JobSpec>,
}

impl Campaign {
    /// Define a campaign.
    pub fn new(name: impl Into<String>, jobs: Vec<JobSpec>) -> Self {
        Campaign {
            name: name.into(),
            jobs,
        }
    }

    /// Run every job under `opts` and report how each resolved.
    pub fn run(&self, opts: &CampaignOptions) -> CampaignReport {
        let start = Instant::now();
        let root = opts.cache.as_ref().map(ResultCache::root);
        let rows = Manifest::rows_of(&self.jobs);
        let manifest = Manifest::open(root.filter(|_| opts.resume), &self.name, &rows);
        let failed_before: Vec<Option<String>> = manifest
            .entries
            .iter()
            .map(|e| (e.status == JobStatus::Failed).then(|| e.outcome.clone()))
            .collect();
        let manifest = Mutex::new(manifest);

        let done = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let fresh = AtomicUsize::new(0);
        let total = self.jobs.len();
        let executor =
            Executor::new(opts.cache.clone()).with_tag(format!("campaign {}", self.name));

        let records = parallel_map((0..total).collect::<Vec<usize>>(), opts.workers, |_, &i| {
            let job_start = Instant::now();
            let failed_before = failed_before[i].as_deref();
            let (key, _) = &rows[i];
            let mut record =
                resolve_one(&self.jobs[i], key, failed_before, &executor, opts, &fresh);
            record.wall = job_start.elapsed();

            // Journal a resolved job before reporting progress, so a kill
            // after this line never forgets completed work. Skipped and
            // deferred jobs leave their rows as they were.
            if matches!(record.source, JobSource::CacheHit | JobSource::Executed) {
                let mut m = manifest.lock().expect("manifest lock");
                m.entries[i].record(&record);
                if let Some(root) = root {
                    if let Err(e) = m.save(root) {
                        eprintln!("# campaign {}: {e}", self.name);
                    }
                }
            }

            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            let h = if record.source == JobSource::CacheHit {
                hits.fetch_add(1, Ordering::Relaxed) + 1
            } else {
                hits.load(Ordering::Relaxed)
            };
            if opts.progress {
                progress_line(&self.name, d, total, h, start.elapsed());
            }
            record
        });
        if opts.progress {
            eprintln!();
        }

        CampaignReport {
            name: self.name.clone(),
            records,
            wall: start.elapsed(),
        }
    }
}

/// Resolve one job (keyed `key`, its manifest row's key) per campaign
/// policy: a job that failed before (its row's outcome is
/// `failed_before`) is skipped unless retries are asked for; a cache hit
/// is taken; a miss executes unless the `max_fresh_runs` budget, which
/// only misses charge, is spent.
fn resolve_one(
    spec: &JobSpec,
    key: &JobKey,
    failed_before: Option<&str>,
    executor: &Executor,
    opts: &CampaignOptions,
    fresh: &AtomicUsize,
) -> JobRecord {
    if let Some(outcome) = failed_before.filter(|_| !opts.retry_failed) {
        let outcome = format!("skipped (previously failed: {outcome})");
        return JobRecord::new(spec, key, JobSource::SkippedFailed, outcome);
    }
    if let Some(hit) = executor.lookup(spec, key) {
        return hit;
    }
    if opts
        .max_fresh_runs
        .is_some_and(|limit| fresh.fetch_add(1, Ordering::Relaxed) >= limit)
    {
        let outcome = "deferred (fresh-run budget exhausted)".into();
        return JobRecord::new(spec, key, JobSource::Deferred, outcome);
    }
    executor.execute(spec, key)
}

/// Remaining-time estimate extrapolated from throughput so far: the
/// live-progress math shared by the `campaign` CLI's status line and
/// `campaignd`'s per-job progress events. `None` when nothing has
/// finished yet (no throughput to extrapolate) or everything has.
pub fn eta(done: usize, total: usize, elapsed: Duration) -> Option<Duration> {
    if done == 0 || done >= total {
        return None;
    }
    let per_job = elapsed.as_secs_f64() / done as f64;
    Some(Duration::from_secs_f64(per_job * (total - done) as f64))
}

/// One `\r`-terminated progress line: jobs done, hit count/rate, ETA
/// extrapolated from throughput so far.
fn progress_line(name: &str, done: usize, total: usize, hits: usize, elapsed: Duration) {
    let rate = if done > 0 {
        hits as f64 / done as f64 * 100.0
    } else {
        0.0
    };
    let eta = match eta(done, total, elapsed) {
        Some(d) => format!(" · eta {:.0}s", d.as_secs_f64()),
        None => String::new(),
    };
    eprint!("\r# campaign {name}: {done}/{total} · {hits} hits ({rate:.0}%){eta}        ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::SystemConfig;
    use emc_workloads::Benchmark;
    use std::path::PathBuf;

    fn tmpcache(tag: &str) -> ResultCache {
        let d: PathBuf =
            std::env::temp_dir().join(format!("emc-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        ResultCache::new(d)
    }

    fn tiny_quad(seed_bump: u64) -> SystemConfig {
        let mut cfg = SystemConfig::quad_core();
        cfg.seed ^= seed_bump;
        cfg
    }

    fn tiny_campaign(cache_tag: u64) -> Campaign {
        // Three distinct jobs (two workloads, two budgets); the seed
        // bump keeps each test's keys out of the others' cache dirs.
        Campaign::new(
            "engine-test",
            vec![
                JobSpec::homog(Benchmark::Mcf, tiny_quad(cache_tag), 400),
                JobSpec::homog(Benchmark::Lbm, tiny_quad(cache_tag), 400),
                JobSpec::homog(Benchmark::Mcf, tiny_quad(cache_tag), 500),
            ],
        )
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let cache = tmpcache("rerun");
        let root = cache.root().to_path_buf();
        let campaign = tiny_campaign(0);
        let opts = CampaignOptions {
            workers: 2,
            ..CampaignOptions::quiet(Some(cache))
        };

        let cold = campaign.run(&opts);
        assert_eq!(cold.executed(), 3);
        assert_eq!(cold.hits(), 0);
        let cold_results = cold.expect_completed();
        assert_eq!(cold_results.len(), 3);

        // Host-perf journaled: every executed row carries its cycles.
        let m = Manifest::load(&root, "engine-test").expect("manifest");
        for e in &m.entries {
            assert!(e.sim_cycles > 0, "{}: execution measured", e.label);
        }
        let cold_cycles: Vec<u64> = m.entries.iter().map(|e| e.sim_cycles).collect();

        let warm = campaign.run(&opts);
        assert_eq!(warm.hits(), 3, "everything cached");
        assert_eq!(warm.executed(), 0);
        assert!((warm.hit_rate() - 1.0).abs() < 1e-12);

        // The warm run's cache hits must not clobber the execution
        // measurements (attempts == 0 rows leave host-perf alone).
        let m = Manifest::load(&root, "engine-test").expect("manifest");
        let warm_cycles: Vec<u64> = m.entries.iter().map(|e| e.sim_cycles).collect();
        assert_eq!(cold_cycles, warm_cycles, "hits preserve host-perf");

        // Hits reproduce the executed statistics exactly.
        let warm_results = warm.expect_completed();
        for (a, b) in cold_results.iter().zip(&warm_results) {
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.ipcs, b.ipcs);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn interrupted_campaign_resumes_without_rerunning() {
        let cache = tmpcache("resume");
        let root = cache.root().to_path_buf();
        let campaign = tiny_campaign(1);

        // "Interrupt" after one fresh run.
        let interrupted = campaign.run(&CampaignOptions {
            workers: 1,
            max_fresh_runs: Some(1),
            ..CampaignOptions::quiet(Some(ResultCache::new(&root)))
        });
        assert_eq!(interrupted.executed(), 1);
        assert_eq!(interrupted.deferred(), 2);

        let m = Manifest::load(&root, "engine-test").expect("manifest persisted");
        assert_eq!(
            m.done_count(),
            1,
            "completed job journaled before interrupt"
        );

        // Resume: the completed job is a hit, only the remainder runs.
        let resumed = campaign.run(&CampaignOptions {
            workers: 1,
            ..CampaignOptions::quiet(Some(ResultCache::new(&root)))
        });
        assert_eq!(resumed.hits(), 1, "finished job not re-executed");
        assert_eq!(resumed.executed(), 2);
        resumed.expect_completed();
        let m = Manifest::load(&root, "engine-test").unwrap();
        assert_eq!(m.done_count(), 3);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn no_cache_means_every_job_executes() {
        let campaign = Campaign::new(
            "uncached",
            vec![JobSpec::homog(Benchmark::Mcf, tiny_quad(2), 300)],
        );
        let opts = CampaignOptions::quiet(None);
        let r1 = campaign.run(&opts);
        let r2 = campaign.run(&opts);
        assert_eq!(r1.executed() + r2.executed(), 2);
        assert_eq!(r1.hits() + r2.hits(), 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let cache = tmpcache("report");
        let root = cache.root().to_path_buf();
        let campaign = Campaign::new(
            "report-test",
            vec![JobSpec::homog(Benchmark::Lbm, tiny_quad(3), 300)],
        );
        let report = campaign.run(&CampaignOptions::quiet(Some(cache)));
        let doc = JsonValue::parse(&report.to_json().to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("total").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            doc.get("jobs")
                .and_then(|j| j.idx(0))
                .and_then(|j| j.get("source"))
                .and_then(|v| v.as_str()),
            Some("executed")
        );
        // Host-perf rides along: one executed job in the distribution,
        // and the per-job row carries a non-negative throughput.
        assert_eq!(
            doc.get("host_perf")
                .and_then(|h| h.get("job_wall_ms"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert!(
            doc.get("jobs")
                .and_then(|j| j.idx(0))
                .and_then(|j| j.get("cycles_per_sec"))
                .and_then(|v| v.as_f64())
                .is_some_and(|c| c >= 0.0),
            "executed job reports throughput"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn retry_policy_never_retries_deterministic_wedges() {
        // No wedge class retries, transient or not, classified or not:
        // the same seed wedges at the same cycle.
        let classes = [
            WedgeClass::McStarvation { mcs: vec![0] },
            WedgeClass::RingBackpressure { backlog: 2_000 },
            WedgeClass::SlowButLive,
            WedgeClass::EmcContextLeak {
                contexts: vec![(0, 1)],
            },
            WedgeClass::CoreDeadlock { cores: vec![2] },
        ];
        for class in classes.iter().map(Some).chain([None]) {
            assert_eq!(
                retry_decision(RunOutcome::Wedged, class, false),
                RetryDecision::Fail,
                "{class:?} would wedge again"
            );
        }
    }

    #[test]
    fn retry_policy_extends_cap_once_for_live_cap_hits() {
        let live = WedgeClass::SlowButLive;
        assert_eq!(
            retry_decision(RunOutcome::CapHit, Some(&live), false),
            RetryDecision::ExtendCap
        );
        assert_eq!(
            retry_decision(RunOutcome::CapHit, Some(&live), true),
            RetryDecision::Fail,
            "the extension is granted exactly once"
        );
        let dead = WedgeClass::CoreDeadlock { cores: vec![0] };
        assert_eq!(
            retry_decision(RunOutcome::CapHit, Some(&dead), false),
            RetryDecision::Fail,
            "a deadlocked cap hit gains nothing from more cycles"
        );
        assert_eq!(
            retry_decision(RunOutcome::CapHit, None, false),
            RetryDecision::Fail,
            "an unclassified cap hit is treated as deterministic"
        );
    }

    #[test]
    fn executor_is_reentrant_and_shared_across_threads() {
        let cache = tmpcache("executor");
        let root = cache.root().to_path_buf();
        let executor = Executor::new(Some(cache)).with_tag("executor-test");
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::homog(Benchmark::Mcf, tiny_quad(100 + i), 300))
            .collect();

        // One executor, four threads, concurrent `&self` resolves.
        let records: Vec<JobRecord> = std::thread::scope(|s| {
            specs
                .iter()
                .map(|spec| s.spawn(|| executor.resolve(spec, &spec.key())))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect()
        });
        for r in &records {
            assert_eq!(r.source, JobSource::Executed);
            assert!(r.result.is_some(), "{}: {}", r.label, r.outcome);
            assert!(r.wall > Duration::ZERO, "resolve measures its own wall");
        }

        // Second pass resolves from the cache.
        for spec in &specs {
            let r = executor.resolve(spec, &spec.key());
            assert_eq!(r.source, JobSource::CacheHit);
            assert_eq!(r.attempts, 0);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn skipping_a_failed_job_leaves_its_row_alone() {
        let cache = tmpcache("skip");
        let root = cache.root().to_path_buf();
        let campaign = Campaign::new(
            "skip-test",
            vec![JobSpec::homog(Benchmark::Mcf, tiny_quad(5), 300)],
        );
        let mut seeded = Manifest::fresh(&campaign.name, &Manifest::rows_of(&campaign.jobs));
        seeded.entries[0].status = JobStatus::Failed;
        seeded.entries[0].attempts = 3;
        seeded.entries[0].outcome = "wedged at cycle 5".into();
        seeded.save(&root).unwrap();

        for _ in 0..3 {
            let report = campaign.run(&CampaignOptions::quiet(Some(ResultCache::new(&root))));
            assert_eq!(report.records[0].source, JobSource::SkippedFailed);
            assert_eq!(
                report.records[0].outcome,
                "skipped (previously failed: wedged at cycle 5)"
            );
        }
        let row = &Manifest::load(&root, "skip-test").unwrap().entries[0];
        assert_eq!(row.status, JobStatus::Failed);
        assert_eq!(
            row.outcome, "wedged at cycle 5",
            "the reason is not re-wrapped"
        );
        assert_eq!(row.attempts, 3);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn eta_extrapolates_from_throughput() {
        assert_eq!(eta(0, 10, Duration::from_secs(5)), None, "no data yet");
        assert_eq!(eta(10, 10, Duration::from_secs(5)), None, "finished");
        assert_eq!(eta(3, 3, Duration::ZERO), None);
        // 4 done in 8s → 2s/job → 12s for the remaining 6.
        let e = eta(4, 10, Duration::from_secs(8)).expect("mid-flight");
        assert!((e.as_secs_f64() - 12.0).abs() < 1e-9);
    }
}
