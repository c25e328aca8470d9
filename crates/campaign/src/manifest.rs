//! Campaign manifests: per-job status that survives interrupts.
//!
//! A manifest records, for every job in a named campaign, its content
//! key and how its last attempt ended. The engine updates the manifest
//! after each job (atomic temp-file + rename, like the cache), so a
//! `figures all` killed at job 37 of 80 can restart, see 36 `done`
//! entries whose results are already in the cache, and only execute the
//! remainder. The campaign id is a digest of the ordered job keys: if
//! the job list changes (new budget, new grid, new code fingerprint),
//! the id changes and the stale manifest is discarded rather than
//! trusted.
//!
//! This module is also the one job ledger both schedulers keep — the
//! engine's [`Campaign::run`](crate::Campaign::run) and `campaignd`:
//! [`Manifest::open`] loads or starts a manifest, [`ManifestEntry::record`]
//! is the one rule for what a resolved job writes into its row, and
//! [`Tally`] is the one count of done / hits / executed / failed, kept
//! live from records or recomputed from rows.

use std::fs;
use std::path::{Path, PathBuf};

use emc_types::json::{read_tagged, schema, Reader};
use emc_types::{JsonValue, ToJson};

use crate::cache::write_atomic;
use crate::engine::JobRecord;
use crate::hash::digest128_hex;
use crate::spec::{JobKey, JobSpec};

/// Schema tag stamped into every manifest file.
pub const MANIFEST_SCHEMA: &str = "emc-campaign-manifest-v1";

/// The outcome note of a job resolved from the result cache — in
/// records, manifest rows and progress events alike.
pub const CACHE_HIT: &str = "cache-hit";

/// The outcome note of a job simulated to completion on its first
/// attempt.
pub const COMPLETED: &str = "completed";

emc_types::json_struct! {
    /// How far one job has progressed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JobStatus {
        /// Not yet attempted (or attempted in a run that died mid-job).
        Pending = "pending",
        /// Completed; its result is in the cache.
        Done = "done",
        /// Attempted and failed (wedge retries exhausted, or cap hit).
        Failed = "failed",
    }
}

emc_types::json_struct! {
    /// One job's manifest row.
    #[derive(Debug, Clone)]
    pub struct ManifestEntry {
        /// Content-addressed key (ties the row to a cache entry).
        pub key: JobKey,
        /// Display label at the time the campaign was defined.
        pub label: String,
        /// Last known status.
        pub status: JobStatus,
        /// Execution attempts so far (cache hits don't count).
        pub attempts: u32,
        /// Short outcome note ("completed", "cache-hit", "wedged at ...").
        pub outcome: String,
        /// Host wall-clock of the last *execution*, milliseconds. Zero for
        /// rows that never executed (or written before the column
        /// existed); preserved across cache-hit re-runs so the
        /// measurement survives warm replays.
        pub wall_ms: u64 = 0,
        /// Simulated cycles of the last execution (with [`Self::wall_ms`],
        /// gives host cycles/sec per job). Zero when never executed.
        pub sim_cycles: u64 = 0,
    }
}

impl ManifestEntry {
    /// Host throughput of the recorded execution, simulated cycles per
    /// second (0 when the row carries no measurement).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return 0.0;
        }
        self.sim_cycles as f64 / (self.wall_ms as f64 / 1e3)
    }

    /// The manifest-row rule: fold one resolved job (a cache hit or an
    /// execution) into its row. The status follows the result, attempts
    /// accumulate, the outcome is copied, and the host-perf columns are
    /// written only by executions — a warm re-run's cache hit keeps the
    /// original simulation measurement.
    pub fn record(&mut self, record: &JobRecord) {
        self.status = if record.result.is_some() {
            JobStatus::Done
        } else {
            JobStatus::Failed
        };
        self.attempts += record.attempts;
        self.outcome = record.outcome.clone();
        if record.attempts > 0 {
            self.wall_ms = record.wall.as_millis() as u64;
            self.sim_cycles = record.sim_cycles();
        }
    }
}

/// How many jobs resolved, and how: the one count behind a campaign's
/// status line, a `campaignd` job, tenant and service. Counted live with
/// [`add`](Tally::add) or recomputed from a manifest with
/// [`of`](Tally::of); the two agree because a row is what
/// [`ManifestEntry::record`] made of the same record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs resolved: `hits + executed + failed`.
    pub done: u64,
    /// Resolved from the result cache.
    pub hits: u64,
    /// Freshly simulated to completion.
    pub executed: u64,
    /// Resolved without a result.
    pub failed: u64,
}

impl Tally {
    /// Count one resolved record (a cache hit or an execution).
    pub fn add(&mut self, record: &JobRecord) {
        self.count(record.result.is_none(), &record.outcome);
    }

    /// Count the resolved rows of `manifest` (pending rows are not).
    pub fn of(manifest: &Manifest) -> Tally {
        let mut tally = Tally::default();
        for e in &manifest.entries {
            if e.status != JobStatus::Pending {
                tally.count(e.status == JobStatus::Failed, &e.outcome);
            }
        }
        tally
    }

    fn count(&mut self, failed: bool, outcome: &str) {
        self.done += 1;
        if failed {
            self.failed += 1;
        } else if outcome == CACHE_HIT {
            self.hits += 1;
        } else {
            self.executed += 1;
        }
    }
}

/// The persisted state of one named campaign.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Campaign name (also the file stem).
    pub name: String,
    /// Digest of the ordered job keys — identifies the job *list*.
    pub id: String,
    /// One row per job, in campaign order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The id of a job list: order-sensitive digest over the keys.
    pub fn id_of(keys: &[JobKey]) -> String {
        let joined: String = keys.iter().map(|k| k.0.as_str()).collect();
        digest128_hex(joined.as_bytes())
    }

    /// A fresh manifest with every job pending.
    pub fn fresh(name: &str, jobs: &[(JobKey, String)]) -> Manifest {
        Manifest {
            name: name.to_string(),
            id: Manifest::id_of(&jobs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()),
            entries: jobs
                .iter()
                .map(|(key, label)| ManifestEntry {
                    key: key.clone(),
                    label: label.clone(),
                    status: JobStatus::Pending,
                    attempts: 0,
                    outcome: String::new(),
                    wall_ms: 0,
                    sim_cycles: 0,
                })
                .collect(),
        }
    }

    /// The `(key, label)` row of each spec, in order: where a job list's
    /// keys are hashed, once, for its manifest and everything that
    /// resolves its jobs.
    pub fn rows_of(specs: &[JobSpec]) -> Vec<(JobKey, String)> {
        specs.iter().map(|s| (s.key(), s.label.clone())).collect()
    }

    /// The manifest `name` keeps for the jobs `jobs` ([`rows_of`]
    /// their specs): the one under `root` if it lists exactly these jobs
    /// (an interrupted run resuming), else a fresh one with every job
    /// pending. `None` means "start fresh".
    ///
    /// [`rows_of`]: Manifest::rows_of
    pub fn open(root: Option<&Path>, name: &str, jobs: &[(JobKey, String)]) -> Manifest {
        let fresh = Manifest::fresh(name, jobs);
        match root.and_then(|root| Manifest::load(root, name)) {
            Some(m) if m.id == fresh.id && m.entries.len() == jobs.len() => m,
            Some(_) => {
                eprintln!("# manifest {name}: job list changed; starting fresh");
                fresh
            }
            None => fresh,
        }
    }

    /// Where a campaign named `name` keeps its manifest, under the cache
    /// root.
    pub fn path_for(cache_root: &Path, name: &str) -> PathBuf {
        cache_root.join("manifests").join(format!("{name}.json"))
    }

    /// Load the manifest for `name` if one exists and is well-formed.
    /// Corrupt manifests are discarded (the cache still deduplicates any
    /// completed work, so losing a manifest costs lookups, not runs).
    pub fn load(cache_root: &Path, name: &str) -> Option<Manifest> {
        let path = Manifest::path_for(cache_root, name);
        let text = fs::read_to_string(&path).ok()?;
        match Manifest::from_json_text(&text) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!(
                    "# manifest: corrupt {} ({e}); starting fresh",
                    path.display()
                );
                None
            }
        }
    }

    /// Persist atomically under the cache root.
    pub fn save(&self, cache_root: &Path) -> Result<PathBuf, String> {
        let path = Manifest::path_for(cache_root, &self.name);
        write_atomic(&path, &self.encode()).map_err(|e| format!("manifest: {e}"))?;
        Ok(path)
    }

    /// The file text [`save`](Self::save) writes.
    pub fn encode(&self) -> String {
        let mut text = self.to_json().to_json();
        text.push('\n');
        text
    }

    /// Number of entries already `Done`.
    pub fn done_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status == JobStatus::Done)
            .count()
    }

    /// The manifest as a JSON document: the rows under `jobs`, behind
    /// the schema tag, the campaign's identity and two tallies for
    /// readers (`total`, `done`; both recomputed on load).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", MANIFEST_SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("id", self.id.as_str().into()),
            ("total", self.entries.len().into()),
            ("done", self.done_count().into()),
            ("jobs", self.entries.to_json_value()),
        ])
    }

    /// Parse a manifest document (inverse of [`Manifest::to_json`]) in
    /// one pass over its text; the tallies for readers are skipped.
    pub fn from_json_text(text: &str) -> Result<Manifest, String> {
        let body = Reader::read_all(text, |r| {
            read_tagged(r, ["schema"], ManifestBody::read_members, |_, got| {
                schema(got, MANIFEST_SCHEMA)
            })
        })?;
        Ok(Manifest {
            name: body.name,
            id: body.id,
            entries: body.jobs,
        })
    }
}

emc_types::json_struct! {
    /// What a manifest document holds that a [`Manifest`] keeps.
    struct ManifestBody {
        name: String,
        id: String,
        jobs: Vec<ManifestEntry>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSource::{self, CacheHit, Executed};

    fn tmproot(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("emc-manifest-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn keys(n: usize) -> Vec<(JobKey, String)> {
        (0..n)
            .map(|i| (JobKey(format!("{i:032x}")), format!("job{i}")))
            .collect()
    }

    /// A record that took 250 ms and, unless `cycles` is `None`, has a
    /// result of that many simulated cycles.
    fn record(source: JobSource, outcome: &str, attempts: u32, cycles: Option<u64>) -> JobRecord {
        let result = cycles.map(|cycles| {
            let mut stats = emc_types::Stats::new(1);
            stats.cycles = cycles;
            crate::RunResult {
                workload: "w".into(),
                prefetcher: "No-PF".into(),
                emc: false,
                stats,
                energy: Default::default(),
                ipcs: vec![1.0],
            }
        });
        JobRecord {
            label: "w".into(),
            key: JobKey("0".repeat(32)),
            source,
            outcome: outcome.into(),
            attempts,
            result,
            wall: std::time::Duration::from_millis(250),
        }
    }

    #[test]
    fn fresh_save_load_round_trips() {
        let root = tmproot("roundtrip");
        let mut m = Manifest::fresh("smoke", &keys(3));
        m.entries[1].record(&record(Executed, "completed", 1, Some(500_000)));
        m.save(&root).unwrap();

        let back = Manifest::load(&root, "smoke").expect("load saved manifest");
        assert_eq!(back.id, m.id);
        assert_eq!(back.entries.len(), 3);
        assert_eq!(back.entries[1].status, JobStatus::Done);
        assert_eq!(back.entries[1].attempts, 1);
        assert_eq!(back.entries[1].wall_ms, 250);
        assert_eq!(back.entries[1].sim_cycles, 500_000);
        assert!((back.entries[1].cycles_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert_eq!(back.entries[0].cycles_per_sec(), 0.0, "no measurement");
        assert_eq!(back.done_count(), 1);
        assert_eq!(back.entries[0].status, JobStatus::Pending);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pre_host_perf_manifests_still_parse() {
        // A v1 file written before wall_ms/sim_cycles existed: the
        // fields default to zero instead of failing the load.
        let text = format!(
            "{{\"schema\":\"{MANIFEST_SCHEMA}\",\"name\":\"old\",\"id\":\"abc\",\
             \"total\":1,\"done\":1,\"jobs\":[{{\"key\":\"{:032x}\",\"label\":\"j0\",\
             \"status\":\"done\",\"attempts\":2,\"outcome\":\"completed\"}}]}}",
            7
        );
        let m = Manifest::from_json_text(&text).expect("old manifest parses");
        assert_eq!(m.entries[0].attempts, 2);
        assert_eq!(m.entries[0].wall_ms, 0);
        assert_eq!(m.entries[0].sim_cycles, 0);

        // That is the only tolerance: a count that is not a count is a
        // corrupt manifest, not a zero.
        let err = Manifest::from_json_text(&text.replace("\"attempts\":2", "\"attempts\":-3"))
            .unwrap_err();
        assert!(err.starts_with(".jobs[0].attempts: expected u64"), "{err}");
    }

    #[test]
    fn id_depends_on_job_list_and_order() {
        let a = Manifest::fresh("a", &keys(3));
        let b = Manifest::fresh("a", &keys(4));
        assert_ne!(a.id, b.id, "different job lists");
        let mut rev = keys(3);
        rev.reverse();
        let c = Manifest::fresh("a", &rev);
        assert_ne!(a.id, c.id, "order matters: rows map to jobs by index");
    }

    #[test]
    fn corrupt_manifest_is_discarded() {
        let root = tmproot("corrupt");
        let m = Manifest::fresh("smoke", &keys(2));
        let path = m.save(&root).unwrap();
        fs::write(&path, "{broken").unwrap();
        assert!(Manifest::load(&root, "smoke").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_manifest_is_none() {
        assert!(Manifest::load(Path::new("/nonexistent-emc"), "nope").is_none());
    }

    #[test]
    fn one_row_rule_and_the_tally_it_implies() {
        let executed = record(Executed, "completed (attempt 2)", 2, Some(500_000));
        let hit = record(CacheHit, CACHE_HIT, 0, Some(7));
        let failed = record(Executed, "wedged at cycle 5", 3, None);

        let mut m = Manifest::fresh("rule", &keys(4));
        // An execution, then a warm re-run's hit: the row says "hit" but
        // keeps the execution's attempts and host-perf.
        m.entries[0].record(&executed);
        m.entries[0].record(&hit);
        let row = &m.entries[0];
        assert_eq!(row.status, JobStatus::Done);
        assert_eq!(row.outcome, CACHE_HIT);
        assert_eq!(
            (row.attempts, row.wall_ms, row.sim_cycles),
            (2, 250, 500_000)
        );
        m.entries[1].record(&executed);
        // No result is a failed row.
        m.entries[2].record(&failed);
        assert_eq!(m.entries[2].status, JobStatus::Failed);
        assert_eq!(m.entries[2].attempts, 3);

        // Row 3 stays pending and is in no count.
        let mut live = Tally::default();
        for r in [&hit, &executed, &failed] {
            live.add(r);
        }
        assert_eq!(
            live,
            Tally {
                done: 3,
                hits: 1,
                executed: 1,
                failed: 1
            }
        );
        assert_eq!(Tally::of(&m), live, "rows recount what records counted");
    }
}
