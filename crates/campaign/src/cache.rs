//! Content-addressed on-disk result cache.
//!
//! Completed [`RunResult`]s are stored once under
//! `<root>/<first two hex chars>/<key>.json` (sharding keeps any single
//! directory small even for thousand-job campaigns). Writes go through
//! [`write_atomic`], so a crash, an interrupt or a second writer of the
//! same key can never leave a truncated entry behind — at worst the
//! entry is absent and the job re-runs. Corrupt or schema-mismatched
//! entries are treated as misses and overwritten on the next store
//! (self-healing), never as hard errors.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use emc_types::json::{read_tagged, schema, Reader};
use emc_types::JsonValue;

use crate::spec::{code_fingerprint, run_result_to_json, JobKey, JobSpec, RunResult};

/// Schema tag stamped into every cache entry.
pub const CACHE_SCHEMA: &str = "emc-campaign-cache-v1";

/// Default cache root, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Publish `text` at `path` all at once: written in full to a temp file
/// beside it, then renamed over it, the directory created on the way.
/// The temp file's name is this writer's own (process id and a
/// process-wide count), so writers of one path, in one process or
/// several, never share one; the last rename wins and every reader sees
/// some writer's whole text. The error says which step failed, for the
/// caller to put its name in front of.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().expect("published path has a parent");
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name = path.file_name().expect("published path has a file name");
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// A content-addressed store of completed run results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Open (lazily — no I/O happens until the first store) a cache
    /// rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultCache { root: root.into() }
    }

    /// The cache rooted at [`DEFAULT_CACHE_DIR`].
    pub fn default_dir() -> Self {
        ResultCache::new(DEFAULT_CACHE_DIR)
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where `key`'s entry lives (whether or not it exists yet).
    pub fn path_of(&self, key: &JobKey) -> PathBuf {
        let shard = &key.0[..2];
        self.root.join(shard).join(format!("{key}.json"))
    }

    /// Look up a completed result. `Ok(None)` covers both a genuine miss
    /// and an unreadable/corrupt/mismatched entry (logged to stderr);
    /// the caller re-runs the job and the next store repairs the file.
    /// On a hit the result's workload label is rewritten to the
    /// requesting spec's label — labels are presentation, not identity.
    pub fn load(&self, spec: &JobSpec) -> Option<RunResult> {
        self.load_keyed(spec, &spec.key())
    }

    /// [`load`](Self::load) for a caller that already holds `spec`'s
    /// key, which must be `spec.key()`.
    pub fn load_keyed(&self, spec: &JobSpec, key: &JobKey) -> Option<RunResult> {
        let path = self.path_of(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "# cache: unreadable {} ({e}); treating as miss",
                    path.display()
                );
                return None;
            }
        };
        match decode_entry(&text, key) {
            Ok(mut result) => {
                result.workload = spec.label.clone();
                Some(result)
            }
            Err(e) => {
                eprintln!(
                    "# cache: corrupt {} ({e}); treating as miss",
                    path.display()
                );
                None
            }
        }
    }

    /// Store a completed result under `spec`'s key, atomically
    /// ([`write_atomic`]). Returns the final path.
    pub fn store(&self, spec: &JobSpec, result: &RunResult) -> Result<PathBuf, String> {
        self.store_keyed(spec, &spec.key(), result)
    }

    /// [`store`](Self::store) for a caller that already holds `spec`'s
    /// key, which must be `spec.key()`.
    pub fn store_keyed(
        &self,
        spec: &JobSpec,
        key: &JobKey,
        result: &RunResult,
    ) -> Result<PathBuf, String> {
        let path = self.path_of(key);
        let doc = JsonValue::obj(vec![
            ("schema", CACHE_SCHEMA.into()),
            ("key", key.0.as_str().into()),
            ("fingerprint", code_fingerprint().into()),
            // The spec echo makes entries self-describing for `campaign
            // status` and humans; identity still lives in the key.
            ("spec", spec.canonical_json()),
            ("result", run_result_to_json(result)),
        ]);
        let mut text = doc.to_json();
        text.push('\n');
        write_atomic(&path, &text).map_err(|e| format!("cache: {e}"))?;
        Ok(path)
    }

    /// Count entries on disk (for `campaign stats`). Missing root counts
    /// as zero.
    pub fn entry_count(&self) -> usize {
        let Ok(shards) = fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .flatten()
            .filter(|d| d.path().is_dir() && d.file_name() != "manifests")
            .filter_map(|d| fs::read_dir(d.path()).ok())
            .flat_map(|rd| rd.flatten())
            .filter(|f| f.path().extension().is_some_and(|x| x == "json"))
            .count()
    }
}

emc_types::json_struct! {
    /// A cache entry past its tags: the result. The spec echo is skipped.
    struct EntryBody {
        result: RunResult,
    }
}

/// Decode and validate one cache entry against the key we expect, in
/// one pass over its text: the tags are read, the result decoded and
/// the spec echo skipped.
fn decode_entry(text: &str, key: &JobKey) -> Result<RunResult, String> {
    let fingerprint = code_fingerprint();
    let tags = ["schema", "key", "fingerprint"];
    let body = Reader::read_all(text, |r| {
        read_tagged(r, tags, EntryBody::read_members, |tag, got| match tag {
            0 => schema(got, CACHE_SCHEMA),
            1 if got != key.0 => Err(format!("key mismatch: entry says {got:?}")),
            // Unreachable through `load` (the fingerprint is inside the
            // hashed spec, so a different fingerprint yields a different
            // path), but a copied-in entry from another build must not pass.
            2 if got != fingerprint => Err(format!("fingerprint {got:?} from a different build")),
            _ => Ok(()),
        })
    })?;
    Ok(body.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_types::{Stats, SystemConfig};
    use emc_workloads::Benchmark;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("emc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn spec() -> JobSpec {
        JobSpec::homog(Benchmark::Mcf, SystemConfig::quad_core(), 500)
    }

    fn result_for(spec: &JobSpec) -> RunResult {
        let mut stats = Stats::new(spec.cfg.cores);
        stats.cycles = 4242;
        stats.mem.core_miss_latency.record(321);
        spec.to_result(stats)
    }

    #[test]
    fn store_then_load_round_trips_and_is_byte_stable() {
        let cache = ResultCache::new(tmpdir("roundtrip"));
        let spec = spec();
        let result = result_for(&spec);

        assert!(cache.load(&spec).is_none(), "cold cache misses");
        let path = cache.store(&spec, &result).unwrap();
        let first = fs::read(&path).unwrap();

        let hit = cache.load(&spec).expect("warm cache hits");
        assert_eq!(hit.stats.cycles, 4242);
        assert_eq!(hit.workload, spec.label);

        // Re-storing the same result writes byte-identical content.
        cache.store(&spec, &result).unwrap();
        assert_eq!(fs::read(&path).unwrap(), first);
        assert_eq!(cache.entry_count(), 1);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn a_simulated_entry_parses_and_re_encodes_to_its_bytes() {
        let cache = ResultCache::new(tmpdir("reencode"));
        let spec = JobSpec::homog(Benchmark::Mcf, SystemConfig::quad_core(), 300);
        let result = spec.to_result(spec.execute().stats);
        let text = fs::read_to_string(cache.store(&spec, &result).unwrap()).unwrap();
        let doc = JsonValue::parse(&text).expect("entry parses");
        assert_eq!(doc.to_json() + "\n", text);
        let hit = cache.load(&spec).expect("warm cache hits");
        assert_eq!(run_result_to_json(&hit), run_result_to_json(&result));
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn hit_rewrites_label_from_requesting_spec() {
        let cache = ResultCache::new(tmpdir("label"));
        let spec = spec();
        cache.store(&spec, &result_for(&spec)).unwrap();
        let renamed = spec.clone().with_label("figure-7-baseline");
        let hit = cache.load(&renamed).expect("same key despite new label");
        assert_eq!(hit.workload, "figure-7-baseline");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let cache = ResultCache::new(tmpdir("corrupt"));
        let spec = spec();
        cache.store(&spec, &result_for(&spec)).unwrap();
        let path = cache.path_of(&spec.key());

        fs::write(&path, "{not json").unwrap();
        assert!(cache.load(&spec).is_none(), "garbage is a miss");

        fs::write(&path, "{\"schema\":\"something-else\"}").unwrap();
        assert!(cache.load(&spec).is_none(), "wrong schema is a miss");

        // A store after corruption repairs the entry.
        cache.store(&spec, &result_for(&spec)).unwrap();
        assert!(cache.load(&spec).is_some());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entries_are_sharded_by_key_prefix() {
        let cache = ResultCache::new(tmpdir("shard"));
        let key = spec().key();
        let path = cache.path_of(&key);
        assert_eq!(
            path.parent()
                .unwrap()
                .file_name()
                .unwrap()
                .to_str()
                .unwrap(),
            &key.0[..2]
        );
        let _ = fs::remove_dir_all(cache.root());
    }
}
