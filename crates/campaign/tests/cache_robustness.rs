//! A corrupt cache entry is a miss, never a wrong hit and never a
//! crash. A real entry is damaged four ways: truncated, its `spec` echo
//! (a member the decoder skips) broken, that member nested far past
//! `MAX_DEPTH`, and bytes flipped. After the first three,
//! `ResultCache::load` returns a miss or the original result; after a
//! flip, what the entry's tree holds, as it did when every entry was
//! read through one.

use std::fs;
use std::path::PathBuf;

use emc_campaign::{
    code_fingerprint, run_result_from_json, run_result_to_json, JobKey, JobSpec, ResultCache,
    RunResult, CACHE_SCHEMA,
};
use emc_types::rng::for_each_case;
use emc_types::{JsonValue, SystemConfig};
use emc_workloads::Benchmark;

struct Entry {
    cache: ResultCache,
    spec: JobSpec,
    path: PathBuf,
    text: String,
    original: String,
}

impl Entry {
    fn new(tag: &str) -> Entry {
        let root =
            std::env::temp_dir().join(format!("emc-cache-robust-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let cache = ResultCache::new(root);
        let spec = JobSpec::homog(Benchmark::Mcf, SystemConfig::quad_core(), 300);
        let result = spec.to_result(spec.execute().stats);
        let path = cache.store(&spec, &result).expect("store");
        let text = fs::read_to_string(&path).expect("read back");
        let original = encoded(&result);
        Entry {
            cache,
            spec,
            path,
            text,
            original,
        }
    }

    /// What `load` answers once the entry's bytes are `bytes`.
    fn load(&self, bytes: &[u8]) -> Option<String> {
        fs::write(&self.path, bytes).expect("write the damaged entry");
        self.cache.load(&self.spec).map(|r| encoded(&r))
    }

    /// `load` answers a miss or the original result.
    fn check(&self, bytes: &[u8], what: &str) -> Option<String> {
        let got = self.load(bytes);
        if let Some(hit) = &got {
            assert_eq!(
                *hit, self.original,
                "{what}: a hit that is not the original"
            );
        }
        got
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(self.cache.root());
    }
}

fn encoded(r: &RunResult) -> String {
    run_result_to_json(r).to_json()
}

/// The entry check as it reads through a tree: parse, compare the tags,
/// decode the result.
fn through_tree(text: &str, key: &JobKey, label: &str) -> Option<String> {
    let doc = JsonValue::parse(text).ok()?;
    let tag = |k| doc.get(k).and_then(JsonValue::as_str).unwrap_or("");
    let tags_match = tag("schema") == CACHE_SCHEMA
        && tag("key") == key.0
        && tag("fingerprint") == code_fingerprint();
    let mut result = run_result_from_json(doc.get("result")?)
        .ok()
        .filter(|_| tags_match)?;
    result.workload = label.to_string();
    Some(encoded(&result))
}

#[test]
fn a_truncated_entry_is_a_miss() {
    let entry = Entry::new("truncate");
    let bytes = entry.text.as_bytes();
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        let got = entry.check(&bytes[..cut], &format!("cut at {cut}"));
        // Only the closing newline may go.
        assert_eq!(got.is_some(), cut == bytes.len() - 1, "cut at {cut}");
    }
}

#[test]
fn a_flipped_byte_reads_as_its_tree_reads() {
    let entry = Entry::new("flip");
    let key = entry.spec.key();
    let mut misses = 0;
    for_each_case(0xf11b, 400, |rng| {
        let mut bytes = entry.text.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len() as u64) as usize;
        let was = bytes[at];
        bytes[at] ^= rng.gen_range(1..256) as u8;
        let what = format!("byte {at} {:?} -> {:?}", was as char, bytes[at] as char);
        // A flip can make another valid entry (a digit changed, two
        // buckets run together by a lost comma) that no reader can tell
        // from the original: the text must read as its tree reads.
        let want = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| through_tree(text, &key, &entry.spec.label));
        let got = entry.load(&bytes);
        assert_eq!(got, want, "{what}");
        misses += usize::from(got.is_none());
    });
    assert!(misses > 0, "no flip broke the entry");
}

#[test]
fn a_broken_spec_echo_is_a_miss() {
    let entry = Entry::new("spec");
    let spec = entry.spec.canonical_json().to_json();
    let at = entry.text.find(&spec).expect("the entry echoes its spec");
    let (head, tail) = (&entry.text[..at], &entry.text[at + spec.len()..]);
    assert!(entry.check(entry.text.as_bytes(), "intact").is_some());
    for_each_case(0x5bec, 64, |rng| {
        // Cut the echo short and close it as if it were whole.
        let cut = rng.gen_range(1..spec.len() as u64) as usize;
        let broken = format!("{head}{}{tail}", &spec[..cut]);
        assert_eq!(
            entry.check(broken.as_bytes(), &format!("cut at {cut}")),
            None
        );
    });
    // Nested past MAX_DEPTH, and balanced: a skipped member is still
    // bounded, so this is a miss, not a stack overflow.
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    let nested = format!("{head}{deep}{tail}");
    assert_eq!(entry.check(nested.as_bytes(), "nested"), None);
    let open = format!("{head}{}{tail}", "[".repeat(200_000));
    assert_eq!(entry.check(open.as_bytes(), "unclosed"), None);
}
