//! Concurrency property of the content-addressed result cache: two
//! executors resolving the *same* spec at the same time — the exact
//! shape two campaignd tenants produce when they submit overlapping
//! suites — must converge on one cache entry with byte-identical
//! content, never a torn or duplicated file. The cache's atomic
//! temp-file + rename writes make the race benign: both sides may
//! execute, but the loser's rename lands the same bytes (simulation is
//! deterministic per key), and every later resolve is a hit.

use std::sync::{Arc, Barrier};

use emc_campaign::{Executor, JobSource, JobSpec, ResultCache};
use emc_types::SystemConfig;
use emc_workloads::mix_by_name;

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emc-concurrent-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(seed: u64) -> JobSpec {
    let mut cfg = SystemConfig::quad_core();
    cfg.seed = seed;
    JobSpec::mix("H1", mix_by_name("H1").unwrap(), cfg, 300)
}

#[test]
fn racing_executors_converge_on_one_byte_identical_entry() {
    let dir = tmp_cache("race");
    let spec = small_spec(0xcafe);
    let key = spec.key();

    // Two independent Executor instances (distinct ResultCache handles,
    // same directory), released through a barrier to maximize overlap.
    let barrier = Arc::new(Barrier::new(2));
    let records: Vec<_> = (0..2)
        .map(|i| {
            let dir = dir.clone();
            let (spec, key) = (spec.clone(), key.clone());
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let exec = Executor::new(Some(ResultCache::new(&dir))).with_tag(format!("t{i}"));
                barrier.wait();
                exec.resolve(&spec, &key)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("racer panicked"))
        .collect();

    // Both resolve successfully; at most one *needed* to execute, but
    // even a double-execution must agree (deterministic simulation).
    for r in &records {
        assert!(r.result.is_some(), "racer failed: {}", r.outcome);
        assert_eq!(r.key, key);
    }

    // Exactly one entry on disk.
    let cache = ResultCache::new(&dir);
    assert_eq!(
        cache.entry_count(),
        1,
        "the race must not duplicate entries"
    );
    let path = cache.path_of(&key);
    let bytes = std::fs::read(&path).expect("entry exists at the content address");
    assert!(!bytes.is_empty());

    // A third resolve is a pure hit whose stored bytes are untouched.
    let exec = Executor::new(Some(ResultCache::new(&dir)));
    let replay = exec.resolve(&spec, &key);
    assert_eq!(replay.source, JobSource::CacheHit);
    let bytes_after = std::fs::read(&path).unwrap();
    assert_eq!(bytes, bytes_after, "a hit must never rewrite the entry");

    // The hit's payload equals what the racers computed.
    let winner = records[0].result.as_ref().unwrap();
    let replayed = replay.result.as_ref().unwrap();
    assert_eq!(
        emc_campaign::run_result_to_json(winner).to_json(),
        emc_campaign::run_result_to_json(replayed).to_json(),
        "cached result must be byte-identical to the computed one"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_racers_over_a_small_spec_pool_stay_consistent() {
    let dir = tmp_cache("pool");
    // 8 threads over 3 distinct specs: every spec is raced by at least
    // two threads, exercising store/load interleavings beyond pairs.
    let specs: Vec<JobSpec> = (0..3).map(|i| small_spec(0x1000 + i)).collect();
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let dir = dir.clone();
            let spec = specs[i % specs.len()].clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let exec = Executor::new(Some(ResultCache::new(&dir)));
                barrier.wait();
                exec.resolve(&spec, &spec.key())
            })
        })
        .collect();
    let records: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("racer panicked"))
        .collect();

    for r in &records {
        assert!(r.result.is_some(), "racer failed: {}", r.outcome);
    }
    let cache = ResultCache::new(&dir);
    assert_eq!(cache.entry_count(), specs.len());

    // Every spec's stored entry round-trips to the same result all its
    // racers returned.
    for spec in &specs {
        let stored = cache.load(spec).expect("entry for every raced spec");
        let stored_json = emc_campaign::run_result_to_json(&stored).to_json();
        for r in records.iter().filter(|r| r.key == spec.key()) {
            assert_eq!(
                emc_campaign::run_result_to_json(r.result.as_ref().unwrap()).to_json(),
                stored_json
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two workers that simulated the same spec store it at the same time,
/// over and over, beside a reader: no store fails, the published path
/// never holds anything but the whole entry, and no load takes the
/// present entry for a miss.
#[test]
fn concurrent_stores_of_one_key_never_publish_a_torn_entry() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = tmp_cache("same-key");
    let spec = small_spec(0xbeef);
    let mut stats = emc_types::Stats::new(spec.cfg.cores);
    stats.cycles = 4242;
    let result = spec.to_result(stats);
    let cache = ResultCache::new(&dir);
    let path = cache.store(&spec, &result).expect("first store");
    let entry = std::fs::read(&path).unwrap();

    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    let (store_errors, torn_reads, misses) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let errors = (0..1_500)
                        .filter(|_| cache.store(&spec, &result).is_err())
                        .count();
                    done.store(true, Ordering::Release);
                    errors
                })
            })
            .collect();
        let (mut torn, mut misses) = (0, 0);
        start.wait();
        while !done.load(Ordering::Acquire) {
            torn += usize::from(std::fs::read(&path).ok().as_deref() != Some(&entry[..]));
            misses += usize::from(cache.load(&spec).is_none());
        }
        let errors: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (errors, torn, misses)
    });
    assert_eq!(
        (store_errors, torn_reads, misses),
        (0, 0, 0),
        "(store errors, torn reads of the published path, loads that missed)"
    );
    assert_eq!(std::fs::read(&path).unwrap(), entry);
    assert_eq!(cache.entry_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
