//! The service's answers through its public API, in process: admission
//! control, the tenant table, drain, what a finished job keeps, and the
//! resume of a job its manifest shows part-done.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use emc_campaign::{JobStatus, Manifest};
use emc_campaignd::{Service, ServiceConfig, FINISHED_JOBS_KEPT};
use emc_types::{JobState, JsonValue, SubmitRequest};

fn tmpcache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("emc-service-api-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn small_cfg(tag: &str) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_cap: 256,
        mark_cap: 4,
        age_ms: 10_000,
        default_budget: 300,
        cache_dir: tmpcache(tag),
    }
}

/// One narrowed submission: quad suite × No-PF × EMC off = 10 jobs.
fn small_request(tenant: &str) -> SubmitRequest {
    let mut req = SubmitRequest::new(tenant, "quad");
    req.prefetcher = Some("No-PF".into());
    req.emc = Some(false);
    req
}

#[test]
fn admission_control_rejects_with_structured_reason() {
    let mut cfg = small_cfg("admission");
    cfg.queue_cap = 15; // one 10-task job fits, a second cannot
    cfg.workers = 1;
    let cache_dir = cfg.cache_dir.clone();
    let svc = Service::new(cfg);
    // No workers started: the queue stays full.
    svc.submit(&small_request("alice")).expect("first fits");
    let (code, rej) = svc.submit(&small_request("bob")).unwrap_err();
    assert_eq!(code, 429);
    assert_eq!(rej.error, "queue-full");
    assert_eq!(rej.capacity, 15);
    assert!(rej.queue_depth >= 10);
    assert!(rej.detail.contains("capacity"));
    let _ = fs::remove_dir_all(cache_dir);
}

#[test]
fn rejected_submissions_leave_no_tenant_behind() {
    let mut cfg = small_cfg("tenants");
    cfg.queue_cap = 15;
    let cache_dir = cfg.cache_dir.clone();
    let svc = Service::new(cfg);
    svc.submit(&small_request("alice")).expect("first fits");
    for i in 0..100 {
        let (code, _) = svc.submit(&small_request(&format!("m{i}"))).unwrap_err();
        assert_eq!(code, 429);
    }
    let tenants: Vec<String> = svc.stats().tenants.into_iter().map(|t| t.tenant).collect();
    assert_eq!(tenants, ["alice"], "a 429 allocates nothing per name");
    let _ = fs::remove_dir_all(cache_dir);
}

#[test]
fn drain_rejects_submissions_and_stops_when_idle() {
    let cfg = small_cfg("drain");
    let cache_dir = cfg.cache_dir.clone();
    let svc = Service::new(cfg);
    let doc = svc.drain();
    assert!(matches!(doc.get("draining"), Some(JsonValue::Bool(true))));
    let (code, rej) = svc.submit(&small_request("alice")).unwrap_err();
    assert_eq!(code, 503);
    assert_eq!(rej.error, "draining");
    assert!(svc.stopped(), "idle drain stops immediately");
    let _ = fs::remove_dir_all(cache_dir);
}

#[test]
fn only_the_newest_finished_jobs_keep_their_event_streams() {
    let mut cfg = small_cfg("finished");
    cfg.queue_cap = 1_000;
    let cache_dir = cfg.cache_dir.clone();
    let svc = Service::new(cfg);
    let workers = svc.start_workers();
    // One at a time, so the jobs finish in id order.
    let jobs = FINISHED_JOBS_KEPT + 3;
    for _ in 0..jobs {
        svc.submit(&small_request("alice")).expect("admitted");
        assert!(svc.wait_all_jobs(Duration::from_secs(120)));
    }
    let mut kept = 0;
    for n in 1..=jobs {
        let id = format!("j{n}");
        // `status` answers as before for every job.
        let status = svc.status(&id).expect("job exists");
        assert_eq!(
            (status.state, status.done, status.total),
            (JobState::Done, 10, 10)
        );
        for since in [0, 4, 10, 12] {
            let batch = svc.events(&id, since, 0).expect("job exists");
            assert!(batch.complete, "{id}");
            if n > jobs - FINISHED_JOBS_KEPT {
                // Kept: the stream from every cursor.
                let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
                assert_eq!(seqs, (since + 1..=10).collect::<Vec<u64>>(), "{id}");
                assert_eq!(batch.next, since.max(10));
            } else {
                // Dropped: the answer of a job resumed complete.
                assert!(batch.events.is_empty(), "{id} kept its rows");
                assert_eq!(batch.next, since);
            }
        }
        kept += usize::from(!svc.events(&id, 0, 0).unwrap().events.is_empty());
    }
    assert_eq!(kept, FINISHED_JOBS_KEPT);
    svc.stop();
    for w in workers {
        w.join().unwrap();
    }
    let _ = fs::remove_dir_all(cache_dir);
}

#[test]
fn a_job_resumed_part_done_finishes_from_the_cache() {
    let cfg = small_cfg("part-done");
    let cache_dir = cfg.cache_dir.clone();
    // First life: j1 runs to completion and fills the cache.
    let svc = Service::new(cfg.clone());
    let workers = svc.start_workers();
    svc.submit(&small_request("alice")).expect("admitted");
    assert!(svc.wait_all_jobs(Duration::from_secs(120)));
    svc.stop();
    for w in workers {
        w.join().unwrap();
    }
    drop(svc);
    // Its manifest as a crash between throttled saves leaves it: the
    // first rows resolved, the rest still pending.
    let mut manifest = Manifest::load(&cache_dir, "svc-j1").expect("manifest");
    for e in &mut manifest.entries[4..] {
        e.status = JobStatus::Pending;
    }
    manifest.save(&cache_dir).unwrap();

    // Second life: j1 re-queues, resolves as pure hits, streams every
    // task once in order, and its manifest is whole again with the
    // first life's measurements kept.
    let svc = Service::new(cfg);
    assert_eq!(svc.status("j1").unwrap().state, JobState::Queued);
    let workers = svc.start_workers();
    assert!(svc.wait_all_jobs(Duration::from_secs(120)));
    let j1 = svc.status("j1").unwrap();
    assert_eq!(
        (j1.state, j1.done, j1.hits, j1.executed, j1.failed),
        (JobState::Done, 10, 10, 0, 0)
    );
    let batch = svc.events("j1", 0, 0).unwrap();
    assert!(batch.complete);
    let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
    assert_eq!(svc.stats().executed, 0, "resume re-executes nothing");
    let manifest = Manifest::load(&cache_dir, "svc-j1").expect("manifest");
    assert_eq!(manifest.done_count(), 10);
    assert!(manifest.entries.iter().all(|e| e.sim_cycles > 0));
    svc.stop();
    for w in workers {
        w.join().unwrap();
    }
    let _ = fs::remove_dir_all(cache_dir);
}
