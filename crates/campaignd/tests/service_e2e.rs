//! End-to-end service test, in-process: the ISSUE-9 acceptance
//! scenario. Three tenants queue 1000+ tasks onto a 4-worker pool,
//! the daemon is killed mid-run (abrupt stop, workers abandoned, jobs
//! part-resolved and most of the flood still queued), and a fresh
//! service instance over the same cache directory resumes every
//! journaled job without re-executing a single simulation. Along the
//! way: per-tenant queue waits stay bounded by the aging threshold,
//! and `/v1/stats` agrees with the manifests on disk (hit counts,
//! executed counts, latency percentiles).
//!
//! The cross-process variant of this scenario (release binary, real
//! sockets, `kill -9`) runs in CI as the `campaignd-smoke` job; this
//! test keeps the same logic fast and deterministic under `cargo test`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use emc_campaign::Manifest;
use emc_campaignd::{Service, ServiceConfig};
use emc_types::{Histogram, JobState, SubmitRequest};

const WORKERS: usize = 4;
const AGE_MS: u64 = 2_000;
const BUDGET: u64 = 250;
/// Tasks per submission: the quad suite narrowed to (No-PF, EMC off)
/// is 10 configs, repeated 3× with bumped seeds.
const TASKS_PER_JOB: u64 = 30;
/// Identical flood submissions per tenant (same keys every time).
const FLOOD_PER_TENANT: usize = 12;

fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emc-service-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(cache_dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_cap: 4096,
        mark_cap: 4,
        age_ms: AGE_MS,
        default_budget: BUDGET,
        cache_dir: cache_dir.to_path_buf(),
    }
}

/// The shared grid every submission in this test expands to: same
/// suite, same narrowing, same repeat/seed — so every tenant's tasks
/// resolve to the same 30 cache keys.
fn shared_request(tenant: &str) -> SubmitRequest {
    let mut req = SubmitRequest::new(tenant, "quad");
    req.prefetcher = Some("No-PF".into());
    req.emc = Some(false);
    req.repeat = 3;
    req
}

#[test]
fn three_tenants_thousand_tasks_kill_and_resume() {
    let cache_dir = tmp_cache();
    let tenants = ["alice", "bob", "carol"];

    // ---------------- Life 1: warm up ----------------
    let svc = Service::new(cfg(&cache_dir));
    let workers = svc.start_workers();

    // Alice's first submission executes all 30 unique specs cold.
    let warmup = svc.submit(&shared_request("alice")).expect("admitted");
    assert_eq!(warmup.total, TASKS_PER_JOB);
    assert!(svc.wait_all_jobs(Duration::from_secs(120)), "warmup drains");

    // Stats vs. manifest, cold side: everything executed, nothing hit,
    // and the latency percentiles in /v1/stats are the same numbers the
    // manifest's host-perf columns hold.
    let stats1 = svc.stats();
    assert_eq!(stats1.executed, TASKS_PER_JOB);
    assert_eq!(stats1.hits, 0);
    assert_eq!(stats1.hit_rate, 0.0);
    assert_eq!(stats1.task_wall_ms.count, TASKS_PER_JOB, "executed only");
    let m1 = Manifest::load(&cache_dir, &format!("svc-{}", warmup.id)).expect("warmup manifest");
    let mut manifest_wall = Histogram::new();
    for e in m1.entries.iter().filter(|e| e.sim_cycles > 0) {
        manifest_wall.saturating_record(e.wall_ms);
    }
    assert_eq!(manifest_wall.count, TASKS_PER_JOB);
    assert_eq!(stats1.task_wall_ms.p50, manifest_wall.p50(), "p50 agrees");
    assert_eq!(stats1.task_wall_ms.p95, manifest_wall.p95(), "p95 agrees");
    assert!(stats1.mcycles_per_sec > 0.0);

    svc.stop();
    for w in workers {
        let _ = w.join();
    }
    drop(svc);

    // ---------------- Life 2: flood, die mid-run ----------------
    // Flood: 36 identical submissions across three tenants — 1080
    // tasks, every one a cache hit of the warmed 30 keys. With the
    // warmup job that is 1110 tasks queued through the service. All of
    // it is admitted before the workers start, so the kill below lands
    // mid-run however fast four workers drain cache hits.
    let svc = Service::new(cfg(&cache_dir));
    let mut flood_ids = Vec::new();
    for _ in 0..FLOOD_PER_TENANT {
        for tenant in tenants {
            let ack = svc.submit(&shared_request(tenant)).expect("admitted");
            flood_ids.push(ack.id);
        }
    }
    let total_jobs = 1 + flood_ids.len() as u64;
    let total_tasks = total_jobs * TASKS_PER_JOB;
    assert!(total_tasks >= 1_000, "acceptance floor: {total_tasks}");
    let workers = svc.start_workers();

    // Kill mid-run: as soon as the first flood job resolves a task,
    // abrupt stop, like the process dying, with workers mid-task. The
    // journal (written before every ack) is the only thing resume gets
    // to rely on.
    let first = &flood_ids[0];
    while svc
        .events(first, 0, 10_000)
        .expect("first flood job")
        .events
        .is_empty()
    {}
    svc.stop();
    for w in workers {
        let _ = w.join();
    }
    let depth_at_kill = svc.stats().queue_depth;
    assert!(depth_at_kill > 0, "flood must still be queued at the kill");
    let done_at_kill: Vec<u64> = flood_ids
        .iter()
        .map(|id| svc.status(id).expect("flood job").done)
        .collect();
    assert!(done_at_kill[0] > 0, "the kill lands after the first event");
    assert!(
        done_at_kill
            .iter()
            .any(|&done| done > 0 && done < TASKS_PER_JOB),
        "some flood job is part-resolved at the kill: {done_at_kill:?}"
    );
    drop(svc);

    // ---------------- Life 3: resume, drain, reconcile ----------------
    let svc = Service::new(cfg(&cache_dir));
    let workers = svc.start_workers();
    assert!(
        svc.wait_all_jobs(Duration::from_secs(120)),
        "resumed backlog drains"
    );

    // No re-execution: every unique key was cached in life 1, so the
    // second life resolves its whole backlog from the cache.
    let stats2 = svc.stats();
    assert_eq!(stats2.executed, 0, "resume must not re-execute");
    assert_eq!(stats2.failed, 0);
    assert_eq!(stats2.task_wall_ms.count, 0, "no fresh simulations");
    assert_eq!(stats2.jobs, total_jobs);
    assert_eq!(stats2.jobs_done, total_jobs);
    if stats2.tasks_done > 0 {
        assert_eq!(stats2.hit_rate, 1.0, "life 2 is pure cache hits");
    }

    // Every job — warmup and flood, whichever life finished it — is
    // Done, and its event stream reports complete.
    for id in std::iter::once(&warmup.id).chain(&flood_ids) {
        let view = svc.status(id).unwrap_or_else(|| panic!("status of {id}"));
        assert_eq!(view.state, JobState::Done, "{id}");
        assert_eq!(view.total, TASKS_PER_JOB);
        assert_eq!(view.done, TASKS_PER_JOB);
        assert_eq!(view.failed, 0);
        let batch = svc
            .events(id, 0, 0)
            .unwrap_or_else(|| panic!("events of {id}"));
        assert!(batch.complete, "{id} stream must be closed");
        // Streams from re-run jobs are gap-free and ordered.
        for (i, ev) in batch.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64 + 1, "{id} event order");
        }
    }

    // Fairness: no tenant's queue wait ever exceeded the aging
    // threshold plus scheduling slack (escalation rescues a starving
    // head within one service round).
    let slack_ms = 10_000;
    let names: Vec<&str> = stats2.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(names, tenants, "all three tenants accounted for");
    for t in &stats2.tenants {
        assert!(
            t.max_wait_ms <= AGE_MS + slack_ms,
            "tenant {} waited {}ms (cap {}ms)",
            t.tenant,
            t.max_wait_ms,
            AGE_MS + slack_ms
        );
    }

    // Manifests on disk reconcile with the service's view: one fully
    // resolved manifest per job, 1110 rows total, and the executed
    // provenance (host-perf rows) still exactly the 30 cold runs.
    let mut manifest_rows = 0u64;
    let mut measured_rows = 0u64;
    for id in std::iter::once(&warmup.id).chain(&flood_ids) {
        let m = Manifest::load(&cache_dir, &format!("svc-{id}"))
            .unwrap_or_else(|| panic!("manifest svc-{id}"));
        assert_eq!(m.done_count(), m.entries.len(), "svc-{id} fully resolved");
        manifest_rows += m.entries.len() as u64;
        measured_rows += m.entries.iter().filter(|e| e.sim_cycles > 0).count() as u64;
    }
    assert_eq!(manifest_rows, total_tasks);
    assert_eq!(
        measured_rows, TASKS_PER_JOB,
        "exactly the warmup rows carry host-perf; hits never overwrite them"
    );

    svc.stop();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
