//! An in-process `campaignd` behind a real socket, and the closed-loop
//! client both service workloads drive it with.

use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::Instant;

use emc_campaign::{Client, ClientError, JobSpec, ResultCache};
use emc_campaignd::{expand_request, Service, ServiceConfig};
use emc_types::SubmitRequest;

use crate::TempDir;

/// Service workers, and client connections: two of each, or one on a
/// one-core host, so the load never asks for more threads than cores.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// A running service on a fresh, empty cache directory.
pub struct Harness {
    svc: Service,
    addr: String,
    threads: Vec<JoinHandle<()>>,
    dir: TempDir,
}

impl Harness {
    pub fn start(tag: &str) -> Harness {
        let dir = TempDir::new(tag);
        let svc = Service::new(ServiceConfig {
            workers: parallelism(),
            cache_dir: dir.path().to_path_buf(),
            ..ServiceConfig::default()
        });
        let mut threads = svc.start_workers();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = svc.clone();
        threads.push(std::thread::spawn(move || server.serve(listener)));
        Harness {
            svc,
            addr,
            threads,
            dir,
        }
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    pub fn service(&self) -> &Service {
        &self.svc
    }

    pub fn cache(&self) -> ResultCache {
        ResultCache::new(self.dir.path())
    }

    /// Stop the workers and the accept loop, wait for them, and remove
    /// the cache directory.
    pub fn stop(self) {
        self.svc.stop();
        for t in self.threads {
            t.join().expect("service thread panicked");
        }
    }
}

/// The concrete cells a submission expands to, in the service's order.
pub fn specs_of(req: &SubmitRequest) -> Vec<JobSpec> {
    expand_request(req, ServiceConfig::default().default_budget)
        .expect("pinned submission expands")
        .1
}

/// Remove the cache entries of the cells `reqs` expand to, so that the
/// service simulates them again on the next submission. Evicting
/// between operations, on one long-lived service, keeps the simulator's
/// large allocations on the same two worker threads for a whole run; a
/// fresh service per operation scattered them over the allocator's
/// arenas and made peak memory a matter of luck (111-155 MB over ten
/// runs of `fig12_cold`).
pub fn evict(cache: &ResultCache, reqs: &[SubmitRequest]) {
    for spec in reqs.iter().flat_map(specs_of) {
        let _ = std::fs::remove_file(cache.path_of(&spec.key()));
    }
}

/// One job as its client saw it. Times are milliseconds.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub id: String,
    /// Seconds from `epoch` at which the submit was sent / the job was
    /// seen complete.
    pub start_s: f64,
    pub end_s: f64,
    pub submit_ms: f64,
    /// Round trip of each `events` long-poll, in order.
    pub polls_ms: Vec<f64>,
    pub total: u64,
    pub hits: u64,
    pub failed: u64,
}

impl JobRun {
    pub fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }

    /// Tasks the service simulated for this job.
    pub fn executed(&self) -> u64 {
        self.total - self.hits - self.failed
    }
}

/// Submit `req` and long-poll its event stream until the job is
/// complete: one closed-loop operation.
pub fn run_job(
    client: &Client,
    req: &SubmitRequest,
    epoch: Instant,
) -> Result<JobRun, ClientError> {
    let start = Instant::now();
    let ack = client.submit(req)?;
    let submit_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut polls_ms = Vec::new();
    let (mut since, mut hits, mut failed) = (0, 0, 0);
    loop {
        let poll = Instant::now();
        let batch = client.events(&ack.id, since, 10_000)?;
        polls_ms.push(poll.elapsed().as_secs_f64() * 1e3);
        since = batch.next;
        if let Some(last) = batch.events.last() {
            (hits, failed) = (last.hits, last.failed);
        }
        if batch.complete {
            break;
        }
    }
    Ok(JobRun {
        id: ack.id,
        start_s: (start - epoch).as_secs_f64(),
        end_s: epoch.elapsed().as_secs_f64(),
        submit_ms,
        polls_ms,
        total: ack.total,
        hits,
        failed,
    })
}

/// Run `body` for each of `reqs` at once, one client thread per request.
fn per_tenant<T: Send>(
    reqs: &[SubmitRequest],
    body: impl Fn(&SubmitRequest) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = reqs.iter().map(|r| s.spawn(|| body(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Run each of `reqs` once, concurrently.
pub fn run_jobs_once(
    client: &Client,
    reqs: &[SubmitRequest],
    epoch: Instant,
) -> Vec<Result<JobRun, ClientError>> {
    per_tenant(reqs, |r| run_job(client, r, epoch))
}

/// One closed-loop tenant per request, for `seconds` from `epoch`: each
/// sends its next job when the last one is complete. One list of jobs
/// per tenant, in `reqs` order.
pub fn run_closed_loop(
    client: &Client,
    reqs: &[SubmitRequest],
    epoch: Instant,
    seconds: f64,
) -> Vec<Vec<Result<JobRun, ClientError>>> {
    per_tenant(reqs, |r| {
        let mut runs = Vec::new();
        while epoch.elapsed().as_secs_f64() < seconds {
            runs.push(run_job(client, r, epoch));
        }
        runs
    })
}
