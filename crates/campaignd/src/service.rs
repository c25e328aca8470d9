//! The campaignd service core: submissions, the worker pool, progress
//! streams, statistics, drain, and crash resume.
//!
//! A [`Service`] owns one [`FairQueue`](crate::queue::FairQueue) of
//! (job, task) references, one shared reentrant
//! [`Executor`](emc_campaign::Executor) over the content-addressed
//! result cache, and a pool of resident worker threads. Submissions
//! expand a [`SubmitRequest`] into concrete [`JobSpec`]s
//! ([`expand_request`]), pass admission control (all-or-nothing against
//! the queue capacity → structured 429), and are journaled to
//! `<cache>/service/jobs/<id>.json` *before* the ack goes out — so a
//! `kill -9` at any point loses no admitted job: on restart the journal
//! replays every submission, completed jobs register as done from their
//! manifests, and incomplete jobs re-enqueue all their tasks, where the
//! previously-finished ones resolve as instant cache hits instead of
//! re-executing.
//!
//! The state mutex guards bookkeeping only. Expanding a submission and
//! hashing its keys, the journal write, the fresh manifest and the
//! throttled manifest saves all run with it released; the one disk
//! write under it is a job's completion-time manifest save, so a
//! client that sees a job complete finds its manifest resolved on disk
//! (DESIGN.md §11, "Off the state lock"). That save takes the job's
//! file lock, so it can first wait for one unlocked write of the same
//! job's manifest already in flight: at most two writes while the
//! state lock is held.
//!
//! Everything network-shaped lives behind [`handle_request`], a pure
//! `(service, request) → (status, body)` router, so the protocol is
//! unit-testable without sockets; [`Service::serve`] is the thin accept
//! loop that feeds it. Workers, long-pollers and the accept loop each
//! block until the event that concerns them; a timer bounds only a
//! caller's deadline and the back-off after a failed `accept`
//! (DESIGN.md §11, "No waiting").

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emc_campaign::{
    eta, suite_jobs, worker_count, write_atomic, Executor, JobRecord, JobSource, JobSpec, Manifest,
    ResultCache, Tally, CACHE_HIT, COMPLETED, SUITES,
};
use emc_types::json::u;
use emc_types::json::{Reader, TextError};
use emc_types::{
    EventBatch, Histogram, JobState, JobStatusView, JsonValue, ProgressEvent, Rejection,
    ServiceStats, SubmitAck, SubmitRequest, TenantStats, SVC_SCHEMA,
};

use crate::http::{read_request, write_response, Request};
use crate::queue::{FairQueue, TaskRef, DEFAULT_AGE_MS, DEFAULT_MARK_CAP};

/// Upper bound on one long-poll wait, milliseconds (also the wait when
/// the client names none).
const POLL_TIMEOUT_MS: u64 = 10_000;

/// How many of the jobs finished in this life keep their event stream:
/// an older one answers `events` as a job resumed complete does,
/// complete and with no events, so the rows a daemon holds stay bounded.
pub const FINISHED_JOBS_KEPT: usize = 64;

/// Service configuration (defaults suit an interactive localhost daemon).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Resident worker threads (0 = one per available core).
    pub workers: usize,
    /// Admission-control capacity: queued tasks across all tenants.
    /// Resume may raise the effective capacity to fit a journaled
    /// backlog that was already admitted before the restart.
    pub queue_cap: usize,
    /// Fair-queue marking cap (tasks per tenant per batch).
    pub mark_cap: usize,
    /// Aging threshold: a tenant head waiting past this escalates above
    /// batch boundaries.
    pub age_ms: u64,
    /// Per-core retired-uop budget when a submission says `budget: 0`.
    pub default_budget: u64,
    /// Result-cache root (also holds manifests and the job journal).
    pub cache_dir: PathBuf,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_cap: 8192,
            mark_cap: DEFAULT_MARK_CAP,
            age_ms: DEFAULT_AGE_MS,
            default_budget: 2_000,
            cache_dir: PathBuf::from(emc_campaign::DEFAULT_CACHE_DIR),
        }
    }
}

/// One admitted job and its live progress.
struct Job {
    id: String,
    tenant: usize,
    name: String,
    total: u64,
    /// Present while the job has tasks to resolve; taken when the last
    /// one lands, so a finished job keeps only what `status`, `events`
    /// and `stats` read.
    work: Option<Work>,
    admitted_ms: u64,
    finished_ms: u64,
    tally: Tally,
    /// The job's progress events, one per resolved task in resolution
    /// order, each kept as the few numbers it is rebuilt from; dropped
    /// once [`FINISHED_JOBS_KEPT`] newer jobs have finished.
    resolved: Vec<Resolved>,
    /// Task labels, moved out of the manifest rows when the work is
    /// dropped (until then the rows hold them); dropped with `resolved`.
    labels: Box<[String]>,
}

/// What resolving a job's tasks needs, and nothing after.
struct Work {
    specs: Vec<JobSpec>,
    /// One row per task; a row's key is the one its spec was hashed to
    /// at admission, so no task is hashed again.
    manifest: Manifest,
    file: Arc<ManifestFile>,
    /// Task completions since the manifest was last saved.
    manifest_dirty: u32,
}

impl Work {
    /// The manifest as it stands, as the generation-`generation`
    /// snapshot of its file.
    fn snapshot(&self, generation: u64) -> Snapshot {
        Snapshot {
            file: Arc::clone(&self.file),
            generation,
            text: self.manifest.encode(),
        }
    }
}

/// One resolved task, as its job keeps it for the event stream.
struct Resolved {
    task: usize,
    /// Milliseconds from admission to resolution (the ETA's input).
    elapsed_ms: u64,
    outcome: Outcome,
}

/// A task's outcome note, with no heap string for the two common ones.
enum Outcome {
    Hit,
    Completed,
    /// Any other note, verbatim: a retried completion or a failure.
    Other {
        failed: bool,
        note: Box<str>,
    },
}

impl Outcome {
    fn of(record: &JobRecord) -> Outcome {
        match (record.result.is_some(), record.outcome.as_str()) {
            (true, CACHE_HIT) => Outcome::Hit,
            (true, COMPLETED) => Outcome::Completed,
            (ok, note) => Outcome::Other {
                failed: !ok,
                note: note.into(),
            },
        }
    }

    fn note(&self) -> &str {
        match self {
            Outcome::Hit => CACHE_HIT,
            Outcome::Completed => COMPLETED,
            Outcome::Other { note, .. } => note,
        }
    }
}

impl Job {
    /// A job row with nothing resolved and no work attached.
    fn new(id: &str, tenant: usize, name: String, total: u64, now: u64) -> Job {
        Job {
            id: id.to_string(),
            tenant,
            name,
            total,
            work: None,
            admitted_ms: now,
            finished_ms: 0,
            tally: Tally::default(),
            resolved: Vec::new(),
            labels: Box::default(),
        }
    }

    fn complete(&self) -> bool {
        self.tally.done == self.total
    }

    fn label(&self, task: usize) -> &str {
        match &self.work {
            Some(work) => &work.manifest.entries[task].label,
            None => &self.labels[task],
        }
    }

    /// The progress events with `seq > since`, each as it read when its
    /// task resolved: done, hits and failed are the counts up to it.
    fn events_after(&self, since: u64) -> Vec<ProgressEvent> {
        let (mut hits, mut failed) = (0, 0);
        let mut events = Vec::new();
        for (done, r) in (1..).zip(&self.resolved) {
            hits += u64::from(matches!(r.outcome, Outcome::Hit));
            failed += u64::from(matches!(r.outcome, Outcome::Other { failed: true, .. }));
            if done <= since {
                continue;
            }
            let elapsed = Duration::from_millis(r.elapsed_ms);
            events.push(ProgressEvent {
                seq: done,
                label: self.label(r.task).to_string(),
                outcome: r.outcome.note().to_string(),
                done,
                total: self.total,
                hits,
                failed,
                eta_ms: eta(done as usize, self.total as usize, elapsed)
                    .map(|d| d.as_millis() as u64),
            });
        }
        events
    }
}

/// A job's manifest file. Its snapshots are taken under the state lock
/// but written after it is released, so two of them can reach the file
/// out of order. Each carries its generation, the job's resolved-task
/// count when it was taken, and one no newer than the file's is
/// dropped: the file only moves forward.
struct ManifestFile {
    path: PathBuf,
    /// The generation on disk. Held across a write, so one job's writes
    /// never overlap; the completion save, made under the state lock,
    /// waits here for an unlocked write in flight.
    on_disk: Mutex<Option<u64>>,
}

impl ManifestFile {
    /// The file of manifest `name` under `cache_dir`, not yet written.
    fn new(cache_dir: &Path, name: &str) -> ManifestFile {
        ManifestFile {
            path: Manifest::path_for(cache_dir, name),
            on_disk: Mutex::new(None),
        }
    }

    fn write(&self, generation: u64, text: &str) {
        let mut on_disk = self.on_disk.lock().expect("manifest file lock");
        if on_disk.is_some_and(|g| g >= generation) {
            return;
        }
        match write_atomic(&self.path, text) {
            Ok(()) => *on_disk = Some(generation),
            Err(e) => eprintln!("# campaignd: manifest: {e}"),
        }
    }
}

/// A manifest snapshot, encoded under the state lock, to write once it
/// is released.
struct Snapshot {
    file: Arc<ManifestFile>,
    generation: u64,
    text: String,
}

impl Snapshot {
    fn write(self) {
        self.file.write(self.generation, &self.text);
    }
}

/// Per-tenant fairness accounting.
#[derive(Default)]
struct Tenant {
    name: String,
    running: u64,
    tally: Tally,
    wait_ms: Histogram,
    escalated: u64,
}

/// Everything behind the state mutex.
struct State {
    jobs: Vec<Job>,
    job_index: HashMap<String, usize>,
    /// The jobs finished in this life that still keep their event
    /// stream, oldest first.
    finished: VecDeque<usize>,
    tenants: Vec<Tenant>,
    tenant_index: HashMap<String, usize>,
    queue: FairQueue,
    next_job: u64,
    draining: bool,
    /// Written only by [`Service::halt`].
    stopping: bool,
    /// Where `serve` accepts, once it runs: `halt` connects here to
    /// wake a blocked `accept`.
    listening: Option<SocketAddr>,
    running: u64,
    /// Tasks resolved in this life of the daemon (jobs resumed complete
    /// from their manifests add nothing).
    tally: Tally,
    /// Queue waits across all tenants (clock anomalies clamp, never
    /// poison the distribution — `saturating_record`).
    wait_all: Histogram,
    /// Resolve latency of *executed* tasks only, so the distribution
    /// matches the manifests' host-perf rows (cache hits are microsecond
    /// deserializations that would drown the signal).
    task_wall_ms: Histogram,
    /// Job latency, admission → final task.
    job_wall_ms: Histogram,
    /// Host-perf aggregates over executed tasks (PR-8 JobRecord.wall).
    exec_wall_ms: u64,
    sim_cycles: u64,
}

impl State {
    /// Nothing queued and nothing running.
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.running == 0
    }

    /// Job `job` has finished: keep its event stream, and drop the
    /// oldest kept one past [`FINISHED_JOBS_KEPT`].
    fn finish(&mut self, job: usize) {
        self.finished.push_back(job);
        if self.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = self.finished.pop_front().expect("over the bound");
            let oldest = &mut self.jobs[oldest];
            oldest.resolved = Vec::new();
            oldest.labels = Box::default();
        }
    }

    fn push_job(&mut self, job: Job) {
        self.job_index.insert(job.id.clone(), self.jobs.len());
        self.jobs.push(job);
    }

    /// Replay journaled submissions into a service that has not started
    /// (no lock exists yet): jobs whose manifests show every task
    /// resolved register as done; everything else re-enqueues all its
    /// tasks, and the ones that already ran resolve as instant cache
    /// hits rather than re-executing.
    fn resume(
        &mut self,
        cache_dir: &Path,
        journaled: Vec<(u64, SubmitRequest, Vec<JobSpec>)>,
        now: u64,
    ) {
        for (seq, req, specs) in journaled {
            let id = format!("j{seq}");
            self.next_job = self.next_job.max(seq + 1);
            let tenant = tenant_index(self, &req.tenant);
            let name = format!("svc-{id}");
            let manifest = Manifest::open(Some(cache_dir), &name, &Manifest::rows_of(&specs));
            let file = Arc::new(ManifestFile::new(cache_dir, &name));
            file.write(0, &manifest.encode());
            let tally = Tally::of(&manifest);
            let total = specs.len() as u64;
            let mut job = Job::new(&id, tenant, display_name(&req), total, now);
            if tally.done == total {
                // Fully resolved before the restart: surface the final
                // tallies without queueing or holding anything.
                job.tally = tally;
                job.finished_ms = now;
                self.push_job(job);
                continue;
            }
            let job_idx = self.jobs.len();
            let tasks = (0..total as usize).map(|index| TaskRef {
                job: job_idx,
                index,
            });
            match self.queue.admit(tenant, tasks, now) {
                Ok(n) => {
                    job.work = Some(Work {
                        specs,
                        manifest,
                        file,
                        manifest_dirty: 0,
                    });
                    eprintln!("# campaignd: resumed {id} ({n} tasks re-queued)");
                }
                Err(full) => {
                    // Capacity was pre-sized to the journaled backlog, so
                    // this only fires on a journal written by a larger
                    // configuration. Fail the job loudly rather than
                    // wedge it half-registered.
                    job.tally = Tally {
                        done: total,
                        failed: total,
                        ..Tally::default()
                    };
                    job.finished_ms = now;
                    eprintln!(
                        "# campaignd: cannot resume {id}: queue full ({}/{})",
                        full.depth, full.capacity
                    );
                }
            }
            self.push_job(job);
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    executor: Executor,
    state: Mutex<State>,
    /// Workers sleep here when the queue is empty.
    work_cv: Condvar,
    /// Long-pollers sleep here until a task completes or the service
    /// stops.
    event_cv: Condvar,
    started: Instant,
}

/// Handle to the running service; clones share one core.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl Service {
    /// Build the service: open the cache, replay the submission journal
    /// (crash resume), and size the queue.
    pub fn new(cfg: ServiceConfig) -> Service {
        let started = Instant::now();
        let cache = ResultCache::new(&cfg.cache_dir);
        let executor = Executor::new(Some(cache)).with_tag("campaignd");
        let journaled = read_journal(&cfg.cache_dir, cfg.default_budget);
        let resumed_tasks: usize = journaled.iter().map(|(_, _, specs)| specs.len()).sum();
        // Resumed work already passed admission control in a previous
        // life; never bounce it against the cap it once fit under.
        let capacity = cfg.queue_cap.max(resumed_tasks);
        let mut state = State {
            jobs: Vec::new(),
            job_index: HashMap::new(),
            finished: VecDeque::new(),
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            queue: FairQueue::new(capacity, cfg.mark_cap, cfg.age_ms),
            next_job: 1,
            draining: false,
            stopping: false,
            listening: None,
            running: 0,
            tally: Tally::default(),
            wait_all: Histogram::new(),
            task_wall_ms: Histogram::new(),
            job_wall_ms: Histogram::new(),
            exec_wall_ms: 0,
            sim_cycles: 0,
        };
        let now = started.elapsed().as_millis() as u64;
        state.resume(&cfg.cache_dir, journaled, now);
        Service {
            inner: Arc::new(Inner {
                cfg,
                executor,
                state: Mutex::new(state),
                work_cv: Condvar::new(),
                event_cv: Condvar::new(),
                started,
            }),
        }
    }

    /// Milliseconds since the daemon started (the queue's virtual clock).
    fn now_ms(&self) -> u64 {
        self.inner.started.elapsed().as_millis() as u64
    }

    // -----------------------------------------------------------------
    // Submission
    // -----------------------------------------------------------------

    /// Admit one submission: expand, enqueue, journal. The error side
    /// carries the HTTP status the rejection maps to (400 bad request,
    /// 429 queue full, 503 draining).
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmitAck, (u16, Rejection)> {
        let bad_request = |e: String| (400, Rejection::of("bad-request", e));
        let grid = narrowed_grid(req, self.inner.cfg.default_budget).map_err(bad_request)?;
        // `repeat` is the submitter's number: the job is sized and put
        // to admission control before any of it is materialised.
        let total = usize::try_from(req.repeat.max(1))
            .ok()
            .and_then(|repeat| grid.len().checked_mul(repeat))
            .ok_or_else(|| {
                bad_request(format!("repeat {} overflows the task count", req.repeat))
            })?;
        admission(&self.lock(), total)?;

        // The slow part, expansion and one key hash per task, unlocked.
        let specs = fan_out(&grid, req);
        // Named below, once the job has its id.
        let mut manifest = Manifest::fresh("", &Manifest::rows_of(&specs));
        let now = self.now_ms();

        let mut state = self.lock();
        // Asked again: other submissions ran while the lock was free.
        admission(&state, total)?;
        // A new tenant gets its row only once admitted: a rejected name
        // leaves nothing behind (DESIGN.md §11, bounded before buffered).
        let tenant = tenant_index(&mut state, &req.tenant);
        let job = state.jobs.len();
        let tasks = (0..total).map(|index| TaskRef { job, index });
        let admitted = state.queue.admit(tenant, tasks, now);
        admitted.expect("admission checked under this guard");
        let id = format!("j{}", state.next_job);
        state.next_job += 1;
        manifest.name = format!("svc-{id}");
        let fresh = manifest.clone();
        let cache_dir = &self.inner.cfg.cache_dir;
        let file = Arc::new(ManifestFile::new(cache_dir, &fresh.name));
        let total = total as u64;
        state.push_job(Job {
            work: Some(Work {
                specs,
                manifest,
                file: Arc::clone(&file),
                manifest_dirty: 0,
            }),
            ..Job::new(&id, tenant, display_name(req), total, now)
        });
        let ack = SubmitAck {
            id,
            total,
            queue_depth: state.queue.len() as u64,
        };
        drop(state);
        self.inner.work_cv.notify_all();

        // Journal before acking: an acked job must survive kill -9. The
        // job's tasks may already be resolving; whatever they saved is
        // newer than this pending manifest, which then gives way.
        if let Err(e) = write_journal(cache_dir, &ack.id, req) {
            eprintln!("# campaignd: {e}");
        }
        file.write(0, &fresh.encode());
        Ok(ack)
    }

    // -----------------------------------------------------------------
    // Workers
    // -----------------------------------------------------------------

    /// Spawn the resident worker pool.
    pub fn start_workers(&self) -> Vec<JoinHandle<()>> {
        (0..worker_count(self.inner.cfg.workers))
            .map(|i| {
                let svc = self.clone();
                std::thread::Builder::new()
                    .name(format!("campaignd-worker-{i}"))
                    .spawn(move || svc.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    fn worker_loop(&self) {
        let mut state = self.lock();
        loop {
            if state.stopping {
                return;
            }
            // `pop` answers `None` only for an empty queue, and whatever
            // fills the queue or stops the service notifies `work_cv`.
            let Some(d) = state.queue.pop(self.now_ms()) else {
                state = self.inner.work_cv.wait(state).expect("state lock");
                continue;
            };

            // Dispatch bookkeeping under the lock, simulation outside it.
            let tenant = &mut state.tenants[d.tenant];
            tenant.wait_ms.saturating_record(d.wait_ms);
            tenant.escalated += u64::from(d.escalated);
            tenant.running += 1;
            state.wait_all.saturating_record(d.wait_ms);
            state.running += 1;
            let work = state.jobs[d.task.job].work.as_ref();
            let work = work.expect("a queued task's job holds its work");
            let spec = work.specs[d.task.index].clone();
            let key = work.manifest.entries[d.task.index].key.clone();
            drop(state);

            let record = self.inner.executor.resolve(&spec, &key);

            state = self.lock();
            let snapshot = self.complete_task(&mut state, d.task, d.tenant, &record);
            if state.draining && state.idle() {
                // Idle: every job is complete, so no snapshot is due.
                return self.halt(state);
            }
            self.inner.event_cv.notify_all();
            if let Some(snapshot) = snapshot {
                drop(state);
                snapshot.write();
                state = self.lock();
            }
        }
    }

    /// Fold one resolved task into its job, tenant, manifest, and the
    /// service aggregates; fire the progress event; detect completion,
    /// where the job's manifest is saved and its work dropped. Returns
    /// the throttled manifest snapshot due, if any, for the caller to
    /// write once the lock is released.
    fn complete_task(
        &self,
        state: &mut State,
        task: TaskRef,
        tenant: usize,
        record: &JobRecord,
    ) -> Option<Snapshot> {
        let now = self.now_ms();
        state.running -= 1;
        state.tally.add(record);
        state.tenants[tenant].running -= 1;
        state.tenants[tenant].tally.add(record);
        if record.source == JobSource::Executed {
            let wall_ms = record.wall.as_millis() as u64;
            state.task_wall_ms.saturating_record(wall_ms);
            state.exec_wall_ms += wall_ms;
            state.sim_cycles += record.sim_cycles();
        }

        let job = &mut state.jobs[task.job];
        job.tally.add(record);
        let elapsed_ms = now.saturating_sub(job.admitted_ms);
        job.resolved.push(Resolved {
            task: task.index,
            elapsed_ms,
            outcome: Outcome::of(record),
        });
        let complete = job.complete();

        let work = job
            .work
            .as_mut()
            .expect("a running task's job holds its work");
        work.manifest.entries[task.index].record(record);
        work.manifest_dirty += 1;
        // Save the manifest on a throttle (every 16 completions) and at
        // completion: a crash between saves costs manifest rows, not
        // results — the cache already holds them, and resume replays the
        // lost rows as instant hits.
        if !complete {
            if work.manifest_dirty < 16 {
                return None;
            }
            work.manifest_dirty = 0;
            return Some(work.snapshot(job.tally.done));
        }
        // Saved before the completion is visible: whoever sees the job
        // complete finds every row resolved on disk.
        work.snapshot(job.total).write();
        let work = job.work.take().expect("checked above");
        job.labels = work.manifest.entries.into_iter().map(|e| e.label).collect();
        job.resolved.shrink_to_fit();
        job.finished_ms = now;
        state.job_wall_ms.saturating_record(elapsed_ms);
        state.finish(task.job);
        None
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// Snapshot one job's status.
    pub fn status(&self, id: &str) -> Option<JobStatusView> {
        let state = self.lock();
        let job = &state.jobs[*state.job_index.get(id)?];
        let wall_ms = if job.complete() {
            job.finished_ms.saturating_sub(job.admitted_ms)
        } else {
            self.now_ms().saturating_sub(job.admitted_ms)
        };
        let lifecycle = if job.complete() {
            JobState::Done
        } else if job.tally.done > 0 {
            JobState::Running
        } else {
            JobState::Queued
        };
        Some(JobStatusView {
            id: job.id.clone(),
            tenant: state.tenants[job.tenant].name.clone(),
            name: job.name.clone(),
            state: lifecycle,
            total: job.total,
            done: job.tally.done,
            hits: job.tally.hits,
            executed: job.tally.executed,
            failed: job.tally.failed,
            eta_ms: eta(
                job.tally.done as usize,
                job.total as usize,
                Duration::from_millis(wall_ms),
            )
            .map(|d| d.as_millis() as u64),
            wall_ms,
        })
    }

    /// Long-poll the job's event stream: block until an event with
    /// `seq > since` exists, the job completes, the timeout expires
    /// (bounded by `POLL_TIMEOUT_MS`, 10 s) or the service stops.
    pub fn events(&self, id: &str, since: u64, timeout_ms: u64) -> Option<EventBatch> {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms.min(POLL_TIMEOUT_MS));
        let mut state = self.lock();
        loop {
            let idx = *state.job_index.get(id)?;
            let job = &state.jobs[idx];
            let resolved = job.resolved.len() as u64;
            if resolved > since || job.complete() {
                return Some(EventBatch {
                    id: job.id.clone(),
                    next: resolved.max(since),
                    complete: job.complete(),
                    events: job.events_after(since),
                });
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || state.stopping {
                // Timeout, or the service is stopping so that `serve`
                // can return: an empty, incomplete batch tells the
                // client to poll again from the same cursor.
                return Some(EventBatch {
                    id: id.to_string(),
                    next: since,
                    complete: false,
                    events: Vec::new(),
                });
            }
            let (guard, _) = self
                .inner
                .event_cv
                .wait_timeout(state, left)
                .expect("state lock");
            state = guard;
        }
    }

    /// Service-wide statistics.
    pub fn stats(&self) -> ServiceStats {
        let state = self.lock();
        let mut tenants: Vec<TenantStats> = state
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantStats {
                tenant: t.name.clone(),
                queued: state.queue.depth_of(i) as u64,
                running: t.running,
                done: t.tally.done,
                failed: t.tally.failed,
                wait_ms: emc_types::HistSummary::of(&t.wait_ms),
                max_wait_ms: t.wait_ms.max,
                escalated: t.escalated,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let tally = state.tally;
        let hit_rate = if tally.done == 0 {
            0.0
        } else {
            tally.hits as f64 / tally.done as f64
        };
        let mcycles_per_sec = if state.exec_wall_ms == 0 {
            0.0
        } else {
            (state.sim_cycles as f64 / 1e6) / (state.exec_wall_ms as f64 / 1e3)
        };
        ServiceStats {
            uptime_ms: self.now_ms(),
            workers: worker_count(self.inner.cfg.workers) as u64,
            queue_depth: state.queue.len() as u64,
            queue_cap: state.queue.capacity() as u64,
            draining: state.draining,
            jobs: state.jobs.len() as u64,
            jobs_done: state.jobs.iter().filter(|j| j.complete()).count() as u64,
            tasks_done: tally.done,
            hits: tally.hits,
            executed: tally.executed,
            failed: tally.failed,
            hit_rate,
            wait_ms: emc_types::HistSummary::of(&state.wait_all),
            task_wall_ms: emc_types::HistSummary::of(&state.task_wall_ms),
            job_wall_ms: emc_types::HistSummary::of(&state.job_wall_ms),
            mcycles_per_sec,
            tenants,
        }
    }

    // -----------------------------------------------------------------
    // Lifecycle
    // -----------------------------------------------------------------

    /// Stop accepting submissions; once the queue drains and the last
    /// in-flight task finishes, the workers and accept loop exit.
    pub fn drain(&self) -> JsonValue {
        let mut state = self.lock();
        state.draining = true;
        let doc = JsonValue::obj(vec![
            ("schema", SVC_SCHEMA.into()),
            ("draining", JsonValue::Bool(true)),
            ("queue_depth", u(state.queue.len() as u64)),
            ("running", u(state.running)),
        ]);
        // Otherwise the worker that finishes the last task halts.
        if state.idle() {
            self.halt(state);
        }
        doc
    }

    /// True once drain (or a direct stop) has fully landed.
    pub fn stopped(&self) -> bool {
        self.lock().stopping
    }

    /// Abrupt stop for tests: workers exit after their current task.
    pub fn stop(&self) {
        self.halt(self.lock());
    }

    /// The one way the service stops: set the flag, wake the workers and
    /// long-pollers, and connect once to the accept loop so that a
    /// blocked `accept` returns and sees the flag. Takes the state guard
    /// to connect with the lock released.
    fn halt(&self, mut state: MutexGuard<'_, State>) {
        state.stopping = true;
        let listening = state.listening;
        drop(state);
        self.inner.work_cv.notify_all();
        self.inner.event_cv.notify_all();
        if let Some(addr) = listening {
            // A listener on the unspecified address is reachable on the
            // loopback address of its family.
            let ip = match addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
                ip => ip,
            };
            // Refused only when `serve` has already returned.
            let _ = TcpStream::connect((ip, addr.port()));
        }
    }

    /// Block until every admitted job is complete (test helper).
    pub fn wait_all_jobs(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.jobs.iter().all(Job::complete) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .inner
                .event_cv
                .wait_timeout(state, left)
                .expect("state lock");
            state = guard;
        }
    }

    /// Accept loop: thread per connection, `Connection: close`, blocked
    /// in `accept` between connections ([`Service::halt`] wakes it).
    /// Returns once the service stops and every accepted connection has
    /// been answered, so a drain's own answer goes out before the daemon
    /// exits (a silent peer holds it for at most the 10 s read timeout).
    pub fn serve(&self, listener: TcpListener) {
        // Published before the first look at the flag: a concurrent stop
        // either sees the address and connects, or is seen below.
        self.lock().listening = listener.local_addr().ok();
        std::thread::scope(|scope| {
            while !self.stopped() {
                match listener.accept() {
                    Ok((stream, _addr)) if !self.stopped() => {
                        let _ = std::thread::Builder::new()
                            .name("campaignd-conn".into())
                            .spawn_scoped(scope, move || {
                                let _ = stream.set_nodelay(true);
                                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                                let (status, body) = match read_request(&stream) {
                                    Ok(req) => handle_request(self, &req),
                                    Err(e) => (400, Rejection::of("bad-request", e).to_json()),
                                };
                                let _ = write_response(&stream, status, &body.to_json());
                            });
                    }
                    // The service is stopping: `halt`'s wake-up, or a
                    // late client, dropped unanswered.
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("# campaignd: accept: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
        });
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("state lock")
    }
}

/// Whether a job of `total` tasks may be admitted now: not while the
/// service drains (503), nor past the queue's capacity (429).
fn admission(state: &State, total: usize) -> Result<(), (u16, Rejection)> {
    if state.draining {
        let mut rej = Rejection::of("draining", "service is draining; not accepting jobs");
        rej.queue_depth = state.queue.len() as u64;
        return Err((503, rej));
    }
    state.queue.room_for(total).map_err(|full| {
        let rej = Rejection {
            error: "queue-full".into(),
            detail: format!(
                "{} queued + {total} submitted exceeds capacity {}",
                full.depth, full.capacity
            ),
            queue_depth: full.depth as u64,
            capacity: full.capacity as u64,
        };
        (429, rej)
    })
}

/// Get or create the tenant row for `name`.
fn tenant_index(state: &mut State, name: &str) -> usize {
    if let Some(&i) = state.tenant_index.get(name) {
        return i;
    }
    let i = state.tenants.len();
    state.tenants.push(Tenant {
        name: name.to_string(),
        ..Tenant::default()
    });
    state.tenant_index.insert(name.to_string(), i);
    i
}

// ---------------------------------------------------------------------
// Submission expansion
// ---------------------------------------------------------------------

/// Expand a wire submission into `(display name, concrete specs)`:
/// suite × optional (prefetcher, EMC) narrowing × `repeat` seed-bumped
/// copies. Pure, so the grid a submission produces is unit-testable.
/// Allocates `repeat` grids: for a request that has not passed
/// admission control, [`Service::submit`] sizes the job first.
///
/// # Errors
///
/// Names the unknown suite or prefetcher label (with the valid options).
pub fn expand_request(
    req: &SubmitRequest,
    default_budget: u64,
) -> Result<(String, Vec<JobSpec>), String> {
    let grid = narrowed_grid(req, default_budget)?;
    Ok((display_name(req), fan_out(&grid, req)))
}

/// A job's display name: the submitter's, else `tenant:suite`.
fn display_name(req: &SubmitRequest) -> String {
    if req.name.is_empty() {
        format!("{}:{}", req.tenant, req.suite)
    } else {
        req.name.clone()
    }
}

/// One copy of the (at most 80-cell) grid a submission selects: suite ×
/// optional (prefetcher, EMC) narrowing.
fn narrowed_grid(req: &SubmitRequest, default_budget: u64) -> Result<Vec<JobSpec>, String> {
    let budget = if req.budget == 0 {
        default_budget
    } else {
        req.budget
    };
    let base = suite_jobs(&req.suite, budget)
        .ok_or_else(|| format!("unknown suite {:?} ({})", req.suite, SUITES.join(", ")))?;
    let narrowed: Vec<JobSpec> = base
        .into_iter()
        .filter(|s| {
            req.prefetcher
                .as_deref()
                .is_none_or(|pf| s.cfg.prefetcher.label().eq_ignore_ascii_case(pf))
        })
        .filter(|s| req.emc.is_none_or(|emc| s.cfg.emc.enabled == emc))
        .collect();
    if narrowed.is_empty() {
        let labels: Vec<&str> = emc_types::PrefetcherKind::ALL
            .iter()
            .map(|p| p.label())
            .collect();
        return Err(format!(
            "no jobs match prefetcher {:?} / emc {:?} (prefetchers: {})",
            req.prefetcher,
            req.emc,
            labels.join(", ")
        ));
    }
    Ok(narrowed)
}

/// `req.repeat` seed-bumped copies of `grid`, in repeat-major order.
fn fan_out(grid: &[JobSpec], req: &SubmitRequest) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for rep in 0..req.repeat.max(1) {
        for s in grid {
            let mut s = s.clone();
            s.cfg.seed ^= req.seed_bump.wrapping_add(rep);
            if req.repeat > 1 {
                s.label = format!("{}#{rep}", s.label);
            }
            specs.push(s);
        }
    }
    specs
}

// ---------------------------------------------------------------------
// Submission journal
// ---------------------------------------------------------------------

fn journal_dir(cache_dir: &Path) -> PathBuf {
    cache_dir.join("service").join("jobs")
}

/// Persist one admitted submission (atomically, like every other
/// artifact under the cache root).
fn write_journal(cache_dir: &Path, id: &str, req: &SubmitRequest) -> Result<(), String> {
    let doc = JsonValue::obj(vec![
        ("schema", SVC_SCHEMA.into()),
        ("id", id.into()),
        ("request", req.to_json()),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    let path = journal_dir(cache_dir).join(format!("{id}.json"));
    write_atomic(&path, &text).map_err(|e| format!("journal: {e}"))
}

/// Read every journaled submission, expanded and ordered by job id.
/// Corrupt or inconsistent entries are logged and skipped — resume must
/// never be wedged by one bad file. Expansion uses the *configured*
/// default budget: restarting with a different `--budget` changes the
/// keys a `budget: 0` submission expands to, which would orphan its
/// manifest and cache entries — so keep the flag stable across restarts.
fn read_journal(cache_dir: &Path, default_budget: u64) -> Vec<(u64, SubmitRequest, Vec<JobSpec>)> {
    let dir = journal_dir(cache_dir);
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let parsed = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| JsonValue::parse(&t))
            .and_then(|doc| {
                let id = doc
                    .get("id")
                    .and_then(|v| v.as_str())
                    .ok_or("missing id")?
                    .to_string();
                let seq: u64 = id
                    .strip_prefix('j')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad id {id:?}"))?;
                let req = SubmitRequest::from_json(doc.get("request").ok_or("missing request")?)?;
                Ok((seq, req))
            });
        match parsed {
            Ok((seq, req)) => {
                // Re-expansion is deterministic: same request, same code
                // fingerprint, same specs — so the re-queued tasks carry
                // the same cache keys the pre-crash run stored under.
                match expand_request(&req, default_budget) {
                    Ok((_, specs)) => out.push((seq, req, specs)),
                    Err(e) => eprintln!("# campaignd: journal {}: {e}", path.display()),
                }
            }
            Err(e) => eprintln!("# campaignd: journal {}: {e}", path.display()),
        }
    }
    out.sort_by_key(|(seq, _, _)| *seq);
    out
}

// ---------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------

/// Route one parsed request to the service — the entire protocol
/// surface, pure of sockets:
///
/// | method & path                | handler                       |
/// |------------------------------|-------------------------------|
/// | `POST /v1/jobs`              | [`Service::submit`]           |
/// | `GET /v1/jobs/<id>`          | [`Service::status`]           |
/// | `GET /v1/jobs/<id>/events`   | [`Service::events`] (long-poll, `?since=N&timeout_ms=M`) |
/// | `GET /v1/stats`              | [`Service::stats`]            |
/// | `GET /v1/healthz`            | liveness probe                |
/// | `POST /v1/drain`             | [`Service::drain`]            |
pub fn handle_request(svc: &Service, req: &Request) -> (u16, JsonValue) {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => (
            200,
            JsonValue::obj(vec![
                ("schema", SVC_SCHEMA.into()),
                ("ok", JsonValue::Bool(true)),
                ("uptime_ms", u(svc.now_ms())),
            ]),
        ),
        ("POST", ["v1", "jobs"]) => {
            let submission =
                Reader::read_all(&req.body, SubmitRequest::read_document).map_err(|e| match e {
                    TextError::Syntax(e) => format!("request body is not JSON: {e}"),
                    TextError::Decode(e) => e,
                });
            match submission {
                Ok(sr) => match svc.submit(&sr) {
                    Ok(ack) => (200, ack.to_json()),
                    Err((code, rej)) => (code, rej.to_json()),
                },
                Err(e) => (400, Rejection::of("bad-request", e).to_json()),
            }
        }
        ("GET", ["v1", "jobs", id]) => match svc.status(id) {
            Some(view) => (200, view.to_json()),
            None => not_found(id),
        },
        ("GET", ["v1", "jobs", id, "events"]) => {
            let since = req.query_u64("since", 0);
            let timeout = req.query_u64("timeout_ms", POLL_TIMEOUT_MS);
            match svc.events(id, since, timeout) {
                Some(batch) => (200, batch.to_json()),
                None => not_found(id),
            }
        }
        ("GET", ["v1", "stats"]) => (200, svc.stats().to_json()),
        ("POST", ["v1", "drain"]) => (200, svc.drain()),
        (_, ["v1", ..]) => (
            405,
            Rejection::of(
                "bad-request",
                format!("no route for {} {}", req.method, req.path),
            )
            .to_json(),
        ),
        _ => (
            404,
            Rejection::of("not-found", format!("unknown path {}", req.path)).to_json(),
        ),
    }
}

fn not_found(id: &str) -> (u16, JsonValue) {
    (
        404,
        Rejection::of("not-found", format!("no job {id:?}")).to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpcache(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("emc-campaignd-test-{tag}-{}", std::process::id()));
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
    fn expand_request_covers_suites_filters_and_repeats() {
        let d = 1_000;
        for (suite, n) in [
            ("quad", 80),
            ("homog", 64),
            ("mix8-1mc", 80),
            ("mix8-2mc", 80),
        ] {
            let (_, specs) = expand_request(&SubmitRequest::new("t", suite), d).unwrap();
            assert_eq!(specs.len(), n, "{suite}");
        }
        assert!(expand_request(&SubmitRequest::new("t", "octo"), d)
            .unwrap_err()
            .contains("unknown suite"));

        // Narrowing: one prefetcher (case-insensitive) × one EMC side.
        let mut req = SubmitRequest::new("t", "quad");
        req.prefetcher = Some("ghb".into());
        req.emc = Some(true);
        let (_, specs) = expand_request(&req, d).unwrap();
        assert_eq!(specs.len(), 10);
        assert!(specs
            .iter()
            .all(|s| s.cfg.prefetcher.label() == "GHB" && s.cfg.emc.enabled));

        req.prefetcher = Some("NotAPrefetcher".into());
        assert!(expand_request(&req, d).unwrap_err().contains("GHB"));

        // Repeat fans out distinct seed grids with suffixed labels.
        let mut rep = small_request("t");
        rep.repeat = 3;
        rep.seed_bump = 100;
        let (_, specs) = expand_request(&rep, d).unwrap();
        assert_eq!(specs.len(), 30);
        assert!(specs[0].label.ends_with("#0"));
        assert!(specs[29].label.ends_with("#2"));
        let keys: std::collections::HashSet<String> = specs.iter().map(|s| s.key().0).collect();
        assert_eq!(keys.len(), 30, "every repeat copy is a distinct job");
    }

    #[test]
    fn expand_request_budget_default_and_override() {
        let (_, specs) = expand_request(&small_request("t"), 777).unwrap();
        assert!(specs.iter().all(|s| s.budget == 777), "0 means default");
        let mut req = small_request("t");
        req.budget = 1234;
        let (_, specs) = expand_request(&req, 777).unwrap();
        assert!(specs.iter().all(|s| s.budget == 1234));
    }

    #[test]
    fn submit_run_stream_and_warm_resubmit() {
        let cfg = small_cfg("roundtrip");
        let cache_dir = cfg.cache_dir.clone();
        let svc = Service::new(cfg);
        let workers = svc.start_workers();

        let ack = svc.submit(&small_request("alice")).expect("admitted");
        assert_eq!(ack.id, "j1");
        assert_eq!(ack.total, 10);

        // Long-poll the ordered event stream to completion.
        let mut since = 0;
        let mut live = Vec::new();
        loop {
            let batch = svc.events("j1", since, 1_000).expect("job exists");
            live.extend(batch.events);
            since = batch.next;
            if batch.complete {
                break;
            }
        }
        let seqs: Vec<u64> = live.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>(), "ordered, gap-free");
        // Rebuilt after completion, from the labels moved out of the
        // manifest, the stream reads as it did live, from every cursor.
        for since in 0..=12 {
            let expected = EventBatch {
                id: "j1".into(),
                next: since.max(10),
                complete: true,
                events: live.get(since as usize..).unwrap_or_default().to_vec(),
            };
            let batch = svc.events("j1", since, 0).unwrap();
            assert_eq!(batch.to_json().to_json(), expected.to_json().to_json());
        }
        let mut labels: Vec<&str> = live.iter().map(|e| e.label.as_str()).collect();
        let (_, specs) = expand_request(&small_request("alice"), 300).unwrap();
        let mut expected: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
        labels.sort_unstable();
        expected.sort_unstable();
        assert_eq!(labels, expected, "each task's label, once");
        assert!(live
            .iter()
            .all(|e| e.outcome == "completed" && e.done == e.seq && e.total == 10));

        let status = svc.status("j1").expect("status");
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.done, 10);
        assert_eq!(status.executed, 10, "cold cache: everything executed");
        assert_eq!(status.tenant, "alice");
        assert_eq!(status.failed, 0);

        // Identical resubmission: all hits, zero re-execution.
        let ack2 = svc.submit(&small_request("bob")).expect("admitted");
        assert!(svc.wait_all_jobs(Duration::from_secs(60)));
        let status2 = svc.status(&ack2.id).unwrap();
        assert_eq!(status2.hits, 10, "warm resubmit is pure cache hits");
        assert_eq!(status2.executed, 0);
        let warm = svc.events(&ack2.id, 0, 0).unwrap().events;
        assert!(warm
            .iter()
            .all(|e| e.outcome == "cache-hit" && e.hits == e.seq && e.failed == 0));

        let stats = svc.stats();
        assert_eq!(stats.tasks_done, 20);
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.executed, 10);
        assert!((stats.hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(stats.jobs_done, 2);
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.task_wall_ms.count, 10, "executed tasks only");
        assert!(stats.mcycles_per_sec > 0.0, "host-perf aggregated");

        // Manifests on disk agree with the service's tallies.
        let m = Manifest::load(&cache_dir, "svc-j1").expect("manifest");
        assert_eq!(m.done_count(), 10);
        assert!(m.entries.iter().all(|e| e.sim_cycles > 0));

        svc.stop();
        for w in workers {
            w.join().unwrap();
        }
        let _ = fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn journal_round_trips_submissions_for_resume() {
        let dir = tmpcache("journal");
        let mut req = small_request("carol");
        req.repeat = 2;
        req.seed_bump = 5;
        write_journal(&dir, "j3", &req).unwrap();
        write_journal(&dir, "j10", &small_request("dave")).unwrap();
        // A corrupt journal entry is skipped, not fatal.
        fs::write(journal_dir(&dir).join("j4.json"), "{broken").unwrap();

        let entries = read_journal(&dir, 300);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 3, "ordered by id");
        assert_eq!(entries[1].0, 10);
        assert_eq!(entries[0].1, req, "request round-trips exactly");
        assert_eq!(entries[0].2.len(), 20, "specs re-expanded");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn finished_jobs_hold_no_per_task_state_and_answer_as_before() {
        let cfg = small_cfg("release");
        let cache_dir = cfg.cache_dir.clone();
        // Every job's `status` and `events(id, 0, 0)` answers, by id.
        let answers = |svc: &Service| -> Vec<(JobStatusView, EventBatch)> {
            let ids: Vec<String> = svc.lock().jobs.iter().map(|j| j.id.clone()).collect();
            ids.iter()
                .map(|id| (svc.status(id).unwrap(), svc.events(id, 0, 0).unwrap()))
                .collect()
        };
        // No job holds its work, and handing each one back what it held
        // before the release (its specs, its manifest) changes no answer.
        let released_answers = |svc: &Service| {
            let released = answers(svc);
            for job in &mut svc.lock().jobs {
                assert!(job.work.is_none(), "{} still holds its work", job.id);
                let (_, specs) = expand_request(&small_request("t"), 300).unwrap();
                let name = format!("svc-{}", job.id);
                let manifest = Manifest::load(&cache_dir, &name).unwrap();
                job.work = Some(Work {
                    specs,
                    manifest,
                    file: Arc::new(ManifestFile::new(&cache_dir, &name)),
                    manifest_dirty: 0,
                });
            }
            assert_eq!(answers(svc), released);
            released
        };

        // First life: j1 runs to completion; j2 is admitted after the
        // stop, so no worker ever saw its tasks (a kill mid-queue).
        let first = {
            let svc = Service::new(cfg.clone());
            let workers = svc.start_workers();
            svc.submit(&small_request("alice")).unwrap();
            assert!(svc.wait_all_jobs(Duration::from_secs(120)));
            let first = released_answers(&svc);
            svc.stop();
            for w in workers {
                w.join().unwrap();
            }
            svc.submit(&small_request("bob")).unwrap();
            first
        };

        // Second life: j1 registers complete from its manifest; j2's
        // tasks re-queue and resolve as hits of alice's run.
        let svc = Service::new(cfg);
        assert_eq!(svc.status("j2").unwrap().state, JobState::Queued);
        let workers = svc.start_workers();
        assert!(svc.wait_all_jobs(Duration::from_secs(120)));
        assert_eq!(svc.stats().executed, 0, "this life simulated nothing");
        let second = released_answers(&svc);
        let j2 = &second[1].0;
        assert_eq!((j2.hits, j2.executed), (10, 0), "resumed as hits");
        let (j1, j1_events) = &second[0];
        assert_eq!(j1.state, JobState::Done);
        assert_eq!(
            (j1.done, j1.hits, j1.executed, j1.failed),
            (10, first[0].0.hits, first[0].0.executed, first[0].0.failed)
        );
        assert!(j1_events.complete && j1_events.events.is_empty());
        // A job run in this life streamed each task once, in order.
        for (view, batch) in [&first[0], &second[1]] {
            assert_eq!(view.state, JobState::Done);
            assert!(batch.complete);
            let seqs: Vec<u64> = batch.events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (1..=view.total).collect::<Vec<u64>>());
        }
        svc.stop();
        for w in workers {
            w.join().unwrap();
        }
        let _ = fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn a_manifest_file_never_goes_back_a_generation() {
        let dir = tmpcache("generation");
        let file = ManifestFile::new(&dir, "svc-j1");
        file.write(16, "sixteen\n");
        file.write(40, "forty\n");
        // Taken before the completion save, written after it: a
        // throttled save, then the submission's fresh manifest.
        file.write(16, "sixteen again\n");
        file.write(0, "fresh\n");
        assert_eq!(fs::read_to_string(&file.path).unwrap(), "forty\n");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_tenants_leave_every_job_journaled_and_resolved_on_disk() {
        let mut cfg = small_cfg("ordering");
        cfg.queue_cap = 1_000;
        let cache_dir = cfg.cache_dir.clone();
        let svc = Service::new(cfg);
        let workers = svc.start_workers();
        // Twenty tasks a job, so that each job saves on the throttle (at
        // 16) as well as at completion. Both grids are cold at first;
        // they share ten cells, and every later job is warm.
        let mut alice = small_request("alice");
        alice.emc = None;
        let mut bob = small_request("bob");
        bob.repeat = 2;
        std::thread::scope(|s| {
            for req in [&alice, &bob] {
                let svc = svc.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(svc.submit(req).expect("admitted").total, 20);
                    }
                });
            }
        });
        assert!(svc.wait_all_jobs(Duration::from_secs(300)));
        svc.stop();
        for w in workers {
            w.join().unwrap();
        }

        let seqs: Vec<u64> = read_journal(&cache_dir, 300).iter().map(|j| j.0).collect();
        assert_eq!(seqs, (1..=40).collect::<Vec<u64>>(), "every job journaled");
        let on_disk = fs::read_dir(cache_dir.join("manifests")).unwrap().count();
        assert_eq!(on_disk, 40, "one manifest a job, no temp file left");
        let executed: u64 = (1..=40)
            .map(|n| {
                let id = format!("j{n}");
                let view = svc.status(&id).unwrap();
                let manifest = Manifest::load(&cache_dir, &format!("svc-{id}")).unwrap();
                let rows = Tally::of(&manifest);
                assert_eq!(rows.done, 20, "{id}: every row resolved on disk");
                let live = (view.done, view.hits, view.executed, view.failed);
                assert_eq!(
                    (rows.done, rows.hits, rows.executed, rows.failed),
                    live,
                    "{id}"
                );
                view.executed
            })
            .sum();
        assert!(executed >= 30, "the cold cells ran: {executed}");
        let _ = fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn hostile_submissions_are_answered_and_the_daemon_keeps_serving() {
        let cfg = small_cfg("hostile");
        let cache_dir = cfg.cache_dir.clone();
        let svc = Service::new(cfg);
        let request = |method: &str, path: &str, body: &str| Request {
            method: method.into(),
            path: path.into(),
            query: HashMap::new(),
            body: body.into(),
        };
        let submission = |members: String| {
            format!(r#"{{"schema":"{SVC_SCHEMA}","tenant":"a","suite":"quad",{members}}}"#)
        };
        let max = u64::MAX;
        for (body, status, detail) in [
            // A fifth of MAX_BODY, all `[`: one parser frame per byte
            // overflows the connection thread's stack and aborts the daemon.
            ("[".repeat(200_000), 400, "nesting deeper than"),
            // 80 cells x 1e13 copies: materialised before admission
            // control sees the job, this dies in the allocator.
            (submission(r#""repeat":1e13"#.into()), 429, "capacity 256"),
            // A task count past `usize` is malformed, not just large.
            (submission(format!(r#""repeat":"{max}""#)), 400, "overflows"),
            // Seeds wrap: the largest bump is as good as any other.
            (
                submission(format!(r#""repeat":2,"emc":true,"seed_bump":"{max}""#)),
                200,
                "j1",
            ),
        ] {
            let (code, doc) = handle_request(&svc, &request("POST", "/v1/jobs", &body));
            assert_eq!(code, status, "{}", doc.to_json());
            assert!(doc.to_json().contains(detail), "{}", doc.to_json());
            let (health, _) = handle_request(&svc, &request("GET", "/v1/healthz", ""));
            assert_eq!(health, 200, "daemon keeps serving");
        }
        assert_eq!(svc.stats().queue_depth, 80, "only the last was admitted");
        let _ = fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn router_handles_protocol_without_sockets() {
        let cfg = small_cfg("router");
        let cache_dir = cfg.cache_dir.clone();
        let svc = Service::new(cfg);

        let get = |path: &str| Request {
            method: "GET".into(),
            path: path.into(),
            query: HashMap::new(),
            body: String::new(),
        };

        let (code, body) = handle_request(&svc, &get("/v1/healthz"));
        assert_eq!(code, 200);
        assert!(matches!(body.get("ok"), Some(JsonValue::Bool(true))));

        let (code, body) = handle_request(&svc, &get("/v1/jobs/j99"));
        assert_eq!(code, 404);
        assert_eq!(
            body.get("error").and_then(|v| v.as_str()),
            Some("not-found")
        );

        let (code, _) = handle_request(&svc, &get("/v1/nonsense"));
        assert_eq!(code, 405, "unknown v1 route");
        let (code, _) = handle_request(&svc, &get("/other"));
        assert_eq!(code, 404);

        let (code, body) = handle_request(
            &svc,
            &Request {
                method: "POST".into(),
                path: "/v1/jobs".into(),
                query: HashMap::new(),
                body: "{not json".into(),
            },
        );
        assert_eq!(code, 400);
        assert_eq!(
            body.get("error").and_then(|v| v.as_str()),
            Some("bad-request")
        );

        let (code, body) = handle_request(&svc, &get("/v1/stats"));
        assert_eq!(code, 200);
        let stats = ServiceStats::from_json(&body).expect("stats document decodes");
        assert_eq!(stats.jobs, 0);
        let _ = fs::remove_dir_all(cache_dir);
    }
}
