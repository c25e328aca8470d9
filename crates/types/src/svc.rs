//! Wire schemas for the `campaignd` experiment service
//! (`emc-campaignd-v1`).
//!
//! These are the request/response/status documents exchanged between
//! the `campaignd` daemon and its clients (the `campaign` CLI's
//! `submit` / `watch` / `svc-status` subcommands, `curl`, CI). They
//! live here — not in the service crate — because both sides of the
//! protocol need them and `emc-types` is the dependency root: the
//! daemon encodes what the CLI decodes and vice versa, through the same
//! [`JsonValue`] model the rest of the workspace uses (no external JSON
//! crate on either side).
//!
//! Each document is declared inside [`json_struct!`](crate::json_struct),
//! so its definition is its wire format: keys are the field names in
//! declaration order, and an `Option` member is omitted while `None`.
//! Every top-level document additionally carries
//! `"schema": "emc-campaignd-v1"` as its first key; decoders reject
//! mismatched schemas so a client talking to a future incompatible
//! daemon fails loudly instead of misparsing.

use crate::hist::HistSummary;
use crate::json::{read_tagged, schema, JsonValue, Other, Source, ToJson, Tree};
use crate::json_struct;

/// Schema tag stamped into (and required from) every protocol document.
pub const SVC_SCHEMA: &str = "emc-campaignd-v1";

/// The document of `body` behind the schema tag.
fn tagged(body: &impl ToJson) -> JsonValue {
    let mut pairs = vec![("schema".to_string(), SVC_SCHEMA.into())];
    if let JsonValue::Obj(members) = body.to_json_value() {
        pairs.extend(members);
    }
    JsonValue::Obj(pairs)
}

/// Decode a tagged document with `read_members`, a struct's one-pass
/// decode, judging its `schema` tag as [`read_tagged`] does: a schema
/// that is not ours is the error once it is read, a missing one once the
/// whole document is.
fn untagged<S: Source, T>(
    src: &mut S,
    read_members: impl FnOnce(&mut S, &mut Other<'_, S>) -> Result<Result<T, String>, String>,
) -> Result<T, String> {
    read_tagged(src, ["schema"], read_members, |_, got| {
        schema(got, SVC_SCHEMA)
    })
}

/// Give top-level documents their `to_json` / `from_json` pair.
macro_rules! tagged_document {
    ($($name:ident),*) => {$(
        impl $name {
            /// Encode as a protocol document.
            pub fn to_json(&self) -> JsonValue {
                tagged(self)
            }

            /// Decode a protocol document.
            ///
            /// # Errors
            ///
            /// Names the schema mismatch, or the path to the missing or
            /// mistyped member.
            pub fn from_json(doc: &JsonValue) -> Result<$name, String> {
                Self::read_document(&mut Tree::new(doc))
            }

            /// [`from_json`](Self::from_json) from any source: the text
            /// of a request or a response is read with no tree.
            ///
            /// # Errors
            ///
            /// As [`from_json`](Self::from_json).
            pub fn read_document<S: Source>(src: &mut S) -> Result<$name, String> {
                untagged(src, Self::read_members)
            }
        }
    )*};
}

tagged_document!(
    SubmitAck,
    Rejection,
    JobStatusView,
    EventBatch,
    ServiceStats
);

// ---------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------

json_struct! {
    /// A job submission: one of the standard suites, optionally narrowed to
    /// a single (prefetcher, EMC) grid cell and fanned out across seeds.
    ///
    /// The daemon expands this into concrete `JobSpec`s (suite × repeat),
    /// so the wire format stays plain strings and numbers — clients never
    /// serialize a full `SystemConfig`. `repeat > 1` submits `repeat`
    /// copies of the grid with seeds bumped `seed_bump .. seed_bump +
    /// repeat - 1`, which is how load tests queue thousands of distinct
    /// jobs from a one-line request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SubmitRequest {
        /// Who is submitting (fair-queue identity; required, non-empty).
        pub tenant: String,
        /// Display name for the job ("" = derived from the suite).
        pub name: String = String::new(),
        /// Suite: `quad`, `homog`, `mix8-1mc`, or `mix8-2mc`.
        pub suite: String,
        /// Per-core retired-uop budget (0 = daemon default).
        pub budget: u64 = 0,
        /// XORed into every config seed — distinct grids for load tests.
        pub seed_bump: u64 = 0,
        /// Number of seed-bumped copies of the grid to queue (min 1).
        pub repeat: u64 = 1,
        /// Narrow the 8-config grid to one prefetcher label (e.g. `GHB`).
        pub prefetcher: Option<String> = None,
        /// Narrow the 8-config grid to EMC on (`true`) or off (`false`).
        pub emc: Option<bool> = None,
    }
}

impl SubmitRequest {
    /// A submission of `suite` by `tenant` with daemon defaults.
    pub fn new(tenant: impl Into<String>, suite: impl Into<String>) -> Self {
        SubmitRequest {
            tenant: tenant.into(),
            name: String::new(),
            suite: suite.into(),
            budget: 0,
            seed_bump: 0,
            repeat: 1,
            prefetcher: None,
            emc: None,
        }
    }

    /// Encode as a protocol document.
    pub fn to_json(&self) -> JsonValue {
        tagged(self)
    }

    /// Decode a protocol document. This is where outside input enters
    /// the daemon, so the decoded request is also validated: the tenant
    /// is non-empty and `repeat` is at least 1 (0 reads as 1).
    ///
    /// # Errors
    ///
    /// Names the schema mismatch, the path to the missing or mistyped
    /// member, or an empty tenant.
    pub fn from_json(doc: &JsonValue) -> Result<SubmitRequest, String> {
        Self::read_document(&mut Tree::new(doc))
    }

    /// [`from_json`](Self::from_json) from any source: `campaignd` reads
    /// a request body with no tree.
    ///
    /// # Errors
    ///
    /// As [`from_json`](Self::from_json).
    pub fn read_document<S: Source>(src: &mut S) -> Result<SubmitRequest, String> {
        let mut req = untagged(src, Self::read_members)?;
        if req.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        req.repeat = req.repeat.max(1);
        Ok(req)
    }
}

json_struct! {
    /// Acceptance of a submission (`POST /v1/jobs`, 200).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SubmitAck {
        /// The new job's id (use with `/v1/jobs/<id>`).
        pub id: String,
        /// Tasks queued for this job.
        pub total: u64,
        /// Service-wide queued tasks after admission.
        pub queue_depth: u64,
    }
}

json_struct! {
    /// A structured rejection (`429` queue-full, `503` draining, `400`
    /// bad request, `404` unknown job).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Rejection {
        /// Machine-readable reason: `queue-full`, `draining`,
        /// `bad-request`, `not-found`.
        pub error: String,
        /// Human-readable detail.
        pub detail: String,
        /// Queued tasks at rejection time.
        pub queue_depth: u64 = 0,
        /// Admission-control capacity (0 when not applicable).
        pub capacity: u64 = 0,
    }
}

impl Rejection {
    /// A rejection with zero queue context (bad request / not found).
    pub fn of(error: impl Into<String>, detail: impl Into<String>) -> Self {
        Rejection {
            error: error.into(),
            detail: detail.into(),
            queue_depth: 0,
            capacity: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Job status and progress
// ---------------------------------------------------------------------

json_struct! {
    /// Where a job is in its service lifecycle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JobState {
        /// Admitted; no task has finished yet.
        Queued = "queued",
        /// At least one task finished, some remain.
        Running = "running",
        /// Every task resolved (completed or failed).
        Done = "done",
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

json_struct! {
    /// A job status snapshot (`GET /v1/jobs/<id>`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobStatusView {
        /// Job id.
        pub id: String,
        /// Submitting tenant.
        pub tenant: String,
        /// Display name.
        pub name: String,
        /// Lifecycle state.
        pub state: JobState,
        /// Total tasks in the job.
        pub total: u64,
        /// Tasks resolved so far (hits + executed + failed).
        pub done: u64,
        /// Tasks resolved from the result cache.
        pub hits: u64,
        /// Tasks freshly simulated.
        pub executed: u64,
        /// Tasks that failed (wedged/cap-hit after retries).
        pub failed: u64,
        /// Wall-clock since admission, milliseconds.
        pub wall_ms: u64,
        /// Remaining-time estimate, milliseconds (absent before the first
        /// completion and after the last).
        pub eta_ms: Option<u64> = None,
    }
}

json_struct! {
    /// One per-task progress event within a job's ordered event stream.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProgressEvent {
        /// Monotonic sequence number within the job (starts at 1).
        pub seq: u64,
        /// Label of the task that resolved.
        pub label: String,
        /// How it resolved ("cache-hit", "completed", "wedged ...").
        pub outcome: String,
        /// Job-level progress after this event: tasks done.
        pub done: u64,
        /// Tasks total.
        pub total: u64,
        /// Cache hits so far.
        pub hits: u64,
        /// Failures so far.
        pub failed: u64,
        /// Remaining-time estimate after this event, milliseconds.
        pub eta_ms: Option<u64> = None,
    }
}

json_struct! {
    /// A long-poll batch of progress events
    /// (`GET /v1/jobs/<id>/events?since=N`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EventBatch {
        /// Job id.
        pub id: String,
        /// Pass as `since` on the next poll.
        pub next: u64,
        /// True once the job has fully resolved (stop polling).
        pub complete: bool,
        /// Events with `seq > since`, in sequence order.
        pub events: Vec<ProgressEvent>,
    }
}

// ---------------------------------------------------------------------
// Service statistics
// ---------------------------------------------------------------------

json_struct! {
    /// Per-tenant fairness statistics within [`ServiceStats`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct TenantStats {
        /// Tenant name.
        pub tenant: String,
        /// Tasks waiting in the fair queue.
        pub queued: u64,
        /// Tasks currently on a worker.
        pub running: u64,
        /// Tasks resolved.
        pub done: u64,
        /// Tasks failed.
        pub failed: u64,
        /// Queue-wait distribution, milliseconds (admission → dispatch).
        pub wait_ms: HistSummary,
        /// Largest observed queue wait, milliseconds.
        pub max_wait_ms: u64,
        /// Tasks dispatched via aging escalation (starvation rescue).
        pub escalated: u64,
    }
}

json_struct! {
    /// Service-level statistics (`GET /v1/stats`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceStats {
        /// Milliseconds since the daemon started.
        pub uptime_ms: u64,
        /// Resident worker threads.
        pub workers: u64,
        /// Tasks waiting in the fair queue right now.
        pub queue_depth: u64,
        /// Admission-control capacity (queued tasks).
        pub queue_cap: u64,
        /// True once `/v1/drain` was accepted.
        pub draining: bool,
        /// Jobs ever admitted (including resumed ones).
        pub jobs: u64,
        /// Jobs fully resolved.
        pub jobs_done: u64,
        /// Tasks resolved.
        pub tasks_done: u64,
        /// Tasks resolved from the result cache.
        pub hits: u64,
        /// Tasks freshly simulated.
        pub executed: u64,
        /// Tasks failed.
        pub failed: u64,
        /// `hits / tasks_done` (0 when nothing resolved yet).
        pub hit_rate: f64,
        /// Queue-wait distribution across all tenants, milliseconds.
        pub wait_ms: HistSummary,
        /// Per-task resolve-latency distribution, milliseconds.
        pub task_wall_ms: HistSummary,
        /// Per-job latency distribution (admission → completion), ms.
        pub job_wall_ms: HistSummary,
        /// Host throughput over executed tasks: simulated megacycles per
        /// second (PR-8 host-perf, aggregated).
        pub mcycles_per_sec: f64,
        /// Per-tenant fairness breakdown, sorted by tenant name.
        pub tenants: Vec<TenantStats>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Reader;

    #[test]
    fn a_tagged_document_round_trips() {
        let mut req = SubmitRequest::new("bob", "homog");
        req.prefetcher = Some("GHB".into());
        req.emc = Some(true);
        req.seed_bump = 7;
        let text = req.to_json().to_json();
        assert!(
            text.starts_with(&format!(r#"{{"schema":"{SVC_SCHEMA}","#)),
            "{text}"
        );
        let back = SubmitRequest::from_json(&JsonValue::parse(&text).unwrap());
        assert_eq!(back, Ok(req));
    }

    #[test]
    fn submit_request_rejects_bad_documents() {
        let wrong_schema = JsonValue::obj(vec![
            ("schema", "emc-campaignd-v0".into()),
            ("tenant", "a".into()),
            ("suite", "quad".into()),
        ]);
        assert!(SubmitRequest::from_json(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        let empty_tenant = JsonValue::obj(vec![
            ("schema", SVC_SCHEMA.into()),
            ("tenant", "".into()),
            ("suite", "quad".into()),
        ]);
        assert!(SubmitRequest::from_json(&empty_tenant)
            .unwrap_err()
            .contains("tenant"));

        // repeat defaults to 1 and can never decode to 0.
        let zero_repeat = JsonValue::obj(vec![
            ("schema", SVC_SCHEMA.into()),
            ("tenant", "a".into()),
            ("suite", "quad".into()),
            ("repeat", JsonValue::Num(0.0)),
        ]);
        assert_eq!(SubmitRequest::from_json(&zero_repeat).unwrap().repeat, 1);

        // Numbers decode exactly or not at all: a negative, fractional or
        // out-of-range count is a 400 naming the key, never 0, 2 or
        // `u64::MAX`.
        for (key, bad) in [("budget", -1.0), ("repeat", 2.5), ("repeat", 1e300)] {
            let doc = JsonValue::obj(vec![
                ("schema", SVC_SCHEMA.into()),
                ("tenant", "a".into()),
                ("suite", "quad".into()),
                (key, JsonValue::Num(bad)),
            ]);
            let err = SubmitRequest::from_json(&doc).unwrap_err();
            assert!(
                err.contains(key) && err.contains("u64"),
                "{key}={bad}: {err}"
            );
        }
    }

    #[test]
    fn a_tagged_document_is_judged_by_the_members_read_so_far() {
        let text = |members: &str| -> Result<SubmitRequest, String> {
            let doc = format!(r#"{{"tenant":"a","suite":"quad",{members}}}"#);
            let direct = Reader::read_all(&doc, SubmitRequest::read_document);
            let tree = JsonValue::parse(&doc).and_then(|v| SubmitRequest::from_json(&v));
            assert_eq!(direct.clone().map_err(String::from), tree, "{doc}");
            tree
        };
        let ours = format!(r#""schema":"{SVC_SCHEMA}""#);
        // A bad member before the schema is reported as itself, as it is
        // when the schema comes first (keys sorted, or not).
        let bad = r#""budget":-1"#;
        let budget = ".budget: expected u64, got -1";
        assert_eq!(text(&format!("{bad},{ours}")).unwrap_err(), budget);
        assert_eq!(text(&format!("{ours},{bad}")).unwrap_err(), budget);
        // A schema read before the bad member, or no schema in a
        // document read through, is the error.
        let v0 = r#""schema":"emc-campaignd-v0""#;
        let wrong = format!("schema \"emc-campaignd-v0\", expected {SVC_SCHEMA:?}");
        assert_eq!(text(&format!("{v0},{bad}")).unwrap_err(), wrong);
        let missing = format!("schema \"\", expected {SVC_SCHEMA:?}");
        assert_eq!(text(r#""repeat":2"#).unwrap_err(), missing);
        assert_eq!(text(&ours).map(|r| r.repeat), Ok(1));
    }
}
