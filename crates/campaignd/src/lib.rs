//! `campaignd`: the always-on experiment service over the campaign
//! engine.
//!
//! Where the `campaign` CLI runs one suite and exits, this crate keeps a
//! resident worker pool alive behind an HTTP/JSON protocol
//! (`emc-campaignd-v1`, hand-rolled HTTP/1.1 over `std::net` — no new
//! dependencies) so several tenants can share one simulation host and
//! one content-addressed result cache:
//!
//! - [`queue`] — per-tenant fair scheduling: PAR-BS-style batching with
//!   a per-tenant marking cap, round-robin rank within a batch, and
//!   aging escalation for starving tenants (the scheduling lineage runs
//!   straight from `crates/memctrl`; see the module docs for the
//!   mapping and the one deliberate divergence).
//! - [`service`] — admission control (bounded queue → structured 429),
//!   the worker pool over a shared reentrant
//!   [`Executor`](emc_campaign::Executor), per-job progress streams with
//!   long-polling, service statistics (queue depth, per-tenant waits,
//!   hit rate, latency percentiles, host Mcycles/s), graceful drain, and
//!   kill -9 resume via a submission journal.
//! - [`http`] — the minimal HTTP/1.1 transport (parse + serialize only;
//!   routing stays in [`service::handle_request`], pure of sockets).
//!
//! The `campaignd` binary wires these to a `TcpListener`; the `campaign`
//! CLI's `submit` / `watch` / `svc-status` subcommands are the matching
//! client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod queue;
pub mod service;

pub use http::{read_request, write_response, Request};
pub use queue::{Dispatch, FairQueue, QueueFull, TaskRef, DEFAULT_AGE_MS, DEFAULT_MARK_CAP};
pub use service::{expand_request, handle_request, Service, ServiceConfig, FINISHED_JOBS_KEPT};
