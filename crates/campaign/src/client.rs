//! HTTP/JSON client for the `campaignd` service (`emc-campaignd-v1`).
//!
//! Lives in this crate — not `emc-campaignd` — because the `campaign`
//! CLI is the primary consumer and the dependency arrow points the
//! other way (the daemon builds *on* the engine). Plain
//! `std::net::TcpStream`, one request per connection, matching the
//! daemon's `Connection: close` discipline; the wire documents are the
//! shared types in [`emc_types::svc`].

use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use emc_types::json::{Reader, TextError};
use emc_types::{
    EventBatch, FromJson, JobStatusView, JsonValue, Rejection, ServiceStats, SubmitAck,
    SubmitRequest,
};

use crate::http::read_message;

/// Where `campaignd` listens and the `campaign` CLI looks for it by
/// default (localhost only: the protocol is unauthenticated).
pub const DEFAULT_ADDR: &str = "127.0.0.1:8321";

/// Largest response body accepted. The largest legitimate document is
/// an [`EventBatch`] with a job's whole history: the daemon's default
/// queue capacity bounds a job at 8192 tasks and an event is about
/// 200 bytes, so 1.6 MB; this leaves a decade of headroom and still
/// bounds what a confused or hostile peer can make the client allocate.
const MAX_RESPONSE_BODY: usize = 16 << 20;

/// How a client call failed — the split the CLI's exit-code mapping
/// needs: a daemon that isn't there is a different failure class from a
/// daemon that said no.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the daemon at all (connect/write/read failure).
    Unreachable(String),
    /// The daemon answered with a structured rejection.
    Rejected {
        /// HTTP status (400, 404, 429, 503).
        status: u16,
        /// The decoded rejection document.
        rejection: Rejection,
    },
    /// The daemon answered, but not in the protocol we speak.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(e) => write!(f, "service unreachable: {e}"),
            ClientError::Rejected { status, rejection } => write!(
                f,
                "rejected ({status} {}): {}",
                rejection.error, rejection.detail
            ),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

/// A client bound to one daemon address (`host:port`).
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Baseline I/O timeout; long-polls extend it by their own timeout.
    timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
        }
    }

    /// Liveness probe (`GET /v1/healthz`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] when nothing answers.
    pub fn healthz(&self) -> Result<(), ClientError> {
        self.request("GET", "/v1/healthz", None, self.timeout, |r| {
            JsonValue::read(r)
        })
        .map(drop)
    }

    /// Submit a job (`POST /v1/jobs`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries the structured 400/429/503.
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmitAck, ClientError> {
        let body = Some(&req.to_json());
        self.request("POST", "/v1/jobs", body, self.timeout, |r| {
            SubmitAck::read_document(r)
        })
    }

    /// Snapshot a job (`GET /v1/jobs/<id>`).
    ///
    /// # Errors
    ///
    /// 404 surfaces as [`ClientError::Rejected`].
    pub fn status(&self, id: &str) -> Result<JobStatusView, ClientError> {
        let path = format!("/v1/jobs/{id}");
        self.request("GET", &path, None, self.timeout, |r| {
            JobStatusView::read_document(r)
        })
    }

    /// Long-poll a job's event stream
    /// (`GET /v1/jobs/<id>/events?since=N&timeout_ms=M`).
    ///
    /// # Errors
    ///
    /// 404 surfaces as [`ClientError::Rejected`].
    pub fn events(&self, id: &str, since: u64, timeout_ms: u64) -> Result<EventBatch, ClientError> {
        let path = format!("/v1/jobs/{id}/events?since={since}&timeout_ms={timeout_ms}");
        let timeout = self.timeout + Duration::from_millis(timeout_ms);
        self.request("GET", &path, None, timeout, |r| {
            EventBatch::read_document(r)
        })
    }

    /// Service statistics (`GET /v1/stats`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] / [`ClientError::Protocol`].
    pub fn stats(&self) -> Result<ServiceStats, ClientError> {
        self.request("GET", "/v1/stats", None, self.timeout, |r| {
            ServiceStats::read_document(r)
        })
    }

    /// Begin a graceful drain (`POST /v1/drain`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] when nothing answers.
    pub fn drain(&self) -> Result<JsonValue, ClientError> {
        self.request("POST", "/v1/drain", None, self.timeout, |r| {
            JsonValue::read(r)
        })
    }

    /// One request/response cycle. A 2xx body is decoded by `read`,
    /// straight from its text; other statuses decode the body as a
    /// [`Rejection`].
    fn request<T>(
        &self,
        method: &str,
        path: &str,
        body: Option<&JsonValue>,
        read_timeout: Duration,
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
    ) -> Result<T, ClientError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Unreachable(format!("{}: {e}", self.addr)))?
            .next()
            .ok_or_else(|| ClientError::Unreachable(format!("{}: no address", self.addr)))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.timeout)
            .map_err(|e| ClientError::Unreachable(format!("{}: {e}", self.addr)))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| ClientError::Unreachable(e.to_string()))?;
        let _ = stream.set_nodelay(true);

        let payload = body.map(|b| b.to_json()).unwrap_or_default();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{payload}",
            self.addr,
            payload.len(),
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| ClientError::Unreachable(format!("write: {e}")))?;

        let (status, text) = read_response(&mut stream)?;
        let bad_body = |e| ClientError::Protocol(format!("status {status}, bad body: {e}"));
        if (200..300).contains(&status) {
            return Reader::read_all(&text, read).map_err(|e| match e {
                TextError::Syntax(e) => bad_body(e),
                TextError::Decode(e) => ClientError::Protocol(e),
            });
        }
        match Reader::read_all(&text, Rejection::read_document) {
            Ok(rejection) => Err(ClientError::Rejected { status, rejection }),
            Err(TextError::Syntax(e)) => Err(bad_body(e)),
            Err(TextError::Decode(e)) => Err(ClientError::Protocol(format!(
                "status {status}, undecodable rejection: {e}"
            ))),
        }
    }
}

/// Read one HTTP/1.1 response: status code and body.
fn read_response(stream: &mut TcpStream) -> Result<(u16, String), ClientError> {
    let (line, body) = read_message(stream, MAX_RESPONSE_BODY).map_err(|e| match e.kind() {
        ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
        _ => ClientError::Unreachable(format!("read response: {e}")),
    })?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {line:?}")))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Serve exactly one canned HTTP response, then close.
    fn one_shot_server(status_line: &str, body: &str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let response = format!(
            "HTTP/1.1 {status_line}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                // Drain the request before answering so the client's
                // write never races the close.
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(response.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn decodes_a_successful_ack() {
        let ack = SubmitAck {
            id: "j9".into(),
            total: 80,
            queue_depth: 80,
        };
        let addr = one_shot_server("200 OK", &ack.to_json().to_json());
        let got = Client::new(addr)
            .submit(&SubmitRequest::new("t", "quad"))
            .unwrap();
        assert_eq!(got, ack);
    }

    #[test]
    fn surfaces_structured_rejections_with_status() {
        let rej = Rejection {
            error: "queue-full".into(),
            detail: "at capacity".into(),
            queue_depth: 10,
            capacity: 10,
        };
        let addr = one_shot_server("429 Too Many Requests", &rej.to_json().to_json());
        match Client::new(addr).submit(&SubmitRequest::new("t", "quad")) {
            Err(ClientError::Rejected { status, rejection }) => {
                assert_eq!(status, 429);
                assert_eq!(rejection, rej);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn dead_daemon_is_unreachable_not_a_panic() {
        // Bind then drop: the port is (momentarily) closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        match Client::new(addr).healthz() {
            Err(ClientError::Unreachable(_)) => {}
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn garbage_responses_are_protocol_errors() {
        let addr = one_shot_server("200 OK", "this is not json");
        match Client::new(addr).stats() {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("expected Protocol, got {other:?}"),
        }
    }
}
