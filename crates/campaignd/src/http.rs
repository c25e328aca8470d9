//! Hand-rolled HTTP/1.1 transport for the service, over
//! `std::net::TcpListener` — no web framework, no async runtime, in
//! keeping with the workspace's no-new-deps discipline (the JSON wire
//! format is already covered by `emc_types::json`).
//!
//! The shape is deliberately minimal: one request per connection
//! (`Connection: close`), a thread per connection (long-poll handlers
//! block, and localhost clients are few), bounded header/body sizes, and
//! read timeouts so a stuck client can never wedge a handler thread.
//! Framing is [`emc_campaign::http::read_message`], shared with the
//! client; routing lives in [`crate::service`]; this module parses
//! request targets and writes responses, both ways exercised by unit
//! tests without sockets.

use std::collections::HashMap;
use std::io::{Read, Write};

use emc_campaign::http::read_message;

/// Maximum accepted request body (1 MiB — submissions are small).
pub const MAX_BODY: usize = 1 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, upper-case (`GET`, `POST`).
    pub method: String,
    /// Path without the query string (`/v1/jobs/j3/events`).
    pub path: String,
    /// Decoded query parameters (last occurrence wins).
    pub query: HashMap<String, String>,
    /// Raw request body (UTF-8; empty for bodyless requests).
    pub body: String,
}

impl Request {
    /// A query parameter parsed as `u64`, or `default` when absent or
    /// malformed.
    pub fn query_u64(&self, key: &str, default: u64) -> u64 {
        self.query
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Split the path into its non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Read and parse one HTTP/1.1 request from a stream.
///
/// # Errors
///
/// Returns a message for malformed request lines, oversized headers or
/// bodies, and I/O failures (including read timeouts).
pub fn read_request<S: Read>(stream: S) -> Result<Request, String> {
    let (line, body) = read_message(stream, MAX_BODY).map_err(|e| format!("read request: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line missing target")?;
    if !target.starts_with('/') {
        return Err(format!("bad request target {target:?}"));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }

    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body,
    })
}

/// Minimal percent-decoding for query values (`%XX` and `+`).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                if let (Some(hi), Some(lo)) = (
                    bytes.get(i + 1).copied().and_then(hex_val),
                    bytes.get(i + 2).copied().and_then(hex_val),
                ) {
                    out.push(hi * 16 + lo);
                    i += 3;
                    continue;
                }
                out.push(b'%');
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// The reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialize one JSON response with `Connection: close`.
pub fn response_bytes(status: u16, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        reason_phrase(status),
        body.len(),
    )
    .into_bytes()
}

/// Write one JSON response to a stream.
///
/// # Errors
///
/// Propagates the I/O failure message.
pub fn write_response<S: Write>(mut stream: S, status: u16, body: &str) -> Result<(), String> {
    stream
        .write_all(&response_bytes(status, body))
        .and_then(|_| stream.flush())
        .map_err(|e| format!("write response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: 13\r\n\r\n{\"a\":\"hello\"}";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, "{\"a\":\"hello\"}");
        assert_eq!(req.segments(), vec!["v1", "jobs"]);
    }

    #[test]
    fn parses_query_strings_with_decoding() {
        let raw = "GET /v1/jobs/j3/events?since=42&tag=a%20b+c HTTP/1.1\r\n\r\n";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.path, "/v1/jobs/j3/events");
        assert_eq!(req.query_u64("since", 0), 42);
        assert_eq!(req.query_u64("missing", 7), 7);
        assert_eq!(req.query.get("tag").map(String::as_str), Some("a b c"));
        assert_eq!(req.segments(), vec!["v1", "jobs", "j3", "events"]);
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(read_request("\r\n".as_bytes()).is_err());
        assert!(read_request("GET\r\n\r\n".as_bytes()).is_err());
        assert!(read_request("GET nopath HTTP/1.1\r\n\r\n".as_bytes()).is_err());
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(huge.as_bytes()).unwrap_err().contains("body"));
        // Truncated body (fewer bytes than Content-Length) is an error,
        // never a hang or a silent short read.
        let short = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(short.as_bytes()).is_err());
        // A request line that never ends is cut off at the head bound
        // (`emc_campaign::http` pins how much was buffered by then).
        let endless = "GET /".to_string() + &"a".repeat(1 << 20);
        assert!(read_request(endless.as_bytes())
            .unwrap_err()
            .contains("head exceeds"));
    }

    #[test]
    fn response_is_well_formed_http() {
        let bytes = response_bytes(429, "{\"error\":\"queue-full\"}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"queue-full\"}"));
    }
}
