//! HTTP/1.1 message framing shared by both ends of the `campaignd`
//! protocol: the daemon reads requests with it, [`Client`](crate::Client)
//! reads responses. One message per connection, a start line, headers
//! of which only `Content-Length` matters, and a body of exactly that
//! length (none without the header: the daemon always sends it).
//!
//! Both sizes are bounded before anything is buffered, so neither a
//! peer that never sends a newline nor one that announces a huge body
//! can grow this process: the head is read through a
//! [`MAX_HEADER`]-byte window, and the body limit is the caller's.

use std::io::{self, BufRead, BufReader, Read};

/// Maximum accepted start line plus header section (16 KiB).
pub const MAX_HEADER: usize = 16 << 10;

/// Read one message from `stream`: its start line (without the line
/// ending) and its body, which may be at most `max_body` bytes.
///
/// # Errors
///
/// I/O failures (including read timeouts) pass through; a head over
/// [`MAX_HEADER`] bytes, an unparseable or oversized `Content-Length`,
/// and a body that is not UTF-8 are [`io::ErrorKind::InvalidData`].
pub fn read_message<S: Read>(stream: S, max_body: usize) -> io::Result<(String, String)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEADER as u64);
    let mut next_line = |line: &mut String| {
        line.clear();
        head.read_line(line)?;
        if !line.ends_with('\n') && head.limit() == 0 {
            return Err(invalid(format!("head exceeds {MAX_HEADER} bytes")));
        }
        line.truncate(line.trim_end().len());
        Ok(())
    };

    let mut start_line = String::new();
    next_line(&mut start_line)?;
    let mut content_length = 0usize;
    let mut header = String::new();
    loop {
        next_line(&mut header)?;
        // A blank line ends the head; so does a peer that stops sending.
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > max_body {
        return Err(invalid(format!(
            "body of {content_length} bytes exceeds {max_body}"
        )));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".into()))?;
    Ok((start_line, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that sends `A` forever, counting what was taken from it.
    struct Endless(usize);

    impl Read for &mut Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'A');
            self.0 += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn a_newline_free_head_is_an_error_after_bounded_buffering() {
        // A steady sender that never ends its request line: no read ever
        // times out, so only a byte bound can stop it.
        let mut peer = Endless(0);
        let err = read_message(&mut peer, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("head exceeds"), "{err}");
        // The window, rounded up to whole `BufReader` refills.
        assert!(peer.0 <= MAX_HEADER + 8192, "buffered {}", peer.0);

        // The same for a 1 MiB line that does end, and for endless headers.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20));
        assert!(read_message(long.as_bytes(), 0).is_err());
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "x-pad: y\r\n".repeat(4096));
        assert!(read_message(many.as_bytes(), 0).is_err());
    }

    #[test]
    fn the_body_limit_is_the_callers_not_the_peers() {
        let raw = "HTTP/1.1 200 OK\r\nCONTENT-length: 5\r\n\r\nhello, and more";
        let (start, body) = read_message(raw.as_bytes(), 5).unwrap();
        assert_eq!(
            (start.as_str(), body.as_str()),
            ("HTTP/1.1 200 OK", "hello")
        );
        let err = read_message(raw.as_bytes(), 4).unwrap_err();
        assert!(
            err.to_string().contains("body of 5 bytes exceeds 4"),
            "{err}"
        );
    }
}
