//! Minimal hand-rolled HTTP/1.1 plumbing on `std::net` — the same
//! no-crates.io discipline as `wsync_core::json` and `wsync-lint`.
//!
//! The server speaks exactly the subset a JSON API needs: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies on the way in, and either a fixed JSON body or a
//! close-delimited `application/x-ndjson` stream on the way out. No
//! keep-alive, no chunked encoding, no TLS — this is an internal service
//! front-end, not a general web server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::clock::Deadline;

/// Largest accepted request body (a `SweepSpec` is a few hundred bytes;
/// a megabyte is generous headroom, and anything larger is a client bug).
pub const MAX_BODY: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included.
const MAX_LINE: usize = 8 * 1024;

/// Most header lines accepted after the request line.
const MAX_HEADERS: usize = 64;

/// Longest any one read of a request may wait for a byte.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// One parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target path, e.g. `/jobs/job-3` (query strings are
    /// kept verbatim; no route in this API uses them).
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The connection closed before a full request arrived, or the
    /// request line / headers were not valid HTTP.
    Malformed,
    /// The declared `Content-Length` exceeds [`MAX_BODY`].
    BodyTooLarge,
    /// A request or header line exceeds 8 KiB, or more than 64 header
    /// lines follow the request line.
    HeadersTooLarge,
}

/// Reads one HTTP/1.1 request from `stream`. `Ok(Err(_))` is a protocol
/// error to answer with a 4xx; `Err(_)` is a transport error to drop.
/// Memory stays bounded: every line is capped at `MAX_LINE` bytes and the
/// header block at `MAX_HEADERS` lines. So does time: any one read waits
/// at most `READ_TIMEOUT`, and the whole request must arrive within
/// `deadline`, so a client that trickles bytes cannot hold the connection
/// either. Running out of time is a `TimedOut` or `WouldBlock` error.
pub(crate) fn read_request(
    stream: &TcpStream,
    deadline: Duration,
) -> io::Result<Result<Request, RequestError>> {
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        deadline: Deadline::after(deadline),
    });
    let line = match read_line(&mut reader)? {
        Ok(line) => line,
        Err(e) => return Ok(Err(e)),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Err(RequestError::Malformed));
    };
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = match read_line(&mut reader)? {
            Ok(header) => header,
            Err(e) => return Ok(Err(e)),
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err(RequestError::HeadersTooLarge));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(n) = value.trim().parse::<usize>() else {
                    return Ok(Err(RequestError::Malformed));
                };
                content_length = n;
            }
        }
    }
    if content_length > MAX_BODY {
        return Ok(Err(RequestError::BodyTooLarge));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(Request { method, path, body }))
}

/// A request's byte source: before each read the socket's timeout becomes
/// the lesser of `READ_TIMEOUT` and the time left, and no read starts once
/// the deadline has passed.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Deadline,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.remaining();
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left.min(READ_TIMEOUT)))?;
        self.stream.read(buf)
    }
}

/// Reads one line of at most `MAX_LINE` bytes, line ending included.
/// A closed stream is `Malformed` and a longer line `HeadersTooLarge`;
/// text that is not UTF-8 is a transport error, as for
/// [`BufRead::read_line`].
fn read_line(reader: &mut impl BufRead) -> io::Result<Result<String, RequestError>> {
    let mut bytes = Vec::new();
    let read = reader.take(MAX_LINE as u64).read_until(b'\n', &mut bytes)?;
    if read == 0 {
        return Ok(Err(RequestError::Malformed));
    }
    if read == MAX_LINE && bytes.last() != Some(&b'\n') {
        return Ok(Err(RequestError::HeadersTooLarge));
    }
    String::from_utf8(bytes)
        .map(Ok)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes a complete JSON response and closes the exchange.
pub(crate) fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    respond_json_with(stream, status, reason, &[], body)
}

/// [`respond_json`] with extra response headers (e.g. `Retry-After` on a
/// `503`), written between the fixed header set and the blank line.
pub(crate) fn respond_json_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "\r\n{body}")?;
    stream.flush()
}

/// Writes a JSON error body `{"error": message}` with the given status.
pub(crate) fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
) -> io::Result<()> {
    respond_error_with(stream, status, reason, &[], message)
}

/// [`respond_error`] with extra response headers (e.g. `Retry-After`).
pub(crate) fn respond_error_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    message: &str,
) -> io::Result<()> {
    let body = wsync_core::json::Value::Object(vec![(
        "error".to_string(),
        wsync_core::json::Value::Str(message.to_string()),
    )])
    .to_json_compact();
    respond_json_with(stream, status, reason, extra_headers, &body)
}

/// Starts a close-delimited ndjson stream: status line and headers only.
/// The caller then writes one JSON document per line (flushing each) and
/// signals completion by closing the connection.
pub(crate) fn start_ndjson(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn request_roundtrip(raw: &str) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).unwrap();
            out.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let parsed = read_request(&stream, READ_TIMEOUT).unwrap();
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = request_roundtrip(
            "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = request_roundtrip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn a_trickling_client_runs_into_the_whole_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A complete request sent one byte every 20 ms: no read waits
        // anywhere near `READ_TIMEOUT`, but the whole takes about 3 s.
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).unwrap();
            let raw = format!(
                "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "x".repeat(120)
            );
            for byte in raw.as_bytes() {
                if out.write_all(std::slice::from_ref(byte)).is_err() {
                    break; // the reader gave up and closed
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let error = read_request(&stream, Duration::from_millis(200))
            .expect_err("the request must not outlast its deadline");
        assert!(
            matches!(
                error.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{error}"
        );
        drop(stream);
        writer.join().unwrap();
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert_eq!(request_roundtrip("\r\n\r\n"), Err(RequestError::Malformed));
        assert_eq!(
            request_roundtrip("POST /run HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::Malformed)
        );
        assert_eq!(
            request_roundtrip(&format!(
                "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )),
            Err(RequestError::BodyTooLarge)
        );
        // A line of exactly `MAX_LINE` bytes passes; one byte more does
        // not, in the request line or in a header.
        let pad = |len: usize| "x".repeat(len - "X-Pad: \r\n".len());
        let request = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", pad(MAX_LINE));
        assert!(request_roundtrip(&request).is_ok());
        let request = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            pad(MAX_LINE + 1)
        );
        assert_eq!(
            request_roundtrip(&request),
            Err(RequestError::HeadersTooLarge)
        );
        let request = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE));
        assert_eq!(
            request_roundtrip(&request),
            Err(RequestError::HeadersTooLarge)
        );
        // `MAX_HEADERS` header lines pass; 65 do not.
        let headers = |count: usize| -> String {
            (0..count)
                .map(|i| format!("X-Header-{i}: {i}\r\n"))
                .collect()
        };
        let request = format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS));
        assert!(request_roundtrip(&request).is_ok());
        let request = format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(65));
        assert_eq!(
            request_roundtrip(&request),
            Err(RequestError::HeadersTooLarge)
        );
    }
}
