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
    use crate::clock::Stopwatch;
    use proptest::collection::vec;
    use proptest::prelude::*;
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

    /// Feeds `raw` to [`read_request`] over one loopback connection from one
    /// writer thread, which ignores write errors (the parser may give up
    /// before reading everything) and, when `hold` is set, keeps its side
    /// open until the parser returns instead of closing it. Returns the
    /// parse and the microseconds it took.
    fn feed(
        raw: Vec<u8>,
        hold: bool,
        deadline: Duration,
    ) -> (io::Result<Result<Request, RequestError>>, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (parsed_tx, parsed_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).unwrap();
            let _ = out.write_all(&raw);
            if hold {
                let _ = parsed_rx.recv();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let watch = Stopwatch::start();
        let parsed = read_request(&stream, deadline);
        let took = watch.elapsed_micros();
        drop(parsed_tx);
        drop(stream);
        writer.join().unwrap();
        (parsed, took)
    }

    /// A valid request's parts: method, path, extra headers and body.
    type Parts = (String, String, Vec<(String, String)>, Vec<u8>);

    /// Draws the parts of a valid request.
    struct ValidRequest;

    impl Strategy for ValidRequest {
        type Value = Parts;
        fn generate(&self, rng: &mut TestRng) -> Parts {
            let pick = |rng: &mut TestRng, pool: &[u8], len: std::ops::Range<usize>| -> String {
                let len = len.generate(rng);
                (0..len)
                    .map(|_| pool[(0..pool.len()).generate(rng)] as char)
                    .collect()
            };
            let method = ["GET", "POST", "PUT", "DELETE"][(0usize..4).generate(rng)].to_string();
            let path = format!("/{}", pick(rng, b"abcxyz019-_./?=&", 0..40));
            let headers = (0..(0usize..8).generate(rng))
                .map(|_| {
                    let name = pick(rng, b"ABCXYZabcxyz-", 1..16);
                    (name, pick(rng, b"abc XYZ 019:;,/=-", 0..40))
                })
                .filter(|(name, _)| !name.eq_ignore_ascii_case("content-length"))
                .collect();
            (method, path, headers, vec(any::<u8>(), 0..64).generate(rng))
        }
    }

    fn serialize((method, path, headers, body): &Parts) -> Vec<u8> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    /// The slowest a parse may return past its deadline.
    const SLACK_MICROS: u64 = 1_000_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the parser, and a client that sends
        /// them and then goes silent is cut off at the deadline.
        #[test]
        fn arbitrary_bytes_never_panic_and_respect_the_deadline(
            raw in vec(any::<u8>(), 0..600),
            silent in 0u8..8,
        ) {
            let deadline = Duration::from_millis(200);
            let (_, took) = feed(raw, silent == 0, deadline);
            prop_assert!(took < deadline.as_micros() as u64 + SLACK_MICROS, "{took} us");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A valid request round-trips its method, path and body exactly;
        /// a mutation of one never panics the parser, nor outlasts the
        /// deadline when the client then goes silent.
        #[test]
        fn valid_requests_round_trip_and_mutations_never_panic(
            parts in ValidRequest,
            mutation in (0u8..6, any::<usize>(), any::<u8>()),
            silent in 0u8..8,
        ) {
            let mut raw = serialize(&parts);
            let (kind, at, byte) = mutation;
            let at = at % (raw.len() + 1);
            match kind {
                0 => {}
                1 => raw.truncate(at),
                2 if at < raw.len() => raw[at] ^= byte | 1,
                3 => raw.insert(at, byte),
                4 if at < raw.len() => drop(raw.remove(at)),
                _ => raw.splice(at..at, b"\r\n".iter().copied()).for_each(drop),
            }
            let deadline = Duration::from_millis(200);
            let (parsed, took) = feed(raw, silent == 0, deadline);
            prop_assert!(took < deadline.as_micros() as u64 + SLACK_MICROS, "{took} us");
            if kind == 0 {
                let (method, path, _, body) = parts;
                prop_assert_eq!(parsed.unwrap(), Ok(Request { method, path, body }));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A line over 8 KiB or more than 64 headers is `HeadersTooLarge`;
        /// a `Content-Length` over `MAX_BODY` is `BodyTooLarge`.
        #[test]
        fn oversized_requests_are_refused_by_kind(
            parts in ValidRequest,
            excess in (0u8..4, 1usize..100),
            length in (MAX_BODY as u64 + 1)..=u64::from(u32::MAX),
        ) {
            let (method, mut path, mut headers, _) = parts;
            let (kind, by) = excess;
            let expected = match kind {
                0 => {
                    headers.push(("X-Pad".to_string(), "x".repeat(MAX_LINE + by)));
                    RequestError::HeadersTooLarge
                }
                1 => {
                    path.push_str(&"x".repeat(MAX_LINE + by));
                    RequestError::HeadersTooLarge
                }
                2 => {
                    headers.extend((0..MAX_HEADERS + by).map(|i| (format!("X-{i}"), i.to_string())));
                    RequestError::HeadersTooLarge
                }
                _ => {
                    headers.push(("Content-Length".to_string(), length.to_string()));
                    RequestError::BodyTooLarge
                }
            };
            let mut raw = format!("{method} {path} HTTP/1.1\r\n");
            for (name, value) in &headers {
                raw.push_str(&format!("{name}: {value}\r\n"));
            }
            raw.push_str("\r\n");
            let (parsed, _) = feed(raw.into_bytes(), false, Duration::from_secs(2));
            prop_assert_eq!(parsed.unwrap(), Err(expected));
        }
    }
}
