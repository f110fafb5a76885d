//! A minimal HTTP/1.1 server protocol: request reading and response
//! writing over any `Read`/`Write` pair.
//!
//! Hand-rolled on purpose (dependency policy: std only). Supports
//! exactly what the daemon needs: request line + headers +
//! `Content-Length` bodies, keep-alive with `Connection: close`
//! opt-out, and bounded header/body sizes so a misbehaving client
//! cannot balloon memory. No chunked transfer encoding (a
//! `Transfer-Encoding` other than `identity` is refused with 501), no
//! pipelining guarantees beyond strict request-at-a-time processing.
//!
//! Every refusal carries the status code the daemon should answer
//! with, so protocol defects map to *typed* responses instead of a
//! catch-all 400: over-budget header blocks are 431, oversized bodies
//! 413, unimplemented transfer codings 501, and a request that starts
//! but then stalls past the read-stall budget is 408. The chaos
//! harness ([`crate::chaos`]) drives each of these classes
//! deliberately and asserts the mapping.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::io::{self, BufRead, Write};

/// Size bounds applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes across the request line and all header lines.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
    /// Maximum socket read timeouts tolerated *after* a request has
    /// started arriving (mid-line or mid-body). Each stall lasts one
    /// idle-timeout tick, so this bounds how long a slow-loris client
    /// can hold a worker: past the budget the read fails with a typed
    /// 408. Stalls *between* requests are ordinary keep-alive idling
    /// and are not counted.
    pub max_stall_reads: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            max_stall_reads: 50,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), verbatim.
    pub path: String,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before any request byte — the peer closed a
    /// keep-alive connection between requests.
    Closed,
    /// The socket read timed out before any request byte arrived (an
    /// idle keep-alive connection); safe to retry or close.
    IdleTimeout,
    /// Malformed or over-limit request; the caller should answer
    /// `status` and close. The status encodes the defect class: 400
    /// for framing garbage, 408 for a stalled transfer, 413 for an
    /// oversized body, 431 for an over-budget header block, 501 for
    /// an unimplemented transfer coding.
    Malformed {
        /// Response status the daemon should refuse with.
        status: u16,
        /// Human-readable defect description (becomes the error body).
        message: String,
    },
    /// Transport failure mid-request.
    Io(io::Error),
}

fn malformed(status: u16, message: impl Into<String>) -> ReadError {
    ReadError::Malformed {
        status,
        message: message.into(),
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or bare-LF-) terminated line, retrying through
/// read timeouts once any byte of the line has arrived. `stalls`
/// accumulates mid-request timeouts across the whole request; past
/// `limits.max_stall_reads` the read fails with a typed 408.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    stalls: &mut usize,
    limits: &HttpLimits,
    started: bool,
) -> Result<String, ReadError> {
    let mut raw = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) => {
                if raw.is_empty() {
                    return Err(ReadError::Closed);
                }
                return Err(malformed(400, "truncated line"));
            }
            Ok(_) => {
                if raw.last() == Some(&b'\n') {
                    break;
                }
                // Short read without a terminator (can happen at buffer
                // boundaries); keep reading.
            }
            Err(e) if is_timeout(&e) => {
                if raw.is_empty() && !started {
                    return Err(ReadError::IdleTimeout);
                }
                // Mid-request timeout: the request has started; wait
                // for the rest, but only within the stall budget.
                *stalls += 1;
                if *stalls > limits.max_stall_reads {
                    return Err(malformed(408, "request stalled past the read-stall budget"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
        if raw.len() > *budget {
            return Err(malformed(431, "header section too large"));
        }
    }
    if raw.len() > *budget {
        return Err(malformed(431, "header section too large"));
    }
    *budget -= raw.len();
    while matches!(raw.last(), Some(b'\n' | b'\r')) {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| malformed(400, "non-UTF-8 header"))
}

/// Reads one full request (blocking until the body is complete).
///
/// Timeouts configured on the underlying stream surface as
/// [`ReadError::IdleTimeout`] only when no byte of the request has
/// arrived yet; once a request has started, reading retries through
/// timeouts up to `limits.max_stall_reads` and then refuses with a
/// typed 408, so a slow client can neither corrupt framing nor hold a
/// worker forever.
pub fn read_request(reader: &mut impl BufRead, limits: &HttpLimits) -> Result<Request, ReadError> {
    read_request_capped(reader, limits, |_| limits.max_body_bytes)
}

/// [`read_request`] with the body cap chosen per request target:
/// `body_cap(path)` replaces `limits.max_body_bytes`, so an endpoint
/// whose bodies are documents rather than requests (a model upload)
/// can accept more than the scoring endpoint without raising the cap
/// for everything else.
pub(crate) fn read_request_capped(
    reader: &mut impl BufRead,
    limits: &HttpLimits,
    body_cap: impl FnOnce(&str) -> usize,
) -> Result<Request, ReadError> {
    let mut budget = limits.max_head_bytes;
    let mut stalls = 0usize;
    let request_line = read_line(reader, &mut budget, &mut stalls, limits, false)?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m.to_string(), p.to_string(), v),
        _ => return Err(malformed(400, format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(400, format!("bad version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget, &mut stalls, limits, true) {
            Ok(line) => line,
            Err(ReadError::Closed | ReadError::IdleTimeout) => {
                return Err(malformed(400, "truncated headers"))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(400, format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // No chunked (or other) transfer codings: refuse with 501 rather
    // than misinterpreting the body under Content-Length framing.
    if let Some((_, coding)) = headers.iter().find(|(k, _)| k == "transfer-encoding") {
        if !coding.eq_ignore_ascii_case("identity") {
            return Err(malformed(
                501,
                format!("transfer-encoding {coding:?} not implemented"),
            ));
        }
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| malformed(400, format!("bad content-length {v:?}")))?,
    };
    let max_body_bytes = body_cap(&path);
    if content_length > max_body_bytes {
        return Err(malformed(
            413,
            format!("body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"),
        ));
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    // Read until the unfilled tail of the body is empty.
    while let Some(unfilled @ [_, ..]) = body.get_mut(filled..) {
        match reader.read(unfilled) {
            Ok(0) => return Err(malformed(400, "truncated body")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > limits.max_stall_reads {
                    return Err(malformed(408, "request stalled past the read-stall budget"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// The standard reason phrase for the status codes the daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one response with `Content-Length` framing. `extra_headers`
/// are emitted verbatim after the standard ones.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Seconds a pushed-back client should wait before retrying. One
/// value for every push-back path — 429 admission shedding and 503
/// deadline degradation both tell clients the same thing, so retry
/// loops need no per-status parsing.
pub const RETRY_AFTER_SECONDS: &str = "1";

/// Writes a push-back response (429 shed, 503 degraded/unavailable)
/// carrying the shared `retry-after` header plus any `extra_headers`.
/// Centralizing the header here keeps the emitted bytes identical
/// across every push-back path — pinned by a regression test below.
pub fn write_retry_response(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut headers = vec![("retry-after", RETRY_AFTER_SECONDS.to_string())];
    headers.extend(extra_headers.iter().map(|(k, v)| (*k, v.clone())));
    write_response(writer, status, "application/json", &headers, body, close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn read(text: &str) -> Result<Request, ReadError> {
        read_request(
            &mut BufReader::new(Cursor::new(text.as_bytes().to_vec())),
            &HttpLimits::default(),
        )
    }

    /// The refusal status a malformed read carries, for assertions.
    fn refused(result: Result<Request, ReadError>) -> u16 {
        match result {
            Err(ReadError::Malformed { status, .. }) => status,
            other => panic!("expected a malformed refusal, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            read("POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"extra-ignored")
                .expect("parses");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/score");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"{\"a\"");
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let r = read("GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n").expect("parses");
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
        assert!(r.wants_close());
    }

    #[test]
    fn sequential_requests_on_one_connection() {
        let text = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(text.as_bytes().to_vec()));
        let limits = HttpLimits::default();
        assert_eq!(read_request(&mut reader, &limits).unwrap().path, "/a");
        assert_eq!(read_request(&mut reader, &limits).unwrap().path, "/b");
        assert!(matches!(
            read_request(&mut reader, &limits),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn rejects_malformed_with_typed_statuses() {
        assert_eq!(refused(read("NONSENSE\r\n\r\n")), 400);
        assert_eq!(refused(read("GET /x SPDY/9\r\n\r\n")), 400);
        assert_eq!(
            refused(read("GET /x HTTP/1.1\r\nbroken header\r\n\r\n")),
            400
        );
        assert_eq!(
            refused(read("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")),
            400
        );
        // Body larger than the limit is refused before allocation,
        // with the payload-specific status.
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(refused(read(&huge)), 413);
        // Header section over budget is the header-specific status.
        let long = format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "v".repeat(9000));
        assert_eq!(refused(read(&long)), 431);
        // Truncated body.
        assert_eq!(
            refused(read("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")),
            400
        );
    }

    #[test]
    fn body_cap_is_chosen_per_path() {
        let limits = HttpLimits {
            max_body_bytes: 4,
            ..HttpLimits::default()
        };
        let cap = |path: &str| if path == "/big" { 8 } else { 4 };
        let read_capped = |text: &str| {
            let mut reader = BufReader::new(Cursor::new(text.as_bytes().to_vec()));
            read_request_capped(&mut reader, &limits, cap)
        };
        let body = "POST {} HTTP/1.1\r\nContent-Length: 6\r\n\r\nsix by";
        assert_eq!(refused(read_capped(&body.replace("{}", "/small"))), 413);
        let big = read_capped(&body.replace("{}", "/big")).expect("within the /big cap");
        assert_eq!(big.body, b"six by");
    }

    #[test]
    fn unknown_transfer_encoding_is_501() {
        assert_eq!(
            refused(read(
                "POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )),
            501
        );
        assert_eq!(
            refused(read(
                "POST /score HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
            )),
            501
        );
        // `identity` is a no-op coding; Content-Length framing applies.
        let r = read(
            "POST /score HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\nok",
        )
        .expect("identity coding accepted");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn oversized_headers_then_fresh_request_on_one_connection() {
        // One keep-alive byte stream: the 431 refusal must not
        // misparse the *next* request on the wire (the daemon closes
        // after refusing, but the reader itself stays consistent).
        let long = format!(
            "GET /a HTTP/1.1\r\nh: {}\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            "v".repeat(9000)
        );
        let mut reader = BufReader::new(Cursor::new(long.into_bytes()));
        let limits = HttpLimits::default();
        assert_eq!(refused(read_request(&mut reader, &limits)), 431);
    }

    #[test]
    fn response_is_framed_with_content_length() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("retry-after", "1".to_string())],
            b"{\"error\": \"shed\"}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("content-length: 17\r\n"), "{text}");
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(
            text.contains("connection: keep-alive\r\n\r\n{\"error\": \"shed\"}"),
            "{text}"
        );
    }

    #[test]
    fn push_back_paths_emit_identical_retry_after_bytes() {
        // The 429 (shed) and 503 (degraded) responses must carry the
        // exact same deterministic header block apart from the status
        // line — clients implement one retry loop for both.
        let render = |status: u16| {
            let mut out = Vec::new();
            write_retry_response(&mut out, status, &[], b"{}", false).unwrap();
            String::from_utf8(out).unwrap()
        };
        let shed = render(429);
        let degraded = render(503);
        let strip_status = |text: &str| {
            let (status_line, rest) = text.split_once("\r\n").expect("status line");
            assert!(status_line.starts_with("HTTP/1.1 "), "{status_line}");
            rest.to_string()
        };
        assert_eq!(strip_status(&shed), strip_status(&degraded));
        assert!(shed.contains("retry-after: 1\r\n"), "{shed}");
        // Deterministic: repeated renders are byte-identical.
        assert_eq!(shed, render(429));
        assert_eq!(degraded, render(503));
        // Extra headers come after the shared retry-after header.
        let mut out = Vec::new();
        write_retry_response(
            &mut out,
            503,
            &[("x-trace-id", "00000000deadbeef".to_string())],
            b"{}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let retry = text.find("retry-after: 1\r\n").expect("retry-after");
        let trace = text
            .find("x-trace-id: 00000000deadbeef\r\n")
            .expect("trace");
        assert!(retry < trace, "{text}");
        assert!(text.contains("connection: close\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn refusal_statuses_have_reason_phrases() {
        for status in [400, 408, 413, 422, 429, 431, 501, 503] {
            assert_ne!(
                status_reason(status),
                "Internal Server Error",
                "status {status} must carry its own reason phrase"
            );
        }
    }
}
