//! Minimal HTTP/1.1 framing over `std::net`.
//!
//! The service speaks one shape of conversation: read a request head
//! (line + headers), read the body — `Content-Length` or
//! `Transfer-Encoding: chunked` — write a response, and — since the
//! resilience layer — *keep the connection* for the next request unless
//! either side asks to close. This module implements that shape from the
//! stdlib — no async runtime, no external HTTP crate — with hard limits
//! on header and body size so a misbehaving peer cannot balloon memory,
//! and with read errors classified finely enough for the server to pick
//! the right response (400 for malformed bytes, 408 for a mid-request
//! stall, 413 for an oversized body, silent close for an idle peer).
//!
//! The head and body phases are split ([`read_request_head`] +
//! [`BodyReader`]) so the streaming-ingest endpoint can consume an
//! arbitrarily large chunked body piece by piece without ever
//! materializing it; [`read_request`] composes the two phases back into
//! the materialized [`Request`] every other endpoint uses.

use crate::api::ApiError;
use std::io::{self, BufRead, Read, Write};

/// Maximum accepted request-line + header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body bytes (profiles are a few KB; grids are
/// smaller).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Maximum bytes accepted on the *streaming* ingest path. Far above
/// [`MAX_BODY_BYTES`] — the stream is profiled incrementally and never
/// materialized — but still bounded so a runaway peer cannot occupy a
/// connection thread forever.
pub const MAX_INGEST_BODY_BYTES: u64 = 1 << 30;
/// Longest accepted chunk-size line in a chunked body (hex digits plus
/// optional extensions).
const MAX_CHUNK_LINE_BYTES: usize = 256;

/// The head of an HTTP request: request line plus headers, body not yet
/// consumed.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| {
            v.to_ascii_lowercase()
                .split(',')
                .any(|t| t.trim() == "close")
        })
    }
}

/// One parsed HTTP request: its head plus the materialized body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request line and headers.
    pub head: RequestHead,
    /// Raw request body (empty unless `Content-Length` or a chunked body
    /// was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an error suitable for a 400 response.
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("request body is not UTF-8: {e}"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request.
    Eof,
    /// Transport-level failure other than a timeout.
    Io(io::Error),
    /// The read timed out; `mid_request` distinguishes a stalled sender
    /// (answer 408) from an idle keep-alive connection (close silently).
    Timeout {
        /// Whether any request bytes had been consumed before the stall.
        mid_request: bool,
    },
    /// The bytes did not form an acceptable request; the message is safe
    /// to echo in a 400 response.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`] (answer 413).
    TooLarge(String),
}

impl ReadError {
    /// The reply an unreadable request (`what` names the part that was
    /// being read) deserves: 408 for a mid-request stall, 400 for
    /// malformed bytes, 413 for an oversized body — and `None` when the
    /// peer went away or merely idled out, so nothing can be answered.
    /// Every `Some` abandons unread bytes: the connection must close.
    pub fn reply(self, what: &str) -> Option<ApiError> {
        match self {
            ReadError::Eof | ReadError::Io(_) | ReadError::Timeout { mid_request: false } => None,
            ReadError::Timeout { mid_request: true } => {
                Some(ApiError::new(408, format!("timed out reading {what}")))
            }
            ReadError::Malformed(msg) => Some(ApiError::bad_request(msg)),
            ReadError::TooLarge(msg) => Some(ApiError::new(413, msg)),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads the request line and headers of one HTTP/1.1 request, leaving
/// the body unconsumed on `reader`.
///
/// # Errors
///
/// [`ReadError::Eof`] on a cleanly closed idle connection,
/// [`ReadError::Malformed`] for protocol violations (oversized head, bad
/// request line, bad header lines), [`ReadError::Timeout`] when the
/// transport timed out, and [`ReadError::Io`] for other transport
/// failures.
pub fn read_request_head<R: BufRead>(reader: &mut R) -> Result<RequestHead, ReadError> {
    let mut head = Vec::new();
    // Read up to the blank line terminating the header block.
    loop {
        let started = !head.is_empty();
        let mut line = Vec::new();
        let n = read_crlf_line(reader, &mut line, MAX_HEAD_BYTES - head.len(), started)?;
        if n == 0 && head.is_empty() {
            return Err(ReadError::Eof);
        }
        if line.is_empty() {
            break;
        }
        head.push(line);
        if head.iter().map(Vec::len).sum::<usize>() > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed("header block too large".into()));
        }
    }
    let request_line = head
        .first()
        .ok_or_else(|| ReadError::Malformed("empty request".into()))?;
    let request_line = String::from_utf8_lossy(request_line).into_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::with_capacity(head.len().saturating_sub(1));
    for raw in &head[1..] {
        let text = String::from_utf8_lossy(raw);
        let Some((name, value)) = text.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line {text:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(RequestHead {
        method,
        path,
        headers,
    })
}

/// How a request's body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    /// Exactly this many bytes follow (`Content-Length`, possibly 0).
    Length(u64),
    /// `Transfer-Encoding: chunked` framing.
    Chunked,
}

/// Determines how the body following `head` is framed.
///
/// # Errors
///
/// [`ReadError::Malformed`] for an unsupported `Transfer-Encoding` or an
/// unparseable `Content-Length`.
pub fn body_kind(head: &RequestHead) -> Result<BodyKind, ReadError> {
    if let Some(te) = head.header("transfer-encoding") {
        if te
            .to_ascii_lowercase()
            .split(',')
            .any(|t| t.trim() == "chunked")
        {
            return Ok(BodyKind::Chunked);
        }
        return Err(ReadError::Malformed(format!(
            "unsupported Transfer-Encoding {te:?} (only chunked)"
        )));
    }
    let content_length = head
        .header("content-length")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|e| ReadError::Malformed(format!("bad Content-Length {v:?}: {e}")))
        })
        .transpose()?
        .unwrap_or(0);
    Ok(BodyKind::Length(content_length))
}

/// Incremental body reader: yields the body in caller-sized pieces
/// without ever holding more than one piece, decoding chunked framing
/// transparently. The streaming-ingest endpoint drives this directly;
/// [`read_request`] drives it to materialize small bodies.
#[derive(Debug)]
pub struct BodyReader<'a, R: BufRead> {
    reader: &'a mut R,
    state: BodyState,
    consumed: u64,
    limit: u64,
}

#[derive(Debug)]
enum BodyState {
    /// Plain body: this many bytes left to read.
    Length(u64),
    /// Chunked body: bytes left in the current chunk (0 = a size line is
    /// due next).
    Chunk(u64),
    /// All body bytes (and, for chunked, the trailer) consumed.
    Done,
}

impl<'a, R: BufRead> BodyReader<'a, R> {
    /// Starts reading a body of the given kind, enforcing `limit` total
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::TooLarge`] immediately when a declared
    /// `Content-Length` exceeds `limit`.
    pub fn new(reader: &'a mut R, kind: BodyKind, limit: u64) -> Result<Self, ReadError> {
        let state = match kind {
            BodyKind::Length(0) => BodyState::Done,
            BodyKind::Length(n) if n > limit => {
                return Err(ReadError::TooLarge(format!(
                    "body of {n} bytes exceeds the {limit}-byte limit"
                )));
            }
            BodyKind::Length(n) => BodyState::Length(n),
            BodyKind::Chunked => BodyState::Chunk(0),
        };
        Ok(BodyReader {
            reader,
            state,
            consumed: 0,
            limit,
        })
    }

    /// Starts reading the body that follows `head`, however it is
    /// framed.
    ///
    /// # Errors
    ///
    /// [`body_kind`]'s and [`BodyReader::new`]'s.
    pub fn open(reader: &'a mut R, head: &RequestHead, limit: u64) -> Result<Self, ReadError> {
        BodyReader::new(reader, body_kind(head)?, limit)
    }

    /// Total body bytes yielded so far (excluding chunk framing).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Reads the next piece of the body into `buf`. Returns 0 exactly
    /// once the body (and any chunked trailer) is fully consumed, so the
    /// connection is positioned at the next request.
    ///
    /// # Errors
    ///
    /// [`ReadError::Malformed`] for truncated bodies and bad chunk
    /// framing, [`ReadError::TooLarge`] when the running total passes the
    /// limit, [`ReadError::Timeout`]/[`ReadError::Io`] for transport
    /// failures.
    pub fn next_piece(&mut self, buf: &mut [u8]) -> Result<usize, ReadError> {
        loop {
            match self.state {
                BodyState::Done => return Ok(0),
                BodyState::Length(remaining) => {
                    let want = buf
                        .len()
                        .min(usize::try_from(remaining).unwrap_or(usize::MAX));
                    let n = self.read_some(&mut buf[..want])?;
                    if n == 0 {
                        return Err(ReadError::Malformed(
                            "request body truncated before Content-Length bytes".into(),
                        ));
                    }
                    self.state = match remaining - n as u64 {
                        0 => BodyState::Done,
                        left => BodyState::Length(left),
                    };
                    return self.account(n);
                }
                BodyState::Chunk(0) => {
                    let size = self.read_chunk_size()?;
                    if size == 0 {
                        self.read_trailer()?;
                        self.state = BodyState::Done;
                        return Ok(0);
                    }
                    self.state = BodyState::Chunk(size);
                }
                BodyState::Chunk(remaining) => {
                    let want = buf
                        .len()
                        .min(usize::try_from(remaining).unwrap_or(usize::MAX));
                    let n = self.read_some(&mut buf[..want])?;
                    if n == 0 {
                        return Err(ReadError::Malformed(
                            "request body truncated mid-chunk".into(),
                        ));
                    }
                    if remaining == n as u64 {
                        // Chunk data is followed by its own CRLF.
                        let mut terminator = Vec::new();
                        read_crlf_line(self.reader, &mut terminator, 2, true)?;
                        if !terminator.is_empty() {
                            return Err(ReadError::Malformed(
                                "missing CRLF after chunk data".into(),
                            ));
                        }
                        self.state = BodyState::Chunk(0);
                    } else {
                        self.state = BodyState::Chunk(remaining - n as u64);
                    }
                    return self.account(n);
                }
            }
        }
    }

    fn account(&mut self, n: usize) -> Result<usize, ReadError> {
        self.consumed += n as u64;
        if self.consumed > self.limit {
            return Err(ReadError::TooLarge(format!(
                "body exceeds the {}-byte limit",
                self.limit
            )));
        }
        Ok(n)
    }

    fn read_some(&mut self, buf: &mut [u8]) -> Result<usize, ReadError> {
        loop {
            match self.reader.read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(classify_io(e, true)),
            }
        }
    }

    fn read_chunk_size(&mut self) -> Result<u64, ReadError> {
        let mut line = Vec::new();
        let n = read_crlf_line(self.reader, &mut line, MAX_CHUNK_LINE_BYTES, true)?;
        if n == 0 {
            return Err(ReadError::Malformed(
                "request body truncated before chunk size".into(),
            ));
        }
        let text = String::from_utf8_lossy(&line);
        // Chunk extensions (";name=value") are tolerated and ignored.
        let digits = text.split(';').next().unwrap_or("").trim();
        u64::from_str_radix(digits, 16)
            .map_err(|e| ReadError::Malformed(format!("bad chunk size {digits:?}: {e}")))
    }

    /// Consumes trailer lines after the final 0-size chunk, up to and
    /// including the blank terminator line.
    fn read_trailer(&mut self) -> Result<(), ReadError> {
        loop {
            let mut line = Vec::new();
            let n = read_crlf_line(self.reader, &mut line, MAX_HEAD_BYTES, true)?;
            if n == 0 {
                return Err(ReadError::Malformed(
                    "request body truncated in chunked trailer".into(),
                ));
            }
            if line.is_empty() {
                return Ok(());
            }
        }
    }
}

/// Materializes the body following `head`, bounded by [`MAX_BODY_BYTES`].
///
/// # Errors
///
/// See [`BodyReader::next_piece`]; a declared or running length over the
/// limit is [`ReadError::TooLarge`].
pub fn read_body<R: BufRead>(reader: &mut R, head: &RequestHead) -> Result<Vec<u8>, ReadError> {
    let mut body_reader = BodyReader::open(reader, head, MAX_BODY_BYTES as u64)?;
    let mut body = Vec::new();
    let mut buf = [0u8; 8 * 1024];
    loop {
        match body_reader.next_piece(&mut buf)? {
            0 => return Ok(body),
            n => body.extend_from_slice(&buf[..n]),
        }
    }
}

/// Reads one HTTP/1.1 request from `reader`, materializing the body.
///
/// # Errors
///
/// [`ReadError::Eof`] on a cleanly closed idle connection,
/// [`ReadError::Malformed`] for protocol violations (oversized head,
/// missing/bad `Content-Length`, bad request line, bad chunk framing, a
/// body cut short by the peer), [`ReadError::TooLarge`] for bodies over
/// the limit, [`ReadError::Timeout`] when the transport timed out, and
/// [`ReadError::Io`] for other transport failures.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ReadError> {
    let head = read_request_head(reader)?;
    let body = read_body(reader, &head)?;
    Ok(Request { head, body })
}

/// Classifies a transport error: timeouts become [`ReadError::Timeout`]
/// (with the mid-request flag), everything else stays [`ReadError::Io`].
fn classify_io(e: io::Error, mid_request: bool) -> ReadError {
    if is_timeout(&e) {
        ReadError::Timeout { mid_request }
    } else {
        ReadError::Io(e)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line into `out`, without the
/// terminator. Returns the number of bytes consumed (0 on EOF).
/// `mid_request` labels a timeout here as stalling an in-progress
/// request (vs. an idle connection).
fn read_crlf_line<R: BufRead>(
    reader: &mut R,
    out: &mut Vec<u8>,
    limit: usize,
    mid_request: bool,
) -> Result<usize, ReadError> {
    let mut raw = Vec::new();
    let n = reader
        .by_ref()
        .take(limit as u64 + 2)
        .read_until(b'\n', &mut raw)
        .map_err(|e| classify_io(e, mid_request))?;
    if n > limit + 1 {
        return Err(ReadError::Malformed("line too long".into()));
    }
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    *out = raw;
    Ok(n)
}

/// Canonical reason phrase for the status codes the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Connection/header options for one response.
#[derive(Debug, Clone, Copy)]
pub struct ResponseOpts {
    /// Emit `Connection: close` (and actually close afterwards) instead
    /// of `Connection: keep-alive`.
    pub close: bool,
    /// Attach a `Retry-After: <seconds>` header (for 429/503 shedding).
    pub retry_after: Option<u64>,
}

impl ResponseOpts {
    /// The one-shot default: close after responding, no retry hint.
    pub fn closing() -> Self {
        ResponseOpts {
            close: true,
            retry_after: None,
        }
    }
}

/// One response on its way to the wire: what every endpoint returns and
/// the server's one writer consumes.
pub(crate) struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Request bytes were left unread behind this reply: the connection
    /// must close after it, whatever the client asked for.
    pub close: bool,
}

impl Reply {
    /// A JSON reply that leaves the connection usable.
    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            content_type: "application/json",
            close: false,
        }
    }

    /// `error` as the last reply of its connection.
    pub(crate) fn closing(error: ApiError) -> Reply {
        Reply {
            close: true,
            ..error.into()
        }
    }
}

impl From<ApiError> for Reply {
    fn from(error: ApiError) -> Reply {
        Reply::json(error.status, error.body())
    }
}

/// Writes one complete `Connection: close` response.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write_response_opts(writer, status, content_type, body, ResponseOpts::closing())
}

/// Writes one complete response with explicit connection semantics.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response_opts<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    opts: ResponseOpts,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
    )?;
    if let Some(secs) = opts.retry_after {
        write!(writer, "Retry-After: {secs}\r\n")?;
    }
    write!(
        writer,
        "Connection: {}\r\n\r\n{}",
        if opts.close { "close" } else { "keep-alive" },
        body
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("valid");
        assert_eq!(r.head.method, "GET");
        assert_eq!(r.head.path, "/healthz");
        assert_eq!(r.head.header("host"), Some("x"));
        assert_eq!(r.head.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            parse(b"POST /v1/profile HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").expect("valid");
        assert_eq!(r.head.method, "POST");
        assert_eq!(r.body, b"{\"a\"");
        assert_eq!(r.body_utf8().expect("utf8"), "{\"a\"");
    }

    #[test]
    fn tolerates_bare_lf_lines() {
        let r = parse(b"GET / HTTP/1.1\nHost: y\n\n").expect("valid");
        assert_eq!(r.head.header("host"), Some("y"));
    }

    #[test]
    fn eof_and_malformed_are_distinguished() {
        assert!(matches!(parse(b""), Err(ReadError::Eof)));
        assert!(matches!(
            parse(b"GET\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/99\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(head.as_bytes()),
            Err(ReadError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn connection_close_header_is_detected() {
        let r = parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").expect("valid");
        assert!(r.head.wants_close());
        let r = parse(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").expect("valid");
        assert!(r.head.wants_close());
        let r = parse(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").expect("valid");
        assert!(!r.head.wants_close());
        let r = parse(b"GET / HTTP/1.1\r\n\r\n").expect("valid");
        assert!(!r.head.wants_close());
    }

    #[test]
    fn chunked_body_is_decoded_and_materialized() {
        let r = parse(
            b"POST /v1/ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n",
        )
        .expect("valid chunked request");
        assert_eq!(r.body, b"Wikipedia");
    }

    #[test]
    fn chunked_extensions_and_trailers_are_tolerated() {
        let r = parse(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              3;ext=1\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n",
        )
        .expect("valid");
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn chunked_keeps_the_connection_positioned_for_the_next_request() {
        let bytes: &[u8] = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              2\r\nhi\r\n0\r\n\r\n\
              GET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(bytes);
        let first = read_request(&mut reader).expect("chunked request");
        assert_eq!(first.body, b"hi");
        let second = read_request(&mut reader).expect("next request parses");
        assert_eq!(second.head.path, "/healthz");
    }

    #[test]
    fn bad_chunk_framing_is_malformed() {
        for bytes in [
            // Non-hex size line.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nab\r\n0\r\n\r\n"[..],
            // Missing CRLF after chunk data.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX\r\n0\r\n\r\n"[..],
            // Truncated mid-chunk.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n8\r\nab"[..],
            // Truncated before the terminal chunk.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n"[..],
            // Unsupported encoding.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(bytes), Err(ReadError::Malformed(_))),
                "expected malformed for {:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn chunked_body_over_the_limit_is_too_large() {
        // One declared chunk larger than the materialized-body limit; the
        // limit trips as soon as the running total passes it, long before
        // the declared bytes arrive.
        let mut bytes = format!(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_BODY_BYTES + 2
        )
        .into_bytes();
        bytes.extend_from_slice(&vec![b'x'; MAX_BODY_BYTES + 2]);
        bytes.extend_from_slice(b"\r\n0\r\n\r\n");
        assert!(matches!(parse(&bytes), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn body_reader_streams_pieces_without_materializing() {
        let bytes: &[u8] = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let mut reader = BufReader::new(bytes);
        let mut body = BodyReader::new(&mut reader, BodyKind::Chunked, 1024).expect("under limit");
        let mut buf = [0u8; 4];
        let mut collected = Vec::new();
        loop {
            match body.next_piece(&mut buf).expect("well-formed") {
                0 => break,
                n => collected.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(collected, b"hello world");
        assert_eq!(body.consumed(), 11);
    }

    #[test]
    fn timeouts_are_classified_by_phase() {
        let idle = classify_io(io::Error::from(io::ErrorKind::WouldBlock), false);
        assert!(matches!(idle, ReadError::Timeout { mid_request: false }));
        let mid = classify_io(io::Error::from(io::ErrorKind::TimedOut), true);
        assert!(matches!(mid, ReadError::Timeout { mid_request: true }));
        let other = classify_io(io::Error::from(io::ErrorKind::ConnectionReset), true);
        assert!(matches!(other, ReadError::Io(_)));
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            "{\"error\":\"queue full\"}",
        )
        .expect("write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn keep_alive_response_carries_retry_after() {
        let mut out = Vec::new();
        write_response_opts(
            &mut out,
            503,
            "application/json",
            "{}",
            ResponseOpts {
                close: false,
                retry_after: Some(2),
            },
        )
        .expect("write");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
    }
}
