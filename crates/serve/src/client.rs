//! Minimal blocking HTTP/1.1 client for `gmap client` and the tests,
//! plus a retrying wrapper with exponential backoff and decorrelated
//! jitter.
//!
//! Every outbound request of the crate — `gmap client`, the router's
//! forwards, replication pushes, health probes — is one call of
//! `exchange`: it opens one connection (bounded by the deadline
//! budget), writes one request head and body through the one framer,
//! and reads the `Connection: close` response to EOF. The response's
//! `Content-Length` is verified against the bytes actually received, so
//! a connection reset mid-body surfaces as a transport error instead of
//! a silently truncated result.
//!
//! Retry policy: only idempotent requests are retried. Every pipeline
//! endpoint is content-addressed — the same spec always produces the
//! same model — so `GET`s and the `/v1/*` `POST`s all qualify. Transient
//! statuses (408, 429, 500, 503, 504) and transport errors back off
//! exponentially with decorrelated jitter; a server-provided
//! `Retry-After` is honored, clamped to the policy cap. The jitter is
//! seeded (via [`gmap_trace::rng::mix64`]) so a given policy replays the
//! same sleep schedule.

use crate::metrics::Endpoint;
use gmap_trace::rng::mix64;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Request header carrying the remaining deadline budget in
/// milliseconds. Set by every exchange that has a budget, honored by
/// replicas: a peer clamps its own per-request deadline to
/// this value so it never keeps working on a request whose requester
/// has already been answered 504 upstream.
pub const DEADLINE_HEADER: &str = "X-Gmap-Deadline-Ms";

/// Read-timeout grace beyond the propagated budget: long enough for a
/// peer's honest in-budget 504 to arrive before the transport gives up.
const BUDGET_GRACE: Duration = Duration::from_secs(2);

/// Longest an exchange waits for its TCP connect, whatever its budget:
/// a black-holed peer costs this much, not the OS's SYN retries.
const CONNECT_CAP: Duration = Duration::from_secs(5);

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (UTF-8; the service only emits JSON and text).
    pub body: String,
    /// Seconds from a `Retry-After` header, when the server sent one.
    pub retry_after: Option<u64>,
}

impl Response {
    /// Whether the status is a 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Statuses worth retrying: timeouts, backpressure, and contained
/// worker failures. 4xx validation errors are deterministic and final.
pub const RETRYABLE_STATUSES: [u16; 5] = [408, 429, 500, 503, 504];

/// Whether `(method, path)` is safe to retry: any `GET`, and every row
/// of the endpoint table — the pipeline is content-addressed (the body
/// fully determines the result).
pub fn is_idempotent(method: &str, path: &str) -> bool {
    method == "GET" || Endpoint::resolve(method, path).is_ok()
}

/// Backoff configuration for [`request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// Minimum sleep between attempts.
    pub base: Duration,
    /// Maximum sleep between attempts (also clamps `Retry-After`).
    pub cap: Duration,
    /// Jitter seed: a fixed policy replays a fixed sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            seed: 0x6761_705f_636c_6965, // "gap_clie", arbitrary fixed seed
        }
    }
}

impl RetryPolicy {
    /// Decorrelated jitter (`sleep = rand(base, prev * 3)`, capped): the
    /// classic scheme that spreads concurrent retriers apart instead of
    /// synchronizing them into waves.
    fn next_sleep(&self, prev: Duration, attempt: u32) -> Duration {
        let lo = self.base.as_millis().max(1) as u64;
        let hi = (prev.as_millis() as u64).saturating_mul(3).max(lo + 1);
        let draw = mix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_millis((lo + draw % (hi - lo)).min(self.cap.as_millis() as u64))
    }
}

/// What an exchange sends after the request head.
pub(crate) enum Payload<'a> {
    /// A materialized JSON body, `Content-Length` framed.
    Json(&'a str),
    /// A body of unknown length, pulled from `next` in pieces of at most
    /// `piece` bytes (0 ends it) and re-framed chunked, so the resident
    /// buffer is one piece whatever the body's size.
    Stream {
        /// Size of the buffer `next` fills.
        piece: usize,
        /// Fills the buffer with the next piece of the body.
        next: &'a mut dyn FnMut(&mut [u8]) -> io::Result<usize>,
    },
}

impl Payload<'_> {
    /// The same payload for one more attempt (a stream resumes where
    /// its source stands).
    pub(crate) fn reborrow(&mut self) -> Payload<'_> {
        match self {
            Payload::Json(body) => Payload::Json(body),
            Payload::Stream { piece, next } => Payload::Stream {
                piece: *piece,
                next: &mut **next,
            },
        }
    }
}

/// Why an exchange produced no response.
#[derive(Debug)]
pub(crate) enum ExchangeError {
    /// No connection was made: nothing was sent or pulled from the
    /// payload, so the request can still go to another peer.
    Connect(io::Error),
    /// The peer failed after the request had started to flow.
    Peer(io::Error),
    /// The streamed payload's source failed; the peer is not at fault.
    Source(io::Error),
}

impl From<ExchangeError> for io::Error {
    fn from(e: ExchangeError) -> io::Error {
        match e {
            ExchangeError::Connect(e) | ExchangeError::Peer(e) | ExchangeError::Source(e) => e,
        }
    }
}

/// The head of an outbound request: JSON with `Content-Length` or an
/// octet stream with `Transfer-Encoding: chunked`, plus the remaining
/// deadline budget when there is one.
fn request_head(
    method: &str,
    path: &str,
    host: &str,
    payload: &Payload<'_>,
    budget: Option<Duration>,
) -> String {
    let framing = match payload {
        Payload::Json(body) => format!(
            "Content-Type: application/json\r\nContent-Length: {}",
            body.len()
        ),
        Payload::Stream { .. } => {
            "Content-Type: application/octet-stream\r\nTransfer-Encoding: chunked".to_string()
        }
    };
    let deadline = budget.map_or(String::new(), |b| {
        format!("{DEADLINE_HEADER}: {}\r\n", b.as_millis())
    });
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\n{framing}\r\n{deadline}Connection: close\r\n\r\n"
    )
}

/// Writes one chunk of a chunked body (`<hex len>\r\n<data>\r\n`); the
/// empty chunk is the terminator.
fn write_chunk<W: Write>(writer: &mut W, data: &[u8]) -> io::Result<()> {
    writer.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    writer.write_all(data)?;
    writer.write_all(b"\r\n")
}

/// The one peer exchange: connects to `addr`, sends one request and
/// reads the response to EOF. `budget` is what remains of the request's
/// deadline: it bounds the connect (clamped to [`CONNECT_CAP`]), travels
/// to the peer in [`DEADLINE_HEADER`], and tightens the read timeout to
/// budget + a small grace, so a replica's honest in-budget 504 wins over
/// the transport timeout.
///
/// # Errors
///
/// [`ExchangeError`] says how far the exchange got; an unparseable or
/// truncated response is the peer's failure.
pub(crate) fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    payload: Payload<'_>,
    budget: Option<Duration>,
) -> Result<Response, ExchangeError> {
    let started = Instant::now();
    let patience = budget
        .map_or(CONNECT_CAP, |b| b.min(CONNECT_CAP))
        .max(Duration::from_millis(1));
    let mut stream = addr
        .to_socket_addrs()
        .and_then(|resolved| {
            let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to");
            for target in resolved {
                match TcpStream::connect_timeout(&target, patience) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last = e,
                }
            }
            Err(last)
        })
        .map_err(ExchangeError::Connect)?;
    let budget = budget.map(|b| b.saturating_sub(started.elapsed()));
    let read_timeout = budget.map_or(Duration::from_secs(120), |b| b + BUDGET_GRACE);
    stream
        .set_read_timeout(Some(read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .map_err(ExchangeError::Peer)?;
    let mut request = request_head(method, path, addr, &payload, budget).into_bytes();
    match payload {
        Payload::Json(body) => {
            // Head and body leave in one write.
            request.extend_from_slice(body.as_bytes());
            stream.write_all(&request).map_err(ExchangeError::Peer)?;
        }
        Payload::Stream { piece, next } => {
            stream.write_all(&request).map_err(ExchangeError::Peer)?;
            let mut buf = vec![0u8; piece.max(1)];
            loop {
                let n = match next(&mut buf) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(ExchangeError::Source(e)),
                };
                // The empty piece that ends the body is the terminator.
                write_chunk(&mut stream, &buf[..n]).map_err(ExchangeError::Peer)?;
                if n == 0 {
                    break;
                }
            }
        }
    }
    let mut raw = Vec::new();
    stream
        .flush()
        .and_then(|()| stream.read_to_end(&mut raw))
        .map_err(ExchangeError::Peer)?;
    parse_response(&raw).map_err(ExchangeError::Peer)
}

/// Performs one request against `addr` (e.g. `"127.0.0.1:8080"`).
///
/// # Errors
///
/// Transport failures and unparseable responses surface as `io::Error`.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let payload = Payload::Json(body.unwrap_or(""));
    Ok(exchange(addr, method, path, payload, None)?)
}

/// Performs a request, retrying transient failures when the request is
/// idempotent. Transient *statuses* (408/429/500/503/504) and transport
/// failures both back off on the policy's seeded schedule; a server's
/// `Retry-After` is honored up to the policy cap. A non-idempotent
/// request gets exactly one attempt. A sharded fleet is reached through
/// a router (`gmap serve --route`), which walks the ring itself.
///
/// # Errors
///
/// The last transport error once retries are exhausted.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> io::Result<Response> {
    let attempts = if is_idempotent(method, path) {
        policy.max_retries + 1
    } else {
        1
    };
    let mut sleep = policy.base;
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(sleep);
        }
        let hint = match request(addr, method, path, body) {
            Ok(resp) if !RETRYABLE_STATUSES.contains(&resp.status) => return Ok(resp),
            Ok(resp) if attempt + 1 == attempts => return Ok(resp),
            Ok(resp) => resp.retry_after,
            Err(e) => {
                last_err = Some(e);
                None
            }
        };
        sleep = policy.next_sleep(sleep, attempt);
        if let Some(secs) = hint {
            // Honor the server's hint, but never beyond the local cap —
            // the caller's patience bounds the server's request.
            sleep = sleep.max(Duration::from_secs(secs)).min(policy.cap);
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("retries exhausted")))
}

/// Convenience `GET`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, None)
}

/// Convenience `POST` with a JSON body.
///
/// # Errors
///
/// See [`request`].
pub fn post_json(addr: &str, path: &str, json: &str) -> io::Result<Response> {
    request(addr, "POST", path, Some(json))
}

/// `POST` with a `Transfer-Encoding: chunked` body streamed from
/// `reader` in `chunk_size`-byte pieces — for `/v1/ingest`, where the
/// body is a raw trace that may be too large to hold in memory. Each
/// piece is framed and written immediately, so the client's resident
/// buffer is one chunk regardless of trace size.
///
/// # Errors
///
/// Transport failures and unparseable responses surface as `io::Error`.
pub fn post_chunked<R: Read>(
    addr: &str,
    path: &str,
    reader: &mut R,
    chunk_size: usize,
) -> io::Result<Response> {
    let payload = Payload::Stream {
        piece: chunk_size,
        next: &mut |buf| reader.read(buf),
    };
    Ok(exchange(addr, "POST", path, payload, None)?)
}

fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .or_else(|| text.split_once("\n\n"))
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    };
    if let Some(expected) = header("content-length").and_then(|v| v.parse::<usize>().ok()) {
        if body.len() != expected {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "response truncated: got {} of {} body bytes",
                    body.len(),
                    expected
                ),
            ));
        }
    }
    let retry_after = header("retry-after").and_then(|v| v.parse().ok());
    Ok(Response {
        status,
        body: body.to_string(),
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
        )
        .expect("parses");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{}");
        assert!(r.is_ok());
        assert_eq!(r.retry_after, None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\nx").is_err());
    }

    #[test]
    fn truncated_body_is_a_transport_error() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"a\"");
        assert!(r.is_err(), "reset mid-body must not parse as success");
    }

    #[test]
    fn retry_after_header_is_parsed() {
        let r = parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\n\r\n")
            .expect("parses");
        assert_eq!(r.retry_after, Some(7));
    }

    #[test]
    fn idempotency_is_method_and_path_aware() {
        assert!(is_idempotent("GET", "/metrics"));
        assert!(is_idempotent("POST", "/v1/profile"));
        assert!(is_idempotent("POST", "/v1/evaluate"));
        assert!(!is_idempotent("POST", "/admin/reset"));
        assert!(!is_idempotent("DELETE", "/v1/profile"));
    }

    #[test]
    fn jitter_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let mut a = policy.base;
        let mut b = policy.base;
        for attempt in 0..5 {
            a = policy.next_sleep(a, attempt);
            b = policy.next_sleep(b, attempt);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a >= policy.base && a <= policy.cap);
        }
        let other = RetryPolicy { seed: 43, ..policy };
        let mut c = other.base;
        let mut differs = false;
        let mut d = policy.base;
        for attempt in 0..5 {
            c = other.next_sleep(c, attempt);
            d = policy.next_sleep(d, attempt);
            differs |= c != d;
        }
        assert!(differs, "different seeds decorrelate");
    }

    /// A writer that accepts one byte at a time.
    struct OneByte(Vec<u8>);
    impl Write for OneByte {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend(buf.first());
            Ok(buf.len().min(1))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_framer_writes_both_head_shapes_and_chunks_survive_partial_writes() {
        let json = Payload::Json("{}");
        let budget = Some(Duration::from_millis(1500));
        assert_eq!(
            request_head("POST", "/v1/clone", "h:1", &json, budget),
            "POST /v1/clone HTTP/1.1\r\nHost: h:1\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nX-Gmap-Deadline-Ms: 1500\r\nConnection: close\r\n\r\n"
        );

        let stream = Payload::Stream {
            piece: 4,
            next: &mut |_| Ok(0),
        };
        let mut w =
            OneByte(request_head("POST", "/v1/ingest?name=t", "h:1", &stream, None).into_bytes());
        write_chunk(&mut w, b"0123456789abcdef").expect("writes fully");
        write_chunk(&mut w, b"").expect("writes fully");
        assert_eq!(
            String::from_utf8(w.0).expect("ascii"),
            "POST /v1/ingest?name=t HTTP/1.1\r\nHost: h:1\r\n\
             Content-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn connect_is_bounded_by_the_budget() {
        // TEST-NET-1 is never routed. A sandbox may answer "unreachable"
        // at once, swallow the SYN, or even accept and reset — so only
        // the upper bound is asserted: the budget (plus the read grace),
        // not the OS's minutes of SYN retries.
        let budget = Duration::from_millis(200);
        let began = Instant::now();
        let _ = exchange(
            "192.0.2.1:9",
            "GET",
            "/healthz",
            Payload::Json(""),
            Some(budget),
        );
        let bound = budget + BUDGET_GRACE + Duration::from_secs(1);
        assert!(began.elapsed() < bound, "took {:?}", began.elapsed());
    }

    #[test]
    fn a_failed_stream_source_is_not_the_peers_fault() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut pieces = 0;
        let outcome = exchange(
            &addr,
            "POST",
            "/v1/ingest",
            Payload::Stream {
                piece: 8,
                next: &mut |buf| {
                    pieces += 1;
                    if pieces == 1 {
                        buf.fill(b'x');
                        Ok(buf.len())
                    } else {
                        Err(io::Error::other("upload died"))
                    }
                },
            },
            None,
        );
        assert!(
            matches!(outcome, Err(ExchangeError::Source(_))),
            "{outcome:?}"
        );
    }
}
