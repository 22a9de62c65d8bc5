//! Minimal raw-socket HTTP/1.1 client that can keep a connection open and
//! send arbitrary bytes.
//!
//! The shipped `gmap_serve::client` always sends `Connection: close` and
//! takes `&str` bodies. The benchmark needs two things it cannot do: a
//! persistent connection (for `serve.keepalive_req_ms`, the cost of a
//! request once the accept path is out of the way) and a binary body with
//! a `Content-Length` (binary trace uploads). Every response is read by
//! its declared `Content-Length`, so a short read is an error and never a
//! fast request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    open: bool,
}

/// A response: status and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    /// Opens a connection.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        writer.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            addr: addr.to_string(),
            writer,
            reader,
            open: true,
        })
    }

    /// Whether the server left the connection open after the last reply.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Sends one request and reads its reply. `close` asks the server to
    /// close afterwards (a one-shot request).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: {}\r\nConnection: {}\r\n\r\n",
            self.addr,
            body.len(),
            if close { "close" } else { "keep-alive" }
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        let reply = read_reply(&mut self.reader);
        self.open = !close && matches!(&reply, Ok((_, true)));
        reply.map(|(r, _)| r)
    }
}

/// One request on a fresh connection that the server closes afterwards.
pub fn once(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    Conn::connect(addr)?.request(method, path, body, true)
}

/// Reads one response; the flag says whether the server keeps the
/// connection open.
fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<(Reply, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line {line:?}")))?;
    let mut length: Option<usize> = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the response head",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(invalid(format!("malformed header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| invalid("response without Content-Length"))?;
    // 64 MiB is far above any body the service renders; a larger claim is
    // a framing error, not something to allocate for.
    if length > 64 << 20 {
        return Err(invalid(format!("implausible Content-Length {length}")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((Reply { status, body }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn reads_exactly_the_declared_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}NEXT";
        let mut reader = io::BufReader::new(&raw[..]);
        let (reply, keep) = read_reply(&mut reader).expect("complete response");
        assert_eq!(
            (reply.status, reply.body.as_slice(), keep),
            (200, &b"{}"[..], true)
        );
        // The next response's bytes stay in the reader.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("read rest");
        assert_eq!(rest, b"NEXT");
    }

    #[test]
    fn a_short_body_is_an_error_not_a_fast_reply() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"a\"";
        let err = read_reply(&mut io::BufReader::new(&raw[..])).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn missing_length_and_close_are_reported() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody";
        assert!(read_reply(&mut io::BufReader::new(&raw[..])).is_err());
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let (reply, keep) = read_reply(&mut io::BufReader::new(&raw[..])).expect("parses");
        assert_eq!((reply.status, keep), (404, false));
    }

    #[test]
    fn keep_alive_round_trips_against_the_shipped_server() {
        let server = gmap_serve::start(gmap_serve::ServeConfig::default()).expect("bind");
        let addr = server.addr().to_string();
        let mut conn = Conn::connect(&addr).expect("connect");
        for _ in 0..3 {
            let r = conn.request("GET", "/healthz", b"", false).expect("reply");
            assert_eq!(r.status, 200);
            assert!(conn.is_open());
        }
        let r = conn.request("GET", "/healthz", b"", true).expect("reply");
        assert_eq!(r.status, 200);
        assert!(!conn.is_open());
        server.shutdown();
    }
}
