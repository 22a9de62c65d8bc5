//! Readers and writers for per-thread memory traces.
//!
//! G-MAP can profile traces produced by any front end, not just the
//! execution substrate in `gmap-gpu`. This module defines two on-disk
//! formats for interchange:
//!
//! - **Text**: one access per line, `tid pc kind addr` with hexadecimal pc
//!   and address (comment lines start with `#`). Diffable and easy to
//!   produce from any tracing tool.
//! - **Binary**: a `GMTR` magic, a little-endian record count, then fixed
//!   21-byte records. Compact and fast for large traces.
//!
//! Besides the materializing `read_text`/`read_binary` readers, the
//! building blocks of both formats ([`decode_text_line`] with
//! [`parse_text_line`] behind it, [`decode_record`], the
//! [`MAGIC`]/[`HEADER_BYTES`]/[`RECORD_BYTES`] framing constants) are
//! public so that streaming consumers (`gmap-ingest`) can parse chunk by
//! chunk with byte-identical semantics.

use crate::record::{AccessKind, ByteAddr, MemAccess, Pc, ThreadId};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// One trace entry: which thread performed which access.
pub type TraceEntry = (ThreadId, MemAccess);

/// Error produced while parsing a trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line or record, with 1-based line/record index, the
    /// offending field, and a description.
    Malformed {
        /// 1-based index of the offending entry. For text traces this is
        /// the *physical line number* (comments and blank lines count);
        /// for binary traces it is the 1-based record number.
        index: usize,
        /// The field that failed to parse (`"tid"`, `"pc"`, `"kind"`,
        /// `"addr"`), or a framing pseudo-field (`"line"`, `"record"`,
        /// `"magic"`, `"count"`).
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// The binary magic did not match `GMTR`.
    BadMagic,
}

impl ParseTraceError {
    fn malformed(index: usize, field: &'static str, reason: impl Into<String>) -> Self {
        ParseTraceError::Malformed {
            index,
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ParseTraceError::Malformed {
                index,
                field,
                reason,
            } => {
                write!(f, "malformed trace entry {index} ({field}): {reason}")
            }
            ParseTraceError::BadMagic => f.write_str("not a gmap binary trace (bad magic)"),
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// Writes a trace in the text format. The writer can be any `Write`
/// implementor (pass `&mut file` to keep ownership).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_text<W: Write>(mut w: W, entries: &[TraceEntry]) -> io::Result<()> {
    writeln!(w, "# gmap trace v1: tid pc kind addr")?;
    for (tid, acc) in entries {
        writeln!(
            w,
            "{} {:#x} {} {:#x}",
            tid.0, acc.pc.0, acc.kind, acc.addr.0
        )?;
    }
    Ok(())
}

/// Parses one line of the text format.
///
/// `index` is the 1-based physical line number, used verbatim in errors.
/// Returns `Ok(None)` for blank lines and `#` comments.
///
/// # Errors
///
/// Returns [`ParseTraceError::Malformed`] (carrying `index` and the
/// offending field) when the line does not have four fields of the
/// expected shape.
pub fn parse_text_line(line: &str, index: usize) -> Result<Option<TraceEntry>, ParseTraceError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let mut next = |what: &'static str| {
        fields
            .next()
            .ok_or_else(|| ParseTraceError::malformed(index, what, format!("missing {what} field")))
    };
    let tid: u32 = next("tid")?
        .parse()
        .map_err(|e| ParseTraceError::malformed(index, "tid", format!("bad tid: {e}")))?;
    let pc = parse_hex(next("pc")?, index, "pc")?;
    let kind = match next("kind")? {
        "R" => AccessKind::Read,
        "W" => AccessKind::Write,
        other => {
            return Err(ParseTraceError::malformed(
                index,
                "kind",
                format!("bad kind {other:?} (expected R or W)"),
            ))
        }
    };
    let addr = parse_hex(next("addr")?, index, "addr")?;
    Ok(Some((
        ThreadId(tid),
        MemAccess {
            pc: Pc(pc),
            addr: ByteAddr(addr),
            kind,
        },
    )))
}

/// Decodes one line of the text format straight from its bytes, when
/// the line has exactly the shape [`write_text`] emits and tracers
/// produce: optional blanks (space or tab), 1–9 decimal digits, blanks,
/// an optional `0x`/`0X` and 1–16 hex digits, blanks, `R` or `W`,
/// blanks, a second hex field, optional blanks, end of line (no
/// terminator).
///
/// Returns `None` for every other line — comments, blank lines, a sign,
/// longer numbers, other whitespace, a fifth field, anything malformed —
/// which the caller hands to [`parse_text_line`]: that parser alone
/// decides what is an error and what it says. On the lines decoded here
/// the two agree on the value (the digit bounds keep both numbers in
/// range, so no overflow case is decided here).
pub fn decode_text_line(line: &[u8]) -> Option<TraceEntry> {
    let blanks = |mut i: usize| {
        while matches!(line.get(i), Some(b' ' | b'\t')) {
            i += 1;
        }
        i
    };
    // At least one blank must end a field that another follows.
    let gap = |i: usize| Some(blanks(i)).filter(|&j| j > i);
    let hex = |mut i: usize| {
        if line.get(i) == Some(&b'0') && matches!(line.get(i + 1), Some(b'x' | b'X')) {
            i += 2;
        }
        let start = i;
        let mut v = 0u64;
        while let Some(d) = line.get(i).and_then(|&b| char::from(b).to_digit(16)) {
            if i - start == 16 {
                return None;
            }
            v = v << 4 | u64::from(d);
            i += 1;
        }
        (i > start).then_some((v, i))
    };

    let start = blanks(0);
    let mut i = start;
    let mut tid = 0u32;
    while let Some(d) = line.get(i).filter(|b| b.is_ascii_digit()) {
        if i - start == 9 {
            return None;
        }
        tid = tid * 10 + u32::from(d - b'0');
        i += 1;
    }
    if i == start {
        return None;
    }
    let (pc, i) = hex(gap(i)?)?;
    let i = gap(i)?;
    let kind = match line.get(i)? {
        b'R' => AccessKind::Read,
        b'W' => AccessKind::Write,
        _ => return None,
    };
    let (addr, i) = hex(gap(i + 1)?)?;
    (blanks(i) == line.len()).then_some((
        ThreadId(tid),
        MemAccess {
            pc: Pc(pc),
            addr: ByteAddr(addr),
            kind,
        },
    ))
}

/// Reads a trace in the text format.
///
/// # Errors
///
/// Returns [`ParseTraceError::Malformed`] on any line that does not have
/// four fields of the expected shape — with the 1-based line number and
/// the offending field — and propagates I/O errors (a line that is not
/// UTF-8 is one, of kind `InvalidData`).
pub fn read_text<R: BufRead>(mut r: R) -> Result<Vec<TraceEntry>, ParseTraceError> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut index = 0;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            return Ok(out);
        }
        index += 1;
        // One terminator, as `BufRead::lines` strips it: `\n`, then `\r`.
        let mut line = &buf[..];
        if let [head @ .., b'\n'] = line {
            line = head;
            if let [head @ .., b'\r'] = line {
                line = head;
            }
        }
        if let Some(entry) = decode_text_line(line) {
            out.push(entry);
            continue;
        }
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if let Some(entry) = parse_text_line(text, index)? {
            out.push(entry);
        }
    }
}

fn parse_hex(s: &str, index: usize, what: &'static str) -> Result<u64, ParseTraceError> {
    let stripped = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    u64::from_str_radix(stripped, 16)
        .map_err(|e| ParseTraceError::malformed(index, what, format!("bad {what}: {e}")))
}

/// The binary-format magic bytes.
pub const MAGIC: &[u8; 4] = b"GMTR";

/// Size of the binary header: magic plus little-endian `u64` record count.
pub const HEADER_BYTES: usize = 12;

/// Size of one fixed binary record: `u32` tid, `u64` pc, `u64` addr,
/// `u8` is-write flag.
pub const RECORD_BYTES: usize = 21;

/// Decodes one fixed-size binary record. Infallible: every bit pattern of
/// the numeric fields is a valid entry (a nonzero flag byte means write).
pub fn decode_record(rec: &[u8; RECORD_BYTES]) -> TraceEntry {
    let tid = u32::from_le_bytes(rec[0..4].try_into().expect("fixed slice"));
    let pc = u64::from_le_bytes(rec[4..12].try_into().expect("fixed slice"));
    let addr = u64::from_le_bytes(rec[12..20].try_into().expect("fixed slice"));
    let kind = if rec[20] != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    (
        ThreadId(tid),
        MemAccess {
            pc: Pc(pc),
            addr: ByteAddr(addr),
            kind,
        },
    )
}

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_binary<W: Write>(mut w: W, entries: &[TraceEntry]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    for (tid, acc) in entries {
        w.write_all(&tid.0.to_le_bytes())?;
        w.write_all(&acc.pc.0.to_le_bytes())?;
        w.write_all(&acc.addr.0.to_le_bytes())?;
        w.write_all(&[acc.kind.is_write() as u8])?;
    }
    Ok(())
}

/// Reads a trace in the binary format.
///
/// # Errors
///
/// Returns [`ParseTraceError::BadMagic`] if the stream does not start with
/// `GMTR`, and [`ParseTraceError::Malformed`] on a truncated header, a
/// truncated record (including a partial *final* record), or trailing
/// bytes beyond the declared record count. Other I/O errors propagate as
/// [`ParseTraceError::Io`].
pub fn read_binary<R: Read>(mut r: R) -> Result<Vec<TraceEntry>, ParseTraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| eof_as_malformed(e, 0, "magic", "truncated header (magic)"))?;
    if &magic != MAGIC {
        return Err(ParseTraceError::BadMagic);
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len)
        .map_err(|e| eof_as_malformed(e, 0, "count", "truncated header (record count)"))?;
    let count = u64::from_le_bytes(len) as usize;
    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut rec = [0u8; RECORD_BYTES];
    for i in 0..count {
        r.read_exact(&mut rec)
            .map_err(|e| eof_as_malformed(e, i + 1, "record", "truncated record"))?;
        out.push(decode_record(&rec));
    }
    // A well-formed trace ends exactly at the declared count; stray bytes
    // mean the header lied or the stream was corrupted mid-write.
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(out),
        Ok(_) => Err(ParseTraceError::malformed(
            count + 1,
            "record",
            "trailing data after declared record count",
        )),
        Err(e) => Err(ParseTraceError::Io(e)),
    }
}

fn eof_as_malformed(
    e: io::Error,
    index: usize,
    field: &'static str,
    reason: &'static str,
) -> ParseTraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ParseTraceError::malformed(index, field, reason)
    } else {
        ParseTraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<TraceEntry> {
        vec![
            (ThreadId(0), MemAccess::read(Pc(0x900), ByteAddr(0x1000))),
            (ThreadId(1), MemAccess::write(Pc(0x4a0), ByteAddr(0x1080))),
            (
                ThreadId(31),
                MemAccess::read(Pc(0xe8), ByteAddr(0xFFFF_FFFF_0000)),
            ),
        ]
    }

    #[test]
    fn text_round_trip() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        write_text(&mut buf, &entries).expect("write");
        let back = read_text(&buf[..]).expect("read");
        assert_eq!(entries, back);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let src = "# header\n\n0 0x10 R 0x80\n  \n# tail\n";
        let got = read_text(src.as_bytes()).expect("read");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.pc, Pc(0x10));
    }

    #[test]
    fn text_accepts_bare_hex() {
        let src = "3 1c85 W ff00\n";
        let got = read_text(src.as_bytes()).expect("read");
        assert_eq!(
            got[0],
            (ThreadId(3), MemAccess::write(Pc(0x1c85), ByteAddr(0xff00)))
        );
    }

    #[test]
    fn text_rejects_missing_field() {
        let err = read_text("0 0x10 R\n".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 1,
                    field: "addr",
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn text_rejects_bad_kind() {
        let err = read_text("0 0x10 X 0x80\n".as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Malformed { field: "kind", .. }),
            "got {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("bad kind"), "got {msg}");
    }

    #[test]
    fn text_rejects_bad_number() {
        let err = read_text("zebra 0x10 R 0x80\n".as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Malformed { field: "tid", .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("bad tid"));
    }

    #[test]
    fn text_errors_carry_physical_line_numbers() {
        // Comments and blank lines still advance the reported line number.
        let src = "# header\n\n0 0x10 R 0x80\n0 0x10 Q 0x80\n";
        let err = read_text(src.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 4,
                    field: "kind",
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn binary_round_trip() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        write_binary(&mut buf, &entries).expect("write");
        let back = read_binary(&buf[..]).expect("read");
        assert_eq!(entries, back);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, ParseTraceError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        write_binary(&mut buf, &entries).expect("write");
        buf.truncate(buf.len() - 5);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 3,
                    field: "record",
                    ..
                }
            ),
            "truncated final record must be reported, got {err}"
        );
    }

    #[test]
    fn binary_rejects_truncated_header() {
        let err = read_binary(&b"GMTR\x01\x00"[..]).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Malformed { field: "count", .. }),
            "got {err}"
        );
        let err = read_binary(&b"GM"[..]).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Malformed { field: "magic", .. }),
            "got {err}"
        );
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let entries = sample_entries();
        let mut buf = Vec::new();
        write_binary(&mut buf, &entries).expect("write");
        buf.push(0xFF);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(
            matches!(err, ParseTraceError::Malformed { index: 4, .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("trailing data"), "got {err}");
    }

    #[test]
    fn decode_record_matches_writer_layout() {
        let entry = (ThreadId(7), MemAccess::write(Pc(0xabc), ByteAddr(0xdef0)));
        let mut buf = Vec::new();
        write_binary(&mut buf, &[entry]).expect("write");
        assert_eq!(buf.len(), HEADER_BYTES + RECORD_BYTES);
        let rec: [u8; RECORD_BYTES] = buf[HEADER_BYTES..].try_into().expect("fixed slice");
        assert_eq!(decode_record(&rec), entry);
    }

    #[test]
    fn empty_trace_round_trips_both_formats() {
        let mut t = Vec::new();
        write_text(&mut t, &[]).expect("write");
        assert_eq!(read_text(&t[..]).expect("read"), vec![]);
        let mut b = Vec::new();
        write_binary(&mut b, &[]).expect("write");
        assert_eq!(read_binary(&b[..]).expect("read"), vec![]);
    }
}
