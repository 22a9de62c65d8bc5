//! Incremental, bounded-memory parsing of both trace formats.
//!
//! [`ChunkParser`] is a push-based parser: feed it byte chunks of any
//! size (network reads, file blocks, single bytes) and drain complete
//! [`TraceEntry`] records as they become available. It sniffs the format
//! from the first four bytes (`GMTR` → binary, anything else → text) and
//! delegates the per-line / per-record decoding to `gmap_trace::io`
//! ([`decode_text_line`] and, for every line it does not recognise,
//! [`parse_text_line`]; [`decode_record`]), so its output is
//! byte-identical to the materializing `read_text`/`read_binary` readers —
//! including error indices: text errors carry the physical 1-based line
//! number, binary errors the 1-based record number.
//!
//! Only a partial trailing line or record is ever buffered (bounded by
//! [`MAX_LINE_BYTES`]); completed entries are handed to the caller.
//!
//! Text errors differ from `read_text`'s in two places, both `Malformed`
//! with field `"line"` at the physical line number:
//!
//! - The line bound is this parser's own: a text line (comments
//!   included) longer than [`MAX_LINE_BYTES`] is refused, whether it
//!   arrives whole inside one pushed piece or spread over many;
//!   `read_text` reads a line of any length.
//! - A line that is not UTF-8 (and is not a canonical entry line, which
//!   is ASCII) is refused here with its line number; `read_text` returns
//!   [`ParseTraceError::Io`] of kind `InvalidData`, with none.

use gmap_trace::io::{
    decode_record, decode_text_line, parse_text_line, ParseTraceError, TraceEntry, HEADER_BYTES,
    MAGIC, RECORD_BYTES,
};

/// Longest accepted text line (including comments), counted up to its
/// `\n`. A well-formed entry line is under 100 bytes; the bound only
/// exists to keep the carry buffer — and thus parser memory — constant in
/// trace length.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Piece size [`ingest_reader`](crate::ingest_reader) reads with, and
/// the default upload chunk of `gmap client ingest`.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Which on-disk format the parser detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `tid pc kind addr` lines.
    Text,
    /// `GMTR` magic + count + fixed records.
    Binary,
}

impl TraceFormat {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TraceFormat::Text => "text",
            TraceFormat::Binary => "binary",
        }
    }
}

#[derive(Debug)]
enum State {
    /// Accumulating the first 4 bytes to decide the format.
    Sniff,
    Text,
    /// Saw the magic; accumulating the 8-byte record count.
    BinaryHeader,
    BinaryRecords,
    /// All declared records decoded; any further byte is an error.
    BinaryDone,
}

/// Push-based incremental trace parser. See the module docs.
#[derive(Debug)]
pub struct ChunkParser {
    state: State,
    /// Partial trailing line (text) or partial header/record (binary).
    carry: Vec<u8>,
    /// Physical 1-based line counter (text format).
    line_no: usize,
    /// Records decoded so far (binary format).
    records: u64,
    /// Record count declared by the binary header.
    declared: u64,
    out: Vec<TraceEntry>,
    failed: bool,
}

impl Default for ChunkParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkParser {
    /// A parser in the format-sniffing state.
    pub fn new() -> Self {
        ChunkParser {
            state: State::Sniff,
            carry: Vec::new(),
            line_no: 0,
            records: 0,
            declared: 0,
            out: Vec::new(),
            failed: false,
        }
    }

    /// The detected format, once at least 4 bytes have been seen.
    pub fn format(&self) -> Option<TraceFormat> {
        match self.state {
            State::Sniff => None,
            State::Text => Some(TraceFormat::Text),
            _ => Some(TraceFormat::Binary),
        }
    }

    /// Feeds one chunk. Completed entries accumulate until [`Self::drain`]
    /// (`ChunkParser::drain`) is called.
    ///
    /// # Errors
    ///
    /// Returns the same [`ParseTraceError`]s the materializing readers
    /// produce, at the same indices. After an error the parser is
    /// poisoned: further pushes fail.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), ParseTraceError> {
        if self.failed {
            return Err(poisoned());
        }
        let r = self.push_inner(chunk);
        self.failed = r.is_err();
        r
    }

    /// Signals end of input, flushing a final unterminated text line and
    /// validating binary completeness.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError::Malformed`] for a truncated binary
    /// header or a partial/missing final record, mirroring `read_binary`.
    pub fn finish(&mut self) -> Result<(), ParseTraceError> {
        if self.failed {
            return Err(poisoned());
        }
        let r = self.finish_inner();
        self.failed = r.is_err();
        r
    }

    /// Removes and returns the entries parsed so far.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TraceEntry> {
        self.out.drain(..)
    }

    /// [`Self::drain`] without the copy: leaves the entries parsed so far
    /// in `buf` (whatever it held is dropped) and keeps `buf`'s
    /// allocation to parse into, so a caller that passes the same buffer
    /// back after every push allocates nothing per chunk.
    pub fn swap_entries(&mut self, buf: &mut Vec<TraceEntry>) {
        buf.clear();
        std::mem::swap(&mut self.out, buf);
    }

    fn push_inner(&mut self, mut chunk: &[u8]) -> Result<(), ParseTraceError> {
        if let State::Sniff = self.state {
            self.carry.extend_from_slice(chunk);
            if self.carry.len() < MAGIC.len() {
                return Ok(());
            }
            let data = std::mem::take(&mut self.carry);
            self.state = if data.starts_with(MAGIC) {
                State::BinaryHeader
            } else {
                State::Text
            };
            // Re-enter with the sniffed bytes: the header branch below
            // re-accumulates the magic + count, the text branch parses.
            return self.push_inner(&data);
        }
        if let State::BinaryHeader = self.state {
            // Carry holds magic + partial count; complete it to 12 bytes.
            let need = HEADER_BYTES - self.carry.len();
            let take = need.min(chunk.len());
            self.carry.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.carry.len() < HEADER_BYTES {
                return Ok(());
            }
            let count: [u8; 8] = self.carry[MAGIC.len()..HEADER_BYTES]
                .try_into()
                .expect("fixed slice");
            self.declared = u64::from_le_bytes(count);
            self.carry.clear();
            self.state = if self.declared == 0 {
                State::BinaryDone
            } else {
                State::BinaryRecords
            };
        }
        self.dispatch(chunk)
    }

    fn dispatch(&mut self, chunk: &[u8]) -> Result<(), ParseTraceError> {
        match self.state {
            State::Text => self.push_text(chunk),
            State::BinaryRecords => self.push_records(chunk),
            State::BinaryDone => {
                if chunk.is_empty() {
                    Ok(())
                } else {
                    Err(trailing_data(self.declared))
                }
            }
            // Re-entered only via push_inner, which consumes these states.
            State::Sniff | State::BinaryHeader => {
                debug_assert!(chunk.is_empty());
                Ok(())
            }
        }
    }

    fn push_text(&mut self, mut chunk: &[u8]) -> Result<(), ParseTraceError> {
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (line, rest) = chunk.split_at(nl);
            chunk = &rest[1..];
            self.line_no += 1;
            self.check_line_len(self.line_no, line.len())?;
            if self.carry.is_empty() {
                self.parse_line_bytes(line)?;
            } else {
                self.carry.extend_from_slice(line);
                let full = std::mem::take(&mut self.carry);
                self.parse_line_bytes(&full)?;
            }
        }
        self.check_line_len(self.line_no + 1, chunk.len())?;
        self.carry.extend_from_slice(chunk);
        Ok(())
    }

    /// Refuses physical line `index` once the carry plus `more` further
    /// bytes of it pass [`MAX_LINE_BYTES`]. Applied to completed lines and
    /// to the growing partial line alike, so the verdict does not depend
    /// on where the pushed pieces are cut.
    fn check_line_len(&self, index: usize, more: usize) -> Result<(), ParseTraceError> {
        if self.carry.len() + more > MAX_LINE_BYTES {
            return Err(ParseTraceError::Malformed {
                index,
                field: "line",
                reason: format!("line exceeds {MAX_LINE_BYTES} bytes"),
            });
        }
        Ok(())
    }

    fn parse_line_bytes(&mut self, mut line: &[u8]) -> Result<(), ParseTraceError> {
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if let Some(entry) = decode_text_line(line) {
            self.out.push(entry);
            return Ok(());
        }
        let text = std::str::from_utf8(line).map_err(|e| ParseTraceError::Malformed {
            index: self.line_no,
            field: "line",
            reason: format!("invalid utf-8: {e}"),
        })?;
        if let Some(entry) = parse_text_line(text, self.line_no)? {
            self.out.push(entry);
        }
        Ok(())
    }

    fn push_records(&mut self, mut chunk: &[u8]) -> Result<(), ParseTraceError> {
        // Complete a partial record from the previous chunk first.
        if !self.carry.is_empty() {
            let need = RECORD_BYTES - self.carry.len();
            let take = need.min(chunk.len());
            self.carry.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.carry.len() < RECORD_BYTES {
                return Ok(());
            }
            let rec: [u8; RECORD_BYTES] = self.carry[..].try_into().expect("fixed slice");
            self.carry.clear();
            self.decode(&rec)?;
        }
        while self.records < self.declared && chunk.len() >= RECORD_BYTES {
            let (rec, rest) = chunk.split_at(RECORD_BYTES);
            chunk = rest;
            self.decode(rec.try_into().expect("fixed slice"))?;
        }
        if self.records == self.declared {
            self.state = State::BinaryDone;
            if !chunk.is_empty() {
                return Err(trailing_data(self.declared));
            }
            return Ok(());
        }
        self.carry.extend_from_slice(chunk);
        Ok(())
    }

    fn decode(&mut self, rec: &[u8; RECORD_BYTES]) -> Result<(), ParseTraceError> {
        self.out.push(decode_record(rec));
        self.records += 1;
        Ok(())
    }

    fn finish_inner(&mut self) -> Result<(), ParseTraceError> {
        match self.state {
            // Fewer than 4 bytes total: cannot be binary. An empty input
            // is an empty text trace; a fragment parses as a final line.
            State::Sniff => {
                let data = std::mem::take(&mut self.carry);
                self.state = State::Text;
                if !data.is_empty() {
                    self.line_no += 1;
                    self.parse_line_bytes(&data)?;
                }
                Ok(())
            }
            State::Text => {
                if !self.carry.is_empty() {
                    let data = std::mem::take(&mut self.carry);
                    self.line_no += 1;
                    self.parse_line_bytes(&data)?;
                }
                Ok(())
            }
            State::BinaryHeader => Err(ParseTraceError::Malformed {
                index: 0,
                field: "count",
                reason: "truncated header (record count)".into(),
            }),
            State::BinaryRecords => Err(ParseTraceError::Malformed {
                index: self.records as usize + 1,
                field: "record",
                reason: "truncated record".into(),
            }),
            State::BinaryDone => Ok(()),
        }
    }
}

fn trailing_data(declared: u64) -> ParseTraceError {
    ParseTraceError::Malformed {
        index: declared as usize + 1,
        field: "record",
        reason: "trailing data after declared record count".into(),
    }
}

fn poisoned() -> ParseTraceError {
    ParseTraceError::Malformed {
        index: 0,
        field: "stream",
        reason: "parser already failed".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_trace::io::{read_binary, read_text, write_binary, write_text};
    use gmap_trace::record::{ByteAddr, MemAccess, Pc, ThreadId};

    fn sample(n: u32) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| {
                let acc = if i % 3 == 0 {
                    MemAccess::write(
                        Pc(0x100 + u64::from(i % 7)),
                        ByteAddr(0x4000 + u64::from(i) * 4),
                    )
                } else {
                    MemAccess::read(Pc(0x200), ByteAddr(0x9000 + u64::from(i) * 8))
                };
                (ThreadId(i % 64), acc)
            })
            .collect()
    }

    fn push_all(bytes: &[u8], step: usize) -> Result<Vec<TraceEntry>, ParseTraceError> {
        let mut p = ChunkParser::new();
        let mut out = Vec::new();
        for chunk in bytes.chunks(step.max(1)) {
            p.push(chunk)?;
            out.extend(p.drain());
        }
        p.finish()?;
        out.extend(p.drain());
        Ok(out)
    }

    #[test]
    fn text_chunked_matches_materialized_at_every_step() {
        let entries = sample(100);
        let mut buf = Vec::new();
        write_text(&mut buf, &entries).expect("write");
        let whole = read_text(&buf[..]).expect("read");
        for step in [1, 2, 3, 7, 64, 1 << 20] {
            assert_eq!(push_all(&buf, step).expect("parse"), whole, "step {step}");
        }
    }

    #[test]
    fn binary_chunked_matches_materialized_at_every_step() {
        let entries = sample(100);
        let mut buf = Vec::new();
        write_binary(&mut buf, &entries).expect("write");
        let whole = read_binary(&buf[..]).expect("read");
        for step in [1, 2, 5, 20, 21, 22, 1 << 20] {
            assert_eq!(push_all(&buf, step).expect("parse"), whole, "step {step}");
        }
    }

    /// A line completed from the carry goes through the same decoder as
    /// a line that arrives whole: wherever a text trace is cut in two,
    /// the entries — or the error — are those of a single push.
    #[test]
    fn text_cut_at_every_offset_matches_one_push() {
        let good: &[u8] = b"# header\n0 0x10 R 0x80\n\t7\t1c85 W ff00  \r\n+3 0X1F R 0x0 tail\n\n\
            12 0xabc W 0xdef\n4294967295 0x1 R 0x2\n  # note\n99 0x00000000000000001 W 0x3";
        let bad_kind: &[u8] = b"0 0x10 R 0x80\n5 0x20 W 0x100\n6 0x20 w 0x100\n7 0x20 W 0x180\n";
        let not_utf8: &[u8] = b"0 0x10 R 0x80\n5 0x20 W 0x100 \xff\n";
        for text in [good, bad_kind, not_utf8] {
            let whole = push_all(text, usize::MAX).map_err(|e| e.to_string());
            assert_eq!(
                whole.as_ref().map(Vec::len).ok(),
                (text == good).then_some(6)
            );
            for cut in 0..=text.len() {
                assert_eq!(cut_in_two(text, cut), whole, "cut at byte {cut}");
            }
        }
    }

    fn cut_in_two(text: &[u8], cut: usize) -> Result<Vec<TraceEntry>, String> {
        let mut p = ChunkParser::new();
        p.push(&text[..cut])
            .and_then(|()| p.push(&text[cut..]))
            .and_then(|()| p.finish())
            .map(|()| p.drain().collect())
            .map_err(|e| e.to_string())
    }

    /// The line bound is a property of the line, not of the pieces it
    /// arrives in: an over-long comment or entry line is refused with the
    /// same error, at its own line number, in one push, cut in two
    /// anywhere, or in small steps — and a line of exactly the bound
    /// passes every way.
    #[test]
    fn over_long_line_gets_one_verdict_wherever_it_is_cut() {
        let entry = b"0 0x10 R 0x80\n";
        let comment = |len: usize| [&b"#"[..], &vec![b'x'; len - 1]].concat();
        let long_comment = [&comment(70 * 1024)[..], b"\n", entry].concat();
        // Leading zeros keep the address field well-formed at any length.
        let long_entry = [&b"7 0x20 W 0x"[..], &vec![b'0'; 70 * 1024], b"80\n", entry].concat();
        let second_line = [entry, &comment(MAX_LINE_BYTES + 1)[..], b"\n", entry].concat();
        let at_the_bound = [&comment(MAX_LINE_BYTES)[..], b"\n", entry].concat();
        // The bound counts everything before the `\n`, a `\r` included.
        let crlf_over = [&comment(MAX_LINE_BYTES)[..], b"\r\n", entry].concat();
        let too_long = |line: usize| {
            Err(format!(
                "malformed trace entry {line} (line): line exceeds 65536 bytes"
            ))
        };
        for (text, want) in [
            (&long_comment, too_long(1)),
            (&long_entry, too_long(1)),
            (&second_line, too_long(2)),
            (&at_the_bound, Ok(1)),
            (&crlf_over, too_long(1)),
        ] {
            let whole = push_all(text, usize::MAX).map_err(|e| e.to_string());
            assert_eq!(whole.as_ref().map(Vec::len).map_err(String::clone), want);
            let newline = text.iter().position(|&b| b == b'\n').expect("has lines");
            let cuts = (0..=text.len())
                .step_by(4099)
                .chain(MAX_LINE_BYTES - 2..=MAX_LINE_BYTES + 3)
                .chain(newline - 2..=newline + 2)
                .chain(text.len() - 2..=text.len());
            for cut in cuts {
                assert_eq!(cut_in_two(text, cut), whole, "cut at byte {cut}");
            }
            for step in [1, 777, 1024, MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
                let got = push_all(text, step).map_err(|e| e.to_string());
                assert_eq!(got, whole, "pieces of {step} bytes");
            }
        }
    }

    /// The one error besides the line bound where the two text readers
    /// differ: a non-UTF-8 line.
    #[test]
    fn non_utf8_line_errors_differ_from_read_text() {
        let text: &[u8] = b"0 0x10 R 0x80\n5 0x20 W 0x100 \xff\n";
        let err = push_all(text, usize::MAX).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 2,
                    field: "line",
                    ..
                }
            ),
            "got {err}"
        );
        let err = read_text(text).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "got {err}"
        );
    }

    #[test]
    fn text_final_line_without_newline_parses() {
        let got = push_all(b"0 0x10 R 0x80", 4).expect("parse");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.pc, Pc(0x10));
    }

    #[test]
    fn text_error_carries_physical_line_number() {
        let err = push_all(b"# c\n0 0x10 R 0x80\n0 0x10 Q 0x80\n", 5).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 3,
                    field: "kind",
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn binary_truncated_final_record_reported() {
        let entries = sample(3);
        let mut buf = Vec::new();
        write_binary(&mut buf, &entries).expect("write");
        buf.truncate(buf.len() - 5);
        let err = push_all(&buf, 8).unwrap_err();
        assert!(
            matches!(
                err,
                ParseTraceError::Malformed {
                    index: 3,
                    field: "record",
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn binary_trailing_bytes_reported() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample(2)).expect("write");
        buf.push(0xAB);
        let err = push_all(&buf, 7).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "got {err}");
    }

    #[test]
    fn binary_truncated_header_reported() {
        let err = push_all(b"GMTR\x05\x00", 3).unwrap_err();
        assert!(
            matches!(&err, ParseTraceError::Malformed { field: "count", .. }),
            "got {err}"
        );
    }

    #[test]
    fn empty_input_is_empty_text_trace() {
        assert_eq!(push_all(b"", 1).expect("parse"), vec![]);
        let mut p = ChunkParser::new();
        p.finish().expect("finish");
        assert_eq!(p.format(), Some(TraceFormat::Text));
    }

    #[test]
    fn carry_stays_bounded() {
        let entries = sample(1000);
        let mut buf = Vec::new();
        write_text(&mut buf, &entries).expect("write");
        let mut p = ChunkParser::new();
        let mut peak = 0;
        for chunk in buf.chunks(13) {
            p.push(chunk).expect("push");
            p.drain();
            peak = peak.max(p.carry.len());
        }
        p.finish().expect("finish");
        assert!(peak < 128, "carry held a whole trace: {peak}");
    }
}
