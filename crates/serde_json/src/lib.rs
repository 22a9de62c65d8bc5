//! JSON rendering/parsing over the vendored serde `Value` model.
//!
//! Mirrors the `serde_json` API surface used in this workspace:
//! [`to_string`], [`to_string_pretty`], [`from_str`], and [`Error`].

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Serialization/deserialization failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e)
    }
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize `value` as a human-readable, indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Deserialize an instance of `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn render(v: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = format!("{}", f);
                out.push_str(&s);
                // Keep floats recognizable as floats on re-parse.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => {
            render_seq(
                items.iter(),
                items.len(),
                indent,
                level,
                out,
                |item, lvl, out| render(item, indent, lvl, out),
            );
        }
        Value::Map(entries) => {
            out.push('{');
            if entries.is_empty() {
                out.push('}');
                return;
            }
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                render_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn render_seq<'a, I, F>(
    items: I,
    len: usize,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
    mut f: F,
) where
    I: Iterator<Item = &'a Value>,
    F: FnMut(&Value, usize, &mut String),
{
    out.push('[');
    if len == 0 {
        out.push(']');
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(indent, level + 1, out);
        f(item, level + 1, out);
    }
    newline_indent(indent, level, out);
    out.push(']');
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("bad literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(Error::new)?,
                                16,
                            )
                            .map_err(Error::new)?;
                            s.push(
                                char::from_u32(code).ok_or_else(|| Error::new("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error::new(format!("bad escape {:?}", other))),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(Error::new)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(Error::new)
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(Error::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<u64>(&to_string(&42u64).unwrap()).unwrap(), 42);
        assert_eq!(from_str::<i64>(&to_string(&-7i64).unwrap()).unwrap(), -7);
        assert_eq!(from_str::<f64>(&to_string(&1.5f64).unwrap()).unwrap(), 1.5);
        assert_eq!(from_str::<f64>(&to_string(&2.0f64).unwrap()).unwrap(), 2.0);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(
            from_str::<String>(&to_string("a\"b\\c\nd").unwrap()).unwrap(),
            "a\"b\\c\nd"
        );
    }

    #[test]
    fn collection_round_trips() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(from_str::<Vec<u32>>(&to_string(&v).unwrap()).unwrap(), v);
        let mut m = BTreeMap::new();
        m.insert(-3i64, 10u64);
        m.insert(5i64, 20u64);
        let round: BTreeMap<i64, u64> = from_str(&to_string_pretty(&m).unwrap()).unwrap();
        assert_eq!(round, m);
        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }
}
