//! Offline stand-in for `serde_json`: deterministic JSON emission and a
//! recursive-descent parser over the in-tree `serde` shim's [`Value`].
//!
//! Output formatting is stable across runs and platforms (insertion-order
//! maps, shortest-round-trip float formatting via `{:?}`), which the
//! simulator's byte-identity regression tests rely on.

use serde::{DeError, Deserialize, Serialize};
use std::fmt;

pub use serde::Value;

/// Serialization/deserialization error.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// -------------------------------------------------------------- emission

fn push_escaped(out: &mut String, s: &str) {
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

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        // serde_json rejects non-finite floats; emitting null is the
        // closest lossy behaviour and keeps emission infallible.
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => push_f64(out, *x),
        Value::Str(s) => push_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_escaped(out, k);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    const STEP: &str = "  ";
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                push_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Serializes compact JSON into a writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut w: W, value: &T) -> Result<()> {
    w.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

/// Serializes pretty JSON into a writer.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut w: W,
    value: &T,
) -> Result<()> {
    w.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

/// Serializes to the intermediate [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Reconstructs a `T` from the intermediate [`Value`].
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

// --------------------------------------------------------------- parsing

/// Deepest array/object nesting [`parse`] accepts (real `serde_json`'s
/// default limit). The parser recurses once per level, so without a cap a
/// line of `[`s — well inside the daemon's 1 MiB line cap — overflows the
/// stack and aborts the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            // Both are ASCII and so never occur inside a multi-byte
            // sequence: the run starts and ends on char boundaries.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(x) = stripped.parse::<u64>() {
                    if let Ok(neg) = i64::try_from(x) {
                        return Ok(Value::I64(-neg));
                    }
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::U64(x));
            }
        }
        let x = text
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))?;
        // `1e999` parses to an infinity, which has no JSON spelling: it
        // would come back out as `null`.
        if !x.is_finite() {
            self.pos = start;
            return Err(self.err("number out of range"));
        }
        Ok(Value::F64(x))
    }

    fn seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a JSON document into the intermediate [`Value`].
pub fn parse(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(T::from_value(&parse(s)?)?)
}

/// Deserializes a `T` from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    from_str(std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?)
}

/// Deserializes a `T` from a reader.
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut r: R) -> Result<T> {
    let mut buf = String::new();
    r.read_to_string(&mut buf)?;
    from_str(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::F64(1.5)),
            ("d".into(), Value::Str("x\n\"y".into())),
            ("e".into(), Value::I64(-3)),
        ]);
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"{"a":1,"b":[true,null],"c":1.5,"d":"x\n\"y","e":-3}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn floats_keep_fraction() {
        assert_eq!(to_string(&10.0f64).unwrap(), "10.0");
        assert_eq!(from_str::<f64>("10.0").unwrap(), 10.0);
        assert_eq!(from_str::<f64>("10").unwrap(), 10.0);
    }

    #[test]
    fn pretty_is_parseable() {
        let v = Value::Map(vec![(
            "k".into(),
            Value::Seq(vec![Value::U64(1), Value::U64(2)]),
        )]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  \"k\": [\n"));
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("{").is_err());
        assert!(from_str::<f64>("1 2").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.to_string(), "recursion limit exceeded at byte 128");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
