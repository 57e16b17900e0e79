//! Minimal JSON reader/writer: the daemon's wire protocol, its spec
//! files and campaign handles, and every report the workspace writes
//! (`avf --json`, the daemon's reports, `*.metrics.json`,
//! `*.trace.json`, `BENCH_*.json`, and the static, attack and
//! prune-audit reports).
//!
//! The workspace carries no JSON dependency, so it carries its own
//! small JSON layer. It is deliberately strict:
//! depth-limited (a hostile client cannot stack-overflow the parser),
//! rejects trailing garbage, and only supports the value shapes the
//! protocol and the reports actually use. Numbers are kept as `f64`;
//! every integer field carried fits without rounding (all are far
//! below 2^53).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth a parsed document may have. Protocol messages
/// are at most 3 deep; 32 leaves headroom without risking the stack.
pub const MAX_DEPTH: usize = 32;

/// A JSON value. An object holds its fields in the order [`write()`]
/// writes them: sorted by key when built by [`obj`] or [`parse`], which
/// makes the output canonical (the same value always serializes to the
/// same bytes — the property campaign IDs rely on), or in the order
/// listed when built by [`ordered`], for reports whose key order is
/// pinned.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    /// A number written with exactly this many decimals (reports pin
    /// `{:.6}` and the like); it parses back as a [`Value::Num`].
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object; `None` for other shapes.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, `None` if it is not a
    /// number, is negative, or has a fractional part.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// An object with its keys sorted (a repeated key keeps its last
/// value): the canonical form of protocol messages and specs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    sorted(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
}

fn sorted(fields: impl IntoIterator<Item = (String, Value)>) -> Value {
    let map: BTreeMap<_, _> = fields.into_iter().collect();
    Value::Obj(map.into_iter().collect())
}

/// An object whose keys are written in the order listed, for reports
/// whose key order is part of their format.
pub fn ordered(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

pub fn n(v: u64) -> Value {
    Value::Num(v as f64)
}

/// `v` written with exactly `decimals` decimals.
pub fn fixed(v: f64, decimals: usize) -> Value {
    Value::Fixed(v, decimals)
}

/// Parse error with a byte offset — surfaced to clients verbatim so a
/// malformed submission is debuggable from the other end of the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (one request per line means one document per line).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(sorted(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits them.
                            let c =
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged;
                    // the input is already a valid &str.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text.parse().map_err(|_| ParseError {
            offset: start,
            message: "bad number",
        })?;
        if !n.is_finite() {
            return Err(ParseError {
                offset: start,
                message: "bad number",
            });
        }
        Ok(Value::Num(n))
    }
}

/// Serializes a value with no whitespace: object fields in the order
/// the value holds them, integers without a fractional part, and
/// [`Value::Fixed`] numbers with their decimals.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_into(v, &mut out);
    out
}

fn write_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::Fixed(n, decimals) => {
            let _ = write!(out, "{n:.*}", *decimals);
        }
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_into(val, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let v = obj(vec![
            ("verb", s("submit")),
            ("id", n(7)),
            (
                "spec",
                obj(vec![("workload", s("qsort")), ("faults", n(40))]),
            ),
            (
                "tags",
                Value::Arr(vec![s("a"), Value::Bool(true), Value::Null]),
            ),
        ]);
        let text = write(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn canonical_write_sorts_keys() {
        let a = parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(write(&a), write(&b));
        assert_eq!(write(&a), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn ordered_objects_and_fixed_numbers_write_as_built() {
        let v = ordered(vec![("b", fixed(0.5, 3)), ("a", n(2))]);
        assert_eq!(write(&v), r#"{"b":0.500,"a":2}"#);
        let sorted = obj(vec![("a", n(2)), ("b", Value::Num(0.5))]);
        assert_eq!(parse(&write(&v)).unwrap(), sorted);
    }

    #[test]
    fn rejects_trailing_garbage_and_deep_nesting() {
        assert!(parse("{} {}").is_err());
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"k\":}",
            "nul",
            "+5",
            "1e999",
            "{\"k\" 1}",
            "[1 2]",
            "\"\\q\"",
            "\"\\u12g4\"",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}f→g".to_string());
        assert_eq!(parse(&write(&v)).unwrap(), v);
    }

    #[test]
    fn numbers_accept_integers_reject_weird() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
    }
}
