//! The workspace's one JSON codec: [`json_escape`] for the hand-rendered
//! writers and [`Value::parse`] for every reader (audit and serving
//! snapshots, `ringd` job and result lines, cluster manifests and
//! handshakes, flight recordings).
//!
//! Every artifact is rendered by hand in a fixed key order, so the writer
//! side is only the string escaper. The reader is a std-only
//! recursive-descent parser with one rule set:
//!
//! * an integer literal (digits only: no sign, fraction or exponent) that
//!   fits in a `u64` is held exactly as [`Value::Int`], and only such a
//!   literal reads back through [`Value::as_u64`] — `3.0`, `1e2`, `-1`
//!   and `18446744073709551616` are numbers but not integers;
//! * every other number is an `f64` ([`Value::Float`]);
//! * an object is a map keyed by name, and a duplicate key is a parse
//!   error;
//! * every error names the byte offset where parsing stopped.
//!
//! `\u` escapes outside the basic multilingual plane (surrogate pairs)
//! are rejected; no writer in the workspace emits them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for the body of a JSON string literal: `"` `\` `\n` `\r`
/// `\t` get their short escapes, other control characters `\u00XX`.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits in a `u64`, held exactly.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; readers look fields up by name.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut parser = Parser { input, pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != input.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// The object's field `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact integer, if this is an integer literal within `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    /// Consumes a run of ASCII digits, failing if there is none.
    fn digits(&mut self, start: usize) -> Result<(), String> {
        let first = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == first {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        self.digits(start)?;
        let integral = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits(start)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits(start)?;
        }
        let text = &self.input[start..self.pos];
        if !negative && self.pos == integral {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("malformed number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece; those bytes are ASCII, so the run ends on
            // a character boundary.
            let rest = &self.input[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| format!("unterminated string at byte {}", self.input.len()))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(format!("control character in string at byte {}", self.pos)),
            }
        }
    }

    /// One escape sequence, the backslash already consumed.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .input
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                char::from_u32(code)
                    .ok_or_else(|| format!("\\u escape outside the BMP at byte {at}"))?
            }
            _ => return Err(format!("unknown escape at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{json_escape, Value};

    #[test]
    fn escapes_round_trip() {
        // Escape → parse round trips: every control character, the
        // characters with short escapes, and non-ASCII text.
        let mut samples: Vec<String> = (0u32..0x20)
            .map(|c| char::from_u32(c).unwrap().to_string())
            .collect();
        samples.extend(["\"", "\\", "/", "é", "a\"b\\c\nd\te\rf", "ring ↻ 環"].map(String::from));
        for s in &samples {
            let doc = format!("\"{}\"", json_escape(s));
            assert_eq!(Value::parse(&doc), Ok(Value::String(s.clone())), "{doc:?}");
        }
        assert_eq!(json_escape("\u{1}\r\t"), "\\u0001\\r\\t");
        assert_eq!(
            Value::parse(r#""\/\b\f\u00e9""#).unwrap().as_str(),
            Some("/\u{8}\u{c}é")
        );
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        // Integers: exact through u64::MAX; anything else is a float.
        for (doc, int) in [
            ("0", Some(0)),
            ("42", Some(42)),
            ("9007199254740993", Some(9_007_199_254_740_993)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("3.0", None),
            ("3.5", None),
            ("1e2", None),
            ("-1", None),
            ("-3", None),
        ] {
            let value = Value::parse(doc).unwrap();
            assert_eq!(value.as_u64(), int, "{doc}");
            assert_eq!(value.as_f64(), doc.parse::<f64>().ok(), "{doc}");
        }
    }

    #[test]
    fn parses_nested_artifacts() {
        let doc =
            r#"{"schema": 1, "rows": [{"n": 16, "ok": true, "x": -2.5, "tag": "a\"b"}, null]}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1));
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").and_then(Value::as_u64), Some(16));
        assert_eq!(rows[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(rows[0].get("x").and_then(Value::as_f64), Some(-2.5));
        assert_eq!(rows[0].get("tag").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(rows[1], Value::Null);
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (doc, fragment) in [
            ("{", "expected '\"' at byte 1"),
            ("[1, 2", "expected ',' or ']' at byte 5"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("\"unterminated", "unterminated string at byte 13"),
            ("1 trailing", "trailing content at byte 2"),
            ("tru", "expected \"true\" at byte 0"),
            (
                "{\"a\":1,\"b\":2,\"a\":3}",
                "duplicate key \"a\" at byte 13",
            ),
            ("\"tab\there\"", "control character in string at byte 4"),
            ("\"\\x\"", "unknown escape at byte 1"),
            ("\"\\ud83d\"", "outside the BMP at byte 1"),
            ("[-]", "malformed number at byte 1"),
            ("1.", "malformed number at byte 0"),
            ("2e", "malformed number at byte 0"),
            ("", "expected a value at byte 0"),
        ] {
            let err = Value::parse(doc).unwrap_err();
            assert!(err.contains(fragment), "{doc:?}: {err}");
        }
    }
}
