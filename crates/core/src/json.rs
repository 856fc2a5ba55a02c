//! A minimal, dependency-free JSON value model.
//!
//! The workspace builds in environments with no crates.io access, so the
//! usual `serde`/`serde_json` pair is vendored as a no-op facade (see
//! `crates/compat/serde`). The declarative scenario layer in
//! [`crate::spec`] still needs *real* serialization — a scenario file must
//! run without recompiling — so this module provides the small JSON core
//! the spec types (de)serialize through: a [`Value`] tree, a strict
//! recursive-descent [`parse`]r with line/column errors, and a
//! pretty-printing writer whose output round-trips bit-for-bit (integers
//! stay integers, floats use Rust's shortest round-trip formatting).
//!
//! [`parse`] serves the spec readers (`SpecFile::parse`,
//! `ScenarioSpec::from_json`, `SweepSpec::from_json`), `wsync-serve`'s
//! `/run` and `/sweep` bodies, the fabric's lease stamps and any result
//! store line not in the store writer's own layout (the store reads its
//! own lines with a layout scanner), so it is on no trial's path. An
//! object detects a duplicate key through the ordered set of its keys,
//! O(log n) per member, so even a hostile body of many keys reads in
//! O(n log n).
//!
//! When a real `serde_json` becomes available, [`Value`] maps 1:1 onto
//! `serde_json::Value` and the spec layer can swap over without changing
//! its wire format.

use std::collections::BTreeSet;
use std::fmt;

/// A JSON document.
///
/// Numbers are split into [`Value::Int`] and [`Value::Float`] so that
/// integer fields (seeds, round caps, node counts) survive a round trip
/// exactly instead of passing through `f64`. Object member order is
/// preserved (serialization is deterministic); duplicate keys are a parse
/// error.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent).
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Serializes the value as pretty-printed JSON (2-space indentation,
    /// trailing newline-free). The output parses back to an identical
    /// [`Value`] — with one carve-out: JSON cannot represent non-finite
    /// floats, so a programmatically constructed `Float(inf/NaN)` is
    /// written as `null` (the parser itself never produces one; overflow
    /// literals are rejected).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out
    }

    /// Serializes the value as single-line JSON with no insignificant
    /// whitespace. This is the JSONL form the result store appends: one
    /// record per line, so a reader can recover from a torn final line by
    /// dropping it. Round-trips exactly like [`to_json`](Self::to_json).
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        write_value_compact(self, &mut out);
        out
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        // Values beyond i64 fall back to Float rather than wrapping to a
        // negative integer — mirroring what the parser does with oversized
        // integer literals.
        match i64::try_from(i) {
            Ok(v) => Value::Int(v),
            Err(_) => Value::Float(i as f64),
        }
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::from(i as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` as a JSON string literal, quotes included.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // Rust's Debug formatting is the shortest representation that
        // round-trips; it always contains '.' or 'e', so the reader keeps
        // classifying the literal as a float.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no Infinity/NaN; encode as null like serde_json does.
        out.push_str("null");
    }
}

fn write_value(value: &Value, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Short scalar arrays print on one line (sweep axes read well).
            let scalars = items
                .iter()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_)));
            if scalars {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(item, depth, out);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    write_indent(depth + 1, out);
                    write_value(item, depth + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                write_indent(depth, out);
                out.push(']');
            }
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, v)) in members.iter().enumerate() {
                write_indent(depth + 1, out);
                write_string(key, out);
                out.push_str(": ");
                write_value(v, depth + 1, out);
                if i + 1 < members.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            write_indent(depth, out);
            out.push('}');
        }
    }
}

fn write_value_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value_compact(v, out);
            }
            out.push('}');
        }
    }
}

/// A JSON parse error with a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. Deeper documents are
/// rejected with a parse error instead of risking a stack overflow in the
/// recursive-descent parser (every legitimate spec/store document is a few
/// levels deep).
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_whitespace();
    let value = p.parse_value()?;
    p.skip_whitespace();
    if p.pos < p.bytes.len() {
        return Err(p.error("unexpected trailing characters"));
    }
    Ok(value)
}

/// The recursive-descent reader behind [`parse`]: one forward pass over
/// the input, every failure a [`JsonError`] at the byte where it is found.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// The failure `message` at the current position.
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1usize;
        let mut column = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => self.parse_str().map(Value::Str),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// An object, its members in input order. A key already in the set of
    /// the object's keys is a duplicate: O(log n) per member, however many
    /// members the object has.
    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.enter()?;
        let mut members = Vec::new();
        let mut keys = BTreeSet::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                let key = self.parse_str()?;
                if !keys.insert(key.clone()) {
                    return Err(self.error(format!("duplicate object key \"{key}\"")));
                }
                self.skip_whitespace();
                self.expect(b':')?;
                self.skip_whitespace();
                members.push((key, self.parse_value()?));
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected ',' or '}' in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Object(members))
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.enter()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                items.push(self.parse_value()?);
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected ',' or ']' in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    /// Consumes `word` and returns `value`.
    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    /// Steps into the container whose opening bracket is at `self.pos`.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "maximum nesting depth ({MAX_NESTING_DEPTH}) exceeded"
            )));
        }
        self.pos += 1;
        Ok(())
    }

    /// A string literal with its escapes decoded; the text between escapes
    /// is copied a run at a time.
    fn parse_str(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(len) = run else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            // The run ends at an ASCII byte, so it ends on a char boundary.
            out.push_str(&self.input[self.pos..self.pos + len]);
            self.pos += len;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                _ => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// The character an escape stands for, `self.pos` just past its `\`.
    fn parse_escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut cp = self.parse_hex4()?;
                if (0xd800..0xdc00).contains(&cp) {
                    // A high surrogate: a `\u` low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.error("lone high surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let low = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                }
                // Only a lone low surrogate is not a char here.
                return char::from_u32(cp).ok_or_else(|| self.error("invalid unicode escape"));
            }
            _ => return Err(self.error("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// A number literal: an integer literal that fits an `i64` stays an
    /// integer, everything else is a float.
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.consume_digits();
        if int_digits == 0 {
            return Err(self.error("expected digits in number"));
        }
        // RFC 8259: the integer part is "0" or a non-zero digit followed by
        // digits — leading zeros are invalid (and serde_json rejects them,
        // so accepting them here would break the documented swap-over).
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(self.error("leading zeros are not allowed in numbers"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.consume_digits() == 0 {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.consume_digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            // Integers beyond i64 fall back to f64, like serde_json's
            // arbitrary-precision-off behaviour.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            // `f64::from_str` turns overflow literals like 1e999 into
            // infinity; JSON has no representation for that, so reject it
            // (as serde_json does) instead of breaking the round trip.
            Ok(_) => Err(self.error("number out of range")),
            Err(_) => Err(self.error("invalid number")),
        }
    }

    fn consume_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        assert_eq!(parse("-0.5").unwrap(), Value::Float(-0.5));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::Str("line\nquote\"back\\slash\ttab\u{1F600}".to_string());
        let text = original.to_json();
        assert_eq!(parse(&text).unwrap(), original);
        // explicit escape forms parse too
        assert_eq!(
            parse(r#""A😀""#).unwrap(),
            Value::Str("A\u{1F600}".to_string())
        );
    }

    #[test]
    fn ints_and_floats_stay_distinct_through_round_trip() {
        let v = Value::Object(vec![
            ("i".to_string(), Value::Int(2)),
            ("f".to_string(), Value::Float(2.0)),
            ("big".to_string(), Value::Int(9_007_199_254_740_993)),
        ]);
        let text = v.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("i"), Some(&Value::Int(2)));
        assert_eq!(back.get("f"), Some(&Value::Float(2.0)));
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for f in [0.1, 1.0 / 3.0, 6.02e23, -1.5e-8, 2.0] {
            let text = Value::Float(f).to_json();
            assert_eq!(parse(&text).unwrap(), Value::Float(f), "text was {text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "01x",
            "{} garbage",
            "{\"a\":1,\"a\":2}",
            // RFC 8259 forbids leading zeros (serde_json rejects them too)
            "01",
            "-007",
            "00.5",
            "{\"n\": 08}",
            // overflow literals would parse to infinity, which JSON cannot
            // round-trip — rejected at the source
            "1e999",
            "-1e999",
            "1.5e400",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_found_in_large_objects_and_through_escapes() {
        // Three hundred distinct keys must all pass; a repeat of one, even
        // spelled with escapes, must not.
        let members: Vec<String> = (0..300).map(|i| format!("\"k{i}\":{i}")).collect();
        let members = members.join(",");
        let object = parse(&format!("{{{members}}}")).unwrap();
        assert_eq!(object.as_object().unwrap().len(), 300);
        assert!(parse(r#"[{"a":1},{"a":{"a":{"a":1}}}]"#).is_ok());
        for (doc, key) in [
            (format!("{{{members},\"k37\":0}}"), "k37"),
            (format!("{{{members},\"k\\u0033\\u0037\":0}}"), "k37"),
            (r#"{"ab":1,"a\u0062":2}"#.to_string(), "ab"),
            (r#"{"a\u0062":1,"ab":2}"#.to_string(), "ab"),
            (r#"[{"a":1},{"b":{"a":1},"a":2,"b":3}]"#.to_string(), "b"),
        ] {
            let err = parse(&doc).unwrap_err();
            assert_eq!(
                err.message,
                format!("duplicate object key \"{key}\""),
                "{doc}"
            );
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn object_preserves_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn compact_output_is_single_line_and_round_trips() {
        let v = parse(r#"{"name": "trapdoor", "params": {"c": 2.0}, "xs": [1, 2, 3]}"#).unwrap();
        let compact = v.to_json_compact();
        assert!(!compact.contains('\n'));
        assert!(!compact.contains(": "));
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(
            compact,
            r#"{"name":"trapdoor","params":{"c":2.0},"xs":[1,2,3]}"#
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep_array = "[".repeat(100_000);
        let err = parse(&deep_array).unwrap_err();
        assert!(err.message.contains("nesting depth"), "{err}");
        let deep_object = "{\"k\":".repeat(100_000);
        let err = parse(&deep_object).unwrap_err();
        assert!(err.message.contains("nesting depth"), "{err}");
        // documents at or below the limit still parse
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_NESTING_DEPTH),
            "]".repeat(MAX_NESTING_DEPTH)
        );
        assert!(parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_NESTING_DEPTH + 1),
            "]".repeat(MAX_NESTING_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = parse(r#"{"name": "trapdoor", "params": {"c": 2.0}, "xs": [1, 2, 3]}"#).unwrap();
        let a = v.to_json();
        let b = parse(&a).unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"xs\": [1, 2, 3]"));
    }
}
