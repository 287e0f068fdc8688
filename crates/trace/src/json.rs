//! JSON: one value type, one parser, one writer and one string escaper for
//! every JSON document the workspace reads or writes (imported Chrome
//! traces, the render-graph dump).
//!
//! * [`Value`] keeps object members in document order and integers exact
//!   over the whole `i64` and `u64` ranges.
//! * [`parse`] returns a structured [`Error`], never a panic: on malformed
//!   text, on containers nested deeper than [`MAX_DEPTH`], and on anything
//!   but whitespace after the top-level value. Every JSON escape is read,
//!   surrogate pairs included.
//! * [`fn@write`] prints floats with 6 fixed decimals (non-finite ones as
//!   `null`) under one layout rule: a container holding only scalars goes on
//!   one line, any other container puts one member per line. Hence
//!   `write(&parse(&write(v))?) == write(v)` for every `v`.
//! * [`write_string`] is the one escaper. The streaming Chrome exporter,
//!   which never builds a tree, calls it directly.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members keep their order.
    Object(Vec<(String, Value)>),
}

/// Why a document could not be parsed or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Malformed text: `expected` was not found at byte `offset`.
    Syntax {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser looked for there.
        expected: &'static str,
    },
    /// The container at this byte offset nests deeper than [`MAX_DEPTH`].
    TooDeep(usize),
    /// An object lacks a key the reader requires.
    MissingKey(String),
    /// A value lacks the type, or range, the reader requires (named here).
    WrongType(&'static str),
    /// Well-formed JSON whose content the reader rejects.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, expected } => write!(f, "expected {expected} at byte {offset}"),
            Error::TooDeep(offset) => write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}"),
            Error::MissingKey(key) => write!(f, "missing key \"{key}\""),
            Error::WrongType(expected) => write!(f, "expected {expected}"),
            Error::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

macro_rules! impl_from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self {
                $e
            }
        }
    )*};
}

impl_from! {
    bool => |b| Value::Bool(b),
    u64 => |n| Value::Int(n.into()),
    usize => |n| Value::Int(n as i128),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_owned()),
    String => |s| Value::Str(s),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Array(items.into_iter().collect())
    }
}

/// An object [`Value`] from `"key": value` members, in order. Each value
/// converts with [`Value::from`]; nest objects with `json_object!` and
/// arrays with `collect::<Value>()`.
#[macro_export]
macro_rules! json_object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $((::std::string::String::from($key), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::MissingKey(key.to_owned())),
            _ => Err(Error::WrongType("an object")),
        }
    }

    /// A non-negative integer. An integral float such as `8.0` reads too.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::Int(n) => u64::try_from(n).ok(),
            Value::Float(x) if x.fract() == 0.0 && x >= 0.0 => Some(x as u64),
            _ => None,
        }
        .ok_or(Error::WrongType("an unsigned integer"))
    }

    /// A number as `f64`. Integers read too.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::Int(n) => Ok(n as f64),
            Value::Float(x) => Ok(x),
            _ => Err(Error::WrongType("a number")),
        }
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(Error::WrongType("a string")),
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(Error::WrongType("an array")),
        }
    }
}

/// Parse one JSON document: a value with optional surrounding whitespace.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.syntax("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn syntax(&self, expected: &'static str) -> Error {
        Error::Syntax {
            offset: self.pos,
            expected,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    /// A value whose enclosing containers number `depth`.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(Error::TooDeep(self.pos)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', "',' or ']'", |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', "',' or '}'", |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.syntax("a string key"));
                    }
                    let key = p.string()?;
                    if p.peek() != Some(b':') {
                        return Err(p.syntax("':'"));
                    }
                    p.pos += 1;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.syntax("a value")),
        }
    }

    /// The comma-separated items of a container, from its opening bracket
    /// through `close`.
    fn sequence(
        &mut self,
        close: u8,
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax(expected)),
            }
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, Error> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.syntax(word));
        }
        self.pos += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.byte(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        match token.parse::<i128>() {
            Ok(n) => Ok(Value::Int(n)),
            Err(_) => token.parse().map(Value::Float).map_err(|_| Error::Syntax {
                offset: start,
                expected: "a number",
            }),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Runs end at an ASCII byte or the end, so slices stay on char
            // boundaries.
            let start = self.pos;
            while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let Some(quote_or_backslash) = self.byte() else {
                return Err(self.syntax("a closing '\"'"));
            };
            self.pos += 1;
            if quote_or_backslash == b'"' {
                return Ok(out);
            }
            let c = match self.byte() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.syntax("an escape")),
            };
            self.pos += 1;
            out.push(c);
        }
    }

    /// The code point of a `\u` escape whose `\u` is already consumed; a
    /// high surrogate must be followed by an escaped low surrogate.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.text[self.pos..].starts_with("\\u") {
                return Err(self.syntax("a low surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.syntax("a low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.syntax("a scalar value"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.syntax("four hex digits"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.syntax("four hex digits"))
    }
}

/// Write `v` as a document ending in a newline.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:.6}")),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_members(out, indent, ('[', ']'), items.iter().map(|v| (None, v)));
        }
        Value::Object(members) => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_members(out, indent, ('{', '}'), members);
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let one_line = members
        .clone()
        .all(|(_, v)| !matches!(v, Value::Array(_) | Value::Object(_)));
    out.push(open);
    for (i, (key, v)) in members.enumerate() {
        if one_line {
            out.push_str(if i == 0 { "" } else { ", " });
        } else {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(indent + 1));
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_value(out, v, indent + 1);
    }
    if !one_line {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// Write `s` as a quoted JSON string: `"` and `\` are backslash-escaped and
/// control characters become `\n`, `\r`, `\t` or `\u00XX`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_lays_out_by_one_rule_and_round_trips() {
        let v = crate::json_object! {
            "n": 7u64,
            "x": 0.1,
            "nan": f64::NAN,
            "s": "q\"\\\n\u{1}é",
            "flat": Value::Array(vec![1u64.into(), 2u64.into()]),
            "empty": Value::Array(Vec::new()),
            "rows": Value::Array(vec![crate::json_object! {"a": true, "b": Value::Null}]),
        };
        let text = write(&v);
        assert_eq!(
            text,
            "{\n  \"n\": 7,\n  \"x\": 0.100000,\n  \"nan\": null,\n  \
             \"s\": \"q\\\"\\\\\\n\\u0001é\",\n  \"flat\": [1, 2],\n  \"empty\": [],\n  \
             \"rows\": [\n    {\"a\": true, \"b\": null}\n  ]\n}\n"
        );
        let back = parse(&text).unwrap();
        assert_eq!(write(&back), text);
        assert_eq!(back.get("s").unwrap(), v.get("s").unwrap());
        assert_eq!(back.get("rows").unwrap(), v.get("rows").unwrap());
    }

    #[test]
    fn parser_reads_every_escape_exact_integers_and_lenient_numbers() {
        let v = parse(
            r#" {"s": "\"\\\/\b\f\n\r\té\ud83d\ude00", "big": 18446744073709551615,
                "neg": -9223372036854775808, "f": -3e2} "#,
        )
        .unwrap();
        assert_eq!(
            v.get("s").unwrap().as_str().unwrap(),
            "\"\\/\u{8}\u{c}\n\r\té😀"
        );
        assert_eq!(v.get("big").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(v.get("neg").unwrap(), &Value::Int(i64::MIN.into()));
        assert_eq!(v.get("f").unwrap().as_f64(), Ok(-300.0));
        // Leniency is only what readers document: a count may be an integral
        // float and a time an integer.
        let v = parse(r#"{"count": 8.0, "time": 3, "frac": 8.5, "neg": -1}"#).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Ok(8));
        assert_eq!(v.get("time").unwrap().as_f64(), Ok(3.0));
        assert!(v.get("frac").unwrap().as_u64().is_err());
        assert!(v.get("neg").unwrap().as_u64().is_err());
        assert_eq!(v.get("gone"), Err(Error::MissingKey("gone".into())));
        for bad in [r#""\ud83d""#, r#""\ude00""#, r#""\u12g4""#, r#""\x""#] {
            assert!(matches!(parse(bad), Err(Error::Syntax { .. })), "{bad}");
        }
    }

    #[test]
    fn malformed_input_is_a_structured_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(Error::TooDeep(MAX_DEPTH))
        );
        for bad in [
            "",
            "{} x",
            "[1,]",
            "{\"a\" 1}",
            "{1: 2}",
            "[1 2]",
            "tru",
            "-",
            "\"open",
        ] {
            assert!(matches!(parse(bad), Err(Error::Syntax { .. })), "{bad:?}");
        }
    }
}
