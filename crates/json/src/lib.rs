//! # patty-json
//!
//! A small, zero-dependency JSON library used for every JSON artifact in
//! the workspace: tuning configuration files (Fig. 3c), architecture
//! descriptions, and telemetry reports. Objects preserve insertion
//! order so serialized artifacts are stable and diffable.
//!
//! The parser reports descriptive errors with line/column positions —
//! tuning files are edited by hand between runs ("all values in the
//! configuration file can be changed", Section 2.1), so malformed input
//! is an expected condition, not a programming error.

use std::fmt::{self, Write as _};

/// A JSON value. Numbers distinguish integers from floats so tuning
/// values (`Int`) round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Add a field to an object (no-op with a debug assertion otherwise).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.into(), value.into()));
        } else {
            debug_assert!(false, "Json::with on a non-object");
        }
        self
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// One-line name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Append the compact rendering — the bytes `to_string()` returns —
    /// to `out`, so a caller can frame a value into a buffer it reuses.
    pub fn render_into(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep a trailing `.0` so floats re-parse as floats.
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1)
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

/// `b` in each of a word's eight byte lanes.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The high bit of each lane of `word` that is zero. A borrow can flag
/// a lane above a zero lane falsely, never one below it, so the lowest
/// flag is exact.
fn zero_lanes(word: u64) -> u64 {
    word.wrapping_sub(splat(1)) & !word & splat(0x80)
}

/// Index of the first byte at or after `from` that is special, eight
/// bytes at a time: `lanes` flags the special bytes of a little-endian
/// word, exactly in its lowest flag, and `special` tests one byte, for
/// the last few bytes and so for every short string.
fn find_special(
    bytes: &[u8],
    from: usize,
    lanes: impl Fn(u64) -> u64,
    special: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let hits = lanes(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        if hits != 0 {
            return Some(i + hits.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    let tail = bytes.get(i..)?;
    tail.iter().position(|&b| special(b)).map(|j| i + j)
}

/// The next byte a rendered string must escape: `"`, `\` or a control
/// byte.
fn find_escape(bytes: &[u8], from: usize) -> Option<usize> {
    find_special(
        bytes,
        from,
        |w| {
            (w.wrapping_sub(splat(0x20)) & !w & splat(0x80))
                | zero_lanes(w ^ splat(b'"'))
                | zero_lanes(w ^ splat(b'\\'))
        },
        |b| b < 0x20 || b == b'"' || b == b'\\',
    )
}

/// The next `"` or `\` of a string being parsed.
fn find_quote_or_backslash(bytes: &[u8], from: usize) -> Option<usize> {
    find_special(
        bytes,
        from,
        |w| zero_lanes(w ^ splat(b'"')) | zero_lanes(w ^ splat(b'\\')),
        |b| b == b'"' || b == b'\\',
    )
}

/// Only `"`, `\` and control characters are escaped; everything between
/// two of them is copied as one run. All three are ASCII, so a run always
/// ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(i) = find_escape(bytes, start) {
        out.push_str(&s[start..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        if v <= i64::MAX as u64 {
            Json::Int(v as i64)
        } else {
            Json::Float(v as f64)
        }
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
/// A copy, for APIs that take `impl Into<Json>` and would rather own.
impl From<&Json> for Json {
    fn from(v: &Json) -> Json {
        v.clone()
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Compact rendering; `to_string()` comes with it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

/// A parse error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    /// 1-based.
    pub line: usize,
    /// 1-based.
    pub column: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at line {}, column {}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts; one more
/// level is a [`JsonError`] at the opening bracket. The parser recurses
/// once per level, so without a bound a line of `[`s well inside the
/// serve protocol's line limit overflows the stack. The deepest
/// documents the workspace writes are 10 levels (`Profile::to_json`),
/// 8 for a serve response carrying an `analyze` artifact (7 as a spill
/// file) and 4 for a tuning configuration.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error(format!(
            "unexpected trailing content starting with `{}`",
            p.peek_char()
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1, 1);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { message: message.into(), line, column: col }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_char(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => (b as char).to_string(),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", b as char, self.peek_char())))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error(format!("expected a JSON value, found `{}`", self.peek_char()))),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error(format!(
                    "expected a quoted object key, found `{}`",
                    self.peek_char()
                )));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        self.peek_char()
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `]` in array, found `{}`",
                        self.peek_char()
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Find the closing quote, stepping over escapes. Decoding never
        // makes a string longer, so that sizes the result once; a string
        // without escapes is that slice, and one without a closing quote
        // is an error the decoding below reports.
        let mut at = start;
        let mut escaped = false;
        let end = loop {
            match find_quote_or_backslash(self.bytes, at) {
                Some(i) if self.bytes[i] == b'\\' => {
                    escaped = true;
                    at = i + 2;
                }
                found => break found,
            }
        };
        if let (Some(end), false) = (end, escaped) {
            self.pos = end + 1;
            return Ok(self.text[start..end].to_string());
        }
        let mut out = String::with_capacity(end.map_or(0, |end| end - start));
        loop {
            // Copy everything up to the next quote or backslash as one
            // run; both are ASCII, so the run ends on a char boundary.
            let Some(run_end) = find_quote_or_backslash(self.bytes, self.pos) else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(&self.text[self.pos..run_end]);
            self.pos = run_end + 1;
            if self.bytes[run_end] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'u') => {
                    let unit = self.code_unit(self.pos)?;
                    self.pos += 4;
                    // A high surrogate and the low one after it are one
                    // char; a surrogate without its partner is U+FFFD.
                    let code = if (0xd800..0xdc00).contains(&unit)
                        && self.bytes[self.pos + 1..].starts_with(b"\\u")
                    {
                        match self.code_unit(self.pos + 2) {
                            Ok(low @ 0xdc00..0xe000) => {
                                self.pos += 6;
                                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => unit,
                        }
                    } else {
                        unit
                    };
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(self.error(format!(
                        "invalid escape `\\{}`",
                        other.map(|b| b as char).unwrap_or('?')
                    )))
                }
            }
            self.pos += 1;
        }
    }

    /// The code unit of the `\u` escape whose `u` is at `at`.
    fn code_unit(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at + 1..at + 5)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // `from_str_radix` alone would take a sign: `\u+041` is not `A`.
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error(format!("invalid \\u escape `{hex}`")));
        }
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.is_empty() || text == "-" {
            return Err(self.error("expected a number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.error(format!("invalid number `{text}`")))
        } else {
            match text.parse::<i64>() {
                Ok(v) => Ok(Json::Int(v)),
                // Overflowing integers degrade to float like serde_json's
                // arbitrary_precision-off behavior.
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.error(format!("invalid number `{text}`"))),
            }
        }
    }
}

/// Helpers for decoding objects with descriptive errors, used by the
/// artifact deserializers.
pub mod de {
    use super::Json;

    /// Fetch a required field.
    pub fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
        obj.get(key)
            .ok_or_else(|| format!("{what}: missing required field `{key}`"))
    }

    pub fn str_field(obj: &Json, key: &str, what: &str) -> Result<String, String> {
        let v = field(obj, key, what)?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{what}: field `{key}` must be a string, got {}", v.type_name()))
    }

    pub fn i64_field(obj: &Json, key: &str, what: &str) -> Result<i64, String> {
        let v = field(obj, key, what)?;
        v.as_i64()
            .ok_or_else(|| format!("{what}: field `{key}` must be an integer, got {}", v.type_name()))
    }

    pub fn f64_field(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
        let v = field(obj, key, what)?;
        v.as_f64()
            .ok_or_else(|| format!("{what}: field `{key}` must be a number, got {}", v.type_name()))
    }

    pub fn bool_field(obj: &Json, key: &str, what: &str) -> Result<bool, String> {
        let v = field(obj, key, what)?;
        v.as_bool()
            .ok_or_else(|| format!("{what}: field `{key}` must be a boolean, got {}", v.type_name()))
    }

    pub fn arr_field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a [Json], String> {
        let v = field(obj, key, what)?;
        v.as_arr()
            .ok_or_else(|| format!("{what}: field `{key}` must be an array, got {}", v.type_name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::obj()
            .with("app", "pipeline_main_l4")
            .with("n", 42i64)
            .with("ratio", 0.25)
            .with("on", true)
            .with("tags", vec!["a", "b"])
            .with("nested", Json::obj().with("x", Json::Null));
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn preserves_field_order() {
        let v = Json::obj().with("z", 1i64).with("a", 2i64);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(parse("3").unwrap(), Json::Int(3));
        assert_eq!(parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(parse(&Json::Float(3.0).to_string()).unwrap(), Json::Float(3.0));
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{1F600}";
        let text = Json::Str(s.into()).to_string();
        assert_eq!(parse(&text).unwrap(), Json::Str(s.into()));
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn errors_carry_position_and_context() {
        let err = parse("{\n  \"a\": }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected a JSON value"), "{err}");

        let err = parse("[1, 2").unwrap_err();
        assert!(err.message.contains("expected `,` or `]`"), "{err}");

        let err = parse("{\"a\": 1} trailing").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");

        let err = parse("{broken: 1}").unwrap_err();
        assert!(err.message.contains("quoted object key"), "{err}");
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert_eq!((err.line, err.column), (1, MAX_DEPTH + 1));
        let err = parse(&format!("{{\"a\":\n{}}}", objects(MAX_DEPTH))).unwrap_err();
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        assert_eq!((err.line, err.column), (2, 5 * (MAX_DEPTH - 1) + 1));
    }

    #[test]
    fn a_hundred_thousand_brackets_error_on_a_small_stack() {
        let line = format!("{{\"op\":\"analyze\",\"source\":{}", "[".repeat(100_000));
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&line).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn negative_and_large_numbers() {
        assert_eq!(parse("-17").unwrap(), Json::Int(-17));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert!(matches!(parse("99999999999999999999").unwrap(), Json::Float(_)));
    }

    #[test]
    fn de_helpers_report_descriptive_errors() {
        let obj = parse(r#"{"name": 7}"#).unwrap();
        let err = de::str_field(&obj, "name", "tuning parameter").unwrap_err();
        assert!(err.contains("`name` must be a string"), "{err}");
        assert!(err.contains("integer"), "{err}");
        let err = de::field(&obj, "kind", "tuning parameter").unwrap_err();
        assert!(err.contains("missing required field `kind`"), "{err}");
    }

    /// The writer as it was before escapes were copied in runs: one
    /// `char` at a time. Kept as the oracle the run-copying writer must
    /// match byte for byte.
    fn write_escaped_per_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn render_into_appends_what_to_string_returns() {
        let v = Json::obj()
            .with("s", "a\"b")
            .with("f", 2.0)
            .with("g", -0.125)
            .with("i", i64::MIN)
            .with("nan", f64::NAN)
            .with("xs", vec![1i64, 2]);
        let mut out = String::from("head:");
        v.render_into(&mut out);
        assert_eq!(out, format!("head:{v}"));
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b","f":2.0,"g":-0.125,"i":-9223372036854775808,"nan":null,"xs":[1,2]}"#
        );
    }

    #[test]
    fn unicode_escapes_and_escapes_at_run_boundaries_parse() {
        let cases = [
            (r#""\u0041\u00e9x\u20ac""#, "Aéx€"),
            (r#""\n""#, "\n"),
            (r#""\n\nab\t""#, "\n\nab\t"),
            (r#""é\\😀\"é""#, "é\\😀\"é"),
            (r#""\/\b\f\ud800""#, "/\u{8}\u{c}\u{fffd}"),
            ("\"raw\nnewline\"", "raw\nnewline"),
            (r#""""#, ""),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
        for (text, message) in [
            (r#""\u12""#, "truncated"),
            (r#""\u123é""#, "truncated"),
            (r#""\uzzzz""#, "invalid \\u escape"),
            (r#""\u+041""#, "invalid \\u escape `+041`"),
            (r#""\q""#, "invalid escape `\\q`"),
            ("\"abc\\", "invalid escape `\\?`"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.message.contains(message), "{text}: {err}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char_and_lone_surrogates_to_fffd() {
        // What an encoder that escapes all non-ASCII sends, e.g. Python's
        // `json.dumps("print(😀)")`.
        for (text, want) in [
            (r#""print(\ud83d\ude00)""#, "print(😀)"),
            (r#""\uD83D\uDE00""#, "😀"),
            (r#""\udbff\udfffx""#, "\u{10ffff}x"),
            (r#""\ud800""#, "\u{fffd}"),
            (r#""\udc00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx\ude00""#, "\u{fffd}x\u{fffd}"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
        // A `\u` cut off at the end of input, alone or after a high
        // surrogate, is a positioned error.
        for (text, message, column) in [
            (r#""\ud83d\ude0"#, "truncated \\u escape", 9),
            (r#""\ud83d\u"#, "truncated \\u escape", 9),
            (r#""\ud8"#, "truncated \\u escape", 3),
            (r#""\ud83d\uzzzz""#, "invalid \\u escape `zzzz`", 9),
            (r#""\ud83d"#, "unterminated string", 8),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.message, message, "{text}");
            assert_eq!((err.line, err.column), (1, column), "{text}");
        }
    }

    #[test]
    fn unterminated_string_is_reported_at_end_of_input() {
        // Where the per-char scanner stopped: one past the last byte,
        // columns counting bytes.
        for (text, line, column) in [
            ("\"abc", 1, 5),
            ("\"", 1, 2),
            ("\"é😀", 1, 8),
            ("{\n  \"k\": \"x\\ny", 2, 13),
            ("[\"a\nb", 2, 2),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.message, "unterminated string", "{text:?}");
            assert_eq!((err.line, err.column), (line, column), "{text:?}");
        }
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Strings made of plain runs and everything that ends a run, so
        /// that escapes land at the start, at the end and back to back.
        fn text() -> impl Strategy<Value = String> {
            let piece = prop_oneof![
                4 => Just("plain run of text"),
                2 => Just("x"),
                2 => Just("\""),
                2 => Just("\\"),
                2 => Just("\n"),
                1 => Just("\r"),
                1 => Just("\t"),
                1 => Just("\u{1}"),
                1 => Just("\u{1f}"),
                1 => Just("\u{7f}"),
                1 => Just("/"),
                1 => Just("\\u0041"),
                2 => Just("é"),
                1 => Just("€"),
                2 => Just("😀"),
            ];
            vec(piece, 0..24).prop_map(|pieces| pieces.concat())
        }

        proptest! {
            #[test]
            fn strings_round_trip_and_render_as_the_per_char_writer_did(s in text()) {
                let rendered = Json::Str(s.clone()).to_string();
                let mut oracle = String::new();
                write_escaped_per_char(&mut oracle, &s);
                prop_assert_eq!(&rendered, &oracle);
                prop_assert_eq!(parse(&rendered).unwrap(), Json::Str(s.clone()));
                // As an object key and in the pretty form too.
                let obj = Json::obj().with(s.clone(), vec![s.clone()]);
                prop_assert_eq!(parse(&obj.to_string_pretty()).unwrap(), obj);
            }

            #[test]
            fn a_string_cut_short_is_unterminated_at_the_same_position(s in text()) {
                let rendered = Json::Str(s).to_string();
                // Without its closing quote; and never ending in half an escape.
                let cut = rendered[..rendered.len() - 1].trim_end_matches('\\');
                let err = parse(cut).unwrap_err();
                prop_assert_eq!(err.message.as_str(), "unterminated string");
                // The rendering has no raw newline: line 1, one column per byte.
                prop_assert_eq!((err.line, err.column), (1, cut.len() + 1));
            }
        }
    }
}
