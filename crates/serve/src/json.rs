//! Minimal JSON value, parser, and writer.
//!
//! The sanctioned dependency set has no JSON crate (the build environment
//! has no registry access), so this module implements the subset the audit
//! service needs: the full value model, a recursive-descent parser with a
//! depth limit, and a writer whose `f64` formatting is the shortest string
//! that round-trips — so numeric results survive an HTTP hop bit-for-bit.

use std::fmt;

/// A JSON value. Object keys keep insertion order (no sorting, no dedup at
/// the type level), so responses render in the order handlers build them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; serialized via Rust's shortest round-trip formatting.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest permitted nesting; guards the recursive parser against
/// stack-overflow payloads.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            text,
            bytes,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Builds an object from ordered pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up `key` in an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Number(f64::from(n))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parses a string literal. Maximal runs free of `"`, `\` and raw
    /// control bytes are copied whole; those stop bytes are ASCII, so every
    /// run ends on a char boundary of the (valid) input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = run_len(&self.bytes[self.pos..]);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character")),
            }
        }
    }

    /// Decodes the escape after a `\` (at `pos`), leaving `pos` past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                return if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require \uXXXX low half.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
                };
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

/// The length of the leading run of `bytes` free of `"`, `\` and raw
/// control bytes. Eight bytes at a time: a word is skipped whole when none
/// of its bytes stops the run (the has-less-than-byte test never misses
/// one; the word that trips it is finished byte by byte).
fn run_len(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Nonzero exactly when some byte of `w` is below `n` (for n <= 0x80).
    let has_less = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS;
    let mut skipped = 0;
    for word in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let stops = has_less(w ^ (ONES * u64::from(b'"')), 1)
            | has_less(w ^ (ONES * u64::from(b'\\')), 1)
            | has_less(w, 0x20);
        if stops != 0 {
            break;
        }
        skipped += 8;
    }
    skipped
        + bytes[skipped..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len() - skipped)
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact serialization (no added whitespace). Numbers use Rust's
    /// shortest round-trip formatting, so `Json::parse(x.to_string())`
    /// reproduces `x` bit-for-bit for finite values; non-finite numbers
    /// (which JSON cannot express) render as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if n.is_finite() => write!(f, "{n}"),
            Json::Number(_) => f.write_str("null"),
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Number(-50.0));
        assert_eq!(
            Json::parse("\"hi\"").unwrap(),
            Json::String("hi".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn parses_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair (😀 = U+1F600).
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}",
            "tru",
            "1 2",
            "\"\x01\"",
            "nul",
            "[1] garbage",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for x in [
            0.7,
            1.0 / 3.0,
            2.0f64.powi(-40),
            6.02e23,
            -0.0,
            123_456_789.125,
        ] {
            let text = Json::Number(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn display_round_trips_structures() {
        let text = r#"{"op":"audit","xs":[1,2.5,null,true],"s":"a\"b\n"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.to_string(), text);
    }

    /// The char-at-a-time string parser `Parser::string` replaced, kept as
    /// its differential oracle.
    fn string_by_chars(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            p.pos += 1;
                            let hi = p.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if p.peek() != Some(b'\\') {
                                    return Err(p.err("lone high surrogate"));
                                }
                                p.pos += 1;
                                if p.peek() != Some(b'u') {
                                    return Err(p.err("lone high surrogate"));
                                }
                                p.pos += 1;
                                let lo = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(p.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| p.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| p.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(p.err("invalid escape")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances by
                    // whole ASCII bytes or whole chars, so it sits on a char
                    // boundary of the (valid) input.
                    let ch = p.text[p.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    p.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parser(text: &str) -> Parser<'_> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// One piece of a generated string literal's body, chosen by `kind`
    /// and shaped by `x`: plain or multi-byte text, every escape form
    /// (surrogate pairs and lone halves included), raw control bytes, and
    /// broken escapes.
    fn piece(kind: u8, x: u32) -> String {
        let scalar = |lo: u32, span: u32| char::from_u32(lo + x % span).unwrap().to_string();
        match kind {
            // Printable ASCII, raw `"` and `\` included.
            0 => scalar(0x20, 95),
            1 => "abcdefghijklmnopqrstuvwxyz,0123456789"[..(x % 38) as usize].to_owned(),
            // Two-, three- (surrogate range skipped) and four-byte UTF-8.
            2 => scalar(0x80, 0x800 - 0x80),
            3 => scalar(0xE000, 0x1_0000 - 0xE000),
            4 => scalar(0x800, 0xD800 - 0x800),
            5 => scalar(0x1_0000, 0x11_0000 - 0x1_0000),
            6 => ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"][(x % 8) as usize]
                .to_owned(),
            7 if x & 1 == 0 => format!("\\u{:04x}", (x >> 1) % 0x1_0000),
            7 => format!("\\u{:04X}", (x >> 1) % 0x1_0000),
            // A valid surrogate pair.
            8 => {
                let c = x % 0x10_0000;
                format!(
                    "\\u{:04x}\\u{:04x}",
                    0xD800 + (c >> 10),
                    0xDC00 + (c & 0x3FF)
                )
            }
            // Lone or mismatched surrogate halves.
            9 => format!("\\u{:04x}", 0xD800 + x % 0x400),
            10 => format!("\\u{:04x}", 0xDC00 + x % 0x400),
            11 => format!("\\u{:04x}\\u{:04x}", 0xD800 + x % 0x400, x % 0xD800),
            12 => format!("\\u{:04x}\\n", 0xD800 + x % 0x400),
            // A raw control byte.
            13 => scalar(0, 0x20),
            // Broken escapes.
            _ => {
                ["\\x", "\\u12", "\\uZZZZ", "\\u+041", "\\", "\\u00e9"][(x % 6) as usize].to_owned()
            }
        }
    }

    /// A generated literal: opening quote, pieces, usually a closing
    /// quote, then optionally cut at a char boundary and spliced with one
    /// more piece.
    fn literal(
        pieces: &[(u8, u32)],
        close: bool,
        cut: Option<usize>,
        splice: Option<(usize, u8, u32)>,
    ) -> String {
        let mut text = String::from("\"");
        for &(kind, x) in pieces {
            text.push_str(&piece(kind, x));
        }
        if close {
            text.push('"');
        }
        let boundary = |text: &str, at: usize| {
            let mut at = at % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            at
        };
        if let Some(at) = cut {
            let at = boundary(&text, at);
            text.truncate(at);
        }
        if let Some((at, kind, x)) = splice {
            let at = boundary(&text, at);
            text.insert_str(at, &piece(kind, x));
        }
        text
    }

    /// `run_len` finds the first stop byte wherever it sits relative to
    /// the eight-byte words, after any filler (ASCII, UTF-8 lead and
    /// continuation bytes, bytes adjacent to the stop values).
    #[test]
    fn run_len_finds_every_stop_byte() {
        let fillers = [
            b'a', b' ', b'!', b'#', b'[', b']', 0x7F, 0x80, 0xA9, 0xC3, 0xFF,
        ];
        let stops = (0u8..0x20).chain([b'"', b'\\']);
        for stop in stops {
            for filler in fillers {
                for len in 0..=19 {
                    let mut bytes = vec![filler; len];
                    assert_eq!(run_len(&bytes), len);
                    for at in 0..len {
                        bytes[at] = stop;
                        assert_eq!(run_len(&bytes), at, "stop {stop:#x} at {at} of {len}");
                        bytes[at] = filler;
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        /// The run-copying string parser answers exactly like the
        /// char-at-a-time one: the same string and end position, or the
        /// same error at the same byte. A whole-document parse around the
        /// literal never panics, and yields the string when the literal is
        /// the whole text.
        #[test]
        fn string_runs_match_the_char_at_a_time_oracle(
            pieces in proptest::collection::vec((0u8..=14, 0u32..0x11_0000), 0..=12),
            shape in (0u8..10, 0u8..4, 0usize..200, 0u8..4, (0usize..200, 0u8..=14, 0u32..0x11_0000)),
        ) {
            let (close, cut_roll, cut_at, splice_roll, splice) = shape;
            let text = literal(
                &pieces,
                close > 0,
                (cut_roll == 0).then_some(cut_at),
                (splice_roll == 0).then_some(splice),
            );
            let (mut runs, mut chars) = (parser(&text), parser(&text));
            let got = runs.string();
            let want = string_by_chars(&mut chars);
            proptest::prop_assert_eq!(&got, &want, "literal {:?}", text);
            proptest::prop_assert_eq!(runs.pos, chars.pos, "literal {:?}", text);
            let document = format!("{{\"csv\": {text}, \"k\": 1}}");
            let parsed = Json::parse(&document);
            if let (Ok(s), true) = (&want, chars.pos == text.len()) {
                let value = parsed.expect("a valid literal in a valid document parses");
                proptest::prop_assert_eq!(value.get("csv").and_then(Json::as_str), Some(s.as_str()));
            }
        }
    }

    #[test]
    fn string_errors_point_at_the_offending_byte() {
        for (text, at, message) in [
            ("\"abc", 4, "unterminated string"),
            ("\"ab\u{1}c\"", 3, "raw control character"),
            ("\"ab\\qc\"", 4, "invalid escape"),
            ("\"é\\ud800x\"", 9, "lone high surrogate"),
            ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\udc00\"", 7, "invalid \\u escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
        ] {
            let err = parser(text).string().unwrap_err();
            assert_eq!((err.at, err.message.as_str()), (at, message), "{text:?}");
        }
    }

    #[test]
    fn accessor_types_are_strict() {
        let v = Json::parse(r#"{"n": 1.5, "i": 3, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
