//! The workspace's one JSON codec: a value type with its parser and
//! printer, plus the string escaper and float encoder that the streaming
//! writers (the trace sink, the flight recorder, the sweep journal) use
//! to write records straight into a `String` without building a [`Json`]
//! tree per sample.
//!
//! The workspace takes no serde dependency. The subset here covers every
//! artifact the workspace writes or reads:
//!
//! * Objects keep insertion order (stable, diffable output).
//! * Numbers are stored as their **raw token**, so a `u64` seed survives
//!   the round trip exactly (an `f64` payload cannot hold every `u64`),
//!   and an `f64` printed with Rust's shortest-roundtrip formatting parses
//!   back to the identical bits. Non-finite floats, which JSON cannot
//!   carry, encode as `null` and bump [`non_finite_null_count`].
//! * Strings escape control characters, quotes, and backslashes.
//! * The parser takes input from outside the program (`inspect`, `repro`,
//!   `sweep --resume`, `perf`), so it accepts only RFC 8259 number tokens
//!   and refuses nesting deeper than [`MAX_DEPTH`] with
//!   [`JsonError::TooDeep`] instead of recursing until the stack runs out.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Deepest array/object nesting [`Json::parse`] accepts. The workspace's
/// own artifacts nest at most four levels.
pub const MAX_DEPTH: usize = 128;

/// Process-wide tally of non-finite floats downgraded to JSON `null` by
/// any encoder in this module. A non-zero delta across a run means some
/// result carried NaN/∞ — the self-check oracle and `inspect` treat that
/// as a data-quality signal rather than silently losing it.
static NON_FINITE_NULLS: AtomicU64 = AtomicU64::new(0);

/// Current value of the non-finite-to-`null` counter.
pub fn non_finite_null_count() -> u64 {
    NON_FINITE_NULLS.load(Ordering::Relaxed)
}

/// Writes a JSON string literal (quoted, escaped) — the one escaper,
/// shared by [`Json`]'s `Display` and the streaming writers.
///
/// # Errors
/// Only what `out` returns; writing into a `String` cannot fail.
pub fn push_str_lit(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Appends an `f64` — the one float encoder: shortest round-trip text,
/// or `null` for a non-finite value (bumping [`non_finite_null_count`]).
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        NON_FINITE_NULLS.fetch_add(1, Ordering::Relaxed);
        out.push_str("null");
    }
}

/// Why [`Json::parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON: what was wrong, and where.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that crossed the limit.
        offset: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { offset } => write!(
                f,
                "nesting deeper than {MAX_DEPTH} levels at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

fn syntax(msg: impl Into<String>) -> JsonError {
    JsonError::Syntax(msg.into())
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see module docs).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an `f64`, through [`push_f64`]: JSON has no NaN/∞,
    /// so a non-finite value becomes [`Json::Null`] and bumps
    /// [`non_finite_null_count`].
    pub fn num_f64(x: f64) -> Json {
        let mut tok = String::new();
        push_f64(&mut tok, x);
        if tok == "null" {
            Json::Null
        } else {
            Json::Num(tok)
        }
    }

    /// A number from a `u64`, exactly.
    pub fn num_u64(x: u64) -> Json {
        Json::Num(format!("{x}"))
    }

    /// Object member by key (first match), or `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64` (rejecting fractions and negatives), or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, or `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing garbage is an error.
    ///
    /// # Errors
    /// [`JsonError::Syntax`] for malformed text (including number tokens
    /// outside RFC 8259), [`JsonError::TooDeep`] past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syntax(format!("trailing bytes at offset {pos}")));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(tok) => f.write_str(tok),
            Json::Str(s) => push_str_lit(f, s),
            Json::Arr(items) => write_seq(f, ('[', ']'), items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                write_seq(f, ('{', '}'), members.iter().map(|(k, v)| (Some(k), v)))
            }
        }
    }
}

/// Writes `open item (, item)* close`, each item `"key":value` or `value`.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a String>, &'a Json)>,
) -> fmt::Result {
    f.write_char(open)?;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        if let Some(key) = key {
            push_str_lit(f, key)?;
            f.write_char(':')?;
        }
        write!(f, "{value}")?;
    }
    f.write_char(close)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(syntax(format!("expected '{}' at offset {pos}", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(JsonError::TooDeep { offset: *pos });
    }
    match bytes.get(*pos) {
        None => Err(syntax("unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_seq(bytes, pos, b']', |bytes, pos| {
                items.push(parse_value(bytes, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut members = Vec::new();
            parse_seq(bytes, pos, b'}', |bytes, pos| {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                Ok(())
            })?;
            Ok(Json::Obj(members))
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parses `item (, item)*` up to `close`, the opening bracket at `pos`.
fn parse_seq(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                let close = close as char;
                return Err(syntax(format!("expected ',' or '{close}' at offset {pos}")));
            }
        }
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(syntax(format!("bad literal at offset {pos}")))
    }
}

/// Scans an RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
/// so every token kept (and printed back by `Display`) is valid JSON.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_len = digits(pos);
    let mut ok = int_len == 1 || (int_len > 1 && bytes[int_start] != b'0');
    if ok && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok = digits(pos) > 0;
    }
    if ok && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok = digits(pos) > 0;
    }
    // The scanned prefix is ASCII, so slicing the input there is safe.
    let tok = std::str::from_utf8(&bytes[start..*pos]).expect("number tokens are ASCII");
    if !ok {
        return Err(syntax(format!("bad number '{tok}' at offset {start}")));
    }
    Ok(Json::Num(tok.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(syntax("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| syntax("truncated \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| syntax("bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(syntax(format!("bad escape at offset {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so this
                // byte run is valid UTF-8).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| syntax("bad utf8"))?;
                let c = rest.chars().next().expect("a byte remains at pos");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let doc = Json::Obj(vec![
            ("id".into(), Json::Str("mtcd-s7".into())),
            ("seed".into(), Json::num_u64(u64::MAX)),
            ("rho".into(), Json::num_f64(0.1 + 0.2)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![Json::num_u64(1), Json::num_u64(2)]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("rho").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn non_finite_encodes_as_null_not_invalid_tokens() {
        // Regression: release builds used to print `NaN`/`inf` raw, which
        // no JSON parser (including ours) accepts back.
        let before = non_finite_null_count();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("v".into(), Json::num_f64(x))]);
            let text = doc.to_string();
            assert_eq!(text, "{\"v\":null}");
            assert_eq!(Json::parse(&text).unwrap().get("v"), Some(&Json::Null));
            let mut streamed = String::new();
            push_f64(&mut streamed, x);
            assert_eq!(streamed, "null");
        }
        assert!(non_finite_null_count() >= before + 6);
        // The old behavior would have produced these, and they must not parse.
        assert!(Json::parse("{\"v\":NaN}").is_err());
        assert!(Json::parse("{\"v\":inf}").is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("a \"b\"\n\\c\tü\u{1}".into());
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        let mut streamed = String::new();
        push_str_lit(&mut streamed, "a\"\\\n\u{1}").unwrap();
        assert_eq!(streamed, "\"a\\\"\\\\\\n\\u0001\"");
        assert_eq!(
            Json::parse("\"\\u0041\\u00fc\"").unwrap().as_str(),
            Some("Aü")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("1.2.3").is_err());
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for ok in [
            "0", "-0", "5", "-12", "0.5", "1e5", "1E+2", "2.5e-3", "-0.0e0",
        ] {
            let v = Json::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
            assert_eq!(v.to_string(), ok);
        }
        for bad in [
            "+5", ".5", "5.", "01", "-", "1e", "1e+", "-.5", "00", "1.e3", "0x10",
        ] {
            assert!(
                matches!(Json::parse(bad), Err(JsonError::Syntax(_))),
                "{bad} accepted"
            );
            assert!(
                Json::parse(&format!("[{bad}]")).is_err(),
                "[{bad}] accepted"
            );
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(
            Json::parse(&objects),
            Err(JsonError::TooDeep { .. })
        ));
        // Far past the limit: a typed error, not a stack overflow.
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err, JsonError::TooDeep { offset: MAX_DEPTH });
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }
}
