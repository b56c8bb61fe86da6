#![warn(missing_docs)]
// Unit tests assert on known-good values; unwrap is fine there.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Minimal hand-rolled JSON value tree.
//!
//! This build is offline and dependency-free, so instead of `serde` the
//! workspace reads and writes its JSON — the on-disk tuning database and
//! the BFC service's request and response bodies — through this tiny
//! value tree. The tuning database carries a `schema` tag
//! (`winrs-tune-v1`) so a loader can reject files it does not
//! understand; the schema constant lives with its writer, and this crate
//! is only the value tree.
//!
//! [`Json::parse`] reads untrusted input (request bodies from the
//! network, hand-edited files), so it refuses nesting deeper than
//! [`MAX_DEPTH`] instead of recursing without bound.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so this bounds its stack use whatever
/// the input: a body of 16 MiB of `[` is refused at byte 64 instead of
/// overflowing the thread's stack. The deepest document the workspace
/// reads, a `winrs-tune-v1` database, nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Construct with the enum variants or the helper ctors,
/// then [`Json::render`] it.
pub enum Json {
    /// `null` — also the rendering of non-finite numbers.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from `Num` so counters render without a
    /// fractional part).
    Int(i64),
    /// A finite float; NaN/∞ render as `null` (JSON has no spelling for
    /// them).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Render into `out` as compact JSON (no whitespace).
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Render to a fresh string with a trailing newline (file convention).
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out.push('\n');
        out
    }

    /// Parse a JSON document (the inverse of [`Json::render`], accepting
    /// arbitrary inter-token whitespace). Returns a description of the
    /// first syntax error instead of panicking — tuning-db files come from
    /// disk and may be stale, torn, or hand-edited, and request bodies
    /// from anyone. Nesting deeper than [`MAX_DEPTH`] is an error naming
    /// the byte offset of the first bracket past the limit.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Num` both read as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Parse one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 scalar starting here.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

/// Append `s` as a quoted, escaped JSON string.
fn escape_into(s: &str, out: &mut String) {
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
    fn escapes_special_characters() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nesting_past_max_depth_is_refused_at_its_byte() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let refusal = |text: &str| Json::parse(text).err().expect("refused");
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            refusal(&nested(MAX_DEPTH + 1)),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Objects count as levels too.
        let deep = MAX_DEPTH + 1;
        let objects = format!("{}1{}", "{\"k\":".repeat(deep), "}".repeat(deep));
        let err = refusal(&objects);
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // A body far deeper than any stack could recurse through.
        let err = refusal(&"[".repeat(1_000_000));
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn parse_roundtrips_rendered_document() {
        let doc = Json::obj(vec![
            ("schema", Json::str("winrs-json-test")),
            ("ok", Json::Bool(true)),
            ("count", Json::Int(3)),
            ("ratio", Json::Num(0.5)),
            ("name", Json::str("a\"b\\c\nd")),
            ("items", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        let parsed = Json::parse(&doc.to_document()).expect("round-trip parse");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("winrs-json-test")
        );
        assert_eq!(parsed.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a\"b\\c\nd")
        );
        let items = parsed.get("items").and_then(Json::items).expect("array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert!(matches!(items[1], Json::Null));
        assert!(matches!(parsed.get("ok"), Some(Json::Bool(true))));
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let ok = Json::parse(" { \"a\" : [ 1 , -2.5e1 ] } \n").expect("whitespace ok");
        let items = ok.get("a").and_then(Json::items).expect("array");
        assert_eq!(items[1].as_f64(), Some(-25.0));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Int(3)),
            ("ratio", Json::Num(0.5)),
            ("nan", Json::Num(f64::NAN)),
            ("items", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        assert_eq!(
            doc.to_document(),
            "{\"ok\":true,\"count\":3,\
             \"ratio\":0.5,\"nan\":null,\"items\":[1,null]}\n"
        );
    }
}
