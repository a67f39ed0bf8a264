//! JSON emission and parsing over the same [`Value`] document model the
//! YAML side uses.
//!
//! The observability layer (trace exports, the durable run ledger) speaks
//! JSON because that is what Perfetto, `jq`, and collaborators' tooling
//! open — and the build environment has no serde, so this is the same
//! hand-rolled, dependency-free style as the YAML parser next door.
//!
//! Emission is *deterministic*: [`Map`] preserves insertion order, floats
//! render through one canonical formatter, and no whitespace depends on
//! content. Two structurally equal values always emit byte-identical text —
//! the property the run ledger and the `--jobs 1` vs `--jobs 8` export
//! identity checks rely on.

use crate::value::{Map, Value};
use crate::MAX_DEPTH;
use std::fmt::Write as _;

/// Emits `value` as a single-line (compact) JSON document.
///
/// * `Null` → `null`, `Bool` → `true`/`false`, `Int` → decimal.
/// * `Float` → shortest round-trip decimal; non-finite floats become `null`
///   (JSON has no NaN/Infinity).
/// * `Str` → quoted with `"`, `\`, control characters escaped.
/// * `Seq` → `[a,b,…]`, `Map` → `{"k":v,…}` in insertion order.
pub fn emit_json(value: &Value) -> String {
    let mut out = String::new();
    emit_into(value, &mut out);
    out
}

fn emit_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => out.push_str(&json_number(*f)),
        Value::Str(s) => json_string_into(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_into(item, out);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string_into(key, out);
                out.push(':');
                emit_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Canonical JSON rendering of a float: shortest text that round-trips *as a
/// float* (integral values keep a `.0` so they reparse as `Float`, not
/// `Int`), `null` for non-finite values.
pub fn json_number(f: f64) -> String {
    if f.is_finite() {
        crate::value::format_float(f)
    } else {
        "null".to_string()
    }
}

/// Escapes `s` as a JSON string literal (including the surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_string_into(s, &mut out);
    out
}

/// Escapes `s` directly into `out`, copying maximal escape-free runs in one
/// `push_str` each instead of pushing char by char. The scan is bytewise:
/// every byte needing an escape is ASCII, and UTF-8 continuation bytes are
/// ≥ 0x80, so a multi-byte scalar can never be split by the run boundary.
fn json_string_into(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            i += 1;
            run = i;
        } else {
            i += 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document into a [`Value`].
///
/// A strict recursive-descent parser over the JSON grammar: objects become
/// [`Value::Map`] (insertion order preserved), arrays [`Value::Seq`],
/// numbers [`Value::Int`] when integral and in `i64` range else
/// [`Value::Float`]. Trailing garbage after the document is an error, as are
/// trailing commas, unquoted keys, and bare control characters — corrupt
/// ledger lines must *fail* here so the loader can count and skip them.
/// So must documents nesting arrays and objects more than 128 levels deep
/// (`MAX_DEPTH`), which would otherwise exhaust the stack.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses one value nested inside `depth` arrays or objects.
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(text, bytes, pos, depth + 1),
        Some(b'[') => parse_array(text, bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(text, bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(text, bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(format!("invalid token at byte {pos}", pos = *pos))
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = *pos;
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    if *pos == digits_from {
        return Err(format!("invalid number at byte {start}"));
    }
    let lexeme = &text[start..*pos];
    if !is_float {
        if let Ok(i) = lexeme.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    lexeme
        .parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("invalid number `{lexeme}` at byte {start}"))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let start = *pos;
    // Fast path: a bytewise scan to the closing quote. Every byte that can
    // end the scan (`"`, `\`, controls) is ASCII, and UTF-8 continuation
    // bytes are ≥ 0x80, so the scan never needs to decode scalars. Most
    // ledger/trace strings carry no escapes, so this copies the whole
    // string in one exactly-sized allocation.
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                let plain = &text[start..*pos];
                *pos += 1;
                return Ok(plain.to_string());
            }
            b'\\' => return parse_string_escaped(text, bytes, pos, start),
            _ if b < 0x20 => return Err("bare control character in string".to_string()),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// Slow path of [`parse_string`]: `*pos` sits on the first backslash, the
/// escape-free prefix spans `start..*pos`. Decodes escapes one by one but
/// still copies each plain run between them with a single `push_str`.
fn parse_string_escaped(
    text: &str,
    bytes: &[u8],
    pos: &mut usize,
    start: usize,
) -> Result<String, String> {
    let mut out = String::with_capacity((*pos - start) + 16);
    out.push_str(&text[start..*pos]);
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Surrogate pairs: JSON escapes astral characters as
                        // two \uXXXX units; lone surrogates are rejected.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if text.get(*pos..*pos + 2) != Some("\\u") {
                                return Err("lone high surrogate".to_string());
                            }
                            *pos += 2;
                            let hex2 = text
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape".to_string())?;
                            let low = u32::from_str_radix(hex2, 16)
                                .map_err(|_| format!("bad \\u escape `{hex2}`"))?;
                            *pos += 4;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid \\u code point".to_string())?);
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ if b < 0x20 => return Err("bare control character in string".to_string()),
            _ => {
                // copy the whole escape-free run in one push_str
                let run = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                out.push_str(&text[run..*pos]);
            }
        }
    }
}

fn parse_object(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut map = Map::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Map(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(text, bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(text, bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Map(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Seq(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(text, bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}
