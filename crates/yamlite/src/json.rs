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
use std::borrow::Cow;
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
/// A strict parser over the JSON grammar: objects become [`Value::Map`]
/// (insertion order preserved; a repeated key keeps its first position and
/// its last value), arrays [`Value::Seq`], numbers [`Value::Int`] when
/// integral and in `i64` range else [`Value::Float`]. Trailing garbage after
/// the document is an error, as are trailing commas, unquoted keys, and bare
/// control characters — corrupt ledger lines must *fail* here so the loader
/// can count and skip them. So must documents nesting arrays and objects
/// more than 128 levels deep (`MAX_DEPTH`), which would otherwise exhaust
/// the stack. The tree is built on a [`JsonCursor`], which does all the
/// lexing.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut cursor = JsonCursor::new(text);
    let token = cursor.value()?;
    let value = build(&mut cursor, token)?;
    cursor.finish()?;
    Ok(value)
}

/// The [`Value`] that `token` starts, reading a collection to its close.
fn build<'a>(cursor: &mut JsonCursor<'a>, token: Token<'a>) -> Result<Value, String> {
    Ok(match token {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Int(i) => Value::Int(i),
        Token::Float(f) => Value::Float(f),
        Token::Str(s) => Value::Str(s.into_owned()),
        Token::Map => {
            let mut map = Map::new();
            while let Some(key) = cursor.key()? {
                let token = cursor.value()?;
                map.insert(key.into_owned(), build(cursor, token)?);
            }
            Value::Map(map)
        }
        Token::Seq => {
            let mut items = Vec::new();
            while cursor.item()? {
                let token = cursor.value()?;
                items.push(build(cursor, token)?);
            }
            Value::Seq(items)
        }
    })
}

/// One step of a [`JsonCursor`]: a whole scalar, or the opening of a
/// collection whose entries follow.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string, borrowed from the input when it holds no escapes.
    Str(Cow<'a, str>),
    /// `{` was read; read the entries with [`JsonCursor::key`].
    Map,
    /// `[` was read; read the items with [`JsonCursor::item`].
    Seq,
}

// one bit per open collection in `JsonCursor::maps`
const _: () = assert!(MAX_DEPTH <= u128::BITS as usize);

/// A pull parser over one JSON document, with the checks of
/// [`parse_json`] and no tree: a reader takes the document a token at a
/// time and keeps only what it needs.
///
/// Read a value with [`value`](JsonCursor::value). When it opens a map,
/// call [`key`](JsonCursor::key) until it returns `None`, reading each
/// key's value before the next key; when it opens a sequence, call
/// [`item`](JsonCursor::item) until it returns `false`, reading each item.
/// [`skip_to`](JsonCursor::skip_to) discards the rest of whatever is open,
/// checked as strictly as what is read, and [`finish`](JsonCursor::finish)
/// ends the document. Strings and keys without escapes are borrowed from
/// the input.
///
/// ```
/// use benchpark_yamlite::{JsonCursor, Token};
///
/// let mut cursor = JsonCursor::new(r#"{"skip": [1, {"x": null}], "n": 7}"#);
/// assert_eq!(cursor.value().unwrap(), Token::Map);
/// assert_eq!(cursor.key().unwrap().as_deref(), Some("skip"));
/// cursor.skip().unwrap();
/// assert_eq!(cursor.key().unwrap().as_deref(), Some("n"));
/// assert_eq!(cursor.value().unwrap(), Token::Int(7));
/// assert_eq!(cursor.key().unwrap(), None);
/// cursor.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
    /// Collections open at `pos`.
    depth: usize,
    /// Bit `d` is set when the collection at depth `d + 1` is a map.
    maps: u128,
    /// The innermost collection has produced no entry yet.
    first: bool,
    /// A value is due next: at the start, after a key, after an item.
    pending: bool,
}

impl<'a> JsonCursor<'a> {
    /// A cursor at the start of `text`, whose one value is due.
    pub fn new(text: &'a str) -> JsonCursor<'a> {
        JsonCursor {
            text,
            pos: 0,
            depth: 0,
            maps: 0,
            first: false,
            pending: true,
        }
    }

    /// The number of collections open.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reads the value due next: a whole scalar, or the opening of a map or
    /// sequence (an error past 128 levels of nesting).
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        debug_assert!(self.pending, "no value is due");
        self.pending = false;
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if self.depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.pos += 1;
                let bit = 1u128 << self.depth;
                self.depth += 1;
                self.first = true;
                if open == b'{' {
                    self.maps |= bit;
                    Ok(Token::Map)
                } else {
                    self.maps &= !bit;
                    Ok(Token::Seq)
                }
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(_) => self.number(),
        }
    }

    /// In an open map: the next key, whose value is due next, or `None`
    /// when the map closes.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        debug_assert!(self.in_map(), "key() outside a map");
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(format!("expected string key at byte {}", self.pos));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected `:` at byte {}", self.pos));
        }
        self.pos += 1;
        self.pending = true;
        Ok(Some(key))
    }

    /// In an open sequence: `true` when another item follows (it is due
    /// next), `false` when the sequence closes.
    pub fn item(&mut self) -> Result<bool, String> {
        debug_assert!(!self.in_map(), "item() outside a sequence");
        self.pending = self.next_entry(b']')?;
        Ok(self.pending)
    }

    /// Reads and discards input until only `depth` collections are open:
    /// the rest of whatever a reader does not want, the value due next
    /// included.
    pub fn skip_to(&mut self, depth: usize) -> Result<(), String> {
        while self.depth > depth {
            let more = self.pending
                || if self.in_map() {
                    self.key()?.is_some()
                } else {
                    self.item()?
                };
            if more {
                self.value()?;
            }
        }
        Ok(())
    }

    /// Reads and discards the value due next.
    pub fn skip(&mut self) -> Result<(), String> {
        let depth = self.depth;
        self.value()?;
        self.skip_to(depth)
    }

    /// Ends the document: reads and discards what is left of it, then
    /// requires that only whitespace follows.
    pub fn finish(mut self) -> Result<(), String> {
        if self.pending {
            self.skip()?;
        }
        self.skip_to(0)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    fn in_map(&self) -> bool {
        self.depth > 0 && self.maps >> (self.depth - 1) & 1 == 1
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(pos) {
            pos += 1;
        }
        self.pos = pos;
    }

    /// Steps over the separator before the innermost collection's next
    /// entry; `false` once `close` ends the collection instead.
    fn next_entry(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => {
                return Err(format!(
                    "expected `,` or `{}` at byte {}",
                    close as char, self.pos
                ))
            }
        }
        Ok(true)
    }

    fn keyword(&mut self, keyword: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(token)
        } else {
            Err(format!("invalid token at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Token<'a>, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.pos == digits_from {
            return Err(format!("invalid number at byte {start}"));
        }
        let lexeme = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = lexeme.parse::<i64>() {
                return Ok(Token::Int(i));
            }
        }
        lexeme
            .parse::<f64>()
            .map(Token::Float)
            .map_err(|_| format!("invalid number `{lexeme}` at byte {start}"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        let start = self.pos + 1;
        // Fast path: a scan to the closing quote. Every byte that can end
        // the scan (`"`, `\`, controls) is ASCII, and UTF-8 continuation
        // bytes are ≥ 0x80, so the scan never needs to decode scalars. Most
        // ledger/trace strings carry no escapes, so they are borrowed from
        // the input as they stand.
        self.pos = start + plain_run(&self.text.as_bytes()[start..]);
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
            }
            Some(b'\\') => self.string_escaped(start).map(Cow::Owned),
            Some(_) => Err("bare control character in string".to_string()),
            None => Err("unterminated string".to_string()),
        }
    }

    /// Slow path of [`JsonCursor::string`]: `pos` sits on the first
    /// backslash, the escape-free prefix spans `start..pos`. Decodes escapes
    /// one by one but still copies each plain run between them with a single
    /// `push_str`.
    fn string_escaped(&mut self, start: usize) -> Result<String, String> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let pos = &mut self.pos;
        let mut out = String::with_capacity((*pos - start) + 16);
        out.push_str(&text[start..*pos]);
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    *pos += 1;
                    // exactly sized: a loaded ledger keeps its strings
                    out.shrink_to_fit();
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
                            // Surrogate pairs: JSON escapes astral characters
                            // as two \uXXXX units; lone surrogates are
                            // rejected.
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
                            out.push(
                                char::from_u32(c).ok_or("invalid \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ if b < 0x20 => return Err("bare control character in string".to_string()),
                _ => {
                    // copy the whole escape-free run in one push_str
                    let run = *pos;
                    *pos += plain_run(&bytes[run..]);
                    out.push_str(&text[run..*pos]);
                }
            }
        }
    }
}

/// Length of the prefix of `bytes` that a JSON string copies as it stands:
/// up to the first `"`, `\\`, or control character. Eight bytes are tested
/// at a time with the byte-wise "has less than" test on one little-endian
/// `u64`, whose lowest flagged byte is the first stop (a borrow can flag
/// bytes above a stop, never below one).
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |word: u64, n: u8| word.wrapping_sub(ONES * n as u64) & !word & HIGH;
    let mut at = 0;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let stops = below(word ^ (ONES * b'"' as u64), 1)
            | below(word ^ (ONES * b'\\' as u64), 1)
            | below(word, 0x20);
        if stops != 0 {
            return at + (stops.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(bytes.len(), |run| at + run)
}
