//! The workspace's one JSON reader and writer — the subset its artifacts
//! need (objects, arrays, strings, numbers, booleans, null).
//!
//! The workspace is fully offline and zero-dep by policy, so this module
//! implements exactly the surface its two users need:
//!
//! - the lab (`medsplit-lab`) parses baselines and `metrics.json` back in
//!   and writes canonical (sorted-key, stable-float) documents out, so the
//!   same inputs always produce byte-identical artifacts — run ids and
//!   baseline digests are FNV-1a over these bytes;
//! - the JSONL trace codec ([`crate::to_jsonl`] / [`crate::from_jsonl`])
//!   escapes names with [`escape`] and reads each line back with
//!   [`parse`].
//!
//! Non-finite numbers are written the way Rust formats them (`NaN`, `inf`,
//! `-inf`) and [`parse`] accepts exactly those three tokens, so whatever a
//! writer here emits reads back. Nesting is bounded by [`MAX_DEPTH`], so
//! hostile input is an error, never a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted — canonical form — on write; parse
    /// order is not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a bound one line of `[` would
/// overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Not JSON (or not the subset read here); the message names the
    /// offending byte offset where there is one.
    Malformed(String),
    /// The array or object opened at byte `at` nests deeper than
    /// [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the opening bracket.
        at: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Malformed(msg) => f.write_str(msg),
            JsonError::TooDeep { at } => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Malformed(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Malformed(msg.to_string())
    }
}

/// Formats a float the canonical way: integral values get a trailing
/// `.0`-free integer form, everything else uses Rust's shortest
/// round-trippable representation (deterministic for a given bit
/// pattern).
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialises a value canonically: object keys in sorted order, two-space
/// indentation, stable float formatting. Byte-identical output for equal
/// inputs.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&fmt_num(*n)),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\": ");
                write_value(val, indent + 1, out);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// [`JsonError::Malformed`] (with a byte offset) on malformed input,
/// [`JsonError::TooDeep`] past [`MAX_DEPTH`] levels of nesting.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}").into());
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// The number of elements of the array whose body starts `body`, counted
/// before any is parsed so that the array is allocated once, at its
/// size: the non-blank runs between top-level commas up to the closing
/// bracket (or the end of the text), strings and nested brackets
/// skipped. Exact for a well-formed array, and never more than one
/// element per two bytes of body otherwise.
fn count_elements(body: &[u8]) -> usize {
    let (mut depth, mut count, mut filled) = (0usize, 0, false);
    let (mut in_str, mut escaped) = (false, false);
    for &b in body {
        if in_str {
            (in_str, escaped) = (escaped || b != b'"', !escaped && b == b'\\');
            continue;
        }
        match b {
            b']' | b'}' if depth == 0 => break,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                count += usize::from(filled);
                filled = false;
            }
            b if b.is_ascii_whitespace() => {}
            _ => {
                depth += usize::from(matches!(b, b'[' | b'{'));
                in_str = b == b'"';
                filled = true;
            }
        }
    }
    count + usize::from(filled)
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(c, b'{' | b'[') && depth == MAX_DEPTH {
        return Err(JsonError::TooDeep { at: *pos });
    }
    match c {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(text, bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}").into()),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}").into());
                }
                *pos += 1;
                let val = parse_value(text, bytes, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}").into()),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::with_capacity(count_elements(&bytes[*pos..]));
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}").into()),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            loop {
                let Some(&c) = bytes.get(*pos) else {
                    return Err("unterminated string".into());
                };
                match c {
                    b'"' => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    b'\\' => {
                        *pos += 1;
                        let Some(&esc) = bytes.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                let hex = text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                                out.push(char::from_u32(code).ok_or(format!("bad codepoint {code}"))?);
                                *pos += 4;
                            }
                            other => return Err(format!("unknown escape \\{}", other as char).into()),
                        }
                        *pos += 1;
                    }
                    _ => {
                        // Consume a full UTF-8 scalar, not just one byte.
                        let rest = &text[*pos..];
                        let ch = rest.chars().next().ok_or("invalid UTF-8")?;
                        out.push(ch);
                        *pos += ch.len_utf8();
                    }
                }
            }
        }
        b't' if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        b'f' if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        b'n' if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        // The writers' spellings of the non-finite numbers.
        b'N' if text[*pos..].starts_with("NaN") => {
            *pos += 3;
            Ok(Json::Num(f64::NAN))
        }
        b'i' if text[*pos..].starts_with("inf") => {
            *pos += 3;
            Ok(Json::Num(f64::INFINITY))
        }
        b'-' if text[*pos..].starts_with("-inf") => {
            *pos += 4;
            Ok(Json::Num(f64::NEG_INFINITY))
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len() && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            text[start..*pos]
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number at byte {start}").into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_canonical_documents() {
        let mut obj = BTreeMap::new();
        obj.insert("b".to_string(), Json::Num(2.5));
        obj.insert("a".to_string(), Json::Str("x\"y".into()));
        obj.insert(
            "arr".to_string(),
            Json::Arr(vec![Json::Num(1.0), Json::Bool(false), Json::Null]),
        );
        let doc = Json::Obj(obj);
        let text = to_string(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
        // Canonical: serialising the parse is byte-identical.
        assert_eq!(to_string(&parse(&text).unwrap()), text);
    }

    /// Arrays are counted before they are allocated: exactly on
    /// well-formed bodies (strings with brackets, commas and escaped
    /// quotes, nested arrays and objects), and only non-blank runs on
    /// malformed ones.
    #[test]
    fn array_elements_are_counted_before_allocation() {
        for (body, count) in [
            (&b" ]"[..], 0),
            (b"1]", 1),
            (b"1, [2, 3], \"a,]\\\",\", {\"k\": [4, 5]}, null] , 9", 5),
            (b"0,0,0", 3),
            (b",, ,]", 0),
        ] {
            assert_eq!(count_elements(body), count, "{}", String::from_utf8_lossy(body));
        }
        let doc = format!("[{}0]", "0,".repeat(999));
        match parse(&doc).unwrap() {
            Json::Arr(items) => assert_eq!((items.len(), items.capacity()), (1000, 1000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fmt_num_is_stable() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(-0.125), "-0.125");
        assert_eq!(fmt_num(1234567.0), "1234567");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"m": {"k": [1, "two", true]}, "n": -4.5e1}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-45.0));
        let inner = v.get("m").and_then(|m| m.get("k")).unwrap();
        assert_eq!(
            inner,
            &Json::Arr(vec![Json::Num(1.0), Json::Str("two".into()), Json::Bool(true)])
        );
    }

    #[test]
    fn reads_back_the_non_finite_numbers_it_writes() {
        let text = to_string(&Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NEG_INFINITY),
        ]));
        assert_eq!(text, "[\n  NaN,\n  inf,\n  -inf\n]\n");
        let Ok(Json::Arr(back)) = parse(&text) else {
            panic!("{text}")
        };
        let bits: Vec<_> = back.iter().filter_map(Json::as_f64).map(f64::to_bits).collect();
        assert_eq!(
            bits,
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(f64::to_bits)
        );
        // Only the writers' spellings, not Rust's other ones.
        for other in ["nan", "Infinity", "+inf", "-NaN", "infinity", "-in"] {
            assert!(parse(other).is_err(), "{other}");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert_eq!(parse(&deep), Err(JsonError::TooDeep { at: MAX_DEPTH }));
        assert!(matches!(
            parse(&"{\"a\":".repeat(1_000_000)),
            Err(JsonError::TooDeep { .. })
        ));
        // A trace line carrying it is skipped like any malformed line.
        let trace = crate::from_jsonl(&format!(
            "{deep}\n{{\"t\":\"counter\",\"name\":\"ok\",\"value\":1}}"
        ));
        assert_eq!(trace.metrics.len(), 1);
        // The bound is exact: MAX_DEPTH levels parse, one more does not.
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        assert_eq!(
            parse(&format!("[{at_bound}]")),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
    }

    /// Bytes that reach every branch of the parser.
    const ALPHABET: &[u8] = b"{}[]\":,\\/ \n-+.0123456789eEtrufalsnNiIu\xc3\xa9";

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..256)) {
            let text = String::from_utf8_lossy(&raw);
            let _ = parse(&text);
            let _ = crate::from_jsonl(&text);
        }

        #[test]
        fn mutated_documents_never_panic(
            edits in prop::collection::vec((0usize..4096, 0usize..ALPHABET.len()), 1..8),
        ) {
            let mut doc = [
                r#"{"a": [1, -2.5e3, NaN, -inf, inf, "x\"\\\u00e9\t"], "b": {"c": null, "d": [true, {}]}}"#,
                r#"{"t":"hist","name":"h","bounds":[1,2],"buckets":[0,1,2],"sum":NaN}"#,
            ]
            .join("\n")
            .into_bytes();
            assert!(String::from_utf8_lossy(&doc).lines().all(|l| parse(l).is_ok()));
            for &(at, pick) in &edits {
                let at = at % doc.len();
                doc[at] = ALPHABET[pick];
            }
            let text = String::from_utf8_lossy(&doc);
            let _ = parse(&text);
            let _ = crate::from_jsonl(&text);
        }
    }
}
