//! A minimal JSON value, emitter, and parser.
//!
//! The hermetic offline build rules out `serde`, and the bench layer
//! only needs enough JSON for its report files (`BENCH_stabilizer.json`,
//! `results/kat_stabilizer.json`): objects, arrays, strings, finite
//! numbers, booleans and null, with deterministic emission (object keys
//! keep insertion order) so byte-level diffs of regenerated reports are
//! meaningful. [`write_report`] is the one way a `BENCH_*.json` report
//! reaches the disk.
//!
//! # Example
//!
//! ```
//! use qpdo_bench::json::Json;
//!
//! let doc = Json::object([
//!     ("schema", Json::from("demo-v1")),
//!     ("values", Json::array([Json::from(1.0), Json::from(2.5)])),
//! ]);
//! let text = doc.pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("schema").and_then(Json::as_str), Some("demo-v1"));
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (emitted via `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical on-disk form of the repo's report files.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number. Documents built from runtime
    /// measurements should use [`try_pretty`](Json::try_pretty), which
    /// turns that case into an error instead.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Checked emission: validates every number in the tree is finite
    /// before printing, so a NaN median can never reach a report file.
    ///
    /// # Errors
    ///
    /// Returns the JSON path of the first non-finite number
    /// (e.g. `` `kernels[3].median_ns` is not finite (NaN)``).
    pub fn try_pretty(&self) -> Result<String, String> {
        self.validate_finite()?;
        Ok(self.pretty())
    }

    /// Walks the tree and reports the first non-finite number by path.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending path and value.
    pub fn validate_finite(&self) -> Result<(), String> {
        self.validate_finite_at("$")
    }

    fn validate_finite_at(&self, path: &str) -> Result<(), String> {
        match self {
            Json::Num(v) if !v.is_finite() => Err(format!("`{path}` is not finite ({v})")),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, item)| item.validate_finite_at(&format!("{path}[{i}]"))),
            Json::Obj(pairs) => pairs
                .iter()
                .try_for_each(|(key, value)| value.validate_finite_at(&format!("{path}.{key}"))),
            _ => Ok(()),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input (including
    /// trailing garbage after the document).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                message: "trailing characters after document",
            });
        }
        Ok(value)
    }
}

/// Writes report `doc` to `dir/name` and returns the path: `validate`
/// must accept the document, every number must be finite (checked
/// emission, so a NaN median or a zero-divisor ratio aborts here), and
/// the bytes re-read from disk must parse and validate again, so a gate
/// checks what later readers will parse. Nothing is written unless the
/// first two checks pass.
///
/// # Errors
///
/// Returns a message naming the failed check or I/O step.
pub fn write_report(
    doc: &Json,
    dir: &Path,
    name: &str,
    validate: impl Fn(&Json) -> Result<(), String>,
) -> Result<PathBuf, String> {
    validate(doc).map_err(|err| format!("generated report fails its own schema: {err}"))?;
    let text = doc
        .try_pretty()
        .map_err(|err| format!("generated report is not emittable: {err}"))?;
    std::fs::create_dir_all(dir)
        .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| validate(&doc))
        .map_err(|err| format!("{} fails validation: {err}", path.display()))?;
    Ok(path)
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
    if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// A parse failure: byte offset plus a static description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, message: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError {
            offset: *pos,
            message,
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(ParseError {
            offset: *pos,
            message: "expected a JSON value",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            offset: *pos,
            message: "malformed literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(Json::Num)
        .ok_or(ParseError {
            offset: start,
            message: "malformed number",
        })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ParseError {
                offset: *pos,
                message: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or(ParseError {
                    offset: *pos,
                    message: "unterminated escape",
                })?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError {
                                offset: *pos,
                                message: "malformed \\u escape",
                            })?;
                        // Surrogates are not needed by our reports;
                        // reject rather than mis-decode.
                        let c = char::from_u32(code).ok_or(ParseError {
                            offset: *pos,
                            message: "\\u escape is not a scalar value",
                        })?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| ParseError {
                    offset: *pos,
                    message: "invalid UTF-8 in string",
                })?;
                let c = rest.chars().next().expect("non-empty by loop guard");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[', "expected array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or ']' in array",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{', "expected object")?;
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
        expect(bytes, pos, b':', "expected ':' after object key")?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or '}' in object",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shape() {
        let doc = Json::object([
            ("schema", Json::from("qpdo-bench-stabilizer-v1")),
            ("seed", Json::from(2016u64)),
            (
                "kernels",
                Json::array([Json::object([
                    ("name", Json::from("rowsum_packed_n17")),
                    ("median_ns", Json::from(123.456)),
                    ("samples", Json::from(25usize)),
                ])]),
            ),
            ("smoke", Json::from(false)),
            ("note", Json::Null),
        ]);
        let text = doc.pretty();
        assert!(text.ends_with('\n'));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("kernels").unwrap().as_array().unwrap()[0]
                .get("median_ns")
                .unwrap()
                .as_f64(),
            Some(123.456)
        );
    }

    #[test]
    fn emission_is_deterministic_and_ordered() {
        let doc = Json::object([("b", Json::from(1u64)), ("a", Json::from(2u64))]);
        let text = doc.pretty();
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert_eq!(text, Json::parse(&text).unwrap().pretty());
    }

    #[test]
    fn integers_emit_without_fraction() {
        let mut out = String::new();
        write_number(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        write_number(&mut out, 0.5);
        assert_eq!(out, "0.5");
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Json::from("line\nquote\" backslash\\ tab\t");
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn try_pretty_rejects_non_finite_numbers_by_path() {
        let doc = Json::object([(
            "kernels",
            Json::array([
                Json::object([("median_ns", Json::from(1.5))]),
                Json::object([("median_ns", Json::from(f64::NAN))]),
            ]),
        )]);
        let err = doc.try_pretty().unwrap_err();
        assert!(
            err.contains("$.kernels[1].median_ns"),
            "error names the offending path: {err}"
        );
        assert_eq!(
            Json::from(f64::INFINITY).validate_finite().unwrap_err(),
            "`$` is not finite (inf)"
        );
    }

    #[test]
    fn try_pretty_accepts_finite_reports() {
        let doc = Json::object([
            ("schema", Json::from("demo-v1")),
            ("values", Json::array([Json::from(1.0), Json::from(2.5)])),
        ]);
        assert_eq!(doc.try_pretty().unwrap(), doc.pretty());
    }

    #[test]
    fn write_report_writes_nothing_that_fails_its_checks() {
        let dir = std::env::temp_dir().join(format!("qpdo-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let needs_seed = |doc: &Json| {
            doc.get("seed")
                .map(|_| ())
                .ok_or_else(|| "missing seed".to_owned())
        };
        let err = write_report(
            &Json::object([("x", Json::Null)]),
            &dir,
            "a.json",
            needs_seed,
        )
        .unwrap_err();
        assert!(err.contains("missing seed"), "{err}");
        let nan = Json::object([("seed", Json::from(f64::NAN))]);
        let err = write_report(&nan, &dir, "b.json", needs_seed).unwrap_err();
        assert!(err.contains("$.seed"), "{err}");
        assert!(!dir.exists(), "a rejected report left {}", dir.display());

        let doc = Json::object([("seed", Json::from(7u64))]);
        let path = write_report(&doc, &dir, "c.json", needs_seed).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.pretty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
