//! The workspace's one JSON tree: a deterministic renderer and a
//! strict, linear-time, depth-bounded parser.
//!
//! Byte-determinism is the acceptance bar for every artifact, model
//! and wire body, so rendering follows fixed rules: two-space pretty
//! printing, object keys in push order, and the one float rule
//! ([`push_f64`]). `obs` sits below every other crate, so models,
//! `/score` bodies, artifacts and the run trace all share this tree.
//!
//! The parser reads untrusted network input (`/score`, `/reload`): it
//! runs in time linear in the input and rejects nesting deeper than
//! [`MAX_DEPTH`] instead of recursing without bound.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

/// Deepest container nesting [`parse`] accepts. The deepest committed
/// JSON nests 7 levels and a `/score` body 3; anything past this
/// limit is rejected instead of recursing toward a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonV {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (renders without a decimal point).
    UInt(u64),
    /// A signed integer (renders without a decimal point). Render-only:
    /// [`parse`] maps every number to [`JsonV::UInt`] or
    /// [`JsonV::Float`].
    Int(i64),
    /// A float (renders with at least one decimal; non-finite → null).
    Float(f64),
    /// A string (escaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonV>),
    /// An object; keys render in push order.
    Obj(Vec<(String, JsonV)>),
}

impl JsonV {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonV)>) -> JsonV {
        JsonV::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders as pretty-printed JSON (two-space indent) with a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders as single-line compact JSON (no spaces, no trailing
    /// newline) — the JSONL form. Value rendering (float rule, string
    /// escapes) matches [`JsonV::render`] exactly.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonV::Null => out.push_str("null"),
            JsonV::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonV::UInt(v) => out.push_str(&v.to_string()),
            JsonV::Int(v) => out.push_str(&v.to_string()),
            JsonV::Float(v) => push_f64(out, *v),
            JsonV::Str(s) => push_escaped(out, s),
            JsonV::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonV::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&JsonV> {
        match self {
            JsonV::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonV::Null => out.push_str("null"),
            JsonV::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonV::UInt(v) => out.push_str(&v.to_string()),
            JsonV::Int(v) => out.push_str(&v.to_string()),
            JsonV::Float(v) => push_f64(out, *v),
            JsonV::Str(s) => push_escaped(out, s),
            JsonV::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonV::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    push_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// The one float rule: integral finite values keep a `.0` so they
/// read as floats downstream, everything else prints Rust's
/// shortest-roundtrip form, and non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    // Writing to a `String` cannot fail.
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// Parses JSON text into a [`JsonV`] tree. Object key order is
/// preserved. Numbers without `.`/`e` and without a sign parse as
/// [`JsonV::UInt`]; everything else numeric parses as [`JsonV::Float`].
/// Containers nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse(text: &str) -> Result<JsonV, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// The text between two byte offsets that sit on ASCII delimiters,
    /// so always on character boundaries.
    fn slice(&self, start: usize, end: usize) -> Result<&str, String> {
        self.text
            .get(start..end)
            .ok_or_else(|| format!("bytes {start}..{end} split a UTF-8 character"))
    }

    fn literal(&mut self, word: &str, value: JsonV) -> Result<JsonV, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonV, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonV::Null),
            Some(b't') => self.literal("true", JsonV::Bool(true)),
            Some(b'f') => self.literal("false", JsonV::Bool(false)),
            Some(b'"') => Ok(JsonV::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one container one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonV, String>,
    ) -> Result<JsonV, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    /// Copies each run of unescaped bytes as one slice, so a string
    /// costs time linear in its length.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(self.slice(start, self.pos)?);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes one backslash escape at `pos` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                    16,
                )
                .map_err(|_| "bad \\u escape")?;
                out.push(char::from_u32(code).ok_or_else(|| "surrogate \\u escape".to_string())?);
                self.pos += 4;
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        self.pos += 1;
        Ok(())
    }

    fn number(&mut self) -> Result<JsonV, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = self.slice(start, self.pos)?;
        if !text.contains(['.', 'e', 'E', '-']) {
            text.parse::<u64>()
                .map(JsonV::UInt)
                .map_err(|e| format!("bad integer {text}: {e}"))
        } else {
            text.parse::<f64>()
                .map(JsonV::Float)
                .map_err(|e| format!("bad number {text}: {e}"))
        }
    }

    fn array(&mut self) -> Result<JsonV, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonV::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonV::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonV, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonV::Obj(fields));
        }
        loop {
            self.skip_ws();
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
                    return Ok(JsonV::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_survdb_json() {
        let v = JsonV::obj(vec![
            ("name", JsonV::Str("x".into())),
            ("points", JsonV::Arr(vec![JsonV::UInt(1), JsonV::UInt(2)])),
            ("empty", JsonV::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"name\": \"x\",\n  \"points\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}\n"
        );
        let mut f = String::new();
        push_f64(&mut f, 17.0);
        assert_eq!(f, "17.0");
    }

    #[test]
    fn floats_render_like_their_format_strings() {
        // (value, rendering where a literal pins it)
        let cases = [
            (0.0, Some("0.0")),
            (-0.0, Some("-0.0")),
            (17.0, Some("17.0")),
            (-3.0, Some("-3.0")),
            (1e15 - 1.0, Some("999999999999999.0")),
            (1e15, Some("1000000000000000")),
            (-1e15, Some("-1000000000000000")),
            (0.1, Some("0.1")),
            (f64::MIN_POSITIVE / 2.0, None),
            (f64::from_bits(1), None),
            (f64::MAX, None),
            (f64::MIN, None),
            (f64::NAN, Some("null")),
            (f64::INFINITY, Some("null")),
            (f64::NEG_INFINITY, Some("null")),
        ];
        for (v, pinned) in cases {
            // The prefix checks that the rendering is appended.
            let mut got = String::from("[");
            push_f64(&mut got, v);
            let want = if !v.is_finite() {
                "null".to_string()
            } else if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            };
            assert_eq!(got[1..], want, "{v:e}");
            if let Some(pinned) = pinned {
                assert_eq!(got[1..], *pinned, "{v:e}");
            }
        }
    }

    #[test]
    fn compact_rendering_matches_pretty_values() {
        let v = JsonV::obj(vec![
            ("name", JsonV::Str("x y".into())),
            (
                "points",
                JsonV::Arr(vec![JsonV::UInt(1), JsonV::Float(2.5)]),
            ),
            ("empty", JsonV::Obj(vec![])),
            ("flag", JsonV::Bool(false)),
        ]);
        assert_eq!(
            v.render_compact(),
            "{\"name\":\"x y\",\"points\":[1,2.5],\"empty\":{},\"flag\":false}"
        );
        // Compact output reparses to the same tree as pretty output.
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn parse_roundtrips_render() {
        let v = JsonV::obj(vec![
            ("a", JsonV::UInt(7)),
            ("b", JsonV::Float(0.125)),
            ("c", JsonV::Str("two\nlines \"quoted\"".into())),
            (
                "d",
                JsonV::Arr(vec![JsonV::Null, JsonV::Bool(true), JsonV::Obj(vec![])]),
            ),
        ]);
        let text = v.render();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_distinguishes_uint_and_float() {
        assert_eq!(parse("42").unwrap(), JsonV::UInt(42));
        assert_eq!(parse("42.0").unwrap(), JsonV::Float(42.0));
        assert_eq!(parse("-1").unwrap(), JsonV::Float(-1.0));
        assert_eq!(parse("1e3").unwrap(), JsonV::Float(1000.0));
    }

    #[test]
    fn signed_integers_render_but_parse_as_floats() {
        assert_eq!(JsonV::Int(-3).render(), "-3\n");
        assert_eq!(JsonV::Int(-3).render_compact(), "-3");
        assert_eq!(parse("-3").unwrap(), JsonV::Float(-3.0));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let run = "x".repeat(2 << 20);
        let text = format!("\"{run}\\\"\u{e9}{run}\"");
        let start = std::time::Instant::now();
        let parsed = parse(&text).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(parsed, JsonV::Str(format!("{run}\"\u{e9}{run}")));
        assert!(elapsed.as_secs_f64() < 2.0, "4 MiB string took {elapsed:?}");
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |depth: usize| format!("{}0{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nest(MAX_DEPTH)).is_ok(), "depth {MAX_DEPTH} {open}");
            let err = parse(&nest(MAX_DEPTH + 1)).expect_err("too deep");
            assert!(err.contains("nesting"), "{err}");
        }
        // Far past the limit the parser still returns instead of
        // overflowing the stack.
        assert!(parse(&format!("{{\"rows\":{}", "[".repeat(100_000))).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
