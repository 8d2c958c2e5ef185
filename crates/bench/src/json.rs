//! A minimal JSON value, writer and parser, so every harness can emit —
//! and report generators can read back — machine-readable results
//! without an external serialization crate.

use midway_stats::TextTable;

/// A JSON value built by the harnesses.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted without a decimal point).
    U64(u64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A [`TextTable`] as `{"headers": [...], "rows": [[...], ...]}` —
    /// the uniform machine-readable form of what a harness prints.
    pub fn table(t: &TextTable) -> Json {
        Json::obj([
            ("headers", Json::arr(t.headers().iter().map(Json::str))),
            (
                "rows",
                Json::arr(t.data_rows().map(|r| Json::arr(r.iter().map(Json::str)))),
            ),
        ])
    }

    /// Parses a JSON document — the inverse of [`Json::render`], strict
    /// enough for the harnesses' own output (no comments, no trailing
    /// commas). Numbers parse as [`Json::U64`] when they are unsigned
    /// integers and [`Json::F64`] otherwise, matching what the writer
    /// emits.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements; empty for non-arrays.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired: the writer never
                            // emits them (it escapes only control chars).
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid; find the char boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8"));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = Json::obj([
            ("name", Json::str("fig3")),
            ("points", Json::arr([Json::U64(122), Json::U64(1200)])),
            ("ratio", Json::F64(2.5)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
        ]);
        let s = j.render();
        assert!(s.contains("\"name\": \"fig3\""));
        assert!(s.contains("\"points\": [\n    122,\n    1200\n  ]"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings_and_nan() {
        let j = Json::arr([Json::str("a\"b\nc"), Json::F64(f64::NAN)]);
        let s = j.render();
        assert!(s.contains("\"a\\\"b\\nc\""));
        assert!(s.contains("null"));
    }

    #[test]
    fn parse_inverts_render() {
        let j = Json::obj([
            ("name", Json::str("scale_sweep")),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            ("ratio", Json::F64(2.5)),
            (
                "cells",
                Json::arr([Json::obj([
                    ("procs", Json::U64(64)),
                    ("sim_secs", Json::F64(22.116)),
                    ("label", Json::str("a\"b\nc")),
                ])]),
            ),
        ]);
        let back = Json::parse(&j.render()).expect("round-trip");
        assert_eq!(back, j);
    }

    #[test]
    fn parse_reads_foreign_formatting_and_rejects_junk() {
        let v = Json::parse("  {\"a\":[1,2.0e1,-3.5],\"b\":\"\\u0041\"} ").expect("parses");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("A"));
        assert_eq!(v.get("a").unwrap().items()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().items()[1].as_f64(), Some(20.0));
        assert_eq!(v.get("a").unwrap().items()[2].as_f64(), Some(-3.5));

        for bad in ["{", "[1,]", "{\"a\" 1}", "nul", "\"open", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn committed_svc_results_round_trip_and_trailing_garbage_is_rejected() {
        // The sweep writer's real output is the parser's contract: the
        // committed BENCH_svc.json must parse, re-render byte-identically
        // (parse ∘ render = id on writer output), and carry the swept
        // grid; the same document with trailing garbage must not parse.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_svc.json");
        let text = std::fs::read_to_string(path).expect("BENCH_svc.json is committed");
        let doc = Json::parse(&text).expect("committed results parse");
        assert_eq!(doc.render(), text, "render is parse's inverse");
        assert_eq!(doc.get("harness").and_then(Json::as_str), Some("svc_sweep"));
        assert!(!doc.get("cells").unwrap().items().is_empty());

        for junk in ["{}", " null", "]"] {
            let bad = format!("{text}{junk}");
            let err = Json::parse(&bad).expect_err("trailing garbage must fail");
            assert!(err.contains("trailing"), "wrong error: {err}");
        }
    }

    #[test]
    fn accessors_are_total() {
        let v = Json::parse("{\"n\": 3}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("missing"), None);
        assert!(v.items().is_empty(), "objects have no array items");
        assert_eq!(v.as_str(), None);
        assert_eq!(v.as_bool(), None);
    }

    #[test]
    fn tables_become_headers_and_rows() {
        let mut t = TextTable::new(&["App", "RT"]);
        t.row(&["water", "15.6"]);
        t.separator();
        t.row(&["sor", "8.2"]);
        let s = Json::table(&t).render();
        assert!(s.contains("\"headers\""));
        assert!(s.matches('[').count() >= 3, "two rows plus headers: {s}");
        assert!(!s.contains("[]"), "separators are skipped, not emitted");
    }
}
