//! Minimal hand-rolled JSON helpers.
//!
//! The workspace has no serde; every machine-readable artifact is emitted
//! through these few functions so escaping and number formatting stay
//! consistent (and deterministic) across the metrics dump, the JSONL event
//! stream, and the run report. Two parsers are included so tests (and
//! downstream tooling) can round-trip artifacts without a JSON dependency:
//! [`parse_flat_object`] for single JSONL lines (scalar fields only), and
//! [`parse_value`] for arbitrarily nested documents (the lint report
//! schema v2 and SARIF logs consumed by `crates/xtask`'s e2e tests).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats `x` as a JSON number; non-finite values become `null` (JSON has
/// no NaN/Infinity). Integral floats keep a trailing `.0`, or take an
/// exponent from `1e15` on, so the value round-trips as a float: the
/// parser reads a number without fraction or exponent as an `i64`.
pub fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{:.1}", x);
    } else if x == x.trunc() {
        let _ = write!(out, "{x:e}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON integer (no fraction or exponent).
    Int(i64),
    /// A JSON number with a fraction or exponent.
    Float(f64),
    /// A JSON string.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// Renders the value back to JSON source.
    pub fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(x) => push_f64(out, *x),
            JsonValue::Str(s) => push_str_escaped(out, s),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Null => out.push_str("null"),
        }
    }
}

/// Renders a flat object (no nesting) in the given field order.
pub fn render_flat_object(fields: &[(String, JsonValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(&mut out, k);
        out.push(':');
        v.render_into(&mut out);
    }
    out.push('}');
    out
}

/// Parses a single flat JSON object — scalar values only, no nesting.
/// Returns `None` on any syntax error or on nested arrays/objects. Field
/// order is preserved, so `render_flat_object(&parse_flat_object(s)?) == s`
/// for lines this crate emits. The grammar is [`parse_value`]'s.
pub fn parse_flat_object(s: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut p = Parser::new(s);
    let fields = p.object()?;
    p.finish(fields)
}

/// A full JSON value — nesting allowed.
///
/// Objects keep their fields as ordered `(key, value)` pairs: field order
/// is part of what the emitters guarantee, and an ordered Vec keeps this
/// type free of hash-map iteration-order concerns (lint `L7`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A scalar leaf (number, string, bool, null).
    Scalar(JsonValue),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value back to JSON source, without whitespace. A
    /// document [`parse_value`] accepts renders to one it reads back
    /// equal.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Scalar(v) => v.render_into(out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// The value of field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value, if this is an integer scalar.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Scalar(JsonValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The numeric value (integer or float), if this is a number scalar.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Scalar(JsonValue::Int(i)) => Some(*i as f64),
            Json::Scalar(JsonValue::Float(x)) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Scalar(JsonValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool scalar.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Scalar(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// How deeply [`parse_value`] lets arrays and objects nest. The parser,
/// and dropping or diffing the tree it returns, recurse once per level,
/// so the cap bounds their stack; the repository's own documents nest
/// fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (nested objects and arrays allowed,
/// at most 128 levels deep). Returns `None` on any syntax error, deeper
/// nesting or trailing garbage.
///
/// The grammar is RFC 8259's, strictly: whitespace is space, tab, line
/// feed or carriage return; a number has no leading zeros, digits on both
/// sides of its point and in its exponent, and must be finite as an
/// `f64` (an integer, one without fraction or exponent, must fit an
/// `i64`); a `\u` escape takes exactly four hex digits, and a surrogate
/// only as half of a pair; control characters appear in strings only
/// escaped.
pub fn parse_value(s: &str) -> Option<Json> {
    let mut p = Parser::new(s);
    let v = p.json_value()?;
    p.finish(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// `v` when only whitespace follows the cursor.
    fn finish<T>(&mut self, v: T) -> Option<T> {
        self.skip_ws();
        (self.pos == self.bytes.len()).then_some(v)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bump()? == b {
            Some(())
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<Vec<(String, JsonValue)>> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(fields),
                _ => return None,
            }
        }
    }

    fn json_value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' | b'[' if self.depth < MAX_DEPTH => {
                self.depth += 1;
                let v = self.nested();
                self.depth -= 1;
                v
            }
            b'{' | b'[' => None,
            _ => self.value().map(Json::Scalar),
        }
    }

    /// The array or object at the cursor.
    fn nested(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let value = self.json_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b'}' => return Some(Json::Obj(fields)),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.json_value()?);
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b']' => return Some(Json::Arr(items)),
                        _ => return None,
                    }
                }
            }
            _ => None,
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.string()?)),
            b't' => self.literal(b"true", JsonValue::Bool(true)),
            b'f' => self.literal(b"false", JsonValue::Bool(false)),
            b'n' => self.literal(b"null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None, // nested arrays/objects are out of scope
        }
    }

    fn literal(&mut self, lit: &[u8], v: JsonValue) -> Option<JsonValue> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Some(v)
        } else {
            None
        }
    }

    /// Skips ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.bump()? {
            b'0' => {}
            b'1'..=b'9' => {
                self.digits();
            }
            _ => return None,
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return None;
            }
            is_float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return None;
            }
            is_float = true;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if is_float {
            let x: f64 = text.parse().ok()?;
            x.is_finite().then_some(JsonValue::Float(x))
        } else {
            text.parse().ok().map(JsonValue::Int)
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Option<u32> {
        let mut code = 0;
        for _ in 0..4 {
            code = code * 16 + char::from(self.bump()?).to_digit(16)?;
        }
        Some(code)
    }

    fn string(&mut self) -> Option<String> {
        self.skip_ws();
        if self.bump()? != b'"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = self.hex4()?;
                        if (0xD800..0xDC00).contains(&code) {
                            // A high surrogate must pair with a low one.
                            if self.bump()? != b'\\' || self.bump()? != b'u' {
                                return None;
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return None;
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                b if b < 0x20 => return None,
                b => {
                    // Re-decode multi-byte UTF-8 sequences starting here.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start.checked_add(width)?;
                        let chunk = self.bytes.get(start..end)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.pos = end;
                    }
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let mut out = String::new();
        push_str_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn f64_formatting_is_json_safe() {
        let mut out = String::new();
        for x in [2.0, 0.25, f64::NAN, 1e15, -2.5e300, 1e-7] {
            push_f64(&mut out, x);
            out.push(' ');
        }
        assert_eq!(out, "2.0 0.25 null 1e15 -2.5e300 0.0000001 ");
    }

    #[test]
    fn the_grammar_is_strict() {
        // Each of these was once read as a value.
        for text in [r#""\u+041""#, "01", "1.", "1e999"] {
            assert_eq!(parse_value(text), None, "{text}");
        }
        for text in [
            "-",
            "+1",
            ".5",
            "1e",
            "1e+",
            "-01",
            "1.e3",
            "0x10",
            "1e-",
            r#""\u00g1""#,
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            "\"a\u{1}b\"",
            "\u{a0}1",
            "1\u{c}",
            "9223372036854775808",
        ] {
            assert_eq!(parse_value(text), None, "{text:?}");
        }
        let float = |x| Some(Json::Scalar(JsonValue::Float(x)));
        assert_eq!(parse_value("-0"), Some(Json::Scalar(JsonValue::Int(0))));
        assert_eq!(parse_value(" 1E+2\n"), float(100.0));
        assert_eq!(parse_value("1e-999"), float(0.0));
        assert_eq!(parse_value("-0.5e1"), float(-5.0));
        assert_eq!(
            parse_value(r#""\ud83d\ude42\b\f""#),
            Some(Json::Scalar(JsonValue::Str("\u{1f642}\u{8}\u{c}".into())))
        );
    }

    #[test]
    fn flat_object_round_trips() {
        let line = r#"{"slot":3,"type":"receive","receiver":2,"sender":1}"#;
        let fields = parse_flat_object(line).expect("parses");
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0], ("slot".into(), JsonValue::Int(3)));
        assert_eq!(render_flat_object(&fields), line);
    }

    #[test]
    fn parser_handles_strings_bools_floats_and_unicode() {
        let line = r#"{"name":"a\"béé","ok":true,"x":-1.5,"none":null}"#;
        let fields = parse_flat_object(line).expect("parses");
        assert_eq!(fields[0].1, JsonValue::Str("a\"béé".into()));
        assert_eq!(fields[1].1, JsonValue::Bool(true));
        assert_eq!(fields[2].1, JsonValue::Float(-1.5));
        assert_eq!(fields[3].1, JsonValue::Null);
    }

    #[test]
    fn parser_rejects_nesting_and_trailing_garbage() {
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_none());
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_none());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_none());
        assert!(parse_flat_object(r#"{"a":1"#).is_none());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat_object("{}"), Some(vec![]));
    }

    #[test]
    fn nested_parser_walks_objects_and_arrays() {
        let doc = r#"{"version":2,"summary":{"reported":1},
                      "violations":[{"lint":"L8","line":7,"col":13}],
                      "ratchet":{"checked":true,"regressions":[]}}"#;
        let v = parse_value(doc).expect("parses");
        assert_eq!(v.get("version").and_then(Json::as_i64), Some(2));
        assert_eq!(
            v.get("summary")
                .and_then(|s| s.get("reported"))
                .and_then(Json::as_i64),
            Some(1)
        );
        let viol = &v.get("violations").and_then(Json::as_array).expect("array")[0];
        assert_eq!(viol.get("lint").and_then(Json::as_str), Some("L8"));
        assert_eq!(viol.get("col").and_then(Json::as_i64), Some(13));
        let ratchet = v.get("ratchet").expect("ratchet");
        assert_eq!(ratchet.get("checked").and_then(Json::as_bool), Some(true));
        assert_eq!(
            ratchet
                .get("regressions")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn nested_parser_rejects_malformed_documents() {
        assert!(parse_value(r#"{"a":[1,2}"#).is_none());
        assert!(parse_value(r#"[1,2],"#).is_none());
        assert!(parse_value(r#"{"a":}"#).is_none());
        assert_eq!(parse_value("[]"), Some(Json::Arr(vec![])));
        assert_eq!(
            parse_value("[[]]"),
            Some(Json::Arr(vec![Json::Arr(vec![])]))
        );
    }

    #[test]
    fn nesting_is_capped_so_deep_documents_are_rejected_not_overflowed() {
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        // 100 000 levels would overflow the stack of a recursive parser.
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert_eq!(parse_value(&nest(100_000, open, close)), None, "{open}");
            assert_eq!(
                parse_value(&nest(MAX_DEPTH + 1, open, close)),
                None,
                "{open}"
            );
            assert!(
                parse_value(&nest(MAX_DEPTH, open, close)).is_some(),
                "{open}"
            );
        }
        // Unclosed nesting past the cap is rejected at the cap too.
        assert_eq!(parse_value(&"[".repeat(100_000)), None);
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse_value(r#"{"a":1}"#).expect("parses");
        assert!(v.get("missing").is_none());
        assert!(v.as_array().is_none());
        assert!(v.get("a").expect("field").as_str().is_none());
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(1));
    }
}
