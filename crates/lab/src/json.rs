//! A small, dependency-free JSON document model with a deterministic writer
//! and a recursive-descent parser.
//!
//! The build environment has no crates.io access, so `serde` is not an
//! option; the experiment engine only needs a fraction of it anyway. Object
//! members keep their insertion order, floats are printed with Rust's
//! shortest-round-trip [`std::fmt::Display`], and the writer is fully
//! deterministic — the byte-identical-results guarantee of the parallel
//! runner rests on it.

/// A JSON value.
///
/// Equality compares numbers by value, as JSON does: `Int(1) == Float(1.0)`,
/// because the writer prints an integral float without a fraction and the
/// parser reads it back as an `Int`. So `Value::parse(&v.to_pretty()) == v`
/// for every value with finite floats.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// A floating-point number. Non-finite values are written as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members keep insertion order (no sorting, no dedup).
    Object(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
                // Integral and inside `i64`: from -2^63 up to, not including, 2^63.
                const BOUND: f64 = 9_223_372_036_854_775_808.0;
                f.fract() == 0.0 && (-BOUND..BOUND).contains(f) && *f as i64 == *i
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn object(members: Vec<(&str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact single-line string.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize to a pretty-printed string (two-space indent, trailing
    /// newline) — the on-disk `BENCH_*.json` format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(f) if !f.is_finite() => out.push_str("null"),
            // From 2^53 on, the shortest digits of a float need not be its
            // integer value (-2.734916936312633e16 would print as ...330,
            // not ...328), so it keeps an exponent and reparses as a float.
            Value::Float(f) if f.abs() >= 9_007_199_254_740_992.0 => {
                out.push_str(&format!("{f:e}"))
            }
            // Shortest-round-trip formatting; "2" (no dot) is legal JSON and
            // reparses as an `Int` equal to this float.
            Value::Float(f) => out.push_str(&f.to_string()),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_sequence(out, indent, depth, items.is_empty(), '[', ']', |out, nl| {
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                            nl(out);
                        }
                        item.write(out, indent, depth + 1);
                    }
                });
            }
            Value::Object(members) => {
                write_sequence(out, indent, depth, members.is_empty(), '{', '}', |out, nl| {
                    for (i, (key, value)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                            nl(out);
                        }
                        write_escaped(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        value.write(out, indent, depth + 1);
                    }
                });
            }
        }
    }

    /// Parse a JSON document. The whole input must be consumed (apart from
    /// trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed input.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Write the opening/closing brackets and per-element newlines of an array or
/// object, delegating the element list to `body`.
fn write_sequence(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String, &dyn Fn(&mut String)),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    let newline = |out: &mut String| {
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
    };
    newline(out);
    body(out, &newline);
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// How deeply arrays and objects may nest (serde_json's default limit).
/// The parser recurses once per level, so an unbounded depth lets a
/// hostile document overflow the stack; the documents this crate writes
/// nest fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            // Surrogate pairs are not needed for our own
                            // output; lone surrogates become U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {start}",
                                other.map(|b| b as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>().map(Value::Int).map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_is_deterministic_and_parseable() {
        let doc = Value::object(vec![
            ("name", Value::Str("figure5".into())),
            ("fast", Value::Bool(false)),
            ("scale", Value::Int(1)),
            ("speedup", Value::Float(1.5)),
            ("missing", Value::Null),
            (
                "cells",
                Value::Array(vec![Value::object(vec![
                    ("cycles", Value::Int(1234)),
                    ("ipc", Value::Float(2.0)),
                ])]),
            ),
        ]);
        let text = doc.to_pretty();
        assert_eq!(text, doc.to_pretty(), "writer is deterministic");
        let reparsed = Value::parse(&text).expect("own output parses");
        assert_eq!(reparsed.get("name").and_then(Value::as_str), Some("figure5"));
        assert_eq!(reparsed.get("scale").and_then(Value::as_i64), Some(1));
        assert_eq!(reparsed.get("speedup").and_then(Value::as_f64), Some(1.5));
        // 2.0 prints as "2" and reparses as an Int equal to it.
        let cells = reparsed.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells[0].get("ipc"), Some(&Value::Int(2)));
        assert_eq!(cells[0].get("ipc").and_then(Value::as_f64), Some(2.0));
        assert_eq!(reparsed.get("missing"), Some(&Value::Null));
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn numbers_compare_by_value() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Float(-0.0), Value::Int(0));
        assert_ne!(Value::Int(1), Value::Float(1.5));
        assert_ne!(Value::Int(3), Value::Int(4));
        // Ints stay exact where floats cannot: 2^53 + 1 has no f64.
        assert_ne!(Value::Int((1 << 53) + 1), Value::Int(1 << 53));
        assert_ne!(Value::Int((1 << 53) + 1), Value::Float((1u64 << 53) as f64));
        // 2^63 is out of `i64` range; it must not saturate onto i64::MAX.
        assert_ne!(Value::Int(i64::MAX), Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-9_223_372_036_854_775_808.0));
        assert_ne!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Int(0), Value::Null);
        assert_ne!(Value::Int(1), Value::Bool(true));
    }

    #[test]
    fn a_float_from_2_to_the_53_on_keeps_an_exponent() {
        assert_eq!(Value::Float(-2.734916936312633e16).to_compact(), "-2.734916936312633e16");
        assert_eq!(Value::Float(1e20).to_compact(), "1e20");
        assert_eq!(Value::Float(9_007_199_254_740_991.0).to_compact(), "9007199254740991");
        for f in [-2.734916936312633e16, 1e20, 9_007_199_254_740_992.0, -1e300] {
            assert_eq!(Value::parse(&Value::Float(f).to_compact()), Ok(Value::Float(f)));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" backslash \\ newline \n tab \t control \u{1} unicode é";
        let doc = Value::Str(original.to_string());
        let reparsed = Value::parse(&doc.to_compact()).unwrap();
        assert_eq!(reparsed.as_str(), Some(original));
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = Value::parse(r#"{"a": [1, -2, 3.5, 1e3], "b": {"c": true}, "d": "x"}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("c").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1, 2,]").is_err(), "trailing comma");
        assert!(Value::parse("{\"a\": 1} extra").is_err(), "trailing data");
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        // Far past any stack: rejected at the limit, never recursed into.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Value::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#] {
            assert!(Value::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_compact(), "null");
    }

    /// One step of a stack machine that builds a document: push a leaf, or
    /// fold the top `n` stack entries into an array or an object.
    fn build(steps: &[(u8, u64, i64)]) -> Value {
        let mut stack: Vec<Value> = Vec::new();
        for &(op, bits, n) in steps {
            let fold = |stack: &mut Vec<Value>| {
                let take = (n.unsigned_abs() as usize % 4).min(stack.len());
                stack.split_off(stack.len() - take)
            };
            let value = match op {
                0 => Value::Null,
                1 => Value::Bool(bits & 1 == 1),
                2 => Value::Int(n),
                // Every finite bit pattern, subnormals included.
                3 => Value::Float(
                    Some(f64::from_bits(bits)).filter(|f| f.is_finite()).unwrap_or(0.5),
                ),
                // Integral floats, the values the writer prints without a
                // fraction, up to and past the `i64` range.
                4 => {
                    Value::Float((n >> (bits % 64)) as f64 * if bits & 1 == 1 { 1e3 } else { 1.0 })
                }
                // ASCII (quotes, backslashes, control characters) and wider
                // scalars, including some beyond the BMP.
                5 => Value::Str(
                    bits.to_le_bytes()
                        .iter()
                        .filter_map(|&b| {
                            char::from_u32(if b < 128 { b.into() } else { u32::from(b) * 300 })
                        })
                        .collect(),
                ),
                6 => Value::Array(fold(&mut stack)),
                _ => Value::Object(
                    fold(&mut stack)
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| (format!("k{}", i % 2), v))
                        .collect(),
                ),
            };
            stack.push(value);
        }
        Value::Array(stack)
    }

    proptest! {
        #![proptest_config(Config::with_cases(256))]

        #[test]
        fn every_document_with_finite_floats_survives_its_own_text(
            steps in prop::collection::vec((0u8..8, any::<u64>(), any::<i64>()), 0..48),
        ) {
            let doc = build(&steps);
            prop_assert_eq!(Value::parse(&doc.to_pretty()), Ok(doc.clone()));
            prop_assert_eq!(Value::parse(&doc.to_compact()), Ok(doc));
        }
    }
}
