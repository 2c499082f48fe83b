//! A minimal JSON value model and recursive-descent parser.
//!
//! The workspace builds hermetically against vendored dependency stubs and
//! has no serialization framework. All telemetry output is therefore
//! *hand-serialized* (fixed key order, deterministic formatting), and this
//! module supplies the other half: enough of a parser to validate JSONL
//! event streams, round-trip the schema in tests, and drive `cellflow
//! inspect` — without any dependency.
//!
//! Numbers keep their integer-ness: integers parse to [`Json::Int`] (full
//! `i64`/`u64` range via [`Json::as_u64`]) and anything with a fraction or
//! exponent to [`Json::Float`], so round IDs and entity IDs survive
//! round-trips exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so an unbounded depth would let a
/// hostile input overflow the stack; telemetry documents nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no fraction or exponent in the source). Stored as `i128`
    /// so the full `u64` and `i64` ranges both fit.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`), which makes comparisons and
    /// re-rendering deterministic; telemetry writers emit fixed key orders
    /// on their own.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
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

    /// The object's field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON (sorted object keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (k, (key, value)) in map.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub fn escape_into(s: &str, out: &mut String) {
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

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::new();
    escape_into(s, &mut out);
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are left as replacement chars; the
                            // telemetry writers never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so this is
                    // always aligned).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "bad utf-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Ok(Json::Bool(false)));
        assert_eq!(Json::parse("42"), Ok(Json::Int(42)));
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("1.5"), Ok(Json::Float(1.5)));
        assert_eq!(Json::parse("1e3"), Ok(Json::Float(1000.0)));
        assert_eq!(Json::parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x"}],"c":null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn integers_keep_full_u64_range() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_i64(), None, "out of i64 range");
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\nquote\"back\\slash\ttab\u{1}done";
        let rendered = escape(original);
        match Json::parse(&rendered).unwrap() {
            Json::Str(s) => assert_eq!(s, original),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(
            Json::parse("\"héllo→\"").unwrap(),
            Json::Str("héllo→".into())
        );
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{"kind":"transfer","entity":3,"from":[1,2],"to":[1,3],"ok":true,"x":1.5}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()), Ok(v));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\"1}",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[,]",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(1_000_000);
        let err = Json::parse(&arrays).unwrap_err();
        assert!(
            err.contains("nesting deeper than 128 levels at byte 128"),
            "{err}"
        );
        let objects = "{\"a\":".repeat(1_000_000);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        // Exactly the limit still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let over = format!("[{deepest}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(Json::parse("[]"), Ok(Json::Arr(vec![])));
        assert_eq!(Json::parse("{}"), Ok(Json::Obj(BTreeMap::new())));
        assert_eq!(Json::parse("[ ]").unwrap().render(), "[]");
    }
}
