//! Minimal JSON value model, parser, and pretty printer.
//!
//! The workspace builds offline without `serde_json`; this module covers
//! the subset the deployment-spec and report paths need: full JSON
//! parsing into a [`Value`] tree, indexed access (`v[0]["name"]`), typed
//! accessors, and pretty serialization.

use std::fmt;
use std::ops::Index;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// Deepest array/object nesting the parser accepts. Parsing recurses once
/// per level, so an unbounded depth lets a hostile document overflow the
/// stack; no spec or report comes near this.
pub const MAX_DEPTH: u32 = 128;

impl Value {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        Spanned::parse(text).map(Spanned::into_value)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (rejects non-integral numbers and negatives).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // Integrality test: fract() of an integral f64 is exactly 0.
            // covenant: allow(float-eq)
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&format_number(*n)),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
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
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty())
    }
}

/// A JSON value annotated with the 1-based line and column of its first
/// character, so diagnostics can point back into the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// 1-based source line of the value's first character.
    pub line: u32,
    /// 1-based byte column within that line.
    pub col: u32,
    /// The value itself.
    pub node: Node,
}

/// The value alternatives of a [`Spanned`] tree; mirrors [`Value`] with
/// positioned children.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array of positioned values.
    Arr(Vec<Spanned>),
    /// An object; insertion order is preserved, values positioned.
    Obj(Vec<(String, Spanned)>),
}

impl Spanned {
    /// Parses a JSON document, recording the position of every value.
    pub fn parse(text: &str) -> Result<Spanned, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            scanned: 0,
            line: 1,
            line_start: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        match &self.node {
            Node::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` for non-arrays or out-of-range indices.
    pub fn item(&self, i: usize) -> Option<&Spanned> {
        match &self.node {
            Node::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The value's source position as a `(line, col)` pair.
    pub fn pos(&self) -> (u32, u32) {
        (self.line, self.col)
    }

    /// Strips positions, yielding the plain [`Value`] tree.
    pub fn into_value(self) -> Value {
        match self.node {
            Node::Null => Value::Null,
            Node::Bool(b) => Value::Bool(b),
            Node::Num(n) => Value::Num(n),
            Node::Str(s) => Value::Str(s),
            Node::Arr(items) => {
                Value::Arr(items.into_iter().map(Spanned::into_value).collect())
            }
            Node::Obj(fields) => {
                Value::Obj(fields.into_iter().map(|(k, v)| (k, v.into_value())).collect())
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Inf/NaN; clamp like serde_json's lossy modes do not —
        // emit null so the output stays parseable.
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{:.1}", n)
    } else {
        format!("{}", n)
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse (or shape) error.
#[derive(Debug, Clone)]
pub struct JsonError {
    msg: String,
    /// 1-based (line, column) of the error, when raised by the parser.
    pos: Option<(u32, u32)>,
}

impl JsonError {
    /// A shape/validation error not tied to a source position.
    pub fn msg<S: Into<String>>(msg: S) -> Self {
        JsonError { msg: msg.into(), pos: None }
    }

    /// The error's 1-based `(line, col)` source position, when known.
    pub fn position(&self) -> Option<(u32, u32)> {
        self.pos
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some((l, c)) => write!(f, "{} at line {l} column {c}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Bytes already checked for newlines by [`Parser::mark`].
    scanned: usize,
    /// 1-based line of the byte at `scanned`.
    line: u32,
    /// Byte offset where `line` starts.
    line_start: usize,
    /// Arrays and objects open around the current position.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        // Cold path: recompute the position from scratch so `err` can take
        // `&self` from any context.
        let mut line = 1u32;
        let mut line_start = 0usize;
        for (i, b) in self.bytes.iter().take(self.pos).enumerate() {
            if *b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        let col = (self.pos - line_start + 1) as u32;
        JsonError { msg: msg.to_string(), pos: Some((line, col)) }
    }

    /// Advances the newline scanner to `self.pos` and returns the 1-based
    /// (line, column) of the byte there. Positions are only ever requested
    /// at monotonically increasing offsets, so the scan is linear overall.
    fn mark(&mut self) -> (u32, u32) {
        while self.scanned < self.pos {
            if self.bytes[self.scanned] == b'\n' {
                self.line += 1;
                self.line_start = self.scanned + 1;
            }
            self.scanned += 1;
        }
        (self.line, (self.pos - self.line_start + 1) as u32)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, node: Node) -> Result<Node, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(node)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Spanned, JsonError> {
        let (line, col) = self.mark();
        let node = match self.peek() {
            None => return Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Node::Null)?,
            Some(b't') => self.literal("true", Node::Bool(true))?,
            Some(b'f') => self.literal("false", Node::Bool(false))?,
            Some(b'"') => Node::Str(self.string()?),
            Some(b'[') => self.nested(Self::array)?,
            Some(b'{') => self.nested(Self::object)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            Some(c) => {
                return Err(self.err(&format!("unexpected character '{}'", c as char)))
            }
        };
        Ok(Spanned { line, col, node })
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Node, JsonError>,
    ) -> Result<Node, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let node = parse(self);
        self.depth -= 1;
        node
    }

    fn array(&mut self) -> Result<Node, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Node::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Node::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Node, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Node::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Node::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for this
                            // workspace's specs; map lone surrogates to the
                            // replacement character instead of failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice. Both are ASCII, which never occurs inside a
                    // multi-byte character, so the run ends on a character
                    // boundary.
                    let start = self.pos;
                    let run = self.bytes[start..].iter().position(|&b| matches!(b, b'"' | b'\\'));
                    self.pos = run.map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Node, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Node::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Value::parse(
            r#"{"a": [1, 2.5, null, true], "b": {"c": "x\ny"}, "d": -3e2}"#,
        )
        .unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert!(v["a"][2].is_null());
        assert_eq!(v["a"][3].as_bool(), Some(true));
        assert_eq!(v["b"]["c"].as_str(), Some("x\ny"));
        assert_eq!(v["d"].as_f64(), Some(-300.0));
        // Out-of-range indexing degrades to null rather than panicking.
        assert!(v["a"][99].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn pretty_output_round_trips() {
        let src = r#"{"name": "steady", "rates": [["A", 31.5]], "empty": [], "flag": false}"#;
        let v = Value::parse(src).unwrap();
        let again = Value::parse(&v.to_pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Value::Num(20.0).to_pretty(), "20.0");
        assert_eq!(Value::Num(0.25).to_pretty(), "0.25");
    }

    #[test]
    fn string_equality_against_str() {
        let v = Value::parse(r#"{"name": "steady"}"#).unwrap();
        assert_eq!(v["name"], "steady");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nulL", "1 2"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escapes_survive_round_trip() {
        let v = Value::Str("quote \" slash \\ tab \t".into());
        let again = Value::parse(&v.to_pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn spanned_values_carry_line_and_column() {
        let src = "{\n  \"a\": [1,\n    2.5],\n  \"b\": true\n}";
        let s = Spanned::parse(src).unwrap();
        assert_eq!(s.pos(), (1, 1));
        let a = s.get("a").unwrap();
        assert_eq!(a.pos(), (2, 8));
        assert_eq!(a.item(0).unwrap().pos(), (2, 9));
        assert_eq!(a.item(1).unwrap().pos(), (3, 5));
        assert_eq!(s.get("b").unwrap().pos(), (4, 8));
        // Missing keys and out-of-range items degrade to None.
        assert!(s.get("missing").is_none());
        assert!(a.item(9).is_none());
    }

    #[test]
    fn spanned_strips_to_the_same_value_tree() {
        let src = r#"{"a": [1, 2.5, null, true], "b": {"c": "x"}, "d": -3e2}"#;
        let spanned = Spanned::parse(src).unwrap();
        assert_eq!(spanned.into_value(), Value::parse(src).unwrap());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Value::parse(&nest(MAX_DEPTH as usize)).is_ok());
        let err = Value::parse(&nest(MAX_DEPTH as usize + 1)).unwrap_err();
        assert_eq!(err.position(), Some((1, MAX_DEPTH + 1)), "{err}");
        let objects = format!("{}1{}", "{\"a\": ".repeat(200), "}".repeat(200));
        let err = Spanned::parse(&objects).unwrap_err();
        assert!(err.to_string().contains(&format!("deeper than {MAX_DEPTH} levels")), "{err}");
    }

    /// Strings copy whole runs between escapes: multi-byte text survives
    /// the parse and a round trip, also right next to an escape.
    #[test]
    fn multi_byte_strings_round_trip() {
        let src = r#"{"Süd-日本": ["\u00e9é\"x", "ü\\", "\n日", "", "🦀\t🦀"]}"#;
        let v = Value::parse(src).unwrap();
        let items = v["Süd-日本"].as_array().unwrap();
        let want = ["\u{e9}é\"x", "ü\\", "\n日", "", "🦀\t🦀"];
        assert_eq!(items.iter().map(|i| i.as_str().unwrap()).collect::<Vec<_>>(), want);
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
        let err = Value::parse("\"日本").unwrap_err();
        assert_eq!(err.position(), Some((1, 8)), "{err}");
    }

    /// Columns count bytes, so multi-byte text before a diagnostic moves
    /// it by its UTF-8 length.
    #[test]
    fn columns_after_multi_byte_text_count_bytes() {
        let src = "{\n  \"principals\": [{\"name\": \"Süd-日本\", \"capacity\": 10.0}, \
                   {\"name\": \"A\\u00e9é\\\"x\", \"capacity\": nulL}]\n}";
        let err = Value::parse(src).unwrap_err();
        assert_eq!(err.position(), Some((2, 98)), "{err}");
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = Value::parse("{\n  \"a\": nulL\n}").unwrap_err();
        assert_eq!(err.position(), Some((2, 8)));
        assert!(err.to_string().contains("line 2 column 8"), "{err}");
        assert!(JsonError::msg("shape").position().is_none());
    }
}
