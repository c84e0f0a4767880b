//! The one JSON layer for every artifact, trace export and gate baseline
//! (DESIGN.md §7): a streaming [`Writer`] with one string-escaping rule
//! and fixed-precision floats, so output is a pure function of the data;
//! the Chrome trace-event shapes every Perfetto export shares; and
//! [`parse`], whose numbers keep their source text so integers above 2^53
//! (picosecond blame vectors) read back exactly.

use std::fmt::Write as _;

/// A streaming JSON writer into a `String`. It inserts the commas; the
/// caller balances `begin_*`/`end_*`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    comma: bool,
}

/// A value a [`Writer`] writes as one JSON scalar: an integer, a `bool`,
/// a string, a [`Fixed`] float, or an `Option` of one (`None` is `null`).
pub trait Scalar {
    /// Appends the JSON text of `self` to `out`.
    fn write(&self, out: &mut String);
}

/// A float with a fixed number of decimals, exactly as
/// `format!("{v:.prec$}")`; non-finite values, which JSON cannot hold,
/// are written as `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Writer {
    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes the comma a new element needs.
    fn sep(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    fn open(&mut self, c: char) -> &mut Self {
        self.sep().push(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Self {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.value(k).out.push(':');
        self.comma = false;
        self
    }

    /// Writes a scalar: an array element or a key's value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        v.write(self.sep());
        self
    }

    /// Writes one `"key":value` object field.
    pub fn field(&mut self, k: &str, v: impl Scalar) -> &mut Self {
        self.key(k).value(v)
    }

    /// Opens a Chrome trace-event object holding `e`'s fields. The caller
    /// may add fields (`s`, `args`) and closes it with [`Writer::end_obj`].
    pub fn chrome_event(&mut self, e: &Event<'_>) -> &mut Self {
        self.begin_obj().field("name", e.name);
        if let Some(cat) = e.cat {
            self.field("cat", cat);
        }
        if let Some(id) = e.id {
            self.field("id", id);
        }
        self.field("ph", e.ph);
        if let Some(bp) = e.bp {
            self.field("bp", bp);
        }
        self.field("ts", Fixed(e.ts_us, 3)).field("pid", e.pid);
        if let Some(tid) = e.tid {
            self.field("tid", tid);
        }
        self
    }

    /// Writes a Chrome `ph:"M"` metadata event naming process `pid`
    /// (`process_name`), or its thread `tid` when given (`thread_name`).
    pub fn chrome_track_name(&mut self, pid: u64, tid: Option<u64>, name: &str) -> &mut Self {
        let kind = if tid.is_some() { "thread" } else { "process" };
        self.begin_obj().field("name", format!("{kind}_name"));
        self.field("ph", "M").field("pid", pid);
        if let Some(tid) = tid {
            self.field("tid", tid);
        }
        self.key("args").begin_obj().field("name", name).end_obj();
        self.end_obj()
    }
}

/// Runs `f` on a fresh [`Writer`] and returns what it wrote.
pub fn render(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    f(&mut w);
    w.finish()
}

/// The one escaping rule: `"` and `\` get a backslash, `\n` and `\t`
/// their short escapes, other control characters `\u00XX`.
impl Scalar for str {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

impl Scalar for Fixed {
    fn write(&self, out: &mut String) {
        let Fixed(v, prec) = *self;
        if v.is_finite() {
            let _ = write!(out, "{v:.prec$}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalars!(bool, u32, u64, usize);

/// The leading fields of a Chrome trace event — `name`, `cat`, `id`,
/// `ph`, `bp` (flow binding point), `ts` (µs), `pid`, `tid` — written in
/// this order by [`Writer::chrome_event`]; `None` fields are omitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event<'a> {
    pub name: &'a str,
    pub cat: Option<&'a str>,
    pub id: Option<u64>,
    pub ph: &'a str,
    pub bp: Option<&'a str>,
    pub ts_us: f64,
    pub pid: u64,
    pub tid: Option<u64>,
}

/// A parsed JSON value: numbers keep their source text, object fields
/// their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if it is an integer that fits a `u64` (exact above 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document did not parse, and the byte offset where it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source.
    pub offset: usize,
    /// What was expected or found there.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Nesting bound, so a hostile document cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (RFC 8259), with optional surrounding
/// whitespace.
///
/// # Errors
///
/// [`ParseError`] at the first byte that is not valid JSON: a truncated
/// document fails at its length, trailing characters where they start.
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser { src, at: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.at < src.len() {
        return p.err("trailing characters after the document");
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &'static str) -> Result<T, ParseError> {
        let (offset, end) = (self.at, self.at >= self.src.len());
        let msg = if end { "unexpected end of input" } else { msg };
        Err(ParseError { offset, msg })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while self.skip(b" \t\n\r") {}
    }

    /// Consumes the next byte if it is one of `set`.
    fn skip(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| set.contains(&c));
        self.at += usize::from(hit);
        hit
    }

    /// Parses `item`s separated by commas up to the byte `close`, the
    /// opening bracket already consumed.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        self.ws();
        if self.skip(&[close]) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.skip(&[close]) {
                return Ok(items);
            }
            if !self.skip(b",") {
                return self.err("expected `,` or a closing bracket");
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.ws();
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        for (word, v) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.src[self.at..].starts_with(word) {
                self.at += word.len();
                return Ok(v);
            }
        }
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let fields = self.seq(b'}', |p| {
                    p.ws();
                    if p.peek() != Some(b'"') {
                        return p.err("expected a string key");
                    }
                    let key = p.string()?;
                    p.ws();
                    if !p.skip(b":") {
                        return p.err("expected `:` after an object key");
                    }
                    Ok((key, p.value(depth + 1)?))
                });
                fields.map(Value::Obj)
            }
            Some(b'[') => {
                self.at += 1;
                self.seq(b']', |p| p.value(depth + 1)).map(Value::Arr)
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.skip(b"0123456789") {}
        self.at - start
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        self.skip(b"-");
        let lead_zero = self.peek() == Some(b'0');
        let int = self.digits();
        let bad_frac = self.skip(b".") && self.digits() == 0;
        let bad_exp = self.skip(b"eE") && {
            self.skip(b"+-");
            self.digits() == 0
        };
        if int == 0 || (lead_zero && int > 1) || bad_frac || bad_exp {
            return self.err("invalid number");
        }
        Ok(Value::Num(self.src[start..self.at].to_owned()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1; // the opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= b' ')
            {
                self.at += 1;
            }
            // Stops only at ASCII bytes, so both ends are char boundaries.
            out.push_str(&self.src[start..self.at]);
            if self.skip(b"\"") {
                return Ok(out);
            }
            if !self.skip(b"\\") {
                return self.err("control character in a string");
            }
            let c = match self.peek() {
                Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.at += 1;
                    out.push(self.unicode()?);
                    continue;
                }
                _ => return self.err("invalid escape"),
            };
            self.at += 1;
            out.push(c);
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.src.get(self.at..self.at + 4);
        match hex.filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit())) {
            Some(h) => {
                self.at += 4;
                Ok(u32::from_str_radix(h, 16).expect("four hex digits"))
            }
            None => self.err("expected four hex digits after `\\u`"),
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let mut code = hi;
        if (0xD800..0xDC00).contains(&hi) && self.src[self.at..].starts_with("\\u") {
            self.at += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_separates_nests_and_escapes() {
        let json = render(|w| {
            w.begin_obj().key("a").begin_arr().value(1u64).value(false);
            w.value(None::<u64>).begin_obj().end_obj().end_arr();
            w.field("s", "q\"b\\n\nt\tc\u{1}é")
                .field("x", Fixed(0.25, 3));
            w.field("nan", Fixed(f64::NAN, 1)).end_obj();
        });
        assert_eq!(
            json,
            r#"{"a":[1,false,null,{}],"s":"q\"b\\n\nt\tc\u0001é","x":0.250,"nan":null}"#
        );
        let v = parse(&json).unwrap();
        let s = v.get("s").and_then(Value::as_str);
        assert_eq!(s, Some("q\"b\\n\nt\tc\u{1}é"));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.25));
    }

    #[test]
    fn fixed_matches_format_precision() {
        for v in [0.0, -0.0, 1.0005, 12.345_678, 1e21, 123_456_789.987_654] {
            for prec in [1, 3, 4] {
                let w = render(|w| {
                    w.value(Fixed(v, prec));
                });
                assert_eq!(w, format!("{v:.prec$}"));
            }
        }
    }

    #[test]
    fn u64_above_2_pow_53_is_exact() {
        let big = (1u64 << 53) + 1;
        let v = parse(&format!("{{\"ps\":[{big},{}]}}", u64::MAX)).unwrap();
        let ps = v.get("ps").and_then(Value::as_array).unwrap();
        assert_eq!(ps[0].as_u64(), Some(big));
        assert_eq!(ps[1].as_u64(), Some(u64::MAX));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-4E-2").unwrap().as_f64(), Some(-0.04));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode() {
        let v = parse(r#"["\u00e9A", "\ud83d\ude00", "\/\b\f\r"]"#).unwrap();
        let s: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_str().unwrap())
            .collect();
        assert_eq!(s, ["éA", "😀", "/\u{8}\u{c}\r"]);
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\u00g0""#).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected_with_their_offset() {
        let err = |s: &str| parse(s).unwrap_err();
        assert_eq!(err("{\"a\":1} x").offset, 8, "trailing garbage");
        assert_eq!(err("{\"a\":1}}").offset, 7);
        assert_eq!(err("{\"a\":[1,2").offset, 9, "truncated");
        assert_eq!(err("").offset, 0);
        assert_eq!(err("{\"a\" 1}").offset, 5, "missing `:`");
        assert_eq!(err("{\"a\":1,}").offset, 7, "trailing comma");
        assert_eq!(err("[01]").offset, 3, "leading zero");
        assert_eq!(err("[1.]").offset, 3);
        assert_eq!(err("\"a\nb\"").offset, 2, "raw control character");
        assert_eq!(err("tru").offset, 0);
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(err(&deep).msg, "nesting too deep");
        assert!(err("{\"a\" 1}").to_string().contains("byte 5"));
    }

    #[test]
    fn chrome_helpers_write_the_shared_shapes() {
        let json = render(|w| {
            w.begin_arr().chrome_track_name(0, None, "engine");
            w.chrome_track_name(0, Some(3), "rank \"3\"");
            w.chrome_event(&Event {
                name: "x",
                cat: Some("span"),
                id: Some(3),
                ph: "b",
                ts_us: 1.5,
                tid: Some(3),
                ..Event::default()
            });
            w.end_obj().end_arr();
        });
        assert_eq!(
            json,
            "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"engine\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"name\":\"rank \\\"3\\\"\"}},\
             {\"name\":\"x\",\"cat\":\"span\",\"id\":3,\"ph\":\"b\",\"ts\":1.500,\"pid\":0,\"tid\":3}]"
        );
        parse(&json).unwrap();
    }
}
