//! The workspace's one JSON implementation: a value model and parser for
//! reading artifacts back, and a writer every artifact is emitted with.
//!
//! The workspace is hermetic (no registry access), so the observability
//! layer carries its own JSON support. The writer ([`object`], [`Obj`],
//! [`ToJson`]) keeps members in the order they are written, so artifact
//! bytes are fixed by the emitting code alone. The parser keeps integers
//! out of `f64`, so saturated `u64::MAX` counters survive a round trip
//! exactly, and bounds nesting at [`MAX_DEPTH`], so hostile input yields
//! a [`JsonError`] rather than a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent (exact up to `i128`).
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved is not needed, keys sort.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` as a string.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a string.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string {key:?}"))
    }

    /// Member `key` as an exact `u64`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a non-negative integer.
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer {key:?}"))
    }

    /// Member `key` as an `f64`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a number.
    pub fn need_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number {key:?}"))
    }

    /// Member `key` as an array.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not an array.
    pub fn need_arr(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array {key:?}"))
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, a `repro trace` span tree, nests 9 levels.
pub const MAX_DEPTH: usize = 256;

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset; always on a `char` boundary.
    pos: usize,
    /// Open arrays and objects.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !fractional {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(self.err("bad \\u escape"));
                            }
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates (from emitters that split non-BMP
                            // chars) are replaced; we never emit them.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }
}

/// A value the writer can emit.
pub trait ToJson {
    /// Appends `self` to `out` as one JSON value.
    fn write_json(&self, out: &mut String);

    /// `self` as a compact JSON document.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// One object as a compact JSON document, its members in the order `f`
/// writes them.
pub fn object(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// One array as a compact JSON document.
pub fn array(f: impl FnOnce(&mut Arr<'_>)) -> String {
    let mut out = String::new();
    write_array(&mut out, f);
    out
}

/// Appends one object to `out` (for [`ToJson`] implementations).
pub fn write_object(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj { out, first: true });
    out.push('}');
}

fn write_array(out: &mut String, f: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    f(&mut Arr { out, first: true });
    out.push(']');
}

/// The members of an object being written.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Writes member `key`.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        v.write_json(self.key(key));
        self
    }

    /// Writes member `key` as the object `f` writes.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), f);
        self
    }

    /// Writes member `key` as the array `f` writes.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.key(key), f);
        self
    }

    /// Writes member `key` as an array holding one object per item.
    pub fn objs<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Obj<'_>, T),
    ) -> &mut Self {
        self.arr(key, |a| {
            for item in items {
                a.obj(|o| f(o, item));
            }
        })
    }
}

/// The elements of an array being written.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// Writes the next element.
    pub fn item(&mut self, v: impl ToJson) -> &mut Self {
        v.write_json(self.next());
        self
    }

    /// Writes the object `f` writes as the next element.
    pub fn obj(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.next(), f);
        self
    }

    /// Writes the array `f` writes as the next element.
    pub fn arr(&mut self, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.next(), f);
        self
    }
}

/// A float written with exactly four decimals (`0.1234`), the form the
/// drift and predict artifacts use; non-finite values are `null`.
#[derive(Clone, Copy, Debug)]
pub struct Fixed4(pub f64);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integers {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integers!(u64 u128 usize i64);

/// Shortest form that reads back as the same `f64`, always with a `.`
/// or an exponent so it parses as a float; non-finite values are `null`.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        let _ = write!(out, "{self}");
        if !out[start..].contains(['.', 'e']) {
            out.push_str(".0");
        }
    }
}

impl ToJson for Fixed4 {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.4}", self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// `()` is `null`.
impl ToJson for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -42 ").unwrap(), Json::Int(-42));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn u64_max_survives() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},null],"d":{"e":2.5}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse(r#""\u00é""#).is_err());
        // `from_str_radix` alone would take the sign as part of the hex.
        assert!(parse(r#""\u+0e9""#).is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{e9}";
        assert_eq!(
            parse(&nasty.to_json()).unwrap(),
            Json::Str(nasty.to_owned())
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
        assert_eq!(parse(r#""\u00C9\u4e2d""#).unwrap(), Json::Str("É中".into()));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("refused");
        assert_eq!(err.at, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{{\"a\":{ok}}}");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 400 KB took seconds when each char re-validated the rest of
        // the input; the multi-MB case only finishes when linear.
        for (body, bound) in [("a".repeat(400_000), 1.0), ("é".repeat(2 << 20), 5.0)] {
            let doc = format!("[\"{body}\"]");
            let started = std::time::Instant::now();
            let v = parse(&doc).expect("parses");
            let took = started.elapsed();
            assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
            assert!(took.as_secs_f64() < bound, "{} bytes: {took:?}", body.len());
        }
    }

    #[test]
    fn typed_accessors_name_the_missing_key() {
        let v = parse(r#"{"s":"x","n":1.5,"u":7,"a":[1]}"#).unwrap();
        assert_eq!(v.need_str("s"), Ok("x"));
        assert_eq!(v.need_f64("n"), Ok(1.5));
        assert_eq!(v.need_u64("u"), Ok(7));
        assert_eq!(v.need_arr("a").map(<[Json]>::len), Ok(1));
        assert_eq!(v.need_u64("n"), Err("missing integer \"n\"".to_owned()));
        assert_eq!(v.need_str("zz"), Err("missing string \"zz\"".to_owned()));
        assert_eq!(v.need_arr("s"), Err("missing array \"s\"".to_owned()));
        assert_eq!(v.need_f64("s"), Err("missing number \"s\"".to_owned()));
    }

    #[test]
    fn writer_keeps_keys_in_written_order() {
        let doc = object(|o| {
            o.field("zeta", 1u64)
                .field("alpha", 2u64)
                .field("mid", 3u64);
        });
        assert_eq!(doc, r#"{"zeta":1,"alpha":2,"mid":3}"#);
    }

    #[test]
    fn writer_escapes_keys_and_strings() {
        let doc = object(|o| {
            o.field("k\"ey", "a\"b\\c\nd\te\rf\u{1}g\u{e9}");
        });
        assert_eq!(doc, r#"{"k\"ey":"a\"b\\c\nd\te\rf\u0001gé"}"#);
        let v = parse(&doc).unwrap();
        assert_eq!(v.need_str("k\"ey"), Ok("a\"b\\c\nd\te\rf\u{1}g\u{e9}"));
    }

    #[test]
    fn writer_integer_extremes_are_exact() {
        let doc = object(|o| {
            o.field("max", u64::MAX).field("min", i64::MIN);
        });
        assert_eq!(
            doc,
            r#"{"max":18446744073709551615,"min":-9223372036854775808}"#
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.need_u64("max"), Ok(u64::MAX));
        assert_eq!(v.get("min"), Some(&Json::Int(i128::from(i64::MIN))));
    }

    #[test]
    fn writer_floats() {
        let doc = array(|a| {
            a.item(1.0).item(0.1).item(-2.5).item(1e-7);
            a.item(f64::NAN).item(f64::INFINITY).item(f64::NEG_INFINITY);
        });
        assert_eq!(doc, "[1.0,0.1,-2.5,0.0000001,null,null,null]");
        let doc = array(|a| {
            a.item(Fixed4(0.5))
                .item(Fixed4(-0.123_456))
                .item(Fixed4(2.0));
            a.item(Fixed4(f64::NAN)).item(Fixed4(f64::INFINITY));
        });
        assert_eq!(doc, "[0.5000,-0.1235,2.0000,null,null]");
    }

    #[test]
    fn writer_empty_containers_and_nulls() {
        let doc = object(|o| {
            o.obj("o", |_| {})
                .arr("a", |_| {})
                .field("v", Vec::<u64>::new())
                .objs("none", std::iter::empty::<u64>(), |_, _| {})
                .field("unit", ())
                .field("opt", None::<bool>)
                .field("some", Some(true));
        });
        assert_eq!(
            doc,
            r#"{"o":{},"a":[],"v":[],"none":[],"unit":null,"opt":null,"some":true}"#
        );
        assert_eq!(object(|_| {}), "{}");
        assert_eq!(array(|_| {}), "[]");
    }

    #[test]
    fn writer_nests_and_parses_back() {
        let doc = object(|o| {
            o.objs("rows", [1u64, 2], |o, i| {
                o.field("i", i).arr("pair", |a| {
                    a.item(i).item("x");
                });
            })
            .field("names", ["a".to_owned(), "b".to_owned()].as_slice());
        });
        assert_eq!(
            doc,
            r#"{"rows":[{"i":1,"pair":[1,"x"]},{"i":2,"pair":[2,"x"]}],"names":["a","b"]}"#
        );
        assert!(parse(&doc).is_ok());
    }
}
