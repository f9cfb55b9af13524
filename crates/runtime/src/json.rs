//! Minimal JSON: a value type, an emitter and a parser.
//!
//! Replaces the `serde` derives the result structs used to carry: types
//! that need machine-readable output implement [`ToJson`] (and
//! [`FromJson`] where round-tripping matters) and the bench harness emits
//! with [`Json::dump`]. Objects preserve insertion order so emitted files
//! are deterministic.
//!
//! Typed config objects read through [`Fields`], which checks an object's
//! keys against its type's key list and names any other key, and dump
//! through [`keyed`] in the same key order.
//!
//! The emitter prints `f64` with Rust's shortest-round-trip formatting, so
//! `parse(dump(v))` reproduces every finite number exactly. Non-finite
//! numbers have no JSON representation and emit as `null` (standard
//! practice); the parser never produces them.

use std::fmt::Write as _;

/// A JSON document or fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error with a byte offset (parse only) and reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input, when parsing.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(offset: usize, reason: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        offset,
        reason: reason.into(),
    })
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `usize`, if it is one exactly.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= usize::MAX as f64).then_some(x as usize)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-round-trip and always
                    // includes enough digits to reparse exactly.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(p.pos, "trailing characters after document");
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            err(self.pos, format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return err(self.pos, "nesting too deep");
        }
        match self.bytes.get(self.pos) {
            None => err(self.pos, "unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => err(self.pos, format!("unexpected byte 0x{b:02x}")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(self.pos, format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => err(start, format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return err(self.pos, "unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or_else(|| JsonError {
                        offset: self.pos,
                        reason: "unterminated escape".into(),
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a trailing \uXXXX.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err(self.pos, "invalid low surrogate");
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return err(self.pos, "invalid \\u escape"),
                            }
                        }
                        _ => return err(self.pos - 1, "unknown escape"),
                    }
                }
                Some(&b) if b < 0x20 => return err(self.pos, "raw control character in string"),
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            offset: self.pos,
                            reason: "invalid utf-8".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return err(self.pos, "truncated \\u escape");
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|_| JsonError {
            offset: self.pos,
            reason: "invalid \\u escape".into(),
        })?;
        let v = u32::from_str_radix(text, 16).map_err(|_| JsonError {
            offset: self.pos,
            reason: "invalid \\u escape".into(),
        })?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(self.pos, "expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(self.pos, "expected ',' or '}'"),
            }
        }
    }
}

/// Conversion into a [`Json`] value for machine-readable output.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Reconstruction from a [`Json`] value (the inverse of [`ToJson`]).
pub trait FromJson: Sized {
    /// Rebuilds `Self`; errors carry a reason with `offset == 0`.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}
impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<f64, JsonError> {
        value.as_f64().map_or_else(|| err(0, "expected number"), Ok)
    }
}
impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}
impl FromJson for usize {
    fn from_json(value: &Json) -> Result<usize, JsonError> {
        value
            .as_usize()
            .map_or_else(|| err(0, "expected non-negative integer"), Ok)
    }
}
impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(value: &Json) -> Result<String, JsonError> {
        value
            .as_str()
            .map_or_else(|| err(0, "expected string"), |s| Ok(s.to_string()))
    }
}
impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Vec<T>, JsonError> {
        value
            .as_array()
            .map_or_else(|| err(0, "expected array"), Ok)?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// Fetches and converts a required object field.
pub fn field<T: FromJson>(value: &Json, key: &str) -> Result<T, JsonError> {
    match value.get(key) {
        Some(v) => T::from_json(v),
        None => err(0, format!("{MISSING}{key}'")),
    }
}

const UNKNOWN: &str = "unknown field '";
const MISSING: &str = "missing field '";

/// A key list: an object type's keys in the order its dump writes them.
pub type Keys = &'static [&'static str];

/// Edit distance between two keys, for the "did you mean" hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = i;
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + (ca != cb) as usize)
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// An object read against its type's key list. [`Fields::of`] rejects
/// every other key, naming each with the nearest listed spelling, except
/// the annotations any object may carry: `comment` and keys that start
/// with `_`. The check allocates only for that error. An error raised
/// inside field `key` names its field paths with `key.` in front, so a
/// nested error carries its full dot path.
pub struct Fields<'a> {
    value: &'a Json,
    keys: &'a [&'a str],
}

impl<'a> Fields<'a> {
    /// Checks the keys of the object `value` against `keys`.
    pub fn of(value: &'a Json, keys: &'a [&'a str]) -> Result<Self, JsonError> {
        let Json::Obj(pairs) = value else {
            return err(0, "expected an object");
        };
        let unknown =
            |k: &&String| !keys.contains(&k.as_str()) && *k != "comment" && !k.starts_with('_');
        if !pairs.iter().map(|(k, _)| k).any(|k| unknown(&k)) {
            return Ok(Fields { value, keys });
        }
        let hint = |k: &str| {
            keys.iter()
                .map(|c| (edit_distance(k, c), c))
                .min()
                .filter(|&(d, _)| d <= 2)
                .map_or(String::new(), |(_, c)| format!(" (did you mean '{c}'?)"))
        };
        let named: Vec<String> = pairs
            .iter()
            .map(|(k, _)| k)
            .filter(unknown)
            .map(|k| format!("{UNKNOWN}{k}'{}", hint(k)))
            .collect();
        err(0, named.join("; "))
    }

    /// A tagged object: its `type` and its fields, checked against the key
    /// list `keys_of` gives that type (`type` included).
    pub fn tagged(
        value: &'a Json,
        keys_of: fn(&str) -> Option<Keys>,
    ) -> Result<(&'a str, Self), JsonError> {
        let Json::Obj(pairs) = value else {
            return err(0, "expected an object");
        };
        let Some(ty) = value.get("type") else {
            // Name a misspelled `type` rather than report it missing.
            return match pairs.iter().find(|(k, _)| edit_distance(k, "type") <= 2) {
                Some((k, _)) => err(0, format!("{UNKNOWN}{k}' (did you mean 'type'?)")),
                None => err(0, format!("{MISSING}type'")),
            };
        };
        let ty = ty
            .as_str()
            .map_or_else(|| err(0, "type must be a string"), Ok)?;
        let keys = keys_of(ty).map_or_else(|| err(0, format!("unknown type '{ty}'")), Ok)?;
        Ok((ty, Fields::of(value, keys)?))
    }

    /// The field `key` (one of the listed keys), `None` when absent.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        debug_assert!(self.keys.contains(&key), "'{key}' is not a listed key");
        let within = |mut e: JsonError| {
            for marker in [UNKNOWN, MISSING] {
                e.reason = e.reason.replace(marker, &format!("{marker}{key}."));
            }
            e
        };
        self.value
            .get(key)
            .map(|v| T::from_json(v).map_err(within))
            .transpose()
    }

    /// The field `key` (one of the listed keys), required.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        self.opt(key)?
            .map_or_else(|| err(0, format!("{MISSING}{key}'")), Ok)
    }
}

/// The object `keys[i]: values[i]`: the dump of a type whose key list is
/// `keys`, in its order.
pub fn keyed(keys: &[&str], values: Vec<Json>) -> Json {
    debug_assert_eq!(keys.len(), values.len(), "one value per key");
    Json::Obj(keys.iter().map(|k| k.to_string()).zip(values).collect())
}

/// The dump of a tagged object: `type` is `ty`, and `values` follow under
/// the rest of the key list `keys_of` gives `ty`.
pub fn keyed_tagged(ty: &str, keys_of: fn(&str) -> Option<Keys>, values: Vec<Json>) -> Json {
    let keys = keys_of(ty).expect("a listed type");
    keyed(keys, std::iter::once(ty.into()).chain(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-key type with a nested `{quick, full}` object.
    #[derive(Debug, PartialEq)]
    struct Knob {
        depth: f64,
        pair: Option<Pair>,
    }

    #[derive(Debug, PartialEq)]
    struct Pair(f64, f64);

    impl FromJson for Pair {
        fn from_json(value: &Json) -> Result<Self, JsonError> {
            let f = Fields::of(value, &["quick", "full"])?;
            Ok(Pair(f.req("quick")?, f.req("full")?))
        }
    }

    impl FromJson for Knob {
        fn from_json(value: &Json) -> Result<Self, JsonError> {
            let f = Fields::of(value, &["depth", "pair"])?;
            Ok(Knob {
                depth: f.req("depth")?,
                pair: f.opt("pair")?,
            })
        }
    }

    fn knob(text: &str) -> Result<Knob, String> {
        Knob::from_json(&Json::parse(text).unwrap()).map_err(|e| e.reason)
    }

    #[test]
    fn fields_accept_listed_keys_and_annotations_only() {
        let text = r#"{"_v":2,"depth":1,"comment":"x","pair":{"quick":1,"full":2}}"#;
        let want = Knob {
            depth: 1.0,
            pair: Some(Pair(1.0, 2.0)),
        };
        assert_eq!(knob(text), Ok(want));
        assert_eq!(
            knob(r#"{"depht":1,"colour":3}"#).unwrap_err(),
            "unknown field 'depht' (did you mean 'depth'?); unknown field 'colour'"
        );
        // A nested error names its dot path.
        assert_eq!(
            knob(r#"{"depth":1,"pair":{"quick":1,"fulll":2}}"#).unwrap_err(),
            "unknown field 'pair.fulll' (did you mean 'full'?)"
        );
        assert_eq!(
            knob(r#"{"depth":1,"pair":{"quick":1}}"#).unwrap_err(),
            "missing field 'pair.full'"
        );
        assert_eq!(
            knob(r#"{"pair":null}"#).unwrap_err(),
            "missing field 'depth'"
        );
    }

    #[test]
    fn tagged_fields_take_the_key_list_of_their_type() {
        fn keys(ty: &str) -> Option<Keys> {
            match ty {
                "disc" => Some(&["type", "radius"]),
                _ => None,
            }
        }
        let tagged = |text: &str| {
            let json = Json::parse(text).unwrap();
            Fields::tagged(&json, keys)
                .and_then(|(ty, f)| Ok((ty.to_string(), f.req::<f64>("radius")?)))
                .map_err(|e| e.reason)
        };
        assert_eq!(
            tagged(r#"{"type":"disc","radius":2}"#),
            Ok(("disc".into(), 2.0))
        );
        for (text, reason) in [
            (r#"{"type":"disc","side":2}"#, "unknown field 'side'"),
            (r#"{"type":"square"}"#, "unknown type 'square'"),
            (
                r#"{"tpye":"disc","radius":2}"#,
                "unknown field 'tpye' (did you mean 'type'?)",
            ),
            (r#"{"radius":2}"#, "missing field 'type'"),
        ] {
            assert_eq!(tagged(text).unwrap_err(), reason, "{text}");
        }
        let dumped = keyed_tagged("disc", keys, vec![Json::Num(2.0)]).dump();
        assert_eq!(dumped, r#"{"type":"disc","radius":2}"#);
    }

    #[test]
    fn dump_scalars() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::Bool(true).dump(), "true");
        assert_eq!(Json::Num(1.0).dump(), "1");
        assert_eq!(Json::Num(0.5).dump(), "0.5");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).dump(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn dump_and_parse_nested() {
        let v = Json::obj([
            ("name", "peak_gain_cdf".into()),
            ("trials", 400usize.into()),
            ("samples", vec![1.0, 2.5, -3.125e-7].into()),
            ("ok", true.into()),
            ("sub", Json::obj([("x", Json::Null)])),
        ]);
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            123456789.12345679,
        ] {
            let text = Json::Num(x).dump();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn parse_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\u00e9\" , null ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_array().unwrap()[1].as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn parse_surrogate_pair() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}",
            "01abc",
            "\"unterminated",
            "[1] trailing",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_depth_limited() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_access_helpers() {
        let v = Json::obj([("n", 3usize.into()), ("s", "hi".into())]);
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(field::<String>(&v, "s").unwrap(), "hi");
        assert!(field::<f64>(&v, "missing").is_err());
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
    }

    #[test]
    fn vec_round_trip_via_traits() {
        let xs = vec![1.0, 2.0, 3.5];
        let back: Vec<f64> =
            FromJson::from_json(&Json::parse(&xs.to_json().dump()).unwrap()).unwrap();
        assert_eq!(back, xs);
    }
}
