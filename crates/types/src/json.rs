//! A minimal, dependency-free JSON document model.
//!
//! The metrics and run-summary exporters build [`JsonValue`] trees and
//! render them with [`JsonValue::to_json`]; the schema smoke tests (and
//! CI) re-parse the emitted files with [`JsonValue::parse`] to prove the
//! output is well-formed and contains the required keys. Keeping both
//! directions in-tree means the exporters are exercised end-to-end by
//! `cargo test` with no external JSON crate on the runtime path.
//!
//! Objects preserve insertion order so emitted reports are stable and
//! diffable across runs.
//!
//! [`ToJson`] and [`FromJson`] are the two directions of a wire type,
//! and [`json_struct!`](crate::json_struct) derives both from a struct
//! definition, so a serialised struct names each field exactly once:
//! declaration order is key order, on disk and on the wire.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The parser recurses once per level and its input comes off the
/// network; the deepest document this workspace writes (a cache entry,
/// down to a histogram's buckets) nests 7 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value: the full document model, no external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64; a `u64` above 2^53 is carried
    /// as a string instead, see [`u`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array of numbers from an iterator of `u64`.
    pub fn nums<I: IntoIterator<Item = u64>>(it: I) -> JsonValue {
        JsonValue::Arr(it.into_iter().map(JsonValue::from).collect())
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element access; `None` out of range or for non-arrays.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render as indented (2-space) JSON text.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip float formatting is
                    // valid JSON for all finite values.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
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

    /// Parse a JSON document. Returns a message naming the byte offset
    /// of the first error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Encode a `u64` exactly: numbers up to 2^53 fit JSON's double grid;
/// larger values (saturated histogram sums) are carried as strings so
/// every integer round-trips bit-exactly.
pub fn u(v: u64) -> JsonValue {
    if v <= (1u64 << 53) {
        JsonValue::Num(v as f64)
    } else {
        JsonValue::Str(v.to_string())
    }
}

/// Decode a value produced by [`u`] back to a `u64`.
///
/// # Errors
///
/// Returns a message when the value is neither an exact non-negative
/// integer on the double grid nor a parseable string.
pub fn dec_u64(v: &JsonValue) -> Result<u64, String> {
    match v {
        JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
            Ok(*n as u64)
        }
        JsonValue::Str(s) => s.parse().map_err(|_| format!(": bad u64 string {s:?}")),
        other => Err(expected("u64", other)),
    }
}

/// The leaf of a decode error: scalars are shown, containers only named
/// (the document may be a megabyte off the network).
fn expected(what: &str, got: &JsonValue) -> String {
    match got {
        JsonValue::Arr(_) => format!(": expected {what}, got an array"),
        JsonValue::Obj(_) => format!(": expected {what}, got an object"),
        scalar => format!(": expected {what}, got {}", scalar.to_json()),
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        u(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        u(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Conversion into a [`JsonValue`] tree, for arbitrary report shapes.
///
/// Implemented for the primitives, strings, `Option`, `Vec`, arrays,
/// and tuples up to arity 9, so figure harnesses can hand their row
/// tuples straight to a JSON sidecar writer. Tuples encode as arrays.
pub trait ToJson {
    /// Build the JSON tree for this value.
    fn to_json_value(&self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json_value(&self) -> JsonValue {
        self.clone()
    }
}

macro_rules! to_json_via_from {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::from(self.clone())
            }
        }
    )*};
}

to_json_via_from!(f64, bool, String);

impl ToJson for &str {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str((*self).to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json_value(&self) -> JsonValue {
        (**self).to_json_value()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json_value(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

macro_rules! to_json_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::Arr(vec![$(self.$idx.to_json_value()),+])
            }
        }
    };
}

to_json_tuple!(A: 0, B: 1);
to_json_tuple!(A: 0, B: 1, C: 2);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
to_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);

/// Conversion out of a [`JsonValue`] tree, the inverse of [`ToJson`]:
/// implemented for the integers (exactly, through [`dec_u64`]), `f64`,
/// `bool`, `String`, `Option` and `Vec`, and by
/// [`json_struct!`](crate::json_struct) for every serialised struct.
///
/// Errors are the path to the offending value, jq style, then the
/// complaint: `.mem.core_miss_latency.sum: expected u64, got -3`,
/// `.events[2].seq: missing`. A path grows by plain prefixing on the way
/// out, so nothing is allocated while decoding succeeds.
pub trait FromJson: Sized {
    /// Decode a value.
    fn from_json_value(v: &JsonValue) -> Result<Self, String>;

    /// Decode the member `key` of an object. `absent` is the value of a
    /// missing key; `None` makes the key required.
    fn from_json_member(obj: &JsonValue, key: &str, absent: Option<Self>) -> Result<Self, String> {
        match (obj.get(key), absent) {
            (Some(v), _) => Self::from_json_value(v).map_err(|e| format!(".{key}{e}")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!(".{key}: missing")),
        }
    }
}

/// Every unsigned integer goes through the one exact pair, [`u`] and
/// [`dec_u64`].
macro_rules! json_uint {
    ($($t:ident),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> JsonValue {
                u(*self as u64)
            }
        }

        impl FromJson for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, String> {
                $t::try_from(dec_u64(v)?)
                    .map_err(|_| format!(": value exceeds {}", stringify!($t)))
            }
        }
    )*};
}

json_uint!(u8, u32, u64, usize);

impl FromJson for f64 {
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| expected("number", v))
    }
}

impl FromJson for bool {
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(expected("bool", other)),
        }
    }
}

impl FromJson for String {
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("string", v))
    }
}

/// `None` is an omitted key in a [`json_struct!`](crate::json_struct)
/// (declare the field `= None`) and `null` anywhere else.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            some => T::from_json_value(some).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| expected("array", v))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json_value(item).map_err(|e| format!("[{i}]{e}")))
            .collect()
    }
}

/// Wrap a struct (or unit-enum) *definition* and make it its own wire
/// format: the definition is emitted as written (docs, derives and
/// visibilities pass through) with [`ToJson`] and [`FromJson`] impls
/// generated from it.
///
/// A struct's document is an object whose keys are the field names in
/// declaration order, so **declaration order is wire order**: reordering
/// or renaming a field changes every byte derived from the struct (cache
/// keys and entries, manifests, the `campaignd` wire), which
/// `tests/golden_digests.rs` pins. `field: T = expr` gives the value of
/// an absent key, the one tolerance a decoder has: a field added after
/// documents were already on disk declares the value those documents
/// imply. An `Option` field is omitted while `None` and is declared
/// `= None`. For an enum, `Variant = "label"` is the one table behind
/// `label`, `from_label` and both impls.
///
/// ```
/// use emc_types::{json_struct, FromJson, JsonValue, ToJson};
///
/// json_struct! {
///     /// A point, with a colour added in a later version.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         pub x: u64,
///         pub y: u64,
///         pub colour: String = "black".to_string(),
///     }
/// }
///
/// let p = Point { x: 1, y: 2, colour: "red".into() };
/// assert_eq!(p.to_json_value().to_json(), r#"{"x":1,"y":2,"colour":"red"}"#);
/// let old = JsonValue::parse(r#"{"x":1,"y":-2}"#).unwrap();
/// assert_eq!(Point::from_json_value(&old).unwrap_err(), ".y: expected u64, got -2");
/// let old = JsonValue::parse(r#"{"x":1,"y":2}"#).unwrap();
/// assert_eq!(Point::from_json_value(&old).unwrap().colour, "black");
/// ```
#[macro_export]
macro_rules! json_struct {
    (@absent) => { None };
    (@absent $absent:expr) => { Some($absent) };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(= $absent:expr)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::json::ToJson for $name {
            fn to_json_value(&self) -> $crate::json::JsonValue {
                let fields =
                    [ $( (stringify!($field), $crate::json::ToJson::to_json_value(&self.$field)) ),* ];
                // Sized up front: a filtered iterator has no length to collect by.
                let mut members = Vec::with_capacity(fields.len());
                members.extend(
                    fields
                        .into_iter()
                        .filter(|(_, v)| !matches!(v, $crate::json::JsonValue::Null))
                        .map(|(k, v)| (k.to_string(), v)),
                );
                $crate::json::JsonValue::Obj(members)
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json_value(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok($name {
                    $( $field: <$ty as $crate::json::FromJson>::from_json_member(
                        v,
                        stringify!($field),
                        $crate::json_struct!(@absent $($absent)?),
                    )?, )*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// The variant's label: its wire form and its printed name.
            pub fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )*
                }
            }

            /// Inverse of [`label`](Self::label).
            pub fn from_label(label: &str) -> Option<Self> {
                match label {
                    $( $label => Some($name::$variant), )*
                    _ => None,
                }
            }
        }

        impl $crate::json::ToJson for $name {
            fn to_json_value(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Str(self.label().to_string())
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json_value(v: &$crate::json::JsonValue) -> Result<Self, String> {
                let label = v.as_str().ok_or(": expected a label")?;
                Self::from_label(label).ok_or_else(|| format!(": unknown label {label:?}"))
            }
        }
    };
}

/// Escape and quote a string per RFC 8259.
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                // One stack frame per level: bounded here, not by the input.
                if self.depth == MAX_DEPTH {
                    let at = self.pos;
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates (emitted only for exotic input)
                            // decode to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = JsonValue::obj(vec![
            ("name", "emc\"sim".into()),
            ("n", 42u64.into()),
            ("pi", 3.25.into()),
            ("neg", (-7.0).into()),
            ("flag", true.into()),
            ("none", JsonValue::Null),
            ("arr", JsonValue::nums([0, 1, u32::MAX as u64])),
            (
                "nested",
                JsonValue::obj(vec![("tab\there", JsonValue::Arr(vec![]))]),
            ),
        ]);
        let text = doc.to_json();
        let back = JsonValue::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let doc = JsonValue::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x"}"#).unwrap();
        let b = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.idx(2).and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(doc.get("s").and_then(|v| v.as_str()), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(b.as_arr().map(|a| a.len()), Some(3));
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let doc = JsonValue::parse(" { \"k\\n\" : \"a\\u0041\\\\\" , \"e\":[] } ").unwrap();
        assert_eq!(doc.get("k\n").and_then(|v| v.as_str()), Some("aA\\"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_death() {
        // A fifth of campaignd's body limit, all `[`: unbounded
        // recursion overflows the stack and aborts the process.
        let err = JsonValue::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        assert!(JsonValue::parse(&r#"{"a":"#.repeat(200_000)).is_err());
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nest(MAX_DEPTH + 1)).is_err());
        // Depth is nesting, not a count of containers.
        assert!(JsonValue::parse(&format!("[{}{{}}]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn integers_encode_and_decode_exactly_one_way() {
        for v in [0, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let doc = JsonValue::from(v);
            assert_eq!((&doc, &doc), (&u(v), &v.to_json_value()));
            let back = JsonValue::parse(&doc.to_json()).unwrap();
            assert_eq!(u64::from_json_value(&back), Ok(v));
        }
        assert_eq!(u(1 << 53), JsonValue::Num((1u64 << 53) as f64));
        assert_eq!(u(u64::MAX), JsonValue::Str(u64::MAX.to_string()));
        assert_eq!(JsonValue::from(usize::MAX), u(usize::MAX as u64));
        for bad in ["-1", "2.5", "1e300", "\"12x\"", "null", "[1]"] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(u64::from_json_value(&v).is_err(), "accepted {bad}");
        }
        assert_eq!(u8::from_json_value(&u(255)), Ok(255));
        assert_eq!(
            u8::from_json_value(&u(256)).unwrap_err(),
            ": value exceeds u8"
        );
    }

    #[test]
    fn decode_errors_are_paths_to_the_offending_value() {
        let doc = JsonValue::parse(r#"{"rows":[[1,2],[3,"x"]],"flag":1}"#).unwrap();
        let rows = Vec::<Vec<u64>>::from_json_member(&doc, "rows", None);
        assert_eq!(rows.unwrap_err(), ".rows[1][1]: bad u64 string \"x\"");
        let flag = bool::from_json_member(&doc, "flag", None);
        assert_eq!(flag.unwrap_err(), ".flag: expected bool, got 1");
        let rows = String::from_json_member(&doc, "rows", None);
        assert_eq!(rows.unwrap_err(), ".rows: expected string, got an array");
        let gone = f64::from_json_member(&doc, "gone", None);
        assert_eq!(gone.unwrap_err(), ".gone: missing");
        assert_eq!(f64::from_json_member(&doc, "gone", Some(0.5)), Ok(0.5));
        assert_eq!(Option::<u64>::from_json_value(&JsonValue::Null), Ok(None));
        assert_eq!(Option::<u64>::from_json_value(&u(7)), Ok(Some(7)));
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = JsonValue::Str("a\u{1}b".into());
        assert_eq!(v.to_json(), "\"a\\u0001b\"");
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn to_json_covers_tuples_vecs_arrays_and_options() {
        let rows = vec![("mcf", 1.5f64, [2u64, 3]), ("lbm", 0.25, [0, 9])];
        let v = rows.to_json_value();
        assert_eq!(v.to_json(), r#"[["mcf",1.5,[2,3]],["lbm",0.25,[0,9]]]"#);

        let nested: (String, Vec<(String, f64)>) = ("H1".into(), vec![("GHB".into(), 1.125)]);
        assert_eq!(
            nested.to_json_value().to_json(),
            r#"["H1",[["GHB",1.125]]]"#
        );

        assert_eq!(Some(3.5f64).to_json_value(), JsonValue::Num(3.5));
        assert_eq!(None::<f64>.to_json_value(), JsonValue::Null);
        assert_eq!(
            <&bool as ToJson>::to_json_value(&&true),
            JsonValue::Bool(true)
        );
        let nine = ("a", 1f64, 2f64, 3u64, 4u64, 5u64, 6u64, 7u64, 8u64);
        assert_eq!(nine.to_json_value().to_json(), r#"["a",1,2,3,4,5,6,7,8]"#);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses_equal() {
        let doc = JsonValue::obj(vec![
            ("a", JsonValue::nums([1, 2])),
            ("b", JsonValue::obj(vec![("c", JsonValue::Null)])),
            ("empty_arr", JsonValue::Arr(vec![])),
            ("empty_obj", JsonValue::Obj(vec![])),
        ]);
        let pretty = doc.to_json_pretty();
        assert!(
            pretty.contains("\n  \"a\": [\n    1,\n    2\n  ]"),
            "{pretty}"
        );
        assert!(
            pretty.contains("\"empty_arr\": []"),
            "empties stay inline: {pretty}"
        );
        assert_eq!(JsonValue::parse(&pretty).unwrap(), doc);
    }
}
