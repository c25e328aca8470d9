//! A minimal, dependency-free JSON document model.
//!
//! The metrics and run-summary exporters build [`JsonValue`] trees and
//! render them with [`JsonValue::to_json`]; the schema smoke tests (and
//! CI) re-parse the emitted files with [`JsonValue::parse`] to prove the
//! output is well-formed and contains the required keys. Keeping both
//! directions in-tree means the exporters are exercised end-to-end by
//! `cargo test` with no external JSON crate on the runtime path.
//! Decoding needs no tree: [`FromJson`] types read JSON text token by
//! token ([`read`]), and a tree is one more source of the same tokens.
//!
//! Objects preserve insertion order so emitted reports are stable and
//! diffable across runs.
//!
//! [`ToJson`] and [`FromJson`] are the two directions of a wire type,
//! and [`json_struct!`](crate::json_struct) derives both from a struct
//! definition, so a serialised struct names each field exactly once:
//! declaration order is key order, on disk and on the wire.

use std::borrow::Cow;
use std::fmt::Write as _;

pub mod read;

pub use read::{read_tagged, schema, Kind, Other, Reader, Source, TextError, Tree};

/// Deepest nesting of arrays and objects a [`Reader`] accepts. A
/// decoder recurses once per level and its input comes off the
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
        Reader::read_all(text, JsonValue::read).map_err(String::from)
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
        JsonValue::Str(s) => dec_u64_str(s),
        other => Err(expected("u64", other)),
    }
}

/// [`dec_u64`] of a string value.
fn dec_u64_str(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!(": bad u64 string {s:?}"))
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

/// Conversion out of JSON, the inverse of [`ToJson`]: implemented for
/// the integers (exactly, under [`dec_u64`]'s rules), `f64`, `bool`,
/// `String`, `Option`, `Vec` and [`JsonValue`], and by
/// [`json_struct!`](crate::json_struct) for every serialised struct.
///
/// A type has one decode function, [`read`](FromJson::read), over any
/// [`Source`]: JSON text through [`Reader::read_all`], with no tree in
/// between, or a tree through [`from_json_value`](FromJson::from_json_value).
///
/// Errors are the path to the offending value, jq style, then the
/// complaint: `.mem.core_miss_latency.sum: expected u64, got -3`,
/// `.events[2].seq: missing`. A path grows by plain prefixing on the way
/// out, so nothing is allocated while decoding succeeds.
pub trait FromJson: Sized {
    /// Decode the next value of `src`.
    fn read<S: Source>(src: &mut S) -> Result<Self, String>;

    /// Decode a parsed tree.
    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Self::read(&mut Tree::new(v))
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
            fn read<S: Source>(src: &mut S) -> Result<Self, String> {
                $t::try_from(src.u64()?)
                    .map_err(|_| format!(": value exceeds {}", stringify!($t)))
            }
        }
    )*};
}

json_uint!(u8, u32, u64, usize);

impl FromJson for f64 {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        src.f64()
    }
}

impl FromJson for bool {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        src.bool()
    }
}

impl FromJson for String {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        src.str().map(Cow::into_owned)
    }
}

/// `None` is an omitted key in a [`json_struct!`](crate::json_struct)
/// (declare the field `= None`) and `null` anywhere else.
impl<T: FromJson> FromJson for Option<T> {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        if src.null()? {
            Ok(None)
        } else {
            T::read(src).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        let mut items = Vec::new();
        src.array(|src, i| {
            items.push(T::read(src).map_err(|e| format!("[{i}]{e}"))?);
            Ok(())
        })?;
        Ok(items)
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
/// A struct decodes in one pass over its object's members, in document
/// order: a declared key is read into its field (the first of a
/// duplicate key counts, as a tree lookup finds it), any other member is
/// skipped, and a field no member filled takes its declared value or
/// fails as `.field: missing`. `read_members` is that pass with a hook
/// for the members the struct does not declare, for a document that
/// wraps a struct in tags of its own ([`read_tagged`](crate::json::read_tagged)).
///
/// ```
/// use emc_types::json::{Reader, TextError};
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
/// let old = r#"{"x":1,"y":-2}"#;
/// let err = TextError::Decode(".y: expected u64, got -2".into());
/// assert_eq!(Reader::read_all(old, Point::read).unwrap_err(), err);
/// let old = JsonValue::parse(r#"{"x":1,"y":2}"#).unwrap();
/// assert_eq!(Point::from_json_value(&old).unwrap().colour, "black");
/// ```
#[macro_export]
macro_rules! json_struct {
    (@absent $field:ident) => {
        return Ok(Err(concat!(".", stringify!($field), ": missing").to_string()))
    };
    (@absent $field:ident $absent:expr) => { $absent };
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

        impl $name {
            /// Decode an object, offering each member the struct does not
            /// declare to `other`, which consumes it and returns `true`,
            /// or returns `false` to have it skipped. The outer error is
            /// a member that stopped the pass; the inner one, a field no
            /// member filled once the whole object was read.
            #[allow(dead_code)]
            pub fn read_members<S: $crate::json::Source>(
                src: &mut S,
                other: &mut $crate::json::Other<'_, S>,
            ) -> Result<Result<Self, String>, String> {
                $( let mut $field = None; )*
                src.object(|src, key| {
                    match key {
                        $( stringify!($field) if $field.is_none() => {
                            let value = <$ty as $crate::json::FromJson>::read(src);
                            $field = Some(value.map_err(|e| format!(".{}{e}", stringify!($field)))?);
                        } )*
                        _ => {
                            if !other(src, key)? {
                                src.skip()?;
                            }
                        }
                    }
                    Ok(())
                })?;
                Ok(Ok($name {
                    $( $field: match $field {
                        Some(value) => value,
                        None => $crate::json_struct!(@absent $field $($absent)?),
                    }, )*
                }))
            }
        }

        impl $crate::json::FromJson for $name {
            fn read<S: $crate::json::Source>(src: &mut S) -> Result<Self, String> {
                Self::read_members(src, &mut |_, _| Ok(false))?
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
            fn read<S: $crate::json::Source>(src: &mut S) -> Result<Self, String> {
                let label = src.str().map_err(|_| ": expected a label")?;
                Self::from_label(&label).ok_or_else(|| format!(": unknown label {label:?}"))
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
            ("arr", vec![0, 1, u64::from(u32::MAX)].to_json_value()),
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

    crate::json_struct! {
        struct Rows { rows: Vec<Vec<u64>> }
    }
    crate::json_struct! {
        struct Flag { flag: bool }
    }
    crate::json_struct! {
        struct Named { rows: String }
    }
    crate::json_struct! {
        struct Gone { gone: f64 }
    }
    crate::json_struct! {
        struct Defaulted { gone: f64 = 0.5 }
    }

    /// Decode `text` as a `T` from the text and from its tree: the two
    /// routes give the same value or the same error.
    fn both<T: FromJson + ToJson>(text: &str) -> Result<JsonValue, String> {
        let direct = read::from_text::<T>(text).map(|v| v.to_json_value());
        let tree = JsonValue::parse(text).and_then(|doc| T::from_json_value(&doc));
        assert_eq!(direct, tree.map(|v| v.to_json_value()), "{text}");
        direct
    }

    #[test]
    fn decode_errors_are_paths_to_the_offending_value() {
        let doc = r#"{"rows":[[1,2],[3,"x"]],"flag":1}"#;
        let rows = both::<Rows>(doc);
        assert_eq!(rows.unwrap_err(), ".rows[1][1]: bad u64 string \"x\"");
        let flag = both::<Flag>(doc);
        assert_eq!(flag.unwrap_err(), ".flag: expected bool, got 1");
        let rows = both::<Named>(doc);
        assert_eq!(rows.unwrap_err(), ".rows: expected string, got an array");
        let gone = both::<Gone>(doc);
        assert_eq!(gone.unwrap_err(), ".gone: missing");
        assert_eq!(read::from_text::<Defaulted>(doc).unwrap().gone, 0.5);
        assert_eq!(Option::<u64>::from_json_value(&JsonValue::Null), Ok(None));
        assert_eq!(Option::<u64>::from_json_value(&u(7)), Ok(Some(7)));
    }

    #[test]
    fn a_struct_skips_unknown_members_and_keeps_the_first_duplicate() {
        let doc = r#"{"extra":{"a":[1,{"b":null}]},"flag":true,"flag":"x"}"#;
        assert_eq!(
            both::<Flag>(doc),
            Ok(JsonValue::obj(vec![("flag", true.into())]))
        );
        // Skipped is still read: broken or too deep, the text is refused.
        assert!(read::from_text::<Flag>(r#"{"extra":[1,},"flag":true}"#).is_err());
        let bad_number = both::<Flag>(r#"{"extra":[0,1-2],"flag":true}"#);
        assert_eq!(bad_number.unwrap_err(), "bad number at byte 12");
        let deep = format!(r#"{{"extra":{},"flag":true}}"#, "[".repeat(200_000));
        let err = both::<Flag>(&deep).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // A struct is an object; anything else is named, not missing.
        assert_eq!(both::<Flag>("5").unwrap_err(), ": expected object, got 5");
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
            ("a", vec![1u64, 2].to_json_value()),
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
