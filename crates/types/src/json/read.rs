//! Decoding without a tree in between.
//!
//! A [`FromJson`] type has one decode function, [`FromJson::read`],
//! written against [`Source`]: a stream of JSON values that the decoder
//! pulls from one at a time. Two sources implement it:
//!
//! - [`Reader`], the tokenizer over JSON text. A member key is matched
//!   as a slice of the input, an integer field is read straight from
//!   its digits, and a member the decoder does not ask for is skipped,
//!   still checked and still bounded by [`MAX_DEPTH`]. It is also the
//!   one parser: [`JsonValue::parse`] is [`JsonValue`]'s own `read` on
//!   it.
//! - [`Tree`], a walk over a [`JsonValue`] already in memory, for the
//!   callers that build, edit or inspect a tree before decoding it.
//!
//! A document that wraps a struct in string tags (a cache entry's
//! schema, key and fingerprint; a manifest's or a protocol document's
//! schema) is read in the same one pass by [`read_tagged`].
//!
//! A decode error is the path to the offending value, then the
//! complaint (`.stats.cores[0].cycles: expected u64, got -3`), the same
//! from either source. A syntax error is the [`Reader`]'s alone: it is
//! kept aside when met, so the path a decoder would put in front of it
//! never reaches the caller, and [`Reader::read_all`] answers it as
//! [`TextError::Syntax`], worded as the byte offset where the text
//! stops being JSON.

use std::borrow::Cow;
use std::fmt;

use super::{dec_u64, dec_u64_str, expected, FromJson, JsonValue, MAX_DEPTH};

/// What the next value of a [`Source`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A stream of JSON values for [`FromJson::read`] to pull from. Each
/// method consumes the next value whole, or fails with a decode error
/// (`: expected u64, got -3`) that the callers up the stack prefix with
/// their path.
pub trait Source {
    /// What the next value is, without consuming it.
    fn kind(&mut self) -> Result<Kind, String>;

    /// Consume the next value if it is `null`; `false` leaves it.
    fn null(&mut self) -> Result<bool, String>;

    /// A boolean.
    fn bool(&mut self) -> Result<bool, String>;

    /// A `u64` as [`u`](super::u) writes it, under [`dec_u64`]'s rules.
    fn u64(&mut self) -> Result<u64, String>;

    /// A number.
    fn f64(&mut self) -> Result<f64, String>;

    /// A string, borrowed where the source allows.
    fn str(&mut self) -> Result<Cow<'_, str>, String>;

    /// An array: `each` is handed every element's index in turn and must
    /// consume that element.
    fn array<F>(&mut self, each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, usize) -> Result<(), String>;

    /// An object: `each` is handed every member's key in document order
    /// and must consume that member's value (read it, or
    /// [`skip`](Source::skip) it).
    fn object<F>(&mut self, each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, &str) -> Result<(), String>;

    /// Consume the next value unread. Text is still checked, and its
    /// nesting still bounded by [`MAX_DEPTH`].
    fn skip(&mut self) -> Result<(), String>;

    /// The next value if it is a string, else `""`, consumed either way:
    /// how a document's tags (schema, key, fingerprint) are read, so a
    /// mistyped tag is reported as a mismatched one.
    fn tag(&mut self) -> Result<String, String> {
        if self.kind()? == Kind::Str {
            self.str().map(Cow::into_owned)
        } else {
            self.skip().map(|()| String::new())
        }
    }
}

/// A decoder's hook for the members it does not declare: it consumes
/// the member's value and answers `true`, or answers `false` to have it
/// skipped.
pub type Other<'h, S> = dyn FnMut(&mut S, &str) -> Result<bool, String> + 'h;

/// Decode a document that wraps a body in string tags (`schema`,
/// `key`, ...), in one pass: `body`, a `json_struct!`'s `read_members`,
/// reads the object, and the first member named in `tags` is claimed as
/// that tag ([`Source::tag`]). `check` judges tag `i` by its value, `""`
/// when it is absent, in the order of `tags`.
///
/// A document's tags are judged before its body, as far as they were
/// read: a member that stops the pass is reported unless a tag met
/// before it is refused, and a body read through is judged by every
/// tag, then by its missing fields.
///
/// # Errors
///
/// The first tag `check` refuses, else the body's decode error.
pub fn read_tagged<S: Source, T, const N: usize>(
    src: &mut S,
    tags: [&str; N],
    body: impl FnOnce(&mut S, &mut Other<'_, S>) -> Result<Result<T, String>, String>,
    mut check: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<T, String> {
    let mut seen: [Option<String>; N] = [const { None }; N];
    let pass = body(src, &mut |src, key| {
        match tags.iter().position(|&tag| tag == key) {
            Some(i) if seen[i].is_none() => seen[i] = Some(src.tag()?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    for (i, tag) in seen.iter().enumerate() {
        match (tag, &pass) {
            (Some(tag), _) => check(i, tag)?,
            (None, Ok(_)) => check(i, "")?,
            (None, Err(_)) => {}
        }
    }
    pass?
}

/// [`read_tagged`]'s check of a schema tag: `got` must be `expected`.
///
/// # Errors
///
/// `schema "<got>", expected "<expected>"`.
pub fn schema(got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("schema {got:?}, expected {expected:?}"))
    }
}

/// Why JSON text did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The text is not JSON: the byte offset where it stops being JSON.
    Syntax(String),
    /// The text is JSON of the wrong shape: a path and a complaint.
    Decode(String),
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::Syntax(e) | TextError::Decode(e) => f.write_str(e),
        }
    }
}

impl From<TextError> for String {
    fn from(e: TextError) -> String {
        e.to_string()
    }
}

/// The tokenizer: a [`Source`] over JSON text.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// The first syntax error met. Once set, every method has failed
    /// and the decoder is unwinding.
    failed: Option<String>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`: private, because only
    /// [`read_all`](Reader::read_all) reports its syntax errors.
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            failed: None,
        }
    }

    /// Decode the whole of `text` with `read`, which consumes one value;
    /// only whitespace may follow it.
    ///
    /// # Errors
    ///
    /// A syntax error if the text stops being JSON before `read` is
    /// done, else `read`'s decode error, else trailing data.
    pub fn read_all<T>(
        text: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<T, TextError> {
        let mut r = Reader::new(text);
        let value = read(&mut r);
        if let Some(e) = r.failed.take() {
            return Err(TextError::Syntax(e));
        }
        let value = value.map_err(TextError::Decode)?;
        r.skip_ws();
        if r.pos != r.bytes.len() {
            return Err(TextError::Syntax(format!(
                "trailing data at byte {}",
                r.pos
            )));
        }
        Ok(value)
    }

    /// Keep `msg` as the syntax error (the first one stands) and give
    /// the decoder an error to unwind with; the path it gathers on the
    /// way out is dropped by [`read_all`](Reader::read_all).
    fn fail(&mut self, msg: String) -> String {
        self.failed.get_or_insert(msg);
        String::new()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token.
    #[inline]
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.fail(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// The error for a value of the wrong kind: scalars are shown,
    /// containers only named. The value is read first (a container is
    /// skipped, not built), so text that is not JSON is reported as such.
    fn mismatch(&mut self, what: &str) -> String {
        let got = match self.next_byte() {
            Some(b'[') => self.skip().map(|()| JsonValue::Arr(Vec::new())),
            Some(b'{') => self.skip().map(|()| JsonValue::Obj(Vec::new())),
            _ => JsonValue::read(self),
        };
        match got {
            Ok(v) => expected(what, &v),
            Err(e) => e,
        }
    }

    /// The number token at `pos`: an optional `-`, then every byte of
    /// `0-9 . e E + -`. Returns its offset and text.
    fn number_token(&mut self) -> (usize, &'a str) {
        let start = self.pos;
        if self.bytes.get(start) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        (start, &self.text[start..self.pos])
    }

    /// The plain integer token at `pos`, consumed, if it lies on the
    /// double grid: its own value, which `str::parse::<f64>` and
    /// [`dec_u64`] read too.
    fn plain_integer(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut end = start;
        let mut v = 0u64;
        while let Some(&d @ b'0'..=b'9') = self.bytes.get(end) {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            end += 1;
        }
        let more = matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        // 16 digits cannot wrap, and 2^53 has 16.
        let exact = end > start && !more && end - start <= 16 && v <= 1 << 53;
        exact.then(|| {
            self.pos = end;
            v
        })
    }

    fn number(&mut self) -> Result<f64, String> {
        if let Some(v) = self.plain_integer() {
            return Ok(v as f64);
        }
        let (start, token) = self.number_token();
        token
            .parse::<f64>()
            .map_err(|_| self.fail(format!("bad number at byte {start}")))
    }

    /// Enter the array or object whose bracket is at `pos`.
    fn open(&mut self) -> Result<(), String> {
        // A decoder recurses once per level: bounded here, not by the input.
        if self.depth == MAX_DEPTH {
            let at = self.pos;
            return Err(self.fail(format!("nesting deeper than {MAX_DEPTH} at byte {at}")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// The byte at `pos` closes the container: leave it.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// The string whose opening quote is at `pos`: a slice of the input
    /// unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1;
        let start = self.pos;
        let run = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        let Some(len) = run else {
            self.pos = self.bytes.len();
            return Err(self.fail("unterminated string".to_string()));
        };
        self.pos = start + len;
        // Both delimiters are ASCII, so the slice ends on a char boundary.
        let plain = &self.text[start..self.pos];
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut s = plain.to_string();
        self.unescape(&mut s)?;
        Ok(Cow::Owned(s))
    }

    /// The rest of a string from a backslash at `pos`, onto `s`.
    fn unescape(&mut self, s: &mut String) -> Result<(), String> {
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.fail(format!("truncated escape at byte {}", self.pos)));
                    };
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
                            let Some(hex) = self.text.get(self.pos..self.pos + 4) else {
                                let at = self.pos;
                                return Err(self.fail(format!("truncated \\u escape at byte {at}")));
                            };
                            let Ok(code) = u32::from_str_radix(hex, 16) else {
                                return Err(
                                    self.fail(format!("bad \\u escape at byte {}", self.pos))
                                );
                            };
                            self.pos += 4;
                            // Surrogates (emitted only for exotic input)
                            // decode to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => {
                            let at = self.pos - 1;
                            return Err(self.fail(format!("unknown escape at byte {at}")));
                        }
                    }
                }
                Some(_) => {
                    // A run of plain bytes in one go.
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos = start + len;
                    s.push_str(&self.text[start..self.pos]);
                }
                None => return Err(self.fail("unterminated string".to_string())),
            }
        }
    }
}

impl Source for Reader<'_> {
    #[inline]
    fn kind(&mut self) -> Result<Kind, String> {
        match self.next_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(self.fail(format!("unexpected input at byte {}", self.pos))),
        }
    }

    #[inline]
    fn null(&mut self) -> Result<bool, String> {
        if self.next_byte() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.next_byte() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.mismatch("bool")),
        }
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, String> {
        match self.next_byte() {
            // A plain integer on the double grid is its own value;
            // anything else goes the tree's way, through an f64.
            Some(b'-' | b'0'..=b'9') => match self.plain_integer() {
                Some(v) => Ok(v),
                None => dec_u64(&JsonValue::Num(self.number()?)),
            },
            Some(b'"') => dec_u64_str(&self.string()?),
            _ => Err(self.mismatch("u64")),
        }
    }

    fn f64(&mut self) -> Result<f64, String> {
        match self.next_byte() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.mismatch("number")),
        }
    }

    #[inline]
    fn str(&mut self) -> Result<Cow<'_, str>, String> {
        match self.next_byte() {
            Some(b'"') => self.string(),
            _ => Err(self.mismatch("string")),
        }
    }

    fn array<F>(&mut self, mut each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, usize) -> Result<(), String>,
    {
        if self.next_byte() != Some(b'[') {
            return Err(self.mismatch("array"));
        }
        self.open()?;
        if self.next_byte() == Some(b']') {
            self.close();
            return Ok(());
        }
        for i in 0.. {
            each(self, i)?;
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => break,
                _ => return Err(self.fail(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
        self.close();
        Ok(())
    }

    fn object<F>(&mut self, mut each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, &str) -> Result<(), String>,
    {
        if self.next_byte() != Some(b'{') {
            return Err(self.mismatch("object"));
        }
        self.open()?;
        if self.next_byte() == Some(b'}') {
            self.close();
            return Ok(());
        }
        loop {
            if self.next_byte() != Some(b'"') {
                return Err(self.fail(format!("expected '\"' at byte {}", self.pos)));
            }
            let key = self.string()?;
            if self.next_byte() != Some(b':') {
                return Err(self.fail(format!("expected ':' at byte {}", self.pos)));
            }
            self.pos += 1;
            each(self, &key)?;
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => break,
                _ => return Err(self.fail(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
        self.close();
        Ok(())
    }

    fn skip(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => self.array(|r, _| r.skip()),
            Kind::Obj => self.object(|r, _| r.skip()),
        }
    }
}

/// A [`Source`] over a parsed tree: the same decoders, for callers that
/// hold a [`JsonValue`]. Skipping costs nothing, the tree being checked
/// already.
pub struct Tree<'a> {
    next: &'a JsonValue,
}

impl<'a> Tree<'a> {
    /// A source whose one value is `v`.
    pub fn new(v: &'a JsonValue) -> Tree<'a> {
        Tree { next: v }
    }
}

impl Source for Tree<'_> {
    #[inline]
    fn kind(&mut self) -> Result<Kind, String> {
        Ok(match self.next {
            JsonValue::Null => Kind::Null,
            JsonValue::Bool(_) => Kind::Bool,
            JsonValue::Num(_) => Kind::Num,
            JsonValue::Str(_) => Kind::Str,
            JsonValue::Arr(_) => Kind::Arr,
            JsonValue::Obj(_) => Kind::Obj,
        })
    }

    #[inline]
    fn null(&mut self) -> Result<bool, String> {
        Ok(matches!(self.next, JsonValue::Null))
    }

    #[inline]
    fn bool(&mut self) -> Result<bool, String> {
        match self.next {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(expected("bool", other)),
        }
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, String> {
        dec_u64(self.next)
    }

    #[inline]
    fn f64(&mut self) -> Result<f64, String> {
        let v = self.next;
        v.as_f64().ok_or_else(|| expected("number", v))
    }

    #[inline]
    fn str(&mut self) -> Result<Cow<'_, str>, String> {
        match self.next {
            JsonValue::Str(s) => Ok(Cow::Borrowed(s)),
            other => Err(expected("string", other)),
        }
    }

    #[inline]
    fn array<F>(&mut self, mut each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, usize) -> Result<(), String>,
    {
        let JsonValue::Arr(items) = self.next else {
            return Err(expected("array", self.next));
        };
        for (i, item) in items.iter().enumerate() {
            self.next = item;
            each(self, i)?;
        }
        Ok(())
    }

    #[inline]
    fn object<F>(&mut self, mut each: F) -> Result<(), String>
    where
        F: FnMut(&mut Self, &str) -> Result<(), String>,
    {
        let JsonValue::Obj(members) = self.next else {
            return Err(expected("object", self.next));
        };
        for (key, value) in members {
            self.next = value;
            each(self, key)?;
        }
        Ok(())
    }

    #[inline]
    fn skip(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// A document read token by token into a tree: [`JsonValue::parse`] on
/// a [`Reader`], a deep copy on a [`Tree`].
impl FromJson for JsonValue {
    fn read<S: Source>(src: &mut S) -> Result<Self, String> {
        Ok(match src.kind()? {
            Kind::Null => {
                src.null()?;
                JsonValue::Null
            }
            Kind::Bool => JsonValue::Bool(src.bool()?),
            Kind::Num => JsonValue::Num(src.f64()?),
            Kind::Str => JsonValue::Str(src.str()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                src.array(|src, _| {
                    items.push(JsonValue::read(src)?);
                    Ok(())
                })?;
                JsonValue::Arr(items)
            }
            Kind::Obj => {
                let mut members = Vec::new();
                src.object(|src, key| {
                    members.push((key.to_string(), JsonValue::read(src)?));
                    Ok(())
                })?;
                JsonValue::Obj(members)
            }
        })
    }
}

/// `T` straight from `text`, either error as a string.
#[cfg(test)]
pub(crate) fn from_text<T: FromJson>(text: &str) -> Result<T, String> {
    Reader::read_all(text, T::read).map_err(String::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `T` from `text` by both routes: straight off the text, and through
    /// the tree [`JsonValue::parse`] builds.
    fn routes<T: FromJson>(text: &str) -> (Result<T, String>, Result<T, String>) {
        let tree = JsonValue::parse(text).and_then(|doc| T::from_json_value(&doc));
        (from_text(text), tree)
    }

    #[test]
    fn the_integer_fast_path_reads_what_the_tree_reads() {
        let grid = 1u64 << 53;
        let tokens = [
            "0".to_string(),
            "-0".to_string(),
            grid.to_string(),
            (grid + 1).to_string(),
            "123456789012345".to_string(),
            "1234567890123456".to_string(),
            "9999999999999999".to_string(),
            "12345678901234567".to_string(),
            "007".to_string(),
            "1e3".to_string(),
            "5.0".to_string(),
            "-1".to_string(),
            format!("\"{}\"", u64::MAX),
        ];
        for token in &tokens {
            let (text, tree) = routes::<u64>(token);
            assert_eq!(text, tree, "{token}");
            let (text, tree) = routes::<Vec<u64>>(&format!("[{token},{token}]"));
            assert_eq!(text, tree, "[{token},{token}]");
            if !token.starts_with('"') {
                let (text, tree) = routes::<f64>(token);
                let parsed = token.parse::<f64>().unwrap();
                assert_eq!(text.map(f64::to_bits), Ok(parsed.to_bits()), "{token}");
                assert_eq!(tree.map(f64::to_bits), Ok(parsed.to_bits()), "{token}");
            }
        }
        // The cases the grid decides: exact up to 2^53, rounded onto it
        // just above (as the tree reads it), refused past it.
        assert_eq!(from_text::<u64>(&grid.to_string()), Ok(grid));
        assert_eq!(from_text::<u64>(&(grid + 1).to_string()), Ok(grid));
        assert_eq!(
            from_text::<u64>("1234567890123456"),
            Ok(1_234_567_890_123_456)
        );
        assert!(from_text::<u64>("9999999999999999").is_err());
        assert!(from_text::<u64>("12345678901234567").is_err());
        assert_eq!(from_text::<u64>("007"), Ok(7));
        assert_eq!(from_text::<u64>("1e3"), Ok(1000));
        assert_eq!(from_text::<u64>("-0"), Ok(0));
        assert_eq!(from_text::<u64>("-1"), Err(": expected u64, got -1".into()));
        assert_eq!(from_text::<u8>("256"), Err(": value exceeds u8".into()));
    }
}
