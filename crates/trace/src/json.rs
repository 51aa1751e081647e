//! The workspace's one JSON reader and string escaper.
//!
//! The workspace carries no serde dependency, and every crate that reads
//! or writes JSON already depends on this one, so the subset they need
//! lives here once: [`escape_into`] for the hand-formatted writers, and a
//! single-pass [`Reader`] over a `&str` for the two readers — the flat
//! admission wire of `rtpool-serve` ([`Reader::document`] +
//! [`Reader::scalar`]: one object of strings, unsigned integers, booleans
//! and `null`) and the Chrome trace import ([`Reader::value`]: arrays,
//! nested objects and floats as well, at most [`MAX_DEPTH`] deep).
//!
//! Errors are plain sentences naming a byte offset; callers wrap them in
//! their own error type.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Reader::value`] follows. The reader
/// recurses once per level and its input comes from outside the program,
/// so the depth is bounded rather than left to the stack.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// `"`, `\`, newline, carriage return and tab by their short escapes,
/// other control characters as `\u00XX`, everything else as it is.
pub fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so the run before one ends on a char
        // boundary.
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "\\u{b:04x}");
        }
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A JSON value. String bodies and keys that needed no unescaping borrow
/// from the text they were read from.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written as unsigned digits only — kept exact so `u64`
    /// ids, sequence numbers and nanosecond stamps survive.
    Num(u64),
    /// Any other number (signed, fractional or with an exponent).
    Float(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object, members in document order.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The first member named `key`, when this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, when this is an unsigned integer that fits `u32`.
    #[must_use]
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The body, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A single-pass JSON reader over one `&str`.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers [`Reader::value`] is inside of right now.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    /// Walks the whole text as one object — nothing but whitespace may
    /// follow it — calling `member` with each key while positioned on that
    /// key's value, which `member` must read (with [`Reader::scalar`] or
    /// [`Reader::value`]).
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first error `member` returns.
    pub fn document(
        &mut self,
        member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.members(member)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(())
    }

    /// Walks one object from its `{` to its `}`.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut more = self.bytes.get(self.pos) != Some(&b'}');
        self.pos += usize::from(!more);
        while more {
            self.skip_ws();
            let key = self.string(true)?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            more = match self.bytes.get(self.pos) {
                Some(b',') => true,
                Some(b'}') => false,
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            };
            self.pos += 1;
        }
        Ok(())
    }

    /// Reads one string, unsigned integer, boolean or `null` at the
    /// current position; anything else — a container, a sign — is an
    /// error. With `keep` unset a string is checked the same way but its
    /// body comes back empty.
    ///
    /// # Errors
    ///
    /// `unexpected value at byte N`, or what is wrong with the scalar.
    #[inline]
    pub fn scalar(&mut self, keep: bool) -> Result<Value<'a>, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(Value::Str(self.string(keep)?)),
            Some(b'0'..=b'9') => self.number(false),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    /// Reads any JSON value at the current position (leading whitespace
    /// skipped), following containers at most [`MAX_DEPTH`] deep.
    ///
    /// # Errors
    ///
    /// The first syntax error, or `nesting too deep at byte N`.
    pub fn value(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        let open = match self.bytes.get(self.pos) {
            Some(b'-' | b'0'..=b'9') => return self.number(true),
            Some(&b @ (b'[' | b'{')) => b,
            _ => return self.scalar(true),
        };
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        let value = if open == b'{' {
            let mut members = Vec::new();
            self.members(|reader, key| {
                members.push((key, reader.value()?));
                Ok(())
            })?;
            Value::Object(members)
        } else {
            Value::Array(self.elements()?)
        };
        self.depth -= 1;
        Ok(value)
    }

    /// Reads one array from its `[` to its `]`.
    fn elements(&mut self) -> Result<Vec<Value<'a>>, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        let mut more = self.bytes.get(self.pos) != Some(&b']');
        self.pos += usize::from(!more);
        while more {
            items.push(self.value()?);
            self.skip_ws();
            more = match self.bytes.get(self.pos) {
                Some(b',') => true,
                Some(b']') => false,
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            };
            self.pos += 1;
        }
        Ok(items)
    }

    #[inline]
    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected value at byte {}", self.pos))
        }
    }

    /// Reads a run of digits as a [`Value::Num`]; with `fractional` set
    /// the run may also hold a sign, a fraction and an exponent, and one
    /// that does is a [`Value::Float`].
    #[inline]
    fn number(&mut self, fractional: bool) -> Result<Value<'a>, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            b.is_ascii_digit() || (fractional && matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        }) {
            self.pos += 1;
        }
        let digits = &self.text[start..self.pos];
        if digits.bytes().all(|b| b.is_ascii_digit()) {
            digits
                .parse()
                .map(Value::Num)
                .map_err(|_| format!("number out of range at byte {start}"))
        } else {
            digits
                .parse()
                .map(Value::Float)
                .map_err(|_| format!("invalid number at byte {start}"))
        }
    }

    /// Reads one string literal. A body that ends within its first 32
    /// bytes is found a word at a time ([`first_of`]) and borrowed. Any
    /// other is walked a [`BLOCK`] at a time: every `"` and `\` of a
    /// block is found first, as one bitmask ([`specials`]), and the walk
    /// then goes from set bit to set bit, so no byte between two of them
    /// is looked at again. A body without escapes is borrowed. At its
    /// first escape the body gets its one allocation, as long as the
    /// whole literal ([`literal_end`]): unescaping only shrinks text, and
    /// the capacity never depends on what follows the literal in the
    /// document. Each run of text before a short escape is copied into it
    /// by one 16-byte move ([`short_escapes`]); the bytes a move writes
    /// past the run are overwritten by what follows. Every run starts and
    /// ends on a char boundary (`"` and `\` are ASCII and the text is a
    /// `&str`), so the body's one UTF-8 check, when it becomes a
    /// `String`, cannot fail. With `keep` unset the body is checked
    /// through the same walk but comes back empty, and nothing is
    /// allocated.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let (body, quote) = if keep {
            unescape::<true>(self.text, self.pos)
        } else {
            unescape::<false>(self.text, self.pos)
        }?;
        self.pos = quote + 1;
        Ok(body)
    }
}

/// Bytes per step of the string walk: one bit of a `u64` mask each.
const BLOCK: usize = 64;

/// What each short escape's second byte stands for; 0 where it is not
/// one (`u` included: it takes four hex digits).
static SHORT: [u8; 256] = {
    let mut short = [0; 256];
    short[b'"' as usize] = b'"';
    short[b'\\' as usize] = b'\\';
    short[b'/' as usize] = b'/';
    short[b'n' as usize] = b'\n';
    short[b'r' as usize] = b'\r';
    short[b't' as usize] = b'\t';
    short[b'b' as usize] = 0x08;
    short[b'f' as usize] = 0x0C;
    short
};

/// Decodes the body of the string literal that starts at byte `first` of
/// `text` (just past its `"`). Returns the body (empty unless `KEEP`) and
/// the offset of the closing `"`.
fn unescape<const KEEP: bool>(text: &str, first: usize) -> Result<(Cow<'_, str>, usize), String> {
    let bytes = text.as_bytes();
    // Most literals (keys, short values) end within their first 32 bytes:
    // those are read a word at a time before any mask is made.
    let head = &bytes[first..bytes.len().min(first + 32)];
    if let Some(at) = first_of(head, b'"', b'\\') {
        if head[at] == b'"' {
            let body = if KEEP { &text[first..first + at] } else { "" };
            return Ok((Cow::Borrowed(body), first + at));
        }
    }
    let (mut block, mut run, mut out, mut o) = (first, first, Vec::new(), 0);
    loop {
        if block >= bytes.len() {
            return Err("unterminated string".to_string());
        }
        // A run may already be past the block's start: the second byte of
        // an escape, or the digits of a `\u`, that crossed into it.
        let mut mask = specials(&block_at(bytes, block)) & from_bit(run.saturating_sub(block));
        loop {
            mask = short_escapes::<KEEP>(bytes, block, mask, &mut run, &mut out, &mut o);
            if mask == 0 {
                break;
            }
            // What `short_escapes` leaves: the closing quote, the first
            // escape, a `\u`, a bad escape, or a run one move cannot take.
            let at = block + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if bytes[at] == b'"' {
                if run == first {
                    let body = if KEEP { &text[first..at] } else { "" };
                    return Ok((Cow::Borrowed(body), at));
                }
                if KEEP {
                    out[o..o + at - run].copy_from_slice(&bytes[run..at]);
                    out.truncate(o + at - run);
                }
                let body = String::from_utf8(out).expect("every run ends on a char boundary");
                return Ok((Cow::Owned(body), at));
            }
            if KEEP && run == first {
                match literal_end(bytes, at) {
                    Some(end) => out = vec![0; end - first],
                    // Unterminated, so an error whatever it holds: the walk
                    // without a body finds which.
                    None => return unescape::<false>(text, first),
                }
            }
            if KEEP {
                out[o..o + at - run].copy_from_slice(&bytes[run..at]);
                o += at - run;
            }
            let c = match bytes.get(at + 1) {
                Some(b'u') => {
                    let hex = bytes
                        .get(at + 2..at + 6)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| "invalid \\u escape".to_string())?;
                    run = at + 6;
                    // Neither writer emits surrogate pairs; reject rather
                    // than mis-decode them.
                    char::from_u32(code).ok_or_else(|| "surrogate \\u escape".to_string())?
                }
                Some(&e) if SHORT[usize::from(e)] != 0 => {
                    if e == b'"' || e == b'\\' {
                        // The escaped byte is the next bit, when it is in
                        // this block.
                        mask &= mask.wrapping_sub(1);
                    }
                    run = at + 2;
                    char::from(SHORT[usize::from(e)])
                }
                _ => return Err(format!("bad escape at byte {}", at + 1)),
            };
            if KEEP {
                o += c.encode_utf8(&mut out[o..]).len();
            }
        }
        block += BLOCK;
    }
}

/// Decodes the short escapes of `mask` (the specials of the block at
/// `block`) from its lowest bit on, each with the run before it copied
/// into `out` by one 16-byte move, and advances `run` (in `bytes`) and
/// `o` (in `out`) past them. Stops at the first special that is a quote,
/// not a short escape, or behind a run of more than 16 bytes or too near
/// the end of `bytes` or `out` for the move, and returns the mask from
/// that special on: 0 when the block is done. Nothing here calls out of
/// the loop, so its state stays in registers.
#[inline(never)]
fn short_escapes<const KEEP: bool>(
    bytes: &[u8],
    block: usize,
    mut mask: u64,
    run: &mut usize,
    out: &mut [u8],
    o: &mut usize,
) -> u64 {
    let (mut r, mut w) = (*run, *o);
    while mask != 0 {
        let at = block + mask.trailing_zeros() as usize;
        let Some(&[b'\\', e]) = bytes.get(at..at + 2) else {
            break;
        };
        let short = SHORT[usize::from(e)];
        if short == 0 {
            break;
        }
        if KEEP {
            let len = at - r;
            // The move writes 16 bytes and the escape's byte lands at most
            // one past them.
            if len > 16 || r + 16 > bytes.len() || w + 17 > out.len() {
                break;
            }
            out[w..w + 16].copy_from_slice(&bytes[r..r + 16]);
            out[w + len] = short;
            w += len + 1;
        }
        r = at + 2;
        mask &= mask - 1;
        if e == b'"' || e == b'\\' {
            mask &= mask.wrapping_sub(1);
        }
    }
    (*run, *o) = (r, w);
    mask
}

/// Every bit from bit `n` up; none when `n` is 64 or more.
fn from_bit(n: usize) -> u64 {
    u32::try_from(n)
        .ok()
        .and_then(|n| u64::MAX.checked_shl(n))
        .unwrap_or(0)
}

/// The [`BLOCK`] bytes of `bytes` from `at`, padded with zeros past its
/// end (a zero is neither `"` nor `\`).
#[inline]
fn block_at(bytes: &[u8], at: usize) -> [u8; BLOCK] {
    if let Some(block) = bytes.get(at..at + BLOCK) {
        return block.try_into().expect("a block's worth of bytes");
    }
    let mut block = [0; BLOCK];
    let tail = &bytes[at..];
    block[..tail.len()].copy_from_slice(tail);
    block
}

/// Bit `i` set where `block[i]` is `"` or `\`. The comparisons yield one
/// 0/1 byte per position (the compiler does them 16 lanes at a time);
/// multiplying eight such bytes by `0x0102…80` gathers byte `j`'s bit at
/// bit `56 + j`, and no other product reaches those eight bits.
#[inline]
fn specials(block: &[u8; BLOCK]) -> u64 {
    let flags: [u8; BLOCK] = std::array::from_fn(|i| u8::from(matches!(block[i], b'"' | b'\\')));
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |mask, (k, word)| {
            let word = u64::from_le_bytes(word.try_into().expect("eight flags"));
            mask | (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
        })
}

/// The offset in `bytes` of the first `a` or `b`, found eight bytes at a
/// time: a word XORed with eight copies of a byte has a zero byte exactly
/// where the word holds that byte, and `(x - 0x01…01) & !x & 0x80…80`
/// flags zero bytes. A flag can be spurious only above a real zero byte,
/// so the lowest flag of either test is the first match.
fn first_of(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let (a8, b8) = (u64::from_ne_bytes([a; 8]), u64::from_ne_bytes([b; 8]));
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = zero_bytes(word ^ a8) | zero_bytes(word ^ b8);
        if hits != 0 {
            return Some(base + hits.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    let tail = words.remainder().iter().position(|&c| c == a || c == b);
    tail.map(|i| base + i)
}

/// The offset of the `"` that closes the string literal whose body
/// continues at `at`, a byte no `\` escapes; `None` when the text ends
/// first. Each `\` escapes the one byte after it, so a `"` closes the
/// literal when the run of `\` right before it (back to `at`) is even.
/// Where the body decodes, its `\u` escapes hold hex digits only, so
/// this is where decoding stops. A block is tested for a `"` at all with
/// one comparison per byte and no mask, so a body with no `"` in it (an
/// `.rtp` source) costs one pass at that rate.
fn literal_end(bytes: &[u8], at: usize) -> Option<usize> {
    let mut block = at;
    while block < bytes.len() {
        let bytes_here = block_at(bytes, block);
        if bytes_here
            .iter()
            .fold(0, |any, &b| any | u8::from(b == b'"'))
            != 0
        {
            for (i, _) in bytes_here.iter().enumerate().filter(|&(_, &b)| b == b'"') {
                let quote = block + i;
                let escapes = bytes[at..quote].iter().rev().take_while(|&&c| c == b'\\');
                if escapes.count() % 2 == 0 {
                    return Some(quote);
                }
            }
        }
        block += BLOCK;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_into_uses_short_escapes_and_copies_the_rest() {
        let mut out = String::from(">");
        escape_into("a\"b\\c\nd\re\tf\u{1}g\u{1f}é≥\u{7f}", &mut out);
        assert_eq!(out, ">a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé≥\u{7f}");
    }

    #[test]
    fn value_reads_a_nested_document() {
        let text = r#" {"a": [1, -2, 1.5e3, "x\ny", true, null, [], {}],
                        "b": {"c": 18446744073709551615}, "a": 0} "#;
        let root = Reader::new(text).value().expect("reads");
        let items = [
            Value::Num(1),
            Value::Float(-2.0),
            Value::Float(1500.0),
            Value::Str(Cow::Borrowed("x\ny")),
            Value::Bool(true),
            Value::Null,
            Value::Array(vec![]),
            Value::Object(vec![]),
        ];
        // `get` answers with the first member of that name.
        assert_eq!(root.get("a"), Some(&Value::Array(items.to_vec())));
        assert_eq!(items[3].as_str(), Some("x\ny"));
        let c = root.get("b").and_then(|b| b.get("c"));
        assert_eq!(c.and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(c.and_then(Value::as_u32), None);
        assert_eq!(items[0].get("a"), None);
    }

    #[test]
    fn value_reports_where_the_text_breaks() {
        for (text, error) in [
            ("", "unexpected value at byte 0"),
            ("[1, 2", "expected ',' or ']' at byte 5"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}' at byte 7"),
            ("{a:1}", "expected '\"' at byte 1"),
            ("[tru]", "unexpected value at byte 1"),
            ("[1.2.3]", "invalid number at byte 1"),
            ("[18446744073709551616]", "number out of range at byte 1"),
            ("[\"abc", "unterminated string"),
            ("[\"\\q\"]", "bad escape at byte 3"),
            ("[\"\\ud800\"]", "surrogate \\u escape"),
        ] {
            assert_eq!(Reader::new(text).value(), Err(error.to_string()), "{text}");
        }
    }

    #[test]
    fn value_bounds_its_nesting() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Reader::new(&deepest).value().is_ok());
        let too_deep = format!("[{deepest}]");
        assert_eq!(
            Reader::new(&too_deep).value(),
            Err(format!("nesting too deep at byte {MAX_DEPTH}"))
        );
        // Unbounded recursion overflowed the stack on these.
        for unit in ["[", "{\"a\":"] {
            let error = Reader::new(&unit.repeat(200_000)).value().unwrap_err();
            assert!(error.starts_with("nesting too deep at byte "), "{error}");
        }
    }

    #[test]
    fn document_hands_out_scalars() {
        let mut seen = Vec::new();
        let walked = Reader::new(" {\"id\":7,\"s\":\"a\\tb\",\"skip\":\"a\\tb\",\"n\":null} ")
            .document(|reader, key| {
                seen.push(reader.scalar(key != "skip")?);
                Ok(())
            });
        assert_eq!(walked, Ok(()));
        let kept = |s: &'static str| Value::Str(Cow::Borrowed(s));
        assert_eq!(seen, [Value::Num(7), kept("a\tb"), kept(""), Value::Null]);
    }

    /// The decoder before the mask walk, kept as the reference the walk
    /// must agree with: one byte at a time, the body grown from empty.
    fn string_bytewise<'a>(r: &mut Reader<'a>, keep: bool) -> Result<Cow<'a, str>, String> {
        r.expect(b'"')?;
        let (first, mut run, mut out) = (r.pos, r.pos, String::new());
        loop {
            let stop = r.bytes[r.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            r.pos += stop + 1;
            let body = if keep { &r.text[run..r.pos - 1] } else { "" };
            if r.bytes[r.pos - 1] == b'"' {
                if run == first {
                    return Ok(Cow::Borrowed(body));
                }
                out.push_str(body);
                return Ok(Cow::Owned(out));
            }
            let c = match r.bytes.get(r.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = r
                        .bytes
                        .get(r.pos + 1..r.pos + 5)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let hex =
                        std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| "invalid \\u escape".to_string())?;
                    r.pos += 4;
                    char::from_u32(code).ok_or_else(|| "surrogate \\u escape".to_string())?
                }
                _ => return Err(format!("bad escape at byte {}", r.pos)),
            };
            r.pos += 1;
            run = r.pos;
            if keep {
                out.push_str(body);
                out.push(c);
            }
        }
    }

    /// What a literal body is made of: plain and multibyte text, every
    /// escape, malformed escapes, and bare `"` / `\` (a bare `"` ends the
    /// literal early; a trailing `\` escapes what follows it).
    const PIECES: [&str; 24] = [
        "a",
        "bcdefgh",
        "0123456789abcdef",
        " ",
        "é",
        "≥",
        "🦀",
        "\u{85}",
        "\"",
        "\\",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u00e9",
        "\\u2603",
        "\\ud800",
        "\\q",
        "\\u12",
        "\\u12\"3",
    ];

    /// Plain text the runs between pieces are cut from, multibyte chars
    /// included, so a 16-byte move also ends inside a char.
    const FILLER: &str = "abcdé≥🦀fghijklmnopqrstuvwxyzABCDEFGHIJ";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]
        #[test]
        fn word_scan_agrees_with_the_bytewise_decoder(
            (pad, pieces, closed, tail) in (
                0usize..BLOCK,
                proptest::collection::vec((0usize..21, 0usize..PIECES.len()), 0..64),
                proptest::prelude::any::<bool>(),
                0usize..16,
            )
        ) {
            // `pad` puts the literal, and so every piece, at every offset
            // mod 64 across cases; a run of 0-20 filler chars goes before
            // each piece, so most bodies are escape-dense; `tail` puts a
            // closing quote in each of the text's last 16 bytes.
            let mut text = format!("{}\"{}", " ".repeat(pad), "x".repeat(pad));
            for (run, piece) in pieces {
                text.extend(FILLER.chars().cycle().skip(pad).take(run));
                text.push_str(PIECES[piece]);
            }
            if closed {
                text.push('"');
            }
            text.push_str(&"y".repeat(tail));
            for keep in [true, false] {
                let (mut scan, mut bytewise) = (Reader::new(&text), Reader::new(&text));
                scan.pos = pad;
                bytewise.pos = pad;
                let (got, want) = (scan.string(keep), string_bytewise(&mut bytewise, keep));
                proptest::prop_assert_eq!(&got, &want, "{:?} keep={}", text, keep);
                if want.is_ok() {
                    proptest::prop_assert_eq!(scan.pos, bytewise.pos, "{:?}", text);
                }
                // A kept escaped body is sized once, by its literal.
                if let (true, Ok(Cow::Owned(body))) = (keep, &got) {
                    let literal = scan.pos - 1 - (pad + 1);
                    proptest::prop_assert_eq!(body.capacity(), literal, "{:?}", text);
                }
            }
        }
    }

    #[test]
    fn first_of_sees_every_offset() {
        for len in 0..40 {
            for at in 0..len {
                for b in [b'"', b'\\'] {
                    let mut bytes = vec![b'a'; len];
                    bytes[at] = b;
                    // Bytes that differ from `"`/`\` by one bit or sit
                    // one below them must not be mistaken for either.
                    bytes[..at].fill(b'"' ^ 0x80);
                    assert_eq!(first_of(&bytes, b'"', b'\\'), Some(at), "{len} {at}");
                    bytes[..at].fill(b'\\' - 1);
                    assert_eq!(first_of(&bytes, b'"', b'\\'), Some(at), "{len} {at}");
                }
            }
            assert_eq!(first_of(&vec![0xFF; len], b'"', b'\\'), None);
        }
    }

    #[test]
    fn specials_see_every_offset() {
        for at in 0..BLOCK {
            for b in [b'"', b'\\'] {
                let mut block = [b'a'; BLOCK];
                block[at] = b;
                // Bytes that differ from `"`/`\\` by one bit or sit one
                // below them must not be mistaken for either.
                block[..at].fill(b'"' ^ 0x80);
                assert_eq!(specials(&block), 1 << at, "{at}");
                block[..at].fill(b'\\' - 1);
                block[at + 1..].fill(b'"' + 1);
                assert_eq!(specials(&block), 1 << at, "{at}");
            }
        }
        // Every pattern of one eight-byte word, in every word of a block:
        // the gathering multiply carries nothing between bits.
        for word in 0..BLOCK / 8 {
            for pattern in 0..=u8::MAX {
                let mut block = [0xFF; BLOCK];
                for bit in 0..8 {
                    if pattern >> bit & 1 == 1 {
                        block[8 * word + bit] = if bit % 2 == 0 { b'"' } else { b'\\' };
                    }
                }
                assert_eq!(specials(&block), u64::from(pattern) << (8 * word));
            }
        }
    }
}
