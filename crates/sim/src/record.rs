//! The one line codec under the workspace's text artifacts: chaos plans
//! and replay artifacts, model divergences, flight dumps (DESIGN.md §20).
//!
//! A line is whitespace-separated tokens: *bare words* (`drop-burst`,
//! `0x6b`) and *fields* (`dur=5000`). A [`Writer`] emits tokens in call
//! order; a [`Reader`] hands bare words out in order and fields by key in
//! any order, and [`Reader::finish`] rejects whatever nobody asked for.
//! Token text comes from [`Value`]; there is no quoting, so a value cannot
//! hold whitespace. An enum whose variants are line kinds — or `kind:arg`
//! words, the same thing with `:` between the tokens — lists each
//! variant's word and fields once in [`kinds!`](crate::kinds), and both
//! directions are generated from that list.

use crate::{Dur, Time};

/// Builds one line (or one `kind:arg` word) token by token.
#[derive(Debug)]
pub struct Writer {
    out: String,
    sep: char,
}

impl Writer {
    /// An empty line whose tokens will be joined by `sep`.
    pub fn new(sep: char) -> Writer {
        let out = String::new();
        Writer { out, sep }
    }

    /// Appends `key=text`: the bare `text` when `key` is empty.
    pub fn token(&mut self, key: &str, text: &str) -> &mut Writer {
        if !self.out.is_empty() {
            self.out.push(self.sep);
        }
        if !key.is_empty() {
            self.out += key;
            self.out.push('=');
        }
        self.out += text;
        self
    }

    /// Appends a bare word.
    pub fn word(&mut self, word: &str) -> &mut Writer {
        self.token("", word)
    }

    /// Appends `key=value`: the bare value when `key` is empty, nothing
    /// for a `None`.
    pub fn field<T: Value>(&mut self, key: &str, value: &T) -> &mut Writer {
        if let Some(text) = value.put() {
            self.token(key, &text);
        }
        self
    }

    /// The finished line.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One tokenised line. Every token is taken at most once; what is left
/// at [`finish`](Reader::finish) is an error.
#[derive(Debug)]
pub struct Reader<'a> {
    /// `(key, value)` per remaining token; a bare word has an empty key.
    toks: Vec<Option<(&'a str, &'a str)>>,
}

impl<'a> Reader<'a> {
    /// Tokenises a line on whitespace; `key=value` tokens become fields.
    pub fn new(line: &'a str) -> Reader<'a> {
        let tok = |t: &'a str| match t.split_once('=') {
            Some((k, v)) if !k.is_empty() => Some((k, v)),
            _ => Some(("", t)),
        };
        let toks = line.split_whitespace().map(tok).collect();
        Reader { toks }
    }

    /// Splits one token on `sep` into bare words (`kind:arg`, `c/s/q`).
    pub fn split(token: &'a str, sep: char) -> Reader<'a> {
        let toks = token.split(sep).map(|t| Some(("", t))).collect();
        Reader { toks }
    }

    /// Takes the first remaining token under `key`: the next bare word
    /// when `key` is empty.
    pub fn take(&mut self, key: &str) -> Option<&'a str> {
        let mut left = self.toks.iter_mut();
        let tok = left.find(|t| t.is_some_and(|(k, _)| k == key))?;
        tok.take().map(|(_, v)| v)
    }

    /// Takes the token under `key`, if any, and decodes it with `get`;
    /// the error names the field (whatever `get` says of a token that is
    /// not there, it reads "missing").
    fn decode<T>(
        &mut self,
        key: &str,
        get: impl FnOnce(Option<&'a str>) -> Result<T, String>,
    ) -> Result<T, String> {
        let tok = self.take(key);
        get(tok).map_err(|e| match (key, tok) {
            ("", None) => "missing value".to_string(),
            (_, None) => format!("missing `{key}=`"),
            ("", Some(v)) => format!("bad value `{v}`: {e}"),
            (_, Some(v)) => format!("bad `{key}={v}`: {e}"),
        })
    }

    /// Reads the field `key` (the next bare word when empty) as a `T`.
    pub fn field<T: Value>(&mut self, key: &str) -> Result<T, String> {
        self.decode(key, T::get)
    }

    /// Reads a token that must be there with `get` instead of a [`Value`].
    pub fn token<T>(
        &mut self,
        key: &str,
        get: impl FnOnce(&'a str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.decode(key, |s| get(s.ok_or("absent")?))
    }

    /// Ends the line: any token nobody took is an error.
    pub fn finish(self) -> Result<(), String> {
        match self.toks.into_iter().flatten().next() {
            None => Ok(()),
            Some(("", word)) => Err(format!("unexpected `{word}`")),
            Some((k, v)) => Err(format!("unexpected `{k}={v}`")),
        }
    }
}

/// The record lines of a text: trimmed, without blank lines and `#`
/// comments.
pub fn lines(text: &str) -> impl Iterator<Item = &str> {
    let lines = text.lines().map(str::trim);
    lines.filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// The text of one token: decimal integers parsed into their own width,
/// `true`/`false`, [`Dur`]/[`Time`] as nanoseconds, byte strings as `0x`
/// hex. An `Option` is a field that may be absent.
pub trait Value: Sized {
    /// The token text; `None` leaves the field out of the line.
    fn put(&self) -> Option<String>;
    /// Parses the token; `None` when the line has none.
    fn get(token: Option<&str>) -> Result<Self, String>;
}

macro_rules! values {
    ($($t:ty: $put:expr, $get:expr;)*) => {$(
        impl Value for $t {
            fn put(&self) -> Option<String> {
                Some(($put)(self))
            }
            fn get(token: Option<&str>) -> Result<$t, String> {
                ($get)(token.ok_or("absent")?)
            }
        }
    )*};
    ($($t:ty),*) => {
        values! { $($t: <$t>::to_string, |s: &str| s.parse().map_err(|e| format!("{e}"));)* }
    };
}
values!(u8, u16, u32, u64, usize, bool);
values! {
    Dur: |d: &Dur| d.as_nanos().to_string(), |s| u64::get(Some(s)).map(Dur::nanos);
    Time: |t: &Time| t.as_nanos().to_string(), |s| u64::get(Some(s)).map(Time::from_nanos);
    Vec<u8>: |b: &Vec<u8>| hex(b), unhex;
}

impl<T: Value> Value for Option<T> {
    fn put(&self) -> Option<String> {
        self.as_ref().and_then(T::put)
    }
    fn get(token: Option<&str>) -> Result<Option<T>, String> {
        token.map(|s| T::get(Some(s))).transpose()
    }
}

/// `0x`-prefixed lowercase hex of a byte string (`0x` alone = empty).
pub fn hex(bytes: &[u8]) -> String {
    let digits = bytes.iter().map(|b| format!("{b:02x}"));
    std::iter::once("0x".to_string()).chain(digits).collect()
}

/// The bytes of a [`hex`] string.
pub fn unhex(s: &str) -> Result<Vec<u8>, String> {
    let digits = s.strip_prefix("0x").ok_or("expected 0x-prefixed hex")?;
    if digits.len() % 2 != 0 {
        return Err("odd number of hex digits".into());
    }
    // Decoded over bytes, not `&str` slices: input need not be ASCII.
    let nibble = |c: u8| (c as char).to_digit(16).ok_or("not a hex digit");
    let byte =
        |p: &[u8]| -> Result<u8, String> { Ok(((nibble(p[0])? << 4) | nibble(p[1])?) as u8) };
    digits.as_bytes().chunks(2).map(byte).collect()
}

/// A token codec for a type that has no [`Value`] here (or needs another
/// text): its renderer and its parser, for a `=> CODEC` of
/// [`kinds!`](crate::kinds).
#[derive(Debug)]
pub struct Token<T>(pub fn(&T) -> String, pub fn(&str) -> Result<T, String>);

impl<T> Token<T> {
    /// The token text of `value`.
    pub fn put(&self, value: &T) -> String {
        (self.0)(value)
    }

    /// Parses the token text.
    pub fn get(&self, s: &str) -> Result<T, String> {
        (self.1)(s)
    }
}

/// The line kinds of one enum as [`kinds!`](crate::kinds) generates them:
/// a renderer and a parser from one list.
#[derive(Debug)]
pub struct Kinds<T> {
    #[doc(hidden)]
    pub what: &'static str,
    #[doc(hidden)]
    pub write: fn(&T, &mut Writer),
    #[doc(hidden)]
    pub read: fn(&str, &mut Reader<'_>) -> Result<T, String>,
}

impl<T> Kinds<T> {
    /// Appends `value`'s word and fields to `w`.
    pub fn write(&self, value: &T, w: &mut Writer) {
        (self.write)(value, w);
    }

    /// Reads the next bare word as the kind, then that kind's fields.
    pub fn read(&self, r: &mut Reader<'_>) -> Result<T, String> {
        let missing = || format!("missing {}", self.what);
        (self.read)(r.take("").ok_or_else(missing)?, r)
    }

    /// `value` as one `kind:arg` token.
    pub fn put(&self, value: &T) -> String {
        let mut w = Writer::new(':');
        self.write(value, &mut w);
        w.finish()
    }

    /// Parses a `kind:arg` token.
    pub fn get(&self, s: &str) -> Result<T, String> {
        let mut r = Reader::split(s, ':');
        let value = self.read(&mut r)?;
        r.finish().map(|()| value)
    }
}

/// Declares the line kinds of an enum and evaluates to the
/// [`Kinds`](crate::record::Kinds) that renders and parses them. Each arm
/// is `"word" => Variant { field: "key", .. }` (a one-field tuple variant
/// as `Variant(name)`, a unit variant bare); an empty key makes the field
/// a bare word. `field: "key" => CODEC` moves the token through
/// `CODEC.put` / `CODEC.get` — a [`Token`](crate::record::Token), or
/// another `Kinds` for a `kind:arg` word — instead of
/// [`Value`](crate::record::Value). A final `_ => Variant(KINDS)` hands
/// every other word to the wrapped enum's kinds. The first argument names
/// the enum in `unknown …` errors.
///
/// ```
/// use pmnet_sim::record::{Kinds, Reader, Writer};
/// use pmnet_sim::{kinds, Dur};
///
/// #[derive(Debug, PartialEq)]
/// enum Step { Wait { dur: Dur, why: Option<u8> }, Jump(u32), Stop }
/// const STEP: Kinds<Step> = kinds!("step", Step {
///     "wait" => Wait { dur: "for", why: "why" },
///     "jump" => Jump(to),
///     "stop" => Stop,
/// });
///
/// let mut w = Writer::new(' ');
/// STEP.write(&Step::Wait { dur: Dur::micros(2), why: None }, w.field("at", &5u8));
/// assert_eq!(w.finish(), "at=5 wait for=2000");
/// let mut r = Reader::new("wait why=7 for=2000 at=5");
/// assert_eq!(STEP.read(&mut r), Ok(Step::Wait { dur: Dur::micros(2), why: Some(7) }));
/// assert_eq!(r.finish(), Err("unexpected `at=5`".into()));
/// assert_eq!(STEP.put(&Step::Jump(9)), "jump:9");
/// assert_eq!(STEP.get("hop"), Err("unknown step `hop`".into()));
/// ```
#[macro_export]
macro_rules! kinds {
    ($what:literal, $ty:ident {
        $( $word:literal => $var:ident
            $( { $( $field:ident : $key:literal $( => $codec:expr )? ),* $(,)? } )?
            $( ( $arg:ident $( => $acodec:expr )? ) )?
        ),* $(,)?
        $( _ => $dvar:ident ( $delegate:expr ) $(,)? )?
    }) => {
        $crate::record::Kinds {
            what: $what,
            write: |value: &$ty, w: &mut $crate::record::Writer| match value {
                $( $ty::$var $( { $( $field ),* } )? $( ( $arg ) )? => {
                    w.word($word);
                    $( $( $crate::kinds!(@put w, $key, $field $(, $codec)?); )* )?
                    $( $crate::kinds!(@put w, "", $arg $(, $acodec)?); )?
                } )*
                $( $ty::$dvar(inner) => $delegate.write(inner, w), )?
            },
            read: |word: &str, r: &mut $crate::record::Reader<'_>| {
                let _ = &r;
                match word {
                    $( $word => Ok($ty::$var
                        $( { $( $field: $crate::kinds!(@get r, $key $(, $codec)?) ),* } )?
                        $( ( $crate::kinds!(@get r, "" $(, $acodec)?) ) )?
                    ), )*
                    other => $crate::kinds!(@other $what, other, r $(, $ty::$dvar, $delegate)?),
                }
            },
        }
    };
    (@put $w:ident, $key:literal, $v:ident) => {
        $w.field($key, $v)
    };
    (@put $w:ident, $key:literal, $v:ident, $codec:expr) => {
        $w.token($key, &$codec.put($v))
    };
    (@get $r:ident, $key:literal) => {
        $r.field($key)?
    };
    (@get $r:ident, $key:literal, $codec:expr) => {
        $r.token($key, |s| $codec.get(s))?
    };
    (@other $what:literal, $word:ident, $r:ident) => {
        Err(format!("unknown {} `{}`", $what, $word))
    };
    (@other $what:literal, $word:ident, $r:ident, $wrap:path, $delegate:expr) => {
        ($delegate.read)($word, $r).map($wrap)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_what_it_did_not_write() {
        for bytes in [&b""[..], &b"\x00"[..], &b"hello\xff\x00world"[..]] {
            assert_eq!(unhex(&hex(bytes)).unwrap(), bytes.to_vec());
        }
        for bad in ["6b", "0x6", "0xzz", "0xa\u{e9}b", "0x+1"] {
            assert!(unhex(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_parse_into_their_own_width() {
        let mut r = Reader::new("device=300 node=7");
        let e = r.field::<u8>("device").unwrap_err();
        assert!(e.contains("bad `device=300`"), "{e}");
        assert_eq!(r.field::<u32>("node"), Ok(7));
        assert_eq!(r.field::<Option<u32>>("node"), Ok(None), "taken once");
        assert_eq!(r.field::<u32>("node"), Err("missing `node=`".into()));
        assert_eq!(Reader::split("7", ':').field::<Dur>(""), Ok(Dur::nanos(7)));
        assert_eq!(Reader::new("").field::<u8>(""), Err("missing value".into()));
    }
}
