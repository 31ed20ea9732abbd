//! A JSON value with a writer and a parser — enough for the result line,
//! the trace file, `BENCHMARK.json` and `check_repeat.sh`'s comparison.
//! (The workspace vendors no serde.)

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders on one line.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number, which JSON cannot carry: a metric
    /// that is NaN or infinite is a benchmark bug.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders for people: members of the top `depth` levels get a line
    /// each, anything deeper stays on its parent's line.
    pub fn pretty(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(depth), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, break_depth: Option<usize>, level: usize) {
        let breaks = break_depth.is_some_and(|d| level < d);
        // Before each element: a comma after the first, then a new line
        // (when this level breaks) or a space.
        let lead = |out: &mut String, first: bool| {
            if !first {
                out.push(',');
            }
            if breaks {
                out.push('\n');
                out.push_str(&"  ".repeat(level + 1));
            } else if !first {
                out.push(' ');
            }
        };
        let close = |out: &mut String, bracket: char, empty: bool| {
            if breaks && !empty {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push(bracket);
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON cannot carry {v}");
                // `Display` for f64 prints every digit needed to read the
                // same value back, and whole numbers without a fraction.
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    lead(out, i == 0);
                    item.write(out, break_depth, level + 1);
                }
                close(out, ']', items.is_empty());
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    lead(out, i == 0);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, break_depth, level + 1);
                }
                close(out, '}', members.is_empty());
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_space();
        if p.at != p.bytes.len() {
            return Err(p.fail("trailing characters"));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at).copied() {
            None => Err(self.fail("unexpected end")),
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                loop {
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() && !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    members.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.fail("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.fail("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.at += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8"));
                }
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.fail("unterminated escape"))?;
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reads_back_the_same() {
        let v = obj([
            ("correct", true.into()),
            ("attempted", 320_000u64.into()),
            ("value", 0.1.into()),
            ("tiny", 1.25e-7.into()),
            ("text", "a \"quoted\"\\ line\nbreak \u{1} µs".into()),
            ("list", Json::Arr(vec![Json::Null, 2u64.into(), obj([])])),
        ]);
        for text in [v.line(), v.pretty(1), v.pretty(9)] {
            assert_eq!(Json::parse(&text).expect("own output"), v, "{text}");
        }
    }

    #[test]
    fn numbers_keep_every_digit_and_whole_numbers_stay_whole() {
        let text = obj([("a", 320_000u64.into()), ("b", (1.0f64 / 3.0).into())]).line();
        assert_eq!(text, r#"{"a": 320000, "b": 0.3333333333333333}"#);
    }

    #[test]
    fn pretty_breaks_only_the_asked_levels() {
        let v = obj([("k", Json::Arr(vec![obj([("a", 1u64.into())])]))]);
        assert_eq!(v.pretty(2), "{\n  \"k\": [\n    {\"a\": 1}\n  ]\n}\n");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1 2]",
            "\"open",
            "{\"a\": tru}",
            "1 2",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn non_finite_numbers_are_refused() {
        let _ = Json::Num(f64::NAN).line();
    }
}
