//! A minimal JSON reader for the benchmark's result files.
//!
//! The workspace has no registry access, so there is no `serde`; the
//! benchmark *writes* JSON with `format!` and this module reads it back
//! for `basker-benchmark compare`. It parses the full JSON
//! grammar those files use — objects, arrays, strings (with escapes),
//! numbers, booleans, null — into a small [`Json`] tree with typed
//! accessors. It is a reader for trusted, machine-written files, not a
//! hardened general-purpose parser — but it must **fail loudly, never
//! panic**, on malformed input: a result file can be truncated or
//! corrupted on disk, and a garbled one should surface as a clean
//! error, not a process abort. Nesting is capped at [`MAX_DEPTH`] so
//! adversarially deep documents error out instead of overflowing the
//! stack.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`, which covers every value the
    /// benchmark emits).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in file order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_bytes(text.as_bytes())
    }

    /// Parses a document from raw bytes — the entry point for readers
    /// that come straight off a file or a wire frame, where the input
    /// is not yet known to be UTF-8. Invalid UTF-8 inside a string is a
    /// clean error, not a panic; bytes outside strings must be ASCII
    /// JSON syntax to parse at all.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, String> {
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric field of an object (`get` + `num`).
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::num)
    }

    /// String field of an object (`get` + `str`).
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::str)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_obj(b, pos, depth),
        b'[' => parse_arr(b, pos, depth),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_num(b, pos),
        _ => Err(format!("unexpected byte {:?} at {}", c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape \\{}", e as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = utf8_len(c);
                let chunk = b
                    .get(*pos - 1..*pos - 1 + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(chunk);
                *pos += len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut out: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth + 1)?;
        if !out.iter().any(|(k, _)| *k == key) {
            out.push((key, val));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_baseline_shapes() {
        let doc = r#"{
            "generated": "2026-07-30",
            "rows": [
                {"solver": "KLU", "seconds": 0.004692, "ok": true},
                {"solver": "Basker(p=2)", "seconds": 1.2e-3, "ok": false}
            ],
            "note": null
        }"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.str_field("generated"), Some("2026-07-30"));
        let rows = j.get("rows").and_then(Json::arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].str_field("solver"), Some("KLU"));
        assert!((rows[1].num_field("seconds").unwrap() - 1.2e-3).abs() < 1e-12);
        assert_eq!(rows[0].get("ok").and_then(Json::bool), Some(true));
        assert_eq!(j.get("note"), Some(&Json::Null));
    }

    #[test]
    fn escapes_and_numbers() {
        let j = Json::parse(r#"["a\"b\\c\nd", -1.5e-3, 42, "π"]"#).unwrap();
        let a = j.arr().unwrap();
        assert_eq!(a[0].str(), Some("a\"b\\c\nd"));
        assert!((a[1].num().unwrap() + 0.0015).abs() < 1e-15);
        assert_eq!(a[2].num(), Some(42.0));
        assert_eq!(a[3].str(), Some("π"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("[1] junk").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn truncated_objects_error_cleanly() {
        // Every prefix of a valid document must error, never panic —
        // this is what a half-written baseline or a cut-off wire frame
        // looks like.
        let doc = r#"{"rows": [{"solver": "KLU", "seconds": 1.5e-3}], "ok": true}"#;
        for cut in 0..doc.len() {
            let prefix = &doc[..cut];
            if prefix.is_empty() {
                continue;
            }
            // Prefixes that happen to end on a char boundary of a valid
            // sub-document don't exist for this doc: all cuts fail.
            assert!(
                Json::parse(prefix).is_err(),
                "prefix {cut:?} parsed: {prefix}"
            );
        }
        assert!(Json::parse(r#"{"a":"#).is_err());
        assert!(Json::parse(r#"{"a""#).is_err());
        assert!(Json::parse(r#"[{"#).is_err());
        assert!(Json::parse(r#"{"a": 1,"#).is_err());
        assert!(Json::parse(r#"{,}"#).is_err());
    }

    #[test]
    fn bad_escapes_error_cleanly() {
        assert!(Json::parse(r#""\x""#).is_err(), "unknown escape");
        assert!(Json::parse(r#""\"#).is_err(), "escape at end of input");
        assert!(Json::parse(r#""\u12""#).is_err(), "short \\u escape");
        assert!(Json::parse(r#""\u"#).is_err(), "truncated \\u escape");
        assert!(Json::parse(r#""\uZZZZ""#).is_err(), "non-hex \\u escape");
        assert!(Json::parse(r#""unterminated"#).is_err());
        // A \u escape of an unpaired surrogate decodes to the
        // replacement character rather than erroring (lossy, but safe).
        let j = Json::parse(r#""\ud800""#).unwrap();
        assert_eq!(j.str(), Some("\u{fffd}"));
    }

    #[test]
    fn non_utf8_bytes_error_cleanly() {
        // parse_bytes is the entry point for readers that haven't
        // validated UTF-8 yet (files, wire payloads).
        assert!(Json::parse_bytes(br#""a"#).is_err());
        assert!(Json::parse_bytes(b"\"\xff\xfe\"").is_err(), "invalid lead");
        assert!(Json::parse_bytes(b"\"\x80abc\"").is_err(), "stray cont.");
        assert!(
            Json::parse_bytes(b"\"\xe2\x82\"").is_err(),
            "truncated multi-byte sequence"
        );
        assert!(Json::parse_bytes(b"\xef\xbb\xbf{}").is_err(), "BOM");
        // Valid multi-byte UTF-8 still round-trips through parse_bytes.
        let j = Json::parse_bytes("\"π…✓\"".as_bytes()).unwrap();
        assert_eq!(j.str(), Some("π…✓"));
    }

    #[test]
    fn numbers_and_literals_error_cleanly() {
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1e").is_err());
        assert!(Json::parse("1.2.3").is_err());
        assert!(Json::parse("+1").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("falsey").is_err(), "trailing garbage");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // 100k open brackets would overflow the stack in a naive
        // recursive-descent parser; the depth cap turns it into an
        // error long before that.
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let deep_obj = r#"{"a":"#.repeat(10_000);
        assert!(Json::parse(&deep_obj).is_err());
        // ... while the cap stays far above any real baseline's shape.
        let fine = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&fine).is_ok());
    }
}
