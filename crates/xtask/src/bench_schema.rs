//! The workspace's std-only JSON reader.
//!
//! [`parse_json`] turns a document into a [`Value`] tree (objects keep
//! their key order; no hashing, so reads are deterministic) and reports
//! malformed input as a [`SchemaError`] at path `parse`. `earbench` reads
//! its saved runs and `BENCHMARK.json` through it. The module keeps its
//! historical name because that import path is part of the benchmark's
//! build.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escape sequences are accepted but kept verbatim).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as insertion-ordered pairs (no hashing: determinism).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure. The reader always sets `path` to `parse`; the
/// message names the byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// Where the failure belongs (`parse` for every reader error).
    pub path: String,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

fn err(path: &str, message: impl Into<String>) -> SchemaError {
    SchemaError {
        path: path.to_string(),
        message: message.into(),
    }
}

// ---- minimal JSON parser ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(
                "parse",
                format!("expected `{}` at byte {}", c as char, self.pos),
            ))
        }
    }

    fn value(&mut self) -> Result<Value, SchemaError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(err("parse", format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, SchemaError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(err("parse", format!("bad literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, SchemaError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err("parse", "non-utf8 number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err("parse", format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Keep the escape verbatim; no document read
                    // through here needs unescaping.
                    out.push('\\');
                    self.pos += 1;
                    if let Some(c) = self.peek() {
                        out.push(c as char);
                        self.pos += 1;
                    }
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err(err("parse", "unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(err("parse", format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err("parse", format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`SchemaError`] with path `parse` for malformed input.
pub fn parse_json(text: &str) -> Result<Value, SchemaError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err("parse", format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_null_and_exponents() {
        let v = parse_json(r#"{"a": null, "b": -1.5e-12, "c": [true, false]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Null));
        assert!(matches!(v.get("b"), Some(Value::Num(x)) if *x == -1.5e-12));
        assert_eq!(
            v.get("c"),
            Some(&Value::Arr(vec![Value::Bool(true), Value::Bool(false)]))
        );
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let e = parse_json("{\"schema_version\": 1,,}").unwrap_err();
        assert_eq!(e.path, "parse");
    }
}
