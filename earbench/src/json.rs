//! JSON for the compare mode and the result line. Reading reuses the
//! workspace's minimal parser (`xtask::bench_schema`); writing needs only
//! string quoting.

pub use xtask::bench_schema::Value;

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    xtask::bench_schema::parse_json(text).map_err(|e| e.to_string())
}

/// The number, if `v` is one.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

/// The string, if `v` is one.
pub fn str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The elements, if `v` is an array.
pub fn arr(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_and_reads_back_a_result_line() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        let v = parse(
            r#"{"correct": true, "metrics": {"x": {"value": 1.25e0, "unit": "ms"}}, "l": [1]}"#,
        )
        .unwrap();
        let x = v.get("metrics").and_then(|m| m.get("x")).unwrap();
        assert_eq!(x.get("value").and_then(num), Some(1.25));
        assert_eq!(x.get("unit").and_then(str), Some("ms"));
        assert_eq!(v.get("l").and_then(arr).map(<[Value]>::len), Some(1));
        assert!(parse("{").is_err());
    }
}
