//! The JSON reader the vendored `serde_json` stand-in lacks.
//!
//! That crate has the `Value` tree, the `json!` macro and the writers, but
//! cannot parse, and `compare` and `smoke --check` have to read
//! `BENCHMARK.json` and result files back. This module parses text into the
//! same `Value` and adds the few read accessors the stand-in leaves out.

use serde_json::{Map, Number, Value};

/// Read accessors; each returns nothing on a value of another kind.
pub trait ValueExt {
    fn get(&self, key: &str) -> Option<&Value>;
    /// The entries of an object, in file order.
    fn entries(&self) -> Vec<(&String, &Value)>;
    /// The items of an array.
    fn items(&self) -> &[Value];
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
}

impl ValueExt for Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn entries(&self) -> Vec<(&String, &Value)> {
        match self {
            Value::Object(map) => map.iter().collect(),
            _ => Vec::new(),
        }
    }

    fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Float(v)) => Some(*v),
            Value::Number(Number::PosInt(v)) => Some(*v as f64),
            Value::Number(Number::NegInt(v)) => Some(*v as f64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// One line, no spaces — the form of the result line.
pub fn compact(value: &Value) -> String {
    // The stand-in's writers cannot fail; their `Result` mirrors serde_json.
    serde_json::to_string(value).unwrap_or_default()
}

pub fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).unwrap_or_default()
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// After an opening bracket: `item` until `close`, comma-separated.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut map = Map::new();
                self.sequence(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(_) => self.number(),
        }
    }

    /// Whole numbers that fit stay integers, so counts print back as written.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::from(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Value::from(v));
        }
        text.parse::<f64>().map(Value::from).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn round_trips_through_text() {
        let v = json!({
            "name": "a \"quoted\"\nline",
            "n": 12u64,
            "neg": -3,
            "x": 0.1 + 0.2,
            "whole": 2.0,
            "ok": true,
            "none": Value::Null,
            "xs": [1.5, -2.25],
            "empty": {"a": [], "o": {}},
        });
        for text in [compact(&v), pretty(&v)] {
            assert_eq!(parse(&text), Ok(v.clone()), "{text}");
        }
        assert!(compact(&v).contains("\"n\":12,"), "whole numbers print as integers");
        assert!(compact(&v).contains("0.30000000000000004"), "floats keep every digit");
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.1 + 0.2));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("xs").map(|xs| xs.items().len()), Some(2));
        assert_eq!(v.entries().len(), 9);
        assert_eq!(v.get("n").and_then(|n| n.get("deeper")), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open", "[1 2]", "-"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
