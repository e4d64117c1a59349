//! JSON for the ledger's files: `janus::obs::json` reads them, and this
//! module adds the builders and the renderer that crate does not have.

use janus::obs::json::escape;
pub use janus::obs::json::{parse, Value};
use std::fmt::Write as _;

pub fn num(n: f64) -> Value {
    Value::Num(n)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Builds an array of numbers.
pub fn nums(items: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(items.into_iter().map(Value::Num).collect())
}

/// The number at `v`, NaN when it is missing or not a number.
pub fn number(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Renders the value on one line.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write(value, &mut out, None, 0);
    out
}

/// Renders the value indented by two spaces per level, with arrays of
/// scalars kept on one line (sample lists stay readable).
pub fn render_pretty(value: &Value) -> String {
    let mut out = String::new();
    write(value, &mut out, Some(2), 0);
    out.push('\n');
    out
}

fn write(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust prints the shortest decimal that round-trips, so a measured
        // value keeps all its digits. JSON has no NaN/inf.
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Arr(items) => {
            let flat = !items
                .iter()
                .any(|v| matches!(v, Value::Arr(_) | Value::Obj(_)));
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if flat && indent.is_some() {
                        out.push(' ');
                    }
                }
                if !flat {
                    newline(out, depth + 1);
                }
                write(item, out, indent, depth + 1);
            }
            if !flat && !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                let _ = write!(out, "\"{}\":", escape(key));
                if indent.is_some() {
                    out.push(' ');
                }
                write(value, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_rendered_parses_back() {
        let doc = obj([
            ("name", text("a \"quoted\"\nline")),
            ("n", num(1.2034)),
            ("list", nums([1.0, 2.0, 3.0])),
            (
                "nested",
                obj([("ok", Value::Bool(true)), ("none", Value::Null)]),
            ),
            ("rows", Value::Arr(vec![nums([0.5]), nums([])])),
        ]);
        assert_eq!(parse(&render(&doc)).unwrap(), doc);
        assert_eq!(parse(&render_pretty(&doc)).unwrap(), doc);
    }
}
