//! Minimal JSON *writer* (the workspace's `serde` shim only reads).
//! Numbers print with all their digits (`{}` on an `f64` is the shortest
//! string that round-trips).

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (nl, pad, pad_close) = match indent {
            Some(level) => ("\n", "  ".repeat(level + 1), "  ".repeat(level)),
            None => ("", String::new(), String::new()),
        };
        let sep = if indent.is_some() { ",\n" } else { ", " };
        let deeper = indent.map(|l| l + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // a measurement that is not a number must never reach a file
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number in JSON output");
                // `{}` never uses an exponent: 1e-15 would print 17 zeros
                let tiny_or_huge = *x != 0.0 && !(1e-5..1e16).contains(&x.abs());
                out.push_str(&if tiny_or_huge { format!("{x:e}") } else { format!("{x}") });
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                out.push_str(nl);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    out.push_str(&pad);
                    item.write(out, deeper);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                out.push_str(nl);
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    out.push_str(&pad);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, deeper);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// One line, for the result line a run ends with.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None);
        s
    }

    /// Indented, for files people read.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0));
        s.push('\n');
        s
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{from_str, Value};

    #[test]
    fn output_reparses_with_all_digits() {
        let j = Json::obj([
            ("name", Json::str("a \"quoted\"\nline")),
            ("value", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(-9.217725566146625e-16)),
            ("count", Json::Int(3)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Arr(vec![])])),
        ]);
        for text in [j.to_line(), j.to_pretty()] {
            let v = from_str(&text).expect("well-formed");
            assert_eq!(v.get("value").and_then(Value::as_f64), Some(0.1 + 0.2));
            assert_eq!(v.get("tiny").and_then(Value::as_f64), Some(-9.217725566146625e-16));
            assert_eq!(v.get("name").and_then(Value::as_str), Some("a \"quoted\"\nline"));
            assert_eq!(v.get("list").and_then(Value::as_array).map(<[Value]>::len), Some(3));
        }
        assert!(!j.to_line().contains('\n'));
        assert!(j.to_line().contains("-9.217725566146625e-16"));
    }
}
