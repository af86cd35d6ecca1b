//! Compact and pretty JSON writers.

use crate::value::Json;

impl Json {
    /// Renders the value: compact when `indent` is `None`, otherwise with
    /// the given number of spaces per level (`Some(2)` matches the
    /// `serde_json` pretty style of the checked-in `results/*.json`).
    pub fn render(&self, indent: Option<usize>) -> String {
        let mut out = String::new();
        write_value(self, indent, 0, &mut out);
        out
    }
}

fn write_value(v: &Json, indent: Option<usize>, level: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => write_float(*f, out),
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => write_seq(items.iter(), indent, level, out, ('[', ']'), |v, out| {
            write_value(v, indent, level + 1, out)
        }),
        Json::Object(fields) => {
            write_seq(fields.iter(), indent, level, out, ('{', '}'), |(k, v), out| {
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(v, indent, level + 1, out);
            })
        }
    }
}

fn write_seq<T>(
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
    brackets: (char, char),
    mut write_item: impl FnMut(T, &mut String),
) {
    out.push(brackets.0);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        write_item(item, out);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * level));
        }
    }
    out.push(brackets.1);
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; emit null like serde_json's
        // lossy modes rather than producing an unparseable document.
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep a float marker so the value re-parses as a float (Rust's
    // shortest Display drops the ".0" on integral floats).
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn doc() -> Json {
        parse(r#"{"a":[1,2.5,null],"b":{"c":"x\ny","d":[]},"e":true}"#).unwrap()
    }

    #[test]
    fn compact_round_trips() {
        let v = doc();
        assert_eq!(parse(&v.render(None)).unwrap(), v);
        assert_eq!(
            v.render(None),
            r#"{"a":[1,2.5,null],"b":{"c":"x\ny","d":[]},"e":true}"#
        );
    }

    #[test]
    fn pretty_round_trips_and_indents() {
        let v = doc();
        let s = v.render(Some(2));
        assert_eq!(parse(&s).unwrap(), v);
        assert!(s.contains("{\n  \"a\": [\n    1,"), "{s}");
        // Empty containers stay on one line.
        assert!(s.contains("\"d\": []"), "{s}");
    }

    #[test]
    fn integral_floats_keep_a_marker() {
        let mut out = String::new();
        write_float(3.0, &mut out);
        assert_eq!(out, "3.0");
        assert_eq!(parse("3.0").unwrap(), Json::Float(3.0));
    }

    #[test]
    fn float_precision_round_trips() {
        for f in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -2.5e17] {
            let mut out = String::new();
            write_float(f, &mut out);
            assert_eq!(out.parse::<f64>().unwrap(), f, "{out}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Float(f64::NAN).render(None), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(None), "null");
    }

    #[test]
    fn control_characters_escaped() {
        let v = Json::Str("a\u{0001}b".to_string());
        assert_eq!(v.render(None), r#""a\u0001b""#);
        assert_eq!(parse(&v.render(None)).unwrap(), v);
    }
}
