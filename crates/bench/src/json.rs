//! The one writer behind every `BENCH_e*.json` artefact.
//!
//! Experiments build a [`Json`] value and call [`Json::render`]; key
//! order (a `BTreeMap`), comma placement, indentation and float format
//! are properties of the writer, not of each experiment, so two runs —
//! and two experiments — cannot disagree on them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value as the artefacts use it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Object; keys render in byte order.
    Obj(BTreeMap<&'static str, Json>),
    /// Array, in the given order.
    Arr(Vec<Json>),
    /// Integer (every count in the artefacts is non-negative).
    Int(u64),
    /// Float, rendered with exactly two decimals.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// String.
    Str(String),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(BTreeMap::from(fields))
    }

    /// An array of whatever `items` yields.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The document: 2-space indent, one key or element per line,
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Obj(fields) => {
                block(out, indent, ['{', '}'], fields.iter().map(|(k, v)| (Some(*k), v)))
            }
            Json::Arr(items) => block(out, indent, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => out.push_str(&crate::f2(*v)),
            Json::Bool(v) => out.push_str(&v.to_string()),
            Json::Str(s) => quote(out, s),
        }
    }
}

/// `open`, the items one per line at `indent + 2` separated by commas,
/// `close` back at `indent`; an empty container is `{}` / `[]`.
fn block<'a>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let mut any = false;
    for (key, value) in items {
        out.push_str(if any { ",\n" } else { "\n" });
        any = true;
        let _ = write!(out, "{:1$}", "", indent + 2);
        if let Some(key) = key {
            quote(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if any {
        let _ = write!(out, "\n{:1$}", "", indent);
    }
    out.push(close);
}

fn quote(out: &mut String, s: &str) {
    let _ = write!(out, "\"{}\"", lc_trace::export::escape(s));
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from! {
    u64 => |v| Json::Int(v),
    u32 => |v| Json::Int(u64::from(v)),
    usize => |v| Json::Int(v as u64),
    f64 => |v| Json::Float(v),
    bool => |v| Json::Bool(v),
    &str => |v| Json::Str(v.to_owned()),
    String => |v| Json::Str(v),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_empty_array_and_key_order() {
        // Keys given out of order (`p999_ms` sorts before `p99_ms`:
        // bytes, not numbers), an object inside an array inside an
        // object, both empties.
        let doc = Json::obj([
            ("z", Json::arr([Json::obj([("p99_ms", 2.5.into()), ("p999_ms", 3u64.into())])])),
            ("empty", Json::arr([])),
            ("a", Json::obj([("ok", true.into()), ("none", Json::obj([]))])),
            ("name", "say \"hi\"\n".into()),
        ]);
        let want = r#"{
  "a": {
    "none": {},
    "ok": true
  },
  "empty": [],
  "name": "say \"hi\"\n",
  "z": [
    {
      "p999_ms": 3,
      "p99_ms": 2.50
    }
  ]
}
"#;
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn floats_round_to_two_decimals_and_ints_stay_exact() {
        let doc = Json::arr([1.005f64.into(), 2.0.into(), u64::MAX.into(), 7usize.into()]);
        assert_eq!(doc.render(), "[\n  1.00,\n  2.00,\n  18446744073709551615,\n  7\n]\n");
    }
}
