//! The one writer of every committed `BENCH_*.json` file.
//!
//! An experiment builds its result as a [`Json`] value and hands it to
//! [`write_bench`]. The printer has one layout rule: a value prints on
//! one line when that line ends within [`WIDTH`] columns, counting its
//! indent and key; otherwise its members go one per line, indented two
//! spaces deeper. Objects keep their insertion order, floats print in
//! Rust's shortest round-trip form and strings are escaped, so a file
//! parses back to exactly the values handed over.

use std::fmt::Write as _;

/// The column a one-line value must end within.
pub const WIDTH: usize = 120;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A count, printed exactly.
    Int(u64),
    /// A finite float, printed in shortest round-trip form.
    Num(f64),
    /// A string, printed escaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, whose members print in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to fill with [`Json::field`].
    #[must_use]
    pub fn obj() -> Self {
        Self::Obj(Vec::new())
    }

    /// This object with `key` appended.
    ///
    /// # Panics
    ///
    /// `self` is not an object.
    #[must_use]
    #[track_caller]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        let Self::Obj(fields) = &mut self else {
            panic!("field {key:?} added to a JSON value that is not an object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// The file text: the value laid out by the module's rule, then a
    /// newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.pretty(0, 0, &mut out);
        out.push('\n');
        out
    }

    fn flat(&self, out: &mut String) {
        match self {
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Self::Str(s) => escape(s, out),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.flat(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape(key, out);
                    out.push_str(": ");
                    value.flat(out);
                }
                out.push('}');
            }
        }
    }

    /// Print at `indent`, with the line already `column` wide.
    fn pretty(&self, indent: usize, column: usize, out: &mut String) {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Self::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Self::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            _ => Vec::new(),
        };
        let mut line = String::new();
        self.flat(&mut line);
        if members.is_empty() || column + line.len() <= WIDTH {
            out.push_str(&line);
            return;
        }
        let (open, close) = if matches!(self, Self::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        let inner = indent + 2;
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let start = out.len();
            out.push_str(&" ".repeat(inner));
            if let Some(key) = key {
                escape(key, out);
                out.push_str(": ");
            }
            let column = out.len() - start;
            value.pretty(inner, column, out);
        }
        out.push('\n');
        out.push_str(&" ".repeat(indent));
        out.push(close);
    }
}

/// `s` as a JSON string literal.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `x` rounded to `digits` decimals: the float that `{x:.digits$}`
/// prints, for an experiment whose file states a value to fixed digits.
#[must_use]
pub fn rounded(x: f64, digits: usize) -> f64 {
    format!("{x:.digits$}")
        .parse()
        .expect("a formatted float parses")
}

/// Write `value` to `path` in the current directory and say so.
///
/// # Panics
///
/// The file cannot be written.
pub fn write_bench(path: &str, value: &Json) {
    std::fs::write(path, value.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Self {
        Self::Int(u64::from(i))
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Self {
        Self::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Self {
        Self::Int(u64::try_from(i).expect("a usize fits in a u64"))
    }
}

impl From<f64> for Json {
    /// # Panics
    ///
    /// `x` is NaN or infinite, which JSON cannot hold.
    #[track_caller]
    fn from(x: f64) -> Self {
        assert!(x.is_finite(), "a JSON number must be finite, not {x}");
        Self::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Self::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_print_exactly() {
        let v = Json::from(vec![
            Json::from(u64::MAX),
            Json::from(10.0),
            Json::from(1.0 / 3.0),
            Json::from(1e-7),
            Json::from(true),
        ]);
        assert_eq!(
            v.render(),
            "[18446744073709551615, 10.0, 0.3333333333333333, 1e-7, true]\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::from("a \"b\" \\ c\n\t\u{1}é");
        assert_eq!(v.render(), "\"a \\\"b\\\" \\\\ c\\n\\t\\u0001é\"\n");
    }

    #[test]
    fn rounded_is_the_float_the_fixed_digits_print() {
        assert_eq!(rounded(1.7283, 2), 1.73);
        assert_eq!(rounded(2.0, 2), 2.0);
        assert_eq!(format!("{:?}", rounded(6.2049, 2)), "6.2");
    }

    #[test]
    fn a_value_breaks_only_past_the_width() {
        let x = "x".repeat(60);
        let row = |i: u64| Json::obj().field("id", i).field("name", x.as_str());
        let short = Json::obj().field("rows", vec![1u64, 2]);
        assert_eq!(short.render(), "{\"rows\": [1, 2]}\n");
        let long = Json::obj()
            .field("rows", vec![row(1), row(2)])
            .field("empty", Json::Arr(Vec::new()));
        let text = long.render();
        assert_eq!(
            text,
            format!(
                "{{\n  \"rows\": [\n    {{\"id\": 1, \"name\": \"{x}\"}},\n    \
                 {{\"id\": 2, \"name\": \"{x}\"}}\n  ],\n  \"empty\": []\n}}\n"
            )
        );
        assert!(text.lines().all(|l| l.len() <= WIDTH));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn a_nan_is_refused() {
        let _ = Json::from(f64::NAN);
    }
}
