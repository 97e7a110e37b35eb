//! `--compare BASE NEW`: a verdict for every (end-to-end metric,
//! workload) pair, using the bounds in `BENCHMARK.json`.
//!
//! Each input holds one JSON line per run, as `--out` appends them. For
//! each pair the medians and quartiles of both sides are compared:
//!
//! * **improved** — every new run beats every base run, or the new
//!   median beats the base median by more than the base's own spread;
//! * **unresolved** — otherwise, when either side's spread (quartile
//!   distance over median) is wider than the bound;
//! * **regressed** — the new median is worse than the base median by
//!   more than the bound;
//! * **unchanged** — anything else.

use crate::stats::quartiles;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, which names every metric, its unit, its direction
/// and (for end-to-end metrics) its regression bound.
pub const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

/// A parsed JSON value.
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
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }
}

/// Parse one JSON document.
///
/// # Errors
///
/// A description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.b[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    self.i += 2;
                    out.push(match esc {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => c as char,
                        _ => return Err(format!("unsupported escape at byte {}", self.i - 2)),
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

/// The outcome of comparing one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the noise.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so no call can be made.
    Unresolved,
}

/// Compare `base` runs with `new` runs of one metric.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (bq1, bm, bq3) = quartiles(base);
    let (nq1, nm, nq3) = quartiles(new);
    let rel = |d: f64, m: f64| if m == 0.0 { 0.0 } else { d / m.abs() };
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = if bm == 0.0 && nm != 0.0 {
        sign * f64::INFINITY * nm.signum()
    } else {
        sign * rel(nm - bm, bm)
    };
    let base_spread = rel(bq3 - bq1, bm);
    let spread = base_spread.max(rel(nq3 - nq1, nm));
    let fold = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick);
    let all_better = match (
        fold(base, f64::min),
        fold(base, f64::max),
        fold(new, f64::min),
        fold(new, f64::max),
    ) {
        (Some(bmin), Some(bmax), Some(nmin), Some(nmax)) => {
            if lower_is_better {
                nmax < bmin
            } else {
                nmin > bmax
            }
        }
        _ => false,
    };
    if all_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0 && -worse > base_spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// An end-to-end metric's direction and bound, from [`SPEC`].
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

/// The end-to-end metrics and bounds of `BENCHMARK.json`.
///
/// # Errors
///
/// A description of what is malformed.
pub fn bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let spec = parse(spec)?;
    spec.get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?.str().ok_or("name is not a string")?.into(),
                lower_is_better: field("better")?.str() == Some("lower"),
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Every run in a `--out` file: workload → metric → values.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let metrics = runs.entry(workload.to_string()).or_default();
        for (name, v) in run.get("metrics").map(Json::members).unwrap_or_default() {
            if let Some(v) = v.num() {
                metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Print a verdict table; exit code 1 when any pair regressed or is
/// unresolved.
///
/// # Errors
///
/// Unreadable or malformed inputs.
pub fn run(base: &str, new: &str) -> Result<i32, String> {
    let bounds = bounds(SPEC)?;
    let (base, new) = (load(base)?, load(new)?);
    let mut bad = 0;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "change", "bound"
    );
    for (workload, b) in &base {
        let Some(n) = new.get(workload) else { continue };
        for m in &bounds {
            let (Some(bv), Some(nv)) = (b.get(&m.name), n.get(&m.name)) else {
                continue;
            };
            let v = verdict(bv, nv, m.lower_is_better, m.bound);
            if matches!(v, Verdict::Regressed | Verdict::Unresolved) {
                bad += 1;
            }
            let (bm, nm) = (quartiles(bv).1, quartiles(nv).1);
            let change = if bm == 0.0 {
                0.0
            } else {
                (nm - bm) / bm * 100.0
            };
            println!(
                "{workload:<18} {:<16} {bm:>14.4} {nm:>14.4} {change:>7.2}% {:>5.1}%  {v:?}",
                m.name,
                m.bound * 100.0
            );
        }
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_json_the_benchmark_writes() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}, "d": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().arr()[1], Json::Num(-2500.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().str(), Some("x\"y"));
        assert!(v.get("d").unwrap().members().is_empty());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2] 3").is_err());
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        let same = [100.2, 99.8, 100.9, 99.1, 100.0];
        assert_eq!(verdict(&base, &same, true, 0.05), Verdict::Unchanged);
        // 10% slower with a 5% bound.
        let slower = base.map(|v| v * 1.1);
        assert_eq!(verdict(&base, &slower, true, 0.05), Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        assert_eq!(verdict(&base, &slower, false, 0.05), Verdict::Improved);
        // Noise wider than the bound cannot be called.
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(verdict(&base, &noisy, true, 0.05), Verdict::Unresolved);
        // ...unless every new run is better than every base run.
        let wide_but_better = [10.0, 50.0, 30.0];
        assert_eq!(
            verdict(&base, &wide_but_better, true, 0.05),
            Verdict::Improved
        );
        // Deterministic values: any exact gain is real.
        assert_eq!(
            verdict(&[5.0; 5], &[4.99; 5], true, 0.01),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&[5.0; 5], &[5.0; 5], true, 0.01),
            Verdict::Unchanged
        );
    }

    #[test]
    fn the_spec_has_a_bound_for_every_end_to_end_metric() {
        let b = bounds(SPEC).unwrap();
        assert!(!b.is_empty());
        assert!(b.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
