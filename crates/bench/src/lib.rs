//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! `exp_all` in `src/bin/` prints the rows and series the paper reports,
//! one section per table or figure, in one process (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for paper-vs-measured values);
//! the other `exp_*` binaries are the experiments CI runs by name, each
//! writing its BENCH file. This library holds the shared plumbing: table
//! formatting and the [`json`] writer of every committed `BENCH_*.json`
//! file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

/// Print a formatted experiment table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format seconds with 3 decimals.
#[must_use]
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Format megabytes with 1 decimal.
#[must_use]
pub fn mb(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a percentage with 1 decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(mb(38.04), "38.0");
        assert_eq!(pct(0.043), "4.3%");
    }

    #[test]
    fn print_table_handles_ragged_rows() {
        // Smoke test: must not panic.
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
