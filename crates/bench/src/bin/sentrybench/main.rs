//! `sentrybench`: the repository's regression benchmark.
//!
//! Four closed-loop workloads drive the Sentry stack from outside, on
//! one thread, and report end-to-end metrics on both clocks — the
//! simulated Tegra 3 clock and the host clock — plus per-layer metrics
//! from a separate traced run. Every byte read back is checked against a
//! shadow model; any failure makes the run exit non-zero.
//!
//! ```text
//! sentrybench --workload <lock_resume|dmcrypt_rw|locked_background|fleet_mix|all>
//!             [--seed N] [--seconds S] [--trace 0|1]
//!             [--out runs.jsonl] [--trace-out trace.json]
//! sentrybench --compare base.jsonl new.jsonl
//! ```
//!
//! A run repeats identical passes (set-up plus a fixed number of
//! operations drawn from the seed) until `--seconds` would be exceeded,
//! with at least one pass (two when tracing). Simulated metrics come
//! from the first pass and every later pass must reproduce them
//! exactly; host metrics are medians over the passes. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod micro;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Metric;
use std::io::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{run_pass, Pass, Size, Workload};

const USAGE: &str =
    "usage: sentrybench --workload <lock_resume|dmcrypt_rw|locked_background|fleet_mix|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]\n       \
sentrybench --compare BASE.jsonl NEW.jsonl";

/// Parsed command line of a measuring run.
#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

/// What one workload's run reports.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sentrybench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn cli(argv: &[String]) -> Result<i32, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, base, new] = argv else {
            return Err("--compare takes two files".into());
        };
        return compare::run(base, new);
    }
    let args = parse_args(argv)?;
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let outcome = run(w, &args)?;
        if let Some(path) = &args.out {
            append_record(path, &outcome, &args)?;
        }
        outcomes.push(outcome);
    }
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<Metric> = if let [one] = outcomes.as_slice() {
        one.metrics.clone()
    } else {
        outcomes
            .iter()
            .flat_map(|o| {
                o.metrics.iter().map(|m| Metric {
                    name: format!("{}.{}", o.workload.name(), m.name),
                    ..m.clone()
                })
            })
            .collect()
    };
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(i32::from(failed != 0))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| format!("--seconds {v}: not a duration"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Run one workload: identical passes until the time budget is spent.
/// With tracing, passes alternate untraced and traced, starting
/// untraced: every traced pass must reproduce the untraced ones, and
/// the two medians of host speed give the tracing overhead.
fn run(w: Workload, args: &Args) -> Result<Outcome, String> {
    // Tracing needs an untraced pass to check the traced ones against.
    let min_passes = if args.trace { 2 } else { 1 };
    let capacity = w.pass_ops(Size::Full) * 4 + 4096;
    let mut untraced = Tracer::new(false, 0);
    let mut traced = Tracer::new(args.trace, capacity);
    // `plain` holds the untraced passes, `traced_passes` the traced ones.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut totals = Vec::new();
    // Peak RSS after the first pass, so it does not grow with the number
    // of passes a faster host fits into the budget. After another
    // workload in the same process, the high-water mark starts over.
    if args.workloads.len() > 1 {
        report::reset_peak_rss()?;
    }
    let mut peak_rss_mib = 0.0;
    let start = Instant::now();
    loop {
        let done = plain.len() + traced_passes.len();
        if args.trace && done % 2 == 1 {
            traced.clear();
            traced_passes.push(run_pass(w, args.seed, Size::Full, &mut traced));
            totals.push(traced.reduce());
        } else {
            plain.push(run_pass(w, args.seed, Size::Full, &mut untraced));
        }
        if done == 0 {
            peak_rss_mib = report::peak_rss_mib();
        }
        let per_pass = start.elapsed() / u32::try_from(done + 1).unwrap_or(u32::MAX);
        if done + 1 >= min_passes && start.elapsed() + per_pass > args.seconds {
            break;
        }
    }

    let reference = &plain[0];
    let mut attempted = 0;
    let mut failed = 0;
    for (i, p) in plain.iter().chain(&traced_passes).enumerate() {
        attempted += p.attempted;
        failed += p.failed;
        for e in &p.errors {
            eprintln!("{}: pass {i}: {e}", w.name());
        }
        if !p.same_sim(reference) {
            failed += 1;
            eprintln!(
                "{}: a pass did not reproduce the first pass's simulated numbers and counters",
                w.name()
            );
        }
    }

    let metrics = if args.trace {
        let ops_per_s = report::median_host_ops_per_s(&traced_passes);
        let plain_ops_per_s = report::median_host_ops_per_s(&plain);
        println!(
            "{}: tracing overhead: {ops_per_s:.1} ops/s traced vs {plain_ops_per_s:.1} \
             untraced ({:+.1}%)",
            w.name(),
            (plain_ops_per_s / ops_per_s - 1.0) * 100.0
        );
        if let Some(path) = &args.trace_out {
            std::fs::write(path, traced.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        let kernels = micro::measure(w.cipher_mode());
        report::per_layer(reference, &totals, &traced_passes, &kernels)
    } else {
        report::end_to_end(&plain, peak_rss_mib)
    };

    println!(
        "== {} seed {} : {} passes, {} ops each, {:.1} s, {} ==",
        w.name(),
        args.seed,
        plain.len() + traced_passes.len(),
        reference.attempted,
        start.elapsed().as_secs_f64(),
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &metrics {
        let of =
            m.of.map(|(p, n)| format!("  (p{p} of {n} samples)"))
                .unwrap_or_default();
        println!("  {:<46} {:>16.4} {}{of}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        workload: w,
        attempted,
        failed,
        metrics,
    })
}

/// Append one JSON line describing the run to `path` (the input of
/// `--compare`).
fn append_record(path: &str, o: &Outcome, args: &Args) -> Result<(), String> {
    let values: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, report::json_number(m.value)))
        .collect();
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}\n",
        o.workload.name(),
        args.seed,
        args.trace,
        o.attempted,
        o.failed,
        values.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::{parse, Json, SPEC};

    fn pass(w: Workload, seed: u64, traced: bool) -> Pass {
        let mut tracer = Tracer::new(traced, 256);
        let p = run_pass(w, seed, Size::Tiny, &mut tracer);
        assert_eq!(p.failed, 0, "{}: {:?}", w.name(), p.errors);
        assert!(p.attempted > 0);
        assert_eq!(tracer.reduce().is_empty(), !traced);
        p
    }

    #[test]
    fn a_seed_replays_exactly_and_another_seed_changes_the_stream() {
        for w in Workload::ALL {
            let a = pass(w, 1, false);
            assert!(a.same_sim(&pass(w, 1, false)), "{}: seed 1 twice", w.name());
            let b = pass(w, 2, false);
            assert_ne!(a.stream_digest, b.stream_digest, "{}", w.name());
        }
    }

    #[test]
    fn tracing_only_observes() {
        for w in Workload::ALL {
            let plain = pass(w, 3, false);
            let traced = pass(w, 3, true);
            assert!(
                plain.same_sim(&traced),
                "{}: tracing changed the run",
                w.name()
            );
            assert_ne!(plain.op_host_ns, traced.op_host_ns);
        }
    }

    /// `(name, unit, better)` of each metric in one list of the spec.
    fn spec_list(key: &str) -> Vec<(String, String, String)> {
        let spec = parse(SPEC).expect("BENCHMARK.json parses");
        spec.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn the_spec_lists_exactly_the_metrics_the_benchmark_prints() {
        let p = pass(Workload::LockResume, 1, false);
        let e2e: Vec<(String, String)> = report::end_to_end(std::slice::from_ref(&p), 1.0)
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        let spec: Vec<(String, String)> = spec_list("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(e2e, spec);
        let better: Vec<String> = spec_list("end_to_end").into_iter().map(|m| m.2).collect();
        for (name, b) in e2e.iter().zip(&better) {
            let want = if name.0.ends_with("_ops_per_s") {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(b, want, "{}", name.0);
        }
        let layer: Vec<(String, String)> = report::per_layer(
            &p,
            &[report::Totals::new()],
            std::slice::from_ref(&p),
            &[1.0; 7],
        )
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
        let spec: Vec<(String, String)> = spec_list("per_layer")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(layer, spec);
        let workloads: Vec<String> = parse(SPEC)
            .unwrap()
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        for w in Workload::ALL {
            let passes = [pass(w, 1, false), pass(w, 1, false), pass(w, 1, false)];
            for m in report::end_to_end(&passes, report::peak_rss_mib()) {
                assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            }
        }
    }

    /// The benchmark's own manifest builds what the workspace builds:
    /// the libraries `sentry-bench` depends on, with the workspace's
    /// profiles.
    #[test]
    fn the_own_manifest_matches_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let section = |toml: &'static str, header: &str| -> Vec<&'static str> {
            toml.lines()
                .skip_while(|l| !l.starts_with(header))
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .collect()
        };
        let deps = section(own, "[dependencies]");
        assert!(!deps.is_empty());
        for dep in deps {
            let name = dep.split_whitespace().next().unwrap();
            assert!(
                bench.contains(&format!("\n{name}.workspace = true")),
                "{name} is not a dependency of sentry-bench"
            );
        }
        let profiles = |toml: &'static str| -> Vec<&'static str> {
            toml.lines()
                .skip_while(|l| !l.starts_with("[profile."))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .collect()
        };
        assert_eq!(profiles(own), profiles(root));
    }

    #[test]
    fn a_later_workload_gets_its_own_peak_rss() {
        // The first workload touches 64 MiB and frees it; the second,
        // measured after the reset, must not inherit that peak.
        let first = vec![1u8; 64 << 20];
        std::hint::black_box(&first);
        drop(first);
        let inherited = report::peak_rss_mib();
        report::reset_peak_rss().unwrap();
        let own = report::peak_rss_mib();
        assert!(
            inherited >= 64.0 && own < inherited - 32.0,
            "peak {inherited:.1} MiB before the reset, {own:.1} MiB after"
        );
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed", "x", "--workload", "all"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seed", "4"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--seconds", "1e30"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--seconds", "-1"])).is_err());
        let ok = parse_args(&args(&[
            "--workload",
            "all",
            "--seconds",
            "0.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(ok.workloads.len(), 4);
        assert!(ok.trace);
        assert_eq!(ok.seed, 1);
    }
}
