//! The metrics: end-to-end ones from untraced passes, per-layer ones
//! from traced passes, each with its name and unit.
//!
//! Simulated numbers come from the first pass (every pass on a seed
//! does identical simulated work). Host numbers are the median over the
//! passes of a run.

use crate::micro::KERNELS;
use crate::stats::{median, Dist};
use crate::trace::{SpanTotals, C};
use crate::workloads::{Part, Pass, FLEET_KINDS};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// For a percentile of raw samples: which percentile and of how
    /// many samples.
    pub of: Option<(f64, usize)>,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        of: None,
    }
}

/// Per-span totals of one traced pass.
pub type Totals = BTreeMap<&'static str, SpanTotals>;

#[allow(clippy::cast_precision_loss)]
fn f(v: u64) -> f64 {
    v as f64
}

fn host_ops_per_s(p: &Pass) -> f64 {
    f(p.op_host_ns.len() as u64) * 1e9 / f(p.op_host_ns.iter().sum::<u64>().max(1))
}

/// Median over passes of `g(pass)`.
fn across(passes: &[Pass], g: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(g).collect::<Vec<_>>())
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(passes: &[Pass], peak_rss_mib: f64) -> Vec<Metric> {
    let first = &passes[0];
    let sim_ns = first.op_sim_ns.iter().sum::<u64>().max(1);
    vec![
        metric(
            "sim_ops_per_s",
            "1/s",
            f(first.op_sim_ns.len() as u64) * 1e9 / f(sim_ns),
        ),
        metric("host_ops_per_s", "1/s", median_host_ops_per_s(passes)),
        metric("setup_s", "s", across(passes, |p| f(p.setup_ns) / 1e9)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("onsoc_peak_kib", "KiB", f(first.onsoc_peak_bytes) / 1024.0),
    ]
}

/// Host and simulated self time per call of span `name`, and its call
/// count: host is the median over the traced passes, sim and calls come
/// from the first (they are identical in every pass).
fn per_call(traced: &[Totals], name: &str) -> (f64, f64, f64) {
    let get = |t: &Totals| t.get(name).copied().unwrap_or_default();
    let first = get(&traced[0]);
    let calls = f(first.calls.max(1));
    let host = median(
        &traced
            .iter()
            .map(|t| {
                let s = get(t);
                f(s.self_host_ns) / f(s.calls.max(1)) / 1e3
            })
            .collect::<Vec<_>>(),
    );
    (host, f(first.self_sim_ns) / calls / 1e3, f(first.calls))
}

/// The per-layer metrics, in `BENCHMARK.json` order. `reference` is an
/// untraced pass (its counters equal every traced pass's), `traced` the
/// span totals of `traced_passes`, `kernels` the kernel timings. Host
/// op latencies here include the tracing overhead.
#[must_use]
pub fn per_layer(
    reference: &Pass,
    traced: &[Totals],
    traced_passes: &[Pass],
    kernels: &[f64; 7],
) -> Vec<Metric> {
    let c = |k: C| f(reference.counters.get(k));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ops = f(reference.attempted);
    let mut out = Vec::new();
    let timed = |out: &mut Vec<Metric>, span: &str, with_calls: bool| {
        let (host, sim, calls) = per_call(traced, span);
        out.push(metric(format!("{span}.host_us"), "us", host));
        out.push(metric(format!("{span}.sim_us"), "us", sim));
        if with_calls {
            out.push(metric(format!("{span}.calls"), "count", calls));
        }
    };
    for call in ["on_lock", "on_unlock", "touch_pages", "read", "write"] {
        timed(&mut out, &format!("core.lifecycle.{call}"), false);
    }
    timed(&mut out, "core.lifecycle.scheduler_tick", true);
    out.extend([
        metric("core.lifecycle.recover.calls", "count", c(C::Recoveries)),
        metric(
            "core.lifecycle.ondemand_faults",
            "count",
            c(C::OndemandFaults),
        ),
        metric(
            "core.lifecycle.readahead_pages",
            "count",
            c(C::ReadaheadPages),
        ),
        metric("core.lifecycle.sweep_pages", "count", c(C::SweepPages)),
        metric("core.lifecycle.crypt_pages", "count", c(C::CryptBatchPages)),
        metric(
            "core.lifecycle.zero_drain_us",
            "us",
            c(C::ZeroDrainNs) / 1e3,
        ),
        metric("core.lifecycle.crypt_retries", "count", c(C::CryptRetries)),
        metric("core.integrity.tags_stored", "count", c(C::TagsStored)),
        metric(
            "core.integrity.verified_pages",
            "count",
            c(C::VerifiedPages),
        ),
        metric(
            "core.integrity.verify_retries",
            "count",
            c(C::VerifyRetries),
        ),
        metric("core.integrity.violations", "count", c(C::Violations)),
        metric("core.encdram.faults", "count", c(C::PagerFaults)),
        metric("core.encdram.pageins", "count", c(C::Pageins)),
        metric("core.encdram.pageouts", "count", c(C::Pageouts)),
        metric(
            "core.encdram.hit_frac",
            "ratio",
            1.0 - ratio(c(C::PagerFaults), ops),
        ),
        metric(
            "core.encdram.crypt_bytes_per_user_byte",
            "ratio",
            ratio(c(C::PagerCryptBytes), c(C::UserBytes)),
        ),
        metric(
            "core.pressure.high_water_kib",
            "KiB",
            f(reference.onsoc_peak_bytes) / 1024.0,
        ),
        metric("core.pressure.sheds", "count", c(C::Sheds)),
        metric("core.pressure.spills", "count", c(C::Spills)),
        metric("core.pressure.spill_restores", "count", c(C::SpillRestores)),
        metric("core.pressure.denied", "count", c(C::Denied)),
        metric("crypto.pipeline.keystream_hits", "count", c(C::KsHits)),
        metric("crypto.pipeline.keystream_misses", "count", c(C::KsMisses)),
        metric("crypto.pipeline.precomputed", "count", c(C::KsPrecomputed)),
        metric(
            "crypto.pipeline.used_frac",
            "ratio",
            ratio(c(C::KsHits), c(C::KsPrecomputed)),
        ),
        metric("crypto.health.trips", "count", c(C::Trips)),
        metric("crypto.health.timeouts", "count", c(C::Timeouts)),
        metric(
            "crypto.health.fallback_crypt_kib",
            "KiB",
            c(C::FallbackCryptBytes) / 1024.0,
        ),
        metric(
            "crypto.health.time_degraded_ms",
            "ms",
            c(C::TimeDegradedNs) / 1e6,
        ),
        metric("crypto.health.disk_retries", "count", c(C::DiskRetries)),
    ]);
    for call in ["read", "write"] {
        timed(&mut out, &format!("kernel.bufcache.{call}"), false);
    }
    out.extend([
        metric(
            "kernel.dmcrypt.routed_sectors",
            "count",
            c(C::RoutedSectors),
        ),
        metric(
            "kernel.dmcrypt.inline_sectors",
            "count",
            c(C::InlineSectors),
        ),
        metric("kernel.dmcrypt.xor_sectors", "count", c(C::XorSectors)),
        metric("kernel.dmcrypt.fallbacks", "count", c(C::DmFallbacks)),
        metric("kernel.dmcrypt.accel_stall_us", "us", c(C::DmStallNs) / 1e3),
        metric("soc.accel.ops", "count", c(C::AccelOps)),
        metric("soc.accel.busy_us", "us", c(C::AccelBusyNs) / 1e3),
        metric("soc.accel.stall_us", "us", c(C::AccelStallNs) / 1e3),
        metric("soc.accel.overlap_us", "us", c(C::AccelOverlapNs) / 1e3),
        metric("soc.accel.max_depth", "count", f(reference.accel_max_depth)),
        metric("soc.cache.hits", "count", c(C::L2Hits)),
        metric("soc.cache.misses", "count", c(C::L2Misses)),
        metric("soc.cache.writebacks", "count", c(C::L2Writebacks)),
        metric("soc.bus.bytes_read_kib", "KiB", c(C::BusBytesRead) / 1024.0),
        metric(
            "soc.bus.bytes_written_kib",
            "KiB",
            c(C::BusBytesWritten) / 1024.0,
        ),
    ]);
    let (build, _, _) = per_call(traced, "workloads.fleet.device_build");
    out.push(metric("workloads.fleet.device_build.host_us", "us", build));
    for kind in FLEET_KINDS {
        timed(&mut out, &format!("workloads.fleet.{kind}"), false);
    }
    out.extend(
        KERNELS
            .iter()
            .zip(kernels)
            .map(|(&(name, unit), &value)| metric(name, unit, value)),
    );
    out.extend(part_metrics(reference));
    let host = |p: &Pass| Dist::of(&p.op_host_ns);
    let n = reference.op_host_ns.len();
    out.extend([
        Metric {
            of: Some((50.0, n)),
            ..metric(
                "workload.host_op_p50_us",
                "us",
                across(traced_passes, |p| f(host(p).p50)) / 1e3,
            )
        },
        Metric {
            of: Some((host(reference).tail_pct, n)),
            ..metric(
                "workload.host_op_tail_us",
                "us",
                across(traced_passes, |p| f(host(p).tail)) / 1e3,
            )
        },
        metric(
            "workload.traced_host_ops_per_s",
            "1/s",
            median_host_ops_per_s(traced_passes),
        ),
    ]);
    out
}

/// Median and tail of each [`Part`]'s simulated latency.
fn part_metrics(p: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    for part in Part::ALL {
        let (unit, scale) = match part {
            Part::Lock | Part::Resume | Part::Drain => ("ms", 1e6),
            Part::Read | Part::Write => ("us", 1e3),
        };
        let d = Dist::of(&p.parts[part as usize]);
        let name = part.name();
        out.push(Metric {
            of: Some((50.0, d.n)),
            ..metric(format!("workload.{name}_{unit}"), unit, f(d.p50) / scale)
        });
        if part != Part::Drain {
            out.push(Metric {
                of: Some((d.tail_pct, d.n)),
                ..metric(
                    format!("workload.{name}_tail_{unit}"),
                    unit,
                    f(d.tail) / scale,
                )
            });
        }
    }
    out
}

/// Median over `passes` of their host operations per second.
#[must_use]
pub fn median_host_ops_per_s(passes: &[Pass]) -> f64 {
    across(passes, host_ops_per_s)
}

/// The run's result as one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restart the peak RSS at the current RSS, so the next
/// [`peak_rss_mib`] sees only what came after.
///
/// # Errors
///
/// The kernel refused the reset (`/proc/self/clear_refs`).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting the peak RSS: {e}"))
}
