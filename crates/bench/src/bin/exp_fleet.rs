//! Fleet corpus experiment: N independent device stacks under a
//! heavy-traffic event stream, with aggregated percentile metrics.
//!
//! For each fleet size (default 1k and 10k devices) the seeded traffic
//! — lock/unlock churn, background paging, dm-crypt bursts, power cuts,
//! DRAM tampers, accelerator storms, flaky disks, memory squeezes —
//! runs once, one device at a time on one host thread. The simulated
//! makespan of a fleet host with 1, 2 and 4 cores is arithmetic over
//! the report's per-device simulated time: device `i` runs on core
//! `i % partitions`, so the makespan is the busiest core's summed
//! device time ([`FleetReport::makespan_ns`]), and sim events/sec
//! divides the fleet's events by it. With `--enforce`:
//!
//! * sim events/sec at 4 partitions must be ≥ 2× that at 1, per N;
//! * every injected fault must be accounted for: zero silent
//!   corruptions, zero device errors, every planted tamper detected,
//!   and at least one power cut and one tamper actually fired
//!   (otherwise the zero-corruption claim is vacuous).
//!
//! Results land in `BENCH_fleet.json`, which holds simulated time only,
//! so the same sizes and `--events` regenerate it byte for byte. The
//! host rate of the one-thread run, timed around each `run_fleet` call,
//! is printed, never written.

use std::time::Instant;

use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_workloads::fleet::{run_fleet, FleetConfig, FleetReport};

/// Enforced floor on the 1→4 partition sim-throughput scaling.
const MIN_SCALING: f64 = 2.0;

/// Partition counts reported per fleet size (first must be 1; last is
/// the scaling gate's numerator).
const PARTITIONS: &[usize] = &[1, 2, 4];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_sizes(args: &[String]) -> Vec<usize> {
    flag_value(args, "--devices").map_or_else(
        || vec![1_000, 10_000],
        |v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--devices takes integers"))
                .collect()
        },
    )
}

/// Sim events/sec at the last partition count over that at 1.
fn sim_scaling(r: &FleetReport) -> f64 {
    r.events_per_sim_sec(*PARTITIONS.last().expect("partitions"))
        / r.events_per_sim_sec(PARTITIONS[0])
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let enforce = args.iter().any(|a| a == "--enforce");
    let sizes = parse_sizes(&args);
    let events: usize =
        flag_value(&args, "--events").map_or(24, |v| v.parse().expect("--events takes an integer"));

    let mut host_secs = Vec::new();
    let reports: Vec<FleetReport> = sizes
        .iter()
        .map(|&devices| {
            let start = Instant::now();
            let report = run_fleet(&FleetConfig::new(devices, 1).with_events_per_device(events));
            host_secs.push(start.elapsed().as_secs_f64());
            report
        })
        .collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                r.events.to_string(),
                format!("{:.1}", r.unlock_latencies.percentile(0.50) as f64 / 1000.0),
                format!("{:.1}", r.unlock_latencies.percentile(0.95) as f64 / 1000.0),
                format!("{:.1}", r.unlock_latencies.percentile(0.99) as f64 / 1000.0),
                r.recoveries.to_string(),
                r.quarantined_pages.to_string(),
                r.silent_corruptions.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fleet unlock latency",
        &[
            "Devices",
            "Events",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "Recoveries",
            "Quarantined",
            "Silent",
        ],
        &rows,
    );

    let partition_rows: Vec<Vec<String>> = reports
        .iter()
        .flat_map(|r| {
            PARTITIONS.iter().map(move |&p| {
                vec![
                    r.devices.to_string(),
                    p.to_string(),
                    format!("{:.3}", r.makespan_ns(p) as f64 / 1e9),
                    format!("{:.0}", r.events_per_sim_sec(p)),
                    format!("{:.2}x", r.events_per_sim_sec(p) / r.events_per_sim_sec(1)),
                ]
            })
        })
        .collect();
    print_table(
        "Simulated makespan over modelled cores (device i on core i % partitions)",
        &[
            "Devices",
            "Partitions",
            "Makespan (s)",
            "Ev/s (sim)",
            "Sim scaling",
        ],
        &partition_rows,
    );

    let fault_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                r.power_cuts_fired.to_string(),
                r.recoveries.to_string(),
                r.recovered_entries.to_string(),
                format!("{}/{}", r.tampers_detected, r.tampers_planted),
                r.quarantined_pages.to_string(),
                r.device_errors.to_string(),
                format!("{:.1}", r.setup_sim_ns as f64 / r.devices as f64 / 1000.0),
            ]
        })
        .collect();
    print_table(
        "Injected faults and per-device setup",
        &[
            "Devices",
            "Cuts fired",
            "Recoveries",
            "Rolled fwd",
            "Tampers det/planted",
            "Quarantined",
            "Device errors",
            "Setup (us/dev)",
        ],
        &fault_rows,
    );

    // Per-device degradation columns for the first fleet: the devices
    // the health governor actually pulled through hardware trouble
    // (breaker trips, CPU-fallback bytes, time degraded).
    if let Some(report) = reports.first() {
        let mut degraded: Vec<_> = report
            .degradation
            .iter()
            .filter(|&&(_, trips, fallback, _)| trips > 0 || fallback > 0)
            .collect();
        degraded.sort_by_key(|&&(_, trips, fallback, _)| std::cmp::Reverse((trips, fallback)));
        let degraded_rows: Vec<Vec<String>> = degraded
            .iter()
            .take(8)
            .map(|&&(index, trips, fallback, degraded_ns)| {
                vec![
                    index.to_string(),
                    trips.to_string(),
                    format!("{:.1}", fallback as f64 / 1024.0),
                    format!("{:.1}", degraded_ns as f64 / 1000.0),
                ]
            })
            .collect();
        if !degraded_rows.is_empty() {
            print_table(
                &format!(
                    "Degraded devices ({} of {} — top 8 by trips)",
                    degraded.len(),
                    report.devices
                ),
                &["Device", "Trips", "Fallback KiB", "Degraded (us)"],
                &degraded_rows,
            );
        }
    }

    // Per-device pressure columns for the first fleet: the devices the
    // pressure governor actually squeezed (memory-pressure chaos events
    // — sheds, encrypted spills, typed denials).
    if let Some(report) = reports.first() {
        let mut pressured: Vec<_> = report
            .pressure_columns
            .iter()
            .filter(|&&(_, sheds, spills, denied)| sheds > 0 || spills > 0 || denied > 0)
            .collect();
        pressured
            .sort_by_key(|&&(_, sheds, spills, denied)| std::cmp::Reverse((spills, sheds, denied)));
        let pressure_rows: Vec<Vec<String>> = pressured
            .iter()
            .take(8)
            .map(|&&(index, sheds, spills, denied)| {
                vec![
                    index.to_string(),
                    sheds.to_string(),
                    spills.to_string(),
                    denied.to_string(),
                ]
            })
            .collect();
        if !pressure_rows.is_empty() {
            print_table(
                &format!(
                    "Pressured devices ({} of {} — top 8 by spills)",
                    pressured.len(),
                    report.devices
                ),
                &["Device", "Sheds", "Spills", "Denied"],
                &pressure_rows,
            );
        }
    }

    let host: Vec<String> = reports
        .iter()
        .zip(&host_secs)
        .map(|(r, secs)| {
            format!(
                "{} devices {:.0} events/s",
                r.devices,
                r.events as f64 / secs
            )
        })
        .collect();
    println!("\nhost, one thread: {}", host.join(", "));

    let cells: Json = reports
        .iter()
        .map(|r| {
            let partitions: Json = PARTITIONS
                .iter()
                .map(|&p| {
                    Json::obj()
                        .field("partitions", p)
                        .field("sim_makespan_ns", r.makespan_ns(p))
                        .field("events_per_sim_sec", rounded(r.events_per_sim_sec(p), 1))
                })
                .collect();
            Json::obj()
                .field("devices", r.devices)
                .field("events", r.events)
                .field("unlock_p50_ns", r.unlock_latencies.percentile(0.50))
                .field("unlock_p95_ns", r.unlock_latencies.percentile(0.95))
                .field("unlock_p99_ns", r.unlock_latencies.percentile(0.99))
                .field("unlock_mean_ns", rounded(r.unlock_latencies.mean(), 1))
                .field("unlock_max_ns", r.unlock_latencies.max())
                .field("unlocks", r.unlocks)
                .field("locks", r.locks)
                .field("power_cuts_fired", r.power_cuts_fired)
                .field("recoveries", r.recoveries)
                .field("recovered_entries", r.recovered_entries)
                .field("tampers_planted", r.tampers_planted)
                .field("tampers_detected", r.tampers_detected)
                .field("quarantined_pages", r.quarantined_pages)
                .field("silent_corruptions", r.silent_corruptions)
                .field("device_errors", r.device_errors)
                .field("io_bytes", r.io_bytes)
                .field("sim_busy_ns", r.sim_busy_ns)
                .field("setup_sim_ns", r.setup_sim_ns)
                .field("accel_storms", r.accel_storms)
                .field("flaky_disk_intervals", r.flaky_disk_intervals)
                .field("breaker_trips", r.health.trips)
                .field("watchdog_timeouts", r.health.timeouts)
                .field("fallback_crypt_bytes", r.health.fallback_crypt_bytes)
                .field("time_degraded_ns", r.health.time_degraded_ns)
                .field("disk_retries_recovered", r.health.disk.recovered)
                .field("pressure_events", r.pressure_events)
                .field("exit_reclaimed_pages", r.exit_reclaimed_pages)
                .field("pressure_sheds", r.pressure.sheds)
                .field("pressure_spills", r.pressure.spills)
                .field("pressure_restores", r.pressure.spill_restores)
                .field("pressure_denied", r.pressure.denied)
                .field("pressure_high_water_bytes", r.pressure.high_water_bytes)
                .field("partitions", partitions)
                .field("sim_scaling", rounded(sim_scaling(r), 3))
        })
        .collect();
    write_bench(
        "BENCH_fleet.json",
        &Json::obj()
            .field("experiment", "fleet")
            .field("min_scaling", MIN_SCALING)
            .field("events_per_device", events)
            .field("cells", cells),
    );

    if enforce {
        let mut failed = false;
        for r in &reports {
            let name = format!("{} devices", r.devices);
            if r.silent_corruptions != 0 {
                eprintln!(
                    "FAIL [{name}]: {} reads returned wrong bytes without an error",
                    r.silent_corruptions
                );
                failed = true;
            }
            if r.device_errors != 0 {
                eprintln!("FAIL [{name}]: {} device errors", r.device_errors);
                failed = true;
            }
            if r.tampers_detected != r.tampers_planted {
                eprintln!(
                    "FAIL [{name}]: only {}/{} planted tampers were detected",
                    r.tampers_detected, r.tampers_planted
                );
                failed = true;
            }
            if r.power_cuts_fired == 0 || r.tampers_planted == 0 {
                eprintln!(
                    "FAIL [{name}]: no faults landed ({} cuts, {} tampers) — the \
                     zero-corruption claim is vacuous",
                    r.power_cuts_fired, r.tampers_planted
                );
                failed = true;
            }
            let sim = sim_scaling(r);
            if sim < MIN_SCALING {
                eprintln!(
                    "FAIL [{name}]: sim scaling {sim:.2}x below {MIN_SCALING:.1}x going \
                     1→{} partitions",
                    PARTITIONS.last().expect("partitions")
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        let worst = reports
            .iter()
            .map(sim_scaling)
            .fold(f64::INFINITY, f64::min);
        println!(
            "enforce: worst sim scaling {worst:.2}x >= {MIN_SCALING:.1}x, all faults \
             detected, zero silent corruptions"
        );
    }
}
