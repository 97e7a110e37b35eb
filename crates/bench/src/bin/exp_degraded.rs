//! Degraded-mode experiment: the health governor riding out sustained
//! accelerator and storage faults.
//!
//! Five cells:
//!
//! 1. **Wedge storm (dm-crypt)** — every descriptor submitted on the
//!    overlapped CTR read path wedges forever. Each read must still
//!    return the written bytes: the watchdog abandons the op, the DMA
//!    bounce window is zeroized, and the bitsliced CPU path redoes the
//!    work. After `TRIP_FAILURES` abandons the breaker opens — no
//!    further watchdog deadline is ever burned — and reads while Open
//!    go inline with a mean latency at most `MAX_OPEN_INFLATION`× the
//!    healthy mean. Once the storm lifts and the probe interval
//!    elapses, half-open probes close the breaker within the probe
//!    budget.
//! 2. **Corrupt engine (dm-crypt)** — the engine completes but returns
//!    a corrupt status word on every op. No corrupt byte may surface:
//!    every read is redone on the CPU and compared against the written
//!    image.
//! 3. **Wedge storm (lifecycle)** — the same persistent wedge armed
//!    across an unlock's clustered on-demand decrypt batches; every
//!    page must decrypt byte-identically via abandonment and, once the
//!    breaker trips, the open-breaker CPU route.
//! 4. **Flaky disk** — transient `DiskError` faults at a steady rate
//!    on the volume's reads; the governor's bounded retry/backoff must
//!    absorb every one (zero exhausted budgets, zero surfaced errors).
//! 5. **Chaos fleet** — the fleet harness's accel-wedge storms and
//!    flaky-disk intervals at full mix: zero silent corruptions, zero
//!    device errors, with the per-device degradation columns showing
//!    real trips.
//!
//! Results print as tables and land in `BENCH_degraded.json`. With
//! `--enforce`, any surfaced fault, non-identical read, missed trip,
//! blown latency budget, or failed recovery fails the run.

use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::{PageCipherMode, PipelineConfig, ReadaheadConfig};
use sentry_core::health::{PROBE_AFTER_NS, PROBE_SUCCESSES, TRIP_FAILURES};
use sentry_core::{HealthGovernor, HealthState, HealthStats, Sentry, SentryConfig};
use sentry_kernel::block::{RamDisk, SECTOR_SIZE};
use sentry_kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_kernel::Kernel;
use sentry_soc::accel::AccelPowerState;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::{FaultAction, FaultPlan, Soc};
use sentry_workloads::fleet::{run_fleet, FleetConfig};

/// Enforced ceiling on mean read latency while the breaker is Open,
/// relative to the healthy mean.
const MAX_OPEN_INFLATION: f64 = 10.0;

/// Sectors per dm-crypt read in the storm cells.
const READ_SECTORS: usize = 16;

/// Healthy baseline reads before the storm.
const HEALTHY_READS: usize = 8;

/// Reads performed under the wedge storm.
const STORM_READS: usize = 10;

/// Reads performed under the corrupt-engine regime.
const CORRUPT_READS: usize = 6;

/// Reads performed under the flaky-disk regime.
const FLAKY_READS: usize = 6;

/// Vault pages in the lifecycle cell (4 readahead clusters of 4).
const LIFECYCLE_PAGES: u64 = 16;

/// A deterministic test pattern.
fn pattern(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
}

/// A CTR dm-crypt stack with the async pipeline and an awake
/// accelerator — the configuration where the governor's accel path is
/// live.
fn ctr_stack() -> (CryptoApi, Soc, RamDisk, DmCrypt) {
    let mut api = CryptoApi::new();
    api.register(Box::new(GenericAesEngine::new(0)));
    api.preferred_mut()
        .expect("engine")
        .set_mode(PageCipherMode::Ctr)
        .expect("CTR mode");
    let mut soc = Soc::tegra3_small();
    soc.accel.state = AccelPowerState::Awake;
    let dm = DmCrypt::with_preferred_cipher();
    dm.enable_pipeline(PipelineConfig::enabled());
    dm.set_key(&mut api, &mut soc, &[0x5E; 16])
        .expect("set key");
    (api, soc, RamDisk::new(256), dm)
}

/// What the dm-crypt wedge-storm cell measured.
struct StormCell {
    healthy_mean_ns: f64,
    open_mean_ns: f64,
    open_reads: u64,
    reads: u64,
    identical: u64,
    time_to_open_ns: u64,
    watchdog_ns: u64,
    recovery_reads: u64,
    recovered: bool,
    health: HealthStats,
}

impl StormCell {
    fn inflation(&self) -> f64 {
        if self.healthy_mean_ns == 0.0 {
            0.0
        } else {
            self.open_mean_ns / self.healthy_mean_ns
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn storm_cell() -> StormCell {
    let (mut api, mut soc, mut disk, dm) = ctr_stack();
    let data = pattern(READ_SECTORS * SECTOR_SIZE, 0xA5);
    dm.write(&mut api, &mut soc, &mut disk, 0, &data)
        .expect("write");

    let read_once = |api: &mut CryptoApi, soc: &mut Soc, disk: &mut RamDisk| {
        let t0 = soc.clock.now_ns();
        let mut back = vec![0u8; data.len()];
        dm.read(api, soc, disk, 0, &mut back).expect("read");
        (soc.clock.now_ns() - t0, back == data)
    };

    let mut healthy_sum = 0u64;
    for _ in 0..HEALTHY_READS {
        let (dt, _) = read_once(&mut api, &mut soc, &mut disk);
        healthy_sum += dt;
    }
    let healthy_mean_ns = healthy_sum as f64 / HEALTHY_READS as f64;
    // The deadline the governor derives for a full-read miss run — the
    // reporting yardstick for time-to-trip.
    let watchdog_ns = HealthGovernor::watchdog_ns(soc.accel.op_duration_ns(data.len() as u64));

    soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    let storm_t0 = soc.clock.now_ns();
    let mut identical = 0u64;
    let mut open_sum = 0u64;
    let mut open_reads = 0u64;
    let mut time_to_open_ns = 0u64;
    for _ in 0..STORM_READS {
        let was_open = dm.health_state() == HealthState::Open;
        let (dt, same) = read_once(&mut api, &mut soc, &mut disk);
        if same {
            identical += 1;
        }
        if was_open {
            open_sum += dt;
            open_reads += 1;
        }
        if time_to_open_ns == 0 && dm.health_state() == HealthState::Open {
            time_to_open_ns = soc.clock.now_ns() - storm_t0;
        }
    }
    soc.failpoints.disarm();

    // Storm over: cool down past the probe interval, then count the
    // reads (= half-open probes) the breaker needs to close again.
    soc.clock.advance(PROBE_AFTER_NS);
    let probe_budget = u64::from(PROBE_SUCCESSES) + 2;
    let mut recovery_reads = 0u64;
    while dm.health_state() != HealthState::Healthy && recovery_reads < probe_budget {
        let (_, same) = read_once(&mut api, &mut soc, &mut disk);
        if same {
            identical += 1;
        }
        recovery_reads += 1;
    }
    let recovered = dm.health_state() == HealthState::Healthy;
    let health = dm.health_stats(soc.clock.now_ns());
    StormCell {
        healthy_mean_ns,
        open_mean_ns: if open_reads == 0 {
            0.0
        } else {
            open_sum as f64 / open_reads as f64
        },
        open_reads,
        reads: STORM_READS as u64 + recovery_reads,
        identical,
        time_to_open_ns,
        watchdog_ns,
        recovery_reads,
        recovered,
        health,
    }
}

/// What the corrupt-engine cell measured.
struct CorruptCell {
    reads: u64,
    identical: u64,
    health: HealthStats,
}

fn corrupt_cell() -> CorruptCell {
    let (mut api, mut soc, mut disk, dm) = ctr_stack();
    let data = pattern(READ_SECTORS * SECTOR_SIZE, 0x3C);
    dm.write(&mut api, &mut soc, &mut disk, 0, &data)
        .expect("write");
    soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelCorrupt,
    ));
    let mut identical = 0u64;
    for _ in 0..CORRUPT_READS {
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .expect("read");
        if back == data {
            identical += 1;
        }
    }
    soc.failpoints.disarm();
    CorruptCell {
        reads: CORRUPT_READS as u64,
        identical,
        health: dm.health_stats(soc.clock.now_ns()),
    }
}

/// What the lifecycle wedge cell measured.
struct LifecycleCell {
    pages: u64,
    identical: u64,
    breaker_open_batches: u64,
    health: HealthStats,
}

fn lifecycle_cell() -> LifecycleCell {
    let config = SentryConfig::tegra3_locked_l2(2)
        .with_cipher_mode(PageCipherMode::Ctr)
        .with_pipeline(PipelineConfig::enabled())
        .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(0));
    let mut sentry = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let app = sentry.kernel.spawn("vault");
    sentry.mark_sensitive(app).expect("mark sensitive");
    let page_len = usize::try_from(PAGE_SIZE).expect("page fits usize");
    let images: Vec<Vec<u8>> = (0..LIFECYCLE_PAGES)
        .map(|vpn| pattern(page_len, vpn as u8))
        .collect();
    for (vpn, img) in images.iter().enumerate() {
        sentry
            .write(app, vpn as u64 * PAGE_SIZE, img)
            .expect("write page");
    }
    sentry.on_lock().expect("lock");
    // Persistent wedge across the unlock and its resume: every routed
    // decrypt batch must complete via watchdog abandonment or the
    // open-breaker CPU route.
    sentry.kernel.soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    sentry.on_unlock().expect("unlock");
    let mut identical = 0u64;
    let mut buf = vec![0u8; page_len];
    for (vpn, img) in images.iter().enumerate() {
        sentry
            .read(app, vpn as u64 * PAGE_SIZE, &mut buf)
            .expect("read page");
        if &buf == img {
            identical += 1;
        }
    }
    sentry.kernel.soc.failpoints.disarm();
    LifecycleCell {
        pages: LIFECYCLE_PAGES,
        identical,
        breaker_open_batches: sentry.stats.batch_fallback.breaker_open,
        health: sentry.health_stats(),
    }
}

/// What the flaky-disk cell measured.
struct FlakyCell {
    reads: u64,
    identical: u64,
    health: HealthStats,
}

fn flaky_cell() -> FlakyCell {
    let (mut api, mut soc, mut disk, dm) = ctr_stack();
    let data = pattern(8 * SECTOR_SIZE, 0x77);
    dm.write(&mut api, &mut soc, &mut disk, 0, &data)
        .expect("write");
    // Every other disk read faults transiently: each dm-crypt read's
    // first attempt fails and its first backed-off retry lands clean.
    soc.failpoints
        .arm(FaultPlan::at_rate("disk.read", 2, FaultAction::DiskError));
    let mut identical = 0u64;
    for _ in 0..FLAKY_READS {
        let mut back = vec![0u8; data.len()];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .expect("read survives transient faults");
        if back == data {
            identical += 1;
        }
    }
    soc.failpoints.disarm();
    FlakyCell {
        reads: FLAKY_READS as u64,
        identical,
        health: dm.health_stats(soc.clock.now_ns()),
    }
}

fn health_json(h: &HealthStats) -> Json {
    Json::obj()
        .field("trips", h.trips)
        .field("probes", h.probes)
        .field("timeouts", h.timeouts)
        .field("corrupt_ops", h.corrupt_ops)
        .field("abandoned_bytes", h.abandoned_bytes)
        .field("fallback_crypt_bytes", h.fallback_crypt_bytes)
        .field("recoveries", h.recoveries)
        .field("time_degraded_ns", h.time_degraded_ns)
        .field("disk_attempts", h.disk.attempts)
        .field("disk_recovered", h.disk.recovered)
        .field("disk_exhausted", h.disk.exhausted)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let storm = storm_cell();
    let corrupt = corrupt_cell();
    let lifecycle = lifecycle_cell();
    let flaky = flaky_cell();
    let fleet_config = FleetConfig::new(12, 2)
        .with_events_per_device(32)
        .with_master_seed(0xFA11);
    let fleet = run_fleet(&fleet_config);

    print_table(
        "Wedge storm on the dm-crypt read path",
        &[
            "Reads",
            "Identical",
            "Timeouts",
            "Trips",
            "Time to Open (us)",
            "Watchdog (us)",
            "Healthy mean (us)",
            "Open mean (us)",
            "Inflation",
            "Recovery reads",
            "Recovered",
        ],
        &[vec![
            storm.reads.to_string(),
            storm.identical.to_string(),
            storm.health.timeouts.to_string(),
            storm.health.trips.to_string(),
            format!("{:.1}", storm.time_to_open_ns as f64 / 1000.0),
            format!("{:.1}", storm.watchdog_ns as f64 / 1000.0),
            format!("{:.1}", storm.healthy_mean_ns / 1000.0),
            format!("{:.1}", storm.open_mean_ns / 1000.0),
            format!("{:.2}x", storm.inflation()),
            storm.recovery_reads.to_string(),
            storm.recovered.to_string(),
        ]],
    );

    print_table(
        "Corrupt engine and flaky disk",
        &[
            "Cell",
            "Reads",
            "Identical",
            "Corrupt ops",
            "Disk retries",
            "Recovered",
            "Exhausted",
        ],
        &[
            vec![
                "corrupt-engine".to_string(),
                corrupt.reads.to_string(),
                corrupt.identical.to_string(),
                corrupt.health.corrupt_ops.to_string(),
                corrupt.health.disk.attempts.to_string(),
                corrupt.health.disk.recovered.to_string(),
                corrupt.health.disk.exhausted.to_string(),
            ],
            vec![
                "flaky-disk".to_string(),
                flaky.reads.to_string(),
                flaky.identical.to_string(),
                flaky.health.corrupt_ops.to_string(),
                flaky.health.disk.attempts.to_string(),
                flaky.health.disk.recovered.to_string(),
                flaky.health.disk.exhausted.to_string(),
            ],
        ],
    );

    print_table(
        "Wedge storm across a lifecycle unlock",
        &[
            "Pages",
            "Identical",
            "Timeouts",
            "Trips",
            "Breaker-open batches",
            "Fallback KiB",
        ],
        &[vec![
            lifecycle.pages.to_string(),
            lifecycle.identical.to_string(),
            lifecycle.health.timeouts.to_string(),
            lifecycle.health.trips.to_string(),
            lifecycle.breaker_open_batches.to_string(),
            format!(
                "{:.1}",
                lifecycle.health.fallback_crypt_bytes as f64 / 1024.0
            ),
        ]],
    );

    print_table(
        "Chaos fleet (accel storms + flaky-disk intervals in the mix)",
        &[
            "Devices",
            "Events",
            "Storms",
            "Flaky intervals",
            "Trips",
            "Timeouts",
            "Fallback KiB",
            "Disk recovered",
            "Silent",
            "Errors",
        ],
        &[vec![
            fleet.devices.to_string(),
            fleet.events.to_string(),
            fleet.accel_storms.to_string(),
            fleet.flaky_disk_intervals.to_string(),
            fleet.health.trips.to_string(),
            fleet.health.timeouts.to_string(),
            format!("{:.1}", fleet.health.fallback_crypt_bytes as f64 / 1024.0),
            fleet.health.disk.recovered.to_string(),
            fleet.silent_corruptions.to_string(),
            fleet.device_errors.to_string(),
        ]],
    );

    let storm_json = Json::obj()
        .field("reads", storm.reads)
        .field("identical", storm.identical)
        .field("open_reads", storm.open_reads)
        .field("time_to_open_ns", storm.time_to_open_ns)
        .field("watchdog_ns", storm.watchdog_ns)
        .field("healthy_mean_ns", rounded(storm.healthy_mean_ns, 1))
        .field("open_mean_ns", rounded(storm.open_mean_ns, 1))
        .field("inflation", rounded(storm.inflation(), 3))
        .field("recovery_reads", storm.recovery_reads)
        .field("recovered", storm.recovered)
        .field("health", health_json(&storm.health));
    let corrupt_json = Json::obj()
        .field("reads", corrupt.reads)
        .field("identical", corrupt.identical)
        .field("health", health_json(&corrupt.health));
    let lifecycle_json = Json::obj()
        .field("pages", lifecycle.pages)
        .field("identical", lifecycle.identical)
        .field("breaker_open_batches", lifecycle.breaker_open_batches)
        .field("health", health_json(&lifecycle.health));
    let flaky_json = Json::obj()
        .field("reads", flaky.reads)
        .field("identical", flaky.identical)
        .field("health", health_json(&flaky.health));
    let fleet_json = Json::obj()
        .field("devices", fleet.devices)
        .field("events", fleet.events)
        .field("accel_storms", fleet.accel_storms)
        .field("flaky_disk_intervals", fleet.flaky_disk_intervals)
        .field("silent_corruptions", fleet.silent_corruptions)
        .field("device_errors", fleet.device_errors)
        .field("health", health_json(&fleet.health));
    write_bench(
        "BENCH_degraded.json",
        &Json::obj()
            .field("experiment", "degraded")
            .field("max_open_inflation", MAX_OPEN_INFLATION)
            .field("trip_failures", TRIP_FAILURES)
            .field("probe_successes", PROBE_SUCCESSES)
            .field("storm", storm_json)
            .field("corrupt", corrupt_json)
            .field("lifecycle", lifecycle_json)
            .field("flaky_disk", flaky_json)
            .field("fleet", fleet_json),
    );

    if enforce {
        let mut failed = false;
        // 1. 100% completion, byte-identical, under the storm.
        if storm.identical != storm.reads {
            eprintln!(
                "FAIL [storm]: only {}/{} reads returned the written bytes",
                storm.identical, storm.reads
            );
            failed = true;
        }
        // 2. The breaker trips at the K-th watchdog expiry and never
        //    burns another deadline — "trips within one watchdog
        //    deadline" of the K-th failure.
        if storm.health.trips < 1 || storm.health.timeouts != u64::from(TRIP_FAILURES) {
            eprintln!(
                "FAIL [storm]: {} timeouts / {} trips — breaker did not trip at the \
                 {}-failure threshold",
                storm.health.timeouts, storm.health.trips, TRIP_FAILURES
            );
            failed = true;
        }
        if storm.time_to_open_ns == 0 {
            eprintln!("FAIL [storm]: breaker never observed Open");
            failed = true;
        }
        // 3. Open-mode latency inflation within budget.
        if storm.open_reads == 0 || storm.inflation() > MAX_OPEN_INFLATION {
            eprintln!(
                "FAIL [storm]: open-mode inflation {:.2}x over {} reads exceeds \
                 {MAX_OPEN_INFLATION:.1}x",
                storm.inflation(),
                storm.open_reads
            );
            failed = true;
        }
        // 4. Recovery within the probe budget once the storm lifts.
        if !storm.recovered
            || storm.recovery_reads > u64::from(PROBE_SUCCESSES)
            || storm.health.recoveries < 1
        {
            eprintln!(
                "FAIL [storm]: not Healthy after {} recovery reads (budget {})",
                storm.recovery_reads, PROBE_SUCCESSES
            );
            failed = true;
        }
        // 5. Corrupt output never surfaces.
        if corrupt.identical != corrupt.reads || corrupt.health.corrupt_ops == 0 {
            eprintln!(
                "FAIL [corrupt]: {}/{} identical with {} corrupt ops detected",
                corrupt.identical, corrupt.reads, corrupt.health.corrupt_ops
            );
            failed = true;
        }
        // 6. Lifecycle batches survive the same storm.
        if lifecycle.identical != lifecycle.pages
            || lifecycle.health.timeouts == 0
            || lifecycle.health.trips == 0
            || lifecycle.breaker_open_batches == 0
        {
            eprintln!(
                "FAIL [lifecycle]: {}/{} pages identical, {} timeouts, {} trips, \
                 {} breaker-open batches",
                lifecycle.identical,
                lifecycle.pages,
                lifecycle.health.timeouts,
                lifecycle.health.trips,
                lifecycle.breaker_open_batches
            );
            failed = true;
        }
        // 7. Flaky disk fully absorbed by bounded retry.
        if flaky.identical != flaky.reads
            || flaky.health.disk.recovered != flaky.reads
            || flaky.health.disk.exhausted != 0
        {
            eprintln!(
                "FAIL [flaky-disk]: {}/{} identical, {} recovered, {} exhausted",
                flaky.identical,
                flaky.reads,
                flaky.health.disk.recovered,
                flaky.health.disk.exhausted
            );
            failed = true;
        }
        // 8. Chaos fleet: degradation everywhere, corruption nowhere.
        if fleet.silent_corruptions != 0
            || fleet.device_errors != 0
            || fleet.accel_storms == 0
            || fleet.flaky_disk_intervals == 0
            || fleet.health.trips == 0
            || fleet.health.disk.exhausted != 0
        {
            eprintln!(
                "FAIL [fleet]: {} silent, {} errors, {} storms, {} flaky intervals, \
                 {} trips, {} exhausted disk retries",
                fleet.silent_corruptions,
                fleet.device_errors,
                fleet.accel_storms,
                fleet.flaky_disk_intervals,
                fleet.health.trips,
                fleet.health.disk.exhausted
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: storms ridden out byte-identically, breaker tripped at {} failures \
             and recovered in {} probes, open-mode inflation {:.2}x <= {MAX_OPEN_INFLATION:.1}x, \
             flaky disk absorbed, chaos fleet clean",
            TRIP_FAILURES,
            storm.recovery_reads,
            storm.inflation()
        );
    }
}
