//! Pressure experiment: the governor's graceful-degradation and
//! encrypted-spill claims, measured and gated.
//!
//! Five cells:
//!
//! 1. **Exhaustion sweep** — the on-SoC store is driven to physical
//!    exhaustion immediately before each lifecycle entry point (lock,
//!    unlock, demand fault, sweep, eviction storm, crash recovery).
//!    Every run must complete (the governor shed or spilled its way to
//!    the space it needed) or surface a typed error, recover any open
//!    journal while still exhausted, and converge byte-identically
//!    after relief. Zero panics, zero untyped outcomes.
//! 2. **Teardown soak** — 10k lifecycle events in
//!    spawn/write/lock/fault/exit rounds, a Critical budget squeeze
//!    every 16 rounds. On-SoC occupancy after the soak must be back at
//!    (or below) its pre-soak baseline: zero leaked pages.
//! 3. **Critical-mode latency** — per-page demand-fault latency after
//!    a spill/relief cycle (each early fault pays a MAC-verified spill
//!    restore) versus the healthy baseline. Inflation must stay under
//!    `MAX_CRITICAL_INFLATION`×.
//! 4. **Spill hygiene and kill matrix** — after a real spill, a raw
//!    dump of the spill device must contain neither the spilled
//!    tag-store plaintext nor any vault page bytes; and a power cut at
//!    each spill-path failpoint (`spill.stage`, `spill.anchor`,
//!    `spill.restore`) must leave a machine that recovers to
//!    byte-identical application data.
//! 5. **Pressure fleet** — the fleet harness with memory-pressure
//!    chaos events (budget shrinks + process-spawn storms) in the mix:
//!    zero silent corruptions, zero device errors, with real squeezes
//!    drawn and real teardown reclaims counted.
//!
//! Results print as tables and land in `BENCH_pressure.json`. With
//! `--enforce`, any untyped outcome, leaked page, blown latency
//! budget, plaintext sighting, or failed recovery fails the run.

use sentry_attacks::tamper::frame_of;
use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::ReadaheadConfig;
use sentry_core::{DeviceState, PressureStats, Sentry, SentryConfig, SentryError};
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::{FaultAction, FaultPlan, Soc};
use sentry_workloads::fleet::{run_fleet, FleetConfig};

/// Enforced ceiling on per-fault latency after a spill/relief cycle,
/// relative to the healthy demand-fault mean.
const MAX_CRITICAL_INFLATION: f64 = 10.0;

/// Lifecycle events in the teardown soak (each round is six: spawn,
/// write, lock, unlock, demand fault, exit).
const SOAK_EVENTS: usize = 10_000;

/// Events per soak round.
const SOAK_ROUND: usize = 6;

/// A Critical budget squeeze lands every this-many soak rounds.
const SQUEEZE_PERIOD: usize = 16;

/// Vault pages per machine.
const PAGES: usize = 8;

const PAGE: usize = PAGE_SIZE as usize;

/// The spill-path failpoints the kill matrix cuts power at.
const KILL_SITES: [&str; 3] = ["spill.stage", "spill.anchor", "spill.restore"];

fn working_set(seed: u8) -> Vec<u8> {
    (0..PAGES * PAGE)
        .map(|i| {
            seed.wrapping_mul(29)
                .wrapping_add((i * 13 + i / PAGE) as u8)
        })
        .collect()
}

/// A Sentry with every elective on-SoC consumer enabled: readahead
/// clusters, the background sweeper, and a pager slot budget small
/// enough that eviction actually runs.
fn build(seed: u8) -> (Sentry, u32, Vec<u8>) {
    let config = SentryConfig::tegra3_locked_l2(2)
        .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(2))
        .with_slot_limit(2);
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let pid = s.kernel.spawn("vault");
    s.mark_sensitive(pid).expect("mark sensitive");
    let data = working_set(seed);
    s.write(pid, 0, &data).expect("write vault");
    (s, pid, data)
}

/// A locked vault whose tag store holds live tags — the spill lever's
/// natural prey.
fn locked_vault(seed: u8) -> (Sentry, u32, Vec<u8>) {
    let (mut s, pid, data) = build(seed);
    s.on_lock().expect("lock");
    (s, pid, data)
}

// ───────────────────────── cell 1: exhaustion sweep ─────────────────────────

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Lock,
    Unlock,
    Fault,
    Sweep,
    Evict,
    Recover,
}

const ENTRIES: [Entry; 6] = [
    Entry::Lock,
    Entry::Unlock,
    Entry::Fault,
    Entry::Sweep,
    Entry::Evict,
    Entry::Recover,
];

impl Entry {
    fn name(self) -> &'static str {
        match self {
            Entry::Lock => "lock",
            Entry::Unlock => "unlock",
            Entry::Fault => "fault",
            Entry::Sweep => "sweep",
            Entry::Evict => "evict",
            Entry::Recover => "recover",
        }
    }
}

/// Grab every allocatable on-SoC page, then hand back `leave` of them.
fn exhaust(s: &mut Sentry, leave: usize) -> Vec<u64> {
    let mut hoard = Vec::new();
    loop {
        match s.store.alloc_page(&mut s.kernel.soc) {
            Ok(page) => hoard.push(page),
            Err(SentryError::OnSocExhausted) => break,
            Err(e) => panic!("exhaustion must be typed: {e:?}"),
        }
    }
    for _ in 0..leave {
        if let Some(page) = hoard.pop() {
            s.store.free_page(&mut s.kernel.soc, page).expect("free");
        }
    }
    hoard
}

fn relieve(s: &mut Sentry, hoard: Vec<u64>) {
    for page in hoard {
        s.store.free_page(&mut s.kernel.soc, page).expect("free");
    }
    s.sync_pressure();
}

/// Put the machine in the state `entry` expects.
fn stage(s: &mut Sentry, entry: Entry) {
    match entry {
        Entry::Lock => {}
        Entry::Unlock => {
            s.on_lock().expect("staging lock");
        }
        Entry::Fault | Entry::Sweep | Entry::Evict => {
            s.on_lock().expect("staging lock");
            s.on_unlock().expect("staging unlock");
        }
        Entry::Recover => {
            s.kernel.soc.failpoints.arm(FaultPlan::at_site(
                "txn.publish",
                0,
                FaultAction::PowerCut { decay: None },
            ));
            let err = s.on_lock().expect_err("armed lock must die");
            assert!(err.is_power_loss());
        }
    }
}

fn drive(s: &mut Sentry, pid: u32, entry: Entry) -> Result<(), SentryError> {
    match entry {
        Entry::Lock => s.on_lock().map(drop),
        Entry::Unlock => s.on_unlock().map(drop),
        Entry::Fault => s.touch_pages(pid, &[0, 1]),
        Entry::Sweep => s.sweep(2).map(drop),
        Entry::Evict => {
            let vpns: Vec<u64> = (0..PAGES as u64).collect();
            s.touch_pages(pid, &vpns)
        }
        Entry::Recover => s.recover().map(drop),
    }
}

/// One entry point's row in the exhaustion sweep.
struct ExhaustRow {
    entry: Entry,
    runs: u64,
    completed: u64,
    denied: u64,
    untyped: u64,
    recoveries: u64,
    retry_failures: u64,
    settle_failures: u64,
}

fn exhaust_row(entry: Entry) -> ExhaustRow {
    let mut row = ExhaustRow {
        entry,
        runs: 0,
        completed: 0,
        denied: 0,
        untyped: 0,
        recoveries: 0,
        retry_failures: 0,
        settle_failures: 0,
    };
    for leave in 0..3usize {
        row.runs += 1;
        let seed = 0x40u8
            .wrapping_add(leave as u8)
            .wrapping_mul(31)
            .wrapping_add(entry as u8);
        let (mut s, pid, data) = build(seed);
        stage(&mut s, entry);
        let hoard = exhaust(&mut s, leave);

        match drive(&mut s, pid, entry) {
            Ok(()) => row.completed += 1,
            Err(SentryError::OnSocExhausted | SentryError::TransitionInFlight { .. }) => {
                row.denied += 1;
            }
            Err(_) => row.untyped += 1,
        }
        if s.txn_in_flight() {
            if s.recover().is_err() {
                row.untyped += 1;
                continue;
            }
            row.recoveries += 1;
        }

        relieve(&mut s, hoard);
        if s.txn_in_flight() && s.recover().is_err() {
            row.retry_failures += 1;
            continue;
        }
        match drive(&mut s, pid, entry) {
            Ok(()) | Err(SentryError::WrongState { .. }) => {}
            Err(_) => row.retry_failures += 1,
        }

        // Settle unlocked and check the vault byte-for-byte.
        if s.state() == DeviceState::Locked && s.on_unlock().is_err() {
            row.settle_failures += 1;
            continue;
        }
        let vpns: Vec<u64> = (0..PAGES as u64).collect();
        let mut back = vec![0u8; data.len()];
        let ok = s.touch_pages(pid, &vpns).is_ok()
            && s.read(pid, 0, &mut back).is_ok()
            && back == data
            && s.residual_encrypted_pages() == 0;
        if !ok {
            row.settle_failures += 1;
        }
    }
    row
}

// ───────────────────────── cell 2: teardown soak ─────────────────────────

struct SoakCell {
    events: u64,
    squeezes: u64,
    baseline_bytes: u64,
    final_bytes: u64,
    leaked_pages: u64,
    exit_reclaimed_pages: u64,
    byte_identical: bool,
    pressure: PressureStats,
}

fn soak_cell() -> SoakCell {
    let (mut s, vault, data) = build(0x21);
    s.on_lock().expect("lock");
    s.on_unlock().expect("unlock");
    s.sync_pressure();
    let baseline = s.store.in_use_bytes();

    let mut squeezes = 0u64;
    let mut reclaimed = 0u64;
    let mut events = 0u64;
    let rounds = SOAK_EVENTS.div_ceil(SOAK_ROUND);
    for n in 0..rounds {
        // A short-lived sensitive process that dies mid-lock: the
        // background fault pages its data into an on-SoC pager slot
        // (the encrypted-DRAM path), so the teardown runs with real
        // on-SoC pages to reclaim.
        let pid = s.kernel.spawn("soak");
        s.mark_sensitive(pid).expect("sensitive");
        let img = vec![(n as u8).wrapping_mul(7) ^ 0x3C; PAGE];
        s.write(pid, 0, &img).expect("soak write");
        s.on_lock().expect("soak lock");
        s.touch_pages(pid, &[0]).expect("soak touch");
        reclaimed += s.on_exit(pid).expect("soak exit");
        s.on_unlock().expect("soak unlock");
        events += SOAK_ROUND as u64;
        // The freed-page zeroing thread runs continuously on a real
        // device; drain it so DRAM frames cycle back to the clean pool.
        s.kernel.drain_zero_thread().expect("zero thread");
        if n % SQUEEZE_PERIOD == 0 {
            s.set_onsoc_budget(Some(PAGE_SIZE)).expect("squeeze");
            s.set_onsoc_budget(None).expect("relief");
            squeezes += 1;
        }
    }
    s.sync_pressure();
    let final_bytes = s.store.in_use_bytes();

    // The vault must still read back byte-identically (restoring any
    // tag pages the squeezes spilled along the way).
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    let mut back = vec![0u8; data.len()];
    let byte_identical =
        s.touch_pages(vault, &vpns).is_ok() && s.read(vault, 0, &mut back).is_ok() && back == data;
    s.sync_pressure();

    SoakCell {
        events,
        squeezes,
        baseline_bytes: baseline,
        final_bytes,
        leaked_pages: final_bytes.saturating_sub(baseline) / PAGE_SIZE,
        exit_reclaimed_pages: reclaimed,
        byte_identical,
        pressure: s.stats.pressure,
    }
}

// ───────────────────────── cell 3: critical-mode latency ─────────────────────────

struct LatencyCell {
    baseline_mean_ns: f64,
    pressure_mean_ns: f64,
    restores: u64,
    baseline_identical: bool,
    pressure_identical: bool,
}

impl LatencyCell {
    fn inflation(&self) -> f64 {
        if self.baseline_mean_ns == 0.0 {
            0.0
        } else {
            self.pressure_mean_ns / self.baseline_mean_ns
        }
    }
}

/// Touch every vault page one fault at a time, returning the mean
/// simulated ns per fault and whether the vault read back identically.
fn faults_mean_ns(s: &mut Sentry, pid: u32, data: &[u8]) -> (f64, bool) {
    let mut total = 0u64;
    for vpn in 0..PAGES as u64 {
        let t0 = s.kernel.soc.clock.now_ns();
        s.touch_pages(pid, &[vpn]).expect("fault");
        total += s.kernel.soc.clock.now_ns() - t0;
    }
    let mut back = vec![0u8; data.len()];
    let identical = s.read(pid, 0, &mut back).is_ok() && back == data;
    (total as f64 / PAGES as f64, identical)
}

fn latency_cell() -> LatencyCell {
    // Healthy baseline: lock, unlock, fault every page in.
    let (mut s, pid, data) = locked_vault(0x7E);
    s.on_unlock().expect("unlock");
    let (baseline_mean_ns, baseline_identical) = faults_mean_ns(&mut s, pid, &data);

    // Critical cycle: squeeze until the governor spills tag pages,
    // relieve, unlock — now the early faults each pay a MAC-verified
    // spill restore on top of the demand decrypt.
    let (mut s, pid, data) = locked_vault(0x7F);
    s.set_onsoc_budget(Some(PAGE_SIZE)).expect("squeeze");
    s.sync_pressure();
    assert!(s.stats.pressure.spills >= 1, "squeeze never spilled");
    s.set_onsoc_budget(None).expect("relief");
    s.on_unlock().expect("unlock");
    let (pressure_mean_ns, pressure_identical) = faults_mean_ns(&mut s, pid, &data);
    s.sync_pressure();

    LatencyCell {
        baseline_mean_ns,
        pressure_mean_ns,
        restores: s.stats.pressure.spill_restores,
        baseline_identical,
        pressure_identical,
    }
}

// ───────────────────────── cell 4: hygiene + kill matrix ─────────────────────────

struct SpillCell {
    spills: u64,
    spilled_pages: u64,
    scan_bytes: u64,
    plaintext_hits: u64,
    kill_sites: u64,
    kill_recovered: u64,
    restores: u64,
    byte_identical: bool,
}

/// Count 16-byte windows of `needle` present in `haystack`.
fn plaintext_hits(haystack: &[u8], needle: &[u8]) -> u64 {
    needle
        .chunks(16)
        .filter(|w| w.len() == 16)
        .filter(|w| haystack.windows(16).any(|h| h == *w))
        .count() as u64
}

#[allow(clippy::too_many_lines)]
fn spill_cell() -> SpillCell {
    // Hygiene scan: capture the live tag bytes an attacker would hunt
    // for, spill, and dump the raw spill device.
    let (mut s, pid, data) = locked_vault(0xA7);
    let mut tag_plain = Vec::new();
    for vpn in 0..PAGES as u64 {
        let frame = frame_of(&s, pid, vpn);
        let addr = s.integrity.tag_slot_addr(frame).expect("tag slot");
        let mut tag = [0u8; 8];
        s.kernel.soc.mem_read(addr, &mut tag).expect("read tag");
        tag_plain.extend_from_slice(&tag);
    }
    s.set_onsoc_budget(Some(PAGE_SIZE)).expect("squeeze");
    s.sync_pressure();
    let spills = s.stats.pressure.spills;
    let spilled_pages = s.integrity.spilled_pages() as u64;
    let raw = s.integrity.spill_region_raw().expect("spill region");
    let hits = plaintext_hits(&raw, &tag_plain) + plaintext_hits(&raw, &data);

    // Drain back and verify the hygiene machine converged.
    s.set_onsoc_budget(None).expect("relief");
    s.on_unlock().expect("unlock");
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    s.touch_pages(pid, &vpns).expect("drain");
    let mut back = vec![0u8; data.len()];
    let mut byte_identical = s.read(pid, 0, &mut back).is_ok() && back == data;
    s.sync_pressure();
    let mut restores = s.stats.pressure.spill_restores;

    // Kill matrix: power cut at each spill-path failpoint, recover,
    // converge byte-identically.
    let mut kill_recovered = 0u64;
    for (i, site) in KILL_SITES.iter().enumerate() {
        let (mut s, pid, data) = locked_vault(0xC4 + i as u8);
        let vpns: Vec<u64> = (0..PAGES as u64).collect();
        let survived = if *site == "spill.restore" {
            // Spill first, then cut inside the demand-fault restore.
            s.set_onsoc_budget(Some(PAGE_SIZE)).expect("squeeze");
            s.sync_pressure();
            let spilled_before = s.integrity.spilled_pages();
            s.set_onsoc_budget(None).expect("relief");
            s.on_unlock().expect("unlock");
            s.kernel.soc.failpoints.arm(FaultPlan::at_site(
                site,
                0,
                FaultAction::PowerCut { decay: None },
            ));
            let died = s
                .touch_pages(pid, &[0])
                .map_or_else(|e| e.is_power_loss(), |()| false);
            let intact = s.integrity.spilled_pages() == spilled_before;
            if s.txn_in_flight() {
                s.recover().expect("recovery");
            }
            died && intact
        } else {
            // Cut inside the squeeze's spill, recover, retry.
            s.kernel.soc.failpoints.arm(FaultPlan::at_site(
                site,
                0,
                FaultAction::PowerCut { decay: None },
            ));
            let died = s
                .set_onsoc_budget(Some(PAGE_SIZE))
                .map_or_else(|e| e.is_power_loss(), |()| false);
            s.recover().expect("recovery");
            s.set_onsoc_budget(Some(PAGE_SIZE)).expect("retry squeeze");
            s.sync_pressure();
            let respilled = s.stats.pressure.spills >= 1;
            s.set_onsoc_budget(None).expect("relief");
            s.on_unlock().expect("unlock");
            died && respilled
        };
        let converged = s.touch_pages(pid, &vpns).is_ok() && {
            let mut back = vec![0u8; data.len()];
            s.read(pid, 0, &mut back).is_ok() && back == data
        };
        if survived && converged {
            kill_recovered += 1;
        }
        byte_identical &= converged;
        s.sync_pressure();
        restores += s.stats.pressure.spill_restores;
    }

    SpillCell {
        spills,
        spilled_pages,
        scan_bytes: raw.len() as u64,
        plaintext_hits: hits,
        kill_sites: KILL_SITES.len() as u64,
        kill_recovered,
        restores,
        byte_identical,
    }
}

// ───────────────────────── output ─────────────────────────

fn pressure_json(p: &PressureStats) -> Json {
    Json::obj()
        .field("bytes_resident", p.bytes_resident)
        .field("high_water_bytes", p.high_water_bytes)
        .field("transitions_high", p.transitions_high)
        .field("transitions_critical", p.transitions_critical)
        .field("sheds", p.sheds)
        .field("spills", p.spills)
        .field("spill_restores", p.spill_restores)
        .field("reclaimed_pages", p.reclaimed_pages)
        .field("denied", p.denied)
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    let sweep: Vec<ExhaustRow> = ENTRIES.iter().map(|&e| exhaust_row(e)).collect();
    let soak = soak_cell();
    let latency = latency_cell();
    let spill = spill_cell();
    let fleet_config = FleetConfig::new(48, 2)
        .with_events_per_device(32)
        .with_master_seed(0x9E55);
    let fleet = run_fleet(&fleet_config);

    let sweep_rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                r.entry.name().to_string(),
                r.runs.to_string(),
                r.completed.to_string(),
                r.denied.to_string(),
                r.untyped.to_string(),
                r.recoveries.to_string(),
                r.retry_failures.to_string(),
                r.settle_failures.to_string(),
            ]
        })
        .collect();
    print_table(
        "Exhaustion before every lifecycle entry point",
        &[
            "Entry",
            "Runs",
            "Completed",
            "Typed denial",
            "Untyped",
            "Recoveries",
            "Retry fails",
            "Settle fails",
        ],
        &sweep_rows,
    );

    print_table(
        "Teardown soak under periodic Critical squeezes",
        &[
            "Events",
            "Squeezes",
            "Baseline KiB",
            "Final KiB",
            "Leaked pages",
            "Reclaimed pages",
            "Spills",
            "Sheds",
            "Identical",
        ],
        &[vec![
            soak.events.to_string(),
            soak.squeezes.to_string(),
            format!("{:.1}", soak.baseline_bytes as f64 / 1024.0),
            format!("{:.1}", soak.final_bytes as f64 / 1024.0),
            soak.leaked_pages.to_string(),
            soak.exit_reclaimed_pages.to_string(),
            soak.pressure.spills.to_string(),
            soak.pressure.sheds.to_string(),
            soak.byte_identical.to_string(),
        ]],
    );

    print_table(
        "Demand-fault latency after a spill/relief cycle",
        &[
            "Healthy mean (us)",
            "Post-spill mean (us)",
            "Inflation",
            "Restores",
            "Identical",
        ],
        &[vec![
            format!("{:.1}", latency.baseline_mean_ns / 1000.0),
            format!("{:.1}", latency.pressure_mean_ns / 1000.0),
            format!("{:.2}x", latency.inflation()),
            latency.restores.to_string(),
            (latency.baseline_identical && latency.pressure_identical).to_string(),
        ]],
    );

    print_table(
        "Spill hygiene and power-cut kill matrix",
        &[
            "Spills",
            "Spilled pages",
            "Scan KiB",
            "Plaintext hits",
            "Kill sites",
            "Recovered",
            "Restores",
            "Identical",
        ],
        &[vec![
            spill.spills.to_string(),
            spill.spilled_pages.to_string(),
            format!("{:.1}", spill.scan_bytes as f64 / 1024.0),
            spill.plaintext_hits.to_string(),
            spill.kill_sites.to_string(),
            spill.kill_recovered.to_string(),
            spill.restores.to_string(),
            spill.byte_identical.to_string(),
        ]],
    );

    print_table(
        "Pressure fleet (mem-pressure chaos events in the mix)",
        &[
            "Devices",
            "Events",
            "Squeezes",
            "Exit reclaimed",
            "Sheds",
            "Spills",
            "Denied",
            "Silent",
            "Errors",
        ],
        &[vec![
            fleet.devices.to_string(),
            fleet.events.to_string(),
            fleet.pressure_events.to_string(),
            fleet.exit_reclaimed_pages.to_string(),
            fleet.pressure.sheds.to_string(),
            fleet.pressure.spills.to_string(),
            fleet.pressure.denied.to_string(),
            fleet.silent_corruptions.to_string(),
            fleet.device_errors.to_string(),
        ]],
    );

    let sweep_json: Json = sweep
        .iter()
        .map(|r| {
            Json::obj()
                .field("entry", r.entry.name())
                .field("runs", r.runs)
                .field("completed", r.completed)
                .field("denied", r.denied)
                .field("untyped", r.untyped)
                .field("recoveries", r.recoveries)
                .field("retry_failures", r.retry_failures)
                .field("settle_failures", r.settle_failures)
        })
        .collect();
    let soak_json = Json::obj()
        .field("events", soak.events)
        .field("squeezes", soak.squeezes)
        .field("baseline_bytes", soak.baseline_bytes)
        .field("final_bytes", soak.final_bytes)
        .field("leaked_pages", soak.leaked_pages)
        .field("exit_reclaimed_pages", soak.exit_reclaimed_pages)
        .field("byte_identical", soak.byte_identical)
        .field("pressure", pressure_json(&soak.pressure));
    let latency_json = Json::obj()
        .field("baseline_mean_ns", rounded(latency.baseline_mean_ns, 1))
        .field("pressure_mean_ns", rounded(latency.pressure_mean_ns, 1))
        .field("inflation", rounded(latency.inflation(), 3))
        .field("restores", latency.restores)
        .field(
            "identical",
            latency.baseline_identical && latency.pressure_identical,
        );
    let spill_json = Json::obj()
        .field("spills", spill.spills)
        .field("spilled_pages", spill.spilled_pages)
        .field("scan_bytes", spill.scan_bytes)
        .field("plaintext_hits", spill.plaintext_hits)
        .field("kill_sites", spill.kill_sites)
        .field("kill_recovered", spill.kill_recovered)
        .field("restores", spill.restores)
        .field("byte_identical", spill.byte_identical);
    let fleet_json = Json::obj()
        .field("devices", fleet.devices)
        .field("events", fleet.events)
        .field("pressure_events", fleet.pressure_events)
        .field("exit_reclaimed_pages", fleet.exit_reclaimed_pages)
        .field("silent_corruptions", fleet.silent_corruptions)
        .field("device_errors", fleet.device_errors)
        .field("pressure", pressure_json(&fleet.pressure));
    write_bench(
        "BENCH_pressure.json",
        &Json::obj()
            .field("experiment", "pressure")
            .field("max_critical_inflation", MAX_CRITICAL_INFLATION)
            .field("sweep", sweep_json)
            .field("soak", soak_json)
            .field("latency", latency_json)
            .field("spill", spill_json)
            .field("fleet", fleet_json),
    );

    if enforce {
        let mut failed = false;
        // 1. Exhaustion sweep: every outcome typed, every retry and
        //    settle converged. (A panic anywhere aborts the run.)
        for r in &sweep {
            if r.untyped != 0 || r.retry_failures != 0 || r.settle_failures != 0 {
                eprintln!(
                    "FAIL [sweep:{}]: {} untyped outcomes, {} retry failures, \
                     {} settle failures",
                    r.entry.name(),
                    r.untyped,
                    r.retry_failures,
                    r.settle_failures
                );
                failed = true;
            }
        }
        // 2. Soak: zero leaked on-SoC pages after 10k teardowns.
        if soak.leaked_pages != 0 || !soak.byte_identical {
            eprintln!(
                "FAIL [soak]: {} leaked pages ({} -> {} bytes), identical={}",
                soak.leaked_pages, soak.baseline_bytes, soak.final_bytes, soak.byte_identical
            );
            failed = true;
        }
        if soak.exit_reclaimed_pages == 0 || soak.pressure.spills == 0 {
            eprintln!(
                "FAIL [soak]: {} pages reclaimed, {} spills — the zero-leak claim \
                 is vacuous",
                soak.exit_reclaimed_pages, soak.pressure.spills
            );
            failed = true;
        }
        // 3. Post-spill latency inflation bounded.
        if latency.inflation() > MAX_CRITICAL_INFLATION {
            eprintln!(
                "FAIL [latency]: post-spill faults at {:.2}x the healthy mean \
                 (budget {MAX_CRITICAL_INFLATION:.1}x)",
                latency.inflation()
            );
            failed = true;
        }
        if latency.restores == 0 || !latency.baseline_identical || !latency.pressure_identical {
            eprintln!(
                "FAIL [latency]: {} restores, identical={} — the inflation bound \
                 is vacuous",
                latency.restores,
                latency.baseline_identical && latency.pressure_identical
            );
            failed = true;
        }
        // 4. Hygiene: no plaintext in the spill region; every kill
        //    site recovered byte-identically.
        if spill.plaintext_hits != 0 {
            eprintln!(
                "FAIL [spill]: {} plaintext windows found in the raw spill dump",
                spill.plaintext_hits
            );
            failed = true;
        }
        if spill.spills == 0 || spill.kill_recovered != spill.kill_sites || !spill.byte_identical {
            eprintln!(
                "FAIL [spill]: {} spills, {}/{} kill sites recovered, identical={}",
                spill.spills, spill.kill_recovered, spill.kill_sites, spill.byte_identical
            );
            failed = true;
        }
        // 5. Fleet: chaos squeezes drawn and absorbed cleanly.
        if fleet.silent_corruptions != 0 || fleet.device_errors != 0 {
            eprintln!(
                "FAIL [fleet]: {} silent corruptions, {} device errors",
                fleet.silent_corruptions, fleet.device_errors
            );
            failed = true;
        }
        if fleet.pressure_events == 0 || fleet.exit_reclaimed_pages == 0 {
            eprintln!(
                "FAIL [fleet]: {} squeezes, {} reclaimed pages — the pressure mix \
                 never landed",
                fleet.pressure_events, fleet.exit_reclaimed_pages
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: all entry points typed under exhaustion, zero leaked pages \
             after {} soak events, post-spill inflation {:.2}x <= {MAX_CRITICAL_INFLATION:.1}x, \
             zero plaintext in the spill region, {}/{} kill sites recovered",
            soak.events,
            latency.inflation(),
            spill.kill_recovered,
            spill.kill_sites
        );
    }
}
