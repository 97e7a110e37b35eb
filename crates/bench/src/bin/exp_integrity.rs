//! Integrity-plane experiment: detection coverage and MAC overhead.
//!
//! Three parts:
//!
//! 1. **Detection coverage** — the [`sentry_attacks::tamper`] matrix
//!    (bit flips, frame splices, stale-epoch replays, planted on every
//!    decrypt path, plus the kill-then-tamper recovery cell) must reach
//!    100% detection with zero silent corruptions on both the
//!    sequential and parallel crypt engines.
//! 2. **MAC overhead** — the same lock → unlock → full-sweep workload
//!    is timed on the simulated clock with the integrity plane on and
//!    off. Tagging and verify-on-decrypt ride the already-streamed
//!    page bytes, so the unlock sweep must cost at most 15% more than
//!    confidentiality-only encrypted DRAM.
//! 3. **Pager MAC cost** — a locked background app faults through the
//!    same slot-capped configuration, every fault evicting the oldest
//!    resident page. The fault stores the victim's tag and checks the
//!    incoming page in one CMAC chain, and reads the victim back by
//!    comparing bytes, so a fault with MACs must cost at most 1.6× one
//!    without.
//!
//! Results print as tables and land in `BENCH_integrity.json`. With
//! `--enforce`, any missed detection, any silent corruption, an
//! unlock-sweep overhead above 15%, or a pager fault ratio above 1.6×
//! fails the run.

use sentry_attacks::faultmatrix::Scenario;
use sentry_attacks::tamper::{run_tamper_matrix, TamperOutcome};
use sentry_bench::json::{rounded, write_bench, Json};
use sentry_bench::print_table;
use sentry_core::config::ReadaheadConfig;
use sentry_core::{Sentry, SentryConfig};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::{Platform, Soc, SocConfig, PAGE_SIZE};

/// Pages in the overhead workload: enough to amortise per-transition
/// fixed costs so the measured ratio reflects per-page work.
const SWEEP_PAGES: u64 = 48;

/// Enforced ceiling on the unlock-sweep slowdown from MAC verification.
const MAX_UNLOCK_OVERHEAD_PCT: f64 = 15.0;

/// Enforced ceiling on a locked eviction fault's cost with MACs over
/// its cost without.
const MAX_PAGER_RATIO: f64 = 1.6;

/// One lock → unlock → drain run on the simulated clock.
struct SweepCost {
    lock_ns: u64,
    unlock_ns: u64,
}

fn sweep_config() -> SentryConfig {
    SentryConfig::tegra3_locked_l2(2)
        .with_slot_limit(4)
        .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(8))
}

/// Locked eviction faults on the simulated clock.
struct PagerCost {
    faults: u64,
    ns_per_fault: u64,
    mac_chains: u64,
}

/// A sentry under `config` whose one sensitive process holds
/// `SWEEP_PAGES` written pages.
fn populated(config: SentryConfig) -> (Sentry, Pid) {
    let soc = Soc::new(
        SocConfig::new(Platform::Tegra3)
            .with_dram_size(64 << 20)
            .with_seed(0x0C0C),
    );
    let kernel = Kernel::new(soc);
    let mut s = Sentry::new(kernel, config).expect("construct sentry");
    let pid = s.kernel.spawn("sweep-bench");
    s.mark_sensitive(pid).expect("mark sensitive");
    for vpn in 0..SWEEP_PAGES {
        let page = vec![(vpn as u8).wrapping_mul(0x3B) ^ 0x5A; PAGE_SIZE as usize];
        s.write(pid, vpn * PAGE_SIZE, &page).expect("populate page");
    }
    (s, pid)
}

fn measure_sweep(config: SentryConfig) -> SweepCost {
    let (mut s, _) = populated(config);
    let t0 = s.kernel.soc.clock.now_ns();
    s.on_lock().expect("lock");
    let t1 = s.kernel.soc.clock.now_ns();

    // The unlock sweep: the eager unlock batch plus the background
    // sweeper draining every remaining encrypted page.
    s.on_unlock().expect("unlock");
    loop {
        let report = s.scheduler_tick().expect("sweep tick");
        if report.residual_pages == 0 {
            break;
        }
    }
    let t2 = s.kernel.soc.clock.now_ns();

    SweepCost {
        lock_ns: t1 - t0,
        unlock_ns: t2 - t1,
    }
}

/// Lock, fill every pager slot, then fault each remaining page in while
/// locked: every one of those faults evicts the oldest resident page.
fn measure_pager(config: SentryConfig) -> PagerCost {
    let (mut s, pid) = populated(config);
    s.on_lock().expect("lock");
    let slots = s.config().slot_limit.expect("slot-capped config") as u64;
    let vpns: Vec<u64> = (0..SWEEP_PAGES).collect();
    let (fill, faulting) = vpns.split_at(slots as usize);
    s.touch_pages(pid, fill).expect("fill the slots");
    let t0 = s.kernel.soc.clock.now_ns();
    let (pageouts, chains) = (s.pager.stats.pageouts, s.integrity.stats.mac_chains);
    s.touch_pages(pid, faulting).expect("locked faults");
    let faults = s.pager.stats.pageouts - pageouts;
    assert_eq!(faults, faulting.len() as u64, "every fault evicts");
    PagerCost {
        faults,
        ns_per_fault: (s.kernel.soc.clock.now_ns() - t0) / faults,
        mac_chains: s.integrity.stats.mac_chains - chains,
    }
}

fn overhead_pct(on: u64, off: u64) -> f64 {
    if off == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        (on as f64 - off as f64) / off as f64 * 100.0
    }
}

fn to_json(
    matrices: &[TamperOutcome],
    (on, off): (&SweepCost, &SweepCost),
    lock_pct: f64,
    unlock_pct: f64,
    (pager_on, pager_off): (&PagerCost, &PagerCost),
) -> Json {
    let detection: Json = matrices
        .iter()
        .map(|m| {
            Json::obj()
                .field("scenario", m.scenario.as_str())
                .field("cells", m.cells.len())
                .field("detected", m.cells.iter().filter(|c| c.detected).count())
                .field("silent_corruptions", m.silent_corruptions())
                .field("detection_rate", rounded(m.detection_rate(), 3))
                .field("clean", m.clean())
        })
        .collect();
    let overhead = Json::obj()
        .field("pages", SWEEP_PAGES)
        .field("lock_ns_off", off.lock_ns)
        .field("lock_ns_on", on.lock_ns)
        .field("unlock_ns_off", off.unlock_ns)
        .field("unlock_ns_on", on.unlock_ns)
        .field("lock_overhead_pct", rounded(lock_pct, 2))
        .field("unlock_overhead_pct", rounded(unlock_pct, 2))
        .field("max_unlock_overhead_pct", MAX_UNLOCK_OVERHEAD_PCT);
    let pager = Json::obj()
        .field("faults", pager_on.faults)
        .field("fault_ns_off", pager_off.ns_per_fault)
        .field("fault_ns_on", pager_on.ns_per_fault)
        .field("ratio", rounded(pager_ratio(pager_on, pager_off), 2))
        .field(
            "mac_chains_per_fault",
            rounded(chains_per_fault(pager_on), 2),
        )
        .field("max_ratio", MAX_PAGER_RATIO);
    Json::obj()
        .field("experiment", "integrity")
        .field("detection", detection)
        .field("overhead", overhead)
        .field("pager", pager)
}

#[allow(clippy::cast_precision_loss)]
fn pager_ratio(on: &PagerCost, off: &PagerCost) -> f64 {
    on.ns_per_fault as f64 / off.ns_per_fault as f64
}

#[allow(clippy::cast_precision_loss)]
fn chains_per_fault(cost: &PagerCost) -> f64 {
    cost.mac_chains as f64 / cost.faults as f64
}

fn main() {
    let enforce = std::env::args().any(|a| a == "--enforce");

    // Part 1: detection coverage on both crypt engines.
    let scenarios = [Scenario::tegra3(0x7A3B), Scenario::tegra3_parallel(0x7A3C)];
    let matrices: Vec<TamperOutcome> = scenarios
        .iter()
        .map(|scn| run_tamper_matrix(scn).expect("tamper matrix completes"))
        .collect();

    for m in &matrices {
        let rows: Vec<Vec<String>> = m
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.path.name().to_string(),
                    c.vector.name().to_string(),
                    if c.detected { "yes" } else { "NO" }.to_string(),
                    c.quarantined.to_string(),
                    c.silent_corruptions.to_string(),
                    if c.survivors_intact { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Tamper detection — {}", m.scenario),
            &[
                "Decrypt path",
                "Vector",
                "Detected",
                "Quarantined",
                "Silent",
                "Survivors",
            ],
            &rows,
        );
    }

    // Part 2: MAC overhead of the lock transition and the unlock sweep.
    let on = measure_sweep(sweep_config());
    let off = measure_sweep(sweep_config().without_integrity());
    let lock_pct = overhead_pct(on.lock_ns, off.lock_ns);
    let unlock_pct = overhead_pct(on.unlock_ns, off.unlock_ns);
    print_table(
        &format!("MAC overhead ({SWEEP_PAGES}-page lock/unlock sweep)"),
        &[
            "Transition",
            "Integrity off (ns)",
            "Integrity on (ns)",
            "Overhead",
        ],
        &[
            vec![
                "lock (encrypt+tag)".to_string(),
                off.lock_ns.to_string(),
                on.lock_ns.to_string(),
                format!("{lock_pct:.2}%"),
            ],
            vec![
                "unlock sweep (verify+decrypt)".to_string(),
                off.unlock_ns.to_string(),
                on.unlock_ns.to_string(),
                format!("{unlock_pct:.2}%"),
            ],
        ],
    );

    // Part 3: MAC cost of a locked eviction fault.
    let pager_on = measure_pager(sweep_config());
    let pager_off = measure_pager(sweep_config().without_integrity());
    let ratio = pager_ratio(&pager_on, &pager_off);
    print_table(
        &format!(
            "Pager MAC cost ({} locked eviction faults)",
            pager_on.faults
        ),
        &[
            "Integrity off (ns/fault)",
            "Integrity on (ns/fault)",
            "Ratio",
            "MAC chains/fault",
        ],
        &[vec![
            pager_off.ns_per_fault.to_string(),
            pager_on.ns_per_fault.to_string(),
            format!("{ratio:.2}x"),
            format!("{:.2}", chains_per_fault(&pager_on)),
        ]],
    );

    write_bench(
        "BENCH_integrity.json",
        &to_json(
            &matrices,
            (&on, &off),
            lock_pct,
            unlock_pct,
            (&pager_on, &pager_off),
        ),
    );

    if enforce {
        let mut failed = false;
        for m in &matrices {
            if !m.all_detected() {
                let missed = m.cells.iter().filter(|c| !c.detected).count();
                eprintln!(
                    "FAIL [{}]: {missed} of {} tamper cells went undetected",
                    m.scenario,
                    m.cells.len()
                );
                failed = true;
            }
            if m.silent_corruptions() > 0 {
                eprintln!(
                    "FAIL [{}]: {} reads returned wrong bytes without an error",
                    m.scenario,
                    m.silent_corruptions()
                );
                failed = true;
            }
            if !m.clean() {
                eprintln!(
                    "FAIL [{}]: matrix not clean (missed quarantine or survivor damage)",
                    m.scenario
                );
                failed = true;
            }
        }
        if unlock_pct > MAX_UNLOCK_OVERHEAD_PCT {
            eprintln!(
                "FAIL: unlock-sweep MAC overhead {unlock_pct:.2}% exceeds \
                 {MAX_UNLOCK_OVERHEAD_PCT:.1}%"
            );
            failed = true;
        }
        if ratio > MAX_PAGER_RATIO {
            eprintln!(
                "FAIL: a locked eviction fault costs {ratio:.2}x with MACs, \
                 above {MAX_PAGER_RATIO:.1}x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: 100% tamper detection, unlock overhead {unlock_pct:.2}% <= \
             {MAX_UNLOCK_OVERHEAD_PCT:.1}%, pager fault ratio {ratio:.2}x <= {MAX_PAGER_RATIO:.1}x"
        );
    }
}
