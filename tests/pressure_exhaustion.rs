//! Exhaustion at every lifecycle entry point must degrade, never die.
//!
//! The pressure governor's contract: with the on-SoC store driven to
//! physical exhaustion *before* a lifecycle operation runs, the
//! operation either completes (the governor shed or spilled its way to
//! the space it needed) or surfaces a typed error — never a panic,
//! never torn state — and once pressure relents a retry of the same
//! operation succeeds with byte-identical application data.

use proptest::prelude::*;
use sentry::core::{PressureLevel, Sentry, SentryConfig, SentryError};
use sentry::kernel::Kernel;
use sentry::soc::failpoint::{FaultAction, FaultPlan};
use sentry::soc::Soc;

const PAGE: usize = 4096;
const PAGES: usize = 8;

/// The lifecycle entry points the exhaustion sweep drives.
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
        .with_readahead(sentry::core::config::ReadaheadConfig::with_cluster(4).sweep_budget(2))
        .with_slot_limit(2);
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let pid = s.kernel.spawn("vault");
    s.mark_sensitive(pid).expect("mark sensitive");
    let data = working_set(seed);
    s.write(pid, 0, &data).expect("write vault");
    (s, pid, data)
}

/// Grab every allocatable on-SoC page, then hand back `leave` of them.
/// Returns the hoard so the test can relieve pressure later.
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

/// Release the hoard — pressure relief.
fn relieve(s: &mut Sentry, hoard: Vec<u64>) {
    for page in hoard {
        s.store.free_page(&mut s.kernel.soc, page).expect("free");
    }
    s.sync_pressure();
}

/// Run one entry point once. Every outcome but a typed error is a bug.
fn drive(s: &mut Sentry, pid: u32, entry: Entry) -> Result<(), SentryError> {
    match entry {
        Entry::Lock => s.on_lock().map(drop),
        Entry::Unlock => s.on_unlock().map(drop),
        Entry::Fault => s.touch_pages(pid, &[0, 1]),
        Entry::Sweep => s.sweep(2).map(drop),
        // Two faults through a 2-slot pager force an eviction sweep.
        Entry::Evict => {
            let vpns: Vec<u64> = (0..PAGES as u64).collect();
            s.touch_pages(pid, &vpns)
        }
        Entry::Recover => s.recover().map(drop),
    }
}

/// Put the machine in the state `entry` expects (locked for unlock,
/// unlocked-with-residue for fault/sweep/evict, an interrupted
/// transition for recover).
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
            // Kill the lock inside its journaled publish loop so
            // recover() has an open journal to roll forward under
            // exhaustion.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The exhaustion sweep: for every entry point, exhaustion-then-op
    /// yields success (shed/spill) or a typed error, recovery clears any
    /// open journal, and relief-then-retry converges byte-identically.
    #[test]
    fn exhaustion_before_every_entry_point_degrades_gracefully(
        entry_idx in 0usize..ENTRIES.len(),
        leave in 0usize..3,
        seed in any::<u8>(),
    ) {
        let entry = ENTRIES[entry_idx];
        let (mut s, pid, data) = build(seed);
        stage(&mut s, entry);
        let hoard = exhaust(&mut s, leave);

        match drive(&mut s, pid, entry) {
            // The governor shed or spilled its way through.
            Ok(()) => {}
            Err(
                SentryError::OnSocExhausted
                | SentryError::TransitionInFlight { .. },
            ) => {}
            Err(e) => prop_assert!(false, "untyped degradation at {entry:?}: {e:?}"),
        }
        // Never torn: an open journal is recoverable right now, even
        // while the store is still exhausted.
        if s.txn_in_flight() {
            s.recover().expect("recovery must run under exhaustion");
            prop_assert!(!s.txn_in_flight());
        }

        // Relief, then the same operation must go through.
        relieve(&mut s, hoard);
        if s.txn_in_flight() {
            s.recover().expect("recovery after relief");
        }
        match drive(&mut s, pid, entry) {
            Ok(()) => {}
            // Legal state drift from the first attempt: a lock/unlock
            // that *succeeded* under exhaustion leaves the retry on the
            // wrong side of the state machine.
            Err(SentryError::WrongState { .. }) => {}
            Err(e) => prop_assert!(false, "retry after relief failed at {entry:?}: {e:?}"),
        }

        // Whatever happened, the vault must still read back
        // byte-identically once the machine settles unlocked.
        if s.state() == sentry::core::DeviceState::Locked {
            s.on_unlock().expect("settling unlock");
        }
        let vpns: Vec<u64> = (0..PAGES as u64).collect();
        s.touch_pages(pid, &vpns).expect("settling touch");
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).expect("settling read");
        prop_assert_eq!(back, data, "torn state after {:?}", entry);
        prop_assert_eq!(s.residual_encrypted_pages(), 0);
    }

    /// Teardown never leaks: spawn/write/exit churn under a tight budget
    /// returns every on-SoC page, so occupancy after each exit is back
    /// at (or below) its pre-spawn level and allocations keep working.
    #[test]
    fn spawn_exit_churn_holds_occupancy_flat(
        spawns in 1usize..12,
        seed in any::<u8>(),
    ) {
        let (mut s, _pid, _data) = build(seed);
        s.on_lock().expect("lock");
        s.on_unlock().expect("unlock");
        s.sync_pressure();
        let baseline = s.store.in_use_bytes();
        for n in 0..spawns {
            let pid = s.kernel.spawn("churn");
            s.mark_sensitive(pid).expect("sensitive");
            let img = vec![seed.wrapping_add(n as u8); PAGE];
            s.write(pid, 0, &img).expect("write");
            s.touch_pages(pid, &[0]).expect("touch");
            let reclaimed = s.on_exit(pid).expect("exit");
            let _ = reclaimed;
            prop_assert!(
                s.store.in_use_bytes() <= baseline,
                "on-SoC occupancy grew across teardown: {} > {} after {} spawns",
                s.store.in_use_bytes(), baseline, n + 1
            );
        }
        // The store still allocates after the churn — nothing leaked
        // into a phantom claim.
        let page = s.store.alloc_page(&mut s.kernel.soc).expect("alloc after churn");
        s.store.free_page(&mut s.kernel.soc, page).expect("free");
    }
}

/// Deterministic walk of the watermark machine through a real lifecycle:
/// a budget squeeze raises the level, the governor sheds (sweeper pause,
/// cluster shrink) and spills, and lifting the budget drops back to
/// Normal with the telemetry consistent.
#[test]
fn budget_squeeze_walks_watermarks_and_sheds() {
    let (mut s, pid, data) = build(0x5A);
    s.on_lock().expect("lock");
    s.on_unlock().expect("unlock");
    s.sync_pressure();
    assert_eq!(s.pressure_level(), PressureLevel::Normal);

    // Clamp the budget so current occupancy sits at 80% — inside the
    // High band: elective load sheds, but allocations still fit.
    let resident = s.store.in_use_bytes();
    s.set_onsoc_budget(Some(resident * 5 / 4)).expect("squeeze");
    assert_eq!(
        s.pressure_level(),
        PressureLevel::High,
        "80% occupancy must classify High"
    );
    assert!(
        s.stats.pressure.transitions_high >= 1,
        "no High transition counted: {:?}",
        s.stats.pressure
    );

    // Elective load sheds while pressure is up: ticks skip the sweeper,
    // faults shrink their clusters to a single page.
    let before = s.stats.pressure.sheds;
    s.scheduler_tick().expect("tick under pressure");
    s.touch_pages(pid, &[3]).expect("fault under pressure");
    s.sync_pressure();
    assert!(
        s.stats.pressure.sheds > before,
        "no shed recorded under pressure: {:?}",
        s.stats.pressure
    );
    if s.last_fault().is_some() {
        assert_eq!(
            s.last_fault().map(|f| f.pages),
            Some(1),
            "readahead cluster must shrink to one page under pressure"
        );
    }

    // Relief: back to Normal, and the vault is untouched.
    s.set_onsoc_budget(None).expect("relief");
    assert_eq!(s.pressure_level(), PressureLevel::Normal);
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    s.touch_pages(pid, &vpns).expect("drain");
    let mut back = vec![0u8; data.len()];
    s.read(pid, 0, &mut back).expect("read");
    assert_eq!(back, data);
}

/// A shed counts only work the shed lever actually withholds. With the
/// default readahead (a cluster of one page, a sweep budget of 0) a
/// fault's cluster is one page either way and no tick would sweep;
/// while locked no tick would sweep either — none of these is a shed
/// under High pressure.
#[test]
fn sheds_count_only_withheld_work() {
    let config = SentryConfig::tegra3_locked_l2(2);
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let pid = s.kernel.spawn("vault");
    s.mark_sensitive(pid).expect("mark sensitive");
    let data = working_set(0x3C);
    s.write(pid, 0, &data).expect("write vault");
    s.on_lock().expect("lock");
    s.on_unlock().expect("unlock");
    let resident = s.store.in_use_bytes();
    s.set_onsoc_budget(Some(resident * 5 / 4)).expect("squeeze");
    assert_eq!(s.pressure_level(), PressureLevel::High);

    s.scheduler_tick().expect("tick under pressure");
    s.touch_pages(pid, &[3]).expect("fault under pressure");
    assert_eq!(s.last_fault().map(|f| f.pages), Some(1));
    s.sync_pressure();
    assert_eq!(s.stats.pressure.sheds, 0, "{:?}", s.stats.pressure);

    s.set_onsoc_budget(None).expect("relief");
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    s.touch_pages(pid, &vpns).expect("drain");
    let mut back = vec![0u8; data.len()];
    s.read(pid, 0, &mut back).expect("read");
    assert_eq!(back, data);

    // A locked device's tick never sweeps, budget or not.
    let (mut s, _pid, _data) = build(0x3D);
    s.on_lock().expect("lock");
    let resident = s.store.in_use_bytes();
    s.set_onsoc_budget(Some(resident * 5 / 4)).expect("squeeze");
    assert_eq!(s.pressure_level(), PressureLevel::High);
    let before = s.stats.pressure.sheds;
    s.scheduler_tick().expect("locked tick");
    s.sync_pressure();
    assert_eq!(s.stats.pressure.sheds, before, "{:?}", s.stats.pressure);
}
