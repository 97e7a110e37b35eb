//! Crash consistency under exhaustive power-cut injection.
//!
//! The fault matrix enumerates every reachable failpoint step of a
//! lock/unlock/fault/sweep schedule and kills the machine at each one.
//! Every cell must satisfy: no cold-boot-visible plaintext while
//! nominally locked, no torn PTE (an `encrypted` entry over a plaintext
//! frame), and — after `recover()` plus a retry of the killed
//! operation — byte-for-byte convergence with an uninterrupted run.
//!
//! Alongside the matrix: recovery idempotence, clean-system no-op
//! recovery, re-entrancy guards while a transition journal is open,
//! injected crypt-engine failures on the readahead, sweeper, lock and
//! pager-eviction paths, and the real-power-loss case where the iRAM journal dies with the
//! power.

use sentry::attacks::faultmatrix::{
    record, run_cell, run_decay_cell, run_matrix, secret_page, EndState, Scenario, SECRET,
};
use sentry::core::transition::nonce_audit::audited;
use sentry::core::{RecoveryReport, SentryError, TxnJournal, TxnOp};
use sentry::soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED};
use sentry::soc::dram::PowerEvent;
use sentry::soc::failpoint::{FaultAction, FaultPlan};

#[test]
fn exhaustive_fault_matrix_locked_l2() {
    let scn = Scenario::tegra3(0xC0FFEE);
    let matrix = audited(scn.name, || run_matrix(&scn).unwrap());
    assert!(matrix.total_steps > 20, "schedule too shallow");
    assert_eq!(
        matrix.kills(),
        matrix.cells.len(),
        "every armed step must actually fire"
    );
    let dirty: Vec<_> = matrix.cells.iter().filter(|c| !c.clean()).collect();
    assert!(
        dirty.is_empty(),
        "{} of {} cells dirty; first: {:?}",
        dirty.len(),
        matrix.cells.len(),
        dirty.first()
    );
    assert!(
        matrix.recovered_entries() > 0,
        "no kill ever landed inside an open journal — the matrix is not \
         exercising recovery"
    );
    assert_eq!(matrix.site_histogram(), committed_kill_sites(18, 38));
}

#[test]
fn exhaustive_fault_matrix_iram_backend() {
    let scn = Scenario::iram(0xB007);
    let matrix = audited(scn.name, || run_matrix(&scn).unwrap());
    assert!(matrix.clean(), "iram matrix dirty");
    assert!(matrix.recovered_entries() > 0);
    // On-SoC pages live in iRAM, whose writes pass no `dram.write` site.
    assert_eq!(matrix.site_histogram(), committed_kill_sites(18, 33));
}

#[test]
fn exhaustive_fault_matrix_parallel_engine() {
    let scn = Scenario::tegra3_parallel(0xFA11);
    let matrix = audited(scn.name, || run_matrix(&scn).unwrap());
    assert!(matrix.clean(), "parallel-engine matrix dirty");
    assert_eq!(matrix.lock_lanes, 2, "no lock took both lanes");
    // A two-lane batch crypts its pages in one call, past no
    // `crypt.extent` site.
    assert_eq!(matrix.site_histogram(), committed_kill_sites(10, 38));
}

/// Kills per failpoint site, as committed in `BENCH_fault_matrix.json`.
/// The kills spread across the whole lifecycle, and a refactor that
/// drops, adds, or moves a failpoint changes these counts.
fn committed_kill_sites(extents: usize, dram_writes: usize) -> Vec<(&'static str, usize)> {
    vec![
        ("crypt.dispatch", 14),
        ("crypt.extent", extents),
        ("dram.write", dram_writes),
        ("fault.begin", 10),
        ("lock.begin", 4),
        ("pager.evict", 1),
        ("pager.pagein", 3),
        ("pager.readback", 1),
        ("sweep.begin", 3),
        ("txn.flip", 28),
        ("txn.publish", 28),
        ("unlock.begin", 4),
    ]
}

#[test]
fn decay_matrix_quarantines_rot_and_converges_on_the_survivors() {
    // Power cut at every reachable step, then two encrypted vault
    // frames rot one bit each while the machine is down. The reboot's
    // recovery audit must quarantine whatever the journal roll-forward
    // could not heal, the retried schedule must run to completion
    // around the quarantine, and the surviving set must converge with
    // the uninterrupted reference byte-for-byte.
    let scn = Scenario::tegra3(0xDECA4);
    let reference = record(&scn).unwrap();
    let mut fired = 0usize;
    let mut decayed_cells = 0usize;
    let mut quarantined_total = 0usize;
    audited("decay matrix", || {
        for step in 0..reference.steps {
            let cell = run_decay_cell(&scn, &reference, step, 2).unwrap();
            assert!(cell.clean(), "step {step} dirty: {cell:?}");
            fired += usize::from(cell.fired);
            decayed_cells += usize::from(!cell.decayed_frames.is_empty());
            quarantined_total += cell.quarantined_final;
        }
    });
    assert_eq!(fired as u64, reference.steps, "every step must kill");
    assert!(
        decayed_cells > 0,
        "no cell ever found an encrypted frame to decay"
    );
    assert!(
        quarantined_total > 0,
        "decay never reached quarantine anywhere"
    );
}

#[test]
fn decay_is_quarantined_eagerly_at_recovery_time() {
    // Every rotten frame must sit in quarantine the moment `recover()`
    // returns — via the boot-time audit for frames encrypted at rest,
    // or via the journal roll-forward's MAC check for frames caught
    // mid-decrypt — never lazily on some later demand fault. Detection
    // at reboot means the violation is typed and logged before any app
    // can even ask for the page. Both mechanisms must actually fire
    // somewhere in the sweep.
    let scn = Scenario::tegra3(0xDECA5);
    let reference = record(&scn).unwrap();
    let mut via_audit = 0usize;
    let mut via_journal = 0usize;
    for step in 0..reference.steps {
        let cell = run_decay_cell(&scn, &reference, step, 2).unwrap();
        if !cell.fired || cell.decayed_frames.is_empty() {
            continue;
        }
        assert!(cell.clean(), "step {step} dirty: {cell:?}");
        assert_eq!(
            cell.quarantined_at_boot,
            cell.decayed_frames.len(),
            "step {step}: a rotten frame survived recovery unquarantined: {cell:?}"
        );
        via_audit += cell.quarantined_by_recovery;
        via_journal += cell.quarantined_at_boot - cell.quarantined_by_recovery;
    }
    assert!(via_audit > 0, "the boot-time audit never quarantined");
    assert!(
        via_journal > 0,
        "the journal roll-forward MAC check never quarantined"
    );
}

#[test]
fn kill_cells_are_deterministic() {
    let scn = Scenario::tegra3(42);
    let reference = record(&scn).unwrap();
    let step = reference
        .sites
        .iter()
        .find(|(site, _)| *site == "txn.publish")
        .map(|&(_, step)| step)
        .expect("schedule reaches txn.publish");
    let a = run_cell(&scn, &reference, step).unwrap();
    let b = run_cell(&scn, &reference, step).unwrap();
    assert_eq!(a.site, b.site);
    assert_eq!(a.killed_op, b.killed_op);
    assert_eq!(a.recovery, b.recovery);
    assert!(a.clean() && b.clean());
}

#[test]
fn recovery_is_idempotent() {
    let scn = Scenario::tegra3(9);
    let reference = record(&scn).unwrap();
    // Kill inside the first lock's journaled publish loop.
    let step = reference
        .sites
        .iter()
        .find(|(site, _)| *site == "txn.flip")
        .map(|&(_, step)| step)
        .unwrap();
    let (mut lock_killed, _actors) = scn.build().unwrap();
    lock_killed.kernel.soc.failpoints.arm(FaultPlan::at_step(
        step,
        FaultAction::PowerCut { decay: None },
    ));
    assert!(lock_killed.on_lock().unwrap_err().is_power_loss());

    // Kill a fault-decrypt of a page left encrypted across a lock
    // cycle: the vault's pages were encrypted at epoch 1 and never
    // touched, so the second lock leaves them alone and the device sits
    // at epoch 2 when the first touch decrypts them.
    let (mut fault_killed, actors) = scn.build().unwrap();
    for _ in 0..2 {
        fault_killed.on_lock().unwrap();
        fault_killed.on_unlock().unwrap();
    }
    assert_eq!(fault_killed.lock_epoch(), 2);
    fault_killed.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "txn.publish",
        0,
        FaultAction::PowerCut { decay: None },
    ));
    assert!(fault_killed
        .touch_pages(actors.vault, &[0])
        .unwrap_err()
        .is_power_loss());
    // Every decrypt entry journals the version its IV was derived under
    // — what recovery writes back if it must re-arm the page: the first
    // lock's, at epoch 1's floor, not one of the device's current epoch.
    let mut journal = TxnJournal::new(IRAM_BASE + IRAM_FIRMWARE_RESERVED);
    let (op, entries) = journal.load(&mut fault_killed.kernel.soc).unwrap().unwrap();
    assert_eq!(op, TxnOp::Decrypt);
    assert!(entries.iter().any(|e| e.pid == actors.vault && e.vpn == 0));
    assert!(entries.iter().all(|e| e.version == 1 << 32), "{entries:?}");

    for mut s in [lock_killed, fault_killed] {
        assert!(s.txn_in_flight());
        let first = s.recover().unwrap();
        assert!(first.journaled > 0);
        assert!(!s.txn_in_flight());
        let after_first = EndState::capture(&mut s);

        // A second recovery finds a closed journal and changes nothing.
        let second = s.recover().unwrap();
        assert_eq!(second, RecoveryReport::default());
        assert_eq!(EndState::capture(&mut s), after_first);
    }
}

#[test]
fn recovery_on_a_clean_system_is_a_noop() {
    let scn = Scenario::tegra3(11);
    let (mut s, _actors) = scn.build().unwrap();
    let before = EndState::capture(&mut s);
    let report = s.recover().unwrap();
    assert_eq!(report, RecoveryReport::default());
    assert_eq!(EndState::capture(&mut s), before);
}

#[test]
fn open_journal_rejects_reentrant_transitions_with_typed_errors() {
    let scn = Scenario::tegra3(21);
    let reference = record(&scn).unwrap();
    // Second publish of the first lock: one page is already flipped
    // encrypted, the journal is open.
    let step = reference
        .sites
        .iter()
        .filter(|(site, _)| *site == "txn.publish")
        .nth(1)
        .map(|&(_, step)| step)
        .unwrap();
    let (mut s, actors) = scn.build().unwrap();
    s.kernel.soc.failpoints.arm(FaultPlan::at_step(
        step,
        FaultAction::PowerCut { decay: None },
    ));
    assert!(s.on_lock().unwrap_err().is_power_loss());
    assert!(s.txn_in_flight());

    // Every lifecycle entry point reports the in-flight transition as a
    // typed error instead of compounding the damage.
    assert!(matches!(
        s.on_lock(),
        Err(SentryError::TransitionInFlight { op: "on_lock" })
    ));
    assert!(matches!(
        s.on_unlock(),
        Err(SentryError::TransitionInFlight { op: "on_unlock" })
    ));
    assert!(matches!(
        s.sweep(4),
        Err(SentryError::TransitionInFlight { op: "sweep" })
    ));
    // The first job of the first lock is vault vpn 0; its PTE is
    // already flipped, so touching it faults into the guarded handler.
    assert!(matches!(
        s.touch_pages(actors.vault, &[0]),
        Err(SentryError::TransitionInFlight { op: "handle_fault" })
    ));

    // Recovery clears the guard; the lock then retries cleanly.
    s.recover().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn injected_crypt_error_on_readahead_is_retried_transparently() {
    let scn = Scenario::tegra3(33);
    let (mut s, actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    // First demand fault dispatches a decrypt batch; fail it once. The
    // failure happens before any publish — no journal, nothing torn —
    // so the bounded-retry policy re-attempts the batch internally and
    // the touch succeeds without the caller ever seeing the fault.
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "crypt.dispatch",
        0,
        FaultAction::CryptError,
    ));
    s.touch_pages(actors.vault, &[0]).unwrap();
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, 1, "one transparent retry");
    assert_eq!(s.stats.crypt.exhausted, 0);
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn persistent_crypt_fault_on_readahead_exhausts_retries_cleanly() {
    let scn = Scenario::tegra3(36);
    let (mut s, actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    // A *persistent* fault — the plan re-fires on every dispatch — must
    // not spin: the typed RetriesExhausted surfaces after the cap.
    let cap = sentry::core::lifecycle::MAX_CRYPT_RETRIES;
    s.kernel
        .soc
        .failpoints
        .arm(FaultPlan::at_site("crypt.dispatch", 0, FaultAction::CryptError).persistent());
    let err = s.touch_pages(actors.vault, &[0]).unwrap_err();
    assert!(
        matches!(
            err,
            SentryError::RetriesExhausted {
                op: "handle_fault",
                attempts
            } if attempts == cap
        ),
        "got {err:?}"
    );
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, u64::from(cap) - 1);
    assert_eq!(s.stats.crypt.exhausted, 1);
    let pte = *s.kernel.procs[&actors.vault].page_table.get(0).unwrap();
    assert!(pte.encrypted, "PTE must be untouched after exhaustion");

    // Once the fault clears (disarm), the same touch succeeds.
    s.kernel.soc.failpoints.disarm();
    s.touch_pages(actors.vault, &[0]).unwrap();
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn injected_crypt_error_on_sweeper_is_retried_transparently() {
    let scn = Scenario::tegra3(34);
    let (mut s, actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    let residual_before = s.residual_encrypted_pages();
    assert!(residual_before > 0);
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "crypt.dispatch",
        0,
        FaultAction::CryptError,
    ));
    // The transient fault is absorbed by the retry policy: the tick
    // both reports the retry and still drains its budget.
    let report = s.scheduler_tick().unwrap();
    assert!(report.pages > 0);
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, 1);
    assert!(s.residual_encrypted_pages() < residual_before);
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn persistent_crypt_fault_on_sweeper_exhausts_retries_cleanly() {
    let scn = Scenario::tegra3(37);
    let (mut s, _actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    let residual_before = s.residual_encrypted_pages();
    s.kernel
        .soc
        .failpoints
        .arm(FaultPlan::at_site("crypt.dispatch", 0, FaultAction::CryptError).persistent());
    let err = s.scheduler_tick().unwrap_err();
    assert!(
        matches!(err, SentryError::RetriesExhausted { op: "sweep", .. }),
        "got {err:?}"
    );
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.exhausted, 1);
    assert_eq!(
        s.residual_encrypted_pages(),
        residual_before,
        "an exhausted sweep must decrypt nothing"
    );

    // Fault cleared: the next tick drains the same batch.
    s.kernel.soc.failpoints.disarm();
    let report = s.scheduler_tick().unwrap();
    assert!(report.pages > 0);
}

#[test]
fn injected_extent_error_in_sequential_engine_is_retried_transparently() {
    let scn = Scenario::tegra3(35);
    let (mut s, actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();

    // The sequential batch makes one engine call; fail inside the
    // engine rather than the dispatcher. The engine fails cleanly before transforming
    // anything, so the bounded retry heals this too.
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "crypt.extent",
        0,
        FaultAction::CryptError,
    ));
    s.touch_pages(actors.vault, &[0]).unwrap();
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, 1);
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn injected_crypt_error_on_lock_is_retried_transparently() {
    let scn = Scenario::tegra3(38);
    let (mut s, actors) = scn.build().unwrap();

    // The lock's batch dispatch fails once, before anything publishes;
    // the crypt step gathers its sources again and the lock completes.
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "crypt.dispatch",
        0,
        FaultAction::CryptError,
    ));
    s.on_lock().unwrap();
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, 1, "one transparent retry");
    assert_eq!(s.stats.crypt.recovered, 1);
    s.on_unlock().unwrap();
    let mut page = vec![0u8; secret_page(0, 0x11).len()];
    s.read(actors.vault, 0, &mut page).unwrap();
    assert_eq!(page, secret_page(0, 0x11));
}

#[test]
fn injected_crypt_error_on_a_locked_eviction_is_retried_transparently() {
    let scn = Scenario::tegra3(39);
    let (mut s, actors) = scn.build().unwrap();
    s.on_lock().unwrap();
    // Two page-ins fill the scenario's two on-SoC slots.
    s.touch_pages(actors.vault, &[0, 1]).unwrap();
    assert_eq!(s.pager.stats.pageouts, 0);

    // The third page-in evicts vpn 0 first; its encrypt, the first
    // engine call of the fault, fails once and is retried inside the
    // open fault.
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "crypt.extent",
        0,
        FaultAction::CryptError,
    ));
    s.touch_pages(actors.vault, &[3]).unwrap();
    assert!(!s.txn_in_flight());
    assert_eq!(s.pager.stats.pageouts, 1, "vpn 0 was evicted");
    assert_eq!(s.stats.crypt.attempts, 1, "one transparent retry");
    // vpn 0 pages back in from the ciphertext the retried eviction
    // published, and every page reads back after unlock.
    let mut page = vec![0u8; secret_page(0, 0x11).len()];
    for vpn in [0, 3] {
        s.read(actors.vault, vpn * page.len() as u64, &mut page)
            .unwrap();
        assert_eq!(page, secret_page(vpn, 0x11), "vpn {vpn} while locked");
    }
    s.on_unlock().unwrap();
    for vpn in 0..4 {
        s.read(actors.vault, vpn * page.len() as u64, &mut page)
            .unwrap();
        assert_eq!(page, secret_page(vpn, 0x11), "vpn {vpn} after unlock");
    }
}

#[test]
fn persistent_crypt_fault_on_lock_exhausts_retries_cleanly() {
    let scn = Scenario::tegra3(40);
    let (mut s, actors) = scn.build().unwrap();
    let cap = sentry::core::lifecycle::MAX_CRYPT_RETRIES;
    s.kernel
        .soc
        .failpoints
        .arm(FaultPlan::at_site("crypt.dispatch", 0, FaultAction::CryptError).persistent());
    let err = s.on_lock().unwrap_err();
    assert!(
        matches!(
            err,
            SentryError::RetriesExhausted {
                op: "on_lock",
                attempts
            } if attempts == cap
        ),
        "got {err:?}"
    );
    assert!(!s.txn_in_flight());
    assert_eq!(s.stats.crypt.attempts, u64::from(cap) - 1);
    assert_eq!(s.stats.crypt.exhausted, 1);
    for pid in [actors.vault, actors.peer] {
        for (vpn, pte) in s.kernel.procs[&pid].page_table.iter() {
            assert!(!pte.encrypted, "pid {pid} vpn {vpn} encrypted");
        }
    }

    // Once the fault clears, the same lock succeeds.
    s.kernel.soc.failpoints.disarm();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();
    let mut buf = [0u8; 16];
    s.read(actors.vault, 0, &mut buf).unwrap();
    assert_eq!(&buf, SECRET);
}

#[test]
fn real_power_loss_kills_the_journal_and_the_secrets_together() {
    let scn = Scenario::tegra3(55);
    let reference = record(&scn).unwrap();
    let step = reference
        .sites
        .iter()
        .find(|(site, _)| *site == "txn.publish")
        .map(|&(_, step)| step)
        .unwrap();
    let (mut s, _actors) = scn.build().unwrap();
    // A two-second power cut: DRAM decays to noise. iRAM is SRAM and
    // mostly *survives* two seconds — which is exactly why the boot
    // firmware zeroes it before anything else runs (§4.1); model that
    // boot duty explicitly.
    s.kernel.soc.failpoints.arm(FaultPlan::at_step(
        step,
        FaultAction::PowerCut {
            decay: Some(PowerEvent::HardReset { seconds: 2.0 }),
        },
    ));
    assert!(s.on_lock().unwrap_err().is_power_loss());
    s.kernel.soc.iram.zeroize();

    // The journal died with the power cycle: recovery parses nothing.
    let report = s.recover().unwrap();
    assert_eq!(report.journaled, 0);
    assert!(!s.txn_in_flight());

    // And the attacker's cold-boot dump holds no secret either.
    let dump = sentry::attacks::coldboot::dump_dram(&mut s.kernel.soc);
    assert!(
        sentry::attacks::coldboot::search(&dump, SECRET).is_empty(),
        "secret survived a 2 s power cut"
    );
}
