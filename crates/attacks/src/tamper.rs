//! Active DRAM-tamper adversary against the integrity plane.
//!
//! The cold-boot/bus/DMA attackers of [`crate::matrix`] only *read*
//! memory. This module models the stronger §3 adversary who can also
//! *write* DRAM while the device runs — rowhammer-style bit disturbance,
//! splicing ciphertext between frames, or replaying a stale-epoch
//! ciphertext recorded before an earlier unlock. Confidentiality alone
//! cannot stop such an attacker from corrupting what the victim will
//! later decrypt; the per-page CMAC tags in the on-SoC store (out of the
//! attacker's reach) must catch every manipulation at decrypt time.
//!
//! [`run_tamper_matrix`] drives a vector × decrypt-path grid. Each cell
//! builds a fresh world, plants one tamper while the target pages sit
//! encrypted in DRAM, then forces the bytes through one specific decrypt
//! path — the on-demand fault, the fault-cluster readahead, the unlock
//! DMA batch, the background sweeper, the locked background fault's
//! page-in, or crash recovery — and checks:
//!
//! * **Detection** — the tamper surfaces as a typed
//!   `IntegrityViolation` (directly, or as a quarantined page whose
//!   next explicit access errors);
//! * **No silent corruption** — no read anywhere in the world ever
//!   returns bytes that differ from the written plaintext without an
//!   error;
//! * **Liveness** — untampered pages keep working and a full
//!   lock/unlock cycle still succeeds after the quarantine.

use crate::faultmatrix::{public_page, secret_page, Actors, Scenario};
use sentry_core::{Sentry, SentryError};
use sentry_kernel::pagetable::Backing;
use sentry_kernel::Pid;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::cache::LINE_SIZE;
use sentry_soc::failpoint::{FaultAction, FaultPlan};
use sentry_soc::Soc;

/// How the attacker manipulates ciphertext in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperVector {
    /// Flip a single bit of one ciphertext page (bus glitch, rowhammer).
    BitFlip,
    /// Swap the ciphertext of two encrypted frames (both images are
    /// valid ciphertext — only the tag's IV binding to `(pid, vpn)`
    /// tells them apart).
    Splice,
    /// Record a frame's ciphertext under one lock epoch and write it
    /// back after the page was re-encrypted under a later epoch (a
    /// fully valid stale image; only the epoch in the tag IV differs).
    Replay,
}

impl TamperVector {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TamperVector::BitFlip => "bit-flip",
            TamperVector::Splice => "splice",
            TamperVector::Replay => "epoch-replay",
        }
    }
}

/// Which decrypt path is forced to consume the tampered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecryptPath {
    /// `handle_fault` on the tampered page itself.
    OnDemand,
    /// The tampered page rides into a fault-cluster readahead for a
    /// *clean* neighbour.
    Readahead,
    /// The eager DMA-region batch inside `on_unlock`.
    UnlockBatch,
    /// The background decrypt sweeper (`scheduler_tick`).
    Sweeper,
    /// A sensitive background app's fault while the device is still
    /// locked: the pager evicts a resident page to page the tampered
    /// one in.
    PageIn,
    /// `Sentry::recover` rolling an interrupted unlock forward.
    Recovery,
}

impl DecryptPath {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecryptPath::OnDemand => "on-demand fault",
            DecryptPath::Readahead => "readahead",
            DecryptPath::UnlockBatch => "unlock batch",
            DecryptPath::Sweeper => "sweeper",
            DecryptPath::PageIn => "locked page-in",
            DecryptPath::Recovery => "recovery",
        }
    }
}

/// What one tamper cell observed.
#[derive(Debug, Clone)]
pub struct TamperCell {
    /// The decrypt path that consumed the tampered bytes.
    pub path: DecryptPath,
    /// The manipulation planted.
    pub vector: TamperVector,
    /// The tamper surfaced as a typed integrity violation.
    pub detected: bool,
    /// Pages in quarantine at the end of the cell.
    pub quarantined: usize,
    /// Reads that returned wrong bytes *without* an error (must be 0).
    pub silent_corruptions: usize,
    /// Untampered pages all read back intact and a lock/unlock cycle
    /// still worked after the quarantine.
    pub survivors_intact: bool,
    /// Human-readable trace of what happened.
    pub evidence: String,
}

impl TamperCell {
    /// The defence held: detected, nothing silently corrupted, rest of
    /// the system alive.
    #[must_use]
    pub(crate) fn clean(&self) -> bool {
        self.detected && self.silent_corruptions == 0 && self.survivors_intact
    }
}

/// The full vector × path grid for one scenario.
#[derive(Debug, Clone)]
pub struct TamperOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Every cell, in grid order.
    pub cells: Vec<TamperCell>,
}

impl TamperOutcome {
    /// Every cell detected its tamper.
    #[must_use]
    pub fn all_detected(&self) -> bool {
        self.cells.iter().all(|c| c.detected)
    }

    /// Total silent-corruption observations (must be 0).
    #[must_use]
    pub fn silent_corruptions(&self) -> usize {
        self.cells.iter().map(|c| c.silent_corruptions).sum()
    }

    /// Fraction of cells whose tamper was detected.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        let hit = self.cells.iter().filter(|c| c.detected).count();
        hit as f64 / self.cells.len() as f64
    }

    /// Every cell clean.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.cells.iter().all(TamperCell::clean)
    }
}

/// The DRAM frame currently backing `(pid, vpn)`.
///
/// Public so other harnesses (the fleet event stream) can aim the same
/// tamper helpers at a specific victim page.
///
/// # Panics
///
/// Panics if the vpn is unmapped or currently resident on-SoC.
#[must_use]
pub fn frame_of(s: &Sentry, pid: Pid, vpn: u64) -> u64 {
    match s.kernel.procs[&pid]
        .page_table
        .get(vpn)
        .expect("target vpn mapped")
        .backing
    {
        Backing::Dram(frame) => frame,
        Backing::OnSoc(_) => panic!("target page unexpectedly on-SoC"),
    }
}

/// Read a frame's raw DRAM bytes (the attacker's probe view).
#[must_use]
pub fn raw_read_page(soc: &mut Soc, frame: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE as usize];
    soc.dram.read(frame, &mut page);
    page
}

/// Write raw bytes into a frame behind the cache's back, dropping any
/// stale cache lines so the CPU observes the tampered image — the same
/// model as [`FaultAction::TamperDramBit`].
pub fn raw_write_page(soc: &mut Soc, frame: u64, bytes: &[u8]) {
    soc.dram.write(frame, bytes);
    let mut addr = frame;
    while addr < frame + PAGE_SIZE {
        soc.cache.invalidate_line(addr);
        addr += LINE_SIZE as u64;
    }
}

/// Flip one ciphertext bit in `frame`.
pub fn flip_bit(soc: &mut Soc, frame: u64, offset: u64, bit: u8) {
    let mut page = raw_read_page(soc, frame);
    page[offset as usize] ^= 1 << (bit & 7);
    raw_write_page(soc, frame, &page);
}

/// Swap the full ciphertext images of two frames.
fn splice_frames(soc: &mut Soc, a: u64, b: u64) {
    let pa = raw_read_page(soc, a);
    let pb = raw_read_page(soc, b);
    raw_write_page(soc, a, &pb);
    raw_write_page(soc, b, &pa);
}

/// The plaintext a vault/public page is expected to hold (the scenario
/// builder's images — this module never uses `Op::Write`).
fn expected_page(scn: &Scenario, vpn: u64) -> Vec<u8> {
    if vpn < scn.secret_pages {
        secret_page(vpn, 0x11)
    } else {
        public_page()
    }
}

/// Audit the whole world after the attack: count reads that return
/// wrong bytes without an error, and check every *untampered* page
/// reads back intact. Quarantined tampered pages erroring is the
/// expected outcome, not a liveness failure.
fn audit(
    s: &mut Sentry,
    scn: &Scenario,
    actors: &Actors,
    tampered: &[u64],
) -> (usize, bool, Vec<String>) {
    let mut silent = 0usize;
    let mut survivors_intact = true;
    let mut notes = Vec::new();
    for vpn in 0..=scn.secret_pages {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        match s.read(actors.vault, vpn * PAGE_SIZE, &mut page) {
            Ok(()) => {
                if page != expected_page(scn, vpn) {
                    silent += 1;
                    notes.push(format!("vpn {vpn}: wrong bytes returned without error"));
                }
            }
            Err(e) if e.is_integrity_violation() => {
                if !tampered.contains(&vpn) {
                    survivors_intact = false;
                    notes.push(format!("vpn {vpn}: untampered page quarantined: {e}"));
                }
            }
            Err(e) => {
                survivors_intact = false;
                notes.push(format!("vpn {vpn}: unexpected error: {e}"));
            }
        }
    }
    (silent, survivors_intact, notes)
}

/// Drive the background sweeper until the residual gauge reaches zero.
/// Returns whether it drained within the tick budget — quarantined
/// frames are excluded from the gauge, so a poisoned page must not make
/// this spin.
fn drain_sweeper(s: &mut Sentry) -> Result<bool, SentryError> {
    for _ in 0..16 {
        if s.scheduler_tick()?.residual_pages == 0 {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Plant `vector` on the pages `path` will consume, with the world
/// locked and the targets encrypted in DRAM. Returns the tampered vpns.
fn plant(
    s: &mut Sentry,
    actors: &Actors,
    path: DecryptPath,
    vector: TamperVector,
) -> Result<Vec<u64>, SentryError> {
    // Primary target per path: the page that specific path decrypts.
    // vpn 2 is the DMA region (unlock batch / recovery); vpn 1 fronts
    // the cluster-mate of vpn 0 (readahead); vpn 3 is a plain private
    // page (on-demand, sweeper, locked page-in).
    let target = match path {
        DecryptPath::OnDemand | DecryptPath::Sweeper | DecryptPath::PageIn => 3,
        DecryptPath::Readahead => 1,
        DecryptPath::UnlockBatch | DecryptPath::Recovery => 2,
    };
    match vector {
        TamperVector::BitFlip => {
            s.on_lock()?;
            s.kernel.soc.cache_maintenance_flush();
            let frame = frame_of(s, actors.vault, target);
            flip_bit(&mut s.kernel.soc, frame, 1234, 5);
            Ok(vec![target])
        }
        TamperVector::Splice => {
            // Splice the target against another encrypted private page
            // (both tags break: each frame now fronts the other's IV).
            let other = if target == 3 { 1 } else { 3 };
            s.on_lock()?;
            s.kernel.soc.cache_maintenance_flush();
            let fa = frame_of(s, actors.vault, target);
            let fb = frame_of(s, actors.vault, other);
            splice_frames(&mut s.kernel.soc, fa, fb);
            Ok(vec![target, other])
        }
        TamperVector::Replay => {
            // Record the epoch-1 ciphertext, let the victim decrypt and
            // re-encrypt under epoch 2, then write the stale image back.
            s.on_lock()?;
            s.kernel.soc.cache_maintenance_flush();
            let frame = frame_of(s, actors.vault, target);
            let stale = raw_read_page(&mut s.kernel.soc, frame);
            s.on_unlock()?;
            s.touch_pages(actors.vault, &[target])?;
            s.on_lock()?;
            s.kernel.soc.cache_maintenance_flush();
            let frame2 = frame_of(s, actors.vault, target);
            raw_write_page(&mut s.kernel.soc, frame2, &stale);
            Ok(vec![target])
        }
    }
}

/// Run one cell of the grid.
///
/// # Errors
///
/// Propagates unexpected (non-injected, non-violation) errors.
///
/// # Panics
///
/// Panics if a target page is unmapped or on-SoC when the tamper is
/// planted (scenario invariants).
pub(crate) fn run_cell(
    scn: &Scenario,
    path: DecryptPath,
    vector: TamperVector,
) -> Result<TamperCell, SentryError> {
    let (mut s, actors) = scn.build()?;
    let mut evidence = Vec::new();

    // Recovery exercises its own kill-then-tamper prologue; every other
    // path starts from the planted, locked world.
    let tampered = if path == DecryptPath::Recovery {
        // Kill the unlock at its first publish: the DMA page's journal
        // entry is open, its ciphertext still in DRAM, its tag still in
        // the on-SoC store. Then corrupt the in-flight frame.
        s.on_lock()?;
        let frame = frame_of(&s, actors.vault, 2);
        s.kernel.soc.failpoints.arm(FaultPlan::at_site(
            "txn.publish",
            0,
            FaultAction::PowerCut { decay: None },
        ));
        let err = s.on_unlock().expect_err("armed power cut must fire");
        assert!(err.is_power_loss(), "unexpected unlock error: {err}");
        s.kernel.soc.failpoints.disarm();
        flip_bit(&mut s.kernel.soc, frame, 77, 2);
        let report = s.recover()?;
        evidence.push(format!(
            "recovery completed {} entries with the in-flight frame tampered",
            report.completed
        ));
        // Recovery must quarantine the frame, not roll it forward.
        s.on_unlock()?;
        vec![2]
    } else {
        plant(&mut s, &actors, path, vector)?
    };

    // Force the tampered bytes through the chosen decrypt path.
    let mut detected = false;
    let mut path_ok = true;
    match path {
        DecryptPath::OnDemand => {
            s.on_unlock()?;
            let err = s.touch_pages(actors.vault, &tampered[..1]);
            detected = matches!(&err, Err(e) if e.is_integrity_violation());
            evidence.push(format!("direct touch -> {err:?}"));
        }
        DecryptPath::Readahead => {
            s.on_unlock()?;
            // vpn 0 is clean; its fault-cluster readahead pulls vpn 1.
            s.touch_pages(actors.vault, &[0])?;
            let pulled = s.integrity.quarantined_count();
            evidence.push(format!("clean neighbour touch quarantined {pulled} pages"));
        }
        DecryptPath::UnlockBatch => {
            // The unlock itself must survive, quarantining the DMA page.
            s.on_unlock()?;
            evidence.push(format!(
                "unlock survived with {} pages quarantined",
                s.integrity.quarantined_count()
            ));
        }
        DecryptPath::Sweeper => {
            s.on_unlock()?;
            let drained = drain_sweeper(&mut s)?;
            evidence.push(format!(
                "sweeper drained={drained} around {} quarantined pages",
                s.integrity.quarantined_count()
            ));
            path_ok &= drained;
        }
        DecryptPath::PageIn => {
            // Fill both pager slots with clean pages, then fault the
            // tampered page in while still locked: the fault evicts
            // vpn 0 and must refuse the page it brings in.
            s.touch_pages(actors.vault, &[0, 2])?;
            let err = s.touch_pages(actors.vault, &tampered[..1]);
            detected = matches!(&err, Err(e) if e.is_integrity_violation());
            evidence.push(format!(
                "locked fault after {} pageouts -> {err:?}",
                s.pager.stats.pageouts
            ));
            s.on_unlock()?;
        }
        DecryptPath::Recovery => {}
    }

    // Whichever path consumed the bytes, every tampered page's next
    // explicit access must surface the typed violation.
    for &vpn in &tampered {
        let err = s.touch_pages(actors.vault, &[vpn]);
        if matches!(&err, Err(e) if e.is_integrity_violation()) {
            detected = true;
        } else if matches!(path, DecryptPath::OnDemand | DecryptPath::PageIn) {
            // The direct touch above already decided this cell.
        } else {
            detected = false;
            evidence.push(format!("vpn {vpn} touch after attack -> {err:?}"));
            break;
        }
    }

    let quarantined = s.integrity.quarantined_count();
    let (silent, audit_ok, notes) = audit(&mut s, scn, &actors, &tampered);
    let mut survivors_intact = audit_ok && path_ok;
    evidence.extend(notes);

    // Liveness: a full lock/unlock cycle still works with pages in
    // quarantine, and the survivors are intact afterwards too.
    if s.on_lock().is_err() || s.on_unlock().is_err() {
        survivors_intact = false;
        evidence.push("lock/unlock cycle failed after quarantine".into());
    } else {
        let (silent2, ok2, notes2) = audit(&mut s, scn, &actors, &tampered);
        survivors_intact &= ok2 && silent2 == 0;
        evidence.extend(notes2);
    }

    Ok(TamperCell {
        path,
        vector,
        detected,
        quarantined,
        silent_corruptions: silent,
        survivors_intact,
        evidence: evidence.join("; "),
    })
}

/// The decrypt paths every vector is driven through.
const DECRYPT_PATHS: [DecryptPath; 5] = [
    DecryptPath::OnDemand,
    DecryptPath::Readahead,
    DecryptPath::UnlockBatch,
    DecryptPath::Sweeper,
    DecryptPath::PageIn,
];

/// Run the full vector × path grid against `scn`. The recovery path is
/// driven with the bit-flip vector only (splice/replay need a second
/// committed epoch, which an interrupted unlock doesn't have).
///
/// # Errors
///
/// Propagates the first unexpected error from any cell.
pub fn run_tamper_matrix(scn: &Scenario) -> Result<TamperOutcome, SentryError> {
    let mut cells = Vec::new();
    for vector in [
        TamperVector::BitFlip,
        TamperVector::Splice,
        TamperVector::Replay,
    ] {
        for path in DECRYPT_PATHS {
            cells.push(run_cell(scn, path, vector)?);
        }
    }
    cells.push(run_cell(scn, DecryptPath::Recovery, TamperVector::BitFlip)?);
    Ok(TamperOutcome {
        scenario: scn.name.to_string(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_core::transition::nonce_audit::audited;

    #[test]
    fn every_tamper_cell_is_detected_with_no_silent_corruption() {
        let scn = Scenario::tegra3(11);
        let outcome = audited(scn.name, || run_tamper_matrix(&scn).unwrap());
        assert_eq!(outcome.cells.len(), 16);
        for cell in &outcome.cells {
            assert!(
                cell.clean(),
                "{} via {}: detected={} silent={} survivors={} [{}]",
                cell.vector.name(),
                cell.path.name(),
                cell.detected,
                cell.silent_corruptions,
                cell.survivors_intact,
                cell.evidence
            );
        }
        assert!((outcome.detection_rate() - 1.0).abs() < f64::EPSILON);
        assert!(outcome.clean(), "defence must hold");
    }

    #[test]
    fn parallel_engine_detects_tampers_too() {
        let scn = Scenario::tegra3_parallel(12);
        let outcome = audited(scn.name, || run_tamper_matrix(&scn).unwrap());
        assert!(outcome.clean(), "{:#?}", outcome.cells);
    }

    #[test]
    fn xts_and_ctr_modes_detect_every_tamper() {
        // The non-chaining page ciphers must hold the same 16/16 line:
        // the integrity CMAC binds (pid, vpn, version) through the IV
        // regardless of mode, so bit flips, frame splices, and
        // stale-epoch replays all still break the tag.
        for scn in [Scenario::tegra3_xts(14), Scenario::tegra3_ctr(15)] {
            let outcome = audited(scn.name, || run_tamper_matrix(&scn).unwrap());
            assert_eq!(outcome.cells.len(), 16);
            assert!(
                outcome.clean(),
                "{} tamper matrix not clean: {:#?}",
                scn.name,
                outcome.cells
            );
            assert!((outcome.detection_rate() - 1.0).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn disabled_integrity_plane_is_actually_broken() {
        // Sanity check on the harness itself: without the tag store the
        // bit flip decrypts to garbage and nobody notices — the exact
        // failure mode the plane exists to close.
        let mut scn = Scenario::tegra3(13);
        scn.config = scn.config.clone().without_integrity();
        let cell = run_cell(&scn, DecryptPath::OnDemand, TamperVector::BitFlip).unwrap();
        assert!(!cell.detected);
        assert!(cell.silent_corruptions > 0, "{}", cell.evidence);
    }
}
