//! The encrypted spill path under a cold-boot attacker and a kill
//! switch.
//!
//! Critical pressure reclaims cold tag-store pages through the spill
//! region: CMAC'd under the epoch tweak, encrypted under the derived
//! spill key, staged to a dm-crypt-backed device. These tests pin the
//! two properties the design stands on: the region **never** holds
//! tag-store plaintext or vault plaintext (a cold-boot dump yields only
//! ciphertext), and a power cut at every spill/restore failpoint leaves
//! a machine that recovers to byte-identical application data.

use sentry::attacks::tamper::frame_of;
use sentry::core::{Sentry, SentryConfig, SentryError};
use sentry::kernel::Kernel;
use sentry::soc::failpoint::{FaultAction, FaultPlan};
use sentry::soc::Soc;

const PAGE: usize = 4096;
const PAGES: usize = 8;

fn working_set(seed: u8) -> Vec<u8> {
    (0..PAGES * PAGE)
        .map(|i| {
            seed.wrapping_mul(37)
                .wrapping_add((i * 11 + i / PAGE) as u8)
        })
        .collect()
}

/// A locked vault whose tag store holds live tags: the spill lever's
/// natural prey. Returns the machine, the pid, and the plaintext.
fn locked_vault(seed: u8) -> (Sentry, u32, Vec<u8>) {
    let config = SentryConfig::tegra3_locked_l2(2);
    let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let pid = s.kernel.spawn("vault");
    s.mark_sensitive(pid).expect("sensitive");
    let data = working_set(seed);
    s.write(pid, 0, &data).expect("write");
    s.on_lock().expect("lock");
    (s, pid, data)
}

/// Squeeze the budget until the governor must spill, and assert it did.
fn squeeze_to_spill(s: &mut Sentry) {
    s.set_onsoc_budget(Some(sentry::soc::addr::PAGE_SIZE))
        .expect("squeeze");
    s.sync_pressure();
    assert!(
        s.stats.pressure.spills >= 1,
        "Critical squeeze never spilled: {:?} (level {:?})",
        s.stats.pressure,
        s.pressure_level()
    );
    assert!(s.integrity.spilled_pages() >= 1);
}

/// Every 16-byte window of `needle` must be absent from `haystack`.
fn assert_absent(haystack: &[u8], needle: &[u8], what: &str) {
    for window in needle.chunks(16).filter(|w| w.len() == 16) {
        assert!(
            !haystack.windows(16).any(|h| h == window),
            "{what} found in the spill region dump"
        );
    }
}

/// Cold-boot hygiene: after a real spill, a raw dump of the spill device
/// contains neither the tag-store plaintext that was spilled nor any
/// vault page bytes — only ciphertext under the power-volatile spill
/// key.
#[test]
fn spill_region_dump_holds_no_plaintext() {
    let (mut s, pid, data) = locked_vault(0xA7);

    // Capture the tag-store plaintext an attacker would hunt for: the
    // live tag bytes of the vault's frames, straight off the on-SoC
    // store while they are still resident.
    let mut tag_plain = Vec::new();
    for vpn in 0..PAGES as u64 {
        let frame = frame_of(&s, pid, vpn);
        let addr = s
            .integrity
            .tag_slot_addr(frame)
            .expect("locked frame has a tag slot");
        let mut tag = [0u8; 8];
        s.kernel.soc.mem_read(addr, &mut tag).expect("read tag");
        tag_plain.extend_from_slice(&tag);
    }
    assert!(tag_plain.iter().any(|&b| b != 0), "tags unexpectedly zero");

    squeeze_to_spill(&mut s);
    let raw = s
        .integrity
        .spill_region_raw()
        .expect("spill region exists after a spill");
    assert_absent(&raw, &tag_plain, "tag-store plaintext");
    assert_absent(&raw, &data, "vault plaintext");

    // The spilled page restores on demand (MAC-verified) and the vault
    // reads back byte-identically.
    s.set_onsoc_budget(None).expect("relief");
    s.on_unlock().expect("unlock restores spilled tags");
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    s.touch_pages(pid, &vpns).expect("drain");
    let mut back = vec![0u8; data.len()];
    s.read(pid, 0, &mut back).expect("read");
    assert_eq!(back, data);
    s.sync_pressure();
    assert!(
        s.stats.pressure.spill_restores >= 1,
        "unlock never restored: {:?}",
        s.stats.pressure
    );
}

/// A stale-epoch spill blob must not restore: re-binding the anchor
/// epoch after the blob was staged makes the anchor CMAC fail with a
/// typed integrity violation, not silently decrypt.
#[test]
fn stale_epoch_spill_blob_is_refused() {
    let (mut s, pid, _data) = locked_vault(0x31);
    squeeze_to_spill(&mut s);
    // Tamper one ciphertext byte in the staged region — the restore's
    // anchor CMAC must catch it.
    let raw = s.integrity.spill_region_raw().expect("region");
    let victim = raw.iter().position(|&b| b != 0).expect("nonzero byte");
    s.integrity
        .corrupt_spill_byte(victim as u64)
        .expect("plant corruption");
    s.set_onsoc_budget(None).expect("relief");
    s.on_unlock().expect("unlock");
    // The first demand fault needs the spilled tag page back on-SoC;
    // the restore's MAC check must refuse the corrupted blob.
    let err = s
        .touch_pages(pid, &[0])
        .expect_err("tampered spill blob must refuse");
    assert!(
        matches!(
            err,
            SentryError::IntegrityViolation { .. } | SentryError::Kernel(_)
        ),
        "tamper surfaced untyped: {err:?}"
    );
}

/// Power cut at each spill-path failpoint: the interrupted machine
/// recovers and converges byte-for-byte with the uninterrupted one,
/// and the spill region still never shows plaintext.
#[test]
fn power_cut_at_every_spill_step_recovers_byte_identically() {
    for site in ["spill.stage", "spill.anchor"] {
        let (mut s, pid, data) = locked_vault(0xC4);
        s.kernel.soc.failpoints.arm(FaultPlan::at_site(
            site,
            0,
            FaultAction::PowerCut { decay: None },
        ));
        let err = s
            .set_onsoc_budget(Some(sentry::soc::addr::PAGE_SIZE))
            .expect_err("armed squeeze must die");
        assert!(err.is_power_loss(), "{site}: {err:?}");
        // The cut landed outside any journaled transition: nothing to
        // roll forward, and the tag page is still resident (the commit
        // happens strictly after both failpoints).
        assert!(!s.txn_in_flight(), "{site} tore the journal");
        s.recover().expect("recovery");

        // Retry the squeeze: the spill completes this time (any orphan
        // ciphertext from a post-stage cut is simply overwritten).
        squeeze_to_spill(&mut s);
        if let Some(raw) = s.integrity.spill_region_raw() {
            assert_absent(&raw, &data, "vault plaintext");
        }

        // Relief, restore, converge.
        s.set_onsoc_budget(None).expect("relief");
        s.on_unlock().expect("unlock");
        let vpns: Vec<u64> = (0..PAGES as u64).collect();
        s.touch_pages(pid, &vpns).expect("drain");
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).expect("read");
        assert_eq!(back, data, "{site} diverged");
        assert_eq!(s.residual_encrypted_pages(), 0);
    }
}

/// Power cut at the restore failpoint: the spilled page stays spilled
/// (anchor and ciphertext untouched), recovery clears any open journal,
/// and the retried unlock restores and converges.
#[test]
fn power_cut_mid_restore_leaves_the_blob_intact() {
    let (mut s, pid, data) = locked_vault(0xD9);
    squeeze_to_spill(&mut s);
    let spilled_before = s.integrity.spilled_pages();
    s.set_onsoc_budget(None).expect("relief");
    s.on_unlock().expect("unlock");
    s.kernel.soc.failpoints.arm(FaultPlan::at_site(
        "spill.restore",
        0,
        FaultAction::PowerCut { decay: None },
    ));
    // The first demand fault pulls the spilled tag page back; the armed
    // cut lands inside the restore.
    let err = s.touch_pages(pid, &[0]).expect_err("armed fault must die");
    assert!(err.is_power_loss());
    // The restore unwound: the page is still spilled, the anchor valid.
    assert_eq!(s.integrity.spilled_pages(), spilled_before);
    if s.txn_in_flight() {
        s.recover().expect("recovery");
    }
    let vpns: Vec<u64> = (0..PAGES as u64).collect();
    s.touch_pages(pid, &vpns).expect("drain");
    let mut back = vec![0u8; data.len()];
    s.read(pid, 0, &mut back).expect("read");
    assert_eq!(back, data);
    s.sync_pressure();
    assert!(s.stats.pressure.spill_restores >= 1);
}
