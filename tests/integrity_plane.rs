//! Property tests for the integrity plane: *any* single-bit
//! manipulation of encrypted DRAM — in the ciphertext, in the on-SoC
//! tag store, or as a stale-epoch replay — must surface as a typed
//! [`SentryError::IntegrityViolation`] on the next decrypt, never as
//! silently wrong plaintext. The dm-crypt sector MAC gets the same
//! treatment on the storage side.

use proptest::prelude::*;
use sentry::attacks::faultmatrix::{public_page, secret_page, Scenario};
use sentry::attacks::tamper::{flip_bit, raw_read_page, raw_write_page};
use sentry::core::{Sentry, SentryError};
use sentry::kernel::block::{BlockDevice, RamDisk, SECTOR_SIZE};
use sentry::kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry::kernel::dmcrypt::DmCrypt;
use sentry::kernel::pagetable::Backing;
use sentry::kernel::{KernelError, Pid};
use sentry::soc::failpoint::{FaultAction, FaultPlan};
use sentry::soc::{SimClock, Soc, PAGE_SIZE};

/// The DRAM frame currently backing `(pid, vpn)`.
fn frame_of(s: &Sentry, pid: Pid, vpn: u64) -> u64 {
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

/// The plaintext image the scenario builder wrote to a vault page.
fn expected_page(scn: &Scenario, vpn: u64) -> Vec<u8> {
    if vpn < scn.secret_pages {
        secret_page(vpn, 0x11)
    } else {
        public_page()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Flip any single ciphertext bit of any encrypted vault page while
    /// the device is locked. Whatever decrypt path consumes that page
    /// after unlock (eager DMA batch for vpn 2, readahead for cluster
    /// mates, on-demand for the rest), the explicit read of the
    /// tampered page must report a typed violation, every other page
    /// must read back byte-for-byte intact, and the frame must end up
    /// quarantined.
    #[test]
    fn any_single_ciphertext_bit_flip_is_detected(
        vpn in 0u64..4,
        offset in 0u64..4096,
        bit in 0u8..8,
    ) {
        let scn = Scenario::tegra3(0x1B17 ^ offset);
        let (mut s, actors) = scn.build().unwrap();

        s.on_lock().unwrap();
        s.kernel.soc.cache_maintenance_flush();
        let frame = frame_of(&s, actors.vault, vpn);
        flip_bit(&mut s.kernel.soc, frame, offset, bit);

        // The unlock batch itself must survive a poisoned DMA page:
        // quarantine, not a hard failure.
        s.on_unlock().unwrap();

        for probe in 0..=scn.secret_pages {
            let mut page = vec![0u8; PAGE_SIZE as usize];
            let got = s.read(actors.vault, probe * PAGE_SIZE, &mut page);
            if probe == vpn {
                let err = got.expect_err("tampered page read must fail");
                prop_assert!(err.is_integrity_violation(), "probe {probe}: {err}");
            } else {
                prop_assert!(got.is_ok(), "survivor {probe}: {got:?}");
                prop_assert!(
                    page == expected_page(&scn, probe),
                    "survivor {probe} returned wrong bytes"
                );
            }
        }
        prop_assert!(s.integrity.is_quarantined(frame));

        // Liveness: the system keeps locking and unlocking around the
        // poisoned page.
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        let again = s.read(actors.vault, vpn * PAGE_SIZE, &mut page);
        prop_assert!(
            again.expect_err("still poisoned").is_integrity_violation()
        );
    }

    /// Flip any single bit of the *stored tag* in the on-SoC tag store
    /// instead of the ciphertext: the mismatch must be caught from that
    /// side too.
    #[test]
    fn any_tag_store_bit_flip_is_detected(byte in 0usize..8, bit in 0u8..8) {
        let scn = Scenario::tegra3(0x7A65);
        let (mut s, actors) = scn.build().unwrap();

        s.on_lock().unwrap();
        s.kernel.soc.cache_maintenance_flush();
        let frame = frame_of(&s, actors.vault, 3);
        let slot = s
            .integrity
            .tag_slot_addr(frame)
            .expect("locked page must have a stored tag");
        let mut tag = [0u8; 8];
        s.kernel.soc.mem_read(slot, &mut tag).unwrap();
        tag[byte] ^= 1 << bit;
        s.kernel.soc.mem_write(slot, &tag).unwrap();

        s.on_unlock().unwrap();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        let err = s
            .read(actors.vault, 3 * PAGE_SIZE, &mut page)
            .expect_err("corrupted tag must fail the ciphertext");
        prop_assert!(err.is_integrity_violation(), "{err}");
        prop_assert!(s.integrity.is_quarantined(frame));
    }

    /// Flip any single ciphertext bit of any sector on the encrypted
    /// volume: dm-crypt must reject the whole request with a typed
    /// [`KernelError::SectorTamper`] naming the bad sector, before any
    /// byte of it is decrypted.
    #[test]
    fn dm_crypt_rejects_any_single_bit_flip_on_disk(
        sector in 0u64..8,
        offset in 0usize..512,
        bit in 0u8..8,
    ) {
        let mut api = CryptoApi::new();
        api.register(Box::new(GenericAesEngine::new(0)));
        let mut soc = Soc::tegra3_small();
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, &mut soc, &[9u8; 16]).unwrap();
        let mut disk = RamDisk::new(64);

        let data: Vec<u8> = (0..SECTOR_SIZE * 8).map(|i| (i % 251) as u8).collect();
        dm.write(&mut api, &mut soc, &mut disk, 16, &data).unwrap();

        let mut raw = vec![0u8; SECTOR_SIZE];
        let mut clock = SimClock::new();
        disk.read_sectors(16 + sector, &mut raw, &mut clock).unwrap();
        raw[offset] ^= 1 << bit;
        disk.write_sectors(16 + sector, &raw, &mut clock).unwrap();

        let mut back = vec![0u8; data.len()];
        let err = dm
            .read(&mut api, &mut soc, &mut disk, 16, &mut back)
            .expect_err("tampered volume read must fail");
        prop_assert!(
            matches!(err, KernelError::SectorTamper { sector: bad, .. } if bad == 16 + sector),
            "{err}"
        );
    }
}

/// Replaying authentic-but-stale ciphertext from an earlier lock epoch
/// is rejected: the IV binds the epoch, so yesterday's valid ciphertext
/// fails today's tag.
#[test]
fn stale_epoch_replay_is_rejected() {
    let scn = Scenario::tegra3(0x5EED);
    let (mut s, actors) = scn.build().unwrap();

    // Epoch 1: record the authentic ciphertext of vpn 3.
    s.on_lock().unwrap();
    s.kernel.soc.cache_maintenance_flush();
    let frame = frame_of(&s, actors.vault, 3);
    let stale = raw_read_page(&mut s.kernel.soc, frame);

    // The victim decrypts the page, then the device locks again —
    // re-encrypting under epoch 2.
    s.on_unlock().unwrap();
    s.touch_pages(actors.vault, &[3]).unwrap();
    s.on_lock().unwrap();
    s.kernel.soc.cache_maintenance_flush();

    // Replay the epoch-1 image over the epoch-2 frame.
    let frame2 = frame_of(&s, actors.vault, 3);
    raw_write_page(&mut s.kernel.soc, frame2, &stale);

    s.on_unlock().unwrap();
    let mut page = vec![0u8; PAGE_SIZE as usize];
    let err = s
        .read(actors.vault, 3 * PAGE_SIZE, &mut page)
        .expect_err("stale ciphertext must not decrypt");
    assert!(err.is_integrity_violation(), "{err}");
    assert!(s.integrity.is_quarantined(frame2));
}

/// The boot-time audit inside [`Sentry::recover`] quarantines a
/// tampered at-rest frame even when no journal entry mentions it, so a
/// crashed-then-tampered device never rolls the damage forward into
/// plaintext.
#[test]
fn boot_time_audit_quarantines_tampered_at_rest_frames() {
    let scn = Scenario::tegra3(0xB007);
    let (mut s, actors) = scn.build().unwrap();

    s.on_lock().unwrap();
    s.kernel.soc.cache_maintenance_flush();
    let frame = frame_of(&s, actors.vault, 3);
    flip_bit(&mut s.kernel.soc, frame, 2040, 1);

    // Power comes back with no transition in flight: the journal is
    // empty, so only the audit can notice the rot.
    let report = s.recover().unwrap();
    assert_eq!(report.journaled, 0, "no journal entries expected");
    assert!(
        report.quarantined >= 1,
        "audit missed the tamper: {report:?}"
    );
    assert!(s.integrity.is_quarantined(frame));

    s.on_unlock().unwrap();
    let mut page = vec![0u8; PAGE_SIZE as usize];
    let err = s
        .read(actors.vault, 3 * PAGE_SIZE, &mut page)
        .expect_err("audited-out page must stay poisoned");
    assert!(
        matches!(err, SentryError::IntegrityViolation { .. }),
        "{err}"
    );

    // Every untampered page survives the audit untouched.
    for probe in 0..=scn.secret_pages {
        if probe == 3 {
            continue;
        }
        let mut page = vec![0u8; PAGE_SIZE as usize];
        s.read(actors.vault, probe * PAGE_SIZE, &mut page).unwrap();
        assert_eq!(page, expected_page(&scn, probe), "survivor {probe}");
    }
}

/// A DRAM bit that flips after a locked fault's eviction publishes and
/// before its read-back is caught by the read-back: the victim's frame
/// is quarantined with the eviction's journal left open, recovery
/// re-encrypts the victim from its still-intact on-SoC slot (the
/// commit tag sees the torn publish: under CBC it is the final block,
/// so the flip lands there; under XTS it covers the whole page), and
/// every page reads back intact, locked and unlocked.
#[test]
fn a_bit_flip_before_the_eviction_read_back_is_rolled_forward() {
    for (scn, offset) in [
        (Scenario::tegra3(0x8EAD), PAGE_SIZE - 1),
        (Scenario::tegra3_xts(0x8EAE), 100),
    ] {
        let (mut s, actors) = scn.build().unwrap();
        let vault = actors.vault;
        s.on_lock().unwrap();
        // Both slots taken, vpn 0 oldest: the next fault evicts it.
        s.touch_pages(vault, &[0, 3]).unwrap();
        let home = s.kernel.procs[&vault].page_table.get(0).unwrap().home_frame;
        let home = home.expect("a resident page keeps its home frame");
        s.kernel.soc.failpoints.arm(FaultPlan::at_site(
            "pager.readback",
            0,
            FaultAction::TamperDramBit {
                addr: home + offset,
                bit: 3,
            },
        ));
        let err = s
            .touch_pages(vault, &[1])
            .expect_err("the read-back must catch the flip");
        s.kernel.soc.failpoints.disarm();
        assert!(
            matches!(err, SentryError::IntegrityViolation { pid, vpn: 0, .. } if pid == vault),
            "{}: {err}",
            scn.name
        );
        assert!(s.txn_in_flight(), "{}: journal left open", scn.name);
        assert!(s.integrity.is_quarantined(home), "{}", scn.name);

        let report = s.recover().unwrap();
        assert_eq!(report.completed, 1, "{}", scn.name);
        assert!(!s.integrity.is_quarantined(home), "{}: healed", scn.name);
        assert_eq!(s.integrity.quarantined_count(), 0, "{}", scn.name);
        for locked in [true, false] {
            for vpn in 0..=scn.secret_pages {
                let mut page = vec![0u8; PAGE_SIZE as usize];
                s.read(vault, vpn * PAGE_SIZE, &mut page).unwrap();
                let name = scn.name;
                assert_eq!(page, expected_page(&scn, vpn), "{name} vpn {vpn}");
            }
            if locked {
                s.on_unlock().unwrap();
            }
        }
    }
}
