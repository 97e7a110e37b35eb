//! The §7 shared-page policy over *real* shared frames.
//!
//! "If a memory page is shared with an application deemed non-sensitive,
//! Sentry assumes that the contents of this memory page are not secret
//! and skips encrypting it. However, if the page is shared only between
//! sensitive applications, Sentry encrypts the page."

use sentry_core::{Sentry, SentryConfig};
use sentry_kernel::pagetable::Sharing;
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::Soc;

const SHARED_DATA: &[u8] = b"shared session token: 9f3a2c";

fn sentry() -> Sentry {
    Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(2),
    )
    .unwrap()
}

#[test]
fn page_shared_between_sensitive_apps_is_encrypted_once() {
    let mut s = sentry();
    let a = s.kernel.spawn("mail");
    let b = s.kernel.spawn("calendar");
    s.mark_sensitive(a).unwrap();
    s.mark_sensitive(b).unwrap();

    s.write(a, 0, SHARED_DATA).unwrap();
    s.kernel.map_shared(a, 0, b, 7).unwrap();

    // Both views see the same bytes.
    let mut buf = vec![0u8; SHARED_DATA.len()];
    s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);

    let report = s.on_lock().unwrap();
    // Exactly one page encrypted for the shared frame (not two).
    assert_eq!(report.bytes_encrypted, PAGE_SIZE);
    assert_eq!(report.skipped_shared_pages, 0);

    // No plaintext in DRAM.
    s.kernel.soc.cache_maintenance_flush();
    for (_addr, frame) in s.kernel.soc.dram.iter_frames() {
        assert!(!frame.windows(12).any(|w| w == &SHARED_DATA[..12]));
    }

    // After unlock, either sharer's first touch decrypts for both.
    s.on_unlock().unwrap();
    s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);
    let mut via_a = vec![0u8; SHARED_DATA.len()];
    s.read(a, 0, &mut via_a).unwrap();
    assert_eq!(via_a, SHARED_DATA, "second sharer must not double-decrypt");
    assert_eq!(
        s.kernel.proc(a).unwrap().page_table.get(0).unwrap().sharing,
        Sharing::SharedSensitiveOnly
    );
}

#[test]
fn page_shared_with_non_sensitive_app_is_skipped() {
    let mut s = sentry();
    let a = s.kernel.spawn("mail");
    let b = s.kernel.spawn("keyboard-extension"); // not sensitive
    s.mark_sensitive(a).unwrap();

    s.write(a, 0, SHARED_DATA).unwrap();
    s.write(a, PAGE_SIZE, b"private mail body pages.........")
        .unwrap();
    s.kernel.map_shared(a, 0, b, 0).unwrap();

    let report = s.on_lock().unwrap();
    // Only the private page was encrypted; the shared one was skipped
    // and tagged.
    assert_eq!(report.bytes_encrypted, PAGE_SIZE);
    assert_eq!(report.skipped_shared_pages, 1);
    assert_eq!(
        s.kernel.proc(a).unwrap().page_table.get(0).unwrap().sharing,
        Sharing::SharedWithNonSensitive
    );

    // The non-sensitive app can keep using the page while locked —
    // it never traps.
    let mut buf = vec![0u8; SHARED_DATA.len()];
    s.kernel.read(b, 0, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);
}

#[test]
fn repeated_cycles_keep_shared_pages_consistent() {
    let mut s = sentry();
    let a = s.kernel.spawn("a");
    let b = s.kernel.spawn("b");
    s.mark_sensitive(a).unwrap();
    s.mark_sensitive(b).unwrap();
    s.write(a, 0, SHARED_DATA).unwrap();
    s.kernel.map_shared(a, 0, b, 3).unwrap();

    for cycle in 0..4u8 {
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        // Alternate which sharer touches first.
        let mut buf = vec![0u8; SHARED_DATA.len()];
        if cycle % 2 == 0 {
            s.read(a, 0, &mut buf).unwrap();
        } else {
            s.read(b, 3 * PAGE_SIZE, &mut buf).unwrap();
        }
        assert_eq!(buf, SHARED_DATA, "cycle {cycle}");
    }
}

#[test]
fn writes_through_one_mapping_are_visible_through_the_other() {
    let mut s = sentry();
    let a = s.kernel.spawn("a");
    let b = s.kernel.spawn("b");
    s.write(a, 0, b"before").unwrap();
    s.kernel.map_shared(a, 0, b, 0).unwrap();
    s.write(b, 0, b"after!").unwrap();
    let mut buf = [0u8; 6];
    s.read(a, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"after!");
}

#[test]
fn shared_frame_decrypts_once_under_the_iv_it_was_encrypted_under() {
    // A frame shared by two sensitive apps was encrypted once, under the
    // first sharer's IV. When a DMA region maps it, unlock's eager
    // decrypt must use that IV, decrypt the frame exactly once, and flip
    // every sharer — with the integrity plane checking the MAC and
    // without it. When that first sharer exits while the frame is
    // ciphertext, the other sharer's PTE still names its IV: recovery's
    // audit verifies the frame and the read decrypts it.
    let configs = [
        SentryConfig::tegra3_locked_l2(2),
        SentryConfig::tegra3_locked_l2(2).without_integrity(),
    ];
    for config in configs {
        for case in ["dma on the other sharer", "dma on both", "IV owner exits"] {
            let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config.clone()).unwrap();
            let a = s.kernel.spawn("mail");
            let b = s.kernel.spawn("camera");
            s.mark_sensitive(a).unwrap();
            s.mark_sensitive(b).unwrap();
            s.write(a, 0, SHARED_DATA).unwrap();
            s.kernel.map_shared(a, 0, b, 7).unwrap();
            let dma = match case {
                "dma on the other sharer" => vec![(b, 7)],
                "dma on both" => vec![(a, 0), (b, 7)],
                _ => Vec::new(),
            };
            for &(pid, vpn) in &dma {
                let pte = s.kernel.proc_mut(pid).unwrap().page_table.get_mut(vpn);
                pte.unwrap().dma_region = true;
            }

            s.on_lock().unwrap();
            let owner_exits = dma.is_empty();
            if owner_exits {
                s.on_exit(a).unwrap();
                let recovery = s.recover().unwrap();
                assert_eq!(recovery.quarantined, 0, "{case}");
            }
            let report = s.on_unlock().unwrap();
            let case = format!("integrity {}, {case}", config.integrity.enabled);
            let eager = if owner_exits { 0 } else { PAGE_SIZE };
            assert_eq!(report.eager_bytes_decrypted, eager, "{case}");
            let mut via_b = vec![0u8; SHARED_DATA.len()];
            s.read(b, 7 * PAGE_SIZE, &mut via_b).unwrap();
            assert_eq!(via_b, SHARED_DATA, "{case}");
            assert_eq!(s.integrity.quarantined_count(), 0, "{case}");
            if !owner_exits {
                let mut via_a = vec![0u8; SHARED_DATA.len()];
                s.read(a, 0, &mut via_a).unwrap();
                assert_eq!(via_a, SHARED_DATA, "{case}");
            }
        }
    }
}

#[test]
fn a_shared_frame_pages_into_one_slot_for_every_sharer() {
    // While locked, a frame shared by two sensitive apps pages into one
    // on-SoC slot that both mappings use: a write through one is seen
    // through the other, and the evictions that follow re-arm both
    // mappings and keep the pager going.
    let mut s = Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(1).with_slot_limit(2),
    )
    .unwrap();
    let a = s.kernel.spawn("mail");
    let b = s.kernel.spawn("calendar");
    s.mark_sensitive(a).unwrap();
    s.mark_sensitive(b).unwrap();
    s.write(a, 0, SHARED_DATA).unwrap();
    for vpn in 1..4u64 {
        s.write(a, vpn * PAGE_SIZE, &[vpn as u8; 64]).unwrap();
    }
    s.kernel.map_shared(a, 0, b, 7).unwrap();
    s.on_lock().unwrap();

    let mut buf = vec![0u8; SHARED_DATA.len()];
    s.read(a, 0, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);
    s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);

    let rewritten = b"rewritten while locked: 51be07";
    s.write(a, 0, rewritten).unwrap();
    let mut via_b = vec![0u8; rewritten.len()];
    s.read(b, 7 * PAGE_SIZE, &mut via_b).unwrap();
    assert_eq!(via_b, rewritten, "b sees a's write");
    assert_eq!(s.pager.resident_count(), 1, "one slot for both sharers");

    // Page a's private pages through both slots: the shared page is
    // evicted, then faulted back in through b.
    for round in 0..2 {
        for vpn in 1..4u64 {
            let mut page = [0u8; 64];
            s.read(a, vpn * PAGE_SIZE, &mut page).unwrap();
            assert_eq!(page, [vpn as u8; 64], "round {round} vpn {vpn}");
        }
        s.read(b, 7 * PAGE_SIZE, &mut via_b).unwrap();
        assert_eq!(via_b, rewritten, "round {round}");
        let mut via_a = vec![0u8; rewritten.len()];
        s.read(a, 0, &mut via_a).unwrap();
        assert_eq!(via_a, rewritten, "round {round}");
    }
    assert!(s.pager.stats.pageouts >= 4, "{:?}", s.pager.stats);

    // b's fault paged the frame in last; a write through a while it is
    // resident must survive the next lock's sweep.
    s.on_unlock().unwrap();
    let unlocked = b"written through a after unlock";
    s.write(a, 0, unlocked).unwrap();
    s.on_lock().unwrap();
    s.on_unlock().unwrap();
    let mut via_b = vec![0u8; unlocked.len()];
    s.read(b, 7 * PAGE_SIZE, &mut via_b).unwrap();
    assert_eq!(via_b, unlocked);
}

#[test]
fn a_resident_shared_page_outlives_the_sharer_that_paged_it_in() {
    // The sharer whose fault paged a shared frame in exits while the
    // page is resident: the other sharer still maps the slot, so the
    // slot stays resident under it and is written back on eviction.
    let mut s = Sentry::new(
        Kernel::new(Soc::tegra3_small()),
        SentryConfig::tegra3_locked_l2(1).with_slot_limit(2),
    )
    .unwrap();
    let a = s.kernel.spawn("mail");
    let b = s.kernel.spawn("calendar");
    s.mark_sensitive(a).unwrap();
    s.mark_sensitive(b).unwrap();
    s.write(a, 0, SHARED_DATA).unwrap();
    for vpn in 0..3u64 {
        s.write(b, vpn * PAGE_SIZE, &[vpn as u8 + 1; 64]).unwrap();
    }
    s.kernel.map_shared(a, 0, b, 7).unwrap();
    s.on_lock().unwrap();

    let mut buf = vec![0u8; SHARED_DATA.len()];
    s.read(a, 0, &mut buf).unwrap();
    s.on_exit(a).unwrap();
    assert_eq!(s.pager.resident_count(), 1, "b keeps the slot");
    s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);

    for round in 0..2 {
        for vpn in 0..3u64 {
            let mut page = [0u8; 64];
            s.read(b, vpn * PAGE_SIZE, &mut page).unwrap();
            assert_eq!(page, [vpn as u8 + 1; 64], "round {round} vpn {vpn}");
        }
        s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(buf, SHARED_DATA, "round {round}");
    }
    s.on_unlock().unwrap();
    s.read(b, 7 * PAGE_SIZE, &mut buf).unwrap();
    assert_eq!(buf, SHARED_DATA);
}
