//! Property-based security invariants, exercised with randomized
//! workloads via proptest.
//!
//! The central invariant of the whole system: **while the device is
//! locked, no byte of a sensitive application's plaintext exists in
//! DRAM** — regardless of what the app did before locking or does in the
//! background after.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry::core::{Sentry, SentryConfig};
use sentry::kernel::pagetable::Backing;
use sentry::kernel::Kernel;
use sentry::soc::addr::{DRAM_BASE, IRAM_BASE, IRAM_FIRMWARE_RESERVED, PAGE_SIZE};
use sentry::soc::{Soc, SocError};

/// A recognisable sentinel embedded in every page of app data, so DRAM
/// scans have something unambiguous to look for.
const SENTINEL: &[u8] = b"<<PLAINTEXT-SENTINEL>>";

fn scan_dram_for_sentinel(sentry: &mut Sentry) -> bool {
    sentry.kernel.soc.cache_maintenance_flush();
    sentry
        .kernel
        .soc
        .dram
        .iter_frames()
        .any(|(_, frame)| frame.windows(SENTINEL.len()).any(|w| w == SENTINEL))
}

fn page_with_sentinel(fill: u8) -> Vec<u8> {
    let mut page = vec![fill; PAGE_SIZE as usize];
    page[100..100 + SENTINEL.len()].copy_from_slice(SENTINEL);
    page
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Whatever mix of pages the app populated, locking removes all
    /// plaintext from DRAM and unlocking restores every byte.
    #[test]
    fn lock_always_scrubs_plaintext_from_dram(
        page_fills in vec(0u8..255, 1..24),
        slot_limit in 1usize..8,
    ) {
        let kernel = Kernel::new(Soc::tegra3_small());
        let config = SentryConfig::tegra3_locked_l2(2).with_slot_limit(slot_limit);
        let mut sentry = Sentry::new(kernel, config).unwrap();
        let pid = sentry.kernel.spawn("prop-app");
        sentry.mark_sensitive(pid).unwrap();

        for (vpn, &fill) in page_fills.iter().enumerate() {
            sentry.write(pid, vpn as u64 * PAGE_SIZE, &page_with_sentinel(fill)).unwrap();
        }

        sentry.on_lock().unwrap();
        prop_assert!(!scan_dram_for_sentinel(&mut sentry), "plaintext in DRAM while locked");

        sentry.on_unlock().unwrap();
        for (vpn, &fill) in page_fills.iter().enumerate() {
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            sentry.read(pid, vpn as u64 * PAGE_SIZE, &mut buf).unwrap();
            prop_assert_eq!(&buf, &page_with_sentinel(fill));
        }
    }

    /// Background access patterns — random reads and writes at random
    /// offsets — never leak plaintext to DRAM and never corrupt data.
    #[test]
    fn background_paging_preserves_confidentiality_and_integrity(
        accesses in vec((0u64..12, 0u64..3000, any::<bool>()), 1..40),
        slot_limit in 1usize..6,
    ) {
        let kernel = Kernel::new(Soc::tegra3_small());
        let config = SentryConfig::tegra3_locked_l2(1).with_slot_limit(slot_limit);
        let mut sentry = Sentry::new(kernel, config).unwrap();
        let pid = sentry.kernel.spawn("bg-app");
        sentry.mark_sensitive(pid).unwrap();

        let mut shadow: Vec<Vec<u8>> = (0..12).map(|i| page_with_sentinel(i as u8)).collect();
        for (vpn, page) in shadow.iter().enumerate() {
            sentry.write(pid, vpn as u64 * PAGE_SIZE, page).unwrap();
        }
        sentry.on_lock().unwrap();

        for &(vpn, offset, is_write) in &accesses {
            let addr = vpn * PAGE_SIZE + offset;
            if is_write {
                let data = [vpn as u8, offset as u8, 0xEE];
                sentry.write(pid, addr, &data).unwrap();
                shadow[vpn as usize][offset as usize..offset as usize + 3]
                    .copy_from_slice(&data);
            } else {
                let mut buf = [0u8; 3];
                sentry.read(pid, addr, &mut buf).unwrap();
                prop_assert_eq!(
                    &buf[..],
                    &shadow[vpn as usize][offset as usize..offset as usize + 3]
                );
            }
        }

        prop_assert!(!scan_dram_for_sentinel(&mut sentry), "background work leaked plaintext");

        sentry.on_unlock().unwrap();
        for (vpn, page) in shadow.iter().enumerate() {
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            sentry.read(pid, vpn as u64 * PAGE_SIZE, &mut buf).unwrap();
            prop_assert_eq!(&buf, page, "page {} corrupted", vpn);
        }
    }

    /// DMA can never read what Sentry put on the SoC, no matter where
    /// in physical memory the attacker points the controller.
    #[test]
    fn dma_never_sees_onsoc_plaintext(probe_offsets in vec(0u64..(48u64 << 20), 1..32)) {
        let kernel = Kernel::new(Soc::tegra3_small());
        let mut sentry = Sentry::new(kernel, SentryConfig::tegra3_locked_l2(2)).unwrap();
        let pid = sentry.kernel.spawn("app");
        sentry.mark_sensitive(pid).unwrap();
        sentry.write(pid, 0, &page_with_sentinel(7)).unwrap();
        sentry.on_lock().unwrap();
        // Touch it so the plaintext is resident on-SoC right now.
        let mut b = [0u8; 32];
        sentry.read(pid, 100, &mut b).unwrap();

        for &off in &probe_offsets {
            let addr = DRAM_BASE + (off & !0xFFF);
            if let Ok(bytes) = sentry.kernel.soc.dma_read(0, addr, 4096) {
                prop_assert!(
                    !bytes.windows(SENTINEL.len()).any(|w| w == SENTINEL),
                    "DMA read plaintext at {addr:#x}"
                );
            }
        }
    }
}

#[test]
fn sentinel_is_detectable_when_unprotected() {
    // Meta-test: the scan actually works (otherwise the properties
    // above would pass vacuously).
    let kernel = Kernel::new(Soc::tegra3_small());
    let mut sentry = Sentry::new(kernel, SentryConfig::tegra3_locked_l2(2)).unwrap();
    let pid = sentry.kernel.spawn("unprotected");
    sentry.write(pid, 0, &page_with_sentinel(1)).unwrap();
    assert!(scan_dram_for_sentinel(&mut sentry));
}

/// The locked-L2 backend hands out no iRAM pages, but its transition
/// journal and integrity tag store live in iRAM: a DMA controller must
/// neither read the journal page nor rewrite a page's stored tag.
#[test]
fn locked_l2_iram_is_dma_protected() {
    let kernel = Kernel::new(Soc::tegra3_small());
    let mut sentry = Sentry::new(kernel, SentryConfig::tegra3_locked_l2(2)).unwrap();
    let pid = sentry.kernel.spawn("app");
    sentry.mark_sensitive(pid).unwrap();
    sentry.write(pid, 0, &page_with_sentinel(9)).unwrap();
    sentry.on_lock().unwrap();
    let Backing::Dram(frame) = sentry.kernel.procs[&pid].page_table.get(0).unwrap().backing else {
        panic!("a locked page lives in DRAM");
    };
    let slot = sentry
        .integrity
        .tag_slot_addr(frame)
        .expect("a locked page has a stored tag");
    let soc = &mut sentry.kernel.soc;
    let journal = IRAM_BASE + IRAM_FIRMWARE_RESERVED;
    assert!(matches!(
        soc.dma_read(0, journal, PAGE_SIZE as usize),
        Err(SocError::DmaDenied { .. })
    ));
    assert!(matches!(
        soc.dma_write(0, slot, &[0u8; 8]),
        Err(SocError::DmaDenied { .. })
    ));

    sentry.on_unlock().unwrap();
    let mut back = vec![0u8; PAGE_SIZE as usize];
    sentry.read(pid, 0, &mut back).unwrap();
    assert_eq!(back, page_with_sentinel(9), "the tag store was left intact");
}
