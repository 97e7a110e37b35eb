//! Teardown paths: releasing pager slots and unlocking cache ways
//! without leaking what they held.

use sentry_core::config::OnSocBackend;
use sentry_core::onsoc::OnSocStore;
use sentry_core::{Sentry, SentryConfig};
use sentry_kernel::Kernel;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::cache::ALL_WAYS;
use sentry_soc::Soc;

#[test]
fn pager_slots_can_be_released_back_to_the_store() {
    let kernel = Kernel::new(Soc::tegra3_small());
    let mut sentry = Sentry::new(kernel, SentryConfig::tegra3_locked_l2(2)).unwrap();
    let pid = sentry.kernel.spawn("app");
    sentry.mark_sensitive(pid).unwrap();
    sentry.write(pid, 0, &[7u8; 8 * 4096]).unwrap();
    sentry.on_lock().unwrap();

    // Background work acquires slots.
    let mut buf = [0u8; 64];
    for vpn in 0..8u64 {
        sentry.read(pid, vpn * PAGE_SIZE, &mut buf).unwrap();
    }
    assert!(sentry.pager.slot_count() > 0);
    assert!(sentry.pager.resident_count() > 0);

    // The next lock's sweep evicts every resident page, which leaves
    // every slot free, and the free slots go back to the store.
    sentry.on_unlock().unwrap();
    sentry.on_lock().unwrap();
    assert_eq!(sentry.pager.resident_count(), 0);
    let Sentry {
        kernel,
        store,
        pager,
        ..
    } = &mut sentry;
    pager.shrink_free_slots(store, kernel).unwrap();
    assert_eq!(pager.slot_count(), 0);

    // All data still intact after unlock.
    sentry.on_unlock().unwrap();
    let mut page = vec![0u8; 8 * 4096];
    sentry.read(pid, 0, &mut page).unwrap();
    assert!(page.iter().all(|&b| b == 7));
}

#[test]
fn unlock_all_erases_contents_and_restores_the_cache() {
    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 3 }, &mut soc);
    let mut pages = Vec::new();
    // Lock all three ways by allocating past two ways' capacity.
    for _ in 0..65 {
        pages.push(store.alloc_page(&mut soc).unwrap());
    }
    assert_eq!(store.locked_mask().count_ones(), 3);
    for &p in &pages {
        soc.mem_write(p, b"WAYSECRET").unwrap();
    }

    store.unlock_all(&mut soc).unwrap();
    assert_eq!(store.locked_mask(), 0);
    assert_eq!(soc.cache.alloc_mask(), ALL_WAYS);
    assert_eq!(soc.cache.flush_mask(), ALL_WAYS);

    // Whatever is readable at those addresses now, it is not the secret
    // (erased with 0xFF before unlocking), and a DMA sweep finds
    // nothing either.
    for &p in &pages {
        let mut buf = [0u8; 9];
        soc.mem_read(p, &mut buf).unwrap();
        assert_ne!(&buf, b"WAYSECRET");
        let dma = soc.dma_read(0, p, 4096).unwrap();
        assert!(!dma.windows(9).any(|w| w == b"WAYSECRET"));
    }
}

#[test]
fn freed_onsoc_pages_are_wiped_before_reuse() {
    let mut soc = Soc::tegra3_small();
    let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
    let page = store.alloc_page(&mut soc).unwrap();
    soc.mem_write(page, b"stale key material").unwrap();
    store.free_page(&mut soc, page).unwrap();
    let again = store.alloc_page(&mut soc).unwrap();
    assert_eq!(again, page, "freed page is recycled");
    let mut buf = [0u8; 18];
    soc.mem_read(again, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 18], "recycled page must be zeroed");
}
