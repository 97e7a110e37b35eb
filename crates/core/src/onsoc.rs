//! The on-SoC storage manager: iRAM pages and locked L2 cache ways.
//!
//! This is §4 of the paper as executable code. Pages handed out by
//! [`OnSocStore`] are physically on the SoC:
//!
//! * **iRAM pages** come from the 192 KiB above the firmware-reserved
//!   region. With either backend the store registers that whole range
//!   with TrustZone as DMA-denied when it is built, because "iRAM can
//!   only be protected from DMA attacks when software in the TrustZone
//!   takes explicit steps to protect it" (§4.4). The locked-L2 backend
//!   hands out no iRAM pages, but the transition journal and the
//!   integrity tag store live there.
//! * **Locked-way pages** are addresses in a reserved DRAM *window* whose
//!   cache lines are pinned in a locked way. Locking follows §4.5's
//!   four-step pseudocode (flush; enable one way; warm the window;
//!   re-enable the remaining ways), and every lock updates the OS-side
//!   flush way-mask so maintenance flushes spare the locked ways. The
//!   DRAM behind the window never receives the pinned lines — DMA and
//!   cold boot see only stale zeroes.

use crate::config::OnSocBackend;
use crate::error::SentryError;
use crate::pressure::{PressureLevel, PressureTracker};
use sentry_kernel::layout::{LOCKED_WINDOW_BASE, LOCKED_WINDOW_SIZE};
use sentry_soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED, IRAM_SIZE, PAGE_SIZE};
use sentry_soc::cache::{ALL_WAYS, WAY_BYTES};
use sentry_soc::trustzone::ProtectedRange;
use sentry_soc::Soc;

/// Pages per 128 KiB locked way.
pub(crate) const PAGES_PER_WAY: u64 = WAY_BYTES as u64 / PAGE_SIZE;

#[derive(Debug)]
struct LockedWay {
    window: u64,
}

/// Allocates 4 KiB on-SoC pages from iRAM or locked L2 ways.
#[derive(Debug)]
pub struct OnSocStore {
    backend: OnSocBackend,
    free: Vec<u64>,
    iram_next: u64,
    locked: Vec<LockedWay>,
    locked_mask: u8,
    /// On-SoC bytes consumers claimed *outside* `alloc_page` (the
    /// locked-L2 backend's fixed iRAM tag pages), charged via
    /// [`OnSocStore::charge_external`]. The locked-L2 journal page is
    /// taken directly and is not charged.
    external_bytes: u64,
    /// The pressure governor over this store's bytes.
    pressure: PressureTracker,
}

impl OnSocStore {
    /// Create a store for `backend` and register the usable iRAM range
    /// as DMA-protected via TrustZone. The locked-L2 backend needs it
    /// too: its journal and tag pages are iRAM.
    pub fn new(backend: OnSocBackend, soc: &mut Soc) -> Self {
        soc.in_secure_world(|soc| {
            let ok = soc.trustzone.protect(ProtectedRange {
                range: IRAM_BASE + IRAM_FIRMWARE_RESERVED..IRAM_BASE + IRAM_SIZE,
                deny_dma: true,
                deny_normal_cpu: false,
            });
            debug_assert!(ok, "secure world protect cannot fail");
        });
        OnSocStore {
            backend,
            free: Vec::new(),
            iram_next: IRAM_BASE + IRAM_FIRMWARE_RESERVED,
            locked: Vec::new(),
            locked_mask: 0,
            external_bytes: 0,
            pressure: PressureTracker::new(Self::capacity_bytes(backend)),
        }
    }

    /// Physical capacity of the scarce bytes this store governs: the
    /// usable iRAM range (which also hosts the journal and, in locked-L2
    /// mode, the fixed tag pages) plus the way budget when cache locking
    /// is configured.
    #[must_use]
    pub(crate) fn capacity_bytes(backend: OnSocBackend) -> u64 {
        let iram = IRAM_SIZE - IRAM_FIRMWARE_RESERVED;
        match backend {
            OnSocBackend::Iram => iram,
            OnSocBackend::LockedL2 { max_ways } => iram + max_ways as u64 * WAY_BYTES as u64,
        }
    }

    /// The configured backend.
    #[must_use]
    pub(crate) fn backend(&self) -> OnSocBackend {
        self.backend
    }

    /// The bitmask of currently locked cache ways.
    #[must_use]
    pub fn locked_mask(&self) -> u8 {
        self.locked_mask
    }

    /// Total on-SoC bytes currently claimed by this store.
    #[must_use]
    pub(crate) fn claimed_bytes(&self) -> u64 {
        match self.backend {
            OnSocBackend::Iram => self.iram_next - (IRAM_BASE + IRAM_FIRMWARE_RESERVED),
            OnSocBackend::LockedL2 { .. } => self.locked.len() as u64 * WAY_BYTES as u64,
        }
    }

    /// On-SoC bytes actually in use: claimed bytes minus the free list,
    /// plus externally charged pages (the locked-L2 fixed tag pages).
    #[must_use]
    pub fn in_use_bytes(&self) -> u64 {
        self.claimed_bytes() - self.free.len() as u64 * PAGE_SIZE + self.external_bytes
    }

    /// The pressure governor's read side.
    #[must_use]
    pub fn pressure(&self) -> &PressureTracker {
        &self.pressure
    }

    /// The pressure governor's write side (budget overrides, shed/spill
    /// counters).
    pub(crate) fn pressure_mut(&mut self) -> &mut PressureTracker {
        &mut self.pressure
    }

    /// Current watermark level.
    #[must_use]
    pub(crate) fn pressure_level(&self) -> PressureLevel {
        self.pressure.level()
    }

    /// Re-derive occupancy and watermark level. Called after every
    /// alloc/free/external charge; also the hook for budget changes.
    pub(crate) fn refresh_pressure(&mut self) {
        let in_use = self.in_use_bytes();
        self.pressure.note_usage(in_use);
    }

    /// Charge one externally claimed on-SoC page (a locked-L2 fixed tag
    /// page) against the budget.
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] when the charge would exceed the
    /// effective budget.
    pub(crate) fn charge_external(&mut self, bytes: u64) -> Result<(), SentryError> {
        if self.pressure.would_deny(self.in_use_bytes() + bytes) {
            self.pressure.note_denied();
            return Err(SentryError::OnSocExhausted);
        }
        self.external_bytes += bytes;
        self.refresh_pressure();
        Ok(())
    }

    /// Return externally charged bytes to the budget.
    pub(crate) fn release_external(&mut self, bytes: u64) {
        self.external_bytes = self.external_bytes.saturating_sub(bytes);
        self.refresh_pressure();
    }

    /// Allocate one on-SoC page, locking a fresh cache way if needed.
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] when iRAM (or the configured way
    /// budget) is spent; SoC errors when cache locking is unavailable.
    pub fn alloc_page(&mut self, soc: &mut Soc) -> Result<u64, SentryError> {
        // Budget gate first: a shrunken budget (fleet chaos, tests)
        // denies growth even while free pages or unlocked ways remain,
        // so relief always comes from freeing, shedding, or spilling.
        if self.pressure.would_deny(self.in_use_bytes() + PAGE_SIZE) {
            self.pressure.note_denied();
            return Err(SentryError::OnSocExhausted);
        }
        if let Some(page) = self.free.pop() {
            self.refresh_pressure();
            return Ok(page);
        }
        let page = match self.backend {
            OnSocBackend::Iram => {
                if self.iram_next + PAGE_SIZE <= IRAM_BASE + IRAM_SIZE {
                    let page = self.iram_next;
                    self.iram_next += PAGE_SIZE;
                    page
                } else {
                    return Err(SentryError::OnSocExhausted);
                }
            }
            OnSocBackend::LockedL2 { max_ways } => {
                if self.locked.len() >= max_ways {
                    return Err(SentryError::OnSocExhausted);
                }
                let way = self.locked.len();
                self.lock_way(soc, way)?;
                // The new way's pages are all free; hand out the first.
                let window = self.locked.last().expect("just locked").window;
                for i in (1..PAGES_PER_WAY).rev() {
                    self.free.push(window + i * PAGE_SIZE);
                }
                window
            }
        };
        self.refresh_pressure();
        Ok(page)
    }

    /// Lock cache way `way` per the §4.5 pseudocode.
    fn lock_way(&mut self, soc: &mut Soc, way: usize) -> Result<(), SentryError> {
        let window = LOCKED_WINDOW_BASE + way as u64 * WAY_BYTES as u64;
        assert!(
            window + WAY_BYTES as u64 <= LOCKED_WINDOW_BASE + LOCKED_WINDOW_SIZE,
            "locked window region exhausted"
        );

        // 1. flush entire cache (the masked flush spares ways locked
        //    earlier).
        soc.cache_maintenance_flush();
        // 2. enable 1 way: all new allocations land in `way`.
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(1 << way))?;
        // 3. warm the way with data (0xFF over the whole window).
        let warm = [0xFFu8; PAGE_SIZE as usize];
        for page in 0..PAGES_PER_WAY {
            soc.mem_write(window + page * PAGE_SIZE, &warm)?;
        }
        // 4. enable the remaining (unlocked) ways; `way` is now
        //    "disabled" — its lines stay resident and serve hits, but no
        //    allocation or eviction touches it.
        self.locked_mask |= 1 << way;
        let open = ALL_WAYS & !self.locked_mask;
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(open))?;
        // ...and exclude it from maintenance flushes (the Linux-side
        // mask change of §4.5).
        soc.set_cache_flush_mask(open);

        self.locked.push(LockedWay { window });
        Ok(())
    }

    /// Return a page to the store, wiping it first.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from the wipe.
    pub fn free_page(&mut self, soc: &mut Soc, page: u64) -> Result<(), SentryError> {
        soc.mem_write(page, &[0u8; PAGE_SIZE as usize])?;
        self.free.push(page);
        self.refresh_pressure();
        Ok(())
    }

    /// Unlock every locked way: erase the sensitive data (write 0xFF, as
    /// in §4.5's unlock pseudocode), then re-enable the ways for
    /// allocation and flushing.
    ///
    /// # Errors
    ///
    /// Propagates SoC errors.
    pub fn unlock_all(&mut self, soc: &mut Soc) -> Result<(), SentryError> {
        let erase = [0xFFu8; PAGE_SIZE as usize];
        for lw in &self.locked {
            for page in 0..PAGES_PER_WAY {
                soc.mem_write(lw.window + page * PAGE_SIZE, &erase)?;
            }
        }
        self.locked.clear();
        self.locked_mask = 0;
        self.free.clear();
        soc.in_secure_world(|soc| soc.set_cache_alloc_mask(ALL_WAYS))?;
        soc.set_cache_flush_mask(ALL_WAYS);
        self.refresh_pressure();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::DRAM_BASE;

    #[test]
    fn iram_pages_are_in_iram_and_dma_protected() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let page = store.alloc_page(&mut soc).unwrap();
        assert!(page >= IRAM_BASE + IRAM_FIRMWARE_RESERVED);
        assert!(page + PAGE_SIZE <= IRAM_BASE + IRAM_SIZE);
        // DMA to the allocated page is denied.
        assert!(soc.dma_read(0, page, 64).is_err());
        // CPU access still works from the normal world.
        soc.mem_write(page, b"key material").unwrap();
    }

    #[test]
    fn iram_capacity_is_48_pages() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let mut pages = Vec::new();
        while let Ok(p) = store.alloc_page(&mut soc) {
            pages.push(p);
        }
        // 256 KiB of iRAM minus the 64 KiB firmware reservation.
        assert_eq!(pages.len(), 48);
        // Freed pages can be re-allocated.
        store.free_page(&mut soc, pages[0]).unwrap();
        assert_eq!(store.alloc_page(&mut soc).unwrap(), pages[0]);
    }

    #[test]
    fn budget_override_denies_and_relief_restores() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let page = store.alloc_page(&mut soc).unwrap();
        assert_eq!(store.in_use_bytes(), PAGE_SIZE);
        store.pressure_mut().set_budget_override(Some(PAGE_SIZE));
        store.refresh_pressure();
        assert!(matches!(
            store.alloc_page(&mut soc),
            Err(SentryError::OnSocExhausted)
        ));
        assert_eq!(store.pressure().stats.denied, 1);
        // Relief: freeing the page brings usage back under budget.
        store.free_page(&mut soc, page).unwrap();
        assert_eq!(store.alloc_page(&mut soc).unwrap(), page);
    }

    #[test]
    fn external_charges_count_against_the_budget() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
        store.charge_external(PAGE_SIZE).unwrap();
        assert_eq!(store.in_use_bytes(), PAGE_SIZE);
        store.pressure_mut().set_budget_override(Some(PAGE_SIZE));
        store.refresh_pressure();
        assert!(matches!(
            store.charge_external(PAGE_SIZE),
            Err(SentryError::OnSocExhausted)
        ));
        store.release_external(PAGE_SIZE);
        assert_eq!(store.in_use_bytes(), 0);
    }

    #[test]
    fn locked_way_pages_pin_in_cache_and_never_reach_dram() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 2 }, &mut soc);
        let page = store.alloc_page(&mut soc).unwrap();
        soc.mem_write(page, b"SECRETKEYMATERIAL").unwrap();

        // The line is resident in way 0.
        assert_eq!(soc.cache.lookup_way(page), Some(0));
        // Thrash the cache with other traffic plus a maintenance flush.
        for i in 0..20_000u64 {
            soc.mem_write(DRAM_BASE + (40 << 20) + i * 64, &[i as u8])
                .unwrap();
        }
        soc.cache_maintenance_flush();
        assert_eq!(soc.cache.lookup_way(page), Some(0), "still pinned");
        let mut buf = [0u8; 17];
        soc.mem_read(page, &mut buf).unwrap();
        assert_eq!(&buf, b"SECRETKEYMATERIAL");
        // Raw DRAM behind the window never saw the secret.
        let mut raw = [0u8; 17];
        soc.dram.read(page, &mut raw);
        assert_ne!(&raw, b"SECRETKEYMATERIAL");
        // And DMA (which bypasses the cache) sees stale bytes too.
        let via_dma = soc.dma_read(0, page, 17).unwrap();
        assert_ne!(via_dma.as_slice(), b"SECRETKEYMATERIAL");
    }

    #[test]
    fn second_way_locks_on_demand_and_budget_is_enforced() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 2 }, &mut soc);
        let mut pages = Vec::new();
        for _ in 0..PAGES_PER_WAY {
            pages.push(store.alloc_page(&mut soc).unwrap());
        }
        assert_eq!(store.locked_mask(), 0b0000_0001);
        pages.push(store.alloc_page(&mut soc).unwrap());
        assert_eq!(store.locked_mask(), 0b0000_0011, "second way locked");
        for _ in 0..PAGES_PER_WAY - 1 {
            pages.push(store.alloc_page(&mut soc).unwrap());
        }
        assert!(matches!(
            store.alloc_page(&mut soc),
            Err(SentryError::OnSocExhausted)
        ));
        // All pages distinct.
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pages.len());
    }

    #[test]
    fn unlock_all_erases_and_restores_masks() {
        let mut soc = Soc::tegra3_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
        let page = store.alloc_page(&mut soc).unwrap();
        soc.mem_write(page, b"volatile-key").unwrap();
        store.unlock_all(&mut soc).unwrap();
        assert_eq!(store.locked_mask(), 0);
        assert_eq!(soc.cache.alloc_mask(), ALL_WAYS);
        // The secret was erased (0xFF) before unlocking; whatever is in
        // cache or DRAM now, it is not the secret.
        let mut buf = [0u8; 12];
        soc.mem_read(page, &mut buf).unwrap();
        assert_ne!(&buf, b"volatile-key");
    }

    #[test]
    fn cache_locking_unavailable_on_nexus() {
        let mut soc = Soc::nexus4_small();
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut soc);
        assert!(matches!(
            store.alloc_page(&mut soc),
            Err(SentryError::Soc(
                sentry_soc::SocError::CacheLockingUnavailable
            ))
        ));
    }
}
