//! The on-SoC pressure governor: watermarks over scarce on-SoC bytes,
//! load shedding, and the encrypted spill region.
//!
//! Everything Sentry holds on the SoC — the transition journal, the
//! integrity tag store, pager eviction slots, the keystream cache,
//! locked L2 ways — competes for a few hundred KiB. Before this module
//! existed, every consumer treated [`SentryError::OnSocExhausted`] as a
//! hard stop, so a device under many-process pressure failed closed.
//! The governor turns that cliff into a slope:
//!
//! * a [`PressureTracker`] watches the bytes resident against the
//!   effective budget and classifies the store as
//!   [`PressureLevel::Normal`], `High`, or `Critical`;
//! * at **High**, elective load is shed — the background decrypt
//!   sweeper pauses, fault readahead clusters shrink to one page, and
//!   the dm-crypt keystream cache stops growing;
//! * at **Critical**, cold tag-store pages are reclaimed through the
//!   `SpillRegion`: CMAC'd, encrypted under a spill key derived from
//!   the volatile root key, and staged to a dm-crypt-backed region,
//!   leaving only an on-SoC anchor (epoch + tag). The spill region
//!   never holds plaintext or keystream, and a power cut at any spill
//!   step recovers byte-identically.
//!
//! The same tracker carries the occupancy telemetry (bytes resident,
//! high-water mark, level transitions, shed/spill counters) that the
//! fleet harness folds into its per-device columns.

use crate::error::SentryError;
use sentry_crypto::{Direction, PageCipher, PageCipherMode};
use sentry_kernel::block::{BlockDevice, RamDisk, SECTOR_SIZE};
use sentry_kernel::crypto_api::{CipherEngine, CryptoApi, KeyResidency};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_kernel::KernelError;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::{SimClock, Soc};

/// Sectors backing one spilled 4 KiB page.
const SECTORS_PER_PAGE: u64 = PAGE_SIZE / SECTOR_SIZE as u64;

/// Spill-region capacity in page slots. The tag store is bounded by
/// on-SoC capacity (48 iRAM pages at most), so 64 slots can absorb the
/// entire store with room to spare.
pub(crate) const SPILL_SLOTS: u64 = 64;

/// Watermark classification of on-SoC occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Occupancy below the high watermark: no intervention.
    #[default]
    Normal,
    /// Above the high watermark: shed elective load (pause the sweeper,
    /// shrink readahead clusters, cap keystream-cache fill).
    High,
    /// Above the critical watermark: reclaim via encrypted spill before
    /// any allocation is refused.
    Critical,
}

/// High watermark as a percentage of the effective budget.
pub const HIGH_PCT: u64 = 70;

/// Critical watermark as a percentage of the effective budget.
pub const CRITICAL_PCT: u64 = 90;

/// Keystream-cache sector cap applied while pressure is High or
/// Critical (the cache's own capacity applies when Normal).
pub const KEYSTREAM_CAP_HIGH: usize = 16;

/// Cumulative pressure telemetry; the fleet harness merges it across
/// devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// On-SoC bytes currently resident (claimed minus free-listed).
    pub bytes_resident: u64,
    /// High-water mark of `bytes_resident`.
    pub high_water_bytes: u64,
    /// Upward transitions into [`PressureLevel::High`].
    pub transitions_high: u64,
    /// Upward transitions into [`PressureLevel::Critical`].
    pub transitions_critical: u64,
    /// Elective-load shed decisions taken (sweeps paused, clusters
    /// shrunk, keystream fill capped, empty pages reaped).
    pub sheds: u64,
    /// Tag-store pages spilled to the encrypted spill region.
    pub spills: u64,
    /// Spilled pages restored on-SoC on demand.
    pub spill_restores: u64,
    /// On-SoC pages reclaimed (reaped empty or released on teardown).
    pub reclaimed_pages: u64,
    /// Allocations denied by the budget (the typed-error path).
    pub denied: u64,
}

impl PressureStats {
    /// Fold another device's counters into this one (fleet aggregation):
    /// counters add, water marks take the max.
    pub fn merge(&mut self, other: &PressureStats) {
        self.bytes_resident += other.bytes_resident;
        self.high_water_bytes = self.high_water_bytes.max(other.high_water_bytes);
        self.transitions_high += other.transitions_high;
        self.transitions_critical += other.transitions_critical;
        self.sheds += other.sheds;
        self.spills += other.spills;
        self.spill_restores += other.spill_restores;
        self.reclaimed_pages += other.reclaimed_pages;
        self.denied += other.denied;
    }
}

/// Watermark tracker over one store's scarce on-SoC bytes.
#[derive(Debug)]
pub struct PressureTracker {
    /// Physical capacity of the tracked store, in bytes.
    capacity: u64,
    /// Chaos/test knob: a budget tighter than the physical capacity.
    budget_override: Option<u64>,
    level: PressureLevel,
    /// Telemetry.
    pub stats: PressureStats,
}

impl PressureTracker {
    /// A tracker over `capacity` bytes.
    #[must_use]
    pub(crate) fn new(capacity: u64) -> Self {
        PressureTracker {
            capacity,
            budget_override: None,
            level: PressureLevel::Normal,
            stats: PressureStats::default(),
        }
    }

    /// The current watermark level.
    #[must_use]
    pub(crate) fn level(&self) -> PressureLevel {
        self.level
    }

    /// The budget allocations are charged against: the physical
    /// capacity, or the override when one is set (never above the
    /// physical capacity).
    #[must_use]
    pub(crate) fn effective_budget(&self) -> u64 {
        self.budget_override
            .map_or(self.capacity, |b| b.min(self.capacity))
    }

    /// Install (or clear) a budget tighter than the physical capacity.
    /// The fleet's memory-pressure chaos events shrink budgets through
    /// this knob; the caller refreshes occupancy afterwards.
    pub(crate) fn set_budget_override(&mut self, budget: Option<u64>) {
        self.budget_override = budget;
        self.reclassify();
    }

    /// Whether charging `bytes_after` total resident bytes would exceed
    /// the effective budget.
    #[must_use]
    pub(crate) fn would_deny(&self, bytes_after: u64) -> bool {
        bytes_after > self.effective_budget()
    }

    /// Record the current resident byte count and reclassify, counting
    /// upward level transitions.
    pub(crate) fn note_usage(&mut self, bytes_resident: u64) {
        self.stats.bytes_resident = bytes_resident;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(bytes_resident);
        self.reclassify();
    }

    fn reclassify(&mut self) {
        let budget = self.effective_budget().max(1);
        let pct = self.stats.bytes_resident.saturating_mul(100) / budget;
        let level = if pct >= CRITICAL_PCT {
            PressureLevel::Critical
        } else if pct >= HIGH_PCT {
            PressureLevel::High
        } else {
            PressureLevel::Normal
        };
        if level > self.level {
            if self.level < PressureLevel::High && level >= PressureLevel::High {
                self.stats.transitions_high += 1;
            }
            if level == PressureLevel::Critical {
                self.stats.transitions_critical += 1;
            }
        }
        self.level = level;
    }

    /// Count one elective-load shed decision.
    pub(crate) fn note_shed(&mut self) {
        self.stats.sheds += 1;
    }

    /// Count one page spilled to the encrypted region.
    pub(crate) fn note_spill(&mut self) {
        self.stats.spills += 1;
    }

    /// Count one spilled page restored on-SoC.
    pub(crate) fn note_restore(&mut self) {
        self.stats.spill_restores += 1;
    }

    /// Count `pages` on-SoC pages reclaimed.
    pub(crate) fn note_reclaimed(&mut self, pages: u64) {
        self.stats.reclaimed_pages += pages;
    }

    /// Count one budget-denied allocation.
    pub(crate) fn note_denied(&mut self) {
        self.stats.denied += 1;
    }
}

/// The spill region's own AES-CBC engine. Unlike the generic engine it
/// keeps the expanded key schedule off DRAM — the spill key protects
/// bytes *because* they left the SoC, so parking its schedule in kernel
/// heap would hand a cold-boot attacker the region in plaintext. The
/// schedule is modeled as iRAM-resident (it derives from the volatile
/// root key and dies with power), and each sector charges the same
/// per-block arithmetic + on-SoC state-touch cost as AES On SoC.
struct SpillAesEngine {
    cipher: Option<PageCipher>,
}

impl CipherEngine for SpillAesEngine {
    fn name(&self) -> &'static str {
        "aes-cbc-spill"
    }

    fn priority(&self) -> i32 {
        0
    }

    fn key_residency(&self) -> KeyResidency {
        KeyResidency::Iram
    }

    fn set_key(&mut self, _soc: &mut Soc, key: &[u8]) -> Result<(), KernelError> {
        self.cipher = Some(PageCipher::new(key).map_err(KernelError::InvalidKey)?);
        Ok(())
    }

    fn crypt(
        &mut self,
        soc: &mut Soc,
        direction: Direction,
        ivs: &[[u8; 16]],
        data: &mut [u8],
    ) -> Result<(), KernelError> {
        let cipher = self.cipher.as_ref().ok_or(KernelError::NoKeyInstalled {
            engine: self.name(),
        })?;
        cipher.crypt(PageCipherMode::Cbc, direction, ivs, data);
        soc.clock.advance(
            soc.costs
                .aes_ns(data.len() as u64, soc.costs.iram_access_ns),
        );
        Ok(())
    }
}

/// The dm-crypt-backed encrypted spill region.
///
/// A self-contained storage stack (its own [`CryptoApi`] + spill AES
/// engine, [`DmCrypt`] instance, and RAM disk) keyed by a spill key
/// derived from the volatile root key. Pages staged here are encrypted
/// sector-by-sector with per-sector MACs before any byte reaches the
/// device, so a cold-boot dump of the region yields only ciphertext;
/// the key dies with power, exactly like the root key it derives from.
#[derive(Debug)]
pub(crate) struct SpillRegion {
    api: CryptoApi,
    dm: DmCrypt,
    disk: RamDisk,
}

impl SpillRegion {
    /// Build the region under `spill_key` (derived by the integrity
    /// plane from the volatile root key via one block encryption of a
    /// domain-separation constant).
    ///
    /// # Errors
    ///
    /// Propagates cipher registration/key-schedule errors.
    pub(crate) fn new(soc: &mut Soc, spill_key: &[u8; 16]) -> Result<Self, SentryError> {
        let mut api = CryptoApi::new();
        api.register(Box::new(SpillAesEngine { cipher: None }));
        let dm = DmCrypt::with_preferred_cipher();
        dm.set_key(&mut api, soc, spill_key)?;
        Ok(SpillRegion {
            api,
            dm,
            disk: RamDisk::new(SPILL_SLOTS * SECTORS_PER_PAGE),
        })
    }

    /// Encrypt and stage one 4 KiB page into `slot`. The plaintext
    /// never reaches the disk: dm-crypt encrypts and MACs every sector
    /// before the device write.
    ///
    /// # Errors
    ///
    /// Propagates block and cipher errors ([`SentryError::Kernel`]).
    pub(crate) fn stage(
        &mut self,
        soc: &mut Soc,
        slot: u64,
        page: &[u8],
    ) -> Result<(), SentryError> {
        assert_eq!(page.len() as u64, PAGE_SIZE, "whole pages only");
        self.dm.write(
            &mut self.api,
            soc,
            &mut self.disk,
            slot * SECTORS_PER_PAGE,
            page,
        )?;
        Ok(())
    }

    /// Read back and decrypt the page staged in `slot`, verifying every
    /// sector's MAC on the way.
    ///
    /// # Errors
    ///
    /// Propagates block, cipher, and sector-tamper errors.
    pub(crate) fn restore(
        &mut self,
        soc: &mut Soc,
        slot: u64,
        page: &mut [u8],
    ) -> Result<(), SentryError> {
        assert_eq!(page.len() as u64, PAGE_SIZE, "whole pages only");
        self.dm.read(
            &mut self.api,
            soc,
            &mut self.disk,
            slot * SECTORS_PER_PAGE,
            page,
        )?;
        Ok(())
    }

    /// Flip one raw device byte — the active-attacker hook the tamper
    /// tests use to prove a corrupted spill blob refuses to restore.
    ///
    /// # Errors
    ///
    /// Propagates block-device errors.
    pub(crate) fn corrupt_byte(&mut self, offset: u64) -> Result<(), SentryError> {
        let mut scratch = SimClock::new();
        let sector = offset / SECTOR_SIZE as u64;
        let mut buf = vec![0u8; SECTOR_SIZE];
        self.disk.read_sectors(sector, &mut buf, &mut scratch)?;
        buf[(offset % SECTOR_SIZE as u64) as usize] ^= 0x01;
        self.disk.write_sectors(sector, &buf, &mut scratch)?;
        Ok(())
    }

    /// The raw device bytes, as a cold-boot attacker would dump them —
    /// the hygiene scans grep this for plaintext and keystream.
    #[must_use]
    pub(crate) fn raw_bytes(&mut self) -> Vec<u8> {
        let mut scratch = SimClock::new();
        let mut raw = vec![0u8; (SPILL_SLOTS * SECTORS_PER_PAGE) as usize * SECTOR_SIZE];
        self.disk
            .read_sectors(0, &mut raw, &mut scratch)
            .expect("spill region self-read");
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_classify_and_count_transitions() {
        let mut t = PressureTracker::new(100);
        t.note_usage(10);
        assert_eq!(t.level(), PressureLevel::Normal);
        t.note_usage(75);
        assert_eq!(t.level(), PressureLevel::High);
        t.note_usage(95);
        assert_eq!(t.level(), PressureLevel::Critical);
        t.note_usage(10);
        assert_eq!(t.level(), PressureLevel::Normal);
        t.note_usage(95);
        assert_eq!(
            t.stats.transitions_high, 2,
            "normal→critical counts high too"
        );
        assert_eq!(t.stats.transitions_critical, 2);
        assert_eq!(t.stats.high_water_bytes, 95);
    }

    #[test]
    fn budget_override_tightens_denials() {
        let mut t = PressureTracker::new(100);
        assert!(!t.would_deny(100));
        assert!(t.would_deny(101));
        t.set_budget_override(Some(40));
        assert!(t.would_deny(41));
        t.set_budget_override(Some(10_000));
        assert!(!t.would_deny(100), "override clamps to physical capacity");
        assert!(t.would_deny(101));
        t.set_budget_override(None);
        assert!(!t.would_deny(100));
    }

    #[test]
    fn spill_region_roundtrips_and_disk_holds_only_ciphertext() {
        let mut soc = Soc::tegra3_small();
        let mut region = SpillRegion::new(&mut soc, &[7u8; 16]).unwrap();
        let page = vec![0xA5u8; PAGE_SIZE as usize];
        region.stage(&mut soc, 3, &page).unwrap();
        let raw = region.raw_bytes();
        assert!(
            !raw.windows(64).any(|w| w == &page[..64]),
            "plaintext must never reach the spill device"
        );
        let mut back = vec![0u8; PAGE_SIZE as usize];
        region.restore(&mut soc, 3, &mut back).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_water() {
        let mut a = PressureStats {
            bytes_resident: 10,
            high_water_bytes: 50,
            sheds: 1,
            ..PressureStats::default()
        };
        let b = PressureStats {
            bytes_resident: 5,
            high_water_bytes: 80,
            spills: 2,
            ..PressureStats::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_resident, 15);
        assert_eq!(a.high_water_bytes, 80);
        assert_eq!(a.sheds, 1);
        assert_eq!(a.spills, 2);
    }
}
