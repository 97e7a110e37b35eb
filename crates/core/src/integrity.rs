//! The authenticated-DRAM integrity plane: per-page CMAC tags in an
//! on-SoC tag store, verified on every decrypt path, with poisoned
//! pages quarantined instead of decrypted.
//!
//! Encrypted DRAM defeats a *passive* memory attacker — one who reads
//! the bus or dumps frozen modules. An *active* attacker can do more:
//! flip ciphertext bits from a rowhammer-style disturbance, splice one
//! sector's ciphertext over another, or re-plant a stale lock cycle's
//! ciphertext after the page was rewritten. None of those recover a
//! secret, but all of them silently corrupt the plaintext Sentry hands
//! back after unlock. The integrity plane closes that gap:
//!
//! * every ciphertext page gets a tag: the first 8 bytes of its page
//!   MAC, a CMAC (SP 800-38B, AES as the primitive — no new cipher
//!   state on-SoC) over a 16-byte context tweak plus the full
//!   ciphertext page (see [`CommitTagger`]). The tweak is the page IV,
//!   which binds `(pid, vpn, version)`, so a stale version's
//!   ciphertext — even with its matching stale tag — fails
//!   verification after a re-encrypt. Under XTS/CTR the page MAC is also
//!   the journal's commit tag, so a transition MACs each page once: the
//!   encrypt's stamp supplies the tag this plane stores, and the MAC
//!   this plane computes before a decrypt is the entry's commit tag;
//! * tags live in an **on-SoC tag store** (iRAM, like the transition
//!   journal): the attacker who can rewrite every DRAM cell still
//!   cannot forge or swap a tag;
//! * every decrypt path verifies the tag over the gathered ciphertext
//!   *before* running the block cipher. A mismatch is retried a bounded
//!   number of times (a transient bus glitch re-reads clean; real
//!   tampering does not) and then the page is **quarantined**: its PTE
//!   stays encrypted, the caller gets a typed
//!   [`SentryError::IntegrityViolation`], and the rest of the system
//!   keeps running.
//!
//! Tags are 64 bits — the truncation SP 800-38B §5.5 permits — which
//! doubles the store's page capacity: 512 tags per 4 KiB page, so even
//! the 48 MB worst-case working set of the app-cycle experiments needs
//! only 24 iRAM pages of tags. A forged page version passes a check with
//! probability 2⁻⁶⁴.

use crate::config::{IntegrityConfig, OnSocBackend};
use crate::error::SentryError;
use crate::onsoc::OnSocStore;
use crate::pressure::{SpillRegion, SPILL_SLOTS};
use crate::txn::{CommitTagger, JournalEntry};
use sentry_crypto::{Aes, PageCipherMode, RetryStats};
use sentry_soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED, IRAM_SIZE, PAGE_SIZE};
use sentry_soc::Soc;
use std::collections::{BTreeMap, HashMap};

/// Bytes per stored tag (a truncated CMAC, SP 800-38B §5.5).
pub(crate) const TAG_BYTES: usize = 8;

/// Extra frame re-reads attempted when a MAC check fails, to
/// disambiguate a transient bus/readout glitch from real tampering
/// before quarantining the page.
pub(crate) const MAX_VERIFY_RETRIES: u32 = 2;

/// Tags per 4 KiB tag-store page.
pub(crate) const TAGS_PER_PAGE: u64 = PAGE_SIZE / TAG_BYTES as u64;

/// Cumulative integrity-plane statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Pages whose MAC verified cleanly before decryption.
    pub verified_pages: u64,
    /// MAC mismatches that survived the re-read retries (each one
    /// quarantined a page).
    pub violations: u64,
    /// Frame re-reads performed to disambiguate transient readout
    /// glitches from tampering, in the unified retry shape: `attempts`
    /// counts re-reads, `recovered` pages healed by one, `exhausted`
    /// pages that still mismatched when the budget ran out.
    pub verify: RetryStats,
    /// Tags written into the on-SoC store.
    pub tags_stored: u64,
    /// Serial CMAC chains charged to the simulated clock (a batch of up
    /// to 16 pages is one chain; see `IntegrityPlane::charge_mac`).
    pub mac_chains: u64,
    /// Tags retired (zeroed and freed) after their page returned to
    /// plaintext.
    pub(crate) tags_retired: u64,
}

/// Assert that a tag batch's buffer holds exactly one page per job. A
/// short buffer would leave the trailing frames untagged (or
/// unverified), and an untagged frame later decrypts unverified.
fn check_pages(jobs: usize, buf: &[u8]) {
    assert_eq!(
        buf.len(),
        jobs * PAGE_SIZE as usize,
        "{jobs} tag jobs need exactly one page each"
    );
}

/// The stored tag of a page MAC: its first [`TAG_BYTES`] bytes.
fn trunc(mac: &[u8; 16]) -> [u8; TAG_BYTES] {
    mac[..TAG_BYTES]
        .try_into()
        .expect("a MAC has 8 leading bytes")
}

/// One quarantined page: everything needed to report the violation on
/// every later touch without re-reading anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedPage {
    /// Owning pid (the first mapping the verifier saw).
    pub pid: u32,
    /// Virtual page number of that mapping.
    pub vpn: u64,
    /// The poisoned DRAM frame.
    pub frame: u64,
    /// Page version of the ciphertext that failed.
    pub(crate) version: u64,
    /// The tag the on-SoC store holds.
    pub(crate) tag_expected: [u8; TAG_BYTES],
    /// The tag recomputed over the frame's current contents.
    pub(crate) tag_got: [u8; TAG_BYTES],
}

/// Outcome of verifying one gathered ciphertext page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerifyOutcome {
    /// The stored tag matched: the ciphertext is authentic.
    Ok,
    /// No tag is stored for this frame (encrypted before the plane was
    /// enabled); the page passes through unverified.
    Untagged,
    /// The tag did not match even after the bounded re-reads: the frame
    /// was tampered with (or decayed) while encrypted.
    Mismatch {
        /// The tag the on-SoC store holds.
        expected: [u8; TAG_BYTES],
        /// The tag recomputed over the frame's current contents.
        got: [u8; TAG_BYTES],
    },
}

/// The on-SoC anchor a spilled tag page leaves behind: the lock epoch
/// it was spilled under and a CMAC over `(epoch, plaintext page)`.
/// Restoration re-derives the tag and refuses a mismatch, so a replayed
/// or cross-slot-spliced spill blob can never re-enter the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpillAnchor {
    /// Lock epoch the page was spilled under.
    pub(crate) epoch: u64,
    /// CMAC-trunc8 over the epoch tweak block plus the plaintext page.
    pub(crate) tag: [u8; TAG_BYTES],
}

/// Where one tag-store page's 512 slots currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TagPageState {
    /// On-SoC at this address.
    Resident(u64),
    /// Encrypted in the spill region; only the anchor remains on-SoC.
    Spilled(SpillAnchor),
    /// Returned to the store (no live slots); re-allocated zeroed on
    /// the next slot access.
    Released,
}

/// One tag-store page: its residency state, live-slot count, and a
/// last-touch ordinal for cold-page selection.
#[derive(Debug)]
struct TagPage {
    state: TagPageState,
    /// Slots on this page currently mapped to a frame.
    live: u32,
    /// Monotonic last-access ordinal; the spill path evicts the
    /// smallest.
    touch: u64,
}

/// The spill key, whose `Debug` never prints the key bytes.
#[derive(Clone, Copy)]
struct SpillKey([u8; 16]);

impl std::fmt::Debug for SpillKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SpillKey(..)")
    }
}

/// The integrity plane: the page MAC, the on-SoC tag store, and the
/// quarantine set.
#[derive(Debug)]
pub struct IntegrityPlane {
    backend: OnSocBackend,
    /// Whether tags are stored and checked.
    enabled: bool,
    /// The page MAC, also the journal's commit tagger; built whether or
    /// not the plane is enabled, since XTS/CTR commit tags need it.
    mac: CommitTagger,
    /// Tag-store pages in slot order. The vector never shrinks, so a
    /// slot's page index (`slot / TAGS_PER_PAGE`) is stable across
    /// spill, release, and re-residency.
    tag_pages: Vec<TagPage>,
    /// DRAM frame → tag slot index.
    slots: HashMap<u64, u32>,
    /// Retired slot indices available for reuse.
    free_slots: Vec<u32>,
    /// Next never-used slot index.
    next_slot: u32,
    /// Locked-L2 backend only: next raw iRAM page to claim for tags
    /// (iRAM is otherwise unused there except for the journal page).
    fixed_next: u64,
    /// Locked-L2 backend only: fixed iRAM tag pages returned by spill
    /// or reap, available for re-claim.
    fixed_free: Vec<u64>,
    /// Spill key derived from the volatile root key
    /// (`E_rootkey("SENTRY-SPILL-KEY")`); `None` when the plane is
    /// disabled.
    spill_key: Option<SpillKey>,
    /// The dm-crypt-backed spill region, created on first spill.
    spill: Option<SpillRegion>,
    /// Current lock epoch, bound into every spill anchor.
    spill_epoch: u64,
    /// Monotonic access clock feeding each page's `touch` ordinal.
    touch_clock: u64,
    /// Poisoned frames, keyed by frame address.
    quarantine: BTreeMap<u64, QuarantinedPage>,
    /// Statistics.
    pub stats: IntegrityStats,
}

impl IntegrityPlane {
    /// Build the plane and the page MAC of `mode` from the expanded
    /// root-key schedule (`Sentry::new` expands the volatile root key
    /// exactly once). The MAC and spill keys derive from the root key by
    /// one block encryption of a fixed domain-separation constant each —
    /// they inherit the root key's lifetime (die with power) without a
    /// second key page on-SoC.
    ///
    /// # Errors
    ///
    /// Propagates AES key-schedule errors for the derived MAC key.
    pub(crate) fn with_root(
        config: IntegrityConfig,
        backend: OnSocBackend,
        mode: PageCipherMode,
        root: &Aes,
    ) -> Result<Self, SentryError> {
        let spill_key = config.enabled.then(|| {
            let mut sk = *b"SENTRY-SPILL-KEY";
            root.encrypt_block(&mut sk);
            SpillKey(sk)
        });
        Ok(IntegrityPlane {
            backend,
            enabled: config.enabled,
            mac: CommitTagger::with_root(mode, root)?,
            tag_pages: Vec::new(),
            slots: HashMap::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            // The journal occupies the first post-firmware iRAM page in
            // locked-L2 mode; tag pages grow from the next one.
            fixed_next: IRAM_BASE + IRAM_FIRMWARE_RESERVED + PAGE_SIZE,
            fixed_free: Vec::new(),
            spill_key,
            spill: None,
            spill_epoch: 0,
            touch_clock: 0,
            quarantine: BTreeMap::new(),
            stats: IntegrityStats::default(),
        })
    }

    /// Whether the plane is active.
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// The page MAC, which also computes the journal's commit tags.
    #[must_use]
    pub(crate) fn tagger(&self) -> &CommitTagger {
        &self.mac
    }

    /// The stored tags of stamped entries, page `i` of `buf` under entry
    /// `i`'s IV (the host side of what [`IntegrityPlane::charge_mac`]
    /// charges).
    fn tags(&self, pages: &[JournalEntry], buf: &[u8]) -> Vec<[u8; TAG_BYTES]> {
        self.mac.page_macs(pages, buf).iter().map(trunc).collect()
    }

    /// Re-stamp `e` from a re-read `page` and return its stored tag.
    fn retag(&self, e: &mut JournalEntry, page: &[u8]) -> [u8; TAG_BYTES] {
        let one = std::slice::from_mut(e);
        self.mac.stamp(one, page);
        self.tags(one, page)[0]
    }

    /// Write `tags[i]` into the slot of `pages[i]`'s frame, allocating
    /// slots as needed.
    fn write_tags(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        pages: &[JournalEntry],
        tags: &[[u8; TAG_BYTES]],
    ) -> Result<(), SentryError> {
        for (e, tag) in pages.iter().zip(tags) {
            let slot = self.slot_for(soc, store, e.frame)?;
            soc.mem_write(self.slot_addr(slot), tag)?;
            self.stats.tags_stored += 1;
        }
        Ok(())
    }

    /// Charge the simulated clock for MACing `pages` pages, inside one
    /// IRQ-disabled critical section. The CBC chains of independent
    /// pages fill the 16 bitslice lanes of the batch AES kernels, so a
    /// batch costs `ceil(pages/16)` serial chains of 257 blocks (256
    /// page blocks + the IV tweak block) each.
    fn charge_mac(&mut self, soc: &mut Soc, pages: usize) {
        if pages == 0 {
            return;
        }
        let chains = pages.div_ceil(16) as u64;
        self.stats.mac_chains += chains;
        let blocks = PAGE_SIZE / 16 + 1;
        let ns = chains * blocks * soc.costs.aes_block_compute_ns;
        let was_enabled = soc.cpu.begin_critical();
        soc.clock.advance(ns);
        soc.cpu.end_critical(was_enabled, ns);
    }

    /// `slot`'s page index into `tag_pages`.
    fn page_index(slot: u32) -> usize {
        (u64::from(slot) / TAGS_PER_PAGE) as usize
    }

    /// The on-SoC address of a currently resident tag page.
    ///
    /// # Panics
    ///
    /// Panics if the page is spilled or released — callers must run
    /// `ensure_resident` first.
    fn page_addr(&self, idx: usize) -> u64 {
        match self.tag_pages[idx].state {
            TagPageState::Resident(addr) => addr,
            ref other => unreachable!("slot access on non-resident tag page: {other:?}"),
        }
    }

    /// The on-SoC address of `slot`'s 8 tag bytes (page must be
    /// resident).
    fn slot_addr(&self, slot: u32) -> u64 {
        self.page_addr(Self::page_index(slot))
            + (u64::from(slot) % TAGS_PER_PAGE) * TAG_BYTES as u64
    }

    /// Allocate one backing page for the tag store: from the shared
    /// store in iRAM mode, or from the fixed iRAM range (re-claiming
    /// spilled/reaped pages first) in locked-L2 mode, where the charge
    /// still counts against the pressure budget.
    fn alloc_backing(&mut self, soc: &mut Soc, store: &mut OnSocStore) -> Result<u64, SentryError> {
        match self.backend {
            OnSocBackend::Iram => store.alloc_page(soc),
            OnSocBackend::LockedL2 { .. } => {
                if let Some(addr) = self.fixed_free.pop() {
                    if let Err(e) = store.charge_external(PAGE_SIZE) {
                        self.fixed_free.push(addr);
                        return Err(e);
                    }
                    soc.mem_write(addr, &[0u8; PAGE_SIZE as usize])?;
                    return Ok(addr);
                }
                if self.fixed_next + PAGE_SIZE > IRAM_BASE + IRAM_SIZE {
                    return Err(SentryError::OnSocExhausted);
                }
                store.charge_external(PAGE_SIZE)?;
                let addr = self.fixed_next;
                self.fixed_next += PAGE_SIZE;
                soc.mem_write(addr, &[0u8; PAGE_SIZE as usize])?;
                Ok(addr)
            }
        }
    }

    /// Return one tag-store backing page, zeroed, to wherever it came
    /// from.
    fn free_backing(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        addr: u64,
    ) -> Result<(), SentryError> {
        match self.backend {
            OnSocBackend::Iram => store.free_page(soc, addr),
            OnSocBackend::LockedL2 { .. } => {
                soc.mem_write(addr, &[0u8; PAGE_SIZE as usize])?;
                self.fixed_free.push(addr);
                store.release_external(PAGE_SIZE);
                Ok(())
            }
        }
    }

    /// Allocate a backing page, reclaiming one (reap an empty page, or
    /// spill the coldest live one) and retrying once when the store is
    /// exhausted — the fail-degraded path at the deepest alloc site.
    fn alloc_backing_or_reclaim(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
    ) -> Result<u64, SentryError> {
        match self.alloc_backing(soc, store) {
            Err(SentryError::OnSocExhausted) => {
                if !self.shed_cold_page(soc, store)? {
                    return Err(SentryError::OnSocExhausted);
                }
                self.alloc_backing(soc, store)
            }
            r => r,
        }
    }

    /// Get the frame's tag slot, allocating one (and growing the tag
    /// store by an on-SoC page — reclaiming a cold one under pressure —
    /// when full) if it has none. The slot's page is resident on
    /// return.
    fn slot_for(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        frame: u64,
    ) -> Result<u32, SentryError> {
        if let Some(&slot) = self.slots.get(&frame) {
            self.ensure_resident(soc, store, Self::page_index(slot))?;
            return Ok(slot);
        }
        let slot = if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            if u64::from(self.next_slot) == self.tag_pages.len() as u64 * TAGS_PER_PAGE {
                let addr = self.alloc_backing_or_reclaim(soc, store)?;
                self.touch_clock += 1;
                self.tag_pages.push(TagPage {
                    state: TagPageState::Resident(addr),
                    live: 0,
                    touch: self.touch_clock,
                });
            }
            let slot = self.next_slot;
            self.next_slot += 1;
            slot
        };
        let idx = Self::page_index(slot);
        if let Err(e) = self.ensure_resident(soc, store, idx) {
            // Hand the slot back so a denied residency never leaks it.
            self.free_slots.push(slot);
            return Err(e);
        }
        self.slots.insert(frame, slot);
        self.tag_pages[idx].live += 1;
        Ok(slot)
    }

    /// The 16-byte tweak block bound into a spill anchor's CMAC: a
    /// domain-separation constant with the lock epoch folded in, so a
    /// spill blob replayed across epochs fails restoration.
    fn spill_tweak(epoch: u64) -> [u8; 16] {
        let mut t = *b"SENTRY-SPILL-PG\0";
        for (i, b) in epoch.to_le_bytes().iter().enumerate() {
            t[8 + i] ^= b;
        }
        t
    }

    /// The spill region, created lazily on first use (its own dm-crypt
    /// stack under the derived spill key).
    fn spill_region(&mut self, soc: &mut Soc) -> Result<&mut SpillRegion, SentryError> {
        if self.spill.is_none() {
            let key = self.spill_key.ok_or(SentryError::OnSocExhausted)?;
            self.spill = Some(SpillRegion::new(soc, &key.0)?);
        }
        Ok(self.spill.as_mut().expect("just created"))
    }

    /// Record the current lock epoch for spill-anchor binding.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.spill_epoch = epoch;
    }

    /// Tag pages currently spilled to the encrypted region.
    #[must_use]
    pub fn spilled_pages(&self) -> usize {
        self.tag_pages
            .iter()
            .filter(|p| matches!(p.state, TagPageState::Spilled(_)))
            .count()
    }

    /// Raw spill-region device bytes for cold-boot hygiene scans, if a
    /// spill has ever happened.
    pub fn spill_region_raw(&mut self) -> Option<Vec<u8>> {
        self.spill.as_mut().map(SpillRegion::raw_bytes)
    }

    /// Flip one raw byte of the spill device — the tamper-matrix hook
    /// proving a corrupted blob surfaces a typed violation on restore.
    ///
    /// # Errors
    ///
    /// Propagates block-device errors; `OnSocExhausted` when no spill
    /// region exists yet.
    pub fn corrupt_spill_byte(&mut self, offset: u64) -> Result<(), SentryError> {
        self.spill
            .as_mut()
            .ok_or(SentryError::OnSocExhausted)?
            .corrupt_byte(offset)
    }

    /// Make tag page `idx` resident, re-allocating a released page or
    /// restoring (and MAC-verifying) a spilled one, and bump its touch
    /// ordinal.
    fn ensure_resident(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        idx: usize,
    ) -> Result<u64, SentryError> {
        self.touch_clock += 1;
        self.tag_pages[idx].touch = self.touch_clock;
        match self.tag_pages[idx].state {
            TagPageState::Resident(addr) => Ok(addr),
            TagPageState::Released => {
                let addr = self.alloc_backing_or_reclaim(soc, store)?;
                self.tag_pages[idx].state = TagPageState::Resident(addr);
                Ok(addr)
            }
            TagPageState::Spilled(anchor) => {
                let addr = self.alloc_backing_or_reclaim(soc, store)?;
                match self.restore_into(soc, idx, anchor, addr) {
                    Ok(()) => {
                        self.tag_pages[idx].state = TagPageState::Resident(addr);
                        store.pressure_mut().note_restore();
                        Ok(addr)
                    }
                    Err(e) => {
                        // Unwind: the page stays spilled (the anchor and
                        // ciphertext are untouched) and the fresh page
                        // goes straight back, so a cut mid-restore
                        // neither tears state nor leaks on-SoC space.
                        let _ = self.free_backing(soc, store, addr);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Read one spilled page back through dm-crypt into `addr`,
    /// verifying the anchor CMAC over the recovered plaintext.
    fn restore_into(
        &mut self,
        soc: &mut Soc,
        idx: usize,
        anchor: SpillAnchor,
        addr: u64,
    ) -> Result<(), SentryError> {
        soc.failpoint("spill.restore")?;
        let mut plain = vec![0u8; PAGE_SIZE as usize];
        self.spill_region(soc)?
            .restore(soc, idx as u64, &mut plain)?;
        let tweak = Self::spill_tweak(anchor.epoch);
        self.charge_mac(soc, 1);
        let got = trunc(&self.mac.mac(&tweak, &plain));
        if got != anchor.tag {
            return Err(SentryError::IntegrityViolation {
                pid: 0,
                vpn: idx as u64,
                tag_expected: anchor.tag,
                tag_got: got,
            });
        }
        soc.mem_write(addr, &plain)?;
        for b in plain.iter_mut() {
            *b = 0;
        }
        Ok(())
    }

    /// Encrypt-and-spill tag page `idx`: CMAC the plaintext under the
    /// epoch tweak, stage the dm-crypt ciphertext, then atomically swap
    /// the on-SoC page for the anchor. A power cut at either failpoint
    /// leaves the page resident and the store consistent.
    fn spill_page(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        idx: usize,
    ) -> Result<(), SentryError> {
        let addr = self.page_addr(idx);
        let mut plain = vec![0u8; PAGE_SIZE as usize];
        soc.mem_read(addr, &mut plain)?;
        let tweak = Self::spill_tweak(self.spill_epoch);
        self.charge_mac(soc, 1);
        let tag = trunc(&self.mac.mac(&tweak, &plain));
        // Kill point before any byte moves: nothing has changed yet.
        soc.failpoint("spill.stage")?;
        self.spill_region(soc)?.stage(soc, idx as u64, &plain)?;
        // Kill point after staging: the region holds ciphertext nobody
        // references yet; the page is still resident — a retry simply
        // overwrites the orphan blob.
        soc.failpoint("spill.anchor")?;
        // Commit: anchor first, then free. A failure freeing leaks the
        // page (counted) but never tears state.
        let epoch = self.spill_epoch;
        self.tag_pages[idx].state = TagPageState::Spilled(SpillAnchor { epoch, tag });
        for b in plain.iter_mut() {
            *b = 0;
        }
        self.free_backing(soc, store, addr)?;
        store.pressure_mut().note_spill();
        Ok(())
    }

    /// Reclaim one on-SoC tag page if possible: reap an empty resident
    /// page (free), else spill the coldest live one (encrypted).
    /// Returns whether a page was reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates spill I/O and SoC errors.
    pub(crate) fn shed_cold_page(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
    ) -> Result<bool, SentryError> {
        if self.reap_one(soc, store)? {
            return Ok(true);
        }
        if self.spill_key.is_none() {
            return Ok(false);
        }
        let coldest = self
            .tag_pages
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                matches!(p.state, TagPageState::Resident(_)) && (*i as u64) < SPILL_SLOTS
            })
            .min_by_key(|(_, p)| p.touch)
            .map(|(i, _)| i);
        match coldest {
            Some(idx) => {
                self.spill_page(soc, store, idx)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Reap one empty (no live slots) resident page back to the store.
    fn reap_one(&mut self, soc: &mut Soc, store: &mut OnSocStore) -> Result<bool, SentryError> {
        let Some(idx) = self
            .tag_pages
            .iter()
            .position(|p| p.live == 0 && matches!(p.state, TagPageState::Resident(_)))
        else {
            return Ok(false);
        };
        let addr = self.page_addr(idx);
        self.tag_pages[idx].state = TagPageState::Released;
        self.free_backing(soc, store, addr)?;
        store.pressure_mut().note_reclaimed(1);
        Ok(true)
    }

    /// Reap every empty tag page: resident ones go back to the store,
    /// spilled ones just drop their anchor (the orphan ciphertext is
    /// unreachable and key-bound). Returns on-SoC pages reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates SoC errors from the page wipes.
    pub(crate) fn reap_empty(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
    ) -> Result<u64, SentryError> {
        let mut reclaimed = 0;
        while self.reap_one(soc, store)? {
            reclaimed += 1;
        }
        for p in &mut self.tag_pages {
            if p.live == 0 && matches!(p.state, TagPageState::Spilled(_)) {
                p.state = TagPageState::Released;
            }
        }
        Ok(reclaimed)
    }

    /// Release everything the plane holds for a set of frames (process
    /// teardown): retire their tags, drop their quarantine entries, and
    /// reap any tag pages that emptied out. Returns on-SoC pages
    /// reclaimed — the leak this closes used to grow every long soak
    /// into `OnSocExhausted`.
    ///
    /// # Errors
    ///
    /// Propagates SoC errors.
    pub(crate) fn release_frames(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        frames: &[u64],
    ) -> Result<u64, SentryError> {
        for &frame in frames {
            self.retire_tag(soc, frame)?;
            self.quarantine.remove(&frame);
        }
        self.reap_empty(soc, store)
    }

    /// Store the tags of freshly encrypted pages, keyed by the frames
    /// they publish to. `buf` holds the ciphertext pages in entry order,
    /// exactly one per entry, and each entry carries its commit tag
    /// (see [`CommitTagger::stamp`]): under XTS/CTR that is the page MAC,
    /// so nothing is recomputed; under CBC the batch's MACs come from
    /// one batch CMAC. Slot allocation and tag writes then run page by
    /// page. Idempotent: re-storing a frame's tag overwrites it in
    /// place, so recovery can replay an interrupted encrypt without
    /// leaking slots.
    ///
    /// Callers run this **before** publishing any ciphertext to DRAM: a
    /// frame whose ciphertext is visible in DRAM always has its tag
    /// already on-SoC, so there is no window in which tampering could
    /// go unrecorded.
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] when the tag store cannot grow.
    ///
    /// # Panics
    ///
    /// Panics unless `buf` holds exactly one page per entry.
    pub(crate) fn store_tags(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        pages: &[JournalEntry],
        buf: &[u8],
    ) -> Result<(), SentryError> {
        check_pages(pages.len(), buf);
        if !self.enabled || pages.is_empty() {
            return Ok(());
        }
        self.charge_mac(soc, pages.len());
        let tags = self.tags(pages, buf);
        self.write_tags(soc, store, pages, &tags)
    }

    /// Verify a batch of gathered ciphertext pages (exactly one per
    /// entry, in entry order, each read from its entry's `src`) against
    /// the tag store, before any of them is decrypted: stamp each entry
    /// with the commit tag of the bytes it verifies (so under XTS/CTR
    /// the MAC computed here is the entry's commit tag too), then
    /// `IntegrityPlane::store_and_verify` with nothing to store. A
    /// disabled plane stamps nothing.
    ///
    /// # Errors
    ///
    /// Propagates SoC read errors.
    ///
    /// # Panics
    ///
    /// Panics unless `buf` holds exactly one page per entry.
    pub(crate) fn verify_frames(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        pages: &mut [JournalEntry],
        buf: &mut [u8],
    ) -> Result<Vec<VerifyOutcome>, SentryError> {
        check_pages(pages.len(), buf);
        if self.enabled {
            self.mac.stamp(pages, buf);
        }
        Ok(self.store_and_verify(soc, store, pages, 0, buf)?.1)
    }

    /// One charged MAC chain over freshly encrypted pages and gathered
    /// ciphertext pages, all stamped (see [`CommitTagger::stamp`]): store
    /// the tags of the first `stores` entries and verify the rest. `buf`
    /// holds one page per entry, in entry order. Every page's MAC comes
    /// from one [`CommitTagger::page_macs`] call: under XTS/CTR the
    /// stamps, under CBC one lane loop over all the pages. The stored
    /// tags land before any of those pages publishes. Returns the stored
    /// tags and one outcome per verified page. An empty batch returns
    /// before any MAC.
    ///
    /// A locked page fault that evicts runs this once, so the victim's
    /// tag and the incoming page's check share one charged chain and, on
    /// the host, one two-chain MAC loop.
    ///
    /// Each verified page's tag-store read and compare run in entry
    /// order, and a retry re-MACs only its own page. On a mismatch the
    /// frame is re-read (into the caller's buffer — a transient readout
    /// glitch heals here, and the entry is re-stamped) up to
    /// [`MAX_VERIFY_RETRIES`] times; a page that still fails reports
    /// [`VerifyOutcome::Mismatch`] and the caller quarantines it.
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] when the tag store cannot grow;
    /// SoC read errors.
    ///
    /// # Panics
    ///
    /// Panics unless `buf` holds exactly one page per entry.
    pub(crate) fn store_and_verify(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        pages: &mut [JournalEntry],
        stores: usize,
        buf: &mut [u8],
    ) -> Result<(Vec<[u8; TAG_BYTES]>, Vec<VerifyOutcome>), SentryError> {
        check_pages(pages.len(), buf);
        if !self.enabled || pages.is_empty() {
            return Ok((Vec::new(), vec![VerifyOutcome::Ok; pages.len() - stores]));
        }
        self.charge_mac(soc, pages.len());
        let mut tags = self.tags(pages, buf);
        let (stored, verifies) = pages.split_at_mut(stores);
        self.write_tags(soc, store, stored, &tags[..stores])?;
        let gathered = &mut buf[stores * PAGE_SIZE as usize..];
        let mut outcomes = Vec::with_capacity(verifies.len());
        for ((e, chunk), &first) in verifies
            .iter_mut()
            .zip(gathered.chunks_exact_mut(PAGE_SIZE as usize))
            .zip(&tags[stores..])
        {
            let Some(&slot) = self.slots.get(&e.src) else {
                outcomes.push(VerifyOutcome::Untagged);
                continue;
            };
            self.ensure_resident(soc, store, Self::page_index(slot))?;
            let mut expected = [0u8; TAG_BYTES];
            soc.mem_read(self.slot_addr(slot), &mut expected)?;
            let mut got = first;
            if got != expected {
                for _ in 0..MAX_VERIFY_RETRIES {
                    self.stats.verify.attempts += 1;
                    soc.mem_read(e.src, chunk)?;
                    self.charge_mac(soc, 1);
                    got = self.retag(e, chunk);
                    if got == expected {
                        self.stats.verify.recovered += 1;
                        break;
                    }
                }
                if got != expected {
                    self.stats.verify.exhausted += 1;
                }
            }
            if got == expected {
                self.stats.verified_pages += 1;
                outcomes.push(VerifyOutcome::Ok);
            } else {
                outcomes.push(VerifyOutcome::Mismatch { expected, got });
            }
        }
        tags.truncate(stores);
        Ok((tags, outcomes))
    }

    /// Read-back check of a frame just published from `image` under
    /// `iv`: the frame must hold exactly `image`, and its tag slot
    /// exactly `tag`, the tag just stored over `image`. Equal bytes
    /// under the same IV have an equal MAC, so comparing bytes is at
    /// least as strong as re-MACing the frame, and it costs no MAC
    /// chain. An active attacker racing the publish (or a failing DRAM
    /// cell) is caught here, not at the next unlock. A mismatch re-reads
    /// the frame up to [`MAX_VERIFY_RETRIES`] times, and one that
    /// persists computes the frame's tag for the report. The caller
    /// quarantines it.
    ///
    /// # Errors
    ///
    /// Propagates SoC read errors.
    pub(crate) fn verify_readback(
        &mut self,
        soc: &mut Soc,
        store: &mut OnSocStore,
        (frame, iv): (u64, [u8; 16]),
        tag: [u8; TAG_BYTES],
        image: &[u8],
    ) -> Result<VerifyOutcome, SentryError> {
        let mut readback = [0u8; PAGE_SIZE as usize];
        soc.mem_read(frame, &mut readback)?;
        let Some(&slot) = self.slots.get(&frame) else {
            return Ok(VerifyOutcome::Untagged);
        };
        self.ensure_resident(soc, store, Self::page_index(slot))?;
        let mut stored = [0u8; TAG_BYTES];
        soc.mem_read(self.slot_addr(slot), &mut stored)?;
        let mut intact = stored == tag && readback == *image;
        if !intact {
            for _ in 0..MAX_VERIFY_RETRIES {
                self.stats.verify.attempts += 1;
                soc.mem_read(frame, &mut readback)?;
                intact = stored == tag && readback == *image;
                if intact {
                    self.stats.verify.recovered += 1;
                    break;
                }
            }
            if !intact {
                self.stats.verify.exhausted += 1;
            }
        }
        if intact {
            self.stats.verified_pages += 1;
            return Ok(VerifyOutcome::Ok);
        }
        self.charge_mac(soc, 1);
        Ok(VerifyOutcome::Mismatch {
            expected: stored,
            got: trunc(&self.mac.mac(&iv, &readback)),
        })
    }

    /// Quarantine a poisoned page and return the typed violation error
    /// the caller propagates. The PTE is left untouched (still
    /// encrypted) by design — that is the caller's invariant — so the
    /// page can never reach plaintext, and every later touch reports
    /// the same violation via [`IntegrityPlane::violation_for`].
    pub(crate) fn quarantine(&mut self, q: QuarantinedPage) -> SentryError {
        if !self.quarantine.contains_key(&q.frame) {
            self.stats.violations += 1;
        }
        let err = SentryError::IntegrityViolation {
            pid: q.pid,
            vpn: q.vpn,
            tag_expected: q.tag_expected,
            tag_got: q.tag_got,
        };
        self.quarantine.insert(q.frame, q);
        err
    }

    /// Whether `frame` is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, frame: u64) -> bool {
        self.quarantine.contains_key(&frame)
    }

    /// Drop a frame's quarantine entry. Only recovery calls this, after
    /// rolling a poisoned frame forward from a still-intact source (an
    /// on-SoC eviction slot): the fresh ciphertext *and its fresh tag*
    /// fully replace the tampered image, so the frame is healed.
    /// Returns whether an entry was removed.
    pub(crate) fn release(&mut self, frame: u64) -> bool {
        self.quarantine.remove(&frame).is_some()
    }

    /// The stored violation for a quarantined frame, if any.
    #[must_use]
    pub(crate) fn violation_for(&self, frame: u64) -> Option<SentryError> {
        self.quarantine
            .get(&frame)
            .map(|q| SentryError::IntegrityViolation {
                pid: q.pid,
                vpn: q.vpn,
                tag_expected: q.tag_expected,
                tag_got: q.tag_got,
            })
    }

    /// All quarantined pages, in frame order.
    #[must_use]
    pub fn quarantined(&self) -> Vec<QuarantinedPage> {
        self.quarantine.values().copied().collect()
    }

    /// Number of quarantined pages.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantine.len()
    }

    /// Retire a frame's tag after its page returned to plaintext: the
    /// slot is zeroed on-SoC (when its page is resident — a spilled
    /// page's slot is simply unmapped, since any reuse overwrites it
    /// before any read) and recycled. No-op for untagged frames.
    ///
    /// # Errors
    ///
    /// Propagates SoC write errors.
    pub(crate) fn retire_tag(&mut self, soc: &mut Soc, frame: u64) -> Result<(), SentryError> {
        if let Some(slot) = self.slots.remove(&frame) {
            let idx = Self::page_index(slot);
            if matches!(self.tag_pages[idx].state, TagPageState::Resident(_)) {
                soc.mem_write(self.slot_addr(slot), &[0u8; TAG_BYTES])?;
            }
            self.tag_pages[idx].live = self.tag_pages[idx].live.saturating_sub(1);
            self.free_slots.push(slot);
            self.stats.tags_retired += 1;
        }
        Ok(())
    }

    /// Whether a tag is currently stored for `frame`.
    #[must_use]
    pub(crate) fn has_tag(&self, frame: u64) -> bool {
        self.slots.contains_key(&frame)
    }

    /// The on-SoC address of `frame`'s stored tag, if one exists and
    /// its page is currently resident. Exposed so the tamper tests can
    /// flip bits *inside the tag store itself* and prove the mismatch
    /// is caught from either side.
    #[must_use]
    pub fn tag_slot_addr(&self, frame: u64) -> Option<u64> {
        self.slots.get(&frame).and_then(|&slot| {
            match self.tag_pages[Self::page_index(slot)].state {
                TagPageState::Resident(_) => Some(self.slot_addr(slot)),
                _ => None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::{mac_audit, page_iv, IvSource};
    use sentry_soc::{Platform, SocConfig};

    fn root(byte: u8) -> Aes {
        Aes::new(&[byte; 16]).unwrap()
    }

    /// Tag pages currently resident on-SoC.
    fn resident_tag_pages(plane: &IntegrityPlane) -> usize {
        plane
            .tag_pages
            .iter()
            .filter(|p| matches!(p.state, TagPageState::Resident(_)))
            .count()
    }

    fn soc() -> Soc {
        Soc::new(SocConfig::new(Platform::Tegra3).with_dram_size(8 << 20))
    }

    fn plane_and_store(backend: OnSocBackend) -> (IntegrityPlane, OnSocStore, Soc) {
        plane_in_mode(backend, PageCipherMode::Xts)
    }

    fn plane_in_mode(
        backend: OnSocBackend,
        mode: PageCipherMode,
    ) -> (IntegrityPlane, OnSocStore, Soc) {
        let mut soc = soc();
        let store = OnSocStore::new(backend, &mut soc);
        let plane =
            IntegrityPlane::with_root(IntegrityConfig::default(), backend, mode, &root(7)).unwrap();
        (plane, store, soc)
    }

    /// In-place page plans at `(frame, iv)`.
    fn entries(jobs: &[(u64, [u8; 16])]) -> Vec<JournalEntry> {
        jobs.iter()
            .map(|&(frame, iv)| JournalEntry::new(1, 0, frame, frame, iv, 1))
            .collect()
    }

    /// Stamp freshly encrypted pages and store their tags, as a lock's
    /// crypt step and commit do.
    fn store_tags(
        plane: &mut IntegrityPlane,
        soc: &mut Soc,
        store: &mut OnSocStore,
        jobs: &[(u64, [u8; 16])],
        buf: &[u8],
    ) {
        let mut pages = entries(jobs);
        plane.tagger().stamp(&mut pages, buf);
        plane.store_tags(soc, store, &pages, buf).unwrap();
    }

    fn verify(
        plane: &mut IntegrityPlane,
        soc: &mut Soc,
        store: &mut OnSocStore,
        jobs: &[(u64, [u8; 16])],
        buf: &mut [u8],
    ) -> Vec<VerifyOutcome> {
        plane
            .verify_frames(soc, store, &mut entries(jobs), buf)
            .unwrap()
    }

    fn dram_frame(soc: &Soc, index: u64) -> u64 {
        let _ = soc;
        sentry_soc::addr::DRAM_BASE + index * PAGE_SIZE
    }

    #[test]
    fn store_verify_retire_roundtrip() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let frame = dram_frame(&soc, 3);
        let iv = [9u8; 16];
        let mut page = vec![0xABu8; PAGE_SIZE as usize];
        soc.mem_write(frame, &page).unwrap();
        store_tags(&mut plane, &mut soc, &mut store, &[(frame, iv)], &page);
        assert!(plane.has_tag(frame));
        assert_eq!(
            verify(&mut plane, &mut soc, &mut store, &[(frame, iv)], &mut page)[0],
            VerifyOutcome::Ok
        );
        plane.retire_tag(&mut soc, frame).unwrap();
        assert!(!plane.has_tag(frame));
        assert_eq!(plane.stats.tags_stored, 1);
        assert_eq!(plane.stats.tags_retired, 1);
    }

    #[test]
    fn tampered_page_fails_and_quarantines() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let frame = dram_frame(&soc, 1);
        let iv = [3u8; 16];
        let mut page = vec![0x5Au8; PAGE_SIZE as usize];
        soc.mem_write(frame, &page).unwrap();
        store_tags(&mut plane, &mut soc, &mut store, &[(frame, iv)], &page);
        // Tamper one bit in DRAM; re-reads keep seeing the tampered
        // byte, so the bounded retries cannot heal it.
        page[100] ^= 0x04;
        soc.mem_write(frame, &page).unwrap();
        let outcome = verify(&mut plane, &mut soc, &mut store, &[(frame, iv)], &mut page)[0];
        let VerifyOutcome::Mismatch { expected, got } = outcome else {
            panic!("tamper not detected: {outcome:?}");
        };
        let err = plane.quarantine(QuarantinedPage {
            pid: 1,
            vpn: 0,
            frame,
            version: 1,
            tag_expected: expected,
            tag_got: got,
        });
        assert!(err.is_integrity_violation());
        assert!(plane.is_quarantined(frame));
        assert_eq!(plane.quarantined_count(), 1);
        assert_eq!(plane.stats.violations, 1);
        assert!(plane.stats.verify.attempts >= 1);
        assert_eq!(plane.stats.verify.exhausted, 1, "tamper never heals");
        assert!(plane.violation_for(frame).is_some());
    }

    #[test]
    fn stale_epoch_iv_fails_even_with_identical_ciphertext() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let frame = dram_frame(&soc, 2);
        let mut page = vec![0xEEu8; PAGE_SIZE as usize];
        soc.mem_write(frame, &page).unwrap();
        let pte = sentry_kernel::pagetable::Pte::resident(frame);
        let (old_iv, _) = page_iv((1, 0), IvSource::Encrypt(&pte, 1));
        let (new_iv, _) = page_iv((1, 0), IvSource::Encrypt(&pte, 2));
        store_tags(&mut plane, &mut soc, &mut store, &[(frame, new_iv)], &page);
        // Same bytes, stale version in the tweak: the tag cannot match.
        assert!(matches!(
            verify(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frame, old_iv)],
                &mut page
            )[0],
            VerifyOutcome::Mismatch { .. }
        ));
    }

    #[test]
    fn tag_store_grows_and_recycles_slots_iram() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let page = vec![1u8; PAGE_SIZE as usize];
        for i in 0..(TAGS_PER_PAGE + 2) {
            let frame = dram_frame(&soc, i);
            soc.mem_write(frame, &page).unwrap();
            store_tags(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frame, [0u8; 16])],
                &page,
            );
        }
        assert_eq!(plane.tag_pages.len(), 2, "513th tag needs a second page");
        let f0 = dram_frame(&soc, 0);
        plane.retire_tag(&mut soc, f0).unwrap();
        let fresh = dram_frame(&soc, 999);
        soc.mem_write(fresh, &page).unwrap();
        store_tags(
            &mut plane,
            &mut soc,
            &mut store,
            &[(fresh, [0u8; 16])],
            &page,
        );
        assert_eq!(plane.tag_pages.len(), 2, "retired slot was recycled");
    }

    #[test]
    fn locked_l2_backend_places_tags_in_iram_after_the_journal() {
        let backend = OnSocBackend::LockedL2 { max_ways: 2 };
        let (mut plane, mut store, mut soc) = plane_and_store(backend);
        let frame = dram_frame(&soc, 0);
        let page = vec![2u8; PAGE_SIZE as usize];
        soc.mem_write(frame, &page).unwrap();
        store_tags(
            &mut plane,
            &mut soc,
            &mut store,
            &[(frame, [0u8; 16])],
            &page,
        );
        let addr = plane.tag_slot_addr(frame).unwrap();
        assert!(addr >= IRAM_BASE + IRAM_FIRMWARE_RESERVED + PAGE_SIZE);
        assert!(addr < IRAM_BASE + IRAM_SIZE);
    }

    #[test]
    fn cold_tag_pages_spill_and_restore_byte_identically() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let page = vec![1u8; PAGE_SIZE as usize];
        let mut frames = Vec::new();
        for i in 0..(TAGS_PER_PAGE + 2) {
            let frame = dram_frame(&soc, i);
            soc.mem_write(frame, &page).unwrap();
            store_tags(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frame, [0u8; 16])],
                &page,
            );
            frames.push(frame);
        }
        assert_eq!(resident_tag_pages(&plane), 2);
        let before = store.in_use_bytes();
        assert!(plane.shed_cold_page(&mut soc, &mut store).unwrap());
        assert_eq!(plane.spilled_pages(), 1);
        assert_eq!(store.in_use_bytes(), before - PAGE_SIZE, "page returned");
        // Touching a tag on the spilled page restores and verifies it.
        let mut buf = page.clone();
        assert_eq!(
            verify(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frames[0], [0u8; 16])],
                &mut buf
            )[0],
            VerifyOutcome::Ok
        );
        assert_eq!(plane.spilled_pages(), 0);
        assert_eq!(store.pressure().stats.spills, 1);
        assert_eq!(store.pressure().stats.spill_restores, 1);
    }

    #[test]
    fn release_frames_reaps_emptied_tag_pages() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let page = vec![3u8; PAGE_SIZE as usize];
        let mut frames = Vec::new();
        for i in 0..(TAGS_PER_PAGE + 2) {
            let frame = dram_frame(&soc, i);
            soc.mem_write(frame, &page).unwrap();
            store_tags(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frame, [0u8; 16])],
                &page,
            );
            frames.push(frame);
        }
        let held = store.in_use_bytes();
        assert_eq!(resident_tag_pages(&plane), 2);
        let reclaimed = plane.release_frames(&mut soc, &mut store, &frames).unwrap();
        assert_eq!(reclaimed, 2, "both emptied pages return to the store");
        assert_eq!(resident_tag_pages(&plane), 0);
        assert_eq!(store.in_use_bytes(), held - 2 * PAGE_SIZE);
        assert_eq!(store.pressure().stats.reclaimed_pages, 2);
        // The store keeps working after the reap.
        let fresh = dram_frame(&soc, 500);
        soc.mem_write(fresh, &page).unwrap();
        store_tags(
            &mut plane,
            &mut soc,
            &mut store,
            &[(fresh, [0u8; 16])],
            &page,
        );
        assert!(plane.has_tag(fresh));
    }

    #[test]
    fn disabled_plane_is_inert() {
        let mut soc = soc();
        let mut store = OnSocStore::new(OnSocBackend::Iram, &mut soc);
        let mut plane = IntegrityPlane::with_root(
            IntegrityConfig::disabled(),
            OnSocBackend::Iram,
            PageCipherMode::Xts,
            &root(0),
        )
        .unwrap();
        assert!(!plane.enabled());
        let frame = dram_frame(&soc, 0);
        let mut page = vec![0u8; PAGE_SIZE as usize];
        store_tags(
            &mut plane,
            &mut soc,
            &mut store,
            &[(frame, [0u8; 16])],
            &page,
        );
        assert!(!plane.has_tag(frame));
        assert_eq!(
            verify(
                &mut plane,
                &mut soc,
                &mut store,
                &[(frame, [0u8; 16])],
                &mut page
            )[0],
            VerifyOutcome::Ok
        );
        assert_eq!(plane.stats, IntegrityStats::default());
    }

    #[test]
    fn one_tampered_frame_in_a_lane_group_fails_alone() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let page = PAGE_SIZE as usize;
        let jobs: Vec<(u64, [u8; 16])> = (0..16)
            .map(|i| (dram_frame(&soc, i), [i as u8 + 1; 16]))
            .collect();
        let mut buf: Vec<u8> = (0..16 * page).map(|i| (i * 7 + 3) as u8).collect();
        for (&(frame, _), chunk) in jobs.iter().zip(buf.chunks_exact(page)) {
            soc.mem_write(frame, chunk).unwrap();
        }
        store_tags(&mut plane, &mut soc, &mut store, &jobs, &buf);
        // Tamper frame 9 in DRAM and in the gathered batch alike, so its
        // re-reads keep seeing the flipped bit.
        buf[9 * page + 100] ^= 0x10;
        soc.mem_write(jobs[9].0, &buf[9 * page..10 * page]).unwrap();
        let outcomes = verify(&mut plane, &mut soc, &mut store, &jobs, &mut buf);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 9 {
                assert!(
                    matches!(outcome, VerifyOutcome::Mismatch { .. }),
                    "{outcome:?}"
                );
            } else {
                assert_eq!(*outcome, VerifyOutcome::Ok, "page {i}");
            }
        }
        assert_eq!(plane.stats.verified_pages, 15);
        assert_eq!(plane.stats.verify.attempts, u64::from(MAX_VERIFY_RETRIES));
        assert_eq!(plane.stats.verify.exhausted, 1);
    }

    #[test]
    fn one_chain_stores_and_verifies_and_the_read_back_compares_bytes() {
        for mode in PageCipherMode::all() {
            let (mut plane, mut store, mut soc) = plane_in_mode(OnSocBackend::Iram, mode);
            let page = PAGE_SIZE as usize;
            let (victim, incoming) = (
                (dram_frame(&soc, 1), [1u8; 16]),
                (dram_frame(&soc, 2), [2u8; 16]),
            );
            let mut buf: Vec<u8> = (0..2 * page).map(|i| (i * 13 + 1) as u8).collect();
            soc.mem_write(incoming.0, &buf[page..]).unwrap();
            store_tags(&mut plane, &mut soc, &mut store, &[incoming], &buf[page..]);
            let chains = plane.stats.mac_chains;
            let mut pages = entries(&[victim, incoming]);
            mac_audit::arm();
            plane.tagger().stamp(&mut pages, &buf);
            let (tags, outcomes) = plane
                .store_and_verify(&mut soc, &mut store, &mut pages, 1, &mut buf)
                .unwrap();
            let macs = mac_audit::disarm();
            assert_eq!((macs.pages, macs.calls), (2, 1), "{mode}: one MAC call");
            assert_eq!(outcomes, vec![VerifyOutcome::Ok], "{mode}");
            let incoming_mac = plane.tagger().mac(&incoming.1, &buf[page..]);
            assert_eq!(pages[1].tag == incoming_mac, !mode.is_chaining(), "{mode}");
            assert_eq!(
                tags,
                vec![trunc(&plane.tagger().mac(&victim.1, &buf[..page]))],
                "{mode}"
            );
            assert!(plane.has_tag(victim.0), "{mode}");
            assert_eq!(
                plane.stats.mac_chains - chains,
                1,
                "{mode}: two pages, one chain"
            );

            soc.mem_write(victim.0, &buf[..page]).unwrap();
            let image = &buf[..page];
            let verdict = plane.verify_readback(&mut soc, &mut store, victim, tags[0], image);
            assert_eq!(verdict.unwrap(), VerifyOutcome::Ok, "{mode}");
            assert_eq!(
                plane.stats.mac_chains - chains,
                1,
                "{mode}: a match MACs nothing"
            );

            let mut bad = image.to_vec();
            bad[7] ^= 1;
            soc.mem_write(victim.0, &bad).unwrap();
            let verdict = plane.verify_readback(&mut soc, &mut store, victim, tags[0], image);
            let expected_got = trunc(&plane.tagger().mac(&victim.1, &bad));
            assert_eq!(
                verdict.unwrap(),
                VerifyOutcome::Mismatch {
                    expected: tags[0],
                    got: expected_got
                },
                "{mode}"
            );
            assert_eq!(plane.stats.verify.attempts, u64::from(MAX_VERIFY_RETRIES));
            assert_eq!(plane.stats.verify.exhausted, 1, "{mode}");
        }
    }

    #[test]
    fn the_stored_tag_is_the_page_mac_and_xts_ctr_reuse_the_commit_tag() {
        let page = PAGE_SIZE as usize;
        let buf: Vec<u8> = (0..17 * page).map(|i| (i * 5 + 11) as u8).collect();
        for mode in PageCipherMode::all() {
            let (mut plane, mut store, mut soc) = plane_in_mode(OnSocBackend::Iram, mode);
            let jobs: Vec<(u64, [u8; 16])> = (0..17)
                .map(|i| (dram_frame(&soc, i), [i as u8 + 1; 16]))
                .collect();
            let mut pages = entries(&jobs);
            plane.tagger().stamp(&mut pages, &buf);
            mac_audit::arm();
            plane
                .store_tags(&mut soc, &mut store, &pages, &buf)
                .unwrap();
            let macs = mac_audit::disarm().pages;
            assert_eq!(macs, if mode.is_chaining() { 17 } else { 0 }, "{mode}");
            assert_eq!(plane.stats.mac_chains, 2, "{mode}: 17 pages, two chains");
            for (&(frame, iv), image) in jobs.iter().zip(buf.chunks_exact(page)) {
                let mut stored = [0u8; TAG_BYTES];
                soc.mem_read(plane.tag_slot_addr(frame).unwrap(), &mut stored)
                    .unwrap();
                assert_eq!(stored, trunc(&plane.tagger().mac(&iv, image)), "{mode}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 tag jobs need exactly one page each")]
    fn store_tags_rejects_a_short_buffer() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let jobs: Vec<(u64, [u8; 16])> = (0..3).map(|i| (dram_frame(&soc, i), [0u8; 16])).collect();
        let buf = vec![0u8; 2 * PAGE_SIZE as usize];
        let _ = plane.store_tags(&mut soc, &mut store, &entries(&jobs), &buf);
    }

    #[test]
    #[should_panic(expected = "3 tag jobs need exactly one page each")]
    fn verify_frames_rejects_a_short_buffer() {
        let (mut plane, mut store, mut soc) = plane_and_store(OnSocBackend::Iram);
        let jobs: Vec<(u64, [u8; 16])> = (0..3).map(|i| (dram_frame(&soc, i), [0u8; 16])).collect();
        let mut buf = vec![0u8; 2 * PAGE_SIZE as usize];
        let _ = plane.verify_frames(&mut soc, &mut store, &mut entries(&jobs), &mut buf);
    }
}
