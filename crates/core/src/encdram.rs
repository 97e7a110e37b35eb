//! The encrypted-DRAM pager (§5, Figure 1).
//!
//! While the device is locked, a sensitive background application's
//! pages live encrypted in DRAM. Every PTE has its `young` bit cleared,
//! so the first access to a page traps; the pager then:
//!
//! 1. copies the encrypted page from its DRAM frame into an on-SoC page
//!    slot (a locked L2 cache way or iRAM),
//! 2. decrypts it in place with AES On SoC,
//! 3. repoints the PTE at the on-SoC copy and sets `young`.
//!
//! When the on-SoC slots are full, the pager evicts in FIFO order: the
//! victim page is re-encrypted in place and copied back to its home
//! DRAM frame, and its PTE is re-armed to trap. Plaintext therefore
//! exists only on the SoC; DRAM (and hence every in-scope attack) sees
//! ciphertext only.

use crate::error::SentryError;
use crate::integrity::{QuarantinedPage, VerifyOutcome};
use crate::onsoc::OnSocStore;
use crate::transition::{
    audit_encrypts, crypt_extent, crypt_page, set_page_state, Kind, PageState, Transition,
};
use crate::txn::JournalEntry;
use sentry_crypto::Direction;
use sentry_kernel::fault::PageFault;
use sentry_kernel::pagetable::Backing;
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;

/// Per-page IV: bound to the (pid, vpn) pair so every page encrypts
/// differently under the volatile root key, and to the lock-epoch
/// counter so the *same* page never reuses an IV across successive lock
/// cycles. (The volatile key survives lock→unlock→lock — it is destroyed
/// only on power-off — so without the epoch a CBC IV would repeat and an
/// attacker comparing two lock cycles could detect unchanged pages, and
/// recover XORs of first blocks that changed.)
#[must_use]
pub fn page_iv(pid: u32, vpn: u64, epoch: u64) -> [u8; 16] {
    let mut iv = [0u8; 16];
    iv[..4].copy_from_slice(&pid.to_le_bytes());
    iv[4..12].copy_from_slice(&vpn.to_le_bytes());
    let tag = u32::from_le_bytes(*b"SNTR") ^ (epoch as u32) ^ ((epoch >> 32) as u32);
    iv[12..].copy_from_slice(&tag.to_le_bytes());
    iv
}

/// Pager statistics, consumed by the background-computation experiments
/// (Figures 6–8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Faults handled by the pager.
    pub faults: u64,
    /// Pages decrypted into on-SoC slots.
    pub pageins: u64,
    /// Pages re-encrypted back to DRAM.
    pub pageouts: u64,
    /// Bytes decrypted.
    pub bytes_decrypted: u64,
    /// Bytes encrypted.
    pub bytes_encrypted: u64,
    /// Non-empty [`Pager::evict_all`] sweeps (one per lock transition
    /// with resident pages).
    pub evict_batches: u64,
    /// Pages evicted across all such sweeps.
    pub evict_batch_pages: u64,
    /// Faults refused because the frame is quarantined (poisoned
    /// ciphertext caught by the integrity plane — never paged in).
    pub quarantine_rejects: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    occupant: Option<(u32, u64)>,
}

/// The encrypted-DRAM pager.
#[derive(Debug, Default)]
pub struct Pager {
    slots: Vec<Slot>,
    /// FIFO of occupied slot indices, oldest first.
    resident: std::collections::VecDeque<usize>,
    /// Indices of empty slots. Invariant: `free` holds exactly the slots
    /// whose `occupant` is `None`, so acquiring a slot is O(1) instead of
    /// a scan over every slot (the fault path runs this on each trap).
    free: Vec<usize>,
    /// Page-sized bounce buffer reused by `page_in`/`evict` so the
    /// per-fault path does not allocate.
    scratch: Vec<u8>,
    slot_limit: Option<usize>,
    /// Statistics.
    pub stats: PagerStats,
}

impl Pager {
    /// A pager with an optional cap on on-SoC page slots.
    #[must_use]
    pub fn new(slot_limit: Option<usize>) -> Self {
        Pager {
            slot_limit,
            ..Pager::default()
        }
    }

    /// Number of on-SoC slots currently held.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of pages currently resident on-SoC.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Handle a fault on an encrypted page of a sensitive background
    /// process (Figure 1's three steps, plus eviction when full).
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] if no slot can be obtained at
    /// all; kernel/SoC errors from the copies.
    pub fn handle_fault(
        &mut self,
        t: &mut Transition<'_>,
        fault: &PageFault,
        epoch: u64,
    ) -> Result<(), SentryError> {
        t.kernel.soc.clock.advance(t.kernel.soc.costs.page_fault_ns);
        self.stats.faults += 1;
        let (pid, vpn) = (fault.pid, fault.vpn);
        let pte = t
            .kernel
            .proc_mut(pid)?
            .page_table
            .get_mut(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        match pte.backing {
            Backing::Dram(frame) if pte.encrypted => {
                // A quarantined frame never pages in: report its stored
                // violation instead of decrypting poisoned ciphertext.
                if let Some(err) = t.integrity.violation_for(frame) {
                    self.stats.quarantine_rejects += 1;
                    return Err(err);
                }
                let slot_idx = self.acquire_slot(t, epoch)?;
                let paged_in = self.page_in(t, slot_idx, pid, vpn, frame);
                if paged_in.is_err() {
                    // The slot goes back, so a retried fault pages into
                    // it again instead of evicting another victim.
                    self.free.push(slot_idx);
                }
                paged_in
            }
            // Already resident, or unencrypted (e.g. shared with a
            // non-sensitive app): nothing to decrypt, just re-arm.
            _ => {
                pte.young = true;
                Ok(())
            }
        }
    }

    /// Obtain a free slot, locking more on-SoC storage if allowed and
    /// evicting the oldest resident page otherwise.
    fn acquire_slot(&mut self, t: &mut Transition<'_>, epoch: u64) -> Result<usize, SentryError> {
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i].occupant.is_none(), "free list out of sync");
            return Ok(i);
        }
        let may_grow = self.slot_limit.is_none_or(|lim| self.slots.len() < lim);
        if may_grow {
            match t.store.alloc_page(&mut t.kernel.soc) {
                Ok(addr) => {
                    self.slots.push(Slot {
                        addr,
                        occupant: None,
                    });
                    return Ok(self.slots.len() - 1);
                }
                Err(SentryError::OnSocExhausted) => {}
                Err(e) => return Err(e),
            }
        }
        // Peek, don't pop: a kill inside `evict` must leave the victim
        // at the FIFO head so recovery (and the retried fault) still
        // agree with an uninterrupted run on who gets evicted.
        let victim = *self.resident.front().ok_or(SentryError::OnSocExhausted)?;
        self.evict(t, victim, epoch)?;
        self.resident.pop_front();
        // `evict` pushed the victim onto the free list; claim it back.
        let reclaimed = self.free.pop().expect("evict frees its slot");
        debug_assert_eq!(reclaimed, victim);
        Ok(reclaimed)
    }

    /// Figure 1 in reverse: encrypt the slot's page and copy it back to
    /// its home DRAM frame; re-arm the trap.
    ///
    /// The ciphertext is computed in scratch (on the SoC), then committed
    /// through the journaled transition primitive; a kill anywhere in
    /// between is completed or rolled forward by
    /// [`crate::Sentry::recover`]. The slot itself is only reclaimed in
    /// the in-memory tail, after the journal closes.
    fn evict(
        &mut self,
        t: &mut Transition<'_>,
        slot_idx: usize,
        epoch: u64,
    ) -> Result<(), SentryError> {
        let slot = self.slots[slot_idx];
        let (pid, vpn) = slot.occupant.expect("evicting an empty slot");
        self.scratch.resize(PAGE_SIZE as usize, 0);
        t.kernel.soc.mem_read(slot.addr, &mut self.scratch)?;
        let home = home_frame(t.kernel, pid, vpn)?;
        let mut entry =
            JournalEntry::new(pid, vpn, slot.addr, home, page_iv(pid, vpn, epoch), epoch);
        audit_encrypts(&[entry.iv], &self.scratch);
        crypt_page(t.kernel, Direction::Encrypt, &entry.iv, &mut self.scratch)?;
        entry.tag = t.tagger.tag(&entry.iv, &self.scratch);
        if let Err(e) = t.commit(Kind::EvictOne, epoch, &[entry], &self.scratch) {
            if matches!(e, SentryError::IntegrityViolation { .. }) {
                self.stats.quarantine_rejects += 1;
            }
            return Err(e);
        }

        // In-memory tail: reclaim the slot.
        self.slots[slot_idx].occupant = None;
        self.free.push(slot_idx);
        self.stats.pageouts += 1;
        self.stats.bytes_encrypted += PAGE_SIZE;
        Ok(())
    }

    /// Figure 1 forward: copy the encrypted page on-SoC and decrypt it
    /// in place.
    fn page_in(
        &mut self,
        t: &mut Transition<'_>,
        slot_idx: usize,
        pid: Pid,
        vpn: u64,
        frame: u64,
    ) -> Result<(), SentryError> {
        // Journal-free by design: every byte this path writes lands
        // on-SoC (the slot), never in DRAM, so a kill at any step leaves
        // DRAM and the PTE exactly as they were before the fault.
        t.kernel.soc.failpoint("pager.pagein")?;
        let slot_addr = self.slots[slot_idx].addr;
        self.scratch.resize(PAGE_SIZE as usize, 0);

        // Step 1: copy the encrypted page into the on-SoC slot.
        t.kernel.soc.mem_read(frame, &mut self.scratch)?;
        t.kernel.soc.clock.advance(t.kernel.soc.costs.page_copy_ns);

        // Step 2: decrypt in place, under the IV the page was actually
        // encrypted with (its PTE remembers the lock epoch used).
        let epoch = t
            .kernel
            .proc(pid)?
            .page_table
            .get(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?
            .crypt_epoch;
        let iv = page_iv(pid, vpn, epoch);

        // MAC-verify the gathered ciphertext before the cipher runs on
        // it. A mismatch quarantines the frame: the PTE is untouched,
        // and the fault reports the violation.
        if let VerifyOutcome::Mismatch { expected, got } =
            t.integrity
                .verify_one(&mut t.kernel.soc, t.store, frame, &iv, &mut self.scratch)?
        {
            self.stats.quarantine_rejects += 1;
            return Err(t.integrity.quarantine(QuarantinedPage {
                pid,
                vpn,
                frame,
                epoch,
                tag_expected: expected,
                tag_got: got,
            }));
        }
        crypt_page(t.kernel, Direction::Decrypt, &iv, &mut self.scratch)?;
        t.kernel.soc.mem_write(slot_addr, &self.scratch)?;

        // Step 3: repoint the PTE, set young, and start the slot clean:
        // the home frame's ciphertext is current until a write.
        let proc = t.kernel.proc_mut(pid)?;
        let pte = proc
            .page_table
            .get_mut(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        pte.backing = Backing::OnSoc(slot_addr);
        pte.home_frame = Some(frame);
        pte.young = true;
        pte.dirty = false;
        proc.stats.bytes_decrypted += PAGE_SIZE;

        self.slots[slot_idx].occupant = Some((pid, vpn));
        self.resident.push_back(slot_idx);
        self.stats.pageins += 1;
        self.stats.bytes_decrypted += PAGE_SIZE;
        Ok(())
    }

    /// Evict every resident page (Sentry's lock path runs this so all
    /// sensitive state is encrypted in DRAM before the device sleeps).
    /// A clean page's home frame still holds its ciphertext, so its slot
    /// is wiped and its PTE re-armed onto that frame at the epoch it
    /// kept. A written page is re-encrypted into its home frame under
    /// `epoch` — the lock epoch of the transition driving the sweep.
    /// Returns the number of clean pages re-armed.
    ///
    /// # Errors
    ///
    /// Propagates eviction errors.
    pub fn evict_all(&mut self, t: &mut Transition<'_>, epoch: u64) -> Result<usize, SentryError> {
        // The FIFO is *not* drained up front: a kill mid-sweep must
        // leave the not-yet-published victims resident, so recovery (and
        // a retried lock) still sees them. Slot bookkeeping happens only
        // in the in-memory tail, after every journal chunk has closed.
        let victims: Vec<usize> = self.resident.iter().copied().collect();
        if victims.is_empty() {
            return Ok(0);
        }
        let mut pages = Vec::with_capacity(victims.len());
        let mut reused = 0;
        for &slot_idx in &victims {
            let slot = self.slots[slot_idx];
            let (pid, vpn) = slot.occupant.expect("evicting an empty slot");
            let pte = *t
                .kernel
                .proc(pid)?
                .page_table
                .get(vpn)
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            let home = pte
                .home_frame
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            if pte.written() {
                pages.push(JournalEntry::new(
                    pid,
                    vpn,
                    slot.addr,
                    home,
                    page_iv(pid, vpn, epoch),
                    epoch,
                ));
            } else {
                // Wipe, then re-arm: a kill at the wipe leaves the page
                // resident for the retried lock.
                t.kernel
                    .soc
                    .mem_write(slot.addr, &[0u8; PAGE_SIZE as usize])?;
                let state = PageState::Ciphertext {
                    epoch: pte.crypt_epoch,
                };
                set_page_state(t.kernel, home, (pid, vpn), state);
                reused += 1;
            }
        }

        // The whole sweep goes through the engine as a single extent
        // request, so a batch backend streams all pages through its
        // kernels back-to-back instead of restarting per page.
        // Byte-identical to evicting one page at a time (per-page IVs
        // make each page independent).
        let n = pages.len();
        if n > 0 {
            let mut buf = t.gather(&pages)?;
            let ivs: Vec<[u8; 16]> = pages.iter().map(|e| e.iv).collect();
            audit_encrypts(&ivs, &buf);
            crypt_extent(t.kernel, Direction::Encrypt, &ivs, &mut buf)?;
            t.kernel
                .soc
                .clock
                .advance(t.kernel.soc.costs.page_copy_ns * n as u64);
            t.tagger.stamp(&mut pages, &buf);
            t.commit(Kind::EvictAll, epoch, &pages, &buf)?;
            self.stats.evict_batches += 1;
            self.stats.evict_batch_pages += n as u64;
            self.stats.pageouts += n as u64;
            self.stats.bytes_encrypted += n as u64 * PAGE_SIZE;
        }

        // In-memory tail: reclaim every slot at once.
        self.resident.clear();
        for &slot_idx in &victims {
            self.slots[slot_idx].occupant = None;
            self.free.push(slot_idx);
        }
        Ok(reused)
    }

    /// Post-recovery reconciliation: drop any resident slot whose
    /// occupant's PTE no longer points at it. Recovery completes
    /// interrupted evictions by flipping PTEs back to their DRAM frames;
    /// the pager's in-memory FIFO (which never reached its tail commit)
    /// is re-synchronized here from the page tables — the single source
    /// of truth.
    pub fn reconcile(&mut self, kernel: &Kernel) {
        let resident: Vec<usize> = self.resident.drain(..).collect();
        for slot_idx in resident {
            let slot = self.slots[slot_idx];
            let still_resident = slot.occupant.is_some_and(|(pid, vpn)| {
                kernel
                    .procs
                    .get(&pid)
                    .and_then(|p| p.page_table.get(vpn))
                    .is_some_and(|pte| matches!(pte.backing, Backing::OnSoc(a) if a == slot.addr))
            });
            if still_resident {
                self.resident.push_back(slot_idx);
            } else {
                self.slots[slot_idx].occupant = None;
                self.free.push(slot_idx);
            }
        }
    }

    /// Drop every resident slot owned by a dying process without
    /// writing it back: the plaintext is wiped in place and the slot
    /// returns to the free list. Called on process teardown so the
    /// pager never pins on-SoC pages for pids that no longer exist.
    ///
    /// Returns the number of slots released.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors.
    pub fn drop_pid(&mut self, kernel: &mut Kernel, pid: u32) -> Result<u64, SentryError> {
        let mut dropped = 0u64;
        let resident: Vec<usize> = self.resident.drain(..).collect();
        let zero = vec![0u8; PAGE_SIZE as usize];
        for slot_idx in resident {
            if self.slots[slot_idx].occupant.is_some_and(|(p, _)| p == pid) {
                kernel.soc.mem_write(self.slots[slot_idx].addr, &zero)?;
                self.slots[slot_idx].occupant = None;
                self.free.push(slot_idx);
                dropped += 1;
            } else {
                self.resident.push_back(slot_idx);
            }
        }
        Ok(dropped)
    }

    /// Return free slots at the tail of the slot table to the on-SoC
    /// store. Slot indices are load-bearing (the FIFO and free list
    /// hold them), so only a free suffix can be shrunk — enough to
    /// relieve pressure after teardown or under a tightened budget.
    ///
    /// Returns the number of pages returned to the store.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors from the store's free path.
    pub fn shrink_free_slots(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
    ) -> Result<u64, SentryError> {
        let mut freed = 0u64;
        while let Some(slot) = self.slots.last() {
            if slot.occupant.is_some() {
                break;
            }
            let idx = self.slots.len() - 1;
            if self.resident.contains(&idx) {
                break;
            }
            let slot = self.slots.pop().expect("checked non-empty");
            self.free.retain(|&i| i != idx);
            store.free_page(&mut kernel.soc, slot.addr)?;
            freed += 1;
        }
        Ok(freed)
    }

    /// Release all on-SoC slots back to the store (after
    /// [`Pager::evict_all`]).
    ///
    /// # Errors
    ///
    /// Propagates wipe errors.
    pub fn release_slots(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
    ) -> Result<(), SentryError> {
        debug_assert!(self.resident.is_empty(), "evict_all first");
        self.free.clear();
        for slot in self.slots.drain(..) {
            store.free_page(&mut kernel.soc, slot.addr)?;
        }
        Ok(())
    }
}

/// The DRAM frame an on-SoC resident page returns to on eviction.
fn home_frame(kernel: &Kernel, pid: Pid, vpn: u64) -> Result<u64, SentryError> {
    kernel
        .proc(pid)?
        .page_table
        .get(vpn)
        .and_then(|pte| pte.home_frame)
        .ok_or(SentryError::Unresolvable { pid, vpn })
}
