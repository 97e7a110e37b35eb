//! The encrypted-DRAM pager (§5, Figure 1).
//!
//! While the device is locked, a sensitive background application's
//! pages live encrypted in DRAM. Every PTE has its `young` bit cleared,
//! so the first access to a page traps, and the page is paged in:
//!
//! 1. its ciphertext is copied from its DRAM frame into an on-SoC page
//!    slot (a locked L2 cache way or iRAM),
//! 2. decrypted there with AES On SoC,
//! 3. and the PTE is repointed at the on-SoC copy with `young` set.
//!
//! When the on-SoC slots are full, the oldest resident page is evicted
//! (FIFO): re-encrypted back into its home DRAM frame, its PTE re-armed
//! to trap. Plaintext therefore exists only on the SoC; DRAM (and hence
//! every in-scope attack) sees ciphertext only. A frame shared by
//! several sensitive processes pages into one slot that every sharer
//! maps, and its eviction re-arms them all.
//!
//! The [`Pager`] is slot bookkeeping plus the planners of these moves:
//! a fault's slot comes with the eviction that frees it, and
//! [`crate::Sentry`] runs the eviction and the page-in as one transition
//! (see [`crate::transition`]), whose crypt step is the only code that
//! reaches a cipher.

use crate::error::SentryError;
use crate::onsoc::OnSocStore;
use crate::transition::{mappings, plan, set_page_state, IvSource, PageState};
use crate::txn::JournalEntry;
use sentry_kernel::pagetable::{Backing, Pte};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;

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
    /// Pages evicted across all such sweeps.
    pub(crate) evict_batch_pages: u64,
    /// Faults refused because the frame is quarantined (poisoned
    /// ciphertext caught by the integrity plane — never paged in).
    pub(crate) quarantine_rejects: u64,
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
    slot_limit: Option<usize>,
    /// Statistics.
    pub stats: PagerStats,
}

impl Pager {
    /// A pager with an optional cap on on-SoC page slots.
    #[must_use]
    pub(crate) fn new(slot_limit: Option<usize>) -> Self {
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

    /// Plan a locked fault's slot: a free one, or a new one from `store`
    /// while the slot limit allows. When every slot is taken, the oldest
    /// resident page must be evicted first (Figure 1 in reverse): its
    /// slot is returned with the plan that encrypts it back into its home
    /// DRAM frame in lock epoch `epoch`, the current one: a page rewritten
    /// between two evictions gets a new version each time (see
    /// [`crate::transition::page_iv`]).
    ///
    /// The victim stays at the FIFO head until [`Pager::evicted`], so a
    /// kill inside the eviction leaves recovery (and the retried fault)
    /// agreeing with an uninterrupted run on who gets evicted.
    ///
    /// # Errors
    ///
    /// [`SentryError::OnSocExhausted`] when no slot can be had and no
    /// page is resident; store errors.
    pub(crate) fn plan_fault(
        &mut self,
        store: &mut OnSocStore,
        kernel: &mut Kernel,
        epoch: u64,
    ) -> Result<(usize, Option<JournalEntry>), SentryError> {
        if let Some(i) = self.free.pop() {
            debug_assert!(self.slots[i].occupant.is_none(), "free list out of sync");
            return Ok((i, None));
        }
        if self.slot_limit.is_none_or(|lim| self.slots.len() < lim) {
            match store.alloc_page(&mut kernel.soc) {
                Ok(addr) => {
                    self.slots.push(Slot {
                        addr,
                        occupant: None,
                    });
                    return Ok((self.slots.len() - 1, None));
                }
                Err(SentryError::OnSocExhausted) => {}
                Err(e) => return Err(e),
            }
        }
        let victim = *self.resident.front().ok_or(SentryError::OnSocExhausted)?;
        let slot = self.slots[victim];
        let (pid, vpn) = slot.occupant.expect("evicting an empty slot");
        let pte = kernel
            .proc(pid)?
            .page_table
            .get(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        let home = pte
            .home_frame
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        let entry = plan((pid, vpn), slot.addr, home, IvSource::Encrypt(pte, epoch));
        Ok((victim, Some(entry)))
    }

    /// Give back a slot whose page-in failed, so a retried fault pages
    /// into it again instead of evicting another victim.
    pub(crate) fn give_back(&mut self, slot_idx: usize) {
        self.free.push(slot_idx);
    }

    /// The in-memory tail of a committed FIFO eviction: the victim
    /// leaves the FIFO, and its now-empty slot is returned for the
    /// page-in that needed it.
    pub(crate) fn evicted(&mut self, slot_idx: usize) -> usize {
        self.resident.pop_front();
        self.slots[slot_idx].occupant = None;
        self.stats.pageouts += 1;
        self.stats.bytes_encrypted += PAGE_SIZE;
        slot_idx
    }

    /// The tail of a page-in: write `plaintext` into the slot, repoint
    /// every mapping of `frame` at it, set young, and start it clean —
    /// the home frame's ciphertext is current until a write — then add
    /// the page to the FIFO under the faulting mapping.
    ///
    /// # Errors
    ///
    /// Propagates the slot write and a missing process.
    pub(crate) fn paged_in(
        &mut self,
        kernel: &mut Kernel,
        slot_idx: usize,
        (pid, vpn): (Pid, u64),
        frame: u64,
        plaintext: &[u8],
    ) -> Result<(), SentryError> {
        let addr = self.slots[slot_idx].addr;
        kernel.soc.mem_write(addr, plaintext)?;
        set_page_state(
            kernel,
            frame,
            (pid, vpn),
            PageState::Resident { slot: addr },
        );
        kernel.proc_mut(pid)?.stats.bytes_decrypted += PAGE_SIZE;

        self.slots[slot_idx].occupant = Some((pid, vpn));
        self.resident.push_back(slot_idx);
        self.stats.pageins += 1;
        self.stats.bytes_decrypted += PAGE_SIZE;
        Ok(())
    }

    /// Plan the lock-time sweep of every resident page, so all sensitive
    /// state is encrypted in DRAM before the device sleeps. A clean
    /// page's home frame still holds its ciphertext, so its slot is
    /// wiped and its mappings re-armed onto that frame here. A page
    /// written through any of its mappings is planned for re-encryption
    /// into its home frame in lock epoch `epoch` — the target epoch of
    /// the lock driving the sweep. Returns those plans, which the lock encrypts in
    /// its own batch, and the number of clean pages re-armed.
    ///
    /// The FIFO is *not* drained here: a kill mid-sweep must leave the
    /// not-yet-published victims resident, so recovery (and a retried
    /// lock) still sees them. [`Pager::evicted_all`] reclaims the slots
    /// once the sweep has committed.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors and a missing process, PTE or home frame.
    pub(crate) fn plan_evict_all(
        &self,
        kernel: &mut Kernel,
        epoch: u64,
    ) -> Result<(Vec<JournalEntry>, u64), SentryError> {
        let mut pages = Vec::with_capacity(self.resident.len());
        let mut reused = 0;
        for &slot_idx in &self.resident {
            let slot = self.slots[slot_idx];
            let (pid, vpn) = slot.occupant.expect("evicting an empty slot");
            let pte = *kernel
                .proc(pid)?
                .page_table
                .get(vpn)
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            let home = pte
                .home_frame
                .ok_or(SentryError::Unresolvable { pid, vpn })?;
            let written = mappings(kernel, home, (pid, vpn))
                .into_iter()
                .any(|(p, v)| {
                    kernel
                        .procs
                        .get(&p)
                        .and_then(|proc| proc.page_table.get(v))
                        .is_some_and(Pte::written)
                });
            if written {
                pages.push(plan(
                    (pid, vpn),
                    slot.addr,
                    home,
                    IvSource::Encrypt(&pte, epoch),
                ));
            } else {
                // Wipe, then re-arm: a kill at the wipe leaves the page
                // resident for the retried lock.
                kernel
                    .soc
                    .mem_write(slot.addr, &[0u8; PAGE_SIZE as usize])?;
                set_page_state(kernel, home, (pid, vpn), PageState::Rearmed);
                reused += 1;
            }
        }
        Ok((pages, reused))
    }

    /// The in-memory tail of a committed lock whose batch re-encrypted
    /// `written` resident pages: every slot is reclaimed at once.
    pub(crate) fn evicted_all(&mut self, written: usize) {
        if written > 0 {
            let n = written as u64;
            self.stats.evict_batch_pages += n;
            self.stats.pageouts += n;
            self.stats.bytes_encrypted += n * PAGE_SIZE;
        }
        for slot_idx in self.resident.drain(..) {
            self.slots[slot_idx].occupant = None;
            self.free.push(slot_idx);
        }
    }

    /// Post-recovery reconciliation: drop any resident slot whose
    /// occupant's PTE no longer points at it. Recovery completes
    /// interrupted evictions by flipping PTEs back to their DRAM frames;
    /// the pager's in-memory FIFO (which never reached its tail commit)
    /// is re-synchronized here from the page tables — the single source
    /// of truth.
    pub(crate) fn reconcile(&mut self, kernel: &Kernel) {
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
    /// pager never pins on-SoC pages for pids that no longer exist. A
    /// slot whose frame another process shares stays resident under
    /// that sharer, whose mapping still points at it.
    ///
    /// Returns the number of slots released.
    ///
    /// # Errors
    ///
    /// Propagates wipe errors.
    pub(crate) fn drop_pid(&mut self, kernel: &mut Kernel, pid: u32) -> Result<u64, SentryError> {
        let mut dropped = 0u64;
        let resident: Vec<usize> = self.resident.drain(..).collect();
        let zero = vec![0u8; PAGE_SIZE as usize];
        for slot_idx in resident {
            if let Some((p, vpn)) = self.slots[slot_idx].occupant.filter(|&(p, _)| p == pid) {
                let heir = kernel
                    .proc(p)?
                    .page_table
                    .get(vpn)
                    .and_then(|pte| pte.home_frame)
                    .and_then(|home| kernel.sharers_of(home))
                    .and_then(|sharers| sharers.iter().find(|&&(q, _)| q != pid).copied());
                if heir.is_some() {
                    self.slots[slot_idx].occupant = heir;
                    self.resident.push_back(slot_idx);
                    continue;
                }
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
}
