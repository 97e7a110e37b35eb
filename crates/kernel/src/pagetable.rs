//! Per-process page tables.
//!
//! Each PTE carries the bits Sentry's paging machinery manipulates:
//!
//! * `present`/`young` — clearing `young` arms the access trap (§5);
//! * `encrypted` — the page's bytes in DRAM are ciphertext under the
//!   volatile root key;
//! * `backing` — where the bytes physically live right now: a DRAM
//!   frame, or an on-SoC page (iRAM or a locked-L2 window address);
//! * `dma_region` — the page belongs to a GPU/I-O DMA region, which
//!   devices access by physical address without faulting, so Sentry must
//!   decrypt it eagerly on unlock (§7);
//! * `shared` — the page is shared with other processes; Sentry skips
//!   pages shared with any non-sensitive process (§7).

use crate::process::Pid;
use std::collections::BTreeMap;

/// Virtual page number.
pub(crate) type Vpn = u64;

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backing {
    /// A DRAM frame at this physical address.
    Dram(u64),
    /// An on-SoC page (iRAM address or locked-L2 window address).
    OnSoc(u64),
}

/// Sharing classification of a page (§7, "memory pages shared between
/// applications").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sharing {
    /// Private to this process.
    #[default]
    Private,
    /// Shared only among sensitive applications: still encrypted.
    SharedSensitiveOnly,
    /// Shared with at least one non-sensitive application: assumed
    /// non-secret, never encrypted.
    SharedWithNonSensitive,
}

/// One page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The page is mapped to physical storage.
    pub(crate) present: bool,
    /// The ARM young (accessed) bit. Cleared = next access traps.
    pub young: bool,
    /// DRAM bytes are ciphertext.
    pub encrypted: bool,
    /// A CPU write reached the page since it was last decrypted (or
    /// mapped), so its kept ciphertext (see `home_frame`) is stale. An
    /// encrypt leaves the bit as it is, as a forecast for the next
    /// decrypt: a page written before its lock is decrypted in place,
    /// since it will likely be written again before the next one.
    /// Devices writing a DMA region never set it; see [`Pte::written`].
    pub dirty: bool,
    /// Physical location.
    pub backing: Backing,
    /// Sharing classification.
    pub sharing: Sharing,
    /// Part of a device DMA region (eagerly decrypted on unlock).
    pub dma_region: bool,
    /// While the page's plaintext lives elsewhere — in an on-SoC pager
    /// slot or a fresh DRAM frame — the DRAM frame that still holds its
    /// ciphertext at `crypt_version`, with its integrity tag still stored.
    /// A clean page returns to it at lock without any cipher work; a
    /// dirty one is encrypted anew. A DRAM-resident page's kept frame
    /// is a cache: the kernel takes it back when its pool runs dry.
    pub home_frame: Option<u64>,
    /// The version the IV binds for the page's current ciphertext
    /// (meaningful while `encrypted`, or while `home_frame` holds that
    /// ciphertext). Every fresh encrypt of the page takes a higher one,
    /// so one IV never encrypts two plaintexts; a page that stays
    /// ciphertext across an unlock→lock boundary keeps it, and
    /// decrypts under the IV it was actually encrypted with.
    pub crypt_version: u64,
    /// The `(pid, vpn)` mapping whose identity the IV of that same
    /// ciphertext binds: the page's own for a private page, the first
    /// sharer's for a shared frame. Recorded in every mapping of the
    /// frame at the encrypt, so the IV outlives its owner's exit.
    pub iv_owner: Option<(Pid, Vpn)>,
}

impl Pte {
    /// A fresh, resident, trap-disarmed PTE over a DRAM frame.
    #[must_use]
    pub fn resident(frame: u64) -> Self {
        Pte {
            present: true,
            young: true,
            encrypted: false,
            dirty: false,
            backing: Backing::Dram(frame),
            sharing: Sharing::Private,
            dma_region: false,
            home_frame: None,
            crypt_version: 0,
            iv_owner: None,
        }
    }

    /// The DRAM frames this entry holds: the backing frame, if in DRAM,
    /// and the home frame, if any.
    pub fn dram_frames(&self) -> impl Iterator<Item = u64> {
        let backing = match self.backing {
            Backing::Dram(f) => Some(f),
            Backing::OnSoc(_) => None,
        };
        backing.into_iter().chain(self.home_frame)
    }

    /// Whether the page's kept ciphertext may be stale: a CPU wrote the
    /// page, or it is a DMA region, which devices write without setting
    /// `dirty`.
    #[must_use]
    pub fn written(&self) -> bool {
        self.dirty || self.dma_region
    }

    /// Does an access to this page trap?
    #[must_use]
    pub fn traps(&self) -> bool {
        !self.present || !self.young
    }
}

/// A sparse page table.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: BTreeMap<Vpn, Pte>,
}

impl PageTable {
    /// An empty page table.
    #[must_use]
    pub(crate) fn new() -> Self {
        PageTable::default()
    }

    /// Look up a PTE.
    #[must_use]
    pub fn get(&self, vpn: Vpn) -> Option<&Pte> {
        self.entries.get(&vpn)
    }

    /// Look up a PTE mutably.
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.entries.get_mut(&vpn)
    }

    /// Install or replace a PTE.
    pub(crate) fn map(&mut self, vpn: Vpn, pte: Pte) {
        self.entries.insert(vpn, pte);
    }

    /// Remove a mapping, returning the old PTE.
    pub(crate) fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        self.entries.remove(&vpn)
    }

    /// Iterate over `(vpn, pte)` pairs in address order — the "walk the
    /// page tables of all processes marked sensitive" of §7.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
        self.entries.iter().map(|(&vpn, pte)| (vpn, pte))
    }

    /// Iterate mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (Vpn, &mut Pte)> + '_ {
        self.entries.iter_mut().map(|(&vpn, pte)| (vpn, pte))
    }

    /// VPNs matching a predicate (collected to end borrows early).
    #[must_use]
    pub fn vpns_where(&self, pred: impl Fn(&Pte) -> bool) -> Vec<Vpn> {
        self.entries
            .iter()
            .filter(|(_, pte)| pred(pte))
            .map(|(&vpn, _)| vpn)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_get_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.entries.is_empty());
        pt.map(5, Pte::resident(0x8000_0000));
        assert_eq!(pt.entries.len(), 1);
        assert!(pt.get(5).unwrap().present);
        assert!(pt.get(6).is_none());
        let old = pt.unmap(5).unwrap();
        assert_eq!(old.backing, Backing::Dram(0x8000_0000));
        assert!(pt.entries.is_empty());
    }

    #[test]
    fn traps_on_young_clear_or_not_present() {
        let mut pte = Pte::resident(0);
        assert!(!pte.traps());
        pte.young = false;
        assert!(pte.traps());
        pte.young = true;
        pte.present = false;
        assert!(pte.traps());
    }

    #[test]
    fn vpns_where_filters() {
        let mut pt = PageTable::new();
        for vpn in 0..10 {
            let mut pte = Pte::resident(vpn * 4096);
            pte.encrypted = vpn % 2 == 0;
            pt.map(vpn, pte);
        }
        let enc = pt.vpns_where(|p| p.encrypted);
        assert_eq!(enc, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut pt = PageTable::new();
        for vpn in [9u64, 1, 5] {
            pt.map(vpn, Pte::resident(0));
        }
        let order: Vec<Vpn> = pt.iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![1, 5, 9]);
    }
}
