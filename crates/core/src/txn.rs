//! Crash-consistent transition journal.
//!
//! Every state transition that moves sensitive bytes between plaintext
//! and ciphertext in DRAM — lock (the pager's written resident pages
//! included), unlock, fault-cluster decrypt, sweep — commits through one
//! primitive, `Transition::commit` (see [`crate::transition`]), and a
//! locked fault's eviction through `Transition::fault`, each as a
//! per-page two-phase commit:
//!
//! 1. the transition's crypt step computes the transformed page into
//!    host scratch (no DRAM mutation), and the entry is stamped with the
//!    commit *tag* of the page's ciphertext image (see [`CommitTagger`])
//!    by whichever step sees that image first: the stamp after an
//!    encrypt, the integrity check before a decrypt;
//! 2. **journal** the intent: page identity, source address, target
//!    frame, IV, the page version the IV binds, and that tag;
//! 3. per page: publish the frame and flip the PTE, then mark the
//!    journal entry done;
//! 4. close the journal, then commit the in-memory tail (epoch, device
//!    state).
//!
//! The journal lives in **iRAM** — on-SoC, so it dies with power
//! exactly like the volatile root key. That placement is what makes it
//! safe: after a real power loss there is no key, no journal, and no
//! plaintext; after a simulated *seize* (the fault matrix's
//! deterministic kill), [`crate::Sentry::recover`] reads the journal
//! back and completes or rolls forward each undone entry idempotently,
//! redoing any crypt through the same crypt step the live path ran.
//!
//! The tag disambiguates "published" from "not yet published" without
//! any extra write ordering: every page cipher mode under a journaled
//! IV is deterministic, so re-encrypting the (still intact) source
//! bytes reproduces the byte-identical ciphertext, and comparing the
//! frame's commit tag against the journaled one tells recovery exactly
//! which side of the publish the kill landed on. *How* the tag is
//! computed depends on the mode (see [`CommitTagger`]):
//!
//! * **CBC** (the chaining mode): the tag is the ciphertext's *final*
//!   block. CBC chains, so it depends on every byte of the page and
//!   two versions of a page never share it — first blocks collide
//!   whenever the versions share their first 16 plaintext bytes.
//! * **XTS / CTR** (the parallel modes): the final ciphertext block
//!   depends only on the final *plaintext* block, so two versions of a
//!   page with the same tail would collide there. The tag is the page
//!   MAC instead: a full-width CMAC over IV ‖ ciphertext, the same one
//!   whose first 8 bytes the integrity plane stores, so each page is
//!   MACed once per transition.

use crate::error::SentryError;
use sentry_crypto::{Aes, Cmac, PageCipherMode};
use sentry_soc::{Soc, PAGE_SIZE};

/// Journal magic: a valid, open journal starts with these bytes.
pub(crate) const MAGIC: [u8; 4] = *b"SJRN";

/// Header bytes at the journal page's base: magic, op and entry count
/// in the first eight; the last eight are reserved and written as zero.
const HEADER_LEN: u64 = 16;

/// Serialized entry size in bytes.
const ENTRY_LEN: u64 = 72;

/// Maximum entries one journal page holds; transitions larger than
/// this run as a sequence of chunks, each journaled and closed in turn.
pub(crate) const MAX_ENTRIES: usize = ((PAGE_SIZE - HEADER_LEN) / ENTRY_LEN) as usize;

/// Which way an open transition transforms its pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// Plaintext pages are becoming ciphertext (lock, eviction).
    Encrypt,
    /// Ciphertext pages are becoming plaintext (unlock, fault, sweep).
    Decrypt,
}

impl TxnOp {
    fn code(self) -> u8 {
        match self {
            TxnOp::Encrypt => 1,
            TxnOp::Decrypt => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(TxnOp::Encrypt),
            2 => Some(TxnOp::Decrypt),
            _ => None,
        }
    }
}

/// One journaled page transition — also the plan a transition's
/// planner hands to the commit primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// The planned mapping's process — for an encrypt, the IV owner
    /// every mapping of the frame records.
    pub pid: u32,
    /// Virtual page number within `pid`.
    pub vpn: u64,
    /// Physical address holding the *source* bytes (equals `frame` for
    /// in-place transforms; an on-SoC slot address for evictions).
    pub(crate) src: u64,
    /// The DRAM frame being published to.
    pub(crate) frame: u64,
    /// The page version the IV was derived under — what the PTE's
    /// `crypt_version` must read once the entry commits.
    pub version: u64,
    /// The per-page IV (CBC IV, XTS tweak, or CTR counter base).
    pub(crate) iv: [u8; 16],
    /// The commit tag of the frame's *ciphertext* image — what
    /// [`CommitTagger::tag`] computes over the frame after an encrypt
    /// publishes, or before a decrypt publishes.
    pub(crate) tag: [u8; 16],
    /// Whether this entry's publish + PTE flip completed.
    pub(crate) done: bool,
}

impl JournalEntry {
    /// A not-yet-done entry; its commit tag is stamped once the page's
    /// ciphertext image exists (see [`CommitTagger::stamp`]).
    #[must_use]
    pub(crate) fn new(
        pid: u32,
        vpn: u64,
        src: u64,
        frame: u64,
        iv: [u8; 16],
        version: u64,
    ) -> Self {
        JournalEntry {
            pid,
            vpn,
            src,
            frame,
            version,
            iv,
            tag: [0u8; 16],
            done: false,
        }
    }

    fn to_bytes(self) -> [u8; ENTRY_LEN as usize] {
        let mut b = [0u8; ENTRY_LEN as usize];
        b[0..4].copy_from_slice(&self.pid.to_le_bytes());
        b[4] = u8::from(self.done);
        b[8..16].copy_from_slice(&self.vpn.to_le_bytes());
        b[16..24].copy_from_slice(&self.src.to_le_bytes());
        b[24..32].copy_from_slice(&self.frame.to_le_bytes());
        b[32..40].copy_from_slice(&self.version.to_le_bytes());
        b[40..56].copy_from_slice(&self.iv);
        b[56..72].copy_from_slice(&self.tag);
        b
    }

    fn from_bytes(b: &[u8]) -> Self {
        JournalEntry {
            pid: u32::from_le_bytes(b[0..4].try_into().unwrap()),
            done: b[4] != 0,
            vpn: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            src: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            frame: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            version: u64::from_le_bytes(b[32..40].try_into().unwrap()),
            iv: b[40..56].try_into().unwrap(),
            tag: b[56..72].try_into().unwrap(),
        }
    }
}

/// The page MAC, and the 16-byte journal commit tag it yields.
///
/// The page MAC of a ciphertext page is a full-width CMAC over
/// IV ‖ ciphertext, keyed with `E_rootkey("SENTRY-INTEGRITY")`, which
/// dies with power exactly like the journal it guards. Its first 8 bytes
/// are the integrity plane's stored tag (see [`crate::integrity`]).
///
/// Under the parallel modes (XTS, CTR) the commit tag *is* the page
/// MAC: the final ciphertext block depends only on the final *plaintext*
/// block, so two versions of a page with the same tail would collide
/// there, and recovery could mistake a half-published frame for a
/// committed one. The page's one MAC is computed by whichever step sees
/// its ciphertext first: the stamp after an encrypt, or the integrity
/// check before a decrypt.
///
/// Under the chaining mode (CBC) the commit tag is the page's final
/// ciphertext block, read straight off the image's tail: chaining makes
/// it depend on every byte of the page, so two ciphertexts of different
/// page versions under one IV never share it. The page MAC is then
/// computed only for the integrity plane.
#[derive(Debug)]
pub struct CommitTagger {
    mode: PageCipherMode,
    cmac: Cmac,
}

impl CommitTagger {
    /// Build the page MAC for `mode`. Its key derives from the volatile
    /// root key by one block encryption of a fixed domain-separation
    /// constant.
    ///
    /// # Errors
    ///
    /// Propagates AES key-schedule errors.
    pub fn new(mode: PageCipherMode, root_key: &[u8]) -> Result<Self, SentryError> {
        let root = Aes::new(root_key)?;
        CommitTagger::with_root(mode, &root)
    }

    /// Build the page MAC from an already-expanded root-key schedule
    /// (`Sentry::new` expands the root key once and shares it).
    ///
    /// # Errors
    ///
    /// Propagates AES key-schedule errors for the derived MAC key.
    pub(crate) fn with_root(mode: PageCipherMode, root: &Aes) -> Result<Self, SentryError> {
        let mut mk = *b"SENTRY-INTEGRITY";
        root.encrypt_block(&mut mk);
        Ok(CommitTagger {
            mode,
            cmac: Cmac::new(Aes::new(&mk)?),
        })
    }

    /// The page cipher mode the tagger computes commit tags for.
    #[must_use]
    pub(crate) fn mode(&self) -> PageCipherMode {
        self.mode
    }

    /// Commit tag of one ciphertext page image under its IV.
    ///
    /// # Panics
    ///
    /// Panics if `page` is shorter than one block.
    #[must_use]
    pub fn tag(&self, iv: &[u8; 16], page: &[u8]) -> [u8; 16] {
        if self.mode.is_chaining() {
            tail(page)
        } else {
            self.mac(iv, page)
        }
    }

    /// The page MAC of `page` under its 16-byte tweak.
    #[must_use]
    pub(crate) fn mac(&self, tweak: &[u8; 16], page: &[u8]) -> [u8; 16] {
        #[cfg(test)]
        crate::transition::mac_audit::record(1);
        self.cmac.mac_parts(&[tweak, page])
    }

    /// The page MACs of a run of pages, page `i` of `buf` under `ivs[i]`:
    /// one batch CMAC, so independent pages fill the bitsliced lanes. An
    /// empty run makes no call.
    fn macs(&self, ivs: &[[u8; 16]], buf: &[u8]) -> Vec<[u8; 16]> {
        if ivs.is_empty() {
            return Vec::new();
        }
        #[cfg(test)]
        crate::transition::mac_audit::record(ivs.len());
        self.cmac.mac_extents(ivs, buf, PAGE_SIZE as usize)
    }

    /// Stamp each entry with the commit tag of its ciphertext page
    /// image: page `i` of `buf`, tagged under entry `i`'s IV.
    ///
    /// # Panics
    ///
    /// Panics unless `buf` holds exactly one page per entry — a short
    /// buffer would leave the trailing entries with a stale tag.
    pub(crate) fn stamp(&self, entries: &mut [JournalEntry], buf: &[u8]) {
        let page = PAGE_SIZE as usize;
        assert_eq!(
            buf.len(),
            entries.len() * page,
            "{} journal entries need exactly one page each",
            entries.len()
        );
        let tags = if self.mode.is_chaining() {
            buf.chunks_exact(page).map(tail).collect()
        } else {
            self.macs(&ivs(entries), buf)
        };
        for (e, tag) in entries.iter_mut().zip(tags) {
            e.tag = tag;
        }
    }

    /// The page MACs of stamped entries, page `i` of `buf` under entry
    /// `i`'s IV: under XTS/CTR the commit tags themselves, under CBC one
    /// batch CMAC.
    pub(crate) fn page_macs(&self, entries: &[JournalEntry], buf: &[u8]) -> Vec<[u8; 16]> {
        if self.mode.is_chaining() {
            self.macs(&ivs(entries), buf)
        } else {
            entries.iter().map(|e| e.tag).collect()
        }
    }
}

/// The final 16-byte block of a page image.
fn tail(page: &[u8]) -> [u8; 16] {
    page[page.len() - 16..]
        .try_into()
        .expect("page has a 16-byte tail")
}

/// The IVs of planned entries, in order.
fn ivs(entries: &[JournalEntry]) -> Vec<[u8; 16]> {
    entries.iter().map(|e| e.iv).collect()
}

/// The journal: one on-SoC (iRAM) page plus an in-memory mirror of
/// whether a transition is currently open.
#[derive(Debug)]
pub struct TxnJournal {
    base: u64,
    open_op: Option<TxnOp>,
}

impl TxnJournal {
    /// A journal over the iRAM page at `base`. The page's prior content
    /// is irrelevant until `TxnJournal::open` stamps the magic;
    /// freshly booted iRAM reads as zero, which parses as "idle".
    #[must_use]
    pub fn new(base: u64) -> Self {
        TxnJournal {
            base,
            open_op: None,
        }
    }

    /// Whether a transition chunk is open right now (in-memory mirror —
    /// exact while the instance is live; after a crash, the truth is
    /// whatever [`TxnJournal::load`] reads back).
    #[must_use]
    pub(crate) fn in_flight(&self) -> bool {
        self.open_op.is_some()
    }

    /// Open a transition chunk: write every entry, then the header.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_ENTRIES`] entries are given or a chunk
    /// is already open — both are caller bugs, not runtime conditions.
    ///
    /// # Errors
    ///
    /// Propagates iRAM write failures.
    pub(crate) fn open(
        &mut self,
        soc: &mut Soc,
        op: TxnOp,
        entries: &[JournalEntry],
    ) -> Result<(), SentryError> {
        assert!(entries.len() <= MAX_ENTRIES, "journal chunk too large");
        assert!(self.open_op.is_none(), "journal already open");
        for (i, entry) in entries.iter().enumerate() {
            soc.mem_write(self.entry_addr(i), &entry.to_bytes())
                .map_err(SentryError::Soc)?;
        }
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = op.code();
        header[6..8].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        soc.mem_write(self.base, &header)
            .map_err(SentryError::Soc)?;
        self.open_op = Some(op);
        Ok(())
    }

    /// Mark entry `index` of the open chunk done.
    ///
    /// # Errors
    ///
    /// Propagates iRAM write failures.
    pub(crate) fn mark_done(&mut self, soc: &mut Soc, index: usize) -> Result<(), SentryError> {
        soc.mem_write(self.entry_addr(index) + 4, &[1u8])
            .map_err(SentryError::Soc)?;
        Ok(())
    }

    /// Close the chunk: zero the header (entries become unreachable).
    ///
    /// # Errors
    ///
    /// Propagates iRAM write failures.
    pub(crate) fn close(&mut self, soc: &mut Soc) -> Result<(), SentryError> {
        soc.mem_write(self.base, &[0u8; HEADER_LEN as usize])
            .map_err(SentryError::Soc)?;
        self.open_op = None;
        Ok(())
    }

    /// Read the journal back from iRAM: `None` when idle (no magic, or
    /// an unparseable header — e.g. zeroed by a boot-ROM power cycle).
    ///
    /// Also re-synchronizes the in-memory mirror, so `load` on a
    /// freshly recovered instance is the source of truth.
    ///
    /// # Errors
    ///
    /// Propagates iRAM read failures.
    pub fn load(
        &mut self,
        soc: &mut Soc,
    ) -> Result<Option<(TxnOp, Vec<JournalEntry>)>, SentryError> {
        let mut header = [0u8; HEADER_LEN as usize];
        soc.mem_read(self.base, &mut header)
            .map_err(SentryError::Soc)?;
        let count = u16::from_le_bytes(header[6..8].try_into().unwrap()) as usize;
        let parsed = if header[0..4] == MAGIC && count <= MAX_ENTRIES {
            TxnOp::from_code(header[4])
        } else {
            None
        };
        let Some(op) = parsed else {
            self.open_op = None;
            return Ok(None);
        };
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let mut b = [0u8; ENTRY_LEN as usize];
            soc.mem_read(self.entry_addr(i), &mut b)
                .map_err(SentryError::Soc)?;
            entries.push(JournalEntry::from_bytes(&b));
        }
        self.open_op = Some(op);
        Ok(Some((op, entries)))
    }

    fn entry_addr(&self, index: usize) -> u64 {
        self.base + HEADER_LEN + index as u64 * ENTRY_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentry_soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED};

    fn journal_page() -> u64 {
        IRAM_BASE + IRAM_FIRMWARE_RESERVED
    }

    fn entry(i: u8) -> JournalEntry {
        JournalEntry {
            pid: u32::from(i),
            vpn: u64::from(i) * 3,
            src: 0x8000_0000 + u64::from(i) * 4096,
            frame: 0x8000_0000 + u64::from(i) * 4096,
            version: 7,
            iv: [i; 16],
            tag: [i ^ 0xFF; 16],
            done: false,
        }
    }

    #[test]
    fn entries_roundtrip_through_bytes() {
        let e = entry(9);
        assert_eq!(JournalEntry::from_bytes(&e.to_bytes()), e);
    }

    #[test]
    fn open_load_roundtrips_and_close_clears() {
        let mut soc = Soc::tegra3_small();
        let mut j = TxnJournal::new(journal_page());
        assert!(!j.in_flight());
        assert_eq!(j.load(&mut soc).unwrap(), None, "fresh iRAM parses idle");

        let entries: Vec<JournalEntry> = (0..5).map(entry).collect();
        j.open(&mut soc, TxnOp::Encrypt, &entries).unwrap();
        assert!(j.in_flight());
        j.mark_done(&mut soc, 2).unwrap();

        // A second journal instance over the same page (a recovering
        // boot) reads the same transition back.
        let mut j2 = TxnJournal::new(journal_page());
        let (op, read) = j2.load(&mut soc).unwrap().expect("open transition");
        assert_eq!(op, TxnOp::Encrypt);
        assert_eq!(read.len(), 5);
        assert!(read[2].done);
        assert!(!read[0].done && !read[4].done);
        assert_eq!(read[0].iv, [0u8; 16]);
        assert!(j2.in_flight());

        j2.close(&mut soc).unwrap();
        assert!(!j2.in_flight());
        assert_eq!(j2.load(&mut soc).unwrap(), None);
    }

    #[test]
    fn capacity_matches_the_page_layout() {
        assert_eq!(MAX_ENTRIES, 56);
        let mut soc = Soc::tegra3_small();
        let mut j = TxnJournal::new(journal_page());
        let entries: Vec<JournalEntry> = (0..MAX_ENTRIES as u8).map(entry).collect();
        j.open(&mut soc, TxnOp::Decrypt, &entries).unwrap();
        let (_, read) = j.load(&mut soc).unwrap().unwrap();
        assert_eq!(read.len(), MAX_ENTRIES);
        assert_eq!(read.last().unwrap().iv, [(MAX_ENTRIES - 1) as u8; 16]);
    }

    #[test]
    fn garbage_header_parses_as_idle() {
        let mut soc = Soc::tegra3_small();
        let mut j = TxnJournal::new(journal_page());
        soc.mem_write(journal_page(), b"JUNKJUNKJUNKJUNK").unwrap();
        assert_eq!(j.load(&mut soc).unwrap(), None);
        // Valid magic but nonsense op code: also idle.
        let mut header = [0u8; 16];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = 9;
        soc.mem_write(journal_page(), &header).unwrap();
        assert_eq!(j.load(&mut soc).unwrap(), None);
    }

    #[test]
    fn stamp_equals_the_per_page_tag_in_every_mode() {
        // 17 pages: one full lane group plus one page on the scalar chain.
        let buf: Vec<u8> = (0..17 * PAGE_SIZE as usize)
            .map(|i| (i * 13 + 5) as u8)
            .collect();
        for mode in PageCipherMode::all() {
            let tagger = CommitTagger::new(mode, &[0x3Cu8; 16]).unwrap();
            let mut entries: Vec<JournalEntry> = (0..17).map(entry).collect();
            tagger.stamp(&mut entries, &buf);
            for (e, page) in entries.iter().zip(buf.chunks_exact(PAGE_SIZE as usize)) {
                assert_eq!(e.tag, tagger.tag(&e.iv, page), "{mode}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 journal entries need exactly one page each")]
    fn stamp_rejects_a_short_buffer() {
        let tagger = CommitTagger::new(PageCipherMode::Xts, &[0x3Cu8; 16]).unwrap();
        let mut entries: Vec<JournalEntry> = (0..3).map(entry).collect();
        tagger.stamp(&mut entries, &vec![0u8; 2 * PAGE_SIZE as usize]);
    }
}
