//! The journaled page-transition primitive.
//!
//! Every path that moves a sensitive page between plaintext and
//! ciphertext in DRAM — lock, unlock, fault-cluster decrypt, sweep, and
//! the pager's evictions — is a *planner*: it picks the pages, their
//! source and target addresses, IVs and epochs (one [`JournalEntry`]
//! each), and runs the crypt into host scratch. Everything after the
//! crypt is `Transition::commit`: chunking at [`MAX_ENTRIES`], the
//! journal's open / mark-done / close, the integrity tags, the
//! direction-dependent publish order, and the PTE flip for every sharer
//! of each frame.

use crate::error::SentryError;
use crate::integrity::{IntegrityPlane, QuarantinedPage, VerifyOutcome, TAG_BYTES};
use crate::onsoc::OnSocStore;
use crate::txn::{CommitTagger, JournalEntry, TxnJournal, TxnOp, MAX_ENTRIES};
use sentry_crypto::Direction;
use sentry_kernel::pagetable::{Backing, Sharing};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;

/// How a transition publishes its pages: which failpoint sites each
/// step passes, and where the integrity tags are stored and checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Encrypt-on-lock: `txn.publish` before each write, `txn.flip`
    /// before each PTE flip; all tags stored before the first chunk.
    Lock,
    /// The pager's lock-time sweep: `pager.evict` before each write;
    /// all tags stored before the first chunk.
    EvictAll,
    /// One FIFO eviction: the tag is stored inside the open journal, the
    /// page copy is charged at the publish, and the published frame is
    /// read back and MAC-checked before its PTE flips.
    EvictOne,
    /// Unlock, fault cluster, and sweep: `txn.flip`, then `txn.publish`,
    /// then an in-place frame's tag is retired. An out-of-place entry
    /// (`src` ≠ `frame`, placed by the commit) keeps its source frame
    /// and tag as the page's home frame.
    Decrypt,
}

/// The state a transition leaves every mapping of a frame in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PageState {
    /// Ciphertext in DRAM, produced at `epoch`: every access traps.
    Ciphertext { epoch: u64 },
    /// Plaintext in DRAM. `kept` is the frame that still holds the
    /// page's ciphertext after an out-of-place decrypt.
    Plaintext { kept: Option<u64> },
}

/// The machine state a journaled page transition mutates, borrowed from
/// [`crate::Sentry`] so the lifecycle and the pager commit through one
/// path.
#[derive(Debug)]
pub struct Transition<'a> {
    /// The kernel (and through it, the SoC).
    pub kernel: &'a mut Kernel,
    /// On-SoC storage (the integrity tag store allocates from it).
    pub store: &'a mut OnSocStore,
    /// The crash-consistency journal.
    pub txn: &'a mut TxnJournal,
    /// The integrity plane: tags stored before an encrypt publishes,
    /// checked before a decrypt, retired after it.
    pub integrity: &'a mut IntegrityPlane,
    /// The journal commit-tag scheme.
    pub tagger: &'a CommitTagger,
}

impl Transition<'_> {
    /// Read each planned page's source bytes into one contiguous scratch
    /// run, page `i` at chunk `i`. Nothing here writes DRAM.
    pub(crate) fn gather(&mut self, pages: &[JournalEntry]) -> Result<Vec<u8>, SentryError> {
        let page = PAGE_SIZE as usize;
        let mut buf = vec![0u8; pages.len() * page];
        for (chunk, e) in buf.chunks_exact_mut(page).zip(pages) {
            self.kernel.soc.mem_read(e.src, chunk)?;
        }
        Ok(buf)
    }

    /// Gather the planned pages' ciphertext and MAC-verify it against the
    /// on-SoC tag store *before* the block cipher runs. Pages that fail
    /// (after the bounded re-reads) are quarantined and dropped from
    /// `pages` — their PTEs stay encrypted — and the authentic remainder
    /// proceeds: graceful degradation, not a panic.
    pub(crate) fn gather_verified(
        &mut self,
        pages: &mut Vec<JournalEntry>,
    ) -> Result<Vec<u8>, SentryError> {
        if pages.is_empty() {
            return Ok(Vec::new());
        }
        let mut buf = self.gather(pages)?;
        let outcomes = self.integrity.verify_frames(
            &mut self.kernel.soc,
            self.store,
            &jobs(pages),
            &mut buf,
        )?;
        if !outcomes
            .iter()
            .any(|o| matches!(o, VerifyOutcome::Mismatch { .. }))
        {
            return Ok(buf);
        }
        let mut kept = Vec::with_capacity(buf.len());
        let mut verdicts = outcomes
            .into_iter()
            .zip(buf.chunks_exact(PAGE_SIZE as usize));
        pages.retain(|e| match verdicts.next().expect("one outcome per page") {
            (VerifyOutcome::Mismatch { expected, got }, _) => {
                let _ = self.quarantine(e, expected, got);
                false
            }
            (_, chunk) => {
                kept.extend_from_slice(chunk);
                true
            }
        });
        Ok(kept)
    }

    /// Quarantine a planned page whose ciphertext failed its MAC and
    /// return the typed violation.
    pub(crate) fn quarantine(
        &mut self,
        e: &JournalEntry,
        expected: [u8; TAG_BYTES],
        got: [u8; TAG_BYTES],
    ) -> SentryError {
        self.integrity.quarantine(QuarantinedPage {
            pid: e.pid,
            vpn: e.vpn,
            frame: e.frame,
            epoch: e.epoch,
            tag_expected: expected,
            tag_got: got,
        })
    }

    /// Journal, publish, and flip planned pages whose transformed bytes
    /// sit in `buf` (page `i` at chunk `i`) and whose entries carry their
    /// commit tags — a per-page two-phase commit, in journal chunks of at
    /// most [`MAX_ENTRIES`].
    ///
    /// The publish order depends on the direction, and it is what keeps
    /// every kill recoverable: a PTE claiming "encrypted" never fronts a
    /// plaintext frame.
    ///
    /// * **Encrypt** publishes first: the ciphertext lands, *then* the
    ///   PTE flips. A kill in between leaves a PTE that still says
    ///   plaintext over a ciphertext frame, which recovery's tag
    ///   comparison completes by flipping. The integrity tags are on-SoC
    ///   before any ciphertext is visible in DRAM, so there is no window
    ///   for unrecorded tampering.
    /// * **Decrypt** flips first: the PTE's encrypted bit clears *before*
    ///   the plaintext lands. An in-place frame's tag is retired before
    ///   the entry is marked done, so a kill in between re-runs the
    ///   (idempotent) retire rather than leaving a stale tag that would
    ///   poison the frame's next encrypt cycle. An out-of-place entry
    ///   publishes into its fresh frame and never writes its source.
    ///   The commit places each chunk (see `Transition::place`) right
    ///   before its journal opens, and gives the fresh frames back if
    ///   the open fails: a frame is either journaled or free.
    ///
    /// # Errors
    ///
    /// Propagates journal, memory, and tag-store errors; a
    /// [`Kind::EvictOne`] read-back mismatch quarantines the frame and
    /// returns the violation with the journal left open, so
    /// [`crate::Sentry::recover`] rolls the eviction forward from the
    /// still-intact on-SoC source.
    pub(crate) fn commit(
        &mut self,
        kind: Kind,
        target_epoch: u64,
        pages: &[JournalEntry],
        buf: &[u8],
    ) -> Result<(), SentryError> {
        let op = match kind {
            Kind::Decrypt => TxnOp::Decrypt,
            Kind::Lock | Kind::EvictAll | Kind::EvictOne => TxnOp::Encrypt,
        };
        if matches!(kind, Kind::Lock | Kind::EvictAll) {
            self.store_tags(pages, buf)?;
        }
        let page = PAGE_SIZE as usize;
        for (chunk, bytes) in pages
            .chunks(MAX_ENTRIES)
            .zip(buf.chunks(MAX_ENTRIES * page))
        {
            let chunk = &self.place(kind, chunk);
            if let Err(e) = self.txn.open(&mut self.kernel.soc, op, target_epoch, chunk) {
                let fresh = chunk.iter().rev().filter(|e| e.src != e.frame);
                self.kernel.frames.give_back(fresh.map(|e| e.frame));
                return Err(e);
            }
            if kind == Kind::EvictOne {
                self.store_tags(chunk, bytes)?;
            }
            for (i, (e, data)) in chunk.iter().zip(bytes.chunks_exact(page)).enumerate() {
                if op == TxnOp::Decrypt {
                    self.kernel.soc.failpoint("txn.flip")?;
                    let kept = (e.src != e.frame).then_some(e.src);
                    let state = PageState::Plaintext { kept };
                    set_page_state(self.kernel, e.frame, (e.pid, e.vpn), state);
                }
                let publish_site = match kind {
                    Kind::Lock | Kind::Decrypt => "txn.publish",
                    Kind::EvictAll | Kind::EvictOne => "pager.evict",
                };
                self.kernel.soc.failpoint(publish_site)?;
                if kind == Kind::EvictOne {
                    let copy_ns = self.kernel.soc.costs.page_copy_ns;
                    self.kernel.soc.clock.advance(copy_ns);
                }
                self.kernel.soc.mem_write(e.frame, data)?;
                match kind {
                    Kind::Decrypt if e.src == e.frame => {
                        self.integrity.retire_tag(&mut self.kernel.soc, e.frame)?;
                    }
                    Kind::Decrypt => {}
                    Kind::Lock => self.kernel.soc.failpoint("txn.flip")?,
                    Kind::EvictOne => self.verify_published(e)?,
                    Kind::EvictAll => {}
                }
                if op == TxnOp::Encrypt {
                    let state = PageState::Ciphertext { epoch: e.epoch };
                    set_page_state(self.kernel, e.frame, (e.pid, e.vpn), state);
                }
                if let Some(proc) = self.kernel.procs.get_mut(&e.pid) {
                    match op {
                        TxnOp::Encrypt => proc.stats.bytes_encrypted += PAGE_SIZE,
                        TxnOp::Decrypt => proc.stats.bytes_decrypted += PAGE_SIZE,
                    }
                }
                self.txn.mark_done(&mut self.kernel.soc, i)?;
            }
            self.txn.close(&mut self.kernel.soc)?;
        }
        Ok(())
    }

    /// Choose where each decrypt entry of `chunk` publishes. A page
    /// keeps its ciphertext — its entry gets a fresh frame, and `src`
    /// stays behind with its tag as the page's home frame — unless one
    /// of four cases decrypts it in place, as every other kind does:
    ///
    /// * a DMA region: devices address the frame itself and never set
    ///   `dirty`;
    /// * a page written before its lock (`Pte::dirty` survives the
    ///   encrypt): it will likely be written again, and a kept frame
    ///   would only add a line fill per cache line to its decrypt;
    /// * a frame shared among sensitive processes;
    /// * every page once the pool has no clean frame — the DRAM cap.
    fn place(&mut self, kind: Kind, chunk: &[JournalEntry]) -> Vec<JournalEntry> {
        if kind != Kind::Decrypt {
            return chunk.to_vec();
        }
        let kernel = &mut *self.kernel;
        chunk
            .iter()
            .map(|e| {
                let keeps = kernel.sharers_of(e.src).is_none()
                    && kernel
                        .procs
                        .get(&e.pid)
                        .and_then(|p| p.page_table.get(e.vpn))
                        .is_some_and(|pte| !pte.written());
                let fresh = if keeps { kernel.frames.alloc() } else { None };
                JournalEntry {
                    frame: fresh.unwrap_or(e.src),
                    ..*e
                }
            })
            .collect()
    }

    /// Store the integrity tags of freshly encrypted pages on-SoC.
    fn store_tags(&mut self, pages: &[JournalEntry], buf: &[u8]) -> Result<(), SentryError> {
        self.integrity
            .store_tags(&mut self.kernel.soc, self.store, &jobs(pages), buf)
    }

    /// Read-back verify: the published frame must MAC against the tag
    /// just stored. An active attacker racing the publish (or a failing
    /// DRAM cell) is caught here, not at the next unlock; the bounded
    /// re-reads heal a transient glitch, a persistent mismatch
    /// quarantines the frame.
    fn verify_published(&mut self, e: &JournalEntry) -> Result<(), SentryError> {
        if !self.integrity.enabled() {
            return Ok(());
        }
        let mut readback = vec![0u8; PAGE_SIZE as usize];
        self.kernel.soc.mem_read(e.frame, &mut readback)?;
        match self.integrity.verify_one(
            &mut self.kernel.soc,
            self.store,
            e.frame,
            &e.iv,
            &mut readback,
        )? {
            VerifyOutcome::Mismatch { expected, got } => Err(self.quarantine(e, expected, got)),
            VerifyOutcome::Ok | VerifyOutcome::Untagged => Ok(()),
        }
    }
}

/// The `(frame, iv)` pairs the integrity plane keys its tags by.
fn jobs(pages: &[JournalEntry]) -> Vec<(u64, [u8; 16])> {
    pages.iter().map(|e| (e.frame, e.iv)).collect()
}

/// Set every mapping of `frame` — each sharer, or `owner` alone when the
/// frame is private — to `state`. Idempotent, so recovery replays it.
pub(crate) fn set_page_state(kernel: &mut Kernel, frame: u64, owner: (Pid, u64), state: PageState) {
    let mappings = kernel
        .sharers_of(frame)
        .map_or_else(|| vec![owner], <[(Pid, u64)]>::to_vec);
    let shared = mappings.len() > 1;
    for (pid, vpn) in mappings {
        let Some(pte) = kernel
            .procs
            .get_mut(&pid)
            .and_then(|p| p.page_table.get_mut(vpn))
        else {
            continue;
        };
        match state {
            PageState::Ciphertext { epoch } => {
                pte.backing = Backing::Dram(frame);
                pte.home_frame = None;
                pte.encrypted = true;
                pte.young = false;
                pte.crypt_epoch = epoch;
                if shared {
                    pte.sharing = Sharing::SharedSensitiveOnly;
                }
            }
            PageState::Plaintext { kept } => {
                pte.encrypted = false;
                pte.young = true;
                pte.dirty = false;
                if kept.is_some() {
                    pte.backing = Backing::Dram(frame);
                    pte.home_frame = kept;
                }
            }
        }
    }
}

/// Run one page through the registered cipher engine in place — the
/// exact single-page dispatch (`crypt.one`).
pub(crate) fn crypt_page(
    kernel: &mut Kernel,
    direction: Direction,
    iv: &[u8; 16],
    page: &mut [u8],
) -> Result<(), SentryError> {
    let Kernel { soc, crypto, .. } = kernel;
    let engine = crypto.preferred_mut()?;
    match direction {
        Direction::Encrypt => engine.encrypt(soc, iv, page)?,
        Direction::Decrypt => engine.decrypt(soc, iv, page)?,
    }
    Ok(())
}

/// Run a contiguous run of pages (page `i` under `ivs[i]`) through the
/// registered cipher engine as one extent request (`crypt.extent`): one
/// batched kernel stream, one IRQ-critical section.
pub(crate) fn crypt_extent(
    kernel: &mut Kernel,
    direction: Direction,
    ivs: &[[u8; 16]],
    buf: &mut [u8],
) -> Result<(), SentryError> {
    let Kernel { soc, crypto, .. } = kernel;
    let engine = crypto.preferred_mut()?;
    match direction {
        Direction::Encrypt => engine.encrypt_extent(soc, ivs, buf)?,
        Direction::Decrypt => engine.decrypt_extent(soc, ivs, buf)?,
    }
    Ok(())
}

/// Hand every lifecycle page encrypt — its IVs and the plaintext about
/// to be encrypted under them — to the unit tests' nonce audit. Compiled
/// to nothing outside `cfg(test)`.
#[cfg(not(test))]
pub(crate) fn audit_encrypts(_ivs: &[[u8; 16]], _plaintext: &[u8]) {}

#[cfg(test)]
pub(crate) use nonce_audit::record as audit_encrypts;

/// The unit tests' nonce audit: while armed on a thread, it remembers a
/// digest of the plaintext each IV encrypted and flags an IV that
/// encrypts a second, different plaintext.
#[cfg(test)]
pub(crate) mod nonce_audit {
    use sentry_soc::addr::PAGE_SIZE;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::hash::{DefaultHasher, Hash, Hasher};

    #[derive(Default)]
    struct Audit {
        seen: HashMap<[u8; 16], u64>,
        encrypts: usize,
        reuses: Vec<[u8; 16]>,
    }

    thread_local! {
        static AUDIT: RefCell<Option<Audit>> = const { RefCell::new(None) };
    }

    /// Start auditing this thread's encrypts.
    pub(crate) fn arm() {
        AUDIT.with(|a| *a.borrow_mut() = Some(Audit::default()));
    }

    /// Stop auditing; returns the encrypts seen and every IV that
    /// encrypted two different plaintexts.
    pub(crate) fn disarm() -> (usize, Vec<[u8; 16]>) {
        AUDIT.with(|a| {
            a.borrow_mut()
                .take()
                .map_or((0, Vec::new()), |a| (a.encrypts, a.reuses))
        })
    }

    /// Note that page `i` of `plaintext` is about to be encrypted under
    /// `ivs[i]`.
    pub(crate) fn record(ivs: &[[u8; 16]], plaintext: &[u8]) {
        AUDIT.with(|a| {
            let mut a = a.borrow_mut();
            let Some(audit) = a.as_mut() else { return };
            for (iv, image) in ivs.iter().zip(plaintext.chunks_exact(PAGE_SIZE as usize)) {
                let mut h = DefaultHasher::new();
                image.hash(&mut h);
                let digest = h.finish();
                audit.encrypts += 1;
                if *audit.seen.entry(*iv).or_insert(digest) != digest {
                    audit.reuses.push(*iv);
                }
            }
        });
    }
}
