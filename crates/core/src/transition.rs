//! The journaled page-transition primitive.
//!
//! Every path that moves a sensitive page between plaintext and
//! ciphertext — lock, unlock, fault-cluster decrypt, sweep, the pager's
//! evictions and page-ins, and recovery's redo of an interrupted entry —
//! runs the same steps:
//!
//! 1. **Plan.** The entry point (or the pager) picks the pages and
//!    plans one [`JournalEntry`] each: source and target address, IV and
//!    the page version it binds. Every IV comes from [`page_iv`], the
//!    one IV rule.
//! 2. **Crypt.** `Transition::crypt` transforms the gathered pages in
//!    host scratch. It is the only code that reaches a cipher: one
//!    engine call, the modelled lanes, or — for a decrypt batch with the
//!    pipeline enabled — the accelerator through
//!    [`sentry_kernel::offload`], dm-crypt's offload path too. It
//!    retries an injected crypt fault up to `MAX_CRYPT_RETRIES`
//!    attempts. Each journaled page is MACed once: an encrypt's output
//!    is stamped after the crypt step, and a decrypt's input is stamped
//!    by `Transition::verify`, whose integrity check computes the same
//!    MAC. Every page ciphertext that reaches DRAM passes the nonce
//!    audit of debug builds (see [`nonce_audit`]).
//! 3. **Commit.** `Transition::commit` owns chunking at `MAX_ENTRIES`,
//!    the journal's open / mark-done / close, the integrity tags, the
//!    direction-dependent publish order, and the PTE flip for every
//!    sharer of each frame. A lock is one encrypt commit: the pager's
//!    written resident pages ride in it beside the lock's own pages. A
//!    locked page fault commits its eviction through `Transition::fault`,
//!    a one-entry journal that also checks the incoming page; the
//!    page-in publishes on-SoC and needs no journal. Recovery publishes
//!    the entry the open journal names.

use crate::config::OnSocBackend;
use crate::error::SentryError;
use crate::integrity::{IntegrityPlane, QuarantinedPage, VerifyOutcome, TAG_BYTES};
use crate::keys::VolatileRootKey;
use crate::lifecycle::{LifecycleStats, MAX_CRYPT_RETRIES};
use crate::onsoc::OnSocStore;
use crate::txn::{JournalEntry, TxnJournal, TxnOp, MAX_ENTRIES};
use crate::SentryConfig;
use sentry_crypto::{Direction, HealthGovernor, PageCipher};
use sentry_kernel::offload::{offload, Offload, Outcome, Path};
use sentry_kernel::pagetable::{Backing, Pte, Sharing};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::accel::WaitOutcome;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::Soc;

/// Whose identity and which version a planned page's IV binds.
#[derive(Debug, Clone, Copy)]
pub enum IvSource<'a> {
    /// A fresh encrypt of the page `Pte` describes, in lock epoch `u64`
    /// (a lock's target epoch, or the current one for a locked
    /// eviction), under the planned mapping's own identity.
    Encrypt(&'a Pte, u64),
    /// The ciphertext a mapping's PTE describes: the IV owner and the
    /// version the PTE recorded when that ciphertext was produced.
    Stored(&'a Pte),
}

/// The one IV rule: the IV of `mapping`'s page and the version it binds.
///
/// The IV is `pid | vpn | version | block index`, big-endian, in 4, 4,
/// 6 and 2 bytes. The `(pid, vpn)` identity makes every page encrypt
/// differently under the volatile root key. The version makes one page
/// never encrypt two plaintexts under one IV: the volatile key survives
/// lock→unlock→lock and dies only on power-off, and a locked device
/// evicts a page again each time a background app rewrites it, so
/// without it a CTR page would reuse keystream (C1⊕C2 = P1⊕P2) and a
/// CBC or XTS page would show which blocks did not change.
///
/// A fresh encrypt takes version `max(recorded + 1, epoch << 32)`:
/// above every version the PTE recorded, and at least the lock epoch's
/// floor. The floor keeps versions rising when `free_page` and
/// `map_anon` give the same `(pid, vpn)` a fresh PTE between locks, and
/// it keeps a retried lock at the versions the killed one planned. A
/// re-armed page encrypts nothing and keeps its version. The block
/// index starts at 0 in the low two bytes, alone, because CTR
/// increments the whole block big-endian: a page's 256 blocks never
/// carry into the version.
///
/// An encrypt binds the planned mapping — for a shared frame, its first
/// sharer — and the version; the publish records both in every mapping
/// of the frame (`Pte::iv_owner`, `Pte::crypt_version`). Every later
/// use of that ciphertext — decrypt, page-in, re-arm, boot audit — reads
/// them back, so a shared frame still decrypts after its IV owner exits.
///
/// # Panics
///
/// A vpn past 32 bits or a version past 48 bits (65,536 lock epochs),
/// which the IV cannot hold.
#[must_use]
pub fn page_iv(mapping: (Pid, u64), source: IvSource<'_>) -> ([u8; 16], u64) {
    let ((pid, vpn), version) = match source {
        IvSource::Encrypt(pte, epoch) => {
            let floor = epoch
                .checked_mul(1 << 32)
                .expect("the lock epoch fits in the IV");
            (mapping, (pte.crypt_version + 1).max(floor))
        }
        IvSource::Stored(pte) => (pte.iv_owner.unwrap_or(mapping), pte.crypt_version),
    };
    let vpn = u32::try_from(vpn).expect("a vpn fits in the IV's 32 bits");
    assert!(
        version < 1 << 48,
        "page version {version:#x} overflows the IV"
    );
    let mut iv = [0u8; 16];
    iv[..4].copy_from_slice(&pid.to_be_bytes());
    iv[4..8].copy_from_slice(&vpn.to_be_bytes());
    iv[8..14].copy_from_slice(&version.to_be_bytes()[2..]);
    (iv, version)
}

/// Plan `mapping`'s page moving from `src` to `frame` under the IV
/// `source` names.
pub(crate) fn plan(
    mapping: (Pid, u64),
    src: u64,
    frame: u64,
    source: IvSource<'_>,
) -> JournalEntry {
    let (iv, version) = page_iv(mapping, source);
    JournalEntry::new(mapping.0, mapping.1, src, frame, iv, version)
}

/// How the crypt step hands a run of pages to a cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A lifecycle batch (lock, unlock, fault cluster, sweep): the
    /// `crypt.dispatch` site, then the modelled lanes or one engine call;
    /// a decrypt takes the accelerator queue when the pipeline accepts
    /// it. Counted in the batch statistics.
    Batch,
    /// One engine call: a locked fault's eviction and page-in, a
    /// recovery redo.
    Engine,
}

/// The state a transition leaves every mapping of a frame in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PageState {
    /// Fresh ciphertext in DRAM, encrypted at `version` under the IV of
    /// the mapping `set_page_state` is given: every mapping of the frame
    /// records both, and every access traps.
    Encrypted { version: u64 },
    /// Back onto the ciphertext the frame still holds, under the IV
    /// identity its mappings recorded at that encrypt: every access
    /// traps.
    Rearmed,
    /// Plaintext in DRAM. `kept` is the frame that still holds the
    /// page's ciphertext after an out-of-place decrypt.
    Plaintext { kept: Option<u64> },
    /// Plaintext in the on-SoC pager slot at `slot`; the frame still
    /// holds the page's ciphertext. Every sharer maps the one slot, so
    /// a write through one mapping is seen through all.
    Resident { slot: u64 },
}

/// The machine state a page transition mutates, borrowed from
/// [`crate::Sentry`] for one entry point (`op`).
#[derive(Debug)]
pub(crate) struct Transition<'a> {
    /// The entry point, named in [`SentryError::RetriesExhausted`].
    pub(crate) op: &'static str,
    pub(crate) kernel: &'a mut Kernel,
    /// On-SoC storage (the integrity tag store allocates from it).
    pub(crate) store: &'a mut OnSocStore,
    pub(crate) txn: &'a mut TxnJournal,
    /// Tags stored before an encrypt publishes, checked before a
    /// decrypt, retired after it; its page MAC stamps commit tags.
    pub(crate) integrity: &'a mut IntegrityPlane,
    pub(crate) config: &'a SentryConfig,
    /// The key the modelled lanes expand their context from.
    pub(crate) key: VolatileRootKey,
    /// Watchdog and breaker of the accelerator route.
    pub(crate) health: &'a mut HealthGovernor,
    pub(crate) stats: &'a mut LifecycleStats,
}

impl Transition<'_> {
    /// Gather, crypt as one batch, and commit planned pages; a decrypt
    /// MAC-verifies what it gathered first (see [`Transition::verify`]),
    /// an encrypt stamps what the crypt step produced. Returns the crypt
    /// step's batch report.
    pub(crate) fn run(
        &mut self,
        op: TxnOp,
        mut pages: Vec<JournalEntry>,
    ) -> Result<BatchReport, SentryError> {
        let mut buf = self.gather(&pages)?;
        let report = match op {
            TxnOp::Encrypt => {
                let report = self.crypt(Route::Batch, Direction::Encrypt, &pages, &mut buf)?;
                self.stamp(&mut pages, &buf);
                report
            }
            TxnOp::Decrypt => {
                self.verify(&mut pages, &mut buf)?;
                self.crypt(Route::Batch, Direction::Decrypt, &pages, &mut buf)?
            }
        };
        self.commit(op, &pages, &buf)?;
        Ok(report)
    }

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

    /// MAC-verify gathered ciphertext (page `i` of `buf` read from
    /// `pages[i].src`) against the on-SoC tag store *before* the block
    /// cipher runs, and stamp each entry with its commit tag. Pages that
    /// fail (after the bounded re-reads) are quarantined and dropped
    /// from `pages` and `buf` — their PTEs stay encrypted — and the
    /// authentic remainder proceeds: graceful degradation, not a panic.
    pub(crate) fn verify(
        &mut self,
        pages: &mut Vec<JournalEntry>,
        buf: &mut Vec<u8>,
    ) -> Result<(), SentryError> {
        if !self.integrity.enabled() {
            self.stamp(pages, buf);
            return Ok(());
        }
        let outcomes =
            self.integrity
                .verify_frames(&mut self.kernel.soc, self.store, pages, buf)?;
        if !outcomes
            .iter()
            .any(|o| matches!(o, VerifyOutcome::Mismatch { .. }))
        {
            return Ok(());
        }
        let mut kept = Vec::with_capacity(buf.len());
        let mut verdicts = outcomes
            .into_iter()
            .zip(buf.chunks_exact(PAGE_SIZE as usize));
        pages.retain(|e| match verdicts.next().expect("one outcome per page") {
            (VerifyOutcome::Mismatch { expected, got }, _) => {
                let source = JournalEntry { frame: e.src, ..*e };
                let _ = self.quarantine(&source, expected, got);
                false
            }
            (_, chunk) => {
                kept.extend_from_slice(chunk);
                true
            }
        });
        *buf = kept;
        Ok(())
    }

    /// Quarantine a planned page whose ciphertext at `e.frame` failed its
    /// MAC and return the typed violation.
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
            version: e.version,
            tag_expected: expected,
            tag_got: got,
        })
    }

    /// The crypt step of every transition: transform `buf` (page `i`
    /// read from `pages[i].src`) in place. DRAM is untouched; the caller
    /// stamps and publishes.
    ///
    /// An injected crypt fault fails the transform before anything is
    /// published, so the step gathers its sources again and retries, up
    /// to [`MAX_CRYPT_RETRIES`] attempts in all. Past the cap it reports
    /// [`SentryError::RetriesExhausted`] under the transition's `op`:
    /// the fault is persistent, and retrying forever would spin. Other
    /// errors (power loss, real memory errors) propagate at once.
    pub(crate) fn crypt(
        &mut self,
        route: Route,
        direction: Direction,
        pages: &[JournalEntry],
        buf: &mut [u8],
    ) -> Result<BatchReport, SentryError> {
        if pages.is_empty() {
            return Ok(sequential_report(0, 0));
        }
        let ivs: Vec<[u8; 16]> = pages.iter().map(|e| e.iv).collect();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let result = match route {
                Route::Engine => self
                    .engine(direction, &ivs, buf)
                    .map(|()| sequential_report(ivs.len(), buf.len())),
                Route::Batch if direction == Direction::Decrypt && self.config.pipeline.enabled => {
                    self.route_decrypt(&ivs, buf)
                }
                Route::Batch => self.batch(direction, &ivs, buf),
            };
            match result {
                Err(e) if e.is_injected_crypt_fault() => {
                    if attempts == MAX_CRYPT_RETRIES {
                        self.stats.crypt.exhausted += 1;
                        return Err(SentryError::RetriesExhausted {
                            op: self.op,
                            attempts,
                        });
                    }
                    self.stats.crypt.attempts += 1;
                    buf.copy_from_slice(&self.gather(pages)?);
                }
                result => {
                    if result.is_ok() && attempts > 1 {
                        self.stats.crypt.recovered += 1;
                    }
                    return result;
                }
            }
        }
    }

    /// One call into the registered cipher engine (`crypt.extent` on AES
    /// On SoC): one batched kernel stream, one IRQ-critical section.
    fn engine(
        &mut self,
        direction: Direction,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<(), SentryError> {
        let Kernel { soc, crypto, .. } = &mut *self.kernel;
        crypto.preferred_mut()?.crypt(soc, direction, ivs, buf)?;
        Ok(())
    }

    /// A lifecycle batch on the CPU, over
    /// `parallel_workers.min(pages)` modelled lanes (see
    /// [`crate::SentryConfig::parallel_workers`]).
    ///
    /// One lane (one worker, or a one-page batch) dispatches the pages
    /// through one call into the registered cipher engine, exactly like
    /// the serial prototype (the engine charge is linear in bytes, so
    /// this is cycle-identical to a per-page loop). More lanes model per-core
    /// register-resident contexts derived from the volatile root key —
    /// AES On SoC itself stays single-lane, its state page cannot be
    /// replicated — and the simulated clock is charged the serial AES
    /// cost divided by the lane count, in one IRQ-disabled critical
    /// section for the whole batch; the page copies to and from DRAM
    /// still run through the SoC at full cost. Either way the host work
    /// runs on the calling thread.
    fn batch(
        &mut self,
        direction: Direction,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<BatchReport, SentryError> {
        self.kernel.soc.failpoint("crypt.dispatch")?;
        let pages = ivs.len();
        let lanes = self.config.parallel_workers.min(pages).max(1);
        if lanes == 1 {
            self.engine(direction, ivs, buf)?;
        } else {
            let key = self.key.read(&mut self.kernel.soc)?;
            PageCipher::new(&key)?.crypt(self.config.cipher_mode, direction, ivs, buf);
            // Same calibrated per-block cost as the AES-On-SoC engine,
            // spread across the lanes.
            let state_access = match self.config.backend {
                OnSocBackend::Iram => self.kernel.soc.costs.iram_access_ns,
                OnSocBackend::LockedL2 { .. } => self.kernel.soc.costs.cache_hit_ns,
            };
            let charged_ns = self
                .kernel
                .soc
                .costs
                .aes_ns(buf.len() as u64, state_access)
                .div_ceil(lanes as u64);
            let soc = &mut self.kernel.soc;
            let was_enabled = soc.cpu.begin_critical();
            soc.clock.advance(charged_ns);
            soc.cpu.end_critical(was_enabled, charged_ns);
        }
        self.stats.crypt_batches += 1;
        self.stats.crypt_batch_pages += pages as u64;
        self.stats.largest_batch_pages = self.stats.largest_batch_pages.max(pages as u64);
        Ok(BatchReport {
            pages,
            bytes: buf.len() as u64,
            workers_used: lanes,
        })
    }

    /// A decrypt batch through [`offload`]: the accelerator queue, or the
    /// CPU ([`Transition::batch`]) when the ladder vetoes it (counted per
    /// reason in [`LifecycleStats::batch_fallback`]) or the descriptor
    /// fails. The batch blocks on the result, so a completed batch costs
    /// the queue's horizon and nothing else.
    fn route_decrypt(
        &mut self,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<BatchReport, SentryError> {
        let mode_ok = !self.config.cipher_mode.is_chaining();
        let (outcome, report) = offload(self, mode_ok, true, ivs, buf)?;
        match outcome {
            Outcome::Vetoed(reason) => self.stats.batch_fallback.note(reason),
            Outcome::Retired(WaitOutcome::Done { stall_ns }) => {
                self.stats.routed_batches += 1;
                self.stats.routed_batch_pages += ivs.len() as u64;
                self.stats.routed_stall_ns += stall_ns;
            }
            Outcome::Retired(_) => {}
        }
        Ok(report)
    }

    /// Stamp each entry with the commit tag of its ciphertext image, page
    /// `i` of `images`.
    pub(crate) fn stamp(&self, pages: &mut [JournalEntry], images: &[u8]) {
        self.integrity.tagger().stamp(pages, images);
    }

    /// Commit tag of the ciphertext image `e.frame` holds now, computed
    /// as the journal recorded it. Under the chaining mode the tag *is*
    /// the final CBC block, so only the frame's 16-byte tail is read;
    /// under XTS/CTR the whole frame is read and tagged under `e.iv`.
    pub(crate) fn frame_tag(&mut self, e: &JournalEntry) -> Result<[u8; 16], SentryError> {
        let mut image = vec![0u8; PAGE_SIZE as usize];
        let from = if self.integrity.tagger().mode().is_chaining() {
            image.len() - 16
        } else {
            0
        };
        self.kernel
            .soc
            .mem_read(e.frame + from as u64, &mut image[from..])?;
        let mut probe = [*e];
        self.stamp(&mut probe, &image);
        Ok(probe[0].tag)
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
    /// * **Encrypt** publishes first (`txn.publish`): the ciphertext
    ///   lands, *then* the PTE flips (`txn.flip`). A kill in between
    ///   leaves a PTE that still says plaintext, or resident, over a
    ///   ciphertext frame, which recovery's tag comparison completes by
    ///   flipping. The integrity tags of the whole run are stored on-SoC
    ///   in one call before any ciphertext is visible in DRAM, so there is
    ///   no window for unrecorded tampering. An entry whose source is an
    ///   on-SoC pager slot (`src` ≠ `frame`, the lock-time sweep) is
    ///   charged one page copy.
    /// * **Decrypt** flips first (`txn.flip`): the PTE's encrypted bit
    ///   clears *before* the plaintext lands (`txn.publish`). An
    ///   in-place frame's tag is retired before the entry is marked
    ///   done, so a kill in between re-runs the (idempotent) retire
    ///   rather than leaving a stale tag that would poison the frame's
    ///   next encrypt cycle. An out-of-place entry
    ///   publishes into its fresh frame and never writes its source.
    ///   The commit places each chunk (see `Transition::place`) right
    ///   before its journal opens, and gives the fresh frames back if
    ///   the open fails: a frame is either journaled or free.
    ///
    /// # Errors
    ///
    /// Propagates journal, memory, and tag-store errors.
    pub(crate) fn commit(
        &mut self,
        op: TxnOp,
        pages: &[JournalEntry],
        buf: &[u8],
    ) -> Result<(), SentryError> {
        if op == TxnOp::Encrypt {
            let copies = pages.iter().filter(|e| e.src != e.frame).count() as u64;
            let copy_ns = self.kernel.soc.costs.page_copy_ns * copies;
            self.kernel.soc.clock.advance(copy_ns);
            self.store_tags(pages, buf)?;
        }
        let page = PAGE_SIZE as usize;
        for (chunk, bytes) in pages
            .chunks(MAX_ENTRIES)
            .zip(buf.chunks(MAX_ENTRIES * page))
        {
            let chunk = &self.place(op, chunk);
            if let Err(e) = self.txn.open(&mut self.kernel.soc, op, chunk) {
                let fresh = chunk.iter().rev().filter(|e| e.src != e.frame);
                self.kernel.frames.give_back(fresh.map(|e| e.frame));
                return Err(e);
            }
            for (i, (e, data)) in chunk.iter().zip(bytes.chunks_exact(page)).enumerate() {
                if op == TxnOp::Decrypt {
                    self.kernel.soc.failpoint("txn.flip")?;
                    let kept = (e.src != e.frame).then_some(e.src);
                    let state = PageState::Plaintext { kept };
                    set_page_state(self.kernel, e.frame, (e.pid, e.vpn), state);
                }
                self.kernel.soc.failpoint("txn.publish")?;
                self.kernel.soc.mem_write(e.frame, data)?;
                if op == TxnOp::Encrypt {
                    audit_ciphertext(e, data);
                }
                match op {
                    TxnOp::Decrypt if e.src == e.frame => {
                        self.integrity.retire_tag(&mut self.kernel.soc, e.frame)?;
                    }
                    TxnOp::Decrypt => {}
                    TxnOp::Encrypt => self.kernel.soc.failpoint("txn.flip")?,
                }
                self.settle(op, i, e)?;
            }
            self.txn.close(&mut self.kernel.soc)?;
        }
        Ok(())
    }

    /// The tail of journal entry `i` once its bytes have published: an
    /// encrypt flips every mapping to its fresh ciphertext, the owner's
    /// byte count grows, and the entry is marked done.
    fn settle(&mut self, op: TxnOp, i: usize, e: &JournalEntry) -> Result<(), SentryError> {
        if op == TxnOp::Encrypt {
            let state = PageState::Encrypted { version: e.version };
            set_page_state(self.kernel, e.frame, (e.pid, e.vpn), state);
        }
        if let Some(proc) = self.kernel.procs.get_mut(&e.pid) {
            match op {
                TxnOp::Encrypt => proc.stats.bytes_encrypted += PAGE_SIZE,
                TxnOp::Decrypt => proc.stats.bytes_decrypted += PAGE_SIZE,
            }
        }
        self.txn.mark_done(&mut self.kernel.soc, i)?;
        Ok(())
    }

    /// The journaled half of a locked page fault (§5, Figure 1): gather
    /// `incoming`'s ciphertext, and evict `victim` into its home frame
    /// when the fault needs its slot. Returns the gathered buffer, whose
    /// last page is the incoming ciphertext, and that page's MAC
    /// verdict; the caller decrypts it into the slot.
    ///
    /// The incoming page is gathered before the victim is encrypted.
    /// One stamp then covers both pages (the incoming one only when the
    /// integrity plane checks it): under XTS/CTR that is the fault's one
    /// MAC lane loop, two chains wide; under CBC it reads the pages'
    /// tails. Inside the victim's one-entry journal, one integrity call
    /// stores the victim's tag and checks the incoming page from one
    /// `CommitTagger::page_macs` call (under CBC the two-chain loop), and
    /// the fault is charged one CMAC chain (see
    /// `IntegrityPlane::store_and_verify`). The victim then publishes
    /// (`pager.evict`), and its frame is read back (`pager.readback`)
    /// and compared byte for byte with the ciphertext just tagged (see
    /// `IntegrityPlane::verify_readback`) before its mappings flip.
    ///
    /// No mapping of `incoming`'s frame can be resident, so the victim
    /// never publishes into the frame the incoming page was gathered
    /// from: a page-in maps every sharer of a frame onto its one slot.
    ///
    /// # Errors
    ///
    /// Propagates journal, memory, crypt, and tag-store errors. A
    /// read-back mismatch quarantines the victim's frame and returns the
    /// violation with the journal left open, so
    /// [`crate::Sentry::recover`] rolls the eviction forward from the
    /// still-intact on-SoC source.
    pub(crate) fn fault(
        &mut self,
        victim: Option<JournalEntry>,
        incoming: JournalEntry,
    ) -> Result<(Vec<u8>, VerifyOutcome), SentryError> {
        let page = PAGE_SIZE as usize;
        let mut pages: Vec<JournalEntry> = victim.into_iter().chain([incoming]).collect();
        let mut buf = self.gather(&pages)?;
        let copy_ns = self.kernel.soc.costs.page_copy_ns;
        self.kernel.soc.clock.advance(copy_ns);
        let Some(victim) = victim else {
            let verdicts = self.integrity.verify_frames(
                &mut self.kernel.soc,
                self.store,
                &mut pages,
                &mut buf,
            )?;
            return Ok((buf, verdicts[0]));
        };
        debug_assert_ne!(
            victim.frame, incoming.src,
            "eviction into the faulting frame"
        );
        self.crypt(
            Route::Engine,
            Direction::Encrypt,
            &pages[..1],
            &mut buf[..page],
        )?;
        let stamped = if self.integrity.enabled() { 2 } else { 1 };
        self.stamp(&mut pages[..stamped], &buf[..stamped * page]);
        let victim = pages[0];
        self.txn
            .open(&mut self.kernel.soc, TxnOp::Encrypt, &pages[..1])?;
        let (tags, verdicts) = self.integrity.store_and_verify(
            &mut self.kernel.soc,
            self.store,
            &mut pages,
            1,
            &mut buf,
        )?;
        self.kernel.soc.failpoint("pager.evict")?;
        self.kernel.soc.clock.advance(copy_ns);
        self.kernel.soc.mem_write(victim.frame, &buf[..page])?;
        audit_ciphertext(&victim, &buf[..page]);
        if let Some(&tag) = tags.first() {
            self.kernel.soc.failpoint("pager.readback")?;
            let verdict = self.integrity.verify_readback(
                &mut self.kernel.soc,
                self.store,
                (victim.frame, victim.iv),
                tag,
                &buf[..page],
            )?;
            if let VerifyOutcome::Mismatch { expected, got } = verdict {
                return Err(self.quarantine(&victim, expected, got));
            }
        }
        self.settle(TxnOp::Encrypt, 0, &victim)?;
        self.txn.close(&mut self.kernel.soc)?;
        Ok((buf, verdicts[0]))
    }

    /// Choose where each decrypt entry of `chunk` publishes; an encrypt
    /// entry publishes where it was planned. A page keeps its ciphertext
    /// — its entry gets a fresh frame, and `src` stays behind with its
    /// tag as the page's home frame — unless one of four cases decrypts
    /// it in place:
    ///
    /// * a DMA region: devices address the frame itself and never set
    ///   `dirty`;
    /// * a page written before its lock (`Pte::dirty` survives the
    ///   encrypt): it will likely be written again, and a kept frame
    ///   would only add a line fill per cache line to its decrypt;
    /// * a frame shared among sensitive processes;
    /// * every page once the pool has no clean frame — the DRAM cap.
    fn place(&mut self, op: TxnOp, chunk: &[JournalEntry]) -> Vec<JournalEntry> {
        if op != TxnOp::Decrypt {
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

    /// Store the integrity tags of freshly encrypted pages on-SoC, keyed
    /// by the frames they publish to.
    pub(crate) fn store_tags(
        &mut self,
        pages: &[JournalEntry],
        buf: &[u8],
    ) -> Result<(), SentryError> {
        self.integrity
            .store_tags(&mut self.kernel.soc, self.store, pages, buf)
    }
}

impl Offload for Transition<'_> {
    type Output = BatchReport;
    type Error = SentryError;

    fn parts(&mut self) -> (&mut Soc, &mut HealthGovernor) {
        (&mut self.kernel.soc, self.health)
    }

    /// The host batch decrypt: the engine's result on [`Path::Accel`],
    /// the CPU path on [`Path::Cpu`].
    fn transform(
        &mut self,
        _path: Path,
        ivs: &[[u8; 16]],
        buf: &mut [u8],
    ) -> Result<BatchReport, SentryError> {
        self.batch(Direction::Decrypt, ivs, buf)
    }
}

/// What a crypt step did: its batch size and the lanes its simulated
/// AES charge was spread over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchReport {
    /// Pages in the batch.
    pub(crate) pages: usize,
    /// Total bytes transformed.
    pub(crate) bytes: u64,
    /// Lanes the batch was charged over (1 on the engine path).
    pub(crate) workers_used: usize,
}

/// The report of an engine call over `pages` pages (`bytes` bytes).
fn sequential_report(pages: usize, bytes: usize) -> BatchReport {
    BatchReport {
        pages,
        bytes: bytes as u64,
        workers_used: 1,
    }
}

/// Every mapping of `frame`: each sharer, or `mapping` alone when the
/// frame is private.
pub(crate) fn mappings(kernel: &Kernel, frame: u64, mapping: (Pid, u64)) -> Vec<(Pid, u64)> {
    kernel
        .sharers_of(frame)
        .map_or_else(|| vec![mapping], <[(Pid, u64)]>::to_vec)
}

/// Set every mapping of `frame` — each sharer, or `mapping` alone when
/// the frame is private — to `state`. Idempotent, so recovery replays
/// it.
pub(crate) fn set_page_state(
    kernel: &mut Kernel,
    frame: u64,
    mapping: (Pid, u64),
    state: PageState,
) {
    let mappings = mappings(kernel, frame, mapping);
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
            PageState::Encrypted { .. } | PageState::Rearmed => {
                pte.backing = Backing::Dram(frame);
                pte.home_frame = None;
                pte.encrypted = true;
                pte.young = false;
                if let PageState::Encrypted { version } = state {
                    pte.crypt_version = version;
                    pte.iv_owner = Some(mapping);
                }
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
            PageState::Resident { slot } => {
                pte.backing = Backing::OnSoc(slot);
                pte.home_frame = Some(frame);
                pte.young = true;
                pte.dirty = false;
            }
        }
    }
}

/// Hand fresh ciphertext that has just reached `e.frame` to the nonce
/// audit. Compiled to nothing in release builds.
pub(crate) fn audit_ciphertext(e: &JournalEntry, ciphertext: &[u8]) {
    #[cfg(debug_assertions)]
    nonce_audit::record(&e.iv, ciphertext);
    #[cfg(not(debug_assertions))]
    let _ = (e, ciphertext);
}

/// The nonce audit of debug builds: while armed on a thread, it
/// remembers a digest of the ciphertext each page IV put in DRAM and
/// flags an IV that puts a second, different one there. Under one key
/// and IV the cipher is a bijection, so a second ciphertext is a second
/// plaintext: a reused nonce. A crash redo re-encrypts the same
/// plaintext and passes; a trial encrypt that never reaches DRAM is
/// never seen.
///
/// Every [`crate::Sentry`] is a machine with its own volatile key (a
/// device's TRNG would draw it), so constructing one starts a fresh IV
/// map; the counts run on to the end of the audited run. A test hands
/// [`nonce_audit::audited`] a run that drives its matrix cells or fleet
/// devices one after another on its thread.
#[cfg(debug_assertions)]
pub mod nonce_audit {
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

    /// Run `what` under the audit and check that it put ciphertext in
    /// DRAM and never reused an IV.
    ///
    /// # Panics
    ///
    /// The run encrypted nothing, or reused an IV.
    pub fn audited<T>(what: &str, run: impl FnOnce() -> T) -> T {
        AUDIT.with(|a| *a.borrow_mut() = Some(Audit::default()));
        let out = run();
        let audit = AUDIT
            .with(|a| a.borrow_mut().take())
            .expect("armed for the run");
        assert!(audit.encrypts > 0, "{what}: the nonce audit saw no encrypt");
        assert!(
            audit.reuses.is_empty(),
            "{what}: {} IV reuses, the first {:02x?}",
            audit.reuses.len(),
            audit.reuses[0]
        );
        out
    }

    /// A new machine, with a new key: forget the IVs seen so far.
    pub(crate) fn new_machine() {
        AUDIT.with(|a| {
            if let Some(audit) = a.borrow_mut().as_mut() {
                audit.seen.clear();
            }
        });
    }

    /// Note that `ciphertext`, one page, reached DRAM under `iv`.
    pub(crate) fn record(iv: &[u8; 16], ciphertext: &[u8]) {
        debug_assert_eq!(ciphertext.len(), PAGE_SIZE as usize);
        AUDIT.with(|a| {
            let mut a = a.borrow_mut();
            let Some(audit) = a.as_mut() else { return };
            let mut h = DefaultHasher::new();
            ciphertext.hash(&mut h);
            let digest = h.finish();
            audit.encrypts += 1;
            if *audit.seen.entry(*iv).or_insert(digest) != digest {
                audit.reuses.push(*iv);
            }
        });
    }
}

/// Release builds leave the nonce audit out; an audited run just runs.
#[cfg(not(debug_assertions))]
pub mod nonce_audit {
    /// Run `what` unaudited.
    pub fn audited<T>(_what: &str, run: impl FnOnce() -> T) -> T {
        run()
    }
}

/// The unit tests' MAC audit: while armed on a thread, it counts the
/// CMACs the page MAC computes (see `CommitTagger`), one per page, and
/// the calls that compute them, one per lane loop.
#[cfg(test)]
pub(crate) mod mac_audit {
    use std::cell::Cell;

    /// Page MACs and the calls that computed them.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Macs {
        /// Pages MACed.
        pub(crate) pages: usize,
        /// MAC calls, each one lane loop over its pages.
        pub(crate) calls: usize,
    }

    thread_local! {
        static MACS: Cell<Option<Macs>> = const { Cell::new(None) };
    }

    /// Start counting this thread's page MACs.
    pub(crate) fn arm() {
        MACS.with(|m| m.set(Some(Macs::default())));
    }

    /// The page MACs computed since `arm`.
    pub(crate) fn count() -> Macs {
        MACS.with(|m| m.get().unwrap_or_default())
    }

    /// Stop counting; returns the page MACs computed since `arm`.
    pub(crate) fn disarm() -> Macs {
        MACS.with(|m| m.take().unwrap_or_default())
    }

    /// Note one call that computes `pages` page MACs.
    pub(crate) fn record(pages: usize) {
        MACS.with(|m| {
            m.set(m.get().map(|n| Macs {
                pages: n.pages + pages,
                calls: n.calls + 1,
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_iv_is_pid_vpn_version_and_a_zero_block_index() {
        let mapping = (0x0102_0304, 0x0A0B_0C0D);
        let mut pte = Pte::resident(0);
        pte.crypt_version = (1 << 32) + 6;
        let (iv, version) = page_iv(mapping, IvSource::Encrypt(&pte, 1));
        assert_eq!(version, (1 << 32) + 7, "above the recorded version");
        assert_eq!(iv, [1, 2, 3, 4, 0xA, 0xB, 0xC, 0xD, 0, 1, 0, 0, 0, 7, 0, 0]);
        let (_, next_epoch) = page_iv(mapping, IvSource::Encrypt(&pte, 2));
        assert_eq!(next_epoch, 2 << 32, "at least the epoch's floor");
        // The ciphertext's later uses read the same IV back.
        pte.crypt_version = version;
        pte.iv_owner = Some(mapping);
        assert_eq!(page_iv((7, 7), IvSource::Stored(&pte)), (iv, version));
    }

    #[test]
    #[should_panic(expected = "a vpn fits in the IV")]
    fn a_vpn_past_32_bits_is_refused() {
        let _ = page_iv((1, 1 << 32), IvSource::Encrypt(&Pte::resident(0), 1));
    }

    #[test]
    #[should_panic(expected = "overflows the IV")]
    fn a_version_past_48_bits_is_refused() {
        let _ = page_iv((1, 0), IvSource::Encrypt(&Pte::resident(0), 1 << 16));
    }
}
