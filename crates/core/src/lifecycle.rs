//! The Sentry lifecycle: encrypt-on-lock, decrypt-on-unlock, background
//! execution, and the fault dispatcher.
//!
//! Sentry's main observation (§2): protecting memory while the device is
//! *unlocked* is pointless — anyone holding an unlocked device can read
//! the data through the UI. So Sentry encrypts the memory of sensitive
//! applications when the screen locks, decrypts on demand after unlock
//! (lazily, to keep resume latency and energy low, §7), and — on
//! platforms with cache locking — lets sensitive apps keep running in
//! the background with their working set confined to the SoC.

use crate::aes_onsoc::build_engine;
use crate::config::{OnSocBackend, SentryConfig};
use crate::encdram::Pager;
use crate::error::SentryError;
use crate::integrity::{IntegrityPlane, VerifyOutcome};
use crate::keys::VolatileRootKey;
use crate::onsoc::OnSocStore;
use crate::pressure::{PressureLevel, PressureStats};
use crate::transition::{
    audit_ciphertext, plan, set_page_state, BatchReport, IvSource, PageState, Route, Transition,
};
use crate::txn::{JournalEntry, TxnJournal, TxnOp};
use sentry_crypto::{Aes, Direction, FallbackCounts, HealthGovernor, HealthStats, RetryStats};
use sentry_kernel::crypto_api::CipherEngine;
use sentry_kernel::fault::{FaultResolution, PageFault};
use sentry_kernel::pagetable::{Backing, Pte, Sharing};
use sentry_kernel::{Kernel, KernelError, Pid};
use sentry_soc::accel::AccelPowerState;
use sentry_soc::addr::{IRAM_BASE, IRAM_FIRMWARE_RESERVED, PAGE_SIZE};
use std::collections::BTreeMap;

/// Attempt cap (initial try + retries) for a transient crypt/dispatch
/// fault in the crypt step every page transition runs — lock, unlock,
/// fault cluster, sweep, the pager's evictions and page-ins, and
/// recovery; exceeding it yields a typed
/// [`SentryError::RetriesExhausted`] instead of retrying forever.
pub const MAX_CRYPT_RETRIES: u32 = 3;

/// Whether the device screen is locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Screen on, user authenticated. Sentry adds (almost) no overhead.
    Unlocked,
    /// Screen locked: sensitive state is ciphertext in DRAM.
    Locked,
}

/// What a lock transition did (drives Figures 4 and 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockReport {
    /// Total simulated time of the transition, nanoseconds.
    pub duration_ns: u64,
    /// Bytes encrypted.
    pub bytes_encrypted: u64,
    /// Time spent waiting for the freed-page zeroing drain.
    pub zero_drain_ns: u64,
    /// Pages skipped because they are shared with non-sensitive apps.
    pub skipped_shared_pages: u64,
    /// Pages dispatched through the batch crypt engine.
    pub batch_pages: u64,
    /// Worker lanes the batch actually used (1 on the sequential path).
    pub workers_used: usize,
    /// Clean pages re-armed onto the ciphertext they kept since their
    /// decrypt, with no cipher or MAC work.
    pub reused_pages: u64,
}

/// What an unlock transition did eagerly (DMA regions; Figure 2's
/// lazy remainder shows up in [`LifecycleStats`] as apps resume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnlockReport {
    /// Total simulated time of the eager part, nanoseconds.
    pub(crate) duration_ns: u64,
    /// Bytes of DMA-region memory decrypted eagerly.
    pub eager_bytes_decrypted: u64,
    /// Worker lanes the eager batch used (1 on the sequential path).
    pub(crate) workers_used: usize,
}

/// Cumulative on-demand (post-unlock) decryption statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Lock transitions performed.
    pub(crate) locks: u64,
    /// Unlock transitions performed.
    pub(crate) unlocks: u64,
    /// On-demand page decryptions since the last reset.
    pub ondemand_faults: u64,
    /// Bytes decrypted on demand since the last reset.
    pub ondemand_bytes: u64,
    /// Simulated time spent in on-demand decryption since the last
    /// reset.
    pub(crate) ondemand_ns: u64,
    /// Batches dispatched through the bulk crypt engine (lock and eager
    /// unlock transitions with at least one page).
    pub(crate) crypt_batches: u64,
    /// Pages across all such batches.
    pub crypt_batch_pages: u64,
    /// Largest single batch seen, in pages.
    pub(crate) largest_batch_pages: u64,
    /// Slowest single on-demand fault resolution seen, nanoseconds.
    pub(crate) ondemand_max_ns: u64,
    /// Faults that pulled at least one readahead companion in.
    pub(crate) readahead_clusters: u64,
    /// Extra pages decrypted by readahead (beyond the faulting pages
    /// themselves).
    pub readahead_pages: u64,
    /// Background sweeper steps that ran (with a non-empty residual).
    pub sweep_runs: u64,
    /// Pages drained by the background sweeper.
    pub sweep_pages: u64,
    /// Simulated time spent in background sweeper steps.
    pub(crate) sweep_ns: u64,
    /// Transient crypt/dispatch faults absorbed by the bounded-retry
    /// policy of every page transition's crypt step (see
    /// [`MAX_CRYPT_RETRIES`]), in the unified retry shape: `attempts` counts transparent retries, `recovered`
    /// batches that succeeded after one, `exhausted` budgets that ran
    /// out (each surfacing a typed [`SentryError::RetriesExhausted`]).
    pub crypt: RetryStats,
    /// Decrypt batches routed through the accelerator queue (pipeline
    /// routing enabled, accelerator Awake, non-chaining cipher mode).
    pub(crate) routed_batches: u64,
    /// Pages across all accelerator-routed decrypt batches.
    pub(crate) routed_batch_pages: u64,
    /// Time the CPU stalled waiting on routed batch completions.
    pub(crate) routed_stall_ns: u64,
    /// Decrypt batches that stayed on the CPU, per reason: a down-scaled
    /// accelerator clock (device locked, §8.2), a chaining cipher mode
    /// (CBC), a lone page below the routing threshold, or an open
    /// health breaker (see [`crate::health`]).
    pub batch_fallback: FallbackCounts,
    /// On-SoC pressure telemetry (occupancy, high-water mark, watermark
    /// transitions, shed/spill/reclaim counters), mirrored from the
    /// store's tracker by [`Sentry::sync_pressure`].
    pub pressure: PressureStats,
}

/// What one background sweeper step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Frames decrypted by this step.
    pub pages: usize,
    /// Simulated time of the step, nanoseconds.
    pub(crate) duration_ns: u64,
    /// Encrypted DRAM mappings remaining after the step (the
    /// residual-encrypted-pages gauge).
    pub residual_pages: usize,
}

/// What [`Sentry::recover`] did with the journal it found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries in the journaled chunk that was open at the kill.
    pub journaled: usize,
    /// Entries recovery completed (published and/or flipped).
    pub completed: usize,
    /// Entries already marked done before the kill.
    pub(crate) already_done: usize,
    /// Encrypted frames the boot-time integrity audit quarantined
    /// (decayed or tampered while power was out).
    pub quarantined: usize,
}

/// One-time device-construction statistics.
///
/// `Sentry::new` is on the fleet harness's critical path — constructing
/// 10k devices means 10k key generations, key-schedule expansions, and
/// on-SoC allocations — so its simulated cost is measured, not guessed.
/// It covers everything `new` charges to the SoC clock (tracked key
/// expansion in the IRQ-critical section, on-SoC stores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Simulated nanoseconds consumed building the device stack.
    pub setup_sim_ns: u64,
}

/// The Sentry system: the kernel plus Sentry's storage, pager, and keys.
#[derive(Debug)]
pub struct Sentry {
    /// The underlying kernel (and through it, the SoC).
    pub kernel: Kernel,
    /// On-SoC storage.
    pub store: OnSocStore,
    /// The encrypted-DRAM pager.
    pub pager: Pager,
    config: SentryConfig,
    /// Cumulative statistics.
    pub stats: LifecycleStats,
    device_stats: DeviceStats,
    last_fault: Option<FaultResolution>,
    /// The authenticated-DRAM integrity plane: per-page CMAC tags in an
    /// on-SoC tag store, verified on every decrypt path, with poisoned
    /// pages quarantined (see [`crate::integrity`]). Its page MAC also
    /// computes the journal's commit tags (see [`crate::CommitTagger`]).
    pub integrity: IntegrityPlane,
    /// Health governor for the lifecycle's accelerator dispatch:
    /// watchdog deadlines on routed batch waits, circuit breaker routing
    /// dispatch back to the CPU path while the engine is distrusted, and
    /// half-open probes to recover (see [`crate::health`]).
    pub health: HealthGovernor,
    state: DeviceState,
    volatile_key: VolatileRootKey,
    /// The crash-consistency transition journal (one on-SoC page).
    txn: TxnJournal,
    /// Monotone lock counter mixed into every page IV so ciphertext
    /// never repeats across lock cycles under the surviving volatile
    /// key. Incremented at the start of each lock transition.
    lock_epoch: u64,
    /// Background sweeper resume point: the first (pid, vpn) at or after
    /// which the next sweep step scans. Faults push it past their
    /// cluster window, so the sweeper drains in recency order — right
    /// behind wherever the app is touching.
    sweep_cursor: Option<(Pid, u64)>,
}

impl Sentry {
    /// Install Sentry into `kernel`: set up on-SoC storage, generate the
    /// volatile root key on-SoC, build AES On SoC keyed with it, and
    /// register the engine with the Crypto API at high priority.
    ///
    /// # Errors
    ///
    /// Propagates on-SoC allocation failures (e.g., requesting the
    /// locked-L2 backend on a platform whose firmware disables cache
    /// locking).
    pub fn new(mut kernel: Kernel, config: SentryConfig) -> Result<Self, SentryError> {
        let sim_start = kernel.soc.clock.now_ns();
        let mut store = OnSocStore::new(config.backend, &mut kernel.soc);
        let key_page = store.alloc_page(&mut kernel.soc)?;
        let volatile_key =
            VolatileRootKey::generate(&mut kernel.soc, key_page, 0xB007_0000 ^ key_page)?;
        #[cfg(debug_assertions)]
        crate::transition::nonce_audit::new_machine();
        let key = volatile_key.read(&mut kernel.soc)?;
        let mut engine = build_engine(&mut store, &mut kernel.soc, &key)?;
        engine
            .set_mode(config.cipher_mode)
            .map_err(SentryError::Kernel)?;
        kernel.crypto.register(Box::new(engine));
        // The transition journal lives in iRAM — on-SoC, so it dies with
        // power exactly like the volatile key. With the iRAM backend it
        // is an allocated page; with locked L2, iRAM is otherwise unused
        // and the first post-firmware page is taken directly (the store
        // has DMA-protected all of usable iRAM either way).
        let journal_page = match config.backend {
            OnSocBackend::Iram => store.alloc_page(&mut kernel.soc)?,
            OnSocBackend::LockedL2 { .. } => IRAM_BASE + IRAM_FIRMWARE_RESERVED,
        };
        // The root-key schedule is expanded exactly once and shared by
        // every derived-key consumer below; re-expanding it per consumer
        // made per-device construction measurably more expensive at
        // fleet scale (10k devices × 2 redundant expansions).
        let root = Aes::new(&key)?;
        // The page MAC's key derives from the volatile root key, and the
        // tag store sits next to the journal on-SoC: both die with power,
        // exactly like the ciphertext they authenticate.
        let integrity =
            IntegrityPlane::with_root(config.integrity, config.backend, config.cipher_mode, &root)?;
        let device_stats = DeviceStats {
            setup_sim_ns: kernel.soc.clock.now_ns() - sim_start,
        };
        Ok(Sentry {
            kernel,
            store,
            pager: Pager::new(config.slot_limit),
            config,
            stats: LifecycleStats::default(),
            device_stats,
            health: HealthGovernor::default(),
            last_fault: None,
            integrity,
            state: DeviceState::Unlocked,
            volatile_key,
            txn: TxnJournal::new(journal_page),
            lock_epoch: 0,
            sweep_cursor: None,
        })
    }

    /// Current lock state.
    #[must_use]
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// The configuration this device was built with.
    #[must_use]
    pub fn config(&self) -> &SentryConfig {
        &self.config
    }

    /// One-time construction cost of this device stack (see
    /// [`DeviceStats`]).
    #[must_use]
    pub fn device_stats(&self) -> DeviceStats {
        self.device_stats
    }

    /// The most recently resolved on-demand fault (telemetry; `pages >
    /// 1` means the readahead cluster pulled in encrypted neighbours).
    #[must_use]
    pub fn last_fault(&self) -> Option<FaultResolution> {
        self.last_fault
    }

    /// The volatile root key handle (on-SoC address).
    #[must_use]
    pub fn volatile_key(&self) -> VolatileRootKey {
        self.volatile_key
    }

    /// The current lock epoch (number of lock transitions so far).
    #[must_use]
    pub fn lock_epoch(&self) -> u64 {
        self.lock_epoch
    }

    /// Snapshot of the accelerator-route governor's counters (breaker
    /// trips, probes, watchdog timeouts, abandoned and CPU-fallback
    /// bytes), folding any still-open degraded interval up to the
    /// current sim time into `time_degraded_ns`.
    #[must_use]
    pub fn health_stats(&mut self) -> HealthStats {
        let now = self.kernel.soc.clock.now_ns();
        self.health.finalize(now);
        self.health.stats
    }

    /// Re-derive on-SoC occupancy and mirror the pressure tracker's
    /// counters onto [`LifecycleStats::pressure`]. Call before reading
    /// pressure telemetry at a report boundary.
    pub fn sync_pressure(&mut self) {
        self.store.refresh_pressure();
        self.stats.pressure = self.store.pressure().stats;
    }

    /// The store's current watermark level.
    #[must_use]
    pub fn pressure_level(&self) -> PressureLevel {
        self.store.pressure_level()
    }

    /// Install (or clear, with `None`) an on-SoC budget tighter than the
    /// physical capacity — the fleet's memory-pressure chaos knob — then
    /// immediately run the governor so reclaim starts before the next
    /// allocation hits the shrunken budget.
    ///
    /// # Errors
    ///
    /// Propagates spill I/O errors from the reclaim pass.
    pub fn set_onsoc_budget(&mut self, budget: Option<u64>) -> Result<(), SentryError> {
        self.store.pressure_mut().set_budget_override(budget);
        self.store.refresh_pressure();
        self.govern_pressure()?;
        self.sync_pressure();
        Ok(())
    }

    /// The reclaim loop: while the store sits at Critical, shed cold
    /// tag-store pages (reap empties, spill cold ones to the encrypted
    /// region) and return free pager slots, until the level drops or no
    /// lever makes progress. Runs at every lifecycle entry point, so
    /// relief happens *before* work that needs on-SoC space — an
    /// allocation is refused only when everything reclaimable is gone.
    ///
    /// # Errors
    ///
    /// Propagates spill I/O and SoC errors.
    fn govern_pressure(&mut self) -> Result<(), SentryError> {
        while self.store.pressure_level() == PressureLevel::Critical {
            let shed = self
                .integrity
                .shed_cold_page(&mut self.kernel.soc, &mut self.store)?;
            let shrunk = self
                .pager
                .shrink_free_slots(&mut self.store, &mut self.kernel)?;
            if !shed && shrunk == 0 {
                break;
            }
            self.store.pressure_mut().note_shed();
            self.store.refresh_pressure();
        }
        Ok(())
    }

    /// Process teardown: release every on-SoC and DRAM resource the
    /// dying process pins, so long spawn/exit churn never leaks the
    /// store into [`SentryError::OnSocExhausted`]. In order: the pager
    /// drops (and wipes) the pid's resident slots, the kernel unmaps the
    /// address space and frees its frames (shared frames only with the
    /// last mapper), the integrity plane retires the dead frames' tags
    /// and quarantine entries and reaps emptied tag pages, and free
    /// pager slots at the table tail return to the store. Returns the
    /// number of on-SoC pages reclaimed.
    ///
    /// # Errors
    ///
    /// [`SentryError::TransitionInFlight`] while a journaled transition
    /// is open, [`KernelError::UnknownPid`] for bad pids; propagated
    /// memory errors otherwise.
    pub fn on_exit(&mut self, pid: Pid) -> Result<u64, SentryError> {
        self.ensure_no_txn("on_exit")?;
        let _ = self.kernel.proc(pid)?;
        self.pager.drop_pid(&mut self.kernel, pid)?;
        // Frames that die with the process: DRAM-backed frames with no
        // surviving sharer, plus every page's home frame.
        let mut frames: Vec<u64> = Vec::new();
        for (_vpn, pte) in self.kernel.procs[&pid].page_table.iter() {
            for frame in pte.dram_frames() {
                let last_mapper = self
                    .kernel
                    .shared_frames
                    .get(&frame)
                    .is_none_or(|s| s.iter().all(|&(p, _)| p == pid));
                if last_mapper {
                    frames.push(frame);
                }
            }
        }
        self.kernel.exit(pid)?;
        let reclaimed =
            self.integrity
                .release_frames(&mut self.kernel.soc, &mut self.store, &frames)?;
        let shrunk = self
            .pager
            .shrink_free_slots(&mut self.store, &mut self.kernel)?;
        if self
            .sweep_cursor
            .is_some_and(|(cursor_pid, _)| cursor_pid == pid)
        {
            self.sweep_cursor = None;
        }
        self.sync_pressure();
        Ok(reclaimed + shrunk)
    }

    /// Mark a process sensitive — the settings-menu toggle of §7.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownPid`] via [`SentryError::Kernel`].
    pub fn mark_sensitive(&mut self, pid: Pid) -> Result<(), SentryError> {
        self.kernel.proc_mut(pid)?.sensitive = true;
        Ok(())
    }

    fn sensitive_pids(&self) -> Vec<Pid> {
        self.kernel
            .procs
            .values()
            .filter(|p| p.sensitive)
            .map(|p| p.pid)
            .collect()
    }

    /// Whether a journaled transition chunk is open right now — i.e., a
    /// previous transition was killed mid-commit and [`Sentry::recover`]
    /// has not yet run.
    #[must_use]
    pub fn txn_in_flight(&self) -> bool {
        self.txn.in_flight()
    }

    /// Re-entrancy guard: every transition entry point refuses to start
    /// while a journaled transition is still in flight.
    fn ensure_no_txn(&self, op: &'static str) -> Result<(), SentryError> {
        if self.txn.in_flight() {
            Err(SentryError::TransitionInFlight { op })
        } else {
            Ok(())
        }
    }

    /// The machine state a page transition of entry point `op` mutates.
    fn transition(&mut self, op: &'static str) -> Transition<'_> {
        Transition {
            op,
            kernel: &mut self.kernel,
            store: &mut self.store,
            txn: &mut self.txn,
            integrity: &mut self.integrity,
            config: &self.config,
            key: self.volatile_key,
            health: &mut self.health,
            stats: &mut self.stats,
        }
    }

    /// Plan the decrypt of `mapping`'s page when its PTE describes DRAM
    /// ciphertext that can be decrypted: encrypted, and not on a
    /// quarantined frame (those never decrypt; planning them would make
    /// the sweeper spin without progress).
    fn plan_decrypt(&self, mapping: (Pid, u64), pte: &Pte) -> Option<JournalEntry> {
        match pte.backing {
            Backing::Dram(frame) if pte.encrypted && !self.integrity.is_quarantined(frame) => {
                Some(plan(mapping, frame, frame, IvSource::Stored(pte)))
            }
            _ => None,
        }
    }

    /// Decrypt planned encrypted DRAM pages in one dispatch and flip
    /// every mapping of each decrypted frame back to plaintext state —
    /// the one decrypt path of unlock, fault cluster, and sweep. Returns
    /// the batch report (`pages` = frames decrypted).
    ///
    /// Frames are deduped within the batch, so two mappings of one
    /// shared frame landing in the same batch can never decrypt it
    /// twice, which under CBC would turn plaintext into garbage.
    fn decrypt(
        &mut self,
        op: &'static str,
        planned: Vec<JournalEntry>,
    ) -> Result<BatchReport, SentryError> {
        let mut pages: Vec<JournalEntry> = Vec::with_capacity(planned.len());
        for e in planned {
            if !pages.iter().any(|p| p.frame == e.frame) {
                pages.push(e);
            }
        }
        self.transition(op).run(TxnOp::Decrypt, pages)
    }

    /// Residual-encrypted-pages gauge: encrypted DRAM mappings across
    /// all sensitive processes. Zero means post-unlock decryption is
    /// complete and no further first-touch fault can cost a decrypt.
    ///
    /// Quarantined frames are excluded: they can never be decrypted, so
    /// counting them would report a residue no sweep can drain and the
    /// sweeper would spin re-attempting known-bad frames every tick.
    #[must_use]
    pub fn residual_encrypted_pages(&self) -> usize {
        self.kernel
            .procs
            .values()
            .filter(|p| p.sensitive)
            .map(|p| {
                p.page_table
                    .iter()
                    .filter(|(_, pte)| {
                        pte.encrypted
                            && matches!(pte.backing, Backing::Dram(f)
                                if !self.integrity.is_quarantined(f))
                    })
                    .count()
            })
            .sum()
    }

    /// One budgeted background-sweeper step — the paper's "decrypt the
    /// rest in the background" (§7). Walks the residual encrypted set
    /// starting at the sweep cursor (just past the most recent fault
    /// cluster or previous sweep batch, i.e. recency order) and drains
    /// up to `budget_pages` frames through the bulk decrypt engine.
    ///
    /// A no-op unless the device is unlocked. Pages the demand path
    /// decrypts between steps are skipped by the gather step's coherence
    /// re-check of the PTE `encrypted` bit.
    ///
    /// # Errors
    ///
    /// Propagates memory and cipher errors.
    pub fn sweep(&mut self, budget_pages: usize) -> Result<SweepReport, SentryError> {
        self.ensure_no_txn("sweep")?;
        if self.state != DeviceState::Unlocked || budget_pages == 0 {
            return Ok(SweepReport {
                residual_pages: self.residual_encrypted_pages(),
                ..SweepReport::default()
            });
        }
        self.kernel.soc.failpoint("sweep.begin")?;
        let t0 = self.kernel.soc.clock.now_ns();
        // Candidates in (pid, vpn) order, rotated so the scan resumes at
        // the cursor and wraps.
        let mut all: Vec<JournalEntry> = Vec::new();
        for pid in self.sensitive_pids() {
            for (vpn, pte) in self.kernel.proc(pid)?.page_table.iter() {
                all.extend(self.plan_decrypt((pid, vpn), pte));
            }
        }
        if all.is_empty() {
            return Ok(SweepReport::default());
        }
        let start = self
            .sweep_cursor
            .and_then(|cur| all.iter().position(|e| (e.pid, e.vpn) >= cur))
            .unwrap_or(0);
        all.rotate_left(start);

        let mut gathered: Vec<JournalEntry> = Vec::with_capacity(budget_pages.min(all.len()));
        for e in all {
            if gathered.len() >= budget_pages {
                break;
            }
            if !gathered.iter().any(|g| g.frame == e.frame) {
                gathered.push(e);
            }
        }
        let next_cursor = gathered.last().map(|g| (g.pid, g.vpn + 1));
        let pages = self.decrypt("sweep", gathered)?.pages;
        if let Some(cur) = next_cursor {
            self.sweep_cursor = Some(cur);
        }
        let duration_ns = self.kernel.soc.clock.now_ns() - t0;
        self.stats.sweep_runs += 1;
        self.stats.sweep_pages += pages as u64;
        self.stats.sweep_ns += duration_ns;
        Ok(SweepReport {
            pages,
            duration_ns,
            residual_pages: self.residual_encrypted_pages(),
        })
    }

    /// Deliver one scheduler timer tick: bump the kernel scheduler's
    /// tick counter and, when the sweep budget is non-zero and the device
    /// is unlocked, run one budgeted sweeper step.
    ///
    /// # Errors
    ///
    /// Propagates sweeper errors.
    pub fn scheduler_tick(&mut self) -> Result<SweepReport, SentryError> {
        self.kernel.sched.tick();
        self.govern_pressure()?;
        // Shed lever: the background sweeper is elective load — under
        // High or Critical pressure its decrypt batches would only add
        // on-SoC traffic while the governor is trying to reclaim, so the
        // tick skips it until pressure falls back to Normal.
        let budget = self.config.readahead.sweep_budget_pages;
        let sweeps = budget > 0 && self.state == DeviceState::Unlocked;
        if sweeps && self.store.pressure_level() < PressureLevel::High {
            return self.sweep(budget);
        }
        if sweeps {
            // Count a shed only when a sweep would actually have run.
            self.store.pressure_mut().note_shed();
        }
        Ok(SweepReport {
            residual_pages: self.residual_encrypted_pages(),
            ..SweepReport::default()
        })
    }

    /// Transition to the locked state (§7): plan the re-encrypt of every
    /// written on-SoC resident page, walk every sensitive process's page
    /// table — skipping pages shared with non-sensitive applications —
    /// and drain the freed-page zeroing thread, then encrypt every
    /// planned page in one transition. On platforms without background
    /// support, sensitive processes are parked unschedulable.
    ///
    /// Only what was written costs cipher work. A clean page that kept
    /// its ciphertext since its decrypt (see `Pte::home_frame`) is
    /// re-armed onto it, journal-free, and its plaintext frame is freed
    /// ahead of the drain; a dirty page retires its kept frame's tag,
    /// frees that frame, and is encrypted in place under a new version.
    ///
    /// # Errors
    ///
    /// [`SentryError::WrongState`] if already locked; propagated memory
    /// and cipher errors otherwise.
    pub fn on_lock(&mut self) -> Result<LockReport, SentryError> {
        self.ensure_no_txn("on_lock")?;
        if self.state == DeviceState::Locked {
            return Err(SentryError::WrongState {
                expected_locked: false,
            });
        }
        self.kernel.soc.failpoint("lock.begin")?;
        // Screen off ⇒ the power manager down-scales the accelerator
        // clock (§8.2) *before* the encrypt sweep runs, so
        // encrypt-on-lock models locked throughput — Figure 11's
        // slow-when-locked band — instead of silently keeping Awake
        // speed. Descriptors already in the queue keep the clock state
        // they were submitted under.
        self.kernel.soc.accel.state = AccelPowerState::DownScaled;
        let t0 = self.kernel.soc.clock.now_ns();
        // This cycle's epoch, computed locally and committed only in the
        // atomic tail: a transition killed mid-flight leaves lock_epoch
        // untouched, so a retry recomputes the *same* target epoch —
        // hence the same versions, IVs and byte-identical ciphertext —
        // and converges with the uninterrupted run. The pager's eviction
        // sweep takes its versions from this epoch's floor too.
        let epoch = self.lock_epoch + 1;
        // Spill anchors written during this transition bind to the new
        // epoch; a replayed old-epoch blob then fails its anchor CMAC.
        self.integrity.set_epoch(epoch);
        // Kept frames the kernel let go of while unlocked: their tags
        // go before this lock stores any.
        while let Some(&frame) = self.kernel.dropped_kept_frames.last() {
            self.integrity.retire_tag(&mut self.kernel.soc, frame)?;
            self.kernel.dropped_kept_frames.pop();
        }
        self.govern_pressure()?;
        // Phase 1: plan every page — the pager's written resident pages
        // (from their on-SoC slots into their home frames), private pages
        // of every sensitive process, then the shared-frame pass — into
        // one batch. The pages are independent (per-page IVs), so
        // planning first and dispatching once lets the engine fan them
        // out.
        let (mut pages, mut reused) = self.pager.plan_evict_all(&mut self.kernel, epoch)?;
        let sweep = pages.len();
        let mut skipped = 0u64;
        // (kept frame, mapping) of clean pages, the plaintext frames
        // they leave, and the kept frames of written pages.
        let mut rearms: Vec<(u64, (Pid, u64))> = Vec::new();
        let mut freed: Vec<u64> = Vec::new();
        let mut stale: Vec<(Pid, u64, u64)> = Vec::new();
        for pid in self.sensitive_pids() {
            let proc = self.kernel.proc(pid)?;
            for (vpn, pte) in proc.page_table.iter() {
                let Backing::Dram(frame) = pte.backing else {
                    continue;
                };
                if pte.encrypted {
                    continue;
                }
                // Frames mapped by several processes are classified and
                // encrypted once, below — never per mapping.
                let private = pte.sharing != Sharing::SharedWithNonSensitive
                    && self.kernel.sharers_of(frame).is_none();
                match pte.home_frame {
                    Some(kept) if private && !pte.written() => {
                        rearms.push((kept, (pid, vpn)));
                        freed.push(frame);
                        continue;
                    }
                    Some(kept) => stale.push((pid, vpn, kept)),
                    None => {}
                }
                if private {
                    pages.push(plan(
                        (pid, vpn),
                        frame,
                        frame,
                        IvSource::Encrypt(pte, epoch),
                    ));
                }
            }
            skipped += proc
                .page_table
                .vpns_where(|p| p.sharing == Sharing::SharedWithNonSensitive)
                .len() as u64;
            if !self.config.background_support {
                self.kernel.proc_mut(pid)?.schedulable = false;
            }
        }

        // §7 shared-page policy, applied to *actual* shared frames: a
        // frame shared only among sensitive processes is encrypted —
        // exactly once, under the first sharer's IV — and every mapper's
        // PTE is re-armed; a frame shared with any non-sensitive process
        // is assumed non-secret and skipped (its mappings are tagged
        // accordingly).
        let shared: Vec<(u64, Vec<(Pid, u64)>)> = self
            .kernel
            .shared_frames
            .iter()
            .filter(|(_, sharers)| sharers.len() > 1)
            .map(|(&frame, sharers)| (frame, sharers.clone()))
            .collect();
        let mut shared_rearms: Vec<(u64, (Pid, u64))> = Vec::new();
        for (frame, sharers) in shared {
            let all_sensitive = sharers
                .iter()
                .all(|&(pid, _)| self.kernel.procs.get(&pid).is_some_and(|p| p.sensitive));
            let any_sensitive = sharers
                .iter()
                .any(|&(pid, _)| self.kernel.procs.get(&pid).is_some_and(|p| p.sensitive));
            if !any_sensitive {
                continue;
            }
            if all_sensitive {
                // A frame still ciphertext from an earlier cycle keeps
                // the IV it was encrypted under, which its PTEs recorded.
                let still_ciphertext = sharers.iter().any(|&(pid, vpn)| {
                    self.kernel
                        .procs
                        .get(&pid)
                        .and_then(|p| p.page_table.get(vpn))
                        .is_some_and(|pte| pte.encrypted)
                });
                if still_ciphertext {
                    // A pure PTE re-arm: no bytes move, so no journal
                    // entry is needed (the flip is idempotent and
                    // happens after the journaled publishes).
                    shared_rearms.push((frame, sharers[0]));
                } else {
                    let (pid, vpn) = sharers[0];
                    let pte = *self
                        .kernel
                        .proc(pid)?
                        .page_table
                        .get(vpn)
                        .ok_or(SentryError::Unresolvable { pid, vpn })?;
                    pages.push(plan(
                        sharers[0],
                        frame,
                        frame,
                        IvSource::Encrypt(&pte, epoch),
                    ));
                }
            } else {
                skipped += 1;
                for &(pid, vpn) in &sharers {
                    if let Some(pte) = self
                        .kernel
                        .procs
                        .get_mut(&pid)
                        .and_then(|p| p.page_table.get_mut(vpn))
                    {
                        pte.sharing = Sharing::SharedWithNonSensitive;
                    }
                }
            }
        }

        // Clean pages go back to their kept ciphertext; written pages
        // give up theirs, tag first, so the tag store never holds both
        // versions of a page. Nothing here passes a failpoint: a kill
        // lands before or after the whole step.
        for &(kept, mapping) in &rearms {
            set_page_state(&mut self.kernel, kept, mapping, PageState::Rearmed);
        }
        for (pid, vpn, kept) in stale {
            self.integrity.retire_tag(&mut self.kernel.soc, kept)?;
            freed.push(kept);
            if let Some(pte) = self.kernel.proc_mut(pid)?.page_table.get_mut(vpn) {
                pte.home_frame = None;
            }
        }
        for frame in freed {
            self.kernel.frames.free(frame);
        }
        reused += rearms.len() as u64;
        // The freed-page barrier: every frame freed so far, the clean
        // pages' plaintext frames included, is zeroed before the lock
        // can commit.
        let zero_drain_ns = self.kernel.drain_zero_thread()?;

        // Phase 2: one dispatch for the whole transition — into scratch
        // buffers. DRAM is untouched until each page's journaled
        // publish. Phase 3: publish + flip as a two-phase commit.
        let report = self.transition("on_lock").run(TxnOp::Encrypt, pages)?;
        self.pager.evicted_all(sweep);

        // Re-arm-only shared frames (still ciphertext from an earlier
        // cycle): idempotent PTE flips, journal-free.
        for (frame, mapping) in shared_rearms {
            set_page_state(&mut self.kernel, frame, mapping, PageState::Rearmed);
        }

        // Atomic tail: only now does the transition commit.
        self.lock_epoch = epoch;
        self.state = DeviceState::Locked;
        self.stats.locks += 1;
        Ok(LockReport {
            duration_ns: self.kernel.soc.clock.now_ns() - t0,
            bytes_encrypted: report.bytes,
            zero_drain_ns,
            skipped_shared_pages: skipped,
            batch_pages: report.pages as u64,
            workers_used: report.workers_used,
            reused_pages: reused,
        })
    }

    /// Transition to the unlocked state: un-park sensitive processes and
    /// eagerly decrypt DMA regions (devices access them by physical
    /// address and never fault, §7). Everything else decrypts lazily on
    /// first touch.
    ///
    /// # Errors
    ///
    /// [`SentryError::WrongState`] if already unlocked; propagated
    /// memory and cipher errors otherwise.
    pub fn on_unlock(&mut self) -> Result<UnlockReport, SentryError> {
        self.ensure_no_txn("on_unlock")?;
        if self.state == DeviceState::Unlocked {
            return Err(SentryError::WrongState {
                expected_locked: true,
            });
        }
        self.kernel.soc.failpoint("unlock.begin")?;
        self.govern_pressure()?;
        // Screen on ⇒ clocks restored: the eager DMA-region decrypt and
        // everything after it run at Awake accelerator throughput.
        self.kernel.soc.accel.state = AccelPowerState::Awake;
        let t0 = self.kernel.soc.clock.now_ns();
        // DMA regions are decrypted eagerly, through the same decrypt
        // path as faults and the sweeper. Un-parking is idempotent, so a
        // killed-and-retried unlock converges.
        let mut planned: Vec<JournalEntry> = Vec::new();
        for pid in self.sensitive_pids() {
            self.kernel.proc_mut(pid)?.schedulable = true;
            for (vpn, pte) in self.kernel.proc(pid)?.page_table.iter() {
                if pte.dma_region {
                    planned.extend(self.plan_decrypt((pid, vpn), pte));
                }
            }
        }
        // Quarantined DMA frames stay encrypted; the violation surfaces
        // on explicit access, not here — the unlock itself must keep
        // working for every healthy page.
        let report = self.decrypt("on_unlock", planned)?;

        // Atomic tail.
        self.state = DeviceState::Unlocked;
        self.stats.unlocks += 1;
        // Each unlock starts a fresh drain of the encrypted residue.
        self.sweep_cursor = None;
        Ok(UnlockReport {
            duration_ns: self.kernel.soc.clock.now_ns() - t0,
            eager_bytes_decrypted: report.bytes,
            workers_used: report.workers_used,
        })
    }

    /// Resolve a page fault according to the device state (the §5/§7
    /// dispatcher).
    fn handle_fault(&mut self, fault: &PageFault) -> Result<(), SentryError> {
        self.ensure_no_txn("handle_fault")?;
        self.kernel.soc.failpoint("fault.begin")?;
        self.govern_pressure()?;
        let sensitive = self.kernel.proc(fault.pid)?.sensitive;
        match self.state {
            DeviceState::Locked => {
                if sensitive && self.config.background_support {
                    self.page_in(fault)
                } else {
                    // Foreground apps are parked while locked; a fault
                    // here is a programming error in the caller.
                    Err(SentryError::Unresolvable {
                        pid: fault.pid,
                        vpn: fault.vpn,
                    })
                }
            }
            DeviceState::Unlocked => {
                let t0 = self.kernel.soc.clock.now_ns();
                self.kernel
                    .soc
                    .clock
                    .advance(self.kernel.soc.costs.page_fault_ns);
                let pte = *self
                    .kernel
                    .proc(fault.pid)?
                    .page_table
                    .get(fault.vpn)
                    .ok_or(SentryError::Unresolvable {
                        pid: fault.pid,
                        vpn: fault.vpn,
                    })?;
                match pte.backing {
                    Backing::Dram(frame) if pte.encrypted => {
                        // A quarantined frame can never be decrypted:
                        // report the stored violation instead of
                        // faulting forever. Everything else keeps
                        // running — quarantine is per-page.
                        if let Some(err) = self.integrity.violation_for(frame) {
                            return Err(err);
                        }
                        // On-demand decryption in the fault handler (§7),
                        // with fault-cluster readahead: gather the
                        // faulting page plus its spatially-adjacent
                        // encrypted DRAM neighbours in the same aligned
                        // window and decrypt them in one batched kernel
                        // call — N first-touch faults become 1.
                        let mut cluster = self.config.readahead.cluster_pages.max(1);
                        if cluster > 1 && self.store.pressure_level() >= PressureLevel::High {
                            // Shed lever: under High pressure readahead
                            // companions are elective — the cluster
                            // shrinks to the faulting page alone.
                            self.store.pressure_mut().note_shed();
                            cluster = 1;
                        }
                        let base = fault.vpn - fault.vpn % cluster as u64;
                        let table = &self.kernel.proc(fault.pid)?.page_table;
                        let gathered = (base..base + cluster as u64)
                            .filter_map(|vpn| self.plan_decrypt((fault.pid, vpn), table.get(vpn)?))
                            .collect();
                        let decrypted = self.decrypt("handle_fault", gathered)?.pages;
                        // If the *faulting* page itself just failed its
                        // MAC it was quarantined mid-batch: surface its
                        // violation (readahead companions that failed
                        // are reported lazily, on their own first touch).
                        if let Some(err) = self.integrity.violation_for(frame) {
                            return Err(err);
                        }
                        let duration_ns = self.kernel.soc.clock.now_ns() - t0;
                        self.stats.ondemand_faults += 1;
                        self.stats.ondemand_bytes += decrypted as u64 * PAGE_SIZE;
                        self.stats.ondemand_ns += duration_ns;
                        self.stats.ondemand_max_ns = self.stats.ondemand_max_ns.max(duration_ns);
                        if decrypted > 1 {
                            self.stats.readahead_clusters += 1;
                            self.stats.readahead_pages += decrypted as u64 - 1;
                        }
                        self.last_fault = Some(FaultResolution {
                            pid: fault.pid,
                            vpn: fault.vpn,
                            pages: decrypted,
                            duration_ns,
                        });
                        // Recency hint: the sweeper resumes right past
                        // this cluster's window.
                        self.sweep_cursor = Some((fault.pid, base + cluster as u64));
                        Ok(())
                    }
                    _ => {
                        // A leftover trap (e.g., a page still on-SoC from
                        // a background stint): just re-arm.
                        let proc = self.kernel.proc_mut(fault.pid)?;
                        let pte = proc.page_table.get_mut(fault.vpn).expect("present");
                        pte.young = true;
                        Ok(())
                    }
                }
            }
        }
    }

    /// A sensitive background process's fault while locked (§5,
    /// Figure 1): page the encrypted page into an on-SoC slot, evicting
    /// the oldest resident page when every slot is taken. The eviction
    /// and the page-in are one transition (see `Transition::fault`).
    /// Pages already resident, or unencrypted (e.g. shared with a
    /// non-sensitive app), have nothing to decrypt and are just
    /// re-armed.
    fn page_in(&mut self, fault: &PageFault) -> Result<(), SentryError> {
        let fault_ns = self.kernel.soc.costs.page_fault_ns;
        self.kernel.soc.clock.advance(fault_ns);
        self.pager.stats.faults += 1;
        let mapping = (fault.pid, fault.vpn);
        let (pid, vpn) = mapping;
        let pte = self
            .kernel
            .proc_mut(pid)?
            .page_table
            .get_mut(vpn)
            .ok_or(SentryError::Unresolvable { pid, vpn })?;
        let frame = match pte.backing {
            Backing::Dram(frame) if pte.encrypted => frame,
            _ => {
                pte.young = true;
                return Ok(());
            }
        };
        let incoming = plan(mapping, frame, frame, IvSource::Stored(pte));
        // A quarantined frame never pages in: report its stored
        // violation instead of decrypting poisoned ciphertext.
        if let Some(err) = self.integrity.violation_for(frame) {
            self.pager.stats.quarantine_rejects += 1;
            return Err(err);
        }
        let epoch = self.lock_epoch;
        let (slot, victim) = self
            .pager
            .plan_fault(&mut self.store, &mut self.kernel, epoch)?;
        let paged_in = match self.transition("handle_fault").fault(victim, incoming) {
            // An eviction that did not commit keeps its victim resident
            // (an open journal is rolled forward by recovery).
            Err(e) if victim.is_some() => {
                if e.is_integrity_violation() {
                    self.pager.stats.quarantine_rejects += 1;
                }
                return Err(e);
            }
            Err(e) => Err(e),
            Ok((mut buf, verdict)) => {
                if victim.is_some() {
                    self.pager.evicted(slot);
                }
                let at = buf.len() - PAGE_SIZE as usize;
                self.page_into(slot, incoming, &mut buf[at..], verdict)
            }
        };
        if paged_in.is_err() {
            self.pager.give_back(slot);
        }
        paged_in
    }

    /// Decrypt the gathered, MAC-checked ciphertext of `incoming` into
    /// `slot` under the IV its PTE recorded. Journal-free by design:
    /// every byte this writes lands on-SoC (the slot), never in DRAM, so
    /// a kill at any step leaves DRAM and the PTE exactly as they were
    /// before the page-in. A MAC mismatch quarantines the frame, leaves
    /// the PTE untouched, and reports the violation.
    fn page_into(
        &mut self,
        slot: usize,
        incoming: JournalEntry,
        ciphertext: &mut [u8],
        verdict: VerifyOutcome,
    ) -> Result<(), SentryError> {
        self.kernel.soc.failpoint("pager.pagein")?;
        let mut t = self.transition("handle_fault");
        if let VerifyOutcome::Mismatch { expected, got } = verdict {
            let err = t.quarantine(&incoming, expected, got);
            self.pager.stats.quarantine_rejects += 1;
            return Err(err);
        }
        t.crypt(Route::Engine, Direction::Decrypt, &[incoming], ciphertext)?;
        let mapping = (incoming.pid, incoming.vpn);
        self.pager
            .paged_in(&mut self.kernel, slot, mapping, incoming.frame, ciphertext)
    }

    /// Process read with transparent fault handling.
    ///
    /// The access proceeds page by page, as hardware would: a fault on
    /// page *n* never forces pages before *n* to be re-touched, so even
    /// a single on-SoC slot makes forward progress (the two-page minimum
    /// configuration of §7).
    ///
    /// # Errors
    ///
    /// Propagates unresolvable faults and memory errors.
    pub fn read(&mut self, pid: Pid, vaddr: u64, buf: &mut [u8]) -> Result<(), SentryError> {
        let len = buf.len();
        let mut done = 0usize;
        while done < len {
            let cur = vaddr + done as u64;
            let n = ((PAGE_SIZE - cur % PAGE_SIZE) as usize).min(len - done);
            self.access_one_page(pid, cur, |kernel| -> Result<(), KernelError> {
                kernel.read(pid, cur, &mut buf[done..done + n])
            })?;
            done += n;
        }
        Ok(())
    }

    /// Process write with transparent fault handling; see
    /// [`Sentry::read`] for the paging discipline.
    ///
    /// # Errors
    ///
    /// Propagates unresolvable faults and memory errors.
    pub fn write(&mut self, pid: Pid, vaddr: u64, data: &[u8]) -> Result<(), SentryError> {
        let len = data.len();
        let mut done = 0usize;
        while done < len {
            let cur = vaddr + done as u64;
            let n = ((PAGE_SIZE - cur % PAGE_SIZE) as usize).min(len - done);
            self.access_one_page(pid, cur, |kernel| -> Result<(), KernelError> {
                kernel.write(pid, cur, &data[done..done + n])
            })?;
            done += n;
        }
        Ok(())
    }

    /// Retry a single-page access across fault resolutions. A page needs
    /// at most a handful of retries (resolve trap → hit); more indicates
    /// a livelock and is surfaced as unresolvable.
    fn access_one_page(
        &mut self,
        pid: Pid,
        vaddr: u64,
        mut op: impl FnMut(&mut Kernel) -> Result<(), KernelError>,
    ) -> Result<(), SentryError> {
        for _ in 0..4 {
            match op(&mut self.kernel) {
                Ok(()) => return Ok(()),
                Err(KernelError::Fault(f)) => self.handle_fault(&f)?,
                Err(e) => return Err(e.into()),
            }
        }
        Err(SentryError::Unresolvable {
            pid,
            vpn: vaddr / PAGE_SIZE,
        })
    }

    /// Touch one byte of every page in `vpns` (drives resume and
    /// scripted-run experiments).
    ///
    /// # Errors
    ///
    /// Propagates access errors.
    pub fn touch_pages(&mut self, pid: Pid, vpns: &[u64]) -> Result<(), SentryError> {
        for &vpn in vpns {
            let mut b = [0u8; 1];
            self.read(pid, vpn * PAGE_SIZE, &mut b)?;
        }
        Ok(())
    }

    /// Reset the on-demand counters (between experiment phases).
    pub fn reset_ondemand_stats(&mut self) {
        self.stats.ondemand_faults = 0;
        self.stats.ondemand_bytes = 0;
        self.stats.ondemand_ns = 0;
        self.stats.ondemand_max_ns = 0;
        self.stats.readahead_clusters = 0;
        self.stats.readahead_pages = 0;
        self.last_fault = None;
    }

    /// Boot-time (and post-kill) crash recovery: read the transition
    /// journal back from iRAM and complete every entry that had not
    /// marked done, idempotently.
    ///
    /// For each undone entry the frame's commit tag is compared against
    /// the journaled one — the final ciphertext block under CBC, the page
    /// MAC over IV ‖ ciphertext under XTS/CTR (see
    /// [`crate::CommitTagger`]).
    /// Every page cipher mode under the journaled IV is deterministic, so
    /// the tag tells recovery exactly which side of the publish the kill
    /// landed on:
    ///
    /// * **Encrypt** entries: tag match ⇒ the ciphertext already landed,
    ///   only the PTE flip remains. Mismatch ⇒ the source bytes (the
    ///   frame itself, or an on-SoC slot for evictions) are still
    ///   plaintext: re-encrypt under the journaled IV (byte-identical
    ///   ciphertext) and publish, then flip.
    /// * **Decrypt** entries: tag match ⇒ the frame still holds
    ///   ciphertext: decrypt, publish, flip. Mismatch ⇒ the plaintext
    ///   already landed, only the (idempotent) flip remains. With the
    ///   integrity plane on, the frame's MAC is checked first (see
    ///   `recover_decrypt`).
    ///
    /// Afterwards the pager's in-memory state is reconciled against the
    /// page tables. Running recover on a clean system is a no-op. The
    /// device's committed state (`lock_epoch`, locked/unlocked) is
    /// *never* advanced here — the killed operation simply retries,
    /// recomputes the same target epoch, and converges with an
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates memory and cipher errors.
    pub fn recover(&mut self) -> Result<RecoveryReport, SentryError> {
        let mut report = RecoveryReport::default();
        if let Some((op, entries)) = self.txn.load(&mut self.kernel.soc)? {
            report.journaled = entries.len();
            for (i, entry) in entries.iter().enumerate() {
                if entry.done {
                    report.already_done += 1;
                    continue;
                }
                match op {
                    TxnOp::Encrypt => self.recover_encrypt(entry)?,
                    TxnOp::Decrypt => self.recover_decrypt(entry)?,
                }
                self.txn.mark_done(&mut self.kernel.soc, i)?;
                report.completed += 1;
            }
            self.txn.close(&mut self.kernel.soc)?;
        }
        self.pager.reconcile(&self.kernel);
        report.quarantined = self.audit_encrypted_frames()?;
        Ok(report)
    }

    /// Boot-time integrity audit: a power event can decay or tamper
    /// DRAM while the machine is down, so after the journal is rolled
    /// forward every encrypted, tagged frame is MAC-verified against the
    /// on-SoC tag store. Decayed frames are quarantined now — the reboot
    /// converges on the surviving set instead of decrypting rot into
    /// plaintext on some later fault. Returns the number of frames newly
    /// quarantined. Every mapping of a frame recorded the IV its
    /// ciphertext was encrypted under, so the first one found answers.
    ///
    /// Kept frames are audited too. One that fails is dropped — tag
    /// retired, frame freed — not quarantined: its page's plaintext is
    /// intact, so the next lock simply encrypts it again.
    fn audit_encrypted_frames(&mut self) -> Result<usize, SentryError> {
        if !self.integrity.enabled() {
            return Ok(0);
        }
        // (frame, whether it is a kept frame) -> the ciphertext's plan.
        let mut frames = BTreeMap::new();
        for (&pid, proc) in &self.kernel.procs {
            for (vpn, pte) in proc.page_table.iter() {
                let (frame, kept) = match (pte.backing, pte.home_frame) {
                    (Backing::Dram(frame), _) if pte.encrypted => (frame, false),
                    (Backing::Dram(_), Some(kept)) => (kept, true),
                    _ => continue,
                };
                frames
                    .entry((frame, kept))
                    .or_insert_with(|| plan((pid, vpn), frame, frame, IvSource::Stored(pte)));
            }
        }
        let mut quarantined = 0usize;
        for ((frame, kept), mut e) in frames {
            if !self.integrity.has_tag(frame) || self.integrity.is_quarantined(frame) {
                continue;
            }
            let mut page = vec![0u8; PAGE_SIZE as usize];
            self.kernel.soc.mem_read(frame, &mut page)?;
            let verdict = self.integrity.verify_frames(
                &mut self.kernel.soc,
                &mut self.store,
                std::slice::from_mut(&mut e),
                &mut page,
            )?[0];
            let VerifyOutcome::Mismatch { expected, got } = verdict else {
                continue;
            };
            if kept {
                self.integrity.retire_tag(&mut self.kernel.soc, frame)?;
                self.kernel.frames.free(frame);
                if let Some(pte) = self.kernel.proc_mut(e.pid)?.page_table.get_mut(e.vpn) {
                    pte.home_frame = None;
                }
                continue;
            }
            let _ = self.transition("recover").quarantine(&e, expected, got);
            quarantined += 1;
        }
        Ok(quarantined)
    }

    /// Complete one interrupted encrypt entry (lock or eviction).
    fn recover_encrypt(&mut self, entry: &JournalEntry) -> Result<(), SentryError> {
        let mut t = self.transition("recover");
        if t.frame_tag(entry)? != entry.tag {
            // The publish never landed; the source still holds
            // plaintext. Roll forward: re-encrypt and publish, with the
            // integrity tag stored on-SoC before the ciphertext goes to
            // DRAM — the same ordering the live path guarantees. The
            // cipher is deterministic under the journaled IV, so the
            // journaled tag is the redo's tag: nothing is re-MACed.
            let pages = [*entry];
            let mut page = t.gather(&pages)?;
            t.crypt(Route::Engine, Direction::Encrypt, &pages, &mut page)?;
            t.store_tags(&pages, &page)?;
            t.kernel.soc.mem_write(entry.frame, &page)?;
            audit_ciphertext(entry, &page);
            // Fresh ciphertext + fresh tag from the intact source: a
            // frame quarantined mid-eviction is healed by this replay.
            t.integrity.release(entry.frame);
        }
        let state = PageState::Encrypted {
            version: entry.version,
        };
        set_page_state(t.kernel, entry.frame, (entry.pid, entry.vpn), state);
        Ok(())
    }

    /// Complete one interrupted decrypt entry (unlock, fault, sweep).
    ///
    /// With the integrity plane active and a tag on-SoC for the frame,
    /// recovery MAC-verifies before rolling forward — a tampered frame
    /// can never be "recovered" into plaintext. Three cases:
    ///
    /// * MAC verifies ⇒ genuine ciphertext: decrypt, publish, flip,
    ///   retire the tag.
    /// * MAC fails, but trial-encrypting the frame's current contents
    ///   under the journaled IV reproduces the journaled ciphertext tag
    ///   ⇒ the plaintext already landed before the kill (the tag simply
    ///   had not been retired yet): flip and retire, nothing to publish.
    /// * MAC fails and the trial does not match ⇒ the frame was
    ///   tampered with while the transition was in flight: quarantine
    ///   it, leave every PTE encrypted, and let recovery continue over
    ///   the surviving entries.
    ///
    /// An out-of-place entry never wrote its source, so recovery simply
    /// redoes the decrypt from the kept frame (MAC-checked first); a
    /// kept frame that fails its MAC is quarantined, its page stays
    /// ciphertext on it, and the fresh frame is freed.
    fn recover_decrypt(&mut self, entry: &JournalEntry) -> Result<(), SentryError> {
        let mapping = (entry.pid, entry.vpn);
        let in_place = entry.src == entry.frame;
        let mut t = self.transition("recover");
        let tagged = in_place && t.integrity.enabled() && t.integrity.has_tag(entry.frame);
        let mut pages = vec![*entry];
        // The frame's ciphertext, when it still has to be decrypted.
        let ciphertext = if !in_place {
            let mut page = t.gather(&pages)?;
            t.verify(&mut pages, &mut page)?;
            if pages.is_empty() {
                set_page_state(t.kernel, entry.src, mapping, PageState::Rearmed);
                // The fresh frame may already hold plaintext: the
                // zeroing thread scrubs it.
                t.kernel.frames.free(entry.frame);
                return Ok(());
            }
            Some(page)
        } else if tagged {
            let mut page = t.gather(&pages)?;
            let verdict =
                t.integrity
                    .verify_frames(&mut t.kernel.soc, t.store, &mut pages, &mut page)?[0];
            match verdict {
                VerifyOutcome::Mismatch { expected, got } => {
                    let mut trial = [*entry];
                    t.crypt(Route::Engine, Direction::Encrypt, &trial, &mut page)?;
                    t.stamp(&mut trial, &page);
                    if trial[0].tag != entry.tag {
                        let _ = t.quarantine(entry, expected, got);
                        // The publish loop flips PTEs *before* writing
                        // the plaintext, so the dying transition may have
                        // left mappings claiming plaintext over what is
                        // now tampered ciphertext. Force them back to
                        // encrypted: every later access must fault into
                        // the quarantine check, never read the frame raw.
                        set_page_state(t.kernel, entry.frame, mapping, PageState::Rearmed);
                        return Ok(());
                    }
                    // Plaintext already landed: only the flip remains.
                    None
                }
                VerifyOutcome::Ok | VerifyOutcome::Untagged => Some(page),
            }
        } else if t.frame_tag(entry)? == entry.tag {
            // No tag to check (the plane is disabled, or the dying
            // transition published and retired it): the commit tag shows
            // whether the frame still holds ciphertext.
            Some(t.gather(&pages)?)
        } else {
            None
        };
        if let Some(mut page) = ciphertext {
            t.crypt(Route::Engine, Direction::Decrypt, &pages, &mut page)?;
            t.kernel.soc.mem_write(entry.frame, &page)?;
        }
        if tagged {
            t.integrity.retire_tag(&mut t.kernel.soc, entry.frame)?;
        }
        let kept = (!in_place).then_some(entry.src);
        set_page_state(
            t.kernel,
            entry.frame,
            mapping,
            PageState::Plaintext { kept },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PageCipherMode;
    use sentry_soc::Soc;

    fn tegra_sentry() -> Sentry {
        Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(2),
        )
        .unwrap()
    }

    fn nexus_sentry() -> Sentry {
        Sentry::new(Kernel::new(Soc::nexus4_small()), SentryConfig::nexus4()).unwrap()
    }

    #[test]
    fn debug_never_prints_derived_key_material() {
        let config = SentryConfig::tegra3_locked_l2(2).with_cipher_mode(PageCipherMode::Xts);
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
        assert!(s.integrity.enabled());
        let pid = s.kernel.spawn("mail");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0x5Au8; 8 * 4096]).unwrap();
        // A lock batch builds the MACs' bitsliced contexts too.
        s.on_lock().unwrap();
        let root = Aes::new(&s.volatile_key().read(&mut s.kernel.soc).unwrap()).unwrap();
        let derive = |label: &[u8; 16]| {
            let mut key = *label;
            root.encrypt_block(&mut key);
            key
        };
        let mac_key = derive(b"SENTRY-INTEGRITY");
        let cmac = sentry_crypto::Cmac::new(Aes::new(&mac_key).unwrap());
        let secrets = [
            derive(b"SENTRY-SPILL-KEY"),
            mac_key,
            *cmac.subkey1(),
            *cmac.subkey2(),
        ];
        let shown = format!("{s:?}");
        for secret in secrets {
            assert!(
                !shown.contains(&format!("{secret:?}")),
                "{secret:?} printed"
            );
        }
    }

    #[test]
    fn lock_unlock_roundtrip_preserves_data() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("twitter");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..200u8).cycle().take(3 * 4096).collect();
        s.write(pid, 0, &data).unwrap();

        let lock = s.on_lock().unwrap();
        assert!(lock.bytes_encrypted >= 3 * 4096);
        s.on_unlock().unwrap();

        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert!(s.stats.ondemand_faults >= 3, "lazy decryption must fault");
    }

    #[test]
    fn xts_and_ctr_modes_lock_unlock_and_page_in() {
        for mode in [PageCipherMode::Xts, PageCipherMode::Ctr] {
            let config = SentryConfig::tegra3_locked_l2(2)
                .with_cipher_mode(mode)
                .with_parallel_workers(4);
            let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
            assert_eq!(
                s.kernel.crypto.preferred_mut().unwrap().mode(),
                mode,
                "registered engine follows the configured mode"
            );
            let pid = s.kernel.spawn("twitter");
            s.mark_sensitive(pid).unwrap();
            let secret = b"feed cache: @alice dm draft.....";
            let data = secret.repeat(12 * 4096 / secret.len());
            s.write(pid, 0, &data).unwrap();

            let lock = s.on_lock().unwrap();
            assert!(lock.bytes_encrypted >= 12 * 4096);
            assert!(
                s.stats.crypt_batches >= 1,
                "the batched lane path must carry the {mode} lock sweep"
            );
            s.kernel.soc.cache_maintenance_flush();
            let needle = b"feed cache: @alice";
            for (_addr, frame) in s.kernel.soc.dram.iter_frames() {
                assert!(
                    !frame.windows(needle.len()).any(|w| w == needle.as_slice()),
                    "plaintext found in DRAM after a {mode} lock"
                );
            }

            // A background fault while locked pages in through the pager
            // — same mode, same commit-tag scheme on its eviction path.
            let mut probe = [0u8; 64];
            s.read(pid, 0, &mut probe).unwrap();
            assert_eq!(&probe[..], &data[..64]);

            s.on_unlock().unwrap();
            let mut back = vec![0u8; data.len()];
            s.read(pid, 0, &mut back).unwrap();
            assert_eq!(back, data, "{mode} unlock restores every byte");
        }
    }

    #[test]
    fn locked_dram_holds_ciphertext_not_plaintext() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("contacts");
        s.mark_sensitive(pid).unwrap();
        let secret = b"alice's phone number: 555-0199..................";
        s.write(pid, 0x4000, &secret.repeat(85)).unwrap();
        s.on_lock().unwrap();

        // Flush the cache so DRAM reflects memory state, then scan all of
        // DRAM for the plaintext.
        s.kernel.soc.cache_maintenance_flush();
        let needle = b"alice's phone number";
        for (_addr, frame) in s.kernel.soc.dram.iter_frames() {
            assert!(
                !frame.windows(needle.len()).any(|w| w == needle.as_slice()),
                "plaintext found in DRAM after lock"
            );
        }
    }

    #[test]
    fn non_sensitive_apps_are_untouched() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("calculator");
        s.write(pid, 0, b"not secret").unwrap();
        let report = s.on_lock().unwrap();
        assert_eq!(report.bytes_encrypted, 0);
        // Still directly readable (no faults).
        let mut buf = [0u8; 10];
        s.read(pid, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"not secret");
    }

    #[test]
    fn shared_with_non_sensitive_pages_are_skipped() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("maps");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[1u8; 4096]).unwrap();
        s.write(pid, 4096, &[2u8; 4096]).unwrap();
        s.kernel
            .proc_mut(pid)
            .unwrap()
            .page_table
            .get_mut(1)
            .unwrap()
            .sharing = Sharing::SharedWithNonSensitive;
        let report = s.on_lock().unwrap();
        assert_eq!(report.bytes_encrypted, 4096);
        assert_eq!(report.skipped_shared_pages, 1);
    }

    #[test]
    fn dma_regions_decrypt_eagerly_on_unlock() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("maps");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[7u8; 2 * 4096]).unwrap();
        s.kernel
            .proc_mut(pid)
            .unwrap()
            .page_table
            .get_mut(0)
            .unwrap()
            .dma_region = true;
        s.on_lock().unwrap();
        let report = s.on_unlock().unwrap();
        assert_eq!(report.eager_bytes_decrypted, 4096);
        // The DMA page is immediately accessible without a fault; the
        // other page still traps.
        assert!(!s
            .kernel
            .proc(pid)
            .unwrap()
            .page_table
            .get(0)
            .unwrap()
            .traps());
        assert!(s
            .kernel
            .proc(pid)
            .unwrap()
            .page_table
            .get(1)
            .unwrap()
            .traps());
    }

    #[test]
    fn lock_downscales_accel_clock_figure_11() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("twitter");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[9u8; 2 * 4096]).unwrap();
        s.kernel.soc.accel.state = AccelPowerState::Awake;
        let awake_ns = s.kernel.soc.accel.op_duration_ns(PAGE_SIZE);

        s.on_lock().unwrap();
        assert_eq!(
            s.kernel.soc.accel.state,
            AccelPowerState::DownScaled,
            "encrypt-on-lock must run under the down-scaled clock (§8.2)"
        );
        let locked_ns = s.kernel.soc.accel.op_duration_ns(PAGE_SIZE);
        assert!(
            locked_ns >= 3 * awake_ns,
            "Figure 11: accelerator ops while locked must be several \
             times slower ({locked_ns} ns locked vs {awake_ns} ns awake)"
        );

        s.on_unlock().unwrap();
        assert_eq!(s.kernel.soc.accel.state, AccelPowerState::Awake);
    }

    #[test]
    fn unlock_batches_route_through_accel_queue_when_enabled() {
        use crate::config::PipelineConfig;
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Ctr)
            .with_pipeline(PipelineConfig::enabled());
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
        let pid = s.kernel.spawn("maps");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..255u8).cycle().take(3 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        for vpn in 0..3 {
            s.kernel
                .proc_mut(pid)
                .unwrap()
                .page_table
                .get_mut(vpn)
                .unwrap()
                .dma_region = true;
        }
        s.on_lock().unwrap();
        let report = s.on_unlock().unwrap();
        assert_eq!(report.eager_bytes_decrypted, 3 * 4096);
        assert_eq!(
            s.stats.routed_batches, 1,
            "the eager unlock batch must ride the accelerator queue"
        );
        assert_eq!(s.stats.routed_batch_pages, 3);
        assert!(s.kernel.soc.accel_queue.stats.ops >= 1);
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data, "routed decrypt must be byte-identical");
    }

    #[test]
    fn locked_fault_clusters_fall_back_with_down_scaled_reason() {
        use crate::config::{PipelineConfig, ReadaheadConfig};
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Ctr)
            .with_pipeline(PipelineConfig::enabled())
            .with_readahead(ReadaheadConfig::with_cluster(4));
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
        let pid = s.kernel.spawn("mail");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..251u8).cycle().take(4 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        // Unlock restored the Awake clock; model a thermal/PM down-scale
        // before the lazy faults arrive. The fault cluster pulls a batch
        // through the crypt step, which must take the typed inline
        // fallback, not the queue.
        s.kernel.soc.accel.state = AccelPowerState::DownScaled;
        let mut probe = vec![0u8; 4 * 4096];
        s.read(pid, 0, &mut probe).unwrap();
        assert_eq!(probe, data);
        assert_eq!(s.stats.routed_batches, 0);
        assert!(
            s.stats.batch_fallback.down_scaled >= 1,
            "locked-state batches must record the DownScaled fallback"
        );
    }

    #[test]
    fn cbc_batches_fall_back_with_unsupported_mode_reason() {
        use crate::config::PipelineConfig;
        let config = SentryConfig::tegra3_locked_l2(2).with_pipeline(PipelineConfig::enabled());
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
        let pid = s.kernel.spawn("maps");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[3u8; 2 * 4096]).unwrap();
        for vpn in 0..2 {
            s.kernel
                .proc_mut(pid)
                .unwrap()
                .page_table
                .get_mut(vpn)
                .unwrap()
                .dma_region = true;
        }
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        assert_eq!(s.stats.routed_batches, 0);
        assert!(
            s.stats.batch_fallback.unsupported_mode >= 1,
            "CBC batches must record the UnsupportedCipherMode fallback"
        );
    }

    #[test]
    fn a_crypt_fault_in_a_routed_batch_leaves_no_descriptor_queued() {
        use crate::config::PipelineConfig;
        use sentry_soc::failpoint::{FaultAction, FaultPlan};
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Ctr)
            .with_pipeline(PipelineConfig::enabled());
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
        let pid = s.kernel.spawn("camera");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..253u8).cycle().take(3 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        for vpn in 0..3 {
            s.kernel
                .proc_mut(pid)
                .unwrap()
                .page_table
                .get_mut(vpn)
                .unwrap()
                .dma_region = true;
        }
        s.on_lock().unwrap();
        // The eager DMA batch is routed; its host transform fails once
        // and the crypt step retries the batch.
        s.kernel.soc.failpoints.arm(FaultPlan::at_site(
            "crypt.dispatch",
            0,
            FaultAction::CryptError,
        ));
        s.on_unlock().unwrap();
        s.kernel.soc.failpoints.disarm();
        assert_eq!(s.stats.crypt.recovered, 1, "{:?}", s.stats.crypt);
        let queue = &s.kernel.soc.accel_queue;
        assert_eq!(
            queue.pending_ops(),
            0,
            "the failed attempt's descriptor was retired"
        );
        assert_eq!(queue.stats.ops, 2, "one descriptor per attempt");
        assert_eq!(queue.stats.max_depth, 1, "the retry never queued behind it");
        assert_eq!(s.stats.routed_batches, 1);
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn nexus_parks_sensitive_apps_while_locked() {
        let mut s = nexus_sentry();
        let pid = s.kernel.spawn("mail");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, b"inbox").unwrap();
        s.on_lock().unwrap();
        assert!(!s.kernel.proc(pid).unwrap().schedulable);
        // Background access fails: no background support on Nexus 4.
        let mut buf = [0u8; 5];
        assert!(matches!(
            s.read(pid, 0, &mut buf),
            Err(SentryError::Unresolvable { .. })
        ));
        s.on_unlock().unwrap();
        assert!(s.kernel.proc(pid).unwrap().schedulable);
        s.read(pid, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"inbox");
    }

    #[test]
    fn background_access_pages_through_locked_cache() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("xmms2");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..=255u8).cycle().take(8 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();

        // Read everything back while locked: the pager decrypts into
        // locked-way slots.
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert!(s.pager.stats.pageins >= 8);

        // DRAM still holds no plaintext.
        s.kernel.soc.cache_maintenance_flush();
        let needle = &data[..64];
        for (_addr, frame) in s.kernel.soc.dram.iter_frames() {
            assert!(!frame.windows(64).any(|w| w == needle));
        }
    }

    #[test]
    fn background_write_survives_eviction_and_unlock() {
        let mut s = Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(1).with_slot_limit(2),
        )
        .unwrap();
        let pid = s.kernel.spawn("alpine");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0u8; 6 * 4096]).unwrap();
        s.on_lock().unwrap();

        // Write new mail into page 0 while locked, then touch enough
        // other pages to force page 0's eviction.
        s.write(pid, 100, b"new mail arrived").unwrap();
        for vpn in 1..6u64 {
            s.touch_pages(pid, &[vpn]).unwrap();
        }
        assert!(s.pager.stats.pageouts >= 1, "eviction must have happened");

        s.on_unlock().unwrap();
        let mut buf = [0u8; 16];
        s.read(pid, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"new mail arrived");
    }

    /// A device whose four pages of `pid` paged in while locked and stay
    /// resident across the unlock that follows.
    fn resident_after_unlock() -> (Sentry, Pid) {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("mail");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[1u8; 8 * 4096]).unwrap();
        s.on_lock().unwrap();
        s.touch_pages(pid, &[0, 1, 2, 3]).unwrap();
        s.on_unlock().unwrap();
        assert_eq!(s.pager.resident_count(), 4);
        (s, pid)
    }

    #[test]
    fn a_relock_reports_the_pager_pages_it_re_encrypts() {
        let (mut s, pid) = resident_after_unlock();
        let k = 3u64;
        for vpn in 0..k {
            s.write(pid, vpn * PAGE_SIZE, b"rewritten").unwrap();
        }
        let report = s.on_lock().unwrap();
        assert_eq!(s.pager.stats.evict_batch_pages, k);
        assert_eq!(report.batch_pages, k, "the written resident pages");
        assert_eq!(report.bytes_encrypted, k * PAGE_SIZE);
        assert_eq!(s.pager.resident_count(), 0);
        s.on_unlock().unwrap();
        let mut buf = [0u8; 9];
        s.read(pid, 2 * PAGE_SIZE, &mut buf).unwrap();
        assert_eq!(&buf, b"rewritten");
    }

    #[test]
    fn a_relock_stores_pager_and_lock_tags_in_one_chain() {
        let (mut s, pid) = resident_after_unlock();
        assert!(s.integrity.enabled());
        // k = 2 resident pages and m = 3 DRAM pages, all written.
        for vpn in [0u64, 1, 4, 5, 6] {
            s.write(pid, vpn * PAGE_SIZE, b"rewritten").unwrap();
        }
        let chains = s.integrity.stats.mac_chains;
        let report = s.on_lock().unwrap();
        assert_eq!(s.integrity.stats.mac_chains - chains, 1, "one tag store");
        assert_eq!(report.batch_pages, 5);
    }

    #[test]
    fn double_lock_is_rejected() {
        let mut s = tegra_sentry();
        s.on_lock().unwrap();
        assert!(matches!(
            s.on_lock(),
            Err(SentryError::WrongState {
                expected_locked: false
            })
        ));
        s.on_unlock().unwrap();
        assert!(matches!(
            s.on_unlock(),
            Err(SentryError::WrongState {
                expected_locked: true
            })
        ));
    }

    #[test]
    fn minimum_two_page_configuration_works() {
        // §7: "the minimum amount of on-SoC memory required to implement
        // Sentry is only two pages" — one for AES state, one page slot.
        // (Plus the volatile key page in our accounting.)
        let mut s = Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(1).with_slot_limit(1),
        )
        .unwrap();
        let pid = s.kernel.spawn("tiny");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..16u8).cycle().take(4 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.pager.slot_count(), 1, "slot cap respected");
        assert!(
            s.pager.stats.pageouts >= 3,
            "one slot means constant eviction: {:?}",
            s.pager.stats
        );
    }

    /// Snapshot the ciphertext bytes of a pid's DRAM frame for `vpn`.
    fn frame_bytes(s: &mut Sentry, pid: Pid, vpn: u64) -> Vec<u8> {
        s.kernel.soc.cache_maintenance_flush();
        let frame = match s
            .kernel
            .proc(pid)
            .unwrap()
            .page_table
            .get(vpn)
            .unwrap()
            .backing
        {
            Backing::Dram(f) => f,
            other => panic!("expected DRAM backing, got {other:?}"),
        };
        let mut page = vec![0u8; 4096];
        s.kernel.soc.mem_read(frame, &mut page).unwrap();
        page
    }

    #[test]
    fn same_plaintext_encrypts_differently_across_lock_cycles() {
        // IV-reuse regression: the volatile key survives a
        // lock→unlock→lock sequence, so the IV must not. With a new
        // version per encrypt, identical plaintext in the same page
        // yields different ciphertext on each cycle.
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("notes");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0xABu8; 4096]).unwrap();

        s.on_lock().unwrap();
        let first = frame_bytes(&mut s, pid, 0);
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0]).unwrap(); // decrypt, leave plaintext unchanged

        s.on_lock().unwrap();
        let second = frame_bytes(&mut s, pid, 0);
        assert_ne!(first, second, "ciphertext repeated across lock cycles");

        // And the page still decrypts correctly under the new version.
        s.on_unlock().unwrap();
        let mut back = vec![0u8; 4096];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, vec![0xABu8; 4096]);
    }

    #[test]
    fn pages_left_encrypted_across_cycles_still_decrypt() {
        // A page nobody touches between unlock and the next lock keeps
        // its old ciphertext; its PTE must remember that version.
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("vault");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[1u8; 4096]).unwrap();
        s.write(pid, 4096, &[2u8; 4096]).unwrap();

        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0]).unwrap(); // page 1 stays encrypted (epoch 1)
        s.on_lock().unwrap(); // page 0 re-encrypts at epoch 2
        s.on_unlock().unwrap();

        let mut back = vec![0u8; 2 * 4096];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(&back[..4096], &[1u8; 4096][..]);
        assert_eq!(&back[4096..], &[2u8; 4096][..]);
    }

    fn dram_snapshot(s: &mut Sentry) -> Vec<(u64, Vec<u8>)> {
        s.kernel.soc.cache_maintenance_flush();
        s.kernel
            .soc
            .dram
            .iter_frames()
            .map(|(addr, frame)| (addr, frame.to_vec()))
            .collect()
    }

    fn locked_dram_with_workers(workers: usize) -> Vec<(u64, Vec<u8>)> {
        // The volatile key is deterministic per configuration, so two
        // instances driven identically produce comparable DRAM images.
        let mut s = Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(2).with_parallel_workers(workers),
        )
        .unwrap();
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..251u8).cycle().take(24 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        let report = s.on_lock().unwrap();
        assert_eq!(report.batch_pages, 24);
        assert_eq!(report.workers_used, workers.clamp(1, 24));
        dram_snapshot(&mut s)
    }

    #[test]
    fn worker_counts_produce_byte_identical_dram() {
        let reference = locked_dram_with_workers(1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                locked_dram_with_workers(workers),
                reference,
                "{workers} workers diverged from sequential ciphertext"
            );
        }
    }

    #[test]
    fn parallel_lock_is_faster_in_simulated_time() {
        let duration = |workers: usize| {
            let mut s = Sentry::new(
                Kernel::new(Soc::tegra3_small()),
                SentryConfig::tegra3_locked_l2(2).with_parallel_workers(workers),
            )
            .unwrap();
            let pid = s.kernel.spawn("app");
            s.mark_sensitive(pid).unwrap();
            s.write(pid, 0, &[9u8; 64 * 4096]).unwrap();
            s.on_lock().unwrap().duration_ns
        };
        let serial = duration(1);
        let parallel = duration(4);
        assert!(
            parallel * 2 < serial,
            "4 workers should at least halve the simulated lock time \
             (serial {serial} ns, parallel {parallel} ns)"
        );
    }

    #[test]
    fn a_parallel_lock_is_one_counted_batch() {
        let mut s = Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(2).with_parallel_workers(4),
        )
        .unwrap();
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[5u8; 8 * 4096]).unwrap();
        let report = s.on_lock().unwrap();
        assert_eq!(report.workers_used, 4);
        assert_eq!(report.batch_pages, 8);
        assert_eq!(report.bytes_encrypted, 8 * 4096);
        assert_eq!(s.stats.crypt_batches, 1);
        assert_eq!(s.stats.crypt_batch_pages, 8);
        assert_eq!(s.stats.largest_batch_pages, 8);
    }

    fn readahead_sentry(cluster: usize, budget: usize) -> Sentry {
        Sentry::new(
            Kernel::new(Soc::tegra3_small()),
            SentryConfig::tegra3_locked_l2(2).with_readahead(
                crate::config::ReadaheadConfig::with_cluster(cluster).sweep_budget(budget),
            ),
        )
        .unwrap()
    }

    #[test]
    fn readahead_cluster_turns_n_faults_into_one() {
        let mut s = readahead_sentry(4, 0);
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..199u8).cycle().take(8 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        s.on_unlock().unwrap();

        s.touch_pages(pid, &[0]).unwrap();
        assert_eq!(s.stats.ondemand_faults, 1);
        assert_eq!(s.stats.readahead_clusters, 1);
        assert_eq!(s.stats.readahead_pages, 3);
        assert_eq!(s.last_fault.unwrap().pages, 4);
        let traps: Vec<bool> = (0..8)
            .map(|vpn| {
                s.kernel
                    .proc(pid)
                    .unwrap()
                    .page_table
                    .get(vpn)
                    .unwrap()
                    .traps()
            })
            .collect();
        assert_eq!(
            traps,
            [false, false, false, false, true, true, true, true],
            "the aligned 4-page window around vpn 0 is decrypted, the rest still traps"
        );

        // The whole set reads back intact with only two faults total.
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.stats.ondemand_faults, 2, "one fault per 4-page cluster");
    }

    #[test]
    fn sweeper_drains_residual_to_zero() {
        let mut s = readahead_sentry(4, 3);
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..97u8).cycle().take(8 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        assert_eq!(s.residual_encrypted_pages(), 8);

        let report = s.scheduler_tick().unwrap();
        assert_eq!(report.pages, 3);
        assert_eq!(report.residual_pages, 5);
        assert_eq!(s.kernel.sched.ticks, 1);

        let mut guard = 0;
        while s.residual_encrypted_pages() > 0 {
            s.scheduler_tick().unwrap();
            guard += 1;
            assert!(guard < 16, "sweeper failed to converge");
        }
        assert_eq!(s.stats.sweep_pages, 8);
        assert!(s.stats.sweep_ns > 0);

        // Fully drained: reading everything back faults zero times.
        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.stats.ondemand_faults, 0);
    }

    #[test]
    fn faults_mid_sweep_dedupe_coherently() {
        let mut s = readahead_sentry(8, 3);
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        let data: Vec<u8> = (0..251u8).cycle().take(8 * 4096).collect();
        s.write(pid, 0, &data).unwrap();
        s.on_lock().unwrap();
        s.on_unlock().unwrap();

        // Sweeper drains vpns 0..3; the fault cluster on vpn 4 must then
        // gather only the still-encrypted remainder (coherence rule:
        // the PTE encrypted bit is re-checked at decrypt time).
        s.scheduler_tick().unwrap();
        assert_eq!(s.residual_encrypted_pages(), 5);
        s.touch_pages(pid, &[4]).unwrap();
        assert_eq!(s.stats.ondemand_faults, 1);
        assert_eq!(
            s.last_fault.unwrap().pages,
            5,
            "only the residue is decrypted"
        );
        assert_eq!(s.residual_encrypted_pages(), 0);

        let mut back = vec![0u8; data.len()];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, data, "no frame was double-decrypted");
    }

    #[test]
    fn cluster_one_degenerates_to_single_page_faulting() {
        let run = |readahead: bool| {
            let mut s = if readahead {
                readahead_sentry(1, 0)
            } else {
                tegra_sentry()
            };
            let pid = s.kernel.spawn("app");
            s.mark_sensitive(pid).unwrap();
            let data: Vec<u8> = (0..53u8).cycle().take(6 * 4096).collect();
            s.write(pid, 0, &data).unwrap();
            s.on_lock().unwrap();
            s.on_unlock().unwrap();
            let mut back = vec![0u8; data.len()];
            s.read(pid, 0, &mut back).unwrap();
            assert_eq!(back, data);
            (
                s.stats.ondemand_faults,
                s.stats.ondemand_bytes,
                s.stats.ondemand_ns,
                s.stats.readahead_clusters,
            )
        };
        let (faults, bytes, ns, clusters) = run(true);
        assert_eq!(
            (faults, bytes, ns, clusters),
            run(false),
            "cluster_pages=1 must equal disabled readahead exactly"
        );
        assert_eq!(faults, 6);
        assert_eq!(clusters, 0);
        assert!(ns > 0 && bytes == 6 * 4096);
    }

    #[test]
    fn sweep_is_a_noop_while_locked() {
        let mut s = readahead_sentry(8, 4);
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[6u8; 4 * 4096]).unwrap();
        s.on_lock().unwrap();
        let report = s.scheduler_tick().unwrap();
        assert_eq!(report.pages, 0);
        assert_eq!(s.stats.sweep_runs, 0);
        assert_eq!(
            s.residual_encrypted_pages(),
            4,
            "nothing decrypted while locked"
        );
        assert_eq!(s.kernel.sched.ticks, 1, "the tick itself still counts");
    }

    #[test]
    fn shared_frames_decrypt_once_under_readahead() {
        let mut s = readahead_sentry(8, 0);
        let a = s.kernel.spawn("writer");
        let b = s.kernel.spawn("reader");
        s.mark_sensitive(a).unwrap();
        s.mark_sensitive(b).unwrap();
        s.write(a, 0, &[0x5Au8; 2 * 4096]).unwrap();
        s.kernel.map_shared(a, 0, b, 0).unwrap();
        s.on_lock().unwrap();
        s.on_unlock().unwrap();

        s.touch_pages(a, &[0]).unwrap();
        // Both mappings of the shared frame are re-armed by one decrypt.
        for pid in [a, b] {
            assert!(
                !s.kernel
                    .proc(pid)
                    .unwrap()
                    .page_table
                    .get(0)
                    .unwrap()
                    .encrypted,
                "pid {pid} still marked encrypted"
            );
        }
        let mut via_b = vec![0u8; 4096];
        s.read(b, 0, &mut via_b).unwrap();
        assert_eq!(via_b, vec![0x5Au8; 4096]);
    }

    #[test]
    fn zero_thread_drains_before_lock() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("app");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, b"freed secret").unwrap();
        s.kernel.free_page(pid, 0).unwrap();
        assert!(s.kernel.frames.dirty_count() > 0);
        let report = s.on_lock().unwrap();
        assert!(report.zero_drain_ns > 0);
        assert_eq!(s.kernel.frames.dirty_count(), 0);
    }

    /// Three lock/unlock cycles under each page cipher mode, with the
    /// nonce audit watching every page ciphertext that reaches DRAM: no
    /// IV may ever encrypt two different plaintexts. The world has
    /// clean, dirty, DMA-region, sensitive-shared and remapped pages,
    /// and the third lock — the first with kept frames to re-arm — is
    /// killed mid-publish and retried after recovery. DRAM holds no
    /// plaintext right after any lock.
    ///
    /// While each lock holds, a background write pages vpn 2 into the
    /// one on-SoC slot, a read of vpn 4 evicts it, a second write
    /// rewrites it and a second read evicts it again: the two
    /// ciphertexts of vpn 2's home frame must share no more bytes of
    /// `C1 ⊕ C2` with `P1 ⊕ P2` than chance, which a reused CTR
    /// keystream would match on every byte. Between locks, vpn 6 is
    /// freed and mapped afresh, so its next encrypt starts from a new
    /// PTE.
    #[test]
    fn lifecycle_encrypts_never_reuse_an_iv() {
        use crate::transition::nonce_audit;
        use sentry_soc::failpoint::{FaultAction, FaultPlan};
        const NEEDLE: &[u8; 16] = b"NONCE-AUDIT-PAGE";
        let image = |vpn: u64, version: u8| {
            let mut page = vec![(vpn as u8).wrapping_mul(29) ^ version; 4096];
            page[..16].copy_from_slice(NEEDLE);
            page
        };
        // vpn 2's home frame, read straight from the DRAM array.
        let home_image = |s: &mut Sentry, app: Pid| {
            let Backing::Dram(frame) = pte_of(s, app, 2).backing else {
                panic!("vpn 2 was not evicted");
            };
            s.kernel.soc.cache_maintenance_flush();
            let mut image = vec![0u8; 4096];
            s.kernel.soc.dram.read(frame, &mut image);
            image
        };
        for mode in [
            PageCipherMode::Cbc,
            PageCipherMode::Xts,
            PageCipherMode::Ctr,
        ] {
            let config = SentryConfig::tegra3_locked_l2(2)
                .with_cipher_mode(mode)
                .with_slot_limit(1);
            let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
            let app = s.kernel.spawn("app");
            let peer = s.kernel.spawn("peer");
            s.mark_sensitive(app).unwrap();
            s.mark_sensitive(peer).unwrap();
            // vpn 0: DMA region; vpn 1: shared with the sensitive peer;
            // vpn 2: rewritten while locked and while unlocked; vpn 3:
            // rewritten with its own bytes every cycle; vpns 4 and 5:
            // only ever read; vpn 6: remapped every cycle.
            let mut versions = [0u8; 7];
            for vpn in 0..7 {
                s.write(app, vpn * PAGE_SIZE, &image(vpn, 0)).unwrap();
            }
            s.kernel.map_shared(app, 1, peer, 0).unwrap();
            s.kernel
                .proc_mut(app)
                .unwrap()
                .page_table
                .get_mut(0)
                .unwrap()
                .dma_region = true;

            nonce_audit::audited(mode.name(), || {
                for cycle in 0..3u8 {
                    // The third lock is the first with kept frames: kill it
                    // after its re-arms, mid-publish.
                    if cycle == 2 {
                        s.kernel.soc.failpoints.arm(FaultPlan::at_site(
                            "txn.publish",
                            1,
                            FaultAction::PowerCut { decay: None },
                        ));
                        assert!(s.on_lock().unwrap_err().is_power_loss());
                        s.kernel.soc.failpoints.disarm();
                        s.recover().unwrap();
                    }
                    s.on_lock().unwrap();
                    if cycle == 2 {
                        for vpn in [4, 5] {
                            let version = pte_of(&s, app, vpn).crypt_version;
                            assert!(
                                version < s.lock_epoch << 32,
                                "{mode}: vpn {vpn} was re-armed"
                            );
                        }
                    }
                    s.kernel.soc.cache_maintenance_flush();
                    for (_addr, frame) in s.kernel.soc.dram.iter_frames() {
                        assert!(
                            !frame.windows(16).any(|w| w == NEEDLE),
                            "{mode}: plaintext in DRAM after lock {cycle}"
                        );
                    }
                    let mut sink = vec![0u8; 4096];
                    let p1 = image(2, versions[2] + 1);
                    let p2 = image(2, versions[2] + 2);
                    versions[2] += 2;
                    s.write(app, 2 * PAGE_SIZE, &p1).unwrap();
                    s.read(app, 4 * PAGE_SIZE, &mut sink).unwrap();
                    let c1 = home_image(&mut s, app);
                    s.write(app, 2 * PAGE_SIZE, &p2).unwrap();
                    s.read(app, 4 * PAGE_SIZE, &mut sink).unwrap();
                    let c2 = home_image(&mut s, app);
                    let matching = (0..4096)
                        .filter(|&i| c1[i] ^ c2[i] == p1[i] ^ p2[i])
                        .count();
                    assert!(
                        matching < 64,
                        "{mode}: two evictions of vpn 2 match P1 ⊕ P2 on {matching} of 4096 bytes"
                    );
                    s.on_unlock().unwrap();
                    for vpn in 0..7 {
                        let mut back = vec![0u8; 4096];
                        s.read(app, vpn * PAGE_SIZE, &mut back).unwrap();
                        assert_eq!(back, image(vpn, versions[vpn as usize]), "{mode} vpn {vpn}");
                    }
                    versions[2] += 1;
                    s.write(app, 2 * PAGE_SIZE, &image(2, versions[2])).unwrap();
                    s.write(app, 3 * PAGE_SIZE, &image(3, versions[3])).unwrap();
                    versions[6] += 1;
                    s.kernel.free_page(app, 6).unwrap();
                    s.kernel.map_anon(app, 6, 1).unwrap();
                    s.write(app, 6 * PAGE_SIZE, &image(6, versions[6])).unwrap();
                }
            });
        }
    }

    /// Every journaled page transition MACs a page once. Under XTS/CTR
    /// the encrypt's stamp is the page's integrity tag and the decrypt's
    /// integrity check is its commit tag; under CBC the commit tag is the
    /// final block and only the integrity plane MACs. A locked page-in
    /// opens no journal, so it is MACed only to be verified, and a
    /// recovery redo keeps its journaled tag. A page-in that evicts MACs
    /// its victim and its incoming page in one call: one lane loop.
    #[test]
    fn each_crypted_page_is_maced_once() {
        use crate::config::ReadaheadConfig;
        use crate::transition::mac_audit::{self, Macs};
        use sentry_soc::failpoint::{FaultAction, FaultPlan};
        fn macs<T>(s: &mut Sentry, op: impl FnOnce(&mut Sentry) -> T) -> (T, usize) {
            let (out, n) = macs_and_calls(s, op);
            (out, n.pages)
        }
        fn macs_and_calls<T>(s: &mut Sentry, op: impl FnOnce(&mut Sentry) -> T) -> (T, Macs) {
            let before = mac_audit::count();
            let out = op(s);
            let after = mac_audit::count();
            let pages = after.pages - before.pages;
            (
                out,
                Macs {
                    pages,
                    calls: after.calls - before.calls,
                },
            )
        }
        /// The entries and page MACs of replaying the journal `op` left
        /// open when killed at its first publish: `recover`, less the
        /// boot audit a second `recover` repeats.
        fn replay(s: &mut Sentry, op: impl FnOnce(&mut Sentry) -> bool) -> (usize, usize) {
            let cut = FaultAction::PowerCut { decay: None };
            let plan = FaultPlan::at_site("txn.publish", 1, cut);
            s.kernel.soc.failpoints.arm(plan);
            assert!(op(s), "the kill fired");
            s.kernel.soc.failpoints.disarm();
            let (report, n) = macs(s, |s| s.recover().unwrap());
            let (_, audit) = macs(s, |s| s.recover().unwrap());
            (report.completed, n - audit)
        }
        for mode in PageCipherMode::all() {
            for integrity in [true, false] {
                let mut config = SentryConfig::tegra3_locked_l2(2)
                    .with_cipher_mode(mode)
                    .with_slot_limit(2)
                    .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(4));
                if !integrity {
                    config = config.without_integrity();
                }
                let case = format!("{mode}, integrity {integrity}");
                // Page MACs per page of a journaled transition, and of a
                // locked page-in.
                let journaled = usize::from(integrity || !mode.is_chaining());
                let paged_in = usize::from(integrity);
                let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
                let pid = s.kernel.spawn("app");
                s.mark_sensitive(pid).unwrap();
                s.write(pid, 0, &vec![0x3Cu8; 16 * 4096]).unwrap();
                let dma = s.kernel.proc_mut(pid).unwrap().page_table.get_mut(15);
                dma.unwrap().dma_region = true;
                mac_audit::arm();

                let (lock, n) = macs(&mut s, |s| s.on_lock().unwrap());
                let pages = (lock.bytes_encrypted / PAGE_SIZE) as usize;
                assert_eq!((pages, n), (16, 16 * journaled), "{case}: lock");
                let mut page = vec![0u8; 4096];
                for vpn in 0..2 {
                    let (_, n) = macs(&mut s, |s| s.read(pid, vpn * PAGE_SIZE, &mut page));
                    assert_eq!(n, paged_in, "{case}: page-in {vpn}");
                }
                let (_, n) = macs_and_calls(&mut s, |s| s.read(pid, 2 * PAGE_SIZE, &mut page));
                assert_eq!(s.pager.stats.pageouts, 1, "{case}: page 2 evicts page 0");
                let pages = journaled + paged_in;
                let calls = usize::from(pages > 0);
                assert_eq!(
                    n,
                    Macs { pages, calls },
                    "{case}: an evicting page-in is one MAC call"
                );

                let (unlock, n) = macs(&mut s, |s| s.on_unlock().unwrap());
                assert_eq!(unlock.eager_bytes_decrypted, PAGE_SIZE, "{case}: DMA page");
                assert_eq!(n, journaled, "{case}: unlock");
                let (_, n) = macs(&mut s, |s| s.touch_pages(pid, &[4]).unwrap());
                let cluster = s.last_fault().unwrap().pages;
                assert_eq!((cluster, n), (4, 4 * journaled), "{case}: fault cluster");
                let (sweep, n) = macs(&mut s, |s| s.sweep(4).unwrap());
                assert_eq!((sweep.pages, n), (4, 4 * journaled), "{case}: sweep");

                s.write(pid, 4 * PAGE_SIZE, &vec![0x5Au8; 4 * 4096])
                    .unwrap();
                let (redone, n) = replay(&mut s, |s| s.on_lock().is_err());
                assert!(redone > 0, "{case}: the lock left undone entries");
                assert_eq!(n, redone * journaled, "{case}: encrypt redo");
                s.on_lock().unwrap();
                s.on_unlock().unwrap();
                let (redone, n) = replay(&mut s, |s| s.sweep(4).is_err());
                assert!(redone > 0, "{case}: the sweep left undone entries");
                assert_eq!(n, redone * journaled, "{case}: decrypt redo");

                let total = mac_audit::disarm().pages;
                if !integrity && mode.is_chaining() {
                    assert_eq!(total, 0, "{case}: CBC without the plane MACs nothing");
                } else {
                    assert!(total > 0, "{case}: the audit saw the MACs");
                }
            }
        }
    }

    /// An unlock with no DMA page decrypts nothing eagerly, and its empty
    /// decrypt batch makes no MAC call in any mode, with or without the
    /// integrity plane: there is nothing to stamp or verify.
    #[test]
    fn an_unlock_with_nothing_to_decrypt_makes_no_mac_call() {
        use crate::transition::mac_audit::{self, Macs};
        for mode in PageCipherMode::all() {
            for integrity in [true, false] {
                let mut config = SentryConfig::tegra3_locked_l2(2).with_cipher_mode(mode);
                if !integrity {
                    config = config.without_integrity();
                }
                let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config).unwrap();
                let pid = s.kernel.spawn("app");
                s.mark_sensitive(pid).unwrap();
                s.write(pid, 0, &vec![0x3Cu8; 4 * 4096]).unwrap();
                s.on_lock().unwrap();
                mac_audit::arm();
                let unlock = s.on_unlock().unwrap();
                let macs = mac_audit::disarm();
                let case = format!("{mode}, integrity {integrity}");
                assert_eq!(unlock.eager_bytes_decrypted, 0, "{case}");
                assert_eq!(macs, Macs::default(), "{case}: no MAC call");
            }
        }
    }

    /// The pte of `(pid, vpn)`.
    fn pte_of(s: &Sentry, pid: Pid, vpn: u64) -> Pte {
        *s.kernel.procs[&pid].page_table.get(vpn).unwrap()
    }

    /// Lock, unlock and touch `vpns`, then lock again: the pages were
    /// written before the first lock, so only the second lock leaves
    /// them encrypted as clean pages, whose next decrypt keeps the
    /// ciphertext.
    fn lock_twice(s: &mut Sentry, pid: Pid, vpns: &[u64]) {
        s.on_lock().unwrap();
        s.on_unlock().unwrap();
        s.touch_pages(pid, vpns).unwrap();
        for &vpn in vpns {
            let pte = pte_of(s, pid, vpn);
            assert_eq!(pte.home_frame, None, "a written page decrypts in place");
            assert!(!pte.dirty, "a decrypt clears dirty");
        }
        s.on_lock().unwrap();
    }

    #[test]
    fn clean_page_keeps_its_ciphertext_and_a_dirty_one_gives_it_up() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("notes");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0x11u8; 2 * 4096]).unwrap();
        lock_twice(&mut s, pid, &[0, 1]);
        let Backing::Dram(kept) = pte_of(&s, pid, 0).backing else {
            unreachable!("locked pages sit in DRAM")
        };
        let ciphertext = frame_bytes(&mut s, pid, 0);
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0, 1]).unwrap();
        let pte = pte_of(&s, pid, 0);
        assert_eq!(pte.home_frame, Some(kept), "decrypted out of place");
        assert!(s.integrity.has_tag(kept), "the kept frame keeps its tag");
        s.write(pid, 4096, &[0x22u8; 4096]).unwrap();

        let report = s.on_lock().unwrap();
        assert_eq!(report.reused_pages, 1);
        assert_eq!(report.bytes_encrypted, 4096, "only the written page");
        assert_eq!(pte_of(&s, pid, 0).backing, Backing::Dram(kept));
        assert_eq!(frame_bytes(&mut s, pid, 0), ciphertext);
        let written = pte_of(&s, pid, 1);
        assert_eq!((written.home_frame, written.dirty), (None, true));
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0, 1]).unwrap();
        assert_eq!(pte_of(&s, pid, 0).home_frame, Some(kept));
        assert_eq!(
            pte_of(&s, pid, 1).home_frame,
            None,
            "forecast: written again"
        );
        let mut back = vec![0u8; 2 * 4096];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back[..4096], [0x11u8; 4096]);
        assert_eq!(back[4096..], [0x22u8; 4096]);
    }

    #[test]
    fn a_kept_frame_that_fails_the_boot_audit_is_dropped_not_quarantined() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("notes");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0x33u8; 4096]).unwrap();
        lock_twice(&mut s, pid, &[0]);
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0]).unwrap();
        let kept = pte_of(&s, pid, 0)
            .home_frame
            .expect("decrypted out of place");

        // The kept ciphertext rots while the plaintext copy is intact.
        s.kernel.soc.cache_maintenance_flush();
        let mut raw = vec![0u8; 4096];
        s.kernel.soc.dram.read(kept, &mut raw);
        raw[100] ^= 1;
        s.kernel.soc.dram.write(kept, &raw);
        let report = s.recover().unwrap();
        assert_eq!(report.quarantined, 0);
        assert_eq!(pte_of(&s, pid, 0).home_frame, None);
        assert!(!s.integrity.has_tag(kept));

        // The next lock encrypts the page again, and it reads back.
        let lock = s.on_lock().unwrap();
        assert_eq!((lock.reused_pages, lock.bytes_encrypted), (0, 4096));
        s.on_unlock().unwrap();
        let mut back = vec![0u8; 4096];
        s.read(pid, 0, &mut back).unwrap();
        assert_eq!(back, vec![0x33u8; 4096]);
    }

    #[test]
    fn with_no_free_frame_a_decrypt_stays_in_place() {
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("notes");
        s.mark_sensitive(pid).unwrap();
        s.write(pid, 0, &[0x44u8; 4096]).unwrap();
        lock_twice(&mut s, pid, &[0]);
        let Backing::Dram(frame) = pte_of(&s, pid, 0).backing else {
            unreachable!("locked pages sit in DRAM")
        };
        while s.kernel.frames.alloc().is_some() {}
        s.on_unlock().unwrap();
        s.touch_pages(pid, &[0]).unwrap();
        let pte = pte_of(&s, pid, 0);
        assert_eq!((pte.backing, pte.home_frame), (Backing::Dram(frame), None));
        assert!(
            !s.integrity.has_tag(frame),
            "an in-place decrypt retires the tag"
        );
        let lock = s.on_lock().unwrap();
        assert_eq!((lock.reused_pages, lock.bytes_encrypted), (0, 4096));
    }

    /// Kept frames never cost another mapping its memory: with the pool
    /// drained by out-of-place decrypts, a non-sensitive process still
    /// maps new pages — as many as it could had every page decrypted in
    /// place — by taking kept frames back. The pages that lose theirs
    /// simply re-encrypt at the next lock, and read back intact.
    #[test]
    fn kept_frames_give_way_to_new_mappings() {
        const PAGES: u64 = 6;
        let mut s = tegra_sentry();
        let pid = s.kernel.spawn("notes");
        s.mark_sensitive(pid).unwrap();
        for vpn in 0..PAGES {
            s.write(pid, vpn * PAGE_SIZE, &[0x50 + vpn as u8; 4096])
                .unwrap();
        }
        let all: Vec<u64> = (0..PAGES).collect();
        lock_twice(&mut s, pid, &all);
        s.on_unlock().unwrap();
        // Leave exactly enough clean frames for the decrypts.
        s.kernel.drain_zero_thread().unwrap();
        while s.kernel.frames.available() > PAGES {
            let _ = s.kernel.frames.alloc();
        }
        s.touch_pages(pid, &all).unwrap();
        assert_eq!(s.kernel.frames.available(), 0);
        assert!(all.iter().all(|&v| pte_of(&s, pid, v).home_frame.is_some()));

        let other = s.kernel.spawn("camera");
        for vpn in 0..3 {
            s.kernel.write(other, vpn * PAGE_SIZE, &[7u8; 64]).unwrap();
        }
        let mut zeros = vec![0u8; 4096 - 64];
        s.kernel.read(other, 64, &mut zeros).unwrap();
        assert!(zeros.iter().all(|&b| b == 0), "a taken frame is scrubbed");
        let dropped = s.kernel.dropped_kept_frames.clone();
        assert_eq!(dropped.len(), 3);
        assert!(dropped.iter().all(|&f| s.integrity.has_tag(f)));

        let lock = s.on_lock().unwrap();
        assert_eq!(lock.reused_pages, PAGES - 3);
        assert_eq!(lock.bytes_encrypted, 3 * 4096);
        assert!(s.kernel.dropped_kept_frames.is_empty());
        assert!(dropped.iter().all(|&f| !s.integrity.has_tag(f)));
        s.on_unlock().unwrap();
        for vpn in 0..PAGES {
            let mut back = vec![0u8; 4096];
            s.read(pid, vpn * PAGE_SIZE, &mut back).unwrap();
            assert_eq!(back, vec![0x50 + vpn as u8; 4096], "vpn {vpn}");
        }
    }
}
