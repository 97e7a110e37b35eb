//! Exhaustive interruption-sweep harness over the Sentry lifecycle.
//!
//! The crash-consistency claim is that a power cut at *any* instruction
//! boundary of a lock/unlock/fault/sweep schedule leaves the device in
//! a state from which (a) a cold-boot scan of DRAM recovers no secret
//! bytes, and (b) [`Sentry::recover`] plus a retry of the interrupted
//! operation converges byte-for-byte with a run that was never
//! interrupted.
//!
//! The harness turns that claim into a finite enumeration. A **record
//! pass** drives a fixed schedule with the SoC failpoint registry in
//! record mode, counting every reachable failpoint hit. Then, for each
//! step index, a **kill cell** rebuilds the identical world, arms a
//! [`FaultPlan`] that injects a power cut at exactly that hit, drives
//! the schedule until the cut fires, and checks:
//!
//! * **Torn-PTE scan** — every PTE that claims `encrypted` over a DRAM
//!   frame must front a frame with no plaintext secret in it (checked
//!   both immediately after the kill and after recovery);
//! * **Cold-boot scan** — while the device is in the committed Locked
//!   state (and the kill did not interrupt an unlock, whose whole job
//!   is to put plaintext back), the [`crate::coldboot`] dump of DRAM
//!   must contain zero occurrences of the secret needle;
//! * **Convergence** — after `recover()` the schedule is re-driven from
//!   the killed operation, and the end state (coherent DRAM image,
//!   page-table views, on-SoC page contents, lock epoch, device state)
//!   must equal the uninterrupted reference run's.

use crate::coldboot;
use sentry_core::transition::{page_iv, IvSource};
use sentry_core::{
    DeviceState, QuarantinedPage, RecoveryReport, Sentry, SentryConfig, SentryError,
};
use sentry_crypto::Direction;
use sentry_kernel::pagetable::{Backing, Pte, Sharing};
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::failpoint::{FaultAction, FaultPlan};
use sentry_soc::{Platform, Soc, SocConfig};

/// The 16-byte needle stamped into every sensitive page. The cold-boot
/// and torn-PTE scans grep DRAM for exactly these bytes.
pub const SECRET: &[u8; 16] = b"SENTRY-TOPSECRET";

/// Harmless filler for pages shared with non-sensitive processes (the
/// §7 policy deliberately leaves them plaintext, so they must not carry
/// the needle).
pub(crate) const PUBLIC: &[u8; 16] = b"public-harmless!";

/// Which process an [`Op`] acts on, resolved against [`Actors`] so a
/// schedule is independent of any particular `Sentry` instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Actor {
    /// The sensitive process whose pages carry [`SECRET`].
    Vault,
    /// A second sensitive process sharing one frame with the vault.
    Peer,
    /// A non-sensitive process (shares one public frame with the vault).
    Browser,
}

/// The processes of one built scenario.
#[derive(Debug, Clone, Copy)]
pub struct Actors {
    /// Pid of the secret-holding sensitive process.
    pub vault: Pid,
    /// Pid of the sensitive sharer.
    pub peer: Pid,
    /// Pid of the non-sensitive process.
    pub(crate) browser: Pid,
}

impl Actors {
    /// Resolve an [`Actor`] to its pid.
    #[must_use]
    pub(crate) fn pid(&self, who: Actor) -> Pid {
        match who {
            Actor::Vault => self.vault,
            Actor::Peer => self.peer,
            Actor::Browser => self.browser,
        }
    }
}

/// One step of a fault-matrix schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// `Sentry::on_lock`.
    Lock,
    /// `Sentry::on_unlock`.
    Unlock,
    /// One scheduler tick (runs a budgeted sweep while unlocked).
    Tick,
    /// Touch pages (first-touch faults decrypt or page in on demand).
    Touch {
        /// Acting process.
        who: Actor,
        /// Virtual page numbers to touch, in order.
        vpns: Vec<u64>,
    },
    /// Write one full page (faults like a touch, then dirties it).
    Write {
        /// Acting process.
        who: Actor,
        /// Virtual page number to write.
        vpn: u64,
        /// Fill byte for the page body (the needle is stamped on top
        /// for the vault, so the page stays scannable).
        fill: u8,
    },
    /// Touch every mapped page of every actor (drives the end state to
    /// a fully-decrypted fixed point so interrupted-and-retried runs
    /// and the reference run meet).
    TouchAll,
}

/// A reproducible world + schedule: everything a kill cell needs to
/// rebuild the exact run the record pass measured.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (bench tables, JSON).
    pub name: &'static str,
    /// Sentry configuration under test.
    pub(crate) config: SentryConfig,
    /// SoC RNG seed (DRAM decay etc.); fixed per scenario so every
    /// rebuild is bit-identical.
    pub(crate) seed: u64,
    /// Number of secret-carrying private pages in the vault (≥ 3; page
    /// 1 is additionally shared with the peer, page 2 is a DMA region).
    pub secret_pages: u64,
}

impl Scenario {
    /// The default scenario: locked-L2 backend, two pager slots,
    /// readahead cluster of 2, sequential crypt engine.
    #[must_use]
    pub fn tegra3(seed: u64) -> Self {
        Scenario {
            name: "tegra3-l2-seq",
            config: SentryConfig::tegra3_locked_l2(2)
                .with_slot_limit(2)
                .with_readahead(
                    sentry_core::config::ReadaheadConfig::with_cluster(2).sweep_budget(2),
                ),
            seed,
            secret_pages: 4,
        }
    }

    /// Same schedule on two modelled lock lanes: the vault's 4-page
    /// lock takes both.
    #[must_use]
    pub fn tegra3_parallel(seed: u64) -> Self {
        Scenario {
            name: "tegra3-l2-par",
            config: SentryConfig::tegra3_locked_l2(2)
                .with_slot_limit(2)
                .with_parallel_workers(2)
                .with_readahead(
                    sentry_core::config::ReadaheadConfig::with_cluster(2).sweep_budget(2),
                ),
            seed,
            secret_pages: 4,
        }
    }

    /// The parallel scenario under the XTS page cipher: the lane-filling
    /// mode, whose journal commit tags are the pages' integrity MACs
    /// rather than the final CBC block (non-chaining modes have
    /// tail-collision problems the MAC closes — see
    /// `sentry_core::CommitTagger`).
    #[must_use]
    pub fn tegra3_xts(seed: u64) -> Self {
        Scenario {
            name: "tegra3-l2-xts",
            config: SentryConfig::tegra3_locked_l2(2)
                .with_cipher_mode(sentry_core::PageCipherMode::Xts)
                .with_slot_limit(2)
                .with_parallel_workers(2)
                .with_readahead(
                    sentry_core::config::ReadaheadConfig::with_cluster(2).sweep_budget(2),
                ),
            seed,
            secret_pages: 4,
        }
    }

    /// The parallel scenario under the CTR page cipher (same commit-CMAC
    /// journal tags as XTS).
    #[must_use]
    pub fn tegra3_ctr(seed: u64) -> Self {
        Scenario {
            name: "tegra3-l2-ctr",
            config: SentryConfig::tegra3_locked_l2(2)
                .with_cipher_mode(sentry_core::PageCipherMode::Ctr)
                .with_slot_limit(2)
                .with_parallel_workers(2)
                .with_readahead(
                    sentry_core::config::ReadaheadConfig::with_cluster(2).sweep_budget(2),
                ),
            seed,
            secret_pages: 4,
        }
    }

    /// The iRAM backend (journal and pager slots both in iRAM).
    #[must_use]
    pub fn iram(seed: u64) -> Self {
        Scenario {
            name: "tegra3-iram",
            config: SentryConfig::tegra3_iram()
                .with_slot_limit(2)
                .with_readahead(
                    sentry_core::config::ReadaheadConfig::with_cluster(2).sweep_budget(2),
                ),
            seed,
            secret_pages: 4,
        }
    }

    /// Build the world: spawn the actors, write the secret and public
    /// pages, wire up the shared frames and the DMA region.
    ///
    /// # Errors
    ///
    /// Propagates construction and write errors.
    ///
    /// # Panics
    ///
    /// Panics if `secret_pages < 3` (the schedule needs the shared page
    /// at vpn 1 and the DMA page at vpn 2 to be distinct secrets).
    pub fn build(&self) -> Result<(Sentry, Actors), SentryError> {
        assert!(self.secret_pages >= 3, "scenario needs >= 3 secret pages");
        let soc = Soc::new(
            SocConfig::new(Platform::Tegra3)
                .with_dram_size(64 << 20)
                .with_seed(self.seed),
        );
        let kernel = Kernel::new(soc);
        let mut s = Sentry::new(kernel, self.config.clone())?;
        let actors = Actors {
            vault: s.kernel.spawn("vault"),
            peer: s.kernel.spawn("peer"),
            browser: s.kernel.spawn("browser"),
        };
        s.mark_sensitive(actors.vault)?;
        s.mark_sensitive(actors.peer)?;
        for vpn in 0..self.secret_pages {
            s.write(actors.vault, vpn * PAGE_SIZE, &secret_page(vpn, 0x11))?;
        }
        // One public page past the secrets, shared with the browser:
        // the §7 policy keeps it plaintext, so it must not carry the
        // needle.
        s.write(actors.vault, self.secret_pages * PAGE_SIZE, &public_page())?;
        s.write(actors.browser, 0, &public_page())?;
        s.kernel
            .map_shared(actors.vault, 1, actors.peer, 0)
            .map_err(SentryError::Kernel)?;
        s.kernel
            .map_shared(actors.vault, self.secret_pages, actors.browser, 2)
            .map_err(SentryError::Kernel)?;
        s.kernel
            .proc_mut(actors.vault)
            .map_err(SentryError::Kernel)?
            .page_table
            .get_mut(2)
            .expect("vpn 2 mapped above")
            .dma_region = true;
        Ok((s, actors))
    }

    /// The fixed schedule: lock, background paging under the lock
    /// (page-in, a dirty write, a slot-pressure eviction), unlock,
    /// demand faults, a sweep and a rewrite, a second lock/unlock cycle
    /// (one dirty re-encrypt, one clean re-arm from a pager slot) and a
    /// full touch, then a rewrite of a page that kept its ciphertext, a
    /// third cycle (which gives that kept frame up) and a fourth (which
    /// re-arms a clean page onto its kept DRAM frame), each ending in a
    /// full touch, so every run ends at the same fixed point.
    #[must_use]
    pub(crate) fn schedule(&self) -> Vec<Op> {
        vec![
            Op::Lock,
            Op::Touch {
                who: Actor::Vault,
                vpns: vec![0, 3],
            },
            Op::Write {
                who: Actor::Vault,
                vpn: 0,
                fill: 0xA5,
            },
            // Third background page with only two slots: forces a
            // journaled eviction of the dirty vpn 0 while locked.
            Op::Touch {
                who: Actor::Vault,
                vpns: vec![2],
            },
            Op::Touch {
                who: Actor::Browser,
                vpns: vec![0],
            },
            Op::Unlock,
            Op::Touch {
                who: Actor::Vault,
                vpns: vec![1],
            },
            Op::Tick,
            // Rewrite vpn 0: the second lock re-encrypts it while vpn
            // 3, clean in its pager slot, goes back to its kept
            // ciphertext.
            Op::Write {
                who: Actor::Vault,
                vpn: 0,
                fill: 0x5A,
            },
            Op::Lock,
            Op::Unlock,
            Op::TouchAll,
            Op::Tick,
            Op::Tick,
            // The second lock left vpn 3 clean, so the touch above
            // decrypted it out of place. Rewrite it: the third lock
            // retires its kept frame and encrypts it again.
            Op::Write {
                who: Actor::Vault,
                vpn: 3,
                fill: 0x3C,
            },
            Op::Lock,
            Op::Unlock,
            Op::TouchAll,
            // The third lock left vpn 0 clean, so the touch above
            // decrypted it out of place: the fourth lock re-arms it onto
            // the DRAM frame it kept.
            Op::Lock,
            Op::Unlock,
            Op::TouchAll,
        ]
    }

    /// Every `(actor, vpn)` the scenario maps (used by [`Op::TouchAll`]).
    #[must_use]
    pub(crate) fn all_pages(&self) -> Vec<(Actor, u64)> {
        let mut pages: Vec<(Actor, u64)> = (0..=self.secret_pages)
            .map(|vpn| (Actor::Vault, vpn))
            .collect();
        pages.push((Actor::Peer, 0));
        pages.push((Actor::Browser, 0));
        pages.push((Actor::Browser, 2));
        pages
    }
}

/// A secret page image: `fill`-patterned body with the [`SECRET`]
/// needle stamped at the head and the middle.
#[must_use]
pub fn secret_page(vpn: u64, fill: u8) -> Vec<u8> {
    let mut page = vec![fill ^ (vpn as u8).wrapping_mul(0x3D); PAGE_SIZE as usize];
    page[..SECRET.len()].copy_from_slice(SECRET);
    page[2048..2048 + SECRET.len()].copy_from_slice(SECRET);
    page
}

/// A public page image carrying `PUBLIC` and never [`SECRET`].
#[must_use]
pub fn public_page() -> Vec<u8> {
    let mut page = vec![0x50u8; PAGE_SIZE as usize];
    page[..PUBLIC.len()].copy_from_slice(PUBLIC);
    page
}

/// Apply one op and return the lanes a lock used (0 for any other op).
/// Errors are returned, not panicked, so the kill-run driver can
/// classify the injected power cut.
fn apply(s: &mut Sentry, scn: &Scenario, actors: &Actors, op: &Op) -> Result<usize, SentryError> {
    match op {
        Op::Lock => s.on_lock().map(|report| report.workers_used),
        Op::Unlock => s.on_unlock().map(|_| 0),
        Op::Tick => s.scheduler_tick().map(|_| 0),
        Op::Touch { who, vpns } => s.touch_pages(actors.pid(*who), vpns).map(|()| 0),
        Op::Write { who, vpn, fill } => {
            let page = if *who == Actor::Vault {
                secret_page(*vpn, *fill)
            } else {
                public_page()
            };
            s.write(actors.pid(*who), vpn * PAGE_SIZE, &page)
                .map(|()| 0)
        }
        Op::TouchAll => {
            for (who, vpn) in scn.all_pages() {
                s.touch_pages(actors.pid(who), &[vpn])?;
            }
            Ok(0)
        }
    }
}

/// Drive `ops[from..]` and return the most lanes any lock used; on
/// failure, report which op index failed.
fn drive(
    s: &mut Sentry,
    scn: &Scenario,
    actors: &Actors,
    ops: &[Op],
    from: usize,
) -> Result<usize, (usize, SentryError)> {
    let mut lock_lanes = 0;
    for (ix, op) in ops.iter().enumerate().skip(from) {
        lock_lanes = lock_lanes.max(apply(s, scn, actors, op).map_err(|e| (ix, e))?);
    }
    Ok(lock_lanes)
}

/// A normalized page-table entry for cross-run comparison. On-SoC slot
/// addresses are erased (slot *assignment* may legally differ after a
/// recovery; slot *contents* are compared separately by `(pid, vpn)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PteView {
    /// Owning process.
    pub(crate) pid: Pid,
    /// Virtual page number.
    pub(crate) vpn: u64,
    /// Ciphertext bit.
    pub(crate) encrypted: bool,
    /// Accessed bit.
    pub(crate) young: bool,
    /// Dirty bit.
    pub(crate) dirty: bool,
    /// DMA-region flag.
    pub(crate) dma_region: bool,
    /// Sharing classification.
    pub(crate) sharing: Sharing,
    /// IV version of the current ciphertext.
    pub(crate) crypt_version: u64,
    /// `Some(frame)` for DRAM backing, `None` for on-SoC.
    pub(crate) dram_frame: Option<u64>,
    /// The DRAM home frame while resident on-SoC.
    pub(crate) home_frame: Option<u64>,
}

impl PteView {
    fn of(pid: Pid, vpn: u64, pte: &Pte) -> Self {
        PteView {
            pid,
            vpn,
            encrypted: pte.encrypted,
            young: pte.young,
            dirty: pte.dirty,
            dma_region: pte.dma_region,
            sharing: pte.sharing,
            crypt_version: pte.crypt_version,
            dram_frame: match pte.backing {
                Backing::Dram(f) => Some(f),
                Backing::OnSoc(_) => None,
            },
            home_frame: pte.home_frame,
        }
    }
}

/// The comparable end state of a run: coherent DRAM image (after a
/// cache clean), normalized PTE views, on-SoC page contents keyed by
/// `(pid, vpn)`, and the committed lifecycle state. The clock, stats,
/// bus log, and journal area are deliberately excluded — they record
/// *how* a run got here, not *where* it is.
#[derive(Debug, Clone, PartialEq)]
pub struct EndState {
    /// Committed lock epoch.
    pub(crate) lock_epoch: u64,
    /// Committed device state.
    pub(crate) state: DeviceState,
    /// Populated DRAM frames after a cache maintenance flush.
    pub(crate) dram: Vec<(u64, Vec<u8>)>,
    /// Normalized page-table views, sorted by `(pid, vpn)`.
    pub(crate) ptes: Vec<PteView>,
    /// Contents of on-SoC-resident pages, keyed by `(pid, vpn)`.
    pub(crate) onsoc: Vec<(Pid, u64, Vec<u8>)>,
}

impl EndState {
    /// Capture the comparable state of `s`.
    ///
    /// # Panics
    ///
    /// Panics if an on-SoC-resident page cannot be read back.
    #[must_use]
    pub fn capture(s: &mut Sentry) -> Self {
        // Clean the cache so DRAM is the coherent memory image; cache
        // dynamics (victim rotation, dirty sets) differ between an
        // interrupted-and-retried run and the reference run even when
        // the logical contents agree.
        s.kernel.soc.cache_maintenance_flush();
        let dram = coldboot::dump_dram(&mut s.kernel.soc);
        let pids: Vec<Pid> = s.kernel.procs.keys().copied().collect();
        let mut ptes = Vec::new();
        let mut onsoc = Vec::new();
        for pid in pids {
            let entries: Vec<(u64, Pte)> = s.kernel.procs[&pid]
                .page_table
                .iter()
                .map(|(vpn, pte)| (vpn, *pte))
                .collect();
            for (vpn, pte) in entries {
                ptes.push(PteView::of(pid, vpn, &pte));
                if let Backing::OnSoc(addr) = pte.backing {
                    let mut page = vec![0u8; PAGE_SIZE as usize];
                    s.kernel
                        .soc
                        .mem_read(addr, &mut page)
                        .expect("on-SoC page readable");
                    onsoc.push((pid, vpn, page));
                }
            }
        }
        ptes.sort_by_key(|p| (p.pid, p.vpn));
        onsoc.sort_by_key(|e| (e.0, e.1));
        EndState {
            lock_epoch: s.lock_epoch(),
            state: s.state(),
            dram,
            ptes,
            onsoc,
        }
    }
}

/// The record pass: total reachable failpoint steps, the site trace,
/// and the uninterrupted end state every kill cell converges against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Total failpoint hits over the whole schedule.
    pub steps: u64,
    /// `(site, step)` trace from the record pass.
    pub sites: Vec<(&'static str, u64)>,
    /// The most lanes any lock of the uninterrupted run used.
    pub(crate) lock_lanes: usize,
    /// End state of the uninterrupted run.
    pub(crate) end: EndState,
}

/// Run the schedule once in record mode.
///
/// # Errors
///
/// Propagates driver errors (a record pass must complete cleanly).
pub fn record(scn: &Scenario) -> Result<Reference, SentryError> {
    let (mut s, actors) = scn.build()?;
    // Recording starts *after* world construction: step indices must
    // index the schedule, not the setup.
    s.kernel.soc.failpoints.record();
    let ops = scn.schedule();
    let lock_lanes = drive(&mut s, scn, &actors, &ops, 0).map_err(|(_, e)| e)?;
    let steps = s.kernel.soc.failpoints.steps();
    let sites = s.kernel.soc.failpoints.trace().to_vec();
    s.kernel.soc.failpoints.disarm();
    let end = EndState::capture(&mut s);
    Ok(Reference {
        steps,
        sites,
        lock_lanes,
        end,
    })
}

/// What one kill cell observed.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The failpoint site that fired (None if the plan never fired).
    pub site: Option<&'static str>,
    /// Schedule index of the op that died.
    pub killed_op: Option<usize>,
    /// Torn PTEs (encrypted PTE over a plaintext frame), post-kill +
    /// post-recovery.
    pub(crate) torn_ptes: usize,
    /// Cold-boot needle hits in DRAM while nominally locked, post-kill.
    pub(crate) leaks_post_kill: usize,
    /// Same scan, after recovery.
    pub(crate) leaks_post_recovery: usize,
    /// What recovery found and did.
    pub recovery: RecoveryReport,
    /// Error from the retried schedule, if any (must be None).
    pub(crate) retry_error: Option<String>,
    /// End state equals the reference end state.
    pub(crate) converged: bool,
    /// The diverging end state, kept only when `converged` is false so
    /// failures can be diffed against the reference.
    pub end: Option<Box<EndState>>,
}

impl CellOutcome {
    /// A cell is clean when nothing leaked, nothing tore, the retry ran
    /// and the run converged.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.torn_ptes == 0
            && self.leaks_post_kill == 0
            && self.leaks_post_recovery == 0
            && self.retry_error.is_none()
            && self.converged
    }
}

/// Scan for torn PTEs (always) and cold-boot-visible secrets (only in
/// the committed Locked state, and not when the killed op was the
/// unlock that is *supposed* to be putting plaintext back).
fn scan(s: &mut Sentry, killed_mid_unlock: bool) -> (usize, usize) {
    // Clean first: a dirty cache line over a published frame must land
    // before the raw-DRAM grep, and any plaintext hiding in an
    // (unlocked) cache way would be flushed into the open where the
    // scan catches it.
    s.kernel.soc.cache_maintenance_flush();
    let dump = coldboot::dump_dram(&mut s.kernel.soc);
    let mut torn = 0usize;
    let pids: Vec<Pid> = s.kernel.procs.keys().copied().collect();
    for pid in pids {
        for (_vpn, pte) in s.kernel.procs[&pid].page_table.iter() {
            if !pte.encrypted {
                continue;
            }
            if let Backing::Dram(frame) = pte.backing {
                let torn_here = dump.iter().any(|(base, bytes)| {
                    *base == frame && bytes.windows(SECRET.len()).any(|w| w == SECRET)
                });
                if torn_here {
                    torn += 1;
                }
            }
        }
    }
    let leaks = if s.state() == DeviceState::Locked && !killed_mid_unlock {
        coldboot::search(&dump, SECRET).len()
    } else {
        0
    };
    (torn, leaks)
}

/// Run one kill cell: rebuild, arm a power cut at `step`, drive to the
/// kill, scan, recover, scan again, retry, compare end states.
///
/// # Errors
///
/// Propagates unexpected (non-injected) errors from the drive, the
/// scans, or recovery.
pub fn run_cell(
    scn: &Scenario,
    reference: &Reference,
    step: u64,
) -> Result<CellOutcome, SentryError> {
    let (mut s, actors) = scn.build()?;
    let ops = scn.schedule();
    s.kernel.soc.failpoints.arm(FaultPlan::at_step(
        step,
        FaultAction::PowerCut { decay: None },
    ));
    match drive(&mut s, scn, &actors, &ops, 0) {
        Ok(_) => {
            // The plan never fired (step beyond the armed run's reach);
            // the run is just the reference run again.
            s.kernel.soc.failpoints.disarm();
            let end = EndState::capture(&mut s);
            let converged = end == reference.end;
            Ok(CellOutcome {
                site: None,
                killed_op: None,
                torn_ptes: 0,
                leaks_post_kill: 0,
                leaks_post_recovery: 0,
                recovery: RecoveryReport::default(),
                retry_error: None,
                converged,
                end: (!converged).then(|| Box::new(end)),
            })
        }
        Err((ix, err)) => {
            if !err.is_power_loss() {
                return Err(err);
            }
            let site = s.kernel.soc.failpoints.fired().map(|f| f.site);
            let killed_mid_unlock = matches!(ops[ix], Op::Unlock);
            let (torn_a, leaks_post_kill) = scan(&mut s, killed_mid_unlock);
            let recovery = s.recover()?;
            let (torn_b, leaks_post_recovery) = scan(&mut s, killed_mid_unlock);
            let (retry_error, converged, end) = match drive(&mut s, scn, &actors, &ops, ix) {
                Ok(_) => {
                    let end = EndState::capture(&mut s);
                    let converged = end == reference.end;
                    (None, converged, (!converged).then(|| Box::new(end)))
                }
                Err((_, e)) => (Some(e.to_string()), false, None),
            };
            Ok(CellOutcome {
                site,
                killed_op: Some(ix),
                torn_ptes: torn_a + torn_b,
                leaks_post_kill,
                leaks_post_recovery,
                recovery,
                retry_error,
                converged,
                end,
            })
        }
    }
}

/// What one **decay cell** observed: a power cut at `step` followed by
/// bit rot in encrypted DRAM frames while the machine was down, then a
/// reboot whose recovery must quarantine the rotten frames and converge
/// with the reference *on the surviving set*.
#[derive(Debug, Clone)]
pub struct DecayCellOutcome {
    /// Whether the armed plan actually fired.
    pub fired: bool,
    /// Frames whose ciphertext decayed while power was out.
    pub decayed_frames: Vec<u64>,
    /// Frames the boot-time audit quarantined immediately.
    pub quarantined_by_recovery: usize,
    /// Frames in quarantine the moment `recover()` returned (audit +
    /// journal roll-forward quarantines together).
    pub quarantined_at_boot: usize,
    /// Frames in quarantine after the full retried schedule.
    pub quarantined_final: usize,
    /// Torn PTEs + cold-boot needle hits across both scans.
    pub(crate) torn_ptes: usize,
    /// Cold-boot needle hits (post-kill + post-recovery).
    pub(crate) leaks: usize,
    /// Unexpected (non-violation) error from the retried schedule.
    pub(crate) retry_error: Option<String>,
    /// The end state, with quarantined frames and the pages and frames
    /// they touch masked out, equals the masked reference end state, and
    /// every kept frame still decrypts to its page's plaintext.
    pub(crate) survivors_converged: bool,
}

impl DecayCellOutcome {
    /// The cell is clean: nothing leaked or tore, every decayed frame
    /// that was not healed by journal roll-forward sits in quarantine,
    /// the retry ran, and the survivors converged.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.torn_ptes == 0
            && self.leaks == 0
            && self.retry_error.is_none()
            && self.survivors_converged
    }
}

/// Whether a decay run's end state equals the reference's on
/// everything the quarantine cannot change: both are compared byte for
/// byte — DRAM image, page-table views, on-SoC copies, committed state —
/// once the quarantine is masked out of each, and survivors that moved
/// to other frames are compared by content. Masked are the quarantined
/// frames, every page that is quarantined or maps one of them as its
/// DRAM or home frame in either run, and every frame such a page holds
/// in either run (the reference may have decrypted it out of place into
/// a frame the decay run never wrote).
fn survivors_converge(
    end: &EndState,
    reference: &EndState,
    quarantined: &[QuarantinedPage],
) -> bool {
    use std::collections::BTreeSet;
    let frames_of = |p: &PteView| p.dram_frame.into_iter().chain(p.home_frame);
    let both = || end.ptes.iter().chain(&reference.ptes);
    let qframes: BTreeSet<u64> = quarantined.iter().map(|q| q.frame).collect();
    let pages: BTreeSet<(Pid, u64)> = both()
        .filter(|p| frames_of(p).any(|f| qframes.contains(&f)))
        .map(|p| (p.pid, p.vpn))
        .chain(quarantined.iter().map(|q| (q.pid, q.vpn)))
        .collect();
    let frames: BTreeSet<u64> = both()
        .filter(|p| pages.contains(&(p.pid, p.vpn)))
        .flat_map(frames_of)
        .chain(qframes)
        .collect();
    let mask = |e: &EndState| EndState {
        lock_epoch: e.lock_epoch,
        state: e.state,
        dram: e
            .dram
            .iter()
            .filter(|(base, _)| !frames.contains(base))
            .cloned()
            .collect(),
        ptes: e
            .ptes
            .iter()
            .filter(|p| !pages.contains(&(p.pid, p.vpn)))
            .cloned()
            .collect(),
        onsoc: e
            .onsoc
            .iter()
            .filter(|(pid, vpn, _)| !pages.contains(&(*pid, *vpn)))
            .cloned()
            .collect(),
    };
    // A quarantined page never takes the fresh frame its reference copy
    // decrypted into, so a later out-of-place decrypt may take it
    // instead. A survivor whose views differ in frame addresses is
    // compared by what its frames hold, and those frames are left out
    // of the address-for-address DRAM comparison; everything else about
    // it must still match.
    let (mut ours, mut theirs) = (mask(end), mask(reference));
    let held = |e: &EndState, p: &PteView| -> Vec<Option<Vec<u8>>> {
        frames_of(p)
            .map(|f| {
                e.dram
                    .iter()
                    .find(|(base, _)| *base == f)
                    .map(|(_, b)| b.clone())
            })
            .collect()
    };
    let mut moved = BTreeSet::new();
    for (a, b) in ours.ptes.iter_mut().zip(&theirs.ptes) {
        let placed = (a.dram_frame, a.home_frame) != (b.dram_frame, b.home_frame);
        if (a.pid, a.vpn) != (b.pid, b.vpn) || !placed {
            continue;
        }
        if held(end, a) != held(reference, b) {
            return false;
        }
        moved.extend(frames_of(a).chain(frames_of(b)));
        (a.dram_frame, a.home_frame) = (b.dram_frame, b.home_frame);
    }
    ours.dram.retain(|(base, _)| !moved.contains(base));
    theirs.dram.retain(|(base, _)| !moved.contains(base));
    ours == theirs
}

/// Whether every clean plaintext page's kept frame decrypts, under the
/// IV its PTE recorded, to the plaintext the page holds now — so the
/// next lock may re-arm it there. The survivor comparison checks kept
/// ciphertext against the reference; this checks it against the run
/// itself, so a defect both runs share cannot hide.
///
/// # Errors
///
/// Propagates memory and cipher errors.
fn kept_frames_hold_current_ciphertext(s: &mut Sentry) -> Result<bool, SentryError> {
    let mut kept = Vec::new();
    for (&pid, proc) in &s.kernel.procs {
        for (vpn, pte) in proc.page_table.iter() {
            if let (Backing::Dram(frame), Some(home), false) =
                (pte.backing, pte.home_frame, pte.encrypted || pte.written())
            {
                let (iv, _) = page_iv((pid, vpn), IvSource::Stored(pte));
                kept.push((iv, frame, home));
            }
        }
    }
    for (iv, frame, home) in kept {
        let mut plaintext = vec![0u8; PAGE_SIZE as usize];
        let mut ciphertext = vec![0u8; PAGE_SIZE as usize];
        s.kernel.soc.mem_read(frame, &mut plaintext)?;
        s.kernel.soc.mem_read(home, &mut ciphertext)?;
        let sentry_kernel::Kernel { soc, crypto, .. } = &mut s.kernel;
        crypto
            .preferred_mut()
            .and_then(|engine| engine.crypt(soc, Direction::Decrypt, &[iv], &mut ciphertext))
            .map_err(SentryError::Kernel)?;
        if ciphertext != plaintext {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Drive `ops[from..]` tolerating integrity violations: a retried
/// schedule must keep running around quarantined pages (each violating
/// touch/write is skipped), while any other error still aborts.
fn drive_tolerant(
    s: &mut Sentry,
    scn: &Scenario,
    actors: &Actors,
    ops: &[Op],
    from: usize,
) -> Result<(), (usize, SentryError)> {
    for (ix, op) in ops.iter().enumerate().skip(from) {
        let per_page: Vec<(Actor, u64)> = match op {
            Op::Touch { who, vpns } => vpns.iter().map(|&v| (*who, v)).collect(),
            Op::TouchAll => scn.all_pages(),
            _ => Vec::new(),
        };
        if per_page.is_empty() {
            match apply(s, scn, actors, op) {
                Ok(_) => {}
                Err(e) if e.is_integrity_violation() => {}
                Err(e) => return Err((ix, e)),
            }
            continue;
        }
        for (who, vpn) in per_page {
            match s.touch_pages(actors.pid(who), &[vpn]) {
                Ok(()) => {}
                Err(e) if e.is_integrity_violation() => {}
                Err(e) => return Err((ix, e)),
            }
        }
    }
    Ok(())
}

/// Run one decay cell: rebuild, arm a power cut at `step`, drive to the
/// kill, decay up to `decay_frames` encrypted vault frames (one flipped
/// bit each, raw to the DRAM array), reboot via `recover()`, then
/// re-drive the schedule around the quarantine and compare the
/// surviving set against the reference.
///
/// # Errors
///
/// Propagates unexpected (non-injected) errors.
pub fn run_decay_cell(
    scn: &Scenario,
    reference: &Reference,
    step: u64,
    decay_frames: usize,
) -> Result<DecayCellOutcome, SentryError> {
    let (mut s, actors) = scn.build()?;
    let ops = scn.schedule();
    s.kernel.soc.failpoints.arm(FaultPlan::at_step(
        step,
        FaultAction::PowerCut { decay: None },
    ));
    let (ix, err) = match drive(&mut s, scn, &actors, &ops, 0) {
        Ok(_) => {
            s.kernel.soc.failpoints.disarm();
            let end = EndState::capture(&mut s);
            return Ok(DecayCellOutcome {
                fired: false,
                decayed_frames: Vec::new(),
                quarantined_by_recovery: 0,
                quarantined_at_boot: 0,
                quarantined_final: 0,
                torn_ptes: 0,
                leaks: 0,
                retry_error: None,
                survivors_converged: end == reference.end,
            });
        }
        Err((ix, err)) => (ix, err),
    };
    if !err.is_power_loss() {
        return Err(err);
    }
    let killed_mid_unlock = matches!(ops[ix], Op::Unlock);

    // While power is out, DRAM cells rot: flip one bit in each of the
    // first `decay_frames` encrypted vault frames (deterministic by vpn
    // order). The cache is flushed first so the frozen DRAM image is
    // the coherent one, exactly as `scan` assumes.
    s.kernel.soc.cache_maintenance_flush();
    let mut decayed = Vec::new();
    {
        let table = &s.kernel.procs[&actors.vault].page_table;
        let mut frames: Vec<(u64, u64)> = table
            .iter()
            .filter_map(|(vpn, pte)| match pte.backing {
                Backing::Dram(f) if pte.encrypted => Some((vpn, f)),
                _ => None,
            })
            .collect();
        frames.sort_unstable();
        for &(_, frame) in frames.iter().take(decay_frames) {
            decayed.push(frame);
        }
    }
    for &frame in &decayed {
        crate::tamper::flip_bit(&mut s.kernel.soc, frame, 513, 3);
    }

    let (torn_a, leaks_a) = scan(&mut s, killed_mid_unlock);
    let recovery = s.recover()?;
    let quarantined_at_boot = s.integrity.quarantined_count();
    let (torn_b, leaks_b) = scan(&mut s, killed_mid_unlock);
    let (retry_error, end) = match drive_tolerant(&mut s, scn, &actors, &ops, ix) {
        Ok(()) => (None, Some(EndState::capture(&mut s))),
        Err((_, e)) => (Some(e.to_string()), None),
    };
    let quarantined = s.integrity.quarantined();
    let survivors_converged = end
        .as_ref()
        .is_some_and(|end| survivors_converge(end, &reference.end, &quarantined))
        && kept_frames_hold_current_ciphertext(&mut s)?;
    Ok(DecayCellOutcome {
        fired: true,
        decayed_frames: decayed,
        quarantined_by_recovery: recovery.quarantined,
        quarantined_at_boot,
        quarantined_final: quarantined.len(),
        torn_ptes: torn_a + torn_b,
        leaks: leaks_a + leaks_b,
        retry_error,
        survivors_converged,
    })
}

/// The full matrix for one scenario.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Total reachable steps (= number of cells).
    pub total_steps: u64,
    /// Lock lanes the scenario configures.
    pub workers: usize,
    /// The most lanes any lock of the clean run used.
    pub lock_lanes: usize,
    /// Every cell's observations, in step order.
    pub cells: Vec<CellOutcome>,
}

impl MatrixOutcome {
    /// Cells where the armed power cut actually fired.
    #[must_use]
    pub fn kills(&self) -> usize {
        self.cells.iter().filter(|c| c.site.is_some()).count()
    }

    /// Total torn-PTE observations across all cells.
    #[must_use]
    pub fn torn(&self) -> usize {
        self.cells.iter().map(|c| c.torn_ptes).sum()
    }

    /// Total cold-boot needle hits across all cells (both scans).
    #[must_use]
    pub fn leaks(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.leaks_post_kill + c.leaks_post_recovery)
            .sum()
    }

    /// Cells whose retried run failed to converge with the reference.
    #[must_use]
    pub fn diverged(&self) -> usize {
        self.cells.iter().filter(|c| !c.converged).count()
    }

    /// Cells whose retry errored.
    #[must_use]
    pub fn retry_failures(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.retry_error.is_some())
            .count()
    }

    /// Journal entries recovery had to complete, summed over cells.
    #[must_use]
    pub fn recovered_entries(&self) -> usize {
        self.cells.iter().map(|c| c.recovery.completed).sum()
    }

    /// The clean run reached what distinguishes the scenario: a lane
    /// scenario (more than one configured worker) must have locked a
    /// batch on more than one lane, or its kill cells never enter the
    /// multi-lane arm of the transition.
    #[must_use]
    pub fn reached(&self) -> bool {
        self.workers <= 1 || self.lock_lanes > 1
    }

    /// The whole matrix is clean: the scenario reached its arm and every
    /// cell passed every assertion.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.reached() && self.cells.iter().all(CellOutcome::clean)
    }

    /// Kill counts per failpoint site, sorted by site name.
    #[must_use]
    pub fn site_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut hist: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for cell in &self.cells {
            if let Some(site) = cell.site {
                *hist.entry(site).or_default() += 1;
            }
        }
        hist.into_iter().collect()
    }
}

/// Enumerate every reachable step of `scn`'s schedule and run one kill
/// cell at each.
///
/// # Errors
///
/// Propagates the first unexpected error from any cell.
pub fn run_matrix(scn: &Scenario) -> Result<MatrixOutcome, SentryError> {
    let reference = record(scn)?;
    let mut cells = Vec::with_capacity(usize::try_from(reference.steps).unwrap_or(0));
    for step in 0..reference.steps {
        cells.push(run_cell(scn, &reference, step)?);
    }
    Ok(MatrixOutcome {
        scenario: scn.name.to_string(),
        total_steps: reference.steps,
        workers: scn.config.parallel_workers,
        lock_lanes: reference.lock_lanes,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_pass_reaches_failpoints_and_a_fixed_point() {
        let scn = Scenario::tegra3(7);
        let reference = record(&scn).unwrap();
        assert!(reference.steps > 20, "schedule too shallow to matter");
        assert_eq!(reference.end.state, DeviceState::Unlocked);
        assert_eq!(reference.end.lock_epoch, 4);
        // The trace covers the interesting sites.
        let sites: std::collections::BTreeSet<&str> =
            reference.sites.iter().map(|(s, _)| *s).collect();
        for expected in [
            "lock.begin",
            "unlock.begin",
            "fault.begin",
            "sweep.begin",
            "crypt.dispatch",
            "txn.publish",
            "txn.flip",
            "pager.pagein",
            "pager.evict",
            "dram.write",
        ] {
            assert!(sites.contains(expected), "site {expected} never reached");
        }
        // The end state is internally consistent: no secret needle
        // outside frames mapped plaintext.
        assert!(
            reference.end.ptes.iter().all(|p| p.dram_frame.is_some()),
            "fixed point leaves nothing on-SoC"
        );
    }

    #[test]
    fn record_is_deterministic() {
        let a = record(&Scenario::tegra3(7)).unwrap();
        let b = record(&Scenario::tegra3(7)).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn decay_cell_quarantines_rotten_frames_and_converges_on_survivors() {
        let scn = Scenario::tegra3(7);
        let reference = record(&scn).unwrap();
        // A kill somewhere past the lock leaves encrypted vault frames
        // in DRAM for the decay to hit; step 12 lands mid-schedule.
        let cell = run_decay_cell(&scn, &reference, 12, 2).unwrap();
        assert!(cell.fired);
        assert!(cell.clean(), "cell not clean: {cell:?}");
        assert!(
            !cell.decayed_frames.is_empty(),
            "no encrypted frame to decay at this step"
        );
        assert!(
            cell.quarantined_final > 0,
            "decayed frames must end in quarantine: {cell:?}"
        );
    }

    #[test]
    fn first_step_kill_recovers_and_converges() {
        let scn = Scenario::tegra3(7);
        let reference = record(&scn).unwrap();
        let cell = run_cell(&scn, &reference, 0).unwrap();
        assert_eq!(cell.site, Some("lock.begin"));
        assert!(cell.clean(), "cell not clean: {cell:?}");
    }

    #[test]
    fn xts_and_ctr_kill_cells_recover_under_the_commit_cmac_tags() {
        // The full every-step sweep for these scenarios runs in
        // `exp_fault_matrix`; here a spread of kill steps checks that
        // recovery's published/not-published decision — now a commit
        // CMAC over IV ‖ ciphertext instead of the final CBC block —
        // still converges with the uninterrupted reference.
        for scn in [Scenario::tegra3_xts(7), Scenario::tegra3_ctr(7)] {
            let reference = record(&scn).unwrap();
            assert!(reference.steps > 20, "schedule too shallow to matter");
            for step in [0, 4, 8, 12, 16, 20] {
                let cell = run_cell(&scn, &reference, step).unwrap();
                assert!(cell.clean(), "{} step {step} not clean: {cell:?}", scn.name);
            }
        }
    }
}
