//! The fleet corpus: many independent device stacks driven by a
//! deterministic heavy-traffic event stream and folded into one
//! aggregated percentile report.
//!
//! Every other workload in this crate drives *one* simulated SoC. The
//! fleet harness runs `N` fully independent device+Sentry stacks (own
//! SoC, kernel, pager, keys, dm-crypt volume), each replaying a seeded
//! event mix of lock/unlock churn, background-app paging under the
//! lock, dm-crypt I/O bursts, random power cuts (failpoint plane →
//! [`Sentry::recover`]), and active DRAM tampers (integrity plane →
//! quarantine). It is a workload and regression corpus: every number
//! it reports is a pure function of its
//! [`FleetConfig`].
//!
//! Three properties the design commits to:
//!
//! * **One thread, partitions by arithmetic.** [`run_fleet`] builds,
//!   drives, verifies, and drops the devices one after another on the
//!   calling thread. The report keeps each device's simulated time, so
//!   [`FleetReport::makespan_ns`] gives the makespan of a modelled
//!   fleet host that runs device `i` on core `i % partitions`, for any
//!   partition count, without running a device again.
//! * **Standalone replay.** Device `i`'s workload, failpoint, tamper,
//!   and SoC seeds are split from one fleet master seed
//!   ([`DeviceSeeds::split`]), so any failing cell reproduces outside
//!   the fleet from just `(master_seed, device_index)` — see
//!   [`run_device`].
//! * **Exact percentiles.** Unlock latencies are kept as
//!   [`LatencySamples`], one `u64` per unlock, so the report's p50, p95
//!   and p99 are order statistics of the samples rather than bucket
//!   edges; merging appends a device's samples to the fleet's.
//!
//! Every read in the stream is checked against a shadow model (page
//! images and disk sectors are pure functions of the device index and a
//! version counter), so an injected fault that slipped past recovery or
//! MAC verification shows up as a **silent corruption** — the number
//! `exp_fleet --enforce` gates at zero.

use sentry_attacks::tamper::flip_bit;
use sentry_core::config::{PipelineConfig, ReadaheadConfig};
use sentry_core::pressure::KEYSTREAM_CAP_HIGH;
use sentry_core::{
    DeviceState, HealthStats, PageCipherMode, PressureLevel, PressureStats, Sentry, SentryConfig,
    SentryError,
};
use sentry_kernel::block::{RamDisk, SECTOR_SIZE};
use sentry_kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_kernel::pagetable::Backing;
use sentry_kernel::{Kernel, Pid};
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::failpoint::{FaultAction, FaultPlan};
use sentry_soc::rng::{DetRng, DeviceSeeds};
use sentry_soc::{Platform, Soc, SocConfig};

/// Sensitive pages per device (the vault working set).
pub(crate) const SECRET_PAGES: u64 = 4;

/// DRAM per fleet device. Frames are lazily allocated, so this is an
/// address-space bound, not a footprint: the kernel layout reserves the
/// first 32 MiB (kernel + locked window), so 48 MiB leaves a 16 MiB
/// user frame pool.
const DEVICE_DRAM: u64 = 48 << 20;

/// Sectors on each device's dm-crypt volume (64 × 512 B = 32 KiB).
const DISK_SECTORS: u64 = 64;

/// Sectors in each accel-wedge-storm burst — large enough that the
/// overlapped read path always clears `MIN_ACCEL_SECTORS` and routes to
/// the (wedged) engine.
const STORM_SECTORS: u64 = 8;

/// Reachable-step bound a seeded power cut is drawn over. A bare lock
/// transition of the vault working set traverses ~15 failpoint steps
/// and an unlock plus its resume touches a couple dozen, so a bound of
/// 16 makes most armed cuts actually fire; draws beyond the
/// transition's real reach simply never fire (the cut samples the
/// transition's prefix, like the fault matrix's kill cells).
const POWER_CUT_STEPS: u64 = 16;

// ---------------------------------------------------------------------
// Latency samples
// ---------------------------------------------------------------------

/// Latency samples, kept whole so that every percentile is an exact
/// order statistic.
///
/// The fleet is capped as a corpus (61,126 unlocks at 10k devices, under
/// half a MiB of samples), so a fixed-size histogram would buy nothing
/// but bucket edges in place of the latencies. Merging appends, which is
/// what lets every device keep its own samples that the fleet report
/// folds in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySamples {
    samples: Vec<u64>,
}

impl LatencySamples {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Fold another set of samples into this one.
    pub fn merge(&mut self, other: &LatencySamples) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean of all samples, over a saturating sum (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum = self
            .samples
            .iter()
            .fold(0u64, |s, &ns| s.saturating_add(ns));
        sum as f64 / self.samples.len() as f64
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank: the
    /// rank-`⌈q·count⌉` sample in ascending order, the rank clamped to
    /// `1 ..= count`. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut sorted = self.samples.clone();
        *sorted.select_nth_unstable(rank - 1).1
    }
}

// ---------------------------------------------------------------------
// Event stream
// ---------------------------------------------------------------------

/// Relative weights of the event kinds in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMix {
    /// Lock/unlock churn (toggles the device's lock state; unlocks
    /// feed the latency samples).
    pub(crate) churn: u32,
    /// Background-app paging: a read or write of a vault page, valid in
    /// either lock state (encrypted paging while locked).
    pub(crate) background: u32,
    /// A dm-crypt I/O burst: write then read-back of a few sectors.
    pub(crate) io_burst: u32,
    /// A seeded power cut armed over the next lock transition, followed
    /// by [`Sentry::recover`] and a retry.
    pub(crate) power_cut: u32,
    /// An active DRAM tamper (bit flip) on an encrypted vault page,
    /// followed by a forced decrypt that must fail closed.
    pub(crate) tamper: u32,
    /// A sustained accelerator-wedge storm over a dm-crypt burst: every
    /// descriptor submitted during the storm wedges forever; the health
    /// governor's watchdog must abandon each one and its breaker must
    /// route the remainder to the CPU path, byte-identically.
    pub(crate) accel_storm: u32,
    /// A flaky-disk interval: transient `DiskError` faults at a steady
    /// rate across a dm-crypt read-back, absorbed by the governor's
    /// bounded retry/backoff.
    pub(crate) flaky_disk: u32,
    /// A memory-pressure squeeze: the on-SoC budget is choked to a few
    /// pages while a storm of short-lived sensitive processes spawns,
    /// writes, and exits — the pressure governor must shed/spill and
    /// the teardown path must return every on-SoC page.
    pub(crate) mem_pressure: u32,
}

impl Default for EventMix {
    fn default() -> Self {
        EventMix {
            churn: 42,
            background: 28,
            io_burst: 12,
            power_cut: 6,
            tamper: 4,
            accel_storm: 4,
            flaky_disk: 4,
            mem_pressure: 6,
        }
    }
}

impl EventMix {
    fn total(&self) -> u32 {
        self.churn
            + self.background
            + self.io_burst
            + self.power_cut
            + self.tamper
            + self.accel_storm
            + self.flaky_disk
            + self.mem_pressure
    }
}

/// One event in a device's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Toggle the lock state (lock if unlocked, unlock — and record the
    /// latency — if locked).
    Churn,
    /// Read a vault page and check it against the shadow model.
    BackgroundRead {
        /// Target virtual page.
        vpn: u64,
    },
    /// Rewrite a vault page with the next version of its image.
    BackgroundWrite {
        /// Target virtual page.
        vpn: u64,
    },
    /// Write then read back `sectors` dm-crypt sectors at `sector`.
    IoBurst {
        /// First sector of the burst.
        sector: u64,
        /// Sectors in the burst.
        sectors: u64,
    },
    /// Arm a seeded power cut over the next lock transition, recover,
    /// retry, and re-verify.
    PowerCut {
        /// Seed for `Failpoints::arm_seeded`.
        seed: u64,
    },
    /// Flip one ciphertext bit of an encrypted vault page, then force a
    /// decrypt that must surface an integrity violation.
    Tamper {
        /// Target virtual page.
        vpn: u64,
        /// Byte offset within the page.
        offset: u64,
        /// Bit within the byte.
        bit: u8,
    },
    /// Write a `STORM_SECTORS`-sector burst, then read it back `reads`
    /// times with every submitted accelerator descriptor wedged
    /// (`AccelWedge` with an infinite stall). Each read must still
    /// return the written bytes via watchdog abandonment + CPU fallback
    /// (and, once the breaker trips, the open-breaker inline route).
    AccelWedgeStorm {
        /// First sector of the storm burst.
        sector: u64,
        /// Read-backs performed under the storm.
        reads: u64,
    },
    /// Write then read back `sectors` sectors with transient
    /// `DiskError` faults firing every `period`-th disk read; the
    /// governor's bounded retry must absorb them.
    FlakyDiskInterval {
        /// First sector of the burst.
        sector: u64,
        /// Sectors in the burst.
        sectors: u64,
        /// Matching disk reads between consecutive faults (≥ 2, so a
        /// single retry of the faulted read always lands clean).
        period: u64,
    },
    /// Choke the on-SoC budget to `budget_pages` pages, run a storm of
    /// `spawns` short-lived sensitive processes (spawn → write → exit),
    /// then lift the budget and re-verify the vault. Allocation denials
    /// under the squeeze must surface as typed `OnSocExhausted`, never a
    /// panic; the governor sheds/spills; teardown must leak nothing.
    MemPressure {
        /// Pages the on-SoC budget is clamped to during the squeeze.
        budget_pages: u64,
        /// Short-lived sensitive processes spawned under the squeeze.
        spawns: u64,
    },
}

/// The full fleet configuration. A fleet run is a pure function of this
/// value: same config, same report (host timings aside).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Devices in the fleet.
    pub devices: usize,
    /// Partitions of the modelled fleet host, kept for callers of
    /// [`FleetConfig::new`]. The report does not depend on it:
    /// [`FleetReport::makespan_ns`] takes the partition count, and the
    /// host drives every device on one thread.
    pub shards: usize,
    /// Events drawn per device.
    pub(crate) events_per_device: usize,
    /// Relative weights of the event kinds.
    pub(crate) event_mix: EventMix,
    /// The one seed everything derives from (see [`DeviceSeeds`]).
    pub(crate) master_seed: u64,
    /// Per-device Sentry configuration.
    pub sentry: SentryConfig,
}

impl FleetConfig {
    /// A fleet of `devices`, modelled over `shards` partitions, with the
    /// default traffic mix and a readahead-enabled Tegra 3 Sentry on
    /// every device.
    #[must_use]
    pub fn new(devices: usize, shards: usize) -> Self {
        FleetConfig {
            devices: devices.max(1),
            shards: shards.max(1),
            events_per_device: 24,
            event_mix: EventMix::default(),
            master_seed: 0xF1EE_7000,
            sentry: SentryConfig::tegra3_locked_l2(2)
                .with_readahead(ReadaheadConfig::with_cluster(2).sweep_budget(0)),
        }
    }

    /// Builder: events drawn per device.
    #[must_use]
    pub fn with_events_per_device(mut self, events: usize) -> Self {
        self.events_per_device = events;
        self
    }

    /// Builder: the fleet master seed.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }
}

/// Device `index`'s event stream: a pure function of
/// `(config.master_seed, index)` and the mix/length knobs, so a failing
/// cell replays standalone without the rest of the fleet.
#[must_use]
pub fn event_stream(config: &FleetConfig, index: u64) -> Vec<FleetEvent> {
    let seeds = DeviceSeeds::split(config.master_seed, index);
    let mut rng = DetRng::new(seeds.workload);
    let mut fail_rng = DetRng::new(seeds.failpoint);
    let mut tamper_rng = DetRng::new(seeds.tamper);
    let mix = config.event_mix;
    let total = u64::from(mix.total().max(1));
    (0..config.events_per_device)
        .map(|_| {
            let mut draw = rng.next_below(total);
            if draw < u64::from(mix.churn) {
                return FleetEvent::Churn;
            }
            draw -= u64::from(mix.churn);
            if draw < u64::from(mix.background) {
                let vpn = rng.next_below(SECRET_PAGES);
                return if rng.next_below(4) == 0 {
                    FleetEvent::BackgroundWrite { vpn }
                } else {
                    FleetEvent::BackgroundRead { vpn }
                };
            }
            draw -= u64::from(mix.background);
            if draw < u64::from(mix.io_burst) {
                let sectors = 1 + rng.next_below(4);
                let sector = rng.next_below(DISK_SECTORS - sectors);
                return FleetEvent::IoBurst { sector, sectors };
            }
            draw -= u64::from(mix.io_burst);
            if draw < u64::from(mix.power_cut) {
                return FleetEvent::PowerCut {
                    seed: fail_rng.next_u64(),
                };
            }
            draw -= u64::from(mix.power_cut);
            if draw < u64::from(mix.tamper) {
                return FleetEvent::Tamper {
                    vpn: tamper_rng.next_below(SECRET_PAGES),
                    offset: tamper_rng.next_below(PAGE_SIZE),
                    bit: u8::try_from(tamper_rng.next_below(8)).expect("bit < 8"),
                };
            }
            draw -= u64::from(mix.tamper);
            if draw < u64::from(mix.mem_pressure) {
                return FleetEvent::MemPressure {
                    budget_pages: 2 + rng.next_below(6),
                    spawns: 1 + rng.next_below(3),
                };
            }
            draw -= u64::from(mix.mem_pressure);
            if draw < u64::from(mix.accel_storm) {
                // 3..=5 read-backs: enough wedged submits to trip the
                // default breaker (3 failures) inside one storm, plus
                // open-breaker reads after it.
                return FleetEvent::AccelWedgeStorm {
                    sector: rng.next_below(DISK_SECTORS - STORM_SECTORS),
                    reads: 3 + fail_rng.next_below(3),
                };
            }
            let sectors = 2 + rng.next_below(3);
            FleetEvent::FlakyDiskInterval {
                sector: rng.next_below(DISK_SECTORS - sectors),
                sectors,
                period: 2 + fail_rng.next_below(3),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// One device
// ---------------------------------------------------------------------

/// Everything one device's run produced. All fields are deterministic
/// functions of `(config, index)` — host wall-clock is measured over
/// the whole fleet, never here — which is what makes the N=1
/// fleet-vs-direct identity test exact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceOutcome {
    /// The device's fleet index.
    pub(crate) index: u64,
    /// Events applied.
    pub events: u64,
    /// Lock transitions performed.
    pub locks: u64,
    /// Unlock transitions performed.
    pub unlocks: u64,
    /// Unlock latencies (simulated ns of the eager unlock phase).
    pub unlock_latencies: LatencySamples,
    /// Power cuts that actually fired mid-transition.
    pub power_cuts_fired: u64,
    /// `recover()` calls after a fired cut.
    pub recoveries: u64,
    /// Journal entries recovery rolled forward.
    pub(crate) recovered_entries: u64,
    /// Tampers actually planted in an encrypted frame.
    pub tampers_planted: u64,
    /// Tampers surfaced as a typed integrity violation.
    pub tampers_detected: u64,
    /// Vault pages quarantined by the integrity plane.
    pub quarantined_pages: u64,
    /// Reads that returned wrong bytes without an error. The fleet gate
    /// holds this at zero.
    pub silent_corruptions: u64,
    /// Bytes moved through dm-crypt bursts.
    pub io_bytes: u64,
    /// Accel-wedge storms driven (each one `STORM_SECTORS` sectors ×
    /// several wedged read-backs).
    pub accel_storms: u64,
    /// Flaky-disk intervals driven.
    pub flaky_disk_intervals: u64,
    /// Memory-pressure squeezes driven.
    pub(crate) pressure_events: u64,
    /// On-SoC pages the teardown path returned across the storms'
    /// process exits (pager slots shrunk + tag pages reaped).
    pub(crate) exit_reclaimed_pages: u64,
    /// The device's pressure-governor counters at end of run: watermark
    /// transitions, sheds, spills/restores, reclaims, typed denials.
    pub pressure: PressureStats,
    /// Merged health-governor statistics from the device's two
    /// governors (the lifecycle engine's and dm-crypt's): breaker
    /// trips, watchdog timeouts, fallback crypt bytes, time spent
    /// degraded, and disk-retry accounting.
    pub health: HealthStats,
    /// Total simulated ns the device consumed (construction included).
    pub sim_ns: u64,
    /// Simulated ns of `Sentry::new` alone (see
    /// `sentry_core::DeviceStats`).
    pub setup_sim_ns: u64,
    /// FNV-1a digest of the device's end state: every surviving page
    /// image, the quarantine map, and the page versions.
    pub digest: u64,
}

/// One live fleet device: an independent Sentry stack plus its dm-crypt
/// volume and the shadow model every read is checked against.
#[derive(Debug)]
pub struct Device {
    /// The device's fleet index.
    pub(crate) index: u64,
    /// The device's Sentry stack (own SoC and kernel).
    pub sentry: Sentry,
    vault: Pid,
    dm_api: CryptoApi,
    dm: DmCrypt,
    disk: RamDisk,
    /// Shadow model: current image version per vault page.
    versions: [u64; SECRET_PAGES as usize],
    quarantined: [bool; SECRET_PAGES as usize],
    io_bursts: u64,
    outcome: DeviceOutcome,
}

/// One vault page's bytes.
type Page = [u8; PAGE_SIZE as usize];

/// The generator of page `vpn`'s image at `version` on device `index`.
fn image_rng(index: u64, vpn: u64, version: u64) -> DetRng {
    DetRng::new(0x9A6E_0000 ^ index.rotate_left(24) ^ vpn.rotate_left(8) ^ version)
}

/// The deterministic image of page `vpn` at `version` on device
/// `index`.
#[must_use]
pub(crate) fn page_image(index: u64, vpn: u64, version: u64) -> Vec<u8> {
    let mut img = vec![0u8; PAGE_SIZE as usize];
    image_rng(index, vpn, version).fill(&mut img);
    img
}

/// Whether `page` is [`page_image`]`(index, vpn, version)`, compared
/// word by word as the generator produces it, without building the
/// image.
fn is_page_image(page: &Page, index: u64, vpn: u64, version: u64) -> bool {
    let mut rng = image_rng(index, vpn, version);
    page.chunks_exact(8)
        .all(|word| *word == rng.next_u64().to_le_bytes())
}

/// The deterministic payload of dm-crypt burst number `burst` on device
/// `index` (`sectors` whole sectors).
#[must_use]
pub(crate) fn burst_image(index: u64, burst: u64, sectors: u64) -> Vec<u8> {
    let len = usize::try_from(sectors).expect("burst fits usize") * SECTOR_SIZE;
    let mut data = vec![0u8; len];
    DetRng::new(0xD15C_0000 ^ index.rotate_left(20) ^ burst).fill(&mut data);
    data
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Device {
    /// Build device `index` of the fleet: SoC, kernel, Sentry, vault
    /// process with `SECRET_PAGES` sensitive pages, and a keyed
    /// dm-crypt volume — all seeded from the split of the master seed.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from any layer.
    pub fn build(config: &FleetConfig, index: u64) -> Result<Self, SentryError> {
        let seeds = DeviceSeeds::split(config.master_seed, index);
        let soc = Soc::new(
            SocConfig::new(Platform::Tegra3)
                .with_dram_size(DEVICE_DRAM)
                .with_seed(seeds.soc),
        );
        let kernel = Kernel::new(soc);
        let mut sentry = Sentry::new(kernel, config.sentry.clone())?;
        let vault = sentry.kernel.spawn("vault");
        sentry.mark_sensitive(vault)?;
        for vpn in 0..SECRET_PAGES {
            sentry.write(vault, vpn * PAGE_SIZE, &page_image(index, vpn, 0))?;
        }
        // The dm-crypt volume gets its own engine registry so its
        // volume key never disturbs the Sentry engine's root key. It
        // runs CTR with the async read pipeline so that I/O bursts and
        // chaos storms exercise the accelerator-routed path — and with
        // it the health governor's watchdog, breaker, and CPU fallback.
        let mut dm_api = CryptoApi::new();
        dm_api.register(Box::new(GenericAesEngine::new(0)));
        dm_api
            .preferred_mut()
            .map_err(SentryError::Kernel)?
            .set_mode(PageCipherMode::Ctr)
            .map_err(SentryError::Kernel)?;
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        let mut volume_key = [0u8; 16];
        DetRng::new(seeds.soc ^ 0x0D15_C4E1).fill(&mut volume_key);
        dm.set_key(&mut dm_api, &mut sentry.kernel.soc, &volume_key)
            .map_err(SentryError::Kernel)?;
        let outcome = DeviceOutcome {
            index,
            setup_sim_ns: sentry.device_stats().setup_sim_ns,
            ..DeviceOutcome::default()
        };
        Ok(Device {
            index,
            sentry,
            vault,
            dm_api,
            dm,
            disk: RamDisk::new(DISK_SECTORS),
            versions: [0; SECRET_PAGES as usize],
            quarantined: [false; SECRET_PAGES as usize],
            io_bursts: 0,
            outcome,
        })
    }

    fn vpn_slot(vpn: u64) -> usize {
        usize::try_from(vpn).expect("vpn < SECRET_PAGES")
    }

    /// The DRAM frame backing `vpn`, if it is DRAM-backed right now.
    fn dram_frame(&self, vpn: u64) -> Option<u64> {
        match self.sentry.kernel.procs[&self.vault]
            .page_table
            .get(vpn)?
            .backing
        {
            Backing::Dram(frame) => Some(frame),
            Backing::OnSoc(_) => None,
        }
    }

    /// Note an integrity violation on `vpn`: the page is quarantined;
    /// stop using it. Only a *newly* quarantined page counts as a
    /// detection — an already-poisoned page riding into a later
    /// readahead cluster re-raises the same violation.
    fn note_violation(&mut self, vpn: u64) {
        let slot = Device::vpn_slot(vpn);
        if !self.quarantined[slot] {
            self.quarantined[slot] = true;
            self.outcome.quarantined_pages += 1;
            self.outcome.tampers_detected += 1;
        }
    }

    /// Read `vpn` and check it against the shadow model. Returns `Ok`
    /// whether the bytes matched, a violation was (correctly) raised,
    /// or the page is quarantined; silent mismatches are counted.
    fn checked_read(&mut self, vpn: u64) -> Result<(), SentryError> {
        if self.quarantined[Device::vpn_slot(vpn)] {
            return Ok(());
        }
        let mut buf: Page = [0; PAGE_SIZE as usize];
        match self.sentry.read(self.vault, vpn * PAGE_SIZE, &mut buf) {
            Ok(()) => {
                let version = self.versions[Device::vpn_slot(vpn)];
                if !is_page_image(&buf, self.index, vpn, version) {
                    self.outcome.silent_corruptions += 1;
                }
                Ok(())
            }
            Err(SentryError::IntegrityViolation { vpn: bad, .. }) => {
                // The violation may name a readahead rider, not the
                // page we asked for; quarantine whichever it names.
                self.note_violation(bad);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Perform one lock transition and account it.
    fn lock(&mut self) -> Result<(), SentryError> {
        self.sentry.on_lock()?;
        self.outcome.locks += 1;
        Ok(())
    }

    /// Perform one unlock transition plus the resume — the foreground
    /// app touching its whole working set, which is where the lazy
    /// decrypt actually runs — and record the end-to-end simulated
    /// latency. This is the fleet's headline percentile metric: eager
    /// unlock work plus on-demand decrypt until the app is usable.
    fn unlock(&mut self) -> Result<(), SentryError> {
        let t0 = self.sentry.kernel.soc.clock.now_ns();
        self.sentry.on_unlock()?;
        self.outcome.unlocks += 1;
        for vpn in 0..SECRET_PAGES {
            self.checked_read(vpn)?;
        }
        let now = self.sentry.kernel.soc.clock.now_ns();
        self.outcome.unlock_latencies.record(now - t0);
        Ok(())
    }

    /// Apply one event.
    ///
    /// # Errors
    ///
    /// Propagates *unexpected* errors only — injected power cuts are
    /// recovered and retried here, and integrity violations are
    /// absorbed as detections.
    #[allow(clippy::too_many_lines)]
    pub fn apply(&mut self, event: &FleetEvent) -> Result<(), SentryError> {
        self.outcome.events += 1;
        let result = match *event {
            FleetEvent::Churn => {
                if self.sentry.state() == DeviceState::Unlocked {
                    self.lock()
                } else {
                    self.unlock()
                }
            }
            FleetEvent::BackgroundRead { vpn } => self.checked_read(vpn),
            FleetEvent::BackgroundWrite { vpn } => {
                let slot = Device::vpn_slot(vpn);
                if self.quarantined[slot] {
                    return Ok(());
                }
                self.versions[slot] += 1;
                let img = page_image(self.index, vpn, self.versions[slot]);
                match self.sentry.write(self.vault, vpn * PAGE_SIZE, &img) {
                    Ok(()) => Ok(()),
                    Err(SentryError::IntegrityViolation { vpn: bad, .. }) => {
                        // The write's page-in (or a readahead rider)
                        // tripped the integrity plane; roll the shadow
                        // version back — the image was never applied.
                        if bad == vpn {
                            self.versions[slot] -= 1;
                        }
                        self.note_violation(bad);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            FleetEvent::IoBurst { sector, sectors } => {
                let data = burst_image(self.index, self.io_bursts, sectors);
                self.io_bursts += 1;
                let soc = &mut self.sentry.kernel.soc;
                self.dm
                    .write(&mut self.dm_api, soc, &mut self.disk, sector, &data)
                    .map_err(SentryError::Kernel)?;
                let mut back = vec![0u8; data.len()];
                self.dm
                    .read(&mut self.dm_api, soc, &mut self.disk, sector, &mut back)
                    .map_err(SentryError::Kernel)?;
                if back != data {
                    self.outcome.silent_corruptions += 1;
                }
                self.outcome.io_bytes += 2 * data.len() as u64;
                Ok(())
            }
            FleetEvent::PowerCut { seed } => {
                let before = self.sentry.state();
                self.sentry.kernel.soc.failpoints.arm_seeded(
                    seed,
                    POWER_CUT_STEPS,
                    FaultAction::PowerCut { decay: None },
                );
                let attempt = if before == DeviceState::Locked {
                    self.unlock()
                } else {
                    self.lock()
                };
                match attempt {
                    Ok(()) => {
                        self.sentry.kernel.soc.failpoints.disarm();
                        Ok(())
                    }
                    Err(e) if e.is_power_loss() => {
                        self.sentry.kernel.soc.failpoints.disarm();
                        self.outcome.power_cuts_fired += 1;
                        let report = self.sentry.recover()?;
                        self.outcome.recoveries += 1;
                        self.outcome.recovered_entries += report.completed as u64;
                        self.outcome.quarantined_pages += report.quarantined as u64;
                        // If the cut landed before the transition
                        // committed, retry it (the fault matrix's
                        // kill-recover-retry cycle); a cut during the
                        // post-commit resume just left the state
                        // already toggled. Either way, audit every
                        // surviving page against the shadow model.
                        if self.sentry.state() == before {
                            if before == DeviceState::Locked {
                                self.unlock()?;
                            } else {
                                self.lock()?;
                            }
                        }
                        for vpn in 0..SECRET_PAGES {
                            self.checked_read(vpn)?;
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            FleetEvent::Tamper { vpn, offset, bit } => {
                if self.quarantined[Device::vpn_slot(vpn)] {
                    return Ok(());
                }
                if self.sentry.state() == DeviceState::Unlocked {
                    self.lock()?;
                }
                // Only ciphertext in DRAM can be tampered with; a page
                // currently resident in an on-SoC pager slot is out of
                // the DRAM attacker's reach, so the draw is a no-op.
                let Some(frame) = self.dram_frame(vpn) else {
                    return Ok(());
                };
                flip_bit(&mut self.sentry.kernel.soc, frame, offset, bit);
                self.outcome.tampers_planted += 1;
                // Force the poisoned bytes through the on-demand
                // decrypt path; the MAC must fail closed.
                self.checked_read(vpn)
            }
            FleetEvent::AccelWedgeStorm { sector, reads } => {
                // The accelerator is only clocked up while unlocked;
                // wake it so the storm lands on the routed path rather
                // than a cold engine that would fall back anyway.
                if self.sentry.state() == DeviceState::Locked {
                    self.unlock()?;
                }
                let data = burst_image(self.index, self.io_bursts, STORM_SECTORS);
                self.io_bursts += 1;
                self.dm
                    .write(
                        &mut self.dm_api,
                        &mut self.sentry.kernel.soc,
                        &mut self.disk,
                        sector,
                        &data,
                    )
                    .map_err(SentryError::Kernel)?;
                // Every descriptor submitted while the plan is armed
                // wedges forever; completion only ever comes from the
                // watchdog + CPU fallback, and after enough abandons
                // the breaker stops submitting at all.
                self.sentry.kernel.soc.failpoints.arm(FaultPlan::at_rate(
                    "accel.submit",
                    1,
                    FaultAction::AccelWedge { wedge_ns: u64::MAX },
                ));
                let mut result = Ok(());
                for _ in 0..reads {
                    let mut back = vec![0u8; data.len()];
                    result = self
                        .dm
                        .read(
                            &mut self.dm_api,
                            &mut self.sentry.kernel.soc,
                            &mut self.disk,
                            sector,
                            &mut back,
                        )
                        .map_err(SentryError::Kernel);
                    if result.is_err() {
                        break;
                    }
                    if back != data {
                        self.outcome.silent_corruptions += 1;
                    }
                    self.outcome.io_bytes += data.len() as u64;
                }
                self.sentry.kernel.soc.failpoints.disarm();
                self.outcome.accel_storms += 1;
                result
            }
            FleetEvent::FlakyDiskInterval {
                sector,
                sectors,
                period,
            } => {
                let data = burst_image(self.index, self.io_bursts, sectors);
                self.io_bursts += 1;
                self.dm
                    .write(
                        &mut self.dm_api,
                        &mut self.sentry.kernel.soc,
                        &mut self.disk,
                        sector,
                        &data,
                    )
                    .map_err(SentryError::Kernel)?;
                self.sentry.kernel.soc.failpoints.arm(FaultPlan::at_rate(
                    "disk.read",
                    period,
                    FaultAction::DiskError,
                ));
                let mut back = vec![0u8; data.len()];
                let result = self
                    .dm
                    .read(
                        &mut self.dm_api,
                        &mut self.sentry.kernel.soc,
                        &mut self.disk,
                        sector,
                        &mut back,
                    )
                    .map_err(SentryError::Kernel);
                self.sentry.kernel.soc.failpoints.disarm();
                result?;
                if back != data {
                    self.outcome.silent_corruptions += 1;
                }
                self.outcome.io_bytes += 2 * data.len() as u64;
                self.outcome.flaky_disk_intervals += 1;
                Ok(())
            }
            FleetEvent::MemPressure {
                budget_pages,
                spawns,
            } => self.mem_pressure(budget_pages, spawns),
        };
        // The one shed lever the device (not the Sentry engine) owns:
        // while the store sits at High or worse, cap elective
        // keystream-cache fill on the dm-crypt volume; lift the cap the
        // moment pressure relents.
        if self.sentry.pressure_level() >= PressureLevel::High {
            self.dm.set_keystream_cap(Some(KEYSTREAM_CAP_HIGH));
        } else {
            self.dm.set_keystream_cap(None);
        }
        result
    }

    /// The memory-pressure squeeze: clamp the on-SoC budget to
    /// `budget_pages`, spawn/write/exit `spawns` short-lived sensitive
    /// processes under the clamp (typed `OnSocExhausted` denials are the
    /// expected graceful outcome; anything else propagates), then lift
    /// the budget and verify the vault rode it out byte-identically.
    fn mem_pressure(&mut self, budget_pages: u64, spawns: u64) -> Result<(), SentryError> {
        self.sentry
            .set_onsoc_budget(Some(budget_pages * PAGE_SIZE))?;
        for n in 0..spawns {
            let pid = self.sentry.kernel.spawn("storm");
            self.sentry.mark_sensitive(pid)?;
            let img = page_image(self.index, SECRET_PAGES + n, budget_pages);
            match self.sentry.write(pid, 0, &img) {
                Ok(()) | Err(SentryError::OnSocExhausted) => {}
                Err(e) => {
                    // Leave the device in a sane state before surfacing.
                    self.sentry.on_exit(pid)?;
                    self.sentry.set_onsoc_budget(None)?;
                    return Err(e);
                }
            }
            self.outcome.exit_reclaimed_pages += self.sentry.on_exit(pid)?;
        }
        self.sentry.set_onsoc_budget(None)?;
        self.outcome.pressure_events += 1;
        for vpn in 0..SECRET_PAGES {
            self.checked_read(vpn)?;
        }
        Ok(())
    }

    /// Finish the run: return to the unlocked state, audit every
    /// surviving page byte-for-byte against the shadow model, and
    /// compute the end-state digest.
    ///
    /// # Errors
    ///
    /// Propagates unexpected transition or read errors.
    pub fn finish(mut self) -> Result<DeviceOutcome, SentryError> {
        if self.sentry.state() == DeviceState::Locked {
            self.unlock()?;
        }
        // Fold both governors' views (lifecycle accel + dm-crypt
        // accel/disk) into the outcome's degradation columns.
        let mut health = self.sentry.health_stats();
        self.sentry.sync_pressure();
        let now = self.sentry.kernel.soc.clock.now_ns();
        health.merge(&self.dm.health_stats(now));
        self.outcome.health = health;
        self.outcome.pressure = self.sentry.stats.pressure;
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut buf: Page = [0; PAGE_SIZE as usize];
        for vpn in 0..SECRET_PAGES {
            let slot = Device::vpn_slot(vpn);
            if self.quarantined[slot] {
                fnv1a(&mut digest, b"quarantined");
                continue;
            }
            match self.sentry.read(self.vault, vpn * PAGE_SIZE, &mut buf) {
                Ok(()) => {
                    if !is_page_image(&buf, self.index, vpn, self.versions[slot]) {
                        self.outcome.silent_corruptions += 1;
                    }
                    fnv1a(&mut digest, &buf);
                }
                Err(SentryError::IntegrityViolation { vpn: bad, .. }) => {
                    self.note_violation(bad);
                    fnv1a(&mut digest, b"quarantined");
                }
                Err(e) => return Err(e),
            }
            fnv1a(&mut digest, &self.versions[slot].to_le_bytes());
        }
        for q in self.quarantined {
            fnv1a(&mut digest, &[u8::from(q)]);
        }
        self.outcome.digest = digest;
        self.outcome.sim_ns = self.sentry.kernel.soc.clock.now_ns();
        Ok(self.outcome)
    }
}

/// Build and drive device `index` standalone: the exact run the fleet
/// performs for this cell, reproducible from `(config.master_seed,
/// index)` alone.
///
/// # Errors
///
/// Propagates unexpected errors from any event.
pub fn run_device(config: &FleetConfig, index: u64) -> Result<DeviceOutcome, SentryError> {
    let events = event_stream(config, index);
    let mut device = Device::build(config, index)?;
    for event in &events {
        device.apply(event)?;
    }
    device.finish()
}

// ---------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------

/// The aggregated fleet report. Every field is a pure function of the
/// [`FleetConfig`].
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Devices driven.
    pub devices: u64,
    /// Events applied fleet-wide.
    pub events: u64,
    /// Lock transitions fleet-wide.
    pub locks: u64,
    /// Unlock transitions fleet-wide.
    pub unlocks: u64,
    /// Every device's unlock latencies, in device order.
    pub unlock_latencies: LatencySamples,
    /// Power cuts that fired mid-transition.
    pub power_cuts_fired: u64,
    /// Recoveries run after fired cuts.
    pub recoveries: u64,
    /// Journal entries recovery rolled forward.
    pub recovered_entries: u64,
    /// Tampers planted in encrypted frames.
    pub tampers_planted: u64,
    /// Tampers surfaced as typed integrity violations.
    pub tampers_detected: u64,
    /// Pages quarantined fleet-wide.
    pub quarantined_pages: u64,
    /// Reads returning wrong bytes without an error (gated at zero).
    pub silent_corruptions: u64,
    /// Bytes moved through dm-crypt bursts.
    pub io_bytes: u64,
    /// Accel-wedge storms driven fleet-wide.
    pub accel_storms: u64,
    /// Flaky-disk intervals driven fleet-wide.
    pub flaky_disk_intervals: u64,
    /// Memory-pressure squeezes driven fleet-wide.
    pub pressure_events: u64,
    /// On-SoC pages returned by process teardown across the fleet.
    pub exit_reclaimed_pages: u64,
    /// Merged pressure-governor counters across every device: watermark
    /// transitions, sheds, encrypted spills/restores, reclaims, typed
    /// allocation denials.
    pub pressure: PressureStats,
    /// Merged health-governor statistics across every device's two
    /// governors (lifecycle and dm-crypt): trips, timeouts, fallback
    /// crypt bytes, time degraded, disk retries.
    pub health: HealthStats,
    /// Per-device degradation columns, in device order:
    /// `(index, breaker trips, fallback crypt bytes, time degraded
    /// ns)` — the fleet report's view of which devices rode out
    /// hardware trouble and for how long.
    pub degradation: Vec<(u64, u64, u64, u64)>,
    /// Per-device pressure columns, in device order:
    /// `(index, sheds, spills, denied)` — which devices hit the
    /// watermarks and what the governor did about it.
    pub pressure_columns: Vec<(u64, u64, u64, u64)>,
    /// Devices whose run aborted with an unexpected error (gated at
    /// zero).
    pub device_errors: u64,
    /// Summed simulated ns across all devices.
    pub sim_busy_ns: u64,
    /// Each device's simulated ns, in device order (0 for a device whose
    /// run aborted).
    pub(crate) device_sim_ns: Vec<u64>,
    /// Summed simulated `Sentry::new` ns across all devices.
    pub setup_sim_ns: u64,
    /// Per-device end-state digests, in device order.
    pub digests: Vec<(u64, u64)>,
}

impl FleetReport {
    /// Fold one device's outcome into the fleet totals. Outcomes arrive
    /// in device order, so the per-device columns stay in it.
    fn add(&mut self, outcome: &DeviceOutcome) {
        self.devices += 1;
        self.events += outcome.events;
        self.locks += outcome.locks;
        self.unlocks += outcome.unlocks;
        self.unlock_latencies.merge(&outcome.unlock_latencies);
        self.power_cuts_fired += outcome.power_cuts_fired;
        self.recoveries += outcome.recoveries;
        self.recovered_entries += outcome.recovered_entries;
        self.tampers_planted += outcome.tampers_planted;
        self.tampers_detected += outcome.tampers_detected;
        self.quarantined_pages += outcome.quarantined_pages;
        self.silent_corruptions += outcome.silent_corruptions;
        self.io_bytes += outcome.io_bytes;
        self.accel_storms += outcome.accel_storms;
        self.flaky_disk_intervals += outcome.flaky_disk_intervals;
        self.pressure_events += outcome.pressure_events;
        self.exit_reclaimed_pages += outcome.exit_reclaimed_pages;
        self.pressure.merge(&outcome.pressure);
        self.health.merge(&outcome.health);
        self.sim_busy_ns += outcome.sim_ns;
        self.device_sim_ns.push(outcome.sim_ns);
        self.setup_sim_ns += outcome.setup_sim_ns;
        self.digests.push((outcome.index, outcome.digest));
        self.degradation.push((
            outcome.index,
            outcome.health.trips,
            outcome.health.fallback_crypt_bytes,
            outcome.health.time_degraded_ns,
        ));
        self.pressure_columns.push((
            outcome.index,
            outcome.pressure.sheds,
            outcome.pressure.spills,
            outcome.pressure.denied,
        ));
    }

    /// The simulated makespan of a fleet host that runs device `i` on
    /// core `i % partitions`: each core runs its devices back to back
    /// and the cores run side by side, so the makespan is the largest
    /// per-core sum of device `sim_ns`. One partition gives
    /// `sim_busy_ns`.
    #[must_use]
    pub fn makespan_ns(&self, partitions: usize) -> u64 {
        let partitions = partitions.max(1);
        (0..partitions)
            .map(|p| self.device_sim_ns.iter().skip(p).step_by(partitions).sum())
            .max()
            .unwrap_or(0)
    }

    /// Fleet throughput in events per simulated second over
    /// [`makespan_ns`](Self::makespan_ns)`(partitions)`.
    #[must_use]
    pub fn events_per_sim_sec(&self, partitions: usize) -> f64 {
        let makespan_ns = self.makespan_ns(partitions);
        if makespan_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / makespan_ns as f64
        }
    }
}

/// Run the fleet: devices `0..config.devices`, one at a time on the
/// calling thread (so peak memory is one device), folded into one
/// [`FleetReport`]. A device whose run aborts counts in
/// `device_errors`.
#[must_use]
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    let mut report = FleetReport::default();
    for index in 0..config.devices {
        match run_device(config, index as u64) {
            Ok(outcome) => report.add(&outcome),
            Err(_) => {
                report.device_errors += 1;
                report.device_sim_ns.push(0);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig::new(6, 2).with_events_per_device(12)
    }

    /// The shadow checks' in-place comparison accepts exactly the image
    /// `page_image` builds.
    #[test]
    fn is_page_image_matches_exactly_the_built_image() {
        let mut page: Page = [0; PAGE_SIZE as usize];
        page.copy_from_slice(&page_image(3, 5, 7));
        assert!(is_page_image(&page, 3, 5, 7));
        for (index, vpn, version) in [(4, 5, 7), (3, 6, 7), (3, 5, 8)] {
            assert!(!is_page_image(&page, index, vpn, version));
        }
        for at in [0, 7, 8, 4095] {
            let mut flipped = page;
            flipped[at] ^= 1;
            assert!(!is_page_image(&flipped, 3, 5, 7), "byte {at}");
        }
    }

    #[test]
    fn makespan_is_the_busiest_partition() {
        let config = small_config();
        let report = run_fleet(&config);
        assert_eq!(report.silent_corruptions, 0);
        assert_eq!(report.device_errors, 0);
        let solo: Vec<u64> = (0..config.devices as u64)
            .map(|index| run_device(&config, index).expect("device runs").sim_ns)
            .collect();
        assert_eq!(report.device_sim_ns, solo);
        assert_eq!(report.makespan_ns(1), report.sim_busy_ns);
        for partitions in 1..6 {
            let busiest = (0..partitions)
                .map(|p| {
                    let group = solo.iter().enumerate().filter(|(i, _)| i % partitions == p);
                    group.map(|(_, ns)| ns).sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            assert_eq!(report.makespan_ns(partitions), busiest, "{partitions}");
        }
        // A partition count past the fleet leaves empty partitions.
        assert_eq!(
            report.makespan_ns(config.devices + 3),
            solo.iter().copied().max().unwrap_or(0)
        );
    }

    #[test]
    fn faults_are_injected_and_contained() {
        // Enough devices/events that the default mix statistically
        // plants both fault kinds; the seed below is checked to do so.
        let config = FleetConfig::new(12, 3)
            .with_events_per_device(32)
            .with_master_seed(0xFA11);
        let report = run_fleet(&config);
        assert!(report.power_cuts_fired > 0, "no power cut fired");
        assert!(report.tampers_planted > 0, "no tamper planted");
        assert_eq!(report.tampers_detected, report.tampers_planted);
        assert_eq!(report.silent_corruptions, 0);
        assert_eq!(report.device_errors, 0);
        // The sustained-fault chaos kinds must also have landed — and
        // been ridden out by the health governor, not surfaced.
        assert!(report.accel_storms > 0, "no accel storm drawn");
        assert!(report.flaky_disk_intervals > 0, "no flaky-disk interval");
        assert!(report.health.timeouts > 0, "no wedge hit the watchdog");
        assert!(report.health.trips > 0, "no breaker trip");
        assert!(
            report.health.fallback_crypt_bytes > 0,
            "no CPU fallback crypt"
        );
        assert!(report.health.disk.recovered > 0, "no disk retry recovered");
        assert_eq!(report.health.disk.exhausted, 0, "a disk retry exhausted");
        assert!(
            report.degradation.iter().any(|&(_, trips, _, _)| trips > 0),
            "per-device degradation columns show no trips"
        );
        // The memory-pressure squeezes must have landed, driven the
        // governor through its watermarks, and leaked nothing.
        assert!(report.pressure_events > 0, "no pressure squeeze drawn");
        assert!(
            report.pressure.transitions_high > 0,
            "no squeeze crossed the High watermark: {:?}",
            report.pressure
        );
        assert!(
            report.exit_reclaimed_pages > 0,
            "teardown returned no on-SoC pages"
        );
    }

    #[test]
    fn standalone_replay_matches_fleet_cell() {
        let config = small_config();
        let fleet = run_fleet(&config);
        for index in 0..config.devices as u64 {
            let solo = run_device(&config, index).expect("standalone replay");
            let slot = usize::try_from(index).expect("index fits");
            assert_eq!(fleet.digests[slot], (index, solo.digest));
        }
    }
}
