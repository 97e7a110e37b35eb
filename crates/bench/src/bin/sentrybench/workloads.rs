//! The four closed-loop workloads.
//!
//! Each workload drives one simulated device (fleet: one device at a
//! time) and issues its next operation only after the previous one
//! returns, like a phone whose app waits on every call. A pass builds
//! a fresh stack, runs a fixed number of operations drawn from
//! the seed, checks every byte read back against a shadow model, and
//! tears down. Two passes on one seed therefore do the same work and
//! must produce identical simulated numbers and counters.
//!
//! Every operation is planned (inputs drawn and page images generated),
//! executed (the only timed part) and verified, in that order.

use crate::trace::{Counters, Probe, Tracer, C};
use sentry_core::config::{PipelineConfig, ReadaheadConfig};
use sentry_core::{DeviceState, PageCipherMode, Sentry, SentryConfig};
use sentry_kernel::bufcache::{Volume, VolumeCrypto, CACHE_BLOCK};
use sentry_kernel::dmcrypt::DmCrypt;
use sentry_kernel::{Kernel, Pid};
use sentry_soc::accel::AccelPowerState;
use sentry_soc::addr::PAGE_SIZE;
use sentry_soc::rng::DetRng;
use sentry_soc::Soc;
use sentry_workloads::fleet::{event_stream, Device, FleetConfig, FleetEvent};
use sentry_workloads::{
    app_catalog, background_catalog, BackgroundSpec, FilebenchSpec, Workload as Personality,
};
use std::error::Error;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

const PAGE: usize = PAGE_SIZE as usize;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's app cycles (Figs 2–5) under XTS: lock, unlock and
    /// resume, scripted run, background drain.
    LockResume,
    /// Filebench `randrw` with direct I/O (Fig 9) through dm-crypt.
    DmcryptRw,
    /// The paper's background apps (Figs 6–8) paging while locked.
    LockedBackground,
    /// The fleet harness's chaos event mix, one device at a time.
    FleetMix,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::LockResume,
        Workload::DmcryptRw,
        Workload::LockedBackground,
        Workload::FleetMix,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LockResume => "lock_resume",
            Workload::DmcryptRw => "dmcrypt_rw",
            Workload::LockedBackground => "locked_background",
            Workload::FleetMix => "fleet_mix",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name of the root span every operation of this workload opens.
    fn op_span(self) -> &'static str {
        match self {
            Workload::LockResume => "workload.lock_resume.op",
            Workload::DmcryptRw => "workload.dmcrypt_rw.op",
            Workload::LockedBackground => "workload.locked_background.op",
            Workload::FleetMix => "workload.fleet_mix.op",
        }
    }

    /// The page cipher mode the workload's stack runs.
    #[must_use]
    pub fn cipher_mode(self) -> PageCipherMode {
        match self {
            Workload::LockResume => PageCipherMode::Xts,
            Workload::DmcryptRw => PageCipherMode::Ctr,
            Workload::LockedBackground | Workload::FleetMix => PageCipherMode::Cbc,
        }
    }

    /// Operations in one pass.
    #[must_use]
    pub fn pass_ops(self, size: Size) -> usize {
        match (self, size) {
            (Workload::LockedBackground, _) => background_apps(size)
                .iter()
                .map(|app| app.operations as usize)
                .sum(),
            (Workload::LockResume, Size::Full) => 100,
            (Workload::DmcryptRw, Size::Full) => 20_000,
            (Workload::FleetMix, Size::Full) => 800 * EVENTS_PER_DEVICE,
            (Workload::LockResume, Size::Tiny) => 8,
            (Workload::DmcryptRw, Size::Tiny) => 200,
            (Workload::FleetMix, Size::Tiny) => 3 * EVENTS_PER_DEVICE,
        }
    }
}

/// How big a pass is: `Full` for measurements, `Tiny` for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small stacks and a few operations, for tests in debug builds.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Sim-clock latencies the workloads record beside the per-op samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `on_lock`.
    Lock,
    /// `on_unlock` plus the foreground app's touch of its resume set
    /// (fleet: unlock plus the vault read-back).
    Resume,
    /// From `on_unlock` until no encrypted page is left.
    Drain,
    /// One read call, without the modelled work around it.
    Read,
    /// One write call, without the modelled work around it.
    Write,
}

impl Part {
    /// Every part, in index order.
    pub const ALL: [Part; 5] = [
        Part::Lock,
        Part::Resume,
        Part::Drain,
        Part::Read,
        Part::Write,
    ];

    /// Lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Part::Lock => "lock",
            Part::Resume => "resume",
            Part::Drain => "drain",
            Part::Read => "read",
            Part::Write => "write",
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host ns spent building and populating the stack (fleet: the sum
    /// of `Device::build`).
    pub setup_ns: u64,
    /// Simulated ns of each operation, in op order.
    pub op_sim_ns: Vec<u64>,
    /// Host ns of each operation, in op order.
    pub op_host_ns: Vec<u64>,
    /// Simulated ns of each [`Part`], indexed by `Part as usize`.
    pub parts: [Vec<u64>; 5],
    /// Counter deltas over the measured operations.
    pub counters: Counters,
    /// Peak on-SoC bytes: the pressure tracker's high-water mark after
    /// `sync_pressure`, or the keystream cache's peak on the bare
    /// dm-crypt stack.
    pub onsoc_peak_bytes: u64,
    /// Deepest accelerator queue seen.
    pub accel_max_depth: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an unexpected error, a byte that differs
    /// from the shadow model, or a failed end-of-pass check.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub errors: Vec<String>,
    /// FNV-1a over the planned inputs, so tests can tell op streams
    /// apart.
    pub stream_digest: u64,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn part(&mut self, part: Part, sim_ns: u64) {
        self.parts[part as usize].push(sim_ns);
    }

    fn digest(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.stream_digest ^= u64::from(b);
                self.stream_digest = self.stream_digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// Whether `other` did exactly the same simulated work: identical
    /// sim samples, parts, counters and on-SoC peak. Host timings are
    /// not compared.
    #[must_use]
    pub fn same_sim(&self, other: &Pass) -> bool {
        self.op_sim_ns == other.op_sim_ns
            && self.parts == other.parts
            && self.counters == other.counters
            && self.onsoc_peak_bytes == other.onsoc_peak_bytes
            && self.accel_max_depth == other.accel_max_depth
            && self.attempted == other.attempted
            && self.failed == other.failed
            && self.stream_digest == other.stream_digest
    }
}

/// Run one pass of `workload` on `seed`, recording spans into `tracer`
/// when it is on.
#[must_use]
pub fn run_pass(workload: Workload, seed: u64, size: Size, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass {
        stream_digest: 0xCBF2_9CE4_8422_2325,
        ..Pass::default()
    };
    let ops = workload.pass_ops(size);
    let outcome = match workload {
        Workload::LockResume => LockResume::run(seed, size, ops, tracer, &mut pass),
        Workload::DmcryptRw => DmcryptRw::run(seed, size, ops, tracer, &mut pass),
        Workload::LockedBackground => LockedBackground::run(seed, size, ops, tracer, &mut pass),
        Workload::FleetMix => FleetMix::run(seed, size, ops, tracer, &mut pass),
    };
    if let Err(e) = outcome {
        pass.fail(format!("{}: {e}", workload.name()));
    }
    pass
}

/// Time one operation: a root span named after the workload, plus the
/// host and simulated duration of `f`.
fn op<S: Probe, T>(
    tracer: &mut Tracer,
    name: &'static str,
    target: &mut S,
    f: impl FnOnce(&mut S, &mut Tracer) -> T,
) -> (T, u64, u64) {
    let open = tracer.open(name, target);
    let sim0 = target.sim_now();
    let t0 = Instant::now();
    let out = f(target, tracer);
    let host = elapsed_ns(t0);
    let sim = target.sim_now() - sim0;
    tracer.close(open, target);
    (out, host, sim)
}

// ---------------------------------------------------------------------
// Shadow model
// ---------------------------------------------------------------------

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key of the image of `(space, index)` at `version` under `seed`. Page
/// contents are a pure function of this key, so any 8-byte-aligned
/// slice of any version can be regenerated to check a read.
fn image_key(seed: u64, space: u64, index: u64, version: u64) -> u64 {
    mix(mix(mix(seed ^ space.rotate_left(56)) ^ index) ^ version)
}

/// Fill `out` with the image bytes at `offset` (both multiples of 8).
fn fill_image(key: u64, offset: usize, out: &mut [u8]) {
    debug_assert!(offset.is_multiple_of(8) && out.len().is_multiple_of(8));
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        let word = mix(key ^ ((offset / 8 + i) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// Whether `got` equals the image bytes at `offset`.
fn image_matches(key: u64, offset: usize, got: &[u8]) -> bool {
    let mut want = [0u8; 512];
    got.chunks(want.len()).enumerate().all(|(i, chunk)| {
        let want = &mut want[..chunk.len()];
        fill_image(key, offset + i * 512, want);
        want == chunk
    })
}

// ---------------------------------------------------------------------
// Counters read from public stats
// ---------------------------------------------------------------------

fn soc_counters(soc: &Soc, c: &mut Counters) {
    let cache = soc.cache.stats();
    c.set(C::L2Hits, cache.hits);
    c.set(C::L2Misses, cache.misses);
    c.set(C::L2Writebacks, cache.writebacks);
    c.set(C::BusBytesRead, soc.bus.bytes_read());
    c.set(C::BusBytesWritten, soc.bus.bytes_written());
    let q = soc.accel_queue.stats;
    c.set(C::AccelOps, q.ops);
    c.set(C::AccelBusyNs, q.busy_ns);
    c.set(C::AccelStallNs, q.stall_ns);
    c.set(C::AccelOverlapNs, q.overlap_ns);
}

fn sentry_counters(s: &Sentry) -> Counters {
    let mut c = Counters::default();
    let st = &s.stats;
    c.set(C::OndemandFaults, st.ondemand_faults);
    c.set(C::ReadaheadPages, st.readahead_pages);
    c.set(C::SweepPages, st.sweep_pages);
    c.set(C::CryptBatchPages, st.crypt_batch_pages);
    c.set(C::CryptRetries, st.crypt.attempts);
    let integ = &s.integrity.stats;
    c.set(C::TagsStored, integ.tags_stored);
    c.set(C::VerifiedPages, integ.verified_pages);
    c.set(C::VerifyRetries, integ.verify.attempts);
    c.set(C::Violations, integ.violations);
    let pager = &s.pager.stats;
    c.set(C::PagerFaults, pager.faults);
    c.set(C::Pageins, pager.pageins);
    c.set(C::Pageouts, pager.pageouts);
    c.set(
        C::PagerCryptBytes,
        pager.bytes_encrypted + pager.bytes_decrypted,
    );
    let pressure = &s.store.pressure().stats;
    c.set(C::Sheds, pressure.sheds);
    c.set(C::Spills, pressure.spills);
    c.set(C::SpillRestores, pressure.spill_restores);
    c.set(C::Denied, pressure.denied);
    let health = &s.health.stats;
    c.set(C::Trips, health.trips);
    c.set(C::Timeouts, health.timeouts);
    c.set(C::FallbackCryptBytes, health.fallback_crypt_bytes);
    c.set(C::TimeDegradedNs, health.time_degraded_ns);
    c.set(C::DiskRetries, health.disk.attempts);
    soc_counters(&s.kernel.soc, &mut c);
    c
}

/// A workload's operation loop: plan an op (draw inputs, generate
/// images), execute it (the timed part, returning the [`Part`]s it
/// measured), then check what it read.
trait ClosedLoop: Probe {
    type Op;
    const WORKLOAD: Workload;
    fn plan(&mut self, pass: &mut Pass) -> Self::Op;
    fn exec(&mut self, op: &Self::Op, t: &mut Tracer) -> Res<Vec<(Part, u64)>>;
    fn verify(&mut self, op: &Self::Op, pass: &mut Pass) -> Res<()>;
}

/// Run `ops` operations of `w`, recording each op's samples and the
/// counter deltas over all of them in `pass`.
fn measure<W: ClosedLoop>(w: &mut W, ops: usize, tracer: &mut Tracer, pass: &mut Pass) -> Res<()> {
    let start = w.counters();
    for i in 0..ops {
        let planned = w.plan(pass);
        tracer.set_op(i as u64);
        pass.attempted += 1;
        let (parts, host, sim) = op(tracer, W::WORKLOAD.op_span(), w, |w, t| w.exec(&planned, t));
        pass.op_host_ns.push(host);
        pass.op_sim_ns.push(sim);
        for (part, ns) in parts? {
            pass.part(part, ns);
        }
        w.verify(&planned, pass)?;
    }
    pass.counters = w.counters().since(&start);
    Ok(())
}

/// `n` values covering `lo..=hi` in equal shares, in an order drawn
/// from `rng`.
fn strata(rng: &mut DetRng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64)
        .map(|i| lo + (hi - lo + 1) * i / n as u64)
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    v
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// lock_resume
// ---------------------------------------------------------------------

/// Image space of the apps' pages.
const SPACE_APP: u64 = 1;
/// Image indices one app owns within its space.
const APP_STRIDE: u64 = 1 << 16;

/// How many times smaller than the paper's apps the benchmark's are.
/// At 256, each megabyte of `app_catalog` becomes one 4 KiB page, and
/// every ratio between resident, resume, script and DMA sizes is kept.
const APP_SCALE: u64 = 256;
/// The same for unit tests.
const APP_SCALE_TINY: u64 = 1024;

/// Upper bound on scheduler ticks to drain one unlock; reaching it means
/// the sweeper stopped making progress.
const MAX_DRAIN_TICKS: usize = 10_000;

/// Resident pages audited per cycle, round-robin.
const AUDIT_PER_CYCLE: usize = 8;

/// One `app_catalog` app on the device, in pages.
struct App {
    pid: Pid,
    /// First image index of this app in its space.
    base: u64,
    /// Pages `0..dma` are DMA regions, decrypted eagerly on unlock.
    dma: u64,
    /// Resuming touches pages `dma..resume`.
    resume: u64,
    /// Pages the scripted run touches in one cycle.
    script: u64,
    versions: Vec<u64>,
}

struct LockResume {
    s: Sentry,
    seed: u64,
    rng: DetRng,
    apps: Vec<App>,
    /// The foreground app of each cycle, consumed from the back.
    foreground: Vec<usize>,
    /// This cycle's script page images (allocated once, at the largest
    /// size).
    images: Vec<u8>,
    zero_drain_ns: u64,
    user_bytes: u64,
    audit: usize,
    buf: Vec<u8>,
}

struct Cycle {
    fg: usize,
    /// Pages the foreground app touches to resume.
    resume: Vec<u64>,
    /// Pages it rewrites in its scripted run.
    script: Vec<u64>,
}

impl LockResume {
    fn run(seed: u64, size: Size, ops: usize, tracer: &mut Tracer, pass: &mut Pass) -> Res<()> {
        let t0 = Instant::now();
        let mut w = LockResume::setup(seed, size, ops)?;
        pass.setup_ns = elapsed_ns(t0);
        measure(&mut w, ops, tracer, pass)?;
        for n in 0..w.resident_pages() {
            w.check_resident(n, pass)?;
        }
        w.s.sync_pressure();
        pass.onsoc_peak_bytes = w.s.stats.pressure.high_water_bytes;
        pass.accel_max_depth = w.s.kernel.soc.accel_queue.stats.max_depth as u64;
        Ok(())
    }

    /// The four `app_catalog` apps as resident sensitive processes, with
    /// their DMA regions marked as `run_app_cycle` marks them. They are
    /// locked, unlocked and drained once, so the first measured cycle
    /// finds the tag store and journal already in place; the device is
    /// left unlocked.
    ///
    /// Each app is in the foreground in an equal share of the cycles;
    /// the seed decides the order and which pages each script rewrites.
    /// Seeds therefore differ in op stream, not in how much work a pass
    /// does.
    fn setup(seed: u64, size: Size, cycles: usize) -> Res<LockResume> {
        let scale = match size {
            Size::Full => APP_SCALE,
            Size::Tiny => APP_SCALE_TINY,
        };
        let pages = |bytes: u64| bytes / scale / PAGE_SIZE;
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Xts)
            .with_readahead(ReadaheadConfig::with_cluster(8).sweep_budget(32))
            .with_parallel_workers(1);
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config)?;
        let mut apps = Vec::new();
        let mut buf = vec![0u8; PAGE];
        for (i, spec) in (0u64..).zip(app_catalog()) {
            let pid = s.kernel.spawn(spec.name);
            s.mark_sensitive(pid)?;
            let base = i * APP_STRIDE;
            let resident = pages(spec.resident_bytes);
            for vpn in 0..resident {
                fill_image(image_key(seed, SPACE_APP, base + vpn, 0), 0, &mut buf);
                s.write(pid, vpn * PAGE_SIZE, &buf)?;
            }
            let dma = pages(spec.dma_bytes);
            let table = &mut s.kernel.proc_mut(pid)?.page_table;
            for vpn in 0..dma {
                table
                    .get_mut(vpn)
                    .ok_or("DMA page not populated")?
                    .dma_region = true;
            }
            apps.push(App {
                pid,
                base,
                dma,
                resume: pages(spec.resume_bytes),
                script: pages(spec.script_touch_bytes).max(1),
                versions: vec![0; resident as usize],
            });
        }
        s.on_lock()?;
        s.on_unlock()?;
        for _ in 0..MAX_DRAIN_TICKS {
            if s.scheduler_tick()?.residual_pages == 0 {
                break;
            }
        }
        let mut rng = DetRng::new(seed ^ 0x10C4_2E5E);
        let foreground = strata(&mut rng, cycles, 0, apps.len() as u64 - 1)
            .into_iter()
            .map(|a| a as usize)
            .collect();
        let max_script = apps.iter().map(|a| a.script).max().unwrap_or(0);
        Ok(LockResume {
            s,
            seed,
            rng,
            apps,
            foreground,
            images: Vec::with_capacity(max_script as usize * PAGE),
            zero_drain_ns: 0,
            user_bytes: 0,
            audit: 0,
            buf,
        })
    }

    fn resident_pages(&self) -> usize {
        self.apps.iter().map(|a| a.versions.len()).sum()
    }

    /// Read resident page number `n` (counting across the apps) back
    /// and compare it with the shadow model.
    fn check_resident(&mut self, mut n: usize, pass: &mut Pass) -> Res<()> {
        let app = self
            .apps
            .iter()
            .find(|a| {
                let here = n < a.versions.len();
                if !here {
                    n -= a.versions.len();
                }
                here
            })
            .expect("page index within the resident apps");
        let key = image_key(self.seed, SPACE_APP, app.base + n as u64, app.versions[n]);
        let pid = app.pid;
        self.check_page(pid, n as u64, key, pass)
    }

    fn check_page(&mut self, pid: Pid, vpn: u64, key: u64, pass: &mut Pass) -> Res<()> {
        self.s.read(pid, vpn * PAGE_SIZE, &mut self.buf)?;
        if !image_matches(key, 0, &self.buf) {
            pass.fail(format!(
                "pid {pid} page {vpn} differs from the shadow model"
            ));
        }
        Ok(())
    }
}

impl ClosedLoop for LockResume {
    type Op = Cycle;
    const WORKLOAD: Workload = Workload::LockResume;

    /// The script rewrites the app's catalog share of pages, as one run
    /// starting at a page the seed picks.
    fn plan(&mut self, pass: &mut Pass) -> Cycle {
        let fg = self.foreground.pop().expect("one app per cycle");
        let app = &mut self.apps[fg];
        let pages = app.versions.len() as u64;
        let start = self.rng.next_below(pages);
        let script: Vec<u64> = (0..app.script).map(|k| (start + k) % pages).collect();
        self.images.clear();
        self.images.resize(script.len() * PAGE, 0);
        for (&vpn, out) in script.iter().zip(self.images.chunks_exact_mut(PAGE)) {
            let version = &mut app.versions[vpn as usize];
            *version += 1;
            fill_image(
                image_key(self.seed, SPACE_APP, app.base + vpn, *version),
                0,
                out,
            );
        }
        pass.digest(&[fg as u64, start]);
        Cycle {
            fg,
            resume: (app.dma..app.resume).collect(),
            script,
        }
    }

    /// One cycle of `run_app_cycle`: lock, then unlock and touch the
    /// foreground app's resume set, then its scripted run; then tick the
    /// scheduler until the sweeper has decrypted everything else.
    fn exec(&mut self, c: &Cycle, t: &mut Tracer) -> Res<Vec<(Part, u64)>> {
        let pid = self.apps[c.fg].pid;
        let t0 = self.sim_now();
        let lock = t.call("core.lifecycle.on_lock", self, |w| w.s.on_lock())?;
        self.zero_drain_ns += lock.zero_drain_ns;
        let t1 = self.sim_now();
        t.call("core.lifecycle.on_unlock", self, |w| w.s.on_unlock())?;
        t.call("core.lifecycle.touch_pages", self, |w| {
            w.s.touch_pages(pid, &c.resume)
        })?;
        let t2 = self.sim_now();
        for (k, &vpn) in c.script.iter().enumerate() {
            t.call("core.lifecycle.write", self, |w| {
                w.s.write(pid, vpn * PAGE_SIZE, &w.images[k * PAGE..(k + 1) * PAGE])
            })?;
        }
        self.user_bytes += self.images.len() as u64;
        let mut residual = self.s.residual_encrypted_pages();
        let mut ticks = 0;
        while residual > 0 {
            ticks += 1;
            if ticks > MAX_DRAIN_TICKS {
                return Err(format!("{residual} pages still encrypted after {ticks} ticks").into());
            }
            let sweep = t.call("core.lifecycle.scheduler_tick", self, |w| {
                w.s.scheduler_tick()
            })?;
            residual = sweep.residual_pages;
        }
        let t3 = self.sim_now();
        Ok(vec![
            (Part::Lock, t1 - t0),
            (Part::Resume, t2 - t1),
            (Part::Drain, t3 - t1),
        ])
    }

    /// Read back the foreground app's DMA and resume pages and the pages
    /// its script rewrote, and the next few resident pages in turn.
    fn verify(&mut self, c: &Cycle, pass: &mut Pass) -> Res<()> {
        let fg = &self.apps[c.fg];
        let (pid, base) = (fg.pid, fg.base);
        let checks: Vec<(u64, u64)> = (0..fg.resume)
            .chain(c.script.iter().copied())
            .map(|vpn| (vpn, fg.versions[vpn as usize]))
            .collect();
        for (vpn, version) in checks {
            let key = image_key(self.seed, SPACE_APP, base + vpn, version);
            self.check_page(pid, vpn, key, pass)?;
        }
        for _ in 0..AUDIT_PER_CYCLE {
            self.audit = (self.audit + 1) % self.resident_pages();
            self.check_resident(self.audit, pass)?;
        }
        Ok(())
    }
}

impl Probe for LockResume {
    fn sim_now(&self) -> u64 {
        self.s.kernel.soc.clock.now_ns()
    }
    fn counters(&self) -> Counters {
        let mut c = sentry_counters(&self.s);
        c.set(C::ZeroDrainNs, self.zero_drain_ns);
        c.set(C::UserBytes, self.user_bytes);
        c
    }
}

// ---------------------------------------------------------------------
// dmcrypt_rw
// ---------------------------------------------------------------------

/// Image space of volume blocks.
const SPACE_BLOCK: u64 = 3;

/// Filebench's `randrw` personality with direct I/O, the cell of
/// Figure 9 that exposes encryption (`FilebenchSpec::new`: 8 files of
/// 2 MiB, 8 KiB operations, per-op VFS costs).
fn filebench_spec(size: Size) -> FilebenchSpec {
    let spec = FilebenchSpec::new(Personality::RandRw, true);
    match size {
        Size::Full => spec,
        Size::Tiny => FilebenchSpec {
            files: 2,
            file_size: 64 << 10,
            ..spec
        },
    }
}

struct DmcryptRw {
    kernel: Kernel,
    vol: Volume,
    spec: FilebenchSpec,
    seed: u64,
    rng: DetRng,
    /// Version of each cache block.
    versions: Vec<u64>,
    ops: u64,
    user_bytes: u64,
    keystream_peak: u64,
    buf: Vec<u8>,
}

struct Io {
    /// Index of the I/O-sized unit of the volume.
    unit: u64,
    /// The bytes to write; empty for a read.
    data: Vec<u8>,
}

impl DmcryptRw {
    fn run(seed: u64, size: Size, ops: usize, tracer: &mut Tracer, pass: &mut Pass) -> Res<()> {
        let t0 = Instant::now();
        let mut w = DmcryptRw::setup(seed, size)?;
        pass.setup_ns = elapsed_ns(t0);
        measure(&mut w, ops, tracer, pass)?;
        pass.onsoc_peak_bytes = w.keystream_peak;
        pass.accel_max_depth = w.kernel.soc.accel_queue.stats.max_depth as u64;
        // Device lock: keystream is key-equivalent and must not survive.
        w.vol.on_lock();
        let left = w.dm().keystream_resident();
        if left != 0 {
            pass.fail(format!(
                "{left} keystream sectors resident after Volume::on_lock"
            ));
        }
        Ok(())
    }

    /// The `run_read_overlap` stack — CTR dm-crypt with the read
    /// pipeline on an unlocked device — behind a volume laid out as
    /// `run_filebench` lays it out: twice the dataset in sectors, a
    /// cache that holds the whole dataset, and a warm-up that writes
    /// every block through the cache.
    fn setup(seed: u64, size: Size) -> Res<DmcryptRw> {
        let spec = filebench_spec(size);
        let mut kernel = Kernel::new(Soc::tegra3_small());
        kernel
            .crypto
            .preferred_mut()?
            .set_mode(PageCipherMode::Ctr)?;
        kernel.soc.accel.state = AccelPowerState::Awake;
        let dm = DmCrypt::with_preferred_cipher();
        dm.enable_pipeline(PipelineConfig::enabled());
        let mut key = [0u8; 16];
        DetRng::new(seed ^ 0xD15C_0000).fill(&mut key);
        dm.set_key(&mut kernel.crypto, &mut kernel.soc, &key)?;
        let dataset = u64::from(spec.files) * spec.file_size;
        let blocks = (dataset / CACHE_BLOCK as u64) as usize;
        let mut w = DmcryptRw {
            kernel,
            vol: Volume::new(dataset * 2 / 512, VolumeCrypto::DmCrypt(dm), blocks + 16),
            spec,
            seed,
            rng: DetRng::new(seed ^ 0xD3C4_7A00),
            versions: vec![0; blocks],
            ops: 0,
            user_bytes: 0,
            keystream_peak: 0,
            buf: vec![0u8; spec.io_size],
        };
        let mut data = vec![0u8; spec.io_size];
        for unit in 0..dataset / spec.io_size as u64 {
            w.image(unit, &mut data);
            let offset = unit * spec.io_size as u64;
            w.vol.write(
                &mut w.kernel.crypto,
                &mut w.kernel.soc,
                offset,
                &data,
                false,
            )?;
        }
        Ok(w)
    }

    fn dm(&self) -> &DmCrypt {
        match &self.vol.crypto {
            VolumeCrypto::DmCrypt(dm) => dm,
            VolumeCrypto::None => unreachable!("the volume is always encrypted"),
        }
    }

    fn blocks_per_unit(&self) -> usize {
        self.spec.io_size / CACHE_BLOCK
    }

    fn block_key(&self, block: usize) -> u64 {
        image_key(self.seed, SPACE_BLOCK, block as u64, self.versions[block])
    }

    /// The current image of I/O unit `unit`.
    fn image(&self, unit: u64, out: &mut [u8]) {
        let first = unit as usize * self.blocks_per_unit();
        for (k, chunk) in out.chunks_exact_mut(CACHE_BLOCK).enumerate() {
            fill_image(self.block_key(first + k), 0, chunk);
        }
    }
}

impl ClosedLoop for DmcryptRw {
    type Op = Io;
    const WORKLOAD: Workload = Workload::DmcryptRw;

    /// `run_filebench`'s `randrw` draw: a uniform file, a uniform
    /// I/O-aligned offset in it, and every second operation a write.
    fn plan(&mut self, pass: &mut Pass) -> Io {
        let units_per_file = self.spec.file_size / self.spec.io_size as u64;
        let file = self.rng.next_below(u64::from(self.spec.files));
        let unit = file * units_per_file + self.rng.next_below(units_per_file);
        let write = self.ops % 2 == 1;
        self.ops += 1;
        let mut data = Vec::new();
        if write {
            let n = self.blocks_per_unit();
            for v in &mut self.versions[unit as usize * n..(unit as usize + 1) * n] {
                *v += 1;
            }
            data = vec![0u8; self.spec.io_size];
            self.image(unit, &mut data);
        }
        pass.digest(&[unit, u64::from(write)]);
        Io { unit, data }
    }

    /// The VFS cost filebench charges for the operation, then the
    /// volume call itself, which alone makes the read or write sample.
    fn exec(&mut self, io: &Io, t: &mut Tracer) -> Res<Vec<(Part, u64)>> {
        let offset = io.unit * self.spec.io_size as u64;
        let direct = self.spec.direct_io;
        let (part, vfs_ns) = if io.data.is_empty() {
            (Part::Read, self.spec.read_op_ns)
        } else {
            (Part::Write, self.spec.write_op_ns)
        };
        self.kernel.soc.clock.advance(vfs_ns);
        let t0 = self.sim_now();
        if part == Part::Read {
            t.call("kernel.bufcache.read", self, |w| {
                let DmcryptRw {
                    kernel, vol, buf, ..
                } = w;
                vol.read(&mut kernel.crypto, &mut kernel.soc, offset, buf, direct)
            })?;
        } else {
            t.call("kernel.bufcache.write", self, |w| {
                let DmcryptRw { kernel, vol, .. } = w;
                vol.write(
                    &mut kernel.crypto,
                    &mut kernel.soc,
                    offset,
                    &io.data,
                    direct,
                )
            })?;
        }
        self.user_bytes += self.spec.io_size as u64;
        Ok(vec![(part, self.sim_now() - t0)])
    }

    fn verify(&mut self, io: &Io, pass: &mut Pass) -> Res<()> {
        let resident = self.dm().keystream_resident() as u64 * 512;
        self.keystream_peak = self.keystream_peak.max(resident);
        if !io.data.is_empty() {
            return Ok(());
        }
        let first = io.unit as usize * self.blocks_per_unit();
        for (k, got) in self.buf.chunks_exact(CACHE_BLOCK).enumerate() {
            if !image_matches(self.block_key(first + k), 0, got) {
                pass.fail(format!("block {} differs from the shadow model", first + k));
            }
        }
        Ok(())
    }
}

impl Probe for DmcryptRw {
    fn sim_now(&self) -> u64 {
        self.kernel.soc.clock.now_ns()
    }
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        soc_counters(&self.kernel.soc, &mut c);
        if let Some((rd, ks)) = self.dm().pipeline_stats() {
            c.set(C::RoutedSectors, rd.routed_sectors);
            c.set(C::InlineSectors, rd.inline_sectors);
            c.set(C::XorSectors, rd.xor_sectors);
            c.set(C::DmFallbacks, rd.fallbacks());
            c.set(C::DmStallNs, rd.accel_stall_ns);
            c.set(C::KsHits, ks.hits);
            c.set(C::KsMisses, ks.misses);
            c.set(C::KsPrecomputed, ks.precomputed);
            c.set(C::Trips, rd.health.trips);
            c.set(C::Timeouts, rd.health.timeouts);
            c.set(C::FallbackCryptBytes, rd.health.fallback_crypt_bytes);
            c.set(C::TimeDegradedNs, rd.health.time_degraded_ns);
            c.set(C::DiskRetries, rd.health.disk.attempts);
        }
        c.set(C::UserBytes, self.user_bytes);
        c
    }
}

// ---------------------------------------------------------------------
// locked_background
// ---------------------------------------------------------------------

/// Image space of the background apps' pages.
const SPACE_BG: u64 = 4;

/// Bytes one background operation reads, as in `run_background`.
const RECORD: usize = 64;

/// Locked L2 the background apps page through: the smaller of the
/// paper's two budgets (Figs 6–8), where alpine's hot set does not fit.
const LOCKED_KB: u64 = 256;

/// The `background_catalog` apps in the order a pass runs them: at full
/// size as the catalog has them, and shrunk for unit tests.
fn background_apps(size: Size) -> Vec<BackgroundSpec> {
    background_catalog()
        .into_iter()
        .map(|spec| match size {
            Size::Full => spec,
            Size::Tiny => BackgroundSpec {
                hot_pages: spec.hot_pages.div_ceil(10),
                stream_pages: spec.stream_pages / 50,
                operations: spec.operations / 50,
                ..spec
            },
        })
        .collect()
}

struct LockedBackground {
    s: Sentry,
    seed: u64,
    rng: DetRng,
    apps: Vec<(Pid, BackgroundSpec)>,
    /// The app now running, the operations it has done, and how far it
    /// is into its stream.
    app: usize,
    app_ops: u32,
    stream_pos: u64,
    user_bytes: u64,
    buf: Vec<u8>,
}

struct Access {
    app: usize,
    vpn: u64,
    /// Offset of the record read within the page.
    at: usize,
}

impl LockedBackground {
    fn run(seed: u64, size: Size, ops: usize, tracer: &mut Tracer, pass: &mut Pass) -> Res<()> {
        let t0 = Instant::now();
        let mut w = LockedBackground::setup(seed, size)?;
        pass.setup_ns = elapsed_ns(t0);
        measure(&mut w, ops, tracer, pass)?;
        w.s.sync_pressure();
        pass.onsoc_peak_bytes = w.s.stats.pressure.high_water_bytes;
        pass.accel_max_depth = w.s.kernel.soc.accel_queue.stats.max_depth as u64;
        Ok(())
    }

    /// The three apps populated and marked sensitive as `run_background`
    /// does it, with its slot budget for [`LOCKED_KB`]: the locked ways
    /// minus the key page and the AES state page. The device is locked
    /// at the end of set-up.
    fn setup(seed: u64, size: Size) -> Res<LockedBackground> {
        let (ways, slots) = match size {
            Size::Full => (LOCKED_KB / 128, LOCKED_KB * 1024 / PAGE_SIZE - 2),
            Size::Tiny => (1, 8),
        };
        let config = SentryConfig::tegra3_locked_l2(ways as usize)
            .with_slot_limit(slots as usize)
            .with_cipher_mode(PageCipherMode::Cbc)
            .with_parallel_workers(1);
        let mut s = Sentry::new(Kernel::new(Soc::tegra3_small()), config)?;
        let mut apps = Vec::new();
        let mut buf = vec![0u8; PAGE];
        for (i, spec) in background_apps(size).into_iter().enumerate() {
            let pid = s.kernel.spawn(spec.name);
            for vpn in 0..spec.hot_pages + spec.stream_pages {
                fill_image(image_key(seed, SPACE_BG, bg_index(i, vpn), 0), 0, &mut buf);
                s.write(pid, vpn * PAGE_SIZE, &buf)?;
            }
            s.mark_sensitive(pid)?;
            apps.push((pid, spec));
        }
        s.on_lock()?;
        Ok(LockedBackground {
            s,
            seed,
            rng: DetRng::new(seed ^ 0xBAC6_0000),
            apps,
            app: 0,
            app_ops: 0,
            stream_pos: 0,
            user_bytes: 0,
            buf,
        })
    }
}

/// Image index of page `vpn` of background app `app`.
fn bg_index(app: usize, vpn: u64) -> u64 {
    ((app as u64) << 32) | vpn
}

impl ClosedLoop for LockedBackground {
    type Op = Access;
    const WORKLOAD: Workload = Workload::LockedBackground;

    /// `run_background`'s trace, app after app: one op in `stream_every`
    /// takes the next stream page, the others a uniform hot-set page.
    /// The record offset is drawn too, so the checks cover whole pages.
    fn plan(&mut self, pass: &mut Pass) -> Access {
        while self.app_ops == self.apps[self.app].1.operations {
            self.app += 1;
            self.app_ops = 0;
            self.stream_pos = 0;
        }
        let spec = self.apps[self.app].1;
        let streams = spec.stream_every > 0 && spec.stream_pages > 0;
        let vpn = if streams && self.app_ops.is_multiple_of(spec.stream_every) {
            self.stream_pos += 1;
            spec.hot_pages + (self.stream_pos - 1) % spec.stream_pages
        } else {
            self.rng.next_below(spec.hot_pages)
        };
        self.app_ops += 1;
        let at = self.rng.next_below((PAGE / RECORD) as u64) as usize * RECORD;
        pass.digest(&[self.app as u64, vpn, at as u64]);
        Access {
            app: self.app,
            vpn,
            at,
        }
    }

    /// The operation's own kernel work, which `run_background` charges
    /// to the clock, then the read itself, which alone makes the read
    /// sample.
    fn exec(&mut self, a: &Access, t: &mut Tracer) -> Res<Vec<(Part, u64)>> {
        let (pid, spec) = self.apps[a.app];
        self.s.kernel.soc.clock.advance(spec.base_op_ns);
        let t0 = self.sim_now();
        let addr = a.vpn * PAGE_SIZE + a.at as u64;
        t.call("core.lifecycle.read", self, |w| {
            w.s.read(pid, addr, &mut w.buf[..RECORD])
        })?;
        self.user_bytes += RECORD as u64;
        Ok(vec![(Part::Read, self.sim_now() - t0)])
    }

    fn verify(&mut self, a: &Access, pass: &mut Pass) -> Res<()> {
        let key = image_key(self.seed, SPACE_BG, bg_index(a.app, a.vpn), 0);
        if !image_matches(key, a.at, &self.buf[..RECORD]) {
            pass.fail(format!(
                "app {} page {} record {} differs from the shadow model",
                a.app, a.vpn, a.at
            ));
        }
        Ok(())
    }
}

impl Probe for LockedBackground {
    fn sim_now(&self) -> u64 {
        self.s.kernel.soc.clock.now_ns()
    }
    fn counters(&self) -> Counters {
        let mut c = sentry_counters(&self.s);
        c.set(C::UserBytes, self.user_bytes);
        c
    }
}

// ---------------------------------------------------------------------
// fleet_mix
// ---------------------------------------------------------------------

/// Events each fleet device replays (`FleetConfig`'s default).
pub const EVENTS_PER_DEVICE: usize = 24;

/// The fleet event kinds, in `EventMix` field order; each event runs
/// inside a span named `workloads.fleet.<kind>`.
pub const FLEET_KINDS: [&str; 8] = [
    "churn",
    "background",
    "io_burst",
    "power_cut",
    "tamper",
    "mem_pressure",
    "accel_storm",
    "flaky_disk",
];

fn event_span(event: &FleetEvent) -> &'static str {
    match event {
        FleetEvent::Churn => "workloads.fleet.churn",
        FleetEvent::BackgroundRead { .. } | FleetEvent::BackgroundWrite { .. } => {
            "workloads.fleet.background"
        }
        FleetEvent::IoBurst { .. } => "workloads.fleet.io_burst",
        FleetEvent::PowerCut { .. } => "workloads.fleet.power_cut",
        FleetEvent::Tamper { .. } => "workloads.fleet.tamper",
        FleetEvent::MemPressure { .. } => "workloads.fleet.mem_pressure",
        FleetEvent::AccelWedgeStorm { .. } => "workloads.fleet.accel_storm",
        FleetEvent::FlakyDiskInterval { .. } => "workloads.fleet.flaky_disk",
    }
}

/// The device currently being driven (none between devices).
struct FleetMix {
    dev: Option<Device>,
}

impl Probe for FleetMix {
    fn sim_now(&self) -> u64 {
        self.dev
            .as_ref()
            .map_or(0, |d| d.sentry.kernel.soc.clock.now_ns())
    }
    fn counters(&self) -> Counters {
        self.dev
            .as_ref()
            .map_or_else(Counters::default, |d| sentry_counters(&d.sentry))
    }
}

impl FleetMix {
    /// Drive devices `0..ops / 24` of a one-shard fleet seeded by `seed`
    /// through `Device::build` / `apply` / `finish`, keeping one sample
    /// per event. The fleet's own checks — no silent corruption, every
    /// planted tamper detected — count as failures here.
    fn run(seed: u64, _size: Size, ops: usize, tracer: &mut Tracer, pass: &mut Pass) -> Res<()> {
        let devices = ops / EVENTS_PER_DEVICE;
        let config = FleetConfig::new(devices, 1).with_master_seed(seed);
        let mut w = FleetMix { dev: None };
        for index in 0..devices as u64 {
            let events = event_stream(&config, index);
            let text = format!("{events:?}");
            pass.digest(&text.bytes().map(u64::from).collect::<Vec<_>>());
            let t0 = Instant::now();
            let built = tracer.call("workloads.fleet.device_build", &mut w, |w| {
                Device::build(&config, index).map(|d| w.dev = Some(d))
            });
            pass.setup_ns += elapsed_ns(t0);
            built?;
            let start = w.counters();
            for (i, event) in (0u64..).zip(&events) {
                tracer.set_op(index * EVENTS_PER_DEVICE as u64 + i);
                pass.attempted += 1;
                let state = w.dev.as_ref().expect("built").sentry.state();
                let (r, host, sim) = op(tracer, Workload::FleetMix.op_span(), &mut w, |w, t| {
                    t.call(event_span(event), w, |w| {
                        w.dev.as_mut().expect("built").apply(event)
                    })
                });
                pass.op_host_ns.push(host);
                pass.op_sim_ns.push(sim);
                if let Err(e) = r {
                    pass.fail(format!("device {index} event {i} ({event:?}): {e}"));
                    w.dev = None;
                    break;
                }
                if *event == FleetEvent::Churn {
                    let part = match state {
                        DeviceState::Locked => Part::Resume,
                        DeviceState::Unlocked => Part::Lock,
                    };
                    pass.part(part, sim);
                }
            }
            let Some(dev) = w.dev.take() else { continue };
            let mut delta = sentry_counters(&dev.sentry).since(&start);
            let depth = dev.sentry.kernel.soc.accel_queue.stats.max_depth as u64;
            pass.accel_max_depth = pass.accel_max_depth.max(depth);
            let outcome = match dev.finish() {
                Ok(o) => o,
                Err(e) => {
                    pass.fail(format!("device {index} finish: {e}"));
                    continue;
                }
            };
            for _ in 0..outcome.silent_corruptions {
                pass.fail(format!("device {index}: silent corruption"));
            }
            if outcome.tampers_detected != outcome.tampers_planted {
                pass.fail(format!(
                    "device {index}: {} tampers planted, {} detected",
                    outcome.tampers_planted, outcome.tampers_detected
                ));
            }
            // Health and pressure come from the outcome, which merges the
            // volume's governor in and syncs the pressure tracker.
            let (h, p) = (outcome.health, outcome.pressure);
            for (c, v) in [
                (C::Trips, h.trips),
                (C::Timeouts, h.timeouts),
                (C::FallbackCryptBytes, h.fallback_crypt_bytes),
                (C::TimeDegradedNs, h.time_degraded_ns),
                (C::DiskRetries, h.disk.attempts),
                (C::Sheds, p.sheds),
                (C::Spills, p.spills),
                (C::SpillRestores, p.spill_restores),
                (C::Denied, p.denied),
                (C::Recoveries, outcome.recoveries),
            ] {
                delta.set(c, v);
            }
            pass.counters.add(&delta);
            pass.onsoc_peak_bytes = pass.onsoc_peak_bytes.max(p.high_water_bytes);
        }
        Ok(())
    }
}
