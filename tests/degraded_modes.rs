//! Degraded-mode properties of the health governor: a sustained fault
//! regime on the accelerator or the storage device is *transparent* —
//! every read completes with the written bytes (watchdog abandonment,
//! CPU fallback, breaker routing, bounded disk retry), corrupt engine
//! output never surfaces, and an abandoned op's DMA bounce window is
//! zeroized before the CPU takes over, so a cold-boot dump taken after
//! a wedge-then-fallback cycle contains neither plaintext nor
//! keystream.

use proptest::prelude::*;
use sentry::attacks::coldboot::{dump_dram, dump_iram, search};
use sentry::core::config::{PageCipherMode, PipelineConfig, ReadaheadConfig};
use sentry::core::health::{MAX_DISK_RETRIES, PROBE_AFTER_NS, PROBE_SUCCESSES, TRIP_FAILURES};
use sentry::core::{HealthState, Sentry, SentryConfig};
use sentry::crypto::pipeline::ctr_keystream;
use sentry::crypto::BitslicedAes;
use sentry::kernel::block::{RamDisk, SECTOR_SIZE};
use sentry::kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry::kernel::dmcrypt::DmCrypt;
use sentry::kernel::Kernel;
use sentry::soc::accel::AccelPowerState;
use sentry::soc::addr::{IRAM_BASE, PAGE_SIZE};
use sentry::soc::{FaultAction, FaultPlan, Soc};

const KEY: [u8; 16] = [0x4D; 16];
const VOLUME_SECTORS: u64 = 64;
const READ_SECTORS: usize = 16;

/// A CTR-mode pipelined volume (awake accelerator) holding
/// deterministic seeded content.
fn volume(seed: u64) -> (CryptoApi, Soc, RamDisk, DmCrypt, Vec<u8>) {
    let mut api = CryptoApi::new();
    api.register(Box::new(GenericAesEngine::new(0)));
    api.preferred_mut()
        .unwrap()
        .set_mode(PageCipherMode::Ctr)
        .unwrap();
    let mut soc = Soc::tegra3_small();
    soc.accel.state = AccelPowerState::Awake;
    let dm = DmCrypt::with_preferred_cipher();
    dm.enable_pipeline(PipelineConfig::enabled());
    dm.set_key(&mut api, &mut soc, &KEY).unwrap();
    let mut disk = RamDisk::new(VOLUME_SECTORS);
    let data: Vec<u8> = (0..VOLUME_SECTORS as usize * SECTOR_SIZE)
        .map(|i| (i as u64).wrapping_mul(seed | 1).wrapping_shr(3) as u8)
        .collect();
    dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
    (api, soc, disk, dm, data)
}

/// Any sustained accelerator misbehaviour: wedges (finite or forever),
/// corrupt status words, or a slowed clock — at a steady rate, in a
/// burst, or persistently.
fn accel_plan() -> impl Strategy<Value = FaultPlan> {
    let action = prop_oneof![
        Just(FaultAction::AccelWedge { wedge_ns: u64::MAX }),
        (10_000u64..50_000_000).prop_map(|wedge_ns| FaultAction::AccelWedge { wedge_ns }),
        Just(FaultAction::AccelCorrupt),
        (2u32..32).prop_map(|factor| FaultAction::AccelSlow { factor }),
    ];
    let regime = prop_oneof![
        (1u64..4).prop_map(|p| (0u64, p, 0u64)),             // rate
        ((0u64..3), (1u64..5)).prop_map(|(a, l)| (a, 0, l)), // burst
        Just((0u64, 0, u64::MAX)),                           // persistent
    ];
    (action, regime).prop_map(|(action, (after, period, len))| {
        if period > 0 {
            FaultPlan::at_rate("accel.submit", period, action)
        } else if len == u64::MAX {
            FaultPlan::at_site("accel.submit", 0, action).persistent()
        } else {
            FaultPlan::burst("accel.submit", after, len, action)
        }
    })
}

/// Transient storage trouble the retry budget can always absorb: fault
/// rates with a clean retry slot (period ≥ 2), fault bursts no longer
/// than the budget, or latency stalls at any rate.
fn disk_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        (2u64..6).prop_map(|p| FaultPlan::at_rate("disk.read", p, FaultAction::DiskError)),
        ((0u64..3), (1u64..4)).prop_map(|(a, l)| FaultPlan::burst(
            "disk.read",
            a,
            l,
            FaultAction::DiskError
        )),
        ((1u64..4), (1_000u64..200_000)).prop_map(|(p, stall_ns)| FaultPlan::at_rate(
            "disk.read",
            p,
            FaultAction::DiskStall { stall_ns }
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Fallback equivalence on the dm-crypt read path: under *any*
    /// seeded sustained fault regime, every read of the volume returns
    /// the written bytes — during the regime and after it lifts — and
    /// no disk retry budget is ever exhausted.
    #[test]
    fn any_sustained_fault_regime_is_byte_transparent(
        plan in prop_oneof![accel_plan(), disk_plan()],
        seed in 1u64..u64::MAX,
    ) {
        let (mut api, mut soc, mut disk, dm, data) = volume(seed);
        soc.failpoints.arm(plan);
        for chunk in 0..VOLUME_SECTORS as usize / READ_SECTORS {
            let mut back = vec![0u8; READ_SECTORS * SECTOR_SIZE];
            let sector = (chunk * READ_SECTORS) as u64;
            dm.read(&mut api, &mut soc, &mut disk, sector, &mut back)
                .expect("read completes under the fault regime");
            let lo = chunk * READ_SECTORS * SECTOR_SIZE;
            prop_assert_eq!(&back[..], &data[lo..lo + back.len()]);
        }
        soc.failpoints.disarm();
        // The regime lifts: after the probe interval the end state is
        // still byte-identical (the breaker may close on the way).
        soc.clock.advance(PROBE_AFTER_NS);
        for chunk in 0..VOLUME_SECTORS as usize / READ_SECTORS {
            let mut back = vec![0u8; READ_SECTORS * SECTOR_SIZE];
            let sector = (chunk * READ_SECTORS) as u64;
            dm.read(&mut api, &mut soc, &mut disk, sector, &mut back).expect("post-regime read");
            let lo = chunk * READ_SECTORS * SECTOR_SIZE;
            prop_assert_eq!(&back[..], &data[lo..lo + back.len()]);
        }
        let health = dm.health_stats(soc.clock.now_ns());
        prop_assert_eq!(health.disk.exhausted, 0);
    }

    /// The same transparency across a lifecycle unlock: an accelerator
    /// regime armed over the unlock and its resume never changes the
    /// plaintext an application reads back.
    #[test]
    fn lifecycle_unlock_survives_any_accel_regime(
        plan in accel_plan(),
        tag in any::<u8>(),
    ) {
        let config = SentryConfig::tegra3_locked_l2(2)
            .with_cipher_mode(PageCipherMode::Ctr)
            .with_pipeline(PipelineConfig::enabled())
            .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(0));
        let mut sentry = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
        let app = sentry.kernel.spawn("vault");
        sentry.mark_sensitive(app).expect("mark sensitive");
        let page_len = usize::try_from(PAGE_SIZE).unwrap();
        let images: Vec<Vec<u8>> = (0..8u64)
            .map(|vpn| (0..page_len).map(|i| (i as u8).wrapping_mul(31) ^ tag ^ vpn as u8).collect())
            .collect();
        for (vpn, img) in images.iter().enumerate() {
            sentry.write(app, vpn as u64 * PAGE_SIZE, img).expect("write page");
        }
        sentry.on_lock().expect("lock");
        sentry.kernel.soc.failpoints.arm(plan);
        sentry.on_unlock().expect("unlock under fault regime");
        let mut buf = vec![0u8; page_len];
        for (vpn, img) in images.iter().enumerate() {
            sentry.read(app, vpn as u64 * PAGE_SIZE, &mut buf).expect("read page");
            prop_assert_eq!(&buf, img, "page {} diverged", vpn);
        }
        sentry.kernel.soc.failpoints.disarm();
    }
}

/// Deterministic breaker walk on dm-crypt: wedge every submit — the
/// watchdog abandons exactly `TRIP_FAILURES` ops, the breaker opens (no
/// further deadline is ever burned), and once the storm lifts two
/// half-open probes close it again.
#[test]
fn dmcrypt_breaker_trips_and_recovers() {
    let (mut api, mut soc, mut disk, dm, data) = volume(7);
    soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    for _ in 0..6 {
        let mut back = vec![0u8; READ_SECTORS * SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .expect("read under wedge storm");
        assert_eq!(&back[..], &data[..back.len()]);
    }
    soc.failpoints.disarm();
    assert_eq!(dm.health_state(), HealthState::Open);
    let mid = dm.health_stats(soc.clock.now_ns());
    assert_eq!(mid.timeouts, u64::from(TRIP_FAILURES));
    assert_eq!(mid.trips, 1);
    assert!(mid.abandoned_bytes > 0);
    assert!(mid.fallback_crypt_bytes > 0);

    // Cool down past the probe interval; a run of `PROBE_SUCCESSES`
    // probe successes closes the breaker.
    soc.clock.advance(PROBE_AFTER_NS);
    for _ in 0..PROBE_SUCCESSES {
        let mut back = vec![0u8; READ_SECTORS * SECTOR_SIZE];
        dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
            .expect("probe read");
        assert_eq!(&back[..], &data[..back.len()]);
    }
    assert_eq!(dm.health_state(), HealthState::Healthy);
    let after = dm.health_stats(soc.clock.now_ns());
    assert_eq!(after.recoveries, 1);
    assert_eq!(after.probes, u64::from(PROBE_SUCCESSES));
    assert!(after.time_degraded_ns > 0);
}

/// Bytes the open breaker keeps on the CPU are fallback bytes on
/// dm-crypt too, exactly as on the lifecycle's batches: every sector a
/// breaker-open read decrypts inline counts, on top of the abandoned
/// ops' bytes.
#[test]
fn dmcrypt_counts_breaker_open_reads_as_fallback_bytes() {
    let (mut api, mut soc, mut disk, dm, data) = volume(5);
    soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    let mut read = |soc: &mut Soc| {
        let mut back = vec![0u8; READ_SECTORS * SECTOR_SIZE];
        dm.read(&mut api, soc, &mut disk, 0, &mut back)
            .expect("read under wedge storm");
        assert_eq!(&back[..], &data[..back.len()]);
    };
    for _ in 0..TRIP_FAILURES {
        read(&mut soc);
    }
    assert_eq!(dm.health_state(), HealthState::Open);
    let (tripped, _) = dm.pipeline_stats().unwrap();
    assert_eq!(
        tripped.health.fallback_crypt_bytes, tripped.health.abandoned_bytes,
        "each abandoned op fell back whole"
    );
    for _ in 0..2 {
        read(&mut soc);
    }
    let (open, _) = dm.pipeline_stats().unwrap();
    assert_eq!(open.fallback.breaker_open, 2, "{open:?}");
    assert_eq!(open.health.abandoned_bytes, tripped.health.abandoned_bytes);
    let inline_bytes = (open.inline_sectors - tripped.inline_sectors) * SECTOR_SIZE as u64;
    assert!(inline_bytes > 0);
    assert_eq!(
        open.health.fallback_crypt_bytes - tripped.health.fallback_crypt_bytes,
        inline_bytes,
        "breaker-open reads are CPU fallback bytes"
    );
}

/// The lifecycle governor walks the same machine: a persistent wedge
/// across an unlock's clustered decrypt batches burns exactly
/// `TRIP_FAILURES` watchdogs, trips the breaker, and routes the
/// remaining batches over the CPU path — with every page intact.
#[test]
fn lifecycle_breaker_routes_unlock_batches() {
    let config = SentryConfig::tegra3_locked_l2(2)
        .with_cipher_mode(PageCipherMode::Ctr)
        .with_pipeline(PipelineConfig::enabled())
        .with_readahead(ReadaheadConfig::with_cluster(4).sweep_budget(0));
    let mut sentry = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let app = sentry.kernel.spawn("vault");
    sentry.mark_sensitive(app).expect("mark sensitive");
    let page_len = usize::try_from(PAGE_SIZE).unwrap();
    let images: Vec<Vec<u8>> = (0..16u64)
        .map(|vpn| vec![0xC0u8 ^ vpn as u8; page_len])
        .collect();
    for (vpn, img) in images.iter().enumerate() {
        sentry
            .write(app, vpn as u64 * PAGE_SIZE, img)
            .expect("write page");
    }
    sentry.on_lock().expect("lock");
    sentry.kernel.soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    sentry.on_unlock().expect("unlock");
    let mut buf = vec![0u8; page_len];
    for (vpn, img) in images.iter().enumerate() {
        sentry
            .read(app, vpn as u64 * PAGE_SIZE, &mut buf)
            .expect("read page");
        assert_eq!(&buf, img);
    }
    sentry.kernel.soc.failpoints.disarm();
    let health = sentry.health_stats();
    assert_eq!(health.timeouts, u64::from(TRIP_FAILURES));
    assert_eq!(health.trips, 1);
    assert!(
        sentry.stats.batch_fallback.breaker_open >= 1,
        "post-trip batches must route over the open breaker"
    );
}

/// Abandonment accounting covers the whole op, not just the part of it
/// staged through the 1 MiB DMA bounce window: a routed sweeper batch
/// of 300 pages (1.2 MiB) that times out under a wedge adds all of its
/// bytes to `abandoned_bytes`, as dm-crypt does.
#[test]
fn routed_batch_over_the_bounce_window_counts_every_abandoned_byte() {
    const PAGES: u64 = 300;
    let config = SentryConfig::tegra3_locked_l2(2)
        .with_cipher_mode(PageCipherMode::Ctr)
        .with_pipeline(PipelineConfig::enabled())
        .with_readahead(ReadaheadConfig::with_cluster(1).sweep_budget(0));
    let mut sentry = Sentry::new(Kernel::new(Soc::tegra3_small()), config).expect("sentry");
    let app = sentry.kernel.spawn("vault");
    sentry.mark_sensitive(app).expect("mark sensitive");
    let page_len = usize::try_from(PAGE_SIZE).unwrap();
    for vpn in 0..PAGES {
        sentry
            .write(app, vpn * PAGE_SIZE, &vec![vpn as u8 ^ 0x5A; page_len])
            .expect("write page");
    }
    sentry.on_lock().expect("lock");
    sentry.on_unlock().expect("unlock");
    let before = sentry.health_stats();
    sentry.kernel.soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    let report = sentry.sweep(PAGES as usize).expect("sweep under a wedge");
    sentry.kernel.soc.failpoints.disarm();
    assert_eq!(report.pages as u64, PAGES, "one batch carries every page");
    let after = sentry.health_stats();
    assert_eq!(
        after.timeouts,
        before.timeouts + 1,
        "the batch was abandoned"
    );
    assert_eq!(
        after.abandoned_bytes - before.abandoned_bytes,
        PAGES * PAGE_SIZE,
        "every byte of the abandoned op counts"
    );
    let mut buf = vec![0u8; page_len];
    for vpn in 0..PAGES {
        sentry
            .read(app, vpn * PAGE_SIZE, &mut buf)
            .expect("read page");
        assert_eq!(buf, vec![vpn as u8 ^ 0x5A; page_len]);
    }
}

/// Bounded disk retry: a fault rate with a clean retry slot recovers
/// transparently; a persistently failing device exhausts the budget and
/// surfaces a typed error instead of hanging.
#[test]
fn disk_retry_budget_is_bounded() {
    let (mut api, mut soc, mut disk, dm, data) = volume(11);
    soc.failpoints
        .arm(FaultPlan::at_rate("disk.read", 2, FaultAction::DiskError));
    let mut back = vec![0u8; 8 * SECTOR_SIZE];
    dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
        .expect("transient fault recovered");
    assert_eq!(&back[..], &data[..back.len()]);
    soc.failpoints.disarm();
    let mid = dm.health_stats(soc.clock.now_ns());
    assert_eq!(mid.disk.recovered, 1);
    assert_eq!(mid.disk.exhausted, 0);

    // A device that fails every request exhausts the budget.
    soc.failpoints
        .arm(FaultPlan::at_site("disk.read", 0, FaultAction::DiskError).persistent());
    let err = dm.read(&mut api, &mut soc, &mut disk, 0, &mut back);
    assert!(err.is_err(), "persistent disk failure must surface");
    soc.failpoints.disarm();
    let after = dm.health_stats(soc.clock.now_ns());
    assert_eq!(after.disk.exhausted, 1);
    assert_eq!(
        after.disk.attempts,
        mid.disk.attempts + u64::from(MAX_DISK_RETRIES) + 1
    );
}

/// Zeroize audit on the abandonment path: after a wedge-then-fallback
/// read the DMA bounce window has been wiped, so a cold-boot dump of
/// every DRAM byte plus iRAM holds neither the returned plaintext nor
/// any sector keystream.
#[test]
fn wedge_then_fallback_leaves_nothing_for_cold_boot() {
    let mut api = CryptoApi::new();
    api.register(Box::new(GenericAesEngine::new(0)));
    api.preferred_mut()
        .unwrap()
        .set_mode(PageCipherMode::Ctr)
        .unwrap();
    let mut soc = Soc::tegra3_small();
    soc.accel.state = AccelPowerState::Awake;
    let dm = DmCrypt::with_preferred_cipher();
    dm.enable_pipeline(PipelineConfig::enabled());
    dm.set_key(&mut api, &mut soc, &KEY).unwrap();
    let mut disk = RamDisk::new(256);

    let sentinel = b"SENTRY-DEGRADED-PLAINTEXT-SENTINEL......";
    let data: Vec<u8> = sentinel
        .iter()
        .copied()
        .cycle()
        .take(32 * SECTOR_SIZE)
        .collect();
    dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();

    // Wedge every descriptor: the read completes via watchdog
    // abandonment + CPU fallback, leaving an abandoned transfer behind.
    soc.failpoints.arm(FaultPlan::at_rate(
        "accel.submit",
        1,
        FaultAction::AccelWedge { wedge_ns: u64::MAX },
    ));
    let mut back = vec![0u8; 16 * SECTOR_SIZE];
    dm.read(&mut api, &mut soc, &mut disk, 0, &mut back)
        .expect("wedged read falls back");
    soc.failpoints.disarm();
    assert_eq!(&back[..], &data[..back.len()]);
    let health = dm.health_stats(soc.clock.now_ns());
    assert!(health.timeouts >= 1, "the wedge must have been abandoned");

    // Cold-boot scan of the frozen image: the abandoned bounce window
    // must have been zeroized and no keystream may be resident.
    let mut dump = dump_dram(&mut soc);
    dump.push((IRAM_BASE, dump_iram(&soc)));
    let bits = BitslicedAes::new(&KEY).unwrap();
    for sector in 0..256u64 {
        let ks = ctr_keystream(&bits, &DmCrypt::sector_iv(sector), 64);
        assert!(
            search(&dump, &ks[..32]).is_empty(),
            "keystream for sector {sector} resident after abandonment"
        );
    }
    assert!(
        search(&dump, &sentinel[..32]).is_empty(),
        "plaintext sentinel resident after wedge-then-fallback"
    );
}
