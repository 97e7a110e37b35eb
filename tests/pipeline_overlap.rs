//! Properties of the async crypt pipeline: overlap is a pure latency
//! optimisation — it must never change bytes, never serve a keystream
//! buffer twice, and never leave keystream recoverable from memory.

use proptest::collection::vec;
use proptest::prelude::*;
use sentry::attacks::coldboot::{dump_dram, dump_iram, search};
use sentry::crypto::pipeline::ctr_keystream;
use sentry::crypto::{BitslicedAes, KeystreamCache, PageCipherMode, PipelineConfig};
use sentry::kernel::block::{RamDisk, SECTOR_SIZE};
use sentry::kernel::crypto_api::{CryptoApi, GenericAesEngine};
use sentry::kernel::dmcrypt::DmCrypt;
use sentry::soc::accel::AccelPowerState;
use sentry::soc::addr::IRAM_BASE;
use sentry::soc::{FaultAction, FaultPlan, Soc};

const KEY: [u8; 16] = [0x6B; 16];
const VOLUME_SECTORS: u64 = 512;

/// A CTR-mode volume with `sectors` sectors of deterministic content.
fn volume(seed: u64, pipeline: bool) -> (CryptoApi, Soc, RamDisk, DmCrypt, Vec<u8>) {
    let mut api = CryptoApi::new();
    api.register(Box::new(GenericAesEngine::new(0)));
    api.preferred_mut()
        .unwrap()
        .set_mode(PageCipherMode::Ctr)
        .unwrap();
    let mut soc = Soc::tegra3_small();
    soc.accel.state = AccelPowerState::Awake;
    let dm = DmCrypt::with_preferred_cipher();
    if pipeline {
        dm.enable_pipeline(PipelineConfig::enabled());
    }
    dm.set_key(&mut api, &mut soc, &KEY).unwrap();
    let mut disk = RamDisk::new(VOLUME_SECTORS);
    let data: Vec<u8> = (0..VOLUME_SECTORS as usize * SECTOR_SIZE)
        .map(|i| (i as u64).wrapping_mul(seed | 1).wrapping_shr(3) as u8)
        .collect();
    dm.write(&mut api, &mut soc, &mut disk, 0, &data).unwrap();
    (api, soc, disk, dm, data)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Any interleaving of read requests — arbitrary offsets, lengths,
    /// and repetition — returns byte-identical data on the overlapped
    /// path and the inline path. Repetition matters: a second read of a
    /// sector whose keystream was already consumed must recompute or
    /// route, never reuse (CTR keystream reuse would corrupt the bytes,
    /// so correctness here *is* the single-use proof on the data path).
    #[test]
    fn overlap_is_byte_identical_across_interleavings(
        seed in 1u64..u64::MAX,
        reqs in vec((0u64..VOLUME_SECTORS - 32, 1usize..32), 1..24),
    ) {
        let (mut api, mut soc, mut disk, dm, data) = volume(seed, true);
        for &(sector, nsect) in &reqs {
            let mut buf = vec![0u8; nsect * SECTOR_SIZE];
            dm.read(&mut api, &mut soc, &mut disk, sector, &mut buf).unwrap();
            let lo = sector as usize * SECTOR_SIZE;
            prop_assert_eq!(
                &buf[..],
                &data[lo..lo + nsect * SECTOR_SIZE],
                "sector {} x{}", sector, nsect
            );
        }
        let (stats, ks) = dm.pipeline_stats().unwrap();
        prop_assert!(ks.hits <= ks.precomputed, "{:?}", ks);
        prop_assert_eq!(ks.stale_epoch_denied, 0);
        prop_assert_eq!(stats.fallbacks(), stats.fallback.below_threshold,
            "only short miss runs may fall back on an awake CTR volume");
    }

    /// A power cut at any depth into the DMA staging sequence leaves no
    /// plaintext keystream (and no plaintext data) anywhere in DRAM or
    /// iRAM — the bounce window holds staged ciphertext only, and the
    /// keystream cache is on-SoC scratch that dies with power.
    #[test]
    fn kill_at_any_queue_depth_leaks_no_keystream(
        seed in 1u64..u64::MAX,
        kill_after in 0u64..6,
    ) {
        let (mut api, mut soc, mut disk, dm, _) = volume(seed, true);
        soc.failpoints.arm(FaultPlan::at_site(
            "accel.dma",
            kill_after,
            FaultAction::PowerCut { decay: None },
        ));
        let mut killed = false;
        for chunk in 0..8u64 {
            let mut buf = vec![0u8; 16 * SECTOR_SIZE];
            if dm.read(&mut api, &mut soc, &mut disk, chunk * 16, &mut buf).is_err() {
                killed = true;
                break;
            }
        }
        soc.failpoints.disarm();
        prop_assert!(killed, "the armed power cut must fire within the run");

        let mut dump = dump_dram(&mut soc);
        dump.push((IRAM_BASE, dump_iram(&soc)));
        let bits = BitslicedAes::new(&KEY).unwrap();
        for sector in 0..256u64 {
            let ks = ctr_keystream(&bits, &DmCrypt::sector_iv(sector), 64);
            prop_assert!(
                search(&dump, &ks[..32]).is_empty(),
                "keystream for sector {} found in the frozen image", sector
            );
        }
    }
}

/// The cache itself enforces single-use: a taken entry is gone, and a
/// stale-epoch take is zeroized and denied rather than served.
#[test]
fn keystream_cache_never_serves_twice() {
    let mut cache = KeystreamCache::new(SECTOR_SIZE, 8);
    let epoch = cache.epoch();
    cache.insert(7, vec![0xAB; SECTOR_SIZE]);
    assert!(cache.take(7, epoch).is_some());
    assert!(
        cache.take(7, epoch).is_none(),
        "single-use: entry must be consumed"
    );

    cache.insert(9, vec![0xCD; SECTOR_SIZE]);
    cache.rotate_epoch();
    assert!(
        cache.take(9, epoch).is_none(),
        "stale-epoch keystream must be denied, not served"
    );
    assert_eq!(cache.len(), 0, "rotation zeroizes and drops every entry");
}

/// Device lock zeroizes the resident keystream and rotates the epoch;
/// post-lock reads still decrypt correctly (recompute, never reuse).
#[test]
fn lock_zeroizes_and_reads_stay_correct() {
    let (mut api, mut soc, mut disk, dm, data) = volume(0x5EED, true);
    let mut buf = vec![0u8; 16 * SECTOR_SIZE];
    dm.read(&mut api, &mut soc, &mut disk, 0, &mut buf).unwrap();
    assert!(
        dm.keystream_resident() > 0,
        "lookahead must leave residents"
    );

    dm.zeroize_keystream();
    assert_eq!(dm.keystream_resident(), 0);

    dm.read(&mut api, &mut soc, &mut disk, 16, &mut buf)
        .unwrap();
    assert_eq!(&buf[..], &data[16 * SECTOR_SIZE..32 * SECTOR_SIZE]);
}
