//! Filebench workloads over dm-crypt (Figure 9).
//!
//! The paper isolates dm-crypt's overhead with a 450 MB in-memory
//! partition and three filebench personalities (sequential read, random
//! read, random read/write), each run twice — through the buffer cache
//! and with direct I/O. The reproduction scales the dataset down (the
//! effects are ratio-driven, not size-driven) and runs the same grid
//! over the simulated storage stack:
//!
//! * **No Crypto** — the raw RAM disk;
//! * **Generic AES** — dm-crypt using the kernel's software AES;
//! * **Sentry** — dm-crypt transparently picking up AES On SoC through
//!   the Crypto API priority mechanism.
//!
//! The headline behaviours asserted by the tests: the buffer cache masks
//! encryption entirely for `randread`; direct I/O exposes it; and
//! `randrw` pays for encryption even when cached, cutting throughput
//! roughly in half.

use sentry_core::aes_onsoc::build_engine;
use sentry_core::config::{OnSocBackend, PageCipherMode, PipelineConfig};
use sentry_core::onsoc::OnSocStore;
use sentry_core::SentryError;
use sentry_crypto::pipeline::KeystreamStats;
use sentry_kernel::bufcache::{Volume, VolumeCrypto, CACHE_BLOCK};
use sentry_kernel::dmcrypt::{DmCrypt, ReadOverlapStats};
use sentry_kernel::vfs::SimpleFs;
use sentry_kernel::Kernel;
use sentry_soc::accel::AccelPowerState;
use sentry_soc::rng::DetRng;
use sentry_soc::Soc;

/// Which filebench personality to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential whole-file reads.
    SeqRead,
    /// Uniform random reads.
    RandRead,
    /// Uniform random 50/50 read/write mix.
    RandRw,
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::SeqRead => write!(f, "seqread"),
            Workload::RandRead => write!(f, "randread"),
            Workload::RandRw => write!(f, "randrw"),
        }
    }
}

/// The crypto column of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoSetup {
    /// Raw device.
    NoCrypto,
    /// dm-crypt + generic kernel AES.
    GenericAes,
    /// dm-crypt + AES On SoC (Sentry).
    Sentry,
}

impl std::fmt::Display for CryptoSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoSetup::NoCrypto => write!(f, "No Crypto"),
            CryptoSetup::GenericAes => write!(f, "Generic AES"),
            CryptoSetup::Sentry => write!(f, "Sentry"),
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilebenchSpec {
    /// Which personality.
    pub workload: Workload,
    /// Bypass the buffer cache.
    pub direct_io: bool,
    /// Number of files in the dataset.
    pub files: u32,
    /// File size in bytes (4 KiB-aligned).
    pub file_size: u64,
    /// I/O operations to issue after warm-up.
    pub ops: u32,
    /// I/O size per operation, bytes (4 KiB-aligned).
    pub io_size: usize,
    /// Per-operation VFS overhead for reads, nanoseconds (path lookup,
    /// locking).
    pub read_op_ns: u64,
    /// Per-operation VFS overhead for writes, nanoseconds (allocation,
    /// journaling) — this is why `randrw` is not crypto-dominated and
    /// encryption "only" halves its throughput.
    pub write_op_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl FilebenchSpec {
    /// The scaled-down default grid cell for a workload.
    #[must_use]
    pub fn new(workload: Workload, direct_io: bool) -> Self {
        FilebenchSpec {
            workload,
            direct_io,
            files: 8,
            file_size: 2 << 20, // 16 MB dataset
            ops: 600,
            io_size: 8192,
            read_op_ns: 10_000,
            write_op_ns: 200_000,
            seed: 0xF11E,
        }
    }
}

/// A measured cell of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilebenchResult {
    /// Workload.
    pub(crate) workload: Workload,
    /// Crypto column.
    pub(crate) crypto: CryptoSetup,
    /// Whether the cache was bypassed.
    pub(crate) direct_io: bool,
    /// Measured throughput, megabytes per second.
    pub mb_per_sec: f64,
    /// Buffer-cache hit count during the measured phase.
    pub cache_hits: u64,
}

/// Run one grid cell.
///
/// # Errors
///
/// Propagates kernel/Sentry errors.
pub fn run_filebench(
    spec: &FilebenchSpec,
    crypto: CryptoSetup,
) -> Result<FilebenchResult, SentryError> {
    let mut kernel = Kernel::new(Soc::tegra3_small());

    // Register AES On SoC for the Sentry column (the Crypto API then
    // prefers it automatically — §7).
    if crypto == CryptoSetup::Sentry {
        let mut store = OnSocStore::new(OnSocBackend::LockedL2 { max_ways: 1 }, &mut kernel.soc);
        let engine = build_engine(&mut store, &mut kernel.soc, &[0xD3u8; 16])?;
        kernel.crypto.register(Box::new(engine));
    }

    let volume_crypto = match crypto {
        CryptoSetup::NoCrypto => VolumeCrypto::None,
        CryptoSetup::GenericAes => {
            let dm = DmCrypt::with_cipher("aes-cbc-generic");
            dm.set_key(&mut kernel.crypto, &mut kernel.soc, &[0xD3u8; 16])?;
            VolumeCrypto::DmCrypt(dm)
        }
        CryptoSetup::Sentry => {
            let dm = DmCrypt::with_preferred_cipher();
            dm.set_key(&mut kernel.crypto, &mut kernel.soc, &[0xD3u8; 16])?;
            VolumeCrypto::DmCrypt(dm)
        }
    };

    let dataset = u64::from(spec.files) * spec.file_size;
    let sectors = (dataset * 2) / 512;
    // Cache large enough to hold the dataset: "most of the I/O
    // operations end up being serviced from the cache".
    let cache_blocks = (dataset / CACHE_BLOCK as u64 + 16) as usize;
    let mut vol = Volume::new(sectors, volume_crypto, cache_blocks);
    let mut fs = SimpleFs::new();

    // Warm-up: create the files and write their contents (this also
    // warms the buffer cache, as in the paper).
    let mut rng = DetRng::new(spec.seed);
    let mut chunk = vec![0u8; CACHE_BLOCK];
    for i in 0..spec.files {
        let name = format!("f{i:04}");
        fs.create(&vol, &name, spec.file_size)?;
        let mut off = 0u64;
        while off < spec.file_size {
            rng.fill(&mut chunk);
            fs.write(
                &mut vol,
                &mut kernel.crypto,
                &mut kernel.soc,
                &name,
                off,
                &chunk,
                false,
            )?;
            off += CACHE_BLOCK as u64;
        }
    }

    // Measured phase.
    vol.cache.hits = 0;
    vol.cache.misses = 0;
    let mut buf = vec![0u8; spec.io_size];
    let blocks_per_file = spec.file_size / spec.io_size as u64;
    let t0 = kernel.soc.clock.now_ns();
    let mut bytes = 0u64;
    let mut seq_cursor = 0u64;
    for op in 0..spec.ops {
        let file = format!("f{:04}", rng.next_below(u64::from(spec.files)));
        let offset = match spec.workload {
            Workload::SeqRead => {
                let o = (seq_cursor % blocks_per_file) * spec.io_size as u64;
                seq_cursor += 1;
                o
            }
            _ => rng.next_below(blocks_per_file) * spec.io_size as u64,
        };
        let write = spec.workload == Workload::RandRw && op % 2 == 1;
        if write {
            kernel.soc.clock.advance(spec.write_op_ns);
            rng.fill(&mut buf);
            fs.write(
                &mut vol,
                &mut kernel.crypto,
                &mut kernel.soc,
                &file,
                offset,
                &buf,
                spec.direct_io,
            )?;
        } else {
            kernel.soc.clock.advance(spec.read_op_ns);
            fs.read(
                &mut vol,
                &mut kernel.crypto,
                &mut kernel.soc,
                &file,
                offset,
                &mut buf,
                spec.direct_io,
            )?;
        }
        bytes += spec.io_size as u64;
    }
    let secs = (kernel.soc.clock.now_ns() - t0) as f64 / 1e9;

    Ok(FilebenchResult {
        workload: spec.workload,
        crypto,
        direct_io: spec.direct_io,
        mb_per_sec: bytes as f64 / (1 << 20) as f64 / secs,
        cache_hits: vol.cache.hits,
    })
}

/// One measured run of the read-latency experiment behind
/// `exp_read_overlap`: a filebench read personality over dm-crypt in
/// CTR mode, timed per operation, with an FNV-1a digest of every byte
/// returned so an overlapped run can be checked byte-identical against
/// an inline one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOverlapResult {
    /// Mean per-operation read latency, nanoseconds.
    pub mean_read_ns: f64,
    /// Slowest single read, nanoseconds.
    pub(crate) max_read_ns: u64,
    /// Operations issued.
    pub ops: u32,
    /// Bytes read.
    pub bytes: u64,
    /// FNV-1a digest over every byte returned, in op order.
    pub digest: u64,
    /// Read-path and keystream counters (None on an inline run).
    pub pipeline: Option<(ReadOverlapStats, KeystreamStats)>,
    /// Keystream sectors resident in the on-SoC cache when the measured
    /// phase ended.
    pub(crate) keystream_resident: usize,
    /// Keystream sectors resident after the device-lock hook ran — the
    /// zeroize-on-lock discipline requires this to be 0.
    pub keystream_resident_after_lock: usize,
}

/// FNV-1a 64-bit over a byte run.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed value for FNV-1a.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Run the read-latency workload once: CTR-mode dm-crypt, reads only,
/// per-op latency on the simulated clock. `pipeline: None` is the
/// inline baseline; `Some(config)` enables the overlapped read path
/// (keystream precompute + accelerator queue) on the same workload, and
/// the accelerator is brought Awake as it would be on an unlocked
/// device.
///
/// # Errors
///
/// Propagates kernel/Sentry errors.
pub fn run_read_overlap(
    spec: &FilebenchSpec,
    pipeline: Option<PipelineConfig>,
) -> Result<ReadOverlapResult, SentryError> {
    let mut kernel = Kernel::new(Soc::tegra3_small());
    kernel
        .crypto
        .preferred_mut()
        .map_err(SentryError::Kernel)?
        .set_mode(PageCipherMode::Ctr)
        .map_err(SentryError::Kernel)?;
    // Unlocked device: the accelerator clock is awake (§8.2). The
    // inline baseline never touches the accelerator, so this only
    // matters to the overlapped run.
    kernel.soc.accel.state = AccelPowerState::Awake;

    let dm = DmCrypt::with_preferred_cipher();
    if let Some(cfg) = pipeline {
        dm.enable_pipeline(cfg);
    }
    dm.set_key(&mut kernel.crypto, &mut kernel.soc, &[0xD3u8; 16])?;

    let dataset = u64::from(spec.files) * spec.file_size;
    let sectors = (dataset * 2) / 512;
    let cache_blocks = (dataset / CACHE_BLOCK as u64 + 16) as usize;
    let mut vol = Volume::new(sectors, VolumeCrypto::DmCrypt(dm), cache_blocks);
    let mut fs = SimpleFs::new();

    // Warm-up: create and populate the dataset (writes stay inline —
    // the pipeline is a read-path optimisation).
    let mut rng = DetRng::new(spec.seed);
    let mut chunk = vec![0u8; CACHE_BLOCK];
    for i in 0..spec.files {
        let name = format!("f{i:04}");
        fs.create(&vol, &name, spec.file_size)?;
        let mut off = 0u64;
        while off < spec.file_size {
            rng.fill(&mut chunk);
            fs.write(
                &mut vol,
                &mut kernel.crypto,
                &mut kernel.soc,
                &name,
                off,
                &chunk,
                false,
            )?;
            off += CACHE_BLOCK as u64;
        }
    }

    // Measured phase: reads only, timed per op.
    let mut buf = vec![0u8; spec.io_size];
    let blocks_per_file = spec.file_size / spec.io_size as u64;
    let mut digest = FNV_OFFSET;
    let mut total_ns = 0u64;
    let mut max_read_ns = 0u64;
    let mut bytes = 0u64;
    let mut seq_cursor = 0u64;
    for _ in 0..spec.ops {
        let file = format!("f{:04}", rng.next_below(u64::from(spec.files)));
        let offset = match spec.workload {
            Workload::SeqRead => {
                let o = (seq_cursor % blocks_per_file) * spec.io_size as u64;
                seq_cursor += 1;
                o
            }
            _ => rng.next_below(blocks_per_file) * spec.io_size as u64,
        };
        let t0 = kernel.soc.clock.now_ns();
        kernel.soc.clock.advance(spec.read_op_ns);
        fs.read(
            &mut vol,
            &mut kernel.crypto,
            &mut kernel.soc,
            &file,
            offset,
            &mut buf,
            spec.direct_io,
        )?;
        let dt = kernel.soc.clock.now_ns() - t0;
        total_ns += dt;
        max_read_ns = max_read_ns.max(dt);
        digest = fnv1a(digest, &buf);
        bytes += spec.io_size as u64;
    }

    let (stats, resident) = match &vol.crypto {
        VolumeCrypto::DmCrypt(dm) => (dm.pipeline_stats(), dm.keystream_resident()),
        VolumeCrypto::None => (None, 0),
    };
    // Device lock: the zeroize hook must leave no keystream resident.
    vol.on_lock();
    let resident_after_lock = match &vol.crypto {
        VolumeCrypto::DmCrypt(dm) => dm.keystream_resident(),
        VolumeCrypto::None => 0,
    };

    #[allow(clippy::cast_precision_loss)]
    Ok(ReadOverlapResult {
        mean_read_ns: total_ns as f64 / f64::from(spec.ops),
        max_read_ns,
        ops: spec.ops,
        bytes,
        digest,
        pipeline: stats,
        keystream_resident: resident,
        keystream_resident_after_lock: resident_after_lock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: Workload, direct: bool, crypto: CryptoSetup) -> FilebenchResult {
        run_filebench(&FilebenchSpec::new(workload, direct), crypto).unwrap()
    }

    #[test]
    fn cached_randread_shows_no_crypto_overhead() {
        // Figure 9 (left): "Encryption adds no performance overhead for
        // the randread benchmark" when the cache is on.
        let none = cell(Workload::RandRead, false, CryptoSetup::NoCrypto);
        let generic = cell(Workload::RandRead, false, CryptoSetup::GenericAes);
        let sentry = cell(Workload::RandRead, false, CryptoSetup::Sentry);
        assert!(
            generic.mb_per_sec > 0.9 * none.mb_per_sec,
            "{generic:?} vs {none:?}"
        );
        assert!(sentry.mb_per_sec > 0.9 * none.mb_per_sec);
        assert!(sentry.cache_hits > 0);
    }

    #[test]
    fn direct_io_exposes_encryption_cost() {
        // "When we eliminate the system buffer cache by using direct
        // I/O, the impact of encryption on throughput is clearly
        // visible."
        let none = cell(Workload::RandRead, true, CryptoSetup::NoCrypto);
        let generic = cell(Workload::RandRead, true, CryptoSetup::GenericAes);
        assert!(
            none.mb_per_sec > 4.0 * generic.mb_per_sec,
            "no-crypto {:.1} vs generic {:.1} MB/s",
            none.mb_per_sec,
            generic.mb_per_sec
        );
    }

    #[test]
    fn randrw_throughput_is_roughly_halved_by_encryption() {
        // "encryption cuts throughput by a factor of two for the randrw
        // benchmark" (cached).
        let none = cell(Workload::RandRw, false, CryptoSetup::NoCrypto);
        let generic = cell(Workload::RandRw, false, CryptoSetup::GenericAes);
        let factor = none.mb_per_sec / generic.mb_per_sec;
        assert!((1.5..3.0).contains(&factor), "factor {factor:.2}");
    }

    #[test]
    fn sentry_is_close_to_generic_aes() {
        // dm-crypt with AES On SoC performs like dm-crypt with generic
        // AES (Figure 9's adjacent bars).
        for direct in [false, true] {
            let generic = cell(Workload::RandRw, direct, CryptoSetup::GenericAes);
            let sentry = cell(Workload::RandRw, direct, CryptoSetup::Sentry);
            let ratio = sentry.mb_per_sec / generic.mb_per_sec;
            assert!(
                (0.9..1.1).contains(&ratio),
                "direct={direct}: ratio {ratio:.3}"
            );
        }
    }

    #[test]
    fn overlapped_read_is_byte_identical_and_faster() {
        let spec = FilebenchSpec {
            ops: 200,
            ..FilebenchSpec::new(Workload::SeqRead, true)
        };
        let inline = run_read_overlap(&spec, None).unwrap();
        let over = run_read_overlap(&spec, Some(PipelineConfig::enabled())).unwrap();
        assert_eq!(inline.digest, over.digest, "overlap must not change bytes");
        assert!(
            over.mean_read_ns * 1.5 <= inline.mean_read_ns,
            "overlapped {:.0} ns vs inline {:.0} ns",
            over.mean_read_ns,
            inline.mean_read_ns
        );
        let (stats, ks) = over.pipeline.unwrap();
        assert!(stats.routed_extents > 0 && ks.hits > 0, "{stats:?} {ks:?}");
        assert_eq!(
            over.keystream_resident_after_lock, 0,
            "device lock must zeroize all resident keystream"
        );
    }

    #[test]
    fn seqread_behaves_like_randread_under_cache() {
        let none = cell(Workload::SeqRead, false, CryptoSetup::NoCrypto);
        let generic = cell(Workload::SeqRead, false, CryptoSetup::GenericAes);
        assert!(generic.mb_per_sec > 0.9 * none.mb_per_sec);
    }
}
